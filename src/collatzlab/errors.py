"""Exception types and the record base class shared across the package.

Each error keeps its constructor arguments in ``args``, so it pickles (a
worker process can hand it back), and builds its message only in
``__str__``: a failed replay that nobody reports costs no formatting.
"""


class Record:
    """Equality, hash and repr over the fields a subclass names, in
    constructor order, in _fields, as a dataclass writes them, and the
    _asdict of a NamedTuple. A field that holds a list makes it unhashable."""

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self):
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(pairs)})"


class CollatzlabError(Exception):
    """Base class for all package errors."""


def _at(step_index):
    return "" if step_index is None else f" (step {step_index})"


class GuardViolation(CollatzlabError):
    """An action was applied at a value where the model forbids it."""

    def __init__(self, action, value, model, step_index=None):
        super().__init__(action, value, model, step_index)
        self.action = action
        self.value = value
        self.model = model
        self.step_index = step_index

    def __str__(self):
        return (f"{self.action} illegal at {self.value} under {self.model}"
                f"{_at(self.step_index)}")


class DomainViolation(CollatzlabError):
    """A walk was started at a value that is not an integer >= 1."""

    def __init__(self, action, value, result, model, step_index=None):
        super().__init__(action, value, result, model, step_index)
        self.action = action
        self.value = value
        self.result = result
        self.model = model
        self.step_index = step_index

    def __str__(self):
        return (f"{self.action} at {self.value} gives {self.result}, "
                f"outside {self.model} domain{_at(self.step_index)}")


class UnknownClaim(CollatzlabError):
    """Claim id not present in the catalog."""

    def __init__(self, claim_id, known):
        self.claim_id = claim_id
        self.known = list(known)
        super().__init__(claim_id, self.known)

    def __str__(self):
        return (f"unknown claim {self.claim_id!r}; "
                f"known ids: {', '.join(self.known)}")


class DepthExceeded(CollatzlabError):
    """Deterministic iteration did not reach 1 within the step cap."""

    def __init__(self, start, max_depth):
        super().__init__(start, max_depth)
        self.start = start
        self.max_depth = max_depth

    def __str__(self):
        return f"{self.start} did not reach 1 within {self.max_depth} steps"
