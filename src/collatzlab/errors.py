"""Exception types shared across the package."""


class CollatzlabError(Exception):
    """Base class for all package errors."""


class ParseError(CollatzlabError):
    """Invalid character in an action-sequence string."""

    def __init__(self, text, position):
        self.text = text
        self.position = position
        super().__init__(f"invalid action symbol {text[position]!r} at index {position}")


class GuardViolation(CollatzlabError):
    """An action was applied at a value where the model forbids it."""

    def __init__(self, action, value, model, step_index=None):
        self.action = action
        self.value = value
        self.model = model
        self.step_index = step_index
        at = "" if step_index is None else f" (step {step_index})"
        super().__init__(f"{action} illegal at {value} under {model}{at}")


class DomainViolation(CollatzlabError):
    """A result left the model's domain (non-positive, or non-integer)."""

    def __init__(self, action, value, result, model, step_index=None):
        self.action = action
        self.value = value
        self.result = result
        self.model = model
        self.step_index = step_index
        at = "" if step_index is None else f" (step {step_index})"
        super().__init__(
            f"{action} at {value} gives {result}, outside {model} domain{at}"
        )


class IllegalEdge(CollatzlabError):
    """Edge classification was asked for a pair that is not a legal move."""


class UnknownClaim(CollatzlabError):
    """Claim id not present in the catalog."""

    def __init__(self, claim_id, known):
        self.claim_id = claim_id
        self.known = list(known)
        super().__init__(
            f"unknown claim {claim_id!r}; known ids: {', '.join(self.known)}"
        )


class DepthExceeded(CollatzlabError):
    """Deterministic iteration did not reach 1 within the step cap."""

    def __init__(self, start, max_depth):
        self.start = start
        self.max_depth = max_depth
        super().__init__(f"{start} did not reach 1 within {max_depth} steps")
