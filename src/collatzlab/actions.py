"""The T/B/F/D action algebra and the four model guard tables.

Sequence strings apply left to right: the first letter is the first action
performed. Under that convention 'TDDFFBBT' is exactly x -> x + 1 over the
rationals, which pins the reading of every other sequence.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import DomainViolation, GuardViolation
from .ternary import to_ternary  # noqa: F401  bound for bench/tracer.py


class ModelId(enum.Enum):
    M0 = "m0"  # deterministic: T on odds, B on evens
    MS = "ms"  # adds F at x = 1 (mod 3)
    M1 = "m1"  # adds unguarded T and D
    M2 = "m2"  # unguarded rational interpreter

    # Members are singletons and compare by identity, so the identity hash
    # is consistent with == and runs in C instead of Enum.__hash__.
    __hash__ = object.__hash__

    def __str__(self):
        return self.name


INTEGER_MODELS = (ModelId.M0, ModelId.MS, ModelId.M1)


class Action(enum.Enum):
    T = "T"  # x -> 3x + 1
    B = "B"  # x -> x / 2
    F = "F"  # x -> (x - 1) / 3
    D = "D"  # x -> 2x

    __hash__ = object.__hash__  # see ModelId

    def __str__(self):
        return self.value

    @property
    def inverse(self) -> "Action":
        return _INVERSE[self._value_]


# Keyed by letter: hashing a str skips the Python-level Enum.__hash__.
_INVERSE = {"T": Action.F, "F": Action.T, "B": Action.D, "D": Action.B}
# Plain globals for the per-step code in _replay, evaluate_exact,
# evaluate_form and walk_form's peak scan: one dict lookup per use instead
# of a global lookup plus an enum attribute access.
_T, _B, _F, _D = Action.T, Action.B, Action.F, Action.D
_M0, _M1 = ModelId.M0, ModelId.M1


def _fraction(*args):   # fractions is imported with the first one built
    from fractions import Fraction
    return Fraction(*args)


def action_function(action: Action, x):
    """The exact map of an action, no guards applied."""
    if action is Action.T:
        return 3 * x + 1
    if action is Action.D:
        return 2 * x
    if action is Action.B:
        if isinstance(x, int):
            return x // 2 if x % 2 == 0 else _fraction(x, 2)
        return x / 2
    if isinstance(x, int):
        return (x - 1) // 3 if x % 3 == 1 else _fraction(x - 1, 3)
    return (x - 1) / 3


def _replay(steps, x, model: ModelId, first=0) -> list:
    """Apply steps to x under model's guards; every value, x first.

    The integer models' guard table, fused for replay speed (``models``' step
    functions repeat it for search). The start must be an integer >= 1; the
    guards keep every legal result there, so it is not re-checked: T gives
    >= 4, B halves an even >= 2, F needs x >= 4 with x = 1 (mod 3) and D
    doubles. The i-th step's error carries step index first + i, or none
    when first is None. M2 evaluates over exact rationals with no guard.
    """
    values = [x]
    if model not in INTEGER_MODELS:
        from fractions import Fraction
        for action in steps:
            x = action_function(action, Fraction(x))
            values.append(x)
        return values
    if steps and (not isinstance(x, int) or x < 1):
        raise DomainViolation(steps[0], x, x, model, first)
    free = model is _M1  # T and D unguarded
    has_f = model is not _M0
    append = values.append
    for action in steps:
        if action is _T:
            if not (x & 1 or free):
                break
            x = 3 * x + 1
        elif action is _B:
            if x & 1:
                break
            x >>= 1
        elif action is _F:
            if not has_f or x % 3 != 1 or x == 1:
                break
            x = (x - 1) // 3
        elif free:
            x <<= 1
        else:
            break
        append(x)
    else:
        return values
    index = None if first is None else first + len(values) - 1
    raise GuardViolation(action, x, model, index)


def walk_form(steps, a, b, least, model: ModelId):
    """_replay on the form x = a*s + b for every integer s >= least at once:
    (end form, peak forms), or None when some such s would make _replay
    raise.

    Two replays, at s = least and least + 1, with no guard of their own.
    Each value of a walk is affine in s, and its form is read off the two
    replays. Every guard reads x mod 2 or x mod 3 of one such value, and
    the two values differ by its integer slope, so a guard that holds at
    both holds at every s. x > 1, and the start's x >= 1, are read at
    least, since a >= 0 keeps every value growing with s. The largest
    value of the walk at any s is the largest of the peak forms at that s:
    the forms before each B or F, which lower a value, and the end.
    """
    if steps and a < 0:
        return None
    try:
        low, high = (_replay(steps, a * s + b, model)
                     for s in (least, least + 1))
    except (GuardViolation, DomainViolation):
        return None
    forms = [(y - x, x - (y - x) * least) for x, y in zip(low, high)]
    peaks = [form for form, action in zip(forms, steps)
             if action is _B or action is _F]
    return forms[-1], (*peaks, forms[-1])


def apply(action: Action, x, model: ModelId, step_index=None):
    """Apply one action under a model's guards: a one-step replay."""
    return _replay((action,), x, model, step_index)[1]


class ActionSeq(NamedTuple):
    """An ordered list of actions, first entry applied first."""

    steps: tuple[Action, ...]

    def __reduce__(self):   # pickle by steps: iterating gives the actions
        return ActionSeq, (self.steps,)

    def __str__(self):
        return self.render()

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __add__(self, other: "ActionSeq") -> "ActionSeq":
        return ActionSeq(self.steps + other.steps)

    def render(self) -> str:
        return "".join(a.value for a in self.steps)


def seq_of(text: str) -> ActionSeq:
    """The sequence spelled by a string of T/B/F/D letters, first letter
    first; any other character raises ValueError."""
    return ActionSeq(tuple(Action(c) for c in text))


def inverse_seq(seq: ActionSeq) -> ActionSeq:
    """Reverse the order and invert every action."""
    return ActionSeq(tuple(_INVERSE[a._value_] for a in reversed(seq.steps)))


class Path(NamedTuple):
    """A guard-legal walk through one model: values[i + 1] is the i-th
    action applied to values[i], from values[0] = start to values[-1] = end.

    An immutable value: equal and hashed by its five fields. Its length is
    the number of actions, so a walk with no action is falsy.
    """

    model: ModelId
    start: object
    actions: ActionSeq
    end: object
    values: tuple

    def __len__(self):
        return len(self.actions)

    @property
    def peak(self):
        return max(self.values)

    def validate(self) -> bool:
        """Re-apply the actions; True iff every step is guard-legal and
        every value reproduces exactly."""
        try:
            return apply_seq(self.actions, self.start, self.model) == self
        except (GuardViolation, DomainViolation):
            return False

    def render(self) -> str:
        out = [str(self.start)]
        for action, value in zip(self.actions, self.values[1:]):
            out.append(f"-{action.value}-> {value}")
        return " ".join(out)


def apply_seq(seq: ActionSeq, x, model: ModelId) -> Path:
    """Run a whole sequence, recording every intermediate.

    Fails fast: the first illegal step raises with its index attached.
    """
    values = _replay(seq.steps, x, model)
    return Path(model, x, seq, values[-1], tuple(values))


def validate_trace(path: Path) -> bool:
    """Path.validate under its older name."""
    return path.validate()


def evaluate_exact(seq: ActionSeq, x):
    """Unguarded signed-rational evaluation of a sequence.

    Returns (end, flagged): end is the exact result, an int when it is an
    integer and a Fraction otherwise, and flagged lists (step_index, value)
    for every intermediate <= 0, in step order, each value a Fraction.
    Runs on a raw numerator/denominator pair p/q with q > 0: the only
    denominators that ever appear are products of 2s and 3s, so B and F
    divide p exactly when they can and otherwise grow q. The pair is not
    kept in lowest terms between steps; end is normalised once.
    """
    if isinstance(x, int):
        p, q = x, 1
    else:
        x = _fraction(x)
        p, q = x.numerator, x.denominator
    flagged = []
    for i, action in enumerate(seq.steps):
        if action is _T:
            p = 3 * p + q
        elif action is _D:
            p <<= 1
        elif action is _B:
            if p & 1:
                q <<= 1
            else:
                p >>= 1
        else:  # F
            p -= q
            if p % 3:
                q *= 3
            else:
                p //= 3
        if p <= 0:
            flagged.append((i, _fraction(p, q)))
    if p % q:
        return _fraction(p, q), flagged
    return p // q, flagged


def evaluate_form(seq: ActionSeq) -> tuple[int, int, int, int | float]:
    """evaluate_exact on the start x itself, for every x at once: (alpha,
    beta, q, low), where x ends at (alpha*x + beta) / q and an integer x
    meets an intermediate <= 0 exactly when x <= low (-inf when none does).

    The numerator stays affine in x over one denominator q = 2^#B * 3^#F:
    B only doubles q, F subtracts q and triples it. alpha > 0 throughout, so
    the value after a step is <= 0 exactly for the x <= -beta // alpha. T, B
    and D keep a value > 0 above 0, so a first value <= 0 comes either from
    the first step or from an F: low is read after those steps only.
    """
    alpha, beta, q, low = 1, 0, 1, -math.inf
    for i, action in enumerate(seq.steps):
        if action is _T:
            alpha, beta = 3 * alpha, 3 * beta + q
        elif action is _D:
            alpha, beta = alpha << 1, beta << 1
        elif action is _B:
            q <<= 1
        else:  # F
            beta -= q
            q *= 3
        if i == 0 or action is _F:
            low = max(low, -beta // alpha)
    return alpha, beta, q, low
