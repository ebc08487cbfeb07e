"""Base-3 numerals with explicit digit arithmetic.

Digits are stored least-significant-first so appending/stripping a suffix
digit is O(1); rendering flips to most-significant-first. Doubling and
halving work directly on the digit array (carry / borrow propagation) so
they can be cross-checked against plain integer conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainViolation, GuardViolation

_DIGIT_SET = frozenset((0, 1, 2))
# _CHUNKS[r] is r < 3**5 as five digits, least-significant-first.
_CHUNKS = tuple((r % 3, r // 3 % 3, r // 9 % 3, r // 27 % 3, r // 81)
                for r in range(243))


@dataclass(frozen=True)
class Ternary:
    """A positive integer as a canonical base-3 digit string."""

    digits: tuple[int, ...]  # least-significant-first, msd != 0

    def __post_init__(self):
        if not self.digits:
            raise ValueError("empty digit list")
        if not _DIGIT_SET.issuperset(self.digits):
            raise ValueError(f"digits must be in 0..2: {self.digits}")
        if self.digits[-1] == 0:
            raise ValueError("leading zero: not canonical")

    def __str__(self):
        return "".join(["012"[d] for d in reversed(self.digits)])

    def __int__(self):
        return from_ternary(self)

    @property
    def last_digit(self) -> int:
        return self.digits[0]


def to_ternary(n: int) -> Ternary:
    """Canonical base-3 form of a positive integer."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    digits = []
    while n >= 243:
        n, r = divmod(n, 243)
        digits += _CHUNKS[r]
    while n:
        n, d = divmod(n, 3)
        digits.append(d)
    return Ternary(tuple(digits))


def from_ternary(a: Ternary) -> int:
    value = 0
    for d in reversed(a.digits):
        value = value * 3 + d
    return value


def parse_ternary(text: str) -> Ternary:
    """Parse a most-significant-first digit string like "101"."""
    if not text or any(c not in "012" for c in text):
        raise ValueError(f"not a ternary digit string: {text!r}")
    return Ternary(tuple(int(c) for c in reversed(text)))


def append_digit(a: Ternary, d: int) -> Ternary:
    """Suffix digit d: value becomes 3*value + d."""
    if d not in (0, 1, 2):
        raise ValueError(f"digit must be 0, 1 or 2: {d}")
    return Ternary((d,) + a.digits)


def strip_trailing_one(a: Ternary) -> Ternary:
    """Erase a trailing '1': value becomes (value - 1) / 3."""
    if a.digits[0] != 1:
        raise GuardViolation("strip_trailing_one", str(a), "ternary")
    if len(a.digits) == 1:
        raise DomainViolation("strip_trailing_one", str(a), 0, "ternary")
    return Ternary(a.digits[1:])


def double(a: Ternary) -> Ternary:
    """2*value, carries propagated digit by digit."""
    out = []
    carry = 0
    for d in a.digits:
        carry, r = divmod(2 * d + carry, 3)
        out.append(r)
    if carry:
        out.append(carry)
    return Ternary(tuple(out))


def parity(a: Ternary) -> int:
    # 3 is odd, so parity is the digit sum mod 2.
    return sum(a.digits) & 1


def _halve_digits(a: Ternary) -> tuple[list[int], int]:
    # Long division by 2, borrow chains run high-to-low.
    out = []
    rem = 0
    for d in reversed(a.digits):
        cur = rem * 3 + d
        out.append(cur // 2)
        rem = cur % 2
    out.reverse()
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out, rem


def halve(a: Ternary) -> Ternary:
    """value / 2; only defined for even values."""
    if parity(a) != 0:
        raise GuardViolation("halve", str(a), "ternary")
    out, _ = _halve_digits(a)
    return Ternary(tuple(out))


def floor_halve(a: Ternary) -> Ternary:
    """floor(value / 2), defined for every value >= 2."""
    out, _ = _halve_digits(a)
    if out == [0]:
        raise DomainViolation("floor_halve", str(a), 0, "ternary")
    return Ternary(tuple(out))


def floor_halve_k(a: Ternary, k: int) -> Ternary:
    """k-fold floor halving."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    for _ in range(k):
        a = floor_halve(a)
    return a


def cluster_decompose(n: int) -> tuple[int, int]:
    """Split n = 9k + r.

    r <= 4 puts n in k's 5-cluster, 5 <= r <= 7 in the 3-cluster,
    r = 8 is the remaining 9-cluster member.
    """
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    return divmod(n, 9)
