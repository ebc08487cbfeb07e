"""Canonical base-3 numerals: the ternary view of values in traces.

Digits are stored least-significant-first, the order in which to_ternary
produces them; rendering flips to most-significant-first.
"""

from __future__ import annotations

from dataclasses import dataclass

_DIGIT_SET = frozenset((0, 1, 2))
_DIGIT_CHARS = bytes.maketrans(b"\x00\x01\x02", b"012")
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
        return bytes(reversed(self.digits)).translate(_DIGIT_CHARS).decode()


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

