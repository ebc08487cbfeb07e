"""Canonical base-3 numerals: the ternary view of values in traces.

A numeral is a digit string, most significant digit first, with digits
0-2 and no leading zero.
"""

from __future__ import annotations

# _CHUNKS[r] is r < 3**5 as five digits, most-significant-first.
_CHUNKS = tuple(f"{r // 81}{r // 27 % 3}{r // 9 % 3}{r // 3 % 3}{r % 3}"
                for r in range(243))


def to_ternary(n: int) -> str:
    """Canonical base-3 digit string of a positive integer."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    chunks = []
    while n >= 243:
        n, r = divmod(n, 243)
        chunks.append(_CHUNKS[r])
    # 1 <= n < 243 here: the leading chunk without its leading zeros.
    chunks.append(_CHUNKS[n].lstrip("0"))
    return "".join(reversed(chunks))


def from_ternary(digits: str) -> int:
    """The integer a canonical base-3 digit string denotes; inverse of
    to_ternary up to Python's limit on digits converted from a string
    (sys.get_int_max_str_digits(), 4300 by default)."""
    return int(digits, 3)
