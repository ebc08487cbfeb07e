"""Base-3 numerals against the int-conversion oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzlab.ternary import from_ternary, to_ternary

values = st.integers(min_value=1, max_value=10**12)


def base3_oracle(n):
    """Independent base-3 rendering (most significant digit first)."""
    digits = ""
    while n:
        digits = str(n % 3) + digits
        n //= 3
    return digits


def test_known_renderings():
    assert to_ternary(1) == "1"
    assert to_ternary(3) == "10"
    assert to_ternary(4) == "11"
    assert to_ternary(7) == "21"
    assert to_ternary(25) == "221"


@given(values)
def test_round_trip(n):
    assert from_ternary(to_ternary(n)) == n


@given(values)
@settings(max_examples=300)
def test_rendering_matches_oracle(n):
    assert to_ternary(n) == base3_oracle(n)


def assert_canonical(digits):
    assert digits[0] != "0"  # no leading zero
    assert set(digits) <= set("012")


@given(values)
def test_canonical_form_enforced(n):
    assert_canonical(to_ternary(n))


def check_against_divmod_oracle(n):
    t = to_ternary(n)
    digits, m = [], n
    while m:
        m, d = divmod(m, 3)
        digits.append(d)
    assert t == "".join(str(d) for d in reversed(digits))
    assert_canonical(t)
    assert from_ternary(t) == n


def test_to_ternary_matches_divmod_oracle_exhaustively():
    # covers both sides of every five-digit chunk edge (242, 243, 244, ...)
    for n in range(1, 3**9 + 2):
        check_against_divmod_oracle(n)


@given(st.integers(min_value=1, max_value=2**70))
@settings(max_examples=500)
@example(3**45 - 1)
@example(3**45)
@example(2**70)
def test_to_ternary_matches_divmod_oracle_on_big_values(n):
    check_against_divmod_oracle(n)


def test_to_ternary_rejects_nonpositive_values():
    # 0 would need the empty digit string; negatives have no numeral here
    for n in (0, -1, -5):
        with pytest.raises(ValueError):
            to_ternary(n)
