"""Base-3 numerals against the int-conversion oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzlab.ternary import Ternary, from_ternary, to_ternary

values = st.integers(min_value=1, max_value=10**12)


def base3_oracle(n):
    """Independent base-3 rendering (most significant digit first)."""
    digits = ""
    while n:
        digits = str(n % 3) + digits
        n //= 3
    return digits


def test_known_renderings():
    assert str(to_ternary(1)) == "1"
    assert str(to_ternary(3)) == "10"
    assert str(to_ternary(4)) == "11"
    assert str(to_ternary(7)) == "21"
    assert str(to_ternary(25)) == "221"


@given(values)
def test_round_trip(n):
    assert from_ternary(to_ternary(n)) == n


@given(values)
@settings(max_examples=300)
def test_rendering_matches_oracle(n):
    assert str(to_ternary(n)) == base3_oracle(n)


def test_canonical_form_enforced():
    with pytest.raises(ValueError):
        Ternary((1, 0))  # most significant digit zero
    with pytest.raises(ValueError):
        Ternary((3,))


def check_against_divmod_oracle(n):
    t = to_ternary(n)
    digits, m = [], n
    while m:
        m, d = divmod(m, 3)
        digits.append(d)
    assert t.digits == tuple(digits)
    assert str(t) == "".join(str(d) for d in reversed(digits))
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


def test_ternary_rejects_bad_digit_lists():
    for digits in ((3,), (-1,), (1, 0), (), (1, 2, 3, 1)):
        with pytest.raises(ValueError):
            Ternary(digits)
    for n in (0, -5):
        with pytest.raises(ValueError):
            to_ternary(n)
