from fractions import Fraction

import pytest

from soclecalc.exact import (
    bernoulli,
    double_factorial_odd,
    factorial,
    format_rational,
)


def test_bernoulli_frozen_values():
    # expected values computed beforehand with the defining recurrence
    # sum_{j<=m} C(m+1, j) B_j = 0
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_indices_vanish():
    for k in range(3, 41, 2):
        assert bernoulli(k) == 0


def test_bernoulli_even_sign_alternates():
    for g in range(1, 13):
        sign = 1 if bernoulli(2 * g) > 0 else -1
        assert sign == (-1) ** (g + 1)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


@pytest.mark.parametrize(
    "m,value", [(-1, 1), (1, 1), (5, 15), (9, 945)]
)
def test_double_factorial_odd(m, value):
    assert double_factorial_odd(m) == value


@pytest.mark.parametrize("m", [-3, 0, 2, 6])
def test_double_factorial_rejects_bad_input(m):
    with pytest.raises(ValueError):
        double_factorial_odd(m)


def test_double_factorial_links_to_factorial():
    # (2n+1)!! * 2^n * n! = (2n+1)!
    for n in range(21):
        lhs = double_factorial_odd(2 * n + 1) * 2**n * factorial(n)
        assert lhs == factorial(2 * n + 1)


def test_factorial_binomial():
    assert factorial(0) == 1
    assert factorial(6) == 720
    with pytest.raises(ValueError):
        factorial(-2)


def test_rational_serialization_round_trip():
    assert format_rational(Fraction(-691, 2730)) == "-691/2730"
    assert format_rational(5) == "5/1"
    for s in ["7/3", "-1/24", "0/1", "12/1"]:
        assert format_rational(Fraction(s)) == s
