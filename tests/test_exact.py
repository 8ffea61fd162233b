from fractions import Fraction
from math import comb

import pytest

from soclecalc import exact, modfit
from soclecalc.exact import (
    bernoulli,
    double_factorial_odd,
    factorial,
    format_rational,
    rational,
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


def test_bernoulli_grows_only_the_even_indices(monkeypatch):
    # the even-index recurrence stores B_0, B_2, .. B_600 only, 301 entries,
    # and steps each binomial from the previous one: no math.comb call
    monkeypatch.setattr(exact, "_bernoulli_cache", [Fraction(1)])
    monkeypatch.setattr(modfit, "_eisenstein_constants", [])
    calls = 0
    comb = exact.math.comb

    def counted(n, k):
        nonlocal calls
        calls += 1
        return comb(n, k)

    with monkeypatch.context() as patch:
        patch.setattr(exact.math, "comb", counted)
        bernoulli(600)
    assert calls == 0
    assert len(exact._bernoulli_cache) == 301
    assert bernoulli(1) == Fraction(-1, 2)
    assert all(bernoulli(k) == 0 for k in range(3, 602, 2))
    # against Euler's convolution identity, which reads B_2, B_4, B_6 only
    assert [bernoulli(2 * n) for n in range(1, 151)] == [
        -4 * n * modfit._eisenstein_constant(2 * n) for n in range(1, 151)
    ]


def test_pascal_steps_equal_their_binomials(monkeypatch):
    # bernoulli and modfit._apostol_terms step along one row of Pascal's
    # triangle, two entries at a time; here each binomial is math.comb
    monkeypatch.setattr(exact, "_bernoulli_cache", [Fraction(1)])
    even = [Fraction(1)]
    for n in range(1, 201):
        acc = sum(comb(2 * n + 1, 2 * i) * even[i] for i in range(n))
        even.append(Fraction(1, 2) - acc / (2 * n + 1))
    assert [bernoulli(2 * n) for n in range(201)] == even
    for k in range(8, 201, 2):
        n = k // 2
        num, den = 6 * (k - 2) * (k - 3), (k + 1) * (n - 3)
        twice = [1 if 2 * i == n else 2 for i in range(n // 2 + 1)]
        assert modfit._apostol_terms(k) == [
            (twice[i] * Fraction(num * comb(k - 4, 2 * i - 2), den), 2 * i, k - 2 * i)
            for i in range(2, n // 2 + 1)
        ], k


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


def test_only_ints_and_fractions_are_rational():
    half = Fraction(1, 2)
    assert rational(half) is half
    assert rational(-3) == -3 and type(rational(-3)) is Fraction
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            rational(bad)
        with pytest.raises(TypeError):
            format_rational(bad)
