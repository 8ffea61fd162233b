import random
from fractions import Fraction

import pytest

from soclecalc.qseries import QSeries, divisor_sigmas, eisenstein


def _random_series(rng, order):
    coeffs = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)
    )
    return QSeries(coeffs)


def test_ring_arithmetic_basics():
    one_plus = QSeries((1, 1, 0))
    one_minus = QSeries((1, -1, 0))
    assert (one_plus * one_minus).coeffs == (1, 0, -1)


def test_a_series_has_no_scalar_product():
    # scaling is no QSeries operation: a number on either side raises,
    # while series times series stays the truncated product
    s, t = QSeries((1, 2, 3)), QSeries((0, 1))
    for c in (2, Fraction(1, 2)):
        with pytest.raises(TypeError):
            c * s
        with pytest.raises(TypeError):
            s * c
    assert (s * t).coeffs == (0, 1)
    assert (s * s).coeffs == (1, 4, 10)


def test_truncation_to_min_order():
    a = QSeries((1, 2, 3, 4))
    b = QSeries((1, 1))
    assert (a * b).order == 1


def test_mul_commutative_associative():
    rng = random.Random(7)
    for _ in range(8):
        a = _random_series(rng, 12)
        b = _random_series(rng, 12)
        c = _random_series(rng, 12)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_eisenstein_frozen_expansions():
    # divisor sums checked by brute-force enumeration
    assert eisenstein(2, 4).coeffs == (Fraction(-1, 24), 1, 3, 4, 7)
    assert eisenstein(4, 3).coeffs == (Fraction(1, 240), 1, 9, 28)
    assert eisenstein(6, 1).coeffs == (Fraction(-1, 504), 1)


def test_eisenstein_truncation_consistency():
    full = eisenstein(4, 20)
    for shorter in (0, 3, 11):
        assert full.coeffs[: shorter + 1] == eisenstein(4, shorter).coeffs


def test_eisenstein_rejects_bad_weight():
    for k in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            eisenstein(k, 5)
    # a negative truncation order is an error, not an order-0 series
    with pytest.raises(ValueError, match="order >= 0"):
        eisenstein(4, -3)


def test_divisor_sigma_brute_force_definition():
    # the sieved table against trial division of every n
    for order in (0, 1, 2, 12, 60):
        for p in range(5):
            assert divisor_sigmas(p, order) == tuple(
                sum(d**p for d in range(1, n + 1) if n % d == 0)
                for n in range(1, order + 1)
            )


def test_coefficients_are_fractions_and_fractions_are_kept():
    half = Fraction(1, 2)
    s = QSeries([1, half, Fraction(3)])
    assert s.coeffs == (1, half, 3)
    assert all(type(c) is Fraction for c in s.coeffs)
    assert s.coeffs[1] is half


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2"])
def test_coefficients_must_be_ints_or_fractions(bad):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError):
        QSeries((bad,))
    with pytest.raises(TypeError):
        QSeries((1, bad))
    with pytest.raises(TypeError):
        QSeries((bad, 0, 0))
