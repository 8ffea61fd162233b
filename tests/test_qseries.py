import random
from fractions import Fraction

import pytest

from soclecalc.qseries import QSeries, divisor_sigmas, eisenstein, q_d_q


def _random_series(rng, order, constant_known=True):
    coeffs = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)
    )
    return QSeries(coeffs, constant_known)


def test_ring_arithmetic_basics():
    one_plus = QSeries((1, 1, 0))
    one_minus = QSeries((1, -1, 0))
    assert (one_plus * one_minus).coeffs == (1, 0, -1)
    assert (QSeries((0, 1)) + QSeries((0, 1))).coeffs == (0, 2)
    assert eisenstein(2, 2).scale(2).coeffs == (Fraction(-1, 12), 2, 6)


def test_truncation_to_min_order():
    a = QSeries((1, 2, 3, 4))
    b = QSeries((1, 1))
    assert (a + b).order == 1
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
            assert divisor_sigmas(p, order) == [
                sum(d**p for d in range(1, n + 1) if n % d == 0)
                for n in range(1, order + 1)
            ]


def test_q_d_q_definition_and_examples():
    s = QSeries((5, 1, 7))
    assert q_d_q(s).coeffs == (0, 1, 14)
    assert q_d_q(eisenstein(2, 3)).coeffs == (0, 1, 6, 12)
    assert q_d_q(QSeries.constant(3, 4)) == QSeries.zero(4)


def test_q_d_q_is_a_derivation():
    rng = random.Random(42)
    for _ in range(10):
        f = _random_series(rng, 16)
        g = _random_series(rng, 16)
        assert q_d_q(f * g) == q_d_q(f) * g + f * q_d_q(g)


def test_unknown_constant_propagation():
    u = QSeries((99, 2, 3), constant_known=False)
    # placeholder is canonicalized, so equality stays structural
    assert u.coeffs[0] == 0
    known = QSeries((1, 1, 1))
    assert not (u + known).constant_known
    assert not u.scale(5).constant_known
    with pytest.raises(ValueError):
        u * known
    with pytest.raises(ValueError):
        u[0]
    # the derivation kills the constant, making the output fully known
    assert q_d_q(u).constant_known
    assert q_d_q(u).coeffs == (0, 2, 6)


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
        QSeries((1, bad), constant_known=False)
    with pytest.raises(TypeError):
        QSeries.constant(bad, 2)
    with pytest.raises(TypeError):
        QSeries((1, 2)).scale(bad)
