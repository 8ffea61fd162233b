from fractions import Fraction
from math import factorial

import pytest

from soclecalc.elliptic import (
    check_propagator_identity,
    necklace_coefficient_series,
    propagator_expansion,
    top_weight_check,
    weierstrass_expansion,
)
from soclecalc.modfit import (
    FitInconsistency,
    basis,
    fit,
    graded_part,
    monomial_weight,
)
from soclecalc.qseries import QSeries, eisenstein, q_d_q


# --- independent oracle: Laurent coefficients of e^w/(e^w-1)^2 by
# explicit series division, no Bernoulli numbers involved

def _series_mul(p, q, order):
    out = [Fraction(0)] * (order + 1)
    for i, pi in enumerate(p[: order + 1]):
        if pi == 0:
            continue
        for j in range(order - i + 1):
            out[i + j] += pi * q[j]
    return out


def _series_inv(a, order):
    b = [Fraction(0)] * (order + 1)
    b[0] = 1 / a[0]
    for m in range(1, order + 1):
        b[m] = -b[0] * sum(a[k] * b[m - k] for k in range(1, m + 1))
    return b


def _pole_part_oracle(w_order):
    # e^w - 1 = w * A(w) with A(0) = 1; target = e^w / (w^2 A(w)^2), so
    # the w^e coefficient is the w^(e+2) coefficient of e^w * A^(-2)
    order = w_order + 2
    A = [Fraction(1, factorial(k + 1)) for k in range(order + 1)]
    E = [Fraction(1, factorial(k)) for k in range(order + 1)]
    inv = _series_inv(_series_mul(A, A, order), order)
    full = _series_mul(E, inv, order)
    return {e: full[e + 2] for e in range(-2, w_order + 1)}


def test_propagator_constant_layer_matches_division_oracle():
    prop = propagator_expansion(2, (2, 8))
    oracle = _pole_part_oracle(8)
    for e in range(-2, 9):
        assert prop.coefficient(e).coeffs[0] == oracle[e], f"w^{e}"
    assert oracle[0] == Fraction(-1, 12)
    assert oracle[2] == Fraction(1, 240)


def test_propagator_first_q_layer_is_symmetrized_exponential():
    # only a=1 divides 1: coefficient layer is e^w + e^-w
    prop = propagator_expansion(3, (2, 6))
    expected = {0: 2, 1: 0, 2: 1, 3: 0, 4: Fraction(1, 12), 5: 0,
                6: Fraction(2, factorial(6))}
    for e, val in expected.items():
        assert prop.coefficient(e).coeffs[1] == val


def test_propagator_pole_layer():
    prop = propagator_expansion(5, (3, 4))
    assert prop.coefficient(-2) == QSeries.constant(1, 5)
    assert prop.coefficient(-1) == QSeries.zero(5)
    assert prop.coefficient(-3) == QSeries.zero(5)
    with pytest.raises(ValueError):
        propagator_expansion(4, (1, 4))


def test_weierstrass_expansion_layers():
    wp = weierstrass_expansion(4, 4)
    assert wp.coefficient(-2) == QSeries.constant(1, 4)
    assert wp.coefficient(0) == eisenstein(2, 4).scale(2)
    assert wp.coefficient(2) == eisenstein(4, 4)  # 2/2! = 1
    assert wp.coefficient(1) == QSeries.zero(4)
    assert wp.coefficient(3) == QSeries.zero(4)


def test_propagator_identity_passes():
    assert check_propagator_identity(8, 8).ok
    assert check_propagator_identity(1, 0).ok


def test_propagator_identity_full_window_sweep():
    for q_order in range(1, 11):
        for w_order in range(0, 11):
            assert check_propagator_identity(q_order, w_order).ok


def test_propagator_identity_difference_has_no_principal_part():
    prop = propagator_expansion(6, (2, 6))
    wp = weierstrass_expansion(6, 6)
    for e in (-2, -1):
        assert prop.coefficient(e) == wp.coefficient(e), f"w^{e}"
    # the propagator's own principal part is independent of q
    prop = propagator_expansion(6, (4, 6))
    for e in range(-4, 0):
        assert all(c == 0 for c in prop.coefficient(e).coeffs[1:]), f"w^{e}"


def test_wrong_divisor_power_fails_the_identity():
    # divisor sums at n=1 are 1 for every power, so the two conventions
    # first part at q^2: 2*sigma_1(2) = 6 against 2*sigma_2(2) = 10
    res = check_propagator_identity(8, 8, divisor_power_shift=1)
    assert not res.ok
    assert (res.witness["q_power"], res.witness["w_power"]) == (2, 0)
    assert res.witness["lhs"] == 6
    assert res.witness["rhs"] == 10


# --- necklace coefficient series

def _necklace_brute_force(g, j_plus, j_minus, q_order):
    """Literal summation over kissing weights |a| <= 3*q_order+3 with
    explicit geometric expansions per edge factor."""
    N = q_order

    def geom_here(a):  # a/(1-q^a) for a > 0
        s = [Fraction(0)] * (N + 1)
        for k in range(N // a + 1):
            s[a * k] = Fraction(a)
        return s

    def geom_mirror(a):  # -a/(1-q^(-a)) = a q^a/(1-q^a) for a > 0
        s = [Fraction(0)] * (N + 1)
        for k in range(1, N // a + 1):
            s[a * k] = Fraction(a)
        return s

    out = [Fraction(0)] * (N + 1)
    for a in range(1, 3 * N + 4):
        for sign in (1, -1):
            plus_factor = geom_here(a) if sign > 0 else geom_mirror(a)
            minus_factor = geom_mirror(a) if sign > 0 else geom_here(a)
            term = [Fraction(1)] + [Fraction(0)] * N
            for _ in range(j_plus):
                term = _series_mul(term, plus_factor, N)
            for _ in range(j_minus):
                term = _series_mul(term, minus_factor, N)
            if j_minus == 0 and sign > 0:
                term[0] = Fraction(0)  # divergent stratum removed
            w = Fraction(sign * a) ** (2 * g - 2)
            for i in range(N + 1):
                out[i] += w * term[i]
    return out


def test_necklace_series_frozen_anchor():
    ncs = necklace_coefficient_series(1, 1, 1, 3)
    # closed resummation: 2 * sum n sigma_1(n) q^n
    assert ncs == QSeries((0, 2, 12, 24))
    assert ncs == q_d_q(eisenstein(2, 3)).scale(2)


@pytest.mark.parametrize(
    "g,jp,jm", [(1, 1, 1), (1, 2, 0), (2, 1, 1), (2, 2, 1), (1, 2, 2), (3, 1, 0)]
)
def test_necklace_series_matches_brute_force(g, jp, jm):
    N = 8
    ncs = necklace_coefficient_series(g, jp, jm, N)
    brute = _necklace_brute_force(g, jp, jm, N)
    start = 0 if jm >= 1 else 1
    assert list(ncs.coeffs[start:]) == brute[start:]


def test_necklace_series_constant_flag():
    assert necklace_coefficient_series(1, 2, 0, 4).constant_known is False
    assert necklace_coefficient_series(1, 1, 1, 4).constant_known is True


def test_necklace_series_zero_at_order_zero():
    for g, jp, jm in [(1, 1, 1), (2, 3, 2)]:
        assert necklace_coefficient_series(g, jp, jm, 0) == QSeries.zero(0)


def test_necklace_series_swap_symmetry():
    for g in (1, 2):
        for jp, jm in [(1, 2), (2, 1), (1, 3), (2, 2)]:
            a = necklace_coefficient_series(g, jp, jm, 10)
            b = necklace_coefficient_series(g, jm, jp, 10)
            assert a == b


def test_necklace_series_rejects_bad_input():
    with pytest.raises(ValueError):
        necklace_coefficient_series(0, 1, 1, 5)
    with pytest.raises(ValueError):
        necklace_coefficient_series(1, 0, 2, 5)


# --- top weight extraction

def test_top_weight_anchor_is_pure_weight():
    ncs = necklace_coefficient_series(1, 1, 1, 20)
    p = fit(ncs, 4)
    assert not isinstance(p, FitInconsistency)
    # no lower-weight part at all in this case
    assert graded_part(p, 4) == p
    assert top_weight_check(1, 1, 1, 20).ok


def test_top_weight_two_edge_case_is_again_pure():
    # the balanced two-edge necklace resums to 2 q d/dq of the weight-2g
    # generator for every g, so no lower-weight tail appears here either
    assert top_weight_check(2, 1, 1, 20).ok
    ncs = necklace_coefficient_series(2, 1, 1, 20)
    p = fit(ncs, 6)
    assert graded_part(p, 6) == p
    assert sorted({monomial_weight(m) for m in p.terms}) == [6]


def test_top_weight_with_lower_order_remainder():
    # the four-edge split (2,2) at genus 1 does carry a tail below the
    # top weight 8
    assert top_weight_check(1, 2, 2, 30).ok
    ncs = necklace_coefficient_series(1, 2, 2, 30)
    p = fit(ncs, 8)
    assert graded_part(p, 8) != p
    assert sorted({monomial_weight(m) for m in p.terms}) == [6, 8]


def test_top_weight_three_edge_case():
    assert top_weight_check(1, 2, 1, 25).ok


def test_top_weight_sweep_all_splits():
    for g in range(1, 4):
        for m in range(1, 5):
            q_order = 25 if 2 * g - 2 + 2 * m <= 10 else 30
            for j_plus in range(1, m + 1):
                res = top_weight_check(g, j_plus, m - j_plus, q_order)
                assert res.ok, res.to_dict()


def test_top_weight_order_precondition():
    with pytest.raises(ValueError):
        top_weight_check(3, 2, 2, 12)


def test_top_weight_order_rule_is_fit_margin():
    # the fit solves q^1..q^order against the monomials other than 1 and
    # needs 5 surplus rows, so len(basis(W)) + 4 is the smallest order
    for g, j_plus, j_minus in ((1, 1, 0), (2, 1, 1), (3, 2, 1)):
        order = len(basis(2 * g - 2 + 2 * (j_plus + j_minus))) + 4
        assert top_weight_check(g, j_plus, j_minus, order).ok
        with pytest.raises(ValueError):
            top_weight_check(g, j_plus, j_minus, order - 1)


# --- loop factor

def test_loop_coefficient_values():
    # the single-vertex loop: the one-edge necklace series is 2 G_2g on
    # every q^n with n >= 1 (its regularized constant is left unknown)
    assert necklace_coefficient_series(1, 1, 0, 2).coeffs[1:] == (2, 6)
    for g in range(1, 7):
        series = necklace_coefficient_series(g, 1, 0, 30)
        assert not series.constant_known
        assert series.coeffs[1:] == eisenstein(2 * g, 30).scale(2).coeffs[1:]
