from fractions import Fraction
from math import factorial, lcm

import pytest

from soclecalc import elliptic, qseries, report
from soclecalc.cli import suite_topweight
from soclecalc.elliptic import (
    check_divisor_power_k_fails,
    check_propagator_identity,
    propagator_expansion,
    top_weight_check,
    weierstrass_expansion,
)
from soclecalc.exact import bernoulli
from soclecalc.modfit import (
    FitInconsistency,
    QuasimodularPoly,
    basis,
    block_sum,
    fit,
    monomial_weight,
    necklace_blocks,
)
from soclecalc.qseries import QSeries, eisenstein

from series_ops import (
    constant,
    evaluate,
    graded_part,
    necklace_series,
    q_d_q,
    scale,
    zero,
)


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
    prop = propagator_expansion(2, 8)
    oracle = _pole_part_oracle(8)
    assert sorted(prop) == list(range(-2, 9))
    for e in range(-2, 9):
        assert prop[e].coeffs[0] == oracle[e], f"w^{e}"
    assert oracle[0] == Fraction(-1, 12)
    assert oracle[2] == Fraction(1, 240)


def test_propagator_first_q_layer_is_symmetrized_exponential():
    # only a=1 divides 1: coefficient layer is e^w + e^-w
    prop = propagator_expansion(3, 6)
    expected = {0: 2, 1: 0, 2: 1, 3: 0, 4: Fraction(1, 12), 5: 0,
                6: Fraction(2, factorial(6))}
    for e, val in expected.items():
        assert prop[e].coeffs[1] == val


def test_propagator_pole_layer():
    prop = propagator_expansion(5, 4)
    assert prop[-2] == constant(1, 5)
    assert prop[-1] == zero(5)
    assert min(prop) == -2


def test_weierstrass_expansion_layers():
    wp = weierstrass_expansion(4, 4)
    assert sorted(wp) == list(range(-2, 5))
    assert wp[-2] == constant(1, 4)
    assert wp[-1] == zero(4)
    assert wp[0] == scale(eisenstein(2, 4), 2)
    assert wp[2] == eisenstein(4, 4)  # 2/2! = 1
    assert wp[1] == zero(4)
    assert wp[3] == zero(4)


def test_propagator_identity_passes():
    assert check_propagator_identity(8, 8).ok
    assert check_propagator_identity(1, 0).ok


def test_propagator_identity_full_window_sweep():
    for q_order in range(1, 11):
        for w_order in range(0, 11):
            assert check_propagator_identity(q_order, w_order).ok


def test_propagator_identity_difference_has_no_principal_part():
    prop = propagator_expansion(6, 6)
    wp = weierstrass_expansion(6, 6)
    for e in (-2, -1):
        assert prop[e] == wp[e], f"w^{e}"
        # the propagator's own principal part is independent of q
        assert all(c == 0 for c in prop[e].coeffs[1:]), f"w^{e}"


def test_wrong_divisor_power_fails_the_identity(monkeypatch):
    # divisor sums at n=1 are 1 for every power, so the two conventions
    # first part at q^2: 2*sigma_1(2) = 6 against 2*sigma_2(2) = 10
    mismatches = []

    def record(check, witness, **params):
        mismatches.append(witness)
        return report.failed(check, witness, **params)

    monkeypatch.setattr(elliptic, "failed", record)
    res = check_divisor_power_k_fails(8, 8)
    assert res.ok
    assert res.params["mismatch_at"] == (2, 0)
    assert mismatches == [{"q_power": 2, "w_power": 0, "lhs": 6, "rhs": 10}]
    assert check_divisor_power_k_fails(2, 1).params["mismatch_at"] == (2, 0)


def test_divisor_power_k_check_needs_q_squared():
    with pytest.raises(ValueError, match=r"q\^2"):
        check_divisor_power_k_fails(1, 8)


def test_divisor_power_k_check_fails_on_agreement(monkeypatch):
    # a "variant" built with the true divisor power k-1 agrees with the
    # propagator, and the check must report that agreement as a failure
    monkeypatch.setattr(
        elliptic, "divisor_sigmas", lambda p, n: qseries.divisor_sigmas(p - 1, n)
    )
    res = check_divisor_power_k_fails(8, 8)
    assert not res.ok
    assert res.witness == {"unexpected": "agreement"}
    assert res.check_id == (
        "elliptic.propagator_must_fail_with_divisor_power_k[q_order=8,w_order=8]"
    )


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
    ncs = necklace_series(1, 1, 1, 3)
    # closed resummation: 2 * sum n sigma_1(n) q^n
    assert ncs == QSeries((0, 2, 12, 24))
    assert ncs == scale(q_d_q(eisenstein(2, 3)), 2)


@pytest.mark.parametrize(
    "g,jp,jm", [(1, 1, 1), (1, 2, 0), (2, 1, 1), (2, 2, 1), (1, 2, 2), (3, 1, 0)]
)
def test_necklace_series_matches_brute_force(g, jp, jm):
    N = 8
    ncs = necklace_series(g, jp, jm, N)
    brute = _necklace_brute_force(g, jp, jm, N)
    start = 0 if jm >= 1 else 1
    assert list(ncs.coeffs[start:]) == brute[start:]


def test_necklace_series_constant_is_regularized():
    # with j- = 0 the divergent q^0 stratum sum_{a>=1} a^K is zeta(-K),
    # K = 2g-2+m: zeta(-1) = -1/12, zeta(-3) = 1/120, zeta(-2) = 0; with
    # j- >= 1 no term reaches q^0
    assert necklace_series(1, 1, 0, 4).coeffs[0] == Fraction(-1, 12)
    assert necklace_series(1, 3, 0, 4).coeffs[0] == Fraction(1, 120)
    assert necklace_series(1, 2, 0, 4).coeffs[0] == 0
    assert necklace_series(1, 1, 1, 4).coeffs[0] == 0


def test_regularized_constant_is_the_built_constant_and_zeta():
    # on every split with j- = 0 and g, m <= 16 the row's q^0 equals the
    # built polynomial's q^0 (c_0 [q^0]G_(K+1), Apostol's recurrence) and
    # zeta(-K) = -B_(K+1)/(K+1)
    for g in range(1, 17):
        for m in range(1, 17):
            den, row = elliptic._necklace_row(g, m, 0, 0)
            bden, built = block_sum(necklace_blocks(g, m, 0), 0)
            k = 2 * g - 2 + m
            value = Fraction(row[0], den)
            assert value == Fraction(built[0], bden), (g, m)
            assert value == -bernoulli(k + 1) / (k + 1), (g, m)


def test_necklace_series_zero_at_order_zero():
    for g, jp, jm in [(1, 1, 1), (2, 3, 2)]:
        assert necklace_series(g, jp, jm, 0) == zero(0)


def test_necklace_series_swap_symmetry():
    for g in (1, 2):
        for jp, jm in [(1, 2), (2, 1), (1, 3), (2, 2)]:
            a = necklace_series(g, jp, jm, 10)
            b = necklace_series(g, jm, jp, 10)
            assert a == b


def test_necklace_series_rejects_bad_input():
    with pytest.raises(ValueError):
        elliptic._necklace_row(0, 1, 1, 5)
    with pytest.raises(ValueError):
        elliptic._necklace_row(1, 0, 2, 5)
    # a float genus would give float-rounded coefficients from q^10 on
    with pytest.raises(TypeError):
        elliptic._necklace_row(12.0, 3, 2, 40)
    with pytest.raises(TypeError):
        elliptic._necklace_row(1, 1, 1, 5.0)
    # the built polynomial's blocks reject what the series rejects
    for args in ((0, 1, 1), (1, 0, 2), (1, 1, -1)):
        with pytest.raises(ValueError):
            necklace_blocks(*args)


# --- top weight extraction

def test_top_weight_anchor_is_pure_weight():
    ncs = necklace_series(1, 1, 1, 20)
    p = fit(ncs, 4)
    assert not isinstance(p, FitInconsistency)
    # no lower-weight part at all in this case
    assert graded_part(p, 4) == p
    assert top_weight_check(1, 1, 1, 20).ok


def test_top_weight_two_edge_case_is_again_pure():
    # the balanced two-edge necklace resums to 2 q d/dq of the weight-2g
    # generator for every g, so no lower-weight tail appears here either
    assert top_weight_check(2, 1, 1, 20).ok
    ncs = necklace_series(2, 1, 1, 20)
    p = fit(ncs, 6)
    assert graded_part(p, 6) == p
    assert sorted({monomial_weight(m) for m in p.terms}) == [6]


def test_top_weight_with_lower_order_remainder():
    # the four-edge split (2,2) at genus 1 does carry a tail below the
    # top weight 8
    assert top_weight_check(1, 2, 2, 30).ok
    ncs = necklace_series(1, 2, 2, 30)
    p = fit(ncs, 8)
    assert graded_part(p, 8) != p
    assert sorted({monomial_weight(m) for m in p.terms}) == [6, 8]


def test_top_weight_target_matches_the_derivative_chain():
    # the target built coefficient by coefficient equals m-1 passes of
    # q d/dq over G_2g, scaled by 2/(m-1)!
    for g in range(1, 7):
        for m in range(1, 7):
            chain = eisenstein(2 * g, 12)
            for _ in range(m - 1):
                chain = q_d_q(chain)
            chain = scale(chain, Fraction(2, factorial(m - 1)))
            den, target = elliptic._top_weight_target(g, m, 12)
            assert QSeries(tuple(Fraction(x, den) for x in target)) == chain


def test_top_weight_three_edge_case():
    assert top_weight_check(1, 2, 1, 25).ok


def test_top_weight_sweep_all_splits():
    for g in range(1, 4):
        for m in range(1, 5):
            q_order = 25 if 2 * g - 2 + 2 * m <= 10 else 30
            for j_plus in range(1, m + 1):
                res = top_weight_check(g, j_plus, m - j_plus, q_order)
                assert res.ok, res


def test_top_weight_failures_carry_their_witnesses(monkeypatch):
    # every split compares the built polynomial with the series' integer
    # row from q^0; each input below adds 1 to one entry of the row
    honest_row = elliptic._necklace_row

    def entry_plus_one(at):
        def row(g, j_plus, j_minus, q_order):
            den, ints = honest_row(g, j_plus, j_minus, q_order)
            ints[at] += den
            return den, ints

        return row

    # the last row of two fitted splits, with j- >= 1 and with j- = 0;
    # two more fitted splits at q^0, each at its `verify` order: (2, 1, 0)
    # has the regularized constant zeta(-3) = 1/120 there, (1, 1, 1) has 0;
    # above weight 12 the last row and, on (5, 3, 0) with an odd m, q^0
    # with its nonzero regularized constant zeta(-11)
    order4, order14 = len(basis(4)) + 5, len(basis(14)) + 5
    values = {}
    for g, j_plus, j_minus, q_order, at in (
        (2, 1, 1, 12, 12),
        (3, 2, 0, 16, 16),
        (2, 1, 0, order4, 0),
        (1, 1, 1, order4, 0),
        (4, 2, 2, order14, order14),
        (5, 3, 0, order14, order14),
        (5, 3, 0, order14, 0),
    ):
        monkeypatch.setattr(elliptic, "_necklace_row", entry_plus_one(at))
        res = top_weight_check(g, j_plus, j_minus, q_order)
        den, ints = honest_row(g, j_plus, j_minus, q_order)
        value = values[g, j_plus, j_minus, at] = Fraction(ints[at], den)
        assert res.witness == {
            "construction_q_power": at,
            "construction": value,
            "series": value + 1,
        }
        # both values stay Fractions: the CLI's json default hook writes an
        # int without "/1"
        assert type(res.witness["construction"]) is Fraction
        assert type(res.witness["series"]) is Fraction
    assert values[2, 1, 0, 0] == Fraction(1, 120)
    assert values[1, 1, 1, 0] == 0
    assert values[5, 3, 0, 0] == Fraction(691, 32760)  # zeta(-11) = -B_12/12

    def plus_top_weight_g2_power(g, j_plus, j_minus, q_order):
        # G2^(g+m-1) has the top weight 2g-2+2m; the row is off first at
        # q^0, by (-1/24)^(g+m-1)
        power = QuasimodularPoly({(g + j_plus + j_minus - 1, 0, 0): 1})
        extra = evaluate(power, q_order)
        den, ints = honest_row(g, j_plus, j_minus, q_order)
        coeffs = [Fraction(x, den) + y for x, y in zip(ints, extra.coeffs)]
        den = lcm(*(c.denominator for c in coeffs))
        return den, [c.numerator * (den // c.denominator) for c in coeffs]

    monkeypatch.setattr(elliptic, "_necklace_row", plus_top_weight_g2_power)
    assert top_weight_check(2, 1, 1, 12).witness == {
        "construction_q_power": 0,
        "construction": 0,
        "series": Fraction(-1, 13824),
    }
    monkeypatch.setattr(elliptic, "_necklace_row", honest_row)

    # up to weight 12 fit must return exactly the built polynomial of
    # (2, 1, 1), 2 D G4 = -16 G2 G4 + (7/5) G6: a changed G6 coefficient,
    # or a constant monomial, is the first monomial that differs
    honest_fit = elliptic.fit
    for mono, built in (((0, 0, 1), Fraction(7, 5)), ((0, 0, 0), Fraction(0))):

        def plus_one_at(s, max_weight, mono=mono):
            terms = honest_fit(s, max_weight).terms
            terms[mono] = terms.get(mono, 0) + 1
            return QuasimodularPoly(terms)

        monkeypatch.setattr(elliptic, "fit", plus_one_at)
        res = top_weight_check(2, 1, 1, 12)
        witness = {"fit_monomial": mono, "fit": built + 1, "built": built}
        assert res.witness == witness
        assert {type(res.witness[key]) for key in ("fit", "built")} == {Fraction}
    # an inconsistent fit is reported verbatim
    monkeypatch.setattr(elliptic, "fit", lambda s, w: FitInconsistency(12, w))
    assert top_weight_check(2, 1, 1, 12).witness == {
        "fit_inconsistency": str(FitInconsistency(12, 6))
    }


def test_fit_series_is_the_checked_series_of_its_row(monkeypatch):
    # the fit oracle gets its series from the integer row without the
    # constructor's checks: on every split of g <= 3, m <= 4 it equals the
    # public constructor's series of that row, the j- = 0 regularized q^0
    # included, and holds only Fractions
    seen = []
    honest = elliptic.fit

    def recorded(s, max_weight):
        seen.append(s)
        return honest(s, max_weight)

    monkeypatch.setattr(elliptic, "fit", recorded)
    checks = suite_topweight(3, 4, None, None)
    assert all(c.ok for c in checks)
    assert len(seen) == len(checks) == 30
    for check, series in zip(checks, seen):
        den, row = elliptic._necklace_row(*check.params.values())
        assert series == QSeries([Fraction(x, den) for x in row])
        assert {type(c) for c in series.coeffs} == {Fraction}


def test_the_built_path_builds_no_qseries(monkeypatch):
    # above weight 12 the necklace series reaches the check as its
    # integer row: every split of g = m = 4 (weight 14) passes with
    # QSeries unusable in elliptic
    def refused(*args, **kwargs):
        raise AssertionError("the built top-weight path built a QSeries")

    monkeypatch.setattr(elliptic, "QSeries", refused)
    checks = suite_topweight(4, 4, 4, 4)
    assert [c.params["j_plus"] for c in checks] == [1, 2, 3, 4]
    assert all(c.ok for c in checks)


def test_top_weight_order_precondition():
    with pytest.raises(ValueError):
        top_weight_check(3, 2, 2, 12)


def test_top_weight_past_the_old_reconstruction_limit():
    # weight 40, 357 non-constant monomials at q-order 362: past the
    # sizes that a fit can afford, every split passes, j+ = 10, j- = 0
    # among them
    checks = suite_topweight(11, 10, 11, 10)
    assert [c.params["j_plus"] for c in checks] == list(range(1, 11))
    assert all(c.ok for c in checks)


def test_top_weight_order_rule_is_fit_margin():
    # the fit solves q^1..q^order against the monomials other than 1 and
    # needs 5 surplus rows, so len(basis(W)) + 4 is the smallest order;
    # every split needs the same orders, whether the fit oracle runs or not
    for g, j_plus, j_minus in ((1, 1, 0), (2, 1, 1), (3, 2, 1), (4, 2, 2), (5, 3, 0)):
        order = len(basis(2 * g - 2 + 2 * (j_plus + j_minus))) + 4
        assert top_weight_check(g, j_plus, j_minus, order).ok
        with pytest.raises(ValueError):
            top_weight_check(g, j_plus, j_minus, order - 1)


# --- loop factor

def test_loop_coefficient_values():
    # the single-vertex loop: the one-edge necklace series is 2 G_2g, its
    # regularized constant zeta(1-2g) = -B_2g/(2g) = 2 [q^0]G_2g included
    assert necklace_series(1, 1, 0, 2).coeffs == (Fraction(-1, 12), 2, 6)
    for g in range(1, 7):
        series = necklace_series(g, 1, 0, 30)
        assert series == scale(eisenstein(2 * g, 30), 2)
