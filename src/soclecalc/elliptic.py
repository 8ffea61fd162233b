"""Laurent expansions in w with q-series coefficients, the necklace
coefficient series they control, and its quasimodular top weight.

The formal variable w stands for 2*pi*i*z, so every coefficient stays
rational.  An expansion is a dict {e: QSeries} of the coefficients of
w^e for e = -2 .. w_order, all truncated at one q-order.  Two
independent constructions of the same object are kept side by side: the
propagator sum (built from Bernoulli numbers and divisor sums of
exponentials) and the shifted Weierstrass expansion (built from the
Eisenstein series).  Their coefficient-wise agreement, and the failure
of the divisor-power-k variant, is the machine check that pins the
Eisenstein divisor-power convention.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import index

from .exact import bernoulli, factorial
from .modfit import (
    FitInconsistency,
    _fit_monomials,
    evaluate,
    evaluate_with_top,
    fit,
    graded_part,
    necklace_polynomial,
)
from .qseries import QSeries, divisor_sigmas, eisenstein
from .report import CheckResult, failed, passed

__all__ = [
    "check_divisor_power_k_fails",
    "check_propagator_identity",
    "necklace_coefficient_series",
    "propagator_expansion",
    "top_weight_check",
    "weierstrass_expansion",
]


def propagator_expansion(q_order: int, w_order: int) -> dict[int, QSeries]:
    """The two-variable propagator sum expanded in the region where the
    geometric series in q converge, with p continued to e^w.

    The q^0 layer is the Laurent expansion of e^w/(e^w - 1)^2, written
    in closed form through Bernoulli numbers; the q^n layer (n >= 1) is
    the finite divisor sum of a * (e^(a w) + e^(-a w)) over a | n.
    """
    grid = {e: [Fraction(0)] * (q_order + 1) for e in range(-2, w_order + 1)}

    # q^0: e^w/(e^w-1)^2 = w^-2 - sum_{k>=1} B_2k (2k-1) w^(2k-2) / (2k)!
    grid[-2][0] = Fraction(1)
    for e in range(0, w_order + 1, 2):
        grid[e][0] = -bernoulli(e + 2) * (e + 1) / factorial(e + 2)

    # a * (e^(a w) + e^(-a w)) has w^e coefficient 2 a^(e+1) / e! for even e
    for n in range(1, q_order + 1):
        for a in range(1, n + 1):
            if n % a:
                continue
            for e in range(0, w_order + 1, 2):
                grid[e][n] += Fraction(2 * a ** (e + 1), factorial(e))

    return {e: QSeries(tuple(row)) for e, row in grid.items()}


def weierstrass_expansion(q_order: int, w_order: int) -> dict[int, QSeries]:
    """Expansion of the constant-shifted Weierstrass function at the
    origin: w^-2 + 2 sum_l G_(2l+2)(q) w^(2l) / (2l)!."""
    rows = {-2: QSeries.constant(1, q_order), -1: QSeries.zero(q_order)}
    for e in range(w_order + 1):
        if e % 2:
            rows[e] = QSeries.zero(q_order)
        else:
            rows[e] = eisenstein(e + 2, q_order).scale(Fraction(2, factorial(e)))
    return rows


def _compare_with_propagator(
    rows: dict[int, QSeries], q_order: int, w_order: int
) -> CheckResult:
    """Coefficient-wise comparison of the propagator sum against rows
    over the full truncation window.

    A mismatch is a return value, not an exception; the witness is the
    first mismatching (q-power, w-power) scanning q then w upward.
    """
    lhs = propagator_expansion(q_order, w_order)
    for n in range(q_order + 1):
        for e in range(-2, w_order + 1):
            a, b = lhs[e][n], rows[e][n]
            if a != b:
                return failed(
                    "elliptic.propagator_identity",
                    {"q_power": n, "w_power": e, "lhs": a, "rhs": b},
                    q_order=q_order,
                    w_order=w_order,
                )
    return passed("elliptic.propagator_identity", q_order=q_order, w_order=w_order)


def check_propagator_identity(q_order: int, w_order: int) -> CheckResult:
    """The propagator sum equals the shifted Weierstrass expansion."""
    rows = weierstrass_expansion(q_order, w_order)
    return _compare_with_propagator(rows, q_order, w_order)


def check_divisor_power_k_fails(q_order: int, w_order: int) -> CheckResult:
    """Certify the divisor power k-1 of eisenstein by the failure of the
    power k: the Weierstrass rows rebuilt with sigma_k(n) beyond q^0, the
    Bernoulli constant unchanged, must disagree with the propagator sum.
    The pass carries the first mismatch as mismatch_at=(q-power, w-power).

    sigma_p(1) = 1 for every p, so no truncation below q^2 can tell the
    two powers apart; q_order < 2 raises ValueError instead of reporting
    an agreement.
    """
    if q_order < 2:
        raise ValueError(
            "the divisor-power-k variant first differs from the propagator "
            "at q^2 (sigma_p(1) = 1 for every p): needs q_order >= 2, "
            f"got {q_order}"
        )
    rows = weierstrass_expansion(q_order, w_order)
    for e in range(0, w_order + 1, 2):
        scale = Fraction(2, factorial(e))
        rows[e] = QSeries(
            (rows[e][0],) + tuple(scale * x for x in divisor_sigmas(e + 2, q_order))
        )
    wrong = _compare_with_propagator(rows, q_order, w_order)
    check = "elliptic.propagator_must_fail_with_divisor_power_k"
    params = {"q_order": q_order, "w_order": w_order}
    if wrong.ok:
        return failed(check, {"unexpected": "agreement"}, **params)
    where = (wrong.witness["q_power"], wrong.witness["w_power"])
    return passed(check, **params, mismatch_at=where)


def necklace_coefficient_series(
    g: int, j_plus: int, j_minus: int, q_order: int
) -> QSeries:
    """Exact truncation of the coefficient series of an oriented
    necklace with j_plus edges aligned with the orientation and j_minus
    against it:

        sum_{a != 0} a^(2g-2) (a/(1-q^a))^j_plus (-a/(1-q^(-a)))^j_minus.

    Rewriting -a/(1-q^(-a)) = a q^a/(1-q^a) for a > 0 turns every term
    into a^(2g-2+m) q^(a j_minus) (1-q^a)^(-m), and the a < 0 branch is
    the mirror starting at q^(a j_plus), so each coefficient is a finite
    sum.  When j_minus = 0 the a > 0 branch has a divergent constant
    stratum: that q^0 coefficient is marked unknown and every q^n
    coefficient with n >= 1 stays exact.
    """
    g, j_plus, j_minus, q_order = map(index, (g, j_plus, j_minus, q_order))
    if g < 1 or j_plus < 1 or j_minus < 0:
        raise ValueError("requires g >= 1, j_plus >= 1, j_minus >= 0")
    m = j_plus + j_minus
    coeffs = [0] * (q_order + 1)  # integers; QSeries makes them Fractions
    for a in range(1, q_order + 1):
        weight = a ** (2 * g - 2 + m)
        # (1 - q^a)^(-m) has coefficient C(j+m-1, m-1) at q^(a j)
        for j in range(q_order // a + 1):
            c = weight * comb(j + m - 1, m - 1)
            for start in (a * j_minus, a * j_plus):
                pos = start + a * j
                if pos == 0:
                    continue  # divergent stratum, only reachable when j_minus=0
                if pos <= q_order:
                    coeffs[pos] += c
    return QSeries(tuple(coeffs), constant_known=j_minus >= 1)


def _top_weight_target(g: int, m: int, q_order: int) -> QSeries:
    """(2/(m-1)!) (q d/dq)^(m-1) G_2g, coefficient by coefficient: the
    q^n coefficient is 2 n^(m-1) sigma_(2g-1)(n) / (m-1)! for n >= 1,
    and the q^0 coefficient is 2 [q^0]G_2g when m = 1, else 0."""
    series = eisenstein(2 * g, q_order).coeffs
    den = factorial(m - 1)
    constant = 2 * series[0] if m == 1 else Fraction(0)
    return QSeries(
        (constant,)
        + tuple(
            Fraction(2 * n ** (m - 1) * series[n].numerator, den)
            for n in range(1, q_order + 1)
        )
    )


# the heaviest top weight that top_weight_check fits, not builds: every
# top-weight check of the default `verify all` (g <= 3, m <= 4) has
# weight <= 12, and benchmarks/selftest.py counts its 30 fits
_FIT_MAX_WEIGHT = 12


def top_weight_check(
    g: int, j_plus: int, j_minus: int, q_order: int
) -> CheckResult:
    """Verify that the necklace coefficient series is quasimodular of
    weight at most 2g-2+2m and that its top graded part equals
    (2/(m-1)!) (q d/dq)^(m-1) G_2g.

    Up to weight _FIT_MAX_WEIGHT the polynomial is fit to the series
    (implying the regularized constant when j_minus = 0); an
    inconsistency, reported verbatim, would falsify quasimodularity at
    this order.  Above it, modfit.necklace_polynomial must evaluate to
    the series at every q-power, q^0 only when j_minus >= 1.  Either
    needs an order that leaves fit its surplus rows (else ValueError).
    """
    m = j_plus + j_minus
    top_weight = 2 * g - 2 + 2 * m
    params = {"g": g, "j_plus": j_plus, "j_minus": j_minus, "q_order": q_order}
    series = necklace_coefficient_series(g, j_plus, j_minus, q_order)
    if top_weight <= _FIT_MAX_WEIGHT:
        result = fit(series, top_weight)
        if isinstance(result, FitInconsistency):
            return failed(
                "elliptic.top_weight", {"fit_inconsistency": str(result)}, **params
            )
        top = evaluate(graded_part(result, top_weight), q_order)
    else:
        _fit_monomials(top_weight, q_order)  # fit's order precondition
        result = necklace_polynomial(g, j_plus, j_minus)
        full, top = evaluate_with_top(result, top_weight, q_order)
        built, coeffs = full.coeffs, series.coeffs
        start = 0 if series.constant_known else 1
        n = next((n for n in range(start, q_order + 1) if built[n] != coeffs[n]), None)
        if n is not None:
            witness = {"construction_q_power": n, "construction": built[n]}
            return failed(
                "elliptic.top_weight", {**witness, "series": coeffs[n]}, **params
            )
    lhs = top.coeffs
    rhs = _top_weight_target(g, m, q_order).coeffs
    n = next((n for n, (x, y) in enumerate(zip(lhs, rhs)) if x != y), None)
    if n is None:
        return passed("elliptic.top_weight", **params)
    return failed(
        "elliptic.top_weight", {"q_power": n, "lhs": lhs[n], "rhs": rhs[n]}, **params
    )
