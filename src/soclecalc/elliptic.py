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
from itertools import repeat
from operator import add, index, mul

from .exact import bernoulli, factorial
from .modfit import (
    FitInconsistency,
    _block_polynomial,
    _fit_monomials,
    basis,
    block_sum,
    fit,
    necklace_blocks,
)
from .qseries import QSeries, divisor_sigmas, eisenstein
from .report import CheckResult, failed, passed

__all__ = [
    "check_divisor_power_k_fails",
    "check_propagator_identity",
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
    origin: w^-2 + 2 sum_l G_(2l+2)(q) w^(2l) / (2l)!.  Row -1 and the
    odd rows share one zero series, a frozen value."""
    zero = QSeries((0,) * (q_order + 1))
    rows = {e: zero for e in range(-1, w_order + 1, 2)}
    rows[-2] = QSeries((1,) + (0,) * q_order)
    for e in range(0, w_order + 1, 2):
        scale = Fraction(2, factorial(e))
        rows[e] = QSeries([scale * x for x in eisenstein(e + 2, q_order).coeffs])
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
            a, b = lhs[e].coeffs[n], rows[e].coeffs[n]
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


def _check_separating_order(q_order: int) -> None:
    """ValueError below q^2, where the divisor powers k-1 and k first differ."""
    if q_order < 2:
        raise ValueError(
            "the divisor-power-k variant first differs from the propagator "
            "at q^2 (sigma_p(1) = 1 for every p): needs q_order >= 2, "
            f"got {q_order}"
        )


def check_divisor_power_k_fails(q_order: int, w_order: int) -> CheckResult:
    """Certify the divisor power k-1 of eisenstein by the failure of the
    power k: the Weierstrass rows rebuilt with sigma_k(n) beyond q^0, the
    Bernoulli constant unchanged, must disagree with the propagator sum.
    The pass carries the first mismatch as mismatch_at=(q-power, w-power).

    q_order < 2 raises ValueError (_check_separating_order) instead of
    reporting an agreement.
    """
    _check_separating_order(q_order)
    rows = weierstrass_expansion(q_order, w_order)
    for e in range(0, w_order + 1, 2):
        scale = Fraction(2, factorial(e))
        constant = rows[e].coeffs[0]
        rows[e] = QSeries(
            (constant,) + tuple(scale * x for x in divisor_sigmas(e + 2, q_order))
        )
    wrong = _compare_with_propagator(rows, q_order, w_order)
    check = "elliptic.propagator_must_fail_with_divisor_power_k"
    params = {"q_order": q_order, "w_order": w_order}
    if wrong.ok:
        return failed(check, {"unexpected": "agreement"}, **params)
    where = (wrong.witness["q_power"], wrong.witness["w_power"])
    return passed(check, **params, mismatch_at=where)


def _necklace_row(
    g: int, j_plus: int, j_minus: int, q_order: int
) -> tuple[int, list[int]]:
    """(den, den * the q^0 .. q^order coefficients as integers) of the
    coefficient series of an oriented necklace with j_plus edges aligned
    with the orientation and j_minus against it:

        sum_{a != 0} a^(2g-2) (a/(1-q^a))^j_plus (-a/(1-q^(-a)))^j_minus.

    Rewriting -a/(1-q^(-a)) = a q^a/(1-q^a) for a > 0 turns every term
    into a^(2g-2+m) q^(a j_minus) (1-q^a)^(-m), and the a < 0 branch is
    the mirror starting at q^(a j_plus), so each coefficient is a finite
    sum.  When j_minus = 0 the a > 0 branch has the divergent constant
    stratum sum_{a>=1} a^K, K = 2g-2+m, and q^0 is its regularized value
    zeta(-K) = -B_(K+1)/(K+1) (Zagier's Mellin transform appendix to
    Zeidler, QFT I), read from bernoulli on this check side (socle's
    necklace evaluator reads none); else 0.  den is its denominator."""
    g, j_plus, j_minus, q_order = map(index, (g, j_plus, j_minus, q_order))
    if g < 1 or j_plus < 1 or j_minus < 0:
        raise ValueError("requires g >= 1, j_plus >= 1, j_minus >= 0")
    m = j_plus + j_minus
    # (1 - q^a)^(-m) has coefficient C(j+m-1, m-1) at q^(a j): one row,
    # stepped from C(m-1, m-1) = 1; the two branches put
    # r[t] = C(t-j_minus+m-1, m-1) + C(t-j_plus+m-1, m-1) at q^(a t)
    row = [1]
    for j in range(1, q_order + 1):
        row.append(row[-1] * (j + m - 1) // j)
    r = [0] * (q_order + 1)
    for start in (j_minus, j_plus):
        r[start:] = map(add, r[start:], row)
    # q^n gets a^K r[n/a] from each divisor a of n; t = 0 is the divergent
    # stratum sum_a a^K r[0], r[0] = 1 when j_minus = 0 and else 0
    k = 2 * g - 2 + m
    constant = -bernoulli(k + 1) / (k + 1) if r[0] else Fraction(0)
    den = constant.denominator
    coeffs = [constant.numerator] + [0] * q_order
    for a in range(1, q_order + 1):
        terms = map(mul, repeat(den * a**k), r[1 : q_order // a + 1])
        coeffs[a::a] = map(add, coeffs[a::a], terms)
    return den, coeffs


def _top_weight_target(g: int, m: int, q_order: int) -> tuple[int, list[int]]:
    """(den, den * the q^0 .. q^order coefficients) of
    (2/(m-1)!) (q d/dq)^(m-1) G_2g: 2 n^(m-1) sigma_(2g-1)(n) / (m-1)! at
    q^n, n >= 1, read as integers off the memoized
    qseries.divisor_sigmas(2g-1, q_order) that the splits of one (g, m)
    share, and 2 [q^0]G_2g at q^0 when m = 1, else 0.  That constant is
    eisenstein(2g, 0)'s -B_2g/(4g), Faber's side, so at m = 1 the check
    compares it with the built polynomial's constant from Apostol's
    recurrence; den is (m-1)! times its denominator."""
    constant = 2 * eisenstein(2 * g, 0).coeffs[0] if m == 1 else Fraction(0)
    x = 2 * constant.denominator
    sigmas = divisor_sigmas(2 * g - 1, q_order)
    return factorial(m - 1) * constant.denominator, [constant.numerator] + [
        x * n ** (m - 1) * s for n, s in enumerate(sigmas, 1)
    ]


def _first_miss(lhs, rhs) -> int | None:
    """The first n at which two series given as (den, den * the
    coefficients as integers) differ, by cross-multiplying, or None."""
    (a, xs), (b, ys) = lhs, rhs
    return next((n for n in range(len(ys)) if xs[n] * b != a * ys[n]), None)


def _recognition_miss(row, blocks, weight: int) -> dict | None:
    """None when fit recognizes the series row (den, ints) as exactly the
    built sum c_i D^i G_k over blocks, a zero constant monomial included;
    else fit's inconsistency verbatim, or the first monomial of
    basis(weight) at which the two differ, with both coefficients."""
    result = fit(QSeries._built(*row), weight)
    if isinstance(result, FitInconsistency):
        return {"fit_inconsistency": str(result)}
    built: dict = {}
    for c, i, k in blocks:
        for mono, x in _block_polynomial(i, k)._terms:
            built[mono] = built.get(mono, 0) + c * x
    fitted = result.terms
    for mono in basis(weight):
        a, b = fitted.get(mono, 0), built.get(mono, 0)
        if a != b:
            return {"fit_monomial": mono, "fit": Fraction(a), "built": Fraction(b)}
    return None


# the heaviest top weight at which top_weight_check also runs the fit
# oracle, a bound on its cost as socle._MAX_WHEELS bounds the literal
# wheel sum's; the benchmark's `verify all` (g <= 3, m <= 4) makes 30 fits
_FIT_MAX_WEIGHT = 12


def top_weight_check(
    g: int, j_plus: int, j_minus: int, q_order: int
) -> CheckResult:
    """Verify that the necklace coefficient series is quasimodular of
    weight at most 2g-2+2m and that its top graded part equals
    (2/(m-1)!) (q d/dq)^(m-1) G_2g, on one path at every weight.

    The sum of the blocks of modfit.necklace_blocks must equal the
    series' integer row (_necklace_row) at every q-power from q^0, the
    regularized constant zeta(-K) included.  Up to weight _FIT_MAX_WEIGHT
    fit must then return exactly that built polynomial
    (_recognition_miss).  The top graded part, the sum of the blocks
    D^i G_k of weight k + 2i = 2g-2+2m, is compared with the target in
    integers by _first_miss.  The order must leave fit its surplus rows
    at every weight (else ValueError).  Each witness value is a
    Fraction.
    """
    m = j_plus + j_minus
    top_weight = 2 * g - 2 + 2 * m
    params = {"g": g, "j_plus": j_plus, "j_minus": j_minus, "q_order": q_order}
    row_den, row = _necklace_row(g, j_plus, j_minus, q_order)
    _fit_monomials(top_weight, q_order)  # fit's order precondition
    blocks = necklace_blocks(g, j_plus, j_minus)
    den, built = block_sum(blocks, q_order)
    n = _first_miss((den, built), (row_den, row))
    if n is not None:
        witness = {
            "construction_q_power": n,
            "construction": Fraction(built[n], den),
            "series": Fraction(row[n], row_den),
        }
        return failed("elliptic.top_weight", witness, **params)
    if top_weight <= _FIT_MAX_WEIGHT:
        witness = _recognition_miss((row_den, row), blocks, top_weight)
        if witness:
            return failed("elliptic.top_weight", witness, **params)
    top = block_sum(
        [(c, i, k) for c, i, k in blocks if k + 2 * i == top_weight], q_order
    )
    target = _top_weight_target(g, m, q_order)
    n = _first_miss(top, target)
    if n is None:
        return passed("elliptic.top_weight", **params)
    (a, xs), (b, ys) = top, target
    witness = {"q_power": n, "lhs": Fraction(xs[n], a), "rhs": Fraction(ys[n], b)}
    return failed("elliptic.top_weight", witness, **params)
