"""Laurent expansions in w with q-series coefficients, and the necklace
coefficient series they control.

The formal variable w stands for 2*pi*i*z, so every coefficient stays
rational.  Two independent constructions of the same object are kept
side by side: the propagator sum (built from Bernoulli numbers and
divisor sums of exponentials) and the shifted Weierstrass expansion
(built from the Eisenstein series).  Their coefficient-wise agreement is
the machine check that pins the Eisenstein divisor-power convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import bernoulli, binomial, factorial
from .modfit import FitInconsistency, basis, evaluate, fit, graded_part
from .qseries import QSeries, eisenstein, q_d_q
from .report import CheckResult, failed, passed

__all__ = [
    "LaurentQW",
    "check_propagator_identity",
    "necklace_coefficient_series",
    "propagator_expansion",
    "top_weight_check",
    "weierstrass_expansion",
]


@dataclass(frozen=True)
class LaurentQW:
    """Laurent polynomial window in w whose coefficients are QSeries.

    Holds the coefficients of w^e for e in -pole_order .. w_order, all
    truncated at a shared q-order.
    """

    pole_order: int
    coeffs: tuple[QSeries, ...]

    def __post_init__(self):
        if self.pole_order < 0:
            raise ValueError("pole_order must be >= 0")
        if len(self.coeffs) <= self.pole_order:
            raise ValueError("window must reach w^0")

    @property
    def w_order(self) -> int:
        return len(self.coeffs) - 1 - self.pole_order

    def coefficient(self, e: int) -> QSeries:
        if not -self.pole_order <= e <= self.w_order:
            raise IndexError(f"w^{e} outside window")
        return self.coeffs[e + self.pole_order]


def _exp_plus_minus(a: int, w_order: int, scale: Fraction) -> list[Fraction]:
    """w-coefficients of scale * (e^(a w) + e^(-a w)) up to w^w_order."""
    out = [Fraction(0)] * (w_order + 1)
    for e in range(0, w_order + 1, 2):
        out[e] = scale * 2 * Fraction(a**e, factorial(e))
    return out


def propagator_expansion(q_order: int, w_window: tuple[int, int]) -> LaurentQW:
    """The two-variable propagator sum expanded in the region where the
    geometric series in q converge, with p continued to e^w.

    The q^0 layer is the Laurent expansion of e^w/(e^w - 1)^2, written
    in closed form through Bernoulli numbers; the q^n layer (n >= 1) is
    the finite divisor sum of a * (e^(a w) + e^(-a w)) over a | n.
    """
    pole, w_order = w_window
    if pole < 2:
        raise ValueError("window must include the double pole: pole order >= 2")
    grid = [
        [Fraction(0)] * (q_order + 1) for _ in range(pole + w_order + 1)
    ]  # [e + pole][n]

    # q^0: e^w/(e^w-1)^2 = w^-2 - sum_{k>=1} B_2k (2k-1) w^(2k-2) / (2k)!
    grid[pole - 2][0] = Fraction(1)
    for e in range(0, w_order + 1, 2):
        grid[e + pole][0] = -bernoulli(e + 2) * (e + 1) / factorial(e + 2)

    for n in range(1, q_order + 1):
        for a in range(1, n + 1):
            if n % a:
                continue
            term = _exp_plus_minus(a, w_order, Fraction(a))
            for e in range(w_order + 1):
                grid[e + pole][n] += term[e]

    return LaurentQW(pole, tuple(QSeries(tuple(row)) for row in grid))


def weierstrass_expansion(
    q_order: int, w_order: int, divisor_power_shift: int = 0
) -> LaurentQW:
    """Expansion of the constant-shifted Weierstrass function at the
    origin: w^-2 + 2 sum_l G_(2l+2)(q) w^(2l) / (2l)!.

    divisor_power_shift is forwarded to the Eisenstein series (shift 1
    selects the divisor power k instead of k-1) so that the propagator
    comparison can demonstrate the alternative convention fails.
    """
    rows: list[QSeries] = [
        QSeries.constant(1, q_order),
        QSeries.zero(q_order),
    ]
    for e in range(0, w_order + 1):
        if e % 2:
            rows.append(QSeries.zero(q_order))
            continue
        k = e + 2
        power = None if divisor_power_shift == 0 else k - 1 + divisor_power_shift
        rows.append(eisenstein(k, q_order, power).scale(Fraction(2, factorial(e))))
    return LaurentQW(2, tuple(rows))


def check_propagator_identity(
    q_order: int, w_order: int, divisor_power_shift: int = 0
) -> CheckResult:
    """Coefficient-wise comparison of the propagator sum against the
    shifted Weierstrass expansion over the full truncation window.

    A mismatch is a return value, not an exception; the witness is the
    first mismatching (q-power, w-power) scanning q then w upward.
    """
    lhs = propagator_expansion(q_order, (2, w_order))
    rhs = weierstrass_expansion(q_order, w_order, divisor_power_shift)
    params = {"q_order": q_order, "w_order": w_order}
    if divisor_power_shift:
        params["divisor_power_shift"] = divisor_power_shift
    for n in range(q_order + 1):
        for e in range(-2, w_order + 1):
            a = lhs.coefficient(e).coeffs[n]
            b = rhs.coefficient(e).coeffs[n]
            if a != b:
                return failed(
                    "elliptic.propagator_identity",
                    {"q_power": n, "w_power": e, "lhs": a, "rhs": b},
                    **params,
                )
    return passed("elliptic.propagator_identity", **params)


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
    if g < 1 or j_plus < 1 or j_minus < 0:
        raise ValueError("requires g >= 1, j_plus >= 1, j_minus >= 0")
    m = j_plus + j_minus
    coeffs = [Fraction(0)] * (q_order + 1)
    for a in range(1, q_order + 1):
        weight = Fraction(a) ** (2 * g - 2 + m)
        # (1 - q^a)^(-m) has coefficient C(j+m-1, m-1) at q^(a j)
        for j in range(q_order // a + 1):
            c = weight * binomial(j + m - 1, m - 1)
            for start in (a * j_minus, a * j_plus):
                pos = start + a * j
                if pos == 0:
                    continue  # divergent stratum, only reachable when j_minus=0
                if pos <= q_order:
                    coeffs[pos] += c
    return QSeries(tuple(coeffs), constant_known=j_minus >= 1)


def top_weight_check(
    g: int, j_plus: int, j_minus: int, q_order: int
) -> CheckResult:
    """Verify that the necklace coefficient series is quasimodular of
    weight at most 2g-2+2m and that its top graded part equals
    (2/(m-1)!) (q d/dq)^(m-1) G_2g.

    When j_minus = 0 the series' constant is unknown, so the fit implies
    the regularized constant instead of asserting it.  A fit
    inconsistency is reported verbatim: at this truncation order it
    would falsify the quasimodularity of the necklace coefficient.
    """
    m = j_plus + j_minus
    top_weight = 2 * g - 2 + 2 * m
    needed = len(basis(top_weight)) + 5
    if q_order < needed:
        raise ValueError(
            f"q_order {q_order} too small; need >= {needed} for weight "
            f"{top_weight}"
        )
    params = {"g": g, "j_plus": j_plus, "j_minus": j_minus, "q_order": q_order}
    series = necklace_coefficient_series(g, j_plus, j_minus, q_order)
    result = fit(series, top_weight)
    if isinstance(result, FitInconsistency):
        return failed(
            "elliptic.top_weight", {"fit_inconsistency": str(result)}, **params
        )
    lhs = evaluate(graded_part(result, top_weight), q_order)
    rhs = eisenstein(2 * g, q_order)
    for _ in range(m - 1):
        rhs = q_d_q(rhs)
    rhs = rhs.scale(Fraction(2, factorial(m - 1)))
    if lhs == rhs:
        return passed("elliptic.top_weight", **params)
    diff = lhs - rhs
    first_bad = next(n for n, c in enumerate(diff.coeffs) if c != 0)
    return failed(
        "elliptic.top_weight",
        {
            "q_power": first_bad,
            "lhs": lhs.coeffs[first_bad],
            "rhs": rhs.coeffs[first_bad],
        },
        **params,
    )
