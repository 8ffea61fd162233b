"""Exact-arithmetic socle intersection numbers on moduli of curves.

Everything is computed over arbitrary-precision rationals; the package
doubles as a mechanical verifier for the identities connecting the
closed product formula, ramification-cycle integrals, necklace graph
sums and quasimodular forms.
"""

from .drcycle import (
    dr2,
    dr3_bssz_check,
    dr3_closed,
    dr3_recursive,
    dr_standard,
)
from .elliptic import (
    check_divisor_power_k_fails,
    check_propagator_identity,
    necklace_coefficient_series,
    propagator_expansion,
    top_weight_check,
    weierstrass_expansion,
)
from .exact import (
    bernoulli,
    double_factorial_odd,
    factorial,
    format_rational,
)
from .modfit import (
    FitInconsistency,
    QuasimodularPoly,
    basis,
    evaluate,
    fit,
    graded_part,
    monomial_weight,
)
from .qseries import QSeries, eisenstein, q_d_q
from .report import CheckResult
from .socle import (
    DimensionError,
    SocleQuery,
    SocleResult,
    Wheel,
    faber,
    iter_socle_queries,
    iter_wheels,
    necklace_lhs,
    relation_integral_check,
    socle_compute,
    socle_necklace,
    string_apply,
    verify_string_consistency,
    wheel_collapse_check,
)

__version__ = "0.1.0"
