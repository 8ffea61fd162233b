"""Socle intersection numbers: the closed product formula, the necklace
evaluation, and the string-equation engine that connects them.

Two fully independent evaluation paths are provided.  faber() is the
closed formula in Bernoulli, factorial and double-factorial data.  The
necklace path reduces a query with the string equation until each branch
reaches the canonical shape (exactly one zero exponent, the rest
positive) and evaluates that shape through necklace_lhs, the wheel sum of
three-point ramification-cycle integrals in its collapsed form: a product
of unit-multiplicity integrals dr_standard(d_i - 1), one per positive
exponent.  The necklace path uses only ramification-cycle data, never
faber().  Socle values are symmetric in d, so the string recursion is
memoized on the exponent list sorted in non-increasing order.

The literal oriented-wheel sum (iter_wheels) is kept only as the oracle
for the collapse identity: wheel_collapse_check compares it with
necklace_lhs, and nothing on the evaluation path enumerates wheels.  The
oracle takes each vertex integral from the genus recursion
dr3_recursive, while necklace_lhs takes it from the closed formula
behind dr_standard, so the check also certifies the per-vertex value.

Domain caveat, established by exact computation and documented in the
test suite: the two paths agree for every query with at most one zero
exponent, and provably disagree as soon as two or more exponents are
zero.  The closed formula is not compatible with the string equation on
multi-zero patterns (removing a zero from a list that still contains a
zero breaks the factorial bookkeeping), so on that subfamily the
necklace path computes the string-consistent value and faber() does not
equal it.  socle_compute(..., "both") reports such disagreements as
first-class results.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, prod
from operator import index

from .drcycle import dr_standard, dr3_recursive
from .exact import bernoulli, double_factorial_odd, factorial
from .report import CheckResult, _Frozen, _set, failed, passed

__all__ = [
    "DimensionError",
    "SocleQuery",
    "SocleResult",
    "Wheel",
    "compositions",
    "faber",
    "iter_socle_queries",
    "iter_wheels",
    "necklace_lhs",
    "relation_integral_check",
    "socle_compute",
    "socle_necklace",
    "string_apply",
    "verify_string_consistency",
    "wheel_collapse_check",
]


# largest literal wheel sum wheel_collapse_check will build: at about
# 0.7-0.9 microseconds per wheel (Python 3.11, 2 vCPUs), about 0.1 s
_MAX_WHEELS = 100_000

# most zero exponents socle_necklace takes: the string recursion is
# about 3 Python frames deep per zero, and 324 zeros exhaust the default
# recursion limit of 1000
_MAX_ZEROS = 200


class DimensionError(ValueError):
    """Exponent list violates the dimension constraint sum(d) = g-2+n."""


class SocleQuery(_Frozen):
    """A genus together with the cotangent-power exponents.

    Validates the dimension constraint at construction: the exponents of
    a non-vanishing socle pairing must satisfy sum(d) = g - 2 + n.
    """

    __slots__ = ("g", "d")

    def __init__(self, g: int, d: Sequence[int]):
        g, d = index(g), tuple(map(index, d))
        if g < 1:
            raise ValueError(f"genus must be >= 1, got {g}")
        if not d:
            raise ValueError("need at least one marked point")
        if any(x < 0 for x in d):
            raise ValueError(f"exponents must be >= 0, got {d}")
        total, expect = sum(d), g - 2 + len(d)
        if total != expect:
            raise DimensionError(
                f"sum(d) = {total} but g-2+n = {expect} for g={g}, n={len(d)}"
            )
        _set(self, "g", g)
        _set(self, "d", d)

    @property
    def n(self) -> int:
        return len(self.d)


class Wheel(_Frozen):
    """Oriented necklace: vertices 1..m in the cyclic order given by
    `cycle` (vertex 1 anchored first), with a genus per vertex index."""

    __slots__ = ("cycle", "genera")

    def __init__(self, cycle: tuple[int, ...], genera: tuple[int, ...]):
        _check_cycle(cycle)
        _check_genera(genera, len(cycle))
        _set(self, "cycle", cycle)
        _set(self, "genera", genera)


def _check_cycle(cycle: tuple[int, ...]) -> None:
    m = len(cycle)
    if sorted(cycle) != list(range(1, m + 1)) or cycle[0] != 1:
        raise ValueError("cycle must be a permutation of 1..m starting at 1")


def _check_genera(genera: tuple[int, ...], m: int) -> None:
    if len(genera) != m or any(x < 0 for x in genera):
        raise ValueError("need one genus >= 0 per vertex")


def _prechecked_wheel(cycle: tuple[int, ...], genera: tuple[int, ...]) -> Wheel:
    # a Wheel whose cycle and genera the caller has already checked
    wheel = object.__new__(Wheel)
    _set(wheel, "cycle", cycle)
    _set(wheel, "genera", genera)
    return wheel


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Stream the ordered tuples of parts integers >= 0 summing to total."""
    if parts < 1 or total < 0:
        raise ValueError("need parts >= 1 and total >= 0")
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_wheels(m: int, total_genus: int) -> Iterator[Wheel]:
    """Stream the (m-1)! oriented cyclic orders times the compositions
    of total_genus; the m=1 case is the single one-vertex loop wheel.
    The Wheel checks run once per cycle and once per genus split."""
    if m < 1 or total_genus < 0:
        raise ValueError("need m >= 1 and total_genus >= 0")
    splits = list(compositions(total_genus, m))
    for genera in splits:
        _check_genera(genera, m)
    for tail in permutations(range(2, m + 1)):
        cycle = (1,) + tail
        _check_cycle(cycle)
        for genera in splits:
            yield _prechecked_wheel(cycle, genera)


def faber(q: SocleQuery) -> Fraction:
    """The closed product formula for the socle pairing.

    Exact on every dimension-valid query; agrees with the
    string-consistent evaluation iff at most one exponent is zero (see
    the module docstring).
    """
    g, d, n = q.g, q.d, q.n
    b = bernoulli(2 * g)
    den = b.denominator * 2 ** (2 * g - 1) * factorial(2 * g)
    for di in d:
        den *= double_factorial_odd(2 * di - 1)
    return Fraction((-1) ** (g - 1) * b.numerator * factorial(2 * g - 3 + n), den)


def necklace_lhs(g: int, d: Sequence[int]) -> Fraction:
    """The wheel sum of a canonical query's positive exponents, evaluated
    in collapsed form as prod(dr_standard(d_i - 1)).

    The literal sum runs over the oriented wheels on m = len(d) vertices
    with genera summing to g-1; a wheel contributes the product of its
    per-vertex unit-multiplicity integrals when every vertex genus equals
    its exponent minus one, and zero otherwise, and the sum is divided by
    (m-1)!.  The filter leaves (m-1)! identical summands (the collapse
    identity), so the value is the product above.  The identity is
    checked against the literal sum by wheel_collapse_check; this
    function uses only ramification-cycle data and enumerates no wheels.
    """
    d = tuple(map(index, d))
    if not d or any(x < 1 for x in d):
        raise ValueError(f"need m >= 1 positive exponents, got {d}")
    if sum(x - 1 for x in d) != g - 1:
        raise DimensionError(
            f"sum(d_i - 1) = {sum(x - 1 for x in d)} but g-1 = {g - 1}"
        )
    return prod((dr_standard(x - 1) for x in d), start=Fraction(1))


def _literal_wheel_sum(g: int, d: tuple[int, ...]) -> Fraction:
    # the oracle side of wheel_collapse_check: every oriented wheel; one
    # whose vertex genera are the exponents minus one adds the product of
    # its vertex integrals, taken from the genus recursion dr3_recursive
    target = tuple(x - 1 for x in d)
    total = Fraction(0)
    for wheel in iter_wheels(len(d), g - 1):
        if wheel.genera == target:
            total += prod(
                (dr3_recursive(k, 1, -1) for k in wheel.genera), start=Fraction(1)
            )
    return total / factorial(len(d) - 1)


def _necklace_normalization(g: int, m: int) -> Fraction:
    """(-1)^(g-1) B_2g (2g-2+m)! / (2 (2g)!): the socle value of a
    canonical query with m positive exponents over its wheel sum.
    The necklace path multiplies by it and relation_integral_check
    divides by it, so the relation check certifies the constant in use."""
    b = bernoulli(2 * g)
    return Fraction(
        (-1) ** (g - 1) * b.numerator * factorial(2 * g - 2 + m),
        2 * b.denominator * factorial(2 * g),
    )


def string_apply(d: Sequence[int]) -> list[tuple[int, ...]]:
    """One string-equation step: remove the last zero exponent and emit
    one reduced list per remaining positive slot, decremented there.

    The genus is unchanged.  Mechanical on d: dimension validity is not
    required here, but reductions of a dimension-valid query are again
    dimension-valid.
    """
    d = tuple(map(index, d))
    if len(d) < 2:
        raise ValueError("string reduction needs n >= 2")
    if 0 not in d:
        raise ValueError("string reduction needs a zero exponent")
    last_zero = len(d) - 1 - d[::-1].index(0)
    rest = d[:last_zero] + d[last_zero + 1 :]
    if all(x == 0 for x in rest):
        raise ValueError(f"no positive exponent to decrement in {d}")
    out = []
    for j, x in enumerate(rest):
        if x >= 1:
            out.append(rest[:j] + (x - 1,) + rest[j + 1 :])
    return out


def _canonical(d: Sequence[int]) -> tuple[int, ...]:
    # socle values are symmetric in d: one memo key per exponent multiset
    return tuple(sorted(d, reverse=True))


@lru_cache(maxsize=None)
def _necklace_value(g: int, d: tuple[int, ...]) -> Fraction:
    # d is canonical (non-increasing): d[0] is a largest exponent
    zeros = d.count(0)
    if d == (0,):
        # only valid at g=1; canonicalize through the identity query
        return _necklace_value(1, (1, 0))
    if zeros == 1:
        # the zero is last; necklace_lhs validates the positive exponents
        return _necklace_normalization(g, len(d) - 1) * necklace_lhs(g, d[:-1])
    if zeros == 0:
        # lift: bump the largest exponent, append a zero; the lifted
        # canonical query string-reduces to this query (its first
        # reduction) plus sibling branches, each strictly more
        # concentrated (sum d_i^2 grows), so the recursion terminates
        lifted = (d[0] + 1,) + d[1:] + (0,)
        _, *branches = string_apply(lifted)
        value = _necklace_value(g, lifted)
        for branch in branches:
            value -= _necklace_value(g, _canonical(branch))
        return value
    # two or more zeros: keep applying the string equation
    return sum(
        (_necklace_value(g, _canonical(rd)) for rd in string_apply(d)),
        Fraction(0),
    )


def socle_necklace(q: SocleQuery) -> Fraction:
    """String-consistent evaluation through the necklace path.

    Raises ValueError, before any recursion, on more than _MAX_ZEROS
    zero exponents."""
    zeros = q.d.count(0)
    if zeros > _MAX_ZEROS:
        raise ValueError(
            f"the necklace path takes at most {_MAX_ZEROS} zero exponents, "
            f"got {zeros}"
        )
    return _necklace_value(q.g, _canonical(q.d))


class SocleResult(_Frozen):
    __slots__ = ("faber_value", "necklace_value")

    def __init__(self, faber_value: Fraction | None, necklace_value: Fraction | None):
        _set(self, "faber_value", faber_value)
        _set(self, "necklace_value", necklace_value)

    @property
    def agree(self) -> bool | None:
        if self.faber_value is None or self.necklace_value is None:
            return None
        return self.faber_value == self.necklace_value

    @property
    def value(self) -> Fraction:
        # the necklace value is the socle number on every list; the closed
        # formula only on lists with at most one zero
        v = self.necklace_value if self.necklace_value is not None else self.faber_value
        assert v is not None
        return v


def socle_compute(q: SocleQuery, method: str = "both") -> SocleResult:
    """Evaluate a socle query by the closed formula, the necklace path,
    or both (reporting agreement)."""
    if method not in ("faber", "necklace", "both"):
        raise ValueError(f"unknown method {method!r}")
    fv = faber(q) if method in ("faber", "both") else None
    nv = socle_necklace(q) if method in ("necklace", "both") else None
    return SocleResult(fv, nv)


def verify_string_consistency(g: int, d: Sequence[int]) -> CheckResult:
    """Check that the closed formula commutes with one string-equation
    step: with sum(d) = g-1+n, the zero-appended query (g, d+(0,)) is
    dimension-valid and must equal the sum of its reductions."""
    d = tuple(map(index, d))
    n, total = len(d), sum(d)
    if total != g - 1 + n:
        raise DimensionError(f"sum(d) = {total} but g-1+n = {g - 1 + n}")
    appended = d + (0,)
    lhs = faber(SocleQuery(g, appended))
    rhs = sum(
        (faber(SocleQuery(g, rd)) for rd in string_apply(appended)),
        Fraction(0),
    )
    if lhs == rhs:
        return passed("socle.string_consistency", g=g, d=d)
    return failed(
        "socle.string_consistency",
        {"appended": appended, "lhs": lhs, "rhs": rhs},
        g=g,
        d=d,
    )


def relation_integral_check(g: int, d: Sequence[int]) -> CheckResult:
    """Integrated shadow of the necklace relation: the wheel sum against
    a cotangent monomial equals the normalized sum of the closed-formula
    values with one exponent decremented per slot."""
    d = tuple(map(index, d))
    m = len(d)
    lhs = necklace_lhs(g, d)
    total = sum(
        (
            faber(SocleQuery(g, d[:i] + (d[i] - 1,) + d[i + 1 :]))
            for i in range(m)
        ),
        Fraction(0),
    )
    rhs = total / _necklace_normalization(g, m)
    if lhs == rhs:
        return passed("socle.relation_integral", g=g, d=d)
    return failed("socle.relation_integral", {"lhs": lhs, "rhs": rhs}, g=g, d=d)


def wheel_collapse_check(g: int, d: Sequence[int]) -> CheckResult:
    """Oracle for the collapse identity: compare the literal
    oriented-wheel sum (lhs) with its collapsed form necklace_lhs (rhs).

    The literal sum builds (m-1)! * C(g-2+m, m-1) wheels for m = len(d),
    a count that grows factorially in m, at about 0.7-0.9 microseconds
    each (Python 3.11, 2 vCPUs).  Above _MAX_WHEELS, about 0.1 s of work,
    this raises ValueError before any wheel is built.  The literal side takes
    its vertex integrals from dr3_recursive and the collapsed side from
    dr3_closed (through dr_standard), so a wrong per-vertex value fails
    the check as well as a wrong enumeration or genus filter.
    """
    d = tuple(map(index, d))
    rhs = necklace_lhs(g, d)  # validates d before any wheel is built
    m = len(d)
    wheels = factorial(m - 1) * comb(g - 2 + m, m - 1)
    if wheels > _MAX_WHEELS:
        raise ValueError(
            f"wheel oracle for g={g}, d={d} needs {wheels} wheels; "
            f"the limit is {_MAX_WHEELS}"
        )
    lhs = _literal_wheel_sum(g, d)
    if lhs == rhs:
        return passed("socle.wheel_collapse", g=g, d=d)
    return failed("socle.wheel_collapse", {"lhs": lhs, "rhs": rhs}, g=g, d=d)


def _nonincreasing(total: int, parts: int, cap: int) -> Iterator[tuple[int, ...]]:
    # non-increasing lists of `parts` integers in 0..cap summing to total,
    # in descending lexicographic order; callers keep total <= parts * cap
    if parts == 1:
        yield (total,)
        return
    for first in range(min(total, cap), -1, -1):
        if first * parts < total:
            break
        for rest in _nonincreasing(total - first, parts - 1, first):
            yield (first,) + rest


def iter_socle_queries(g_max: int, n_max: int) -> Iterator[SocleQuery]:
    """All dimension-valid queries with g <= g_max and n <= n_max, one
    representative per exponent multiset (values are symmetric in d):
    d non-increasing, in descending lexicographic order per (g, n).
    """
    for g in range(1, g_max + 1):
        for n in range(1, n_max + 1):
            total = g - 2 + n
            for d in _nonincreasing(total, n, total):
                yield SocleQuery(g, d)
