"""Socle intersection numbers: the closed product formula, the necklace
evaluation, and the string-equation engine that connects them.

Two fully independent evaluation paths are provided.  faber() is the
closed formula in Bernoulli, factorial and double-factorial data.  The
necklace path reduces a query with the string equation until each branch
reaches the canonical shape (exactly one zero exponent, the rest
positive) and evaluates that shape through necklace_lhs, the wheel sum of
three-point ramification-cycle integrals in its collapsed form: a product
of unit-multiplicity integrals dr_standard(d_i - 1), one per positive
exponent.  The necklace path uses ramification-cycle data and Faber's
constant, the q^0 term of the Eisenstein series G_2g from modfit's
Apostol recurrence (_necklace_normalization); it never calls faber()
and reads no Bernoulli number above the recurrence's seeds B_2, B_4 and
B_6.  Socle values are symmetric in d, so the string recursion is
memoized on the exponent list sorted in non-increasing order.  Its step
is grouped: slots of equal exponent give equal branches, so one branch
per distinct positive exponent, weighted by its multiplicity, stands for
them all, and decrementing the last copy of the exponent keeps the branch
non-increasing, a memo key without sorting.  The per-slot step
string_apply stays the literal oracle of the check side.

The recursion works in integers.  With s = g-2+n and c(g, m) =
_necklace_normalization(g, m), it keeps the socle value of a list of
genus g on n points over c(g, n-1), times the level denominator
L(g, n) = 4^(g-1) (2s-1)!! (2g-3+n)!.  On a one-zero list the quotient
value / c(g, n-1) is the wheel sum, so the numerator is the wheel sum
times L(g, n); on every list with at most one zero it is the integer
((s+g-1)!/s!) multinomial(2s; 2d) prod(d_i!), and the string equation
carries integrality to the multi-zero lists.  Scaled so, a string step
multiplies the sum of its branch numerators by 2s-1 and the lift
divides by 2s+1; every division checks its remainder and raises
ArithmeticError on one.  The recursion reads no Faber constant:
socle_necklace applies c(g, n-1) once per query.

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
from itertools import combinations_with_replacement, permutations
from math import comb, prod
from operator import index, sub

from .drcycle import dr_standard, dr3_recursive
from .exact import bernoulli, double_factorial_odd, factorial
from .modfit import _eisenstein_constant
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
# 0.45 microseconds per wheel, the 95 040 wheels of g = 8, m = 6 take
# 0.04-0.05 s (Python 3.11.7, 2 vCPUs)
_MAX_WHEELS = 100_000

# largest _depth_bound socle_necklace takes: each level of the string
# recursion takes 2 of the default recursion limit of 1000 (one Python
# frame and the memo's call); under pytest, (2, 1^470, 0, 0) at g = 1
# (bound 471) still evaluates and 480 ones raise RecursionError (Python
# 3.11.7), so 400 leaves about 70 levels to the caller's frames
_MAX_DEPTH = 400

# most queries iter_socle_queries yields: g, n <= 18 gives 290 646, which
# `table socle` evaluates with both methods in about 7.7 s with a 294 MB peak
# (Python 3.11.7, 2 vCPUs)
_MAX_QUERIES = 300_000


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
    `cycle` (vertex 1 anchored first), with a genus per vertex index.
    A plain record: iter_wheels builds every Wheel the package uses."""

    __slots__ = ("cycle", "genera")

    def __init__(self, cycle: tuple[int, ...], genera: tuple[int, ...]):
        _set(self, "cycle", cycle)
        _set(self, "genera", genera)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Stream the ordered tuples of parts integers >= 0 summing to total,
    lexicographically: the steps through parts - 1 sorted partial sums."""
    if parts < 1 or total < 0:
        raise ValueError("need parts >= 1 and total >= 0")
    for sums in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, sums + (total,), (0,) + sums))


def iter_wheels(m: int, total_genus: int) -> Iterator[Wheel]:
    """Stream the (m-1)! oriented cyclic orders times the compositions
    of total_genus; the m=1 case is the single one-vertex loop wheel."""
    if m < 1 or total_genus < 0:
        raise ValueError("need m >= 1 and total_genus >= 0")
    splits = list(compositions(total_genus, m))
    for tail in permutations(range(2, m + 1)):
        cycle = (1,) + tail
        for genera in splits:
            yield Wheel(cycle, genera)


@lru_cache(maxsize=None)
def _faber_prefactor(g: int, n: int) -> tuple[int, int]:
    # faber's numerator (-1)^(g-1) num(B_2g) (2g-3+n)! and the part of its
    # denominator den(B_2g) 2^(2g-1) (2g)! that does not depend on d
    b = bernoulli(2 * g)
    return (
        (-1) ** (g - 1) * b.numerator * factorial(2 * g - 3 + n),
        b.denominator * 2 ** (2 * g - 1) * factorial(2 * g),
    )


def faber(q: SocleQuery) -> Fraction:
    """The closed product formula for the socle pairing.

    Exact on every dimension-valid query; agrees with the
    string-consistent evaluation iff at most one exponent is zero (see
    the module docstring).
    """
    num, den = _faber_prefactor(q.g, q.n)
    for di in q.d:
        den *= double_factorial_odd(2 * di - 1)
    return Fraction(num, den)


def _dr_product(d: tuple[int, ...]) -> tuple[int, int]:
    # prod(dr_standard(x - 1) for x in d) as an integer numerator and
    # denominator, neither reduced
    num = den = 1
    for x in d:
        v = dr_standard(x - 1)
        num *= v.numerator
        den *= v.denominator
    return num, den


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
    return Fraction(*_dr_product(d))


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


@lru_cache(maxsize=None)
def _necklace_normalization(g: int, m: int) -> Fraction:
    """(-1)^g [q^0]G_2g (2g-2+m)! / (2g-1)!: the socle value of a
    canonical query with m positive exponents over its wheel sum, equal to
    faber's (-1)^(g-1) B_2g (2g-2+m)! / (2 (2g)!).  [q^0]G_2g comes from
    the quasimodular side, modfit's Apostol recurrence at q^0, which reads
    no Bernoulli number above its seeds: g <= 3 still reads B_2, B_4 and
    B_6 through eisenstein(2g, 0).  The necklace path multiplies by it
    and relation_integral_check divides by it, so the relation check
    certifies the constant in use."""
    c = _eisenstein_constant(2 * g)
    return Fraction(
        (-1) ** g * c.numerator * factorial(2 * g - 2 + m),
        c.denominator * factorial(2 * g - 1),
    )


def string_apply(d: Sequence[int]) -> list[tuple[int, ...]]:
    """One string-equation step: remove the last zero exponent and emit
    one reduced list per remaining positive slot, decremented there.

    The genus is unchanged.  Mechanical on d: dimension validity is not
    required here, but reductions of a dimension-valid query are again
    dimension-valid.

    This is the literal string equation, one branch per slot, and the
    check side's oracle: _faber_string_sum sums faber over it, and the
    tests compare the necklace recursion's grouped step (_string_step)
    with it.  The recursion does not step through it.
    """
    d = tuple(map(index, d))
    if len(d) < 2:
        raise ValueError("string reduction needs n >= 2")
    if min(d) < 0:
        raise ValueError(f"exponents must be >= 0, got {d}")
    if 0 not in d:
        raise ValueError("string reduction needs a zero exponent")
    if not any(d):
        raise ValueError(f"no positive exponent to decrement in {d}")
    last_zero = len(d) - 1 - d[::-1].index(0)
    rest = d[:last_zero] + d[last_zero + 1 :]
    return [
        rest[:j] + (x - 1,) + rest[j + 1 :] for j, x in enumerate(rest) if x >= 1
    ]


def _string_step(d: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    # the string step of canonical (non-increasing) d, whose last entry is
    # a zero, grouped by value: slots of equal value give equal branches
    # up to order, so each distinct positive value v of multiplicity k
    # gives one branch of weight k, with the last copy of v decremented.
    # That keeps the branch non-increasing, so it is its own memo key
    rest = d[:-1]
    branches = []
    j = 0
    while j < len(rest) and rest[j]:
        x = rest[j]
        k = rest.count(x)
        j += k
        branches.append((k, rest[: j - 1] + (x - 1,) + rest[j:]))
    return branches


def _canonical(d: Sequence[int]) -> tuple[int, ...]:
    # socle values are symmetric in d: one memo key per exponent multiset
    return tuple(sorted(d, reverse=True))


def _depth_bound(d: tuple[int, ...]) -> int:
    # a bound on how deep _necklace_numerator(g, d) nests below itself, d
    # canonical: a string step drops one point and leaves a zero, so n - 2
    # on two or more zeros; each lift moves one unit of some d_i, i >= 1,
    # onto d[0] until a branch has a zero, so sum(d_i - 1, i >= 1) + 1 on
    # none; a one-zero list does not recurse
    zeros = d.count(0)
    if zeros == 1:
        return 0
    if zeros:
        return len(d) - 2
    return sum(d[1:]) - len(d) + 2


def _exact_quotient(num: int, den: int) -> int:
    # num / den, which the level denominators make an integer
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num}/{den} is not an integer")
    return q


@lru_cache(maxsize=None)
def _level_denominator(g: int, n: int) -> int:
    # L(g, n) = 4^(g-1) (2s-1)!! (2g-3+n)! with s = g-2+n; see the module
    # docstring
    s = g - 2 + n
    return 4 ** (g - 1) * double_factorial_odd(2 * s - 1) * factorial(2 * g - 3 + n)


@lru_cache(maxsize=None)
def _necklace_numerator(g: int, d: tuple[int, ...]) -> int:
    # the socle value of canonical (non-increasing) d over c(g, n-1),
    # times L(g, n), n = len(d); d[0] is a largest exponent
    zeros = d.count(0)
    n = len(d)
    if zeros == 1:
        # the zero is last: the wheel sum of the positive exponents,
        # necklace_lhs's integer product (1 for d = (0,))
        num, den = _dr_product(d[:-1])
        return _exact_quotient(num * _level_denominator(g, n), den)
    s = g - 2 + n
    if zeros == 0:
        # lift: bump the largest exponent, append a zero; the lifted
        # canonical query string-reduces to this query (its first branch,
        # of weight 1, since the bumped value occurs once) plus sibling
        # branches, each strictly more concentrated (sum d_i^2 grows), so
        # the recursion terminates; the lifted numerator carries one more
        # factor 2s+1
        lifted = (d[0] + 1,) + d[1:] + (0,)
        _, *branches = _string_step(lifted)
        total = _exact_quotient(_necklace_numerator(g, lifted), 2 * s + 1)
        for k, branch in branches:
            total -= k * _necklace_numerator(g, branch)
        return total
    # two or more zeros: keep applying the string equation, whose
    # branches on n-1 points carry one factor 2s-1 less
    total = 0
    for k, branch in _string_step(d):
        total += k * _necklace_numerator(g, branch)
    return (2 * s - 1) * total


def socle_necklace(q: SocleQuery) -> Fraction:
    """String-consistent evaluation through the necklace path.

    Raises ValueError, before the normalization constant or any
    recursion, when the recursion's depth bound passes _MAX_DEPTH.  The
    recursion sums integer numerators over the level denominators; the
    one Fraction built per query applies the necklace normalization."""
    d = _canonical(q.d)
    depth = _depth_bound(d)
    if depth > _MAX_DEPTH:
        raise ValueError(
            f"the necklace path recurses at most {_MAX_DEPTH} levels deep; "
            f"d needs up to {depth}"
        )
    c = _necklace_normalization(q.g, q.n - 1)
    return Fraction(
        c.numerator * _necklace_numerator(q.g, d),
        c.denominator * _level_denominator(q.g, q.n),
    )


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


def _faber_string_sum(g: int, d: tuple[int, ...]) -> Fraction:
    """The closed formula summed over the string reductions of d.

    It steps through the per-slot string_apply, not the necklace
    recursion's grouped _string_step: string_apply is the literal string
    equation, which the mutation row that drops its last branch perturbs
    and the tests compare the grouped recursion with, so the check side
    keeps its own step."""
    return sum(
        (faber(SocleQuery(g, rd)) for rd in string_apply(d)), Fraction(0)
    )


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
    rhs = _faber_string_sum(g, appended)
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
    values with one exponent decremented per slot, which are the string
    reductions of the zero-appended list.  The closed formula carries
    Faber's B_2g and the normalization the Eisenstein constant
    [q^0]G_2g of modfit's recurrence, so the check compares the two."""
    d = tuple(map(index, d))
    lhs = necklace_lhs(g, d)  # validates d: m >= 1 positive exponents
    rhs = _faber_string_sum(g, d + (0,)) / _necklace_normalization(g, len(d))
    if lhs == rhs:
        return passed("socle.relation_integral", g=g, d=d)
    return failed("socle.relation_integral", {"lhs": lhs, "rhs": rhs}, g=g, d=d)


def wheel_collapse_check(g: int, d: Sequence[int]) -> CheckResult:
    """Oracle for the collapse identity: compare the literal
    oriented-wheel sum (lhs) with its collapsed form necklace_lhs (rhs).

    The literal sum builds (m-1)! * C(g-2+m, m-1) wheels for m = len(d),
    a count that grows factorially in m, at about 0.45 microseconds each
    (Python 3.11.7, 2 vCPUs).  Above _MAX_WHEELS, about 0.05 s of work,
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


def _nonincreasing(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # the non-increasing lists of `parts` integers >= 0 summing to
    # total >= 0, in descending lexicographic order (anti-lexicographic, as
    # in Zoghbi-Stojmenovic), without recursion: each step lowers by one
    # the rightmost entry whose unit the entries after it can take, each at
    # most the lowered value, and refills those entries greedily
    d = [total] + [0] * (parts - 1)
    while True:
        yield tuple(d)
        tail = 0  # sum(d[i + 1:])
        for i in range(parts - 2, -1, -1):
            tail += d[i + 1]
            x = d[i] - 1
            if x * (parts - 1 - i) > tail:
                break
        else:
            return
        full, rest = divmod(tail + 1, x)
        d[i:] = [x] * (full + 1) + [0] * (parts - 1 - i - full)
        if rest:
            d[i + 1 + full] = rest


def _query_count(g_max: int, n_max: int) -> int:
    # the partitions of g-2+n into at most n parts, summed over g <= g_max
    # and n <= n_max: after pass n, row[t] counts the partitions of t into
    # parts of size at most n, which is as many as into at most n parts
    row = [1] + [0] * (g_max - 2 + n_max)
    count = 0
    for n in range(1, n_max + 1):
        for t in range(n, len(row)):
            row[t] += row[t - n]
        count += sum(row[n - 1 : g_max - 1 + n])
    return count


def iter_socle_queries(g_max: int, n_max: int) -> Iterator[SocleQuery]:
    """All dimension-valid queries with g <= g_max and n <= n_max, one
    representative per exponent multiset (values are symmetric in d):
    d non-increasing, in descending lexicographic order per (g, n).
    More than _MAX_QUERIES raise ValueError before the first is yielded.
    """
    count = _query_count(g_max, n_max)
    if count > _MAX_QUERIES:
        raise ValueError(
            f"g <= {g_max}, n <= {n_max} gives {count} socle queries; "
            f"the limit is {_MAX_QUERIES}"
        )
    for g in range(1, g_max + 1):
        for n in range(1, n_max + 1):
            for d in _nonincreasing(g - 2 + n, n):
                yield SocleQuery(g, d)
