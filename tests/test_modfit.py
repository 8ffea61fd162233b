import random
from fractions import Fraction

import pytest

from soclecalc import elliptic, modfit
from soclecalc.cli import suite_topweight
from soclecalc.exact import bernoulli
from soclecalc.modfit import (
    FitInconsistency,
    QuasimodularPoly,
    basis,
    fit,
    monomial_weight,
    necklace_blocks,
)
from soclecalc.qseries import QSeries, divisor_sigmas, eisenstein

from series_ops import (
    evaluate,
    graded_part,
    monomial_series,
    necklace_series,
    plus,
    q_d_q,
    scale,
    times,
    zero,
)


def _partition_count_246(v):
    # partitions of v into parts {2, 4, 6}, by direct enumeration
    count = 0
    for a in range(v // 2 + 1):
        for b in range(v // 4 + 1):
            for c in range(v // 6 + 1):
                if 2 * a + 4 * b + 6 * c == v:
                    count += 1
    return count


def test_basis_small_weights():
    assert basis(0) == ((0, 0, 0),)
    assert basis(2) == ((0, 0, 0), (1, 0, 0))
    assert basis(4) == ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0))
    b6 = basis(6)
    assert b6[:4] == basis(4)
    assert b6[4:] == ((3, 0, 0), (1, 1, 0), (0, 0, 1))


def test_basis_is_one_memo_per_weight():
    assert basis(12) is basis(12)


def test_basis_dimension_matches_partition_counts():
    for w in range(0, 31, 2):
        expected = sum(_partition_count_246(v) for v in range(0, w + 1, 2))
        assert len(basis(w)) == expected


def test_basis_is_graded():
    weights = [monomial_weight(m) for m in basis(12)]
    assert weights == sorted(weights)


def test_evaluate_monomials():
    assert evaluate(QuasimodularPoly({(1, 0, 0): 1}), 2) == eisenstein(2, 2)
    assert evaluate(QuasimodularPoly(), 3) == zero(3)
    assert evaluate(QuasimodularPoly({(0, 1, 0): 1}), 1) == eisenstein(4, 1)


def test_evaluate_commutes_with_ring_ops():
    p = QuasimodularPoly({(1, 0, 0): Fraction(1, 2), (0, 1, 0): -3})
    q = QuasimodularPoly({(2, 0, 0): 1, (0, 0, 1): Fraction(2, 7)})
    order = 12
    # the constructor adds up repeated monomials
    total = QuasimodularPoly(list(p.terms.items()) + list(q.terms.items()))
    product = QuasimodularPoly(
        (tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
        for m1, c1 in p.terms.items()
        for m2, c2 in q.terms.items()
    )
    assert evaluate(total, order) == plus(evaluate(p, order), evaluate(q, order))
    assert evaluate(product, order) == evaluate(p, order) * evaluate(q, order)


def test_fit_recovers_derivative_of_g2():
    # q d/dq G2 = -2 G2^2 + (5/6) G4; coefficients hand-checked at
    # q^1 (-2*(-1/12) + 5/6 = 1) and q^2 (-3/2 + 15/2 = 6)
    p = fit(q_d_q(eisenstein(2, 12)), 4)
    assert p == QuasimodularPoly({(2, 0, 0): -2, (0, 1, 0): Fraction(5, 6)})


def test_fit_recognizes_generator():
    p = fit(eisenstein(6, 12), 6)
    assert p == QuasimodularPoly({(0, 0, 1): 1})


def test_fit_reports_inconsistency():
    s = QSeries((1, 1) + (0,) * 11)  # 1 + q is not quasimodular
    rep = fit(s, 4)
    assert isinstance(rep, FitInconsistency)
    # four basis monomials fix the first rows; the first row that cannot
    # be matched was computed beforehand by the same elimination by hand
    assert rep.first_inconsistent_power == 4
    assert "q^4" in str(rep)
    # off by 2^127 - 1 on the last (surplus) row: consistent modulo that
    # prime, inconsistent over Q
    coeffs = list(q_d_q(eisenstein(2, 14)).coeffs)
    coeffs[14] += (1 << 127) - 1
    assert fit(QSeries(tuple(coeffs)), 4) == FitInconsistency(14, 4)


def test_fit_round_trip_random_polys():
    rng = random.Random(3)
    monos = basis(8)
    for _ in range(10):
        terms = {
            m: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for m in rng.sample(monos, k=rng.randint(1, 5))
        }
        p = QuasimodularPoly(terms)
        assert fit(evaluate(p, 25), 8) == p
    # numerators and denominators above 2^70
    p = QuasimodularPoly(
        {
            (0, 0, 0): Fraction(2**71 + 1, 3**45),
            (1, 0, 0): Fraction(-(2**73) - 7, 5**31),
            (0, 1, 0): Fraction(3**50, 2**71 + 3),
            (1, 1, 0): Fraction(7**26, 11**21),
        }
    )
    assert fit(evaluate(p, 20), 6) == p


def test_fit_stable_under_higher_order():
    target = q_d_q(eisenstein(2, 30))
    assert fit(target, 4) == fit(QSeries(target.coeffs[:15]), 4)


def test_fit_underdetermined_is_an_error():
    with pytest.raises(ValueError):
        fit(eisenstein(2, 8), 8)  # 11 monomials, 9 rows: no surplus
    # a negative order is an error, not a ZeroDivisionError
    with pytest.raises(ValueError, match="order must be >= 0"):
        modfit.block_sum([(1, 0, 4)], -1)


def test_fit_reads_constant_off_the_series():
    # the fit's constant is the series' q^0 coefficient minus the q^0
    # value of the other terms
    rng = random.Random(5)
    for weight in (4, 6, 8, 10, 12):
        monos = basis(weight)
        for _ in range(3):
            terms = {
                m: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for m in rng.sample(monos, k=rng.randint(1, len(monos)))
            }
            terms[(0, 0, 0)] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            s = evaluate(QuasimodularPoly(terms), len(monos) + 6)
            known = fit(s, weight)
            assert known == QuasimodularPoly(terms)
            rest = QuasimodularPoly(
                {m: c for m, c in known.terms.items() if m != (0, 0, 0)}
            )
            constant = known.terms.get((0, 0, 0), Fraction(0))
            assert constant == s.coeffs[0] - evaluate(rest, 0).coeffs[0]


def test_non_integer_exponents_are_rejected():
    # int() would truncate (1.5, 0, 0) to G2
    with pytest.raises(TypeError):
        QuasimodularPoly({(1.5, 0, 0): 1})
    with pytest.raises(TypeError):
        QuasimodularPoly([(("1", 0, 0), 1)])


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2"])
def test_coefficients_must_be_ints_or_fractions(bad):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError):
        QuasimodularPoly({(1, 0, 0): bad})
    with pytest.raises(TypeError):
        QuasimodularPoly([((0, 1, 0), 1), ((1, 0, 0), bad)])


def test_polynomials_built_without_validation_are_canonical(monkeypatch):
    blocks = [
        modfit._block_polynomial(i, k)
        for k in range(2, 31, 2)
        for i in range((30 - k) // 2 + 1)
    ]
    fitted = []
    honest = modfit.fit

    def recorded(s, max_weight):
        result = honest(s, max_weight)
        fitted.append(result)
        return result

    for module in (modfit, elliptic):
        monkeypatch.setattr(module, "fit", recorded)
    assert all(c.ok for c in suite_topweight(3, 4, None, None))
    assert len(fitted) == 30
    # the top-weight fits have no constant term; 1 + G4 has one
    g4 = eisenstein(4, 20).coeffs
    one_plus_g4 = recorded(QSeries((g4[0] + 1,) + g4[1:]), 4)
    assert one_plus_g4.terms == {(0, 0, 0): 1, (0, 1, 0): 1}
    for p in blocks + fitted:
        # the public constructor's form, Fraction coefficients and int
        # (not bool) exponents
        assert QuasimodularPoly(p.terms)._terms == p._terms
        for mono, x in p._terms:
            assert type(x) is Fraction, (mono, x)
            assert all(type(e) is int for e in mono), mono
    # the public constructor still validates
    with pytest.raises(TypeError):
        QuasimodularPoly({(1, 0, 0): 0.5})
    with pytest.raises(ValueError, match="bad exponent triple"):
        QuasimodularPoly({(1, 0): 1})
    with pytest.raises(ValueError, match="bad exponent triple"):
        QuasimodularPoly({(1, -1, 0): 1})


def test_graded_decomposition_sums_back():
    rng = random.Random(11)
    monos = basis(10)
    for _ in range(6):
        p = QuasimodularPoly(
            {m: Fraction(rng.randint(-5, 5)) for m in rng.sample(monos, k=6)}
        )
        total = QuasimodularPoly(
            t for w in range(0, 11, 2) for t in graded_part(p, w).terms.items()
        )
        assert total == p


# ------------------------------------------------------------------
# Reference recognition: Fraction column products (the literal
# monomial_series of series_ops) and Gaussian elimination with back
# substitution over the rationals, kept here as the oracle of fit.


def _ref_solve(matrix, rhs):
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    # elimination below each pivot; every column has one, so the pivot of
    # column c ends up in row c
    for c in range(ncols):
        pr = next((i for i in range(c, nrows) if aug[i][c] != 0), None)
        if pr is None:
            raise ValueError("dependent monomial columns; increase the order")
        aug[c], aug[pr] = aug[pr], aug[c]
        pivot = aug[c]
        for i in range(c + 1, nrows):
            if aug[i][c] != 0:
                f = aug[i][c] / pivot[c]
                aug[i][c:] = [x - f * y for x, y in zip(aug[i][c:], pivot[c:])]
    x = [Fraction(0)] * ncols
    for c in reversed(range(ncols)):
        row = aug[c]
        tail = sum(row[j] * x[j] for j in range(c + 1, ncols))
        x[c] = (row[ncols] - tail) / row[c]
    consistent = all(aug[i][ncols] == 0 for i in range(ncols, nrows))
    return x, consistent


def _ref_fit(s, max_weight, columns):
    # the reference keeps the q^0 row and the constant monomial in the
    # system, which fit leaves out and reads off afterwards; agreement
    # checks that the constant absorbs q^0
    monos = basis(max_weight)
    powers = list(range(s.order + 1))
    cols = [columns[m] for m in monos]
    matrix = [[col.coeffs[n] for col in cols] for n in powers]
    rhs = [s.coeffs[n] for n in powers]
    coeffs, ok = _ref_solve(matrix, rhs)
    if not ok:
        for n, row_power in enumerate(powers):
            lhs = sum(matrix[n][j] * coeffs[j] for j in range(len(monos)))
            if lhs != rhs[n]:
                return FitInconsistency(row_power, max_weight)
        raise AssertionError("inconsistent solve reported but residual is zero")
    return QuasimodularPoly(dict(zip(monos, coeffs)))


def test_fit_matches_gauss_jordan_reference():
    rng = random.Random(20261018)
    columns = {}  # order -> monomial -> reference column
    # truncations of the longest: a truncated product is the product of
    # the truncations
    longest = {m: monomial_series(m, 30) for m in basis(12)}
    seen = {"consistent": 0, "inconsistent": 0}
    weights = set()
    for trial in range(200):
        weight = rng.choice((4, 6, 8, 10, 12))
        monos = basis(weight)
        order = len(monos) - 1 + 5 + rng.randint(0, 2)
        if order not in columns:
            columns[order] = {
                m: QSeries(c.coeffs[: order + 1]) for m, c in longest.items()
            }
        terms = {
            m: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            for m in rng.sample(monos, k=rng.randint(1, len(monos)))
        }
        coeffs = [Fraction(0)] * (order + 1)
        for m, c in terms.items():
            for n, x in enumerate(columns[order][m].coeffs):
                coeffs[n] += c * x
        if trial % 4 >= 2:  # perturb one coefficient the fit reads
            n = rng.randint(0, order)
            bump = Fraction(rng.randint(1, 5), rng.randint(1, 7))
            coeffs[n] += bump if rng.random() < 0.5 else -bump
        s = QSeries(tuple(coeffs))
        got = fit(s, weight)
        ref = _ref_fit(s, weight, columns[order])
        assert got == ref, (trial, weight)
        seen["inconsistent" if isinstance(got, FitInconsistency) else "consistent"] += 1
        weights.add(weight)
    assert weights == {4, 6, 8, 10, 12}
    assert min(seen.values()) >= 50, seen


def _oracle_acceptance(s, max_weight):
    # fit's candidate, the solution of the rows q^1 .. q^C for the C
    # non-constant monomials, solved and evaluated in Fractions: the
    # first q^n >= 1 where its evaluation misses s, else the candidate
    # with s's q^0 coefficient minus its q^0 value as the constant
    monos = basis(max_weight)[1:]
    powers = range(1, len(monos) + 1)
    matrix = [[monomial_series(m, s.order).coeffs[n] for m in monos] for n in powers]
    coeffs, _ = _ref_solve(matrix, [s.coeffs[n] for n in powers])
    candidate = QuasimodularPoly(dict(zip(monos, coeffs)))
    value = evaluate(candidate, s.order).coeffs
    miss = next((n for n in range(1, s.order + 1) if value[n] != s.coeffs[n]), None)
    if miss:
        return FitInconsistency(miss, max_weight)
    constant = s.coeffs[0] - value[0]
    return QuasimodularPoly({**candidate.terms, (0, 0, 0): constant})


def test_integer_acceptance_matches_the_fraction_oracle():
    # single coefficients of fitted series perturbed (the leading rows,
    # the surplus rows and q^0), next to series that are not
    # quasimodular: fit names the same first inconsistent
    # power, or the same polynomial with the same constant term, as
    # evaluating its candidate in Fractions
    rng = random.Random(31)
    seen = {"consistent": 0, "inconsistent": 0, "leading": 0, "surplus": 0}
    for trial in range(60):
        weight = rng.choice((2, 4, 6, 8, 10, 12))
        monos = basis(weight)
        order = len(monos) + 4 + rng.randint(0, 3)
        if trial % 6 == 5:
            # random rationals: not quasimodular at any weight
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(order + 1)
            ]
        else:
            terms = {
                m: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for m in rng.sample(monos, k=rng.randint(1, len(monos)))
            }
            coeffs = list(evaluate(QuasimodularPoly(terms), order).coeffs)
            if trial % 6 >= 2:
                n = rng.randint(0, order)
                coeffs[n] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), 7)
                seen["leading" if 1 <= n < len(monos) else "surplus"] += 1
        s = QSeries(coeffs)
        got = fit(s, weight)
        assert got == _oracle_acceptance(s, weight), (trial, weight)
        seen["inconsistent" if isinstance(got, FitInconsistency) else "consistent"] += 1
    assert min(seen.values()) >= 10, seen


def test_fit_and_top_weight_run_no_series_products(monkeypatch):
    from soclecalc import modfit
    from soclecalc.elliptic import top_weight_check

    def forbidden(self, other):
        raise AssertionError("QSeries product on the recognition path")

    monkeypatch.setattr(QSeries, "__mul__", forbidden)
    modfit._columns.clear()
    monkeypatch.setattr(modfit, "_lu", ([], [], []))
    assert fit(q_d_q(eisenstein(2, 14)), 4) == QuasimodularPoly(
        {(2, 0, 0): -2, (0, 1, 0): Fraction(5, 6)}
    )
    assert top_weight_check(5, 1, 4, 58).ok


def _grown_state():
    # every minor the store holds, copied
    pivots, lower, upper = modfit._lu
    return list(pivots), [list(r) for r in lower], [list(c) for c in upper]


def _served(ncols):
    # the store after a solve with the first ncols non-constant monomials,
    # cut to their leading block
    monos = [m for m in basis(40) if any(m)][:ncols]
    modfit._solve([modfit._column(m, ncols)[1] for m in monos], [0] * ncols)
    return tuple(part[:ncols] for part in _grown_state())


def _leading_minor(ncols):
    # by Fraction elimination: the product of the pivots
    monos = [m for m in basis(40) if any(m)][:ncols]
    rows = [
        [Fraction(modfit._column(m, ncols)[1][n]) for m in monos]
        for n in range(1, ncols + 1)
    ]
    det = Fraction(1)
    for c in range(ncols):
        det *= rows[c][c]
        for row in rows[c + 1 :]:
            f = row[c] / rows[c][c]
            row[c:] = [x - f * y for x, y in zip(row[c:], rows[c][c:])]
    return det


def test_top_weight_splits_of_one_size_factor_once(monkeypatch):
    from soclecalc.elliptic import top_weight_check

    # the recognition matrix depends on (max_weight, order) alone, and
    # two splits j+ + j- = m of one (g, m) share both; every smaller
    # top-weight system is a leading block of theirs
    q_order = len(basis(2 * 3 - 2 + 2 * 3)) + 5
    monkeypatch.setattr(modfit, "_lu", ([], [], []))
    assert top_weight_check(3, 1, 2, q_order).ok
    grown = _grown_state()
    assert len(grown[0]) == len(basis(10)) - 1
    assert top_weight_check(3, 3, 0, q_order).ok
    assert _grown_state() == grown
    assert all(c.ok for c in suite_topweight(3, 3, None, None))
    assert _grown_state() == grown


def test_warm_factorization_still_reports_the_inconsistency(monkeypatch):
    p = QuasimodularPoly(
        {
            (0, 0, 0): Fraction(1, 3),
            (2, 0, 0): -2,
            (0, 1, 0): Fraction(5, 6),
            (1, 0, 1): Fraction(-7, 4),
        }
    )
    s = evaluate(p, 16)
    monkeypatch.setattr(modfit, "_lu", ([], [], []))
    assert fit(s, 8) == p
    warm = _grown_state()
    # a row of the leading block perturbed: the solution of that block
    # changes, and the first surplus row it misses is the witness
    coeffs = list(s.coeffs)
    coeffs[5] += 1
    assert fit(QSeries(tuple(coeffs)), 8) == FitInconsistency(11, 8)
    assert _grown_state() == warm


def test_grown_factorization_serves_the_fresh_leading_block(monkeypatch):
    # column counts of the weights 4, 8, 10, 12 and 16 and two in between
    sizes = [3, 10, 13, 14, 15, 22, 40]
    fresh = {}
    for size in sizes:
        monkeypatch.setattr(modfit, "_lu", ([], [], []))
        fresh[size] = _served(size)
    interleaved = sizes[1::2] + sizes[-2::-2]
    for sequence in (sizes, sizes[::-1], interleaved):
        monkeypatch.setattr(modfit, "_lu", ([], [], []))
        for size in sequence:
            assert _served(size) == fresh[size], size
    # the pivots are the leading minors
    for size in (3, 10, 15):
        assert fresh[40][0][size - 1] == _leading_minor(size), size


def test_a_vanishing_leading_minor_raises(monkeypatch):
    monkeypatch.setattr(modfit, "_lu", ([], [], []))
    # rows q^1, q^2 of the two columns: [[1, 2], [2, 4]], singular
    cols = [(0, 1, 2, 3), (0, 2, 4, 7)]
    with pytest.raises(ValueError, match="leading minor 2"):
        modfit._solve(cols, [1, 2])
    # the store keeps the block it could grow, consistent
    assert _grown_state() == ([1], [[]], [[]])


def _built_polynomial(g, j_plus, j_minus):
    # sum c D^i G_k over the blocks that top_weight_check sums, each block
    # as the polynomial its integer series is evaluated from
    return QuasimodularPoly(
        (mono, c * x)
        for c, i, k in necklace_blocks(g, j_plus, j_minus)
        for mono, x in modfit._block_polynomial(i, k).terms.items()
    )


def test_construction_equals_fit_up_to_six():
    # uniqueness of the matching polynomial needs fit's full column rank,
    # so the construction is compared with fit where fit is affordable
    checks = 0
    for g in range(1, 7):
        for m in range(1, 7):
            weight = 2 * g - 2 + 2 * m
            order = len(basis(weight)) + 5
            for j_plus in range(1, m + 1):
                s = necklace_series(g, j_plus, m - j_plus, order)
                assert fit(s, weight) == _built_polynomial(
                    g, j_plus, m - j_plus
                ), (g, j_plus, m - j_plus)
                checks += 1
    assert checks == 126


def test_block_sum_equals_the_evaluated_construction_up_to_six():
    # the one integer sum, taken on the blocks (block_sum) and on the
    # columns (evaluate of the built polynomial), at every q-power; the
    # top-weight blocks are the built polynomial's top graded part
    order = 20
    checks = 0
    for g in range(1, 7):
        for m in range(1, 7):
            weight = 2 * g - 2 + 2 * m
            for j_plus in range(1, m + 1):
                blocks = necklace_blocks(g, j_plus, m - j_plus)
                built = _built_polynomial(g, j_plus, m - j_plus)
                for terms, p in (
                    (blocks, built),
                    (
                        [(c, i, k) for c, i, k in blocks if k + 2 * i == weight],
                        graded_part(built, weight),
                    ),
                ):
                    den, ints = modfit.block_sum(terms, order)
                    assert [Fraction(x, den) for x in ints] == list(
                        evaluate(p, order).coeffs
                    ), (g, j_plus, m - j_plus)
                checks += 1
    assert checks == 126


def test_eisenstein_constant_is_minus_b_over_2k(monkeypatch):
    # Apostol's recurrence at q^0 (Euler's convolution identity for
    # zeta(2n)), seeded with the constants of G2, G4 and G6, gives
    # -B_2n/(4n) for every n; asked cold for G_120, then for each weight
    monkeypatch.setattr(modfit, "_eisenstein_constants", [])
    expected = [-bernoulli(2 * n) / (4 * n) for n in range(1, 61)]
    assert modfit._eisenstein_constant(120) == expected[-1]
    assert modfit._eisenstein_constants == expected
    assert [modfit._eisenstein_constant(2 * n) for n in range(1, 61)] == expected


def test_eisenstein_constant_needs_no_deep_stack(monkeypatch):
    # the constants grow bottom-up: asked cold for G_300 (genus 150) about
    # 50 frames below the recursion limit, the call still returns, where a
    # memo recursing by weight would need about 75 levels more
    monkeypatch.setattr(modfit, "_eisenstein_constants", [])

    def headroom(depth):
        try:
            return headroom(depth + 1)
        except RecursionError:
            return depth

    def nested(levels):
        return nested(levels - 1) if levels else modfit._eisenstein_constant(300)

    assert nested(headroom(0) - 50) == -bernoulli(300) / 600


def test_ramanujan_equations_in_this_normalization():
    # D = q d/dq; the integers of modfit._column's recurrence come from
    # these constants
    g2, g4, g6 = (eisenstein(k, 40) for k in (2, 4, 6))
    assert q_d_q(g2) == plus(scale(times(g2, g2), -2), scale(g4, Fraction(5, 6)))
    assert q_d_q(g4) == plus(scale(times(g2, g4), -8), scale(g6, Fraction(7, 10)))
    assert q_d_q(g6) == plus(
        scale(times(g2, g6), -12), scale(times(g4, g4), Fraction(400, 7))
    )


@pytest.mark.parametrize("grown", [False, True], ids=["cold", "grown"])
def test_columns_are_the_scaled_monomial_products(grown, monkeypatch):
    monkeypatch.setattr(modfit, "_columns", {})
    monos = basis(20)
    if grown:
        # every column extends its stored entries from q^31 on
        for m in monos:
            modfit._column(m, 30)
        assert {len(col) for _, col in modfit._columns.values()} == {31}
    for m in monos:
        factor, col = modfit._column(m, 60)
        assert factor == 24 ** m[0] * 240 ** m[1] * 504 ** m[2]
        assert QSeries(col) == scale(monomial_series(m, 60), factor), m


def test_a_non_integral_recurrence_entry_raises_and_stores_nothing(monkeypatch):
    monkeypatch.setattr(modfit, "_columns", {})
    for m in basis(10):
        modfit._column(m, 30)
    factor, col = modfit._columns[(0, 2, 0)]
    modfit._columns[(0, 2, 0)] = factor, col[:3] + (col[3] + 1,) + col[4:]
    del modfit._columns[(2, 1, 0)]
    # G2^2 G4 divides by k = 10, and its term 2 col(0, 2, 0) moves the
    # q^3 numerator by 2
    with pytest.raises(ArithmeticError, match=r"q\^3"):
        modfit._column((2, 1, 0), 30)
    assert (2, 1, 0) not in modfit._columns


def test_a_non_integral_grown_entry_names_its_q_power_and_keeps_the_column(
    monkeypatch,
):
    # the row pass numbers its entries from the stored length: grown from
    # q^31, the bad entry must still be named q^35, not q^4
    monkeypatch.setattr(modfit, "_columns", {})
    for m in basis(10):
        modfit._column(m, 30)
    # the three columns G2^2 G4 reads, grown honestly past q^35 first
    for m in ((1, 1, 0), (0, 2, 0), (1, 0, 1)):
        modfit._column(m, 40)
    factor, col = modfit._columns[(0, 2, 0)]
    modfit._columns[(0, 2, 0)] = factor, col[:35] + (col[35] + 1,) + col[36:]
    stored = modfit._columns[(2, 1, 0)]
    assert len(stored[1]) == 31
    # G2^2 G4 divides by k = 10, and its term 2 col(0, 2, 0) moves the
    # q^35 numerator by 2
    with pytest.raises(ArithmeticError, match=r"q\^35$"):
        modfit._column((2, 1, 0), 40)
    assert modfit._columns[(2, 1, 0)] == stored


def test_only_modular_monomials_are_convolved(monkeypatch):
    monkeypatch.setattr(modfit, "_columns", {})
    products = []
    product = modfit._product

    def counted(lower, gen, start, order):
        products.append(order)
        return product(lower, gen, start, order)

    monkeypatch.setattr(modfit, "_product", counted)
    for m in basis(18):
        modfit._column(m, 57)
    # of the 52 non-constant monomials, the 9 G4^b G6^c of weight 8 .. 18
    # are products; the 3 generators and the 40 with G2 are not
    assert products == [57] * 9
    assert sorted(modfit._columns) == sorted(m for m in basis(18) if any(m))


def test_generator_columns_are_the_scaled_eisenstein_series(monkeypatch):
    # den_k * G_k from the constant term and qseries.divisor_sigmas
    monkeypatch.setattr(modfit, "_columns", {})
    for k, mono in ((2, (1, 0, 0)), (4, (0, 1, 0)), (6, (0, 0, 1))):
        series = eisenstein(k, 100)
        den = series.coeffs[0].denominator
        assert modfit._column(mono, 100) == (
            den, tuple(den * x for x in series.coeffs)
        ), k


def test_a_grown_block_equals_a_cold_one(monkeypatch):
    # D^i G_k is n^i sigma_(k-1)(n) at q^n >= 1
    monkeypatch.setattr(modfit, "_blocks", {})
    for i, k in ((0, 8), (2, 12), (5, 10)):
        assert len(modfit._block(i, k, 30)[1]) == 31
        grown = modfit._block(i, k, 60)
        monkeypatch.setattr(modfit, "_blocks", {})
        monkeypatch.setattr(modfit, "_columns", {})
        assert modfit._block(i, k, 60) == grown
        den, ints = grown
        sigmas = divisor_sigmas(k - 1, 60)
        assert ints[1:] == tuple(den * n**i * x for n, x in enumerate(sigmas, 1))


def test_the_top_weight_suite_evaluates_each_block_once(monkeypatch):
    # every (i, k) that a split sums, at g, m <= 8 and every weight, is
    # summed on the columns exactly once, at the largest order asked for
    monkeypatch.setattr(modfit, "_columns", {})
    monkeypatch.setattr(modfit, "_blocks", {})
    monkeypatch.setattr(modfit, "_lu", ([], [], []))
    modfit._block_polynomial.cache_clear()
    summed = []
    integer_sum = modfit._integer_sum

    def counted(terms, series, order):
        if series is modfit._column:
            summed.append(terms)
        return integer_sum(terms, series, order)

    monkeypatch.setattr(modfit, "_integer_sum", counted)
    assert all(c.ok for c in suite_topweight(8, 8, None, None))
    wanted = {
        (i, k)
        for g in range(1, 9)
        for m in range(1, 9)
        for j_plus in range(1, m + 1)
        for _, i, k in necklace_blocks(g, j_plus, m - j_plus)
    }
    assert set(modfit._blocks) == wanted
    evaluated = [
        key
        for terms in summed
        for key in wanted
        if terms is modfit._block_polynomial(*key)._terms
    ]
    assert sorted(evaluated) == sorted(wanted)
    assert len(wanted) == 76
