import random
from fractions import Fraction

import pytest

from soclecalc.modfit import (
    FitInconsistency,
    QuasimodularPoly,
    basis,
    evaluate,
    fit,
    graded_part,
    monomial_weight,
)
from soclecalc.qseries import QSeries, eisenstein, q_d_q


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
    assert basis(0) == [(0, 0, 0)]
    assert basis(2) == [(0, 0, 0), (1, 0, 0)]
    assert basis(4) == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]
    b6 = basis(6)
    assert b6[:4] == basis(4)
    assert b6[4:] == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]


def test_basis_dimension_matches_partition_counts():
    for w in range(0, 31, 2):
        expected = sum(_partition_count_246(v) for v in range(0, w + 1, 2))
        assert len(basis(w)) == expected


def test_basis_is_graded():
    weights = [monomial_weight(m) for m in basis(12)]
    assert weights == sorted(weights)


def test_evaluate_monomials():
    assert evaluate(QuasimodularPoly({(1, 0, 0): 1}), 2) == eisenstein(2, 2)
    assert evaluate(QuasimodularPoly(), 3) == QSeries.zero(3)
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
    assert evaluate(total, order) == evaluate(p, order) + evaluate(q, order)
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


def test_fit_stable_under_higher_order():
    target = q_d_q(eisenstein(2, 30))
    assert fit(target, 4) == fit(QSeries(target.coeffs[:15]), 4)


def test_fit_underdetermined_is_an_error():
    with pytest.raises(ValueError):
        fit(eisenstein(2, 8), 8)  # 11 monomials, 9 rows: no surplus


def test_fit_free_constant_mode():
    # drop the constant: fitting the tail of 3*G4 with a free constant
    # recovers the G4 coefficient and no pure-constant term
    s = eisenstein(4, 12).scale(3)
    tail = QSeries(s.coeffs, constant_known=False)
    p = fit(tail, 4)
    assert p == QuasimodularPoly({(0, 1, 0): 3})
    # the implied regularized constant is the evaluated q^0 value
    assert evaluate(p, 0).coeffs[0] == Fraction(3, 240)


def test_fit_reads_constant_off_the_series():
    # the unknown-constant fit is the known-constant fit without its
    # constant monomial, and that constant is s[0] minus the q^0 value
    # of the other terms
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
            free = fit(QSeries(s.coeffs, constant_known=False), weight)
            rest = {m: c for m, c in known.terms.items() if m != (0, 0, 0)}
            assert free == QuasimodularPoly(rest)
            constant = known.terms.get((0, 0, 0), Fraction(0))
            assert constant == s[0] - evaluate(free, 0)[0]


def test_graded_part():
    p = QuasimodularPoly({(2, 0, 0): -2, (0, 1, 0): Fraction(5, 6)})
    assert graded_part(p, 4) == p
    assert graded_part(p, 0) == QuasimodularPoly()
    one_plus_g2 = QuasimodularPoly({(0, 0, 0): 1, (1, 0, 0): 1})
    assert graded_part(one_plus_g2, 0) == QuasimodularPoly({(0, 0, 0): 1})
    assert graded_part(QuasimodularPoly({(1, 0, 0): 1}), 4) == QuasimodularPoly()


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
# Reference recognition: Fraction column products and Gauss-Jordan
# elimination over the rationals, kept here as the oracle of fit.


def _ref_monomial_series(mono, order):
    out = QSeries.constant(1, order)
    for k, e in zip((2, 4, 6), mono):
        for _ in range(e):
            out = out * eisenstein(k, order)
    return out


def _ref_solve(matrix, rhs):
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pr is None:
            raise ValueError("dependent monomial columns; increase the order")
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
    x = [Fraction(0)] * ncols
    for rr, cc in pivots:
        x[cc] = aug[rr][ncols]
    consistent = all(aug[i][ncols] == 0 for i in range(r, nrows))
    return x, consistent


def _ref_fit(s, max_weight, free_constant, columns):
    # with a known constant the reference keeps the q^0 row and the
    # constant monomial in the system, which fit leaves out and reads
    # off afterwards; agreement checks that the constant absorbs q^0
    monos = basis(max_weight)
    if free_constant:
        monos = [m for m in monos if m != (0, 0, 0)]
    powers = list(range(1 if free_constant else 0, s.order + 1))
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
    seen = {"consistent": 0, "inconsistent": 0, "free": 0, "fixed": 0}
    weights = set()
    for trial in range(200):
        weight = rng.choice((4, 6, 8, 10, 12))
        free = trial % 2 == 1
        monos = [m for m in basis(weight) if not (free and m == (0, 0, 0))]
        order = len(monos) + (0 if free else -1) + 5 + rng.randint(0, 2)
        if order not in columns:
            columns[order] = {m: _ref_monomial_series(m, order) for m in basis(12)}
        terms = {
            m: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            for m in rng.sample(monos, k=rng.randint(1, len(monos)))
        }
        coeffs = [Fraction(0)] * (order + 1)
        for m, c in terms.items():
            for n, x in enumerate(columns[order][m].coeffs):
                coeffs[n] += c * x
        if trial % 4 >= 2:  # perturb one coefficient the fit reads
            n = rng.randint(1 if free else 0, order)
            bump = Fraction(rng.randint(1, 5), rng.randint(1, 7))
            coeffs[n] += bump if rng.random() < 0.5 else -bump
        s = QSeries(tuple(coeffs), constant_known=not free)
        got = fit(s, weight)
        assert got == _ref_fit(s, weight, free, columns[order]), (trial, weight, free)
        seen["inconsistent" if isinstance(got, FitInconsistency) else "consistent"] += 1
        seen["free" if free else "fixed"] += 1
        weights.add(weight)
    assert weights == {4, 6, 8, 10, 12}
    assert min(seen.values()) >= 50, seen


def test_fit_and_top_weight_run_no_series_products(monkeypatch):
    from soclecalc import modfit
    from soclecalc.elliptic import top_weight_check

    def forbidden(self, other):
        raise AssertionError("QSeries product on the recognition path")

    monkeypatch.setattr(QSeries, "__mul__", forbidden)
    monkeypatch.setattr(QSeries, "__rmul__", forbidden)
    modfit._column.cache_clear()
    modfit._generator.cache_clear()
    assert fit(q_d_q(eisenstein(2, 14)), 4) == QuasimodularPoly(
        {(2, 0, 0): -2, (0, 1, 0): Fraction(5, 6)}
    )
    assert top_weight_check(5, 1, 4, 58).ok
