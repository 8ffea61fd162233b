"""Workload inputs, runners and output checkers for the cold-process benchmark.

Inputs are made from the benchmark's seed only; the package sees the
generated inputs.  Each checker is a pure function of plain values (no
package objects), so that selftest.py can hand it perturbed outputs and
see the failure count rise.  A wrong result or an exception is one failed
operation; nothing here aborts a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

# ------------------------------------------------------------- verify-all

# The largest flags at which cli.run_suites clamps nothing: topweight is
# capped at g <= 3 and propagator at q/w order 8.  The work done therefore
# equals the request and stays the same once the clamps are fixed.
VERIFY_PARAMS = {"g_max": 3, "m_max": 4, "q_order": 8, "w_order": 8, "samples": 20}


def verify_argv(seed: int) -> list[str]:
    p = VERIFY_PARAMS
    return [
        "verify", "all", "--format", "json",
        "--g-max", str(p["g_max"]), "--m-max", str(p["m_max"]),
        "--q-order", str(p["q_order"]), "--w-order", str(p["w_order"]),
        "--samples", str(p["samples"]), "--seed", str(seed),
    ]


def verify_expected_counts() -> dict[str, int]:
    """Checks per check name that `verify all` must run for the requested
    flags, derived from the suite definitions rather than observed."""
    p = VERIFY_PARAMS
    g_max, m_max = p["g_max"], p["m_max"]
    # positive d with sum(d) = g-1+n split into n parts: C(g+n-2, n-1)
    positive_lists = lambda g, n: comb(g + n - 2, n - 1)  # noqa: E731
    return {
        "dr.oracle": g_max * 11 * 11,  # a1, a2 in -5..5
        "dr.bssz": g_max * 4 * 4,  # a1, a2 in 1..4
        "dr.standard_unit": 13,  # g in 0..12
        "socle.string_consistency": sum(
            positive_lists(g, n) for g in range(1, g_max + 1) for n in range(1, 6)
        ),
        "socle.relation_integral": sum(
            positive_lists(g, m)
            for g in range(1, g_max + 1)
            for m in range(1, m_max + 1)
        ),
        "socle.wheel_collapse": p["samples"],
        "elliptic.propagator_identity": 1,
        "elliptic.propagator_must_fail_with_divisor_power_k": 1,
        "elliptic.top_weight": g_max * m_max * (m_max + 1) // 2,
    }


def check_verify_all(argv, outputs) -> int:
    """Failed checks in one `verify all --format json` run: every check
    that did not pass, every check missing from or added to the expected
    count of its name, and a nonzero exit code when nothing else failed."""
    exit_code, text = outputs
    expected = verify_expected_counts()
    attempted = sum(expected.values())
    try:
        checks = json.loads(text)["checks"]
        statuses = [(c["id"].split("[", 1)[0], c["status"]) for c in checks]
    except (ValueError, KeyError, TypeError, AttributeError):
        return attempted
    seen = Counter(name for name, _ in statuses)
    failed = sum(status != "pass" for _, status in statuses)
    failed += sum(abs(seen[n] - expected.get(n, 0)) for n in seen | Counter(expected))
    if exit_code != 0 and failed == 0:
        failed = 1
    return min(failed, attempted)


def solve_verify_all(argv, between=lambda: None):
    """(exit code, stdout) of the CLI; an exception stands in for the code.
    One CLI call: there is no point between operations to call `between`."""
    from soclecalc import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed result
        code = f"raised {type(exc).__name__}"
    return code, buf.getvalue()


# ------------------------------------------------------------ socle-sweep

SWEEP_G_MAX = SWEEP_N_MAX = 6
SWEEP_QUERIES = 288
SWEEP_GROUP = 32  # queries between two reference timings
# (g, d) -> (faber, necklace)
SWEEP_SPOT_VALUES = {
    (1, (0,)): (Fraction(1, 24), Fraction(1, 24)),
    (2, (1,)): (Fraction(1, 2880), Fraction(1, 2880)),
    (1, (2, 0, 0)): (Fraction(1, 36), Fraction(1, 24)),
}


def sweep_expected_queries() -> set:
    """Every dimension-valid (g, d) with d non-increasing, enumerated here
    independently of soclecalc.iter_socle_queries."""

    def nonincreasing(total, parts, cap):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(min(total, cap), -1, -1):
            for rest in nonincreasing(total - first, parts - 1, first):
                yield (first,) + rest

    return {
        (g, d)
        for g in range(1, SWEEP_G_MAX + 1)
        for n in range(1, SWEEP_N_MAX + 1)
        for d in nonincreasing(g - 2 + n, n, g - 2 + n)
    }


def sweep_queries(seed: int):
    from soclecalc import iter_socle_queries

    queries = list(iter_socle_queries(SWEEP_G_MAX, SWEEP_N_MAX))
    random.Random(seed).shuffle(queries)
    return queries


def solve_socle_sweep(queries, between=lambda: None):
    """(g, d, faber, necklace, agree) per query; None values where it
    raised.  Calls `between` after every SWEEP_GROUP queries."""
    from soclecalc import socle_compute

    rows = []
    for i, q in enumerate(queries):
        if i and i % SWEEP_GROUP == 0:
            between()
        try:
            r = socle_compute(q, "both")
            rows.append((q.g, q.d, r.faber_value, r.necklace_value, r.agree))
        except Exception:  # a crash is a failed query
            rows.append((q.g, q.d, None, None, None))
    return rows


def check_socle_sweep(queries, rows) -> int:
    """Failed queries in one sweep.  A query fails when it raised, when
    agree does not hold exactly for d with at most one zero, or when a spot
    value is wrong; a query missing from, added to or repeated in the
    expected set counts as one failure each."""
    expected = sweep_expected_queries()
    failed = 0
    seen = set()
    for g, d, fv, nv, agree in rows:
        seen.add((g, tuple(d)))
        if fv is None or nv is None or agree is None:
            failed += 1
        elif agree != (fv == nv) or agree != (list(d).count(0) <= 1):
            failed += 1
        elif SWEEP_SPOT_VALUES.get((g, tuple(d)), (fv, nv)) != (fv, nv):
            failed += 1
    failed += len(expected - seen) + len(seen - expected) + len(rows) - len(seen)
    return min(failed, SWEEP_QUERIES)


# ---------------------------------------------------------- topweight-fit

TOPWEIGHT_PAIRS = ((4, 4), (4, 5), (5, 4), (5, 5))


def monomials_up_to(weight: int) -> int:
    """Number of G2^a G4^b G6^c with 2a + 4b + 6c <= weight."""
    return sum(
        (weight - 6 * c - 4 * b) // 2 + 1
        for c in range(weight // 6 + 1)
        for b in range((weight - 6 * c) // 4 + 1)
    )


def topweight_inputs(seed: int) -> list[tuple[int, int, int, int]]:
    """(g, j_plus, j_minus, q_order) per (g, m) pair.  The seed picks one
    pair to run in free-constant mode (j_minus = 0) and a j_plus < m for
    the others, so every seed covers both fit modes."""
    rng = random.Random(seed)
    free = rng.randrange(len(TOPWEIGHT_PAIRS))
    out = []
    for i, (g, m) in enumerate(TOPWEIGHT_PAIRS):
        j_plus = m if i == free else rng.randint(1, m - 1)
        out.append((g, j_plus, m - j_plus, monomials_up_to(2 * g - 2 + 2 * m) + 5))
    return out


def solve_topweight_fit(inputs, between=lambda: None):
    """(check, params, status) per fit; None where it raised.  Calls
    `between` between fits."""
    from soclecalc import top_weight_check

    rows = []
    for i, args in enumerate(inputs):
        if i:
            between()
        try:
            r = top_weight_check(*args)
            rows.append((r.check, dict(r.params), r.status))
        except Exception:  # a crash is a failed fit
            rows.append(None)
    return rows


def check_topweight_fit(inputs, rows) -> int:
    """Failed fits: a fit fails unless it passed and reports the
    parameters it was given; a missing or extra fit is one failure."""
    failed = abs(len(inputs) - len(rows))
    for (g, jp, jm, order), row in zip(inputs, rows):
        want = {"g": g, "j_plus": jp, "j_minus": jm, "q_order": order}
        if row != ("elliptic.top_weight", want, "pass"):
            failed += 1
    return min(failed, len(inputs))


@dataclass(frozen=True)
class Workload:
    inputs: Callable  # seed -> inputs, made before timing starts
    solve: Callable  # inputs -> outputs, the timed part
    check: Callable  # (inputs, outputs) -> number of failed operations
    attempted: int  # operations per solve
    ops: str  # what the operations are


WORKLOADS = {
    "verify-all": Workload(verify_argv, solve_verify_all, check_verify_all,
                           sum(verify_expected_counts().values()), "checks"),
    "socle-sweep": Workload(sweep_queries, solve_socle_sweep, check_socle_sweep,
                            SWEEP_QUERIES, "queries"),
    "topweight-fit": Workload(topweight_inputs, solve_topweight_fit, check_topweight_fit,
                              len(TOPWEIGHT_PAIRS), "fits"),
}


def reference_s() -> float:
    """Time of a fixed stdlib computation in the style of the workloads
    (rational and big-integer arithmetic), about 50 ms on a quiet machine.
    It runs no package code; timed next to the operations, it tracks how
    fast this machine runs at that moment (see README.md, solve_rel)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 17000):
        acc += Fraction(i % 89 + 1, i % 97 + 1)
    x = 3
    for i in range(700):
        x = (x * 7919 + i) % (1 << 4000) + (1 << 3000)
    return time.perf_counter() - t0


def run(name: str, seed: int) -> dict:
    """One timed, checked solve.  The reference computation is timed
    before, between and after the operations, and that time is left out
    of solve_s.  The output digest lets the caller check that the same
    seed gives the same outputs in every process."""
    w = WORKLOADS[name]
    inputs = w.inputs(seed)
    refs = [reference_s()]

    def between():
        refs.append(reference_s())

    t0 = time.perf_counter()
    outputs = w.solve(inputs, between)
    solve_s = time.perf_counter() - t0 - sum(refs[1:])
    refs.append(reference_s())
    return {
        "solve_s": solve_s,
        "ref_s": statistics.mean(refs),
        "ref_n": len(refs),
        "attempted": w.attempted,
        "failed": w.check(inputs, outputs),
        "output_sha256": hashlib.sha256(repr(outputs).encode()).hexdigest(),
    }


def workload_params(name: str, seed: int) -> dict:
    """The parameters a result file records for one workload and seed."""
    if name == "verify-all":
        return {"argv": verify_argv(seed), "expected_counts": verify_expected_counts()}
    if name == "socle-sweep":
        return {"g_max": SWEEP_G_MAX, "n_max": SWEEP_N_MAX, "queries": SWEEP_QUERIES,
                "method": "both", "order": f"shuffled by seed {seed}"}
    return {"fits": [list(x) for x in topweight_inputs(seed)]}
