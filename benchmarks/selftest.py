"""Self-tests of the benchmark's checkers and tracing.

    python3 benchmarks/selftest.py

The outputs of the current package must check with zero failures, and
each perturbed output handed to a checker (never to the package) must
raise the failure count.  Takes about fifteen seconds: it solves every
workload once and runs one traced child.
"""

import copy
import json
import os
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7


def solved(name):
    w = wl.WORKLOADS[name]
    inputs = w.inputs(SEED)
    return w, inputs, w.solve(inputs)


class VerifyAllChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w, cls.argv, (cls.code, cls.text) = solved("verify-all")
        cls.report = json.loads(cls.text)

    def failed(self, code=0, report=None):
        text = json.dumps(self.report if report is None else report, indent=2)
        return self.w.check(self.argv, (code, text))

    def test_current_outputs_pass(self):
        self.assertEqual(self.code, 0)
        self.assertEqual(self.w.attempted, 565)
        self.assertEqual(self.w.check(self.argv, (self.code, self.text)), 0)

    def test_failed_check(self):
        report = copy.deepcopy(self.report)
        report["checks"][3]["status"] = "fail"
        self.assertEqual(self.failed(report=report), 1)

    def test_missing_and_extra_checks(self):
        report = copy.deepcopy(self.report)
        extra = report["checks"].pop(0)
        self.assertEqual(self.failed(report=report), 1)
        report["checks"] += [extra, extra]
        self.assertEqual(self.failed(report=report), 1)

    def test_silently_clamped_suite(self):
        # the topweight suite stopping at g <= 2 instead of the g <= 3 asked for
        report = copy.deepcopy(self.report)
        report["checks"] = [c for c in report["checks"]
                            if not c["id"].startswith("elliptic.top_weight[g=3")]
        self.assertEqual(self.failed(report=report), 10)

    def test_vacuous_run(self):
        report = dict(self.report, checks=[])
        self.assertEqual(self.failed(report=report), 565)

    def test_exit_code_and_unreadable_output(self):
        self.assertEqual(self.failed(code=2), 1)
        self.assertEqual(self.w.check(self.argv, ("raised ValueError", "")), 565)


class SocleSweepChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w, cls.queries, cls.rows = solved("socle-sweep")

    def failed(self, rows):
        return self.w.check(self.queries, rows)

    def index(self, g, d):
        return next(i for i, r in enumerate(self.rows) if (r[0], r[1]) == (g, d))

    def test_current_outputs_pass(self):
        self.assertEqual(len(self.rows), 288)
        self.assertEqual(sum(r[4] for r in self.rows), 133)
        self.assertEqual(self.failed(self.rows), 0)

    def test_flipped_agreement(self):
        rows = list(self.rows)
        g, d, fv, nv, agree = rows[0]
        rows[0] = (g, d, fv, nv, not agree)
        self.assertEqual(self.failed(rows), 1)

    def test_wrong_spot_value(self):
        rows = list(self.rows)
        i = self.index(2, (1,))
        rows[i] = (2, (1,), Fraction(1, 2881), Fraction(1, 2881), True)
        self.assertEqual(self.failed(rows), 1)
        # faber taking the string-consistent value where it must not
        i = self.index(1, (2, 0, 0))
        rows[i] = (1, (2, 0, 0), Fraction(1, 24), Fraction(1, 24), True)
        self.assertEqual(self.failed(rows), 2)

    def test_raised_missing_and_repeated_queries(self):
        g, d = self.rows[5][:2]
        self.assertEqual(self.failed(self.rows[:5] + [(g, d, None, None, None)] + self.rows[6:]), 1)
        self.assertEqual(self.failed(self.rows[1:]), 1)
        self.assertEqual(self.failed(self.rows + self.rows[:1]), 1)


class TopweightChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.w, cls.inputs, cls.rows = solved("topweight-fit")

    def test_inputs_cover_both_fit_modes(self):
        for seed in range(50):
            j_minus = [jm for _, _, jm, _ in wl.topweight_inputs(seed)]
            self.assertEqual(j_minus.count(0), 1)

    def test_current_outputs_pass(self):
        self.assertEqual(self.w.check(self.inputs, self.rows), 0)

    def test_perturbed_outputs_fail(self):
        check, params, _ = self.rows[1]
        self.assertEqual(self.w.check(self.inputs, [*self.rows[:1], (check, params, "fail"),
                                                    *self.rows[2:]]), 1)
        self.assertEqual(self.w.check(self.inputs, [None, *self.rows[1:]]), 1)
        self.assertEqual(self.w.check(self.inputs, self.rows[:3]), 1)
        wrong = dict(params, q_order=params["q_order"] - 1)
        self.assertEqual(self.w.check(self.inputs, [*self.rows[:1], (check, wrong, "pass"),
                                                    *self.rows[2:]]), 1)


class Tracing(unittest.TestCase):
    def test_traced_child_reports_every_layer_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with tempfile.TemporaryDirectory() as tmp:
            spans_file = os.path.join(tmp, "spans")
            sample = run.run_child("verify-all", SEED, True, spans_file)
            names, cols = tracing.load_spans(spans_file)
        layers = sample["layers"]
        wanted = {m["name"] for m in spec["per_layer"]} - {"trace.solve_s", "trace.overhead_s"}
        self.assertEqual(set(layers), wanted)
        self.assertEqual(sample["failed"], 0)
        self.assertEqual(layers["trace.spans"], len(cols["start"]))
        self.assertEqual(layers["modfit.fit_calls"], 30)
        self.assertEqual(layers["modfit.fit_rows"] - layers["modfit.fit_cols"],
                         layers["modfit.fit_surplus"])
        # an operation id per check result (565 reported, and the
        # divisor-power-k propagator result the suite inspects), then one
        # for the rendering
        self.assertEqual(max(cols["op"]), 566)
        # spans nest: a parent starts before and ends after its children
        for i in range(0, len(cols["start"]), 97):
            p = cols["parent"][i]
            if p >= 0:
                self.assertLessEqual(cols["start"][p], cols["start"][i])
                self.assertGreaterEqual(cols["end"][p], cols["end"][i])
        self.assertIn("cli.suite_topweight", names)


if __name__ == "__main__":
    unittest.main()
