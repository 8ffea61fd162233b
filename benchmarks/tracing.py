"""Per-layer tracing for a child process of the benchmark.

install() wraps the public functions of each soclecalc layer in every
module namespace that imported them (calls inside a module go through its
globals, so a wrapper in only one namespace would miss them), plus
QSeries.__mul__ on the class.  Each wrapped call records a span (name,
start, end, parent span, operation id) in memory; Tracer.metrics() turns
the spans, the counters and the package's cache_info() into the per-layer
metrics, and Tracer.dump() writes the spans once the work is done.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

from workloads import monomials_up_to

# layer -> public functions that get a span named "<layer>.<function>"
TRACED = {
    "exact": ("bernoulli", "factorial", "binomial", "double_factorial_odd"),
    "drcycle": ("dr3_closed", "dr3_recursive", "dr2", "dr3_bssz_check", "dr_standard"),
    "modfit": ("fit", "evaluate"),
    "elliptic": ("top_weight_check", "necklace_coefficient_series", "check_propagator_identity"),
    "socle": ("socle_compute", "faber", "socle_necklace", "necklace_lhs", "string_apply"),
    "cli": ("main", "suite_dr", "suite_string", "suite_relation", "suite_propagator",
            "suite_topweight", "render_report"),
    "report": ("jsonable",),
}
CACHES = {
    "eisenstein": "soclecalc.qseries",
    "dr_standard": "soclecalc.drcycle",
    "factorial": "soclecalc.exact",
    "binomial": "soclecalc.exact",
    "double_factorial_odd": "soclecalc.exact",
}
SUITES = ("dr", "string", "relation", "propagator", "topweight")


def _replace_everywhere(original, wrapper) -> None:
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "soclecalc":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = 0
        self.counts = {"wheels": 0, "wheels_useful": 0, "coeff_ops": 0,
                       "fit_rows": 0, "fit_cols": 0}
        self.wheel_target: tuple | None = None
        self.caches: dict = {}

    # ---------------------------------------------------------- recording

    def span(self, name: str, fn, before=None):
        kind = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = len(self.start)
            self.kind.append(kind)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced name that the package still defines."""
        for name, modname in CACHES.items():
            fn = getattr(sys.modules.get(modname), name, None)
            if hasattr(fn, "cache_info"):
                self.caches[name] = fn
        for layer, names in TRACED.items():
            mod = sys.modules.get(f"soclecalc.{layer}")
            for name in names:
                original = getattr(mod, name, None)
                if original is None:
                    continue
                before = getattr(self, f"_before_{name}", None)
                _replace_everywhere(original, self.span(f"{layer}.{name}", original, before))
        self._install_mul()
        self._install_wheels()
        self._install_op_boundaries()

    def _before_necklace_lhs(self, g, d):
        self.wheel_target = tuple(int(x) - 1 for x in d)

    def _before_fit(self, s, max_weight, free_constant=False, **_):
        # free-constant mode drops the q^0 row and the constant monomial
        drop = 1 if free_constant else 0
        self.counts["fit_rows"] += s.order + 1 - drop
        self.counts["fit_cols"] += monomials_up_to(max_weight) - drop

    def _install_mul(self) -> None:
        qseries = sys.modules.get("soclecalc.qseries")
        cls = getattr(qseries, "QSeries", None)
        if cls is None:
            return
        plain = cls.__mul__
        counts = self.counts

        def count_ops(a, b):
            n = min(a.order, b.order)
            counts["coeff_ops"] += (n + 1) * (n + 2) // 2

        traced = self.span("qseries.mul", plain, count_ops)

        def mul(a, b):
            # only series-by-series products; scalar products are scale()
            return traced(a, b) if isinstance(b, cls) else plain(a, b)

        cls.__mul__ = mul

    def _install_wheels(self) -> None:
        socle = sys.modules.get("soclecalc.socle")
        original = getattr(socle, "iter_wheels", None)
        if original is None:
            return
        counts = self.counts

        def iter_wheels(*args, **kwargs):
            target = self.wheel_target
            for wheel in original(*args, **kwargs):
                counts["wheels"] += 1
                if wheel.genera == target:
                    counts["wheels_useful"] += 1
                yield wheel

        _replace_everywhere(original, iter_wheels)

    def _install_op_boundaries(self) -> None:
        """Advance the operation id whenever one operation ends: a check
        (every check returns through report.passed or report.failed) or a
        socle query (socle_compute), so each span carries the operation
        it belongs to."""
        for modname, name in (("soclecalc.report", "passed"),
                              ("soclecalc.report", "failed"),
                              ("soclecalc.socle", "socle_compute")):
            current = getattr(sys.modules.get(modname), name, None)
            if current is None:
                continue

            def make(fn=current):
                def ends_operation(*args, **kwargs):
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        self.op_id += 1
                return ends_operation

            _replace_everywhere(current, make())

    # ----------------------------------------------------------- analysis

    def _aggregate(self):
        """Per span name: calls, self time, and outermost inclusive time
        (the duration of spans not nested in a span of the same name)."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        ancestors = [0] * n  # bit mask of span kinds on the path to the root
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
                ancestors[i] = ancestors[p] | (1 << self.kind[p])
        agg = {name: [0, 0.0, 0.0] for name in self.names}
        for i, k in enumerate(self.kind):
            a = agg[self.names[k]]
            a[0] += 1
            a[1] += dur[i] - child[i]
            if not ancestors[i] >> k & 1:
                a[2] += dur[i]
        return agg, ancestors, dur

    def metrics(self) -> dict[str, float]:
        agg, ancestors, dur = self._aggregate()
        get = lambda name, field: agg.get(name, (0, 0.0, 0.0))[field]  # noqa: E731
        calls = lambda name: get(name, 0)  # noqa: E731
        self_s = lambda name: get(name, 1)  # noqa: E731
        outer = lambda name: get(name, 2)  # noqa: E731

        # necklace path: socle_necklace and the necklace_lhs calls outside it
        necklace = {self.names.index(x) for x in ("socle.socle_necklace", "socle.necklace_lhs")
                    if x in self.names}
        mask = sum(1 << k for k in necklace)
        necklace_s = sum(d for d, k, a in zip(dur, self.kind, ancestors)
                         if k in necklace and not a & mask)

        def layer(prefix, field):
            return sum(v[field] for name, v in agg.items() if name.startswith(prefix + "."))

        def hit_ratio(*caches):
            infos = [self.caches[x].cache_info() for x in caches if x in self.caches]
            return _ratio(sum(i.hits for i in infos), sum(i.hits + i.misses for i in infos))

        c = self.counts
        return {
            "socle.necklace_s": necklace_s,
            "socle.necklace_lhs_calls": calls("socle.necklace_lhs"),
            "socle.wheels_enumerated": c["wheels"],
            "socle.wheel_yield": _ratio(c["wheels_useful"], c["wheels"]),
            "socle.string_apply_calls": calls("socle.string_apply"),
            "socle.faber_s": outer("socle.faber"),
            "qseries.mul_calls": calls("qseries.mul"),
            "qseries.mul_self_s": self_s("qseries.mul"),
            "qseries.mul_coeff_ops": c["coeff_ops"],
            "qseries.eisenstein_hit_ratio": hit_ratio("eisenstein"),
            "modfit.fit_calls": calls("modfit.fit"),
            "modfit.fit_self_s": self_s("modfit.fit"),
            "modfit.fit_rows": c["fit_rows"],
            "modfit.fit_cols": c["fit_cols"],
            "modfit.fit_surplus": c["fit_rows"] - c["fit_cols"],
            "modfit.evaluate_s": outer("modfit.evaluate"),
            "elliptic.top_weight_self_s": self_s("elliptic.top_weight_check"),
            "elliptic.necklace_series_s": outer("elliptic.necklace_coefficient_series"),
            "elliptic.propagator_s": outer("elliptic.check_propagator_identity"),
            "drcycle.calls": layer("drcycle", 0),
            "drcycle.self_s": layer("drcycle", 1),
            "drcycle.dr_standard_hit_ratio": hit_ratio("dr_standard"),
            "exact.calls": layer("exact", 0),
            "exact.self_s": layer("exact", 1),
            "exact.cache_hit_ratio": hit_ratio("factorial", "binomial", "double_factorial_odd"),
            **{f"cli.suite_{s}_s": outer(f"cli.suite_{s}") for s in SUITES},
            "cli.render_s": outer("cli.render_report"),
            "report.jsonable_s": outer("report.jsonable"),
            "trace.spans": len(self.start),
        }

    # -------------------------------------------------------------- output

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the columns as raw
        arrays in the header's order (see load_spans)."""
        columns = [("kind", self.kind), ("parent", self.parent), ("op", self.op),
                   ("start", self.start), ("end", self.end)]
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(f)


def load_spans(path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by Tracer.dump: (span names, column arrays)."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        cols = {}
        for name, typecode, _ in header["columns"]:
            col = array(typecode)
            col.fromfile(f, header["spans"])
            cols[name] = col
    return header["names"], cols
