"""Span tracing of l1select from outside the package.

``Tracer.install`` replaces public functions at the module attributes their
callers resolve (``l1select.cli.preprocess``, ``l1select.selectors.compare``,
``l1select.oracle.compare``, ...) with wrappers that record one span per call:
name, start, end, parent span and op id.  Spans stay in memory in flat
integer arrays and are written out once, by ``save``.  ``uninstall`` puts the
original functions back.  Untraced runs never construct a tracer.

A span's self time is its duration minus the durations of its child spans.
Only spans opened inside a timed op (op id >= 0) count toward the per-op
metrics; setup and output checks run with op id -1.

The wrappers also take counts at the same boundaries: ledger charges of each
selection against their closed forms, pair-table use, elimination scan
length, bytes read, and the tracemalloc peak of the first ``preprocess``
call of each op.  tracemalloc runs around that call only: starting it costs
more than a whole ``preprocess`` on a tiny family, so tracing every call
would swamp the per-layer times of workloads built from tiny families.
"""

from __future__ import annotations

import functools
import os
import tracemalloc
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from l1select import PreprocessedFamily, cli, oracle, selectors
from workloads import SELECTOR_FUNCTIONS, closed_form

# Functions wrapped, by the module whose attribute their callers resolve.
PATCH_POINTS = {
    cli: (
        "main",
        "read_family",
        "read_empirical",
        "preprocess",
        *SELECTOR_FUNCTIONS.values(),
        "best_in_family",
        "check_bound",
        "check_elimination_invariant",
        "check_win_equivalence",
        "check_quadruple",
        "yatracos_class",
        "yatracos_restricted",
        "vc_dimension",
        "vc_dimension_by_traces",
        "random_instance",
        "lower_bound_pair",
        "lower_bound_tournament",
        "swap_pair",
        "vc_gap_family",
    ),
    selectors: ("compare", *(f for a, f in SELECTOR_FUNCTIONS.items() if a != "randomized")),
    oracle: ("best_in_family", "preprocess", "compare"),
}

LAYERS = ("cli", "io", "core", "selectors", "oracle", "generators")
ORACLE_CHECKS = (
    "check_bound",
    "check_elimination_invariant",
    "check_win_equivalence",
    "check_quadruple",
    "best_in_family",
    "yatracos_class",
    "yatracos_restricted",
    "vc_dimension",
    "vc_dimension_by_traces",
)
# Spans reported one by one; the layer totals cover every wrapped function.
REPORTED_SPANS = (
    "io.read_family",
    "io.read_empirical",
    "core.preprocess",
    "core.compare",
    *(f"selectors.{a}" for a in SELECTOR_FUNCTIONS),
    *(f"oracle.{c}" for c in ORACLE_CHECKS),
    "generators.random_instance",
)

_ALGORITHM_OF = {function: algorithm for algorithm, function in SELECTOR_FUNCTIONS.items()}


def _span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{_ALGORITHM_OF.get(fn.__name__, fn.__name__)}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.preprocess_peak_bytes = 0
        self._memory_op = -1  # last op whose preprocess memory was measured
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module, attrs in PATCH_POINTS.items():
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module.__name__}.{attr}")
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn):
        name = _span_name(fn)
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        measure_memory = name == "core.preprocess"
        if name.startswith("selectors."):
            count = functools.partial(self._count_selection, name.split(".", 1)[1])
        elif name.startswith("io."):
            count = self._count_read
        else:
            count = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            self.start.append(0)
            self._stack.append(sid)
            measuring = measure_memory and self.op_id >= 0 and self._memory_op != self.op_id
            if measuring:
                self._memory_op = self.op_id
                tracemalloc.start()
            self.start[sid] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter_ns()
                self._stack.pop()
                if measuring:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if self.op_id >= 0:
                if measuring:
                    self.preprocess_peak_bytes = max(self.preprocess_peak_bytes, peak)
                if count is not None:
                    count(args, result)
            return result

        return traced

    # -- counts taken at the boundaries -------------------------------------

    def _count_selection(self, algorithm: str, args, report) -> None:
        target = args[0]
        m = 2 if algorithm == "randomized" else target.size
        key = f"selectors.{algorithm}"
        self.counts[f"{key}.h_products"] += report.h_products
        self.counts[f"{key}.term_evaluations"] += report.term_evaluations
        if (report.h_products, report.term_evaluations) != closed_form(algorithm, m):
            self.counts["selectors.ledger_mismatches"] += 1
        if isinstance(target, PreprocessedFamily):
            self.counts["core.preprocess.pairs_charged"] += report.h_products
            self.counts["core.preprocess.pairs_built"] += m * (m - 1) // 2
        if algorithm == "efficient" and report.trace:
            last = report.trace[-1]
            self.counts["selectors.efficient.compared"] += len(report.trace)
            self.counts["selectors.efficient.scanned"] += (
                target.pair_position[(last.first, last.second)] + 1
            )

    def _count_read(self, args, result) -> None:
        self.counts["io.bytes_read"] += os.path.getsize(args[0])

    # -- results ------------------------------------------------------------

    def _columns(self) -> dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64)
            for key in ("name_id", "parent", "op", "start", "end")
        }

    def per_layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op calls and self time of every reported span and layer, plus
        the boundary counts, over the spans of ``ops`` timed ops."""
        c = self._columns()
        duration = (c["end"] - c["start"]).astype(np.float64)
        child = c["parent"] >= 0
        covered = np.bincount(c["parent"][child], weights=duration[child], minlength=len(duration))
        self_ns = duration - covered
        in_op = c["op"] >= 0
        calls = np.bincount(c["name_id"][in_op], minlength=len(self.names))
        self_total = np.bincount(c["name_id"][in_op], weights=self_ns[in_op], minlength=len(self.names))
        by_name = {name: (int(calls[i]), float(self_total[i])) for i, name in enumerate(self.names)}

        def per_op(x: float) -> float:
            return x / ops

        def ratio(num: str, den: str) -> float:
            return self.counts[num] / self.counts[den] if self.counts[den] else 0.0

        metrics: dict[str, tuple[float, str]] = {
            "cli.main.calls": (per_op(by_name.get("cli.main", (0, 0.0))[0]), "calls/op"),
        }
        for layer in LAYERS:
            ns = sum(t for name, (_, t) in by_name.items() if name.split(".", 1)[0] == layer)
            metrics[f"{layer}.self_ms"] = (per_op(ns) / 1e6, "ms/op")
        for name in REPORTED_SPANS:
            n, ns = by_name.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (per_op(n), "calls/op")
            metrics[f"{name}.self_ms"] = (per_op(ns) / 1e6, "ms/op")
        for algorithm in SELECTOR_FUNCTIONS:
            key = f"selectors.{algorithm}"
            n = by_name.get(key, (0, 0.0))[0]
            for count, unit in (("h_products", "products/call"), ("term_evaluations", "terms/call")):
                metrics[f"{key}.{count}"] = (self.counts[f"{key}.{count}"] / n if n else 0.0, unit)
        metrics["selectors.efficient.scan_ratio"] = (
            ratio("selectors.efficient.compared", "selectors.efficient.scanned"),
            "ratio",
        )
        metrics["selectors.ledger_mismatches"] = (self.counts["selectors.ledger_mismatches"], "count")
        metrics["core.preprocess.peak_bytes"] = (self.preprocess_peak_bytes, "B")
        metrics["core.preprocess.pairs_used_ratio"] = (
            ratio("core.preprocess.pairs_charged", "core.preprocess.pairs_built"),
            "ratio",
        )
        metrics["io.bytes_read"] = (per_op(self.counts["io.bytes_read"]), "B/op")
        return metrics

    def save(self, path) -> None:
        """Write every span: name table plus one row per span."""
        np.savez(path, names=np.array(self.names), **self._columns())
