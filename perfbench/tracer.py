"""Span tracer for the traced benchmark run.

It replaces public functions of the program with wrappers at the module
attribute where callers look them up (`intersched.cli.run_baseline` for the
reproduce pipeline, `intersched.baseline.conflict_matrix` for the grid run,
and so on), so the program itself is unchanged. A target that no longer
exists raises at install time: a rename fails loudly instead of reading 0.

Spans (name, start, end, parent, iteration) stay in memory and are written
as JSON lines when the run ends. Counters record work done at the same
boundaries; they are kept for the first `batch` iterations only, so a count
covers exactly one pass over the workload's inputs and repeats exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name, observer); one span name may cover several
# lookup sites of the same function.
SPAN_TARGETS = (
    ("intersched.cli", "reproduce_all", "cli.reproduce_all", None),
    ("intersched.cli", "run_baseline", "baseline.run_baseline", None),
    ("intersched.baseline", "run_baseline", "baseline.run_baseline", None),
    ("intersched.baseline", "place_vehicles", "baseline.place_vehicles", None),
    ("intersched.baseline", "conflict_matrix", "baseline.conflict_matrix", "_on_conflicts"),
    ("intersched.cli", "build_demand", "prodline.build_demand", None),
    ("intersched.prodline", "build_demand", "prodline.build_demand", None),
    ("intersched.cli", "run_prodline", "prodline.run_prodline", None),
    ("intersched.prodline", "run_prodline", "prodline.run_prodline", None),
    ("intersched.prodline", "verify_no_collisions", "prodline.verify_no_collisions", None),
    ("intersched.turns", "knn_predict", "turns.knn_predict", "_on_knn"),
    ("intersched.turns", "InstanceStore.append", "turns.store_append", "_on_append"),
    ("intersched.cli", "generate_arrivals", "flows.generate_arrivals", None),
    ("intersched.prodline", "generate_arrivals", "flows.generate_arrivals", None),
    ("intersched.cli", "arranged_wait", "flows.arranged_wait", None),
    ("intersched.cli", "summarize", "report.summarize", None),
    ("intersched.prodline", "summarize", "report.summarize", None),
    ("intersched.cli", "emit_csv", "report.emit", "_on_emit"),
    ("intersched.cli", "emit_json", "report.emit", "_on_emit"),
    ("intersched.cli", "emit_schedule_csv", "report.emit", "_on_emit"),
)

# Calls too frequent or too short for a span: counted only.
COUNT_TARGETS = (
    ("intersched.prodline", "admit", "prodline.admit.calls", "_on_admit"),
    ("intersched.core", "SeededRng.rand_int", "core.rng_draws", None),
    ("intersched.core", "SeededRng.random", "core.rng_draws", None),
    ("intersched.core", "SeededRng.shuffle", "core.rng_draws", None),
    ("intersched.core", "SeededRng.choice", "core.rng_draws", None),
)

SELF_TIME_SPANS = (
    "baseline.conflict_matrix",
    "baseline.run_baseline",
    "baseline.place_vehicles",
    "turns.knn_predict",
    "turns.store_append",
    "prodline.verify_no_collisions",
    "prodline.run_prodline",
    "prodline.build_demand",
    "flows.generate_arrivals",
    "flows.arranged_wait",
    "report.summarize",
    "report.emit",
    "cli.reproduce_all",
)
CALL_COUNT_SPANS = ("baseline.place_vehicles", "turns.knn_predict")
COUNTS = (
    "prodline.admit.calls",
    "baseline.pairs_checked",
    "turns.distances_computed",
    "report.bytes_written",
    "core.rng_draws",
)

SIM_METRICS = {
    "sim_collisions_per_vehicle": "1/vehicle",
    "sim_avg_waiting_s": "sim_s",
    "sim_admitted_ratio": "ratio",
}

# Every per-layer metric the traced run reports, with its unit.
METRIC_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIME_SPANS},
    **{f"{name}.calls": "count" for name in CALL_COUNT_SPANS},
    **{name: "count" for name in COUNTS},
    "turns.knn_predict.p50_us": "us",
    "turns.store_size_final": "count",
    "baseline.conflict_ratio": "ratio",
    "prodline.admitted_ratio": "ratio",
    "trace.overhead_s": "s",
    **SIM_METRICS,
}


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Spans and counters for one traced run; `install` patches, `uninstall` restores."""

    def __init__(self, batch: int) -> None:
        self.batch = batch
        self.iteration = 0
        self.spans: list[list] = []  # [name, start, end, parent index or -1, iteration]
        self.counts: Counter[str] = Counter()
        self.store_size: dict[int, int] = {}  # iteration -> largest store seen
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def counting(self) -> bool:
        return self.iteration < self.batch

    def install(self) -> None:
        try:
            for module, attribute, name, observer in SPAN_TARGETS:
                self._patch(module, attribute, self._spanned(name, observer))
            for module, attribute, name, observer in COUNT_TARGETS:
                self._patch(module, attribute, self._counted(name, observer))
        except (ImportError, AttributeError):
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, module: str, attribute: str, wrap) -> None:
        owner, name, original = _resolve(module, attribute)
        setattr(owner, name, wrap(original))
        self._patched.append((owner, name, original))

    def _spanned(self, name: str, observer: str | None):
        """Decorator recording one span per call, then the observer's counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = getattr(self, observer) if observer else None

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(spans)
                record = [name, clock(), 0.0, stack[-1] if stack else -1, self.iteration]
                spans.append(record)
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if observe is not None and self.counting:
                    observe(args, result)
                return result

            return wrapper

        return wrap

    def _counted(self, name: str, observer: str | None):
        """Decorator counting calls, then the observer's counts."""
        observe = getattr(self, observer) if observer else None

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.counting:
                    self.counts[name] += 1
                    if observe is not None:
                        observe(args, result)
                return result

            return wrapper

        return wrap

    def _on_conflicts(self, args, mask) -> None:
        self.counts["baseline.pairs_checked"] += int(mask.size)
        self.counts["baseline.conflicts"] += int(mask.sum())

    def _on_knn(self, args, label) -> None:
        self.counts["turns.distances_computed"] += len(args[1])

    def _on_append(self, args, result) -> None:
        store = args[0]
        self.store_size[self.iteration] = max(self.store_size.get(self.iteration, 0), len(store))

    def _on_emit(self, args, path) -> None:
        self.counts["report.bytes_written"] += Path(path).stat().st_size

    def _on_admit(self, args, decision) -> None:
        self.counts["prodline.admitted"] += int(decision.admitted)

    def span_calls(self) -> Counter[str]:
        """Calls per span name over every traced iteration."""
        return Counter(span[0] for span in self.spans)

    def metrics(self, iterations: int, untraced_p50_s: float, traced_p50_s: float) -> dict[str, float]:
        """Per-layer figures: self time per iteration over all traced
        iterations, counts per iteration over the first `batch` of them."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_total: Counter[str] = Counter()
        first_pass_calls: Counter[str] = Counter()
        knn_us = []
        for (name, start, end, _, iteration), child_s in zip(self.spans, covered):
            self_total[name] += (end - start) - child_s
            if iteration < self.batch:
                first_pass_calls[name] += 1
            if name == "turns.knn_predict":
                knn_us.append((end - start) * 1e6)

        counts = self.counts
        out = {f"{name}.self_s": self_total[name] / iterations for name in SELF_TIME_SPANS}
        out.update({f"{name}.calls": first_pass_calls[name] / self.batch for name in CALL_COUNT_SPANS})
        out.update({name: counts[name] / self.batch for name in COUNTS})
        out["turns.knn_predict.p50_us"] = statistics.median(knn_us) if knn_us else 0.0
        out["turns.store_size_final"] = sum(self.store_size.values()) / self.batch
        pairs = counts["baseline.pairs_checked"]
        out["baseline.conflict_ratio"] = counts["baseline.conflicts"] / pairs if pairs else 0.0
        admits = counts["prodline.admit.calls"]
        out["prodline.admitted_ratio"] = counts["prodline.admitted"] / admits if admits else 0.0
        out["trace.overhead_s"] = traced_p50_s - untraced_p50_s
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, iteration in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "iteration": iteration}))
                fh.write("\n")
