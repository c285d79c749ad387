"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The traced-run tests start one short worker per workload (about 20 s in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced(request) -> dict:
    """A short trace-mode worker run on the default seed."""
    return run.run_worker(request.param, SPEC["default_seed"], 1.0, "trace", time.monotonic() + 170)


def test_traced_run_matches_untraced_and_pinned_digest(traced):
    workload = traced["workload"]
    assert traced["failures"] == []
    assert traced["traced_digest"] == traced["digest"]
    assert traced["digest"] == SPEC["workloads"][workload]["digest"]


def test_every_predicted_span_records_calls(traced):
    workload = traced["workload"]
    predicted = [span for span, active_on in SPEC["spans"].items() if workload in active_on]
    assert predicted
    silent = [span for span in predicted if traced["calls"].get(span, 0) < 1]
    assert silent == []


def test_traced_run_reports_every_per_layer_metric(traced):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == tracer.METRIC_UNITS
    assert set(traced["layer_metrics"]) == set(declared)


def test_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.E2E_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(SPEC["layer_metrics"]) == set(tracer.METRIC_UNITS)


def test_renamed_target_fails_loudly_and_restores(monkeypatch):
    from intersched import baseline, turns

    original = turns.knn_predict
    monkeypatch.delattr(baseline, "conflict_matrix")
    with pytest.raises(AttributeError):
        tracer.Tracer(batch=1).install()
    assert turns.knn_predict is original


def test_install_and_uninstall_round_trip():
    from intersched import cli, core

    before = (cli.reproduce_all, core.SeededRng.rand_int)
    t = tracer.Tracer(batch=1)
    t.install()
    try:
        assert cli.reproduce_all is not before[0]
        core.SeededRng(1).rand_int(0, 9)
        assert t.counts["core.rng_draws"] == 1
    finally:
        t.uninstall()
    assert (cli.reproduce_all, core.SeededRng.rand_int) == before


def test_self_time_subtracts_children():
    t = tracer.Tracer(batch=1)
    t.spans = [
        ["cli.reproduce_all", 0.0, 10.0, -1, 0],
        ["baseline.run_baseline", 1.0, 5.0, 0, 0],
        ["baseline.conflict_matrix", 2.0, 3.0, 1, 0],
    ]
    m = t.metrics(iterations=1, untraced_p50_s=1.0, traced_p50_s=1.5)
    assert m["cli.reproduce_all.self_s"] == 6.0
    assert m["baseline.run_baseline.self_s"] == 3.0
    assert m["baseline.conflict_matrix.self_s"] == 1.0
    assert m["trace.overhead_s"] == 0.5


@pytest.mark.parametrize(
    "n, value, percentile, beyond",
    [(5, 2.0, 50.0, 2), (20, 9.5, 50.0, 10), (21, 10.0, 50.0, 10), (101, 90.0, 90.0, 10)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, value, percentile, beyond):
    assert run.tail([float(i) for i in range(n)]) == (value, percentile, beyond)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
