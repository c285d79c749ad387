"""intersched benchmark: closed-loop workloads over the grid baseline, the
slot scheduler and the reproduce pipeline.

    python3 perfbench/run.py [--workload grid_dense|slot_stream|reproduce|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh single-threaded child processes (worker.py), one
at a time, so set-up time and peak memory are its own. With --trace 0 the
child runs the loop untraced; `setup_s` is the median over that child and two
set-up-only children. With --trace 1 one child runs the loop untraced and
then traced, and the per-layer metrics come from the traced half.

Every metric is printed by name with its unit and time base (host or
simulated). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; `failed / attempted` is the
error rate. The exit code is non-zero, with no JSON line, when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRIC_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("grid_dense", "slot_stream", "reproduce")
SETUP_PROBES = 2
TAIL_BEYOND = 10
BUDGET_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "iter_p50_s": "s",
    "iter_tail_s": "s",
    "sim_vehicles_per_s": "vehicles/s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # glibc otherwise hands the grid model's multi-megabyte temporaries back to
    # the kernel after every call and faults them in again on the next; under
    # virtualisation that fault cost swings by +-12% from minute to minute.
    env["MALLOC_MMAP_THRESHOLD_"] = env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} {mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile that
    has at least TAIL_BEYOND samples beyond it, never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        value, percentile = statistics.median(ordered), 50.0
    else:
        rank = n - 1 - TAIL_BEYOND
        value, percentile = ordered[rank], 100.0 * rank / (n - 1)
    return value, percentile, sum(1 for s in ordered if s > value)


def measure(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> tuple[dict, list[str]]:
    """Metrics ({name: {"value", "unit"}}) and human-readable lines for one workload."""
    lines = [f"workload {workload}  seed {seed}  {seconds:g} s closed loop, 1 client  trace {int(traced)}"]
    if traced:
        child = run_worker(workload, seed, seconds, "trace", deadline)
        values, units = child["layer_metrics"], METRIC_UNITS
        for name, value in values.items():
            base = "simulated" if name.startswith("sim_") else "host"
            lines.append(f"  {name:34s} {value!r:>24} {units[name]:10s} {base}")
    else:
        setups = [run_worker(workload, seed, seconds, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        child = run_worker(workload, seed, seconds, "run", deadline)
        setups.append(child["setup_s"])
        samples = child["samples"]
        tail_s, percentile, beyond = tail(samples)
        values, units = {
            "setup_s": statistics.median(setups),
            "iter_p50_s": statistics.median(samples),
            "iter_tail_s": tail_s,
            "sim_vehicles_per_s": child["vehicles"] / sum(samples),
            "peak_rss_mb": child["rss_mb"],
        }, E2E_UNITS
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes",
            "iter_p50_s": f"{len(samples)} iterations",
            "iter_tail_s": f"p{percentile:.2f}, {beyond} of {len(samples)} samples beyond",
            "sim_vehicles_per_s": f"{child['vehicles']} simulated vehicles",
            "peak_rss_mb": "workload process",
        }
        for name, value in values.items():
            lines.append(f"  {name:34s} {value!r:>24} {units[name]:10s} host       {notes[name]}")
        for name, value in child["sim"].items():
            lines.append(f"  {name:34s} {value!r:>24} {METRIC_UNITS[name]:10s} simulated  first pass over the inputs")
    failed = len(child["failures"])
    lines.append(f"  {'error_rate':34s} {failed / child['attempted']!r:>24} {'ratio':10s} -          "
                 f"{failed} of {child['attempted']} checks failed")
    lines += [f"  FAILED: {message}" for message in child["failures"]]
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return {"attempted": child["attempted"], "failed": failed, "metrics": metrics}, lines


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "intersched" / "__init__.py").is_file():
        print(f"error: no intersched package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + BUDGET_S
            results[name], lines = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
            print("\n".join(lines), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
