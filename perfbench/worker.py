"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode setup|run|trace

`setup` imports the program, builds the inputs from the seed and makes one
warm-up call, then reports the time that took. `run` does the same and then
runs the closed loop untraced for S seconds. `trace` runs the loop untraced
for S/2 seconds and then traced for S/2 seconds. Every loop covers each input
of the workload's cycle at least once. The result is one JSON line on stdout;
run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def closed_loop(wl, seconds: float, checks, tracer=None) -> dict:
    """Call the program back to back until `seconds` have passed and every
    input was used once; the first pass over the inputs is the reference the
    later passes must reproduce."""
    samples: list[float] = []
    reference: list[str] = []
    sims: list[dict] = []
    vehicles = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < wl.batch or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.iteration = i
        start = time.perf_counter()
        out = wl.run(i)
        samples.append(time.perf_counter() - start)
        seen = wl.inspect(out, checks)
        vehicles += seen.vehicles
        if i < wl.batch:
            reference.append(seen.digest)
            sims.append(seen.sim)
        else:
            checks.expect(seen.digest == reference[i % wl.batch], f"{wl.name}: iteration {i} output differs from the first pass")
        i += 1
    return {
        "samples": samples,
        "vehicles": vehicles,
        "digest": hashlib.sha256("".join(reference).encode()).hexdigest(),
        "sim": {key: statistics.fmean(s[key] for s in sims) for key in sims[0]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "intersched" / "__init__.py").is_file():
        print(f"error: no intersched package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        start = time.perf_counter()
        import intersched

        if not Path(intersched.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: imported intersched from {intersched.__file__}, not {src}", file=sys.stderr)
            return 2
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        checks = workloads.Checks()
        wl.inspect(wl.run(0), checks)
        setup_s = time.perf_counter() - start
        result = {"workload": args.workload, "seed": args.seed, "mode": args.mode, "setup_s": setup_s}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
        wl.precheck(checks)
        loop_s = args.seconds if args.mode == "run" else args.seconds / 2
        untraced = closed_loop(wl, loop_s, checks)
        result.update(untraced)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.seed == spec["default_seed"]:
            pinned = spec["workloads"][args.workload]["digest"]
            checks.expect(untraced["digest"] == pinned, f"{args.workload}: digest {untraced['digest']} != pinned {pinned}")

        if args.mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer(wl.batch)
            tracer.install()
            try:
                traced = closed_loop(wl, loop_s, checks, tracer)
            finally:
                tracer.uninstall()
            tracer.write(HERE / "out" / f"spans-{args.workload}.jsonl")
            result["traced_digest"] = traced["digest"]
            checks.expect(traced["digest"] == untraced["digest"], f"{args.workload}: traced digest differs from untraced")
            calls = tracer.span_calls() + tracer.counts
            for target, active_on in spec["spans"].items():
                if args.workload in active_on:
                    checks.expect(calls[target] >= 1, f"{args.workload}: {target} recorded no call")
            metrics = tracer.metrics(
                len(traced["samples"]),
                statistics.median(untraced["samples"]),
                statistics.median(traced["samples"]),
            )
            metrics.update(untraced["sim"])
            result["layer_metrics"] = metrics
            result["calls"] = dict(calls)

        result["attempted"] = checks.attempted
        result["failures"] = checks.failures
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
