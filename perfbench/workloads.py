"""The three benchmark workloads over the intersched package.

Each workload turns a seed into a fixed cycle of `batch` inputs. `run(i)` is
the timed call on input `i % batch`; `inspect` does everything else outside
the timed region: it checks the output, digests it and reads the simulated
statistics from it. Calls go through module attributes (`baseline.run_baseline`,
never a name bound at import time) so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
from dataclasses import astuple, dataclass
from pathlib import Path

from intersched import baseline, cli, prodline, turns
from intersched.core import SeededRng
from intersched.flows import PatternKind
from intersched.report import RunReport

# Full capacity: 2 directions x 19 lanes x 38 feeder cells.
GRID_N = 1444
ORACLE_N = 50
SLOT_WINDOW_S = 1800


class Checks:
    """Tally of correctness checks; every failure counts toward error_rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclass(frozen=True)
class Inspection:
    digest: str
    vehicles: int
    sim: dict[str, float]


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class GridDense:
    """Single grid-baseline runs at full capacity, one child stream per input.

    Chosen because the O(n^2) conflict and lane-tail matrices do almost all
    the work while prodline and turns do none.
    """

    name = "grid_dense"
    batch = 64

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.cfg = baseline.GridConfig()
        master = SeededRng(seed)
        self.rngs = [master.spawn(i) for i in range(self.batch)]

    def run(self, i: int) -> baseline.BaselineReport:
        return baseline.run_baseline(self.cfg, GRID_N, 1, self.rngs[i % self.batch])

    def inspect(self, report: baseline.BaselineReport, checks: Checks) -> Inspection:
        return Inspection(
            digest=_sha(repr(astuple(report)).encode()),
            vehicles=report.n_vehicles,
            sim={
                "sim_collisions_per_vehicle": report.collisions_per_vehicle,
                "sim_avg_waiting_s": report.avg_waiting_s,
                # the grid model has no admission control: every car crosses
                "sim_admitted_ratio": 1.0,
            },
        )

    def precheck(self, checks: Checks) -> None:
        """Small-n run against the pure-Python meeting-event oracle."""
        report = baseline.run_baseline(self.cfg, ORACLE_N, 1, SeededRng(self.seed))
        cars = baseline.place_vehicles(self.cfg, ORACLE_N, SeededRng(self.seed).spawn(0))
        events = baseline.meeting_events(cars, self.cfg)
        baseline.apply_conflict_waiting(cars, events)
        conflicts = sum(1 for ev in events if ev.conflict)
        waiting = sum(c.waiting_s for c in cars)
        checks.expect(
            math.isclose(report.collisions_per_vehicle, conflicts / ORACLE_N, rel_tol=1e-12, abs_tol=1e-12),
            f"grid oracle: collisions {report.collisions_per_vehicle!r} != {conflicts / ORACLE_N!r}",
        )
        checks.expect(
            math.isclose(report.avg_waiting_s, (waiting / 2) / ORACLE_N, rel_tol=1e-12),
            f"grid oracle: waiting {report.avg_waiting_s!r} != {(waiting / 2) / ORACLE_N!r}",
        )


@dataclass
class SlotOutput:
    demand: dict
    records: list
    report: RunReport
    collisions: int
    predictor: turns.TurnPredictor


class SlotStream:
    """One long random-pattern scheduler window per iteration.

    Chosen because the shared classifier's stores grow to ~900 instances per
    group, so kNN reads and persisted appends dominate; the random pattern is
    the only one whose arrivals depend on the seed.
    """

    name = "slot_stream"
    batch = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.cfg = prodline.IntersectionConfig(
            lanes=prodline.IntersectionConfig.default().lanes, run_seconds=SLOT_WINDOW_S
        )
        master = SeededRng(seed)
        self.window_seeds = [master.spawn(i).seed for i in range(self.batch)]
        self.store_dir = workdir / "stores"

    def run(self, i: int) -> SlotOutput:
        rng = SeededRng(self.window_seeds[i % self.batch])
        predictor = turns.TurnPredictor()
        # file-backed stores, laid out as `intersched knn init` writes them
        for group, store in predictor.stores.items():
            group_dir = self.store_dir / group
            group_dir.mkdir(parents=True, exist_ok=True)
            store.save(group_dir / "features.txt", group_dir / "labels.txt")
        demand = prodline.build_demand(self.cfg, PatternKind.RANDOM, rng)
        schedule = {lane_id: d.scheduled for lane_id, d in demand.items()}
        records, report = prodline.run_prodline(self.cfg, schedule, predictor, rng, pattern=PatternKind.RANDOM)
        collisions = prodline.verify_no_collisions(records, self.cfg)
        return SlotOutput(demand, records, report, collisions, predictor)

    def inspect(self, out: SlotOutput, checks: Checks) -> Inspection:
        checks.expect(out.collisions == 0, f"slot_stream: verify_no_collisions returned {out.collisions}")
        parts = [repr([astuple(r) for r in out.records]).encode(), repr(out.report).encode()]
        for group, store in sorted(out.predictor.stores.items()):
            reloaded = turns.load_store(store.features_path, store.labels_path)
            checks.expect(
                reloaded.instances == store.instances,
                f"slot_stream: store {group} reloads with {len(reloaded)} instances, memory has {len(store)}",
            )
            parts += [store.features_path.read_bytes(), store.labels_path.read_bytes()]
        overflow = sorted(v.id for d in out.demand.values() for v in d.overflow)
        parts.append(repr(overflow).encode())
        requests = sum(d.requests for d in out.demand.values())
        return Inspection(
            digest=_sha(*parts),
            vehicles=requests,
            sim={
                "sim_collisions_per_vehicle": out.collisions / len(out.records),
                "sim_avg_waiting_s": out.report.avg_waiting_s,
                "sim_admitted_ratio": out.report.admitted / requests,
            },
        )

    def precheck(self, checks: Checks) -> None:
        pass


class Reproduce:
    """`intersched reproduce --all`, the paper user's command.

    Chosen because it is the only workload that runs report and cli, and it
    uses baseline (600 small runs) and turns (three 60 s windows) at scales
    where per-call Python overhead dominates.
    """

    name = "reproduce"
    batch = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.out_dir = workdir / "reproduction"

    def run(self, i: int) -> list[Path]:
        return cli.reproduce_all(self.seed, self.out_dir)

    def inspect(self, written: list[Path], checks: Checks) -> Inspection:
        parts = []
        for path in sorted(written):
            parts += [path.name.encode(), path.read_bytes()]
        with open(self.out_dir / "comparison.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # a fresh tree each iteration, so a file the program failed to write shows
        shutil.rmtree(self.out_dir)
        grid = [r for r in rows if r["model"] == "baseline"]
        slot = [r for r in rows if r["model"] == "prodline"]
        checks.expect(
            len(grid) == len(cli.BASELINE_SWEEP_NS) and len(slot) == len(PatternKind),
            f"reproduce: comparison.csv has {len(grid)} baseline and {len(slot)} prodline rows",
        )
        vehicles = sum(int(r["n_vehicles"]) for r in grid) * cli.BASELINE_SWEEP_RUNS
        vehicles += sum(int(r["n_vehicles"]) for r in slot)
        return Inspection(
            digest=_sha(*parts),
            vehicles=vehicles,
            sim={
                # prodline rows are 0 by construction; the figure is the grid sweep's
                "sim_collisions_per_vehicle": sum(float(r["collisions_per_vehicle"]) for r in grid) / len(grid),
                "sim_avg_waiting_s": sum(float(r["avg_waiting_s"]) for r in rows) / len(rows),
                "sim_admitted_ratio": sum(int(r["admitted"]) for r in slot) / sum(int(r["n_vehicles"]) for r in slot),
            },
        )

    def precheck(self, checks: Checks) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (GridDense, SlotStream, Reproduce)}
