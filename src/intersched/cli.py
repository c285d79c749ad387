"""Command-line harness: every experiment behind one executable.

Subcommands: `baseline` (grid reservation model), `prodline` (slot
scheduler), `flow` (demand patterns and the arranged queue), `knn` (turn
classifier store tools), and `reproduce` (the full sweep). Every run is a
pure function of its seed; bare invocations use DEFAULT_SEED so they are
reproducible too. INTERSCHED_OUT_DIR overrides the default output directory.

Every file, whether a subcommand or `reproduce` asks for it, is written by
`report.emit_text`. Each output format has one text: every CSV table is
`report.table_text`, whose cells are `report.format_cell`'s text, and every
JSON output is `report.json_text`.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from .baseline import GridConfig, run_baseline
from .core import LaneId, SeededRng
from .flows import LANE_CAPACITY, MAX_HORIZON, PatternKind, arranged_wait, generate_arrivals, waiting_pct
from .prodline import (
    RUN_SECONDS,
    IntersectionConfig,
    LaneConfig,
    ScheduleRecord,
    build_demand,
    run_prodline,
)
from .report import (
    Model,
    RunReport,
    emit_csv,
    emit_json,
    emit_schedule_csv,
    emit_text,
    json_text,
    mean_in_order,
    report_to_dict,
    summarize,
    table_text,
)
from .turns import InstanceStore, TurnPredictor, knn_predict, load_store, seed_instances

DEFAULT_SEED = 42
OUT_DIR_ENV = "INTERSCHED_OUT_DIR"

_EPILOG = """\
model constants:
  26.2467   container/cell length in feet
  60        containers per lane, and seconds per window
  60-65     admission speed band in mph, averaged to 62.5
  91.66667  62.5 mph in feet per second (5-decimal form the timings use)
  5.58      grid-model conflict penalty in seconds
  5.5880    arranged-queue cost per displaced slot in seconds
"""

BASELINE_COLUMNS = ("n_vehicles", "collisions_per_vehicle", "avg_waiting_s")
BASELINE_SWEEP_NS = (50, 100, 150, 200, 250, 300)
BASELINE_SWEEP_RUNS = 100
# the arranged-queue experiment: random-pattern slots drawn, and vehicles
# measured from the front of the queue
QUEUE_SLOTS = 720
QUEUE_TAKE = 60


def _default_out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def _section_values(parser: configparser.ConfigParser, name: str, cls: type, skip: str) -> dict:
    """The keys of section `name` as keyword arguments for the dataclass
    `cls`: each field other than `skip`, parsed by its default's type. A
    value that does not parse is reported with its section and key."""
    if not parser.has_section(name):
        return {}
    section = parser[name]
    defaults = {f.name: f.default for f in fields(cls) if f.name != skip}
    unknown = set(section) - set(defaults)
    if unknown:
        raise ValueError(f"[{name}] has unknown keys: {sorted(unknown)}")
    values = {}
    for key, default in defaults.items():
        if key not in section:
            continue
        try:
            values[key] = section.getint(key) if isinstance(default, int) else section.getfloat(key)
        except ValueError as exc:
            raise ValueError(f"[{name}] {key}: {exc}") from None
    return values


def load_config(path: Path | str | None) -> IntersectionConfig:
    """Build an IntersectionConfig from an INI file. `[intersection]` takes
    `run_seconds`, and `[lane.A1]`..`[lane.B2]` take LaneConfig's fields;
    every key is optional and defaults to the standard four-lane setup."""
    if path is None:
        return IntersectionConfig.default()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(os.fspath(path), encoding="utf-8")
    except configparser.Error as exc:
        # configparser's messages span lines; an error is reported on one
        raise ValueError(" ".join(str(exc).split())) from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    # a misspelled section would otherwise leave its lane at the defaults
    sections = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    unknown = set(sections) - {"intersection", *(f"lane.{lane_id.value}" for lane_id in LaneId)}
    if unknown:
        raise ValueError(f"unknown sections {sorted(unknown)}; expected [intersection] and [lane.A1]..[lane.B2]")
    top = _section_values(parser, "intersection", IntersectionConfig, "lanes")
    lanes = tuple(
        LaneConfig(lane_id, **_section_values(parser, f"lane.{lane_id.value}", LaneConfig, "id"))
        for lane_id in LaneId
    )
    return IntersectionConfig(lanes=lanes, **top)


def _cmd_baseline(args: argparse.Namespace) -> int:
    report = run_baseline(GridConfig(), args.vehicles, args.runs, SeededRng(args.seed))
    text = table_text(BASELINE_COLUMNS, [report])
    if args.out:
        print(emit_text(text, args.out))
    else:
        sys.stdout.write(text)
    return 0


def _prodline_artifacts(kind: PatternKind, seed: int, cfg: IntersectionConfig, rng: SeededRng):
    """One full scheduler run for a pattern: records, summary, predictor."""
    demand = build_demand(cfg, kind, rng)
    schedule = {lane_id: d.scheduled for lane_id, d in demand.items()}
    predictor = TurnPredictor()
    records, _ = run_prodline(cfg, schedule, predictor, rng, pattern=kind)

    for d in demand.values():
        for v in d.overflow:
            records.append(
                ScheduleRecord(
                    vehicle_id=v.id, lane=v.lane, arrive_s=v.arrival_s, right_turn=None,
                    assigned_speed=None, exit_s=None, admitted=False,
                )
            )
    # extra lane space: the realized requests against the open seconds
    total_requests = sum(d.requests for d in demand.values())
    total_slots = sum(len(cfg.open_seconds(lane)) for lane in cfg.lanes)
    report = summarize(records, pattern=kind, seed=seed, extra_space_pct=waiting_pct(total_requests, total_slots))
    return records, report, predictor


def _write_prodline(out_dir: Path, kind: PatternKind, records: list[ScheduleRecord], report: RunReport) -> list[Path]:
    """One scheduler run's vehicle table and summary JSON."""
    return [
        emit_schedule_csv(records, out_dir / f"prodline_{kind.value}_vehicles.csv"),
        emit_json(report_to_dict(report), out_dir / f"prodline_{kind.value}_summary.json"),
    ]


def _cmd_prodline(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    kind = PatternKind(args.pattern)
    out_dir = Path(args.out_dir) if args.out_dir else _default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)

    records, report, _ = _prodline_artifacts(kind, args.seed, cfg, SeededRng(args.seed))
    for path in _write_prodline(out_dir, kind, records, report):
        print(path)
    return 0


def _flow_payload(kind: PatternKind, seed: int, arrivals: list[int], take: int) -> dict:
    """The flow JSON for one draw: its arrivals, the arranged-queue waits of
    the first `take` of them (clamped to the draw), and the extra space."""
    if kind is PatternKind.WORST:
        # duplicate arrival slots: the arranged-queue model does not apply
        waits, avg = None, None
    elif not arrivals:
        # a random draw with no arrival: the queue is empty and has no mean
        waits, avg = [], None
    else:
        waits = arranged_wait(arrivals, min(take, len(arrivals)))
        avg = mean_in_order(waits)
    return {
        "pattern": kind.value,
        "seed": seed,
        "arrivals": arrivals,
        "per_vehicle_wait_s": waits,
        "avg_wait_s": avg,
        "extra_space_pct": waiting_pct(len(arrivals), LANE_CAPACITY),
    }


def _cmd_flow(args: argparse.Namespace) -> int:
    kind = PatternKind(args.pattern)
    if args.slots <= 0:
        raise ValueError(f"--slots must be > 0, got {args.slots}")
    if args.slots > MAX_HORIZON:
        raise ValueError(f"--slots must be <= {MAX_HORIZON}, got {args.slots}")
    if not 0 < args.take <= args.slots:
        raise ValueError(f"--take must be in 1..{args.slots}, got {args.take}")
    # --slots is the random pattern's horizon; average and worst fill one window
    horizon = args.slots if kind is PatternKind.RANDOM else RUN_SECONDS
    arrivals = generate_arrivals(kind, horizon, SeededRng(args.seed))
    payload = _flow_payload(kind, args.seed, arrivals, args.take)
    if args.out:
        emit_json(payload, args.out)
        print(args.out)
    else:
        sys.stdout.write(json_text(payload))
    return 0


def _store_paths(store_dir: Path) -> tuple[Path, Path]:
    return store_dir / "features.txt", store_dir / "labels.txt"


def _cmd_knn(args: argparse.Namespace) -> int:
    store_dir = Path(args.store)
    features_path, labels_path = _store_paths(store_dir)
    if args.knn_action == "init":
        store_dir.mkdir(parents=True, exist_ok=True)
        store = InstanceStore(seed_instances())
        store.save(features_path, labels_path)
        print(features_path)
        print(labels_path)
        return 0
    store = load_store(features_path, labels_path)
    label = knn_predict((args.day, args.hour, args.event), store, args.k, SeededRng(args.seed))
    print(label.value)
    return 0


def _grid_lines(store: InstanceStore, skip: int) -> list[str]:
    """Lay the labels appended after `skip` out as rows of ten symbols."""
    symbols = [inst.label.value for inst in store.instances[skip:]]
    return [" ".join(symbols[i : i + 10]) for i in range(0, len(symbols), 10)]


def reproduce_all(seed: int, out_dir: Path) -> list[Path]:
    """Every experiment, one output tree; byte-identical for a given seed.
    A file that a subcommand also writes comes from that subcommand's writer.
    `out_dir` is made after the grid sweep, so a failed sweep leaves none."""
    master = SeededRng(seed)
    written: list[Path] = []

    sweep = [run_baseline(GridConfig(), n, BASELINE_SWEEP_RUNS, master.spawn(i)) for i, n in enumerate(BASELINE_SWEEP_NS)]
    out_dir.mkdir(parents=True, exist_ok=True)
    written.append(emit_text(table_text(BASELINE_COLUMNS, sweep), out_dir / "baseline_sweep.csv"))
    # the grid model admits every car and measures no extra space
    reports = [
        RunReport(
            model=Model.BASELINE, pattern=None, n_vehicles=r.n_vehicles, admitted=r.n_vehicles, rejected=0,
            avg_waiting_s=r.avg_waiting_s, collisions_per_vehicle=r.collisions_per_vehicle,
            extra_space_pct=0.0, seed=seed,
        )
        for r in sweep
    ]

    cfg = IntersectionConfig.default()
    grids: dict[str, list[str]] = {}
    for j, kind in enumerate(PatternKind):
        records, report, predictor = _prodline_artifacts(kind, seed, cfg, master.spawn(10 + j))
        written += _write_prodline(out_dir, kind, records, report)
        reports.append(report)
        if kind is PatternKind.AVERAGE:
            seeded = len(seed_instances())
            grids["a"] = _grid_lines(predictor.stores["A"], seeded)
            grids["b"] = _grid_lines(predictor.stores["B"], seeded)

    for group, lines in grids.items():
        written.append(emit_text("\n".join(lines) + "\n", out_dir / f"turn_grid_{group}.txt"))

    arrivals = generate_arrivals(PatternKind.RANDOM, QUEUE_SLOTS, master.spawn(20))
    payload = _flow_payload(PatternKind.RANDOM, seed, arrivals, QUEUE_TAKE)
    written.append(emit_json(payload, out_dir / "flow_random_queue.json"))

    written.append(emit_csv(reports, out_dir / "comparison.csv"))
    return written


def _cmd_reproduce(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir) if args.out_dir else _default_out_dir() / "reproduction"
    for path in reproduce_all(args.seed, out_dir):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intersched",
        description="Deterministic intersection-scheduling experiments.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log each admission")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("baseline", help="grid reservation model: collisions and waiting")
    p.add_argument("--vehicles", type=int, required=True, help="fleet size (even)")
    p.add_argument("--runs", type=int, default=100, help="seeded runs to average over")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=Path, default=None, help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("prodline", help="slot scheduler: one 60 s window")
    p.add_argument("--pattern", choices=[k.value for k in PatternKind], default=PatternKind.AVERAGE.value)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--config", type=Path, default=None, help="INI config (sections [intersection], [lane.A1]..)")
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(func=_cmd_prodline)

    p = sub.add_parser("flow", help="demand patterns and the arranged queue")
    p.add_argument("--pattern", choices=[k.value for k in PatternKind], required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--slots", type=int, default=QUEUE_SLOTS, help="random-pattern horizon in slots")
    p.add_argument("--take", type=int, default=QUEUE_TAKE, help="vehicles measured from the front of the queue")
    p.add_argument("--out", type=Path, default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("knn", help="right-turn classifier store tools")
    knn_sub = p.add_subparsers(dest="knn_action", required=True)
    q = knn_sub.add_parser("init", help="write the bootstrap store")
    q.add_argument("--store", type=Path, required=True, help="store directory (features.txt + labels.txt)")
    q.set_defaults(func=_cmd_knn)
    q = knn_sub.add_parser("predict", help="predict one (day, hour, event) query")
    q.add_argument("--day", type=int, required=True)
    q.add_argument("--hour", type=int, required=True)
    q.add_argument("--event", type=int, required=True)
    q.add_argument("--store", type=Path, required=True, help="store directory (features.txt + labels.txt)")
    q.add_argument("--k", type=int, default=3)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.set_defaults(func=_cmd_knn)

    p = sub.add_parser("reproduce", help="run every experiment into one output tree")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING, format="%(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
