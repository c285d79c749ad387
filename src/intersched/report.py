"""Run summaries, deterministic CSV/JSON text, and the one file writer.

Outputs carry no timestamps; the seed is the provenance key, so identical
inputs always serialize to identical bytes. Floats are written in shortest
round-trip decimal form. Every file the program writes goes through
`emit_text`: UTF-8, line ends as given, in one write.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import _require
from .flows import PatternKind

if TYPE_CHECKING:
    from .prodline import ScheduleRecord


class Model(Enum):
    BASELINE = "baseline"
    PRODLINE = "prodline"


@dataclass(frozen=True)
class RunReport:
    model: Model
    pattern: PatternKind | None
    n_vehicles: int
    admitted: int
    rejected: int
    avg_waiting_s: float
    collisions_per_vehicle: float
    extra_space_pct: float
    seed: int

    def __post_init__(self) -> None:
        _require(self.n_vehicles >= 0 and self.admitted >= 0 and self.rejected >= 0, "counts must be >= 0")
        _require(self.avg_waiting_s >= 0.0, f"avg_waiting_s must be >= 0, got {self.avg_waiting_s}")
        if self.model is Model.PRODLINE:
            _require(
                self.admitted + self.rejected == self.n_vehicles,
                f"admitted {self.admitted} + rejected {self.rejected} != {self.n_vehicles}",
            )
            _require(
                self.collisions_per_vehicle == 0.0,
                f"slot-scheduled runs cannot report collisions, got {self.collisions_per_vehicle}",
            )


def summarize(
    records: "Iterable[ScheduleRecord]",
    *,
    pattern: PatternKind,
    seed: int,
    extra_space_pct: float = 0.0,
) -> RunReport:
    """Fold one slot-scheduled run's per-vehicle records into a RunReport.

    Waiting is averaged over every recorded vehicle.
    """
    records = list(records)
    admitted = sum(1 for r in records if r.admitted)
    n = len(records)
    return RunReport(
        model=Model.PRODLINE,
        pattern=pattern,
        n_vehicles=n,
        admitted=admitted,
        rejected=n - admitted,
        avg_waiting_s=mean_in_order([r.waiting_s for r in records]) if n else 0.0,
        collisions_per_vehicle=0.0,
        extra_space_pct=extra_space_pct,
        seed=seed,
    )


def mean_in_order(values: Sequence[float]) -> float:
    """The mean of a non-empty sequence, added left to right: float `sum()` is
    compensated from Python 3.12 on, so it would differ by interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def emit_text(text: str, path: Path) -> Path:
    """Write `text` as UTF-8 to `path` in one write, replacing the file or
    creating it. Returns `path`."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        if os.write(fd, data) != len(data):
            raise OSError(f"{path}: short write")
    finally:
        os.close(fd)
    return path


def format_cell(value) -> str:
    """The text of one output cell: floats in shortest round-trip form, enums
    by value, booleans as Yes/No and a missing value as the empty string."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "Yes" if value else "No"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    return str(value)


def table_text(columns: Sequence[str], rows: Iterable) -> str:
    """A CSV table: the header, then each row's columns as cell text; lines end in CRLF."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows([format_cell(getattr(row, col)) for col in columns] for row in rows)
    return buf.getvalue()


REPORT_COLUMNS = tuple(f.name for f in fields(RunReport))


def emit_csv(reports: Iterable[RunReport], path: Path | str) -> Path:
    """One row per report, sorted by model, fleet size and pattern; stable
    column order, deterministic bytes."""
    rows = sorted(reports, key=lambda r: (r.model.value, r.n_vehicles, r.pattern.value if r.pattern else ""))
    return emit_text(table_text(REPORT_COLUMNS, rows), Path(path))


SCHEDULE_COLUMNS = ("vehicle_id", "lane", "arrive_s", "right_turn", "exit_s")


def emit_schedule_csv(records: "Iterable[ScheduleRecord]", path: Path | str) -> Path:
    """Per-vehicle table: id, lane, arrival, right-turn flag, exit time."""
    return emit_text(table_text(SCHEDULE_COLUMNS, records), Path(path))


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready mapping with keys in the fixed column order."""
    return {col: value.value if isinstance(value, Enum) else value for col, value in asdict(report).items()}


def json_text(payload: dict) -> str:
    """The text of a JSON output, whether it goes to a file or stdout."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def emit_json(payload: dict, path: Path | str) -> Path:
    return emit_text(json_text(payload), Path(path))
