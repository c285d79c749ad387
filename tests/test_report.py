"""Run summaries and the deterministic CSV/JSON emitters."""

import csv
import json
import math
import os

import pytest

from intersched.core import LaneId
from intersched.flows import PatternKind
from intersched.prodline import ScheduleRecord
from intersched.report import (
    REPORT_COLUMNS,
    SCHEDULE_COLUMNS,
    Model,
    RunReport,
    emit_csv,
    emit_json,
    emit_schedule_csv,
    emit_text,
    report_to_dict,
    summarize,
    table_text,
)


def _rec(vid, admitted=True, waiting=0.0, lane=LaneId.A1, arrive=0.0):
    if admitted:
        return ScheduleRecord(
            vehicle_id=vid, lane=lane, arrive_s=arrive, right_turn=False,
            assigned_speed=62.5, exit_s=arrive + 17.18, admitted=True, waiting_s=waiting,
        )
    return ScheduleRecord(
        vehicle_id=vid, lane=lane, arrive_s=arrive, right_turn=None,
        assigned_speed=None, exit_s=None, admitted=False, waiting_s=waiting,
    )


def _baseline_report(n=50, waiting=70.0, collisions=0.9):
    """A comparison row as `reproduce` writes it for one grid-model fleet size."""
    return RunReport(
        model=Model.BASELINE, pattern=None, n_vehicles=n, admitted=n, rejected=0,
        avg_waiting_s=waiting, collisions_per_vehicle=collisions, extra_space_pct=0.0, seed=0,
    )


class TestSummarize:
    def test_counts_and_waiting(self):
        records = [_rec(1, waiting=2.0), _rec(2, admitted=False, waiting=4.0), _rec(3)]
        report = summarize(records, pattern=PatternKind.WORST, seed=9, extra_space_pct=100.0)
        assert report.model is Model.PRODLINE
        assert (report.n_vehicles, report.admitted, report.rejected) == (3, 2, 1)
        assert report.avg_waiting_s == pytest.approx(2.0)
        assert report.collisions_per_vehicle == 0.0
        assert report.extra_space_pct == 100.0
        assert report.seed == 9

    def test_empty_input_zeroes(self):
        report = summarize([], pattern=PatternKind.RANDOM, seed=0)
        assert report.n_vehicles == 0
        assert report.avg_waiting_s == 0.0
        assert report.extra_space_pct == 0.0

    def test_mean_adds_left_to_right(self):
        # a compensated sum (math.fsum, and float sum() from Python 3.12 on)
        # gives 0.1 here, so the mean would differ by interpreter
        records = [_rec(i, waiting=0.1) for i in range(10)]
        assert math.fsum(r.waiting_s for r in records) / 10 == 0.1
        report = summarize(records, pattern=PatternKind.RANDOM, seed=0)
        assert report.avg_waiting_s == 0.09999999999999999


class TestRunReportInvariants:
    def test_prodline_counts_must_add_up(self):
        with pytest.raises(ValueError):
            RunReport(
                model=Model.PRODLINE, pattern=None, n_vehicles=3, admitted=1,
                rejected=1, avg_waiting_s=0.0, collisions_per_vehicle=0.0,
                extra_space_pct=0.0, seed=0,
            )

    def test_prodline_cannot_report_collisions(self):
        with pytest.raises(ValueError):
            RunReport(
                model=Model.PRODLINE, pattern=None, n_vehicles=1, admitted=1,
                rejected=0, avg_waiting_s=0.0, collisions_per_vehicle=0.5,
                extra_space_pct=0.0, seed=0,
            )

    def test_negative_waiting_rejected(self):
        with pytest.raises(ValueError):
            RunReport(
                model=Model.BASELINE, pattern=None, n_vehicles=1, admitted=1,
                rejected=0, avg_waiting_s=-1.0, collisions_per_vehicle=0.0,
                extra_space_pct=0.0, seed=0,
            )


class TestEmitText:
    def test_writes_utf8_with_line_ends_as_given(self, tmp_path):
        path = tmp_path / "out.txt"
        assert emit_text("a\r\nb\n\u00e9", path) is path
        assert path.read_bytes() == b"a\r\nb\n\xc3\xa9"

    def test_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        emit_text("old text\n", path)
        emit_text("new\n", path)
        assert path.read_bytes() == b"new\n"

    def test_short_write_names_the_path(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:-1]))
        path = tmp_path / "out.txt"
        with pytest.raises(OSError, match="out.txt: short write"):
            emit_text("abc", path)
        monkeypatch.undo()
        assert path.read_bytes() == b"ab"

    def test_table_text_is_cell_text_with_crlf_line_ends(self):
        text = table_text(("vehicle_id", "right_turn", "exit_s"), [_rec(1), _rec(2, admitted=False)])
        assert text == "vehicle_id,right_turn,exit_s\r\n1,No,17.18\r\n2,,\r\n"


class TestEmitters:
    def test_csv_rows_sorted_by_model_then_size(self, tmp_path):
        rows = [
            summarize([_rec(1)], pattern=PatternKind.WORST, seed=0),
            summarize([_rec(1)], pattern=PatternKind.AVERAGE, seed=0),
            _baseline_report(n=200),
            _baseline_report(n=50),
        ]
        out = emit_csv(rows, tmp_path / "comparison.csv")
        with open(out, newline="", encoding="utf-8") as fh:
            got = [(r["model"], r["n_vehicles"], r["pattern"]) for r in csv.DictReader(fh)]
        assert got == [
            ("baseline", "50", ""), ("baseline", "200", ""), ("prodline", "1", "average"), ("prodline", "1", "worst"),
        ]

    def test_csv_layout_and_precision(self, tmp_path):
        report = _baseline_report(waiting=70.47260999999996)
        out = tmp_path / "comparison.csv"
        emit_csv([report], out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        # repr round-trip keeps the float exact
        assert float(rows[0]["avg_waiting_s"]) == 70.47260999999996
        assert rows[0]["model"] == "baseline"
        assert rows[0]["pattern"] == ""

    def test_csv_bytes_stable(self, tmp_path):
        reports = [_baseline_report()]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(reports, a)
        emit_csv(reports, b)
        assert a.read_bytes() == b.read_bytes()

    def test_schedule_csv_columns_and_cells(self, tmp_path):
        out = tmp_path / "vehicles.csv"
        emit_schedule_csv([_rec(126), _rec(300, admitted=False, lane=LaneId.B1)], out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "vehicle_id,lane,arrive_s,right_turn,exit_s"
        assert lines[1] == "126,A1,0.0,No,17.18"
        assert lines[2] == "300,B1,0.0,,"  # rejected: no turn, no exit
        assert len(SCHEDULE_COLUMNS) == 5

    def test_json_shape(self, tmp_path):
        report = summarize([_rec(1)], pattern=PatternKind.AVERAGE, seed=42)
        out = tmp_path / "summary.json"
        emit_json(report_to_dict(report), out)
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        payload = json.loads(text)
        assert list(payload.keys()) == list(REPORT_COLUMNS)
        assert payload["model"] == "prodline"
        assert payload["pattern"] == "average"

    def test_json_bytes_stable(self, tmp_path):
        payload = report_to_dict(summarize([_rec(1)], pattern=PatternKind.AVERAGE, seed=0))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_json(payload, a)
        emit_json(payload, b)
        assert a.read_bytes() == b.read_bytes()
