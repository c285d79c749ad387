"""Command-line surface: parsing, config files, artifacts on disk."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import intersched
from intersched.baseline import CELL_FT, WAIT_PENALTY_S
from intersched.cli import DEFAULT_SEED, build_parser, load_config, main, reproduce_all
from intersched.core import LaneId, SeededRng, mph_to_fps
from intersched.flows import QUEUE_SLOT_S, PatternKind, waiting_pct
from intersched.prodline import (
    NUM_SPOTS,
    RUN_SECONDS,
    SPEED_BAND_MPH,
    SPOT_LENGTH_FT,
    build_demand,
    run_prodline,
    verify_no_collisions,
)
from intersched.turns import TurnPredictor
from test_outputs import PINS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_bad_seed_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["baseline", "--vehicles", "50", "--seed", "notanumber"])
        assert exc.value.code == 2

    def test_unknown_pattern_exits_2(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flow", "--pattern", "rush-hour"])

    def test_default_seed(self):
        args = build_parser().parse_args(["prodline"])
        assert args.seed == DEFAULT_SEED

    @pytest.mark.parametrize(
        "argv",
        [
            ["baseline", "--vehicles", "50", "--compat-int-fps"],
            ["reproduce", "--all"],
            ["knn", "predict", "--day", "1", "--hour", "9", "--event", "0", "--store", "s", "--k", "3"],
            ["knn", "predict", "--day", "1", "--hour", "9", "--event", "0", "--store", "s", "--seed", "1"],
        ],
        ids=["baseline-compat-int-fps", "reproduce-all", "knn-predict-k", "knn-predict-seed"],
    )
    def test_removed_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_help_figures_are_the_constants(self):
        # each figure `intersched --help` prints equals the constant it names
        epilog = build_parser().format_help().split("model constants:\n")[1]
        rows = [line.split(maxsplit=1) for line in epilog.splitlines()]
        (length, _), (count, _), (band, band_text), (fps, _), (penalty, _), (slot, _) = rows
        assert float(length) == SPOT_LENGTH_FT == CELL_FT
        assert int(count) == NUM_SPOTS == RUN_SECONDS
        assert tuple(float(edge) for edge in band.split("-")) == SPEED_BAND_MPH
        average = float(band_text.split()[-1])
        assert average == sum(SPEED_BAND_MPH) / 2 == 62.5
        assert float(fps) == round(mph_to_fps(average), 5)
        assert float(penalty) == WAIT_PENALTY_S
        assert float(slot) == QUEUE_SLOT_S


class TestBaselineCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "baseline", "--vehicles", "50", "--runs", "5", "--seed", "8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n_vehicles,collisions_per_vehicle,avg_waiting_s"
        row = lines[1].split(",")
        assert row[0] == "50"
        assert float(row[1]) > 0.0 and float(row[2]) > 0.0

    def test_odd_vehicle_count_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "baseline", "--vehicles", "51", "--runs", "1")
        assert code == 1
        assert err.startswith("error:")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "baseline.csv"
        code, out, _ = run_cli(
            capsys, "baseline", "--vehicles", "50", "--runs", "2", "--out", str(target)
        )
        assert code == 0
        assert str(target) in out
        # the file holds the bytes the command writes to stdout without --out
        _, stdout_csv, _ = run_cli(capsys, "baseline", "--vehicles", "50", "--runs", "2")
        assert target.read_bytes() == stdout_csv.encode()


class TestProdlineCommand:
    def test_writes_vehicle_table_and_summary(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "prodline", "--pattern", "average", "--seed", "42",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        table = tmp_path / "prodline_average_vehicles.csv"
        summary = tmp_path / "prodline_average_summary.json"
        assert table.exists() and summary.exists()

        with open(table, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        assert float(rows[0]["exit_s"]) == pytest.approx(17.179657557103365, abs=1e-9)

        payload = json.loads(summary.read_text(encoding="utf-8"))
        assert payload["model"] == "prodline"
        assert payload["admitted"] == 120
        assert payload["collisions_per_vehicle"] == 0.0
        assert payload["extra_space_pct"] == 0.0

    def test_worst_pattern_reports_overflow(self, tmp_path, capsys):
        run_cli(capsys, "prodline", "--pattern", "worst", "--seed", "42", "--out-dir", str(tmp_path))
        payload = json.loads(
            (tmp_path / "prodline_worst_summary.json").read_text(encoding="utf-8")
        )
        assert payload["n_vehicles"] == 240
        assert payload["rejected"] == 120
        # each lane's 30 scheduled vehicles wait 450 s in all; 4 * 450 / 240
        assert payload["avg_waiting_s"] == 7.5
        assert payload["extra_space_pct"] == 100.0

    def test_extra_space_is_realized_requests_against_open_seconds(self, capsys, tmp_path):
        # 61 s: A lanes open on 31 seconds and B lanes on 30, 122 slots in all;
        # seed 2's random draw makes 133 requests, more than the slots
        ini = tmp_path / "odd.ini"
        ini.write_text("[intersection]\nrun_seconds = 61\n", encoding="utf-8")
        summary = {}
        for pattern in ("average", "worst", "random"):
            code, _, _ = run_cli(
                capsys, "prodline", "--config", str(ini), "--pattern", pattern, "--seed", "2",
                "--out-dir", str(tmp_path),
            )
            assert code == 0
            summary[pattern] = json.loads((tmp_path / f"prodline_{pattern}_summary.json").read_text(encoding="utf-8"))
        assert summary["average"]["n_vehicles"] == 122 and summary["average"]["extra_space_pct"] == 0.0
        assert summary["worst"]["n_vehicles"] == 244 and summary["worst"]["extra_space_pct"] == 100.0
        assert summary["random"]["n_vehicles"] == 133
        assert summary["random"]["extra_space_pct"] == waiting_pct(133, 122)

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "prodline", "--config", str(tmp_path / "nope.ini"),
            "--out-dir", str(tmp_path),
        )
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("run_seconds = 5\n", "File contains no section headers. file: {ini!r}, line: 1 'run_seconds = 5\\n'"),
            (
                "[lane.A1]\nmin_speed = 60\n[lane.A1]\nmax_speed = 65\n",
                "While reading from {ini!r} [line 3]: section 'lane.A1' already exists",
            ),
            (
                "[lane.A1]\nmin_speed = 60\nmin_speed = 61\n",
                "While reading from {ini!r} [line 3]: option 'min_speed' in section 'lane.A1' already exists",
            ),
            ("[lane.A1]\nmin_speed = %(x)s\n", "[lane.A1] min_speed: could not convert string to float: '%(x)s'"),
            ("[lane.A1]\nmin_speed = abc\n", "[lane.A1] min_speed: could not convert string to float: 'abc'"),
            ("[lane.B2]\nnum_spots = 1e3\n", "[lane.B2] num_spots: invalid literal for int() with base 10: '1e3'"),
            (
                "[intersection]\nrun_seconds = 60.0\n",
                "[intersection] run_seconds: invalid literal for int() with base 10: '60.0'",
            ),
            (
                "[intersecton]\nrun_seconds = 2\n",
                "unknown sections ['intersecton']; expected [intersection] and [lane.A1]..[lane.B2]",
            ),
            ("[lane.A3]\nmin_speed = 1\n", "unknown sections ['lane.A3']; expected [intersection] and [lane.A1]..[lane.B2]"),
            ("[DEFAULT]\nrun_seconds = 2\n", "unknown sections ['DEFAULT']; expected [intersection] and [lane.A1]..[lane.B2]"),
            (
                # an int, but longer than the one-day window a run may hold
                "[intersection]\nrun_seconds = 99999999999999999999\n",
                "run_seconds must be <= 86400, got 99999999999999999999",
            ),
        ],
        ids=["no-section-header", "duplicate-section", "duplicate-key", "interpolation", "bad-float", "bad-int",
             "bad-run-seconds", "misspelled-section", "unknown-lane", "default-section", "huge-run-seconds"],
    )
    def test_malformed_config_is_one_error_line(self, capsys, tmp_path, text, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "prodline", "--config", str(ini), "--out-dir", str(tmp_path))
        assert (code, out, err) == (1, "", f"error: {message.format(ini=str(ini))}\n")

    def test_non_utf8_config_names_the_file(self, capsys, tmp_path):
        ini = tmp_path / "latin1.ini"
        ini.write_bytes(b"[intersection]\n# \xff\n")
        code, out, err = run_cli(capsys, "prodline", "--config", str(ini), "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config file {ini}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "band, message",
        [
            ("max_speed = inf", "max_speed must be a whole number of mph, got inf"),
            ("min_speed = 0.5", "min_speed must be a whole number of mph, got 0.5"),
            ("min_speed = 60.5\nmax_speed = 60.9", "min_speed must be a whole number of mph, got 60.5"),
        ],
    )
    def test_speed_band_edges_must_be_whole_mph(self, capsys, tmp_path, band, message):
        ini = tmp_path / "band.ini"
        ini.write_text(f"[lane.A1]\n{band}\n", encoding="utf-8")
        for seed in ("2", "5"):
            code, out, err = run_cli(
                capsys, "prodline", "--config", str(ini), "--pattern", "worst",
                "--seed", seed, "--out-dir", str(tmp_path),
            )
            assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "lane",
        [
            "spot_length_ft = inf",
            # finite, but the 100-spot crossing time overflows to inf
            "spot_length_ft = 1e308\nnum_spots = 100",
        ],
    )
    def test_staying_time_must_be_finite(self, capsys, tmp_path, lane):
        ini = tmp_path / "lane.ini"
        ini.write_text(f"[lane.A1]\n{lane}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "prodline", "--config", str(ini), "--out-dir", str(tmp_path))
        assert (code, out, err) == (1, "", "error: lane A1: staying time must be positive and finite, got inf s\n")

    def test_staying_time_must_not_round_away(self, capsys, tmp_path):
        # 5e19 mph crosses in 2.1e-17 s, and 59 + 2.1e-17 == 59: vehicles
        # admitted after second 0 would occupy no container at all
        ini = tmp_path / "fast.ini"
        ini.write_text("[lane.A1]\nmax_speed = 100000000000000000000\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "prodline", "--config", str(ini), "--out-dir", str(tmp_path))
        assert (code, out, err) == (
            1, "",
            "error: lane A1: staying time 2.147457272727273e-17 s is lost to rounding at second 59, "
            "so its vehicles would occupy no container\n",
        )


# Exotic INI values for the property test: non-finite, huge and degenerate
# settings a hand-written file may hold. Every lane section holds ordinary
# values, and one lane has up to two of them swapped for these.
_EXOTIC = {
    "min_speed": ["0", "-5", "0.5", "60.5", "inf", "nan", "1e20", "1e300", "1e308"],
    "max_speed": ["0", "0.5", "60.9", "inf", "-inf", "1e20", "1e300", "1e308"],
    "num_spots": ["0", "-3", "10000000000"],
    "spot_length_ft": ["0", "-1", "inf", "nan", "5e-324", "1e-300", "1e300", "1e308"],
}


@st.composite
def _ini_texts(draw):
    lines = [f"[intersection]\nrun_seconds = {draw(st.integers(1, 240))}"]
    odd_lane = draw(st.sampled_from(LaneId))
    for lane_id in LaneId:
        if lane_id is not odd_lane and not draw(st.booleans()):
            continue  # the lane keeps its defaults
        low = draw(st.integers(1, 120))
        values = {
            "min_speed": str(low),
            "max_speed": str(low + draw(st.integers(0, 10))),
            "num_spots": str(draw(st.integers(1, 200))),
            "spot_length_ft": repr(draw(st.floats(0.001, 100.0))),
        }
        if lane_id is odd_lane:
            for key in draw(st.lists(st.sampled_from(sorted(_EXOTIC)), unique=True, max_size=2)):
                values[key] = draw(st.sampled_from(_EXOTIC[key]))
        lines.append(f"[lane.{lane_id.value}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


class TestConfigFile:
    def test_overrides(self, tmp_path):
        ini = tmp_path / "intersection.ini"
        ini.write_text(
            "[intersection]\nrun_seconds = 30\n"
            "[lane.A1]\nnum_spots = 10\n",
            encoding="utf-8",
        )
        cfg = load_config(ini)
        assert cfg.run_seconds == 30
        assert cfg.lane(LaneId.A1).num_spots == 10
        assert cfg.lane(LaneId.A2).num_spots == 60  # untouched lanes keep defaults

    def test_every_lane_key_is_read(self, tmp_path):
        ini = tmp_path / "lanes.ini"
        ini.write_text(
            "".join(
                f"[lane.{lane_id.value}]\nmin_speed = 50\nmax_speed = 56\nnum_spots = 12\nspot_length_ft = 20.5\n"
                for lane_id in LaneId
            ),
            encoding="utf-8",
        )
        cfg = load_config(ini)
        for lane in cfg.lanes:
            assert (lane.min_speed, lane.max_speed, lane.num_spots, lane.spot_length_ft) == (50.0, 56.0, 12, 20.5)

    def test_none_gives_defaults(self):
        assert load_config(None) == load_config(None)
        assert load_config(None).run_seconds == 60

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[intersection]\nrun_secs = 30\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_config(ini)

    @pytest.mark.parametrize("key", ["exit_speed", "next_entry_min", "next_entry_max"])
    def test_removed_key_rejected(self, tmp_path, key):
        ini = tmp_path / "old.ini"
        ini.write_text(f"[intersection]\n{key} = 70\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"\[intersection\] has unknown keys: \['{key}'\]"):
            load_config(ini)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_ini_texts(), st.integers(0, 2**64 - 1))
    # crossing times that used to be accepted as inf
    @example("[lane.A1]\nspot_length_ft = inf\n", 42)
    @example("[lane.A1]\nspot_length_ft = 1e308\nnum_spots = 100\n", 42)
    # a crossing time that used to round away next to the arrival second
    @example("[lane.A1]\nmax_speed = 1e20\n", 42)
    def test_every_accepted_config_runs(self, tmp_path_factory, text, seed):
        ini = tmp_path_factory.mktemp("ini") / "lanes.ini"
        ini.write_text(text, encoding="utf-8")
        try:
            cfg = load_config(ini)
        except ValueError:
            return  # rejected configs end in one error line; see the prodline tests
        for kind in PatternKind:
            rng = SeededRng(seed)
            demand = build_demand(cfg, kind, rng)
            schedule = {lane_id: d.scheduled for lane_id, d in demand.items()}
            records, _ = run_prodline(cfg, schedule, TurnPredictor(), rng, pattern=kind)
            assert verify_no_collisions(records, cfg) == 0
            # an admitted vehicle occupies at least one container
            assert all(r.exit_s > r.arrive_s for r in records if r.admitted)


class TestFlowCommand:
    def test_average_json(self, capsys):
        code, out, _ = run_cli(capsys, "flow", "--pattern", "average", "--take", "30")
        assert code == 0
        payload = json.loads(out)
        assert payload["pattern"] == "average"
        assert payload["arrivals"] == list(range(0, 60, 2))
        assert payload["avg_wait_s"] == 0.0
        assert payload["extra_space_pct"] == 0.0

    def test_worst_has_no_queue_figures(self, capsys):
        _, out, _ = run_cli(capsys, "flow", "--pattern", "worst")
        payload = json.loads(out)
        assert payload["per_vehicle_wait_s"] is None
        assert payload["extra_space_pct"] == 100.0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--pattern", "random", "--slots", "0"], "--slots must be > 0, got 0"),
            (["--pattern", "average", "--slots", "-3", "--take", "0"], "--slots must be > 0, got -3"),
            (["--pattern", "worst", "--take", "0"], "--take must be in 1..720, got 0"),
            (["--pattern", "random", "--take", "721"], "--take must be in 1..720, got 721"),
            (["--pattern", "average", "--slots", "10", "--take", "11"], "--take must be in 1..10, got 11"),
            # a day of slots at most: the random pattern draws once per slot
            (["--pattern", "random", "--slots", "86401"], "--slots must be <= 86400, got 86401"),
            (["--pattern", "worst", "--slots", str(10**18)], f"--slots must be <= 86400, got {10**18}"),
        ],
        ids=["random-slots-0", "average-slots--3", "worst-take-0", "random-take-721", "average-take-11",
             "random-slots-86401", "worst-slots-huge"],
    )
    def test_slots_and_take_are_checked_for_every_pattern(self, capsys, argv, message):
        assert run_cli(capsys, "flow", *argv) == (1, "", f"error: {message}\n")

    def test_empty_random_draw_is_an_empty_queue(self, capsys):
        # seed 42's one coin comes up 0: no vehicle arrives, none waits
        code, out, err = run_cli(capsys, "flow", "--pattern", "random", "--slots", "1", "--take", "1")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["arrivals"] == []
        assert payload["per_vehicle_wait_s"] == []
        assert payload["avg_wait_s"] is None
        assert payload["extra_space_pct"] == 0.0

    def test_slots_set_only_the_random_horizon(self, capsys):
        _, out, _ = run_cli(capsys, "flow", "--pattern", "average", "--slots", "10", "--take", "10")
        assert json.loads(out)["arrivals"] == list(range(0, 60, 2))
        _, out, _ = run_cli(capsys, "flow", "--pattern", "random", "--slots", "10", "--take", "1")
        assert all(0 <= slot < 10 for slot in json.loads(out)["arrivals"])

    def test_random_is_seeded(self, capsys, tmp_path):
        _, out_a, _ = run_cli(capsys, "flow", "--pattern", "random", "--seed", "5")
        _, out_b, _ = run_cli(capsys, "flow", "--pattern", "random", "--seed", "5")
        assert out_a == out_b
        target = tmp_path / "queue.json"
        run_cli(capsys, "flow", "--pattern", "random", "--seed", "5", "--out", str(target))
        assert json.loads(target.read_text(encoding="utf-8")) == json.loads(out_a)

    @pytest.mark.parametrize("pattern", [kind.value for kind in PatternKind])
    def test_out_file(self, tmp_path, capsys, pattern):
        target = tmp_path / "flow.json"
        code, out, _ = run_cli(capsys, "flow", "--pattern", pattern, "--out", str(target))
        assert (code, out) == (0, f"{target}\n")
        # the file holds the bytes the command writes to stdout without --out
        _, stdout_json, _ = run_cli(capsys, "flow", "--pattern", pattern)
        assert target.read_bytes() == stdout_json.encode()


# Store files for the loader property: arbitrary bytes, or a pair of files
# whose lines are mostly well formed, with out-of-range, malformed and stray
# text lines mixed in and the label count sometimes off by one.
_TRIPLE = "{0[0]} {0[1]} {0[2]}".format


@st.composite
def _store_files(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=80)), draw(st.binary(max_size=80))
    n = draw(st.integers(0, 12))
    good = st.tuples(st.integers(1, 5), st.integers(0, 23), st.integers(0, 1)).map(_TRIPLE)
    odd = st.tuples(st.integers(-1, 7), st.integers(-1, 25), st.integers(-1, 2)).map(_TRIPLE) | st.text(max_size=8)
    features = [draw(odd if draw(st.integers(0, 29)) == 0 else good) for _ in range(n)]
    n_labels = max(0, n + draw(st.sampled_from([0, 0, 0, -1, 1])))
    labels = [draw(st.text(max_size=3) if draw(st.integers(0, 29)) == 0 else st.sampled_from("+-")) for _ in range(n_labels)]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return tuple((end.join(lines) + end * draw(st.booleans())).encode("utf-8") for lines in (features, labels))


class TestKnnCommands:
    def test_init_then_predict(self, tmp_path, capsys):
        store = tmp_path / "store"
        code, _, _ = run_cli(capsys, "knn", "init", "--store", str(store))
        assert code == 0
        assert (store / "features.txt").exists()
        assert len((store / "labels.txt").read_text(encoding="utf-8").splitlines()) == 9

        code, out, _ = run_cli(
            capsys, "knn", "predict", "--day", "1", "--hour", "9", "--event", "0",
            "--store", str(store),
        )
        assert code == 0
        assert out.strip() == "+"

        code, out, _ = run_cli(
            capsys, "knn", "predict", "--day", "1", "--hour", "4", "--event", "1",
            "--store", str(store),
        )
        assert out.strip() == "-"

    def test_predict_without_store_fails(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "knn", "predict", "--day", "1", "--hour", "9", "--event", "0",
            "--store", str(tmp_path / "missing"),
        )
        assert code == 1 and "error:" in err

    def test_bad_query_fails_cleanly(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_cli(capsys, "knn", "init", "--store", str(store))
        code, _, err = run_cli(
            capsys, "knn", "predict", "--day", "9", "--hour", "9", "--event", "0",
            "--store", str(store),
        )
        assert code == 1 and "error:" in err

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_store_files())
    @example((b"1 9 0\n2 \xff 1\n3 8 0\n", b"+\n-\n+\n"))
    @example((b"1 9 0\r\n2 20 1\r3 8 0", b"+\n\n-\n+"))
    @example((b"1 9 0\n1 9\n", b"+\n+\n"))
    @example((b"", b""))
    def test_every_store_predicts_or_fails_in_one_line(self, tmp_path_factory, files):
        features, labels = files
        store = tmp_path_factory.mktemp("store")
        (store / "features.txt").write_bytes(features)
        (store / "labels.txt").write_bytes(labels)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["knn", "predict", "--day", "1", "--hour", "9", "--event", "0", "--store", str(store)])
        if code == 0:
            assert (out.getvalue(), err.getvalue()) in (("+\n", ""), ("-\n", ""))
        else:
            assert code == 1 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
            assert err.getvalue().endswith("\n")


class TestWithoutNumpy:
    """No module needs numpy: an interpreter that cannot import it runs every
    command and writes the same bytes."""

    @staticmethod
    def run_without_numpy(*argv):
        src = Path(intersched.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from intersched import cli\n"
            f"sys.exit(cli.main({list(argv)!r}))\n"
        )
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)

    def test_every_pin_holds(self):
        # every output pin of test_outputs.py, the grid commands' included
        src = Path(intersched.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
        code = (
            "import sys, tempfile\n"
            "from pathlib import Path\n"
            "sys.modules['numpy'] = None\n"
            "from test_outputs import PINS, run_and_digest\n"
            "for name, (argv, writes_tree, digest) in PINS.items():\n"
            "    with tempfile.TemporaryDirectory() as work:\n"
            "        print(name, run_and_digest(argv, writes_tree, Path(work)) == (0, '', digest))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "".join(f"{name} True\n" for name in PINS)

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["baseline", "--vehicles", "51", "--runs", "2"], "n_vehicles must be even and > 0, got 51"),
            (["reproduce", "--out-dir", "{tmp}/file/repro"], "[Errno 20] Not a directory: '{tmp}/file/repro'"),
        ],
        ids=["baseline", "reproduce"],
    )
    def test_grid_commands_fail_in_one_line(self, tmp_path, argv, message):
        # without numpy a grid command that cannot run still ends in one
        # `error:` line, as every command does
        (tmp_path / "file").write_text("", encoding="utf-8")
        result = self.run_without_numpy(*(a.format(tmp=tmp_path) for a in argv))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"error: {message.format(tmp=tmp_path)}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["prodline", "--pattern", "random", "--out-dir", "{tmp}/p"],
            ["flow", "--pattern", "random"],
            ["knn", "init", "--store", "{tmp}/s"],
            ["knn", "predict", "--day", "1", "--hour", "9", "--event", "0", "--store", "{tmp}/s"],
        ],
        ids=["prodline", "flow", "knn-init", "knn-predict"],
    )
    def test_other_commands_run(self, capsys, tmp_path, argv):
        run_cli(capsys, "knn", "init", "--store", str(tmp_path / "s"))
        result = self.run_without_numpy(*(a.format(tmp=tmp_path) for a in argv))
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout


class TestReproduce:
    def test_tree_contents(self, tmp_path, capsys):
        out_dir = tmp_path / "repro"
        code, out, _ = run_cli(
            capsys, "reproduce", "--seed", "7", "--out-dir", str(out_dir)
        )
        assert code == 0
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "baseline_sweep.csv",
            "comparison.csv",
            "flow_random_queue.json",
            "prodline_average_summary.json",
            "prodline_average_vehicles.csv",
            "prodline_random_summary.json",
            "prodline_random_vehicles.csv",
            "prodline_worst_summary.json",
            "prodline_worst_vehicles.csv",
            "turn_grid_a.txt",
            "turn_grid_b.txt",
        }
        for name in sorted(names):
            assert str(out_dir / name) in out

        # each baseline comparison row passes the sweep's figures through
        with open(out_dir / "baseline_sweep.csv", newline="", encoding="utf-8") as fh:
            sweep = list(csv.DictReader(fh))
        with open(out_dir / "comparison.csv", newline="", encoding="utf-8") as fh:
            grid = [row for row in csv.DictReader(fh) if row["model"] == "baseline"]
        assert [row["n_vehicles"] for row in grid] == [row["n_vehicles"] for row in sweep]
        for row, swept in zip(grid, sweep):
            assert (row["collisions_per_vehicle"], row["avg_waiting_s"]) == (
                swept["collisions_per_vehicle"], swept["avg_waiting_s"]
            )
            assert (row["pattern"], row["admitted"], row["rejected"]) == ("", row["n_vehicles"], "0")
            assert (row["extra_space_pct"], row["seed"]) == ("0.0", "7")

    def test_grids_are_ten_wide(self, tmp_path):
        reproduce_all(3, tmp_path)
        for group in ("a", "b"):
            lines = (tmp_path / f"turn_grid_{group}.txt").read_text(encoding="utf-8").splitlines()
            symbols = [s for line in lines for s in line.split()]
            assert set(symbols) <= {"+", "-"}
            assert all(len(line.split()) == 10 for line in lines[:-1])

    def test_queue_mean_adds_left_to_right(self, tmp_path):
        # on seed 42's queue draw the summation order shows in the last digit:
        # a compensated sum (math.fsum, and float sum() from Python 3.12 on)
        # reads ...334, so every interpreter must add the waits in order
        reproduce_all(42, tmp_path)
        payload = json.loads((tmp_path / "flow_random_queue.json").read_text(encoding="utf-8"))
        waits = payload["per_vehicle_wait_s"]
        assert len(waits) == 60
        assert math.fsum(waits) / len(waits) == 10.430933333333334
        assert payload["avg_wait_s"] == 10.430933333333337

    def test_env_var_sets_default_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("INTERSCHED_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "reproduce", "--seed", "3")
        assert code == 0
        assert (tmp_path / "reproduction" / "comparison.csv").exists()
