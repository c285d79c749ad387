"""Slot scheduler: gates, admission, staying time, demand packing, collisions."""

import copy
import logging
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import intersched
from intersched.core import FEATURE_RANGES, LaneId, SeededRng, Vehicle, mph_to_fps
from intersched.flows import PatternKind, generate_arrivals
from intersched.prodline import (
    NUM_SPOTS,
    RUN_SECONDS,
    SPOT_LENGTH_FT,
    IntersectionConfig,
    LaneConfig,
    LaneDemand,
    RejectReason,
    ScheduleRecord,
    admit,
    build_demand,
    exit_second,
    run_prodline,
    verify_no_collisions,
)
from intersched.report import summarize
from intersched.turns import InstanceStore, TurnLabel, TurnPredictor, load_store, seed_instances

CFG = IntersectionConfig.default()
STAY = 17.179657557103365  # 60 spots at the assigned 62.5 mph


def test_scheduler_imports_without_numpy():
    # no module needs numpy; a fresh interpreter imports them all and checks
    # that none loaded it
    src = Path(intersched.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys\n"
        "import intersched.core, intersched.flows, intersched.report, intersched.prodline, intersched.turns\n"
        "import intersched.baseline, intersched.cli\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def _vehicle(vid=1, lane=LaneId.A1, speed=63.0, arrival=0.0):
    return Vehicle(id=vid, lane=lane, speed_mph=speed, arrival_s=arrival, features=(1, 9, 0))


class TestSpeeds:
    def test_average_speed_of_band(self):
        assert LaneConfig(LaneId.A1).average_speed == 62.5
        assert LaneConfig(LaneId.B2, min_speed=61, max_speed=64).average_speed == 62.5

    def test_average_speed_validation(self):
        with pytest.raises(ValueError, match="bad speed band"):
            LaneConfig(LaneId.A1, min_speed=65.0, max_speed=60.0)
        with pytest.raises(ValueError, match="bad speed band"):
            LaneConfig(LaneId.A1, min_speed=0.0, max_speed=60.0)


class TestStayingTime:
    def test_full_line(self):
        assert LaneConfig(LaneId.A1).staying_time == pytest.approx(STAY, abs=1e-9)

    def test_half_line(self):
        assert LaneConfig(LaneId.A1, num_spots=30).staying_time == pytest.approx(
            8.589828778551683, abs=1e-9
        )

    def test_single_spot_round_trip(self):
        # spot length equal to one second of travel at the rounded rate
        assert LaneConfig(LaneId.A1, num_spots=1, spot_length_ft=91.66667).staying_time == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LaneConfig(LaneId.A1, num_spots=0)
        with pytest.raises(ValueError):
            LaneConfig(LaneId.A1, spot_length_ft=-1.0)

    @pytest.mark.parametrize(
        "lane, stay",
        [
            (dict(spot_length_ft=math.inf), "inf"),
            (dict(spot_length_ft=1e308, num_spots=100), "inf"),
            # the product underflows to zero: nobody would ever occupy the lane
            (dict(spot_length_ft=5e-324, num_spots=1), "0.0"),
        ],
    )
    def test_staying_time_must_be_positive_and_finite(self, lane, stay):
        with pytest.raises(ValueError, match=f"lane A1: staying time must be positive and finite, got {stay} s"):
            LaneConfig(LaneId.A1, **lane)

    def test_huge_finite_staying_time_is_accepted(self):
        lane = LaneConfig(LaneId.A1, spot_length_ft=1e300)
        assert math.isfinite(lane.staying_time) and lane.staying_time > 1e299


def _gate_admits(lane_id, arrival):
    decision = admit(_vehicle(lane=lane_id, arrival=arrival), CFG.lane(lane_id))
    assert decision.reason in (None, RejectReason.GATE_CLOSED)
    return decision.admitted


class TestGate:
    def test_group_a_opens_even_seconds(self):
        assert _gate_admits(LaneId.A1, 0.0) and _gate_admits(LaneId.A1, 58.0)
        assert not _gate_admits(LaneId.A1, 1.0)

    def test_group_b_opens_odd_seconds(self):
        assert _gate_admits(LaneId.B2, 1.0) and _gate_admits(LaneId.B2, 59.0)
        assert not _gate_admits(LaneId.B2, 0.0)


class TestAdmit:
    def test_admission_assigns_average_speed(self):
        v = _vehicle(speed=64.0)
        decision = admit(v, CFG.lane(LaneId.A1))
        assert decision.admitted
        assert decision.assigned_speed == 62.5
        assert v == _vehicle(speed=64.0)  # the vehicle keeps its approach speed

    @pytest.mark.parametrize("speed", [59.9, 65.1, 30.0])
    def test_speed_out_of_band(self, speed):
        v = _vehicle(speed=speed)
        decision = admit(v, CFG.lane(LaneId.A1))
        assert not decision.admitted
        assert decision.reason is RejectReason.SPEED_OUT_OF_BAND
        assert v == _vehicle(speed=speed)

    def test_band_edges_admit(self):
        assert admit(_vehicle(speed=60.0), CFG.lane(LaneId.A1)).admitted
        assert admit(_vehicle(vid=2, speed=65.0), CFG.lane(LaneId.A2)).admitted

    def test_speed_checked_before_the_gate(self):
        # wrong phase AND bad speed: the speed reason wins
        v = _vehicle(speed=59.0, arrival=1.0)
        decision = admit(v, CFG.lane(LaneId.A1))
        assert decision.reason is RejectReason.SPEED_OUT_OF_BAND

    def test_closed_gate_rejects(self):
        v = _vehicle(arrival=1.0)
        decision = admit(v, CFG.lane(LaneId.A1))
        assert decision.reason is RejectReason.GATE_CLOSED

    @pytest.mark.parametrize(
        "lane, arrival, admitted",
        [(LaneId.A1, 4.0, True), (LaneId.A2, 3.0, False), (LaneId.B1, 3.0, True), (LaneId.B2, 4.0, False)],
    )
    def test_gate_is_read_at_the_arrival_second(self, lane, arrival, admitted):
        decision = admit(_vehicle(lane=lane, arrival=arrival), CFG.lane(lane))
        assert decision.admitted is admitted
        assert decision.reason is (None if admitted else RejectReason.GATE_CLOSED)

    @pytest.mark.parametrize("speed, arrival", [(63.0, 0.0), (59.0, 0.0), (63.0, 1.0)])
    def test_a_decision_can_be_repeated(self, speed, arrival):
        # admit changes nothing, so asking again gives the same answer
        v = _vehicle(speed=speed, arrival=arrival)
        first = admit(v, CFG.lane(LaneId.A1))
        assert admit(v, CFG.lane(LaneId.A1)) == first
        assert v == _vehicle(speed=speed, arrival=arrival)


class TestExitSecond:
    def _record(self, exit_s):
        return ScheduleRecord(
            vehicle_id=1, lane=LaneId.A1, arrive_s=0.0, right_turn=False,
            assigned_speed=62.5, exit_s=exit_s, admitted=True,
        )

    def test_ceiling(self):
        assert exit_second(self._record(STAY)) == 18
        assert exit_second(self._record(22.1796)) == 23

    def test_whole_second_stays(self):
        assert exit_second(self._record(18.0)) == 18

    def test_rejected_record_has_no_exit(self):
        bad = ScheduleRecord(
            vehicle_id=1, lane=LaneId.A1, arrive_s=0.0, right_turn=None,
            assigned_speed=None, exit_s=None, admitted=False,
        )
        with pytest.raises(ValueError, match="vehicle 1 was not admitted"):
            exit_second(bad)


class TestIntersectionConfig:
    def test_default_shape(self):
        assert CFG.run_seconds == RUN_SECONDS
        assert [lane.id for lane in CFG.lanes] == [
            LaneId.A1, LaneId.A2, LaneId.B1, LaneId.B2,
        ]
        for lane in CFG.lanes:
            assert lane.num_spots == NUM_SPOTS
            assert (lane.min_speed, lane.max_speed) == (60.0, 65.0)

    def test_lanes_must_be_listed_in_order(self):
        swapped = (CFG.lanes[1], CFG.lanes[0]) + CFG.lanes[2:]
        with pytest.raises(ValueError) as exc:
            IntersectionConfig(lanes=swapped)
        assert str(exc.value) == "config must list lanes A1, A2, B1, B2 in that order, got ['A2', 'A1', 'B1', 'B2']"
        with pytest.raises(ValueError, match=r"got \['A1', 'A1', 'B1', 'B2'\]"):
            IntersectionConfig(lanes=(CFG.lanes[0], CFG.lanes[0]) + CFG.lanes[2:])

    def test_lane_lookup(self):
        assert CFG.lane(LaneId.B2).phase_parity == 1

    def test_phase_parity_is_tied_to_the_group(self):
        # derived from the lane id: A lanes open on even seconds, B on odd
        expected = {LaneId.A1: 0, LaneId.A2: 0, LaneId.B1: 1, LaneId.B2: 1}
        assert {lane.id: lane.phase_parity for lane in CFG.lanes} == expected
        for lane_id, parity in expected.items():
            assert LaneConfig(lane_id, num_spots=10).phase_parity == parity
            with pytest.raises(TypeError):
                LaneConfig(lane_id, phase_parity=1 - parity)

    @pytest.mark.parametrize("edge", ["min_speed", "max_speed"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 60.5, 0.5])
    def test_speed_band_edges_must_be_whole_finite_mph(self, edge, value):
        with pytest.raises(ValueError, match=f"{edge} must be a whole number of mph"):
            LaneConfig(LaneId.A1, **{edge: value})

    def test_staying_time_must_survive_the_last_second(self):
        # 5e19 mph crosses in 2.1e-17 s: a vehicle at second 0 still holds
        # container 0, but from second 1 on t + stay rounds back to t
        lanes = (LaneConfig(LaneId.A1, max_speed=1e20),) + CFG.lanes[1:]
        assert IntersectionConfig(lanes=lanes, run_seconds=1).run_seconds == 1
        message = r"lane A1: staying time 2\.147457272727273e-17 s is lost to rounding at second 1,"
        with pytest.raises(ValueError, match=message):
            IntersectionConfig(lanes=lanes, run_seconds=2)

    def test_window_is_at_most_one_day(self):
        assert IntersectionConfig(lanes=CFG.lanes, run_seconds=86_400).run_seconds == 86_400
        with pytest.raises(ValueError, match="^run_seconds must be <= 86400, got 86401$"):
            IntersectionConfig(lanes=CFG.lanes, run_seconds=86_401)

    def test_whole_valued_band_edges_are_accepted(self):
        lane = LaneConfig(LaneId.A1, min_speed=61, max_speed=64.0)
        assert (lane.min_speed, lane.max_speed) == (61, 64.0)


class TestBuildDemand:
    def test_average_fills_every_open_slot(self):
        demand = build_demand(CFG, PatternKind.AVERAGE, SeededRng(42))
        for lane in CFG.lanes:
            d = demand[lane.id]
            assert len(d.scheduled) == 30
            assert d.overflow == []
            assert [int(v.arrival_s) for v in d.scheduled] == list(
                range(lane.phase_parity, 60, 2)
            )
            assert all(v.waiting_s == 0.0 for v in d.scheduled)

    def test_worst_overflows_half(self):
        demand = build_demand(CFG, PatternKind.WORST, SeededRng(42))
        for lane in CFG.lanes:
            d = demand[lane.id]
            assert len(d.scheduled) == 30
            assert len(d.overflow) == 30
            assert d.requests == 60
            # the doubled request bumps every later vehicle one slot back
            assert max(v.waiting_s for v in d.scheduled) > 0.0

    @pytest.mark.parametrize("kind", [PatternKind.AVERAGE, PatternKind.WORST], ids=["average", "worst"])
    def test_exact_figures_for_every_window_up_to_400_s(self, kind):
        # m = a lane's open seconds. Average demand fills them with no wait;
        # worst demand asks twice per open second, so vehicle j of the lane
        # is served at open second j, ceil(j / 2) open seconds (2 s each)
        # after its request, and the last m requests overflow
        for run_seconds in range(1, 401):
            cfg = IntersectionConfig(lanes=CFG.lanes, run_seconds=run_seconds)
            demand = build_demand(cfg, kind, SeededRng(run_seconds))
            for lane in cfg.lanes:
                m = len(cfg.open_seconds(lane))
                d = demand[lane.id]
                total_wait = sum(v.waiting_s for v in d.scheduled)
                if kind is PatternKind.AVERAGE:
                    assert (len(d.scheduled), len(d.overflow), total_wait) == (m, 0, 0.0)
                else:
                    expected = 2 * sum((j + 1) // 2 for j in range(m))
                    assert (len(d.scheduled), len(d.overflow), total_wait) == (m, m, expected)
        assert 2 * sum((j + 1) // 2 for j in range(30)) == 450

    def test_random_is_deterministic_and_packs_forward(self):
        a = build_demand(CFG, PatternKind.RANDOM, SeededRng(7))
        b = build_demand(CFG, PatternKind.RANDOM, SeededRng(7))
        for lane in CFG.lanes:
            assert [v.id for v in a[lane.id].scheduled] == [v.id for v in b[lane.id].scheduled]
            for v in a[lane.id].scheduled:
                assert int(v.arrival_s) % 2 == lane.phase_parity
                assert v.waiting_s >= 0.0

    def test_id_pools_by_lane(self):
        demand = build_demand(CFG, PatternKind.AVERAGE, SeededRng(1))
        for lane, base in [(LaneId.A1, 100), (LaneId.A2, 200), (LaneId.B1, 300), (LaneId.B2, 400)]:
            ids = sorted(v.id for v in demand[lane].scheduled)
            assert ids == list(range(base, base + 30))

    def test_speeds_are_integers_inside_the_band(self):
        demand = build_demand(CFG, PatternKind.AVERAGE, SeededRng(3))
        for lane in CFG.lanes:
            for v in demand[lane.id].scheduled:
                assert v.speed_mph == int(v.speed_mph)
                assert 60 <= v.speed_mph <= 65

    def test_paired_lane_copies_sibling_features(self):
        demand = build_demand(CFG, PatternKind.AVERAGE, SeededRng(5))
        a1 = {int(v.arrival_s): v for v in demand[LaneId.A1].scheduled}
        for v in demand[LaneId.A2].scheduled:
            assert v.features == a1[int(v.arrival_s)].features
        b1 = {int(v.arrival_s): v for v in demand[LaneId.B1].scheduled}
        for v in demand[LaneId.B2].scheduled:
            assert v.features == b1[int(v.arrival_s)].features


def _two_pass_build_demand(cfg, kind, rng):
    """Reference demand builder: packs each lane's requests into its open
    seconds first, then reads the packing back to draw the vehicles."""
    id_base = {LaneId.A1: 100, LaneId.A2: 200, LaneId.B1: 300, LaneId.B2: 400}
    demand = {}
    for lane in cfg.lanes:
        requests = generate_arrivals(kind, cfg.run_seconds, rng, parity=lane.phase_parity)

        open_slots = cfg.open_seconds(lane)
        assignments = []  # (request second, slot or None)
        cursor = 0
        for req in requests:
            while cursor < len(open_slots) and open_slots[cursor] < req:
                cursor += 1
            if cursor < len(open_slots):
                assignments.append((req, open_slots[cursor]))
                cursor += 1
            else:
                assignments.append((req, None))

        ids = [id_base[lane.id] + i for i in range(len(requests))]
        rng.shuffle(ids)

        sibling_by_slot = {}
        if not lane.id.is_primary:
            sibling_by_slot = {int(v.arrival_s): v for v in demand[lane.id.sibling].scheduled}

        scheduled, overflow = [], []
        for vid, (req, slot) in zip(ids, assignments):
            speed = float(rng.rand_int(int(lane.min_speed), int(lane.max_speed)))
            sibling = sibling_by_slot.get(slot) if slot is not None else None
            if sibling is not None:
                features = sibling.features
            else:
                features = tuple(rng.rand_int(lo, hi) for lo, hi in FEATURE_RANGES)
            if slot is not None:
                scheduled.append(
                    Vehicle(id=vid, lane=lane.id, speed_mph=speed, arrival_s=float(slot),
                            features=features, waiting_s=float(slot - req))
                )
            else:
                overflow.append(Vehicle(id=vid, lane=lane.id, speed_mph=speed, arrival_s=float(req), features=features))
        demand[lane.id] = LaneDemand(scheduled=scheduled, overflow=overflow)
    return demand


_BANDS = st.tuples(st.integers(1, 120), st.integers(0, 30)).map(lambda band: (band[0], band[0] + band[1]))


class TestOnePassMatchesTheTwoPassPacker:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        bands=st.lists(_BANDS, min_size=4, max_size=4),
        run_seconds=st.integers(1, 400),
        kind=st.sampled_from(PatternKind),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(bands=[(60, 65)] * 4, run_seconds=1, kind=PatternKind.WORST, seed=42)
    @example(bands=[(60, 65)] * 4, run_seconds=2, kind=PatternKind.RANDOM, seed=42)
    @example(bands=[(40, 75)] * 4, run_seconds=59, kind=PatternKind.WORST, seed=7)
    @example(bands=[(60, 65)] * 4, run_seconds=61, kind=PatternKind.AVERAGE, seed=7)
    def test_same_vehicles_and_rng_state(self, bands, run_seconds, kind, seed):
        lanes = tuple(LaneConfig(lane_id, lo, hi) for lane_id, (lo, hi) in zip(LaneId, bands))
        cfg = IntersectionConfig(lanes=lanes, run_seconds=run_seconds)
        rng, reference_rng = SeededRng(seed), SeededRng(seed)
        demand = build_demand(cfg, kind, rng)
        reference = _two_pass_build_demand(cfg, kind, reference_rng)
        for lane_id in LaneId:
            assert demand[lane_id] == reference[lane_id]
        assert rng._rng.getstate() == reference_rng._rng.getstate()


def _schedule(demand):
    return {lane_id: d.scheduled for lane_id, d in demand.items()}


def _run(arrivals, seed, kind):
    """One scheduler pass over the default config with a fresh classifier."""
    return run_prodline(CFG, arrivals, TurnPredictor(), SeededRng(seed), pattern=kind)


class TestRunProdline:
    def test_first_wave_exit_times(self):
        demand = build_demand(CFG, PatternKind.AVERAGE, SeededRng(42))
        records, report = _run(_schedule(demand), 42, PatternKind.AVERAGE)
        first_a = next(r for r in records if r.lane is LaneId.A1)
        first_b = next(r for r in records if r.lane is LaneId.B1)
        assert first_a.arrive_s == 0.0 and first_a.exit_s == pytest.approx(STAY, abs=1e-9)
        assert first_b.arrive_s == 1.0 and first_b.exit_s == pytest.approx(1 + STAY, abs=1e-9)
        assert report.admitted == 120 and report.rejected == 0

    def test_crossing_time_is_constant(self):
        demand = build_demand(CFG, PatternKind.RANDOM, SeededRng(9))
        records, _ = _run(_schedule(demand), 9, PatternKind.RANDOM)
        for r in records:
            if r.admitted:
                assert r.exit_s - r.arrive_s == pytest.approx(STAY, abs=1e-12)
                assert r.assigned_speed == 62.5

    def test_paired_lanes_share_the_turn_prediction(self):
        demand = build_demand(CFG, PatternKind.AVERAGE, SeededRng(11))
        records, _ = _run(_schedule(demand), 11, PatternKind.AVERAGE)
        by_lane_second = {(r.lane, r.arrive_s): r for r in records}
        for (lane, second), r in by_lane_second.items():
            twin = by_lane_second.get((lane.sibling, second))
            if twin is not None:
                assert r.right_turn == twin.right_turn

    def test_every_admitted_record_has_a_prediction(self):
        demand = build_demand(CFG, PatternKind.RANDOM, SeededRng(3))
        records, _ = _run(_schedule(demand), 3, PatternKind.RANDOM)
        for r in records:
            assert (r.right_turn is not None) == r.admitted

    def test_off_phase_vehicle_is_rejected(self):
        arrivals = {LaneId.A1: [_vehicle(vid=100, arrival=1.0)]}
        records, report = _run(arrivals, 0, PatternKind.AVERAGE)
        (rec,) = records
        assert not rec.admitted and rec.exit_s is None and rec.right_turn is None
        assert report.rejected == 1 and report.admitted == 0

    def test_out_of_band_speed_is_rejected(self):
        arrivals = {LaneId.A1: [_vehicle(vid=100, speed=70.0, arrival=0.0)]}
        records, report = _run(arrivals, 0, PatternKind.AVERAGE)
        assert not records[0].admitted
        assert report.rejected == 1

    def test_empty_schedule(self):
        records, report = _run({}, 0, PatternKind.AVERAGE)
        assert records == []
        assert report.n_vehicles == 0
        assert report.avg_waiting_s == 0.0

    def test_duplicate_second_in_a_lane_rejected(self):
        arrivals = {
            LaneId.A1: [_vehicle(vid=1, arrival=0.0), _vehicle(vid=2, arrival=0.0)]
        }
        with pytest.raises(ValueError):
            _run(arrivals, 0, PatternKind.AVERAGE)

    def test_vehicle_listed_under_another_lane_rejected(self):
        arrivals = {LaneId.B1: [_vehicle(vid=7, lane=LaneId.A1, arrival=1.0)]}
        with pytest.raises(ValueError, match=r"^vehicle 7 is scheduled on lane B1 but belongs to lane A1$"):
            _run(arrivals, 0, PatternKind.AVERAGE)

    def test_fractional_arrival_rejected(self):
        arrivals = {LaneId.A1: [_vehicle(vid=1, arrival=0.5)]}
        with pytest.raises(ValueError):
            _run(arrivals, 0, PatternKind.AVERAGE)

    def test_waiting_average_comes_from_schedule_delay(self):
        demand = build_demand(CFG, PatternKind.WORST, SeededRng(21))
        records, report = _run(_schedule(demand), 21, PatternKind.WORST)
        expected = sum(r.waiting_s for r in records) / len(records)
        assert report.avg_waiting_s == pytest.approx(expected)
        assert report.avg_waiting_s > 0.0

    @pytest.mark.parametrize("kind", list(PatternKind))
    def test_a_demand_can_be_run_twice(self, kind):
        demand = build_demand(CFG, kind, SeededRng(17))
        pristine = copy.deepcopy(demand)
        runs = []
        for _ in range(2):
            predictor = TurnPredictor()
            records, report = run_prodline(CFG, _schedule(demand), predictor, SeededRng(17), pattern=kind)
            runs.append((records, report, {group: store.instances for group, store in predictor.stores.items()}))
        assert runs[0] == runs[1]
        assert demand == pristine

    @pytest.mark.parametrize("kind", list(PatternKind))
    def test_a_run_draws_nothing(self, kind):
        # every draw of a scheduler run is build_demand's: the pass leaves the
        # rng it is given, which labels the report's seed, as it found it
        for seed in (7, 42, 60317):
            rng = SeededRng(seed)
            demand = build_demand(CFG, kind, rng)
            state = rng._rng.getstate()
            _, report = run_prodline(CFG, _schedule(demand), TurnPredictor(), rng, pattern=kind)
            assert rng._rng.getstate() == state
            assert report.seed == seed

    def test_bound_stores_are_saved_once_when_the_run_ends(self, tmp_path, monkeypatch):
        predictor = TurnPredictor()
        for group, store in predictor.stores.items():
            (tmp_path / group).mkdir()
            store.save(tmp_path / group / "features.txt", tmp_path / group / "labels.txt")
        saves = []
        save = InstanceStore.save
        monkeypatch.setattr(InstanceStore, "save", lambda store, *paths: saves.append(paths) or save(store, *paths))
        demand = build_demand(CFG, PatternKind.RANDOM, SeededRng(5))
        run_prodline(CFG, _schedule(demand), predictor, SeededRng(5), pattern=PatternKind.RANDOM)
        assert len(saves) == 2
        for group, store in predictor.stores.items():
            assert len(store) > 9
            fresh = tmp_path / f"fresh-{group}"
            fresh.mkdir()
            InstanceStore(store.instances).save(fresh / "features.txt", fresh / "labels.txt")
            for name in ("features.txt", "labels.txt"):
                assert (tmp_path / group / name).read_bytes() == (fresh / name).read_bytes()
            assert load_store(tmp_path / group / "features.txt", tmp_path / group / "labels.txt").instances == store.instances

    def test_unbound_stores_write_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        predictor = TurnPredictor()
        demand = build_demand(CFG, PatternKind.RANDOM, SeededRng(5))
        run_prodline(CFG, _schedule(demand), predictor, SeededRng(5), pattern=PatternKind.RANDOM)
        assert len(predictor.stores["A"]) > 9
        assert list(tmp_path.iterdir()) == []
        assert all(store.features_path is None for store in predictor.stores.values())

    def test_entry_log_line(self, caplog):
        arrivals = {LaneId.A1: [_vehicle(vid=107, arrival=0.0)]}
        with caplog.at_level(logging.INFO, logger="intersched.prodline"):
            _run(arrivals, 0, PatternKind.AVERAGE)
        assert any(
            "Vehicle 107 has entered the intersection through lane [A1] with speed of"
            in message
            for message in caplog.messages
        )


def _oracle_run_prodline(cfg, arrivals, predictor, rng):
    """Reference runner: the per-second clock the ordered pass replaced.

    Every second of the window visits the lanes in the order A1, A2, B1, B2
    and applies the admission rule written out here: speed band first, then
    an open gate on exactly that second. The staying time is recomputed from
    the lane's fields with the same float expression.
    """
    by_lane_second = {
        lane_id: {int(v.arrival_s): v for v in arrivals.get(lane_id, ())} for lane_id in LaneId
    }
    records = []
    turn_by_lane_second = {}
    for t in range(cfg.run_seconds):
        for lane_id in LaneId:
            lane = cfg.lane(lane_id)
            v = by_lane_second[lane.id].get(t)
            if v is None:
                continue
            in_band = lane.min_speed <= v.speed_mph <= lane.max_speed
            if not (in_band and t % 2 == lane.phase_parity and v.arrival_s == t):
                records.append(
                    ScheduleRecord(
                        vehicle_id=v.id, lane=lane.id, arrive_s=float(t), right_turn=None,
                        assigned_speed=None, exit_s=None, admitted=False, waiting_s=v.waiting_s,
                    )
                )
                continue
            assigned = (lane.min_speed + lane.max_speed) / 2.0

            label = turn_by_lane_second.get((lane.id.sibling, t)) if not lane.id.is_primary else None
            if label is None:
                label = predictor.predict_and_record(v.features, lane.id.group)
            turn_by_lane_second[(lane.id, t)] = label

            stay = lane.num_spots * lane.spot_length_ft / round(mph_to_fps(assigned), 5)
            records.append(
                ScheduleRecord(
                    vehicle_id=v.id, lane=lane.id, arrive_s=float(t),
                    right_turn=label is TurnLabel.RIGHT_TURN,
                    assigned_speed=assigned, exit_s=t + stay, admitted=True, waiting_s=v.waiting_s,
                )
            )
    return records, summarize(records, pattern=PatternKind.RANDOM, seed=rng.seed)


def _random_config(rng):
    lanes = []
    for lane_id in LaneId:
        low = rng.randrange(40, 70)
        lanes.append(
            LaneConfig(
                lane_id, min_speed=low, max_speed=low + rng.randrange(8),
                num_spots=rng.randrange(1, 80), spot_length_ft=rng.uniform(0.5, 40.0),
            )
        )
    return IntersectionConfig(lanes=tuple(lanes), run_seconds=rng.randrange(1, 50))


def _random_schedule(rng, cfg):
    """Vehicles on some lanes: missing and empty lanes, off-phase seconds,
    out-of-band and fractional speeds."""
    arrivals = {}
    vid = 0
    for lane in cfg.lanes:
        shape = rng.random()
        if shape < 0.15:
            continue  # lane missing from the mapping
        if shape < 0.25:
            arrivals[lane.id] = []
            continue
        seconds = [t for t in range(cfg.run_seconds) if rng.random() < 0.6]
        vehicles = []
        for t in seconds:
            vid += 1
            speed = float(rng.randrange(int(lane.min_speed) - 3, int(lane.max_speed) + 4))
            if rng.random() < 0.1:
                speed += rng.random()
            features = (rng.randint(1, 5), rng.randint(0, 23), rng.randint(0, 1))
            vehicles.append(
                Vehicle(
                    id=vid, lane=lane.id, speed_mph=speed, arrival_s=float(t),
                    features=features, waiting_s=float(rng.randrange(4)),
                )
            )
        rng.shuffle(vehicles)  # the runner must not rely on the list order
        arrivals[lane.id] = vehicles
    return arrivals


class TestOrderedPassMatchesTheClock:
    def test_random_schedules(self):
        rng = random.Random(20180517)
        admitted = rejected = predictions = 0
        for case in range(300):
            cfg = _random_config(rng)
            arrivals = _random_schedule(rng, cfg)
            pristine = copy.deepcopy(arrivals)
            seed = rng.randrange(2**32)

            predictor, run_rng = TurnPredictor(), SeededRng(seed)
            records, report = run_prodline(cfg, arrivals, predictor, run_rng, pattern=PatternKind.RANDOM)
            oracle_predictor, oracle_rng = TurnPredictor(), SeededRng(seed)
            expected, expected_report = _oracle_run_prodline(
                cfg, copy.deepcopy(pristine), oracle_predictor, oracle_rng
            )

            assert records == expected, case
            assert report == expected_report, case
            for group in ("A", "B"):
                assert predictor.stores[group].instances == oracle_predictor.stores[group].instances, case
            assert run_rng.rand_int(0, 2**62) == oracle_rng.rand_int(0, 2**62), case
            assert arrivals == pristine, case  # the runner changes none of its inputs
            admitted += report.admitted
            rejected += report.rejected
            predictions += sum(len(store) - len(seed_instances()) for store in predictor.stores.values())
        # the cases exercise both outcomes and the classifier
        assert admitted > 1000 and rejected > 1000 and predictions > 1000


def _collisions_by_rescan(records, cfg):
    """Reference count: every admitted record of a lane re-checked on every tick."""
    violations = 0
    for lane_id in LaneId:
        admitted = [r for r in records if r.lane is lane_id and r.admitted]
        for t in range(cfg.run_seconds):
            occupied: set[int] = set()
            for r in admitted:
                if r.arrive_s <= t and t < exit_second(r):
                    idx = int(t - r.arrive_s)
                    if idx in occupied:
                        violations += 1
                    occupied.add(idx)
    return violations


def _random_records(rng, n):
    """Dense records over every lane: whole, half and arbitrary arrival
    seconds, stays from slightly negative to longer than a crossing, and a
    few rejected vehicles."""
    records = []
    for vid in range(n):
        arrive = rng.choice([rng.randrange(70), rng.randrange(140) / 2, rng.uniform(-1.0, 70.0)])
        admitted = rng.random() < 0.9
        records.append(
            ScheduleRecord(
                vehicle_id=vid, lane=rng.choice(list(LaneId)), arrive_s=float(arrive), right_turn=None,
                assigned_speed=62.5 if admitted else None,
                exit_s=arrive + rng.uniform(-0.5, 25.0) if admitted else None, admitted=admitted,
            )
        )
    return records


class TestVerifyNoCollisions:
    @pytest.mark.parametrize("kind", list(PatternKind))
    def test_full_runs_are_collision_free(self, kind):
        demand = build_demand(CFG, kind, SeededRng(13))
        records, _ = _run(_schedule(demand), 13, kind)
        assert verify_no_collisions(records, CFG) == 0

    def test_detector_fires_on_a_shared_container(self):
        # two admitted vehicles entering the same lane on the same second
        # occupy the same rolling container index; the runner's schedule
        # validation forbids this, so build the records directly
        twin = [
            ScheduleRecord(
                vehicle_id=vid, lane=LaneId.A1, arrive_s=0.0, right_turn=False,
                assigned_speed=62.5, exit_s=STAY, admitted=True,
            )
            for vid in (1, 2)
        ]
        assert verify_no_collisions(twin, CFG) > 0

    def test_sweep_matches_the_per_tick_rescan(self):
        rng = random.Random(20181805)
        total = 0
        for _ in range(200):
            records = _random_records(rng, rng.randrange(120))
            expected = _collisions_by_rescan(records, CFG)
            assert verify_no_collisions(records, CFG) == expected
            total += expected
        assert total > 0  # the sets do collide, so the counts are compared

    def test_container_index_is_exact_for_a_near_whole_arrival(self):
        # arriving one ulp after second 1, a vehicle holds index t - 2 at
        # every tick, the same as one arriving at second 2; in floats,
        # t - a rounds to t - 1 from tick 4 on, which the per-tick rescan
        # would read as the vehicle skipping a container
        pair = [
            ScheduleRecord(
                vehicle_id=vid, lane=LaneId.B1, arrive_s=arrive, right_turn=False,
                assigned_speed=62.5, exit_s=50.0, admitted=True,
            )
            for vid, arrive in ((1, 1.0 + 2.0**-52), (2, 2.0))
        ]
        assert int(4 - pair[0].arrive_s) == 3  # the rounding the exact count avoids
        assert verify_no_collisions(pair, CFG) == 48  # ticks 2..49
