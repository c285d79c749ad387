"""Slot scheduler: gates, admission, staying time, demand packing, collisions."""

import logging
import math
import random

import pytest

from intersched.core import InvalidStateError, LaneId, SeededRng, Vehicle, VehicleState
from intersched.flows import PatternKind
from intersched.prodline import (
    NUM_SPOTS,
    RUN_SECONDS,
    SPOT_LENGTH_FT,
    CapacityWindow,
    IntersectionConfig,
    LaneConfig,
    RejectReason,
    ScheduleRecord,
    admit,
    average_speed,
    build_demand,
    check_window_feasibility,
    exit_second,
    gate_open,
    run_prodline,
    staying_time,
    transition_speed,
    verify_no_collisions,
)

CFG = IntersectionConfig.default()
STAY = 17.179657557103365  # 60 spots at the assigned 62.5 mph


def _vehicle(vid=1, lane=LaneId.A1, speed=63.0, arrival=0.0):
    return Vehicle(id=vid, lane=lane, speed_mph=speed, arrival_s=arrival)


class TestSpeeds:
    def test_average_speed_of_band(self):
        assert average_speed(60.0, 65.0) == 62.5

    def test_average_speed_validation(self):
        with pytest.raises(ValueError):
            average_speed(65.0, 60.0)
        with pytest.raises(ValueError):
            average_speed(0.0, 60.0)

    def test_transition_hits_downstream_target(self):
        assert transition_speed(65.0, 102.5) == 102.5
        assert transition_speed(62.5, 62.5) == 62.5


class TestStayingTime:
    def test_full_line(self):
        assert staying_time(60, SPOT_LENGTH_FT, 62.5) == pytest.approx(STAY, abs=1e-9)

    def test_half_line(self):
        assert staying_time(30, SPOT_LENGTH_FT, 62.5) == pytest.approx(
            8.589828778551683, abs=1e-9
        )

    def test_single_spot_round_trip(self):
        # spot length equal to one second of travel at the rounded rate
        assert staying_time(1, 91.66667, 62.5) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            staying_time(0, SPOT_LENGTH_FT, 62.5)
        with pytest.raises(ValueError):
            staying_time(60, -1.0, 62.5)


class TestGate:
    def test_group_a_opens_even_seconds(self):
        lane = CFG.lane(LaneId.A1)
        assert gate_open(lane, 0) and gate_open(lane, 58)
        assert not gate_open(lane, 1)

    def test_group_b_opens_odd_seconds(self):
        lane = CFG.lane(LaneId.B2)
        assert gate_open(lane, 1) and gate_open(lane, 59)
        assert not gate_open(lane, 0)


class TestAdmit:
    def test_admission_assigns_average_speed(self):
        v = _vehicle(speed=64.0)
        decision = admit(v, CFG.lane(LaneId.A1), t=0)
        assert decision.admitted
        assert decision.assigned_speed == 62.5
        assert v.state is VehicleState.ENTERED
        assert v.speed_mph == 62.5

    @pytest.mark.parametrize("speed", [59.9, 65.1, 30.0])
    def test_speed_out_of_band(self, speed):
        v = _vehicle(speed=speed)
        decision = admit(v, CFG.lane(LaneId.A1), t=0)
        assert not decision.admitted
        assert decision.reason is RejectReason.SPEED_OUT_OF_BAND
        assert v.state is VehicleState.REJECTED

    def test_band_edges_admit(self):
        assert admit(_vehicle(speed=60.0), CFG.lane(LaneId.A1), t=0).admitted
        assert admit(_vehicle(vid=2, speed=65.0), CFG.lane(LaneId.A2), t=0).admitted

    def test_speed_checked_before_the_gate(self):
        # wrong phase AND bad speed: the speed reason wins
        v = _vehicle(speed=59.0, arrival=1.0)
        decision = admit(v, CFG.lane(LaneId.A1), t=1)
        assert decision.reason is RejectReason.SPEED_OUT_OF_BAND

    def test_closed_gate_rejects(self):
        v = _vehicle(arrival=1.0)
        decision = admit(v, CFG.lane(LaneId.A1), t=1)
        assert decision.reason is RejectReason.GATE_CLOSED

    def test_wrong_second_rejects(self):
        v = _vehicle(arrival=4.0)
        decision = admit(v, CFG.lane(LaneId.A1), t=2)
        assert decision.reason is RejectReason.GATE_CLOSED

    def test_rejected_vehicle_cannot_be_readmitted(self):
        v = _vehicle(speed=59.0)
        admit(v, CFG.lane(LaneId.A1), t=0)
        with pytest.raises(InvalidStateError):
            admit(v, CFG.lane(LaneId.A1), t=0)


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
        with pytest.raises(InvalidStateError):
            exit_second(bad)


class TestFeasibility:
    def test_fits(self):
        assert check_window_feasibility(CapacityWindow((1.0, 1.0, 1.0), 3.0)).feasible

    def test_overflows(self):
        result = check_window_feasibility(CapacityWindow((2.0, 2.0), 3.0))
        assert not result.feasible
        assert result.overflow_s == pytest.approx(1.0)

    def test_line_of_spots_fits_its_crossing_window(self):
        per_spot = SPOT_LENGTH_FT / 91.66667
        window = CapacityWindow((per_spot,) * NUM_SPOTS, 17.1797)
        assert check_window_feasibility(window).feasible

    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityWindow((0.0,), 3.0)
        with pytest.raises(ValueError):
            CapacityWindow((1.0,), 0.0)


class TestIntersectionConfig:
    def test_default_shape(self):
        assert CFG.run_seconds == RUN_SECONDS
        assert [lane.id for lane in CFG.lanes_in_order] == [
            LaneId.A1, LaneId.A2, LaneId.B1, LaneId.B2,
        ]
        for lane in CFG.lanes_in_order:
            assert lane.num_spots == NUM_SPOTS
            assert (lane.min_speed, lane.max_speed) == (60.0, 65.0)

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

    def test_whole_valued_band_edges_are_accepted(self):
        lane = LaneConfig(LaneId.A1, min_speed=61, max_speed=64.0)
        assert (lane.min_speed, lane.max_speed) == (61, 64.0)


class TestBuildDemand:
    def test_average_fills_every_open_slot(self):
        demand = build_demand(CFG, PatternKind.AVERAGE, SeededRng(42))
        for lane in CFG.lanes_in_order:
            d = demand[lane.id]
            assert len(d.scheduled) == 30
            assert d.overflow == []
            assert [int(v.arrival_s) for v in d.scheduled] == list(
                range(lane.phase_parity, 60, 2)
            )
            assert all(v.waiting_s == 0.0 for v in d.scheduled)

    def test_worst_overflows_half(self):
        demand = build_demand(CFG, PatternKind.WORST, SeededRng(42))
        for lane in CFG.lanes_in_order:
            d = demand[lane.id]
            assert len(d.scheduled) == 30
            assert len(d.overflow) == 30
            assert all(v.state is VehicleState.REJECTED for v in d.overflow)
            # the doubled request bumps every later vehicle one slot back
            assert max(v.waiting_s for v in d.scheduled) > 0.0

    def test_random_is_deterministic_and_packs_forward(self):
        a = build_demand(CFG, PatternKind.RANDOM, SeededRng(7))
        b = build_demand(CFG, PatternKind.RANDOM, SeededRng(7))
        for lane in CFG.lanes_in_order:
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
        for lane in CFG.lanes_in_order:
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


def _schedule(demand):
    return {lane_id: d.scheduled for lane_id, d in demand.items()}


class TestRunProdline:
    def test_first_wave_exit_times(self):
        demand = build_demand(CFG, PatternKind.AVERAGE, SeededRng(42))
        records, report = run_prodline(
            CFG, _schedule(demand), rng=SeededRng(42), pattern=PatternKind.AVERAGE
        )
        first_a = next(r for r in records if r.lane is LaneId.A1)
        first_b = next(r for r in records if r.lane is LaneId.B1)
        assert first_a.arrive_s == 0.0 and first_a.exit_s == pytest.approx(STAY, abs=1e-9)
        assert first_b.arrive_s == 1.0 and first_b.exit_s == pytest.approx(1 + STAY, abs=1e-9)
        assert report.admitted == 120 and report.rejected == 0

    def test_crossing_time_is_constant(self):
        demand = build_demand(CFG, PatternKind.RANDOM, SeededRng(9))
        records, _ = run_prodline(CFG, _schedule(demand), rng=SeededRng(9))
        for r in records:
            if r.admitted:
                assert r.exit_s - r.arrive_s == pytest.approx(STAY, abs=1e-12)
                assert r.assigned_speed == 62.5

    def test_paired_lanes_share_the_turn_prediction(self):
        demand = build_demand(CFG, PatternKind.AVERAGE, SeededRng(11))
        records, _ = run_prodline(CFG, _schedule(demand), rng=SeededRng(11))
        by_lane_second = {(r.lane, r.arrive_s): r for r in records}
        for (lane, second), r in by_lane_second.items():
            twin = by_lane_second.get((lane.sibling, second))
            if twin is not None:
                assert r.right_turn == twin.right_turn

    def test_every_admitted_record_has_a_prediction(self):
        demand = build_demand(CFG, PatternKind.RANDOM, SeededRng(3))
        records, _ = run_prodline(CFG, _schedule(demand), rng=SeededRng(3))
        for r in records:
            assert (r.right_turn is not None) == r.admitted

    def test_off_phase_vehicle_is_rejected(self):
        arrivals = {LaneId.A1: [_vehicle(vid=100, arrival=1.0)]}
        records, report = run_prodline(CFG, arrivals, rng=SeededRng(0))
        (rec,) = records
        assert not rec.admitted and rec.exit_s is None and rec.right_turn is None
        assert report.rejected == 1 and report.admitted == 0

    def test_out_of_band_speed_is_rejected(self):
        arrivals = {LaneId.A1: [_vehicle(vid=100, speed=70.0, arrival=0.0)]}
        records, report = run_prodline(CFG, arrivals, rng=SeededRng(0))
        assert not records[0].admitted
        assert report.rejected == 1

    def test_empty_schedule(self):
        records, report = run_prodline(CFG, {}, rng=SeededRng(0))
        assert records == []
        assert report.n_vehicles == 0
        assert report.avg_waiting_s == 0.0

    def test_duplicate_second_in_a_lane_rejected(self):
        arrivals = {
            LaneId.A1: [_vehicle(vid=1, arrival=0.0), _vehicle(vid=2, arrival=0.0)]
        }
        with pytest.raises(ValueError):
            run_prodline(CFG, arrivals, rng=SeededRng(0))

    def test_fractional_arrival_rejected(self):
        arrivals = {LaneId.A1: [_vehicle(vid=1, arrival=0.5)]}
        with pytest.raises(ValueError):
            run_prodline(CFG, arrivals, rng=SeededRng(0))

    def test_waiting_average_comes_from_schedule_delay(self):
        demand = build_demand(CFG, PatternKind.WORST, SeededRng(21))
        records, report = run_prodline(
            CFG, _schedule(demand), rng=SeededRng(21), pattern=PatternKind.WORST
        )
        expected = sum(r.waiting_s for r in records) / len(records)
        assert report.avg_waiting_s == pytest.approx(expected)
        assert report.avg_waiting_s > 0.0

    def test_entry_log_line(self, caplog):
        arrivals = {LaneId.A1: [_vehicle(vid=107, arrival=0.0)]}
        with caplog.at_level(logging.INFO, logger="intersched.prodline"):
            run_prodline(CFG, arrivals, rng=SeededRng(0))
        assert any(
            "Vehicle 107 has entered the intersection through lane [A1] with speed of"
            in message
            for message in caplog.messages
        )


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
        records, _ = run_prodline(CFG, _schedule(demand), rng=SeededRng(13))
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
