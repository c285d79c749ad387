"""Grid placement, crossing-point conflicts, and waiting propagation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from intersched import baseline
from intersched.baseline import (
    BASELINE_SPEED_MPH,
    CELL_FT,
    WAIT_PENALTY_S,
    Direction,
    GridConfig,
    Interval,
    PlacedVehicle,
    apply_conflict_waiting,
    conflict_matrix,
    detect_conflict,
    meeting_events,
    place_vehicles,
    point_occupation_time,
    propagate_waiting,
    run_baseline,
    time_to_arrive,
    verdict_table,
)
from intersched.core import SeededRng, mph_to_fps

CFG = GridConfig()
# every field that shapes the geometry moved off its default
ODD_CFG = GridConfig(cell_ft=10.0, intersection_band=(45, 54), feeder_range=(3, 30))


class TestGridConfig:
    def test_defaults(self):
        assert CFG.intersection_band == (40, 58)
        assert CFG.feeder_range == (1, 38)
        assert CFG.lanes_per_direction == 19
        assert CFG.capacity_per_side == 722
        assert CFG.feeder_len == 38

    def test_feeder_must_end_before_band(self):
        with pytest.raises(ValueError):
            GridConfig(intersection_band=(30, 48), feeder_range=(1, 38))

    def test_capacity_must_match_geometry(self):
        # derived, not set: one car per feeder cell in every lane
        assert ODD_CFG.capacity_per_side == 280
        with pytest.raises(TypeError):
            GridConfig(capacity_per_side=700)

    def test_band_must_match_lane_count(self):
        # derived, not set: one lane per band cell
        assert ODD_CFG.lanes_per_direction == 10
        with pytest.raises(TypeError):
            GridConfig(lanes_per_direction=20)


class TestTiming:
    def test_six_hundred_feet_at_eighty(self):
        assert time_to_arrive(1, 0, mph_to_fps(80.0), cell_ft=600.0) == pytest.approx(
            5.11, abs=0.01
        )

    def test_twenty_five_cells_exact_fps(self):
        t = time_to_arrive(30, 5, mph_to_fps(BASELINE_SPEED_MPH))
        assert t == pytest.approx(4.473869318181818, abs=1e-9)

    def test_zero_distance(self):
        assert time_to_arrive(5, 5, 100.0) == 0.0

    def test_target_behind_current(self):
        with pytest.raises(ValueError):
            time_to_arrive(4, 5, 100.0)

    def test_point_occupation(self):
        assert point_occupation_time(CELL_FT, mph_to_fps(100.0)) == pytest.approx(
            0.178955, abs=1e-6
        )
        assert point_occupation_time(100.0, 100.0) == 1.0


class TestDetectConflict:
    def test_overlap(self):
        assert detect_conflict(Interval(0.0, 2.0), Interval(1.0, 3.0))

    def test_disjoint(self):
        assert not detect_conflict(Interval(0.0, 1.0), Interval(2.0, 3.0))

    def test_shared_endpoint_is_a_conflict(self):
        # closed intervals: touching counts
        assert detect_conflict(Interval(0.0, 1.0), Interval(1.0, 2.0))

    def test_containment(self):
        assert detect_conflict(Interval(0.0, 10.0), Interval(4.0, 5.0))

    @given(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
    )
    def test_symmetric(self, p, q):
        a = Interval(min(p), max(p))
        b = Interval(min(q), max(q))
        assert detect_conflict(a, b) == detect_conflict(b, a)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)


class TestPlacement:
    def test_split_and_ranges(self):
        cars = place_vehicles(CFG, 50, SeededRng(7))
        east = [c for c in cars if c.direction is Direction.EAST]
        south = [c for c in cars if c.direction is Direction.SOUTH]
        assert len(east) == len(south) == 25
        assert cars[:25] == east  # east block first
        for c in east:
            assert 1 <= c.x <= 38 and 40 <= c.y <= 58
        for c in south:
            assert 40 <= c.x <= 58 and 1 <= c.y <= 38

    def test_small_fleet_shares_one_lane_per_direction(self):
        cars = place_vehicles(CFG, 50, SeededRng(7))
        east_rows = {c.y for c in cars[:25]}
        south_cols = {c.x for c in cars[25:]}
        assert len(east_rows) == 1
        assert len(south_cols) == 1
        assert [c.x for c in cars[:25]] == list(range(1, 26))
        assert [c.y for c in cars[25:]] == list(range(1, 26))

    def test_second_lane_opens_after_thirty_eight(self):
        cars = place_vehicles(CFG, 100, SeededRng(3))
        east = cars[:50]
        assert len({c.y for c in east[:38]}) == 1
        assert len({c.y for c in east}) == 2

    def test_ids_sequential(self):
        cars = place_vehicles(CFG, 20, SeededRng(0))
        assert [c.id for c in cars] == list(range(20))

    def test_deterministic(self):
        a = place_vehicles(CFG, 200, SeededRng(11))
        b = place_vehicles(CFG, 200, SeededRng(11))
        assert a == b

    def test_full_capacity_unique_positions(self):
        cars = place_vehicles(CFG, 2 * CFG.capacity_per_side, SeededRng(1))
        east = {(c.x, c.y) for c in cars if c.direction is Direction.EAST}
        south = {(c.x, c.y) for c in cars if c.direction is Direction.SOUTH}
        assert len(east) == 722
        assert len(south) == 722

    def test_rejects_odd_or_oversized(self):
        with pytest.raises(ValueError):
            place_vehicles(CFG, 51, SeededRng(0))
        with pytest.raises(ValueError):
            place_vehicles(CFG, 2 * CFG.capacity_per_side + 2, SeededRng(0))

    def test_zero_cars(self):
        assert place_vehicles(CFG, 0, SeededRng(0)) == []

    @given(st.integers(1, CFG.capacity_per_side), st.integers(0, 2**64 - 1))
    def test_lane_tail_is_the_feeder_offset_plus_one(self, half, seed):
        # the premise behind run_baseline's analytic lane tail
        cars = place_vehicles(CFG, 2 * half, SeededRng(seed))
        lo = CFG.feeder_range[0]
        east, south = cars[:half], cars[half:]
        lane_e, pos_e = np.array([c.y for c in east]), np.array([c.x for c in east])
        lane_s, pos_s = np.array([c.x for c in south]), np.array([c.y for c in south])
        assert np.array_equal(_at_or_behind(lane_e, pos_e), pos_e - lo + 1)
        assert np.array_equal(_at_or_behind(lane_s, pos_s), pos_s - lo + 1)


def _east(car_id, x, y):
    return PlacedVehicle(id=car_id, x=x, y=y, direction=Direction.EAST)


def _south(car_id, x, y):
    return PlacedVehicle(id=car_id, x=x, y=y, direction=Direction.SOUTH)


class TestMeetingEvents:
    def test_crossing_point_and_verdicts(self):
        # east car 14 cells from the crossing column, south cars at varying
        # distances from the crossing row
        cars = [_east(0, 30, 45), _south(1, 44, 31), _south(2, 44, 20)]
        events = meeting_events(cars, CFG)
        assert len(events) == 2
        by_b = {ev.car_b: ev for ev in events}
        assert by_b[1].point == (44, 45)
        assert by_b[1].conflict  # both 14 cells out: identical intervals
        assert not by_b[2].conflict  # 25 vs 14 cells: 11 cells apart

    def test_pair_already_past_produces_no_event(self):
        # south car inside the band (y >= 40) no longer meets an east feeder car
        cars = [_east(0, 30, 45), _south(1, 44, 41)]
        assert meeting_events(cars, CFG) == []

    def test_east_car_beyond_the_column_produces_no_event(self):
        cars = [_east(0, 45, 45), _south(1, 44, 20)]
        assert meeting_events(cars, CFG) == []

    def test_placed_fleet_meets_every_cross_pair(self):
        cars = place_vehicles(CFG, 50, SeededRng(2))
        assert len(meeting_events(cars, CFG)) == 25 * 25

    def test_two_cells_apart_never_conflicts(self):
        cars = [_east(0, 30, 45), _south(1, 44, 29)]
        (ev,) = meeting_events(cars, CFG)
        assert not ev.conflict


class TestWaitingPropagation:
    def test_blocked_car_and_trail_charged(self):
        cars = [_east(0, 5, 45), _east(1, 10, 45), _east(2, 15, 45)]
        propagate_waiting(cars, blocked=1)
        assert [c.waiting_s for c in cars] == [WAIT_PENALTY_S, WAIT_PENALTY_S, 0.0]

    def test_other_lanes_untouched(self):
        cars = [_east(0, 5, 45), _east(1, 5, 46)]
        propagate_waiting(cars, blocked=0)
        assert cars[1].waiting_s == 0.0

    def test_south_trail_uses_column(self):
        cars = [_south(0, 44, 5), _south(1, 44, 10), _south(2, 45, 10)]
        propagate_waiting(cars, blocked=1)
        assert [c.waiting_s for c in cars] == [WAIT_PENALTY_S, WAIT_PENALTY_S, 0.0]

    def test_single_car(self):
        cars = [_east(0, 5, 45)]
        propagate_waiting(cars, blocked=0)
        assert cars[0].waiting_s == WAIT_PENALTY_S

    def test_zero_penalty(self):
        cars = [_east(0, 5, 45)]
        propagate_waiting(cars, blocked=0, penalty_s=0.0)
        assert cars[0].waiting_s == 0.0

    def test_unknown_id(self):
        with pytest.raises(LookupError):
            propagate_waiting([_east(0, 5, 45)], blocked=99)

    def test_conflicting_pair_heads_charged_twice(self):
        # direct hit plus self-inclusive propagation = 2x penalty per head
        cars = [_east(0, 30, 45), _south(1, 44, 31)]
        events = meeting_events(cars, CFG)
        apply_conflict_waiting(cars, events)
        assert cars[0].waiting_s == 2 * WAIT_PENALTY_S
        assert cars[1].waiting_s == 2 * WAIT_PENALTY_S

    def test_trailing_car_charged_once_per_conflict(self):
        cars = [_east(0, 30, 45), _east(1, 10, 45), _south(2, 44, 31)]
        events = meeting_events(cars, CFG)
        conflicts = [ev for ev in events if ev.conflict]
        apply_conflict_waiting(cars, events)
        assert cars[1].waiting_s == len(conflicts) * WAIT_PENALTY_S


# The exact-speed cases below keep the ids they had while a truncated grid
# speed ran beside them as a `True` arm; "False" marks the one speed left.


class TestVectorizedAgreement:
    @pytest.mark.parametrize("seed", [pytest.param(s, id=f"False-{s}") for s in (0, 3, 9)])
    def test_matrix_matches_event_scan(self, seed):
        cars = place_vehicles(CFG, 50, SeededRng(seed))
        east, south = cars[:25], cars[25:]
        mask = conflict_matrix(east, south, CFG)
        events = meeting_events(cars, CFG)
        assert len(events) == mask.size
        for ev in events:
            i = ev.car_a
            j = ev.car_b - 25
            assert bool(mask[i, j]) == ev.conflict

    @pytest.mark.parametrize("seed", [1, 4])
    def test_run_totals_match_pure_python(self, seed):
        n = 50
        child = SeededRng(seed).spawn(0)
        report = run_baseline(CFG, n, runs=1, rng=SeededRng(seed))

        cars = place_vehicles(CFG, n, child)
        events = meeting_events(cars, CFG)
        apply_conflict_waiting(cars, events)
        n_conflicts = sum(1 for ev in events if ev.conflict)
        total_waiting = sum(c.waiting_s for c in cars)
        # the error count doubles per-direction; apply_conflict_waiting already
        # charges both sides of each event, so its total needs no doubling
        assert report.collisions_per_vehicle == pytest.approx(
            (2 * n_conflicts / 2) / n, abs=1e-12
        )
        assert report.avg_waiting_s == pytest.approx((total_waiting / 2) / n, rel=1e-12)


def _at_or_behind(lane, pos):
    """Per car: the cars in its own lane at or behind it, itself included."""
    return ((lane[None, :] == lane[:, None]) & (pos[None, :] <= pos[:, None])).sum(axis=1)


def _oracle_conflict_matrix(east, south, cfg):
    """Every pair's occupancy intervals evaluated on float (n_east, n_south)
    arrays: the kernel `conflict_matrix` replaced with a table lookup."""
    fps = mph_to_fps(BASELINE_SPEED_MPH)
    ex = np.array([c.x for c in east], dtype=np.float64)
    ey = np.array([c.y for c in east], dtype=np.float64)
    sx = np.array([c.x for c in south], dtype=np.float64)
    sy = np.array([c.y for c in south], dtype=np.float64)
    arrive_e = (sx[None, :] - ex[:, None]) * cfg.cell_ft / fps
    arrive_s = (ey[:, None] - sy[None, :]) * cfg.cell_ft / fps
    leave_e = arrive_e + cfg.cell_ft / fps
    leave_s = arrive_s + cfg.cell_ft / fps
    return ~((arrive_e > leave_s) | (leave_e < arrive_s))


def _oracle_run_single(cfg, n, rng):
    """One run with the oracle mask and the lane tails counted pairwise."""
    cars = place_vehicles(cfg, n, rng)
    east, south = cars[: n // 2], cars[n // 2 :]
    if not east or not south:
        return 0, 0.0
    mask = _oracle_conflict_matrix(east, south, cfg)
    behind_e = _at_or_behind(np.array([c.y for c in east]), np.array([c.x for c in east]))
    behind_s = _at_or_behind(np.array([c.x for c in south]), np.array([c.y for c in south]))
    conflicts_e = mask.sum(axis=1)
    conflicts_s = mask.sum(axis=0)
    errors = 2 * int(mask.sum())
    total_waiting = WAIT_PENALTY_S * (
        float(conflicts_e @ (1 + behind_e)) + float(conflicts_s @ (1 + behind_s))
    )
    return errors, total_waiting


ORACLE_CASES = [pytest.param(CFG, n, id=f"default-{n}-False") for n in (2, 50, 724, 1444)] + [
    pytest.param(ODD_CFG, n, id=f"odd-{n}-False") for n in (2, 50, 280, 560)
]


class TestOracleAgreement:
    @pytest.mark.parametrize("cfg, n", ORACLE_CASES)
    def test_mask_matches_float_broadcast(self, cfg, n):
        for seed in (0, 5, 42):
            cars = place_vehicles(cfg, n, SeededRng(seed))
            east, south = cars[: n // 2], cars[n // 2 :]
            mask = conflict_matrix(east, south, cfg)
            assert mask.dtype == bool and mask.shape == (n // 2, n // 2)
            assert np.array_equal(mask, _oracle_conflict_matrix(east, south, cfg))

    @pytest.mark.parametrize("cfg, n", ORACLE_CASES)
    def test_reports_match_by_repr(self, cfg, n, monkeypatch):
        report = run_baseline(cfg, n, runs=3, rng=SeededRng(n))
        monkeypatch.setattr(baseline, "_run_single", _oracle_run_single)
        oracle = run_baseline(cfg, n, runs=3, rng=SeededRng(n))
        assert repr(report) == repr(oracle)

    @pytest.mark.parametrize(
        "east, south",
        [
            ([_east(0, 45, 45)], [_south(1, 44, 20)]),  # east car past the column
            ([_east(0, 0, 45)], [_south(1, 44, 20)]),  # before the feeder starts
            ([_east(0, 30, 39)], [_south(1, 44, 20)]),  # row outside the band
            ([_east(0, 30, 45)], [_south(1, 44, 41)]),  # south car inside the band
            ([_east(0, 30, 45)], [_south(1, 59, 20)]),  # column outside the band
        ],
    )
    def test_cars_outside_their_rectangle_are_rejected(self, east, south):
        with pytest.raises(ValueError, match="lies outside"):
            conflict_matrix(east, south, CFG)


class TestVerdictTable:
    @pytest.mark.parametrize("misses", [pytest.param(20, id="False-20")])
    def test_float_rule_misses_touching_cells(self, misses):
        # With one speed the closed intervals overlap exactly when the two
        # distances differ by at most 1. The float table agrees except where
        # they differ by exactly 1 and the intervals only touch: there
        # rounding decides, and some touching pairs read "no conflict".
        table = verdict_table(CFG)
        shortest = CFG.intersection_band[0] - CFG.feeder_range[1]
        longest = CFG.intersection_band[1] - CFG.feeder_range[0]
        d = np.arange(shortest, longest + 1)
        reachable = table[np.ix_(d, d)]
        assert reachable.shape == (56, 56)
        gap = np.abs(d[:, None] - d[None, :])
        exact = gap <= 1
        touching = gap == 1
        assert np.array_equal(reachable[~touching], exact[~touching])
        assert not (reachable & ~exact).any()
        assert touching.sum() == 110
        assert np.count_nonzero(~reachable[touching]) == misses

    def test_cached_and_read_only(self):
        table = verdict_table(CFG)
        assert verdict_table(GridConfig()) is table
        with pytest.raises(ValueError):
            table[0, 0] = False


class TestRunBaseline:
    def test_deterministic(self):
        a = run_baseline(CFG, 50, runs=5, rng=SeededRng(8))
        b = run_baseline(CFG, 50, runs=5, rng=SeededRng(8))
        assert a == b

    def test_fields(self):
        report = run_baseline(CFG, 50, runs=2, rng=SeededRng(0))
        assert report.n_vehicles == 50
        assert report.runs == 2
        assert report.collisions_per_vehicle >= 0.0
        assert report.avg_waiting_s >= 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            run_baseline(CFG, 51, runs=1, rng=SeededRng(0))
        with pytest.raises(ValueError):
            run_baseline(CFG, 50, runs=0, rng=SeededRng(0))

    def test_congestion_grows_with_fleet_size(self):
        rng = SeededRng(8)
        small = run_baseline(CFG, 50, runs=20, rng=rng.spawn(0))
        large = run_baseline(CFG, 200, runs=20, rng=rng.spawn(1))
        assert small.collisions_per_vehicle < large.collisions_per_vehicle
        assert small.avg_waiting_s < large.avg_waiting_s

    def test_first_run_loads_numpy_in_a_fresh_interpreter(self):
        # importing the grid model leaves numpy unloaded; its first run loads
        # it and gives the report this interpreter computes
        src = Path(baseline.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import sys\n"
            "from intersched.baseline import GridConfig, run_baseline\n"
            "from intersched.core import SeededRng\n"
            "print('numpy' in sys.modules)\n"
            "print(repr(run_baseline(GridConfig(), 100, 3, SeededRng(5))))\n"
            "print('numpy' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        report = run_baseline(CFG, 100, runs=3, rng=SeededRng(5))
        assert result.stdout == f"False\n{report!r}\nTrue\n"
