"""Grid placement, crossing-point conflicts, and waiting propagation."""

import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from intersched import baseline
from intersched.baseline import (
    BASELINE_SPEED_MPH,
    CELL_FT,
    WAIT_PENALTY_S,
    ConflictTotals,
    Direction,
    GridConfig,
    Interval,
    PlacedVehicle,
    Placement,
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

    @pytest.mark.parametrize("cell_ft", [float("inf"), 1e308])
    def test_crossing_times_must_be_finite(self, cell_ft):
        # infinite times would reach the first run as a malformed interval
        with pytest.raises(ValueError, match="cell_ft"):
            GridConfig(cell_ft=cell_ft)

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
        cars = place_vehicles(CFG, 50, SeededRng(7)).cars
        east = [c for c in cars if c.direction is Direction.EAST]
        south = [c for c in cars if c.direction is Direction.SOUTH]
        assert len(east) == len(south) == 25
        assert cars[:25] == east  # east block first
        for c in east:
            assert 1 <= c.x <= 38 and 40 <= c.y <= 58
        for c in south:
            assert 40 <= c.x <= 58 and 1 <= c.y <= 38

    def test_small_fleet_shares_one_lane_per_direction(self):
        cars = place_vehicles(CFG, 50, SeededRng(7)).cars
        east_rows = {c.y for c in cars[:25]}
        south_cols = {c.x for c in cars[25:]}
        assert len(east_rows) == 1
        assert len(south_cols) == 1
        assert [c.x for c in cars[:25]] == list(range(1, 26))
        assert [c.y for c in cars[25:]] == list(range(1, 26))

    def test_second_lane_opens_after_thirty_eight(self):
        cars = place_vehicles(CFG, 100, SeededRng(3)).cars
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
        assert place_vehicles(CFG, 0, SeededRng(0)).cars == []

    def test_lane_orders_are_the_two_shuffles(self):
        placement = place_vehicles(CFG, 100, SeededRng(3))
        rng = SeededRng(3)
        rows, cols = list(range(40, 59)), list(range(40, 59))
        rng.shuffle(rows)
        rng.shuffle(cols)
        assert placement == Placement(CFG, 100, tuple(rows), tuple(cols))
        assert [c.y for c in placement.cars[:50]] == [rows[0]] * 38 + [rows[1]] * 12
        assert [c.x for c in placement.cars[50:]] == [cols[0]] * 38 + [cols[1]] * 12

    def test_iterating_twice_gives_the_same_cars(self):
        placement = place_vehicles(CFG, 50, SeededRng(7))
        first, second = list(placement), list(placement)
        assert len(first) == len(second) == 50
        assert all(a is b for a, b in zip(first, second))

    @given(st.integers(1, CFG.capacity_per_side), st.integers(0, 2**64 - 1))
    def test_lane_tail_is_the_feeder_offset_plus_one(self, half, seed):
        # the premise behind run_baseline's analytic lane tail
        cars = place_vehicles(CFG, 2 * half, SeededRng(seed)).cars
        lo = CFG.feeder_range[0]
        east, south = cars[:half], cars[half:]
        assert _at_or_behind([(c.y, c.x) for c in east]) == [c.x - lo + 1 for c in east]
        assert _at_or_behind([(c.x, c.y) for c in south]) == [c.y - lo + 1 for c in south]


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
        assert by_b[1].conflict  # both 14 cells out: identical intervals
        assert not by_b[2].conflict  # 25 vs 14 cells: 11 cells apart

    def test_pair_already_past_produces_no_event(self):
        # south car inside the band (y >= 40) no longer meets an east feeder car
        cars = [_east(0, 30, 45), _south(1, 44, 41)]
        assert meeting_events(cars, CFG) == []

    def test_east_car_beyond_the_column_produces_no_event(self):
        cars = [_east(0, 45, 45), _south(1, 44, 20)]
        assert meeting_events(cars, CFG) == []

    def test_east_car_outside_the_band_rows_produces_no_event(self):
        # the south car approaches the band column; the east car's row (35)
        # lies outside the band, so their paths never cross inside it
        cars = [_east(0, 30, 35), _south(1, 44, 20)]
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
        # with a unit penalty every car's waiting is a whole number of
        # charges, so the oracle's float total is exact
        cars = place_vehicles(CFG, 50, SeededRng(seed))
        totals = conflict_matrix(cars)
        events = meeting_events(cars, CFG)
        apply_conflict_waiting(cars, events, penalty_s=1.0)
        charge = sum(c.waiting_s for c in cars)
        assert charge == int(charge)
        assert totals == ConflictTotals(len(events), sum(ev.conflict for ev in events), int(charge))
        assert (totals.size, totals.sum()) == (totals.pairs, totals.conflicts)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_run_totals_match_pure_python(self, seed):
        n = 50
        child = SeededRng(seed).spawn(0)
        report = run_baseline(CFG, n, runs=1, rng=SeededRng(seed))

        # the oracle runs on the placement itself, as the grid precheck does:
        # every pass over it sees the same car objects
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


def _at_or_behind(cars):
    """Per car, given as (lane, position): the cars in its own lane at or
    behind it, itself included, counted pairwise."""
    by_lane = defaultdict(list)
    for lane, pos in cars:
        by_lane[lane].append(pos)
    return [sum(p <= pos for p in by_lane[lane]) for lane, pos in cars]


def _oracle_conflict_matrix(east, south, cfg):
    """Every pair's occupancy intervals evaluated in floats, one row per east
    car: the pairwise test `verdict_table` replaced."""
    fps = mph_to_fps(BASELINE_SPEED_MPH)
    occ = cfg.cell_ft / fps
    rows = []
    for a in east:
        row = []
        for b in south:
            arrive_e = (b.x - a.x) * cfg.cell_ft / fps
            arrive_s = (a.y - b.y) * cfg.cell_ft / fps
            row.append(not (arrive_e > arrive_s + occ or arrive_e + occ < arrive_s))
        rows.append(row)
    return rows


def _oracle_pairs(placement):
    """The oracle mask, and each car's charge per conflict (1 + the cars at
    or behind it, counted pairwise) for the east and the south cars."""
    half = placement.n // 2
    east, south = placement.cars[:half], placement.cars[half:]
    weight_e = [1 + k for k in _at_or_behind([(c.y, c.x) for c in east])]
    weight_s = [1 + k for k in _at_or_behind([(c.x, c.y) for c in south])]
    return _oracle_conflict_matrix(east, south, placement.cfg), weight_e, weight_s


def _oracle_totals(placement):
    """`ConflictTotals` summed pair by pair over the oracle mask."""
    mask, weight_e, weight_s = _oracle_pairs(placement)
    conflicts = charge = 0
    for w_e, row in zip(weight_e, mask):
        for w_s, conflict in zip(weight_s, row):
            if conflict:
                conflicts += 1
                charge += w_e + w_s
    return ConflictTotals(len(weight_e) * len(weight_s), conflicts, charge)


def _oracle_run_single(cfg, n, rng):
    """One run from the oracle mask, its waiting summed per direction."""
    mask, weight_e, weight_s = _oracle_pairs(place_vehicles(cfg, n, rng))
    conflicts_e = [sum(row) for row in mask]
    conflicts_s = [sum(column) for column in zip(*mask)]
    total_waiting = WAIT_PENALTY_S * (
        float(sum(k * w for k, w in zip(conflicts_e, weight_e)))
        + float(sum(k * w for k, w in zip(conflicts_s, weight_s)))
    )
    return sum(conflicts_e), total_waiting


ORACLE_CASES = [pytest.param(CFG, n, id=f"default-{n}-False") for n in (2, 50, 724, 1444)] + [
    pytest.param(ODD_CFG, n, id=f"odd-{n}-False") for n in (2, 50, 280, 560)
]


class TestOracleAgreement:
    @pytest.mark.parametrize("cfg, n", ORACLE_CASES)
    def test_mask_matches_float_broadcast(self, cfg, n):
        for seed in (0, 5, 42):
            placement = place_vehicles(cfg, n, SeededRng(seed))
            assert conflict_matrix(placement) == _oracle_totals(placement)

    @pytest.mark.parametrize("cfg", [pytest.param(CFG, id="default"), pytest.param(ODD_CFG, id="odd")])
    @settings(deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**64 - 1))
    def test_every_even_n_matches_the_oracle(self, cfg, data, seed):
        # any even n from 0 to capacity: full and partial lanes of both
        # directions meet in every combination
        n = 2 * data.draw(st.integers(0, cfg.capacity_per_side), label="n / 2")
        placement = place_vehicles(cfg, n, SeededRng(seed))
        assert conflict_matrix(placement) == _oracle_totals(placement)

    @pytest.mark.parametrize("cfg, n", ORACLE_CASES)
    def test_reports_match_by_repr(self, cfg, n, monkeypatch):
        report = run_baseline(cfg, n, runs=3, rng=SeededRng(n))
        monkeypatch.setattr(baseline, "_run_single", _oracle_run_single)
        oracle = run_baseline(cfg, n, runs=3, rng=SeededRng(n))
        assert repr(report) == repr(oracle)


BAND = tuple(range(40, 59))
ROW_39 = (39,) + BAND[1:]
COL_59 = BAND[:-1] + (59,)
ROW_40_TWICE = (40,) + BAND[:-1]


class TestPlacementValidation:
    """A placement checks its own invariants, so every car it implies lies in
    its feeder x band rectangle and `conflict_matrix` needs no check."""

    @pytest.mark.parametrize(
        "n, rows, cols, text",
        [
            pytest.param(50, ROW_39, BAND, f"east_rows {ROW_39} is not an order of the band", id="row-outside-band"),
            pytest.param(50, BAND, COL_59, f"south_cols {COL_59} is not an order of the band", id="column-outside-band"),
            pytest.param(50, ROW_40_TWICE, BAND, f"east_rows {ROW_40_TWICE} is not an order of the band", id="repeated-lane"),
            pytest.param(50, BAND, BAND[:-1], f"south_cols {BAND[:-1]} is not an order of the band", id="too-few-lanes"),
            pytest.param(51, BAND, BAND, "n must be even and >= 0, got 51", id="odd-n"),
            pytest.param(1446, BAND, BAND, "n=1446 exceeds capacity 1444", id="oversized-n"),
        ],
    )
    def test_rejects(self, n, rows, cols, text):
        # the whole text: an order outside the band is named as given
        with pytest.raises(ValueError) as err:
            Placement(CFG, n, rows, cols)
        assert str(err.value) == text

    def test_grid_runs_build_no_cars(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid run built a PlacedVehicle")

        report = run_baseline(CFG, 1444, 2, SeededRng(1))
        monkeypatch.setattr(baseline, "PlacedVehicle", refuse)
        assert run_baseline(CFG, 1444, 2, SeededRng(1)) == report


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
        reachable = [(a, b) for a in range(shortest, longest + 1) for b in range(shortest, longest + 1)]
        assert len(reachable) == 56 * 56
        touching = [(a, b) for a, b in reachable if abs(a - b) == 1]
        assert all(table[a][b] == (abs(a - b) <= 1) for a, b in reachable if abs(a - b) != 1)
        assert len(touching) == 110
        assert sum(not table[a][b] for a, b in touching) == misses

    def test_cached_and_read_only(self):
        table = verdict_table(CFG)
        assert verdict_table(GridConfig()) is table
        assert isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)
        with pytest.raises(TypeError):
            table[0][0] = False


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

    def test_full_capacity_does_not_depend_on_the_seed(self):
        # every lane is full, so the lane orders only relabel rows and columns
        reports = {repr(run_baseline(CFG, 1444, 1, SeededRng(s))) for s in (0, 1, 42, 60317, 2**63)}
        assert len(reports) == 1
        below = {repr(run_baseline(CFG, 1442, 1, SeededRng(s))) for s in (0, 1, 42, 60317, 2**63)}
        assert len(below) > 1

    def test_first_run_loads_numpy_in_a_fresh_interpreter(self):
        # named for the numpy kernel the grid model once loaded lazily; it now
        # loads no numpy at all: importing it builds no table, its first run
        # builds the verdict sums, and the report equals this interpreter's
        src = Path(baseline.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import sys\n"
            "from intersched import baseline\n"
            "from intersched.baseline import GridConfig, run_baseline\n"
            "from intersched.core import SeededRng\n"
            "print('numpy' in sys.modules, baseline._verdict_sums.cache_info().currsize)\n"
            "print(repr(run_baseline(GridConfig(), 100, 3, SeededRng(5))))\n"
            "print('numpy' in sys.modules, baseline._verdict_sums.cache_info().currsize)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        report = run_baseline(CFG, 100, runs=3, rng=SeededRng(5))
        assert result.stdout == f"False 0\n{report!r}\nFalse 1\n"

    def test_congestion_grows_with_fleet_size(self):
        rng = SeededRng(8)
        small = run_baseline(CFG, 50, runs=20, rng=rng.spawn(0))
        large = run_baseline(CFG, 200, runs=20, rng=rng.spawn(1))
        assert small.collisions_per_vehicle < large.collisions_per_vehicle
        assert small.avg_waiting_s < large.avg_waiting_s
