"""Unit conversions, the seeded RNG, and the vehicle record."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from intersched.core import (
    LaneId,
    SeededRng,
    Vehicle,
    mph_to_fps,
    mph_to_fps_truncated,
    validate_features,
)
from intersched.prodline import LaneConfig, admit


class TestConversions:
    def test_assigned_speed_fps(self):
        assert mph_to_fps(62.5) == pytest.approx(91.66667, abs=5e-6)

    def test_grid_speed_fps(self):
        assert mph_to_fps(100.0) == pytest.approx(146.6667, abs=1e-3)

    @pytest.mark.parametrize(
        "mph,fps",
        [(100.0, 146.0), (62.5, 91.0), (1.0, 1.0), (60.0, 88.0)],
    )
    def test_truncated_fps(self, mph, fps):
        # double integer division: floor(ft/min) then floor(ft/s)
        assert mph_to_fps_truncated(mph) == fps

    def test_truncated_is_a_float(self):
        assert isinstance(mph_to_fps_truncated(100.0), float)

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            mph_to_fps(bad)
        with pytest.raises(ValueError):
            mph_to_fps_truncated(bad)

    @given(st.floats(min_value=0.5, max_value=500.0, allow_nan=False))
    def test_truncation_never_exceeds_exact(self, mph):
        exact = mph_to_fps(mph)
        trunc = mph_to_fps_truncated(mph)
        assert trunc <= exact
        # each of the two floors discards less than one unit
        assert exact - trunc < 1.0 + 1.0 / 60.0


class TestSeededRng:
    def test_same_seed_same_sequence(self):
        a = SeededRng(7)
        b = SeededRng(7)
        assert [a.rand_int(0, 99) for _ in range(50)] == [b.rand_int(0, 99) for _ in range(50)]

    def test_different_seeds_diverge(self):
        a = [SeededRng(1).rand_int(0, 99) for _ in range(20)]
        b = [SeededRng(2).rand_int(0, 99) for _ in range(20)]
        assert a != b

    def test_rand_int_bounds_inclusive(self):
        rng = SeededRng(3)
        draws = {rng.rand_int(0, 2) for _ in range(200)}
        assert draws == {0, 1, 2}

    def test_rand_int_degenerate(self):
        assert SeededRng(0).rand_int(5, 5) == 5

    def test_rand_int_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            SeededRng(0).rand_int(2, 1)

    def test_coin_is_roughly_fair(self):
        rng = SeededRng(123)
        n = 100_000
        mean = sum(rng.rand_int(0, 1) for _ in range(n)) / n
        assert abs(mean - 0.5) < 0.01

    def test_shuffle_deterministic(self):
        xs = list(range(10))
        ys = list(range(10))
        SeededRng(42).shuffle(xs)
        SeededRng(42).shuffle(ys)
        assert xs == ys
        assert sorted(xs) == list(range(10))

    def test_spawn_is_pure_function_of_seed_and_index(self):
        parent = SeededRng(99)
        parent.rand_int(0, 10)  # drawing must not affect children
        child_a = parent.spawn(4)
        child_b = SeededRng(99).spawn(4)
        assert child_a.seed == child_b.seed
        assert [child_a.rand_int(0, 9) for _ in range(10)] == [
            child_b.rand_int(0, 9) for _ in range(10)
        ]

    def test_spawn_children_distinct(self):
        parent = SeededRng(5)
        seeds = {parent.spawn(i).seed for i in range(100)}
        assert len(seeds) == 100
        assert parent.seed not in seeds

    def test_spawn_rejects_negative_index(self):
        with pytest.raises(ValueError):
            SeededRng(0).spawn(-1)


class TestLaneId:
    @pytest.mark.parametrize(
        "lane,group,primary,sibling",
        [
            (LaneId.A1, "A", True, LaneId.A2),
            (LaneId.A2, "A", False, LaneId.A1),
            (LaneId.B1, "B", True, LaneId.B2),
            (LaneId.B2, "B", False, LaneId.B1),
        ],
    )
    def test_pairing(self, lane, group, primary, sibling):
        assert lane.group == group
        assert lane.is_primary is primary
        assert lane.sibling is sibling


class TestFeatures:
    @pytest.mark.parametrize("ok", [(1, 0, 0), (5, 23, 1), (3, 12, 0)])
    def test_valid(self, ok):
        validate_features(ok)

    @pytest.mark.parametrize(
        "bad",
        [(0, 10, 0), (6, 10, 0), (1, -1, 0), (1, 24, 0), (1, 10, 2), (1, 10), (1.0, 10, 0)],
    )
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            validate_features(bad)


class TestVehicle:
    def _vehicle(self):
        return Vehicle(id=1, lane=LaneId.A1, speed_mph=63.0, arrival_s=4.0)

    def test_admission_path(self):
        # the assigned speed lives in the decision; the vehicle keeps its own
        v = self._vehicle()
        decision = admit(v, LaneConfig(LaneId.A1))
        assert decision.admitted and decision.assigned_speed == 62.5
        assert v == self._vehicle()

    def test_rejection_path(self):
        v = self._vehicle()
        assert not admit(v, LaneConfig(LaneId.A1, min_speed=64)).admitted
        assert v == self._vehicle()

    def test_fields_cannot_be_reassigned(self):
        v = self._vehicle()
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.speed_mph = 62.5

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Vehicle(id=1, lane=LaneId.A1, speed_mph=0.0, arrival_s=0.0)
        with pytest.raises(ValueError):
            Vehicle(id=1, lane=LaneId.A1, speed_mph=60.0, arrival_s=-1.0)
        with pytest.raises(ValueError):
            Vehicle(id=1, lane=LaneId.A1, speed_mph=60.0, arrival_s=0.0, features=(9, 9, 9))
