"""Unit conversions, the seeded RNG, and the vehicle record."""

import dataclasses
import math

import pytest

from intersched.core import (
    LaneId,
    SeededRng,
    Vehicle,
    mph_to_fps,
    validate_features,
)
from intersched.flows import PatternKind
from intersched.prodline import IntersectionConfig, LaneConfig, admit, run_prodline
from intersched.turns import InstanceStore, TurnPredictor, knn_predict, seed_instances


class TestConversions:
    def test_assigned_speed_fps(self):
        assert mph_to_fps(62.5) == pytest.approx(91.66667, abs=5e-6)

    def test_grid_speed_fps(self):
        assert mph_to_fps(100.0) == pytest.approx(146.6667, abs=1e-3)

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            mph_to_fps(bad)


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
        return Vehicle(id=1, lane=LaneId.A1, speed_mph=63.0, arrival_s=4.0, features=(1, 9, 0))

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
            Vehicle(id=1, lane=LaneId.A1, speed_mph=0.0, arrival_s=0.0, features=(1, 9, 0))
        with pytest.raises(ValueError):
            Vehicle(id=1, lane=LaneId.A1, speed_mph=60.0, arrival_s=-1.0, features=(1, 9, 0))
        with pytest.raises(ValueError):
            Vehicle(id=1, lane=LaneId.A1, speed_mph=60.0, arrival_s=0.0, features=(9, 9, 9))
        with pytest.raises(TypeError):
            Vehicle(id=1, lane=LaneId.A1, speed_mph=60.0, arrival_s=0.0)  # features are required


def _car(vid=1, lane=LaneId.A1, speed=63.0, arrival=0.0, waiting=0.0, features=(1, 9, 0)):
    return Vehicle(id=vid, lane=lane, speed_mph=speed, arrival_s=arrival, features=features, waiting_s=waiting)


def _schedule(arrivals):
    cfg = IntersectionConfig.default()
    return run_prodline(cfg, arrivals, TurnPredictor(), SeededRng(1), pattern=PatternKind.AVERAGE)


class TestCheckMessages:
    """The checks made once per vehicle, draw or query raise these exact texts."""

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: validate_features((1, 9)), "features must be (day, hour, event), got (1, 9)",
                         id="features-length"),
            pytest.param(lambda: validate_features((1, 9.0, 0)), "features must be ints, got (1, 9.0, 0)",
                         id="features-ints"),
            pytest.param(lambda: validate_features((6, 9, 0)), "day must be in 1..5, got 6", id="features-day"),
            pytest.param(lambda: validate_features((1, 24, 0)), "hour must be in 0..23, got 24", id="features-hour"),
            pytest.param(lambda: validate_features((1, 9, 2)), "event must be 0 or 1, got 2", id="features-event"),
            pytest.param(lambda: _car(speed=math.nan), "speed_mph must be positive and finite, got nan",
                         id="vehicle-speed"),
            pytest.param(lambda: _car(arrival=-1.0), "arrival_s must be >= 0, got -1.0", id="vehicle-arrival"),
            pytest.param(lambda: _car(waiting=-0.5), "waiting_s must be >= 0, got -0.5", id="vehicle-waiting"),
            pytest.param(lambda: SeededRng(0).rand_int(3, 2), "empty range: low=3 > high=2", id="rand-int-range"),
            pytest.param(lambda: knn_predict((1, 9, 0), InstanceStore(seed_instances()), 0), "k must be >= 1, got 0",
                         id="knn-k"),
            pytest.param(lambda: knn_predict((1, 9, 0), InstanceStore(seed_instances()[:2])),
                         "store has 2 instances, need at least k=3", id="knn-store-size"),
            pytest.param(lambda: _schedule({LaneId.A2: [_car(vid=7)]}),
                         "vehicle 7 is scheduled on lane A2 but belongs to lane A1", id="schedule-lane"),
            pytest.param(lambda: _schedule({LaneId.A1: [_car(arrival=1.5)]}),
                         "lane A1: arrival 1.5 outside whole seconds 0..59", id="schedule-whole-second"),
            pytest.param(lambda: _schedule({LaneId.A1: [_car(vid=1, arrival=2.0), _car(vid=2, arrival=2.0)]}),
                         "lane A1: two vehicles scheduled at second 2", id="schedule-duplicate-second"),
        ],
    )
    def test_message_text(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    def test_bool_features_are_ints(self):
        validate_features((True, 9, False))
