"""Demand patterns, the arranged queue, and overflow percentages."""

import pytest
from hypothesis import given, strategies as st

from intersched.core import SeededRng
from intersched.flows import (
    LANE_CAPACITY,
    QUEUE_SLOT_S,
    PatternKind,
    arranged_wait,
    generate_arrivals,
    waiting_pct,
)


class TestGenerateArrivals:
    def test_average_fills_every_open_second(self):
        assert generate_arrivals(PatternKind.AVERAGE, 60, SeededRng(0)) == list(range(0, 60, 2))
        assert generate_arrivals(PatternKind.AVERAGE, 60, SeededRng(0), parity=1) == list(range(1, 60, 2))

    def test_worst_doubles_every_open_second(self):
        arrivals = generate_arrivals(PatternKind.WORST, 60, SeededRng(0))
        assert len(arrivals) == 60
        assert arrivals[:4] == [0, 0, 2, 2]
        assert arrivals.count(58) == 2

    def test_deterministic_patterns_ignore_the_rng(self):
        for kind in (PatternKind.AVERAGE, PatternKind.WORST):
            assert generate_arrivals(kind, 60, SeededRng(1)) == generate_arrivals(kind, 60, SeededRng(999))

    def test_random_is_seed_deterministic(self):
        a = generate_arrivals(PatternKind.RANDOM, 720, SeededRng(42))
        b = generate_arrivals(PatternKind.RANDOM, 720, SeededRng(42))
        assert a == b
        assert a != generate_arrivals(PatternKind.RANDOM, 720, SeededRng(43))

    def test_random_slots_in_range_and_increasing(self):
        arrivals = generate_arrivals(PatternKind.RANDOM, 720, SeededRng(7))
        assert all(0 <= s < 720 for s in arrivals)
        assert arrivals == sorted(set(arrivals))

    def test_random_count_near_half(self):
        # Binomial(720, 0.5): 3 sigma is about 40
        arrivals = generate_arrivals(PatternKind.RANDOM, 720, SeededRng(5))
        assert 320 <= len(arrivals) <= 400

    def test_horizon_validation(self):
        for kind in PatternKind:
            with pytest.raises(ValueError, match="horizon must be > 0, got 0"):
                generate_arrivals(kind, 0, SeededRng(0))


class TestArrangedWait:
    def test_on_time_arrivals_wait_nothing(self):
        waits = arranged_wait(list(range(0, 120, 2)), take_first=60)
        assert waits == [0.0] * 60
        assert sum(waits) / len(waits) == 0.0

    def test_bunched_arrivals(self):
        # served at positions 0, 2, 4, 6
        waits = arranged_wait([0, 1, 2, 3], take_first=4)
        assert waits == pytest.approx([0.0, 5.588, 11.176, 16.764])
        assert sum(waits) / len(waits) == pytest.approx(8.382, abs=1e-3)

    def test_late_arrival_never_credited(self):
        # third vehicle shows up past its position; wait clamps at zero
        assert arranged_wait([0, 1, 9], take_first=3) == [0.0, QUEUE_SLOT_S, 0.0]

    def test_take_first_truncates(self):
        arrivals = [0, 1, 2, 3]
        assert len(arranged_wait(arrivals, take_first=2)) == 2
        assert arrivals == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "arrivals,take",
        [([], 1), ([3, 3], 2), ([5, 2], 2), ([-1, 0], 2), ([0, 1], 3), ([0, 1], 0)],
    )
    def test_rejects_bad_input(self, arrivals, take):
        with pytest.raises(ValueError):
            arranged_wait(arrivals, take_first=take)

    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=40, unique=True),
        st.integers(min_value=0, max_value=30),
    )
    def test_delaying_arrivals_never_increases_waits(self, slots, delay):
        arrivals = sorted(slots)
        base = arranged_wait(arrivals, take_first=len(arrivals))
        shifted = arranged_wait([a + delay for a in arrivals], take_first=len(arrivals))
        for w0, w1 in zip(base, shifted):
            assert w1 <= w0

    def test_waits_are_position_rule_literal(self):
        arrivals = [0, 1, 2, 5, 6, 11, 12, 30]
        waits = arranged_wait(arrivals, take_first=len(arrivals))
        for i, (arr, wait) in enumerate(zip(arrivals, waits)):
            assert wait == max(0, 2 * i - arr) * QUEUE_SLOT_S


class TestPercentages:
    @pytest.mark.parametrize(
        "n,pct",
        [(0, 0.0), (30, 0.0), (37, 23.333333333333332), (45, 50.0), (60, 100.0)],
    )
    def test_waiting_pct(self, n, pct):
        assert waiting_pct(n) == pytest.approx(pct)

    def test_waiting_pct_validation(self):
        with pytest.raises(ValueError):
            waiting_pct(-1)
        with pytest.raises(ValueError):
            waiting_pct(10, capacity=0)

    def test_extra_space_fixed_patterns(self):
        # extra space is the realized demand against the open slots: average
        # fills them exactly and worst doubles them, at any window length
        for horizon in (1, 2, 60, 61, 399):
            for parity in (0, 1):
                slots = len(range(parity, horizon, 2))
                if slots == 0:
                    continue
                requests = {
                    kind: len(generate_arrivals(kind, horizon, SeededRng(0), parity))
                    for kind in (PatternKind.AVERAGE, PatternKind.WORST)
                }
                assert waiting_pct(requests[PatternKind.AVERAGE], slots) == 0.0
                assert waiting_pct(requests[PatternKind.WORST], slots) == 100.0

    def test_extra_space_random_uses_realized_count(self):
        assert waiting_pct(37) == pytest.approx(23.33, abs=0.01)
        assert waiting_pct(20) == 0.0

    def test_default_capacity_is_one_lane_window(self):
        assert LANE_CAPACITY == 30
