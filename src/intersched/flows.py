"""Traffic demand patterns and the arranged-queue waiting model.

Three demand shapes feed the slot scheduler: average (demand exactly fills
the open slots), worst (double demand), and random (a fair coin per slot).
The standalone queue experiment arranges randomly-arriving vehicles into
every-other-slot service positions and prices each vehicle's delay at
5.5880 s per slot; `arranged_wait` returns those per-vehicle waits.
Extra lane space is not a property of a pattern: `waiting_pct` computes it
from the requests a run realized against the slots it had open.
"""

from __future__ import annotations

from enum import Enum

from .core import SeededRng, _require

# One service slot opens every second service tick; a slot is worth this many
# seconds of waiting when a vehicle is pushed past its arrival position.
QUEUE_SLOT_S = 5.5880

LANE_CAPACITY = 30  # open slots per lane over one 60 s window

# The longest horizon a run may ask for: one day of seconds (or slots). Demand
# is held whole and random demand draws once per slot, so this bounds a run.
MAX_HORIZON = 86_400


class PatternKind(Enum):
    AVERAGE = "average"
    WORST = "worst"
    RANDOM = "random"


def generate_arrivals(kind: PatternKind, horizon: int, rng: SeededRng, parity: int = 0) -> list[int]:
    """Arrival seconds (or slot indices) for one lane under a pattern,
    within [0, horizon).

    Average: one arrival at every open second (those of the given parity),
    so demand exactly matches capacity. Worst: two arrivals per open second.
    Random: each slot holds an arrival when a fair coin, one `rand_int(0, 1)`
    draw per slot, comes up 1; the result is a strictly increasing slot list.
    The scheduler's random demand is this draw. Only arrival times are
    drawn here; the vehicles built on them are never changed by admission.
    """
    _require(parity in (0, 1), f"parity must be 0 or 1, got {parity}")
    _require(horizon > 0, f"horizon must be > 0, got {horizon}")
    if kind is PatternKind.AVERAGE:
        return list(range(parity, horizon, 2))
    if kind is PatternKind.WORST:
        return [s for s in range(parity, horizon, 2) for _ in range(2)]
    return [slot for slot in range(horizon) if rng.rand_int(0, 1) == 1]


def arranged_wait(arrivals: list[int], take_first: int = 60) -> list[float]:
    """Assign the first `take_first` arrivals to every-other-slot positions
    and return, in queue order, each vehicle's wait in seconds for how far
    it was pushed back.

    Vehicle i (arrival slot a_i) is served at position 2*i; its wait is
    max(0, 2*i - a_i) slots, each worth QUEUE_SLOT_S seconds. Arrivals must be
    strictly increasing, so a vehicle already past its service position
    (a_i > 2*i) waits nothing.
    """
    _require(len(arrivals) > 0, "arrivals must be non-empty")
    for prev, cur in zip(arrivals, arrivals[1:]):
        _require(prev < cur, f"arrivals must be strictly increasing, got {prev} then {cur}")
    _require(arrivals[0] >= 0, f"arrival slots must be >= 0, got {arrivals[0]}")
    _require(0 < take_first <= len(arrivals),
             f"take_first must be in 1..{len(arrivals)}, got {take_first}")

    return [max(0, 2 * i - arr) * QUEUE_SLOT_S for i, arr in enumerate(arrivals[:take_first])]


def waiting_pct(n_requests: int, capacity: int = LANE_CAPACITY) -> float:
    """Percentage of demand that spills past capacity: ((n - c) / c) * 100,
    floored at zero when demand fits.

    This is also the extra lane space a run needs: its realized requests
    against the open slots that served them. Average demand fills the slots
    exactly (0%), worst demand doubles them (100%), and random demand lands
    wherever its coin draws put it.
    """
    _require(n_requests >= 0, f"n_requests must be >= 0, got {n_requests}")
    _require(capacity > 0, f"capacity must be > 0, got {capacity}")
    if n_requests <= capacity:
        return 0.0
    return (n_requests - capacity) / capacity * 100.0
