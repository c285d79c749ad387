"""Traffic demand patterns and the arranged-queue waiting model.

Three demand shapes feed the slot scheduler: average (demand exactly fills
the open slots), worst (double demand), and random (a fair coin per slot).
The standalone queue experiment arranges randomly-arriving vehicles into
every-other-slot service positions and prices the delay at 5.5880 s per slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .core import SeededRng, _require

# One service slot opens every second service tick; a slot is worth this many
# seconds of waiting when a vehicle is pushed past its arrival position.
QUEUE_SLOT_S = 5.5880

LANE_CAPACITY = 30  # open slots per lane over one 60 s window


class PatternKind(Enum):
    AVERAGE = "average"
    WORST = "worst"
    RANDOM = "random"


@dataclass(frozen=True)
class PatternSpec:
    kind: PatternKind
    horizon_slots: int = 720
    take_first: int = 60

    def __post_init__(self) -> None:
        _require(self.horizon_slots > 0, f"horizon_slots must be > 0, got {self.horizon_slots}")
        _require(0 < self.take_first <= self.horizon_slots,
                 f"take_first must be in 1..{self.horizon_slots}, got {self.take_first}")


def generate_arrivals(spec: PatternSpec, rng: SeededRng, parity: int = 0, horizon_s: int = 60) -> list[int]:
    """Arrival seconds (or slot indices) for one lane under a pattern.

    Average: one arrival at every open second of the window, so demand
    exactly matches capacity. Worst: two arrivals per open second. Random:
    each slot of `horizon_slots` holds an arrival when a fair coin, one
    `rand_int(0, 1)` draw per slot, comes up 1; the result is a strictly
    increasing slot list. The scheduler's random demand is this draw.
    """
    _require(parity in (0, 1), f"parity must be 0 or 1, got {parity}")
    _require(horizon_s > 0, f"horizon_s must be > 0, got {horizon_s}")
    if spec.kind is PatternKind.AVERAGE:
        return list(range(parity, horizon_s, 2))
    if spec.kind is PatternKind.WORST:
        return [s for s in range(parity, horizon_s, 2) for _ in range(2)]
    return [slot for slot in range(spec.horizon_slots) if rng.rand_int(0, 1) == 1]


@dataclass(frozen=True)
class QueueResult:
    arrivals: list[int]
    arranged_positions: list[int]
    per_vehicle_wait_s: list[float]
    avg_wait_s: float
    taken: int = field(default=0)


def arranged_wait(arrivals: list[int], take_first: int = 60) -> QueueResult:
    """Assign the first `take_first` arrivals to every-other-slot positions
    and charge each vehicle for how far it was pushed back.

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

    taken = arrivals[:take_first]
    arranged = [2 * i for i in range(len(taken))]
    waits = [max(0, pos - arr) * QUEUE_SLOT_S for pos, arr in zip(arranged, taken)]
    return QueueResult(
        arrivals=list(arrivals),
        arranged_positions=arranged,
        per_vehicle_wait_s=waits,
        avg_wait_s=sum(waits) / len(waits),
        taken=len(taken),
    )


def waiting_pct(n_requests: int, capacity: int = LANE_CAPACITY) -> float:
    """Percentage of demand that spills past capacity: ((n - c) / c) * 100,
    floored at zero when demand fits."""
    _require(n_requests >= 0, f"n_requests must be >= 0, got {n_requests}")
    _require(capacity > 0, f"capacity must be > 0, got {capacity}")
    if n_requests <= capacity:
        return 0.0
    return (n_requests - capacity) / capacity * 100.0


def extra_space_pct(kind: PatternKind, n_requests: int | None = None, capacity: int = LANE_CAPACITY) -> float:
    """Extra lane-space a pattern demands beyond one window's capacity.

    Average demand fits exactly (0%); worst is double demand (100%); random
    depends on the realized request count.
    """
    if kind is PatternKind.AVERAGE:
        return 0.0
    if kind is PatternKind.WORST:
        return 100.0
    _require(n_requests is not None, "random pattern needs the realized request count")
    return waiting_pct(n_requests, capacity)
