"""Shared domain primitives: unit conversions, seeded randomness, the
(day, hour, event) feature lattice, and the slot scheduler's vehicle record.

Speeds are plain floats tagged by the SpeedMph/SpeedFps aliases; conversions
are the only place the unit changes hands.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

SpeedMph = float
SpeedFps = float

FEET_PER_MILE = 5280.0
SECONDS_PER_HOUR = 3600.0


def _require(condition: bool, message: str) -> None:
    """For checks made once per config or command. A check made once per
    run, vehicle, draw or query (a `SeededRng`, a grid `Placement`) raises
    inline instead, so that its message is formatted only when it fails."""
    if not condition:
        raise ValueError(message)


def _require_positive_finite(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def mph_to_fps(speed_mph: SpeedMph) -> SpeedFps:
    """Exact miles-per-hour to feet-per-second conversion."""
    _require_positive_finite(speed_mph, "speed_mph")
    return speed_mph * FEET_PER_MILE / SECONDS_PER_HOUR


class SeededRng:
    """Deterministic random source: MT19937 behind a fixed seed.

    Every stochastic choice in the package flows through one of these, so a
    run is a pure function of its seed. `spawn` derives independent child
    streams (one per run index) so any single run of a sweep can be
    reproduced in isolation.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise ValueError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._rng = random.Random(seed)

    def rand_int(self, low: int, high: int) -> int:
        """Uniform integer in the closed range [low, high], drawn from the same
        MT words as `random.Random.randint` draws it, without its call chain."""
        if not low <= high:
            raise ValueError(f"empty range: low={low} > high={high}")
        width = high - low + 1
        bits = width.bit_length()
        getrandbits = self._rng.getrandbits
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        return low + r

    def random(self) -> float:
        return self._rng.random()

    def shuffle(self, items: list) -> None:
        """Shuffle `items` in place, swapping the same pairs from the same MT
        words as `random.Random.shuffle`, without its `_randbelow` call chain."""
        getrandbits = self._rng.getrandbits
        for i in range(len(items) - 1, 0, -1):
            bits = (i + 1).bit_length()
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]

    def choice(self, items: Sequence):
        _require(len(items) > 0, "cannot choose from an empty sequence")
        return items[self._rng.randrange(len(items))]

    def spawn(self, index: int) -> "SeededRng":
        """Child stream for run `index`, a pure function of (seed, index)."""
        if not index >= 0:
            raise ValueError(f"index must be >= 0, got {index}")
        # splitmix64-style mix keeps child seeds well separated
        z = (self.seed + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return SeededRng((z ^ (z >> 31)) & 0xFFFFFFFFFFFFFFFF)


class LaneId(Enum):
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2 = "B2"

    @property
    def group(self) -> str:
        """Lane group letter; paired lanes share a gate phase and a classifier."""
        return self.value[0]

    @property
    def is_primary(self) -> bool:
        """First lane of its pair; the one that runs its own turn predictions."""
        return self.value[1] == "1"

    @property
    def sibling(self) -> "LaneId":
        """The other lane of its pair."""
        return _SIBLING[self]


_SIBLING = {LaneId.A1: LaneId.A2, LaneId.A2: LaneId.A1, LaneId.B1: LaneId.B2, LaneId.B2: LaneId.B1}


Features = tuple[int, int, int]

# The closed range of each feature: day 1..5, hour 0..23, event flag 0 or 1.
FEATURE_RANGES = ((1, 5), (0, 23), (0, 1))


def validate_features(features: Features) -> None:
    """Each of day, hour and event an int inside its FEATURE_RANGES entry."""
    if len(features) != 3:
        raise ValueError(f"features must be (day, hour, event), got {features!r}")
    day, hour, event = features
    if not (isinstance(day, int) and isinstance(hour, int) and isinstance(event, int)):
        raise ValueError(f"features must be ints, got {features!r}")
    (day_lo, day_hi), (hour_lo, hour_hi), (event_lo, event_hi) = FEATURE_RANGES
    if not day_lo <= day <= day_hi:
        raise ValueError(f"day must be in {day_lo}..{day_hi}, got {day}")
    if not hour_lo <= hour <= hour_hi:
        raise ValueError(f"hour must be in {hour_lo}..{hour_hi}, got {hour}")
    if not event_lo <= event <= event_hi:
        raise ValueError(f"event must be {event_lo} or {event_hi}, got {event}")


@dataclass(frozen=True)
class Vehicle:
    """One vehicle in the slot-scheduled model, fixed once built.

    `arrival_s` is the second the vehicle presents at its lane's gate;
    `features` is the (day, hour, event) triple the turn classifier reads;
    `waiting_s` is the delay between wanting to enter and being scheduled.
    Admission decides the vehicle's fate from these fields and changes none
    of them, so one demand can be scheduled any number of times.
    """

    id: int
    lane: LaneId
    speed_mph: SpeedMph
    arrival_s: float
    features: Features
    waiting_s: float = 0.0

    def __post_init__(self) -> None:
        _require_positive_finite(self.speed_mph, "speed_mph")
        if not self.arrival_s >= 0.0:
            raise ValueError(f"arrival_s must be >= 0, got {self.arrival_s}")
        if not self.waiting_s >= 0.0:
            raise ValueError(f"waiting_s must be >= 0, got {self.waiting_s}")
        validate_features(self.features)
