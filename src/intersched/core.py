"""Shared domain primitives: unit conversions, seeded randomness, and the
vehicle record used by both intersection models.

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
    if not condition:
        raise ValueError(message)


def _require_positive_finite(value: float, name: str) -> None:
    _require(math.isfinite(value) and value > 0.0, f"{name} must be positive and finite, got {value!r}")


def mph_to_fps(speed_mph: SpeedMph) -> SpeedFps:
    """Exact miles-per-hour to feet-per-second conversion."""
    _require_positive_finite(speed_mph, "speed_mph")
    return speed_mph * FEET_PER_MILE / SECONDS_PER_HOUR


def mph_to_fps_truncated(speed_mph: SpeedMph) -> SpeedFps:
    """Conversion with the legacy double integer truncation.

    Divides by 60 twice, flooring after each step: 100 mph -> 146 fps
    rather than 146.667. Kept for compatibility runs of the grid model.
    """
    _require_positive_finite(speed_mph, "speed_mph")
    return float(math.floor(math.floor(speed_mph * FEET_PER_MILE / 60.0) / 60.0))


class SeededRng:
    """Deterministic random source: MT19937 behind a fixed seed.

    Every stochastic choice in the package flows through one of these, so a
    run is a pure function of its seed. `spawn` derives independent child
    streams (one per run index) so any single run of a sweep can be
    reproduced in isolation.
    """

    def __init__(self, seed: int) -> None:
        _require(isinstance(seed, int), f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._rng = random.Random(seed)

    def rand_int(self, low: int, high: int) -> int:
        """Uniform integer in the closed range [low, high]."""
        _require(low <= high, f"empty range: low={low} > high={high}")
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def choice(self, items: Sequence):
        _require(len(items) > 0, "cannot choose from an empty sequence")
        return items[self._rng.randrange(len(items))]

    def spawn(self, index: int) -> "SeededRng":
        """Child stream for run `index`, a pure function of (seed, index)."""
        _require(index >= 0, f"index must be >= 0, got {index}")
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
        pair = {"A1": "A2", "A2": "A1", "B1": "B2", "B2": "B1"}
        return LaneId(pair[self.value])


Features = tuple[int, int, int]


def validate_features(features: Features) -> None:
    """Day in 1..5, hour in 0..23, event flag 0 or 1."""
    _require(len(features) == 3, f"features must be (day, hour, event), got {features!r}")
    day, hour, event = features
    _require(all(isinstance(v, int) for v in features), f"features must be ints, got {features!r}")
    _require(1 <= day <= 5, f"day must be in 1..5, got {day}")
    _require(0 <= hour <= 23, f"hour must be in 0..23, got {hour}")
    _require(event in (0, 1), f"event must be 0 or 1, got {event}")


@dataclass(frozen=True)
class Vehicle:
    """One vehicle in the slot-scheduled model, fixed once built.

    `arrival_s` is the second the vehicle presents at its lane's gate;
    `waiting_s` is the delay between wanting to enter and being scheduled.
    Admission decides the vehicle's fate from these fields and changes none
    of them, so one demand can be scheduled any number of times.
    """

    id: int
    lane: LaneId
    speed_mph: SpeedMph
    arrival_s: float
    features: Features | None = None
    waiting_s: float = 0.0

    def __post_init__(self) -> None:
        _require_positive_finite(self.speed_mph, "speed_mph")
        _require(self.arrival_s >= 0.0, f"arrival_s must be >= 0, got {self.arrival_s}")
        _require(self.waiting_s >= 0.0, f"waiting_s must be >= 0, got {self.waiting_s}")
        if self.features is not None:
            validate_features(self.features)
