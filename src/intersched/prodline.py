"""Slot scheduler for a four-lane intersection run as a production line.

Lanes come in two pairs on opposite gate phases: A1/A2 open on even seconds,
B1/B2 on odd ones. An arriving vehicle is admitted only when its speed sits
inside the lane's band and its lane is open on its arrival second; an
admitted vehicle is assigned the band's average speed, so every vehicle
crosses the 60 fixed containers in the same constant time and same-lane
collisions are impossible by construction. The whole schedule therefore
follows from each vehicle's arrival second and lane, and a run is one
ordered pass over the scheduled vehicles. Admission decides over frozen
vehicle records and changes none of them, so a demand can be scheduled
again. A small online classifier predicts right turns at admission from
each vehicle's (day, hour, event) features.

A config lists its lanes in the order A1, A2, B1, B2. That order is the
visit order within a second, and it builds each primary lane's demand
before its sibling's, so nothing else sorts the lanes.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, Sequence

from .core import FEATURE_RANGES, LaneId, SeededRng, SpeedMph, Vehicle, _require, mph_to_fps
from .flows import MAX_HORIZON, PatternKind, generate_arrivals
from .report import RunReport, summarize
from .turns import TurnLabel, TurnPredictor

logger = logging.getLogger(__name__)

SPOT_LENGTH_FT = 26.2467
NUM_SPOTS = 60
RUN_SECONDS = 60
SPEED_BAND_MPH = (60.0, 65.0)

# Base of each lane's vehicle ID range; IDs are handed out shuffled.
_ID_BASE = {LaneId.A1: 100, LaneId.A2: 200, LaneId.B1: 300, LaneId.B2: 400}


@dataclass(frozen=True)
class LaneConfig:
    id: LaneId
    min_speed: SpeedMph = SPEED_BAND_MPH[0]
    max_speed: SpeedMph = SPEED_BAND_MPH[1]
    num_spots: int = NUM_SPOTS
    spot_length_ft: float = SPOT_LENGTH_FT

    def __post_init__(self) -> None:
        # build_demand draws whole-mph speeds between the band edges
        for name, value in (("min_speed", self.min_speed), ("max_speed", self.max_speed)):
            _require(math.isfinite(value) and value == int(value), f"{name} must be a whole number of mph, got {value!r}")
        _require(0 < self.min_speed <= self.max_speed, f"bad speed band [{self.min_speed}, {self.max_speed}]")
        _require(self.num_spots > 0, f"num_spots must be > 0, got {self.num_spots}")
        _require(self.spot_length_ft > 0, f"spot_length_ft must be > 0, got {self.spot_length_ft}")
        stay = self.staying_time
        _require(0 < stay < math.inf, f"lane {self.id.value}: staying time must be positive and finite, got {stay!r} s")

    @cached_property
    def average_speed(self) -> SpeedMph:
        """Midpoint of the admission band; assigned to every admitted vehicle."""
        return (self.min_speed + self.max_speed) / 2.0

    @property
    def staying_time(self) -> float:
        """Seconds an admitted vehicle spends traversing the lane's containers.

        The divisor is the mph->fps conversion rounded to 5 decimals
        (62.5 mph -> 91.66667), the documented rate constant the reference
        exit times are built on.
        """
        return self.num_spots * self.spot_length_ft / round(mph_to_fps(self.average_speed), 5)

    @cached_property
    def phase_parity(self) -> int:
        """Second parity on which the lane's gate opens: 0 for A lanes, 1 for B."""
        return 0 if self.id.group == "A" else 1

    @cached_property
    def _admission(self) -> "Decision":
        return Decision(admitted=True, assigned_speed=self.average_speed)


@dataclass(frozen=True)
class IntersectionConfig:
    lanes: tuple[LaneConfig, LaneConfig, LaneConfig, LaneConfig]
    run_seconds: int = RUN_SECONDS

    def __post_init__(self) -> None:
        _require(self.run_seconds > 0, f"run_seconds must be > 0, got {self.run_seconds}")
        _require(self.run_seconds <= MAX_HORIZON, f"run_seconds must be <= {MAX_HORIZON}, got {self.run_seconds}")
        ids = [lane.id.value for lane in self.lanes]
        _require(
            ids == [lane_id.value for lane_id in LaneId],
            f"config must list lanes A1, A2, B1, B2 in that order, got {ids}",
        )
        # a vehicle admitted at second t holds containers until t + staying
        # time; if that sum stays above t at the last second, it does so at
        # every earlier second too
        last = self.run_seconds - 1
        for lane in self.lanes:
            _require(
                last + lane.staying_time != last,
                f"lane {lane.id.value}: staying time {lane.staying_time!r} s is lost to rounding "
                f"at second {last}, so its vehicles would occupy no container",
            )

    @classmethod
    def default(cls) -> "IntersectionConfig":
        return cls(lanes=tuple(LaneConfig(lane_id) for lane_id in LaneId))

    def open_seconds(self, lane: LaneConfig) -> range:
        """Seconds of the window on which the lane's gate is open."""
        return range(lane.phase_parity, self.run_seconds, 2)

    def lane(self, lane_id: LaneId) -> LaneConfig:
        for lane in self.lanes:
            if lane.id is lane_id:
                return lane
        raise LookupError(f"no lane {lane_id.value} in config")


class RejectReason(Enum):
    SPEED_OUT_OF_BAND = "speed-out-of-band"
    GATE_CLOSED = "gate-closed"


@dataclass(frozen=True)
class Decision:
    admitted: bool
    assigned_speed: SpeedMph | None = None
    reason: RejectReason | None = None


@dataclass(frozen=True)
class ScheduleRecord:
    """Per-vehicle outcome line; mirrors the exported vehicle table."""

    vehicle_id: int
    lane: LaneId
    arrive_s: float
    right_turn: bool | None
    assigned_speed: SpeedMph | None
    exit_s: float | None
    admitted: bool
    waiting_s: float = 0.0


_SPEED_OUT_OF_BAND = Decision(admitted=False, reason=RejectReason.SPEED_OUT_OF_BAND)
_GATE_CLOSED = Decision(admitted=False, reason=RejectReason.GATE_CLOSED)


def admit(v: Vehicle, lane: LaneConfig) -> Decision:
    """Speed band first, then the gate at the vehicle's arrival second; an
    admitted vehicle is assigned the band average. A pure decision: the vehicle
    is not changed, and the answer is one of a few shared, frozen `Decision`s."""
    if not (lane.min_speed <= v.speed_mph <= lane.max_speed):
        return _SPEED_OUT_OF_BAND
    if v.arrival_s % 2 != lane.phase_parity:
        return _GATE_CLOSED
    return lane._admission


def exit_second(record: ScheduleRecord) -> int:
    """Clock second on which the vehicle leaves: ceiling of its exit time."""
    if not record.admitted or record.exit_s is None:
        raise ValueError(f"vehicle {record.vehicle_id} was not admitted")
    return math.ceil(record.exit_s)


@dataclass
class LaneDemand:
    """Realized demand for one lane: what got a slot and what spilled over.
    An overflow vehicle is rejected by being here; it is never admitted."""

    scheduled: list[Vehicle]
    overflow: list[Vehicle]

    @property
    def requests(self) -> int:
        return len(self.scheduled) + len(self.overflow)


def build_demand(
    cfg: IntersectionConfig, kind: PatternKind, rng: SeededRng
) -> dict[LaneId, LaneDemand]:
    """Generate per-lane requests for a pattern and fill open slots in one pass.

    Requests are served first-come-first-served: an iterator over the lane's
    open seconds moves forward to the first one at-or-after each request, and
    a request left with none inside the window spills into `overflow`. The
    random pattern draws a fair coin per second of the window; average and
    worst are the deterministic one-per-slot and two-per-slot demands.

    Lanes are built in config order: the requests, then the shuffled ID pool,
    then per vehicle its speed and its feature triple, which a paired lane
    copies from its sibling's vehicle at the same slot when there is one.
    The vehicles are frozen records: running the schedule decides their fate
    without changing them.
    """
    (day_lo, day_hi), (hour_lo, hour_hi), (event_lo, event_hi) = FEATURE_RANGES
    demand: dict[LaneId, LaneDemand] = {}
    for lane in cfg.lanes:
        min_speed, max_speed = int(lane.min_speed), int(lane.max_speed)
        requests = generate_arrivals(kind, cfg.run_seconds, rng, parity=lane.phase_parity)
        ids = [_ID_BASE[lane.id] + i for i in range(len(requests))]
        rng.shuffle(ids)
        sibling_features = (
            {} if lane.id.is_primary
            else {int(v.arrival_s): v.features for v in demand[lane.id.sibling].scheduled}
        )

        open_slots = iter(cfg.open_seconds(lane))
        slot = next(open_slots, None)
        scheduled: list[Vehicle] = []
        overflow: list[Vehicle] = []
        for vid, req in zip(ids, requests):
            while slot is not None and slot < req:
                slot = next(open_slots, None)
            speed = float(rng.rand_int(min_speed, max_speed))
            features = sibling_features.get(slot) or (
                rng.rand_int(day_lo, day_hi), rng.rand_int(hour_lo, hour_hi), rng.rand_int(event_lo, event_hi)
            )
            if slot is None:
                overflow.append(Vehicle(vid, lane.id, speed, arrival_s=float(req), features=features))
            else:
                scheduled.append(
                    Vehicle(vid, lane.id, speed, arrival_s=float(slot), features=features, waiting_s=float(slot - req))
                )
                slot = next(open_slots, None)
        demand[lane.id] = LaneDemand(scheduled=scheduled, overflow=overflow)
    return demand


def _validate_schedule(cfg: IntersectionConfig, arrivals: Mapping[LaneId, Sequence[Vehicle]]) -> None:
    for lane_id, vehicles in arrivals.items():
        seen: set[int] = set()
        for v in vehicles:
            if v.lane is not lane_id:
                raise ValueError(
                    f"vehicle {v.id} is scheduled on lane {lane_id.value} but belongs to lane {v.lane.value}"
                )
            second = v.arrival_s
            if not (float(second).is_integer() and 0 <= second < cfg.run_seconds):
                raise ValueError(
                    f"lane {lane_id.value}: arrival {second} outside whole seconds 0..{cfg.run_seconds - 1}"
                )
            s = int(second)
            if s in seen:
                raise ValueError(f"lane {lane_id.value}: two vehicles scheduled at second {s}")
            seen.add(s)


def run_prodline(
    cfg: IntersectionConfig,
    arrivals: Mapping[LaneId, Sequence[Vehicle]],
    predictor: TurnPredictor,
    rng: SeededRng,
    *,
    pattern: PatternKind,
) -> tuple[list[ScheduleRecord], RunReport]:
    """Admit every scheduled vehicle in one pass and record it.

    Vehicles are taken by arrival second, and within a second by lane in
    config order; the schedule holds at most one vehicle per lane-second, so
    that order is total. An admitted vehicle gets a turn prediction before
    entering: primary lanes consult their group's classifier in `predictor`,
    with `rng` breaking label ties, and paired lanes reuse the sibling's
    same-second prediction when there is one. The report is labelled with
    `pattern` and the seed of `rng`. When the pass ends, each of the
    predictor's stores that is bound to files is saved to them.
    """
    _validate_schedule(cfg, arrivals)

    # per lane in config order, computed once rather than per vehicle: the
    # lane's turn labels by second, and its sibling's, which a paired lane reuses
    labels_at: dict[LaneId, dict[int, TurnLabel]] = {lane.id: {} for lane in cfg.lanes}
    lane_facts = [
        (lane, lane.id, lane.id.value, lane.id.group, lane.id.is_primary,
         labels_at[lane.id], labels_at[lane.id.sibling], lane.staying_time)
        for lane in cfg.lanes
    ]
    vehicles = [arrivals.get(lane.id, ()) for lane in cfg.lanes]
    visits = sorted(
        (int(v.arrival_s), order, index)
        for order, lane_vehicles in enumerate(vehicles)
        for index, v in enumerate(lane_vehicles)
    )

    records: list[ScheduleRecord] = []
    for t, order, index in visits:
        lane, lane_id, name, group, primary, own_labels, sibling_labels, stay = lane_facts[order]
        v = vehicles[order][index]
        decision = admit(v, lane)
        label: TurnLabel | None = None
        if decision.admitted:
            label = None if primary else sibling_labels.get(t)
            if label is None:
                label = predictor.predict_and_record(v.features, group, rng)
            own_labels[t] = label
            logger.info(
                "Vehicle %d has entered the intersection through lane [%s] with speed of %s",
                v.id, name, decision.assigned_speed,
            )
        records.append(
            ScheduleRecord(
                v.id, lane_id, float(t), None if label is None else label is TurnLabel.RIGHT_TURN,
                decision.assigned_speed, t + stay if decision.admitted else None, decision.admitted, v.waiting_s,
            )
        )

    for store in predictor.stores.values():
        if store.features_path is not None and store.labels_path is not None:
            store.save(store.features_path, store.labels_path)
    return records, summarize(records, pattern=pattern, seed=rng.seed)


def verify_no_collisions(records: Sequence[ScheduleRecord], cfg: IntersectionConfig) -> int:
    """Count same-lane container collisions across the whole run.

    At each whole tick t of the window with a <= t < its exit second, a
    vehicle admitted at time a holds container index t - ⌈a⌉, the whole part
    of t - a taken exactly. Two vehicles in one lane collide when their
    indices coincide. The scheduler's one-per-open-second admission makes the
    answer 0; this re-derives it from the records alone.

    Indices coincide exactly when two vehicles share a lane and a start
    second ⌈a⌉, so the records are grouped by that pair rather than swept
    tick by tick. A group's members all enter on the same tick, so each tick
    counts one collision per member beyond the first still on the lane: the
    sum of the members' stays less the longest one. Summed over the groups,
    that is every stay less each group's longest.
    """
    stays = 0
    longest: defaultdict[LaneId, dict[int, int]] = defaultdict(dict)  # lane -> start -> longest stay
    for r in records:
        if not r.admitted:
            continue
        start = math.ceil(r.arrive_s)
        if start >= cfg.run_seconds:
            continue  # arrives after the window's last tick
        first = max(start, 0)
        stay = min(max(exit_second(r), first), cfg.run_seconds) - first
        stays += stay
        by_start = longest[r.lane]
        by_start[start] = max(by_start.get(start, 0), stay)
    return stays - sum(sum(by_start.values()) for by_start in longest.values())
