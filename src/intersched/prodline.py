"""Slot scheduler for a four-lane intersection run as a production line.

Lanes come in two pairs on opposite gate phases: A1/A2 open on even seconds,
B1/B2 on odd ones. An arriving vehicle is admitted only when its speed sits
inside the lane's band and its lane is open on its arrival second; admission
locks the vehicle to the band's average speed, so every vehicle crosses the
60 fixed containers in the same constant time and same-lane collisions are
impossible by construction. The whole schedule therefore follows from each
vehicle's arrival second and lane, and a run is one ordered pass over the
scheduled vehicles. A small online classifier predicts right turns at
admission.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .core import (
    InvalidStateError,
    LaneId,
    SeededRng,
    SpeedMph,
    Vehicle,
    VehicleState,
    _require,
    mph_to_fps,
)
from .flows import PatternKind, PatternSpec, generate_arrivals
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

    @property
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

    @property
    def phase_parity(self) -> int:
        """Second parity on which the lane's gate opens: 0 for A lanes, 1 for B."""
        return 0 if self.id.group == "A" else 1


@dataclass(frozen=True)
class IntersectionConfig:
    lanes: tuple[LaneConfig, LaneConfig, LaneConfig, LaneConfig]
    run_seconds: int = RUN_SECONDS

    def __post_init__(self) -> None:
        _require(self.run_seconds > 0, f"run_seconds must be > 0, got {self.run_seconds}")
        ids = [lane.id for lane in self.lanes]
        _require(
            sorted(l.value for l in ids) == ["A1", "A2", "B1", "B2"],
            f"config must cover lanes A1, A2, B1, B2 exactly once, got {[l.value for l in ids]}",
        )

    @classmethod
    def default(cls) -> "IntersectionConfig":
        return cls(lanes=tuple(LaneConfig(lane_id) for lane_id in LaneId))

    def lane(self, lane_id: LaneId) -> LaneConfig:
        for lane in self.lanes:
            if lane.id is lane_id:
                return lane
        raise LookupError(f"no lane {lane_id.value} in config")

    @property
    def lanes_in_order(self) -> tuple[LaneConfig, ...]:
        return tuple(self.lane(lane_id) for lane_id in LaneId)


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


def gate_open(lane: LaneConfig, t: float) -> bool:
    _require(t >= 0, f"t must be >= 0, got {t}")
    return t % 2 == lane.phase_parity


def admit(v: Vehicle, lane: LaneConfig) -> Decision:
    """Speed band first, then the gate at the vehicle's arrival second;
    admission locks the vehicle to the band average."""
    if v.state is not VehicleState.PENDING:
        raise InvalidStateError(f"vehicle {v.id} is {v.state.value}, not pending")
    if not (lane.min_speed <= v.speed_mph <= lane.max_speed):
        v.mark_rejected()
        return Decision(admitted=False, reason=RejectReason.SPEED_OUT_OF_BAND)
    if not gate_open(lane, v.arrival_s):
        v.mark_rejected()
        return Decision(admitted=False, reason=RejectReason.GATE_CLOSED)
    assigned = lane.average_speed
    v.mark_entered(assigned)
    return Decision(admitted=True, assigned_speed=assigned)


def exit_second(record: ScheduleRecord) -> int:
    """Clock second on which the vehicle leaves: ceiling of its exit time."""
    if not record.admitted or record.exit_s is None:
        raise InvalidStateError(f"vehicle {record.vehicle_id} was not admitted")
    return math.ceil(record.exit_s)


@dataclass
class LaneDemand:
    """Realized demand for one lane: what got a slot and what spilled over."""

    lane: LaneId
    scheduled: list[Vehicle]
    overflow: list[Vehicle]
    requests: int


def _open_seconds(lane: LaneConfig, run_seconds: int) -> list[int]:
    return [t for t in range(run_seconds) if t % 2 == lane.phase_parity]


def build_demand(
    cfg: IntersectionConfig, kind: PatternKind, rng: SeededRng
) -> dict[LaneId, LaneDemand]:
    """Generate per-lane requests for a pattern and pack them into open slots.

    Requests are served first-come-first-served: each takes the earliest
    unclaimed open second at-or-after its arrival; whatever cannot fit inside
    the window spills into `overflow`. The random pattern draws a fair coin
    per second of the window; average and worst are the deterministic
    one-per-slot and two-per-slot demands.

    A vehicle draws its approach speed and, on a primary lane, its feature
    triple; a paired lane's vehicle copies the features of its sibling's
    same-slot vehicle when one exists.
    """
    # random demand tosses one coin per second of the window; take_first only
    # matters to the arranged queue
    spec = PatternSpec(kind, horizon_slots=cfg.run_seconds, take_first=cfg.run_seconds)
    demand: dict[LaneId, LaneDemand] = {}
    for lane in cfg.lanes_in_order:
        requests = generate_arrivals(spec, rng, parity=lane.phase_parity, horizon_s=cfg.run_seconds)

        open_slots = _open_seconds(lane, cfg.run_seconds)
        assignments: list[tuple[int, int | None]] = []  # (request second, slot or None)
        cursor = 0
        for req in requests:
            while cursor < len(open_slots) and open_slots[cursor] < req:
                cursor += 1
            if cursor < len(open_slots):
                assignments.append((req, open_slots[cursor]))
                cursor += 1
            else:
                assignments.append((req, None))

        ids = [_ID_BASE[lane.id] + i for i in range(len(requests))]
        rng.shuffle(ids)

        sibling_by_slot: dict[int, Vehicle] = {}
        if not lane.id.is_primary:
            sibling_by_slot = {
                int(v.arrival_s): v for v in demand[lane.id.sibling].scheduled
            }

        scheduled: list[Vehicle] = []
        overflow: list[Vehicle] = []
        for vid, (req, slot) in zip(ids, assignments):
            speed = float(rng.rand_int(int(lane.min_speed), int(lane.max_speed)))
            sibling = sibling_by_slot.get(slot) if slot is not None else None
            if sibling is not None and sibling.features is not None:
                features = sibling.features
            else:
                features = (rng.rand_int(1, 5), rng.rand_int(0, 23), rng.rand_int(0, 1))
            if slot is not None:
                v = Vehicle(
                    id=vid,
                    lane=lane.id,
                    speed_mph=speed,
                    arrival_s=float(slot),
                    features=features,
                    waiting_s=float(slot - req),
                )
                scheduled.append(v)
            else:
                v = Vehicle(id=vid, lane=lane.id, speed_mph=speed, arrival_s=float(req), features=features)
                v.mark_rejected()
                overflow.append(v)
        demand[lane.id] = LaneDemand(lane=lane.id, scheduled=scheduled, overflow=overflow, requests=len(requests))
    return demand


def _validate_schedule(cfg: IntersectionConfig, arrivals: Mapping[LaneId, Sequence[Vehicle]]) -> None:
    for lane_id, vehicles in arrivals.items():
        seen: set[int] = set()
        for v in vehicles:
            second = v.arrival_s
            _require(
                float(second).is_integer() and 0 <= second < cfg.run_seconds,
                f"lane {lane_id.value}: arrival {second} outside whole seconds 0..{cfg.run_seconds - 1}",
            )
            s = int(second)
            _require(s not in seen, f"lane {lane_id.value}: two vehicles scheduled at second {s}")
            seen.add(s)


def run_prodline(
    cfg: IntersectionConfig,
    arrivals: Mapping[LaneId, Sequence[Vehicle]],
    predictor: TurnPredictor | None = None,
    rng: SeededRng | None = None,
    pattern: PatternKind | None = None,
) -> tuple[list[ScheduleRecord], RunReport]:
    """Admit every scheduled vehicle in one pass and record it.

    Vehicles are taken by arrival second, and within a second by lane in the
    order A1, A2, B1, B2; the schedule holds at most one vehicle per
    lane-second, so that order is total. An admitted vehicle gets a turn
    prediction before entering: primary lanes consult their group's
    classifier, paired lanes reuse the sibling's same-second prediction when
    there is one.
    """
    _validate_schedule(cfg, arrivals)
    if predictor is None:
        predictor = TurnPredictor()
    if rng is None:
        rng = SeededRng(0)

    visits = sorted(
        (
            (int(v.arrival_s), order, lane, v)
            for order, lane in enumerate(cfg.lanes_in_order)
            for v in arrivals.get(lane.id, ())
        ),
        key=lambda visit: visit[:2],
    )

    records: list[ScheduleRecord] = []
    turn_by_lane_second: dict[tuple[LaneId, int], TurnLabel] = {}
    for t, _, lane, v in visits:
        decision = admit(v, lane)
        label: TurnLabel | None = None
        if decision.admitted:
            if v.features is not None:
                label = turn_by_lane_second.get((lane.id.sibling, t)) if not lane.id.is_primary else None
                if label is None:
                    label = predictor.predict_and_record(v.features, lane.id.group, rng)
                turn_by_lane_second[(lane.id, t)] = label
            logger.info(
                "Vehicle %d has entered the intersection through lane [%s] with speed of %s",
                v.id, lane.id.value, decision.assigned_speed,
            )
        records.append(
            ScheduleRecord(
                vehicle_id=v.id, lane=lane.id, arrive_s=float(t),
                right_turn=None if label is None else label is TurnLabel.RIGHT_TURN,
                assigned_speed=decision.assigned_speed,
                exit_s=t + lane.staying_time if decision.admitted else None,
                admitted=decision.admitted, waiting_s=v.waiting_s,
            )
        )

    return records, summarize(records, pattern=pattern, seed=rng.seed)


def verify_no_collisions(records: Sequence[ScheduleRecord], cfg: IntersectionConfig) -> int:
    """Count same-lane container collisions across the whole run.

    A vehicle admitted at second a occupies container index t - a at tick t
    until it exits; two vehicles in one lane collide when those indices
    coincide. The scheduler's one-per-open-second admission makes the answer
    0; this re-derives it from the records alone.

    Each lane is swept tick by tick in arrival order, holding only the
    vehicles on the lane at that tick; every vehicle beyond the first on a
    container index counts as one collision.
    """
    violations = 0
    for lane_id in LaneId:
        arriving = sorted((r for r in records if r.lane is lane_id and r.admitted), key=lambda r: r.arrive_s)
        on_lane: list[tuple[float, int]] = []  # (arrive_s, exit second)
        next_in = 0
        for t in range(cfg.run_seconds):
            while next_in < len(arriving) and arriving[next_in].arrive_s <= t:
                r = arriving[next_in]
                on_lane.append((r.arrive_s, exit_second(r)))
                next_in += 1
            on_lane = [(arrive, leave) for arrive, leave in on_lane if t < leave]
            violations += len(on_lane) - len({int(t - arrive) for arrive, _ in on_lane})
    return violations
