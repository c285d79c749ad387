"""Reservation-style baseline: two crossing flows on a cell grid.

Half the cars head east through a feeder (x 1..38) toward one of 19 crossing
rows (y 40..58); the other half head south with the axes swapped. Every
east/south pair shares exactly one crossing cell. A pair conflicts when their
closed occupancy intervals at that cell overlap, which charges a 5.58 s
penalty to the blocked car and ripples the same penalty back through its
lane. Collision and waiting figures are averaged over many seeded runs.

A placement is two lane orders, one shuffle of the band per direction.
Lanes fill one at a time from the feeder's first cell, so a car's lane and
feeder offset follow from its index. Every car runs at one speed, so a
pair's verdict depends only on two integers: the east car's distance to the
crossing cell (south x - east x) and the south car's (east y - south y).
`verdict_table` applies the interval test once per distance pair. The cars
of one east lane and one south lane cover a rectangle of that table, so
`conflict_matrix` sums a run lane pair by lane pair from prefix sums of the
table. The cars at or behind a car in its lane number its feeder offset + 1,
so the lane tail needs no pairwise count either. A grid run builds no
per-car object; `PlacedVehicle`s exist only for the pairwise oracle
(`meeting_events`, `apply_conflict_waiting`).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from .core import SeededRng, SpeedFps, _require, mph_to_fps

CELL_FT = 26.2467
WAIT_PENALTY_S = 5.58
BASELINE_SPEED_MPH = 100.0
# the one speed every grid car runs at, in feet per second
GRID_FPS = mph_to_fps(BASELINE_SPEED_MPH)


class Direction(Enum):
    EAST = 0  # moves along +x, crosses the vertical band
    SOUTH = 1  # moves along +y, crosses the horizontal band


@dataclass
class PlacedVehicle:
    """A grid car: feeder position, travel direction, accumulated waiting."""

    id: int
    x: int
    y: int
    direction: Direction
    waiting_s: float = 0.0


@dataclass(frozen=True)
class GridConfig:
    """Crossing geometry. Each band cell is one lane per direction, and each
    lane holds one car per feeder cell."""

    cell_ft: float = CELL_FT
    intersection_band: tuple[int, int] = (40, 58)
    feeder_range: tuple[int, int] = (1, 38)

    def __post_init__(self) -> None:
        _require(self.cell_ft > 0, f"cell_ft must be > 0, got {self.cell_ft}")
        band_lo, band_hi = self.intersection_band
        feed_lo, feed_hi = self.feeder_range
        _require(band_lo <= band_hi, f"bad band {self.intersection_band}")
        _require(feed_lo <= feed_hi, f"bad feeder range {self.feeder_range}")
        # feeders must end strictly before the crossing band begins
        _require(feed_hi < band_lo, f"feeder {self.feeder_range} overlaps band {self.intersection_band}")
        # the latest any car leaves its crossing cell, in `meeting_events`' arithmetic
        occ = point_occupation_time(self.cell_ft, GRID_FPS)
        latest = time_to_arrive(band_hi, feed_lo, GRID_FPS, self.cell_ft) + occ
        _require(math.isfinite(latest), f"cell_ft={self.cell_ft} gives crossing times that are not finite")

    @property
    def feeder_len(self) -> int:
        return self.feeder_range[1] - self.feeder_range[0] + 1

    @property
    def lanes_per_direction(self) -> int:
        return self.intersection_band[1] - self.intersection_band[0] + 1

    @property
    def capacity_per_side(self) -> int:
        return self.lanes_per_direction * self.feeder_len


@dataclass(frozen=True)
class Interval:
    """Closed occupancy interval [arrive, leave] at a crossing cell."""

    arrive: float
    leave: float

    def __post_init__(self) -> None:
        _require(
            math.isfinite(self.arrive) and math.isfinite(self.leave) and self.arrive <= self.leave,
            f"malformed interval [{self.arrive}, {self.leave}]",
        )


@dataclass(frozen=True)
class MeetingEvent:
    """One cross-direction pair at its shared crossing cell."""

    car_a: int
    car_b: int
    point: tuple[int, int]
    conflict: bool


@dataclass(frozen=True)
class BaselineReport:
    n_vehicles: int
    collisions_per_vehicle: float
    avg_waiting_s: float
    runs: int


def time_to_arrive(target_cell: float, current_cell: float, speed: SpeedFps, cell_ft: float = CELL_FT) -> float:
    """Seconds to cover (target - current) cells at `speed` feet per second."""
    _require(target_cell >= current_cell, f"target {target_cell} is behind current {current_cell}")
    _require(speed > 0, f"speed must be > 0, got {speed}")
    return (target_cell - current_cell) * cell_ft / speed


def point_occupation_time(cell_ft: float, speed: SpeedFps) -> float:
    """How long one cell stays occupied while crossed at `speed`."""
    _require(cell_ft > 0, f"cell_ft must be > 0, got {cell_ft}")
    _require(speed > 0, f"speed must be > 0, got {speed}")
    return cell_ft / speed


def detect_conflict(a: Interval, b: Interval) -> bool:
    """Closed-interval overlap; a shared endpoint counts as a conflict."""
    return not (a.arrive > b.leave or a.leave < b.arrive)


@dataclass(frozen=True)
class Placement:
    """n cars on the grid, half east-bound and half south-bound, as two lane
    orders: the band's rows in the order east lanes fill, and its columns in
    the order south lanes fill.

    Car i of each direction (0 <= i < n/2) is in lane i // feeder_len, at
    feeder offset i % feeder_len from the feeder's first cell, so a lane
    fills before the next one opens. Iterating a placement gives its cars
    as `PlacedVehicle`s for the pairwise oracle, east block first with ids
    0..n-1; they are built on first use and kept, so every pass sees the
    same objects.
    """

    cfg: GridConfig
    n: int
    east_rows: tuple[int, ...]
    south_cols: tuple[int, ...]

    def __post_init__(self) -> None:
        capacity = 2 * self.cfg.capacity_per_side
        _require(self.n >= 0 and self.n % 2 == 0, f"n must be even and >= 0, got {self.n}")
        _require(self.n <= capacity, f"n={self.n} exceeds capacity {capacity}")
        band_lo, band_hi = self.cfg.intersection_band
        for name, lanes in (("east_rows", self.east_rows), ("south_cols", self.south_cols)):
            _require(sorted(lanes) == list(range(band_lo, band_hi + 1)), f"{name} {lanes} is not an order of the band")

    @functools.cached_property
    def cars(self) -> list[PlacedVehicle]:
        feed_lo, feed_len, half = self.cfg.feeder_range[0], self.cfg.feeder_len, self.n // 2
        east = [
            PlacedVehicle(i, feed_lo + i % feed_len, self.east_rows[i // feed_len], Direction.EAST)
            for i in range(half)
        ]
        south = [
            PlacedVehicle(half + j, self.south_cols[j // feed_len], feed_lo + j % feed_len, Direction.SOUTH)
            for j in range(half)
        ]
        return east + south

    def __iter__(self) -> Iterator[PlacedVehicle]:
        return iter(self.cars)


def place_vehicles(cfg: GridConfig, n: int, rng: SeededRng) -> Placement:
    """Drop n cars on the grid, half east-bound and half south-bound.

    Each direction's lane order is a shuffled copy of the band, east first,
    so lanes fill one at a time, in random order.
    """
    band = list(range(cfg.intersection_band[0], cfg.intersection_band[1] + 1))
    east_rows = band.copy()
    rng.shuffle(east_rows)
    south_cols = band.copy()
    rng.shuffle(south_cols)
    return Placement(cfg, n, tuple(east_rows), tuple(south_cols))


def meeting_events(cars: Iterable[PlacedVehicle], cfg: GridConfig) -> list[MeetingEvent]:
    """Enumerate every east/south pair's crossing cell and whether their two
    occupancy intervals there conflict.

    An east car at (w, li) meets a south car at column sx when w < sx with
    sx inside the band and the south car still in its feeder (sy <= band
    start - 1); mirrored for the south car's approach to row li. Under the
    placement geometry the predicate holds for every cross pair.
    """
    band_lo = cfg.intersection_band[0]
    east = [c for c in cars if c.direction is Direction.EAST]
    south = [c for c in cars if c.direction is Direction.SOUTH]
    occ = point_occupation_time(cfg.cell_ft, GRID_FPS)
    events: list[MeetingEvent] = []
    for a in east:
        for b in south:
            if not (a.x < b.x and b.x >= band_lo and b.y <= band_lo - 1):
                continue
            if not (b.y < a.y and a.y >= band_lo and b.x >= band_lo - 1):
                continue
            arrive_a = time_to_arrive(b.x, a.x, GRID_FPS, cfg.cell_ft)
            arrive_b = time_to_arrive(a.y, b.y, GRID_FPS, cfg.cell_ft)
            conflict = detect_conflict(Interval(arrive_a, arrive_a + occ), Interval(arrive_b, arrive_b + occ))
            events.append(MeetingEvent(car_a=a.id, car_b=b.id, point=(b.x, a.y), conflict=conflict))
    return events


def propagate_waiting(
    cars: Iterable[PlacedVehicle], blocked: int, penalty_s: float = WAIT_PENALTY_S
) -> Iterable[PlacedVehicle]:
    """Charge the blocked car and everything at-or-behind it in its lane.

    East lanes share a y and trail toward smaller x; south lanes share an x
    and trail toward smaller y. The blocked car itself is charged once.
    """
    _require(penalty_s >= 0, f"penalty_s must be >= 0, got {penalty_s}")
    by_id = {c.id: c for c in cars}
    if blocked not in by_id:
        raise LookupError(f"no vehicle with id {blocked}")
    head = by_id[blocked]
    for c in cars:
        if head.direction is Direction.EAST:
            trailing = c.direction is Direction.EAST and c.y == head.y and c.x <= head.x
        else:
            trailing = c.direction is Direction.SOUTH and c.x == head.x and c.y <= head.y
        if trailing:
            c.waiting_s += penalty_s
    return cars


def apply_conflict_waiting(
    cars: Iterable[PlacedVehicle], events: list[MeetingEvent], penalty_s: float = WAIT_PENALTY_S
) -> None:
    """Charge both sides of every conflicting pair.

    Each conflict is scanned once per direction: the car gets a direct
    penalty and then its whole lane segment (itself included, so the blocked
    car is hit twice) gets the penalty via propagation.
    """
    by_id = {c.id: c for c in cars}
    for ev in events:
        if not ev.conflict:
            continue
        for blocked in (ev.car_a, ev.car_b):
            by_id[blocked].waiting_s += penalty_s
            propagate_waiting(cars, blocked, penalty_s)


@functools.lru_cache(maxsize=8)
def verdict_table(cfg: GridConfig) -> tuple[tuple[bool, ...], ...]:
    """Conflict verdicts indexed [d_e][d_s] by the east and south cars'
    distances in cells to their shared crossing cell.

    Both axes run 0..band end - feeder start, the longest distance a car in
    its feeder x band rectangle can have. Each entry is `detect_conflict` on
    the closed intervals [arrive, arrive + cell_ft / GRID_FPS] with arrive =
    d * cell_ft / GRID_FPS, the arithmetic `meeting_events` uses. Cached,
    because every run of a sweep shares one config.
    """
    occ = point_occupation_time(cfg.cell_ft, GRID_FPS)
    longest = cfg.intersection_band[1] - cfg.feeder_range[0]
    arrivals = [time_to_arrive(d, 0, GRID_FPS, cfg.cell_ft) for d in range(longest + 1)]
    intervals = [Interval(arrive, arrive + occ) for arrive in arrivals]
    return tuple(tuple(detect_conflict(e, s) for s in intervals) for e in intervals)


@functools.lru_cache(maxsize=8)
def _verdict_sums(cfg: GridConfig) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Two 2-D prefix sums over `verdict_table`: entry [a][b] of the first
    counts the conflicts with d_e < a and d_s < b, and of the second sums
    their d_e + d_s."""
    table = verdict_table(cfg)
    width = len(table) + 1
    count = [[0] * width for _ in range(width)]
    dist = [[0] * width for _ in range(width)]
    for a, row in enumerate(table):
        for b, verdict in enumerate(row):
            count[a + 1][b + 1] = count[a][b + 1] + count[a + 1][b] - count[a][b] + verdict
            dist[a + 1][b + 1] = dist[a][b + 1] + dist[a + 1][b] - dist[a][b] + (a + b) * verdict
    return tuple(map(tuple, count)), tuple(map(tuple, dist))


@dataclass(frozen=True)
class ConflictTotals:
    """A placement's (east, south) pair count, conflict count and charge: the
    sum over conflicting pairs of both cars' feeder offset + 2. `size` and
    `sum()` give the first two under the names perfbench's tracer reads."""

    pairs: int
    conflicts: int
    charge: int

    @property
    def size(self) -> int:
        return self.pairs

    def sum(self) -> int:
        return self.conflicts


def _lanes(order: tuple[int, ...], cars: int, feeder_len: int) -> list[tuple[int, int]]:
    """One direction's filled lanes as (band cell, cars in the lane)."""
    full, part = divmod(cars, feeder_len)
    return [(cell, feeder_len) for cell in order[:full]] + ([(order[full], part)] if part else [])


def conflict_matrix(placement: Placement) -> ConflictTotals:
    """Conflict totals over every (east, south) pair of a placement.

    The east car at offset oe of the lane in row r and the south car at
    offset os of the lane in column c are d_e = c - f - oe and d_s = r - f - os
    cells from their crossing cell, f being the feeder's first cell. So a
    lane pair's verdicts fill the rectangle d_e in (c - f - east cars,
    c - f], d_s in (r - f - south cars, r - f] of `verdict_table`, and one
    lookup per corner in `_verdict_sums` gives its conflicts k and their
    sum of d_e + d_s; the pair's charge is (c - f + r - f + 4) * k minus
    that sum. The placement's invariants keep every rectangle inside the
    table.
    """
    cfg = placement.cfg
    count, dist = _verdict_sums(cfg)
    feed_lo, half = cfg.feeder_range[0], placement.n // 2
    south = [(c - feed_lo + 1, cars) for c, cars in _lanes(placement.south_cols, half, cfg.feeder_len)]
    conflicts = charge = 0
    for r, east_cars in _lanes(placement.east_rows, half, cfg.feeder_len):
        s1 = r - feed_lo + 1
        for e1, south_cars in south:
            e0, s0 = e1 - east_cars, s1 - south_cars
            k = count[e1][s1] - count[e0][s1] - count[e1][s0] + count[e0][s0]
            conflicts += k
            charge += (e1 + s1 + 2) * k - (dist[e1][s1] - dist[e0][s1] - dist[e1][s0] + dist[e0][s0])
    return ConflictTotals(half * half, conflicts, charge)


def _run_single(cfg: GridConfig, n: int, rng: SeededRng) -> tuple[int, float]:
    """One seeded run: (raw error count, total accumulated waiting).

    Every conflicting pair is scanned once per direction, so it is two
    errors; the waiting is the penalty times the placement's charge.
    """
    totals = conflict_matrix(place_vehicles(cfg, n, rng))
    return 2 * totals.conflicts, WAIT_PENALTY_S * float(totals.charge)


def run_baseline(cfg: GridConfig, n_vehicles: int, runs: int, rng: SeededRng) -> BaselineReport:
    """Average collision and waiting figures over `runs` independent runs.

    Every scan counts each conflicting pair twice (once per direction), so
    both reported figures divide the raw totals by 2 before the per-vehicle
    normalization.
    """
    _require(n_vehicles > 0 and n_vehicles % 2 == 0, f"n_vehicles must be even and > 0, got {n_vehicles}")
    _require(runs >= 1, f"runs must be >= 1, got {runs}")
    collision_sum = 0.0
    waiting_sum = 0.0
    for run_index in range(runs):
        errors, total_waiting = _run_single(cfg, n_vehicles, rng.spawn(run_index))
        collision_sum += (errors / 2) / n_vehicles
        waiting_sum += (total_waiting / 2) / n_vehicles
    return BaselineReport(
        n_vehicles=n_vehicles,
        collisions_per_vehicle=collision_sum / runs,
        avg_waiting_s=waiting_sum / runs,
        runs=runs,
    )
