"""Reservation-style baseline: two crossing flows on a cell grid.

Half the cars head east through a feeder (x 1..38) toward one of 19 crossing
rows (y 40..58); the other half head south with the axes swapped. Every
east/south pair shares exactly one crossing cell. A pair conflicts when their
closed occupancy intervals at that cell overlap, which charges a 5.58 s
penalty to the blocked car and ripples the same penalty back through its
lane. Collision and waiting figures are averaged over many seeded runs.

Every car runs at one speed, so a pair's verdict depends only on two
integers: the east car's distance to the crossing cell (south x - east x)
and the south car's (east y - south y). `verdict_table` applies the interval
test once per distance pair, and `conflict_matrix` looks every pair up in
it. Lanes fill from the feeder's first cell, so the cars at or behind a car
in its lane number its feeder offset + 1; the lane tail needs no pairwise
count.

numpy is imported inside the functions that use it, so importing this
module leaves it unloaded; the first grid run loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .core import SeededRng, SpeedFps, _require, mph_to_fps

if TYPE_CHECKING:
    import numpy as np

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
    arrive_a: float
    leave_a: float
    arrive_b: float
    leave_b: float
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


def place_vehicles(cfg: GridConfig, n: int, rng: SeededRng) -> list[PlacedVehicle]:
    """Drop n cars on the grid, half east-bound and half south-bound.

    Within each direction the feeder coordinate runs 1..38 sequentially; the
    cross coordinate (the lane) is drawn from a shuffled copy of the band, a
    new lane starting only once the previous one is full. Lanes therefore
    fill one at a time, in random order.
    """
    _require(n >= 0 and n % 2 == 0, f"n must be even and >= 0, got {n}")
    _require(n <= 2 * cfg.capacity_per_side, f"n={n} exceeds capacity {2 * cfg.capacity_per_side}")

    feed_lo, feed_len, half = cfg.feeder_range[0], cfg.feeder_len, n // 2
    band = list(range(cfg.intersection_band[0], cfg.intersection_band[1] + 1))
    east_rows = band.copy()
    rng.shuffle(east_rows)
    south_cols = band.copy()
    rng.shuffle(south_cols)

    east = [
        PlacedVehicle(i, feed_lo + i % feed_len, east_rows[i // feed_len], Direction.EAST)
        for i in range(half)
    ]
    south = [
        PlacedVehicle(half + j, south_cols[j // feed_len], feed_lo + j % feed_len, Direction.SOUTH)
        for j in range(half)
    ]
    return east + south


def meeting_events(cars: list[PlacedVehicle], cfg: GridConfig) -> list[MeetingEvent]:
    """Enumerate every east/south pair's crossing cell with both occupancy
    intervals and the conflict verdict.

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
            leave_a = arrive_a + occ
            leave_b = arrive_b + occ
            events.append(
                MeetingEvent(
                    car_a=a.id,
                    car_b=b.id,
                    point=(b.x, a.y),
                    arrive_a=arrive_a,
                    leave_a=leave_a,
                    arrive_b=arrive_b,
                    leave_b=leave_b,
                    conflict=detect_conflict(Interval(arrive_a, leave_a), Interval(arrive_b, leave_b)),
                )
            )
    return events


def propagate_waiting(
    cars: list[PlacedVehicle], blocked: int, penalty_s: float = WAIT_PENALTY_S
) -> list[PlacedVehicle]:
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
    cars: list[PlacedVehicle], events: list[MeetingEvent], penalty_s: float = WAIT_PENALTY_S
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
def verdict_table(cfg: GridConfig) -> np.ndarray:
    """Read-only conflict verdicts indexed [d_e, d_s] by the east and south
    cars' distances in cells to their shared crossing cell.

    Both axes run 0..band end - feeder start, the longest distance a car in
    its feeder x band rectangle can have. Each entry is `detect_conflict` on
    the closed intervals [arrive, arrive + cell_ft / GRID_FPS] with arrive =
    d * cell_ft / GRID_FPS, the arithmetic `meeting_events` uses. Cached,
    because every run of a sweep shares one config.
    """
    import numpy as np

    occ = point_occupation_time(cfg.cell_ft, GRID_FPS)
    longest = cfg.intersection_band[1] - cfg.feeder_range[0]
    arrivals = [time_to_arrive(d, 0, GRID_FPS, cfg.cell_ft) for d in range(longest + 1)]
    intervals = [Interval(arrive, arrive + occ) for arrive in arrivals]
    table = np.array([[detect_conflict(e, s) for s in intervals] for e in intervals])
    table.flags.writeable = False
    return table


def _grid_coords(
    cars: list[PlacedVehicle], x_range: tuple[int, int], y_range: tuple[int, int], label: str
) -> tuple[np.ndarray, np.ndarray]:
    """The cars' x and y as integer arrays, each car checked to lie inside
    x_range x y_range: a car outside it meets no pair of the other flow."""
    import numpy as np

    x = np.fromiter((c.x for c in cars), np.intp, len(cars))
    y = np.fromiter((c.y for c in cars), np.intp, len(cars))
    outside = (x < x_range[0]) | (x > x_range[1]) | (y < y_range[0]) | (y > y_range[1])
    if outside.any():
        car = cars[int(outside.argmax())]
        raise ValueError(f"{label} car {car.id} at ({car.x}, {car.y}) lies outside x {x_range}, y {y_range}")
    return x, y


def conflict_matrix(east: list[PlacedVehicle], south: list[PlacedVehicle], cfg: GridConfig) -> np.ndarray:
    """Boolean conflict verdicts for every (east, south) pair.

    Entry [i, j] is `verdict_table`'s entry for the pair's two distances to
    their crossing cell, sx - ex and ey - sy. With w the table's width, east
    car i has key ey - w*ex and south car j key w*sx - sy; their sum is the
    pair's index into the flattened table, so the mask is one broadcast add
    and one take. East cars must lie in feeder x band and south cars in
    band x feeder, else ValueError: such a pair never meets.
    """
    table = verdict_table(cfg)
    w = table.shape[1]
    feeder, band = cfg.feeder_range, cfg.intersection_band
    ex, ey = _grid_coords(east, feeder, band, "east")
    sx, sy = _grid_coords(south, band, feeder, "south")
    return table.ravel().take((ey - w * ex)[:, None] + (w * sx - sy)[None, :])


def _run_single(cfg: GridConfig, n: int, rng: SeededRng) -> tuple[int, float]:
    """One seeded run: (raw error count, total accumulated waiting)."""
    import numpy as np

    cars = place_vehicles(cfg, n, rng)
    east = cars[: n // 2]
    south = cars[n // 2 :]
    mask = conflict_matrix(east, south, cfg)
    lo = cfg.feeder_range[0]
    # lanes fill from the feeder's first cell, so the cars at-or-behind a car
    # in its own lane (the car itself included) number its feeder offset + 1
    behind_e = np.fromiter((c.x for c in east), np.intp, len(east)) - lo + 1
    behind_s = np.fromiter((c.y for c in south), np.intp, len(south)) - lo + 1

    conflicts_e = np.count_nonzero(mask, axis=1)  # conflicts seen from each east car
    conflicts_s = np.count_nonzero(mask, axis=0)
    errors = 2 * int(conflicts_e.sum())  # every pair is scanned once per direction
    total_waiting = WAIT_PENALTY_S * (
        float(conflicts_e @ (1 + behind_e)) + float(conflicts_s @ (1 + behind_s))
    )
    return errors, total_waiting


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
