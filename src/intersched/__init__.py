"""Deterministic intersection-scheduling experiments.

Two models of the same four-way crossing: a grid reservation baseline that
counts conflicting occupancy intervals at crossing cells, and a slot
scheduler that admits speed-banded vehicles into fixed-length moving
containers behind alternating gates. Plus demand patterns, an online
right-turn classifier, and deterministic reporting.
"""

from .baseline import (
    BaselineReport,
    Direction,
    GridConfig,
    Interval,
    MeetingEvent,
    PlacedVehicle,
    detect_conflict,
    meeting_events,
    place_vehicles,
    point_occupation_time,
    propagate_waiting,
    run_baseline,
    time_to_arrive,
)
from .core import (
    LaneId,
    SeededRng,
    Vehicle,
    mph_to_fps,
    mph_to_fps_truncated,
)
from .flows import (
    PatternKind,
    QueueResult,
    arranged_wait,
    generate_arrivals,
    waiting_pct,
)
from .prodline import (
    Decision,
    IntersectionConfig,
    LaneConfig,
    RejectReason,
    ScheduleRecord,
    admit,
    build_demand,
    exit_second,
    gate_open,
    run_prodline,
    verify_no_collisions,
)
from .report import Model, RunReport, emit_csv, emit_json, emit_schedule_csv, summarize
from .turns import (
    InstanceStore,
    KnnInstance,
    StoreFormatError,
    TurnLabel,
    TurnPredictor,
    knn_predict,
    load_store,
    seed_instances,
)

__version__ = "0.1.0"
