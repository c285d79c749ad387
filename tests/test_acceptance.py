"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line with its measured values (run with
`pytest tests/test_acceptance.py -v -s` to see them); a failed assert makes
the corresponding criterion's line read FAILED in the pytest report instead.
"""

import filecmp
import heapq
import math
import time
from collections import Counter

import pytest

from intersched.baseline import GridConfig, run_baseline
from intersched.cli import reproduce_all
from intersched.core import LaneId, SeededRng, mph_to_fps
from intersched.flows import (
    PatternKind,
    LANE_CAPACITY,
    arranged_wait,
    generate_arrivals,
    waiting_pct,
)
from intersched.prodline import (
    IntersectionConfig,
    build_demand,
    run_prodline,
    verify_no_collisions,
)
from intersched.turns import (
    InstanceStore,
    KnnInstance,
    TurnLabel,
    TurnPredictor,
    knn_predict,
    load_store,
    seed_instances,
)

STAY = 17.179657557103365


def _passed(name: str, detail: str) -> None:
    print(f"PASS: {name} ({detail})")


def _schedule(demand):
    return {lane_id: d.scheduled for lane_id, d in demand.items()}


def test_exit_times_exact_to_nanoseconds():
    started = time.perf_counter()
    cfg = IntersectionConfig.default()
    demand = build_demand(cfg, PatternKind.AVERAGE, SeededRng(42))
    records, _ = run_prodline(cfg, _schedule(demand), TurnPredictor(), SeededRng(42), pattern=PatternKind.AVERAGE)

    first_a = next(r for r in records if r.lane is LaneId.A1)
    first_b = next(r for r in records if r.lane is LaneId.B1)
    assert first_a.arrive_s == 0.0
    assert abs(first_a.exit_s - STAY) <= 1e-9
    assert first_b.arrive_s == 1.0
    assert abs(first_b.exit_s - (1.0 + STAY)) <= 1e-9
    for r in records:
        if r.admitted:
            assert abs((r.exit_s - r.arrive_s) - STAY) <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(
        "scheduled exits exact to 1e-9",
        f"first exits {first_a.exit_s!r} and {first_b.exit_s!r}, "
        f"{sum(r.admitted for r in records)} vehicles, {elapsed:.3f} s",
    )


def test_scheduler_never_collides():
    started = time.perf_counter()
    cfg = IntersectionConfig.default()
    master = SeededRng(42)
    patterns = list(PatternKind)
    checked = 0
    for i in range(1000):
        rng = master.spawn(i)
        demand = build_demand(cfg, patterns[i % 3], rng)
        records, report = run_prodline(cfg, _schedule(demand), TurnPredictor(), rng, pattern=patterns[i % 3])
        assert verify_no_collisions(records, cfg) == 0
        for r in records:
            if r.admitted:
                # gate parity: A lanes admit on even seconds, B on odd
                assert int(r.arrive_s) % 2 == cfg.lane(r.lane).phase_parity
        assert report.collisions_per_vehicle == 0.0
        checked += len(records)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passed(
        "1,000 scheduler runs collision-free",
        f"{checked} vehicle records, all patterns, {elapsed:.2f} s",
    )


def test_pattern_economics():
    started = time.perf_counter()

    # one arrival per open slot: nothing waits, nothing spills
    average = generate_arrivals(PatternKind.AVERAGE, 60, SeededRng(0))
    waits = arranged_wait(average, take_first=30)
    assert sum(waits) / len(waits) == 0.0
    assert waiting_pct(len(average), LANE_CAPACITY) == 0.0

    # doubled demand: exactly 100% extra space
    worst = generate_arrivals(PatternKind.WORST, 60, SeededRng(0))
    assert waiting_pct(len(worst), LANE_CAPACITY) == 100.0

    # random demand: spill percentage versus an independent brute count
    for seed in range(25):
        arrivals = generate_arrivals(PatternKind.RANDOM, 720, SeededRng(seed))
        brute = 0
        rng = SeededRng(seed)
        for _ in range(720):
            if rng.rand_int(0, 1) == 1:
                brute += 1
        assert len(arrivals) == brute
        expect = ((brute - 30) / 30 * 100.0) if brute > 30 else 0.0
        assert waiting_pct(brute, LANE_CAPACITY) == pytest.approx(expect)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(
        "pattern economics 0% / 100% / (n-30)/30",
        f"25 random draws brute-checked, {elapsed:.3f} s",
    )


def test_grid_model_statistics():
    # the target curves come from runs whose seed is unknown, so this is a
    # statistical reproduction at a pinned seed: means over 100 runs per
    # point must land within +-20% of the targets and grow strictly with n
    started = time.perf_counter()
    cfg = GridConfig()
    targets = {50: (1.0, 85.0), 200: (3.0, 320.0), 300: (4.3, 515.0)}
    master = SeededRng(3)
    collisions = {}
    waiting = {}
    for idx, n in enumerate(sorted(targets)):
        report = run_baseline(cfg, n, runs=100, rng=master.spawn(idx))
        collisions[n] = report.collisions_per_vehicle
        waiting[n] = report.avg_waiting_s
        target_c, target_w = targets[n]
        assert abs(collisions[n] - target_c) <= 0.20 * target_c, (n, collisions[n])
        assert abs(waiting[n] - target_w) <= 0.20 * target_w, (n, waiting[n])

    assert collisions[50] < collisions[200] < collisions[300]
    assert waiting[50] < waiting[200] < waiting[300]

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(
        "grid congestion within 20% of the target curves",
        f"collisions {collisions[50]:.3f}/{collisions[200]:.3f}/{collisions[300]:.3f}, "
        f"waiting {waiting[50]:.1f}/{waiting[200]:.1f}/{waiting[300]:.1f} s, {elapsed:.2f} s",
    )


def _brute_force_knn(query, instances, k, rng):
    """Independent reimplementation: full distance table, stable order by
    store index, majority vote, same tie-break draw."""
    day, hour, event = query
    dist = [
        math.sqrt((day - inst.day) ** 2 + (hour - inst.hour) ** 2 + (event - inst.event) ** 2)
        for inst in instances
    ]
    # nsmallest equals sorted(...)[:k], so equal distances keep store order
    chosen = [instances[idx] for idx in heapq.nsmallest(k, range(len(instances)), key=dist.__getitem__)]
    votes = Counter(inst.label for inst in chosen)
    top = max(votes.values())
    modal = []
    for inst in chosen:
        if votes[inst.label] == top and inst.label not in modal:
            modal.append(inst.label)
    if len(modal) == 1:
        return modal[0]
    return modal[rng.rand_int(0, len(modal) - 1)]


def test_classifier_matches_brute_force(tmp_path):
    started = time.perf_counter()
    grow_rng = SeededRng(1001)
    store = InstanceStore(seed_instances())
    for _ in range(60):
        store.append(
            KnnInstance(
                grow_rng.rand_int(1, 5),
                grow_rng.rand_int(0, 23),
                grow_rng.rand_int(0, 1),
                TurnLabel.RIGHT_TURN if grow_rng.rand_int(0, 1) else TurnLabel.STRAIGHT,
            )
        )
    assert len(store) == 69

    query_rng = SeededRng(2002)
    matches = 0
    for _ in range(1000):
        query = (
            query_rng.rand_int(1, 5),
            query_rng.rand_int(0, 23),
            query_rng.rand_int(0, 1),
        )
        got = knn_predict(query, store)
        expect = _brute_force_knn(query, store.instances, 3, SeededRng(3003))
        assert got is expect
        matches += 1

    f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
    store.save(f, l)
    reloaded = load_store(f, l)
    assert reloaded.instances == store.instances
    f2, l2 = tmp_path / "features2.txt", tmp_path / "labels2.txt"
    reloaded.save(f2, l2)
    assert f.read_bytes() == f2.read_bytes()
    assert l.read_bytes() == l2.read_bytes()

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(
        "classifier equals brute force on 1,000 queries",
        f"{matches}/1000 matched over {len(store)} instances, "
        f"persistence byte-exact, {elapsed:.2f} s",
    )


def test_arranged_queue_matches_positional_rule():
    started = time.perf_counter()

    # hand-traced bunched example
    example = arranged_wait([0, 1, 2, 3], take_first=4)
    example_avg = sum(example) / len(example)
    assert abs(example_avg - 8.382) <= 1e-3

    # the reference random arrival set is only known from slot 30 onward;
    # every known vehicle arrives past its service position, so the rule says
    # none of them wait (the set's 6.76 s average lives in the missing prefix)
    legible_tail = [30, 32, 33, 34, 36, 38, 41, 43, 48, 50, 52, 53, 57, 58, 59]
    assert arranged_wait(legible_tail, take_first=len(legible_tail)) == [0.0] * 15

    list_rng = SeededRng(77)
    for _ in range(1000):
        size = list_rng.rand_int(1, 40)
        slots = sorted(set(list_rng.rand_int(0, 200) for _ in range(size)))
        waits = arranged_wait(slots, take_first=len(slots))
        for i, (arr, wait) in enumerate(zip(slots, waits)):
            assert wait == max(0, 2 * i - arr) * 5.5880

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(
        "arranged queue equals the positional rule",
        f"1,000 random lists, example avg {example_avg!r} s, {elapsed:.3f} s",
    )


def test_formula_spot_checks():
    assert abs(mph_to_fps(62.5) - 91.66667) <= 5e-6
    assert IntersectionConfig.default().lane(LaneId.A1).average_speed == 62.5
    assert waiting_pct(60) == 100.0

    from intersched.baseline import time_to_arrive

    arrival = time_to_arrive(1, 0, mph_to_fps(80.0), cell_ft=600.0)
    assert abs(arrival - 5.11) <= 0.01

    _passed(
        "unit conversions and formulas",
        f"62.5 mph = {mph_to_fps(62.5):.5f} fps, 600 ft at 80 mph = {arrival:.4f} s",
    )


def test_reproduce_twice_is_byte_identical(tmp_path):
    started = time.perf_counter()
    first = tmp_path / "first"
    second = tmp_path / "second"
    reproduce_all(42, first)
    reproduce_all(42, second)

    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert mismatch == [] and errors == []
    assert len(match) == len(names)

    elapsed = time.perf_counter() - started
    _passed(
        "full reproduction is byte-identical",
        f"{len(names)} files compared, {elapsed:.2f} s",
    )
