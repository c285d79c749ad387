"""Right-turn prediction: a small online k-nearest-neighbours classifier.

Instances are (day, hour, event) triples labelled right-turn or straight.
The classifier starts from a hand-labelled bootstrap set, predicts with
k=3 under Euclidean distance, and appends each prediction back into its
store so later queries see it (self-training).

Features live on a 5x24x2 lattice of 240 points, so the store indexes its
instances by lattice point and a query walks shells of equal integer squared
distance, nearest first, instead of sorting the whole store. On this lattice
each of the 187 possible squared distances gives a distinct float distance,
rising with the squared distance, so the shells visit instances in exact
distance order; within a shell, instances keep store order. A query's cost
depends on how far it must look, not on how large the store has grown.
"""

from __future__ import annotations

import io
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .core import Features, SeededRng, validate_features


class TurnLabel(Enum):
    RIGHT_TURN = "+"
    STRAIGHT = "-"

    @classmethod
    def parse(cls, symbol: str) -> "TurnLabel":
        try:
            return cls(symbol)
        except ValueError:
            raise ValueError(f"turn label must be '+' or '-', got {symbol!r}") from None


@dataclass(frozen=True)
class KnnInstance:
    day: int
    hour: int
    event: int
    label: TurnLabel

    def __post_init__(self) -> None:
        validate_features(self.features)

    @property
    def features(self) -> Features:
        return (self.day, self.hour, self.event)


# Bootstrap training set the classifier ships with: five midweek daytime
# right-turns and four event-day non-turns.
_SEED_ROWS = (
    (1, 9, 0, "+"),
    (3, 10, 0, "+"),
    (4, 8, 0, "+"),
    (3, 8, 0, "+"),
    (4, 10, 0, "+"),
    (2, 20, 1, "-"),
    (5, 19, 1, "-"),
    (1, 4, 1, "-"),
    (2, 7, 1, "-"),
)


def seed_instances() -> list[KnnInstance]:
    return [KnnInstance(d, h, e, TurnLabel.parse(s)) for d, h, e, s in _SEED_ROWS]


class StoreFormatError(ValueError):
    """A persisted instance store failed to parse."""

    def __init__(self, path: Path, line_no: int | None, message: str) -> None:
        where = f"{path}" if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line_no = line_no


_LATTICE_POINTS = 5 * 24 * 2


def _lattice_point(day: int, hour: int, event: int) -> int:
    return ((day - 1) * 24 + hour) * 2 + event


def _shells() -> list[tuple[tuple[int, int, int, int], ...]]:
    """Every (dd, dh, de) a query can see on the lattice, with its lattice-point
    offset, grouped by dd² + dh² + de² in ascending order."""
    by_d2: defaultdict[int, list[tuple[int, int, int, int]]] = defaultdict(list)
    for dd in range(-4, 5):
        for dh in range(-23, 24):
            for de in (-1, 0, 1):
                by_d2[dd * dd + dh * dh + de * de].append((dd, dh, de, (dd * 24 + dh) * 2 + de))
    return [tuple(by_d2[d2]) for d2 in sorted(by_d2)]


# One table shared by every query: 1,269 offsets in 187 shells.
_SHELLS = _shells()


@dataclass
class InstanceStore:
    """Ordered collection of labelled instances, optionally file-backed.

    Order matters: ties in distance are broken by store order, and the
    on-disk layout (one instance per line) round-trips byte-for-byte.

    The lattice index behind `knn_predict` follows `instances` by catching up
    on appended instances and rebuilding when the list is replaced or shrinks;
    any other edit of `instances` must assign a new list.
    """

    instances: list[KnnInstance] = field(default_factory=list)
    features_path: Path | None = None
    labels_path: Path | None = None
    _postings: list[list[int]] = field(default_factory=list, init=False, repr=False, compare=False)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)
    _indexed_list: list[KnnInstance] | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.instances)

    def _postings_by_point(self) -> list[list[int]]:
        """Store indices of the instances at each lattice point, in store order."""
        instances = self.instances
        if instances is not self._indexed_list or len(instances) < self._indexed:
            self._postings = [[] for _ in range(_LATTICE_POINTS)]
            self._indexed = 0
            self._indexed_list = instances
        for index in range(self._indexed, len(instances)):
            inst = instances[index]
            self._postings[_lattice_point(inst.day, inst.hour, inst.event)].append(index)
        self._indexed = len(instances)
        return self._postings

    def append(self, instance: KnnInstance) -> None:
        """Add an instance; a file-backed store also appends its line to each
        file, features first, in the bytes `save` would write for it.

        Each line is one `os.write` on a descriptor opened with `O_APPEND` and
        closed again; a missing file is created, as append mode would.
        """
        self.instances.append(instance)
        if self.features_path is not None and self.labels_path is not None:
            _append_line(self.features_path, f"{instance.day} {instance.hour} {instance.event}\n")
            _append_line(self.labels_path, f"{instance.label.value}\n")

    def save(self, features_path: Path | str, labels_path: Path | str) -> None:
        """Write the whole store and bind it to the given paths."""
        features_path = Path(features_path)
        labels_path = Path(labels_path)
        with open(features_path, "w", encoding="utf-8", newline="") as fh:
            for inst in self.instances:
                fh.write(f"{inst.day} {inst.hour} {inst.event}\n")
        with open(labels_path, "w", encoding="utf-8", newline="") as fh:
            for inst in self.instances:
                fh.write(f"{inst.label.value}\n")
        self.features_path = features_path
        self.labels_path = labels_path


def _append_line(path: Path, line: str) -> None:
    data = line.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        if os.write(fd, data) != len(data):
            raise OSError(f"{path}: short write appending to the store")
    finally:
        os.close(fd)


def _read_lines(path: Path) -> list[str]:
    """The file's lines, decoded as UTF-8 with universal newlines as text-mode
    `open` reads them. A byte that is not UTF-8 is a StoreFormatError on the
    line that holds it."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; the bad one starts a line or
        # continues the last of them
        before = data[: exc.start].decode("utf-8") + "?"
        line_no = len(io.StringIO(before, newline=None).readlines())
        raise StoreFormatError(path, line_no, f"not UTF-8 text: {exc}") from None
    return io.StringIO(text, newline=None).readlines()


def load_store(features_path: Path | str, labels_path: Path | str) -> InstanceStore:
    """Parse a persisted store. Blank lines are skipped; the two files must
    describe the same number of instances."""
    features_path = Path(features_path)
    labels_path = Path(labels_path)

    rows: list[tuple[int, tuple[int, int, int]]] = []
    for line_no, line in enumerate(_read_lines(features_path), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise StoreFormatError(features_path, line_no, f"expected 3 fields, got {len(parts)}")
        try:
            day, hour, event = (int(p) for p in parts)
        except ValueError:
            raise StoreFormatError(features_path, line_no, f"non-integer field in {line.strip()!r}") from None
        rows.append((line_no, (day, hour, event)))

    labels: list[TurnLabel] = []
    for line_no, line in enumerate(_read_lines(labels_path), start=1):
        symbol = line.strip()
        if not symbol:
            continue
        try:
            labels.append(TurnLabel.parse(symbol))
        except ValueError:
            raise StoreFormatError(labels_path, line_no, f"bad label {symbol!r}") from None

    if len(rows) != len(labels):
        raise StoreFormatError(
            labels_path, None, f"{len(rows)} feature rows but {len(labels)} labels"
        )
    instances = []
    for (line_no, (day, hour, event)), label in zip(rows, labels):
        try:
            instances.append(KnnInstance(day, hour, event, label))
        except ValueError as exc:
            raise StoreFormatError(features_path, line_no, str(exc)) from None
    return InstanceStore(instances, features_path, labels_path)


def knn_predict(query: Features, store: InstanceStore, k: int = 3, rng: SeededRng | None = None) -> TurnLabel:
    """Majority label among the k nearest stored instances.

    Neighbours are taken shell by shell in ascending Euclidean distance.
    Within a shell, instances come in store order, and the last shell needed
    contributes only its earliest-stored instances, so the neighbour list is
    exactly k long: the first k of the store sorted stably by distance. A
    tie between modal labels (impossible at k=3 with two classes, possible
    at even k) is broken uniformly at random among the tied labels in order
    of first appearance within the neighbours; that draw is the only
    randomness.
    """
    validate_features(query)
    if not k >= 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not len(store) >= k:
        raise ValueError(f"store has {len(store)} instances, need at least k={k}")

    postings = store._postings_by_point()
    day, hour, event = query
    origin = _lattice_point(day, hour, event)
    neighbours: list[KnnInstance] = []
    for shell in _SHELLS:
        need = k - len(neighbours)
        found: list[int] = []
        for dd, dh, de, offset in shell:
            if 1 <= day + dd <= 5 and 0 <= hour + dh <= 23 and 0 <= event + de <= 1:
                # each point's postings are in store order, so its first
                # `need` are the only ones that can survive the merge
                found += postings[origin + offset][:need]
        if found:
            found.sort()
            neighbours += [store.instances[index] for index in found[:need]]
            if len(neighbours) == k:
                break

    votes = Counter(inst.label for inst in neighbours)
    best = max(votes.values())
    modal: list[TurnLabel] = []
    for inst in neighbours:
        if votes[inst.label] == best and inst.label not in modal:
            modal.append(inst.label)
    if len(modal) == 1:
        return modal[0]
    if rng is None:
        raise ValueError(f"{len(modal)}-way label tie at k={k} needs an rng to break it")
    return modal[rng.rand_int(0, len(modal) - 1)]


class TurnPredictor:
    """Per-group online classifier used by the slot scheduler.

    Lane groups A and B each get their own store (bootstrapped identically);
    every prediction takes `knn_predict`'s k and is appended back into the
    group's store.
    """

    def __init__(self) -> None:
        self.stores = {"A": InstanceStore(seed_instances()), "B": InstanceStore(seed_instances())}

    def predict_and_record(self, features: Features, group: str, rng: SeededRng) -> TurnLabel:
        store = self.stores[group]
        label = knn_predict(features, store, rng=rng)
        store.append(KnnInstance(*features, label))
        return label
