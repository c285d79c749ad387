"""Right-turn prediction: a small online 3-nearest-neighbours classifier.

Instances are (day, hour, event) triples labelled right-turn or straight.
The classifier starts from a hand-labelled bootstrap set, predicts with
k=3 under Euclidean distance, and appends each prediction back into its
store so later queries see it (self-training). Three votes over two labels
always have a majority, so a prediction involves no randomness. Appends
stay in memory; a store's two files are written only by
`InstanceStore.save`, which the slot scheduler calls once at the end of
each run for a store bound to files.

Features live on the 5x24x2 lattice that `core.FEATURE_RANGES` spans, so
the store indexes its instances by feature triple and a query walks shells of
equal integer squared distance, nearest first, looking up the triple one step
away, instead of sorting the whole store. On this lattice each of the 187
possible squared distances gives a distinct float distance, rising with the
squared distance, so the shells visit instances in exact distance order;
within a shell, instances keep store order. A query's cost depends on how
far it must look, not on how large the store has grown.
"""

from __future__ import annotations

import io
import itertools
import os
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .core import FEATURE_RANGES, Features, validate_features
from .report import emit_text


# neighbours per vote: three votes over two labels always have a majority
K = 3


class TurnLabel(Enum):
    RIGHT_TURN = "+"
    STRAIGHT = "-"


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
    return [KnnInstance(d, h, e, TurnLabel(s)) for d, h, e, s in _SEED_ROWS]


class StoreFormatError(ValueError):
    """A persisted instance store failed to parse."""

    def __init__(self, path: Path, line_no: int | None, message: str) -> None:
        where = f"{path}" if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line_no = line_no


def _shells() -> list[tuple[tuple[int, int, int], ...]]:
    """Every (dd, dh, de) step between two lattice points, grouped by
    dd² + dh² + de² in ascending order."""
    by_d2: defaultdict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for step in itertools.product(*(range(lo - hi, hi - lo + 1) for lo, hi in FEATURE_RANGES)):
        by_d2[sum(d * d for d in step)].append(step)
    return [tuple(by_d2[d2]) for d2 in sorted(by_d2)]


# One table shared by every query: 1,269 steps in 187 shells.
_SHELLS = _shells()


class InstanceStore:
    """Ordered collection of labelled instances, optionally bound to files.

    Order matters: ties in distance are broken by store order, and the
    on-disk layout (one instance per line) round-trips byte-for-byte.
    `save` writes the files and binds the store to them, as `load_store` does;
    appends stay in memory until the next `save`, which `run_prodline` makes
    for each bound store of its predictor when the run ends.

    The index behind `knn_predict` maps each feature triple to the store
    indices of its instances, in store order. It is built when the store is
    made and extended by `append`, the one way a store grows: the store
    copies the instances it is made from, and `instances` reads them back as
    a tuple.
    """

    def __init__(
        self,
        instances: Iterable[KnnInstance] = (),
        features_path: Path | None = None,
        labels_path: Path | None = None,
    ) -> None:
        self._instances = list(instances)
        self.features_path = features_path
        self.labels_path = labels_path
        self._postings: dict[Features, list[int]] = {}
        for index, inst in enumerate(self._instances):
            self._postings.setdefault(inst.features, []).append(index)

    @property
    def instances(self) -> tuple[KnnInstance, ...]:
        """The instances in store order, copied on each read."""
        return tuple(self._instances)

    def __len__(self) -> int:
        return len(self._instances)

    def append(self, instance: KnnInstance) -> None:
        """Add an instance in memory; the files change only at the next `save`."""
        self._postings.setdefault(instance.features, []).append(len(self._instances))
        self._instances.append(instance)

    def save(self, features_path: Path | str, labels_path: Path | str) -> None:
        """Write both files in full under temporary names beside them, rename
        them over the targets, features first, then bind the store to the
        targets. A failed write changes neither file nor the binding; only a
        failure between the renames leaves new features beside old labels."""
        targets = (Path(features_path), Path(labels_path))
        temps = [path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in targets]
        try:
            emit_text("".join(map(_feature_line, self._instances)), temps[0])
            emit_text("".join(map(_label_line, self._instances)), temps[1])
            for temp, path in zip(temps, targets):
                os.replace(temp, path)
        except BaseException:
            for temp in temps:
                temp.unlink(missing_ok=True)
            raise
        self.features_path, self.labels_path = targets


def _feature_line(inst: KnnInstance) -> str:
    return f"{inst.day} {inst.hour} {inst.event}\n"


def _label_line(inst: KnnInstance) -> str:
    return f"{inst.label.value}\n"


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
            labels.append(TurnLabel(symbol))
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


def knn_predict(query: Features, store: InstanceStore) -> TurnLabel:
    """Majority label among the K = 3 nearest stored instances.

    Neighbours are taken shell by shell in ascending Euclidean distance.
    Within a shell, instances come in store order, and the last shell needed
    contributes only its earliest-stored instances, so the neighbour list is
    exactly K long: the first K of the store sorted stably by distance.
    """
    validate_features(query)
    if not len(store) >= K:
        raise ValueError(f"store has {len(store)} instances, need at least k={K}")

    postings, instances = store._postings, store._instances
    day, hour, event = query
    labels: list[TurnLabel] = []
    for shell in _SHELLS:
        need = K - len(labels)
        found: list[int] = []
        for dd, dh, de in shell:
            # a step off the lattice misses; a triple's postings are in store
            # order, so only its first `need` can survive the merge
            at = postings.get((day + dd, hour + dh, event + de))
            if at:
                found += at[:need]
        if found:
            found.sort()
            labels += [instances[index].label for index in found[:need]]
            if len(labels) == K:
                break

    right = labels.count(TurnLabel.RIGHT_TURN)
    return TurnLabel.RIGHT_TURN if 2 * right > K else TurnLabel.STRAIGHT


class TurnPredictor:
    """Per-group online classifier used by the slot scheduler.

    Lane groups A and B each get their own store (bootstrapped identically);
    every prediction is `knn_predict`'s 3-NN vote, appended back into the
    group's store.
    """

    def __init__(self) -> None:
        self.stores = {"A": InstanceStore(seed_instances()), "B": InstanceStore(seed_instances())}

    def predict_and_record(self, features: Features, group: str) -> TurnLabel:
        store = self.stores[group]
        label = knn_predict(features, store)
        store.append(KnnInstance(*features, label))
        return label
