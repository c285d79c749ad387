"""Nearest-neighbour turn classifier and its two-file instance store."""

import math

import pytest
from test_acceptance import _brute_force_knn

from intersched import report, turns
from intersched.core import SeededRng
from intersched.turns import (
    InstanceStore,
    KnnInstance,
    StoreFormatError,
    TurnLabel,
    TurnPredictor,
    knn_predict,
    load_store,
    seed_instances,
)

RIGHT = TurnLabel.RIGHT_TURN
STRAIGHT = TurnLabel.STRAIGHT
LATTICE = [(day, hour, event) for day in range(1, 6) for hour in range(24) for event in (0, 1)]


class TestLabels:
    def test_instance_validates_features(self):
        with pytest.raises(ValueError):
            KnnInstance(0, 9, 0, RIGHT)
        with pytest.raises(ValueError):
            KnnInstance(1, 24, 0, RIGHT)


def bootstrap():
    return InstanceStore(seed_instances())


class TestBootstrap:
    def test_nine_rows_five_right_four_straight(self):
        store = bootstrap()
        assert len(store) == 9
        labels = [inst.label for inst in store.instances]
        assert labels.count(RIGHT) == 5
        assert labels.count(STRAIGHT) == 4

    def test_fresh_copies_are_independent(self):
        a, b = bootstrap(), bootstrap()
        a.append(KnnInstance(1, 1, 0, RIGHT))
        assert len(a) == 10 and len(b) == 9

    def test_append_is_the_only_way_in(self):
        # the triple index follows only appends, so nothing else may add
        instances = seed_instances()
        store = InstanceStore(instances)
        instances.append(KnnInstance(1, 1, 0, RIGHT))
        assert len(store) == 9 and store.instances == tuple(seed_instances())
        with pytest.raises(AttributeError):
            store.instances.append(KnnInstance(1, 1, 0, RIGHT))
        with pytest.raises(AttributeError):
            store.instances = ()
        # the bootstrap's 3-NN of (1, 1, 0) is straight; three appends there outvote it
        assert knn_predict((1, 1, 0), store) is STRAIGHT
        for _ in range(3):
            store.append(KnnInstance(1, 1, 0, RIGHT))
        assert store.instances[-3:] == (KnnInstance(1, 1, 0, RIGHT),) * 3
        assert knn_predict((1, 1, 0), store) is RIGHT


class TestKnnPredict:
    def test_morning_weekday_is_right_turn(self):
        assert knn_predict((1, 9, 0), bootstrap()) is RIGHT

    def test_exact_match_is_a_vote(self):
        # the straight exact match and the straight instance two hours off
        # outvote the right-turn one hour off; without the exact match, a
        # right-turn three hours off takes its vote and the answer flips
        store = InstanceStore([
            KnnInstance(2, 12, 0, RIGHT),
            KnnInstance(2, 6, 0, RIGHT),
            KnnInstance(2, 11, 0, STRAIGHT),
            KnnInstance(2, 8, 0, RIGHT),
            KnnInstance(2, 9, 0, STRAIGHT),
        ])
        assert knn_predict((2, 9, 0), store) is STRAIGHT
        assert knn_predict((2, 9, 0), InstanceStore(store.instances[:-1])) is RIGHT

    def test_evening_event_is_straight(self):
        assert knn_predict((5, 20, 1), bootstrap()) is STRAIGHT

    def test_stable_sort_prefers_store_order_on_equal_distance(self):
        # the two exact matches split the vote; of the two instances at equal
        # distance one hour off, the third vote must take the one stored first
        store = InstanceStore([
            KnnInstance(2, 9, 0, RIGHT),
            KnnInstance(2, 9, 0, STRAIGHT),
            KnnInstance(2, 10, 0, STRAIGHT),
            KnnInstance(2, 8, 0, RIGHT),
        ])
        assert knn_predict((2, 9, 0), store) is STRAIGHT
        flipped = InstanceStore(list(reversed(store.instances)))
        assert knn_predict((2, 9, 0), flipped) is RIGHT

    def test_store_permutation_irrelevant_without_boundary_tie(self):
        store = bootstrap()
        rng = SeededRng(11)
        shuffled = list(store.instances)
        rng.shuffle(shuffled)
        for query in [(1, 9, 0), (5, 20, 1), (3, 12, 0), (2, 6, 1)]:
            ranked = sorted(math.dist(query, i.features) for i in store.instances)
            if ranked[2] == ranked[3]:  # boundary tie, order may matter
                continue
            assert knn_predict(query, store) is knn_predict(query, InstanceStore(shuffled))

    def test_empty_store(self):
        with pytest.raises(ValueError):
            knn_predict((1, 9, 0), InstanceStore([]))


def _squared_distance(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _next_draw(rng):
    """A draw that tells two generators apart unless they took equally many draws."""
    return rng.rand_int(0, 2**31)


class TestLatticeIndex:
    def test_distance_order_is_squared_distance_order(self):
        # the premise of knn_predict's shell walk, over all 240 x 240 pairs
        dists_by_d2 = {}
        for query in LATTICE:
            by_dist = sorted(LATTICE, key=lambda point: math.dist(query, point))
            by_d2 = sorted(LATTICE, key=lambda point: _squared_distance(query, point))
            assert by_dist == by_d2
            for point in LATTICE:
                dists_by_d2.setdefault(_squared_distance(query, point), set()).add(math.dist(query, point))
        # no shell splits into two floats, and the floats rise strictly shell by shell
        assert all(len(dists) == 1 for dists in dists_by_d2.values())
        dists = [min(dists_by_d2[d2]) for d2 in sorted(dists_by_d2)]
        assert all(a < b for a, b in zip(dists, dists[1:]))
        assert len(dists) == 187

    def test_index_follows_appends(self):
        # what `append` adds, the next query sees, at a new triple and at one
        # already indexed
        store = InstanceStore([KnnInstance(2, hour, 0, STRAIGHT) for hour in (10, 11, 12)])
        assert knn_predict((2, 9, 0), store) is STRAIGHT
        store.append(KnnInstance(2, 9, 0, RIGHT))
        store.append(KnnInstance(2, 9, 0, RIGHT))
        assert knn_predict((2, 9, 0), store) is RIGHT
        assert knn_predict((2, 10, 0), store) is STRAIGHT
        store.append(KnnInstance(2, 10, 0, RIGHT))
        store.append(KnnInstance(2, 10, 0, RIGHT))
        assert knn_predict((2, 10, 0), store) is RIGHT

    @pytest.mark.parametrize("k", [turns.K])
    def test_matches_brute_force_while_self_training(self, k, tmp_path):
        """Stores built by the constructor, by load_store from a fresh save and
        by append answer 3,000 self-training queries as the sort-based oracle
        does at k = 3, where the oracle never needs its tie-break draw."""
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        InstanceStore(seed_instances()).save(f, l)
        appended = InstanceStore()
        for inst in seed_instances():
            appended.append(inst)
        stores = {"constructor": InstanceStore(seed_instances()), "load_store": load_store(f, l), "append": appended}
        instances = seed_instances()
        query_rng, flip_rng = SeededRng(4004), SeededRng(5005)
        ties = 0
        for step in range(3000):
            if step % 500 == 0:
                stores["constructor"] = InstanceStore(list(instances))
            if step % 1000 == 0:
                # appends stay in memory: the reloaded store is what `save` wrote
                stores["load_store"].save(f, l)
                stores["load_store"] = load_store(f, l)
            query = (query_rng.rand_int(1, 5), query_rng.rand_int(0, 23), query_rng.rand_int(0, 1))
            oracle_rng = SeededRng(step)
            expect = _brute_force_knn(query, instances, k, oracle_rng)
            ties += _next_draw(oracle_rng) != _next_draw(SeededRng(step))
            for how, store in stores.items():
                assert knn_predict(query, store) is expect, (how, step)
            # an occasional flipped label keeps the vote mixed
            label = expect
            if flip_rng.rand_int(0, 7) == 0:
                label = STRAIGHT if expect is RIGHT else RIGHT
            instances.append(KnnInstance(*query, label))
            for store in stores.values():
                store.append(KnnInstance(*query, label))
        assert ties == 0
        assert all(store.instances == tuple(instances) for store in stores.values())
        stores["append"].save(f, l)
        assert load_store(f, l).instances == tuple(instances)


class TestStorePersistence:
    def test_save_load_round_trip(self, tmp_path):
        store = bootstrap()
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        store.save(f, l)
        loaded = load_store(f, l)
        assert loaded.instances == store.instances

    def test_save_is_byte_stable(self, tmp_path):
        store = bootstrap()
        f1, l1 = tmp_path / "f1.txt", tmp_path / "l1.txt"
        f2, l2 = tmp_path / "f2.txt", tmp_path / "l2.txt"
        store.save(f1, l1)
        bootstrap().save(f2, l2)
        assert f1.read_bytes() == f2.read_bytes()
        assert l1.read_bytes() == l2.read_bytes()

    def test_append_persists_incrementally(self, tmp_path):
        # an append stays in memory; the next save persists it
        store = bootstrap()
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        store.save(f, l)
        saved = f.read_bytes(), l.read_bytes()
        store.append(KnnInstance(2, 11, 0, RIGHT))
        assert (f.read_bytes(), l.read_bytes()) == saved
        assert len(load_store(f, l)) == 9
        store.save(store.features_path, store.labels_path)
        reloaded = load_store(f, l)
        assert len(reloaded) == 10
        assert reloaded.instances[-1] == KnnInstance(2, 11, 0, RIGHT)

    def test_appends_give_the_bytes_of_a_fresh_save(self, tmp_path):
        store = bootstrap()
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        store.save(f, l)
        rng = SeededRng(11)
        for _ in range(50):
            day, hour, event = rng.choice(LATTICE)
            store.append(KnnInstance(day, hour, event, rng.choice([RIGHT, STRAIGHT])))
        assert {inst.label for inst in store.instances[9:]} == {RIGHT, STRAIGHT}
        assert f.read_bytes().count(b"\n") == l.read_bytes().count(b"\n") == 9
        # saving the grown store over its own files gives a fresh store's bytes
        store.save(f, l)
        fresh_f, fresh_l = tmp_path / "fresh_features.txt", tmp_path / "fresh_labels.txt"
        InstanceStore(list(store.instances)).save(fresh_f, fresh_l)
        assert f.read_bytes() == fresh_f.read_bytes()
        assert l.read_bytes() == fresh_l.read_bytes()
        # one LF-terminated UTF-8 line per instance, no CR
        assert b"\r" not in f.read_bytes() + l.read_bytes()
        assert f.read_bytes().decode("utf-8").count("\n") == l.read_bytes().decode("utf-8").count("\n") == 59

    def test_failed_save_leaves_the_store_unbound(self, tmp_path):
        store = bootstrap()
        f, l = tmp_path / "features.txt", tmp_path / "labels"
        l.mkdir()
        with pytest.raises(OSError):
            store.save(f, l)
        assert (store.features_path, store.labels_path) == (None, None)
        store.append(KnnInstance(2, 11, 0, RIGHT))
        assert len(store) == 10
        # the labels rename failed after the features rename: the one window
        # `save` leaves open
        assert f.read_bytes().count(b"\n") == 9
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.txt", "labels"]

    def test_failed_second_write_keeps_the_old_pair(self, tmp_path, monkeypatch):
        store = bootstrap()
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        store.save(f, l)
        saved = f.read_bytes(), l.read_bytes()
        store.append(KnnInstance(2, 11, 0, RIGHT))
        writes = []

        def emit_text(text, path):
            writes.append(path)
            if len(writes) == 2:
                raise OSError(f"{path}: disk full")
            return report.emit_text(text, path)

        monkeypatch.setattr(turns, "emit_text", emit_text)
        for target in ((f, l), (tmp_path / "f2.txt", tmp_path / "l2.txt")):
            writes.clear()
            with pytest.raises(OSError, match="disk full"):
                store.save(*target)
            assert (f.read_bytes(), l.read_bytes()) == saved
            assert sorted(p.name for p in tmp_path.iterdir()) == ["features.txt", "labels.txt"]
            assert (store.features_path, store.labels_path) == (f, l)
        monkeypatch.undo()
        store.save(f, l)
        assert len(load_store(f, l)) == 10

    def test_save_leaves_no_temporary_file(self, tmp_path):
        store = bootstrap()
        store.save(tmp_path / "features.txt", tmp_path / "labels.txt")
        store.append(KnnInstance(2, 11, 0, RIGHT))
        store.save(store.features_path, store.labels_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.txt", "labels.txt"]

    def test_append_recreates_a_deleted_features_file(self, tmp_path):
        # an append does not touch the files; the next save writes both whole
        store = bootstrap()
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        store.save(f, l)
        f.unlink()
        store.append(KnnInstance(2, 11, 0, RIGHT))
        assert not f.exists() and len(l.read_bytes().splitlines()) == 9
        store.save(store.features_path, store.labels_path)
        assert f.read_bytes().endswith(b"\n2 11 0\n") and len(f.read_bytes().splitlines()) == 10
        assert l.read_bytes().endswith(b"+\n") and len(l.read_bytes().splitlines()) == 10
        assert load_store(f, l).instances == store.instances

    def test_blank_lines_skipped(self, tmp_path):
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        f.write_text("1 9 0\n\n2 20 1\n", encoding="utf-8")
        l.write_text("+\n\n-\n", encoding="utf-8")
        store = load_store(f, l)
        assert len(store) == 2
        assert store.instances[1] == KnnInstance(2, 20, 1, STRAIGHT)

    def test_malformed_feature_line_reports_position(self, tmp_path):
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        f.write_text("1 9 0\n2 nine 0\n", encoding="utf-8")
        l.write_text("+\n-\n", encoding="utf-8")
        with pytest.raises(StoreFormatError) as exc:
            load_store(f, l)
        assert exc.value.line_no == 2

    def test_wrong_field_count(self, tmp_path):
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        f.write_text("1 9\n", encoding="utf-8")
        l.write_text("+\n", encoding="utf-8")
        with pytest.raises(StoreFormatError):
            load_store(f, l)

    def test_out_of_range_feature_reports_line(self, tmp_path):
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        f.write_text("1 9 0\n7 9 0\n", encoding="utf-8")
        l.write_text("+\n-\n", encoding="utf-8")
        with pytest.raises(StoreFormatError) as exc:
            load_store(f, l)
        assert exc.value.line_no == 2

    def test_count_mismatch(self, tmp_path):
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        f.write_text("1 9 0\n2 20 1\n", encoding="utf-8")
        l.write_text("+\n", encoding="utf-8")
        with pytest.raises(StoreFormatError):
            load_store(f, l)

    def test_bad_label(self, tmp_path):
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        f.write_text("1 9 0\n", encoding="utf-8")
        l.write_text("?\n", encoding="utf-8")
        with pytest.raises(StoreFormatError) as exc:
            load_store(f, l)
        assert exc.value.line_no == 1

    def test_non_utf8_byte_reports_file_and_line(self, tmp_path):
        f, l = tmp_path / "features.txt", tmp_path / "labels.txt"
        f.write_bytes(b"1 9 0\r\n2 \xff 1\n")
        l.write_text("+\n-\n", encoding="utf-8")
        with pytest.raises(StoreFormatError) as exc:
            load_store(f, l)
        assert (exc.value.path, exc.value.line_no) == (f, 2)
        assert str(exc.value).startswith(f"{f}:2: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_store(tmp_path / "nope.txt", tmp_path / "also-nope.txt")


class TestTurnPredictor:
    def test_groups_have_independent_stores(self):
        p = TurnPredictor()
        p.predict_and_record((1, 9, 0), "A")
        assert len(p.stores["A"]) == 10
        assert len(p.stores["B"]) == 9

    def test_prediction_is_appended_with_its_own_label(self):
        p = TurnPredictor()
        label = p.predict_and_record((1, 9, 0), "A")
        newest = p.stores["A"].instances[-1]
        assert newest.features == (1, 9, 0)
        assert newest.label is label

    def test_self_training_shifts_later_votes(self):
        # ten identical appends drown out the bootstrap for that point
        p = TurnPredictor()
        for _ in range(10):
            p.predict_and_record((1, 9, 0), "A")
        assert knn_predict((1, 9, 0), p.stores["A"]) is RIGHT
        assert len(p.stores["A"]) == 19
