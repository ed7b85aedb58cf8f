"""Forest snapshots: JSON round trip with bit-exact predictions."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from streamforest import (
    BatchForest,
    SplitCriteria,
    StreamForest,
    gen_synthetic,
    load_forest,
    save_forest,
)
from streamforest import snapshot

from helpers import trees_equal

DATA = Path(__file__).parent / "data"


def evolved_forest(tmp_path=None):
    data = gen_synthetic("blobs", 500, noise=0.6, seed=1, n_classes=3)
    f = StreamForest(data.subset(range(100)), 3, n_trees=5, seed=2)
    for i in range(1, 5):
        f.update(data.subset(range(100 * i, 100 * (i + 1))))
    return f


def test_stream_forest_round_trip_predictions(tmp_path):
    f = evolved_forest()
    path = tmp_path / "forest.json"
    save_forest(f, path)
    loaded = load_forest(path)
    probes = np.random.default_rng(3).uniform(-6, 6, (300, 2))
    assert np.array_equal(f.predict(probes), loaded.predict(probes))
    for original, restored in zip(f.trees, loaded.trees):
        assert trees_equal(original.tree.root, restored.tree.root)
        assert original.batches_seen == restored.batches_seen


def test_stream_forest_metadata_round_trip(tmp_path):
    f = evolved_forest()
    path = tmp_path / "forest.json"
    save_forest(f, path)
    loaded = load_forest(path)
    assert loaded.batches_seen == f.batches_seen
    assert loaded.n_trees == f.n_trees
    assert loaded.replace_count == f.replace_count
    assert loaded.criteria == f.criteria
    assert loaded.master_seed == f.master_seed


def test_bootstrap_setting_round_trips(tmp_path):
    data = gen_synthetic("blobs", 300, noise=0.6, seed=7, n_classes=3)
    f = StreamForest(data.subset(range(100)), 3, n_trees=4, seed=8, bootstrap=False)
    path = tmp_path / "forest.json"
    save_forest(f, path)
    loaded = load_forest(path)
    before = [t.tree.root.class_counts.copy() for t in loaded.trees]
    batch = data.subset(range(100, 200))
    loaded.update(batch, force_replacement=False)
    # Without bootstrap every tree takes the whole batch, each row once.
    grown = np.bincount(batch.labels, minlength=3)
    for tree, counts in zip(loaded.trees, before):
        assert tree.tree.root.class_counts.tolist() == (counts + grown).tolist()

    b = BatchForest(2, seed=9, bootstrap=False).fit(data)
    save_forest(b, path)
    assert load_forest(path).bootstrap is False


def test_batch_forest_round_trip(tmp_path):
    data = gen_synthetic("blobs", 400, noise=0.6, seed=4, n_classes=3)
    f = BatchForest(4, SplitCriteria(max_features="sqrt"), seed=5).fit(data)
    path = tmp_path / "batch.json"
    save_forest(f, path)
    loaded = load_forest(path)
    probes = np.random.default_rng(6).uniform(-6, 6, (200, 2))
    assert np.array_equal(f.predict(probes), loaded.predict(probes))
    for original, restored in zip(f.trees, loaded.trees):
        assert trees_equal(original.root, restored.root)


def test_snapshot_is_self_describing(tmp_path):
    f = evolved_forest()
    path = tmp_path / "forest.json"
    save_forest(f, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "streamforest-snapshot-v2"
    assert doc["model"] == "stream_forest"
    assert len(doc["trees"]) == 5
    first = doc["trees"][0]
    for key in ("kind", "feature", "threshold", "left", "right",
                "class_counts", "pre_split_total"):
        assert key in first
    assert doc["bytes_per_node"] > 0


def test_file_is_the_json_dump_of_its_document(tmp_path):
    path = tmp_path / "forest.json"
    for model in (evolved_forest(), BatchForest(3, seed=4).fit(
            gen_synthetic("blobs", 200, noise=0.6, seed=5, n_classes=3))):
        save_forest(model, path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text))
        assert list(json.loads(text))[-1] == "trees"


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_forest(path)


def test_unfitted_batch_forest_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_forest(BatchForest(2), tmp_path / "nope.json")


def _stream(data, forest, start, stop, coins):
    for i, coin in zip(range(start, stop), coins):
        forest.update(data.subset(range(60 * i, 60 * (i + 1))), force_replacement=coin)


def test_save_load_update_continues_the_run(tmp_path):
    data = gen_synthetic("blobs", 720, noise=0.8, seed=12, n_classes=3, n_features=4)
    coins = (None, True, False, True, None, True, None, True, None, None, True)

    def fresh():
        return StreamForest(data.subset(range(60)), 3, n_trees=5, replace_count=2, seed=13)

    whole = fresh()
    _stream(data, whole, 1, 12, coins)

    halted = fresh()
    _stream(data, halted, 1, 5, coins[:4])
    path = tmp_path / "halted.json"
    save_forest(halted, path)
    resumed = load_forest(path)
    _stream(data, resumed, 5, 12, coins[4:])

    assert resumed.last_replacement["replaced"]  # replacements happened after the load
    a, b = tmp_path / "whole.json", tmp_path / "resumed.json"
    save_forest(whole, a)
    save_forest(resumed, b)
    assert a.read_bytes() == b.read_bytes()
    probes = data.features[::7]
    assert np.array_equal(whole.predict(probes), resumed.predict(probes))


def test_snapshot_without_generator_state_still_loads(tmp_path):
    f = evolved_forest()
    path = tmp_path / "forest.json"
    save_forest(f, path)
    doc = json.loads(path.read_text())
    del doc["rng_state"]
    path.write_text(json.dumps(doc))
    loaded = load_forest(path)
    probes = np.random.default_rng(3).uniform(-6, 6, (100, 2))
    assert np.array_equal(f.predict(probes), loaded.predict(probes))
    # Seeded afresh from the master seed: deterministic across loads.
    again = load_forest(path)
    data = gen_synthetic("blobs", 200, noise=0.6, seed=9, n_classes=3)
    for model in (loaded, again):
        model.update(data.subset(range(100)), force_replacement=True)
    for ta, tb in zip(loaded.trees, again.trees):
        assert trees_equal(ta.tree.root, tb.tree.root)


def test_failed_write_keeps_the_old_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "forest.json"
    save_forest(evolved_forest(), path)
    old = path.read_bytes()

    class HalfWriter:
        """A file that takes half of what it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def failing_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        return HalfWriter(fh) if set(mode) & set("wxa") else fh

    monkeypatch.setattr(snapshot, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_forest(evolved_forest(), path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["forest.json"]


def _v1_fixture():
    """A 4-tree stream forest saved in the v1 format by streamforest 0.1.0
    after five updates (one forced replacement), and its predictions on
    fixed probes at that time."""
    expected = json.loads((DATA / "v1_stream_forest_predictions.json").read_text())
    return load_forest(DATA / "v1_stream_forest.json"), expected


def test_v1_snapshot_loads_and_predicts_as_saved():
    forest, expected = _v1_fixture()
    probes = np.array(expected["probes"])
    assert forest.predict(probes).tolist() == expected["predictions"]
    assert [forest.predict_one(x) for x in probes[:20]] == expected["predict_one"]


def test_v1_snapshot_saves_as_v2(tmp_path):
    forest, _ = _v1_fixture()
    path = tmp_path / "v2.json"
    save_forest(forest, path)
    v1 = json.loads((DATA / "v1_stream_forest.json").read_text())
    v2 = json.loads(path.read_text())
    assert v2["format"] == "streamforest-snapshot-v2"
    assert v2["trees"] == v1["trees"]
    assert v2["rng_state"] == v1["rng_state"]
    assert "tree_rng_states" not in v2 and "seed_children_spawned" not in v2


def test_v1_snapshot_loads_update_alike(tmp_path):
    data = gen_synthetic("blobs", 240, noise=0.8, seed=73, n_classes=3, n_features=3)
    paths = []
    for name in ("a", "b"):
        forest, _ = _v1_fixture()
        for i, coin in enumerate((None, True, False, True)):
            forest.update(data.subset(range(60 * i, 60 * (i + 1))), force_replacement=coin)
        paths.append(tmp_path / f"{name}.json")
        save_forest(forest, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
