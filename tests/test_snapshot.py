"""Forest snapshots: JSON round trip with bit-exact predictions."""

import json

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

from helpers import trees_equal


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
    assert doc["format"] == "streamforest-snapshot-v1"
    assert doc["model"] == "stream_forest"
    assert len(doc["trees"]) == 5
    first = doc["trees"][0]
    for key in ("kind", "feature", "threshold", "left", "right",
                "class_counts", "pre_split_total"):
        assert key in first
    assert doc["bytes_per_node"] > 0


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_forest(path)


def test_unfitted_batch_forest_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_forest(BatchForest(2), tmp_path / "nope.json")
