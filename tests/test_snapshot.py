"""Forest snapshots: round trip with bit-exact predictions."""

import errno
import json
import os
import zipfile
from pathlib import Path

import numpy as np
import pytest

from streamforest import (
    BatchForest,
    Dataset,
    DecisionTree,
    SplitCriteria,
    StreamForest,
    gen_synthetic,
    load_forest,
    save_forest,
)
from streamforest import snapshot
from streamforest.tree import NodeTable, _levels

from helpers import forest_documents, preorder_columns, trees_equal

DATA = Path(__file__).parent / "data"


def read_archive(path) -> tuple[dict, dict]:
    """The meta header and the other arrays of a v5, v4 or v3 snapshot."""
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(archive["meta"].item())
        return meta, {name: archive[name] for name in archive.files if name != "meta"}


def write_archive(path, meta, arrays, **extra) -> None:
    """Write a snapshot archive by hand, `extra` members after the others."""
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays, **extra)


def write_v2_document(forest, path) -> dict:
    """Write `forest` as the v2 JSON document of its time; returns it."""
    save_forest(forest, path)
    meta, _ = read_archive(path)
    doc = meta | {"format": "streamforest-snapshot-v2", "bytes_per_node": 64,
                  "trees": forest_documents(forest)}
    path.write_text(json.dumps(doc))
    return doc


def write_v3_archive(forest, path) -> tuple[dict, dict]:
    """Write `forest` as the v3 archive of its time, tree after tree in
    preorder; returns its meta and arrays."""
    save_forest(forest, path)
    meta, _ = read_archive(path)
    meta["format"] = "streamforest-snapshot-v3"
    starts, columns = preorder_columns(forest)
    arrays = {"starts": starts} | columns
    write_archive(path, meta, arrays)
    return meta, arrays


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
        assert trees_equal(original.root, restored.root)
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
    assert loaded.seed == f.seed


def _forests(plain: bool) -> list:
    """A stream forest, updated once with a forced replacement, and a batch
    forest, built from plain or from numpy-typed arguments."""
    data = gen_synthetic("blobs", 240, noise=0.6, seed=14, n_classes=3, n_features=3)
    count, flag = (int, bool) if plain else (np.int64, np.bool_)
    data = Dataset(data.features, data.labels, count(data.labels.max() + 1))
    criteria = SplitCriteria(min_samples_split=count(3), max_features=count(2))
    stream = StreamForest(data.subset(range(120)), count(3), n_trees=count(4),
                          replace_count=count(2), criteria=criteria, seed=count(15),
                          bootstrap=flag(True))
    stream.update(data.subset(range(120, 240)), force_replacement=flag(True))
    batch = BatchForest(count(3), criteria, seed=count(16), bootstrap=flag(False)).fit(data)
    return [stream, batch]


@pytest.mark.parametrize("plain", [True, False])
def test_a_snapshot_restores_every_attribute(tmp_path, plain):
    """Every attribute of a loaded forest equals the saved one's, of the
    same type, except `last_replacement`, which load leaves None; so a
    field added to a forest fails here until the header carries it."""
    for forest in _forests(plain):
        path = tmp_path / "forest.npz"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert vars(loaded).keys() == vars(forest).keys()
        for key, value in vars(forest).items():
            restored = getattr(loaded, key)
            if key == "_table":
                a, b = value.export(forest._roots), restored.export(loaded._roots)
                assert all(np.array_equal(a[name], b[name]) for name in NodeTable.COLUMNS)
            elif key == "rng":
                assert restored.bit_generator.state == value.bit_generator.state
            elif isinstance(value, np.ndarray):
                assert np.array_equal(restored, value), key
            elif key == "last_replacement":
                assert restored is None
            else:
                assert (type(restored), restored) == (type(value), value), key


def test_bootstrap_setting_round_trips(tmp_path):
    data = gen_synthetic("blobs", 300, noise=0.6, seed=7, n_classes=3)
    f = StreamForest(data.subset(range(100)), 3, n_trees=4, seed=8, bootstrap=False)
    path = tmp_path / "forest.json"
    save_forest(f, path)
    loaded = load_forest(path)
    before = [t.root.class_counts.copy() for t in loaded.trees]
    batch = data.subset(range(100, 200))
    loaded.update(batch, force_replacement=False)
    # Without bootstrap every tree takes the whole batch, each row once.
    grown = np.bincount(batch.labels, minlength=3)
    for tree, counts in zip(loaded.trees, before):
        assert tree.root.class_counts.tolist() == (counts + grown).tolist()

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
    meta, arrays = read_archive(path)
    assert meta["format"] == "streamforest-snapshot-v5"
    assert meta["model"] == "stream_forest"
    assert meta["n_trees"] == 5
    for key in NodeTable.COLUMNS:
        assert len(arrays[key]) == f.node_count()
    assert "bytes_per_node" not in meta


def test_file_is_meta_and_the_four_columns(tmp_path):
    path = tmp_path / "forest.json"
    for model in (evolved_forest(), BatchForest(3, seed=4).fit(
            gen_synthetic("blobs", 200, noise=0.6, seed=5, n_classes=3))):
        save_forest(model, path)
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == [f"{name}.npy" for name in
                                          ("meta", "feature", "threshold", "left", "counts")]
        _, arrays = read_archive(path)
        columns = model._table.export(model._roots)
        assert arrays.keys() == columns.keys()
        for name, column in columns.items():
            assert arrays[name].dtype == column.dtype
            assert np.array_equal(arrays[name], column)


def test_same_forest_saves_to_the_same_bytes(tmp_path):
    f = evolved_forest()
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    save_forest(f, a)
    save_forest(f, b)
    assert a.read_bytes() == b.read_bytes()
    with zipfile.ZipFile(a) as archive:
        assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}


class Tripwire:
    """Unpickling an instance calls `trip`."""

    tripped = False

    def __reduce__(self):
        return (trip, ())


def trip():
    Tripwire.tripped = True


def test_object_array_member_is_rejected_and_never_unpickled(tmp_path):
    path = tmp_path / "forest.npz"
    save_forest(evolved_forest(), path)
    meta, arrays = read_archive(path)
    arrays["threshold"] = np.array([Tripwire()] * len(arrays["threshold"]), dtype=object)
    write_archive(path, meta, arrays)
    with pytest.raises(ValueError, match="allow_pickle"):
        load_forest(path)
    assert not Tripwire.tripped


def test_trees_that_would_not_end_are_rejected(tmp_path):
    f = evolved_forest()
    path = tmp_path / "forest.json"
    doc = write_v2_document(f, path)
    doc["trees"][0]["left"][0] = doc["trees"][0]["right"][0] = 0  # the root links to itself
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="snapshot node 0 "):
        load_forest(path)

    meta, arrays = write_v3_archive(f, path)
    starts, right = arrays["starts"], arrays["right"]
    node = int(np.flatnonzero(arrays["left"][starts[3]:] >= 0)[0])
    right[starts[3] + node] = node  # a node that is its own right child
    write_archive(path, meta, arrays)
    with pytest.raises(ValueError, match=f"snapshot node {starts[3] + node} "):
        load_forest(path)


def _corrupt(meta, arrays, fault):
    """Apply one fault to a v3 snapshot's contents."""
    if fault == "starts past the end":
        arrays["starts"][-1] += 1
    elif fault == "starts falling":
        arrays["starts"][1] = arrays["starts"][2] + 1
    elif fault == "a tree too few":
        meta["n_trees"] += 1
    elif fault == "batch counts of a tree too few":
        meta["tree_batches_seen"].pop()
    elif fault == "counts of a class too few":
        arrays["counts"] = arrays["counts"][:, 1:]
    elif fault == "negative counts":
        arrays["counts"][7, 1] = -1
    elif fault == "feature out of range":
        arrays["feature"][0] = meta["n_features"]
    elif fault == "left child not next":
        arrays["left"][0] += 1
    elif fault == "half a leaf":
        leaf = int(np.flatnonzero(arrays["left"] < 0)[0])
        arrays["right"][leaf] = leaf + 1
    elif fault == "float links":
        arrays["left"] = arrays["left"].astype(np.float64)


@pytest.mark.parametrize("fault", [
    "starts past the end", "starts falling", "a tree too few",
    "batch counts of a tree too few", "counts of a class too few", "negative counts",
    "feature out of range", "left child not next", "half a leaf", "float links",
])
def test_malformed_snapshot_is_rejected(tmp_path, fault):
    path = tmp_path / "forest.npz"
    meta, arrays = write_v3_archive(evolved_forest(), path)
    _corrupt(meta, arrays, fault)
    write_archive(path, meta, arrays)
    with pytest.raises(ValueError, match="snapshot"):
        load_forest(path)


def _corrupt_v4(meta, arrays, fault) -> str:
    """Apply one fault to a v5 snapshot's contents, laid out as v4's;
    returns a pattern of the error it must raise."""
    left = arrays["left"]
    n, n_trees = left.size, meta["n_trees"]
    i = int(np.flatnonzero(left >= 0)[-1])  # an internal node, not a root
    assert i >= n_trees and left[0] >= 0 and left[1] >= 0
    if fault == "a node with two parents":
        left[1] = left[0]
        return f"node {left[0]} has 2 parents"
    if fault == "a non-root node with none":
        child, left[i] = left[i], -1
        return f"node {child} has 0 parents, expected 1"
    if fault == "a left link to itself":
        left[i] = i
    elif fault == "a left link backwards":
        left[i] = i - 1
    elif fault == "a left link to the last node":
        left[i] = n - 1
    elif fault == "a NaN threshold":
        arrays["threshold"][i] = np.nan
    elif fault == "a tree too many in the header":
        meta["n_trees"] += 1
        meta["tree_batches_seen"].append(1)
        return f"node {n_trees} has 1 parents, expected 0"
    elif fault == "a tree too few in the header":
        meta["n_trees"] -= 1
        meta["tree_batches_seen"].pop()
        return f"node {n_trees - 1} has 0 parents, expected 1"
    elif fault == "more trees than nodes in the header":
        meta["n_trees"] = n + 1
        meta["tree_batches_seen"] = [1] * (n + 1)
        return f"holds {n} nodes"
    return f"node {i} of {n} "


@pytest.mark.parametrize("fault", [
    "a node with two parents", "a non-root node with none", "a left link to itself",
    "a left link backwards", "a left link to the last node", "a NaN threshold",
    "a tree too many in the header", "a tree too few in the header",
    "more trees than nodes in the header",
])
def test_malformed_v4_snapshot_is_rejected(tmp_path, fault):
    path = tmp_path / "forest.npz"
    save_forest(evolved_forest(), path)
    meta, arrays = read_archive(path)
    pattern = _corrupt_v4(meta, arrays, fault)
    write_archive(path, meta, arrays)
    with pytest.raises(ValueError, match="snapshot " + pattern):
        load_forest(path)


def test_v2_snapshot_loads_and_predicts_as_saved(tmp_path):
    f = evolved_forest()
    path = tmp_path / "v2.json"
    write_v2_document(f, path)
    loaded = load_forest(path)
    probes = np.random.default_rng(3).uniform(-6, 6, (300, 2))
    assert np.array_equal(f.predict(probes), loaded.predict(probes))
    for original, restored in zip(f.trees, loaded.trees):
        assert trees_equal(original.root, restored.root)
        assert original.batches_seen == restored.batches_seen
    assert loaded.rng.bit_generator.state == f.rng.bit_generator.state


@pytest.mark.parametrize("counts", [[2**31, 0, 0], [2**30, 2**30, 0], [2**62, 2**62, 0],
                                    [2**31 - 1, 0, 0]])
@pytest.mark.parametrize("fmt", ["v5", "v2"])
def test_a_node_total_beyond_int32_is_rejected_by_node(tmp_path, fmt, counts):
    """Files written before counts were int32 hold them as int64: a node
    whose counts sum to 2**31 or more, in int64 or past it, fails by its
    id; one a sample lighter loads and keeps its counts exactly."""
    f = evolved_forest()
    if fmt == "v5":
        path = tmp_path / "forest.npz"
        save_forest(f, path)
        meta, arrays = read_archive(path)
        node = arrays["left"].size - 1
        arrays["counts"] = arrays["counts"].astype(np.int64)
        arrays["counts"][node] = counts
        write_archive(path, meta, arrays)
    else:
        path = tmp_path / "forest.json"
        doc = write_v2_document(f, path)
        node = len(doc["trees"][0]["class_counts"]) - 1  # tree 0 comes first
        doc["trees"][0]["class_counts"][node] = counts
        path.write_text(json.dumps(doc))
    if sum(counts) < 2**31:
        loaded = load_forest(path)
        assert loaded._table.counts.dtype == np.int32
        assert counts in loaded._table.counts.tolist()
        return
    with pytest.raises(ValueError, match=f"snapshot node {node} counts {sum(counts)} samples"):
        load_forest(path)


_MISSING = object()


@pytest.mark.parametrize("model, key, value", [
    ("stream_forest", "batches_seen", -1),
    ("stream_forest", "batches_seen", 0),
    ("stream_forest", "batches_seen", 2.0),
    ("stream_forest", "bootstrap", "no"),
    ("stream_forest", "replace_count", 9),
    ("stream_forest", "n_trees", 0),
    ("stream_forest", "n_classes", 1),
    ("stream_forest", "n_features", 0),
    ("stream_forest", "master_seed", -1),
    ("stream_forest", "tree_batches_seen", [0, -5, 2.5]),
    ("stream_forest", "tree_batches_seen", [1, 0, 1]),
    ("stream_forest", "tree_batches_seen", [1, True, 1]),
    ("stream_forest", "tree_batches_seen", [[1], [1], [1]]),
    ("stream_forest", "criteria", _MISSING),
    ("stream_forest", "n_classes", _MISSING),
    ("stream_forest", "tree_batches_seen", _MISSING),
    ("batch_forest", "bootstrap", 1),
    ("batch_forest", "n_classes", 2.5),
    ("batch_forest", "master_seed", _MISSING),
    ("stream_forest", "model", "stream_tree"),
    ("stream_forest", "criteria", [1]),
    ("stream_forest", "criteria", {"min_samples_split": 2, "foo": 1}),
    ("stream_forest", "rng_state", "x"),
    ("stream_forest", "rng_state", {"a": 1}),
    ("stream_forest", "tree_batches_seen", [2**63, 1, 1]),
])
def test_malformed_header_is_rejected_by_name(tmp_path, model, key, value):
    data = gen_synthetic("blobs", 60, noise=0.6, seed=10, n_classes=3)
    forest = (StreamForest(data, 3, n_trees=3, seed=11) if model == "stream_forest"
              else BatchForest(3, seed=11).fit(data))
    path = tmp_path / "forest.npz"
    save_forest(forest, path)
    meta, arrays = read_archive(path)
    if value is _MISSING:
        del meta[key]
    else:
        meta[key] = value
    write_archive(path, meta, arrays)
    # master_seed is checked as the constructor's `seed`.
    with pytest.raises((TypeError, ValueError), match=key.removeprefix("master_")):
        load_forest(path)


def test_tree_batch_counts_above_the_forest_s_are_rejected(tmp_path):
    """No tree of a stream forest has seen more batches than the forest
    itself; a tree that has seen them all loads."""
    path = tmp_path / "forest.npz"
    save_forest(evolved_forest(), path)
    meta, arrays = read_archive(path)
    batches, n_trees = meta["batches_seen"], meta["n_trees"]
    meta["tree_batches_seen"] = [batches] * n_trees
    write_archive(path, meta, arrays)
    assert load_forest(path)._batches.tolist() == [batches] * n_trees
    meta["tree_batches_seen"][1] = batches + 1
    write_archive(path, meta, arrays)
    with pytest.raises(ValueError, match=f"tree_batches_seen holds {batches + 1}, more than "
                                         f"batches_seen {batches}"):
        load_forest(path)


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_forest(path)


def test_unfitted_batch_forest_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_forest(BatchForest(2), tmp_path / "nope.json")


def test_only_forests_are_saved(tmp_path):
    tree = DecisionTree().fit(gen_synthetic("blobs", 30, seed=1))
    with pytest.raises(TypeError, match="cannot snapshot DecisionTree"):
        save_forest(tree, tmp_path / "tree.npz")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fault, pattern", [
    ("no meta", "meta must be one string"),
    ("meta not one string", "meta must be one string"),
    ("another format", "not a streamforest-snapshot-v5"),
    ("a column missing", r"snapshot lacks \['threshold'\]"),
])
def test_malformed_archive_is_rejected(tmp_path, fault, pattern):
    path = tmp_path / "forest.npz"
    save_forest(evolved_forest(), path)
    meta, members = read_archive(path)
    members["meta"] = np.array(json.dumps(meta))
    if fault == "no meta":
        del members["meta"]
    elif fault == "meta not one string":
        members["meta"] = np.array([json.dumps(meta)] * 2)
    elif fault == "another format":
        members["meta"] = np.array(json.dumps(meta | {"format": "streamforest-snapshot-v9"}))
    else:
        del members["threshold"]
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    with pytest.raises(ValueError, match=pattern):
        load_forest(path)


# Faults of a file read as a JSON document, and the error each raises.
_NOT_A_DOCUMENT = {
    "damaged first byte": "not a streamforest snapshot: .*codec can't decode",
    "archive cut to 3 bytes": "not a streamforest snapshot: Expecting value",
    "document cut to 3 bytes": "not a streamforest snapshot: Unterminated string",
    "no trees": "snapshot 'trees' must be a list of trees, not NoneType",
    "trees a number": "snapshot 'trees' must be a list of trees, not int",
    "a tree a number": "snapshot tree 1 must be an object of columns, not int",
    "a tree without threshold": "snapshot tree 2 lacks 'threshold'",
    "a scalar column": "snapshot tree 0 must hold 'left' as a list",
    "counts moved to the next tree": "snapshot tree 3 must hold 'class_counts' as a list",
    "a threshold true": "snapshot column 'threshold' is object",
    "left beyond int64": "snapshot column 'left' is object",
    "a class count beyond int64": "snapshot column 'counts' is object",
    "a threshold string": "snapshot column 'threshold' is object",
    "a leaf threshold null": "snapshot column 'threshold' is object",
    "a threshold beyond float64": "snapshot column 'threshold' is object",
}


@pytest.mark.parametrize("fault", list(_NOT_A_DOCUMENT))
def test_a_file_that_is_no_snapshot_document_raises_value_error(tmp_path, fault):
    """A file that does not start as a zip archive is read as a v1/v2 JSON
    document: one that is no JSON names the decode error as its cause, and
    a document whose trees are malformed names the key and the tree. Moving
    a node's counts to the next tree keeps the column totals, which the
    node checks see. A number that no column takes names its column: a
    threshold true or "1.5", which numpy would read as 1.0 or 1.5, a leaf
    threshold null, which it would read as NaN, and an integer beyond int64
    or a number beyond float64, which it cannot read."""
    path = tmp_path / "forest.json"
    doc = write_v2_document(evolved_forest(), path)
    trees = doc["trees"]
    if fault == "damaged first byte":
        path.write_bytes(b"\xff" + path.read_bytes()[1:])
    elif fault == "archive cut to 3 bytes":
        save_forest(evolved_forest(), path)
        path.write_bytes(path.read_bytes()[:3])
    elif fault == "document cut to 3 bytes":
        path.write_bytes(path.read_bytes()[:3])
    else:
        if fault == "no trees":
            del doc["trees"]
        elif fault == "trees a number":
            doc["trees"] = 5
        elif fault == "a tree a number":
            trees[1] = 1
        elif fault == "a tree without threshold":
            del trees[2]["threshold"]
        elif fault == "a scalar column":
            trees[0]["left"] = 3
        elif fault == "a threshold true":
            trees[0]["threshold"][0] = True
        elif fault == "left beyond int64":
            trees[0]["left"][0] = 2**63
        elif fault == "a class count beyond int64":
            trees[0]["class_counts"][0][1] = 2**63
        elif fault == "a threshold string":
            trees[0]["threshold"][0] = "1.5"
        elif fault == "a leaf threshold null":
            trees[0]["threshold"][trees[0]["left"].index(-1)] = None
        elif fault == "a threshold beyond float64":
            trees[0]["threshold"][0] = 10**400
        else:
            trees[4]["class_counts"].append(trees[3]["class_counts"].pop())
        path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=_NOT_A_DOCUMENT[fault]) as raised:
        load_forest(path)
    decoding = fault.startswith(("damaged", "archive", "document"))
    assert isinstance(raised.value.__cause__, ValueError) == decoding


def test_a_damaged_archive_loads_as_saved_or_raises_value_error(tmp_path):
    data = gen_synthetic("blobs", 120, noise=0.6, seed=4, n_classes=3)
    f = StreamForest(data.subset(range(60)), 3, n_trees=2, seed=5)
    f.update(data.subset(range(60, 120)))
    path = tmp_path / "forest.npz"
    save_forest(f, path)
    raw = path.read_bytes()
    probes = np.random.default_rng(6).uniform(-6, 6, (50, 2))
    expected = f.predict(probes)
    # Cuts and single-byte flips spread evenly over the whole file.
    points = np.unique(np.linspace(0, len(raw) - 1, 150).astype(int)).tolist()
    damaged = [raw[:i] for i in points]
    damaged += [raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:] for i in points]
    assert len(points) >= 100
    for content in damaged:
        path.write_bytes(content)
        try:
            restored = load_forest(path)
        except ValueError:
            continue
        assert np.array_equal(restored.predict(probes), expected)


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
    meta, arrays = read_archive(path)
    del meta["rng_state"]
    write_archive(path, meta, arrays)
    loaded = load_forest(path)
    probes = np.random.default_rng(3).uniform(-6, 6, (100, 2))
    assert np.array_equal(f.predict(probes), loaded.predict(probes))
    # Seeded afresh from the master seed: deterministic across loads.
    again = load_forest(path)
    data = gen_synthetic("blobs", 200, noise=0.6, seed=9, n_classes=3)
    for model in (loaded, again):
        model.update(data.subset(range(100)), force_replacement=True)
    for ta, tb in zip(loaded.trees, again.trees):
        assert trees_equal(ta.root, tb.root)


def test_failed_write_keeps_the_old_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "forest.json"
    save_forest(evolved_forest(), path)
    old = path.read_bytes()

    class HalfWriter:
        """A file that takes half of what it is given, then fails; it passes
        everything else on to the real file."""

        def __init__(self, fh):
            self.fh = fh

        def __getattr__(self, name):
            return getattr(self.fh, name)

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


def test_a_write_into_a_missing_directory_names_the_path(tmp_path):
    """The error names the file asked for, not the temporary file that
    `save_forest` writes first."""
    target = tmp_path / "missing" / "forest.npz"
    with pytest.raises(FileNotFoundError) as raised:
        save_forest(evolved_forest(), target)
    assert raised.value.filename == str(target)
    assert raised.value.errno == errno.ENOENT
    assert ".tmp" not in str(raised.value)
    assert os.listdir(tmp_path) == []


def test_a_write_over_a_directory_names_the_path(tmp_path):
    """The rename of the finished file fails; the error names the path
    asked for, and the temporary file is gone."""
    target = tmp_path / "forest.npz"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        save_forest(evolved_forest(), target)
    assert raised.value.filename == str(target)
    assert raised.value.errno == errno.EISDIR
    assert ".tmp" not in str(raised.value)
    assert os.listdir(tmp_path) == ["forest.npz"] and os.listdir(target) == []


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


@pytest.mark.parametrize("value", [1.7, 1.0, True])
@pytest.mark.parametrize("column", ["feature", "counts"])
def test_v1_snapshot_with_a_non_integer_is_rejected(tmp_path, column, value):
    """A feature index or a class count that is no JSON integer fails by
    its column's name; a cast to int64 would truncate it silently."""
    doc = json.loads((DATA / "v1_stream_forest.json").read_text())
    tree = doc["trees"][0]
    if column == "feature":
        tree["feature"][tree["feature"].index(1)] = value
    else:
        tree["class_counts"][0][1] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"snapshot column {column!r} is object"):
        load_forest(path)


def test_v1_snapshot_saves_as_v5(tmp_path):
    forest, _ = _v1_fixture()
    path = tmp_path / "v5.npz"
    save_forest(forest, path)
    v1 = json.loads((DATA / "v1_stream_forest.json").read_text())
    meta, _ = read_archive(path)
    assert meta["format"] == "streamforest-snapshot-v5"
    assert forest_documents(load_forest(path)) == v1["trees"]
    assert meta["rng_state"] == v1["rng_state"]
    assert "tree_rng_states" not in meta and "seed_children_spawned" not in meta


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


def _predicts_as_saved(name: str) -> None:
    """The fixture `name` loads and predicts its fixed probes as it did
    when it was saved."""
    forest = load_forest(DATA / f"{name}.npz")
    expected = json.loads((DATA / f"{name}_predictions.json").read_text())
    probes = np.array(expected["probes"])
    assert forest.predict(probes).tolist() == expected["predictions"]
    assert [forest.predict_one(x) for x in probes[:20]] == expected["predict_one"]


def test_v3_snapshot_loads_and_predicts_as_saved():
    """A 4-tree stream forest saved in the v3 format after five updates (one
    forced replacement), and its predictions on fixed probes at that time."""
    _predicts_as_saved("v3_stream_forest")


def test_v4_snapshot_loads_and_predicts_as_saved():
    """A 4-tree stream forest saved in the v4 format after five updates (one
    forced replacement, one drawn), and its predictions on fixed probes at
    that time."""
    _predicts_as_saved("v4_stream_forest")


@pytest.mark.parametrize("name", ["v1_stream_forest.json", "v3_stream_forest.npz",
                                  "v4_stream_forest.npz"])
def test_stored_pre_split_totals_are_the_loaded_ones(name):
    """Every node's ``pre_split_total`` as the fixture stores it, preorder
    tree by tree for v1 and v3 and breadth-first for v4, is the loaded
    forest's."""
    forest = load_forest(DATA / name)
    if name.endswith(".json"):
        trees = json.loads((DATA / name).read_text())["trees"]
        stored = [held for tree in trees for held in tree["pre_split_total"]]
    else:
        stored = read_archive(DATA / name)[1]["pre_split_total"].tolist()
    if name.startswith("v4"):
        nodes = np.concatenate(_levels(forest._table.left, forest._roots))
        loaded = [forest._table.view(i).pre_split_total for i in nodes]
    else:
        loaded = preorder_columns(forest)[1]["pre_split_total"].tolist()
    assert any(stored)
    assert loaded == stored
