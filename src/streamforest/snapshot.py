"""Forest snapshots: a forest's node table in preorder, saved as raw arrays.

A snapshot (format ``streamforest-snapshot-v3``) is an uncompressed numpy
``.npz`` archive holding
- ``meta``: one string, the JSON header: model kind, shape,
  hyperparameters, batch counts and a stream forest's generator state;
- ``starts``: tree t is nodes ``starts[t]:starts[t + 1]``;
- the six `NodeTable.COLUMNS` as `NodeTable.export` returns them, child
  links counted from the start of each node's own tree (-1 at leaves).

It loads without unpickling anything. v1 and v2 snapshots, JSON documents
with per-tree node lists, still load. Every snapshot is checked before its
trees are built: each child link must point further into its own tree, so
every descent ends. save -> load -> predict round-trips bit-exactly, and
save -> load -> update continues the original run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import secrets
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .forest import BatchForest, StreamForest, _hold
from .stream import StreamTree
from .tree import DecisionTree, NodeTable, SplitCriteria

__all__ = ["save_forest", "load_forest", "FORMAT"]

FORMAT = "streamforest-snapshot-v3"
# JSON documents written before v3. v1 differs from v2 only in carrying
# per-tree generator states as well, which the one-generator draw rule of
# v2 no longer uses.
_JSON_FORMATS = ("streamforest-snapshot-v2", "streamforest-snapshot-v1")
_ZIP_MAGIC = b"PK\x03\x04"


@contextlib.contextmanager
def _write_atomically(path):
    """A binary file to write in place of `path`: a temporary file in the
    same directory, renamed over `path` once the block ends. If the block
    raises, the temporary file is removed and `path` keeps its old contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _meta(forest: StreamForest | BatchForest) -> dict:
    """The snapshot header of `forest`: everything but its nodes."""
    if isinstance(forest, StreamForest):
        return {
            "format": FORMAT,
            "model": "stream_forest",
            "n_classes": forest.n_classes,
            "n_features": forest.n_features,
            "n_trees": forest.n_trees,
            "replace_count": forest.replace_count,
            "batches_seen": forest.batches_seen,
            "master_seed": forest.master_seed,
            "bootstrap": forest.bootstrap,
            "criteria": asdict(forest.criteria),
            "tree_batches_seen": [t.batches_seen for t in forest.trees],
            "rng_state": forest.rng.bit_generator.state,
        }
    if isinstance(forest, BatchForest):
        if not forest.trees:
            raise ValueError("cannot snapshot an unfitted forest")
        return {
            "format": FORMAT,
            "model": "batch_forest",
            "n_classes": forest.n_classes,
            "n_features": forest.n_features,
            "n_trees": forest.n_trees,
            "master_seed": forest.seed,
            "bootstrap": forest.bootstrap,
            "criteria": asdict(forest.criteria),
        }
    raise TypeError(f"cannot snapshot {type(forest).__name__}")


def save_forest(forest: StreamForest | BatchForest, path) -> None:
    """Write a forest snapshot. The columns are written as raw arrays, so
    thresholds survive the round trip bit-exactly and reloaded predictions
    match. A stream forest's generator state is saved too. The archive's
    bytes depend only on the forest: every member carries the zip format's
    fixed 1980-01-01 timestamp.

    The archive is written to a temporary file in the target directory and
    then renamed over `path`, so `path` holds either the old snapshot or the
    complete new one, also when writing fails midway.
    """
    meta = _meta(forest)
    _, starts, columns = forest._table.export(forest._roots)
    with _write_atomically(path) as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), starts=starts, **columns)


def _read_v3(fh) -> tuple[dict, np.ndarray, dict]:
    """(meta, starts, columns) of a v3 archive; nothing is unpickled."""
    with np.load(fh, allow_pickle=False) as archive:
        missing = {"meta", "starts", *NodeTable.COLUMNS} - set(archive.files)
        if missing:
            raise ValueError(f"snapshot lacks {sorted(missing)}")
        meta = archive["meta"]
        if meta.shape or meta.dtype.kind != "U":
            raise ValueError("snapshot meta must be one string")
        meta = json.loads(meta.item())
        if not isinstance(meta, dict) or meta.get("format") != FORMAT:
            raise ValueError(f"not a {FORMAT} archive")
        return meta, archive["starts"], {name: archive[name] for name in NodeTable.COLUMNS}


def _read_json(fh) -> tuple[dict, np.ndarray, dict]:
    """(meta, starts, columns) of a v1 or v2 JSON document."""
    doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") not in _JSON_FORMATS:
        raise ValueError("not a streamforest snapshot")
    trees = doc.pop("trees")
    starts = np.zeros(len(trees) + 1, dtype=np.intp)
    np.cumsum([len(tree["feature"]) for tree in trees], out=starts[1:])

    def column(key, dtype):
        return np.fromiter(itertools.chain.from_iterable(t[key] for t in trees),
                           dtype=dtype, count=starts[-1])

    columns = {
        "feature": column("feature", np.int64),
        "threshold": column("threshold", np.float64),
        "left": column("left", np.int64),
        "right": column("right", np.int64),
        "counts": np.array([c for tree in trees for c in tree["class_counts"]],
                           dtype=np.int64),
        "pre_split_total": column("pre_split_total", np.int64),
    }
    return doc, starts, columns


def _check_trees(meta: dict, starts: np.ndarray, columns: dict) -> None:
    """Raise ValueError unless `columns` hold the snapshot's trees in the
    layout of `NodeTable.export`: every internal node's left child follows
    it and its right child lies further on in its tree, so every descent
    ends; class counts are nonnegative."""
    n_classes, n_features = meta["n_classes"], meta["n_features"]
    n = len(columns["feature"])
    for name in NodeTable.COLUMNS:
        shape = (n, n_classes) if name == "counts" else (n,)
        kind = "f" if name == "threshold" else "i"
        value = columns[name]
        if value.shape != shape or value.dtype.kind != kind:
            raise ValueError(f"snapshot column {name!r} is {value.dtype} of shape "
                             f"{value.shape}, expected shape {shape} of kind {kind!r}")
    if (starts.ndim != 1 or starts.dtype.kind != "i" or starts.size < 2 or starts[0] != 0
            or starts[-1] != n or (np.diff(starts) <= 0).any()):
        raise ValueError("snapshot tree starts must rise from 0 to the node count")
    n_trees = starts.size - 1
    described = {"n_trees": meta["n_trees"]}
    if meta["model"] == "stream_forest":
        described["tree_batches_seen"] = len(meta["tree_batches_seen"])
    if any(count != n_trees for count in described.values()):
        raise ValueError(f"snapshot holds {n_trees} trees, its header {described}")

    sizes = np.diff(starts)
    tree = np.repeat(np.arange(n_trees), sizes)
    local = np.arange(n) - starts[tree]
    left, right, feature = columns["left"], columns["right"], columns["feature"]
    leaf = (left == -1) & (right == -1)
    inner = ((left == local + 1) & (local + 1 < right) & (right < sizes[tree])
             & (feature >= 0) & (feature < n_features))
    bad = ~(leaf | inner) | (columns["counts"] < 0).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"snapshot tree {tree[i]} node {local[i]} is not a leaf or an internal "
            f"node of its {sizes[tree[i]]}-node tree: left={left[i]}, right={right[i]}, "
            f"feature={feature[i]} of {n_features}, "
            f"counts={columns['counts'][i].tolist()}")


def load_forest(path) -> StreamForest | BatchForest:
    """Rebuild a forest from a snapshot.

    A stream forest gets back the generator state it was saved with, so
    further updates continue exactly as the original run would have.
    Snapshots without that state still load; their generator is seeded
    afresh from the master seed, so further updates are deterministic but
    need not match the original run.

    v1 documents, written before the forest drew from one generator, load
    and predict exactly as saved. Their per-tree generator states are
    ignored: updates continue under the v2 draw rule from the forest-level
    state, so they are deterministic but differ from a v1 run.
    """
    with open(path, "rb") as fh:
        is_archive = fh.read(len(_ZIP_MAGIC)) == _ZIP_MAGIC
        fh.seek(0)
        meta, starts, columns = (_read_v3 if is_archive else _read_json)(fh)
    _check_trees(meta, starts, columns)
    criteria = SplitCriteria(**meta["criteria"])
    n_classes, n_features = meta["n_classes"], meta["n_features"]
    table = NodeTable(n_classes, capacity=0)
    roots = table.append(starts, columns).tolist()

    if meta["model"] == "stream_forest":
        forest = StreamForest.__new__(StreamForest)
        forest.n_classes = n_classes
        forest.n_trees = meta["n_trees"]
        forest.replace_count = meta["replace_count"]
        forest.criteria = criteria
        forest.master_seed = meta["master_seed"]
        forest.bootstrap = meta.get("bootstrap", True)
        forest.rng = np.random.default_rng(meta["master_seed"])
        if "rng_state" in meta:
            forest.rng.bit_generator.state = meta["rng_state"]
        _hold(forest, table, [
            StreamTree._at(table, root, n_features, criteria, forest.rng, batches)
            for root, batches in zip(roots, meta["tree_batches_seen"])
        ])
        forest.batches_seen = meta["batches_seen"]
        forest.last_replacement = None
        return forest

    if meta["model"] == "batch_forest":
        forest = BatchForest(meta["n_trees"], criteria, meta["master_seed"],
                             meta.get("bootstrap", True))
        forest.n_classes = n_classes
        forest.n_features = n_features
        _hold(forest, table, [DecisionTree._at(table, root, n_features, criteria, None)
                              for root in roots])
        return forest

    raise ValueError(f"unknown model kind {meta['model']!r}")
