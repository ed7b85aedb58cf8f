"""Forest snapshots: a self-describing JSON document with per-tree node
arrays in preorder; save -> load -> predict round-trips bit-exactly, and
save -> load -> update continues the original run."""

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
from .tree import BYTES_PER_NODE, DecisionTree, NodeTable, SplitCriteria

__all__ = ["save_forest", "load_forest", "FORMAT"]

FORMAT = "streamforest-snapshot-v2"
# v1 documents differ only in carrying per-tree generator states as well,
# which the one-generator draw rule of v2 no longer uses.
_READS = (FORMAT, "streamforest-snapshot-v1")


def _trees_to_arrays(forest):
    """Each tree in preorder, one at a time; child links are node offsets,
    -1 at leaves."""
    _, starts, columns = forest._table.export(forest._roots)
    for a, b in itertools.pairwise(starts.tolist()):
        col = {name: values[a:b].tolist() for name, values in columns.items()}
        yield {"kind": ["leaf" if link < 0 else "internal" for link in col["left"]],
               "feature": col["feature"], "threshold": col["threshold"],
               "left": col["left"], "right": col["right"],
               "class_counts": col["counts"],
               "pre_split_total": col["pre_split_total"]}


def _table_from_arrays(trees: list[dict], n_classes: int) -> tuple[NodeTable, list[int]]:
    """A node table holding the snapshot's trees, and their root ids."""
    starts = np.zeros(len(trees) + 1, dtype=np.intp)
    np.cumsum([len(tree["feature"]) for tree in trees], out=starts[1:])

    def column(key, dtype):
        return np.fromiter(itertools.chain.from_iterable(t[key] for t in trees),
                           dtype=dtype, count=starts[-1])

    counts = np.array([c for tree in trees for c in tree["class_counts"]], dtype=np.int64)
    columns = {
        "feature": column("feature", np.int64),
        "threshold": column("threshold", np.float64),
        "left": column("left", np.int64),
        "right": column("right", np.int64),
        "counts": counts.reshape(-1, n_classes),
        "pre_split_total": column("pre_split_total", np.int64),
    }
    table = NodeTable(n_classes, capacity=0)
    return table, table.append(starts, columns).tolist()


@contextlib.contextmanager
def _write_atomically(path):
    """A text file to write in place of `path`: a temporary file in the same
    directory, renamed over `path` once the block ends. If the block raises,
    the temporary file is removed and `path` keeps its old contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_forest(forest: StreamForest | BatchForest, path) -> None:
    """Write a forest snapshot. JSON floats use repr, so thresholds survive
    the round trip bit-exactly and reloaded predictions match. A stream
    forest's generator state is saved too.

    The document is written to a temporary file in the target directory and
    then renamed over `path`, so `path` holds either the old snapshot or the
    complete new one, also when writing fails midway.
    """
    if isinstance(forest, StreamForest):
        doc = {
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
            "bytes_per_node": BYTES_PER_NODE,
            "tree_batches_seen": [t.batches_seen for t in forest.trees],
            "rng_state": forest.rng.bit_generator.state,
        }
    elif isinstance(forest, BatchForest):
        if not forest.trees:
            raise ValueError("cannot snapshot an unfitted forest")
        doc = {
            "format": FORMAT,
            "model": "batch_forest",
            "n_classes": forest.n_classes,
            "n_features": forest.n_features,
            "n_trees": forest.n_trees,
            "master_seed": forest.seed,
            "bootstrap": forest.bootstrap,
            "criteria": asdict(forest.criteria),
            "bytes_per_node": BYTES_PER_NODE,
        }
    else:
        raise TypeError(f"cannot snapshot {type(forest).__name__}")
    with _write_atomically(path) as fh:
        # The bytes of json.dump(doc | {"trees": [...]}, fh), written one
        # tree at a time: a fraction of json.dump's time, and no tree's
        # lists outlive its write.
        fh.write(json.dumps(doc)[:-1] + ', "trees": [')
        for i, tree in enumerate(_trees_to_arrays(forest)):
            fh.write((", " if i else "") + json.dumps(tree))
        fh.write("]}")


def load_forest(path) -> StreamForest | BatchForest:
    """Rebuild a forest from a snapshot.

    A stream forest gets back the generator state it was saved with, so
    further updates continue exactly as the original run would have.
    Documents without that state still load; their generator is seeded
    afresh from the master seed, so further updates are deterministic but
    need not match the original run.

    v1 documents, written before the forest drew from one generator, load
    and predict exactly as saved. Their per-tree generator states are
    ignored: updates continue under the v2 draw rule from the forest-level
    state, so they are deterministic but differ from a v1 run.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") not in _READS:
        raise ValueError(f"not a {FORMAT} document")
    criteria = SplitCriteria(**doc["criteria"])
    n_classes, n_features = doc["n_classes"], doc["n_features"]
    table, roots = _table_from_arrays(doc["trees"], n_classes)

    if doc["model"] == "stream_forest":
        forest = StreamForest.__new__(StreamForest)
        forest.n_classes = n_classes
        forest.n_trees = doc["n_trees"]
        forest.replace_count = doc["replace_count"]
        forest.criteria = criteria
        forest.master_seed = doc["master_seed"]
        forest.bootstrap = doc.get("bootstrap", True)
        forest.rng = np.random.default_rng(doc["master_seed"])
        if "rng_state" in doc:
            forest.rng.bit_generator.state = doc["rng_state"]
        _hold(forest, table, [
            StreamTree._at(table, root, n_features, criteria, forest.rng, batches)
            for root, batches in zip(roots, doc["tree_batches_seen"])
        ])
        forest.batches_seen = doc["batches_seen"]
        forest.last_replacement = None
        return forest

    if doc["model"] == "batch_forest":
        forest = BatchForest(doc["n_trees"], criteria, doc["master_seed"],
                             doc.get("bootstrap", True))
        forest.n_classes = n_classes
        forest.n_features = n_features
        _hold(forest, table, [DecisionTree._at(table, root, n_features, criteria, None)
                              for root in roots])
        return forest

    raise ValueError(f"unknown model kind {doc['model']!r}")
