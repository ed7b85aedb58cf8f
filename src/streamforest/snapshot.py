"""Forest snapshots: a self-describing JSON document with per-tree node
arrays; save -> load -> predict round-trips bit-exactly."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .forest import BatchForest, StreamForest
from .stream import StreamTree
from .tree import BYTES_PER_NODE, DecisionTree, SplitCriteria, TreeNode

__all__ = ["save_forest", "load_forest", "FORMAT"]

FORMAT = "streamforest-snapshot-v1"


def _tree_to_arrays(root: TreeNode) -> dict:
    """Flatten a tree in preorder; child links become node offsets, -1 at leaves."""
    kind, feature, threshold, left, right, counts, pre_split = [], [], [], [], [], [], []
    order: list[TreeNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if node.left is not None:
            stack.append(node.right)
            stack.append(node.left)
    slot = {id(node): i for i, node in enumerate(order)}
    for node in order:
        is_leaf = node.left is None
        kind.append("leaf" if is_leaf else "internal")
        feature.append(-1 if is_leaf else int(node.feature))
        threshold.append(0.0 if is_leaf else float(node.threshold))
        left.append(-1 if is_leaf else slot[id(node.left)])
        right.append(-1 if is_leaf else slot[id(node.right)])
        counts.append([int(c) for c in node.class_counts])
        pre_split.append(int(node.pre_split_total))
    return {"kind": kind, "feature": feature, "threshold": threshold,
            "left": left, "right": right, "class_counts": counts,
            "pre_split_total": pre_split}


def _tree_from_arrays(arrays: dict) -> TreeNode:
    nodes = [TreeNode(np.asarray(c, dtype=np.int64)) for c in arrays["class_counts"]]
    for i, node in enumerate(nodes):
        node.pre_split_total = int(arrays["pre_split_total"][i])
        if arrays["kind"][i] == "internal":
            node.feature = int(arrays["feature"][i])
            node.threshold = float(arrays["threshold"][i])
            node.left = nodes[arrays["left"][i]]
            node.right = nodes[arrays["right"][i]]
    return nodes[0]


def save_forest(forest: StreamForest | BatchForest, path) -> None:
    """Write a forest snapshot. JSON floats use repr, so thresholds survive
    the round trip bit-exactly and reloaded predictions match."""
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
            "trees": [_tree_to_arrays(t.tree.root) for t in forest.trees],
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
            "trees": [_tree_to_arrays(t.root) for t in forest.trees],
        }
    else:
        raise TypeError(f"cannot snapshot {type(forest).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_forest(path) -> StreamForest | BatchForest:
    """Rebuild a forest from a snapshot for inference and inspection.

    Generator state is not captured, so further updates of a loaded
    StreamForest are deterministic but need not match the original run.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    criteria = SplitCriteria(**doc["criteria"])
    roots = [_tree_from_arrays(arrays) for arrays in doc["trees"]]

    if doc["model"] == "stream_forest":
        forest = StreamForest.__new__(StreamForest)
        forest.n_classes = doc["n_classes"]
        forest.n_trees = doc["n_trees"]
        forest.replace_count = doc["replace_count"]
        forest.criteria = criteria
        forest.master_seed = doc["master_seed"]
        forest.bootstrap = doc.get("bootstrap", True)
        forest._seedseq = np.random.SeedSequence(doc["master_seed"])
        forest.rng = np.random.default_rng(forest._seedseq.spawn(1)[0])
        forest.trees = [
            StreamTree._from_parts(root, doc["n_features"], doc["n_classes"],
                                   criteria, batches,
                                   seed=forest._seedseq.spawn(1)[0])
            for root, batches in zip(roots, doc["tree_batches_seen"])
        ]
        forest.batches_seen = doc["batches_seen"]
        forest.last_replacement = None
        return forest

    if doc["model"] == "batch_forest":
        forest = BatchForest(doc["n_trees"], criteria, doc["master_seed"],
                             doc.get("bootstrap", True))
        forest.n_classes = doc["n_classes"]
        forest.n_features = doc["n_features"]
        trees = []
        for root in roots:
            tree = DecisionTree(criteria, doc["master_seed"])
            tree.root = root
            tree.n_classes = doc["n_classes"]
            tree.n_features = doc["n_features"]
            trees.append(tree)
        forest.trees = trees
        return forest

    raise ValueError(f"unknown model kind {doc['model']!r}")
