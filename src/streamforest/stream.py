"""Streaming decision tree: grow a fitted tree batch by batch, splitting only
the leaves that new samples reach and never altering existing internal nodes."""

from __future__ import annotations

import numpy as np

from .tree import (
    Dataset,
    DecisionTree,
    NodeTable,
    SplitCriteria,
    TreeNode,
    _grow,
    _plant,
    _route_and_count,
)

__all__ = ["StreamTree"]


def _check_batch(batch: Dataset, n_features: int, n_classes: int) -> Dataset:
    """Validate an update batch against the model's shape; returns the batch
    under the model's class count."""
    if batch.n_samples == 0:
        raise ValueError("update batch must be nonempty")
    if batch.n_features != n_features:
        raise ValueError(
            f"batch has {batch.n_features} features, model expects {n_features}"
        )
    if batch.labels.max() >= n_classes:
        raise ValueError(f"batch labels must lie below n_classes={n_classes}")
    return batch if batch.n_classes == n_classes else batch.with_classes(n_classes)


def _update_trees(trees: list, data: Dataset, rows, rng: np.random.Generator) -> None:
    """Extend each stream tree ``trees[t]`` with the rows ``rows[t]`` of
    `data`, a validated batch. The trees share one node table.

    All (tree, row) pairs are routed and counted in one pass, each distinct
    pair once with its repeats as its weight. Then one `_grow` call per
    distinct split criteria, in order of first use, grows the touched
    leaves that can split on those weighted rows, drawing from `rng`; its
    queue starts with the leaves tree by tree, each tree's in depth-first,
    left-first order.
    """
    table = trees[0].tree.table
    pair_rows = np.concatenate(rows)
    tree_of = np.repeat(np.arange(len(trees)), [r.size for r in rows])
    roots = np.array([tree.tree.root_id for tree in trees])
    touched = _route_and_count(table, roots, pair_rows, tree_of,
                               data.features, data.labels)
    groups = {}  # criteria: its number, in order of first use
    for tree in trees:
        groups.setdefault(tree.criteria, len(groups))
    group_of = np.array([groups[tree.criteria] for tree in trees])
    sizes = np.diff(touched.bounds)
    leaf_group = group_of[touched.tree]
    row_group = np.repeat(leaf_group, sizes)
    for g, criteria in enumerate(groups):
        mine = leaf_group == g
        bounds = np.zeros(np.count_nonzero(mine) + 1, dtype=np.intp)
        np.cumsum(sizes[mine], out=bounds[1:])
        held = row_group == g
        _grow(table, data, touched.rows[held], touched.weights[held], bounds,
              touched.leaves[mine], criteria, rng)
    for tree in trees:
        tree.batches_seen += 1


class StreamTree:
    """Incrementally extended decision tree over a fixed set of classes.

    Construction fits a batch CART tree on the first batch, with class-count
    vectors sized by ``n_classes`` (classes absent from the batch keep zero
    counts). Each later ``update`` routes the batch's samples to their
    leaves, adds their labels to the counts along every root-to-leaf path,
    and then regrows each touched leaf as the root of a fresh recursive
    split over just the samples that landed there. Existing internal nodes
    keep their (feature, threshold) bit-identical forever, so the leaf
    partition only ever refines.

    Replaying the same batch sequence with the same seed reproduces the same
    tree exactly. The tree draws from one generator, seeded by `seed`: the
    touched leaves regrow breadth-first, generation by generation from the
    leaves in depth-first order, and each searched node draws its feature
    subset in that order (see `tree._grow`). A tree of a forest draws from
    its forest's generator instead.
    """

    def __init__(self, first_batch: Dataset, n_classes: int,
                 criteria: SplitCriteria | None = None, seed=0):
        if first_batch.n_samples == 0:
            raise ValueError("first batch must be nonempty")
        if first_batch.labels.max() >= n_classes:
            raise ValueError(f"batch labels must lie below n_classes={n_classes}")
        data = first_batch.with_classes(n_classes)
        n = data.n_samples
        criteria = criteria if criteria is not None else SplitCriteria()
        rng = np.random.default_rng(seed)
        table = NodeTable(n_classes)
        (root,) = _plant(table, data, np.arange(n), np.ones(n, dtype=np.int32), [0, n],
                         criteria, rng)
        self._start(table, root, data.n_features, criteria, rng)

    @classmethod
    def _grown(cls, table: NodeTable, data: Dataset, rows: np.ndarray, weights: np.ndarray,
               bounds, criteria: SplitCriteria, rng: np.random.Generator) -> list:
        """New trees grown in `table` by one `_grow` call, tree t on
        ``rows[bounds[t]:bounds[t + 1]]`` of `data` (under the table's class
        count) with their `weights`, all drawing from `rng`."""
        trees = []
        for root in _plant(table, data, rows, weights, bounds, criteria, rng).tolist():
            tree = cls.__new__(cls)
            tree._start(table, root, data.n_features, criteria, rng)
            trees.append(tree)
        return trees

    def _start(self, table, root, n_features, criteria, rng) -> None:
        self.n_classes = table.n_classes
        self.criteria = criteria
        self.rng = rng
        self.tree = DecisionTree._at(table, root, n_features, criteria, rng)
        self.batches_seen = 1

    @property
    def n_features(self) -> int:
        return self.tree.n_features

    def update(self, batch: Dataset) -> "StreamTree":
        """Extend the tree with one batch; the tree is unchanged on error."""
        data = _check_batch(batch, self.n_features, self.n_classes)
        _update_trees([self], data, [np.arange(data.n_samples)], self.rng)
        return self

    def apply(self, x) -> TreeNode:
        return self.tree.apply(x)

    def predict_one(self, x) -> int:
        return self.tree.predict_one(x)

    def predict(self, X) -> np.ndarray:
        return self.tree.predict(X)

    def node_count(self) -> int:
        return self.tree.node_count()

    @classmethod
    def _from_parts(cls, root: TreeNode, n_features: int, n_classes: int,
                    criteria: SplitCriteria, batches_seen: int, seed=0):
        """Rebuild from snapshot pieces: the tree rooted at the node view
        `root`, whose table has `n_classes` classes, and a generator from
        `seed`. Passing a Generator uses it as it is: restored to the
        original run's state, further updates match that run."""
        obj = cls.__new__(cls)
        obj._start(root._table, root._id, n_features, criteria, np.random.default_rng(seed))
        obj.batches_seen = batches_seen
        return obj
