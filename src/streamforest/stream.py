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


def _update_trees(trees: list, data: Dataset, rows: list) -> None:
    """Extend each stream tree ``trees[t]`` with the rows ``rows[t]`` of
    `data`, a validated batch. The trees share one node table.

    All (tree, row) pairs are routed and counted in one pass. Then each
    touched leaf that can split, meaning it has at least min_samples_split
    rows and more than one label among them, is regrown with its tree's
    generator: tree by tree, and depth-first, left-first within a tree.
    `_grow` returns at once on any other leaf without drawing from the
    generator, so skipping those leaves leaves every tree unchanged.
    """
    table = trees[0].tree.table
    pair_rows = np.concatenate(rows)
    tree_of = np.repeat(np.arange(len(trees)), [r.size for r in rows])
    roots = np.array([tree.tree.root_id for tree in trees])
    touched = _route_and_count(table, roots, pair_rows, tree_of,
                               data.features, data.labels)
    leaf_rows = pair_rows[touched.pairs]
    labels = data.labels[leaf_rows]
    starts = touched.bounds[:-1]
    mixed = np.minimum.reduceat(labels, starts) != np.maximum.reduceat(labels, starts)
    min_split = np.array([tree.criteria.min_samples_split for tree in trees])
    big = np.diff(touched.bounds) >= min_split[touched.tree]
    for u in np.flatnonzero(mixed & big).tolist():
        tree = trees[touched.tree[u]]
        _grow(table.view(touched.leaves[u]), data,
              leaf_rows[touched.bounds[u]: touched.bounds[u + 1]], tree.criteria, tree.rng)
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
    tree exactly: the generator state advances deterministically, and
    touched leaves regrow in depth-first tree order.
    """

    def __init__(self, first_batch: Dataset, n_classes: int,
                 criteria: SplitCriteria | None = None, seed=0):
        if first_batch.n_samples == 0:
            raise ValueError("first batch must be nonempty")
        if first_batch.labels.max() >= n_classes:
            raise ValueError(f"batch labels must lie below n_classes={n_classes}")
        data = first_batch.with_classes(n_classes)
        self._start(NodeTable(n_classes), data, np.arange(data.n_samples),
                    criteria if criteria is not None else SplitCriteria(),
                    np.random.default_rng(seed))

    @classmethod
    def _grown(cls, table: NodeTable, data: Dataset, rows, criteria: SplitCriteria,
               rng: np.random.Generator) -> "StreamTree":
        """A new tree fit to `rows` of `data` (under the table's class count),
        grown in `table`."""
        tree = cls.__new__(cls)
        tree._start(table, data, rows, criteria, rng)
        return tree

    def _start(self, table, data, rows, criteria, rng) -> None:
        self.n_classes = table.n_classes
        self.criteria = criteria
        self.rng = rng
        self.tree = DecisionTree(criteria, rng)
        self.tree._fit_with_rng(data, rng, table, rows)
        self.batches_seen = 1

    @property
    def n_features(self) -> int:
        return self.tree.n_features

    def update(self, batch: Dataset) -> "StreamTree":
        """Extend the tree with one batch; the tree is unchanged on error."""
        data = _check_batch(batch, self.n_features, self.n_classes)
        _update_trees([self], data, [np.arange(data.n_samples)])
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
        `root`, and a generator from `seed`. Passing a Generator restored to
        the original run's state makes further updates match that run."""
        obj = cls.__new__(cls)
        obj.n_classes = n_classes
        obj.criteria = criteria
        obj.rng = np.random.default_rng(seed)
        obj.tree = DecisionTree(criteria, seed)
        obj.tree.table, obj.tree.root_id = root._table, root._id
        obj.tree.n_classes = n_classes
        obj.tree.n_features = n_features
        obj.batches_seen = batches_seen
        return obj
