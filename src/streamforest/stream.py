"""Streaming decision tree: grow a fitted tree batch by batch, splitting only
the leaves that new samples reach and never altering existing internal nodes."""

from __future__ import annotations

import numpy as np

from .tree import (
    Dataset,
    DecisionTree,
    NodeTable,
    SplitCriteria,
    _grow,
    _route_and_count,
)

__all__ = ["StreamTree"]


def _check_batch(batch: Dataset, n_features: int, n_classes: int) -> Dataset:
    """Validate a first or an update batch against the model's shape;
    returns the batch under the model's class count."""
    if batch.n_samples == 0:
        raise ValueError("batch must be nonempty")
    if batch.n_features != n_features:
        raise ValueError(
            f"batch has {batch.n_features} features, model expects {n_features}"
        )
    if batch.labels.max() >= n_classes:
        raise ValueError(f"batch labels must lie below n_classes={n_classes}")
    return batch if batch.n_classes == n_classes else batch.with_classes(n_classes)


def _update_trees(trees: list, data: Dataset, rows: np.ndarray, weights: np.ndarray,
                  bounds, rng: np.random.Generator) -> None:
    """Extend each stream tree ``trees[t]`` with the rows
    ``rows[bounds[t]:bounds[t + 1]]`` of `data`, a validated batch, row
    ``rows[i]`` counted ``weights[i]`` times; a tree's rows are distinct and
    in increasing order, as `forest._samples` draws them. The trees share
    one node table and one split criteria, as a forest's trees do.

    All (tree, row) pairs are routed and counted in one pass. Then one
    `_grow` call grows the touched leaves that can split on those weighted
    rows, drawing from `rng`; its queue starts with the leaves tree by tree,
    each tree's in depth-first, left-first order.
    """
    table = trees[0].table
    roots = np.array([tree.root_id for tree in trees])
    touched = _route_and_count(table, roots, rows, weights, bounds,
                               data.features, data.labels)
    _grow(table, data, touched.rows, touched.weights, touched.bounds, touched.leaves,
          trees[0].criteria, rng)
    for tree in trees:
        tree.batches_seen += 1


class StreamTree(DecisionTree):
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

    # Bound here, not only inherited: the traced benchmark run
    # (perfbench/tracing.py) wraps only methods found in the class's own
    # namespace, and its "stream.predict" span is this method.
    predict = DecisionTree.predict

    def __init__(self, first_batch: Dataset, n_classes: int,
                 criteria: SplitCriteria | None = None, seed=0):
        super().__init__(criteria, seed)
        self.fit(_check_batch(first_batch, first_batch.n_features, n_classes))
        self.batches_seen = 1

    @property
    def tree(self) -> "StreamTree":
        """The tree itself, kept because perfbench/workloads.py reads
        ``forest.trees[t].tree.root``."""
        return self

    @classmethod
    def _at(cls, table: NodeTable, root_id: int, n_features: int, criteria: SplitCriteria,
            rng: np.random.Generator, batches_seen: int = 1) -> "StreamTree":
        """The tree rooted at node `root_id` of `table`, which has taken in
        `batches_seen` batches and grows on by drawing from `rng`. A snapshot
        passes its forest's restored generator, so further updates continue
        the original run."""
        tree = super()._at(table, root_id, n_features, criteria, rng)
        tree.batches_seen = batches_seen
        return tree

    def update(self, batch: Dataset) -> "StreamTree":
        """Extend the tree with one batch; the tree is unchanged on error."""
        data = _check_batch(batch, self.n_features, self.n_classes)
        n = data.n_samples
        _update_trees([self], data, np.arange(n), np.ones(n, dtype=np.int32), [0, n],
                      self.rng)
        return self
