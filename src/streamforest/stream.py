"""Streaming decision tree: grow a fitted tree batch by batch, splitting only
the leaves that new samples reach and never altering existing internal nodes."""

from __future__ import annotations

import numpy as np

from .tree import (
    Dataset,
    DecisionTree,
    SplitCriteria,
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
    return batch.with_classes(n_classes)


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
        self.n_classes = n_classes
        self.criteria = criteria if criteria is not None else SplitCriteria()
        self.rng = np.random.default_rng(seed)
        self.tree = DecisionTree(self.criteria, seed)
        self.tree._fit_with_rng(first_batch.with_classes(n_classes), self.rng)
        self.batches_seen = 1

    @property
    def n_features(self) -> int:
        return self.tree.n_features

    def update(self, batch: Dataset) -> "StreamTree":
        """Extend the tree with one batch; the tree is unchanged on error."""
        data = _check_batch(batch, self.n_features, self.n_classes)
        touched = _route_and_count(
            self.tree.root, data.features, data.labels, self.n_classes
        )
        for leaf in touched:
            indices = np.asarray(leaf.pending, dtype=np.intp)
            _grow(leaf, data, indices, self.criteria, self.rng)
        self.batches_seen += 1
        return self

    def apply(self, x):
        return self.tree.apply(x)

    def predict_one(self, x) -> int:
        return self.tree.predict_one(x)

    def predict(self, X) -> np.ndarray:
        return self.tree.predict(X)

    def node_count(self) -> int:
        return self.tree.node_count()

    @classmethod
    def _from_parts(cls, root, n_features: int, n_classes: int,
                    criteria: SplitCriteria, batches_seen: int, seed=0):
        """Rebuild from snapshot pieces; generator state is freshly seeded,
        so a loaded tree predicts exactly but further updates need not match
        the original run."""
        obj = cls.__new__(cls)
        obj.n_classes = n_classes
        obj.criteria = criteria
        obj.rng = np.random.default_rng(seed)
        obj.tree = DecisionTree(criteria, seed)
        obj.tree.root = root
        obj.tree.n_classes = n_classes
        obj.tree.n_features = n_features
        obj.batches_seen = batches_seen
        return obj
