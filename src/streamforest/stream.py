"""Streaming decision tree: grow a fitted tree batch by batch, splitting only
the leaves that new samples reach and never altering existing internal nodes."""

from __future__ import annotations

from .tree import (
    Dataset,
    DecisionTree,
    SplitCriteria,
    _check_dataset,
    _check_integer,
)

__all__ = ["StreamTree"]


def _check_batch(name: str, batch: Dataset, n_classes: int,
                 n_features: int | None = None) -> Dataset:
    """Validate the argument `name`, an update batch, against the model's
    shape, or a first batch (`n_features` None), which sets it; returns the
    batch under the model's class count."""
    _check_dataset(name, batch)
    if batch.n_samples == 0:
        raise ValueError(f"{name} must be nonempty")
    if n_features is not None and batch.n_features != n_features:
        raise ValueError(
            f"{name} has {batch.n_features} features, model expects {n_features}"
        )
    if batch.labels.max() >= n_classes:
        raise ValueError(f"{name} labels must lie below n_classes={n_classes}")
    if batch.n_classes != n_classes:
        batch = Dataset(batch.features, batch.labels, n_classes)
    return batch


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
    subset in that order (see `tree._grow`). A tree of a forest is a read
    view of the forest's table, root and batch count, taken when
    ``forest.trees`` is read; it has no seed or generator and refuses
    ``fit`` and ``update``, since the forest fits and updates its trees.
    """

    def __init__(self, first_batch: Dataset, n_classes: int,
                 criteria: SplitCriteria | None = None, seed: int = 0):
        _check_integer("n_classes", n_classes, 2)
        super().__init__(criteria, seed)
        super().fit(_check_batch("first_batch", first_batch, n_classes))
        self.batches_seen = 1

    @property
    def tree(self) -> "StreamTree":
        """The tree itself, kept because perfbench/workloads.py reads
        ``forest.trees[t].tree.root``."""
        return self

    predict = DecisionTree.predict

    def fit(self, data: Dataset) -> "StreamTree":
        """Restart the stream with `data` as its first batch, under the
        tree's class count: the tree becomes ``StreamTree(data, n_classes,
        criteria, seed)``. The tree is unchanged on error. A tree view
        refuses first, naming ``update``, the forest's own method."""
        self._check_own("update")
        super().fit(_check_batch("data", data, self.n_classes))
        self.batches_seen = 1
        return self

    def update(self, batch: Dataset) -> "StreamTree":
        """Extend the tree with one batch; the tree is unchanged on error."""
        self._check_own("update")
        self._extend(_check_batch("batch", batch, self.n_classes, self.n_features), False)
        self.batches_seen += 1
        return self
