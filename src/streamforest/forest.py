"""Forest ensembles: a streaming forest with probabilistic worst-tree
replacement, and a batch forest baseline refit from scratch on demand.

A forest is its node table, the roots of its trees in that table and, for
a stream forest, the number of batches each tree has taken in: routing,
growth, voting and snapshots all read that state, so that a batch is
routed through every tree at once, one depth level per step. The trees
that ``forest.trees`` returns are views built from it."""

from __future__ import annotations

import numpy as np

from .stream import StreamTree, _check_batch
from .tree import (
    BYTES_PER_NODE,
    Dataset,
    DecisionTree,
    NodeTable,
    SplitCriteria,
    _check_bool,
    _check_criteria,
    _check_integer,
    _Model,
    _planted,
)

__all__ = ["StreamForest", "BatchForest", "FOREST_CRITERIA", "model_size"]

# Default split rules of both forests; SplitCriteria is frozen, so sharing
# one instance is safe.
FOREST_CRITERIA = SplitCriteria(max_features="sqrt")


class _Forest(_Model):
    """What both forests share: how their hyperparameters are set."""

    def _configure(self, n_trees, criteria, seed, bootstrap) -> None:
        """Check the shared hyperparameters, named as the constructors name
        them, and set them as the plain values the checks return."""
        self.n_trees = _check_integer("n_trees", n_trees, 1)
        self.criteria = _check_criteria(criteria, FOREST_CRITERIA)
        self.seed = _check_integer("seed", seed, 0)
        self.bootstrap = _check_bool("bootstrap", bootstrap)


class StreamForest(_Forest):
    """Ensemble of streaming trees with bootstrap resampling per batch.

    Every tree updates on its own bootstrap resample of each batch (size n,
    with replacement) under sqrt feature limiting by default. After each
    update, with probability 1/b where b counts batches including the
    initial one, the `replace_count` trees with the lowest accuracy on the
    raw current batch are replaced by fresh trees fit to a bootstrap of that
    batch only. Predictions are majority votes.

    The whole evolution is a pure function of (seed, batch sequence,
    hyperparameters). One generator, seeded by `seed`, draws in this order:
    all bootstraps in one call, the growth draws (see `tree._grow`), the
    coin, the replacements' bootstraps and growth draws. All trees live in
    one node table, which after every update holds exactly the nodes of the
    current trees, and all grow under the forest's split criteria.

    `_Forest._configure` checks and sets the hyperparameters, on
    construction and on `load_forest`; a snapshot stores ``seed`` as
    ``master_seed``.
    """

    def __init__(self, first_batch: Dataset, n_classes: int, n_trees: int = 100,
                 replace_count: int = 1, criteria: SplitCriteria | None = None,
                 seed: int = 0, bootstrap: bool = True):
        self._configure(n_classes, n_trees, replace_count, criteria, seed, bootstrap)
        self._fit(_check_batch("first_batch", first_batch, self.n_classes), self.n_trees,
                  self.bootstrap, self.rng)
        self._batches = np.ones(self.n_trees, dtype=np.int64)  # batches each tree has taken in
        self.batches_seen = 1

    def _configure(self, n_classes, n_trees, replace_count, criteria, seed, bootstrap) -> None:
        """`_Forest._configure`, the class and replacement counts, and ``rng``."""
        self.n_classes = _check_integer("n_classes", n_classes, 2)
        super()._configure(n_trees, criteria, seed, bootstrap)
        self.replace_count = _check_integer("replace_count", replace_count, 0)
        if self.replace_count > self.n_trees:
            raise ValueError("replace_count must lie in [0, n_trees]")
        self.rng = np.random.default_rng(self.seed)
        self.last_replacement: dict | None = None

    predict = _Model.predict
    predict_one = _Model.predict_one

    @property
    def trees(self) -> tuple:
        """Views of the current trees, taken now: a view reads the table the
        forest holds now, which later updates grow in place until a
        replacement moves the forest to a new table."""
        trees = tuple(StreamTree._at(self._table, root, self.n_features, self.criteria)
                      for root in self._roots.tolist())
        for tree, batches in zip(trees, self._batches.tolist()):
            tree.batches_seen = batches
        return trees

    def update(self, batch: Dataset, force_replacement: bool | None = None) -> "StreamForest":
        """Update every tree with a per-tree bootstrap of `batch`, then maybe
        replace the worst trees.

        force_replacement, None, True or False, overrides the 1/b coin for
        tests; the uniform draw is consumed either way so forced and
        unforced runs share the same generator stream. Details of the draw
        and any replacement are kept in `last_replacement`.
        """
        if force_replacement is not None:
            _check_bool("force_replacement", force_replacement)
        data = _check_batch("batch", batch, self.n_classes, self.n_features)
        self._extend(data, self.bootstrap)
        self._batches += 1
        self.batches_seen += 1

        u = float(self.rng.random())
        threshold = 1.0 / self.batches_seen
        fired = (u < threshold) if force_replacement is None else bool(force_replacement)
        info = {"u": u, "threshold": threshold, "fired": fired,
                "scores": None, "replaced": []}
        if fired and self.replace_count > 0:
            scores = np.mean(self._votes(data.features) == data.labels, axis=1)
            # Stable sort: equal scores keep index order, so the lowest
            # indices are replaced first on ties.
            worst = np.argsort(scores, kind="stable")[: self.replace_count]
            self._replace(worst, _planted(self._table, data, worst.size, self.criteria,
                                          self.bootstrap, self.rng))
            info["scores"] = scores
            info["replaced"] = [int(i) for i in worst]
        self.last_replacement = info
        return self

    def _replace(self, indices, roots) -> None:
        """Make the trees at ``roots[j]``, grown in the forest's table, tree
        ``indices[j]``, which has taken in one batch; then copy the current
        trees into a new table, breadth-first, so that the table holds
        exactly their nodes."""
        held = self._roots.copy()
        held[indices] = roots
        self._batches[indices] = 1
        table = NodeTable(self.n_classes)
        self._roots = table.append(self._table.export(held), held.size)
        self._table = table


class BatchForest(_Forest):
    """Bagged CART forest refit from scratch on the full data it is given.

    Each fit draws one bootstrap resample per tree (size n, with
    replacement) in one call, then the growth draws, from a generator seeded
    by `seed`; refitting on the same data and seed reproduces the same
    forest.
    """

    def __init__(self, n_trees: int = 100, criteria: SplitCriteria | None = None,
                 seed: int = 0, bootstrap: bool = True):
        self._configure(n_trees, criteria, seed, bootstrap)

    predict = _Model.predict
    predict_one = _Model.predict_one

    @property
    def trees(self) -> tuple:
        """Views of the fitted trees; none before the first fit."""
        return tuple(DecisionTree._at(self._table, root, self.n_features, self.criteria)
                     for root in self._roots.tolist())

    def fit(self, data: Dataset) -> "BatchForest":
        """Refit every tree on bootstrap resamples of `data`; the forest is
        unchanged on error."""
        self._fit(data, self.n_trees, self.bootstrap, np.random.default_rng(self.seed))
        return self


def model_size(model) -> tuple[int, int]:
    """Total node count and estimated bytes (nodes x BYTES_PER_NODE) for any
    tree or forest exposing node_count()."""
    nodes = model.node_count()
    return nodes, nodes * BYTES_PER_NODE
