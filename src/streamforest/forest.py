"""Forest ensembles: a streaming forest with probabilistic worst-tree
replacement, and a batch forest baseline refit from scratch on demand.

A forest is its node table, the roots of its trees in that table and, for
a stream forest, the number of batches each tree has taken in: routing,
growth, voting and snapshots all read that state, so that a batch is
routed through every tree at once, one depth level per step. The trees
that ``forest.trees`` returns are views built from it."""

from __future__ import annotations

import numpy as np

from .stream import StreamTree, _check_batch, _update_trees
from .tree import (
    BYTES_PER_NODE,
    Dataset,
    DecisionTree,
    NodeTable,
    SplitCriteria,
    _check_bool,
    _check_criteria,
    _check_dataset,
    _check_integer,
    _Model,
    _plant,
)

__all__ = ["StreamForest", "BatchForest", "FOREST_CRITERIA", "model_size"]

# Default split rules of both forests; SplitCriteria is frozen, so sharing
# one instance is safe.
FOREST_CRITERIA = SplitCriteria(max_features="sqrt")


def _samples(rng: np.random.Generator, count: int, n: int,
             bootstrap: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of n that `count` trees, new or updated, grow on: (rows,
    weights, bounds), tree t on ``rows[bounds[t]:bounds[t + 1]]``, row
    ``rows[i]`` counted ``weights[i]`` times.

    A bootstrap draws all trees' n rows in one call and keeps each tree's
    distinct rows, in increasing order, with the number of times each was
    drawn; without one, every tree takes every row once. Both buffers are
    32-bit where n allows, as they stay allocated while the trees grow.
    """
    index = np.int32 if n <= np.iinfo(np.int32).max else np.intp
    bounds = np.arange(count + 1) * n
    if not bootstrap:
        return np.tile(np.arange(n, dtype=index), count), np.ones(count * n, np.int32), bounds
    cells = rng.integers(0, n, (count, n))
    cells += bounds[:-1, None]  # (tree, row) cell t * n + row
    repeats = np.bincount(cells.reshape(-1), minlength=count * n)
    del cells
    drawn = np.flatnonzero(repeats)
    weights = repeats[drawn].astype(np.int32)
    del repeats
    rows = np.remainder(drawn, n, out=np.empty(drawn.size, dtype=index))
    return rows, weights, np.searchsorted(drawn, bounds)


def _planted(table: NodeTable, data: Dataset, count: int, criteria: SplitCriteria,
             bootstrap: bool, rng: np.random.Generator) -> np.ndarray:
    """The roots of `count` new trees grown together in `table` by one
    `_grow` call, each on a sample of `data` as `_samples` draws it, all
    drawing from `rng`."""
    rows, weights, bounds = _samples(rng, count, data.n_samples, bootstrap)
    return _plant(table, data, rows, weights, bounds, criteria, rng)


class StreamForest(_Model):
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
    """

    def __init__(self, first_batch: Dataset, n_classes: int, n_trees: int = 100,
                 replace_count: int = 1, criteria: SplitCriteria | None = None,
                 seed: int = 0, bootstrap: bool = True):
        _check_integer("n_classes", n_classes, 2)
        _check_integer("n_trees", n_trees, 1)
        _check_integer("replace_count", replace_count, 0)
        if replace_count > n_trees:
            raise ValueError("replace_count must lie in [0, n_trees]")
        _check_integer("seed", seed, 0)
        _check_bool("bootstrap", bootstrap)
        self.n_classes = n_classes
        self.n_trees = n_trees
        self.replace_count = replace_count
        self.criteria = _check_criteria(criteria, FOREST_CRITERIA)
        self.master_seed = seed
        self.bootstrap = bootstrap
        self.rng = np.random.default_rng(seed)
        data = _check_batch(first_batch, n_classes)
        self.n_features = data.n_features
        self._table = NodeTable(n_classes)
        self._roots = _planted(self._table, data, n_trees, self.criteria, bootstrap, self.rng)
        self._batches = np.ones(n_trees, dtype=np.int64)  # batches each tree has taken in
        self.batches_seen = 1
        self.last_replacement: dict | None = None

    predict = _Model.predict
    predict_one = _Model.predict_one

    @property
    def trees(self) -> tuple:
        """Views of the current trees, taken now: a view reads the table the
        forest holds now, which later updates grow in place until a
        replacement moves the forest to a new table."""
        return tuple(StreamTree._at(self._table, root, self.n_features, self.criteria, batches)
                     for root, batches in zip(self._roots.tolist(), self._batches.tolist()))

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
        data = _check_batch(batch, self.n_classes, self.n_features)
        rows, weights, bounds = _samples(self.rng, self._roots.size, data.n_samples,
                                         self.bootstrap)
        _update_trees(self._table, self._roots, self.criteria, data, rows, weights, bounds,
                      self.rng)
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
        table = NodeTable(self.n_classes, capacity=0)
        self._roots = table.copy_trees(self._table, held)
        self._table = table


class BatchForest(_Model):
    """Bagged CART forest refit from scratch on the full data it is given.

    Each fit draws one bootstrap resample per tree (size n, with
    replacement) in one call, then the growth draws, from a generator seeded
    by `seed`; refitting on the same data and seed reproduces the same
    forest.
    """

    def __init__(self, n_trees: int = 100, criteria: SplitCriteria | None = None,
                 seed: int = 0, bootstrap: bool = True):
        _check_integer("n_trees", n_trees, 1)
        _check_integer("seed", seed, 0)
        _check_bool("bootstrap", bootstrap)
        self.n_trees = n_trees
        self.criteria = _check_criteria(criteria, FOREST_CRITERIA)
        self.seed = seed
        self.bootstrap = bootstrap
        self.n_classes = self.n_features = self._table = None
        self._roots = np.empty(0, dtype=np.intp)

    predict = _Model.predict
    predict_one = _Model.predict_one

    @property
    def trees(self) -> tuple:
        """Views of the fitted trees; none before the first fit."""
        return tuple(DecisionTree._at(self._table, root, self.n_features, self.criteria)
                     for root in self._roots.tolist())

    def fit(self, data: Dataset) -> "BatchForest":
        """Refit every tree on bootstrap resamples of `data`."""
        _check_dataset("data", data)
        if data.n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        table = NodeTable(data.n_classes)
        self._roots = _planted(table, data, self.n_trees, self.criteria, self.bootstrap,
                               np.random.default_rng(self.seed))
        self._table = table
        self.n_classes, self.n_features = data.n_classes, data.n_features
        return self


def model_size(model) -> tuple[int, int]:
    """Total node count and estimated bytes (nodes x BYTES_PER_NODE) for any
    tree or forest exposing node_count()."""
    nodes = model.node_count()
    return nodes, nodes * BYTES_PER_NODE
