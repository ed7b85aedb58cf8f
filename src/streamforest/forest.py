"""Forest ensembles: a streaming forest with probabilistic worst-tree
replacement, and a batch forest baseline refit from scratch on demand.

Each forest keeps the nodes of all of its trees in one node table, so that
a batch is routed through every tree at once, one depth level per step."""

from __future__ import annotations

import numpy as np

from .stream import StreamTree, _check_batch, _update_trees
from .tree import (
    BYTES_PER_NODE,
    Dataset,
    DecisionTree,
    NodeTable,
    SplitCriteria,
    _PAIRS_PER_PASS,
    _check_input,
    _descend,
    _leaf_labels,
    _plant,
)

__all__ = ["StreamForest", "BatchForest", "FOREST_CRITERIA", "model_size"]

# Default split rules of both forests; SplitCriteria is frozen, so sharing
# one instance is safe.
FOREST_CRITERIA = SplitCriteria(max_features="sqrt")


def _majority_vote(per_tree, n_classes: int) -> np.ndarray:
    """Plurality class per row over an (n_trees, n_rows) array of tree
    predictions, ties to the lowest class."""
    cells = np.array(per_tree, dtype=np.int64)
    n_rows = cells.shape[1]
    cells += np.arange(n_rows) * n_classes
    votes = np.bincount(cells.ravel(), minlength=n_rows * n_classes)
    return votes.reshape(n_rows, n_classes).argmax(axis=1)


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


def _hold(forest, table: NodeTable, trees) -> None:
    """Make `trees`, all of them in `table`, the forest's trees."""
    forest.trees = tuple(trees)
    forest._table = table
    forest._roots = np.array([tree.root_id for tree in trees], dtype=np.intp)


# Methods shared by both forests. Each class body binds them instead of
# inheriting them, because the traced benchmark run (perfbench/tracing.py)
# wraps only methods found in a class's own namespace.
def _votes(self, X: np.ndarray) -> np.ndarray:
    """(n_trees, n_rows) class predicted by each tree for each row of X.

    Rows are routed in blocks of at most _PAIRS_PER_PASS (tree, row) pairs,
    which bounds the routing arrays to a few MB however many rows come.
    """
    table, roots = self._table, self._roots
    n, n_trees = X.shape[0], roots.size
    out = np.empty((n_trees, n), dtype=np.intp)
    step = max(1, _PAIRS_PER_PASS // n_trees)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(n, lo + step))
        leaves = _descend(table, np.repeat(roots, rows.size), np.tile(rows, n_trees), X)
        out[:, rows] = _leaf_labels(table, leaves).reshape(n_trees, rows.size)
    return out


def _predict_one(self, x) -> int:
    x = _check_input(self, x, 1)
    return int(_majority_vote(self._votes(x[None, :]), self.n_classes)[0])


def _predict(self, X) -> np.ndarray:
    X = _check_input(self, X, 2)
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return _majority_vote(self._votes(X), self.n_classes)


def _node_count(self) -> int:
    return self._table.count_nodes(self._roots) if self.trees else 0


class StreamForest:
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
    current trees.
    """

    def __init__(self, first_batch: Dataset, n_classes: int, n_trees: int = 100,
                 replace_count: int = 1, criteria: SplitCriteria | None = None,
                 seed: int = 0, bootstrap: bool = True):
        if n_trees < 1:
            raise ValueError("n_trees must be positive")
        if not 0 <= replace_count <= n_trees:
            raise ValueError("replace_count must lie in [0, n_trees]")
        self.n_classes = n_classes
        self.n_trees = n_trees
        self.replace_count = replace_count
        self.criteria = criteria if criteria is not None else FOREST_CRITERIA
        self.master_seed = seed
        self.bootstrap = bootstrap
        self.rng = np.random.default_rng(seed)
        self._table = NodeTable(n_classes)
        data = _check_batch(first_batch, first_batch.n_features, n_classes)
        _hold(self, self._table, self._fresh_trees(data, n_trees))
        self.batches_seen = 1
        self.last_replacement: dict | None = None

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    def _fresh_trees(self, data: Dataset, count: int) -> list:
        """`count` new trees grown together in the forest's table, each on a
        bootstrap of `data`."""
        rows, weights, bounds = _samples(self.rng, count, data.n_samples, self.bootstrap)
        return StreamTree._grown(self._table, data, rows, weights, bounds, self.criteria,
                                 self.rng)

    def update(self, batch: Dataset, force_replacement: bool | None = None) -> "StreamForest":
        """Update every tree with a per-tree bootstrap of `batch`, then maybe
        replace the worst trees.

        force_replacement overrides the 1/b coin for tests; the uniform draw
        is consumed either way so forced and unforced runs share the same
        generator stream. Details of the draw and any replacement are kept
        in `last_replacement`.
        """
        data = _check_batch(batch, self.n_features, self.n_classes)
        rows, weights, bounds = _samples(self.rng, len(self.trees), data.n_samples,
                                         self.bootstrap)
        _update_trees(self.trees, data, rows, weights, bounds, self.rng)
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
            self._replace(worst.tolist(), self._fresh_trees(data, worst.size))
            info["scores"] = scores
            info["replaced"] = [int(i) for i in worst]
        self.last_replacement = info
        return self

    def _replace(self, indices, trees) -> None:
        """Make ``trees[j]``, grown in the forest's table, tree
        ``indices[j]``; then copy the current trees into a new table in
        preorder, so that the table holds exactly their nodes. Every other
        tree keeps its object."""
        held = list(self.trees)
        for i, tree in zip(indices, trees):
            held[i] = tree
        table = NodeTable(self.n_classes, capacity=0)
        roots = table.copy_trees(self._table, [tree.root_id for tree in held])
        for tree, root in zip(held, roots.tolist()):
            tree.table, tree.root_id = table, root
        _hold(self, table, held)

    _votes = _votes
    predict_one = _predict_one
    predict = _predict
    node_count = _node_count


class BatchForest:
    """Bagged CART forest refit from scratch on the full data it is given.

    Each fit draws one bootstrap resample per tree (size n, with
    replacement) in one call, then the growth draws, from a generator seeded
    by `seed`; refitting on the same data and seed reproduces the same
    forest.
    """

    def __init__(self, n_trees: int = 100, criteria: SplitCriteria | None = None,
                 seed: int = 0, bootstrap: bool = True):
        if n_trees < 1:
            raise ValueError("n_trees must be positive")
        self.n_trees = n_trees
        self.criteria = criteria if criteria is not None else FOREST_CRITERIA
        self.seed = seed
        self.bootstrap = bootstrap
        self.n_classes: int | None = None
        self.n_features: int | None = None
        _hold(self, None, [])

    def fit(self, data: Dataset) -> "BatchForest":
        """Refit every tree on bootstrap resamples of `data`."""
        if data.n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_classes = data.n_classes
        self.n_features = data.n_features
        rng = np.random.default_rng(self.seed)
        rows, weights, bounds = _samples(rng, self.n_trees, data.n_samples, self.bootstrap)
        table = NodeTable(data.n_classes)
        roots = _plant(table, data, rows, weights, bounds, self.criteria, rng)
        trees = [DecisionTree._at(table, root, data.n_features, self.criteria, rng)
                 for root in roots]
        _hold(self, table, trees)
        return self

    _votes = _votes
    predict_one = _predict_one
    predict = _predict
    node_count = _node_count


def model_size(model) -> tuple[int, int]:
    """Total node count and estimated bytes (nodes x BYTES_PER_NODE) for any
    tree or forest exposing node_count()."""
    nodes = model.node_count()
    return nodes, nodes * BYTES_PER_NODE
