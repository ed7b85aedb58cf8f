"""Forest ensembles: a streaming forest with probabilistic worst-tree
replacement, and a batch forest baseline refit from scratch on demand."""

from __future__ import annotations

import numpy as np

from .stream import StreamTree, _check_batch
from .tree import BYTES_PER_NODE, Dataset, DecisionTree, SplitCriteria

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


# Methods shared by both forests. Each class body binds them instead of
# inheriting them, because the traced benchmark run (perfbench/tracing.py)
# wraps only methods found in a class's own namespace.
def _predict_one(self, x) -> int:
    per_tree = np.array([tree.predict_one(x) for tree in self.trees])
    return int(_majority_vote(per_tree[:, None], self.n_classes)[0])


def _predict(self, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != self.n_features:
        raise ValueError(f"expected a matrix with {self.n_features} columns")
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return _majority_vote([tree.predict(X) for tree in self.trees], self.n_classes)


def _node_count(self) -> int:
    return sum(tree.node_count() for tree in self.trees)


class StreamForest:
    """Ensemble of streaming trees with bootstrap resampling per batch.

    Every tree updates on its own bootstrap resample of each batch (size n,
    with replacement, drawn from the tree's generator) under sqrt feature
    limiting by default. After each update, with probability 1/b where b
    counts batches including the initial one, the `replace_count` trees with
    the lowest accuracy on the raw current batch are replaced by fresh trees
    fit to a bootstrap of that batch only. Predictions are majority votes.

    The whole evolution is a pure function of (seed, batch sequence,
    hyperparameters).
    """

    def __init__(self, first_batch: Dataset, n_classes: int, n_trees: int = 100,
                 replace_count: int = 1, criteria: SplitCriteria | None = None,
                 seed: int = 0, bootstrap: bool = True):
        if n_trees < 1:
            raise ValueError("n_trees must be positive")
        if not 0 <= replace_count <= n_trees:
            raise ValueError("replace_count must lie in [0, n_trees]")
        if first_batch.n_samples == 0:
            raise ValueError("first batch must be nonempty")
        if first_batch.labels.max() >= n_classes:
            raise ValueError(f"batch labels must lie below n_classes={n_classes}")
        self.n_classes = n_classes
        self.n_trees = n_trees
        self.replace_count = replace_count
        self.criteria = criteria if criteria is not None else FOREST_CRITERIA
        self.master_seed = seed
        self.bootstrap = bootstrap
        self._seedseq = np.random.SeedSequence(seed)
        # Spawn order is part of the deterministic contract: forest-level
        # generator first, then one child per tree, then one per replacement.
        self.rng = np.random.default_rng(self._seedseq.spawn(1)[0])
        self.trees = [self._fresh_tree(first_batch) for _ in range(n_trees)]
        self.batches_seen = 1
        self.last_replacement: dict | None = None

    @property
    def n_features(self) -> int:
        return self.trees[0].n_features

    def _fresh_tree(self, batch: Dataset) -> StreamTree:
        rng = np.random.default_rng(self._seedseq.spawn(1)[0])
        data = batch.with_classes(self.n_classes)
        if self.bootstrap:
            data = data.subset(rng.integers(0, data.n_samples, data.n_samples))
        return StreamTree(data, self.n_classes, self.criteria, rng)

    def update(self, batch: Dataset, force_replacement: bool | None = None) -> "StreamForest":
        """Update every tree with a per-tree bootstrap of `batch`, then maybe
        replace the worst trees.

        force_replacement overrides the 1/b coin for tests; the uniform draw
        is consumed either way so forced and unforced runs share the same
        generator stream. Details of the draw and any replacement are kept
        in `last_replacement`.
        """
        data = _check_batch(batch, self.n_features, self.n_classes)
        n = data.n_samples
        for tree in self.trees:
            tree.update(data.subset(tree.rng.integers(0, n, n)) if self.bootstrap else data)
        self.batches_seen += 1

        u = float(self.rng.random())
        threshold = 1.0 / self.batches_seen
        fired = (u < threshold) if force_replacement is None else bool(force_replacement)
        info = {"u": u, "threshold": threshold, "fired": fired,
                "scores": None, "replaced": []}
        if fired and self.replace_count > 0:
            scores = np.array([
                float(np.mean(tree.predict(data.features) == data.labels))
                for tree in self.trees
            ])
            # Stable sort: equal scores keep index order, so the lowest
            # indices are replaced first on ties.
            worst = np.argsort(scores, kind="stable")[: self.replace_count]
            for i in worst:
                self.trees[int(i)] = self._fresh_tree(data)
            info["scores"] = scores
            info["replaced"] = [int(i) for i in worst]
        self.last_replacement = info
        return self

    predict_one = _predict_one
    predict = _predict
    node_count = _node_count


class BatchForest:
    """Bagged CART forest refit from scratch on the full data it is given.

    Each fit draws one bootstrap resample per tree (size n, with
    replacement) and keeps a reference to the training data; refitting on
    the same data and seed reproduces the same forest.
    """

    def __init__(self, n_trees: int = 100, criteria: SplitCriteria | None = None,
                 seed: int = 0, bootstrap: bool = True):
        if n_trees < 1:
            raise ValueError("n_trees must be positive")
        self.n_trees = n_trees
        self.criteria = criteria if criteria is not None else FOREST_CRITERIA
        self.seed = seed
        self.bootstrap = bootstrap
        self.trees: list[DecisionTree] = []
        self.data: Dataset | None = None
        self.n_classes: int | None = None
        self.n_features: int | None = None

    def fit(self, data: Dataset) -> "BatchForest":
        """Refit every tree on bootstrap resamples of `data`."""
        if data.n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.data = data
        self.n_classes = data.n_classes
        self.n_features = data.n_features
        trees = []
        for child in np.random.SeedSequence(self.seed).spawn(self.n_trees):
            rng = np.random.default_rng(child)
            sub = data.subset(rng.integers(0, data.n_samples, data.n_samples)) \
                if self.bootstrap else data
            tree = DecisionTree(self.criteria, self.seed)
            tree._fit_with_rng(sub, rng)
            trees.append(tree)
        self.trees = trees
        return self

    predict_one = _predict_one
    predict = _predict
    node_count = _node_count


def model_size(model) -> tuple[int, int]:
    """Total node count and estimated bytes (nodes x BYTES_PER_NODE) for any
    tree or forest exposing node_count()."""
    nodes = model.node_count()
    return nodes, nodes * BYTES_PER_NODE
