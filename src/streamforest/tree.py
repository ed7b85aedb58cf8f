"""Batch CART decision tree: Gini impurity, exhaustive midpoint threshold
search, recursive growth with per-split feature subsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BYTES_PER_NODE",
    "Dataset",
    "SplitCriteria",
    "TreeNode",
    "DecisionTree",
    "gini_impurity",
    "best_split",
]

# Accounting constant for model-size estimates: per-node cost covering the
# split fields, two child links and the class-count storage. Echoed in
# benchmark result metadata so reported byte figures are reproducible.
BYTES_PER_NODE = 64


@dataclass
class Dataset:
    """Dense numeric classification data with a declared class count.

    Parameters
    ----------
    features : (n_samples, n_features) array, coerced to float64.
    labels : (n_samples,) array of class indices in [0, n_classes).
    n_classes : fixed at construction; may exceed the classes present.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError(
                f"features have {self.features.shape[0]} rows but "
                f"labels have length {self.labels.shape[0]}"
            )
        if self.features.shape[1] < 1:
            raise ValueError("need at least one feature")
        if not np.isfinite(self.features).all():
            row, col = np.argwhere(~np.isfinite(self.features))[0]
            raise ValueError(f"non-finite feature value at row {row}, column {col}")
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_classes
        ):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[idx], self.labels[idx], self.n_classes)

    def with_classes(self, n_classes: int) -> "Dataset":
        """Same rows under a different declared class count."""
        return Dataset(self.features, self.labels, n_classes)


@dataclass(frozen=True)
class SplitCriteria:
    """Stopping and feature-subsampling rules for split search.

    max_features is "all", "sqrt" (max(1, floor(sqrt(p)))), or a fixed count.
    A fresh random subset of that size is drawn at every attempted split.
    """

    min_samples_split: int = 2
    max_features: int | str = "all"
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if self.min_impurity_decrease < 0.0:
            raise ValueError("min_impurity_decrease must be nonnegative")
        if isinstance(self.max_features, str):
            if self.max_features not in ("all", "sqrt"):
                raise ValueError("max_features must be 'all', 'sqrt' or a positive int")
        elif int(self.max_features) < 1:
            raise ValueError("fixed max_features must be positive")

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "all":
            return n_features
        if self.max_features == "sqrt":
            return max(1, math.isqrt(n_features))
        m = int(self.max_features)
        if not 1 <= m <= n_features:
            raise ValueError(
                f"max_features={m} out of range for {n_features} features"
            )
        return m


class TreeNode:
    """Binary tree node: leaves predict, internal nodes route on one feature.

    class_counts accumulates every training sample ever routed through or
    into the node. pre_split_total records how many of those arrived before
    the node split (their feature values are gone, so they never route to a
    child); it stays 0 for nodes split during a batch fit. pending holds
    current-batch sample indices on leaves and is empty between updates.
    """

    __slots__ = ("feature", "threshold", "left", "right", "class_counts",
                 "pre_split_total", "pending")

    def __init__(self, class_counts: np.ndarray):
        self.feature: int = -1
        self.threshold: float = 0.0
        self.left: TreeNode | None = None
        self.right: TreeNode | None = None
        self.class_counts = np.asarray(class_counts, dtype=np.int64)
        self.pre_split_total: int = 0
        self.pending: list[int] = []

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def gini_impurity(class_counts) -> float:
    """Gini impurity 1 - sum_k (count_k / total)^2 of a class-count vector.

    Raises ValueError when the counts are all zero (undefined impurity) or
    any count is negative.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.size == 0 or (counts < 0).any():
        raise ValueError("class counts must be a nonempty nonnegative vector")
    total = counts.sum()
    if total == 0:
        raise ValueError("gini impurity is undefined for all-zero counts")
    p = counts / total
    return float(1.0 - np.dot(p, p))


def best_split(data: Dataset, indices, candidate_features):
    """Exhaustive split search over the given features.

    Considers every midpoint between consecutive distinct sorted values of
    each candidate feature (or the lower value, where the midpoint does not
    lie strictly below the upper one) and maximizes the weighted Gini
    decrease over the samples in `indices`. Ties break toward the lowest
    feature index, then the lowest threshold.

    Returns
    -------
    (feature, threshold, decrease) or None when no split yields a positive
    decrease (pure node, or all candidate features constant).
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("indices must be nonempty")
    feats = sorted({int(f) for f in candidate_features})
    if not feats:
        raise ValueError("candidate_features must be nonempty")
    if feats[0] < 0 or feats[-1] >= data.n_features:
        raise ValueError("candidate feature index out of range")

    y = data.labels[idx]
    n = idx.size
    parent_counts = np.bincount(y, minlength=data.n_classes)
    s_parent = int(np.dot(parent_counts, parent_counts))
    parent_f = parent_counts.astype(np.float64)

    # Maximizing the weighted gini decrease is equivalent to maximizing
    # q = S_l/n_l + S_r/n_r, with S the sum of squared child class counts.
    # Floats rank the candidates; the few within NEAR_TIE of a feature's
    # maximum are re-compared exactly by integer cross-multiplication, so
    # exact ties resolve by the (feature, threshold) rule instead of by
    # rounding noise. Float error per candidate is a few ulps, far inside
    # the reselection band.
    NEAR_TIE = 1e-9
    best = None  # (q_numerator, q_denominator, feature, threshold)
    fn = float(n)
    for f in feats:
        vals = data.features[idx, f]
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        pos = np.nonzero(v[1:] != v[:-1])[0] + 1  # left-block sizes at value boundaries
        if pos.size == 0:
            continue
        cum = np.zeros((n + 1, data.n_classes), dtype=np.float64)
        cum[np.arange(1, n + 1), y[order]] = 1.0
        np.cumsum(cum, axis=0, out=cum)
        left = cum[pos]
        right = parent_f - left
        nl = pos.astype(np.float64)
        nr = fn - nl
        s_left = (left * left).sum(axis=1)  # exact: integer-valued floats
        s_right = (right * right).sum(axis=1)
        q = s_left / nl + s_right / nr
        near = np.nonzero(q >= q.max() - NEAR_TIE)[0]
        for j in near:
            j = int(j)
            n_l = int(pos[j])
            n_r = n - n_l
            num = int(s_left[j]) * n_r + int(s_right[j]) * n_l
            den = n_l * n_r
            if num * n <= s_parent * den:  # decrease not positive
                continue
            if best is None or num * best[1] > best[0] * den:
                lo, hi = float(v[pos[j] - 1]), float(v[pos[j]])
                threshold = (lo + hi) / 2.0
                # The midpoint can round up to hi or overflow to +-inf, which
                # would send both blocks to one side; lo still separates them.
                if not lo <= threshold < hi:
                    threshold = lo
                best = (num, den, f, threshold)

    if best is None:
        return None
    num, den, feature, threshold = best
    decrease = (num * n - s_parent * den) / (den * n * n)
    return feature, threshold, decrease


def _grow(node: TreeNode, data: Dataset, indices, criteria: SplitCriteria,
          rng: np.random.Generator) -> None:
    """Recursively split `node` on `indices`, extending leaves in place.

    The node's class_counts must already include the labels of `indices`
    (plus any history). Children are created with counts of the samples
    routed to them and are grown further in depth-first, left-first order,
    which also fixes the order of feature-subset draws from `rng`.
    """
    X, y, k = data.features, data.labels, data.n_classes
    m = criteria.resolve_max_features(data.n_features)
    stack = [(node, np.asarray(indices, dtype=np.intp))]
    while stack:
        node, idx = stack.pop()
        node.pending = []
        if idx.size < criteria.min_samples_split:
            continue
        labels = y[idx]
        if (labels == labels[0]).all():
            continue
        if m == data.n_features:
            cand = np.arange(data.n_features)
        else:
            cand = rng.choice(data.n_features, size=m, replace=False)
        found = best_split(data, idx, cand)
        if found is None:
            continue
        feature, threshold, decrease = found
        if decrease < criteria.min_impurity_decrease:
            continue
        goes_left = X[idx, feature] <= threshold
        left_idx = idx[goes_left]
        right_idx = idx[~goes_left]
        node.pre_split_total = int(node.class_counts.sum()) - idx.size
        node.feature = feature
        node.threshold = threshold
        node.left = TreeNode(np.bincount(y[left_idx], minlength=k))
        node.right = TreeNode(np.bincount(y[right_idx], minlength=k))
        stack.append((node.right, right_idx))
        stack.append((node.left, left_idx))


def _route_and_count(root: TreeNode, X: np.ndarray, y: np.ndarray,
                     n_classes: int) -> list[TreeNode]:
    """Route every row to its leaf, incrementing class_counts along the way.

    Returns the touched leaves in depth-first tree order, each with its
    pending list extended by the batch-local row indices that landed there.
    """
    touched = []
    stack = [(root, np.arange(y.shape[0], dtype=np.intp))]
    while stack:
        node, rows = stack.pop()
        node.class_counts += np.bincount(y[rows], minlength=n_classes)
        if node.left is None:
            node.pending.extend(rows.tolist())
            touched.append(node)
        else:
            goes_left = X[rows, node.feature] <= node.threshold
            left_rows = rows[goes_left]
            right_rows = rows[~goes_left]
            if right_rows.size:
                stack.append((node.right, right_rows))
            if left_rows.size:
                stack.append((node.left, left_rows))
    return touched


def _predict_rows(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Vectorized leaf routing; returns the majority class per row."""
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(root, np.arange(X.shape[0], dtype=np.intp))]
    while stack:
        node, rows = stack.pop()
        if node.left is None:
            out[rows] = int(np.argmax(node.class_counts))
        else:
            goes_left = X[rows, node.feature] <= node.threshold
            left_rows = rows[goes_left]
            right_rows = rows[~goes_left]
            if left_rows.size:
                stack.append((node.left, left_rows))
            if right_rows.size:
                stack.append((node.right, right_rows))
    return out


def _count_nodes(root: TreeNode) -> int:
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        total += 1
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    return total


class DecisionTree:
    """CART classifier: recursive Gini splits down to pure or tiny leaves.

    Fitting is deterministic given (data order, criteria, seed). Prediction
    routes a point to its leaf (feature value <= threshold goes left) and
    returns the majority class there, ties to the lowest class index.
    """

    def __init__(self, criteria: SplitCriteria | None = None, seed=0):
        self.criteria = criteria if criteria is not None else SplitCriteria()
        self.seed = seed
        self.root: TreeNode | None = None
        self.n_classes: int | None = None
        self.n_features: int | None = None

    def fit(self, data: Dataset) -> "DecisionTree":
        """Fit on the full dataset; class-count vectors sized data.n_classes."""
        if data.n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        rng = np.random.default_rng(self.seed)
        self._fit_with_rng(data, rng)
        return self

    def _fit_with_rng(self, data: Dataset, rng: np.random.Generator) -> None:
        self.n_classes = data.n_classes
        self.n_features = data.n_features
        root = TreeNode(np.bincount(data.labels, minlength=data.n_classes))
        _grow(root, data, np.arange(data.n_samples), self.criteria, rng)
        self.root = root

    def _check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.n_features:
            raise ValueError(f"expected a vector of {self.n_features} features")
        return x

    def apply(self, x) -> TreeNode:
        """Return the unique leaf whose region contains x."""
        x = self._check_vector(x)
        node = self.root
        while node.left is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict_one(self, x) -> int:
        return int(np.argmax(self.apply(x).class_counts))

    def predict(self, X) -> np.ndarray:
        """Majority-class predictions for the rows of X."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected a matrix with {self.n_features} columns")
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return _predict_rows(self.root, X)

    def node_count(self) -> int:
        return _count_nodes(self.root) if self.root is not None else 0
