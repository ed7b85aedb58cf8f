"""Batch CART decision tree: Gini impurity, exhaustive midpoint threshold
search, recursive growth with per-split feature subsampling."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BYTES_PER_NODE",
    "Dataset",
    "SplitCriteria",
    "NodeTable",
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


class NodeTable:
    """Struct-of-arrays storage for the nodes of one or more binary trees.

    Node i routes on ``feature[i]`` and ``threshold[i]`` (a value <= the
    threshold goes to ``left[i]``, a larger one to ``right[i]``); a leaf has
    left = right = feature = -1 and threshold 0.0. ``counts[i]`` accumulates
    the labels of every training sample ever routed through or into node i.
    ``pre_split_total[i]`` records how many of those arrived before node i
    split (their feature values are gone, so they never route to a child);
    it stays 0 for nodes split during a batch fit. A tree is the id of its
    root; a forest keeps all of its trees in one table.

    Only ids below ``size`` are nodes. Capacity grows by doubling, which
    replaces the column arrays: hold on to the table, not to a column.
    """

    COLUMNS = ("feature", "threshold", "left", "right", "counts", "pre_split_total")

    def __init__(self, n_classes: int, capacity: int = 16):
        self.n_classes = n_classes
        self.size = 0
        self.feature = np.empty(capacity, dtype=np.int64)
        self.threshold = np.empty(capacity, dtype=np.float64)
        self.left = np.empty(capacity, dtype=np.int64)
        self.right = np.empty(capacity, dtype=np.int64)
        self.counts = np.empty((capacity, n_classes), dtype=np.int64)
        self.pre_split_total = np.empty(capacity, dtype=np.int64)
        self._views = weakref.WeakValueDictionary()

    def __getstate__(self):
        # The view cache holds weak references, which cannot be pickled.
        return {k: v for k, v in self.__dict__.items() if k != "_views"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._views = weakref.WeakValueDictionary()

    def _reserve(self, extra: int) -> None:
        capacity = self.feature.shape[0]
        if self.size + extra <= capacity:
            return
        capacity = max(self.size + extra, 2 * capacity)
        for name in self.COLUMNS:
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def add_leaf(self, class_counts) -> int:
        """Append a leaf with these class counts; returns its id."""
        self._reserve(1)
        i = self.size
        self.size += 1
        self.feature[i] = self.left[i] = self.right[i] = -1
        self.threshold[i] = 0.0
        self.counts[i] = class_counts
        self.pre_split_total[i] = 0
        return i

    def split(self, i: int, feature: int, threshold: float,
              left_counts, right_counts, n_routed: int) -> tuple[int, int]:
        """Turn leaf i into an internal node over two new leaves holding
        the class counts of the `n_routed` samples routed to them; returns
        their ids."""
        left = self.add_leaf(left_counts)
        right = self.add_leaf(right_counts)
        self.feature[i] = feature
        self.threshold[i] = threshold
        self.left[i] = left
        self.right[i] = right
        self.pre_split_total[i] = self.counts[i].sum() - n_routed
        return left, right

    def view(self, i) -> "TreeNode":
        """The node view of id i; one view object per node while it is held."""
        i = int(i)
        node = self._views.get(i)
        if node is None:
            node = self._views[i] = TreeNode(self, i)
        return node

    def levels(self, roots) -> list[np.ndarray]:
        """Node ids of the trees at `roots`, one array per depth."""
        out = []
        level = np.asarray(roots, dtype=np.intp).reshape(-1)
        while level.size:
            out.append(level)
            inner = level[self.left[level] >= 0]
            level = np.concatenate((self.left[inner], self.right[inner]))
        return out

    def count_nodes(self, roots) -> int:
        """Number of nodes in the trees at `roots`."""
        return sum(level.size for level in self.levels(roots))

    def export(self, roots) -> tuple[np.ndarray, np.ndarray, dict]:
        """The trees at `roots` in preorder, tree after tree.

        Returns (ids, starts, columns): tree t is ``ids[starts[t]:starts[t+1]]``,
        and each column holds those nodes' values in that order, with child
        links counted from the start of the node's own tree (-1 at leaves),
        which is the snapshot layout.
        """
        levels = self.levels(roots)
        size = np.ones(self.size, dtype=np.intp)  # subtree sizes, leaves first
        for level in reversed(levels):
            inner = level[self.left[level] >= 0]
            size[inner] += size[self.left[inner]] + size[self.right[inner]]
        starts = np.zeros(levels[0].size + 1, dtype=np.intp)
        np.cumsum(size[levels[0]], out=starts[1:])
        pos = np.empty(self.size, dtype=np.intp)  # preorder position
        pos[levels[0]] = starts[:-1]
        for level in levels:
            inner = level[self.left[level] >= 0]
            left = self.left[inner]
            pos[left] = pos[inner] + 1
            pos[self.right[inner]] = pos[inner] + 1 + size[left]
        ids = np.empty(starts[-1], dtype=np.intp)
        for level in levels:
            ids[pos[level]] = level
        tree_start = np.repeat(starts[:-1], np.diff(starts))
        left, right = self.left[ids], self.right[ids]
        inner = left >= 0
        columns = {
            "feature": self.feature[ids],
            "threshold": self.threshold[ids],
            "left": np.where(inner, pos[left] - tree_start, -1),
            "right": np.where(inner, pos[right] - tree_start, -1),
            "counts": self.counts[ids],
            "pre_split_total": self.pre_split_total[ids],
        }
        return ids, starts, columns

    def append(self, starts, columns: dict) -> np.ndarray:
        """Append trees laid out as `export` returns them; returns their root ids."""
        n = int(starts[-1])
        self._reserve(n)
        base, stop = self.size, self.size + n
        tree_start = base + np.repeat(starts[:-1], np.diff(starts))
        for name in self.COLUMNS:
            value = np.asarray(columns[name])
            if name in ("left", "right"):
                value = np.where(value >= 0, value + tree_start, -1)
            getattr(self, name)[base:stop] = value
        self.size = stop
        return base + np.asarray(starts[:-1], dtype=np.intp)

    def copy_trees(self, source: "NodeTable", roots) -> np.ndarray:
        """Append the trees at `roots` of another table in preorder; returns
        their new root ids. Views of the copied nodes move with them."""
        if source is self:
            raise ValueError("cannot copy a table's trees into itself")
        ids, starts, columns = source.export(roots)
        new_roots = self.append(starts, columns)
        new_id = np.full(source.size, -1, dtype=np.intp)
        new_id[ids] = new_roots[0] + np.arange(ids.size)
        for old, node in list(source._views.items()):
            if new_id[old] >= 0:
                del source._views[old]
                node._table, node._id = self, int(new_id[old])
                self._views[node._id] = node
        return new_roots


class TreeNode:
    """Read-only view of one node of a NodeTable: leaves predict, internal
    nodes route on one feature.

    ``class_counts`` accumulates every training sample ever routed through
    or into the node; ``pre_split_total`` counts those that arrived before
    the node split. Both are read live from the table, so a view follows
    later updates of its node.
    """

    __slots__ = ("_table", "_id", "__weakref__")

    def __init__(self, table: NodeTable, node_id: int):
        self._table = table
        self._id = node_id

    def _child(self, links) -> "TreeNode | None":
        child = links[self._id]
        return None if child < 0 else self._table.view(child)

    @property
    def left(self) -> "TreeNode | None":
        return self._child(self._table.left)

    @property
    def right(self) -> "TreeNode | None":
        return self._child(self._table.right)

    @property
    def feature(self) -> int:
        return int(self._table.feature[self._id])

    @property
    def threshold(self) -> float:
        return float(self._table.threshold[self._id])

    @property
    def class_counts(self) -> np.ndarray:
        counts = self._table.counts[self._id]
        counts.flags.writeable = False
        return counts

    @property
    def pre_split_total(self) -> int:
        return int(self._table.pre_split_total[self._id])

    @property
    def is_leaf(self) -> bool:
        return bool(self._table.left[self._id] < 0)


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
    """Recursively split `node` on the rows `indices` of `data`, extending
    leaves in place.

    The node's class_counts must already include the labels of `indices`
    (plus any history); indices may repeat a row, as a bootstrap resample
    does. Children are created with counts of the samples routed to them and
    are grown further in depth-first, left-first order, which also fixes the
    order of feature-subset draws from `rng`.
    """
    table = node._table
    X, y, k = data.features, data.labels, data.n_classes
    m = criteria.resolve_max_features(data.n_features)
    stack = [(node._id, np.asarray(indices, dtype=np.intp))]
    while stack:
        i, idx = stack.pop()
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
        left, right = table.split(i, feature, threshold,
                                  np.bincount(y[left_idx], minlength=k),
                                  np.bincount(y[right_idx], minlength=k), idx.size)
        stack.append((right, right_idx))
        stack.append((left, left_idx))


def _descend(table: NodeTable, start, rows, X: np.ndarray, path=None) -> np.ndarray:
    """Route (start node, row) pairs to their leaves, all pairs one level
    per step; returns the leaf id of each pair.

    Pair i starts at node ``start[i]`` with the features ``X[rows[i]]``; a
    value <= the threshold goes left. When `path` is a list, each step
    appends (pairs moved, whether each went left, nodes reached).
    """
    node = np.array(start, dtype=np.intp)
    feature, threshold, left, right = table.feature, table.threshold, table.left, table.right
    live = np.flatnonzero(left[node] >= 0)
    while live.size:
        cur = node[live]
        goes_left = X[rows[live], feature[cur]] <= threshold[cur]
        reached = np.where(goes_left, left[cur], right[cur])
        node[live] = reached
        if path is not None:
            path.append((live, goes_left, reached))
        live = live[left[reached] >= 0]
    return node


@dataclass
class _Touched:
    """The leaves a routed batch reached, tree by tree and in depth-first,
    left-first order within a tree. The pairs that reached ``leaves[u]``
    are ``pairs[bounds[u]:bounds[u + 1]]``, in increasing order."""

    leaves: np.ndarray
    tree: np.ndarray
    bounds: np.ndarray
    pairs: np.ndarray

    def __len__(self) -> int:
        return self.leaves.size


def _route_and_count(table: NodeTable, roots, rows, tree_of, X: np.ndarray,
                     y: np.ndarray) -> _Touched:
    """Route (tree, row) pairs to their leaves and add each pair's label to
    the counts of every node on its path.

    Pair i is row ``rows[i]`` of (X, y) entering the tree rooted at
    ``roots[tree_of[i]]``; a row may enter a tree more than once.
    """
    start = np.asarray(roots, dtype=np.intp)[tree_of]
    path = []
    leaf = _descend(table, start, rows, X, path)
    labels = y[rows]
    nodes = np.concatenate([start] + [reached for _, _, reached in path])
    pair_labels = np.concatenate([labels] + [labels[live] for live, _, _ in path])
    np.add.at(table.counts.reshape(-1), nodes * table.n_classes + pair_labels, 1)

    # Depth-first, left-first order of the touched leaves: sort by tree,
    # then by the branch taken at each depth (left first). No touched leaf
    # lies on another's path, so padding short paths with "left" is safe.
    leaves, first, inverse = np.unique(leaf, return_index=True, return_inverse=True)
    keys = [np.asarray(tree_of)[first]]
    went_right = np.zeros(leaf.size, dtype=np.int8)
    for live, goes_left, _ in path:
        went_right[:] = 0
        went_right[live] = ~goes_left
        keys.append(went_right[first])
    order = np.lexsort(keys[::-1])
    rank = np.empty(leaves.size, dtype=np.intp)
    rank[order] = np.arange(leaves.size)
    pair_rank = rank[inverse]
    bounds = np.zeros(leaves.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(pair_rank, minlength=leaves.size), out=bounds[1:])
    return _Touched(leaves[order], keys[0][order], bounds,
                    np.argsort(pair_rank, kind="stable"))


def _leaf_labels(table: NodeTable, leaves: np.ndarray) -> np.ndarray:
    """Majority class of each leaf id, ties to the lowest class."""
    if leaves.size > table.size:
        return table.counts[: table.size].argmax(axis=1)[leaves]
    return table.counts[leaves].argmax(axis=1)


class DecisionTree:
    """CART classifier: recursive Gini splits down to pure or tiny leaves.

    Fitting is deterministic given (data order, criteria, seed). Prediction
    routes a point to its leaf (feature value <= threshold goes left) and
    returns the majority class there, ties to the lowest class index. The
    tree is the node ``root_id`` of ``table``, a table of its own unless a
    forest holds it.
    """

    def __init__(self, criteria: SplitCriteria | None = None, seed=0):
        self.criteria = criteria if criteria is not None else SplitCriteria()
        self.seed = seed
        self.table: NodeTable | None = None
        self.root_id = -1
        self.n_classes: int | None = None
        self.n_features: int | None = None

    @property
    def root(self) -> TreeNode | None:
        return None if self.table is None else self.table.view(self.root_id)

    def fit(self, data: Dataset) -> "DecisionTree":
        """Fit on the full dataset; class-count vectors sized data.n_classes."""
        if data.n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        rng = np.random.default_rng(self.seed)
        self._fit_with_rng(data, rng)
        return self

    def _fit_with_rng(self, data: Dataset, rng: np.random.Generator,
                      table: NodeTable | None = None, rows=None) -> None:
        """Grow on `rows` of `data` (all rows by default), in `table` (a new
        one by default)."""
        rows = np.arange(data.n_samples) if rows is None else rows
        self.n_classes = data.n_classes
        self.n_features = data.n_features
        self.table = NodeTable(data.n_classes) if table is None else table
        self.root_id = self.table.add_leaf(np.bincount(data.labels[rows], minlength=data.n_classes))
        _grow(self.root, data, rows, self.criteria, rng)

    def _check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.n_features:
            raise ValueError(f"expected a vector of {self.n_features} features")
        return x

    def _leaf_id(self, x) -> int:
        x = self._check_vector(x)
        t = self.table
        i = self.root_id
        while t.left[i] >= 0:
            i = t.left[i] if x[t.feature[i]] <= t.threshold[i] else t.right[i]
        return int(i)

    def apply(self, x) -> TreeNode:
        """Return the unique leaf whose region contains x."""
        return self.table.view(self._leaf_id(x))

    def predict_one(self, x) -> int:
        return int(np.argmax(self.table.counts[self._leaf_id(x)]))

    def predict(self, X) -> np.ndarray:
        """Majority-class predictions for the rows of X."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected a matrix with {self.n_features} columns")
        rows = np.arange(X.shape[0])
        leaves = _descend(self.table, np.full(rows.size, self.root_id), rows, X)
        return _leaf_labels(self.table, leaves)

    def node_count(self) -> int:
        return self.table.count_nodes(self.root_id) if self.table is not None else 0
