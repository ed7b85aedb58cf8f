"""Batch CART decision tree: Gini impurity, exhaustive midpoint threshold
search, per-split feature subsampling, and one grower that grows many trees
at once in rounds of batched split searches."""

from __future__ import annotations

import math
import numbers
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

# Accounting constant for model-size estimates. Echoed in benchmark result
# metadata so reported byte figures are reproducible. A live `NodeTable`
# node takes 24 + 4k bytes for k classes, so the constant equals the live
# size only at k = 10.
BYTES_PER_NODE = 64


def _check_integer(name: str, value, low: int):
    """`value` as a plain int, or an array of integers or whole floats as
    itself, checked in place; raises TypeError unless it is one of these
    (bools are neither), and ValueError if any of it lies below `low`."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf":
            raise TypeError(f"{name} must be integers, not {value.dtype}")
        if value.dtype.kind == "f":
            with np.errstate(invalid="ignore"):  # the remainder of +-inf is nan
                if not (np.mod(value, 1.0) == 0.0).all():
                    raise ValueError(f"{name} must be whole numbers")
        least = value.min() if value.size else low
    elif isinstance(value, numbers.Integral) and not isinstance(value, bool):
        least = value
    else:
        raise TypeError(f"{name} must be an integer, not {value!r}")
    if least < low:
        raise ValueError(f"{name} must be at least {low}, not {least}")
    return value if isinstance(value, np.ndarray) else int(value)


def _check_bool(name: str, value) -> bool:
    """`value` as a plain bool; raises TypeError unless it is True or False."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be True or False, not {value!r}")
    return bool(value)


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
        self.n_classes = _check_integer("n_classes", self.n_classes, 2)
        labels = np.asarray(self.labels)
        _check_integer("labels", labels, 0)
        self.labels = labels.astype(np.int64, copy=False)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError(
                f"features have {self.features.shape[0]} rows but "
                f"labels have length {self.labels.shape[0]}"
            )
        if self.features.shape[1] < 1:
            raise ValueError("need at least one feature")
        _check_finite(self.features)
        if self.labels.size and self.labels.max() >= self.n_classes:
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
        object.__setattr__(self, "min_samples_split",
                           _check_integer("min_samples_split", self.min_samples_split, 2))
        bound = self.min_impurity_decrease
        if not isinstance(bound, numbers.Real) or isinstance(bound, bool):
            raise TypeError(f"min_impurity_decrease must be a real number, not {bound!r}")
        if not (math.isfinite(bound) and bound >= 0.0):
            raise ValueError(f"min_impurity_decrease must be finite and at least 0, not {bound!r}")
        object.__setattr__(self, "min_impurity_decrease", float(bound))
        if isinstance(self.max_features, str):
            if self.max_features not in ("all", "sqrt"):
                raise ValueError("max_features must be 'all', 'sqrt' or a positive int")
        else:
            object.__setattr__(self, "max_features",
                               _check_integer("max_features", self.max_features, 1))

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


# Bound on a node's total count: the int32 class counts of a node hold any
# total below it.
_MAX_COUNT = 1 << 31


class NodeTable:
    """Struct-of-arrays storage for the nodes of one or more binary trees.

    Node i routes on ``feature[i]`` and ``threshold[i]``: a value <= the
    threshold goes to its left child ``left[i]``, a larger one to its right
    child, which is always ``left[i] + 1``; a leaf has left = feature = -1
    and threshold 0.0. ``counts[i]`` accumulates the labels of every
    training sample ever routed through or into node i; the samples that
    arrived before node i split are those its children do not hold (see
    `TreeNode.pre_split_total`). A tree is the id of its root; a forest
    keeps all of its trees in one table.

    Counts are int32, so a node takes 24 + 4k bytes for k classes and its
    total must stay below ``_MAX_COUNT``: `_Model._extend` and snapshot
    loading check that, as int32 `np.add.at` would wrap silently.

    Only ids below ``size`` are nodes. Capacity grows by doubling, and
    `trim` cuts it to ``size``; both replace the column arrays: hold on to
    the table, not to a column.
    """

    COLUMNS = ("feature", "threshold", "left", "counts")

    def __init__(self, n_classes: int, capacity: int = 16):
        self.n_classes = n_classes
        self.size = 0
        self.feature = np.empty(capacity, dtype=np.int64)
        self.threshold = np.empty(capacity, dtype=np.float64)
        self.left = np.empty(capacity, dtype=np.int64)
        self.counts = np.empty((capacity, n_classes), dtype=np.int32)

    def _resize(self, capacity: int) -> None:
        """Move the nodes into columns of `capacity` slots."""
        for name in self.COLUMNS:
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def _reserve(self, extra: int) -> None:
        capacity = self.feature.shape[0]
        if self.size + extra > capacity:
            self._resize(max(self.size + extra, 2 * capacity))

    def trim(self) -> None:
        """Cut the columns to exactly the table's nodes."""
        if self.feature.shape[0] > self.size:
            self._resize(self.size)

    def add_leaf(self, class_counts) -> int:
        """Append a leaf with these class counts; returns its id."""
        return int(self.add_leaves(np.asarray(class_counts)[None, :])[0])

    def add_leaves(self, class_counts) -> np.ndarray:
        """Append one leaf per row of the (n, k) `class_counts`; returns their ids."""
        n = len(class_counts)
        self._reserve(n)
        new = slice(self.size, self.size + n)
        self.size += n
        self.feature[new] = self.left[new] = -1
        self.threshold[new] = 0.0
        self.counts[new] = class_counts
        return np.arange(new.start, new.stop)

    def split(self, ids, features, thresholds, left_counts,
              right_counts) -> tuple[np.ndarray, np.ndarray]:
        """Turn the leaves `ids` into internal nodes, leaf ``ids[i]`` over a
        new leaf pair with the given class counts; returns the ids of the
        left and of the right leaves."""
        ids = np.asarray(ids, dtype=np.intp)
        counts = np.empty((2 * ids.size, self.n_classes), dtype=self.counts.dtype)
        counts[0::2], counts[1::2] = left_counts, right_counts
        left = self.add_leaves(counts)[0::2]
        self.feature[ids] = features
        self.threshold[ids] = thresholds
        self.left[ids] = left
        return left, left + 1

    def view(self, i) -> "TreeNode":
        """The node view of id i."""
        return TreeNode(self, int(i))

    def count_nodes(self, roots) -> int:
        """Number of nodes in the trees at `roots`."""
        return sum(level.size for level in _levels(self.left, roots))

    def export(self, roots) -> dict:
        """The columns of the trees at `roots`, laid out by `_breadth_first`."""
        return _breadth_first({name: getattr(self, name) for name in self.COLUMNS}, roots)

    def append(self, columns: dict, n_trees: int) -> np.ndarray:
        """Append `n_trees` trees laid out as `export` returns them: child
        links count from the first node, and the roots come first. Returns
        the roots' ids."""
        n = len(columns["left"])
        self._reserve(n)
        new = slice(self.size, self.size + n)
        for name in self.COLUMNS:
            getattr(self, name)[new] = columns[name]
        left = self.left[new]
        left[left >= 0] += new.start
        self.size = new.stop
        return new.start + np.arange(n_trees)

    def copy_trees(self, source: "NodeTable", roots) -> np.ndarray:
        """Append the trees at `roots` of another table, laid out as
        `export` lays them out; returns their new root ids."""
        return self.append(source.export(roots), len(roots))


def _levels(left, roots, right=None) -> list[np.ndarray]:
    """Node ids of the trees at `roots`, one array per depth: the roots in
    the given order, then, level by level, the children of each internal
    node, pair by pair. The right child of node i is ``right[i]``, or
    ``left[i] + 1`` when `right` is None."""
    out = []
    level = np.asarray(roots, dtype=np.intp).reshape(-1)
    while level.size:
        out.append(level)
        inner = level[left[level] >= 0]
        children = left[inner]
        level = np.stack((children, children + 1 if right is None else right[inner]),
                         axis=1).reshape(-1)
    return out


def _breadth_first(columns: dict, roots, right=None) -> dict:
    """The `NodeTable.COLUMNS` of the trees at `roots` of `columns`, laid
    out breadth-first over all the trees as `_levels` orders them, which is
    the order the grower appends nodes in. Internal node j of that order
    gets left child ``len(roots) + 2 j``; `right` is as for `_levels`."""
    ids = np.concatenate(_levels(columns["left"], roots, right))
    out = {name: columns[name][ids] for name in NodeTable.COLUMNS}
    inner = out["left"] >= 0
    out["left"][inner] = len(roots) + 2 * np.arange(np.count_nonzero(inner))
    return out


class TreeNode:
    """Read-only view of one node of a NodeTable: leaves predict, internal
    nodes route on one feature.

    ``class_counts`` accumulates every training sample ever routed through
    or into the node; ``pre_split_total`` counts those that arrived before
    the node split, the ones its children do not hold. Both are read live
    from the table's counts, so a view follows later updates of its node.
    A view is the value (table, id): two views are equal when they name the
    same node of the same table. A replacement copies a forest's trees into
    a new table, and a view taken before it keeps reading the old table,
    which nothing mutates any more.
    """

    __slots__ = ("_table", "_id")

    def __init__(self, table: NodeTable, node_id: int):
        self._table = table
        self._id = node_id

    def __eq__(self, other) -> bool:
        return (isinstance(other, TreeNode) and self._table is other._table
                and self._id == other._id)

    def __hash__(self) -> int:
        return hash((id(self._table), self._id))

    def _child(self, offset: int) -> "TreeNode | None":
        left = int(self._table.left[self._id])
        return None if left < 0 else TreeNode(self._table, left + offset)

    @property
    def left(self) -> "TreeNode | None":
        return self._child(0)

    @property
    def right(self) -> "TreeNode | None":
        return self._child(1)

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
        """The node's total less its children's; 0 at a leaf."""
        counts, left = self._table.counts, int(self._table.left[self._id])
        return 0 if left < 0 else int(counts[self._id].sum() - counts[left:left + 2].sum())

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


# Bound on the total weight `best_split` accepts: a node of weight W sums
# squared class counts up to W**2, and steps of up to 2 * W**2, in int64.
_MAX_WEIGHT = 1 << 31


def best_split(data: Dataset, indices, candidate_features, starts=None, weights=None):
    """Exhaustive split search over the given features.

    Considers every midpoint between consecutive distinct sorted values of
    each candidate feature (or the lower value, where the midpoint does not
    lie strictly below the upper one) and maximizes the weighted Gini
    decrease over the samples in `indices`. Ties break toward the lowest
    feature index, then the lowest threshold. Only the multiset of rows
    matters, not their order.

    `weights`, positive integers (all ones by default), counts how many
    times each listed row is present: the result equals that of the search
    over ``np.repeat(indices, weights)``, exactly, as a bootstrap resample
    held as distinct rows with their counts needs. They must sum to less
    than 2**31, which keeps the integer sums exact.

    With `starts`, one call searches many nodes: `indices` holds their rows
    back to back, node u's from ``starts[u]`` up to the next start (or the
    end), and row u of the 2-D `candidate_features` lists node u's
    features. The result is then a list with one entry per node.

    Returns
    -------
    (feature, threshold, decrease) or None when no split yields a positive
    decrease (pure node, or all candidate features constant).
    """
    idx = np.asarray(indices, dtype=np.intp)
    if weights is None:
        weights = np.ones(idx.size, dtype=np.int32)
    else:
        weights = np.asarray(weights)
        if weights.shape != idx.shape or weights.dtype.kind not in "iu" or (
                weights.size and weights.min() < 1):
            raise ValueError("weights must be positive integers, one per index")
        if weights.sum(dtype=np.float64) >= _MAX_WEIGHT:
            raise ValueError(f"weights must sum to less than {_MAX_WEIGHT}")
        weights = weights.astype(np.int32, copy=False)  # lossless below the bound
    if starts is None:
        if idx.size == 0:
            raise ValueError("indices must be nonempty")
        feats = sorted({int(f) for f in candidate_features})
        if not feats:
            raise ValueError("candidate_features must be nonempty")
        cand, bounds = np.array([feats]), np.array([0, idx.size])
    else:
        cand = np.asarray(candidate_features)
        bounds = np.append(np.asarray(starts, dtype=np.intp), idx.size)
        if cand.ndim != 2 or cand.shape[0] != bounds.size - 1 or cand.shape[1] == 0:
            raise ValueError("need one nonempty row of candidate features per node")
        if bounds[0] != 0 or (bounds[1:] <= bounds[:-1]).any():
            raise ValueError("starts must begin at 0 and leave every node nonempty")
    if cand.min() < 0 or cand.max() >= data.n_features:
        raise ValueError("candidate feature index out of range")
    given, rows = np.unique(idx, return_inverse=True)
    sub = data.subset(given)
    (node, feature, threshold, _, _, *sums), _ = _search(
        sub, _ranks(sub.features), rows, weights, np.sort(cand, axis=1), bounds)
    found = [None] * (bounds.size - 1)
    for u, f, t, d in zip(node.tolist(), feature.tolist(), threshold.tolist(),
                          _decreases(*sums)):
        found[u] = (f, t, d)
    return found if starts is not None else found[0]


def _ranks(X: np.ndarray) -> np.ndarray:
    """Dense ranks of the columns of X as int32: the smallest value of a
    column ranks 0 and each larger value one more than the one before it,
    so equal values, -0.0 and 0.0 among them, share a rank."""
    order = np.argsort(X, axis=0)
    ordered = np.take_along_axis(X, order, axis=0)
    step = np.zeros(X.shape, dtype=np.int32)
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    rank = np.empty_like(step)
    np.put_along_axis(rank, order, np.cumsum(step, axis=0, out=step), axis=0)
    return rank


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``arange(starts[u], starts[u] + sizes[u])`` back to back,
    and the bounds of each in that concatenation, 0 first."""
    bounds = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    return bounds, np.repeat(starts - bounds[:-1], sizes) + np.arange(bounds[-1])


def _search(data: Dataset, rank: np.ndarray, rows: np.ndarray, weights: np.ndarray,
            cand: np.ndarray, bounds: np.ndarray) -> tuple:
    """`best_split` over nodes laid out back to back in `rows`, node u in
    ``rows[bounds[u]:bounds[u + 1]]`` with the features ``cand[u]``
    (sorted), row ``rows[i]`` counted ``weights[i]`` times; `rank` is
    ``_ranks(data.features)``.

    Returns the split of each node that has one, in node order, as arrays:
    the node, its feature and threshold, `win` and `n_left`, and the
    integer sums n_l, n_r, s_l, s_r and s_parent of the split, as
    `_best_candidates` defines them; and `order`, the positions of `rows`
    segment by segment in value order. Split j's node holds the rows
    ``rows[order[win[j]:win[j] + size]]``, its ``n_left[j]`` left rows first.

    A full round's arrays sit on top of an almost full node table late in
    a fit, where the fit's memory peaks, so each is deleted once used."""
    X, y, k = data.features, data.labels, data.n_classes
    m = cand.shape[1]
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]

    # Segment s = u * m + j holds node u's rows under its j-th feature. One
    # sort of the integer keys segment * n + rank orders the rows by
    # segment, then value (ties in any order, as only the multiset of each
    # block of equal values matters).
    seg_size = np.repeat(sizes, m)
    seg_start, at = _ranges(np.repeat(starts, m), seg_size)
    first, e = seg_start[:-1], at.size
    seg = np.repeat(np.arange(seg_size.size), seg_size)
    seg_feature = cand.reshape(-1)
    key = seg * rank.shape[0] + rank.reshape(-1).take(
        np.multiply(rows[at], rank.shape[1], dtype=np.intp) + seg_feature[seg])
    order = np.argsort(key)
    key = key[order]
    # Position p is no value boundary where it starts its segment or holds
    # the value before it.
    inside = np.empty(e, dtype=bool)
    np.equal(key[1:], key[:-1], out=inside[1:])
    inside[first] = True
    at = at[order]
    lab = y[rows[at]]
    w = weights[at]
    del key, order

    # Maximizing the weighted gini decrease is equivalent to maximizing
    # q = S_l/n_l + S_r/n_r, with S the sum of squared child class counts.
    # Walking a segment in value order moves one row of class c and weight
    # w at a time to the left: S_l grows by (2 * left_c + w) * w and S_r
    # shrinks by (2 * right_c - w) * w, with left_c and right_c counted
    # before the move. left_c is the weight of the segment's rows of class
    # c before the row, found by sorting on (segment, class, position); the
    # totals of the (segment, class) runs in each node's first segment are
    # its class counts.
    key = seg * k + lab
    by_class = np.argsort(key * e + np.arange(e))
    group_start = np.zeros(seg_size.size * k + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=seg_size.size * k), out=group_start[1:])
    passed = np.zeros(e + 1, dtype=np.int64)  # weight before each position
    np.cumsum(w[by_class], out=passed[1:])
    before = np.empty(e, dtype=np.int64)
    before[by_class] = passed[:-1] - passed[group_start[key[by_class]]]
    del key, by_class
    totals = passed[group_start]
    parent = np.ascontiguousarray((totals[1:] - totals[:-1]).reshape(-1, k)[::m])
    after = parent.reshape(-1).take(np.repeat(np.arange(sizes.size) * k, sizes * m)
                                    + lab) - before
    del lab
    # The steps of S_l and S_r, computed in place to keep few arrays alive.
    grow_l = np.zeros(e + 1, dtype=np.int64)
    np.cumsum(np.multiply(np.add(2 * before, w, out=before), w, out=before), out=grow_l[1:])
    shrink_r = np.zeros(e + 1, dtype=np.int64)
    np.cumsum(np.multiply(np.subtract(2 * after, w, out=after), w, out=after), out=shrink_r[1:])
    del before, after
    np.cumsum(w, out=passed[1:])  # now the weight before each position in value order

    # The sums of the split before each position p: the left block is the
    # rows of p's segment before p, the right block the others.
    s_parent = (parent * parent).sum(axis=1)
    n_l = passed[:-1] - np.repeat(passed[first], seg_size)
    n_r = np.repeat(np.repeat(parent.sum(axis=1), m) + passed[first], seg_size) - passed[:-1]
    s_l = grow_l[:-1] - np.repeat(grow_l[first], seg_size)
    s_r = np.repeat(np.repeat(s_parent, m) + shrink_r[first], seg_size) - shrink_r[:-1]
    del passed, grow_l, shrink_r
    with np.errstate(divide="ignore", invalid="ignore"):  # n_l = 0 at segment starts
        q = s_l / n_l + s_r / n_r
    # q is positive at every value boundary; -1 elsewhere lies below every
    # node's floor, which is -(1 - _NEAR_TIE) for a node without one.
    q[inside] = -1.0
    del inside
    q_max = np.maximum.reduceat(q, first[::m])
    near = np.flatnonzero(q >= np.repeat(q_max * (1.0 - _NEAR_TIE), sizes * m))
    del q
    s = seg[near]
    n_l, n_r, s_l, s_r = (x[near] for x in (n_l, n_r, s_l, s_r))

    # Candidates come in (node, feature, threshold) order, the tie rule's.
    i = _best_candidates(s // m, n_l, n_r, s_l, s_r, s_parent)
    node = s[i] // m
    feature, cut, win = seg_feature[s[i]], near[i], first[s[i]]
    lo, hi = X[rows[at[cut - 1]], feature], X[rows[at[cut]], feature]
    with np.errstate(over="ignore"):
        threshold = (lo + hi) / 2.0
    # The midpoint can round up to hi or overflow to +-inf; lo still
    # separates the blocks. As -0.0 and 0.0 share a rank, x <= threshold
    # holds for exactly the rows before the cut.
    threshold = np.where((lo <= threshold) & (threshold < hi), threshold, lo)
    return (node, feature, threshold, win, cut - win, n_l[i], n_r[i], s_l[i], s_r[i],
            s_parent[node]), at


def _decreases(n_l, n_r, s_l, s_r, s_parent) -> list:
    """The weighted Gini decrease of each split `_search` returns, from its
    exact integer sums."""
    out = []
    for a, b, c, d, sp in zip(*(x.tolist() for x in (n_l, n_r, s_l, s_r, s_parent))):
        num, den, n = c * b + d * a, a * b, a + b
        out.append((num * n - sp * den) / (den * n * n))
    return out


def _changes(a: np.ndarray) -> np.ndarray:
    """Mask of the positions of `a` that hold another value than the one
    before them, position 0 included."""
    change = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=change[1:])
    return change


# Width of `_search`'s float prefilter of split candidates, relative to a
# node's best float q. The float error of q is a few ulps at any node size; the
# band covers thousands of them and still admits only near-ties.
_NEAR_TIE = 1e-12


def _best_candidates(node, n_l, n_r, s_l, s_r, s_parent) -> np.ndarray:
    """The best split candidate of each node, chosen exactly.

    Candidate i of node ``node[i]`` (candidates grouped by node, in tie-rule
    order within one) sends n_l[i] rows whose squared class counts sum to
    s_l[i] left, and n_r[i] rows with s_r[i] right; all are integer arrays,
    and ``s_parent[u]`` is that sum over node u. The best candidate has the
    largest q = s_l/n_l + s_r/n_r. Callers pass only the candidates within
    _NEAR_TIE of their node's best float q, as `_search` does, and these
    are compared by exact integer cross-multiplication, so ties resolve by
    the tie rule, not by rounding; other candidates would only lengthen
    that loop. A node's only candidate is taken without the comparison when
    its float q beats the parent's by more than the band.

    Returns the index of each node's first candidate with the largest q, in
    node order, for the nodes whose largest q beats the parent's
    s_parent / (n_l + n_r).
    """
    group = np.cumsum(_changes(node)) - 1
    lone = (np.bincount(group)[group] == 1) & (
        s_l / n_l + s_r / n_r > s_parent[node] / (n_l + n_r) * (1.0 + _NEAR_TIE))
    exact = np.flatnonzero(~lone)
    best = {}  # node: (index, q numerator, q denominator)
    for i, u, a, b, c, d, sp in zip(exact.tolist(), *(
            x[exact].tolist() for x in (node, n_l, n_r, s_l, s_r, s_parent[node]))):
        num, den = c * b + d * a, a * b
        if num * (a + b) <= sp * den:  # decrease not positive
            continue
        old = best.get(u)
        if old is None or num * old[2] > old[1] * den:
            best[u] = (i, num, den)
    chosen = np.flatnonzero(lone).tolist() + [i for i, _, _ in best.values()]
    return np.sort(np.array(chosen, dtype=np.intp))


# Largest number of (tree, row) pairs one routing block of an update
# (`_route_and_count`) or of a prediction (`_votes`) holds, and the row
# budget of one growth round: bounds their temporary arrays to a few MB.
_PAIRS_PER_PASS = 1 << 15


def _grow(table: NodeTable, data: Dataset, rows: np.ndarray, weights: np.ndarray, bounds,
          nodes, criteria: SplitCriteria, rng: np.random.Generator) -> None:
    """Grow leaves of `table` on rows of `data`, any number of trees at once.

    Leaf ``nodes[u]`` holds the rows ``rows[bounds[u]:bounds[u + 1]]``,
    already in its counts, row ``rows[i]`` counted ``weights[i]`` times
    (positive integers); a bootstrap resample comes as its distinct rows and
    how often each was drawn. `rows` and `weights` are one pair of buffers
    for the whole call: a node is a range of them, and a split reorders its
    range of both in place, left rows first. Node sizes are weighted: only
    leaves whose weights sum to at least min_samples_split and that hold
    more than one label are split, children the same.

    Growth is breadth-first over one queue: first the listed leaves that can
    split, in the listed order, then the children that can split of each
    node in queue order, left child first. A round is one batched
    `_search` over a prefix of the queue holding at most _PAIRS_PER_PASS
    distinct rows (at least one node), whose weights must sum to less than
    2**31 as in `best_split`; the features are ranked once per call. Each
    searched node, in queue order, takes p doubles from `rng` and searches
    the features of the m smallest; nothing is drawn when m = p. A double
    is one 64-bit word of the generator, so neither the cut into rounds
    nor node ids change the trees.
    """
    X, y, k, p = data.features, data.labels, data.n_classes, data.n_features
    m = criteria.resolve_max_features(p)
    min_split = criteria.min_samples_split
    bounds = np.asarray(bounds, dtype=np.intp)
    # The weight of each listed leaf, and whether it holds more than one
    # label; reduceat gives an empty range the element after it, so empty
    # leaves are left out of it.
    full = np.diff(bounds) > 0
    at = bounds[:-1][full]
    weighted = np.zeros(full.size, dtype=np.int64)
    weighted[full] = np.add.reduceat(weights[: bounds[-1]], at, dtype=np.int64)
    labels = y[rows[: bounds[-1]]]
    mixed = np.zeros(full.size, dtype=bool)
    mixed[full] = np.minimum.reduceat(labels, at) < np.maximum.reduceat(labels, at)
    del labels
    # One queue entry per node: its id, its range of the buffers, its weight.
    queue = np.stack((np.asarray(nodes, dtype=np.intp), bounds[:-1], bounds[1:], weighted),
                     axis=1)[mixed & (weighted >= min_split)]
    rank = _ranks(X)
    while queue.size:
        take = max(1, int(np.searchsorted(np.cumsum(queue[:, 2] - queue[:, 1]),
                                          _PAIRS_PER_PASS, side="right")))
        (node, start, stop, weighted), queue = queue[:take].T, queue[take:]
        if weighted.sum() >= _MAX_WEIGHT:
            raise ValueError(f"weights must sum to less than {_MAX_WEIGHT}")
        size = stop - start
        if m == p:
            cand = np.broadcast_to(np.arange(p), (take, p))
        else:
            cand = np.sort(np.argsort(rng.random((take, p)), axis=1, kind="stable")[:, :m],
                           axis=1)
        offset, at = _ranges(start, size)
        node_rows, node_weights = rows[at], weights[at]
        found, order = _search(data, rank, node_rows, node_weights, cand, offset)
        # Every split found has a positive decrease, so only a positive
        # bound can reject one.
        if criteria.min_impurity_decrease > 0:
            keep = np.array(_decreases(*found[5:])) >= criteria.min_impurity_decrease
            found = [x[keep] for x in found]
        splits, feature, threshold, win, n_left, n_l, n_r = found[:7]
        if not splits.size:
            continue
        # A split node's range takes its rows in the search's value order,
        # left rows first; an unsplit node's range is left as is.
        size = size[splits]
        src, dst = order[_ranges(win, size)[1]], _ranges(start[splits], size)[1]
        rows[dst] = split_rows = node_rows[src]
        weights[dst] = split_weights = node_weights[src]
        # The children's class counts, in the table's dtype; float sums of
        # integers below the round's weight bound are exact.
        child = np.repeat(np.arange(2 * splits.size),
                          np.stack((n_left, size - n_left), axis=1).reshape(-1))
        counts = np.bincount(child * k + y[split_rows], weights=split_weights,
                             minlength=splits.size * 2 * k).astype(
                                 table.counts.dtype).reshape(-1, 2, k)
        del at, node_rows, node_weights, order, src, dst, split_rows, split_weights, child
        left, right = table.split(node[splits], feature, threshold, counts[:, 0], counts[:, 1])
        mid = start[splits] + n_left
        children = np.stack((
            np.stack((left, start[splits], mid, n_l), axis=1),
            np.stack((right, mid, stop[splits], n_r), axis=1)), axis=1)
        grows = ((counts > 0).sum(axis=2) > 1) & (children[..., 3] >= min_split)
        queue = np.concatenate((queue, children[grows]))


def _descend(table: NodeTable, start, rows, X: np.ndarray, path=None) -> np.ndarray:
    """Route (start node, row) pairs to their leaves, all pairs one level
    per step; returns the leaf id of each pair.

    Pair i starts at node ``start[i]`` with the features ``X[rows[i]]``,
    which must be finite; a value <= the threshold goes left, a larger one
    to the right child ``left + 1``. When `path` is a list, each step
    appends (pairs moved, whether each went right, nodes reached).
    """
    node = np.array(start, dtype=np.intp)
    feature, threshold, left = table.feature, table.threshold, table.left
    live = np.flatnonzero(left[node] >= 0)
    while live.size:
        cur = node[live]
        goes_right = X[rows[live], feature[cur]] > threshold[cur]
        reached = left[cur] + goes_right
        node[live] = reached
        if path is not None:
            path.append((live, goes_right, reached))
        live = live[left[reached] >= 0]
    return node


@dataclass
class _Touched:
    """The leaves a routed batch reached, tree by tree and in depth-first,
    left-first order within a tree. The distinct (tree, row) pairs that
    reached ``leaves[u]`` are ``rows[bounds[u]:bounds[u + 1]]`` of the
    batch, in increasing order, each routed ``weights[i]`` times."""

    leaves: np.ndarray
    bounds: np.ndarray
    rows: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.leaves.size


def _route_and_count(table: NodeTable, roots, rows, weights, bounds, X: np.ndarray,
                     y: np.ndarray) -> _Touched:
    """Route (tree, row) pairs to their leaves and add each pair's label,
    counted by its weight, to the counts of every node on its path.

    Tree t, rooted at ``roots[t]``, takes the rows
    ``rows[bounds[t]:bounds[t + 1]]`` of (X, y), distinct and in increasing
    order, row ``rows[i]`` counted ``weights[i]`` times: a bootstrap
    resample as `_samples` draws it, so each distinct pair is routed
    once. Pairs are routed and counted in blocks of at most
    _PAIRS_PER_PASS, so only one block's paths are held at a time.
    """
    tree = np.repeat(np.arange(len(roots)), np.diff(bounds))
    roots = np.asarray(roots, dtype=np.intp)
    counts = table.counts.reshape(-1)
    leaf = np.empty(tree.size, dtype=np.intp)
    # Depth-first, left-first order of the touched leaves: one stable sort
    # of the distinct pairs on (tree, branches taken), packed most
    # significant bit first into int64 words of 63 bits: the tree index,
    # then one bit per depth, 1 for right. No touched leaf lies on another's
    # path, so padding short paths with "left", and a block's words with
    # zero words, is safe; stability keeps each leaf's rows in increasing
    # order.
    tree_bits = (len(roots) - 1).bit_length()
    words = np.zeros((1, tree.size), dtype=np.int64)
    words[0] = tree << (63 - tree_bits)
    for lo in range(0, tree.size, _PAIRS_PER_PASS):
        block = slice(lo, lo + _PAIRS_PER_PASS)
        start, block_rows = roots[tree[block]], rows[block]
        path = []
        leaf[block] = _descend(table, start, block_rows, X, path)
        nodes = np.concatenate([start] + [reached for _, _, reached in path])
        path_labels, path_weight = (np.concatenate([a] + [a[live] for live, _, _ in path])
                                    for a in (y[block_rows], weights[block]))
        # In the counts' own dtype: np.add.at leaves its fast path when it
        # must cast, which once made it 20 times slower.
        np.add.at(counts, nodes * table.n_classes + path_labels,
                  path_weight.astype(counts.dtype, copy=False))
        del nodes, path_labels, path_weight
        extra = (tree_bits + len(path)) // 63 + 1 - words.shape[0]
        if extra > 0:
            words = np.concatenate((words, np.zeros((extra, tree.size), dtype=np.int64)))
        for bit, (live, goes_right, _) in enumerate(path, start=tree_bits):
            word = words[bit // 63, block]
            word[live[goes_right]] |= 1 << (62 - bit % 63)
    order = np.lexsort(words[::-1])
    pair_leaf = leaf[order]
    first = np.flatnonzero(_changes(pair_leaf))
    return _Touched(pair_leaf[first], np.append(first, order.size), rows[order],
                    weights[order])


def _leaf_labels(table: NodeTable, leaves: np.ndarray) -> np.ndarray:
    """Majority class of each leaf id, ties to the lowest class."""
    if leaves.size > table.size:
        return table.counts[: table.size].argmax(axis=1)[leaves]
    return table.counts[leaves].argmax(axis=-1)


def _samples(rng: np.random.Generator, count: int, n: int,
             bootstrap: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of n that `count` trees, new or updated, grow on: (rows,
    weights, bounds), tree t on ``rows[bounds[t]:bounds[t + 1]]``, row
    ``rows[i]`` counted ``weights[i]`` times.

    A bootstrap draws all trees' n rows in one call and keeps each tree's
    distinct rows, in increasing order, with the number of times each was
    drawn; without one, every tree takes every row once. The weights are
    32-bit, and so are a bootstrap's rows where n allows, as they stay
    allocated while the trees grow; rows taken once each are intp, the
    index type of the routing and growth steps they feed.
    """
    bounds = np.arange(count + 1) * n
    if not bootstrap:
        return np.tile(np.arange(n), count), np.ones(count * n, np.int32), bounds
    index = np.int32 if n <= np.iinfo(np.int32).max else np.intp
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
    k = data.n_classes
    counts = np.bincount(np.repeat(np.arange(count) * k, np.diff(bounds)) + data.labels[rows],
                         weights=weights, minlength=count * k)
    roots = table.add_leaves(counts.astype(table.counts.dtype).reshape(count, k))
    _grow(table, data, rows, weights, bounds, roots, criteria, rng)
    return roots


def _check_finite(X: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite value of the rows of X."""
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X.reshape(-1, X.shape[-1])))[0]
        raise ValueError(f"non-finite feature value at row {row}, column {col}")


def _check_dataset(name: str, value) -> None:
    """Raise TypeError unless `value` is a Dataset."""
    if not isinstance(value, Dataset):
        raise TypeError(f"{name} must be a Dataset, not {type(value).__name__}")


def _check_criteria(criteria, default: SplitCriteria) -> SplitCriteria:
    """`criteria`, or `default` when it is None; raises TypeError unless it
    is a SplitCriteria."""
    if criteria is not None and not isinstance(criteria, SplitCriteria):
        raise TypeError(f"criteria must be a SplitCriteria or None, not {criteria!r}")
    return default if criteria is None else criteria


def _check_input(model, X, ndim: int) -> np.ndarray:
    """X as a float64 vector (ndim 1) or matrix (ndim 2) of the fitted
    `model`'s features; raises ValueError on an unfitted model, a shape
    that does not match or a non-finite value, which no threshold orders."""
    if model.n_features is None:
        raise ValueError(f"this {type(model).__name__} is not fitted; call fit first")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim or X.shape[-1] != model.n_features:
        shape = "a vector of {} features" if ndim == 1 else "a matrix with {} columns"
        raise ValueError("expected " + shape.format(model.n_features))
    _check_finite(X)
    return X


def _majority_vote(per_tree: np.ndarray, n_classes: int) -> np.ndarray:
    """Plurality class per row over an (n_trees, n_rows) array of tree
    predictions, ties to the lowest class."""
    n_rows = per_tree.shape[1]
    cells = per_tree + np.arange(n_rows) * n_classes
    votes = np.bincount(cells.ravel(), minlength=n_rows * n_classes)
    return votes.reshape(n_rows, n_classes).argmax(axis=1)


class _Model:
    """A fitted model is the trees rooted at ``_roots`` of the node table
    ``_table``, over ``n_features`` features and ``n_classes`` classes; it
    predicts the majority vote of its trees, ties to the lowest class. A
    tree is the one-root case. Unfitted, as the class attributes set it,
    the table and the feature count are None and there are no roots.

    Every model fits through `_fit`, and a stream model updates through
    `_extend`, which draws from its generator ``rng``; both grow under the
    model's ``criteria``.

    Each model binds ``predict`` (and ``predict_one``, where it is this one)
    in its own class body as well, because the traced benchmark run
    (perfbench/tracing.py) wraps only methods found in a class's own
    namespace.
    """

    _table: NodeTable | None = None
    _roots: np.ndarray = np.empty(0, dtype=np.intp)
    n_classes: int | None = None
    n_features: int | None = None

    def _fit(self, data: Dataset, count: int, bootstrap: bool, rng: np.random.Generator) -> None:
        """Make the model `count` new trees grown on `data` in a new table,
        each on a sample as `_planted` draws it from `rng`, the table cut to
        its nodes; the model is unchanged on error."""
        _check_dataset("data", data)
        if data.n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        table = NodeTable(data.n_classes)
        roots = _planted(table, data, count, self.criteria, bootstrap, rng)
        table.trim()
        self._table, self._roots = table, roots
        self.n_classes, self.n_features = data.n_classes, data.n_features

    def _extend(self, data: Dataset, bootstrap: bool) -> None:
        """Grow every tree on a sample of `data`, a batch checked against the
        model's shape, as `_samples` draws it: `_route_and_count` routes and
        counts all (tree, row) pairs, then one `_grow` call grows the touched
        leaves, tree by tree, each tree's depth-first, left first, drawing
        from ``self.rng``.

        A sample adds the batch's row count to each root's total, which
        bounds every node of its tree, so the update raises ValueError,
        before it draws, if a root's total would reach ``_MAX_COUNT``."""
        table = self._table
        most = int(table.counts[self._roots].sum(axis=1, dtype=np.int64).max())
        if most + data.n_samples >= _MAX_COUNT:
            raise ValueError(f"a tree holding {most} samples cannot take {data.n_samples} more: "
                             f"a node's total must stay below {_MAX_COUNT} (2**31)")
        rows, weights, bounds = _samples(self.rng, self._roots.size, data.n_samples, bootstrap)
        touched = _route_and_count(table, self._roots, rows, weights, bounds,
                                   data.features, data.labels)
        _grow(table, data, touched.rows, touched.weights, touched.bounds, touched.leaves,
              self.criteria, self.rng)

    def _votes(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_rows) class predicted by each tree for each row of X.

        Rows are routed in blocks of at most _PAIRS_PER_PASS (tree, row) pairs,
        which bounds the routing arrays to a few MB however many rows come; the
        leaves reached are labelled in one step at the end.
        """
        table, roots = self._table, self._roots
        n, n_trees = X.shape[0], roots.size
        leaves = np.empty((n_trees, n), dtype=np.intp)
        step = max(1, _PAIRS_PER_PASS // n_trees)
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            rows = np.arange(lo, hi)
            leaves[:, lo:hi] = _descend(table, np.repeat(roots, rows.size),
                                        np.tile(rows, n_trees), X).reshape(n_trees, rows.size)
        return _leaf_labels(table, leaves)

    def predict_one(self, x) -> int:
        x = _check_input(self, x, 1)
        return int(_majority_vote(self._votes(x[None, :]), self.n_classes)[0])

    def predict(self, X) -> np.ndarray:
        """Majority-class predictions for the rows of X."""
        X = _check_input(self, X, 2)
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        votes = self._votes(X)
        return votes[0] if votes.shape[0] == 1 else _majority_vote(votes, self.n_classes)

    def node_count(self) -> int:
        return self._table.count_nodes(self._roots) if self._table is not None else 0


class DecisionTree(_Model):
    """CART classifier: recursive Gini splits down to pure or tiny leaves.

    Fitting is deterministic given (data order, criteria, seed): it draws
    from ``rng = default_rng(seed)``. Prediction routes a point to its leaf
    (feature value <= threshold goes left) and returns the majority class
    there, ties to the lowest class index. The tree is the one root of its
    node table, a table of its own; a forest's trees are views into the
    forest's table (`_at`).
    """

    def __init__(self, criteria: SplitCriteria | None = None, seed: int = 0):
        self.seed = _check_integer("seed", seed, 0)
        self.criteria = _check_criteria(criteria, SplitCriteria())
        self.rng: np.random.Generator | None = None

    predict = _Model.predict

    @property
    def root(self) -> TreeNode | None:
        return None if self._table is None else self._table.view(self._roots[0])

    @classmethod
    def _at(cls, table: NodeTable, root_id: int, n_features: int,
            criteria: SplitCriteria) -> "DecisionTree":
        """A read view of the fitted tree rooted at node `root_id` of a
        forest's `table`. It has no seed or generator, so it refuses `fit`:
        the forest grows its trees."""
        tree = cls.__new__(cls)
        tree.criteria, tree.seed, tree.rng = criteria, None, None
        tree._table, tree._roots = table, np.array([root_id], dtype=np.intp)
        tree.n_classes, tree.n_features = table.n_classes, n_features
        return tree

    def _check_own(self, call: str) -> None:
        """Raise TypeError if this tree is a view of a forest's tree, which
        has no seed: only the forest may `call` it."""
        if self.seed is None:
            raise TypeError(f"this {type(self).__name__} is a view of a forest's tree; "
                            f"{call} the forest")

    def fit(self, data: Dataset) -> "DecisionTree":
        """Fit on the full dataset, class counts sized data.n_classes; the
        tree is unchanged on error."""
        self._check_own("fit")
        rng = np.random.default_rng(self.seed)
        self._fit(data, 1, False, rng)
        self.rng = rng
        return self

    def _leaf_id(self, x) -> int:
        # Callers read self._table only after this call: it first rejects an
        # unfitted tree, whose table is None.
        x = _check_input(self, x, 1)
        t = self._table
        i = self._roots[0]
        while t.left[i] >= 0:
            i = t.left[i] + (x[t.feature[i]] > t.threshold[i])
        return int(i)

    def apply(self, x) -> TreeNode:
        """Return the unique leaf whose region contains x."""
        leaf = self._leaf_id(x)
        return self._table.view(leaf)

    def predict_one(self, x) -> int:
        leaf = self._leaf_id(x)
        return int(np.argmax(self._table.counts[leaf]))
