"""Batch CART decision tree: Gini impurity, exhaustive midpoint threshold
search, per-split feature subsampling, and one grower that grows many trees
at once in rounds of batched split searches."""

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
        return int(self.add_leaves(np.asarray(class_counts)[None, :])[0])

    def add_leaves(self, class_counts) -> np.ndarray:
        """Append one leaf per row of the (n, k) `class_counts`; returns their ids."""
        n = len(class_counts)
        self._reserve(n)
        new = slice(self.size, self.size + n)
        self.size += n
        self.feature[new] = self.left[new] = self.right[new] = -1
        self.threshold[new] = 0.0
        self.counts[new] = class_counts
        self.pre_split_total[new] = 0
        return np.arange(new.start, new.stop)

    def split(self, ids, features, thresholds, left_counts, right_counts,
              n_routed) -> tuple[np.ndarray, np.ndarray]:
        """Turn the leaves `ids` into internal nodes, leaf ``ids[i]`` over two
        new leaves holding the class counts of the ``n_routed[i]`` samples
        routed to them; returns the ids of the left and of the right leaves."""
        ids = np.asarray(ids, dtype=np.intp)
        counts = np.empty((2 * ids.size, self.n_classes), dtype=np.int64)
        counts[0::2], counts[1::2] = left_counts, right_counts
        children = self.add_leaves(counts)
        left, right = children[0::2], children[1::2]
        self.feature[ids] = features
        self.threshold[ids] = thresholds
        self.left[ids] = left
        self.right[ids] = right
        self.pre_split_total[ids] = self.counts[ids].sum(axis=1) - n_routed
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
    found = _search(data, idx, weights, np.sort(cand, axis=1), bounds)
    return found if starts is not None else found[0]


def _search(data: Dataset, rows: np.ndarray, weights: np.ndarray, cand: np.ndarray,
            bounds: np.ndarray) -> list:
    """`best_split` over nodes laid out back to back in `rows`, node u in
    ``rows[bounds[u]:bounds[u + 1]]`` with the features ``cand[u]``
    (sorted), row ``rows[i]`` counted ``weights[i]`` times; one result per
    node.

    A full round's arrays sit on top of an almost full node table late in
    a fit, where the fit's memory peaks, so each is deleted once used."""
    X, y, k = data.features, data.labels, data.n_classes
    n_nodes, m = cand.shape
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]

    # Segment s = u * m + j holds node u's rows under its j-th feature. Rows
    # are ordered by segment, then value: the value order is ranked once
    # over all segments (ties in any order, as only the multiset of each
    # block of equal values matters), and a sort of the integer keys
    # segment * e + rank groups it by segment.
    seg_size = np.repeat(sizes, m)
    seg_start = np.zeros(seg_size.size + 1, dtype=np.intp)
    np.cumsum(seg_size, out=seg_start[1:])
    e = int(seg_start[-1])
    seg = np.repeat(np.arange(seg_size.size), seg_size)
    at = np.repeat(np.repeat(starts, m) - seg_start[:-1], seg_size) + np.arange(e)
    vals = X[rows[at], cand.reshape(-1)[seg]]
    rank = np.empty(e, dtype=np.int64)
    rank[np.argsort(vals)] = np.arange(e)
    order = np.argsort(seg * e + rank)
    del rank
    v = vals[order]
    at = at[order]
    lab = y[rows[at]]
    w = weights[at]
    del at, vals, order

    # Maximizing the weighted gini decrease is equivalent to maximizing
    # q = S_l/n_l + S_r/n_r, with S the sum of squared child class counts.
    # Walking a segment in value order moves one row of class c and weight
    # w at a time to the left: S_l grows by (2 * left_c + w) * w and S_r
    # shrinks by (2 * right_c - w) * w, with left_c and right_c counted
    # before the move. left_c is the weight of the segment's rows of class
    # c before the row, found by sorting on (segment, class, position); the
    # totals of those groups in each node's first segment are its class
    # counts.
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
    parent = (totals[1:] - totals[:-1]).reshape(-1, k)[::m]
    after = parent[seg // m, lab] - before
    del lab
    # The steps of S_l and S_r, computed in place to keep few arrays alive.
    grow_l = np.zeros(e + 1, dtype=np.int64)
    np.cumsum(np.multiply(np.add(2 * before, w, out=before), w, out=before), out=grow_l[1:])
    shrink_r = np.zeros(e + 1, dtype=np.int64)
    np.cumsum(np.multiply(np.subtract(2 * after, w, out=after), w, out=after), out=shrink_r[1:])
    del before, after
    np.cumsum(w, out=passed[1:])  # now the weight before each position in value order

    # Value boundaries: position p starts a new value inside its segment,
    # and the left block is the segment's rows before p.
    p = np.flatnonzero((seg[1:] == seg[:-1]) & (v[1:] != v[:-1])) + 1
    results = [None] * n_nodes
    if p.size == 0:
        return results
    s = seg[p]
    first = seg_start[s]
    u = s // m
    s_parent = (parent * parent).sum(axis=1)
    n_l = passed[p] - passed[first]
    n_r = parent.sum(axis=1)[u] - n_l
    s_l = grow_l[p] - grow_l[first]
    s_r = s_parent[u] - (shrink_r[p] - shrink_r[first])

    # Candidates come in (node, feature, threshold) order, the tie rule's.
    best = _best_candidates(u, n_l, n_r, s_l, s_r, s_parent)
    i = np.fromiter(best.values(), dtype=np.intp, count=len(best))
    for u_, f, lo, hi, a, b, c, d, sp in zip(
            best, cand.reshape(-1)[s[i]].tolist(), v[p[i] - 1].tolist(), v[p[i]].tolist(),
            *(x[i].tolist() for x in (n_l, n_r, s_l, s_r, s_parent[u]))):
        threshold = (lo + hi) / 2.0
        # The midpoint can round up to hi or overflow to +-inf, which would
        # send both blocks to one side; lo still separates them.
        if not lo <= threshold < hi:
            threshold = lo
        num, den, n = c * b + d * a, a * b, a + b
        results[u_] = (f, threshold, (num * n - sp * den) / (den * n * n))
    return results


def _changes(a: np.ndarray) -> np.ndarray:
    """Mask of the positions of `a` that hold another value than the one
    before them, position 0 included."""
    change = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=change[1:])
    return change


# Width of the float prefilter of `_best_candidates`, relative to a node's
# best float q. The float error of q is a few ulps at any node size; the
# band covers thousands of them and still admits only near-ties.
_NEAR_TIE = 1e-12


def _best_candidates(node, n_l, n_r, s_l, s_r, s_parent) -> dict:
    """The best split candidate of each node, chosen exactly.

    Candidate i of node ``node[i]`` (candidates grouped by node, in tie-rule
    order within one) sends n_l[i] rows whose squared class counts sum to
    s_l[i] left, and n_r[i] rows with s_r[i] right; all are integer arrays,
    and ``s_parent[u]`` is that sum over node u. The best candidate has the
    largest q = s_l/n_l + s_r/n_r. Floats rank them, and those within
    _NEAR_TIE of their node's best are compared by exact integer
    cross-multiplication, so ties resolve by the tie rule, not by rounding.

    Returns {node: index of its first candidate with the largest q}, for the
    nodes whose largest q beats the parent's s_parent / (n_l + n_r).
    """
    q = s_l / n_l + s_r / n_r
    first = _changes(node)
    q_max = np.maximum.reduceat(q, np.flatnonzero(first))[np.cumsum(first) - 1]
    near = np.flatnonzero(q >= q_max * (1.0 - _NEAR_TIE))
    best = {}  # node: (index, q numerator, q denominator)
    for i, u, a, b, c, d, sp in zip(near.tolist(), *(
            x[near].tolist() for x in (node, n_l, n_r, s_l, s_r, s_parent[node]))):
        num, den = c * b + d * a, a * b
        if num * (a + b) <= sp * den:  # decrease not positive
            continue
        old = best.get(u)
        if old is None or num * old[2] > old[1] * den:
            best[u] = (i, num, den)
    return {u: i for u, (i, _, _) in best.items()}


# Largest number of (tree, row) pairs one routing pass holds, and the row
# budget of one growth round: bounds the temporary arrays to a few MB.
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
    `best_split` over a prefix of the queue holding at most _PAIRS_PER_PASS
    distinct rows (at least one node). Each searched node, in queue order,
    takes p doubles from `rng` and searches the features of the m smallest;
    nothing is drawn when m = p. A double is one 64-bit word of the
    generator, so neither the cut into rounds nor node ids change the trees.
    """
    X, y, k, p = data.features, data.labels, data.n_classes, data.n_features
    m = criteria.resolve_max_features(p)
    min_split = criteria.min_samples_split
    bounds = np.asarray(bounds, dtype=np.intp)
    sizes = np.diff(bounds)
    # Weighted class counts of the listed leaves, and below of the children
    # of each round's splits; the float sums of integers far below 2**53
    # are exact.
    counts = np.bincount(np.repeat(np.arange(sizes.size) * k, sizes) + y[rows],
                         weights=weights, minlength=sizes.size * k).reshape(-1, k)
    weighted = counts.sum(axis=1).astype(np.int64)
    can = (weighted >= min_split) & ((counts > 0).sum(axis=1) > 1)
    # One queue entry per node: its id, its range of the buffers, its weight.
    queue = np.stack((np.asarray(nodes, dtype=np.intp), bounds[:-1], bounds[1:], weighted),
                     axis=1)[can]
    while queue.size:
        take = max(1, int(np.searchsorted(np.cumsum(queue[:, 2] - queue[:, 1]),
                                          _PAIRS_PER_PASS, side="right")))
        (node, start, stop, weighted), queue = queue[:take].T, queue[take:]
        size = stop - start
        offset = np.zeros(take + 1, dtype=np.intp)
        np.cumsum(size, out=offset[1:])
        if m == p:
            cand = np.broadcast_to(np.arange(p), (take, p))
        else:
            cand = np.argsort(rng.random((take, p)), axis=1, kind="stable")[:, :m]
        at = np.repeat(start - offset[:-1], size) + np.arange(offset[-1])
        node_rows, node_weights = rows[at], weights[at]
        found = best_split(data, node_rows, cand, offset[:-1], weights=node_weights)

        feature = np.zeros(take, dtype=np.intp)
        threshold = np.full(take, np.inf)  # sends every row of an unsplit node left
        splits = [u for u, f in enumerate(found)
                  if f is not None and f[2] >= criteria.min_impurity_decrease]
        if not splits:
            continue
        for u in splits:
            feature[u], threshold[u] = found[u][0], found[u][1]
        owner = np.repeat(np.arange(take), size)
        side = owner * 2 + (X[node_rows, feature[owner]] > threshold[owner])
        order = np.argsort(side)  # row order inside a node is free
        rows[at], weights[at] = node_rows[order], node_weights[order]
        counts = np.bincount(side * k + y[node_rows], weights=node_weights,
                             minlength=take * 2 * k).astype(np.int64).reshape(-1, 2, k)[splits]
        left, right = table.split(node[splits], feature[splits], threshold[splits],
                                  counts[:, 0], counts[:, 1], weighted[splits])
        mid = start[splits] + np.bincount(side, minlength=take * 2)[0::2][splits]  # left rows
        child_weight = counts.sum(axis=2)
        children = np.stack((
            np.stack((left, start[splits], mid, child_weight[:, 0]), axis=1),
            np.stack((right, mid, stop[splits], child_weight[:, 1]), axis=1)), axis=1)
        grows = ((counts > 0).sum(axis=2) > 1) & (child_weight >= min_split)
        queue = np.concatenate((queue, children[grows]))


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
    left-first order within a tree. The distinct (tree, row) pairs that
    reached ``leaves[u]`` are ``rows[bounds[u]:bounds[u + 1]]`` of the
    batch, in increasing order, each routed ``weights[i]`` times."""

    leaves: np.ndarray
    tree: np.ndarray
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
    resample as `forest._samples` draws it, so each distinct pair is routed
    once.
    """
    tree = np.repeat(np.arange(len(roots)), np.diff(bounds))
    start = np.asarray(roots, dtype=np.intp)[tree]
    path = []
    leaf = _descend(table, start, rows, X, path)
    labels = y[rows]
    nodes = np.concatenate([start] + [reached for _, _, reached in path])
    path_labels, path_weight = (np.concatenate([a] + [a[live] for live, _, _ in path])
                                for a in (labels, weights))
    # In the counts' own dtype: np.add.at leaves its fast path when it must
    # cast, which made it 20 times slower on the 32-bit weights of `_samples`.
    np.add.at(table.counts.reshape(-1), nodes * table.n_classes + path_labels,
              path_weight.astype(table.counts.dtype, copy=False))

    # Depth-first, left-first order of the touched leaves: one stable sort
    # of the distinct pairs on (tree, branches taken), packed most
    # significant bit first into int64 words of 63 bits: the tree index,
    # then one bit per depth, 1 for right. No touched leaf lies on another's
    # path, so padding short paths with "left" is safe; stability keeps each
    # leaf's rows in increasing order.
    tree_bits = (len(roots) - 1).bit_length()
    words = np.zeros(((tree_bits + len(path)) // 63 + 1, tree.size), dtype=np.int64)
    words[0] = tree << (63 - tree_bits)
    for bit, (live, goes_left, _) in enumerate(path, start=tree_bits):
        word = words[bit // 63]
        word[live[~goes_left]] |= 1 << (62 - bit % 63)
    order = np.lexsort(words[::-1])
    pair_leaf = leaf[order]
    first = np.flatnonzero(_changes(pair_leaf))
    return _Touched(pair_leaf[first], tree[order[first]],
                    np.append(first, order.size), rows[order], weights[order])


def _leaf_labels(table: NodeTable, leaves: np.ndarray) -> np.ndarray:
    """Majority class of each leaf id, ties to the lowest class."""
    if leaves.size > table.size:
        return table.counts[: table.size].argmax(axis=1)[leaves]
    return table.counts[leaves].argmax(axis=1)


def _plant(table: NodeTable, data: Dataset, rows: np.ndarray, weights: np.ndarray, bounds,
           criteria: SplitCriteria, rng: np.random.Generator) -> np.ndarray:
    """New trees in `table`, tree t grown on ``rows[bounds[t]:bounds[t + 1]]``
    of `data`, row ``rows[i]`` counted ``weights[i]`` times, all by one
    `_grow` call drawing from `rng`, which reorders `rows` and `weights`;
    returns their root ids."""
    bounds = np.asarray(bounds, dtype=np.intp)
    n_trees, k = bounds.size - 1, data.n_classes
    counts = np.bincount(np.repeat(np.arange(n_trees) * k, np.diff(bounds)) + data.labels[rows],
                         weights=weights, minlength=n_trees * k)
    roots = table.add_leaves(counts.astype(np.int64).reshape(n_trees, k))
    _grow(table, data, rows, weights, bounds, roots, criteria, rng)
    return roots


def _check_input(model, X, ndim: int) -> np.ndarray:
    """X as a float64 vector (ndim 1) or matrix (ndim 2) of the fitted
    `model`'s features; raises ValueError on an unfitted model or a shape
    that does not match."""
    if model.n_features is None:
        raise ValueError(f"this {type(model).__name__} is not fitted; call fit first")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim or X.shape[-1] != model.n_features:
        shape = "a vector of {} features" if ndim == 1 else "a matrix with {} columns"
        raise ValueError("expected " + shape.format(model.n_features))
    return X


class DecisionTree:
    """CART classifier: recursive Gini splits down to pure or tiny leaves.

    Fitting is deterministic given (data order, criteria, seed): it draws
    from ``rng = default_rng(seed)``. Prediction routes a point to its leaf
    (feature value <= threshold goes left) and returns the majority class
    there, ties to the lowest class index. The tree is the node ``root_id``
    of ``table``, a table of its own unless a forest holds it.
    """

    def __init__(self, criteria: SplitCriteria | None = None, seed=0):
        self.criteria = criteria if criteria is not None else SplitCriteria()
        self.seed = seed
        self.rng: np.random.Generator | None = None
        self.table: NodeTable | None = None
        self.root_id = -1
        self.n_classes: int | None = None
        self.n_features: int | None = None

    @property
    def root(self) -> TreeNode | None:
        return None if self.table is None else self.table.view(self.root_id)

    @classmethod
    def _at(cls, table: NodeTable, root_id: int, n_features: int,
            criteria: SplitCriteria, rng) -> "DecisionTree":
        """The fitted tree rooted at node `root_id` of `table`, whose seed and
        generator are `rng`: the generator of the forest that grew it, or
        None for a tree that never grows again."""
        tree = cls.__new__(cls)
        DecisionTree.__init__(tree, criteria, rng)
        tree.rng, tree.table, tree.root_id = rng, table, int(root_id)
        tree.n_classes, tree.n_features = table.n_classes, n_features
        return tree

    def fit(self, data: Dataset) -> "DecisionTree":
        """Fit on the full dataset; class-count vectors sized data.n_classes."""
        if data.n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        table = NodeTable(data.n_classes)
        n = data.n_samples
        self.rng = np.random.default_rng(self.seed)
        (root,) = _plant(table, data, np.arange(n), np.ones(n, dtype=np.int32), [0, n],
                         self.criteria, self.rng)
        self.table, self.root_id = table, int(root)
        self.n_classes, self.n_features = data.n_classes, data.n_features
        return self

    def _leaf_id(self, x) -> int:
        # Callers read self.table only after this call: it first rejects an
        # unfitted tree, whose table is None.
        x = _check_input(self, x, 1)
        t = self.table
        i = self.root_id
        while t.left[i] >= 0:
            i = t.left[i] if x[t.feature[i]] <= t.threshold[i] else t.right[i]
        return int(i)

    def apply(self, x) -> TreeNode:
        """Return the unique leaf whose region contains x."""
        leaf = self._leaf_id(x)
        return self.table.view(leaf)

    def predict_one(self, x) -> int:
        leaf = self._leaf_id(x)
        return int(np.argmax(self.table.counts[leaf]))

    def predict(self, X) -> np.ndarray:
        """Majority-class predictions for the rows of X."""
        X = _check_input(self, X, 2)
        rows = np.arange(X.shape[0])
        leaves = _descend(self.table, np.full(rows.size, self.root_id), rows, X)
        return _leaf_labels(self.table, leaves)

    def node_count(self) -> int:
        return self.table.count_nodes(self.root_id) if self.table is not None else 0
