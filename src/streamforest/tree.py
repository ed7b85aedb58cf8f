"""Trees and what every model is built from: the `Dataset` and
`SplitCriteria` inputs; the `NodeTable` that holds the nodes of one or more
trees as arrays, read through `TreeNode` views; the exact Gini split search
over midpoint thresholds, `_search` over many nodes and `best_split` over
one; the grower `_grow`, which grows many trees at once in rounds of batched
searches under per-split feature subsampling; the prediction descent
`_descend`; the router `_route_and_count`, which routes a batch, adds it to
the counts and orders the leaves it reached; the sampler `_samples`; the
model base `_Model`, which fits, extends and votes; and the batch CART tree
`DecisionTree`."""

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


def _check_index(name: str, value, stop: int) -> np.ndarray:
    """`value` as an intp array of indices in [0, `stop`), uncopied if it is
    one; raises as `_check_integer` does, on a bool in a list too (numpy
    reads it as 0 or 1 beside integers), and ValueError from `stop` on."""
    if not isinstance(value, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat):
        raise TypeError(f"{name} must be integers, not bools")
    value = _check_integer(name, np.asarray(value), 0)
    if value.size and value.max() >= stop:
        raise ValueError(f"{name} must be below {stop}, not {value.max()}")
    return value.astype(np.intp, copy=False)


def _check_real(name: str, value) -> float:
    """`value` as a plain float; raises TypeError unless it is a real number
    (bools are not), and ValueError unless it is finite and at least 0."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, not {value!r}")
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and at least 0.0, not {value!r}")
    return float(value)


def _check_bool(name: str, value) -> bool:
    """`value` as a plain bool; raises TypeError unless it is True or False."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be True or False, not {value!r}")
    return bool(value)


@dataclass(eq=False)
class Dataset:
    """Dense numeric classification data with a declared class count.

    Parameters
    ----------
    features : (n_samples, n_features) real array, stored as C-contiguous float64.
    labels : (n_samples,) array of class indices in [0, n_classes).
    n_classes : fixed at construction; may exceed the classes present.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.features = _as_features(self.features)
        self.n_classes = _check_integer("n_classes", self.n_classes, 2)
        self.labels = _check_index("labels", self.labels, self.n_classes)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError(
                f"features have {self.features.shape[0]} rows but "
                f"labels have shape {self.labels.shape}"
            )
        if self.features.shape[1] < 1:
            raise ValueError("need at least one feature")
        _check_finite(self.features)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = _check_index("indices", indices, self.n_samples)
        return Dataset(self.features[idx], self.labels[idx], self.n_classes)


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
        object.__setattr__(self, "min_impurity_decrease",
                           _check_real("min_impurity_decrease", self.min_impurity_decrease))
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
    threshold goes to its left child ``left[i]`` > i, a larger one to its
    right child, which is always ``left[i] + 1``. A leaf is a self-loop,
    with left = its id, feature 0 and threshold +inf, which no finite value
    exceeds. ``counts[i]`` accumulates the labels of every training sample
    ever routed through or into node i; the samples that arrived before
    node i split are those its children do not hold (see
    `TreeNode.pre_split_total`). A tree is the id of its root; a forest
    keeps all of its trees in one table.

    Counts are int32, so a node takes 24 + 4k bytes for k classes and its
    total must stay below ``_MAX_COUNT``: `_Model._extend` and snapshot
    loading check that, as int32 `np.add.at` would wrap silently.

    A table starts empty and is written only through `add_leaves`, `split`,
    `append` and `trim`. Only ids below ``size`` are nodes. Capacity grows
    by doubling, and `trim` cuts it to ``size``; both replace the column
    arrays: hold on to the table, not to a column.
    """

    COLUMNS = ("feature", "threshold", "left", "counts")

    def __init__(self, n_classes: int):
        self.n_classes = n_classes
        self.size = 0
        self.feature = np.empty(0, dtype=np.int64)
        self.threshold = np.empty(0, dtype=np.float64)
        self.left = np.empty(0, dtype=np.int64)
        self.counts = np.empty((0, n_classes), dtype=np.int32)

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

    def add_leaves(self, class_counts) -> np.ndarray:
        """Append one leaf per row of the (n, k) `class_counts`; returns their ids."""
        if np.shape(class_counts)[1:] != (self.n_classes,):
            raise ValueError(f"class_counts must have shape (n, {self.n_classes})")
        ids = np.arange(self.size, self.size + len(class_counts))
        self._reserve(ids.size)
        new = slice(self.size, self.size + ids.size)
        self.size += ids.size
        self.left[new], self.feature[new], self.threshold[new] = ids, 0, np.inf
        self.counts[new] = class_counts
        return ids

    def split(self, ids, features, thresholds, child_counts) -> np.ndarray:
        """Turn the leaves `ids` into internal nodes, leaf ``ids[i]`` over a
        new leaf pair whose class counts are rows 2i (left) and 2i + 1
        (right) of the (2 len(ids), k) `child_counts`; returns the ids of
        the left leaves, each right leaf's id being its left one's + 1."""
        if np.shape(child_counts) != (2 * len(ids), self.n_classes):
            raise ValueError(f"child_counts must have shape ({2 * len(ids)}, {self.n_classes})")
        left = self.add_leaves(child_counts)[0::2]
        self.feature[ids] = features
        self.threshold[ids] = thresholds
        self.left[ids] = left
        return left

    def view(self, i) -> "TreeNode":
        """The node view of id i."""
        return TreeNode(self, int(i))

    def export(self, roots) -> dict:
        """The columns of the trees at `roots`, laid out by `_breadth_first`."""
        return _breadth_first({name: getattr(self, name) for name in self.COLUMNS}, roots)

    def append(self, columns: dict, n_trees: int) -> np.ndarray:
        """Append `n_trees` trees laid out as `export` returns them: child
        links count from the first node, and the roots come first; the
        leaves become self-loops. Returns the roots' ids."""
        n = len(columns["left"])
        self._reserve(n)
        new = slice(self.size, self.size + n)
        for name in self.COLUMNS:
            getattr(self, name)[new] = columns[name]
        leaf = new.start + np.flatnonzero(columns["left"] <= np.arange(n))
        self.left[new] += new.start
        self.left[leaf], self.feature[leaf], self.threshold[leaf] = leaf, 0, np.inf
        self.size = new.stop
        return new.start + np.arange(n_trees)


def _levels(left, roots, right=None) -> list[np.ndarray]:
    """Node ids of the trees at `roots`, one array per depth: the roots in
    the given order, then, level by level, the children of each internal
    node, pair by pair. The right child of node i is ``right[i]``, or
    ``left[i] + 1`` when `right` is None. Node i is internal when ``left[i]
    > i``, with self-loop leaves or with the -1 leaves of exported columns."""
    out = []
    level = np.asarray(roots, dtype=np.intp).reshape(-1)
    while level.size:
        out.append(level)
        inner = level[left[level] > level]
        children = left[inner]
        level = np.stack((children, children + 1 if right is None else right[inner]),
                         axis=1).reshape(-1)
    return out


def _breadth_first(columns: dict, roots, right=None) -> dict:
    """The `NodeTable.COLUMNS` of the trees at `roots` of `columns`, laid
    out breadth-first over all the trees as `_levels` orders them, which is
    the order the grower appends nodes in. Internal node j of that order
    gets left child ``len(roots) + 2 j``, and leaves left = feature = -1
    and threshold 0.0; `right` is as for `_levels`."""
    ids = np.concatenate(_levels(columns["left"], roots, right))
    out = {name: columns[name][ids] for name in NodeTable.COLUMNS}
    inner = out["left"] > ids
    at, leaf = np.flatnonzero(inner), np.flatnonzero(~inner)
    out["left"][at] = len(roots) + 2 * np.arange(at.size)
    out["left"][leaf], out["feature"][leaf], out["threshold"][leaf] = -1, -1, 0.0
    return out


class TreeNode:
    """Read-only view of one node of a NodeTable: internal nodes route on
    one feature; leaves predict, and read feature -1 and threshold 0.0.

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
        return None if left <= self._id else TreeNode(self._table, left + offset)

    @property
    def left(self) -> "TreeNode | None":
        return self._child(0)

    @property
    def right(self) -> "TreeNode | None":
        return self._child(1)

    @property
    def feature(self) -> int:
        return -1 if self.is_leaf else int(self._table.feature[self._id])

    @property
    def threshold(self) -> float:
        return 0.0 if self.is_leaf else float(self._table.threshold[self._id])

    @property
    def class_counts(self) -> np.ndarray:
        counts = self._table.counts[self._id]
        counts.flags.writeable = False
        return counts

    @property
    def pre_split_total(self) -> int:
        """The node's total less its children's; 0 at a leaf."""
        counts, left = self._table.counts, int(self._table.left[self._id])
        return 0 if left <= self._id else int(counts[self._id].sum() - counts[left:left + 2].sum())

    @property
    def is_leaf(self) -> bool:
        return bool(self._table.left[self._id] <= self._id)


# Bound on the weight of one growth round of `_grow`: a node of weight W
# sums squared class counts up to W**2, and steps of up to 2 * W**2, in
# int64, so a round at the bound raises ValueError.
_MAX_WEIGHT = 1 << 31


def best_split(data: Dataset, indices, candidate_features):
    """Exhaustive, unweighted split search of one node over the given
    features: the reference that tests hold the grower's `_search` to.

    Considers every midpoint between consecutive distinct sorted values of
    each candidate feature (or the lower value, where the midpoint does not
    lie strictly below the upper one) and maximizes the weighted Gini
    decrease over the samples in `indices`. Ties break toward the lowest
    feature index, then the lowest threshold. Only the multiset of rows
    matters, not their order. A call whose sort words (see `_search`) would
    need more than 63 bits, which takes millions of (row, feature)
    positions, raises ValueError.

    Returns
    -------
    (feature, threshold, decrease) or None when no split yields a positive
    decrease (pure node, or all candidate features constant).
    """
    _check_dataset("data", data)
    idx = _check_index("indices", indices, data.n_samples)
    cand = _check_index("candidate_features", candidate_features, data.n_features)
    if idx.ndim != 1 or cand.ndim != 1 or idx.size == 0 or cand.size == 0:
        raise ValueError("indices and candidate_features must be nonempty 1-D lists, "
                         f"not of shapes {idx.shape} and {cand.shape}")
    given, rows = np.unique(idx, return_inverse=True)
    sub = data.subset(given)
    (node, feature, threshold, _, _, *sums), _ = _search(
        sub, _ranks(sub.features), rows, np.ones(idx.size, dtype=np.int32),
        np.unique(cand)[None, :], np.array([0, idx.size]))
    if node.size == 0:
        return None
    return int(feature[0]), float(threshold[0]), _decreases(*sums)[0]


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


def _position_bits(keys: int, positions: int) -> int:
    """Bits of the position field of an int64 word ``key << bits |
    position`` that packs a key below `keys` with a position below
    `positions`; raises ValueError naming both sizes when such a word
    needs more than 63 bits, as the sign bit would then reorder the words."""
    bits = max(1, (positions - 1).bit_length())
    if (keys - 1).bit_length() + bits > 63:
        raise ValueError(f"cannot pack {keys} keys and {positions} positions into 63 bits")
    return bits


def _search(data: Dataset, rank: np.ndarray, rows: np.ndarray, weights: np.ndarray,
            cand: np.ndarray, bounds: np.ndarray) -> tuple:
    """`best_split` over nodes laid out back to back in `rows`, node u in
    ``rows[bounds[u]:bounds[u + 1]]`` with the features ``cand[u]``
    (sorted), row ``rows[i]`` counted ``weights[i]`` times, exactly while
    the weights sum to less than _MAX_WEIGHT; `rank` is
    ``_ranks(data.features)``.

    Returns the split of each node that has one, in node order, as arrays:
    the node, its feature and threshold, `win` and `n_left`, and the
    integer sums n_l, n_r, s_l, s_r and s_parent of the split, as
    `_best_candidates` defines them; and `order`, the positions of `rows`
    segment by segment in value order. Split j's node holds the rows
    ``rows[order[win[j]:win[j] + size]]``, its ``n_left[j]`` left rows first.

    Both sorts, by (segment, value) and by (segment, class), sort int64
    words that pack the sort key above the position (`_position_bits`), so
    one in-place sort yields the order and the sorted keys with no argsort
    or gather; raises ValueError when the keys and positions of a call do
    not fit 63 bits together.

    A full round's arrays sit on top of an almost full node table late in
    a fit, where the fit's memory peaks, so each is deleted once used."""
    X, y, k = data.features, data.labels, data.n_classes
    m = cand.shape[1]
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]

    # Segment s = u * m + j holds node u's rows under its j-th feature. One
    # sort of the int64 words (segment * n + rank) << bits | position orders
    # the positions by segment, then value (equal values by position, though
    # any order would do, as only the multiset of each block of equal values
    # matters); the low bits of the sorted words are the positions in that
    # order, and the high bits the keys.
    seg_size = np.repeat(sizes, m)
    seg_start, at = _ranges(np.repeat(starts, m), seg_size)
    first, e = seg_start[:-1], at.size
    seg = np.repeat(np.arange(seg_size.size), seg_size)
    seg_feature = cand.reshape(-1)
    position = np.arange(e)
    bits = _position_bits(seg_size.size * rank.shape[0], e)
    word = np.multiply(seg, rank.shape[0])
    word += rank.reshape(-1).take(
        np.multiply(rows[at], rank.shape[1], dtype=np.intp) + seg_feature[seg])
    word <<= bits
    word |= position
    word.sort()
    at = at[word & ((1 << bits) - 1)]
    word >>= bits
    # Position p is no value boundary where it starts its segment or holds
    # the value before it.
    inside = np.empty(e, dtype=bool)
    np.equal(word[1:], word[:-1], out=inside[1:])
    inside[first] = True
    del word
    lab = y[rows[at]]
    w = weights[at]

    # Maximizing the weighted gini decrease is equivalent to maximizing
    # q = S_l/n_l + S_r/n_r, with S the sum of squared child class counts.
    # Walking a segment in value order moves one row of class c and weight
    # w at a time to the left: S_l grows by (2 * left_c + w) * w and S_r
    # shrinks by (2 * right_c - w) * w, with left_c and right_c counted
    # before the move. left_c is the weight of the segment's rows of class
    # c before the row, found by sorting the words (segment * k + class) <<
    # bits | position, packed as above: the low bits give the positions in
    # class order, the high bits their (segment, class) group. The totals
    # of the groups in each node's first segment are its class counts.
    bits = _position_bits(seg_size.size * k, e)
    word = np.multiply(seg, k)
    word += lab
    word <<= bits
    word |= position
    word.sort()
    by_class = word & ((1 << bits) - 1)
    word >>= bits
    del position
    group_start = np.zeros(seg_size.size * k + 1, dtype=np.intp)
    np.cumsum(np.bincount(word, minlength=seg_size.size * k), out=group_start[1:])
    passed = np.zeros(e + 1, dtype=np.int64)  # weight before each position
    np.cumsum(w[by_class], out=passed[1:])
    before = np.empty(e, dtype=np.int64)
    before[by_class] = passed[:-1] - passed[group_start[word]]
    del word, by_class
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


# Largest number of (tree, row) pairs one routing block holds, in an
# update (`_route_and_count`) or a prediction (`_votes`), and of (row,
# feature) positions one growth round searches: bounds their temporary
# arrays at any feature and tree count: to a few MB, and to under 30 MB in
# an update whose paths fill a key word, as a block then holds up to 64
# levels between two flushes.
_PAIRS_PER_PASS = 1 << 15


def _grow(table: NodeTable, data: Dataset, rows: np.ndarray, weights: np.ndarray, bounds,
          nodes, criteria: SplitCriteria, rng: np.random.Generator) -> None:
    """Grow leaves of `table` on rows of `data`, any number of trees at once.

    Leaf ``nodes[u]`` holds the rows ``rows[bounds[u]:bounds[u + 1]]``,
    already in its counts, row ``rows[i]`` counted ``weights[i]`` times
    (positive integers); a bootstrap resample comes as its distinct rows and
    how often each was drawn. Every listed leaf must hold at least one row:
    `bounds` rises strictly from 0. Both callers keep to that: `_planted`
    lists new roots, each over its nonempty sample, and `_extend` only the
    leaves its batch reached. `rows` and `weights` are one pair of buffers
    for the whole call: a node is a range of them, and a split reorders its
    range of both in place, left rows first. Node sizes are weighted: only
    leaves whose weights sum to at least min_samples_split and that hold
    more than one label are split, children the same.

    Growth is breadth-first over one queue: first the listed leaves that can
    split, in the listed order, then the children that can split of each
    node in queue order, left child first. A round is one batched
    `_search` over a prefix of the queue holding at most _PAIRS_PER_PASS
    (row, feature) positions, m per distinct row (at least one node); a
    round whose weights sum to _MAX_WEIGHT (2**31) or more raises
    ValueError, as `_search`'s integer sums would then overflow. The
    features are ranked once per call. Each searched node, in queue order,
    takes p doubles from `rng` and searches the features of the m smallest;
    nothing is drawn when m = p. A double is one 64-bit word of the generator, so
    neither the cut into rounds nor node ids change the trees.
    """
    X, y, k, p = data.features, data.labels, data.n_classes, data.n_features
    m = criteria.resolve_max_features(p)
    min_split = criteria.min_samples_split
    bounds = np.asarray(bounds, dtype=np.intp)
    # The weight of each listed leaf, and whether it holds more than one label.
    weighted = np.add.reduceat(weights[: bounds[-1]], bounds[:-1], dtype=np.int64)
    labels = y[rows[: bounds[-1]]]
    mixed = np.minimum.reduceat(labels, bounds[:-1]) < np.maximum.reduceat(labels, bounds[:-1])
    del labels
    # One queue entry per node: its id, its range of the buffers, its weight.
    queue = np.stack((np.asarray(nodes, dtype=np.intp), bounds[:-1], bounds[1:], weighted),
                     axis=1)[mixed & (weighted >= min_split)]
    rank = _ranks(X)
    while queue.size:
        # The prefix of at most _PAIRS_PER_PASS positions: rows * m stays
        # within it exactly when rows stays within _PAIRS_PER_PASS // m.
        take = max(1, int(np.searchsorted(np.cumsum(queue[:, 2] - queue[:, 1]),
                                          _PAIRS_PER_PASS // m, side="right")))
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
        # A split node's range takes its rows in the search's value order,
        # left rows first; an unsplit node's range is left as is.
        size = size[splits]
        src, dst = order[_ranges(win, size)[1]], _ranges(start[splits], size)[1]
        rows[dst] = split_rows = node_rows[src]
        weights[dst] = split_weights = node_weights[src]
        counts = _class_counts(y[split_rows], split_weights,
                               np.stack((n_left, size - n_left), axis=1).reshape(-1), k)
        del at, node_rows, node_weights, order, src, dst, split_rows, split_weights
        left = table.split(node[splits], feature, threshold, counts)
        mid = start[splits] + n_left
        children = np.stack((
            np.stack((left, start[splits], mid, n_l), axis=1),
            np.stack((left + 1, mid, stop[splits], n_r), axis=1)), axis=1)
        grows = ((counts > 0).sum(axis=1).reshape(-1, 2) > 1) & (children[..., 3] >= min_split)
        queue = np.concatenate((queue, children[grows]))


# Levels `_descend` steps its pairs between two drops of the finished ones,
# by measurement: 1 was no faster, 4 to 6 alike.
_LEVELS_PER_DROP = 4


def _descend(table: NodeTable, start, rows, X: np.ndarray) -> np.ndarray:
    """Route (start node, row) pairs to their leaves for prediction; returns
    the leaf id of each pair. Pair i starts at node ``start[i]`` with the
    features ``X[rows[i]]``, which must be finite; a value <= the threshold
    goes left, a larger one to the right child ``left + 1``.

    A step moves the unfinished pairs _LEVELS_PER_DROP levels, a pair at a
    leaf staying on its self-loop, then drops the pairs at a leaf. A level
    reads each pair's feature with one ``[]`` gather (no slower than
    ``take`` at 100 or ~32,700 pairs) from the flat view of X, at ``rows[i]
    * p + feature``, the row offsets intp; X should be C-contiguous, or the
    flat view is a copy.
    """
    node = np.array(start, dtype=np.intp)
    feature, threshold, left = table.feature, table.threshold, table.left
    flat, base = X.reshape(-1), np.multiply(rows, X.shape[1], dtype=np.intp)
    live = np.flatnonzero(left[node] > node)
    while live.size:
        cur, at = node[live], base[live]
        for _ in range(_LEVELS_PER_DROP):
            goes_right = flat[at + feature[cur]] > threshold[cur]
            cur = left[cur]
            cur += goes_right
        node[live] = cur
        live = live[left[cur] > cur]
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
    resample as `_samples` draws it, so each distinct pair is routed once.

    The pairs are routed in blocks of _PAIRS_PER_PASS consecutive ones. A
    block steps every one of its pairs through every level, a pair at a
    leaf staying on its self-loop, and ORs each level's branch bits into
    its pairs' key words: the int64 words that pack, most significant bit
    first, 63 bits each, the tree index and then one bit per depth, 1 for
    right. A level also records the node each pair reached and whether it
    moved there. Only when a key word is full, or no pair moves any more,
    does the block add the labels of the recorded levels to the counts,
    weighted by ``weight * moved``, with one `np.add.at`, store the word
    and drop the pairs at a leaf; so it holds at most one word's levels,
    however deep the trees.
    """
    tree = np.repeat(np.arange(len(roots)), np.diff(bounds))
    roots = np.asarray(roots, dtype=np.intp)
    feature, threshold, left = table.feature, table.threshold, table.left
    counts, k = table.counts.reshape(-1), table.n_classes
    flat = X.reshape(-1)
    leaf = np.empty(tree.size, dtype=np.intp)
    tree_bits = (len(roots) - 1).bit_length()
    # words[j] holds every pair's j-th key word; a zero word is appended
    # the first time a pair's path needs it. `spare` is the fewest low bits
    # any pair left unused in its last word.
    words, spare = [tree << (63 - tree_bits)], 63 - tree_bits
    for lo in range(0, tree.size, _PAIRS_PER_PASS):
        pair = np.arange(lo, min(lo + _PAIRS_PER_PASS, tree.size))
        cur = roots[tree[pair]]
        at = np.multiply(rows[pair], X.shape[1], dtype=np.intp)
        # Labels gathered once a block: y at a bootstrap's int32 rows per
        # level was slower. Weights in the counts' dtype: np.add.at leaves
        # its fast path to cast, which once made it 20 times slower.
        label, weight = y[rows[pair]], weights[pair].astype(counts.dtype, copy=False)
        key, shift, w = words[0][pair], 62 - tree_bits, 0
        while True:
            # Row 0 of (reached, moved) is each pair's node as the word
            # starts, counted in the first word only (the roots); row i the
            # node it reached at the word's i-th level, and whether it moved.
            reached = np.empty((64, pair.size), dtype=np.intp)
            moved = np.empty((64, pair.size), dtype=bool)
            reached[0], moved[0], used = cur, w == 0, 1
            while shift >= 0:
                nxt, step = reached[used], moved[used]
                np.take(left, cur, out=nxt, mode="clip")  # "raise" would buffer `out`
                np.greater(nxt, cur, out=step)
                if not step.any():
                    break
                goes_right = flat[at + feature[cur]] > threshold[cur]
                key |= np.left_shift(goes_right, shift, dtype=np.int64)
                nxt += goes_right
                cur, shift, used = nxt, shift - 1, used + 1
            if w == len(words):
                words.append(np.zeros(tree.size, dtype=np.int64))
            words[w][pair] = key
            leaf[pair] = cur
            spare = min(spare, shift + 1)
            live = left[cur] > cur
            cur = cur[live]  # copied out of `reached` before its rows become count cells
            index = reached[:used]
            index *= k
            index += label
            np.add.at(counts, index.reshape(-1), np.multiply(moved[:used], weight).reshape(-1))
            if not cur.size:
                break
            pair, at, label, weight = (a[live] for a in (pair, at, label, weight))
            key, shift, w = np.zeros(pair.size, dtype=np.int64), 62, w + 1
    # Depth-first, left-first order of the touched leaves: a stable sort of
    # the pairs on their key words. No touched leaf lies on another's path,
    # so padding short paths with "left", and with zero words, is safe.
    # When the pair index fits the spare bits of one word, one in-place
    # sort of key | index orders the pairs, the index breaking ties as a
    # stable sort would; deeper keys take a lexsort of the words.
    index_bits = max(1, (tree.size - 1).bit_length())
    if len(words) == 1 and index_bits <= spare:
        word = words[0]
        word |= np.arange(tree.size)
        word.sort()
        order = word & ((1 << index_bits) - 1)
    else:
        order = np.lexsort(words[::-1])
    pair_leaf = leaf[order]
    first = np.flatnonzero(_changes(pair_leaf))
    return _Touched(pair_leaf[first], np.append(first, order.size), rows[order],
                    weights[order])


def _leaf_labels(table: NodeTable, leaves: np.ndarray) -> np.ndarray:
    """Majority class of each leaf id, ties to the lowest class. When there
    are more leaf ids than nodes, every row of the table is labelled once;
    internal rows get a label that nothing reads."""
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


def _class_counts(labels, weights, sizes, k: int) -> np.ndarray:
    """The (len(sizes), k) int32 class counts of consecutive groups of rows,
    group g the next ``sizes[g]``, row i of class ``labels[i]`` counted
    ``weights[i]`` times. The float64 sums of `np.bincount` are exact: each
    partial sum is a whole number below the int32 totals' 2**31 < 2**53."""
    group = np.repeat(np.arange(len(sizes)) * k, sizes)
    return np.bincount(group + labels, weights=weights, minlength=len(sizes) * k).astype(
        np.int32).reshape(-1, k)


def _planted(table: NodeTable, data: Dataset, count: int, criteria: SplitCriteria,
             bootstrap: bool, rng: np.random.Generator) -> np.ndarray:
    """The roots of `count` new trees grown together in `table` by one
    `_grow` call, each on a sample of `data` as `_samples` draws it, all
    drawing from `rng`."""
    rows, weights, bounds = _samples(rng, count, data.n_samples, bootstrap)
    roots = table.add_leaves(_class_counts(data.labels[rows], weights, np.diff(bounds),
                                           data.n_classes))
    _grow(table, data, rows, weights, bounds, roots, criteria, rng)
    return roots


def _as_features(X) -> np.ndarray:
    """X as a C-contiguous float64 array; raises ValueError naming the dtype
    when X is complex, whose imaginary part a cast would drop."""
    X = np.asarray(X)
    if np.iscomplexobj(X):
        raise ValueError(f"features must be real numbers, not {X.dtype}")
    return np.asarray(X, dtype=np.float64, order="C")


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
    """X as a C-contiguous float64 vector (ndim 1) or matrix (ndim 2) of the
    fitted `model`'s features; raises ValueError on an unfitted model,
    complex values, a shape that does not match or a non-finite value,
    which no threshold orders."""
    if model.n_features is None:
        raise ValueError(f"this {type(model).__name__} is not fitted; call fit first")
    X = _as_features(X)
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

        Pair t * n + r (tree t, row r) is routed in its block of
        _PAIRS_PER_PASS pairs, which bounds the routing arrays to a few MB
        however many rows and trees come; the leaves are labelled at the end.
        """
        table, roots, n = self._table, self._roots, X.shape[0]
        leaves = np.empty(roots.size * n, dtype=np.intp)
        # Pair lo + i is tree lo // n + tree[j] and row row[j], j = lo % n + i.
        span = np.arange(min(leaves.size, _PAIRS_PER_PASS) + n)
        tree, row = span // n, span % n
        for lo in range(0, leaves.size, _PAIRS_PER_PASS):
            at = slice(lo % n, lo % n + min(leaves.size - lo, _PAIRS_PER_PASS))
            start = roots[lo // n:][tree[at]]
            leaves[lo:lo + start.size] = _descend(table, start, row[at], X)
        return _leaf_labels(table, leaves.reshape(roots.size, n))

    def predict_one(self, x) -> int:
        x = _check_input(self, x, 1)
        return int(_majority_vote(self._votes(x[None, :]), self.n_classes)[0])

    def predict(self, X) -> np.ndarray:
        """Majority-class predictions for the rows of X."""
        X = _check_input(self, X, 2)
        votes = self._votes(X)
        return votes[0] if votes.shape[0] == 1 else _majority_vote(votes, self.n_classes)

    def node_count(self) -> int:
        return 0 if self._table is None else sum(
            level.size for level in _levels(self._table.left, self._roots))


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
        t, i = self._table, self._roots[0]
        while t.left[i] > i:
            i = t.left[i] + (x[t.feature[i]] > t.threshold[i])
        return int(i)

    def apply(self, x) -> TreeNode:
        """Return the unique leaf whose region contains x."""
        leaf = self._leaf_id(x)
        return self._table.view(leaf)

    def predict_one(self, x) -> int:
        leaf = self._leaf_id(x)
        return int(np.argmax(self._table.counts[leaf]))
