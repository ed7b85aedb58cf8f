"""Shared test utilities: an exact brute-force split oracle, random dataset
generators, and tree structure checks."""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

from streamforest import Dataset


def brute_force_best_split(data: Dataset, indices, features, weights=None):
    """Exhaustive reference split search in exact rational arithmetic.

    Re-partitions the samples from scratch at every candidate (feature,
    threshold) pair, checking that the threshold sends exactly the values up
    to the lower one left, and compares weighted impurities as Fractions, so
    ties are exact. Maximizing the decrease is equivalent to maximizing
    q = S_l/n_l + S_r/n_r where S is the sum of squared class counts;
    candidates are scanned in (feature, threshold) order and only strict
    improvements win, which encodes the lowest-feature, lowest-threshold
    tie rule. Row ``indices[i]`` counts ``weights[i]`` times (Python-int
    sums, so exact at any weight). Returns (feature, threshold, decrease)
    or None.
    """
    idx = np.asarray(indices, dtype=np.intp)
    X, y, k = data.features, data.labels, data.n_classes
    labels = y[idx]
    w = np.ones(idx.size, dtype=object) if weights is None else np.asarray(weights, dtype=object)

    def class_counts(mask):
        counts = np.zeros(k, dtype=object)
        np.add.at(counts, labels[mask], w[mask])
        return counts

    parent = class_counts(np.ones(idx.size, dtype=bool))
    n = int(parent.sum())
    s_parent = int((parent.astype(object) ** 2).sum())
    q_parent = Fraction(s_parent, n)

    best = None  # (q, feature, threshold)
    for f in sorted({int(v) for v in features}):
        vals = X[idx, f]
        distinct = np.unique(vals)
        for a, b in zip(distinct, distinct[1:]):
            # Same threshold rule as the library: the midpoint, or the lower
            # value where the midpoint rounds up to b or overflows.
            a, b = float(a), float(b)
            t = (a + b) / 2.0
            if not a <= t < b:
                t = a
            mask = vals <= t
            assert (mask == (vals <= a)).all() and mask.any() and not mask.all(), (
                "routing by the threshold must reproduce the scored partition")
            lc = class_counts(mask)
            rc = parent - lc
            n_l = int(lc.sum())
            n_r = n - n_l
            s_l = int((lc.astype(object) ** 2).sum())
            s_r = int((rc.astype(object) ** 2).sum())
            q = Fraction(s_l, n_l) + Fraction(s_r, n_r)
            if q > q_parent and (best is None or q > best[0]):
                best = (q, f, t)
    if best is None:
        return None
    decrease = (best[0] - q_parent) / (n * n) * n  # (q - S_p/n) / n
    return best[1], best[2], float(decrease)


def random_dataset(rng: np.random.Generator, n=None, p=None, k=None,
                   grid=None) -> Dataset:
    """Random dataset; grid-valued features make split-score ties common."""
    n = int(rng.integers(20, 201)) if n is None else n
    p = int(rng.integers(1, 6)) if p is None else p
    k = int(rng.integers(2, 4)) if k is None else k
    grid = bool(rng.integers(0, 2)) if grid is None else grid
    if grid:
        levels = int(rng.integers(3, 9))
        features = rng.integers(0, levels, (n, p)).astype(np.float64)
    else:
        features = rng.uniform(-1.0, 1.0, (n, p))
    if p >= 2 and rng.random() < 0.3:
        features[:, p - 1] = features[:, 0]  # duplicated column forces feature ties
    labels = rng.integers(0, k, n)
    return Dataset(features, labels, k)


def collect_internal_splits(root) -> list[tuple[int, float]]:
    splits = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.left is not None:
            splits.append((node.feature, node.threshold))
            stack.append(node.left)
            stack.append(node.right)
    return splits


def iter_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)


def trees_equal(a, b) -> bool:
    """Structural equality: same shape, bit-identical splits, same counts."""
    stack = [(a, b)]
    while stack:
        x, z = stack.pop()
        if (x.left is None) != (z.left is None):
            return False
        if not np.array_equal(x.class_counts, z.class_counts):
            return False
        if x.left is not None:
            if x.feature != z.feature or x.threshold != z.threshold:
                return False
            stack.append((x.left, z.left))
            stack.append((x.right, z.right))
    return True


def split_totals(root) -> dict:
    """(is leaf, total, pre_split_total) of every node of the tree at
    `root`, by node view: the state that `check_count_conservation` checks
    an update against."""
    return {node: (node.is_leaf, int(node.class_counts.sum()), node.pre_split_total)
            for node in iter_nodes(root)}


def check_count_conservation(root, before=None) -> None:
    """Every node's children hold all the samples that reached it after it
    split: its ``pre_split_total``, the samples it holds that its children
    do not, is what `before`, the `split_totals` of the tree before an
    update, implies. A node that was internal keeps it, a leaf that split
    has the total it had before, and a node created in the update has 0,
    as does every node after a batch fit (`before` None). A sample counted
    at a node but not at the child it went on to, or at a child but not
    at the node, changes the node's."""
    before = before or {}
    for node in iter_nodes(root):
        was_leaf, total, held = before.get(node, (True, 0, 0))
        expected = total if was_leaf and not node.is_leaf else held
        assert node.pre_split_total == expected, (
            f"conservation violated: node {node._id} holds back {node.pre_split_total} "
            f"samples from its children, expected {expected}")


def is_same_or_descendant(ancestor, node) -> bool:
    for candidate in iter_nodes(ancestor):
        if candidate == node:
            return True
    return False


def walk_to_leaf(root, x):
    """Scalar reference walk: the leaf view whose region contains x."""
    node = root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def loop_route(roots, rows, tree_of, X, y, n_classes):
    """Loop reference for the vectorized router.

    Pair i is row ``rows[i]`` entering the tree whose root view is
    ``roots[tree_of[i]]``. Each tree is walked recursively, left child
    first, partitioning its pairs at every node. Returns (leaf view of each
    pair, [(node view, bincount of the labels of the pairs that pass
    through it)], [(touched leaf view, its pairs in increasing order)]),
    the last tree by tree in that left-first order.
    """
    leaf_of = [None] * len(rows)
    increments, touched = [], []

    def visit(node, pairs):
        if pairs.size == 0:
            return
        increments.append((node, np.bincount(y[rows[pairs]], minlength=n_classes)))
        if node.is_leaf:
            touched.append((node, pairs))
            for p in pairs.tolist():
                leaf_of[p] = node
            return
        goes_left = X[rows[pairs], node.feature] <= node.threshold
        visit(node.left, pairs[goes_left])
        visit(node.right, pairs[~goes_left])

    for t, root in enumerate(roots):
        visit(root, np.flatnonzero(tree_of == t))
    return leaf_of, increments, touched


def distinct_rows(per_tree) -> tuple:
    """Per-tree row lists in the form the router and `_update_trees` take:
    (rows, weights, bounds), tree t's distinct rows in increasing order at
    ``rows[bounds[t]:bounds[t + 1]]``, row ``rows[i]`` listed ``weights[i]``
    times."""
    parts = [np.unique(np.asarray(r, dtype=np.intp), return_counts=True) for r in per_tree]
    bounds = np.cumsum([0] + [rows.size for rows, _ in parts])
    return (np.concatenate([rows for rows, _ in parts]),
            np.concatenate([counts for _, counts in parts]), bounds)


def plant_constant_trees(forest, classes: dict) -> None:
    """Make tree i of the stream `forest` a one-leaf tree whose overwhelming
    counts vote class ``classes[i]``, for each i in `classes`. The leaves are
    planted in the forest's own table and swapped in through `_replace`, as
    a replacement swaps trees."""
    table, roots = forest._table, []
    for predicted_class in classes.values():
        counts = np.zeros(forest.n_classes, dtype=np.int64)
        counts[predicted_class] = 1_000_000
        roots.append(table.add_leaf(counts))
    forest._replace(list(classes), roots)


def kept_trees(before, after) -> list[int]:
    """The indices t at which ``after[t]``, a stream forest's tree views read
    after one update, is ``before[t]``, read before it, kept: it has taken in
    one more batch and has the same nodes. A view taken before the update
    reads the table that the update grew in place, so a kept tree compares
    equal grown, and a replaced one has taken in one batch only."""
    return [t for t, (old, new) in enumerate(zip(before, after))
            if new.batches_seen == old.batches_seen + 1 and trees_equal(old.root, new.root)]


class RefNode:
    """Plain node for the growth reference, readable like a node view:
    ``left``/``right`` (None at leaves), ``feature``, ``threshold``,
    ``class_counts`` and ``pre_split_total``."""

    def __init__(self, class_counts):
        self.class_counts = np.array(class_counts, dtype=np.int64)
        self.left = self.right = None
        self.feature, self.threshold, self.pre_split_total = -1, 0.0, 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def loop_best_split(data: Dataset, indices, candidate_features):
    """Loop reference for the split search: one node, one feature at a time,
    with a float (n+1, k) cumulative class count per feature. Floats rank
    the thresholds; the candidates within 1e-9 of a feature's maximum are
    re-compared exactly in Python ints, lowest feature then lowest threshold
    first. Returns (feature, threshold, decrease) or None."""
    idx = np.asarray(indices, dtype=np.intp)
    feats = sorted({int(f) for f in candidate_features})
    y = data.labels[idx]
    n = idx.size
    parent_counts = np.bincount(y, minlength=data.n_classes)
    s_parent = int(np.dot(parent_counts, parent_counts))
    parent_f = parent_counts.astype(np.float64)
    best = None  # (q_numerator, q_denominator, feature, threshold)
    for f in feats:
        vals = data.features[idx, f]
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        pos = np.nonzero(v[1:] != v[:-1])[0] + 1
        if pos.size == 0:
            continue
        cum = np.zeros((n + 1, data.n_classes), dtype=np.float64)
        cum[np.arange(1, n + 1), y[order]] = 1.0
        np.cumsum(cum, axis=0, out=cum)
        left = cum[pos]
        right = parent_f - left
        nl = pos.astype(np.float64)
        nr = float(n) - nl
        s_left = (left * left).sum(axis=1)
        s_right = (right * right).sum(axis=1)
        q = s_left / nl + s_right / nr
        for j in np.nonzero(q >= q.max() - 1e-9)[0].tolist():
            n_l = int(pos[j])
            n_r = n - n_l
            num = int(s_left[j]) * n_r + int(s_right[j]) * n_l
            den = n_l * n_r
            if num * n <= s_parent * den:
                continue
            if best is None or num * best[1] > best[0] * den:
                lo, hi = float(v[pos[j] - 1]), float(v[pos[j]])
                threshold = (lo + hi) / 2.0
                if not lo <= threshold < hi:
                    threshold = lo
                best = (num, den, f, threshold)
    if best is None:
        return None
    num, den, feature, threshold = best
    return feature, threshold, (num * n - s_parent * den) / (den * n * n)


def loop_grow(leaves, data: Dataset, rows, criteria, rng) -> None:
    """Loop reference for growth under the v2 draw rule: split the listed
    leaves, leaf ``leaves[u]`` on the rows ``rows[u]`` (already in its
    counts), one node at a time from one first-in, first-out queue.

    The queue starts with the listed leaves that can split, in the listed
    order; a node that splits appends its children that can split, left
    first. A node can split with at least min_samples_split rows and more
    than one label. Each node taken from the queue draws ``rng.random(p)``
    and searches the features of the m smallest draws (stable order; no draw
    when m = p) with `loop_best_split`."""
    X, y, k, p = data.features, data.labels, data.n_classes, data.n_features
    m = criteria.resolve_max_features(p)

    def can_split(idx):
        return idx.size >= criteria.min_samples_split and bool((y[idx] != y[idx[0]]).any())

    queue = deque((leaf, idx) for leaf, idx in
                  zip(leaves, (np.asarray(r, dtype=np.intp) for r in rows)) if can_split(idx))
    while queue:
        node, idx = queue.popleft()
        cand = np.arange(p) if m == p else np.argsort(rng.random(p), kind="stable")[:m]
        found = loop_best_split(data, idx, cand)
        if found is None or found[2] < criteria.min_impurity_decrease:
            continue
        node.feature, node.threshold = found[0], found[1]
        goes_left = X[idx, node.feature] <= node.threshold
        node.left = RefNode(np.bincount(y[idx[goes_left]], minlength=k))
        node.right = RefNode(np.bincount(y[idx[~goes_left]], minlength=k))
        node.pre_split_total = int(node.class_counts.sum()) - idx.size
        for child, part in ((node.left, idx[goes_left]), (node.right, idx[~goes_left])):
            if can_split(part):
                queue.append((child, part))


def loop_fit(data: Dataset, rows, criteria, rng) -> list:
    """New reference trees grown together by one `loop_grow`, tree t on the
    rows ``rows[t]`` of `data`."""
    roots = [RefNode(np.bincount(data.labels[np.asarray(r, dtype=np.intp)],
                                 minlength=data.n_classes)) for r in rows]
    loop_grow(roots, data, rows, criteria, rng)
    return roots


def loop_update(roots, data: Dataset, rows, criteria, rng) -> None:
    """Loop reference for a stream update: tree by tree, walk each row of
    ``rows[t]`` from ``roots[t]`` and add its label along the path; then
    grow all touched leaves by one `loop_grow`, tree by tree, each tree's
    in depth-first, left-first order."""
    leaves, leaf_rows = [], []
    for root, tree_rows in zip(roots, rows):
        reached = {}
        for r in np.asarray(tree_rows).tolist():
            node = root
            node.class_counts[data.labels[r]] += 1
            while node.left is not None:
                node = node.left if data.features[r, node.feature] <= node.threshold \
                    else node.right
                node.class_counts[data.labels[r]] += 1
            reached.setdefault(id(node), []).append(r)
        for node in preorder_nodes(root):
            if node.left is None and id(node) in reached:
                leaves.append(node)
                leaf_rows.append(reached[id(node)])
    loop_grow(leaves, data, leaf_rows, criteria, rng)


def loop_samples(rng, count: int, n: int, bootstrap: bool) -> list:
    """Rows of `count` new trees: bootstraps of n rows drawn in one call, or
    every row once."""
    return list(rng.integers(0, n, (count, n))) if bootstrap else [np.arange(n)] * count


def loop_forest_update(roots, data: Dataset, criteria, rng, bootstrap: bool,
                       replace_count: int, batches_seen: int, force=None) -> list:
    """Loop reference for one `StreamForest.update` that brings the forest
    to `batches_seen` batches: every tree's bootstrap, the growth, the
    replacement coin, then any replacements' bootstraps and growth, all
    from `rng`. Replaces trees in `roots` in place; returns the replaced
    indices."""
    n = data.n_samples
    loop_update(roots, data, loop_samples(rng, len(roots), n, bootstrap), criteria, rng)
    u = rng.random()  # drawn also when the coin is forced
    fired = u < 1.0 / batches_seen if force is None else force
    if not fired or replace_count == 0:
        return []
    scores = [np.mean([int(np.argmax(walk_to_leaf(root, x).class_counts)) == label
                       for x, label in zip(data.features, data.labels.tolist())])
              for root in roots]
    worst = np.argsort(scores, kind="stable")[:replace_count].tolist()
    fresh = loop_fit(data, loop_samples(rng, len(worst), n, bootstrap), criteria, rng)
    for i, root in zip(worst, fresh):
        roots[i] = root
    return worst


def preorder_nodes(root):
    """Nodes of a tree (views or RefNodes) in preorder, left child first."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node.left is not None:
            stack.append(node.right)
            stack.append(node.left)


def preorder(root) -> list[tuple]:
    """A tree as its preorder list of (is_leaf, feature, threshold, class
    counts, pre_split_total); equal lists mean bit-identical trees."""
    return [(node.left is None, int(node.feature), float(node.threshold),
             tuple(int(c) for c in node.class_counts), int(node.pre_split_total))
            for node in preorder_nodes(root)]


def preorder_columns(forest) -> tuple[np.ndarray, dict]:
    """A forest's trees in the layout of the v1-v3 snapshots, built by a
    preorder walk of its node views: (starts, columns), tree t in preorder
    at ``starts[t]:starts[t + 1]`` of the six columns of those formats, with
    child links counted from the start of the node's own tree (-1 at
    leaves)."""
    rows, starts = [], [0]
    for tree in forest.trees:
        nodes = list(preorder_nodes(tree.root))
        at = {node: i for i, node in enumerate(nodes)}
        rows += [(node.feature, node.threshold,
                  -1 if node.is_leaf else at[node.left], -1 if node.is_leaf else at[node.right],
                  node.class_counts, node.pre_split_total) for node in nodes]
        starts.append(len(rows))
    names = ("feature", "threshold", "left", "right", "counts", "pre_split_total")
    return np.array(starts), {
        name: np.array([row[j] for row in rows],
                       dtype=np.float64 if name == "threshold" else np.int64)
        for j, name in enumerate(names)}


def tree_documents(starts, columns) -> list[dict]:
    """The v1/v2 JSON snapshot layout of trees laid out as `preorder_columns`
    returns them: one dict of per-node lists per tree, in preorder, with a
    "kind" list and child links counted from the tree's start (-1 at leaves)."""
    out = []
    for a, b in zip(starts[:-1].tolist(), starts[1:].tolist()):
        col = {name: values[a:b].tolist() for name, values in columns.items()}
        out.append({"kind": ["leaf" if link < 0 else "internal" for link in col["left"]],
                    "feature": col["feature"], "threshold": col["threshold"],
                    "left": col["left"], "right": col["right"],
                    "class_counts": col["counts"],
                    "pre_split_total": col["pre_split_total"]})
    return out


def forest_documents(forest) -> list[dict]:
    """A forest's trees in the v1/v2 JSON snapshot layout."""
    return tree_documents(*preorder_columns(forest))
