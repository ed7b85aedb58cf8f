"""Shared test utilities: an exact brute-force split oracle, random dataset
generators, and tree structure checks."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from streamforest import Dataset


def brute_force_best_split(data: Dataset, indices, features):
    """Exhaustive reference split search in exact rational arithmetic.

    Re-partitions the samples from scratch at every candidate (feature,
    threshold) pair, checking that the threshold sends exactly the values up
    to the lower one left, and compares weighted impurities as Fractions, so
    ties are exact. Maximizing the decrease is equivalent to maximizing
    q = S_l/n_l + S_r/n_r where S is the sum of squared class counts;
    candidates are scanned in (feature, threshold) order and only strict
    improvements win, which encodes the lowest-feature, lowest-threshold
    tie rule. Returns (feature, threshold, decrease) or None.
    """
    idx = np.asarray(indices, dtype=np.intp)
    X, y, k = data.features, data.labels, data.n_classes
    labels = y[idx]
    n = idx.size
    parent = np.bincount(labels, minlength=k)
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
            n_l = int(mask.sum())
            n_r = n - n_l
            assert n_l == int((vals <= a).sum()) and n_l > 0 and n_r > 0, (
                "routing by the threshold must reproduce the scored partition")
            lc = np.bincount(labels[mask], minlength=k)
            rc = parent - lc
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


def check_count_conservation(root) -> None:
    """Every internal node's children account for all samples routed past it."""
    for node in iter_nodes(root):
        if node.left is not None:
            routed = int(node.left.class_counts.sum()) + int(node.right.class_counts.sum())
            total = int(node.class_counts.sum())
            assert routed == total - node.pre_split_total, (
                f"conservation violated: children {routed}, "
                f"node {total}, held back {node.pre_split_total}")


def is_same_or_descendant(ancestor, node) -> bool:
    for candidate in iter_nodes(ancestor):
        if candidate is node:
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
