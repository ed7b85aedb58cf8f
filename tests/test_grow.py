"""Tree growth against a per-node loop reference of the v2 draw rule:
single trees, batch forests, stream trees, and stream forests built,
updated and partly replaced batch by batch, at several round budgets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamforest.tree
from streamforest import (
    BatchForest,
    Dataset,
    DecisionTree,
    SplitCriteria,
    StreamForest,
    StreamTree,
    best_split,
)

from helpers import (
    brute_force_best_split,
    loop_best_split,
    loop_fit,
    loop_forest_update,
    loop_samples,
    loop_update,
    preorder,
)

BASES = [0.0, 1.0, -2.5, 3.0, 1e6]


def _values(rng: np.random.Generator, shape) -> np.ndarray:
    """Few distinct values, some one or two ulps apart: heavy duplicates
    and adjacent floats."""
    pool = sorted({v for base in rng.choice(BASES, 2, replace=False).tolist()
                   for v in (base, math.nextafter(base, math.inf),
                             math.nextafter(math.nextafter(base, math.inf), math.inf),
                             math.nextafter(base, -math.inf))})
    return rng.choice(pool, size=shape)


def _case(seed: int):
    """Random data and split rules: k 2-6, p 1-7, max_features "all", 1,
    "sqrt" or a fixed m > 1, min_samples_split 2-6, min_impurity_decrease 0
    or positive."""
    rng = np.random.default_rng(seed)
    k, p = int(rng.integers(2, 7)), int(rng.integers(1, 8))
    rules = ["all", 1, "sqrt"] + ([int(rng.integers(2, p + 1))] if p > 1 else [])
    criteria = SplitCriteria(
        min_samples_split=int(rng.integers(2, 7)),
        max_features=rules[int(rng.integers(0, len(rules)))],
        min_impurity_decrease=float(rng.choice([0.0, 0.0, 0.01, 0.05])))

    def data(n):
        return Dataset(_values(rng, (n, p)), rng.integers(0, k, n), k)

    return rng, criteria, data


# Row budgets of a growth round; None keeps the library's.
BUDGETS = st.sampled_from([None, None, 1, 7, 40])


def _with_budget(budget, check, seed):
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(streamforest.tree, "_PAIRS_PER_PASS", budget)
        check(seed)


def _forest_trees(forest) -> list:
    return [preorder(forest._table.view(root)) for root in forest._roots.tolist()]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), BUDGETS)
def test_stream_forest_grows_like_the_loop_reference(seed, budget):
    _with_budget(budget, _check_stream_forest, seed)


def _check_stream_forest(seed):
    """Construction, updates and forced, suppressed and free replacement
    coins: the whole draw order of an update, replacements included."""
    rng, criteria, make = _case(seed)
    first = make(int(rng.integers(10, 80)))
    k = first.n_classes
    n_trees = int(rng.integers(1, 5))
    replace_count = int(rng.integers(1, n_trees + 1))
    bootstrap = bool(rng.integers(0, 2))
    forest = StreamForest(first, k, n_trees=n_trees, replace_count=replace_count,
                          criteria=criteria, seed=seed, bootstrap=bootstrap)

    ref_rng = np.random.default_rng(seed)
    roots = loop_fit(first, loop_samples(ref_rng, n_trees, first.n_samples, bootstrap),
                     criteria, ref_rng)
    assert _forest_trees(forest) == [preorder(root) for root in roots]

    coins = [True] + [(True, None, False)[int(rng.integers(0, 3))]
                      for _ in range(int(rng.integers(0, 3)))]
    for b, coin in enumerate(coins, start=2):
        batch = make(int(rng.integers(5, 60)))
        forest.update(batch, force_replacement=coin)
        replaced = loop_forest_update(roots, batch, criteria, ref_rng, bootstrap,
                                      replace_count, b, coin)
        assert forest.last_replacement["replaced"] == replaced
        assert _forest_trees(forest) == [preorder(root) for root in roots]
    assert forest.rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), BUDGETS)
def test_batch_forest_and_tree_fit_like_the_loop_reference(seed, budget):
    _with_budget(budget, _check_batch_fits, seed)


def _check_batch_fits(seed):
    rng, criteria, make = _case(seed)
    data = make(int(rng.integers(10, 150)))
    n = data.n_samples
    n_trees = int(rng.integers(1, 4))
    bootstrap = bool(rng.integers(0, 2))
    forest = BatchForest(n_trees, criteria, seed=seed, bootstrap=bootstrap).fit(data)
    ref_rng = np.random.default_rng(seed)
    expected = loop_fit(data, loop_samples(ref_rng, n_trees, n, bootstrap), criteria, ref_rng)
    assert _forest_trees(forest) == [preorder(root) for root in expected]

    tree = DecisionTree(criteria, seed=seed).fit(data)
    (root,) = loop_fit(data, [np.arange(n)], criteria, np.random.default_rng(seed))
    assert preorder(tree.root) == preorder(root)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), BUDGETS)
def test_stream_tree_grows_like_the_loop_reference(seed, budget):
    _with_budget(budget, _check_stream_tree, seed)


def _check_stream_tree(seed):
    rng, criteria, make = _case(seed)
    first = make(int(rng.integers(5, 80)))
    tree = StreamTree(first, first.n_classes, criteria, seed=seed)
    ref_rng = np.random.default_rng(seed)
    (root,) = loop_fit(first, [np.arange(first.n_samples)], criteria, ref_rng)
    assert preorder(tree.root) == preorder(root)
    for _ in range(int(rng.integers(1, 4))):
        batch = make(int(rng.integers(1, 60)))
        tree.update(batch)
        loop_update([root], batch, [np.arange(batch.n_samples)], criteria, ref_rng)
        assert preorder(tree.root) == preorder(root)
    assert tree.rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_batched_search_matches_single_node_search_and_oracle(seed):
    """One batched call over nodes with a constant feature, pure labels, a
    single row, one row repeated and heavy duplicates returns, node by node,
    the single-node result and the oracle's."""
    rng = np.random.default_rng(seed)
    n, p, k = int(rng.integers(8, 60)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
    features = _values(rng, (n, p))
    features[:, int(rng.integers(0, p))] = 1.0  # one constant feature
    data = Dataset(features, rng.integers(0, k, n), k)
    pure = np.flatnonzero(data.labels == data.labels[0])
    nodes = [
        rng.integers(0, n, int(rng.integers(2, 3 * n))),  # many duplicates
        rng.choice(pure, int(rng.integers(1, 2 * pure.size + 1))),  # one label
        np.array([int(rng.integers(0, n))]),  # a single row
        np.full(int(rng.integers(2, 9)), int(rng.integers(0, n))),  # one row repeated
        rng.permutation(n),
    ]
    order = rng.permutation(len(nodes))
    nodes = [nodes[i] for i in order]
    m = int(rng.integers(1, p + 1))
    cand = np.array([rng.choice(p, m, replace=False) for _ in nodes])
    starts = np.cumsum([0] + [node.size for node in nodes[:-1]])
    batched = best_split(data, np.concatenate(nodes), cand, starts)
    assert len(batched) == len(nodes)
    for got, rows, features in zip(batched, nodes, cand):
        assert got == best_split(data, rows, features)
        assert got == loop_best_split(data, rows, features)
        oracle = brute_force_best_split(data, rows, features)
        if oracle is None:
            assert got is None
        else:
            assert got[:2] == oracle[:2] and got[2] == pytest.approx(oracle[2], abs=1e-12)


def _weighted_nodes(rng: np.random.Generator):
    """A dataset and nodes of distinct rows: heavy duplicate values, one
    constant feature, one label, a single distinct row and all rows, in
    random order; with each node's candidate features and its starts."""
    n, p, k = int(rng.integers(8, 60)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
    features = _values(rng, (n, p))
    features[:, int(rng.integers(0, p))] = 1.0  # one constant feature
    data = Dataset(features, rng.integers(0, k, n), k)
    pure = np.flatnonzero(data.labels == data.labels[0])
    nodes = [
        rng.choice(n, int(rng.integers(2, n + 1)), replace=False),  # many duplicate values
        rng.choice(pure, int(rng.integers(1, pure.size + 1)), replace=False),  # one label
        np.array([int(rng.integers(0, n))]),  # a single distinct row
        rng.permutation(n),
    ]
    nodes = [nodes[i] for i in rng.permutation(len(nodes))]
    m = int(rng.integers(1, p + 1))
    cand = np.array([rng.choice(p, m, replace=False) for _ in nodes])
    starts = np.cumsum([0] + [node.size for node in nodes[:-1]])
    return data, nodes, cand, starts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_weighted_search_equals_search_over_repeated_rows(seed):
    """A batched search over distinct rows with integer weights returns,
    node by node, the very tuple of the search over each row repeated its
    weight times. Scaling a node's weights by up to 1e6 leaves the tuple
    unchanged too, as the integer sums stay exact: the counts, the sums of
    squares and the decrease all scale by one factor."""
    rng = np.random.default_rng(seed)
    data, nodes, cand, starts = _weighted_nodes(rng)
    top = int(rng.choice([2, 5, 40]))
    weights = [rng.integers(1, top + 1, node.size) for node in nodes]
    batched = best_split(data, np.concatenate(nodes), cand, starts,
                         weights=np.concatenate(weights))
    assert len(batched) == len(nodes)
    scale = [int(rng.integers(1, 10**6 // top + 1)) for _ in nodes]
    scaled = best_split(data, np.concatenate(nodes), cand, starts,
                        weights=np.concatenate([c * w for c, w in zip(scale, weights)]))
    for got, heavy, rows, w, features in zip(batched, scaled, nodes, weights, cand):
        assert got == best_split(data, np.repeat(rows, w), features)
        assert heavy == got


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_weighted_search_matches_the_exact_oracle_at_large_weights(seed):
    """Unequal weights up to 1e6: each node's split is the exact rational
    oracle's, with the decrease to rounding."""
    rng = np.random.default_rng(seed)
    data, nodes, cand, starts = _weighted_nodes(rng)
    weights = [rng.integers(1, 10**6 + 1, node.size) for node in nodes]
    for node, w in zip(nodes, weights):  # some light rows among the heavy ones
        w[rng.random(node.size) < 0.3] = 1
    batched = best_split(data, np.concatenate(nodes), cand, starts,
                         weights=np.concatenate(weights).astype(np.int32))
    for got, rows, w, features in zip(batched, nodes, weights, cand):
        assert got == best_split(data, rows, features, weights=w)
        oracle = brute_force_best_split(data, rows, features, weights=w)
        if oracle is None:
            assert got is None
        else:
            assert got[:2] == oracle[:2] and got[2] == pytest.approx(oracle[2], rel=1e-12)


def test_weighted_search_is_exact_up_to_the_weight_bound():
    """Weights summing to just under 2**31, searched over several features
    at once: the int64 sums stay exact, and unsigned weights give the same
    result as signed ones."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        data = Dataset(rng.choice([0.0, 1.0, 2.0, 3.0], size=(n, 5)),
                       rng.integers(0, 3, n), 3)
        weights = rng.integers(1, 2**31 // n, n)
        weights[0] += 2**31 - 1 - weights.sum()
        features = range(5)
        got = best_split(data, np.arange(n), features, weights=weights)
        assert best_split(data, np.arange(n), features,
                          weights=weights.astype(np.uint64)) == got
        oracle = brute_force_best_split(data, np.arange(n), features, weights=weights)
        if oracle is None:
            assert got is None
        else:
            assert got[:2] == oracle[:2] and got[2] == pytest.approx(oracle[2], rel=1e-12)


def test_search_rejects_bad_weights():
    data = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 1]), 2)
    for weights in ([1, 0, 2], [1, -1, 2], [1.0, 2.0, 1.0], [1, 2], [True, True, True],
                    [2**30, 2**30, 1], [1, 2**31, 1], np.array([1, 2**63, 1], dtype=np.uint64),
                    np.array([2**30, 2**30, 1], dtype=np.uint32)):
        with pytest.raises(ValueError):
            best_split(data, [0, 1, 2], [0], weights=np.array(weights))


def test_batched_search_rejects_bad_layouts():
    data = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 1]), 2)
    with pytest.raises(ValueError):
        best_split(data, [0, 1, 2], [[0], [0]], [0, 0])  # an empty node
    with pytest.raises(ValueError):
        best_split(data, [0, 1, 2], [[0]], [1])  # rows before the first node
    with pytest.raises(ValueError):
        best_split(data, [0, 1, 2], [0], [0])  # not one row of features per node
    with pytest.raises(ValueError):
        best_split(data, [0, 1, 2], [[1]], [0])  # no such feature
