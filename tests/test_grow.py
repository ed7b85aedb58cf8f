"""Tree growth against a per-node loop reference of the v2 draw rule:
single trees, batch forests, stream trees, and stream forests built,
updated and partly replaced batch by batch, at several round budgets; the
grower's helpers against plain references; and a guard that keeps numpy's
Python-level wrappers out of the code that runs once per round."""

import ast
import inspect
import itertools
import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamforest.tree
from streamforest import (
    BatchForest,
    Dataset,
    DecisionTree,
    NodeTable,
    SplitCriteria,
    StreamForest,
    StreamTree,
    best_split,
)

from helpers import (
    brute_force_best_split,
    distinct_rows,
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
    and adjacent floats. Each zero drawn has a random sign, and -0.0 and
    0.0 are one value."""
    pool = sorted({v for base in rng.choice(BASES, 2, replace=False).tolist()
                   for v in (base, math.nextafter(base, math.inf),
                             math.nextafter(math.nextafter(base, math.inf), math.inf),
                             math.nextafter(base, -math.inf))})
    values = rng.choice(pool, size=shape)
    zeros = values == 0.0
    values[zeros] = rng.choice([0.0, -0.0], size=np.count_nonzero(zeros))
    return values


def _case(seed: int, wide: bool = False):
    """Random data and split rules: k 2-6, p 1-7, max_features "all", 1,
    "sqrt" or a fixed m > 1, min_samples_split 2-6, min_impurity_decrease 0
    or positive. A `wide` case has p 3-7 and max_features "all", so each
    row of a growth round is searched at p >= 3 positions."""
    rng = np.random.default_rng(seed)
    k, p = int(rng.integers(2, 7)), int(rng.integers(3 if wide else 1, 8))
    rules = ["all"] if wide else (
        ["all", 1, "sqrt"] + ([int(rng.integers(2, p + 1))] if p > 1 else []))
    criteria = SplitCriteria(
        min_samples_split=int(rng.integers(2, 7)),
        max_features=rules[int(rng.integers(0, len(rules)))],
        min_impurity_decrease=float(rng.choice([0.0, 0.0, 0.01, 0.05])))

    def data(n):
        return Dataset(_values(rng, (n, p)), rng.integers(0, k, n), k)

    return rng, criteria, data


# Position budgets of a growth round; None keeps the library's.
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


def _check_stream_forest(seed, wide=False):
    """Construction, updates and forced, suppressed and free replacement
    coins: the whole draw order of an update, replacements included."""
    rng, criteria, make = _case(seed, wide)
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


def _check_batch_fits(seed, wide=False):
    rng, criteria, make = _case(seed, wide)
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


def _check_stream_tree(seed, wide=False):
    rng, criteria, make = _case(seed, wide)
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


@pytest.mark.parametrize("check", [_check_stream_forest, _check_batch_fits,
                                   _check_stream_tree])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 40]))
def test_position_budget_grows_like_the_loop_reference(check, seed, budget):
    """At max_features "all" and p >= 3 the position budget cuts a round at
    fewer rows than a row budget of the same size would; the trees stay the
    reference's."""
    _with_budget(budget, lambda s: check(s, wide=True), seed)


def test_rounds_hold_at_most_the_position_budget():
    """A round searches at most the budget's (row, feature) positions, or
    one node alone that holds more: here first the root, 60 rows at 4
    features, then rounds of several nodes."""
    rng = np.random.default_rng(3)
    data = Dataset(rng.integers(0, 4, (60, 4)).astype(np.float64), rng.integers(0, 3, 60), 3)
    tree = streamforest.tree
    search, rounds = tree._search, []

    def recorded(data, rank, rows, weights, cand, bounds):
        rounds.append((bounds.size - 1, rows.size * cand.shape[1]))
        return search(data, rank, rows, weights, cand, bounds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_PAIRS_PER_PASS", 40)
        mp.setattr(tree, "_search", recorded)
        DecisionTree(SplitCriteria(max_features="all")).fit(data)
    assert all(positions <= 40 or nodes == 1 for nodes, positions in rounds)
    assert rounds[0] == (1, 240) and any(nodes > 1 for nodes, _ in rounds)


def _search_nodes(data: Dataset, nodes, cand, weights=None) -> list:
    """`best_split`'s result for each node of one batched `tree._search`,
    as the grower runs it: node u holds the rows ``nodes[u]``, each counted
    ``weights[u][i]`` times (once by default), over the features
    ``cand[u]``."""
    tree = streamforest.tree
    rows = np.concatenate(nodes)
    weights = np.ones(rows.size) if weights is None else np.concatenate(weights)
    bounds = np.cumsum([0] + [len(node) for node in nodes])
    (node, feature, threshold, _, _, *sums), _ = tree._search(
        data, tree._ranks(data.features), rows, weights.astype(np.int32),
        np.sort(cand, axis=1), bounds)
    found = [None] * len(nodes)
    for u, f, t, d in zip(node.tolist(), feature.tolist(), threshold.tolist(),
                          tree._decreases(*sums)):
        found[u] = (f, t, d)
    return found


@pytest.mark.parametrize("j", [1, 3, 6, 9])
@pytest.mark.parametrize("extra", [0, 1])
def test_packed_sorts_match_the_oracle_at_the_position_mask_edge(j, extra):
    """Calls of 2**j and 2**j + 1 positions, where the position field of the
    packed sort words is exactly full or one bit wider, over tied values:
    one node over one feature, and the same rows cut into nodes searched
    in one batched call."""
    e = 2**j + extra
    rng = np.random.default_rng(j)
    data = Dataset(_values(rng, (e, 2)), rng.integers(0, 3, e), 3)
    rows = rng.permutation(e)
    starts = np.unique(np.append(0, rng.integers(1, e, 3)))
    cand = rng.integers(0, 2, (starts.size, 1))
    nodes = [(rows, [0]), (rows, [1])] + list(zip(np.split(rows, starts[1:]), cand))
    found = [best_split(data, rows, [0]), best_split(data, rows, [1])]
    found += _search_nodes(data, np.split(rows, starts[1:]), cand)
    for got, (node, features) in zip(found, nodes):
        oracle = brute_force_best_split(data, node, features)
        if oracle is None:
            assert got is None
        else:
            assert got[:2] == oracle[:2] and got[2] == pytest.approx(oracle[2], abs=1e-12)


def test_position_bits_cover_exactly_63_bits():
    """A key field and a position field of 63 bits together pack; one bit
    more raises ValueError naming the sizes."""
    bits = streamforest.tree._position_bits
    assert bits(1, 1) == 1 and bits(2**20, 2) == 1 and bits(5, 2**15) == 15
    assert bits(5, 2**15 + 1) == 16
    assert bits(2**48, 2**15) == 15  # 48 + 15 bits
    assert bits(2**62, 2) == 1  # 62 + 1 bits
    key, position = 2**48 - 1, 2**15 - 1
    assert (key << 15 | position) < 2**63  # the largest word stays nonnegative
    for keys, positions in ((2**48 + 1, 2**15), (2**48, 2**15 + 1), (2**62 + 1, 2),
                            (2, 2**62 + 1)):
        with pytest.raises(ValueError, match=f"{keys} keys and {positions} positions"):
            bits(keys, positions)


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
    batched = _search_nodes(data, nodes, cand)
    assert len(batched) == len(nodes)
    for got, rows, features in zip(batched, nodes, cand):
        assert got == best_split(data, rows, features)
        assert got == loop_best_split(data, rows, features)
        oracle = brute_force_best_split(data, rows, features)
        if oracle is None:
            assert got is None
        else:
            assert got[:2] == oracle[:2] and got[2] == pytest.approx(oracle[2], abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_search_cut_is_the_routed_partition(seed):
    """For every split `_search` returns, the rows before its cut in the
    search's value order are exactly the node's rows that route left, at
    or below the threshold, and the rows after it exactly the others;
    over duplicates, adjacent floats, both signed zeros, integer weights
    and several features per node."""
    rng = np.random.default_rng(seed)
    n, p, k = int(rng.integers(8, 60)), int(rng.integers(2, 7)), int(rng.integers(2, 5))
    data = Dataset(_values(rng, (n, p)), rng.integers(0, k, n), k)
    nodes = [rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
             for _ in range(int(rng.integers(1, 6)))]
    m = int(rng.integers(2, p + 1))
    cand = np.sort([rng.choice(p, m, replace=False) for _ in nodes], axis=1)
    rows = np.concatenate(nodes)
    weights = rng.integers(1, int(rng.choice([2, 5, 1000])) + 1, rows.size).astype(np.int32)
    bounds = np.cumsum([0] + [node.size for node in nodes])
    tree = streamforest.tree
    (node, feature, threshold, win, n_left, *_), order = tree._search(
        data, tree._ranks(data.features), rows, weights, cand, bounds)
    for u, f, t, w, cut in zip(node.tolist(), feature.tolist(), threshold.tolist(),
                               win.tolist(), n_left.tolist()):
        block = rows[order[w:w + nodes[u].size]]
        goes_left = data.features[nodes[u], f] <= t
        assert sorted(block[:cut]) == sorted(nodes[u][goes_left])
        assert sorted(block[cut:]) == sorted(nodes[u][~goes_left])


def _weighted_nodes(rng: np.random.Generator):
    """A dataset and nodes of distinct rows: heavy duplicate values, one
    constant feature, one label, a single distinct row and all rows, in
    random order; with each node's candidate features."""
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
    return data, nodes, cand


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_weighted_search_equals_search_over_repeated_rows(seed):
    """A batched search over distinct rows with integer weights returns,
    node by node, the very tuple of the search over each row repeated its
    weight times. Scaling a node's weights by up to 1e6 leaves the tuple
    unchanged too, as the integer sums stay exact: the counts, the sums of
    squares and the decrease all scale by one factor."""
    rng = np.random.default_rng(seed)
    data, nodes, cand = _weighted_nodes(rng)
    top = int(rng.choice([2, 5, 40]))
    weights = [rng.integers(1, top + 1, node.size) for node in nodes]
    batched = _search_nodes(data, nodes, cand, weights)
    assert len(batched) == len(nodes)
    scale = [int(rng.integers(1, 10**6 // top + 1)) for _ in nodes]
    scaled = _search_nodes(data, nodes, cand, [c * w for c, w in zip(scale, weights)])
    for got, heavy, rows, w, features in zip(batched, scaled, nodes, weights, cand):
        assert got == best_split(data, np.repeat(rows, w), features)
        assert heavy == got


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_weighted_search_matches_the_exact_oracle_at_large_weights(seed):
    """Unequal weights up to 1e6: each node's split is the exact rational
    oracle's, with the decrease to rounding."""
    rng = np.random.default_rng(seed)
    data, nodes, cand = _weighted_nodes(rng)
    weights = [rng.integers(1, 10**6 + 1, node.size) for node in nodes]
    for node, w in zip(nodes, weights):  # some light rows among the heavy ones
        w[rng.random(node.size) < 0.3] = 1
    batched = _search_nodes(data, nodes, cand, weights)
    for got, rows, w, features in zip(batched, nodes, weights, cand):
        assert got == _search_nodes(data, [rows], [features], [w])[0]
        oracle = brute_force_best_split(data, rows, features, weights=w)
        if oracle is None:
            assert got is None
        else:
            assert got[:2] == oracle[:2] and got[2] == pytest.approx(oracle[2], rel=1e-12)


def test_weighted_search_is_exact_up_to_the_weight_bound():
    """Weights summing to 2**31 - 1, the most a growth round takes, searched
    over several features at once: the int64 sums stay exact."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        data = Dataset(rng.choice([0.0, 1.0, 2.0, 3.0], size=(n, 5)),
                       rng.integers(0, 3, n), 3)
        weights = rng.integers(1, 2**31 // n, n)
        weights[0] += 2**31 - 1 - weights.sum()
        features = range(5)
        got = _search_nodes(data, [np.arange(n)], [features], [weights])[0]
        oracle = brute_force_best_split(data, np.arange(n), features, weights=weights)
        if oracle is None:
            assert got is None
        else:
            assert got[:2] == oracle[:2] and got[2] == pytest.approx(oracle[2], rel=1e-12)


def test_grow_rejects_a_round_at_the_weight_bound():
    """The grower bounds each round's weight below 2**31, which keeps
    `_search`'s integer sums exact: a node of two rows of weight 2**30 and
    different labels raises, and one a unit lighter splits."""
    data = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), 2)

    def grow(light):
        table = NodeTable(2)
        root = table.add_leaves([[2**30, light]])[0]
        streamforest.tree._grow(table, data, np.arange(2),
                                np.array([2**30, light], dtype=np.int32), [0, 2], [root],
                                SplitCriteria(), np.random.default_rng(0))
        return table, root

    with pytest.raises(ValueError, match="weights must sum to less than"):
        grow(2**30)
    table, root = grow(2**30 - 1)
    assert (table.feature[root], table.threshold[root]) == (0, 0.5)
    assert table.counts[table.left[root]].tolist() == [2**30, 0]


def test_every_grower_call_lists_one_nonempty_range_per_node():
    """`_grow` takes each listed leaf to hold at least one row. Every caller
    keeps to that: a tree fit, forest fits, stream tree updates and stream
    forest updates with forced replacements, with bootstrap on and off, on
    batches down to one row."""
    tree, calls = streamforest.tree, []
    grow = tree._grow

    def spy(table, data, rows, weights, bounds, nodes, criteria, rng):
        calls.append((np.array(bounds), len(nodes)))
        return grow(table, data, rows, weights, bounds, nodes, criteria, rng)

    rng = np.random.default_rng(8)

    def make(n):
        return Dataset(rng.integers(0, 3, (n, 2)).astype(np.float64), rng.integers(0, 3, n), 3)

    expected = 5  # a fit, a stream tree's first batch and its three updates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "_grow", spy)
        DecisionTree().fit(make(40))
        stream = StreamTree(make(1), 3, seed=3)
        for n in (1, 20, 3):
            stream.update(make(n))
        for bootstrap in (True, False):
            BatchForest(4, seed=1, bootstrap=bootstrap).fit(make(40))
            forest = StreamForest(make(30), 3, n_trees=4, replace_count=2, seed=2,
                                  bootstrap=bootstrap)
            expected += 2
            for n, coin in ((1, True), (20, None), (5, True), (1, False)):
                forest.update(make(n), force_replacement=coin)
                # The update's own call, and one more for its replacements.
                expected += 1 + bool(forest.last_replacement["replaced"])
    assert len(calls) == expected
    for bounds, n_nodes in calls:
        assert bounds.size == n_nodes + 1 and bounds[0] == 0 and (np.diff(bounds) > 0).all()


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("n", [1, 2, 7, 100])
@pytest.mark.parametrize("count", [1, 3, 100])
def test_samples_are_the_loop_reference_rows(count, n, bootstrap):
    """`_samples` gives each tree's rows of the loop reference's one draw as
    distinct rows in increasing order with their repeat counts, in its
    documented dtypes, and leaves the generator where the loop does."""
    for seed in range(3):
        ours, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = streamforest.tree._samples(ours, count, n, bootstrap)
        for a, b in zip(got, distinct_rows(loop_samples(loop, count, n, bootstrap))):
            assert np.array_equal(a, b)
        rows, weights, bounds = got
        assert rows.dtype == (np.int32 if bootstrap else np.intp)
        assert weights.dtype == np.int32 and bounds.dtype == np.intp
        assert ours.bit_generator.state == loop.bit_generator.state


def test_grow_queues_exactly_the_leaves_that_can_split():
    """Hand-built leaves back to back in the buffers, under
    min_samples_split=3: two pure leaves of different labels that meet at a
    range boundary, a leaf whose only label change is at its last row, a
    one-row leaf of weight 5, a mixed leaf of two rows and weight 2, and one
    of two rows and weight 3. Only the third and the last can split, and
    only they are searched: each searched node draws p doubles."""
    labels = [0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0]
    weights = np.array([1] * 9 + [5, 1, 1, 1, 2], dtype=np.int32)
    bounds = [0, 3, 6, 9, 10, 12, 14]
    rows = np.arange(len(labels))
    data = Dataset(np.repeat(rows[:, None], 2, axis=1).astype(np.float64), labels, 2)
    table = NodeTable(2)
    leaves = table.add_leaves([np.bincount(labels[a:b], weights[a:b], minlength=2)
                               for a, b in zip(bounds[:-1], bounds[1:])])
    rng = np.random.default_rng(0)
    streamforest.tree._grow(table, data, rows, weights, bounds, leaves,
                            SplitCriteria(min_samples_split=3, max_features=1), rng)
    assert (table.left[leaves] > leaves).tolist() == [False, False, True, False, False, True]
    searched = np.random.default_rng(0)
    searched.random(2 * 2)
    assert rng.bit_generator.state == searched.bit_generator.state


def test_batched_search_rejects_bad_layouts():
    data = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 1]), 2)
    with pytest.raises(ValueError):
        best_split(data, [0, 1, 2], [1])  # no such feature
    # Row and feature indices must be integers (or whole floats) within
    # range, or a negative row would read from the end, a fraction or a bool
    # would be cast to an index, and a row past the end would raise numpy's
    # IndexError. The error names the argument.
    for indices, features, error, name in [
            ([-1, 0], [0], ValueError, "indices"),
            ([0, 3], [0], ValueError, "indices"),
            ([0.5, 1], [0], ValueError, "indices"),
            (["0", "1"], [0], TypeError, "indices"),
            ([True, False], [0], TypeError, "indices"),
            ([0, 1], ["0"], TypeError, "candidate_features"),
            ([0, 1], [True], TypeError, "candidate_features"),
            ([0, 1], [-1], ValueError, "candidate_features"),
            ([0, 1], [0.5], ValueError, "candidate_features"),
            # A bool beside integers, which numpy would read as 0 or 1.
            ([0, True, 2], [0], TypeError, "indices"),
            ([0, np.True_, 2], [0], TypeError, "indices"),
            ([0, 1], [0, True], TypeError, "candidate_features"),
            # Not one list, which numpy would index by or fail on.
            ([[0, 1], [2, 2]], [0], ValueError, r"1-D lists, not of shapes \(2, 2\)"),
            (2, [0], ValueError, r"1-D lists, not of shapes \(\)"),
            ([0, 1], [[0], [0]], ValueError, r"\(2,\) and \(2, 1\)")]:
        with pytest.raises(error, match=name):
            best_split(data, indices, features)
    # Whole floats are integers, as `_check_integer` takes them.
    found = best_split(data, [0, 1, 2], [0])
    assert best_split(data, [0.0, 1.0, 2.0], [0.0]) == found


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (9, 1), (40, 3), (100, 60)])
@pytest.mark.parametrize("seed", range(3))
def test_ranks_are_each_columns_dense_ranks(shape, seed):
    """`_ranks` ranks each column as `np.unique`'s inverse does: over heavy
    ties, -0.0 beside 0.0 (one value), +-1e308, adjacent floats, one row
    and one column; and over distinct values, and for a Fortran-ordered
    copy."""
    rng = np.random.default_rng(seed)
    pool = [-1e308, -2.5, -0.0, 0.0, 1.0, math.nextafter(1.0, 2.0), 1e308]
    for X in (rng.choice(pool, size=shape), rng.normal(size=shape)):
        expected = np.empty(shape, dtype=np.int32)
        for j, column in enumerate(X.T):
            expected[:, j] = np.unique(column, return_inverse=True)[1]
        for layout in (X, np.asfortranarray(X)):
            got = streamforest.tree._ranks(layout)
            assert got.dtype == np.int32 and np.array_equal(got, expected)


def test_ranges_are_the_ranges_back_to_back():
    """`_ranges` against a list comprehension, over hand-picked layouts
    with zero-length ranges and with no range at all, then random ones."""
    rng = np.random.default_rng(0)
    layouts = [([], []), ([4], [0]), ([3, 7, 0], [0, 0, 0]), ([5, 2, 9, 2], [3, 0, 1, 2])]
    layouts += [(rng.integers(0, 50, n), rng.integers(0, 4, n)) for n in rng.integers(0, 12, 50)]
    for starts, sizes in layouts:
        starts, sizes = np.asarray(starts, dtype=np.int64), np.asarray(sizes, dtype=np.int64)
        bounds, at = streamforest.tree._ranges(starts, sizes)
        assert bounds.tolist() == [0, *itertools.accumulate(sizes.tolist())]
        assert at.tolist() == [i for a, n in zip(starts.tolist(), sizes.tolist())
                               for i in range(a, a + n)]


# numpy functions written in Python over an ndarray method or a ufunc: each
# costs 0.5-2 µs more per call than the direct form, which at update sizes
# is a growth round's cost. None of them may return to the code that runs
# once per round, routing block or bootstrap draw.
NUMPY_WRAPPERS = {"repeat", "cumsum", "flatnonzero", "searchsorted", "stack", "diff", "append",
                  "take_along_axis", "put_along_axis", "take", "sort", "argsort", "tile",
                  "broadcast_to"}


@pytest.mark.parametrize("name", ["_search", "_best_candidates", "_grow", "_ranges", "_ranks",
                                  "_class_counts", "_samples", "_route_and_count",
                                  "_descend"])
def test_round_code_calls_no_numpy_wrapper(name):
    source = textwrap.dedent(inspect.getsource(getattr(streamforest.tree, name)))
    called = [node.func.attr for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]
    assert called, "the walk found no np call"
    assert sorted(NUMPY_WRAPPERS.intersection(called)) == []
