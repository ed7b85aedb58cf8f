"""The node table: forest-wide routing against a loop reference, tree
copies, the sibling-pair layout, and the node count after forest updates."""

import copy
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamforest import (
    BatchForest,
    Dataset,
    DecisionTree,
    NodeTable,
    SplitCriteria,
    StreamForest,
    StreamTree,
    gen_synthetic,
    load_forest,
    save_forest,
)
import streamforest.tree
from streamforest.tree import _descend, _route_and_count

from helpers import (
    distinct_rows,
    iter_nodes,
    loop_route,
    random_dataset,
    trees_equal,
    walk_to_leaf,
)

DATA = Path(__file__).parent / "data"


def _forest_and_batch(seed: int):
    """A small stream forest grown on random data, and a random batch with
    (tree, row) pairs that repeat rows the way a bootstrap does."""
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n=int(rng.integers(30, 120)))
    k, p = data.n_classes, data.n_features
    n_trees = int(rng.integers(1, 5))
    forest = StreamForest(data, k, n_trees=n_trees, seed=seed,
                          bootstrap=bool(rng.integers(0, 2)))
    for _ in range(int(rng.integers(0, 3))):
        forest.update(random_dataset(rng, n=int(rng.integers(5, 40)), p=p, k=k))
    batch = random_dataset(rng, n=int(rng.integers(1, 40)), p=p, k=k)
    sizes = rng.integers(0, 2 * batch.n_samples + 1, n_trees)
    tree_of = np.repeat(np.arange(n_trees), sizes)
    rows = rng.integers(0, batch.n_samples, tree_of.size)
    return forest, batch, rows, tree_of


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_router_matches_loop_reference(seed):
    forest, batch, rows, tree_of = _forest_and_batch(seed)
    table, roots = forest._table, forest._roots
    X, y = batch.features, batch.labels
    root_views = [table.view(r) for r in roots]
    leaf_of, increments, touched = loop_route(root_views, rows, tree_of, X, y,
                                              batch.n_classes)

    # The same leaf per (tree, row) as a scalar walk, also for prediction.
    for i, (t, r) in enumerate(zip(tree_of, rows)):
        assert leaf_of[i] == walk_to_leaf(root_views[t], X[r])
    leaves = _descend(table, roots[tree_of], rows, X)
    assert [table.view(i) for i in leaves] == leaf_of

    before = table.counts[: table.size].copy()
    pairs = distinct_rows([rows[tree_of == t] for t in range(roots.size)])
    blocked = copy.deepcopy(table)
    got = _route_and_count(table, roots, *pairs, X, y)

    # The same per-node counts as a per-node bincount loop.
    expected = before.copy()
    for node, counts in increments:
        expected[node._id] += counts
    assert np.array_equal(table.counts[: table.size], expected)

    # Touched leaves in recursive left-first order, tree by tree, each
    # with its distinct pairs in increasing row order.
    assert len(got) == len(touched)
    assert [table.view(i) for i in got.leaves] == [leaf for leaf, _ in touched]
    _assert_groups_hold_the_pairs(got, touched, rows)

    # Routed in blocks of a few pairs, the same leaves, rows, weights and
    # counts.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streamforest.tree, "_PAIRS_PER_PASS", 3)
        in_blocks = _route_and_count(blocked, roots, *pairs, X, y)
    for name in ("leaves", "bounds", "rows", "weights"):
        assert np.array_equal(getattr(in_blocks, name), getattr(got, name))
    assert np.array_equal(blocked.counts[: blocked.size], expected)


def _assert_groups_hold_the_pairs(got, touched, rows):
    """Leaf group u of the router's result holds the loop reference's pairs
    of touched leaf u: each distinct row once, in increasing order, with its
    number of pairs as its weight. The weights add up to the routed pairs."""
    assert got.bounds[0] == 0 and got.bounds[-1] == got.rows.size == got.weights.size
    for u, (_, pairs) in enumerate(touched):
        group = slice(got.bounds[u], got.bounds[u + 1])
        distinct, repeats = np.unique(rows[pairs], return_counts=True)
        assert got.rows[group].tolist() == distinct.tolist()
        assert got.weights[group].tolist() == repeats.tolist()
        assert np.repeat(got.rows[group], got.weights[group]).tolist() == \
            np.sort(rows[pairs]).tolist()
    assert int(got.weights.sum()) == rows.size


def test_router_orders_leaves_deeper_than_one_word():
    """Two caterpillar trees 150 levels deep, one leaning left and one
    right: the branch bits of a path span three 63-bit words. Routed in
    blocks of 5 pairs as well, where blocks need different numbers of
    words."""
    for budget in (None, 5):
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(streamforest.tree, "_PAIRS_PER_PASS", budget)
            _check_deep_routing()


def _check_deep_routing():
    depth, k = 150, 2
    table = NodeTable(k)
    roots = []
    for lean_left in (False, True):
        node = table.add_leaf([0, 0])
        roots.append(node)
        for level in range(depth):
            threshold = level if not lean_left else depth - 1 - level
            left, right = table.split([node], [0], [threshold + 0.5], [[0, 0]], [[0, 0]])
            node = int(right[0] if not lean_left else left[0])
    rng = np.random.default_rng(12)
    X = rng.permutation(depth + 1).astype(np.float64)[:, None]
    y = rng.integers(0, k, depth + 1)
    tree_of = np.repeat([0, 1], [2 * depth, depth])
    rows = rng.integers(0, depth + 1, tree_of.size)
    root_views = [table.view(r) for r in roots]
    _, increments, touched = loop_route(root_views, rows, tree_of, X, y, k)
    before = table.counts[: table.size].copy()
    pairs = distinct_rows([rows[tree_of == t] for t in range(len(roots))])
    got = _route_and_count(table, np.array(roots), *pairs, X, y)
    for node, counts in increments:
        before[node._id] += counts
    assert np.array_equal(table.counts[: table.size], before)
    assert [table.view(i) for i in got.leaves] == [leaf for leaf, _ in touched]
    _assert_groups_hold_the_pairs(got, touched, rows)


def _assert_no_dead_nodes(forest):
    assert forest._table.size == forest.node_count()
    assert sum(t.node_count() for t in forest.trees) == forest.node_count()


def test_table_holds_exactly_the_live_nodes():
    data = gen_synthetic("blobs", 700, noise=0.8, seed=3, n_classes=3, n_features=3)
    forest = StreamForest(data.subset(range(100)), 3, n_trees=6, replace_count=2, seed=4)
    _assert_no_dead_nodes(forest)
    for i, coin in enumerate((True, False, None, True, True, None), start=1):
        forest.update(data.subset(range(100 * i, 100 * (i + 1))), force_replacement=coin)
        assert forest._table.size == forest.node_count()
        _assert_no_dead_nodes(forest)


def _sized_model(case, tmp_path):
    """A model whose table was just built as `case` says."""
    data = gen_synthetic("blobs", 400, noise=0.8, seed=5, n_classes=3, n_features=3)
    if case == "DecisionTree.fit":
        return DecisionTree(seed=6).fit(data)
    if case == "StreamTree":
        return StreamTree(data, 3, seed=6)
    if case == "BatchForest.fit":
        return BatchForest(5, seed=6).fit(data)
    if case == "v1 load":
        return load_forest(DATA / "v1_stream_forest.json")
    forest = StreamForest(data.subset(range(100)), 3, n_trees=5, replace_count=2, seed=6)
    if case == "StreamForest":
        return forest
    forest.update(data.subset(range(100, 300)), force_replacement=True)
    if case == "replacement":
        return forest
    forest.update(data.subset(range(300, 400)), force_replacement=False)
    save_forest(forest, tmp_path / "forest.npz")
    return load_forest(tmp_path / "forest.npz")


@pytest.mark.parametrize("case", ["DecisionTree.fit", "StreamTree", "BatchForest.fit",
                                  "StreamForest", "replacement", "v1 load", "v5 load"])
def test_columns_hold_exactly_the_nodes(case, tmp_path):
    """A fitted, replaced or loaded table has no spare slots, and holds
    its class counts as int32; only updates grow a table by doubling."""
    table = _sized_model(case, tmp_path)._table
    assert [len(getattr(table, name)) for name in NodeTable.COLUMNS] == [table.size] * 4
    assert table.counts.dtype == np.int32


def test_copy_trees_keeps_structure():
    rng = np.random.default_rng(8)
    data = random_dataset(rng, n=150, p=3, k=3)
    forest = BatchForest(3, seed=9).fit(data)
    source = forest._table
    originals = [t.root for t in forest.trees]
    leaf = forest.trees[1].apply(data.features[0])
    target = NodeTable(3)
    target.add_leaf([1, 2, 3])  # ids need not start at 0
    roots = target.copy_trees(source, forest._roots)
    assert roots.tolist() == [1, 2, 3] and target.size == 1 + source.size
    assert all(trees_equal(target.view(r), o) for r, o in zip(roots, originals))
    # Views are values: those of the source keep reading it.
    assert leaf == source.view(leaf._id) and leaf != target.view(leaf._id)


def _model(case, tmp_path):
    """A tree or forest built or loaded as `case` says."""
    data = gen_synthetic("blobs", 480, noise=0.8, seed=15, n_classes=3, n_features=3)
    batches = [data.subset(range(60 * i, 60 * (i + 1))) for i in range(8)]
    if case == "tree fit":
        return DecisionTree(SplitCriteria(max_features="sqrt"), seed=16).fit(data)
    if case == "stream tree updates":
        tree = StreamTree(batches[0], 3, seed=17)
        for batch in batches[1:]:
            tree.update(batch)
        return tree
    if case == "batch forest fit":
        return BatchForest(7, seed=18).fit(data)
    if case in ("v1 load", "v3 load", "v4 load"):
        return load_forest(DATA / {"v1 load": "v1_stream_forest.json",
                                   "v3 load": "v3_stream_forest.npz",
                                   "v4 load": "v4_stream_forest.npz"}[case])
    forest = StreamForest(batches[0], 3, n_trees=6, replace_count=2, seed=19)
    for batch, coin in zip(batches[1:], (True, None, False, True, None, True, None)):
        forest.update(batch, force_replacement=coin)
    if case == "v5 load":
        save_forest(forest, tmp_path / "forest.npz")
        return load_forest(tmp_path / "forest.npz")
    return forest


@pytest.mark.parametrize("case", ["tree fit", "stream tree updates", "batch forest fit",
                                  "stream forest updates", "v1 load", "v3 load", "v4 load",
                                  "v5 load"])
def test_right_child_is_the_left_childs_sibling(case, tmp_path):
    """In every table an internal node's children are the pair (left,
    left + 1), after it. `export` lays the trees out breadth-first, roots
    first, which is the order a fit grows them in, and a copy of that
    holds the same trees."""
    model = _model(case, tmp_path)
    table, roots = model._table, model._roots
    left = table.left[: table.size]
    inner = np.flatnonzero(left >= 0)
    assert (inner < left[inner]).all() and (left[inner] < table.size - 1).all()
    columns = table.export(roots)
    if case.endswith("fit"):
        assert np.array_equal(columns["left"], left)
    copy = NodeTable(table.n_classes)
    assert copy.append(columns, len(roots)).tolist() == list(range(len(roots)))
    assert all(trees_equal(copy.view(i), table.view(r)) for i, r in enumerate(roots))


def test_single_row_and_one_tree_paths_agree():
    data = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, 0, 1]), 2)
    forest = StreamForest(data, 2, n_trees=1, bootstrap=False, seed=0)
    tree = forest.trees[0]
    for x in ([-1.0], [0.5], [1.5], [2.5], [9.0]):
        assert forest.predict_one(x) == tree.predict_one(x) == forest.predict([x])[0]
    assert all(n.class_counts.flags.writeable is False for n in iter_nodes(tree.root))


def test_forest_survives_pickling():
    data = gen_synthetic("blobs", 300, noise=0.8, seed=10, n_classes=3)
    forest = StreamForest(data.subset(range(100)), 3, n_trees=4, seed=11)
    forest.update(data.subset(range(100, 200)))
    copy = pickle.loads(pickle.dumps(forest))
    assert np.array_equal(copy.predict(data.features), forest.predict(data.features))
    batch = data.subset(range(200, 300))
    for model in (forest, copy):
        model.update(batch, force_replacement=True)
    assert all(trees_equal(a.root, b.root)
               for a, b in zip(forest.trees, copy.trees))
