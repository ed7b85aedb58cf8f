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
from streamforest.tree import _descend, _levels, _majority_vote, _route_and_count

from helpers import (
    distinct_rows,
    iter_nodes,
    loop_route,
    random_dataset,
    trees_equal,
    walk_to_leaf,
)
from test_snapshot import write_v2_document

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


def test_descend_reads_int32_rows_like_intp_rows():
    """Bootstrap rows come as int32; the flat row offsets must read the same
    features from them as from intp rows when a row holds several."""
    data = gen_synthetic("blobs", 200, noise=1.0, seed=48, n_classes=4, n_features=5)
    forest = BatchForest(4, SplitCriteria(max_features="sqrt"), seed=49).fit(data)
    table, roots = forest._table, forest._roots
    rng = np.random.default_rng(50)
    tree_of = rng.integers(0, roots.size, 500)
    rows = rng.integers(0, data.n_samples, 500)
    X = data.features
    leaves = _descend(table, roots[tree_of], rows.astype(np.intp), X)
    assert np.array_equal(_descend(table, roots[tree_of], rows.astype(np.int32), X), leaves)
    views = [table.view(r) for r in roots]
    assert [table.view(i) for i in leaves] == [walk_to_leaf(views[t], X[r])
                                               for t, r in zip(tree_of, rows)]


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


def _caterpillars(table, depth, features=(0, 0)) -> list[int]:
    """Grow two caterpillar trees `depth` levels deep in `table`, one
    leaning right on feature ``features[0]`` and one leaning left on
    ``features[1]``, with zero counts: level l of either sends the values
    0..l one way and the larger ones the other, so value v of 0..depth ends
    at depth ``min(v + 1, depth)`` of the first tree and at ``min(depth -
    v + 1, depth)`` of the second. Returns their roots."""
    k = table.n_classes
    roots = []
    for lean_left, feature in zip((False, True), features):
        node = int(table.add_leaves(np.zeros((1, k), dtype=np.int32))[0])
        roots.append(node)
        for level in range(depth):
            threshold = level if not lean_left else depth - 1 - level
            left = table.split([node], [feature], [threshold + 0.5],
                               np.zeros((2, k), dtype=np.int32))
            node = int(left[0]) + (not lean_left)
    return roots


def _check_deep_routing():
    depth, k = 150, 2
    table = NodeTable(k)
    roots = _caterpillars(table, depth)
    rng = np.random.default_rng(12)
    X = rng.permutation(depth + 1).astype(np.float64)[:, None]
    y = rng.integers(0, k, depth + 1)
    tree_of = np.repeat([0, 1], [2 * depth, depth])
    rows = rng.integers(0, depth + 1, tree_of.size)
    _check_routing(table, roots, rows, tree_of, X, y)


def _check_routing(table, roots, rows, tree_of, X, y):
    """The router's counts, touched leaves and their groups match
    `loop_route` for row ``rows[i]`` entering tree ``tree_of[i]``."""
    root_views = [table.view(r) for r in roots]
    _, increments, touched = loop_route(root_views, rows, tree_of, X, y, table.n_classes)
    before = table.counts[: table.size].copy()
    pairs = distinct_rows([rows[tree_of == t] for t in range(len(roots))])
    got = _route_and_count(table, np.array(roots), *pairs, X, y)
    for node, counts in increments:
        before[node._id] += counts
    assert np.array_equal(table.counts[: table.size], before)
    assert [table.view(i) for i in got.leaves] == [leaf for leaf, _ in touched]
    _assert_groups_hold_the_pairs(got, touched, rows)


@pytest.mark.parametrize("depth, n_trees", [
    (63, 1), (62, 2), (60, 5),     # the deepest pairs fill the first key word exactly
    (126, 1), (125, 2), (123, 5),  # and the second one
    (55, 2),  # keys and pair index fill one word exactly: one packed sort
    (56, 2),  # keys fit one word, but the pair index is one bit short: lexsort
])
def test_router_at_the_key_word_boundaries(depth, n_trees):
    """The first n_trees of two caterpillar trees `depth` levels deep and
    three one-leaf roots, every tree taking every row, some rows several
    times, so that the deepest pairs reach their leaves at `depth`. The
    first key word holds the tree_bits bits of the tree index and the
    branch bits of the first 63 - tree_bits levels, each later one 63
    levels; the pair index, of (2 depth + 1).bit_length() bits at two
    trees, fits the bits the first word leaves over at depth 55 but not at
    56. Routed whole and in blocks of 3 pairs, where some blocks hold only
    pairs that reach a leaf as their word fills."""
    k = 2
    rng = np.random.default_rng(depth)
    X = rng.permutation(depth + 1).astype(np.float64)[:, None]
    y = rng.integers(0, k, depth + 1)
    tree_of = np.repeat(np.arange(n_trees), 2 * depth + 1)
    rows = np.concatenate([np.concatenate((np.arange(depth + 1),
                                           rng.integers(0, depth + 1, depth)))
                           for _ in range(n_trees)])
    for budget in (None, 3):
        table = NodeTable(k)
        roots = _caterpillars(table, depth)
        roots += table.add_leaves(np.zeros((3, k), dtype=np.int32)).tolist()
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(streamforest.tree, "_PAIRS_PER_PASS", budget)
            _check_routing(table, roots[:n_trees], rows, tree_of, X, y)


def test_deep_and_shallow_trees_descend_as_the_scalar_walk():
    """Two caterpillar trees 150 levels deep, with a leaf at every depth
    from 1 to 150 and so at every remainder of the levels a descent steps
    between drops, beside two single-leaf roots, in one forest: its
    `predict` and `predict_one`, and each tree's `predict`, label every row
    as `DecisionTree._leaf_id`'s scalar walk does, also in blocks of 3
    pairs. Every leaf has a class of its own within its tree, so a pair
    stopped at the wrong depth changes its label."""
    depth = 150
    table = NodeTable(depth + 1)
    roots = [*_caterpillars(table, depth, features=(0, 1))]
    roots += table.add_leaves(np.eye(depth + 1, dtype=np.int32)[[3, 7]]).tolist()
    for root in roots[:2]:
        nodes = np.concatenate(_levels(table.left, [root]))
        table.counts[nodes[table.left[nodes] == nodes]] = np.eye(depth + 1, dtype=np.int32)
    forest = BatchForest(len(roots))
    forest._table, forest._roots = table, np.array(roots)
    forest.n_classes, forest.n_features = table.n_classes, 2
    rng = np.random.default_rng(13)
    X = np.stack((rng.permutation(depth + 1), rng.permutation(depth + 1)), axis=1)
    X = np.concatenate((X, [[-1.0, depth + 1.0], [depth + 1.0, -1.0]]))
    walked = np.array([[table.counts[tree._leaf_id(x)].argmax() for x in X]
                       for tree in forest.trees])
    assert [np.unique(labels).size for labels in walked] == [depth + 1, depth + 1, 1, 1]
    expected = _majority_vote(walked, table.n_classes)
    for budget in (None, 3):
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(streamforest.tree, "_PAIRS_PER_PASS", budget)
            assert np.array_equal(forest.predict(X), expected)
            assert [forest.predict_one(x) for x in X] == expected.tolist()
            for tree, labels in zip(forest.trees, walked):
                assert np.array_equal(tree.predict(X), labels)


def _self_loop_table(case, tmp_path):
    """A table and its roots, last written as `case` says."""
    data = gen_synthetic("blobs", 400, noise=0.8, seed=20, n_classes=3, n_features=3)
    if case in ("add_leaves", "split"):
        table = NodeTable(3)
        table.add_leaves(np.arange(9).reshape(3, 3))
        if case == "split":
            table.split([1], [2], [0.5], np.ones((2, 3), dtype=np.int32))
        return table, np.arange(3)
    if case == "append":
        source = BatchForest(4, seed=21).fit(data)
        table = NodeTable(3)
        table.add_leaves([[1, 2, 3]])
        return table, table.append(source._table.export(source._roots), 4)
    if case in ("v1 load", "v3 load", "v4 load"):
        model = load_forest(DATA / {"v1 load": "v1_stream_forest.json",
                                    "v3 load": "v3_stream_forest.npz",
                                    "v4 load": "v4_stream_forest.npz"}[case])
        return model._table, model._roots
    forest = StreamForest(data.subset(range(100)), 3, n_trees=5, replace_count=2, seed=22)
    forest.update(data.subset(range(100, 200)), force_replacement=case == "replacement")
    if case == "trim":
        forest.update(data.subset(range(200, 300)), force_replacement=False)
        forest._table.trim()
    if case == "v2 load":
        write_v2_document(forest, tmp_path / "forest.json")
        forest = load_forest(tmp_path / "forest.json")
    if case == "v5 load":
        save_forest(forest, tmp_path / "forest.npz")
        forest = load_forest(tmp_path / "forest.npz")
    return forest._table, forest._roots


@pytest.mark.parametrize("case", ["add_leaves", "split", "append", "trim", "replacement",
                                  "v1 load", "v2 load", "v3 load", "v4 load", "v5 load"])
def test_leaves_are_self_loops_and_export_as_minus_one(case, tmp_path):
    """After every write, a leaf of the table links to itself with feature
    0 and threshold +inf, and every other node links further on; `export`
    writes each of those leaves as left = feature = -1, threshold 0.0."""
    table, roots = _self_loop_table(case, tmp_path)
    ids, n = np.arange(table.size), table.size
    left, feature, threshold = table.left[:n], table.feature[:n], table.threshold[:n]
    leaf = left == ids
    assert leaf.any() and (left[~leaf] > ids[~leaf]).all()
    assert (feature[leaf] == 0).all() and (threshold[leaf] == np.inf).all()
    assert np.isfinite(threshold[~leaf]).all()
    columns = table.export(roots)
    exported = columns["left"] == -1
    assert exported.sum() == leaf[np.concatenate(_levels(table.left, roots))].sum()
    assert (columns["feature"][exported] == -1).all()
    assert (columns["threshold"][exported] == 0.0).all()
    assert (columns["left"][~exported] > np.flatnonzero(~exported)).all()


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


def test_split_writes_child_counts_as_sibling_pairs():
    """Rows 2i and 2i + 1 of the counts `split` takes become the left and
    the right child of ``ids[i]``, at ``left[i]`` and ``left[i] + 1``, and
    the ids it returns are the left ones."""
    table = NodeTable(3)
    leaves = table.add_leaves(np.arange(12).reshape(4, 3))
    ids = leaves[[2, 0, 3]]  # not in id order
    child_counts = np.arange(100, 118, dtype=np.int32).reshape(6, 3)
    left = table.split(ids, [0, 1, 2], [0.5, 1.5, 2.5], child_counts)
    assert left.tolist() == [4, 6, 8] and table.size == 10
    assert table.left[ids].tolist() == left.tolist()
    for i, node in enumerate(ids):
        view = table.view(node)
        assert (view.feature, view.threshold) == (i, i + 0.5)
        assert view.left == table.view(left[i]) and view.right == table.view(left[i] + 1)
        assert view.left.class_counts.tolist() == child_counts[2 * i].tolist()
        assert view.right.class_counts.tolist() == child_counts[2 * i + 1].tolist()
        assert view.left.is_leaf and view.right.is_leaf
    assert table.view(leaves[1]).is_leaf  # a leaf not listed stays one


def test_table_writes_are_all_or_nothing():
    """`split` and `add_leaves` check the shape of the counts before they
    write, so a bad call raises ValueError naming them and changes nothing:
    not ``size``, not a column."""
    table = NodeTable(2)
    table.add_leaves(np.array([[3, 1]]))
    before = {name: getattr(table, name)[: table.size].copy() for name in NodeTable.COLUMNS}
    for call, name in [
            (lambda: table.split([0], [0], [0.5], np.zeros((4, 2))), "child_counts"),
            (lambda: table.split([0], [0], [0.5], np.zeros((2, 3))), "child_counts"),
            (lambda: table.split([0], [0], [0.5], np.zeros(4)), "child_counts"),
            (lambda: table.add_leaves(np.zeros((2, 3))), "class_counts"),
            (lambda: table.add_leaves(np.zeros((2, 1))), "class_counts"),
            (lambda: table.add_leaves(np.zeros(2)), "class_counts")]:
        with pytest.raises(ValueError, match=name):
            call()
        assert table.size == 1
        for column, values in before.items():
            assert np.array_equal(getattr(table, column)[: table.size], values), column


def test_append_of_an_export_keeps_structure():
    rng = np.random.default_rng(8)
    data = random_dataset(rng, n=150, p=3, k=3)
    forest = BatchForest(3, seed=9).fit(data)
    source = forest._table
    originals = [t.root for t in forest.trees]
    leaf = forest.trees[1].apply(data.features[0])
    target = NodeTable(3)
    target.add_leaves([[1, 2, 3]])  # ids need not start at 0
    roots = target.append(source.export(forest._roots), forest._roots.size)
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
    """In every table a node is a leaf linking to itself, or an internal
    node whose children are the pair (left, left + 1), after it. `export`
    lays the trees out breadth-first, roots first, which is the order a fit
    grows them in, with -1 at leaves, and a copy of that holds the same
    trees."""
    model = _model(case, tmp_path)
    table, roots = model._table, model._roots
    left, ids = table.left[: table.size], np.arange(table.size)
    inner = left != ids
    assert (ids[inner] < left[inner]).all() and (left[inner] < table.size - 1).all()
    columns = table.export(roots)
    if case.endswith("fit"):
        assert np.array_equal(columns["left"], np.where(inner, left, -1))
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
