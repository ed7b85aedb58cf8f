"""Stream forest: per-tree bootstrap updates, probabilistic worst-tree
replacement, majority voting; batch forest baseline."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamforest import (
    BYTES_PER_NODE,
    BatchForest,
    BatchPlan,
    Dataset,
    DecisionTree,
    ExperimentConfig,
    FoldPlan,
    SplitCriteria,
    StreamForest,
    StreamTree,
    best_split,
    gen_synthetic,
    load_forest,
    make_batches,
    make_folds,
    model_size,
    save_forest,
)
import streamforest.tree
from streamforest.tree import _samples

from helpers import (
    check_count_conservation,
    kept_trees,
    plant_constant_trees,
    split_totals,
    trees_equal,
)


SQRT = SplitCriteria(max_features="sqrt")


def blobs(n, seed, noise=0.0, k=3):
    return gen_synthetic("blobs", n, noise=noise, seed=seed, n_classes=k)


def pure_class_batch(data: Dataset, cls: int, size: int) -> Dataset:
    idx = np.nonzero(data.labels == cls)[0][:size]
    assert idx.size == size
    return data.subset(idx)


class TestInit:
    def test_single_tree_forest_matches_its_tree(self):
        data = blobs(120, seed=1)
        f = StreamForest(data, 3, n_trees=1, bootstrap=False, seed=2)
        probes = np.random.default_rng(3).uniform(-4, 4, (60, 2))
        assert np.array_equal(f.predict(probes), f.trees[0].predict(probes))

    def test_bootstrap_diversifies_roots(self):
        data = blobs(100, seed=4, noise=0.5)
        f = StreamForest(data, 3, n_trees=100, seed=5)
        roots = {(t.root.feature, t.root.threshold) for t in f.trees}
        assert len(roots) >= 2

    def test_replace_count_above_tree_count_rejected(self):
        with pytest.raises(ValueError):
            StreamForest(blobs(50, seed=6), 3, n_trees=4, replace_count=5)

    def test_tree_count_fixed(self):
        f = StreamForest(blobs(80, seed=7), 3, n_trees=7, seed=8)
        assert len(f.trees) == 7 and f.batches_seen == 1

    def test_default_criteria_is_sqrt(self):
        f = StreamForest(blobs(50, seed=9), 3, n_trees=2)
        assert f.criteria.max_features == "sqrt"


class TestUpdate:
    def test_second_batch_draws_fair_replacement_coin(self):
        data = blobs(400, seed=10, noise=0.5)
        fired = 0
        for seed in range(60):
            f = StreamForest(data.subset(range(200)), 3, n_trees=3, seed=seed)
            f.update(data.subset(range(200, 400)))
            info = f.last_replacement
            assert info["threshold"] == 0.5
            assert info["fired"] == (info["u"] < 0.5)
            fired += info["fired"]
        assert 0.3 <= fired / 60 <= 0.7

    def test_zero_replacements_never_changes_trees(self):
        data = blobs(200, seed=11)
        f = StreamForest(data.subset(range(100)), 3, n_trees=4, replace_count=0, seed=12)
        before = f.trees
        f.update(data.subset(range(100, 200)), force_replacement=True)
        assert kept_trees(before, f.trees) == [0, 1, 2, 3]
        assert f.last_replacement["fired"] and f.last_replacement["replaced"] == []

    def test_forced_replacement_removes_worst_tree(self):
        data = blobs(600, seed=13)
        f = StreamForest(data.subset(range(100)), 3, n_trees=5, seed=14)
        plant_constant_trees(f, {3: 0})
        before = f.trees
        update = pure_class_batch(data, cls=1, size=60)
        f.update(update, force_replacement=True)
        info = f.last_replacement
        assert info["replaced"] == [3]
        assert info["scores"][3] == 0.0
        assert kept_trees(before, f.trees) == [0, 1, 2, 4]
        assert f.trees[3].batches_seen == 1
        assert len(f.trees) == 5

    def test_replacement_tie_breaks_to_lower_index(self):
        data = blobs(600, seed=15)
        f = StreamForest(data.subset(range(100)), 3, n_trees=6, seed=16)
        plant_constant_trees(f, {1: 0, 4: 0})
        f.update(pure_class_batch(data, cls=1, size=60), force_replacement=True)
        assert f.last_replacement["replaced"] == [1]

    def test_multiple_replacements_take_r_worst(self):
        data = blobs(600, seed=17)
        f = StreamForest(data.subset(range(100)), 3, n_trees=6, replace_count=2, seed=18)
        plant_constant_trees(f, {1: 0, 4: 2})
        f.update(pure_class_batch(data, cls=1, size=60), force_replacement=True)
        assert sorted(f.last_replacement["replaced"]) == [1, 4]

    def test_trees_are_swapped_only_by_replacement(self):
        data = blobs(700, seed=69, noise=0.8)
        f = StreamForest(data.subset(range(100)), 3, n_trees=5, replace_count=2, seed=70)
        with pytest.raises(TypeError):
            f.trees[0] = f.trees[1]
        for i in range(1, 7):
            before = f.trees
            f.update(data.subset(range(100 * i, 100 * (i + 1))), force_replacement=True)
            replaced = f.last_replacement["replaced"]
            assert len(replaced) == 2
            assert kept_trees(before, f.trees) == [t for t in range(5) if t not in replaced]
            assert f._table.size == f.node_count()

    def test_unforced_coin_can_be_suppressed(self):
        data = blobs(200, seed=19)
        f = StreamForest(data.subset(range(100)), 3, n_trees=3, seed=20)
        before = f.trees
        f.update(data.subset(range(100, 200)), force_replacement=False)
        assert kept_trees(before, f.trees) == [0, 1, 2]

    def test_error_leaves_forest_unchanged(self):
        f = StreamForest(blobs(100, seed=21), 3, n_trees=3, seed=22)
        before = f._table.export(f._roots)
        bad = Dataset(np.zeros((5, 4)), np.zeros(5, dtype=int), 3)
        with pytest.raises(ValueError):
            f.update(bad)
        assert f.batches_seen == 1
        assert [tree.batches_seen for tree in f.trees] == [1, 1, 1]
        after = f._table.export(f._roots)
        assert all(np.array_equal(before[name], after[name]) for name in before)

    def test_update_stops_short_of_the_count_bound(self):
        """int32 counts would wrap at 2**31: an update that would take a
        root's total there raises by name before it draws, and one row
        fewer passes, its root holding exactly 2**31 - 1."""
        data = blobs(200, seed=23)
        first, batch = pure_class_batch(data, cls=0, size=10), data.subset(range(100))
        for headroom in (0, 1):
            f = StreamForest(first, 3, n_trees=3, seed=24)
            root = f._roots[1]
            assert f._table.left[root] == root  # a leaf, which only its counts describe
            f._table.counts[root, 0] = 2**31 - batch.n_samples - headroom
            before = f._table.export(f._roots)
            state = f.rng.bit_generator.state
            if headroom == 0:
                with pytest.raises(ValueError, match=f"below {2**31}"):
                    f.update(batch)
                after = f._table.export(f._roots)
                assert all(np.array_equal(before[name], after[name]) for name in before)
                assert f._batches.tolist() == [1, 1, 1] and f.batches_seen == 1
                assert f.rng.bit_generator.state == state
            else:
                f.update(batch, force_replacement=False)
                assert int(f.trees[1].root.class_counts.sum()) == 2**31 - 1
                assert f._batches.tolist() == [2, 2, 2]

    def test_a_tree_view_refuses_update(self):
        data = blobs(100, seed=21)
        stream = StreamForest(data, 3, n_trees=3, seed=22)
        batch = BatchForest(3, seed=22).fit(data)
        # A view names the forest's own method: a stream forest has no fit.
        for f, call, named in ((stream, "update", "update"), (stream, "fit", "update"),
                               (batch, "fit", "fit")):
            assert callable(getattr(f, named))
            before = f._table.export(f._roots)
            state = f.rng.bit_generator.state if f is stream else None
            with pytest.raises(TypeError, match=f"{named} the forest"):
                getattr(f.trees[0], call)(blobs(100, seed=23))
            if f is stream:
                assert f._batches.tolist() == [1, 1, 1]
                assert f.rng.bit_generator.state == state
            after = f._table.export(f._roots)
            assert all(np.array_equal(before[name], after[name]) for name in before)

    @pytest.mark.parametrize("n_trees", [3, 30])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_update_builds_at_most_two_datasets(self, monkeypatch, n_trees, bootstrap):
        data = blobs(300, seed=23, noise=0.5)
        f = StreamForest(data.subset(range(100)), 3, n_trees=n_trees, seed=24,
                         bootstrap=bootstrap)
        batches = [data.subset(range(100, 200)),
                   Dataset(data.features[200:], data.labels[200:], 4)]  # other class count
        built = []
        original = Dataset.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(Dataset, "__post_init__", counting)
        for batch, coin in zip(batches, (False, True)):
            built.clear()
            f.update(batch, force_replacement=coin)
            assert len(built) <= 2

    @pytest.mark.parametrize("n_trees", [1, 30])
    def test_growth_builds_no_per_tree_dataset(self, monkeypatch, n_trees):
        data = blobs(300, seed=25, noise=0.5)
        first = data.subset(range(100))
        built = []
        original = Dataset.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(Dataset, "__post_init__", counting)
        BatchForest(n_trees, seed=26).fit(data)
        assert built == []
        StreamForest(first, 3, n_trees=n_trees, seed=27)
        assert len(built) <= 1

    def test_tree_count_conserved_across_stream(self):
        rng = np.random.default_rng(23)
        data = blobs(1000, seed=24, noise=0.5)
        f = StreamForest(data.subset(range(100)), 3, n_trees=8, seed=25)
        for i in range(1, 10):
            f.update(data.subset(range(100 * i, 100 * (i + 1))))
        assert len(f.trees) == 8
        assert f.batches_seen == 10

    def test_count_conservation_across_updates(self):
        data = blobs(600, seed=28, noise=0.8)
        f = StreamForest(data.subset(range(100)), 3, n_trees=6, seed=29)
        for tree in f.trees:
            check_count_conservation(tree.root)
        for i in range(1, 6):
            before = [split_totals(tree.root) for tree in f.trees]
            f.update(data.subset(range(100 * i, 100 * (i + 1))), force_replacement=False)
            for tree, seen in zip(f.trees, before):
                check_count_conservation(tree.root, seen)
        for tree in BatchForest(4, seed=30).fit(data).trees:
            check_count_conservation(tree.root)


def test_trees_hold_the_forest_table_and_criteria(tmp_path):
    """An update grows all of a forest's trees in one grower call under one
    split criteria, which holds only while every tree is in the forest's
    table under its criteria: after construction, after a forced
    replacement and after a snapshot round trip."""
    data = blobs(300, seed=17, noise=0.5)
    criteria = SplitCriteria(max_features=1, min_samples_split=3)

    def check(forest):
        for tree in forest.trees:
            assert tree._table is forest._table
            assert tree.criteria == forest.criteria == criteria

    forest = StreamForest(data.subset(range(100)), 3, n_trees=5, replace_count=2,
                          criteria=criteria, seed=18)
    check(forest)
    forest.update(data.subset(range(100, 200)), force_replacement=True)
    assert forest.last_replacement["replaced"]
    check(forest)
    save_forest(forest, tmp_path / "forest.npz")
    loaded = load_forest(tmp_path / "forest.npz")
    check(loaded)
    loaded.update(data.subset(range(200, 300)), force_replacement=True)
    check(loaded)


def test_tree_views_and_class_bodies_keep_what_the_benchmark_reads():
    """perfbench reads ``forest.trees[t].tree.root`` and requires its counts
    to add up to the rows the tree has taken in, which a bootstrap keeps;
    its tracer wraps ``predict`` and ``predict_one`` only where a class body
    binds them (see `_Model`)."""
    data = blobs(300, seed=31, noise=0.5)
    forest = StreamForest(data.subset(range(100)), 3, n_trees=4, seed=32)
    for rows in (range(100, 150), range(150, 157)):
        forest.update(data.subset(rows), force_replacement=False)
    for tree in forest.trees:
        assert tree.tree is tree
        assert int(tree.tree.root.class_counts.sum()) == 157
    for model in (DecisionTree, StreamTree, StreamForest, BatchForest):
        assert "predict" in vars(model)
    for model in (StreamForest, BatchForest):
        assert "predict_one" in vars(model)


class TestVoting:
    def _forest_with_trees(self, classes, n_classes):
        """A forest of one constant tree per entry of `classes`, voting it."""
        f = StreamForest(blobs(40, seed=26), n_classes, n_trees=len(classes), seed=27)
        plant_constant_trees(f, dict(enumerate(classes)))
        return f

    def _one_row_reads(self, f):
        """`predict_one` and a one-row `predict` of the same point."""
        x = np.array([0.0, 0.0])
        return f.predict_one(x), f.predict(x[None, :]).tolist()

    def test_unanimous_vote(self):
        f = self._forest_with_trees([2, 2, 2], 3)
        assert self._one_row_reads(f) == (2, [2])

    def test_plurality_wins(self):
        f = self._forest_with_trees([0, 1, 1], 3)
        assert self._one_row_reads(f) == (1, [1])

    def test_tie_goes_to_lowest_class(self):
        f = self._forest_with_trees([0, 0, 1, 1], 3)
        assert self._one_row_reads(f) == (0, [0])
        f = self._forest_with_trees([2, 1, 2, 1], 3)
        assert self._one_row_reads(f) == (1, [1])

    def test_batch_predict_empty(self):
        """Every model predicts no rows as an empty array of the dtype it
        predicts rows in."""
        data = blobs(60, seed=28)
        for model in (DecisionTree(seed=29).fit(data), StreamTree(data, 3, seed=29),
                      BatchForest(2, seed=29).fit(data),
                      StreamForest(data, 3, n_trees=2, seed=29)):
            empty = model.predict(np.empty((0, 2)))
            assert empty.shape == (0,)
            assert empty.dtype == model.predict(data.features[:3]).dtype

    def test_batch_predict_single_row(self):
        f = StreamForest(blobs(60, seed=30), 3, n_trees=3, seed=31)
        x = np.array([0.3, -1.2])
        assert f.predict(x[None, :]).tolist() == [f.predict_one(x)]

    def test_batch_predict_matches_loop(self):
        f = StreamForest(blobs(150, seed=32, noise=0.5), 3, n_trees=5, seed=33)
        probes = np.random.default_rng(34).uniform(-4, 4, (100, 2))
        reference = [int(np.argmax(np.bincount([t.predict_one(x) for t in f.trees],
                                               minlength=3))) for x in probes]
        # `_votes` routes _PAIRS_PER_PASS tree-major (tree, row) pairs per
        # block: all 500 at once unpatched, then one pair a block, then
        # blocks of 3 and 35, which straddle trees of 100 rows.
        for budget in (None, 1, 3, 7 * 5):
            with pytest.MonkeyPatch.context() as mp:
                if budget is not None:
                    mp.setattr(streamforest.tree, "_PAIRS_PER_PASS", budget)
                batch = f.predict(probes)
                assert batch.tolist() == [f.predict_one(x) for x in probes]
            assert batch.tolist() == reference

    def test_no_routing_block_exceeds_the_budget(self, monkeypatch):
        """However many trees, a bulk `predict` gives `_descend` at most
        _PAIRS_PER_PASS pairs a call; `predict_one` and a one-row `predict`
        each descend their row from all 5 trees in one call."""
        f = StreamForest(blobs(60, seed=40), 3, n_trees=5, seed=41)
        probes = np.random.default_rng(42).uniform(-4, 4, (4, 2))
        reads = [lambda: f.predict(probes).tolist()]
        reads += [lambda x=x: f.predict_one(x) for x in probes]
        reads += [lambda x=x: f.predict(x[None, :]).tolist() for x in probes]
        expected = [read() for read in reads]
        sizes = []

        def spy(table, start, rows, X):
            sizes[-1].append(len(start))
            return descend(table, start, rows, X)

        descend = streamforest.tree._descend
        monkeypatch.setattr(streamforest.tree, "_PAIRS_PER_PASS", 3)
        monkeypatch.setattr(streamforest.tree, "_descend", spy)
        for read, want in zip(reads, expected):
            sizes.append([])
            assert read() == want
        assert max(sizes[0]) <= 3 and sum(sizes[0]) == 5 * 4
        assert sizes[1:] == [[5]] * 8

    @pytest.mark.parametrize("budget", [None, 1, 3])
    def test_one_row_reads_match_the_bulk_prediction(self, budget, monkeypatch):
        """For every model kind, `predict_one` and a one-row `predict` give
        the bulk prediction of the same rows, also when a budget of 1 or 3
        pairs splits the bulk prediction's trees across blocks."""
        data = blobs(150, seed=43, noise=0.8)
        probes = np.random.default_rng(44).uniform(-4, 4, (30, 2))
        models = (DecisionTree(seed=45).fit(data), StreamTree(data, 3, seed=45),
                  BatchForest(5, seed=45).fit(data), StreamForest(data, 3, n_trees=5, seed=45))
        bulk = [model.predict(probes).tolist() for model in models]
        if budget is not None:
            monkeypatch.setattr(streamforest.tree, "_PAIRS_PER_PASS", budget)
        for model, expected in zip(models, bulk):
            assert [model.predict_one(x) for x in probes] == expected
            rows = [model.predict(x[None, :]) for x in probes]
            assert all(row.shape == (1,) and row.dtype == np.intp for row in rows)
            assert [int(row[0]) for row in rows] == expected

    def test_winner_meets_vote_floor(self):
        f = StreamForest(blobs(150, seed=35, noise=0.8), 3, n_trees=7, seed=36)
        probes = np.random.default_rng(37).uniform(-4, 4, (40, 2))
        for x in probes:
            votes = np.bincount([t.predict_one(x) for t in f.trees], minlength=3)
            assert votes[f.predict_one(x)] >= math.ceil(len(f.trees) / 3)

    def test_dimension_mismatch_rejected(self):
        f = StreamForest(blobs(60, seed=38), 3, n_trees=2, seed=39)
        with pytest.raises(ValueError):
            f.predict(np.zeros((4, 5)))


def _fitted(kind, data: Dataset, seed: int):
    """A model of `kind` fitted on `data`; a forest has 3 trees, a stream
    forest seed `seed` and a batch forest seed ``seed + 1``."""
    return {DecisionTree: lambda: DecisionTree().fit(data),
            StreamTree: lambda: StreamTree(data, data.n_classes),
            StreamForest: lambda: StreamForest(data, data.n_classes, n_trees=3, seed=seed),
            BatchForest: lambda: BatchForest(3, seed=seed + 1).fit(data)}[kind]()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", [DecisionTree, StreamTree, StreamForest, BatchForest])
def test_non_finite_input_is_rejected(kind, bad):
    """No threshold orders a NaN, which used to route right; every model
    rejects non-finite input and names where it is."""
    data = blobs(60, seed=40)
    model = _fitted(kind, data, 41)
    X = np.zeros((3, 2))
    X[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite feature value at row 2, column 1"):
        model.predict(X)
    with pytest.raises(ValueError, match="non-finite feature value at row 0, column 1"):
        model.predict_one(X[2])
    if isinstance(model, DecisionTree):
        with pytest.raises(ValueError, match="non-finite"):
            model.apply(X[2])


@pytest.mark.parametrize("kind", [DecisionTree, StreamTree, StreamForest, BatchForest])
def test_complex_features_are_rejected(kind):
    """A cast to float64 would drop the imaginary part with only a warning;
    complex features fail by dtype instead, even with no imaginary part."""
    data = blobs(60, seed=45)
    model = _fitted(kind, data, 43)
    X = data.features[:4]
    for bad in (X + 1j, X.astype(np.complex64)):
        with pytest.raises(ValueError, match=f"features must be real numbers, not {bad.dtype}"):
            model.predict(bad)
        with pytest.raises(ValueError, match=f"not {bad.dtype}"):
            model.predict_one(bad[0])
        with pytest.raises(ValueError, match=f"not {bad.dtype}"):
            Dataset(bad, data.labels[:4], 3)
    with pytest.raises(ValueError, match="not complex128"):
        model.predict_one([complex(x) for x in X[0]])


@pytest.mark.parametrize("kind", [DecisionTree, StreamTree, StreamForest, BatchForest])
def test_strided_input_predicts_as_its_contiguous_copy(kind):
    """Prediction reads features through a flat view of a C-contiguous
    copy, so any memory layout of the input predicts the same."""
    data = gen_synthetic("blobs", 120, noise=0.8, seed=46, n_classes=3, n_features=3)
    model = _fitted(kind, data, 43)
    probes = np.random.default_rng(47).uniform(-4, 4, (50, 3))
    wide = np.zeros((50, 6))
    wide[:, ::2] = probes
    views = {"fortran": np.asfortranarray(probes), "every other column": wide[:, ::2],
             "rows reversed": probes[::-1]}
    for name, X in views.items():
        assert not X.flags.c_contiguous, name
        assert model.predict(X).tolist() == model.predict(np.ascontiguousarray(X)).tolist(), name
    for x in wide[:, ::2]:
        assert model.predict_one(x) == model.predict_one(x.copy())


def _three_rows(labels=(0, 1, 2), n_classes=3) -> Dataset:
    return Dataset(np.zeros((3, 2)), np.array(labels), n_classes)


@pytest.mark.parametrize("name, make, error", [
    ("labels", lambda: _three_rows([0.5, 1.5, 2.5]), ValueError),
    ("labels", lambda: _three_rows([0.0, 1.0, np.nan]), ValueError),
    ("labels", lambda: _three_rows([True, False, True]), TypeError),
    ("labels", lambda: Dataset(np.zeros((3, 2)), [0, True, 1], 3), TypeError),
    ("labels", lambda: _three_rows(["0", "1", "2"]), TypeError),
    ("labels", lambda: _three_rows([0, -1, 2]), ValueError),
    ("n_classes", lambda: _three_rows(n_classes=3.5), TypeError),
    ("n_classes", lambda: _three_rows(n_classes=True), TypeError),
    ("n_classes", lambda: _three_rows(n_classes=1), ValueError),
    ("indices", lambda: _three_rows().subset([-1]), ValueError),
    ("indices", lambda: _three_rows().subset([True, False]), TypeError),
    ("indices", lambda: _three_rows().subset([1.7]), ValueError),
    ("indices", lambda: _three_rows().subset([3]), ValueError),
    ("min_samples_split", lambda: SplitCriteria(min_samples_split=2.5), TypeError),
    ("min_samples_split", lambda: SplitCriteria(min_samples_split=True), TypeError),
    ("max_features", lambda: SplitCriteria(max_features=True), TypeError),
    ("max_features", lambda: SplitCriteria(max_features=1.5), TypeError),
    ("max_features", lambda: SplitCriteria(max_features=0), ValueError),
    ("min_impurity_decrease", lambda: SplitCriteria(min_impurity_decrease=True), TypeError),
    ("min_impurity_decrease", lambda: SplitCriteria(min_impurity_decrease=np.nan), ValueError),
    ("min_impurity_decrease", lambda: SplitCriteria(min_impurity_decrease=np.inf), ValueError),
    ("min_impurity_decrease", lambda: SplitCriteria(min_impurity_decrease="x"), TypeError),
    ("min_impurity_decrease", lambda: SplitCriteria(min_impurity_decrease=None), TypeError),
    ("n_trees", lambda: BatchForest(n_trees=2.5), TypeError),
    ("n_trees", lambda: BatchForest(n_trees=0), ValueError),
    ("n_trees", lambda: StreamForest(_three_rows(), 3, n_trees=2.5), TypeError),
    ("bootstrap", lambda: BatchForest(bootstrap="no"), TypeError),
    ("bootstrap", lambda: StreamForest(_three_rows(), 3, bootstrap=1), TypeError),
    ("replace_count", lambda: StreamForest(_three_rows(), 3, replace_count=True), TypeError),
    ("replace_count", lambda: StreamForest(_three_rows(), 3, replace_count=-1), ValueError),
    ("n_classes", lambda: StreamForest(_three_rows(), 3.0), TypeError),
])
def test_bad_constructor_argument_is_named(name, make, error):
    with pytest.raises(error, match=name):
        make()


def test_whole_float_labels_are_accepted():
    data = _three_rows([0.0, 2.0, 1.0])
    assert data.labels.dtype == np.int64 and data.labels.tolist() == [0, 2, 1]


# Malformed values of each kind of argument the public calls below take.
_NOT_DATASETS = [np.zeros((5, 2)), [[0.0, 1.0]], None]
_NOT_COUNTS = [2.5, "3", True, None, -1]
_NOT_BOOLS = ["no", 1, 0.0]
_NOT_REALS = [-0.5, math.nan, math.inf, "0.5", True, None]
_NOT_INDICES = [[0, True], [-1], [0.5], [10**6], [], "0", None]
_MALFORMED = {
    "first_batch": _NOT_DATASETS, "batch": _NOT_DATASETS, "data": _NOT_DATASETS,
    "n_classes": _NOT_COUNTS, "n_trees": _NOT_COUNTS, "replace_count": _NOT_COUNTS,
    "seed": _NOT_COUNTS, "n": _NOT_COUNTS, "batch_size": _NOT_COUNTS, "k": _NOT_COUNTS,
    "repetitions": _NOT_COUNTS, "threads": _NOT_COUNTS, "n_features": _NOT_COUNTS,
    "bootstrap": _NOT_BOOLS, "force_replacement": _NOT_BOOLS,
    "criteria": [3, "sqrt", {"max_features": 1}],
    "noise": _NOT_REALS, "min_impurity_decrease": _NOT_REALS,
    "labels": [[0, True, 1], [0, -1, 2], [0, 3, 1], [0.5, 1, 2], ["0", "1", "2"], 1, None],
    "indices": _NOT_INDICES, "candidate_features": _NOT_INDICES,
}


def _public_calls(data: Dataset, n_trees: int) -> list:
    """The public calls that check their arguments, each as (function, its
    valid keyword arguments), the Dataset ones on `data`."""
    return [
        (StreamForest, dict(first_batch=data, n_classes=3, n_trees=n_trees, replace_count=1,
                            criteria=None, seed=0, bootstrap=True)),
        (StreamForest(data, 3, n_trees=n_trees, seed=1).update,
         dict(batch=data, force_replacement=None)),
        (StreamTree, dict(first_batch=data, n_classes=3, criteria=None, seed=0)),
        (StreamTree(data, 3, seed=1).update, dict(batch=data)),
        (DecisionTree, dict(criteria=None, seed=0)),
        (DecisionTree().fit, dict(data=data)),
        (BatchForest, dict(n_trees=n_trees, criteria=None, seed=0, bootstrap=True)),
        (BatchForest(n_trees).fit, dict(data=data)),
        (make_batches, dict(n=data.n_samples, batch_size=10, seed=0)),
        (make_folds, dict(n=data.n_samples, k=3, seed=0)),
        (functools.partial(BatchPlan, np.arange(data.n_samples)), dict(batch_size=10)),
        (functools.partial(FoldPlan, np.arange(data.n_samples) % 3), dict(k=3)),
        (functools.partial(gen_synthetic, "blobs"),
         dict(n=data.n_samples, noise=0.5, seed=0, n_features=2)),
        (functools.partial(ExperimentConfig, "blobs"),
         dict(batch_size=10, n_trees=n_trees, replace_count=1, repetitions=2, seed=0,
              threads=1)),
        (functools.partial(Dataset, data.features[:3]), dict(labels=[0, 2, 1], n_classes=3)),
        (SplitCriteria, dict(min_impurity_decrease=0.0)),
        (best_split, dict(data=data, indices=np.arange(data.n_samples),
                          candidate_features=[0, 1])),
    ]


def test_checked_values_are_stored_plain():
    """Arguments given as numpy scalars are stored as the plain int or bool
    their checks return, so that snapshots and results files can hold them."""
    data = Dataset(np.zeros((4, 2)), np.arange(4) % 3, np.arange(4).max())
    criteria = SplitCriteria(min_samples_split=np.int64(3), max_features=np.int64(1),
                             min_impurity_decrease=np.float32(0.0))
    stream = StreamForest(data, np.int64(3), n_trees=np.int64(2), replace_count=np.int64(1),
                          seed=np.int64(4), bootstrap=np.True_)
    batch = BatchForest(np.int64(2), seed=np.uint8(5), bootstrap=np.False_).fit(data)
    config = ExperimentConfig("blobs", batch_size=np.int64(10), n_trees=np.int32(3),
                              replace_count=np.int64(1), repetitions=np.int16(2),
                              seed=np.int64(6), threads=np.int64(1))
    plans = BatchPlan(np.arange(4), np.int64(2)), FoldPlan(np.arange(4) % 2, np.int8(2))
    values = [data.n_classes, criteria.min_samples_split, criteria.max_features,
              DecisionTree(seed=np.int64(7)).seed, StreamTree(data, np.int64(3)).n_classes,
              stream.n_classes, stream.n_trees, stream.replace_count, stream.seed,
              batch.n_classes, batch.n_trees, batch.seed,
              config.batch_size, config.n_trees, config.replace_count, config.repetitions,
              config.seed, config.threads, plans[0].batch_size, plans[1].k]
    assert [type(v) for v in values] == [int] * len(values)
    assert type(stream.bootstrap) is bool and type(batch.bootstrap) is bool
    assert type(criteria.min_impurity_decrease) is float


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(20, 60), st.integers(1, 4), st.data())
def test_a_malformed_argument_is_named(n, n_trees, draw):
    """Any public call given one malformed argument, the others valid,
    raises a TypeError or ValueError that names that argument."""
    data = blobs(n, seed=n)
    call, kwargs = draw.draw(st.sampled_from(_public_calls(data, n_trees)))
    assert call(**kwargs) is not None  # valid as given
    name = draw.draw(st.sampled_from(sorted(kwargs)))
    kwargs[name] = draw.draw(st.sampled_from(_MALFORMED[name]))
    with pytest.raises((TypeError, ValueError), match=rf"\b{name}\b"):
        call(**kwargs)


class TestDeterminism:
    def _evolve(self):
        data = blobs(500, seed=40, noise=0.6)
        f = StreamForest(data.subset(range(100)), 3, n_trees=6, seed=41)
        for i in range(1, 5):
            f.update(data.subset(range(100 * i, 100 * (i + 1))))
        return f

    def test_same_seed_reproduces_everything(self):
        a, b = self._evolve(), self._evolve()
        for ta, tb in zip(a.trees, b.trees):
            assert trees_equal(ta.root, tb.root)
        assert a.last_replacement["u"] == b.last_replacement["u"]
        assert a.last_replacement["replaced"] == b.last_replacement["replaced"]

    def test_accuracy_grows_with_data(self):
        first, final = [], []
        for seed in range(10):
            train = gen_synthetic("blobs", 1000, noise=0.8, seed=100 + seed, n_classes=3)
            test = gen_synthetic("blobs", 300, noise=0.8, seed=200 + seed, n_classes=3)
            f = StreamForest(train.subset(range(100)), 3, n_trees=20, seed=seed)
            first.append(np.mean(f.predict(test.features) == test.labels))
            for i in range(1, 10):
                f.update(train.subset(range(100 * i, 100 * (i + 1))))
            final.append(np.mean(f.predict(test.features) == test.labels))
        assert np.mean(final) >= np.mean(first)


class TestBatchForest:
    def test_refit_same_data_same_predictions(self):
        data = blobs(200, seed=50, noise=0.5)
        probes = np.random.default_rng(51).uniform(-4, 4, (80, 2))
        a = BatchForest(10, seed=52).fit(data).predict(probes)
        b = BatchForest(10, seed=52).fit(data).predict(probes)
        assert np.array_equal(a, b)

    def test_degenerate_forest_equals_single_tree(self):
        # Five features, so that "sqrt" (2) and 2 draw a feature subset at
        # every split from the one seed both models share.
        data = gen_synthetic("blobs", 150, noise=0.5, seed=53, n_classes=3, n_features=5)
        for max_features in ("all", "sqrt", 2):
            criteria = SplitCriteria(max_features=max_features)
            forest = BatchForest(1, criteria, seed=54, bootstrap=False).fit(data)
            tree = DecisionTree(criteria, seed=54).fit(data)
            assert trees_equal(forest.trees[0].root, tree.root), max_features

    def test_forest_tracks_single_tree_accuracy(self):
        train = gen_synthetic("blobs", 2000, noise=0.8, seed=56, n_classes=3)
        test = gen_synthetic("blobs", 800, noise=0.8, seed=57, n_classes=3)
        dt_acc = np.mean(DecisionTree(SplitCriteria(), seed=58).fit(train)
                         .predict(test.features) == test.labels)
        df_acc = np.mean(BatchForest(20, seed=59).fit(train)
                         .predict(test.features) == test.labels)
        assert df_acc >= dt_acc - 0.02

    def test_unfitted_forest_rejects_predict(self):
        f = BatchForest(2, seed=62)
        with pytest.raises((ValueError, TypeError)):
            f.predict(np.zeros((2, 2)))

    @pytest.mark.parametrize("call, arg", [("predict", np.zeros((2, 2))),
                                           ("predict_one", np.zeros(2))])
    def test_unfitted_forest_says_it_is_not_fitted(self, call, arg):
        with pytest.raises(ValueError, match="BatchForest is not fitted"):
            getattr(BatchForest(2, seed=62), call)(arg)


class TestOneWritePath:
    """Every model fits through `_Model._fit` and updates through
    `_Model._extend`, so a lone tree and a one-tree forest agree."""

    def test_stream_tree_equals_one_tree_stream_forest(self):
        # The forest's replacement coin takes a draw after every update, so
        # only under "all", where growth draws nothing, do the two agree.
        data = blobs(600, seed=55, noise=0.5)
        batches = [data.subset(range(lo, lo + 100)) for lo in range(0, 600, 100)]
        tree = StreamTree(batches[0], 3, SplitCriteria(), seed=56)
        forest = StreamForest(batches[0], 3, n_trees=1, replace_count=0,
                              criteria=SplitCriteria(), seed=56, bootstrap=False)
        for batch in batches[1:]:
            tree.update(batch)
            forest.update(batch)
        assert trees_equal(forest.trees[0].root, tree.root)
        assert forest.trees[0].batches_seen == tree.batches_seen == 6

    @pytest.mark.parametrize("make", [
        lambda data: DecisionTree(SQRT, seed=57).fit(data),
        lambda data: StreamTree(data, 3, SQRT, seed=57).update(data),
        lambda data: BatchForest(3, seed=57).fit(data),
    ], ids=["DecisionTree", "StreamTree", "BatchForest"])
    def test_failed_fit_leaves_model_unchanged(self, monkeypatch, make):
        model = make(blobs(100, seed=58, noise=0.5))

        def state():
            generator = getattr(model, "rng", None)
            return (model._table.export(model._roots), getattr(model, "batches_seen", None),
                    generator and generator.bit_generator.state)

        def failing_grow(*args):
            args[-1].random(5)  # a draw from the fit's generator, then a failure
            raise RuntimeError("growth failed")

        before = state()
        monkeypatch.setattr(streamforest.tree, "_grow", failing_grow)
        with pytest.raises(RuntimeError, match="growth failed"):
            model.fit(blobs(100, seed=60, noise=0.5))
        after = state()
        assert all(np.array_equal(before[0][name], after[0][name]) for name in before[0])
        assert after[1:] == before[1:]


class TestSamples:
    @pytest.mark.parametrize("count, n", [(1, 1), (1, 9), (4, 7), (30, 60)])
    def test_bootstrap_expands_to_the_drawn_multisets(self, count, n):
        """Each tree's distinct rows, repeated by their weights, are exactly
        its row of one ``integers(0, n, (count, n))`` draw, and the draw
        leaves the generator where that call does."""
        rng, ref = np.random.default_rng(count * n), np.random.default_rng(count * n)
        rows, weights, bounds = _samples(rng, count, n, True)
        drawn = ref.integers(0, n, (count, n))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert bounds[0] == 0 and bounds[-1] == rows.size == weights.size
        assert weights.dtype == np.int32 and weights.min() >= 1
        for t in range(count):
            tree = slice(bounds[t], bounds[t + 1])
            assert (np.diff(rows[tree]) > 0).all()  # distinct, in increasing order
            assert np.repeat(rows[tree], weights[tree]).tolist() == np.sort(drawn[t]).tolist()

    def test_without_bootstrap_every_row_once_with_unit_weight(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        rows, weights, bounds = _samples(rng, 3, 4, False)
        assert rng.bit_generator.state == state  # nothing drawn
        assert rows.tolist() == [0, 1, 2, 3] * 3
        assert rows.dtype == np.intp  # the index type of routing and growth
        assert weights.tolist() == [1] * 12
        assert bounds.tolist() == [0, 4, 8, 12]


class TestModelSize:
    def test_single_leaf_forest(self):
        batch = Dataset(np.full((5, 2), 1.0), np.full(5, 0), 2)
        f = StreamForest(batch, 2, n_trees=1, seed=63)
        assert model_size(f) == (1, BYTES_PER_NODE)

    def test_depth_one_tree(self):
        data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 0, 1, 1]), 2)
        f = StreamForest(data, 2, n_trees=1, bootstrap=False, seed=64,
                         criteria=SplitCriteria(max_features="all"))
        assert model_size(f) == (3, 3 * BYTES_PER_NODE)

    def test_replacement_can_shrink_model(self):
        data = blobs(1200, seed=65, noise=1.2)
        f = StreamForest(data.subset(range(100)), 3, n_trees=1, seed=66)
        for i in range(1, 10):
            f.update(data.subset(range(100 * i, 100 * (i + 1))),
                     force_replacement=False)
        grown = f.node_count()
        f.update(pure_class_batch(data, cls=0, size=50), force_replacement=True)
        assert f.node_count() < grown
