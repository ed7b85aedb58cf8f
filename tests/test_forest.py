"""Stream forest: per-tree bootstrap updates, probabilistic worst-tree
replacement, majority voting; batch forest baseline."""

import math

import numpy as np
import pytest

from streamforest import (
    BYTES_PER_NODE,
    BatchForest,
    Dataset,
    DecisionTree,
    SplitCriteria,
    StreamForest,
    gen_synthetic,
    model_size,
)
from streamforest.forest import _samples

from helpers import plant_constant_trees, trees_equal


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
        before = list(f.trees)
        f.update(data.subset(range(100, 200)), force_replacement=True)
        assert all(a is b for a, b in zip(before, f.trees))
        assert f.last_replacement["fired"] and f.last_replacement["replaced"] == []

    def test_forced_replacement_removes_worst_tree(self):
        data = blobs(600, seed=13)
        f = StreamForest(data.subset(range(100)), 3, n_trees=5, seed=14)
        (bad,) = plant_constant_trees(f, {3: 0})
        update = pure_class_batch(data, cls=1, size=60)
        f.update(update, force_replacement=True)
        info = f.last_replacement
        assert info["replaced"] == [3]
        assert info["scores"][3] == 0.0
        assert f.trees[3] is not bad
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
            for t, (old, new) in enumerate(zip(before, f.trees)):
                assert (old is new) == (t not in replaced)
            assert f._table.size == f.node_count()

    def test_unforced_coin_can_be_suppressed(self):
        data = blobs(200, seed=19)
        f = StreamForest(data.subset(range(100)), 3, n_trees=3, seed=20)
        before = list(f.trees)
        f.update(data.subset(range(100, 200)), force_replacement=False)
        assert all(a is b for a, b in zip(before, f.trees))

    def test_error_leaves_forest_unchanged(self):
        f = StreamForest(blobs(100, seed=21), 3, n_trees=3, seed=22)
        before = list(f.trees)
        bad = Dataset(np.zeros((5, 4)), np.zeros(5, dtype=int), 3)
        with pytest.raises(ValueError):
            f.update(bad)
        assert f.batches_seen == 1
        assert all(a is b for a, b in zip(before, f.trees))

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


class TestVoting:
    def _forest_with_trees(self, classes, n_classes):
        """A forest of one constant tree per entry of `classes`, voting it."""
        f = StreamForest(blobs(40, seed=26), n_classes, n_trees=len(classes), seed=27)
        plant_constant_trees(f, dict(enumerate(classes)))
        return f

    def test_unanimous_vote(self):
        f = self._forest_with_trees([2, 2, 2], 3)
        assert f.predict_one([0.0, 0.0]) == 2

    def test_plurality_wins(self):
        f = self._forest_with_trees([0, 1, 1], 3)
        assert f.predict_one([0.0, 0.0]) == 1

    def test_tie_goes_to_lowest_class(self):
        f = self._forest_with_trees([0, 0, 1, 1], 3)
        assert f.predict_one([0.0, 0.0]) == 0

    def test_batch_predict_empty(self):
        f = StreamForest(blobs(60, seed=28), 3, n_trees=2, seed=29)
        assert f.predict(np.empty((0, 2))).shape == (0,)

    def test_batch_predict_single_row(self):
        f = StreamForest(blobs(60, seed=30), 3, n_trees=3, seed=31)
        x = np.array([0.3, -1.2])
        assert f.predict(x[None, :]).tolist() == [f.predict_one(x)]

    def test_batch_predict_matches_loop(self):
        f = StreamForest(blobs(150, seed=32, noise=0.5), 3, n_trees=5, seed=33)
        probes = np.random.default_rng(34).uniform(-4, 4, (100, 2))
        batch = f.predict(probes)
        assert batch.tolist() == [f.predict_one(x) for x in probes]
        reference = [int(np.argmax(np.bincount([t.predict_one(x) for t in f.trees],
                                               minlength=3))) for x in probes]
        assert batch.tolist() == reference

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
        data = blobs(150, seed=53, noise=0.5)
        criteria = SplitCriteria(max_features="all")
        forest = BatchForest(1, criteria, seed=54, bootstrap=False).fit(data)
        tree = DecisionTree(criteria, seed=55).fit(data)
        assert trees_equal(forest.trees[0].root, tree.root)

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
