"""Stream tree: initial fit under a declared class count, leaf-only growth
across batches, immutable history."""

import numpy as np
import pytest

from streamforest import Dataset, DecisionTree, SplitCriteria, StreamTree, gen_synthetic
from streamforest.stream import _update_trees
from streamforest.tree import NodeTable

from helpers import (
    check_count_conservation,
    collect_internal_splits,
    distinct_rows,
    is_same_or_descendant,
    iter_nodes,
    trees_equal,
)


def one_dim_example() -> Dataset:
    return Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 0, 1, 1]), 2)


def random_batch(rng, n, p, k) -> Dataset:
    return Dataset(rng.uniform(-2.0, 2.0, (n, p)), rng.integers(0, k, n), k)


class TestInit:
    def test_absent_classes_keep_zero_counts(self):
        rng = np.random.default_rng(0)
        batch = Dataset(rng.uniform(0, 1, (40, 2)), rng.integers(0, 2, 40), 2)
        st = StreamTree(batch, n_classes=3, seed=1)
        for node in iter_nodes(st.root):
            assert node.class_counts.shape == (3,)
            assert node.class_counts[2] == 0

    def test_matches_batch_fit_node_by_node(self):
        data = one_dim_example()
        st = StreamTree(data, n_classes=2, seed=5)
        dt = DecisionTree(SplitCriteria(), seed=5).fit(data)
        assert trees_equal(st.root, dt.root)

    def test_empty_first_batch_rejected(self):
        empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=int), 2)
        with pytest.raises(ValueError):
            StreamTree(empty, n_classes=2)

    def test_label_at_or_above_class_count_rejected(self):
        batch = Dataset(np.zeros((3, 1)), np.array([0, 1, 2]), 3)
        with pytest.raises(ValueError):
            StreamTree(batch, n_classes=2)

    def test_batches_seen_starts_at_one(self):
        st = StreamTree(one_dim_example(), n_classes=2)
        assert st.batches_seen == 1


class TestUpdate:
    def test_single_leaf_splits_on_second_batch(self):
        first = Dataset(np.array([[10.0], [20.0]]), np.array([0, 0]), 2)
        st = StreamTree(first, n_classes=2, seed=3)
        assert st.root.is_leaf
        st.update(one_dim_example())
        root = st.root
        assert root.feature == 0 and root.threshold == 2.5
        assert root.left.class_counts.tolist() == [2, 0]
        assert root.right.class_counts.tolist() == [0, 2]
        # history stays counted at the split node but never re-routes
        assert root.class_counts.tolist() == [4, 2]
        assert root.pre_split_total == 2

    def test_small_batches_only_grow_counts(self):
        rng = np.random.default_rng(1)
        first = random_batch(rng, 60, 2, 3)
        st = StreamTree(first, n_classes=3, seed=2,
                        criteria=SplitCriteria(min_samples_split=10))
        before = collect_internal_splits(st.root)
        n_leaves = sum(node.is_leaf for node in iter_nodes(st.root))
        # one sample per update: every leaf stays below the split threshold
        total = first.n_samples
        for _ in range(5):
            st.update(random_batch(rng, 1, 2, 3))
            total += 1
        assert collect_internal_splits(st.root) == before
        assert sum(node.is_leaf for node in iter_nodes(st.root)) == n_leaves
        assert int(st.root.class_counts.sum()) == total

    def test_existing_splits_survive_update(self):
        data = gen_synthetic("blobs", 50, noise=0.8, seed=4, n_classes=3, n_features=4)
        st = StreamTree(data.subset(range(25)), n_classes=3, seed=6)
        before = set(collect_internal_splits(st.root))
        st.update(data.subset(range(25, 50)))
        after = set(collect_internal_splits(st.root))
        assert before <= after

    def test_wrong_width_leaves_tree_unchanged(self):
        st = StreamTree(one_dim_example(), n_classes=2, seed=1)
        snapshot = [np.array(n.class_counts) for n in iter_nodes(st.root)]
        bad = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2)
        with pytest.raises(ValueError):
            st.update(bad)
        assert st.batches_seen == 1
        for node, counts in zip(iter_nodes(st.root), snapshot):
            assert np.array_equal(node.class_counts, counts)

    def test_unknown_label_leaves_tree_unchanged(self):
        st = StreamTree(one_dim_example(), n_classes=2, seed=1)
        bad = Dataset(np.array([[1.0], [2.0]]), np.array([0, 2]), 3)
        with pytest.raises(ValueError):
            st.update(bad)
        assert st.batches_seen == 1

    def test_empty_batch_rejected(self):
        st = StreamTree(one_dim_example(), n_classes=2)
        with pytest.raises(ValueError):
            st.update(Dataset(np.empty((0, 1)), np.empty(0, dtype=int), 2))

    def test_batches_seen_increments_once_per_update(self):
        rng = np.random.default_rng(3)
        st = StreamTree(random_batch(rng, 20, 2, 2), n_classes=2)
        for expected in (2, 3, 4):
            st.update(random_batch(rng, 20, 2, 2))
            assert st.batches_seen == expected

    def test_pure_pending_does_not_split_despite_mixed_history(self):
        first = Dataset(np.array([[1.0], [2.0], [9.0]]), np.array([0, 0, 1]), 2)
        st = StreamTree(first, n_classes=2, seed=0)
        leaf = st.apply([1.5])
        assert leaf.is_leaf
        # many same-class samples into that leaf: splittable size, pure batch
        st.update(Dataset(np.array([[1.0], [1.5], [2.0]]), np.array([1, 1, 1]), 2))
        assert st.apply([1.5]) is leaf
        assert leaf.is_leaf


class TestPredict:
    def test_untouched_leaf_keeps_history(self):
        first = Dataset(np.full((5, 1), 1.0), np.full(5, 0), 3)
        st = StreamTree(first, n_classes=3)
        assert st.root.class_counts.tolist() == [5, 0, 0]
        assert st.predict_one([1.0]) == 0

    def test_majority_flips_with_new_counts(self):
        first = Dataset(np.full((3, 1), 1.0), np.full(3, 0), 3)
        st = StreamTree(first, n_classes=3)
        st.update(Dataset(np.full((4, 1), 1.0), np.full(4, 1), 3))
        assert st.root.is_leaf  # pure pending batch, constant feature
        assert st.root.class_counts.tolist() == [3, 4, 0]
        assert st.predict_one([1.0]) == 1

    def test_new_split_routes_predictions(self):
        first = Dataset(np.array([[10.0], [20.0]]), np.array([0, 0]), 2)
        st = StreamTree(first, n_classes=2, seed=3)
        st.update(one_dim_example())
        assert st.predict_one([1.5]) == 0
        assert st.predict_one([3.7]) == 1

    def test_batch_predict_matches_single(self):
        rng = np.random.default_rng(8)
        st = StreamTree(random_batch(rng, 60, 3, 3), n_classes=3, seed=2)
        st.update(random_batch(rng, 40, 3, 3))
        probes = rng.uniform(-2, 2, (30, 3))
        assert st.predict(probes).tolist() == [st.predict_one(x) for x in probes]


class TestStreamProperties:
    def test_history_immutable_over_random_updates(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            p = int(rng.integers(1, 4))
            st = StreamTree(random_batch(rng, 30, p, k), n_classes=k,
                            seed=int(rng.integers(1 << 31)))
            for _ in range(4):
                before = set(collect_internal_splits(st.root))
                st.update(random_batch(rng, 20, p, k))
                after = set(collect_internal_splits(st.root))
                assert before <= after

    def test_leaf_regions_refine(self):
        rng = np.random.default_rng(22)
        st = StreamTree(random_batch(rng, 40, 2, 3), n_classes=3, seed=7)
        probes = rng.uniform(-2, 2, (50, 2))
        for _ in range(4):
            leaves_before = [st.apply(x) for x in probes]
            st.update(random_batch(rng, 30, 2, 3))
            for x, old_leaf in zip(probes, leaves_before):
                new_leaf = st.apply(x)
                assert is_same_or_descendant(old_leaf, new_leaf)

    def test_count_conservation_across_batches(self):
        rng = np.random.default_rng(23)
        st = StreamTree(random_batch(rng, 50, 3, 3), n_classes=3, seed=11)
        total = 50
        for size in (30, 17, 42, 9):
            st.update(random_batch(rng, size, 3, 3))
            total += size
        assert int(st.root.class_counts.sum()) == total
        check_count_conservation(st.root)

    def test_replay_reproduces_tree_exactly(self):
        rng = np.random.default_rng(24)
        batches = [random_batch(rng, 40, 4, 3) for _ in range(5)]
        criteria = SplitCriteria(max_features="sqrt")
        a = StreamTree(batches[0], 3, criteria, seed=77)
        b = StreamTree(batches[0], 3, criteria, seed=77)
        for batch in batches[1:]:
            a.update(batch)
            b.update(batch)
        assert trees_equal(a.root, b.root)

    def test_dimensions_never_change(self):
        rng = np.random.default_rng(25)
        st = StreamTree(random_batch(rng, 30, 3, 4), n_classes=4)
        for _ in range(3):
            st.update(random_batch(rng, 25, 3, 4))
            assert st.n_features == 3
            assert st.n_classes == 4


class TestMixedCriteria:
    """Trees of one table under different split criteria, updated together:
    each criteria's trees grow in one `_grow` call, in order of first use,
    on their own touched leaves and weighted rows."""

    def build(self):
        rng = np.random.default_rng(31)
        first = random_batch(rng, 30, 4, 3)
        later = [random_batch(rng, 40, 4, 3) for _ in range(3)]
        draws = [[rng.integers(0, 40, 40) for _ in range(3)] for _ in later]
        table, grow_rng = NodeTable(3), np.random.default_rng(8)
        sqrt = SplitCriteria(max_features="sqrt")
        two = SplitCriteria(max_features=2, min_samples_split=3)
        a, c = StreamTree._grown(table, first, np.arange(60) % 30, np.ones(60, dtype=np.int32),
                                 [0, 30, 60], sqrt, grow_rng)
        (b,) = StreamTree._grown(table, first, np.arange(30), np.ones(30, dtype=np.int32),
                                 [0, 30], two, grow_rng)
        return table, [a, b, c], later, draws, grow_rng

    def test_one_call_equals_one_call_per_criteria(self):
        table, trees, later, draws, rng = self.build()
        ref_table, (ra, rb, rc), _, _, ref_rng = self.build()
        for batch, (da, db, dc) in zip(later, draws):
            _update_trees(trees, batch, *distinct_rows([da, db, dc]), rng)
            _update_trees([ra, rc], batch, *distinct_rows([da, dc]), ref_rng)
            _update_trees([rb], batch, *distinct_rows([db]), ref_rng)
        assert table.size == ref_table.size
        _, planted, _, _, _ = self.build()
        for got, ref, start in zip(trees, (ra, rb, rc), planted):
            assert got.node_count() > start.node_count()  # every tree grew
            assert trees_equal(got.root, ref.root)
            assert got.batches_seen == ref.batches_seen == 4
            check_count_conservation(got.root)
