"""Batch CART tree: impurity, split search, fitting, routing."""

import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamforest import Dataset, DecisionTree, SplitCriteria, best_split
from streamforest.tree import _NEAR_TIE, _best_candidates

from helpers import (
    brute_force_best_split,
    check_count_conservation,
    iter_nodes,
    random_dataset,
    trees_equal,
)


def one_dim_example() -> Dataset:
    return Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 0, 1, 1]), 2)


@contextmanager
def time_limit(seconds: float):
    """Fail instead of hanging: a split search that never ends grows memory
    for as long as it runs."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


ONE_ULP_ABOVE_ONE = math.nextafter(1.0, 2.0)
# Value pairs whose float midpoint is not strictly between them: it rounds up
# to the high value, or overflows to +inf or -inf.
BAD_MIDPOINT_PAIRS = [
    (ONE_ULP_ABOVE_ONE, math.nextafter(ONE_ULP_ABOVE_ONE, 2.0)),
    (1e308, 1.5e308),
    (-1.5e308, -1e308),
]
MAX = float(np.finfo(np.float64).max)
TINY = float(np.finfo(np.float64).tiny)
ADVERSARIAL_BASES = [0.0, 1.0, -1.0, 1e308, -1e308, 1.5e308, -1.5e308, MAX, -MAX,
                     5e-324, -5e-324, TINY, -TINY]


def ulp_steps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def adversarial_datasets(draw):
    """Few distinct values from one or two bases, each a few ulps apart, so
    rows repeat values heavily and neighbours are adjacent floats. Each
    zero drawn has a random sign, and -0.0 and 0.0 are one value."""
    bases = draw(st.lists(st.sampled_from(ADVERSARIAL_BASES), min_size=1, max_size=2))
    pool = sorted({v for base in bases for v in
                   (ulp_steps(base, k) for k in range(-2, 3)) if math.isfinite(v)})
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 2))
    values = draw(st.lists(st.sampled_from(pool), min_size=n * p, max_size=n * p))
    negate = draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p))
    values = [-v if v == 0.0 and minus else v for v, minus in zip(values, negate)]
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Dataset(np.array(values).reshape(n, p), np.array(labels), 3)


class TestBestSplit:
    def test_one_dim_example(self):
        data = one_dim_example()
        feature, threshold, decrease = best_split(data, [0, 1, 2, 3], [0])
        assert feature == 0
        assert threshold == 2.5
        assert decrease == 0.5

    def test_pure_node_has_no_split(self):
        data = Dataset(np.array([[1.0], [2.0], [5.0]]), np.array([1, 1, 1]), 2)
        assert best_split(data, [0, 1, 2], [0]) is None

    def test_constant_features_have_no_split(self):
        data = Dataset(np.full((6, 2), 3.0), np.array([0, 1, 0, 1, 0, 1]), 2)
        assert best_split(data, range(6), [0, 1]) is None

    def test_empty_indices_rejected(self):
        with pytest.raises(ValueError):
            best_split(one_dim_example(), [], [0])

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            best_split(one_dim_example(), [0, 1], [])

    def test_candidate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            best_split(one_dim_example(), [0, 1], [1])

    def test_non_dataset_rejected(self):
        with pytest.raises(TypeError, match=r"\bdata must be a Dataset"):
            best_split(np.zeros((4, 1)), [0, 1], [0])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            data = random_dataset(rng)
            indices = np.arange(data.n_samples)
            features = list(range(data.n_features))
            got = best_split(data, indices, features)
            expected = brute_force_best_split(data, indices, features)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert (got[0], got[1]) == (expected[0], expected[1])
                assert got[2] == pytest.approx(expected[2], abs=1e-12)

    def test_tie_breaks_to_lowest_feature(self):
        # identical columns: the same best split exists on features 0 and 1
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        data = Dataset(x, np.array([0, 0, 1, 1]), 2)
        feature, threshold, _ = best_split(data, range(4), [0, 1])
        assert feature == 0 and threshold == 2.5

    def test_tie_breaks_to_lowest_threshold(self):
        # symmetric labels: splitting off either end gives the same decrease
        data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 1, 1, 0]), 2)
        feature, threshold, _ = best_split(data, range(4), [0])
        assert feature == 0 and threshold == 1.5


def _candidate_arrays(seed: int):
    """Split candidates of 1-3 nodes with up to 1e8 rows each, as the
    integer arrays `_best_candidates` takes, and each node's exact q of
    every candidate. Left counts near the parent's class proportions give
    near-ties a float cannot order; repeated candidates give exact ties,
    half of an even parent a decrease of exactly zero. Many nodes have a
    single candidate."""
    rng = np.random.default_rng(seed)
    node, n_l, n_r, s_l, s_r, s_parent, exact = [], [], [], [], [], [], []
    for u in range(int(rng.integers(1, 4))):
        k = int(rng.integers(2, 5))
        parent = rng.integers(0, 10**8 // k + 1, k)
        parent[0] = max(int(parent[0]), 2)
        if rng.random() < 0.3:  # even counts, which halve with zero decrease
            parent += parent % 2
        s_parent.append(int((parent.astype(object) ** 2).sum()))
        cands = []
        count = 1 if rng.random() < 0.4 else int(rng.integers(2, 7))
        while len(cands) < count:
            if cands and rng.random() < 0.2:
                left = cands[int(rng.integers(0, len(cands)))]
            elif (parent % 2 == 0).all() and rng.random() < 0.3:
                left = parent // 2
            elif rng.random() < 0.5:
                left = np.floor(parent * rng.uniform(0.1, 0.9)).astype(np.int64) + \
                    rng.integers(-3, 4, k)
            else:
                left = rng.integers(0, parent + 1)
            left = np.clip(left, 0, parent)
            if 0 < left.sum() < parent.sum():
                cands.append(left)
        for left in cands:
            right = parent - left
            a, b = int(left.sum()), int(right.sum())
            c, d = int((left.astype(object) ** 2).sum()), int((right.astype(object) ** 2).sum())
            node.append(u)
            n_l.append(a)
            n_r.append(b)
            s_l.append(c)
            s_r.append(d)
        exact.append([Fraction(c, a) + Fraction(d, b) for a, b, c, d in
                      zip(n_l[-len(cands):], n_r[-len(cands):], s_l[-len(cands):],
                          s_r[-len(cands):])])
    arrays = [np.array(x, dtype=np.int64) for x in (node, n_l, n_r, s_l, s_r, s_parent)]
    return arrays, exact


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_exact_choice_matches_fractions(seed):
    arrays, exact = _candidate_arrays(seed)
    node, n_l, n_r, _, _, s_parent = arrays
    expected, offset = [], 0
    for u, q in enumerate(exact):
        best = max(q)
        if best > Fraction(int(s_parent[u]), int(n_l[offset] + n_r[offset])):
            expected.append(offset + q.index(best))
        offset += len(q)
    assert _best_candidates(*arrays).tolist() == expected


def test_exact_choice_orders_a_near_tie_that_floats_misorder():
    """Two thresholds of one feature at 80M rows (found by search): the
    first is exactly better, but its float q is 7.5e-9 lower, more than an
    absolute band of 1e-9 would admit."""
    parent = np.array([38301592, 41776557])
    lefts = np.array([[10287707, 11221074], [26129041, 28499635]])
    rights = parent - lefts
    s_l, s_r = (lefts ** 2).sum(axis=1), (rights ** 2).sum(axis=1)
    n_l, n_r = lefts.sum(axis=1), rights.sum(axis=1)
    q = [Fraction(int(c), int(a)) + Fraction(int(d), int(b))
         for a, b, c, d in zip(n_l, n_r, s_l, s_r)]
    assert q[0] > q[1] > Fraction(int(parent @ parent), int(parent.sum()))
    assert s_l[1] / n_l[1] + s_r[1] / n_r[1] > s_l[0] / n_l[0] + s_r[0] / n_r[0] + 1e-9
    assert _best_candidates(np.zeros(2, dtype=np.int64), n_l, n_r, s_l, s_r,
                            np.array([parent @ parent])).tolist() == [0]


def test_lone_candidate_without_decrease_is_rejected():
    """Labels 0, 1, 0, 1 over values 0, 0, 1, 1: the only candidate splits
    the parent into two halves of its class proportions."""
    data = Dataset(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 1, 0, 1]), 2)
    assert best_split(data, range(4), [0]) is None
    assert Fraction(1 + 1, 2) + Fraction(1 + 1, 2) == Fraction(2**2 + 2**2, 4)
    assert _best_candidates(*(np.array([x]) for x in (0, 2, 2, 2, 2, 8))).size == 0


@pytest.mark.parametrize("left, right, float_above", [
    ([2**30 - 1, 1], [2**30 - 2, 1], False),  # the smallest positive decrease here
    ([2**29, 2**29], [2**29 - 1, 2**29 - 1], False),  # no decrease
    ([41301568, 71974056], [199689072, 347987574], True),  # no decrease
])
def test_lone_candidate_near_the_parent_is_decided_exactly(left, right, float_above):
    """A lone candidate at weights near 2**31 whose float q does not clear
    the parent's by the band is accepted exactly when the Fraction oracle
    says it beats the parent, whichever side of the parent's q its float q
    lies on."""
    left, right = np.array(left), np.array(right)
    parent = left + right
    n_l, n_r, s_l, s_r, s_parent = (np.array([int(x)]) for x in (
        left.sum(), right.sum(), left @ left, right @ right, parent @ parent))
    assert parent.sum() < 2**31
    q = s_l / n_l + s_r / n_r
    assert q[0] <= s_parent[0] / parent.sum() * (1.0 + _NEAR_TIE)
    assert (q[0] > s_parent[0] / parent.sum()) == float_above
    beats = (Fraction(int(s_l[0]), int(n_l[0])) + Fraction(int(s_r[0]), int(n_r[0]))
             > Fraction(int(s_parent[0]), int(parent.sum())))
    assert beats == (left[0] * right.sum() != right[0] * left.sum())
    assert _best_candidates(np.zeros(1, dtype=np.int64), n_l, n_r, s_l, s_r,
                            s_parent).tolist() == ([0] if beats else [])


class TestFit:
    def test_one_dim_example_builds_depth_one_tree(self):
        tree = DecisionTree(SplitCriteria(), seed=0).fit(one_dim_example())
        root = tree.root
        assert not root.is_leaf
        assert root.feature == 0 and root.threshold == 2.5
        assert root.left.is_leaf and root.right.is_leaf
        assert root.left.class_counts.tolist() == [2, 0]
        assert root.right.class_counts.tolist() == [0, 2]

    def test_single_class_dataset_is_one_leaf(self):
        data = Dataset(np.array([[1.0], [5.0], [9.0]]), np.array([1, 1, 1]), 2)
        tree = DecisionTree().fit(data)
        assert tree.root.is_leaf
        assert tree.root.class_counts.tolist() == [0, 3]

    def test_single_sample_is_one_hot_leaf(self):
        data = Dataset(np.array([[2.0, 3.0]]), np.array([1]), 3)
        tree = DecisionTree().fit(data)
        assert tree.root.is_leaf
        assert tree.root.class_counts.tolist() == [0, 1, 0]

    def test_empty_dataset_rejected(self):
        data = Dataset(np.empty((0, 2)), np.empty(0, dtype=int), 2)
        with pytest.raises(ValueError):
            DecisionTree().fit(data)

    def test_min_samples_split_stops_growth(self):
        tree = DecisionTree(SplitCriteria(min_samples_split=5)).fit(one_dim_example())
        assert tree.root.is_leaf

    def test_min_impurity_decrease_stops_growth(self):
        tree = DecisionTree(SplitCriteria(min_impurity_decrease=0.6)).fit(one_dim_example())
        assert tree.root.is_leaf

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, n=120, p=4, k=3)
        probes = rng.uniform(-1.5, 1.5, (200, 4))
        criteria = SplitCriteria(max_features="sqrt")
        a = DecisionTree(criteria, seed=99).fit(data)
        b = DecisionTree(criteria, seed=99).fit(data)
        assert trees_equal(a.root, b.root)
        assert np.array_equal(a.predict(probes), b.predict(probes))

    def test_root_split_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            data = random_dataset(rng, n=80)
            tree = DecisionTree(SplitCriteria(), seed=1).fit(data)
            expected = brute_force_best_split(
                data, np.arange(data.n_samples), range(data.n_features))
            if expected is None:
                assert tree.root.is_leaf
            else:
                assert (tree.root.feature, tree.root.threshold) == (expected[0], expected[1])

    def test_count_conservation_after_fit(self):
        rng = np.random.default_rng(17)
        data = random_dataset(rng, n=150, p=3, k=3)
        tree = DecisionTree(SplitCriteria(), seed=2).fit(data)
        check_count_conservation(tree.root)
        assert int(tree.root.class_counts.sum()) == data.n_samples

    def test_leaves_nonempty_after_fit(self):
        rng = np.random.default_rng(19)
        data = random_dataset(rng, n=100, p=3, k=3)
        tree = DecisionTree(SplitCriteria(), seed=3).fit(data)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.class_counts.sum() > 0
            else:
                stack.append(node.left)
                stack.append(node.right)

    @pytest.mark.parametrize("low, high", BAD_MIDPOINT_PAIRS)
    def test_bad_midpoint_still_splits_both_ways(self, low, high):
        data = Dataset(np.array([[low], [high]]), np.array([0, 1]), 2)
        with time_limit(5):
            tree = DecisionTree().fit(data)
        assert tree.root.threshold == low
        assert tree.root.left.class_counts.tolist() == [1, 0]
        assert tree.root.right.class_counts.tolist() == [0, 1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(adversarial_datasets())
    def test_adversarial_floats_fit_and_route_as_scored(self, data):
        with time_limit(1):
            tree = DecisionTree().fit(data)
        assert tree.root.class_counts.tolist() == np.bincount(data.labels, minlength=3).tolist()
        check_count_conservation(tree.root)
        for node in iter_nodes(tree.root):
            assert node.class_counts.sum() > 0
        # The oracle scores each candidate by routing on its threshold and
        # checks that this sends exactly the rows at or below the lower value
        # left, so agreement means routing reproduces the scored partition.
        all_rows, all_features = np.arange(data.n_samples), range(data.n_features)
        got = best_split(data, all_rows, all_features)
        expected = brute_force_best_split(data, all_rows, all_features)
        if expected is None:
            assert got is None and tree.root.is_leaf
        else:
            assert got[:2] == expected[:2] == (tree.root.feature, tree.root.threshold)
            assert got[2] == pytest.approx(expected[2], abs=1e-12)

    def test_separable_blobs_training_accuracy(self):
        from streamforest import gen_synthetic
        data = gen_synthetic("blobs", 2000, noise=0.0, seed=5, n_classes=2)
        tree = DecisionTree(SplitCriteria(), seed=6).fit(data)
        accuracy = np.mean(tree.predict(data.features) == data.labels)
        assert accuracy >= 0.99


class TestPredictApply:
    def test_routes_to_pure_leaf(self):
        tree = DecisionTree().fit(one_dim_example())
        assert tree.predict_one([1.5]) == 0
        assert tree.predict_one([3.7]) == 1

    def test_single_leaf_prediction(self):
        data = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1, 1, 1]), 2)
        tree = DecisionTree().fit(data)
        assert tree.predict_one([100.0]) == 1

    def test_tied_counts_pick_lowest_class(self):
        data = Dataset(np.full((4, 1), 1.0), np.array([0, 0, 1, 1]), 2)
        tree = DecisionTree().fit(data)  # constant feature: stays one leaf
        assert tree.root.class_counts.tolist() == [2, 2]
        assert tree.predict_one([1.0]) == 0

    def test_boundary_value_routes_left(self):
        tree = DecisionTree().fit(one_dim_example())
        assert tree.apply([2.5]) == tree.root.left
        assert tree.apply([2.6]) == tree.root.right

    def test_single_leaf_apply_returns_root(self):
        data = Dataset(np.array([[0.0], [1.0]]), np.array([1, 1]), 2)
        tree = DecisionTree().fit(data)
        assert tree.apply([5.0]) == tree.root

    def test_every_point_reaches_exactly_one_leaf(self):
        rng = np.random.default_rng(23)
        data = random_dataset(rng, n=150, p=3, k=3, grid=False)
        tree = DecisionTree(SplitCriteria(), seed=4).fit(data)
        for x in rng.uniform(-5.0, 5.0, (100, 3)):
            leaf = tree.apply(x)
            assert leaf.is_leaf

    def test_dimension_mismatch_rejected(self):
        tree = DecisionTree().fit(one_dim_example())
        with pytest.raises(ValueError):
            tree.predict_one([1.0, 2.0])
        with pytest.raises(ValueError):
            tree.apply([1.0, 2.0])
        with pytest.raises(ValueError):
            tree.predict(np.zeros((3, 2)))

    @pytest.mark.parametrize("call, arg", [("predict", np.zeros((3, 1))),
                                           ("predict_one", [1.0]), ("apply", [1.0])])
    def test_unfitted_tree_says_it_is_not_fitted(self, call, arg):
        with pytest.raises(ValueError, match="DecisionTree is not fitted"):
            getattr(DecisionTree(), call)(arg)

    def test_batch_predict_matches_single(self):
        rng = np.random.default_rng(29)
        data = random_dataset(rng, n=120, p=4, k=3)
        tree = DecisionTree(SplitCriteria(), seed=5).fit(data)
        probes = rng.uniform(-2.0, 2.0, (50, 4))
        batch = tree.predict(probes)
        assert batch.tolist() == [tree.predict_one(x) for x in probes]


class TestCriteria:
    def test_sqrt_rule(self):
        assert SplitCriteria(max_features="sqrt").resolve_max_features(1) == 1
        assert SplitCriteria(max_features="sqrt").resolve_max_features(4) == 2
        assert SplitCriteria(max_features="sqrt").resolve_max_features(10) == 3
        assert SplitCriteria(max_features="sqrt").resolve_max_features(16) == 4
        assert SplitCriteria(max_features="sqrt").resolve_max_features(60) == 7

    def test_all_rule(self):
        assert SplitCriteria(max_features="all").resolve_max_features(9) == 9

    def test_fixed_rule_bounds(self):
        assert SplitCriteria(max_features=3).resolve_max_features(5) == 3
        with pytest.raises(ValueError):
            SplitCriteria(max_features=6).resolve_max_features(5)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            SplitCriteria(min_samples_split=1)
        with pytest.raises(ValueError):
            SplitCriteria(min_impurity_decrease=-0.1)
        with pytest.raises(ValueError):
            SplitCriteria(max_features="log2")
        with pytest.raises(ValueError):
            SplitCriteria(max_features=0)


class TestDataset:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int), 2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, -1]), 2)

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 0]), 1)

    @pytest.mark.parametrize("features, pattern", [
        (np.zeros(3), "2-D"), (np.zeros((3, 2, 1)), "2-D"),
        (np.zeros((3, 0)), "at least one feature")])
    def test_features_must_be_a_matrix_with_a_column(self, features, pattern):
        with pytest.raises(ValueError, match=pattern):
            Dataset(features, np.array([0, 1, 0]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[0.0], [bad], [1.0]]), np.array([0, 1, 0]), 2)

    def test_datasets_compare_by_identity(self):
        """Datasets compare by identity, as models do, so comparing two of
        many rows raises no error."""
        data = Dataset(np.zeros((2, 1)), np.array([0, 1]), 2)
        assert data == data and data != Dataset(data.features, data.labels, 2)

    def test_subset_keeps_class_count(self):
        data = Dataset(np.arange(12.0).reshape(6, 2), np.array([0, 1, 2, 0, 1, 2]), 4)
        sub = data.subset([1, 3])
        assert sub.n_samples == 2
        assert sub.n_classes == 4
