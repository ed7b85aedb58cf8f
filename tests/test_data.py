"""CSV loading, batch/fold planning, synthetic generators."""

import re

import numpy as np
import pytest

from streamforest import (
    DataLoadError,
    Dataset,
    DecisionTree,
    SplitCriteria,
    gen_synthetic,
    load_csv,
    make_batches,
    make_folds,
    save_csv,
)

from helpers import brute_force_best_split


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_load_with_header(self, tmp_path):
        path = write_csv(tmp_path / "t.csv",
                         "a,b,label\n1.0,2.0,0\n3.0,4.0,1\n5.5,6.5,1\n")
        data, label_map = load_csv(path, label_column="label", header=True)
        assert data.n_samples == 3 and data.n_features == 2
        assert data.n_classes == 2
        assert data.labels.tolist() == [0, 1, 1]
        assert label_map == {"0": 0, "1": 1}

    def test_label_column_by_index(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "7,1.0,2.0\n3,1.5,2.5\n")
        data, _ = load_csv(path, label_column=0)
        assert data.features.tolist() == [[1.0, 2.0], [1.5, 2.5]]
        assert data.labels.tolist() == [1, 0]  # 3 sorts before 7

    def test_string_labels_map_sorted(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "1.0,rock\n2.0,jazz\n3.0,rock\n4.0,pop\n")
        data, label_map = load_csv(path)
        assert label_map == {"jazz": 0, "pop": 1, "rock": 2}
        assert data.labels.tolist() == [2, 0, 2, 1]
        assert data.n_classes == 3

    def test_integer_labels_sort_numerically(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "1.0,0\n2.0,2\n3.0,10\n")
        data, label_map = load_csv(path)
        assert label_map == {"0": 0, "2": 1, "10": 2}
        assert data.n_classes == 3

    def test_declared_class_count(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "1.0,0\n2.0,1\n")
        data, _ = load_csv(path, n_classes=5)
        assert data.n_classes == 5

    def test_a_given_label_map_sets_the_classes(self, tmp_path):
        """A test file read through a training file's map takes its classes,
        also where it lacks some of them."""
        path = write_csv(tmp_path / "t.csv", "1.0,b\n2.0,b\n")
        label_map = {"a": 0, "b": 1, "c": 2}
        data, returned = load_csv(path, label_map=label_map)
        assert data.labels.tolist() == [1, 1] and data.n_classes == 3
        assert returned == label_map
        with pytest.raises(ValueError, match="not both"):
            load_csv(path, n_classes=3, label_map=label_map)

    def test_declared_class_count_maps_the_texts_0_to_k_minus_1(self, tmp_path):
        """The map of n_classes=3 holds class 2 too, though no row has it."""
        path = write_csv(tmp_path / "t.csv", "1.0,1\n2.0,0\n3.0, 1 \n")
        data, label_map = load_csv(path, n_classes=3)
        assert label_map == {"0": 0, "1": 1, "2": 2}
        assert data.labels.tolist() == [1, 0, 1] and data.n_classes == 3

    def test_declared_class_count_rejects_unknown_label(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "1.0,0\n2.0,7\n")
        with pytest.raises(DataLoadError, match="line 2, column 2: unknown label '7'"):
            load_csv(path, n_classes=3)

    def test_non_integer_label_names_position(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "1.0,0\n2.0,a\n")
        with pytest.raises(DataLoadError, match="line 2, column 2: unknown label 'a'"):
            load_csv(path, n_classes=2)

    @pytest.mark.parametrize("cell", ["01", "+1", "1.0"])
    def test_declared_class_count_admits_only_its_texts(self, tmp_path, cell):
        """Under n_classes a label is one of the texts 0 ... K-1, as synth
        writes them, not any spelling of the integer."""
        path = write_csv(tmp_path / "t.csv", f"1.0,1\n2.0,{cell}\n")
        with pytest.raises(DataLoadError,
                           match=re.escape(f"line 2, column 2: unknown label '{cell}'")):
            load_csv(path, n_classes=3)

    def test_blank_cell_names_position(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "1.0,2.0,0\n1.5,,1\n")
        with pytest.raises(DataLoadError, match="line 2, column 2"):
            load_csv(path)

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "1.0,2.0,0\nx,3.0,1\n")
        with pytest.raises(DataLoadError, match="line 2, column 1"):
            load_csv(path)
        # blank lines count: the line named is the file's line
        path = write_csv(tmp_path / "blank.csv", "1,0\n\nz,1\n")
        with pytest.raises(DataLoadError, match="line 3, column 1: 'z' is not numeric"):
            load_csv(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "1.0,0\nnan,1\n")
        with pytest.raises(DataLoadError, match="non-finite"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "1.0,2.0,0\n1.0,1\n")
        with pytest.raises(DataLoadError, match="expected 3 cells"):
            load_csv(path)
        path = write_csv(tmp_path / "blank.csv", "a,b,label\n1.0,2.0,0\n\n\n1.0,1\n")
        with pytest.raises(DataLoadError, match="line 5: expected 3 cells, got 2"):
            load_csv(path, header=True)

    @pytest.mark.parametrize("text, kwargs", [
        ("label,x,y\nb,1.5,2.0\na,3.0,4.5\n", {"header": True, "label_column": "label"}),
        ("1.5,2.0,b\n3.0,4.5,a\n", {}),
    ], ids=["header", "no header"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, text, kwargs):
        """Excel's "CSV UTF-8" export and PowerShell begin the file with one."""
        plain = load_csv(write_csv(tmp_path / "plain.csv", text), **kwargs)
        marked = load_csv(write_csv(tmp_path / "marked.csv", "\ufeff" + text), **kwargs)
        assert marked[1] == plain[1] == {"a": 0, "b": 1}
        assert np.array_equal(marked[0].features, plain[0].features)
        assert np.array_equal(marked[0].labels, plain[0].labels)

    def test_missing_named_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "a,b\n1.0,0\n")
        with pytest.raises(DataLoadError, match="no column named"):
            load_csv(path, label_column="target", header=True)

    @pytest.mark.parametrize("text, kwargs, pattern", [
        ("", {"header": True}, "file is empty"),
        ("1.0,0\n", {"label_column": "label"}, "requires header=True"),
        ("1.0,0\n", {"label_column": 2}, "label column 2 out of range"),
        ("1.0,0\n", {"label_column": -3}, "label column -3 out of range"),
        ("1.0,0\n2.0, \n", {}, "line 2, column 2: empty cell"),
        ("1.0,0\n2.0,a\n", {"n_classes": 2}, "unknown label 'a'"),
        ("1.0,0\n2.0,2\n", {"label_map": {"0": 0, "1": 1}}, "line 2, column 2: unknown label"),
        # A header of another width than the rows, the label named or indexed.
        ("x,label\n1.0,2.0,a\n", {"header": True, "label_column": "label"},
         "line 1: header has 2 cells, line 2 has 3"),
        ("x,label\n1.0,2.0,a\n", {"header": True}, "line 1: header has 2 cells, line 2 has 3"),
        ("x,y,z,label\n1.0,2.0,a\n", {"header": True, "label_column": "label"},
         "line 1: header has 4 cells, line 2 has 3"),
        ("x,y,z,label\n1.0,2.0,a\n", {"header": True},
         "line 1: header has 4 cells, line 2 has 3"),
        ("y,f,y\n0,1.0,1\n1,2.0,0\n", {"header": True, "label_column": "y"},
         "line 1: the header names 2 columns 'y'"),
    ])
    def test_malformed_input_is_named(self, tmp_path, text, kwargs, pattern):
        path = write_csv(tmp_path / "t.csv", text)
        with pytest.raises(DataLoadError, match=pattern):
            load_csv(path, **kwargs)

    @pytest.mark.parametrize("kwargs, error, pattern", [
        ({"label_column": True}, TypeError, "label_column must be an integer, not True"),
        ({"label_column": 1.0}, TypeError, "label_column must be an integer, not 1.0"),
        ({"n_classes": True}, TypeError, "n_classes must be an integer, not True"),
        ({"n_classes": 3.0}, TypeError, "n_classes must be an integer, not 3.0"),
        ({"n_classes": 1}, ValueError, "n_classes must be at least 2, not 1"),
    ])
    def test_a_bad_label_column_or_class_count_is_named_before_reading(
            self, tmp_path, kwargs, error, pattern):
        """The file does not exist: the arguments are checked first."""
        with pytest.raises(error, match=pattern):
            load_csv(tmp_path / "absent.csv", **kwargs)

    def test_empty_file_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "")
        with pytest.raises(DataLoadError):
            load_csv(path)

    def test_dna_task_shape(self, tmp_path):
        # 60 encoded sequence positions, 3 junction classes, 3190 sequences
        rng = np.random.default_rng(0)
        data = Dataset(rng.integers(0, 4, (3190, 60)).astype(float),
                       rng.integers(0, 3, 3190), 3)
        path = tmp_path / "splice.csv"
        save_csv(data, path)
        loaded, _ = load_csv(path, header=True)
        assert loaded.n_samples == 3190
        assert loaded.n_features == 60
        assert loaded.n_classes == 3

    def test_digits_task_shape(self, tmp_path):
        # 16 pixel features, 10 digit classes, 7494 train / 3498 test
        rng = np.random.default_rng(1)
        for n, name in ((7494, "train"), (3498, "test")):
            data = Dataset(rng.integers(0, 100, (n, 16)).astype(float),
                           rng.integers(0, 10, n), 10)
            path = tmp_path / f"pendigits-{name}.csv"
            save_csv(data, path)
            loaded, _ = load_csv(path, header=True)
            assert loaded.n_samples == n
            assert loaded.n_features == 16
            assert loaded.n_classes == 10


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        data = Dataset(rng.standard_normal((50, 4)) * 1e3, rng.integers(0, 3, 50), 3)
        path = tmp_path / "round.csv"
        save_csv(data, path)
        loaded, _ = load_csv(path, header=True)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_headerless_round_trip(self, tmp_path):
        data = Dataset(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0, 1]), 2)
        path = tmp_path / "nh.csv"
        save_csv(data, path, header=False)
        loaded, _ = load_csv(path, header=False)
        assert np.array_equal(loaded.features, data.features)


class TestBatchPlan:
    def test_sizes_partition_with_remainder(self):
        plan = make_batches(250, 100, seed=0)
        assert [len(plan.batch(i)) for i in range(plan.n_batches)] == [100, 100, 50]

    def test_single_full_batch_is_permutation(self):
        plan = make_batches(100, 100, seed=1)
        assert plan.n_batches == 1
        assert sorted(plan.batch(0).tolist()) == list(range(100))

    def test_same_seed_same_ordering(self):
        a = make_batches(500, 100, seed=7)
        b = make_batches(500, 100, seed=7)
        assert np.array_equal(a.ordering, b.ordering)

    def test_ordering_is_bijection(self):
        plan = make_batches(313, 50, seed=3)
        assert sorted(plan.ordering.tolist()) == list(range(313))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_batches(0, 10)
        with pytest.raises(ValueError):
            make_batches(10, 0)


class TestFoldPlan:
    def test_even_folds(self):
        folds = make_folds(10, 5, seed=0)
        assert sorted(len(folds.test_indices(i)) for i in range(5)) == [2] * 5

    def test_uneven_folds(self):
        folds = make_folds(11, 5, seed=1)
        sizes = sorted(len(folds.test_indices(i)) for i in range(5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_folds_cover_and_are_disjoint(self):
        folds = make_folds(97, 5, seed=2)
        seen = np.concatenate([folds.test_indices(i) for i in range(5)])
        assert sorted(seen.tolist()) == list(range(97))
        for i in range(5):
            train = set(folds.train_indices(i).tolist())
            test = set(folds.test_indices(i).tolist())
            assert not train & test
            assert len(train | test) == 97

    def test_pure_function_of_seed(self):
        a = make_folds(50, 5, seed=9)
        b = make_folds(50, 5, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_folds(10, 1)
        with pytest.raises(ValueError):
            make_folds(3, 5)


class TestSynthetic:
    def test_clean_blobs_are_separable(self):
        data = gen_synthetic("blobs", 400, noise=0.0, seed=5, n_classes=2)
        tree = DecisionTree(SplitCriteria(), seed=6).fit(data)
        assert np.mean(tree.predict(data.features) == data.labels) == 1.0
        assert tree.node_count() <= 7  # clean separation needs few splits

    def test_xor_defeats_single_root_split(self):
        data = gen_synthetic("xor", 400, noise=0.0, seed=7)
        result = brute_force_best_split(data, np.arange(400), [0, 1])
        if result is not None:
            assert result[2] <= 0.02

    def test_concentric_rings_separate_radially(self):
        data = gen_synthetic("concentric", 400, noise=0.0, seed=8)
        radii = np.hypot(data.features[:, 0], data.features[:, 1])
        assert (radii[data.labels == 0] <= 1.0 + 1e-9).all()
        assert (radii[data.labels == 1] >= 1.5 - 1e-9).all()

    def test_deterministic_given_seed(self):
        for kind in ("blobs", "xor", "concentric"):
            a = gen_synthetic(kind, 200, noise=0.3, seed=9)
            b = gen_synthetic(kind, 200, noise=0.3, seed=9)
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_labels_balanced_within_one(self):
        for kind, k in (("blobs", 3), ("xor", 2), ("concentric", 2)):
            for n in (200, 201, 202, 203):
                data = gen_synthetic(kind, n, noise=0.2, seed=n,
                                     n_classes=k if kind == "blobs" else None)
                counts = np.bincount(data.labels, minlength=data.n_classes)
                assert counts.max() - counts.min() <= 1

    def test_extra_features_are_noise(self):
        data = gen_synthetic("blobs", 300, noise=0.0, seed=10, n_classes=3,
                             n_features=5)
        assert data.n_features == 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic("spirals", 100)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic("blobs", 3)
