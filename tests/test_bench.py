"""Benchmark orchestration: record bookkeeping, effect sizes, results files."""

import errno
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from streamforest import (
    BenchRecord,
    DecisionTree,
    ExperimentConfig,
    SplitCriteria,
    effect_series,
    effect_size,
    emit_results,
    gen_synthetic,
    has_substantial_shift,
    load_results,
    make_batches,
    make_folds,
    run_cv_experiment,
    run_stream_experiment,
)
from streamforest import snapshot
from streamforest.bench import _rep_seeds


# A results file's header and one record, as JSON lines.
HEADER = '{"format": "streamforest-results-v1"}'
RECORD = json.dumps(asdict(BenchRecord("sdf", "blobs", 0, 50, 0.5, 0.1, 7)))


def small_config(**overrides) -> ExperimentConfig:
    base = dict(dataset="blobs", batch_size=50, n_trees=5, replace_count=1,
                repetitions=1, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def small_data(n_train=150, n_test=100, noise=0.5, seed=1):
    train = gen_synthetic("blobs", n_train, noise=noise, seed=seed, n_classes=3)
    test = gen_synthetic("blobs", n_test, noise=noise, seed=seed + 1000, n_classes=3)
    return train, test


def strip_times(records):
    return [{k: v for k, v in asdict(r).items() if k != "train_seconds"}
            for r in records]


class TestStreamExperiment:
    def test_record_cardinality(self):
        train, test = small_data()
        records = run_stream_experiment(small_config(), train, test)
        assert len(records) == 3 * 4  # 3 batches x 4 algorithms

    def test_cumulative_time_nondecreasing(self):
        train, test = small_data()
        records = run_stream_experiment(small_config(), train, test)
        for algo in ("sdt", "sdf", "dt", "df"):
            times = [r.train_seconds for r in records if r.algorithm == algo]
            assert all(a <= b for a, b in zip(times, times[1:]))

    def test_sample_sizes_strictly_increase(self):
        train, test = small_data()
        records = run_stream_experiment(small_config(), train, test)
        for algo in ("sdt", "df"):
            sizes = [r.n_samples for r in records if r.algorithm == algo]
            assert sizes == [50, 100, 150]

    def test_accuracy_in_unit_interval(self):
        train, test = small_data()
        for r in run_stream_experiment(small_config(), train, test):
            assert 0.0 <= r.accuracy <= 1.0

    def test_first_batch_anchors_stream_to_batch_tree(self):
        train, test = small_data()
        records = run_stream_experiment(small_config(), train, test)
        by_algo = {r.algorithm: r for r in records if r.n_samples == 50}
        assert by_algo["sdt"].accuracy == by_algo["dt"].accuracy
        assert by_algo["sdt"].nodes == by_algo["dt"].nodes

    def test_algorithm_subset_runs_alone(self):
        train, test = small_data()
        records = run_stream_experiment(small_config(algorithms=("sdf",)), train, test)
        assert {r.algorithm for r in records} == {"sdf"}
        assert len(records) == 3

    def test_subset_does_not_change_record_values(self):
        train, test = small_data()
        full = run_stream_experiment(small_config(), train, test)
        only_df = run_stream_experiment(small_config(algorithms=("df",)), train, test)
        full_df = [r for r in full if r.algorithm == "df"]
        assert strip_times(full_df) == strip_times(only_df)

    def test_baseline_refit_semantics(self):
        train, test = small_data()
        config = small_config()
        records = run_stream_experiment(config, train, test)
        seeds = _rep_seeds(np.random.default_rng(config.seed))
        plan = make_batches(train.n_samples, config.batch_size, seeds["plan"])
        for batch_index in range(plan.n_batches):
            seen = plan.boundaries[batch_index][1]
            refit = DecisionTree(SplitCriteria(max_features="all"),
                                 seeds["tree"]).fit(train.subset(plan.ordering[:seen]))
            accuracy = float(np.mean(refit.predict(test.features) == test.labels))
            record = next(r for r in records
                          if r.algorithm == "dt" and r.n_samples == seen)
            assert record.accuracy == accuracy
            assert record.nodes == refit.node_count()

    def test_mismatched_test_set_rejected(self):
        train, _ = small_data()
        bad_test = gen_synthetic("blobs", 50, seed=9, n_classes=3, n_features=4)
        with pytest.raises(ValueError, match="feature count"):
            run_stream_experiment(small_config(), train, bad_test)
        bad_test = gen_synthetic("blobs", 50, seed=9, n_classes=4)
        with pytest.raises(ValueError, match="class count"):
            run_stream_experiment(small_config(), train, bad_test)

    def test_repetitions_vary_batch_orderings(self):
        train, test = small_data()
        records = run_stream_experiment(small_config(repetitions=2), train, test)
        assert {r.rep for r in records} == {0, 1}

    def test_clean_blobs_reach_high_final_accuracy(self):
        train = gen_synthetic("blobs", 1000, noise=0.0, seed=20, n_classes=3)
        test = gen_synthetic("blobs", 500, noise=0.0, seed=21, n_classes=3)
        config = small_config(algorithms=("sdf",), batch_size=100, n_trees=20)
        records = run_stream_experiment(config, train, test)
        final = next(r for r in records if r.n_samples == 1000)
        assert final.accuracy >= 0.95


class TestCvExperiment:
    def test_every_sample_held_out_once(self):
        data = gen_synthetic("blobs", 200, noise=0.5, seed=4, n_classes=3)
        config = small_config(repetitions=5, batch_size=40)
        run_cv_experiment(config, data)  # must not raise
        folds = make_folds(200, 5, int(np.random.default_rng(config.seed)
                                       .integers(0, 2**63)))
        held_out = np.concatenate([folds.test_indices(i) for i in range(5)])
        assert sorted(held_out.tolist()) == list(range(200))

    def test_record_counts_per_fold_equal(self):
        data = gen_synthetic("blobs", 200, noise=0.5, seed=5, n_classes=3)
        records = run_cv_experiment(small_config(repetitions=5, batch_size=40), data)
        counts = {fold: sum(r.rep == fold for r in records) for fold in range(5)}
        assert len(set(counts.values())) == 1

    def test_mean_over_folds_is_plain_average(self):
        data = gen_synthetic("blobs", 150, noise=0.5, seed=6, n_classes=3)
        records = run_cv_experiment(small_config(repetitions=3, batch_size=50), data)
        df_final = [r.accuracy for r in records
                    if r.algorithm == "df" and r.n_samples == 100]
        assert len(df_final) == 3
        assert np.mean(df_final) == pytest.approx(sum(df_final) / 3)

    def test_needs_two_folds(self):
        data = gen_synthetic("blobs", 100, seed=7, n_classes=3)
        with pytest.raises(ValueError):
            run_cv_experiment(small_config(repetitions=1), data)


class TestEffectSize:
    def test_equal_means_give_zero(self):
        assert effect_size([0.9, 0.9], [0.9, 0.9]) == 0.0

    def test_hand_checked_ratio(self):
        assert effect_size([0.9, 0.9], [0.8, 0.8]) == 0.125

    def test_sign_favors_first_argument(self):
        assert effect_size([0.8], [0.9]) < 0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            effect_size([0.5], [0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            effect_size([0.5, 0.6], [0.5])
        with pytest.raises(ValueError):
            effect_size([], [])

    def test_antisymmetry_at_equal_vectors(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.uniform(0.1, 1.0, 5).tolist()
            assert effect_size(a, a) == 0.0


class TestSubstantialShift:
    def test_fires_when_series_swings_past_both_thresholds(self):
        assert has_substantial_shift([0.02, -0.015, 0.0])
        assert has_substantial_shift([0.011, -0.03])

    def test_quiet_series_does_not_fire(self):
        assert not has_substantial_shift([0.005, -0.005])
        assert not has_substantial_shift([0.02, 0.03])   # never dips
        assert not has_substantial_shift([-0.02, -0.03])  # never rises
        assert not has_substantial_shift([])

    def test_boundary_values_count(self):
        assert has_substantial_shift([0.01, -0.01])


class TestEffectSeries:
    def test_series_from_records(self):
        records = [
            BenchRecord("sdf", "d", 0, 100, 0.9, 0.0, 1),
            BenchRecord("sdf", "d", 1, 100, 0.9, 0.0, 1),
            BenchRecord("df", "d", 0, 100, 0.8, 0.0, 1),
            BenchRecord("df", "d", 1, 100, 0.8, 0.0, 1),
            BenchRecord("sdf", "d", 0, 200, 0.8, 0.0, 1),
            BenchRecord("sdf", "d", 1, 200, 0.8, 0.0, 1),
            BenchRecord("df", "d", 0, 200, 0.9, 0.0, 1),
            BenchRecord("df", "d", 1, 200, 0.9, 0.0, 1),
        ]
        series = effect_series(records)
        assert list(series) == ["d"]
        points = series["d"]
        assert points[0] == (100, 0.125)
        assert points[1][0] == 200 and points[1][1] < 0
        assert has_substantial_shift([e for _, e in points])

    def test_other_algorithms_ignored(self):
        records = [
            BenchRecord("sdt", "d", 0, 100, 0.1, 0.0, 1),
            BenchRecord("sdf", "d", 0, 100, 0.9, 0.0, 1),
            BenchRecord("df", "d", 0, 100, 0.9, 0.0, 1),
        ]
        assert effect_series(records)["d"] == [(100, 0.0)]


class TestResultsFile:
    def test_round_trip(self, tmp_path):
        train, test = small_data()
        config = small_config()
        records = run_stream_experiment(config, train, test)
        path = tmp_path / "results.jsonl"
        emit_results(records, path, config)
        meta, loaded = load_results(path)
        assert loaded == records
        assert meta["seed"] == config.seed
        assert meta["config"]["n_trees"] == config.n_trees
        assert meta["bytes_per_node"] > 0

    def test_numpy_valued_config_round_trips(self, tmp_path):
        config = small_config(batch_size=np.int64(50), n_trees=np.int32(5),
                              replace_count=np.int64(1), repetitions=np.int64(1),
                              seed=np.uint16(3), threads=np.int64(1))
        records = [BenchRecord("sdf", "blobs", 0, 50, 0.5, 0.1, 7)]
        path = tmp_path / "results.jsonl"
        emit_results(records, path, config)
        meta, loaded = load_results(path)
        assert loaded == records
        assert meta["config"] == asdict(small_config()) | {"algorithms": list(config.algorithms)}

    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        emit_results([], path, small_config())
        meta, records = load_results(path)
        assert records == []
        assert meta["format"] == "streamforest-results-v1"

    def test_failed_write_keeps_the_old_results(self, tmp_path, monkeypatch):
        config = small_config()
        records = run_stream_experiment(config, *small_data())
        path = tmp_path / "results.jsonl"
        emit_results(records, path, config)
        old = path.read_bytes()

        class FailingWriter:
            """A file that fails on the second write, after the header."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def failing_open(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            return FailingWriter(fh) if set(mode) & set("wxa") else fh

        monkeypatch.setattr(snapshot, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            emit_results(records[:1], path, config)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["results.jsonl"]

    def test_a_write_into_a_missing_directory_names_the_path(self, tmp_path):
        target = tmp_path / "missing" / "results.jsonl"
        with pytest.raises(FileNotFoundError) as raised:
            emit_results([], target, small_config())
        assert raised.value.filename == str(target)
        assert raised.value.errno == errno.ENOENT
        assert ".tmp" not in str(raised.value)
        assert os.listdir(tmp_path) == []

    def test_a_write_over_a_directory_names_the_path(self, tmp_path):
        """The rename of the finished file fails; the error names the path
        asked for, and the temporary file is gone."""
        target = tmp_path / "results.jsonl"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            emit_results([], target, small_config())
        assert raised.value.filename == str(target)
        assert raised.value.errno == errno.EISDIR
        assert ".tmp" not in str(raised.value)
        assert os.listdir(tmp_path) == ["results.jsonl"] and os.listdir(target) == []

    def test_integer_accuracy_and_time_load(self, tmp_path):
        """A float field also takes a JSON integer: another tool may write
        1.0 as 1."""
        path = tmp_path / "r.jsonl"
        path.write_text("\n".join([HEADER, RECORD.replace('"accuracy": 0.5', '"accuracy": 1')
                                  .replace('"train_seconds": 0.1', '"train_seconds": 0')]))
        (record,) = load_results(path)[1]
        assert record.accuracy == 1 and record.train_seconds == 0

    def test_non_results_file_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "unrelated"}\n')
        with pytest.raises(ValueError):
            load_results(path)

    @pytest.mark.parametrize("lines, pattern", [
        (["[1]"], "line 1: expected a JSON object"),
        (["", HEADER, "not json"], "line 3: not JSON"),
        ([HEADER, "[1]"], "line 2: expected a JSON object"),
        ([HEADER, RECORD, '{"algorithm": "sdf"}'], "line 3: expected a JSON object with"),
        ([HEADER, RECORD[:-1] + ', "extra": 1}'], "line 2: expected a JSON object with"),
        (['{"format": "unrelated"}', RECORD], "line 1: not a streamforest-results-v1"),
        ([], "empty results file"),
        ([HEADER, RECORD, RECORD.replace('"accuracy": 0.5', '"accuracy": null')],
         "line 3: accuracy must be float"),
        ([HEADER, RECORD.replace('"rep": 0', '"rep": true')], "line 2: rep must be int"),
        ([HEADER, RECORD.replace('"nodes": 7', '"nodes": 7.0')], "line 2: nodes must be int"),
        ([HEADER, RECORD.replace('"dataset": "blobs"', '"dataset": 3')],
         "line 2: dataset must be str"),
        ([HEADER, RECORD.replace('"train_seconds": 0.1', '"train_seconds": "x"')],
         "line 2: train_seconds must be float"),
        ([HEADER, RECORD, RECORD.replace('"accuracy": 0.5', '"accuracy": NaN')],
         "line 3: not JSON: NaN is not a number in strict JSON"),
        ([HEADER, RECORD.replace('"train_seconds": 0.1', '"train_seconds": Infinity')],
         "line 2: not JSON: Infinity"),
        ([HEADER, RECORD.replace('"accuracy": 0.5', '"accuracy": -Infinity')],
         "line 2: not JSON: -Infinity"),
    ], ids=["header a list", "not JSON", "record a list", "record short of fields",
            "record with an extra field", "another format", "empty", "null accuracy",
            "bool rep", "float nodes", "int dataset", "string time", "NaN accuracy",
            "Infinity time", "-Infinity accuracy"])
    def test_malformed_file_raises_value_error_naming_the_line(self, tmp_path, lines,
                                                               pattern):
        """A header that is not an object, and a record that is not an
        object with exactly the record's fields, each of its annotated type,
        raise ValueError, not the AttributeError or TypeError that reading
        them would."""
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=pattern):
            load_results(path)

    def test_reruns_identical_up_to_wall_time(self, tmp_path):
        train, test = small_data()
        config = small_config(repetitions=2)
        a = run_stream_experiment(config, train, test)
        b = run_stream_experiment(config, train, test)
        assert strip_times(a) == strip_times(b)

    def test_threads_do_not_change_results(self):
        train, test = small_data()
        serial = run_stream_experiment(small_config(repetitions=3), train, test)
        threaded = run_stream_experiment(small_config(repetitions=3, threads=3),
                                         train, test)
        assert strip_times(serial) == strip_times(threaded)

    def test_unguarded_script_runs_worker_processes(self, tmp_path):
        # A script that calls the experiment at top level, with no
        # ``if __name__ == "__main__"`` guard, must not break the workers.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from streamforest import ExperimentConfig, gen_synthetic, "
            "run_stream_experiment\n"
            "train = gen_synthetic('blobs', 150, noise=0.5, seed=1, n_classes=3)\n"
            "test = gen_synthetic('blobs', 100, noise=0.5, seed=2, n_classes=3)\n"
            "config = ExperimentConfig(dataset='blobs', batch_size=50, n_trees=5, "
            "repetitions=2, threads=2, seed=3)\n"
            "print(len(run_stream_experiment(config, train, test)))\n")
        done = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["24"]


class TestConfigValidation:
    def test_rejects_empty_algorithms(self):
        with pytest.raises(ValueError):
            small_config(algorithms=())

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            small_config(algorithms=("sdf", "xgb"))

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            small_config(batch_size=0)

    def test_rejects_bad_replace_count(self):
        with pytest.raises(ValueError):
            small_config(replace_count=99)

    @pytest.mark.parametrize("name, value, error", [
        ("batch_size", True, TypeError), ("batch_size", 0, ValueError),
        ("n_trees", 2.5, TypeError), ("n_trees", 0, ValueError),
        ("repetitions", False, TypeError), ("repetitions", 0, ValueError),
        ("threads", 1.0, TypeError), ("threads", 0, ValueError), ("threads", "2", TypeError),
        ("replace_count", -1, ValueError), ("replace_count", 0.5, TypeError),
        ("replace_count", True, TypeError),
        ("seed", -1, ValueError), ("seed", 1.5, TypeError), ("seed", True, TypeError),
    ])
    def test_bad_count_is_named(self, name, value, error):
        """Checked at construction, so no worker process ever starts."""
        with pytest.raises(error, match=name):
            small_config(**{name: value})

    @pytest.mark.parametrize("name, value, pattern", [
        ("dataset", 3, "dataset must be a str, not 3"),
        ("algorithms", "sdf", "algorithms must be a sequence of names, not the str 'sdf'"),
    ])
    def test_a_field_of_the_wrong_type_is_named(self, name, value, pattern):
        """A dataset that is not a str would write a results file that
        load_results refuses; one algorithm name as a str would be read as
        its letters."""
        with pytest.raises(TypeError, match=pattern):
            small_config(**{name: value})

    def test_replace_copies_cleanly(self):
        config = replace(small_config(), repetitions=7)
        assert config.repetitions == 7
