"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streamforest import (ExperimentConfig, gen_synthetic, load_csv, load_results,
                          run_cv_experiment, run_stream_experiment, save_csv)
from streamforest.cli import main


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "streamforest.cli", *args],
                          capture_output=True, text=True)


def synth(path, kind, *flags):
    """Write a synthetic CSV at `path` with the synth command; returns the
    path as a string, for --data or --test."""
    assert main(["synth", "--kind", kind, *flags, "--out", str(path)]) == 0
    return str(path)


def records_without_time(path):
    """The record lines of a results file, each without its train_seconds."""
    rows = []
    for line in path.read_text().splitlines()[1:]:
        record = json.loads(line)
        record.pop("train_seconds")
        rows.append(json.dumps(record, sort_keys=True))
    return rows


class TestSynth:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "blobs.csv"
        code = main(["synth", "--kind", "blobs", "--n", "120", "--classes", "3",
                     "--noise", "0.5", "--seed", "4", "--out", str(out)])
        assert code == 0
        data, _ = load_csv(out, header=True)
        assert data.n_samples == 120 and data.n_classes == 3

    def test_matches_library_generator(self, tmp_path):
        out = tmp_path / "xor.csv"
        assert main(["synth", "--kind", "xor", "--n", "80", "--seed", "2",
                     "--out", str(out)]) == 0
        loaded, _ = load_csv(out, header=True)
        direct = gen_synthetic("xor", 80, 0.0, seed=2)
        assert np.array_equal(loaded.features, direct.features)
        assert np.array_equal(loaded.labels, direct.labels)


class TestStream:
    def test_synthetic_stream_run(self, tmp_path):
        train = synth(tmp_path / "blobs.csv", "blobs", "--n", "150", "--noise", "0.5",
                      "--seed", "5")
        test = synth(tmp_path / "test.csv", "blobs", "--n", "80", "--noise", "0.5",
                     "--seed", "6")
        out = tmp_path / "results.jsonl"
        code = main(["stream", "--data", train, "--header", "--test", test,
                     "--batch-size", "50", "--trees", "4", "--reps", "1",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        meta, records = load_results(out)
        assert len(records) == 12
        assert meta["config"]["dataset"] == "blobs"

    def test_csv_stream_with_holdout(self, tmp_path):
        data = gen_synthetic("blobs", 200, noise=0.5, seed=6, n_classes=3)
        csv_path = tmp_path / "train.csv"
        save_csv(data, csv_path)
        out = tmp_path / "results.jsonl"
        code = main(["stream", "--data", str(csv_path), "--header",
                     "--batch-size", "50", "--trees", "3", "--reps", "1",
                     "--algorithms", "sdt,dt", "--seed", "7", "--out", str(out)])
        assert code == 0
        _, records = load_results(out)
        assert {r.algorithm for r in records} == {"sdt", "dt"}
        assert (tmp_path / "results.jsonl.labels.json").exists()

    def test_csv_stream_with_test_file(self, tmp_path):
        train = gen_synthetic("blobs", 150, noise=0.5, seed=8, n_classes=3)
        test = gen_synthetic("blobs", 60, noise=0.5, seed=9, n_classes=3)
        train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
        save_csv(train, train_path)
        save_csv(test, test_path)
        out = tmp_path / "results.jsonl"
        code = main(["stream", "--data", str(train_path), "--test", str(test_path),
                     "--header", "--batch-size", "75", "--trees", "3",
                     "--reps", "1", "--seed", "10", "--out", str(out)])
        assert code == 0
        _, records = load_results(out)
        assert max(r.n_samples for r in records) == 150

    @staticmethod
    def _write_relabelled(data, path, names):
        """Write `data` as f0,f1,label rows with class i labelled names[i]."""
        rows = ["f0,f1,label"] + [f"{x!r},{y!r},{names[c]}"
                                  for (x, y), c in zip(data.features.tolist(), data.labels)]
        path.write_text("\n".join(rows) + "\n")

    def test_test_file_labels_go_through_the_training_label_map(self, tmp_path):
        """The test file's labels are read through the training file's map
        of sorted distinct labels, so relabelling the classes 1,2,3 or a,b,c
        changes no record; the test file holds only the first two classes."""
        train = gen_synthetic("blobs", 150, noise=0.3, seed=8, n_classes=3)
        test = gen_synthetic("blobs", 90, noise=0.3, seed=9, n_classes=3)
        test = test.subset(np.nonzero(test.labels < 2)[0])
        runs = []
        for names in (["0", "1", "2"], ["1", "2", "3"], ["a", "b", "c"]):
            train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
            self._write_relabelled(train, train_path, names)
            self._write_relabelled(test, test_path, names)
            out = tmp_path / f"{names[0]}.jsonl"
            assert main(["stream", "--data", str(train_path), "--test", str(test_path),
                         "--header", "--batch-size", "75", "--trees", "3", "--reps", "1",
                         "--seed", "10", "--out", str(out)]) == 0
            runs.append(records_without_time(out))
        assert runs[0] == runs[1] == runs[2]
        assert min(r.accuracy for r in load_results(tmp_path / "a.jsonl")[1]
                   if r.algorithm == "dt") > 0.9

    def test_a_test_label_the_training_file_lacks_exits_1_naming_the_line(self, tmp_path,
                                                                          capsys):
        data = gen_synthetic("blobs", 60, noise=0.3, seed=8, n_classes=3)
        train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
        self._write_relabelled(data, train_path, ["a", "b", "c"])
        test_path.write_text("f0,f1,label\n0.0,0.0,a\n1.0,1.0,c\n2.0,2.0,d\n")
        out = tmp_path / "r.jsonl"
        assert main(["stream", "--data", str(train_path), "--test", str(test_path),
                     "--header", "--out", str(out)]) == 1
        assert "line 4, column 3: unknown label 'd'" in capsys.readouterr().err
        assert not out.exists()

    def test_a_named_label_column_reads_as_the_last_column(self, tmp_path):
        csv_path = tmp_path / "train.csv"
        save_csv(gen_synthetic("blobs", 120, noise=0.5, seed=6, n_classes=3), csv_path)

        def run(path, *flags):
            assert main(["stream", "--data", str(csv_path), "--header", *flags,
                         "--batch-size", "40", "--trees", "3", "--reps", "1", "--seed", "7",
                         "--out", str(path)]) == 0
            return records_without_time(path)

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl", "--label-col", "label")

    def test_blobs_default_to_three_classes(self, tmp_path):
        """Without --classes, synth writes blobs of 3 classes: a stream over
        its files writes the records of one over files of --classes 3."""
        def run(directory, *flags):
            directory.mkdir()
            train = synth(directory / "train.csv", "blobs", "--n", "120", "--noise", "0.4",
                          "--seed", "14", *flags)
            test = synth(directory / "test.csv", "blobs", "--n", "60", "--noise", "0.4",
                         "--seed", "15", *flags)
            out = directory / "r.jsonl"
            assert main(["stream", "--data", train, "--header", "--test", test,
                         "--batch-size", "40", "--trees", "3", "--reps", "1", "--seed", "14",
                         "--out", str(out)]) == 0
            return records_without_time(out)

        assert run(tmp_path / "a") == run(tmp_path / "b", "--classes", "3")

    def test_xor_takes_two_classes(self, tmp_path):
        train = synth(tmp_path / "train.csv", "xor", "--classes", "2", "--n", "120")
        test = synth(tmp_path / "test.csv", "xor", "--classes", "2", "--n", "60",
                     "--seed", "1")
        out = tmp_path / "xor.jsonl"
        assert main(["stream", "--data", train, "--header", "--test", test,
                     "--batch-size", "60", "--trees", "3", "--reps", "1",
                     "--out", str(out)]) == 0
        assert len(load_results(out)[1]) == 8


class TestSynthThenCsv:
    @pytest.mark.parametrize("kind", ["blobs", "xor", "concentric"])
    def test_runs_over_synth_csvs_match_the_library(self, kind, tmp_path):
        """stream over a train and a test CSV from synth, and cv over the
        train CSV, write the records that the experiments give in-process
        on the same generated datasets, apart from time and dataset."""
        train = synth(tmp_path / "train.csv", kind, "--n", "120", "--noise", "0.3",
                      "--seed", "21")
        test = synth(tmp_path / "test.csv", kind, "--n", "60", "--noise", "0.3",
                     "--seed", "22")
        flags = ["--header", "--batch-size", "40", "--trees", "3", "--seed", "21"]
        assert main(["stream", "--data", train, "--test", test, "--reps", "2", *flags,
                     "--out", str(tmp_path / "stream.jsonl")]) == 0
        assert main(["cv", "--data", train, "--folds", "2", *flags,
                     "--out", str(tmp_path / "cv.jsonl")]) == 0

        def rows(records):
            return [(r.algorithm, r.rep, r.n_samples, r.accuracy, r.nodes) for r in records]

        config = ExperimentConfig(dataset=kind, batch_size=40, n_trees=3, repetitions=2,
                                  seed=21)
        train_set = gen_synthetic(kind, 120, 0.3, seed=21)
        test_set = gen_synthetic(kind, 60, 0.3, seed=22)
        assert rows(load_results(tmp_path / "stream.jsonl")[1]) == rows(
            run_stream_experiment(config, train_set, test_set))
        assert rows(load_results(tmp_path / "cv.jsonl")[1]) == rows(
            run_cv_experiment(config, train_set))


class TestCv:
    def test_cv_run(self, tmp_path):
        data = synth(tmp_path / "blobs.csv", "blobs", "--n", "150", "--noise", "0.5",
                     "--seed", "11")
        out = tmp_path / "cv.jsonl"
        code = main(["cv", "--data", data, "--header", "--batch-size", "60",
                     "--trees", "3", "--folds", "3", "--seed", "11",
                     "--out", str(out)])
        assert code == 0
        _, records = load_results(out)
        assert {r.rep for r in records} == {0, 1, 2}

    def test_cv_on_a_csv_with_the_label_column_by_index(self, tmp_path):
        """--label-col 2 names the label column of f0,f1,label by index; cv
        writes the label map beside the results, as stream does."""
        csv_path, out = tmp_path / "train.csv", tmp_path / "cv.jsonl"
        save_csv(gen_synthetic("blobs", 90, noise=0.5, seed=6, n_classes=3), csv_path)
        assert main(["cv", "--data", str(csv_path), "--header", "--label-col", "2",
                     "--batch-size", "30", "--trees", "3", "--folds", "3", "--seed", "7",
                     "--out", str(out)]) == 0
        _, records = load_results(out)
        assert len(records) == 3 * 2 * 4  # folds x batches x algorithms
        labels = json.loads((tmp_path / "cv.jsonl.labels.json").read_text())
        assert labels == {"0": 0, "1": 1, "2": 2}


class TestEffect:
    def test_effect_report(self, tmp_path):
        results = tmp_path / "results.jsonl"
        report = tmp_path / "effect.json"
        train = synth(tmp_path / "blobs.csv", "blobs", "--n", "150", "--noise", "0.5",
                      "--seed", "12")
        test = synth(tmp_path / "test.csv", "blobs", "--n", "80", "--noise", "0.5",
                     "--seed", "13")
        assert main(["stream", "--data", train, "--header", "--test", test,
                     "--batch-size", "50", "--trees", "4", "--reps", "2",
                     "--seed", "12", "--out", str(results)]) == 0
        assert main(["effect", "--results", str(results),
                     "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert "blobs" in doc
        assert len(doc["blobs"]["series"]) == 3
        assert isinstance(doc["blobs"]["substantial_shift"], bool)

    def test_effect_without_out_prints_the_report(self, tmp_path, capsys):
        results, report = tmp_path / "results.jsonl", tmp_path / "effect.json"
        train = synth(tmp_path / "train.csv", "blobs", "--n", "80", "--seed", "12")
        test = synth(tmp_path / "test.csv", "blobs", "--n", "40", "--seed", "13")
        assert main(["stream", "--data", train, "--header", "--test", test,
                     "--batch-size", "40", "--trees", "2", "--reps", "1", "--seed", "12",
                     "--out", str(results)]) == 0
        assert main(["effect", "--results", str(results), "--out", str(report)]) == 0
        capsys.readouterr()
        assert main(["effect", "--results", str(results)]) == 0
        assert capsys.readouterr().out == report.read_text()


class TestErrors:
    def test_missing_file_exits_nonzero(self, tmp_path):
        result = run_cli("stream", "--data", str(tmp_path / "absent.csv"),
                         "--out", str(tmp_path / "r.jsonl"))
        assert result.returncode != 0
        assert "error" in result.stderr.lower()

    def test_unknown_algorithm_exits_nonzero(self, tmp_path):
        data = synth(tmp_path / "train.csv", "blobs", "--n", "40")
        result = run_cli("stream", "--data", data, "--header", "--algorithms", "gradboost",
                         "--out", str(tmp_path / "r.jsonl"))
        assert result.returncode != 0
        assert "gradboost" in result.stderr and "choose from sdt,sdf,dt,df" in result.stderr

    @pytest.mark.parametrize("frac", ["0", "-0.5", "1.0", "1.5", "nan", "inf"])
    def test_test_frac_outside_the_open_unit_interval_writes_nothing(self, frac, tmp_path,
                                                                     capsys):
        csv_path = tmp_path / "train.csv"
        save_csv(gen_synthetic("blobs", 40, noise=0.5, seed=6, n_classes=3), csv_path)
        code = main(["stream", "--data", str(csv_path), "--header", "--test-frac", frac,
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 1 and "--test-frac must be a finite number in (0, 1)" in (
            capsys.readouterr().err)
        assert sorted(tmp_path.iterdir()) == [csv_path]

    def test_test_frac_that_leaves_no_training_rows_writes_nothing(self, tmp_path, capsys):
        """Of 2 rows, --test-frac 0.75 holds out both: an error, exit 1."""
        csv_path = tmp_path / "train.csv"
        csv_path.write_text("x,label\n0.0,a\n1.0,b\n", encoding="utf-8")
        code = main(["stream", "--data", str(csv_path), "--header", "--test-frac", "0.75",
                     "--out", str(tmp_path / "r.jsonl")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and "--test-frac" in err
        assert sorted(tmp_path.iterdir()) == [csv_path]

    def test_failed_csv_run_leaves_no_label_sidecar(self, tmp_path, capsys):
        csv_path = tmp_path / "train.csv"
        save_csv(gen_synthetic("blobs", 40, noise=0.5, seed=6, n_classes=3), csv_path)
        code = main(["stream", "--data", str(csv_path), "--header",
                     "--test", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "r.jsonl")])
        assert code == 1 and "absent.csv" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [csv_path]

    @pytest.mark.parametrize("text", [
        "[1]\n",
        '{"format": "streamforest-results-v1"}\n{"algorithm": "sdf"}\n',
        '{"format": "streamforest-results-v1"}\n{"algorithm": "sdf", "dataset": "d", '
        '"rep": 0, "n_samples": 1, "accuracy": 1.0, "train_seconds": 0.0, "nodes": 1, '
        '"extra": 0}\n',
        '{"format": "streamforest-results-v1"}\n{"algorithm": "sdf", "dataset": "d", '
        '"rep": 0, "n_samples": 1, "accuracy": null, "train_seconds": 0.0, "nodes": 1}\n',
        '{"format": "streamforest-results-v1"}\n{"algorithm": "xyz", "dataset": 3, '
        '"rep": true, "n_samples": -1, "accuracy": 7, "train_seconds": "x", "nodes": 1.5}\n',
    ], ids=["header a list", "record short of fields", "record with an extra field",
            "null accuracy", "fields of the wrong types"])
    def test_malformed_results_file_is_an_error_not_a_traceback(self, text, tmp_path):
        """effect on a header that is not an object, a record short of
        fields, one with an extra field or one whose values are not of the
        record's types: exit 1 with an error line."""
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        result = run_cli("effect", "--results", str(path))
        assert result.returncode == 1 and result.stderr.startswith("error: line ")
        assert "Traceback" not in result.stderr

    def test_missing_subcommand_exits_nonzero(self):
        assert run_cli().returncode != 0

    @pytest.mark.parametrize("command", ["stream", "cv"])
    @pytest.mark.parametrize("flag", ["--synth-n", "--synth-classes", "--synth-features",
                                      "--synth-noise", "--synth-test"])
    def test_synth_flags_are_usage_errors(self, command, flag, tmp_path, capsys):
        """Synthetic data comes from the synth command alone: stream and cv
        refuse each --synth-* flag by name rather than drop it."""
        data = synth(tmp_path / "train.csv", "blobs", "--n", "40")
        with pytest.raises(SystemExit) as exit_:
            main([command, "--data", data, "--header", flag, "3",
                  "--out", str(tmp_path / "r.jsonl")])
        assert exit_.value.code == 2 and flag in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["train.csv"]

    def test_data_is_a_csv_path_whatever_its_name(self, tmp_path, monkeypatch, capsys):
        """--data blobs names a file, not a synthetic kind: with no such
        file it exits 1 naming it, and a CSV of that name is read."""
        monkeypatch.chdir(tmp_path)
        flags = ["--header", "--batch-size", "40", "--trees", "2", "--reps", "1",
                 "--out", "r.jsonl"]
        assert main(["stream", "--data", "blobs", *flags]) == 1
        assert "No such file or directory: 'blobs'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        synth("blobs", "xor", "--n", "80")
        assert main(["stream", "--data", "blobs", *flags]) == 0
        meta, records = load_results("r.jsonl")
        assert meta["config"]["dataset"] == "blobs" and len(records) == 4 * 2
        assert json.loads(Path("r.jsonl.labels.json").read_text()) == {"0": 0, "1": 1}

    def test_test_and_test_frac_are_exclusive(self, tmp_path, capsys):
        """A test file leaves no holdout to size, so --test-frac beside
        --test is a usage error, not a flag dropped."""
        train = synth(tmp_path / "train.csv", "blobs", "--n", "40")
        test = synth(tmp_path / "test.csv", "blobs", "--n", "40", "--seed", "1")
        with pytest.raises(SystemExit) as exit_:
            main(["stream", "--data", train, "--header", "--test", test, "--test-frac", "0.9",
                  "--out", str(tmp_path / "r.jsonl")])
        err = capsys.readouterr().err
        assert exit_.value.code == 2 and "--test-frac" in err and "not allowed" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["test.csv", "train.csv"]

    def test_results_over_a_directory_exit_1_naming_it(self, tmp_path, capsys):
        data = synth(tmp_path / "train.csv", "blobs", "--n", "40")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["stream", "--data", data, "--header", "--batch-size", "20",
                     "--trees", "2", "--reps", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(out)) in err and ".tmp" not in err
        assert list(out.iterdir()) == [] and sorted(tmp_path.iterdir()) == [out, Path(data)]

    def test_synth_test_is_not_a_cv_flag(self, tmp_path, capsys):
        """cv draws no test set, so it refuses --synth-test rather than drop it."""
        with pytest.raises(SystemExit) as exit_:
            main(["cv", "--data", "blobs", "--synth-test", "7", "--out", str(tmp_path / "r")])
        assert exit_.value.code == 2 and "--synth-test" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        pytest.param(["synth", "--kind", "concentric", "--n", "40", "--classes", "4"],
                     id="args1"),
        pytest.param(["synth", "--kind", "xor", "--n", "40", "--classes", "3"], id="args2"),
    ])
    def test_two_class_kind_refuses_another_class_count(self, args, tmp_path, capsys):
        assert main([*args, "--out", str(tmp_path / "r")]) == 1
        assert "two-class" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_synth_kind_exits_nonzero(self, tmp_path):
        result = run_cli("synth", "--kind", "spirals", "--n", "10",
                         "--out", str(tmp_path / "s.csv"))
        assert result.returncode != 0


class TestDeterminism:
    def test_same_seed_same_rows_excluding_time(self, tmp_path):
        train = synth(tmp_path / "train.csv", "blobs", "--n", "120", "--noise", "0.4",
                      "--seed", "13")
        test = synth(tmp_path / "test.csv", "blobs", "--n", "60", "--noise", "0.4",
                     "--seed", "14")

        def run(path, threads):
            assert main(["stream", "--data", train, "--header", "--test", test,
                         "--batch-size", "40", "--trees", "3", "--reps", "1",
                         "--threads", str(threads), "--seed", "13",
                         "--out", str(path)]) == 0
            return records_without_time(path)

        a = run(tmp_path / "a.jsonl", threads=1)
        b = run(tmp_path / "b.jsonl", threads=2)
        assert a == b
