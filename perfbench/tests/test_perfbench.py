"""Tests of the benchmark harness itself: percentiles, self-time arithmetic,
the comparison rule, the speed probe, the span recorder and a tiny run of
each workload.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import speed  # noqa: E402
import streamforest as sf  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Shape(n_train=300, n_test=100, n_classes=3, batch_size=50, n_trees=4,
                       setups=2, min_updates=8, min_fits=2, min_steps=4, one_calls=2,
                       bulk_every=2, snapshot_every=3, steps_per_fit=3, accuracy_floor=0.5)


def test_percentile_matches_numpy_linear_method():
    values = list(np.random.default_rng(0).exponential(size=137))
    for q in (0, 25, 50, 90, 99, 100):
        assert summary.percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert summary.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        summary.percentile([], 50)


@pytest.mark.parametrize("n, tail", [(10_000, 99.9), (1000, 99), (999, 90), (100, 90),
                                     (99, 50), (20, 50), (19, None)])
def test_supported_tail_leaves_ten_samples_beyond(n, tail):
    assert summary.supported_tail(n) == tail


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert summary.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert summary.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap by one,
    # and c [9, 12], which runs past its parent and is clipped to [9, 10];
    # a has one child [2, 3].
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert tracing.self_times(parent, start, end) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_self_time_of_nested_spans_adds_up_to_wall_time():
    parent = [-1, 0, 1, 1, -1]
    start = [0.0, 0.5, 0.6, 1.0, 5.0]
    end = [2.0, 1.5, 0.9, 1.2, 6.0]
    assert sum(tracing.self_times(parent, start, end)) == pytest.approx(3.0)


def test_verdicts_follow_the_pair_and_spread_rule():
    base = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    faster = [v * 0.8 for v in base]
    pairs = list(zip(base, faster))
    assert summary.verdict(base, faster, pairs, "lower", 0.1) == "improved"
    assert summary.verdict(base, base, list(zip(base, base)), "lower", 0.1) == "same"
    slower = [v * 1.3 for v in base]
    assert summary.verdict(base, slower, list(zip(base, slower)), "lower", 0.1) == "worse"
    near = [v * 1.01 for v in base]
    assert summary.verdict(base, near, list(zip(base, near)), "lower", 0.1) == "no worse"
    noisy = [1.0, 30.0, 2.0, 25.0, 9.0, 14.0, 3.0, 20.0, 8.0, 11.0]
    assert summary.verdict(base, noisy, list(zip(base, noisy)), "lower", 0.1) == "unresolved"


def test_compare_pairs_runs_by_seed(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def record(seed, value):
        return {"workload": "ingest", "seed": seed,
                "metrics": {"refit_s": {"value": value, "unit": "s"},
                            "tree.route.calls": {"value": None, "unit": "count"}}}
    base = [record(s, 4.0 + 0.01 * s) for s in range(10)]
    new = [record(s, 2.0 + 0.01 * s) for s in reversed(range(10))]
    rows = summary.compare(base, new, spec)
    assert [(r["metric"], r["pairs"], r["wins"], r["verdict"]) for r in rows] == [
        ("refit_s", 10, 10, "improved")]


def test_compare_keeps_every_run_of_a_repeated_seed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def record(seed, value):
        return {"workload": "refit", "seed": seed, "metrics": {"refit_s": {"value": value}}}
    # Two sets with the same seeds in one file: 20 runs, paired k-th with k-th.
    base = [record(s, 4.0) for s in range(10)] + [record(s, 4.2) for s in range(10)]
    new = [record(s, 3.0) for s in range(10)] + [record(s, 4.4) for s in range(10)]
    (row,) = summary.compare(base, new, spec)
    assert row["pairs"] == 20 and row["wins"] == 10
    assert row["base"] == summary.quartiles([4.0] * 10 + [4.2] * 10)
    assert row["verdict"] == "unresolved"


def test_speed_probe_states_times_at_the_reference_speed():
    probe = speed.SpeedProbe()
    # Kernel runs at twice the reference time around t = 10 s; none near t = 20 s.
    probe.at = [9.9 + 0.01 * i for i in range(20)]
    probe.took = [2 * speed.REF_KERNEL_S] * 20
    assert probe.scale(10.0, 10.05, 0.04) == pytest.approx(0.02)
    with pytest.raises(RuntimeError):
        probe.scale(20.0, 20.1, 0.04)
    with speed.SpeedProbe() as live:
        out, start, end, own = live.time(lambda: sum(range(2_000_000)))
        time.sleep(0.3)
        runs = len(live.took)
        _, held_start, held_end, held_own = live.time(time.sleep, 0.05, hold=True)
        assert len(live.took) <= runs + 1
        time.sleep(0.3)
    assert out == sum(range(2_000_000)) and start < end
    assert len(live.took) >= 10
    assert 0 < own <= end - start
    assert 0.05 <= held_own <= held_end - held_start
    assert live.scale(start, end, own) > 0


def test_recorder_wraps_every_binding_and_restores_them():
    originals = (sf.best_split, sf.tree.best_split, sf.tree.DecisionTree.predict)
    rec = tracing.Recorder()
    missing = tracing.Target("tree.route", "streamforest.tree", "_no_such_helper")
    rec.install([t for t in tracing.TARGETS if t.span != "tree.route"] + [missing])
    try:
        assert sf.best_split is sf.tree.best_split is not originals[0]
        data = sf.gen_synthetic("blobs", 60, seed=1)
        tree = sf.DecisionTree(seed=0).fit(data)
        tree.predict(data.features)
    finally:
        rec.uninstall()
    assert (sf.best_split, sf.tree.best_split, sf.tree.DecisionTree.predict) == originals
    assert rec.absent == {"tree.route"}
    selfs = tracing.self_times(rec.parent, rec.start, rec.end)
    m = tracing.layer_metrics(rec, selfs, {})
    assert m["tree.route.calls"] is None and m["tree.route.self_s"] is None
    assert m["tree.best_split.calls"] >= 1
    assert m["tree.predict.calls"] == 1 and m["tree.predict.rows"] == 60
    assert m["data.gen.s"] > 0 and m["data.plan.s"] == 0.0
    grow_calls = m["tree.grow.calls"]
    assert grow_calls >= 1 and 0 < m["tree.grow.split_ratio"] <= 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_of_each_workload_is_correct_and_repeatable(name, tmp_path):
    with speed.SpeedProbe() as probe:
        run = workloads.run_workload(name, 7, 0.0, TINY, tmp_path, probe)
        time.sleep(speed.WINDOW_S)  # kernel runs after the last call, as in a real run
    metrics, samples = workloads.end_to_end(run)
    assert run.failed == 0 and run.attempted > 0
    assert all(np.isfinite(v) and v > 0 for v in metrics.values()), metrics
    assert metrics["success_rate"] == 1.0
    assert samples["update_ms_p50"] == {"ingest": TINY.min_updates, "refit": TINY.min_fits,
                                        "serve": TINY.n_train // TINY.batch_size - 1}[name]
    again = workloads.run_workload(name, 7, 0.0, TINY, tmp_path, speed.WallClock())
    assert (again.digest, again.nodes, again.accuracy) == (run.digest, run.nodes, run.accuracy)
    assert again.attempted == run.attempted


def test_traced_profiles_separate_routing_from_refit(tmp_path):
    ingest, (attempted, failed), _ = tracing.traced_run("ingest", 3, TINY, tmp_path)
    refit, _, by_span = tracing.traced_run("refit", 3, TINY, tmp_path)
    assert failed == 0 and attempted > 0
    assert ingest["tree.route.calls"] > 0 and refit["tree.route.calls"] == 0
    assert refit["tree.best_split.calls"] > 0
    assert refit["forest.bootstrap.calls"] == TINY.n_trees * TINY.min_fits
    assert refit["data.plan.s"] == 0.0 and ingest["data.plan.s"] > 0
    assert ingest["forest.replace.draws"] == TINY.min_updates
    assert ingest["model.bytes_per_node"] > 0
    assert ingest["model.bytes_per_node_const"] == sf.BYTES_PER_NODE
    assert "forest.fit" in by_span


def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ingest",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
