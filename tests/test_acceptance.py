"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them on success).

Statistical criteria run on seeded synthetic data, so every expected value
here is reproducible; the digit-recognition convergence check runs on its
stated synthetic fallback since the original corpus is not bundled.
"""

import json
import time

import numpy as np

from streamforest import (
    BatchForest,
    Dataset,
    DecisionTree,
    SplitCriteria,
    StreamForest,
    StreamTree,
    best_split,
    effect_size,
    gen_synthetic,
    has_substantial_shift,
    make_batches,
)
from streamforest.cli import main as cli_main

from helpers import (
    brute_force_best_split,
    check_count_conservation,
    collect_internal_splits,
    is_same_or_descendant,
    plant_constant_trees,
    random_dataset,
    split_totals,
    trees_equal,
)


def report(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status} ({detail}, {time.perf_counter() - started:.1f}s)")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_oracle_split_equivalence():
    # 50 random datasets (n <= 200, p <= 5, K <= 3): split search must equal
    # an exhaustive exact-arithmetic brute force, tie rule included. < 10 s.
    started = time.perf_counter()
    mismatches = []
    for trial in range(50):
        rng = np.random.default_rng(20_000 + trial)
        data = random_dataset(rng)
        indices = np.arange(data.n_samples)
        features = list(range(data.n_features))
        got = best_split(data, indices, features)
        expected = brute_force_best_split(data, indices, features)
        same = (got is None and expected is None) or (
            got is not None and expected is not None
            and (got[0], got[1]) == (expected[0], expected[1]))
        if not same:
            mismatches.append((trial, got, expected))
    report(1, "oracle split equivalence", not mismatches,
           f"50 datasets, {len(mismatches)} mismatches", started)


def test_criterion_2_single_batch_equivalence():
    # SDT initialized on one batch == batch DT fit: identical structure and
    # identical predictions on 1,000 probe points, 20 seeded trials. < 10 s.
    started = time.perf_counter()
    failures = 0
    for trial in range(20):
        rng = np.random.default_rng(30_000 + trial)
        data = random_dataset(rng, n=int(rng.integers(40, 160)))
        seed = int(rng.integers(1 << 31))
        criteria = SplitCriteria(max_features="sqrt")
        stream = StreamTree(data, data.n_classes, criteria, seed)
        batch = DecisionTree(criteria, seed).fit(data)
        probes = rng.uniform(-2.0, 2.0, (1000, data.n_features))
        if not trees_equal(stream.root, batch.root):
            failures += 1
        elif not np.array_equal(stream.predict(probes), batch.predict(probes)):
            failures += 1
    report(2, "single-batch equivalence", failures == 0,
           f"20 trials, {failures} failures", started)


def test_criterion_3_internal_node_immutability():
    # 100 random (init, update x5) sequences: existing splits are preserved
    # verbatim and leaf regions only ever refine. < 30 s.
    started = time.perf_counter()
    rng = np.random.default_rng(40_000)
    violations = 0
    for _ in range(100):
        k = int(rng.integers(2, 4))
        p = int(rng.integers(1, 4))

        def batch(n):
            return Dataset(rng.uniform(-2, 2, (n, p)), rng.integers(0, k, n), k)

        st = StreamTree(batch(30), k, seed=int(rng.integers(1 << 31)))
        probes = rng.uniform(-2, 2, (30, p))
        for _ in range(5):
            before = set(collect_internal_splits(st.root))
            leaves_before = [st.apply(x) for x in probes]
            st.update(batch(20))
            if not before <= set(collect_internal_splits(st.root)):
                violations += 1
                break
            if not all(is_same_or_descendant(old, st.apply(x))
                       for x, old in zip(probes, leaves_before)):
                violations += 1
                break
    report(3, "internal-node immutability", violations == 0,
           f"100 sequences, {violations} violations", started)


def test_criterion_4_count_conservation():
    # After streaming B batches totaling N samples, root counts sum to N and
    # every internal node's children account for all samples routed past it
    # since the node split. < 10 s.
    started = time.perf_counter()
    rng = np.random.default_rng(50_000)
    ok = True
    for _ in range(20):
        k, p = 3, 3

        def batch(n):
            return Dataset(rng.uniform(-2, 2, (n, p)), rng.integers(0, k, n), k)

        sizes = [40] + [int(s) for s in rng.integers(5, 60, size=6)]
        st = StreamTree(batch(sizes[0]), k, seed=int(rng.integers(1 << 31)))
        check_count_conservation(st.root)
        for size in sizes[1:]:
            before = split_totals(st.root)
            st.update(batch(size))
            check_count_conservation(st.root, before)
        if int(st.root.class_counts.sum()) != sum(sizes):
            ok = False
            break
    report(4, "count conservation", ok, "20 streams of 7 batches", started)


def test_criterion_5_replacement_mechanics():
    # Forced 1/b draw plus injected degenerate trees: exactly the r worst
    # trees are replaced, ties to the lower index, tree count conserved. < 5 s.
    started = time.perf_counter()
    data = gen_synthetic("blobs", 600, noise=0.0, seed=60_000, n_classes=3)

    pure = data.subset(np.nonzero(data.labels == 1)[0][:60])

    forest = StreamForest(data.subset(range(100)), 3, n_trees=6,
                          replace_count=2, seed=61_000)
    originals = list(forest.trees)
    plant_constant_trees(forest, {4: 0, 2: 2})
    forest.update(pure, force_replacement=True)
    info = forest.last_replacement
    worst_replaced = sorted(info["replaced"]) == [2, 4]
    fresh = all(forest.trees[i].batches_seen == 1 for i in (2, 4))
    conserved = len(forest.trees) == 6
    untouched = all(forest.trees[i] is originals[i] for i in (0, 1, 3, 5))

    tie_forest = StreamForest(data.subset(range(100)), 3, n_trees=6,
                              replace_count=1, seed=62_000)
    plant_constant_trees(tie_forest, {1: 0, 4: 0})
    tie_forest.update(pure, force_replacement=True)
    tie_rule = tie_forest.last_replacement["replaced"] == [1]

    ok = worst_replaced and fresh and conserved and untouched and tie_rule
    report(5, "replacement mechanics", ok,
           f"replaced={info['replaced']}, tie pick={tie_forest.last_replacement['replaced']}",
           started)


def test_criterion_6_benchmark_determinism(tmp_path):
    # Two full benchmark runs with the same config and seed are byte-identical
    # excluding the wall-time column, with threads 1 and 2. < 2 min.
    started = time.perf_counter()

    def run(path, threads):
        code = cli_main([
            "stream", "--data", "blobs", "--synth-n", "400", "--synth-test",
            "200", "--synth-noise", "0.6", "--batch-size", "100", "--trees",
            "20", "--reps", "2", "--threads", str(threads), "--seed", "13",
            "--out", str(path)])
        assert code == 0
        rows = []
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            doc.pop("train_seconds", None)
            if "config" in doc and doc["config"]:
                # where the run wrote and how many workers it used are not
                # results; everything else must match byte for byte
                doc["config"].pop("out", None)
                doc["config"].pop("threads", None)
            rows.append(json.dumps(doc, sort_keys=True))
        return rows

    first = run(tmp_path / "a.jsonl", threads=1)
    second = run(tmp_path / "b.jsonl", threads=1)
    threaded = run(tmp_path / "c.jsonl", threads=2)
    identical = first == second
    thread_safe = first == threaded
    report(6, "benchmark determinism", identical and thread_safe,
           f"rerun identical={identical}, threads invariant={thread_safe}", started)


def test_criterion_7_streaming_convergence():
    # Digit-corpus stand-in (the original 7,494/3,498 split is not bundled):
    # blobs with n_train=5,000, K=10, noise tuned so the batch forest scores
    # about 0.9. 100-sample batches, 100 trees, r=1, 3 repetitions; the final
    # streamed forest must land within 3 points of a batch forest fit on all
    # 5,000 samples. Runtime: a couple of minutes.
    started = time.perf_counter()
    train = gen_synthetic("blobs", 5000, noise=0.6, seed=70_000, n_classes=10)
    test = gen_synthetic("blobs", 2000, noise=0.6, seed=70_001, n_classes=10)
    gaps = []
    for rep in range(3):
        plan = make_batches(5000, 100, seed=71_000 + rep)
        forest = StreamForest(train.subset(plan.batch(0)), 10, n_trees=100,
                              replace_count=1, seed=72_000 + rep)
        for i in range(1, plan.n_batches):
            forest.update(train.subset(plan.batch(i)))
        sdf = float(np.mean(forest.predict(test.features) == test.labels))
        batch = BatchForest(100, seed=73_000 + rep).fit(train)
        df = float(np.mean(batch.predict(test.features) == test.labels))
        gaps.append(sdf - df)
    ok = all(abs(g) <= 0.03 for g in gaps)
    report(7, "streaming convergence", ok,
           "gaps " + ", ".join(f"{g:+.4f}" for g in gaps), started)


def test_criterion_8_streaming_improves_with_data():
    # Mean streamed-forest accuracy over 10 seeds must grow by at least five
    # points from the first batch to the last. < 2 min.
    started = time.perf_counter()
    first, final = [], []
    for seed in range(10):
        train = gen_synthetic("blobs", 3000, noise=1.0, seed=80_000 + seed,
                              n_classes=10)
        test = gen_synthetic("blobs", 500, noise=1.0, seed=81_000 + seed,
                             n_classes=10)
        forest = StreamForest(train.subset(range(100)), 10, n_trees=100,
                              seed=seed)
        first.append(np.mean(forest.predict(test.features) == test.labels))
        for i in range(1, 30):
            forest.update(train.subset(range(100 * i, 100 * (i + 1))))
        final.append(np.mean(forest.predict(test.features) == test.labels))
    gain = float(np.mean(final) - np.mean(first))
    report(8, "streaming improves with data", gain >= 0.05,
           f"mean first={np.mean(first):.4f}, final={np.mean(final):.4f}, "
           f"gain={gain:+.4f}", started)


def test_criterion_9_effect_size():
    # Hand-checked difference ratio and the substantial-shift thresholds. < 1 s.
    started = time.perf_counter()
    exact = effect_size([0.9, 0.9], [0.8, 0.8]) == 0.125
    zero = effect_size([0.85, 0.95], [0.85, 0.95]) == 0.0
    fires = has_substantial_shift([0.0, 0.011, -0.012, 0.004])
    quiet = not has_substantial_shift([0.009, -0.009, 0.0])
    one_sided = not has_substantial_shift([0.05, 0.02, 0.3])
    ok = exact and zero and fires and quiet and one_sided
    report(9, "effect size computation", ok,
           f"ratio exact={exact}, shift flags={fires and quiet and one_sided}",
           started)


def test_criterion_10_model_size_sanity():
    # A streamed forest over N=5,000 samples must stay within twice the node
    # count of one batch forest fit on all N samples. < 2 min.
    started = time.perf_counter()
    train = gen_synthetic("blobs", 5000, noise=0.6, seed=90_000, n_classes=10)
    plan = make_batches(5000, 100, seed=90_001)
    forest = StreamForest(train.subset(plan.batch(0)), 10, n_trees=100,
                          replace_count=1, seed=90_002)
    for i in range(1, plan.n_batches):
        forest.update(train.subset(plan.batch(i)))
    batch = BatchForest(100, seed=90_003).fit(train)
    sdf_nodes = forest.node_count()
    df_nodes = batch.node_count()
    ok = 0 < sdf_nodes <= 2 * df_nodes
    report(10, "model size sanity", ok,
           f"stream nodes={sdf_nodes}, batch nodes={df_nodes}, "
           f"ratio={sdf_nodes / df_nodes:.2f}", started)
