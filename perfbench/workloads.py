"""The benchmark's three workloads, driven through streamforest's public API.

Every workload is one process, one caller and a closed loop: the next call
starts when the previous one returns. No workload passes ``threads=``.

The data is fixed: the ROADMAP criterion-7 training and test sets, blobs
drawn from ``DATA_SEED``. The run's seed picks everything else: the batch
orders, the model seeds and the rows read. Each run first sets up its
inputs ``Shape.setups`` times, then does the workload's own work, which
repeats the set-up once in every read step; ``setup_s`` is the median of
all set-ups, spread over the run that way.

- ``ingest``: a ``StreamForest`` streams the whole training set in 100-row
  batches; that forest is the read model. Further seeded batch orders then
  stream into fresh forests, with one read step after each update, until
  the run's seconds are used and at least ``min_updates`` updates are
  timed. Routing and leaf growth do most of the work.
- ``refit``: a ``BatchForest`` is fit anew on the same rows, with
  ``steps_per_fit`` read steps on the first fit between fits, until the
  seconds are used and at least ``min_fits`` fits are timed. Split search
  does most of the work; no batch is routed into an existing tree. For
  this model taking in data *is* a refit, so its update and ingest figures
  are per-fit figures.
- ``serve``: one batch order streams into the forest to serve, which gives
  the update, ingest and refit figures; then read steps run on that forest
  until the seconds are used and at least ``min_steps`` steps are done.
  Nothing grows in the reads.

A *read step* sets up once and makes ``one_calls`` ``predict_one`` calls
and two 1-row ``predict`` calls; every ``bulk_every`` steps it adds a bulk ``predict`` of
the test set and every ``snapshot_every`` steps a snapshot save/load round
trip, both in the first step. The read steps inside ``ingest`` and ``refit``
give those workloads every end-to-end metric and spread the read samples
over the run instead of taking them in one burst.

The two throughputs are totals: rows taken in per second of constructor and
update (or fit) calls, and rows predicted per second of bulk ``predict``.
``refit_s`` is the time to build the model anew on all training rows: one
``BatchForest.fit`` on ``refit``; on ``ingest`` and ``serve``, the forest
constructor plus every update of one complete batch order.

Every timing is kept as (start, end, seconds) and stated at the reference
host speed by the run's clock (see speed.py); `end_to_end` gives both the
scaled and the measured figures.

Correctness checks count as operations next to the calls themselves: the
accuracy floor, ``predict_one`` and 1-row ``predict`` against the bulk
prediction of the same row, a repeated bulk prediction, a loaded snapshot
predicting bit-identically to the saved model, and per-tree class-count
conservation at the root after each batch order.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import streamforest as sf

from summary import percentile

WORKLOADS = ("ingest", "refit", "serve")
DATA_SEED = 7
# Calls of about a millisecond or less. The speed probe holds off its kernel
# runs during them, and the garbage collector is paused for them, so that a
# collection or kernel run that falls due then runs after the call instead
# of landing on one call in a hundred and setting its tail percentiles.
SHORT_CALLS = frozenset({"setup", "one", "row"})


@dataclass(frozen=True)
class Shape:
    """Sizes of one run; the data and model are the ROADMAP criterion-7 shape."""

    n_train: int = 5000
    n_test: int = 2000
    n_classes: int = 10
    noise: float = 0.6
    batch_size: int = 100
    n_trees: int = 100
    replace_count: int = 1
    setups: int = 5
    min_updates: int = 100   # ingest: leaves ten samples above p90
    min_fits: int = 3        # refit
    min_steps: int = 200     # serve: read steps
    one_calls: int = 10      # predict_one calls per read step
    bulk_every: int = 10     # read steps per bulk predict
    snapshot_every: int = 25  # read steps per snapshot round trip
    steps_per_fit: int = 25  # refit: read steps after each fit
    accuracy_floor: float = 0.85


@dataclass
class Inputs:
    train: sf.Dataset
    test: sf.Dataset


@dataclass
class Run:
    """Raw samples and counts of one workload run; `end_to_end` turns them
    into metrics."""

    clock: object
    attempted: int = 0
    failed: int = 0
    # (start, end, seconds) of every timed call, by kind: setup, init
    # (StreamForest constructor), update (or fit), one, row, bulk, save, load
    # and the untimed warm-up save and load
    samples: dict = field(default_factory=lambda: defaultdict(list))
    builds: list = field(default_factory=list)   # samples of each complete build
    rows_in: int = 0
    accuracy: float = float("nan")
    nodes: int = 0
    digest: str = ""
    model: object = None
    n_test: int = 0
    counters: dict = field(default_factory=lambda: defaultdict(int))

    def call(self, kind: str, fn, *args):
        """Time one call as a sample of `kind`. Returns (ok, result)."""
        self.attempted += 1
        short = kind in SHORT_CALLS
        paused = short and gc.isenabled()
        if paused:
            gc.disable()
        try:
            out, start, end, secs = self.clock.time(fn, *args, hold=short)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None
        finally:
            if paused:
                gc.enable()
        self.samples[kind].append((start, end, secs))
        return True, out

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def _order_seeds(seed: int, order: int) -> tuple[int, int]:
    """(batch-plan seed, model seed) of one batch order or fit; pure in its inputs."""
    plan_seed, model_seed = np.random.SeedSequence([seed, order]).generate_state(2)
    return int(plan_seed), int(model_seed)


def make_inputs(shape: Shape) -> Inputs:
    train_seed, test_seed = np.random.SeedSequence(DATA_SEED).generate_state(2)
    train = sf.gen_synthetic("blobs", shape.n_train, noise=shape.noise,
                             seed=int(train_seed), n_classes=shape.n_classes)
    test = sf.gen_synthetic("blobs", shape.n_test, noise=shape.noise,
                            seed=int(test_seed), n_classes=shape.n_classes)
    return Inputs(train, test)


class Reader:
    """Read steps on a fixed model, each read checked against the model's
    bulk prediction of the test set."""

    def __init__(self, run: Run, shape: Shape, inputs: Inputs, seed: int, model, snap: Path):
        self.run, self.shape, self.snap = run, shape, snap
        self.X = inputs.test.features
        self.ref = model.predict(self.X)
        run.model = model
        run.accuracy = float(np.mean(self.ref == inputs.test.labels))
        run.check(run.accuracy >= shape.accuracy_floor,
                  f"test accuracy {run.accuracy:.4f} below floor {shape.accuracy_floor}")
        run.nodes = int(model.node_count())
        run.digest = hashlib.sha256(np.asarray(self.ref, dtype="<i8").tobytes()).hexdigest()[:16]
        run.n_test = len(self.ref)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 1 << 20]))
        self.steps = 0
        # One round trip before any timed one, so that none of those pays
        # for creating the file or for first-call set-up.
        self.round_trip("warmup save", "warmup load")

    def round_trip(self, save_kind: str, load_kind: str) -> None:
        """Save the model, load it back and check the copy's predictions."""
        run = self.run
        gc.collect()  # each round trip starts from a collected heap
        ok, _ = run.call(save_kind, sf.save_forest, run.model, self.snap)
        if ok:
            ok, loaded = run.call(load_kind, sf.load_forest, self.snap)
            if ok:
                run.check(np.array_equal(loaded.predict(self.X), self.ref),
                          "loaded snapshot predicts differently from the saved model")

    def step(self) -> None:
        """One set-up, `one_calls` predict_one calls and two 1-row predicts;
        every `bulk_every` steps a bulk predict and every `snapshot_every`
        steps a snapshot round trip, both first in step 0."""
        run, shape, model, X, ref = self.run, self.shape, self.run.model, self.X, self.ref
        run.call("setup", make_inputs, shape)
        rows = self.rng.integers(0, len(ref), shape.one_calls)
        for r in rows:
            ok, label = run.call("one", model.predict_one, X[r])
            if ok:
                run.check(label == ref[r], f"predict_one disagrees with predict on row {r}")
        for r in rows[:2]:
            ok, label = run.call("row", model.predict, X[r: r + 1])
            if ok:
                run.check(label.shape == (1,) and label[0] == ref[r],
                          f"1-row predict disagrees with bulk predict on row {r}")
        if self.steps % shape.bulk_every == 0:
            ok, pred = run.call("bulk", model.predict, X)
            if ok:
                run.check(np.array_equal(pred, ref), "bulk predict is not repeatable")
        if self.steps % shape.snapshot_every == 0:
            self.round_trip("save", "load")
        self.steps += 1


def _stream_order(run: Run, shape: Shape, inputs: Inputs, seed: int, order: int,
                  stop=lambda: False, reader=None):
    """Stream the batches of one seeded order into a fresh StreamForest
    until they run out or `stop()` is true before an update, with one read
    step of `reader` after each update. Returns the forest, or None when it
    could not be constructed."""
    plan_seed, model_seed = _order_seeds(seed, order)
    plan = sf.make_batches(shape.n_train, shape.batch_size, seed=plan_seed)
    first = inputs.train.subset(plan.batch(0))
    ok, forest = run.call("init", lambda: sf.StreamForest(
        first, shape.n_classes, n_trees=shape.n_trees,
        replace_count=shape.replace_count, seed=model_seed))
    if not ok:
        return None
    run.rows_in += first.n_samples
    build = [run.samples["init"][-1]]
    # Rows each tree has taken in since it was created: its root's class
    # counts must add up to exactly this (a bootstrap resample keeps n rows).
    seen = [first.n_samples] * shape.n_trees
    for i in range(1, plan.n_batches):
        if stop():
            build = None
            break
        batch = inputs.train.subset(plan.batch(i))
        ok, _ = run.call("update", forest.update, batch)
        if not ok:
            build = None
            continue
        build.append(run.samples["update"][-1])
        run.rows_in += batch.n_samples
        seen = [s + batch.n_samples for s in seen]
        replaced = forest.last_replacement["replaced"]
        for t in replaced:
            seen[t] = batch.n_samples
        run.counters["forest.replace.draws"] += 1
        if replaced:
            run.counters["forest.replace.events"] += 1
            run.counters["forest.replace.trees"] += len(replaced)
        if reader is not None:
            reader.step()
    if build is not None:
        run.builds.append(build)
    for t, (tree, expected) in enumerate(zip(forest.trees, seen)):
        total = int(tree.tree.root.class_counts.sum())
        run.check(total == expected,
                  f"order {order} tree {t}: root counts {total}, rows taken in {expected}")
    return forest


def run_workload(name: str, seed: int, seconds: float, shape: Shape, tmp: Path, clock) -> Run:
    """Run one workload with `clock` timing every call (see speed.py). After
    its minimum work it goes on until `seconds` have passed since it began.

    With seconds=0 every workload does exactly its minimum work, so its
    operation counts are a pure function of (name, seed, shape)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    deadline = time.perf_counter() + seconds
    run = Run(clock)
    snap = tmp / "snapshot.json"
    for _ in range(shape.setups):
        ok, inputs = run.call("setup", make_inputs, shape)
        if not ok:
            return run

    def more() -> bool:
        return time.perf_counter() < deadline

    if name == "refit":
        reader = None
        fit = 0
        while fit < shape.min_fits or more():
            fit_seed = _order_seeds(seed, fit)[1]
            ok, forest = run.call("update", lambda: sf.BatchForest(
                shape.n_trees, seed=fit_seed).fit(inputs.train))
            if ok:
                run.builds.append([run.samples["update"][-1]])
                run.rows_in += shape.n_train
                reader = reader or Reader(run, shape, inputs, seed, forest, snap)
            fit += 1
            if reader is not None and (reader.steps == 0 or fit < shape.min_fits or more()):
                for _ in range(shape.steps_per_fit):
                    reader.step()
        return run

    forest = _stream_order(run, shape, inputs, seed, 0)
    if forest is None:
        return run
    reader = Reader(run, shape, inputs, seed, forest, snap)
    if name == "serve":
        while reader.steps < shape.min_steps or more():
            reader.step()
        return run
    order = 1
    while len(run.samples["update"]) < shape.min_updates or more():
        _stream_order(run, shape, inputs, seed, order,
                      stop=lambda: len(run.samples["update"]) >= shape.min_updates
                      and not more(), reader=reader)
        order += 1
    return run


def end_to_end(run: Run, scaled: bool = True) -> tuple[dict, dict]:
    """The end-to-end metric values of a run, and the sample count behind
    each timing. Timings are at the reference speed when `scaled`, else as
    measured."""
    scale = run.clock.scale if scaled else (lambda start, end, secs: secs)

    def secs(kind):
        return [scale(*s) for s in run.samples[kind]]

    med = statistics.median
    update_ms = [1e3 * s for s in secs("update")]
    one_ms = [1e3 * s for s in secs("one")]
    bulk = secs("bulk")
    metrics = {
        "setup_s": med(secs("setup")),
        "ingest_rows_per_s": run.rows_in / (sum(secs("init")) + sum(update_ms) / 1e3),
        "update_ms_p50": percentile(update_ms, 50),
        "update_ms_p90": percentile(update_ms, 90),
        "refit_s": med(sum(scale(*s) for s in build) for build in run.builds),
        "predict_one_ms_p50": percentile(one_ms, 50),
        "predict_one_ms_p99": percentile(one_ms, 99),
        "predict_1row_ms_p50": 1e3 * med(secs("row")),
        "predict_rows_per_s": run.n_test * len(bulk) / sum(bulk),
        "snapshot_save_s": med(secs("save")),
        "snapshot_load_s": med(secs("load")),
        "test_accuracy": run.accuracy,
        "model_nodes": run.nodes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - run.failed / run.attempted,
    }
    n = {kind: len(v) for kind, v in run.samples.items()}
    samples = {
        "setup_s": n["setup"], "ingest_rows_per_s": n.get("init", 0) + n["update"],
        "update_ms_p50": n["update"], "update_ms_p90": n["update"],
        "refit_s": len(run.builds),
        "predict_one_ms_p50": n["one"], "predict_one_ms_p99": n["one"],
        "predict_1row_ms_p50": n["row"], "predict_rows_per_s": n["bulk"],
        "snapshot_save_s": n["save"], "snapshot_load_s": n["load"],
    }
    return metrics, samples
