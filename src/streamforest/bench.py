"""Benchmark orchestration: stream batches into the incremental models while
refitting batch baselines on cumulative data, record accuracy / cumulative
training time / model size, and post-process effect sizes."""

from __future__ import annotations

import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from statistics import fmean

import numpy as np

from . import __version__
from .data import make_batches, make_folds
from .forest import BatchForest, StreamForest
from .snapshot import _write_atomically
from .stream import StreamTree
from .tree import BYTES_PER_NODE, Dataset, DecisionTree, _check_integer

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "BenchRecord",
    "run_stream_experiment",
    "run_cv_experiment",
    "effect_size",
    "effect_series",
    "has_substantial_shift",
    "emit_results",
    "load_results",
]

# Canonical processing order; records always appear in this order per batch.
ALGORITHMS = ("sdt", "sdf", "dt", "df")

RESULTS_FORMAT = "streamforest-results-v1"


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run: which models, how the stream is cut, and seeds.

    threads is the number of worker processes that run repetitions (or
    folds) side by side; it never changes the records apart from time.
    """

    dataset: str
    algorithms: tuple[str, ...] = ALGORITHMS
    batch_size: int = 100
    n_trees: int = 100
    replace_count: int = 1
    repetitions: int = 5
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.dataset, str):
            raise TypeError(f"dataset must be a str, not {self.dataset!r}")
        if isinstance(self.algorithms, str):
            raise TypeError(f"algorithms must be a sequence of names, not the str "
                            f"{self.algorithms!r}")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}; "
                             f"choose from {','.join(ALGORITHMS)}")
        for name, low in (("batch_size", 1), ("n_trees", 1), ("repetitions", 1),
                          ("threads", 1), ("replace_count", 0), ("seed", 0)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), low))
        if self.replace_count > self.n_trees:
            raise ValueError("replace_count must lie in [0, n_trees]")


@dataclass
class BenchRecord:
    """One (algorithm, dataset, repetition, sample size) measurement."""

    algorithm: str
    dataset: str
    rep: int
    n_samples: int
    accuracy: float
    train_seconds: float
    nodes: int


def _rep_seeds(root_rng: np.random.Generator) -> dict[str, int]:
    """Per-repetition seeds, drawn in a fixed order regardless of which
    algorithms run so record values do not depend on the algorithm subset.

    The single-tree models share one seed, so at the first batch the
    streamed tree and the batch tree are the same tree and their records
    coincide; the forests share the other.
    """
    draws = root_rng.integers(0, 2**63, size=3)
    return dict(zip(("plan", "tree", "forest"), map(int, draws)))


def _stream_one_rep(config: ExperimentConfig, train: Dataset, test: Dataset,
                    rep: int, seeds: dict[str, int]) -> list[BenchRecord]:
    plan = make_batches(train.n_samples, config.batch_size, seeds["plan"])
    algorithms = tuple(a for a in ALGORITHMS if a in config.algorithms)
    refits = not {"dt", "df"}.isdisjoint(algorithms)
    models: dict[str, object] = {}
    cum_time = {a: 0.0 for a in algorithms}
    records = []
    for bi in range(plan.n_batches):
        batch = train.subset(plan.batch(bi))
        seen = plan.boundaries[bi][1]
        cumulative = train.subset(plan.ordering[:seen]) if refits else None
        for algo in algorithms:
            start = time.perf_counter()
            if bi > 0 and algo in ("sdt", "sdf"):
                models[algo].update(batch)
            elif algo == "sdt":
                models[algo] = StreamTree(batch, train.n_classes, seed=seeds["tree"])
            elif algo == "sdf":
                models[algo] = StreamForest(batch, train.n_classes, config.n_trees,
                                            config.replace_count, seed=seeds["forest"])
            elif algo == "dt":
                models[algo] = DecisionTree(seed=seeds["tree"]).fit(cumulative)
            else:
                models[algo] = BatchForest(config.n_trees,
                                           seed=seeds["forest"]).fit(cumulative)
            cum_time[algo] += time.perf_counter() - start
            records.append(BenchRecord(
                algorithm=algo,
                dataset=config.dataset,
                rep=rep,
                n_samples=seen,
                accuracy=float(np.mean(models[algo].predict(test.features) == test.labels)),
                train_seconds=cum_time[algo],
                nodes=models[algo].node_count(),
            ))
    return records


def _run_reps(config: ExperimentConfig, splits: list[tuple[Dataset, Dataset]],
              seeds: list[dict[str, int]]) -> list[BenchRecord]:
    """Run one repetition per (train, test) split on config.threads worker
    processes; the records come back in repetition order.

    Where the platform has fork, workers are forked: that starts in
    milliseconds and does not re-import ``__main__``, so scripts that call
    the experiment without a ``__main__`` guard still work. Forking is safe
    here because the library starts no threads.
    """
    trains, tests = zip(*splits)
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    workers = min(config.threads, len(splits))
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        parts = pool.map(_stream_one_rep, repeat(config), trains, tests,
                         range(len(splits)), seeds)
        return [record for part in parts for record in part]


def run_stream_experiment(config: ExperimentConfig, train: Dataset,
                          test: Dataset) -> list[BenchRecord]:
    """Stream the training set into the configured models over several
    repetitions, each with a fresh batch ordering, against a fixed test set.

    Streaming models accumulate their update durations; batch models
    accumulate the duration of every refit. Only the fit/update calls are
    timed, never data handling or evaluation. Excluding the time column,
    the records are a pure function of (config, datasets).
    """
    if test.n_features != train.n_features:
        raise ValueError("train and test disagree on feature count")
    if test.n_classes != train.n_classes:
        raise ValueError("train and test disagree on class count")
    root_rng = np.random.default_rng(config.seed)
    seeds = [_rep_seeds(root_rng) for _ in range(config.repetitions)]
    return _run_reps(config, [(train, test)] * config.repetitions, seeds)


def run_cv_experiment(config: ExperimentConfig, data: Dataset) -> list[BenchRecord]:
    """k-fold protocol: per fold, stream the training portion and test on the
    held-out fold; config.repetitions is the fold count k."""
    if config.repetitions < 2:
        raise ValueError("cross-validation needs at least two folds")
    root_rng = np.random.default_rng(config.seed)
    folds = make_folds(data.n_samples, config.repetitions,
                       int(root_rng.integers(0, 2**63)))
    splits = [(data.subset(folds.train_indices(fold)),
               data.subset(folds.test_indices(fold))) for fold in range(folds.k)]
    seeds = [_rep_seeds(root_rng) for _ in range(folds.k)]
    return _run_reps(config, splits, seeds)


def effect_size(accs_a, accs_b) -> float:
    """Signed difference ratio (mean(a) - mean(b)) / mean(b).

    Positive favors the first series. Evaluated as mean(a)/mean(b) - 1,
    which is the same ratio with one fewer rounding step.
    """
    a = list(map(float, accs_a))
    b = list(map(float, accs_b))
    if not a or len(a) != len(b):
        raise ValueError("need two nonempty accuracy vectors of equal length")
    mean_b = fmean(b)
    if mean_b == 0.0:
        raise ValueError("effect size undefined when the baseline mean is zero")
    return fmean(a) / mean_b - 1.0


def effect_series(records: list[BenchRecord], algo_a: str = "sdf",
                  algo_b: str = "df") -> dict[str, list[tuple[int, float]]]:
    """Per dataset, the effect size of algo_a over algo_b at each sample
    size, with accuracies averaged across repetitions/folds first."""
    acc: dict[tuple[str, str, int], list[float]] = {}
    for r in records:
        if r.algorithm in (algo_a, algo_b):
            acc.setdefault((r.dataset, r.algorithm, r.n_samples), []).append(r.accuracy)
    series: dict[str, list[tuple[int, float]]] = {}
    for d, a, n in sorted(acc):
        points = series.setdefault(d, [])
        if a == algo_a and (d, algo_b, n) in acc:
            points.append((n, effect_size(acc[(d, algo_a, n)], acc[(d, algo_b, n)])))
    return series


def has_substantial_shift(effects) -> bool:
    """Whether a sequence of effect values swings through both thresholds
    of +-0.01: minimum <= -0.01 and maximum >= 0.01."""
    values = list(effects)
    return bool(values) and min(values) <= -0.01 and max(values) >= 0.01


def emit_results(records: list[BenchRecord], path, config: ExperimentConfig) -> None:
    """Write results as JSON lines: a metadata header that echoes `config`,
    then one record per line. Numeric fields round-trip bit-exactly through
    load. Like a snapshot, the file is replaced only once it is complete."""
    meta = {
        "format": RESULTS_FORMAT,
        "version": __version__,
        "bytes_per_node": BYTES_PER_NODE,
        "seed": config.seed,
        "config": asdict(config),
        "columns": [field.name for field in fields(BenchRecord)],
    }
    with _write_atomically(path) as fh:
        fh.write((json.dumps(meta, sort_keys=True) + "\n").encode())
        for r in records:
            fh.write((json.dumps(asdict(r), sort_keys=True) + "\n").encode())


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a number in strict JSON")


def load_results(path) -> tuple[dict, list[BenchRecord]]:
    """Inverse of emit_results. Raises ValueError naming the line when a
    line is not strict JSON, the header not an object of the results format,
    or a record not an object with exactly `BenchRecord`'s fields and types."""
    with open(path, encoding="utf-8") as fh:
        lines = [(number, line) for number, line in enumerate(fh.read().splitlines(), 1)
                 if line.strip()]
    if not lines:
        raise ValueError("empty results file")
    names = sorted(field.name for field in fields(BenchRecord))
    kinds = {"str": (str,), "int": (int,), "float": (int, float)}  # JSON values, never a bool
    objects = []
    for number, line in lines:
        try:
            value = json.loads(line, parse_constant=_refuse_constant)
        except ValueError as exc:
            raise ValueError(f"line {number}: not JSON: {exc}") from None
        if not isinstance(value, dict) or (objects and sorted(value) != names):
            raise ValueError(f"line {number}: expected a JSON object" +
                             (f" with exactly the fields {names}" if objects else ""))
        for field in fields(BenchRecord) if objects else ():
            if type(value[field.name]) not in kinds[field.type]:
                raise ValueError(f"line {number}: {field.name} must be {field.type}")
        objects.append(value)
    meta, *records = objects
    if meta.get("format") != RESULTS_FORMAT:
        raise ValueError(f"line {lines[0][0]}: not a {RESULTS_FORMAT} header")
    return meta, [BenchRecord(**record) for record in records]
