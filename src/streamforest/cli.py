"""Benchmark command line: stream (fixed test set), cv (k-fold), effect
(post-process results), synth (write synthetic CSVs)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (
    ALGORITHMS,
    ExperimentConfig,
    effect_series,
    emit_results,
    has_substantial_shift,
    load_results,
    run_cv_experiment,
    run_stream_experiment,
)
from .data import gen_synthetic, load_csv, save_csv

SYNTH_KINDS = ("blobs", "xor", "concentric")


def _parse_label_col(text: str | None) -> int | str:
    if text is None:
        return -1
    try:
        return int(text)
    except ValueError:
        return text


def _parse_algorithms(text: str) -> tuple[str, ...]:
    algos = tuple(a.strip() for a in text.split(",") if a.strip())
    unknown = set(algos) - set(ALGORITHMS)
    if unknown:
        raise SystemExit(f"error: unknown algorithms {sorted(unknown)}; "
                         f"choose from {','.join(ALGORITHMS)}")
    return algos


def _add_common(p: argparse.ArgumentParser, with_reps: bool) -> None:
    p.add_argument("--data", required=True,
                   help="CSV path or synthetic kind (blobs, xor, concentric)")
    p.add_argument("--label-col", default=None,
                   help="label column index or name (default: last column)")
    p.add_argument("--header", action="store_true",
                   help="treat the first CSV row as a header")
    p.add_argument("--classes", type=int, default=None,
                   help="declared class count for CSV labels")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS),
                   help="comma-separated subset of sdt,sdf,dt,df")
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--replace", type=int, default=1,
                   help="trees replaced per replacement event")
    if with_reps:
        p.add_argument("--reps", type=int, default=5,
                       help="streaming repetitions, each with a new batch order")
    else:
        p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="results file to write")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes that run repetitions/folds side by side")
    p.add_argument("--synth-n", type=int, default=1000,
                   help="training samples for synthetic kinds")
    p.add_argument("--synth-test", type=int, default=500,
                   help="test samples for synthetic kinds (stream only)")
    p.add_argument("--synth-classes", type=int, default=3)
    p.add_argument("--synth-features", type=int, default=2)
    p.add_argument("--synth-noise", type=float, default=0.0)


def _load_data(args, need_test: bool):
    """Resolve --data into datasets; returns (train, test_or_none, dataset_id)."""
    if args.data in SYNTH_KINDS:
        kind = args.data
        k = args.synth_classes if kind == "blobs" else 2
        train = gen_synthetic(kind, args.synth_n, args.synth_noise, args.seed,
                              n_classes=k, n_features=args.synth_features)
        test = None
        if need_test:
            test = gen_synthetic(kind, args.synth_test, args.synth_noise,
                                 args.seed + 1, n_classes=k,
                                 n_features=args.synth_features)
        return train, test, kind

    path = Path(args.data)
    dataset, label_map = load_csv(path, _parse_label_col(args.label_col),
                                  n_classes=args.classes, header=args.header)
    sidecar = Path(str(args.out) + ".labels.json")
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in label_map.items()}, fh, sort_keys=True)

    if not need_test:
        return dataset, None, path.stem
    if args.test is not None:
        test, _ = load_csv(args.test, _parse_label_col(args.label_col),
                           n_classes=dataset.n_classes, header=args.header)
        return dataset, test, path.stem
    # Seeded holdout split when no separate test file is given.
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(dataset.n_samples)
    n_test = max(1, int(round(dataset.n_samples * args.test_frac)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size == 0:
        raise SystemExit("error: --test-frac leaves no training data")
    return dataset.subset(train_idx), dataset.subset(test_idx), path.stem


def _cmd_stream(args) -> int:
    train, test, dataset_id = _load_data(args, need_test=True)
    config = ExperimentConfig(
        dataset=dataset_id, algorithms=_parse_algorithms(args.algorithms),
        batch_size=args.batch_size, n_trees=args.trees,
        replace_count=args.replace, repetitions=args.reps,
        seed=args.seed, threads=args.threads, out=str(args.out))
    records = run_stream_experiment(config, train, test)
    emit_results(records, args.out, config)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_cv(args) -> int:
    data, _, dataset_id = _load_data(args, need_test=False)
    config = ExperimentConfig(
        dataset=dataset_id, algorithms=_parse_algorithms(args.algorithms),
        batch_size=args.batch_size, n_trees=args.trees,
        replace_count=args.replace, repetitions=args.folds,
        seed=args.seed, threads=args.threads, out=str(args.out))
    records = run_cv_experiment(config, data)
    emit_results(records, args.out, config)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_effect(args) -> int:
    _, records = load_results(args.results)
    series = effect_series(records, args.algo_a, args.algo_b)
    report = {
        dataset: {
            "series": [[n, e] for n, e in points],
            "substantial_shift": has_substantial_shift([e for _, e in points]),
        }
        for dataset, points in series.items()
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out is None:
        print(text)
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote effect sizes for {len(report)} dataset(s) to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    data = gen_synthetic(args.kind, args.n, args.noise, args.seed,
                         n_classes=args.classes if args.kind == "blobs" else None,
                         n_features=args.features)
    save_csv(data, args.out, header=True)
    print(f"wrote {data.n_samples} samples ({data.n_features} features, "
          f"{data.n_classes} classes) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamforest",
        description="Stream classification benchmarks for incremental and "
                    "batch decision forests.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stream", help="stream batches against a fixed test set")
    _add_common(p, with_reps=True)
    p.add_argument("--test", default=None, help="separate test CSV")
    p.add_argument("--test-frac", type=float, default=0.25,
                   help="holdout fraction when no test CSV is given")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("cv", help="k-fold cross-validated streaming")
    _add_common(p, with_reps=False)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("effect", help="effect-size series from a results file")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.add_argument("--algo-a", default="sdf")
    p.add_argument("--algo-b", default="df")
    p.set_defaults(func=_cmd_effect)

    p = sub.add_parser("synth", help="generate a synthetic CSV")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", type=int, default=3, help="blobs only")
    p.add_argument("--features", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
