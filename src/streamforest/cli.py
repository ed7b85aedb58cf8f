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


def _parse_label_col(text: str) -> int | str:
    try:
        return int(text)
    except ValueError:
        return text


def _int_at_least(low: int):
    """An argparse type: an int of at least `low`, else a usage error naming the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value: 'x'"
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True,
                   help="CSV path (make synthetic data with the synth command)")
    p.add_argument("--label-col", type=_parse_label_col, default=-1,
                   help="label column index or name (default: last column)")
    p.add_argument("--header", action="store_true",
                   help="treat the first CSV row as a header")
    p.add_argument("--classes", type=_int_at_least(2), default=None,
                   help="class count K: labels are the texts 0 to K-1")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS),
                   help="comma-separated subset of sdt,sdf,dt,df")
    p.add_argument("--batch-size", type=_int_at_least(1), default=100)
    p.add_argument("--trees", type=_int_at_least(1), default=100)
    p.add_argument("--replace", type=_int_at_least(0), default=1,
                   help="trees replaced per replacement event")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="results file to write")
    p.add_argument("--threads", type=_int_at_least(1), default=1,
                   help="worker processes that run repetitions/folds side by side")


def _load_data(args):
    """Read the --data CSV; returns (train, test_or_none). Only the stream
    command has a test set, whose labels go through the training file's map."""
    dataset, label_map = load_csv(args.data, args.label_col, n_classes=args.classes,
                                  header=args.header)
    if args.command != "stream":
        return dataset, None
    if args.test is not None:
        return dataset, load_csv(args.test, args.label_col, header=args.header,
                                 label_map=label_map)[0]
    # Seeded holdout split when no separate test file is given.
    if not 0.0 < args.test_frac < 1.0:  # nan fails too
        raise ValueError(f"--test-frac must be a finite number in (0, 1), not {args.test_frac}")
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(dataset.n_samples)
    n_test = max(1, int(round(dataset.n_samples * args.test_frac)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size == 0:
        raise ValueError(f"--test-frac {args.test_frac} leaves no training data")
    return dataset.subset(train_idx), dataset.subset(test_idx)


def _cmd_experiment(args) -> int:
    """The stream and cv commands: one experiment config, whose repetitions
    are --reps streaming orders or --folds folds."""
    stream = args.command == "stream"
    data, test = _load_data(args)
    config = ExperimentConfig(
        dataset=Path(args.data).stem,
        algorithms=tuple(a.strip() for a in args.algorithms.split(",") if a.strip()),
        batch_size=args.batch_size, n_trees=args.trees,
        replace_count=args.replace, repetitions=args.reps if stream else args.folds,
        seed=args.seed, threads=args.threads)
    records = (run_stream_experiment(config, data, test) if stream
               else run_cv_experiment(config, data))
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
                         n_classes=args.classes, n_features=args.features)
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
    _add_common(p)
    p.add_argument("--reps", type=_int_at_least(1), default=5,
                   help="streaming repetitions, each with a new batch order")
    held_out = p.add_mutually_exclusive_group()
    held_out.add_argument("--test", default=None, help="separate test CSV")
    held_out.add_argument("--test-frac", type=float, default=0.25,
                          help="holdout fraction in (0, 1) when no test CSV is given")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("cv", help="k-fold cross-validated streaming")
    _add_common(p)
    p.add_argument("--folds", type=_int_at_least(2), default=5)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("effect", help="effect-size series from a results file")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.add_argument("--algo-a", default="sdf", choices=ALGORITHMS)
    p.add_argument("--algo-b", default="df", choices=ALGORITHMS)
    p.set_defaults(func=_cmd_effect)

    p = sub.add_parser("synth", help="generate a synthetic CSV")
    p.add_argument("--kind", required=True, choices=("blobs", "xor", "concentric"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", type=int, default=None,
                   help="class count (blobs: default 3; xor and concentric: 2 only)")
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
