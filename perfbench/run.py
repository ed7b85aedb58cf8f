"""Seeded ingest / refit / serve benchmark of streamforest.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced, with every timing
stated at a reference host speed measured during the run (see speed.py);
the table before the result also shows the timings as measured.
``--trace 1`` runs the workload's minimum work once untraced and once under
the span recorder and reports the per-layer metrics, timed by the wall
clock alone. Metric names, units and directions come from BENCHMARK.json.
The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable table. ``--out FILE`` also appends the full
record, stamped with the environment, to a JSON-lines results file.

Compare two results files, pairing runs by workload and seed (the k-th run
of a seed in one file with the k-th run of that seed in the other):

    python3 perfbench/run.py --compare base.jsonl new.jsonl

The library is imported from ``src/`` of the same checkout, never from an
installed copy; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import streamforest
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import streamforest from {src}: {exc}")
    if Path(streamforest.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: streamforest came from {streamforest.__file__}, not {src}")
    return streamforest


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown'
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    uname = platform.uname()
    return {
        "machine": uname.machine,
        "system": f"{uname.system} {uname.release}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def _measure(args, spec) -> tuple[dict, dict, dict]:
    """Run the workload; returns (metrics, tally fields, extra record fields)."""
    import workloads
    shape = workloads.Shape()
    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.trace:
            import tracing
            values, (attempted, failed), by_span = tracing.traced_run(
                args.workload, args.seed, shape, tmp)
            specs = spec["per_layer"]
            wall = values["trace.wall_s"]
            print(f"traced {args.workload}: {len(by_span)} span kinds, self time by span:")
            for span, secs in sorted(by_span.items(), key=lambda kv: -kv[1]):
                print(f"  {span:22} {secs:10.4f} s  {100 * secs / wall:5.1f}%")
            extra = {"self_s_by_span": by_span}
        else:
            import speed
            with speed.SpeedProbe() as probe:
                run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                             shape, tmp, probe)
            values, samples = workloads.end_to_end(run)
            measured, _ = workloads.end_to_end(run, scaled=False)
            attempted, failed = run.attempted, run.failed
            specs = spec["end_to_end"]
            kernel_s = statistics.median(probe.took)
            extra = {"samples": samples, "digest": run.digest, "measured": measured,
                     "kernel_s": kernel_s, "kernel_runs": len(probe.took)}
            print(f"{args.workload}: prediction digest {run.digest}; calibration kernel "
                  f"{1e3 * kernel_s:.4f} ms (reference {1e3 * speed.REF_KERNEL_S:g} ms) "
                  f"over {len(probe.took)} runs")
            print(f"  {'metric':32} {'at ref. speed':>14} {'unit':8} {'measured':>12}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    names = [m["name"] for m in specs]
    if set(names) != set(values):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(names))} "
                         "are not both measured and declared in BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    samples = extra.get("samples", {})
    measured = extra.get("measured", {})
    for name, m in metrics.items():
        n = samples.get(name)
        tail = summary.supported_tail(n) if n is not None else None
        note = ("" if n is None else f" n={n}") + (f", tail to p{tail:g} supported" if tail else "")
        raw = f"{_fmt(measured[name]):>12}" if name in measured else ""
        print(f"  {name:32} {_fmt(m['value']):>14} {m['unit']:8} {raw}{note}")
    return metrics, {"attempted": attempted, "failed": failed}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the stamped record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two results files instead of running")
    args = parser.parse_args(argv)
    spec = _spec()
    if args.compare:
        base, new = (summary.load_records(p) for p in args.compare)
        print(summary.format_compare(summary.compare(base, new, spec)))
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required unless --compare is given")
    sf = _import_library()
    started = time.perf_counter()
    metrics, tally, extra = _measure(args, spec)
    result = {"correct": tally["failed"] == 0, **tally, "metrics": metrics}
    if args.out:
        import workloads
        record = {"workload": args.workload, "seed": args.seed,
                  "data_seed": workloads.DATA_SEED, "seconds": args.seconds,
                  "trace": args.trace, "env": environment(args.seed),
                  "library": sf.__version__, "run_s": time.perf_counter() - started,
                  **extra, **result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
