"""Percentiles, quartiles and the two-results-file comparison.

The comparison follows the rule the benchmark is judged by: a change
*improved* a metric when it wins at least nine tenths of all pairs run (ties
count for neither) and the medians differ by more than the base side's
quartile spread; it is *no worse* when its median is not worse than the
base median by more than the metric's bound. Where the run-to-run spread is
wider than the bound the verdict is *unresolved*, unless every run of the
change reads better than every run of the base.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict

TAIL_PERCENTILES = (99.9, 99, 90, 50)


def percentile(values, q: float) -> float:
    """The q-th percentile by linear interpolation between order statistics
    (numpy's default method). Raises ValueError on no values."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_tail(n: int) -> float | None:
    """The highest of TAIL_PERCENTILES with at least ten of n samples beyond
    it, or None when even the median has fewer than ten above it."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def load_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _series(records) -> dict:
    """{(workload, metric): {(seed, k): value}} over every record, where k
    counts earlier records of the same workload and seed in the file, so a
    file that repeats a seed keeps every run. A metric reported absent
    (null) is left out."""
    out = defaultdict(dict)
    seen = defaultdict(int)
    for rec in records:
        key = (rec["workload"], rec["seed"], rec.get("trace", 0))
        k = seen[key]
        seen[key] += 1
        for name, m in rec["metrics"].items():
            if m["value"] is not None:
                out[(rec["workload"], name)][(rec["seed"], k)] = m["value"]
    return out


def verdict(base: list, new: list, pairs: list, better: str, bound) -> str:
    """Verdict on one (workload, metric) pair of series; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    if pairs and len(pairs) == len(base) == len(new) and all(b == n for b, n in pairs):
        return "same"
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    gain = sign * (nm - bm)
    if pairs and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > b3 - b1:
            return "worse"
        return "unresolved"
    scale = abs(bm) if bm else 1.0
    spread = max(b3 - b1, n3 - n1) / scale
    every_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound and not every_better:
        return "unresolved"
    return "no worse" if -gain <= bound * scale else "worse"


def compare(base_records, new_records, spec: dict) -> list[dict]:
    """One row per (workload, metric) present in both files.

    Runs pair by seed, the k-th run of a seed in one file with the k-th run
    of that seed in the other; `spec` is BENCHMARK.json, which gives each metric's
    direction and, for end-to-end metrics, its bound."""
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = _series(base_records), _series(new_records)
    rows = []
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        if name not in meta:
            continue
        b, n = base[key], new[key]
        pairs = [(b[s], n[s]) for s in sorted(b.keys() & n.keys())]
        bv, nv = list(b.values()), list(n.values())
        better = meta[name]["better"]
        sign = 1.0 if better == "higher" else -1.0
        rows.append({
            "workload": workload, "metric": name,
            "base": quartiles(bv), "new": quartiles(nv),
            "pairs": len(pairs),
            "wins": sum(1 for x, y in pairs if sign * (y - x) > 0),
            "verdict": verdict(bv, nv, pairs, better, meta[name].get("bound")),
        })
    return rows


def format_compare(rows) -> str:
    lines = [f"{'workload':8} {'metric':32} {'base q1/med/q3':>34} "
             f"{'new q1/med/q3':>34} {'wins':>7}  verdict"]
    for r in rows:
        fmt = "/".join(f"{v:.5g}" for v in r["base"]), "/".join(f"{v:.5g}" for v in r["new"])
        lines.append(f"{r['workload']:8} {r['metric']:32} {fmt[0]:>34} {fmt[1]:>34} "
                     f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return "\n".join(lines)
