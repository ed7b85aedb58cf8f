"""The traced run: an in-memory span recorder wrapped around streamforest.

`Recorder.install` replaces each target function or method with a wrapper
that records a span (name, parent span, start, end) and per-call counts, at
every name the target is bound to in the ``streamforest`` package and its
modules (for example both ``streamforest.tree._grow`` and
``streamforest.stream._grow``). Methods are wrapped on their class.
`Recorder.uninstall` restores the originals.

A target that the library no longer has is *absent*: every metric derived
from it is reported as None (null in JSON), never as zero. A layer's self
time is its spans' duration minus the part its child spans cover. Names
ending in ``self_s`` are totals over the traced pass; names ending in ``.s``
are the mean duration of one call.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from dataclasses import dataclass

import streamforest as sf

from speed import WallClock
from workloads import Shape, run_workload


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    path: str               # attribute path inside the module, e.g. "Dataset.subset"
    probe: object = None    # (recorder, args, kwargs, result) -> None, adds to counts


def _probe_route(rec, args, kwargs, result):
    rec.counts["tree.route.rows"] += len(_arg(args, kwargs, 2, "y"))
    rec.counts["tree.route.leaves_touched"] += len(result)


def _probe_grow(rec, args, kwargs, result):
    rec.counts["tree.grow.rows"] += len(_arg(args, kwargs, 2, "indices"))
    rec.counts["tree.grow.splits"] += _arg(args, kwargs, 0, "node").left is not None


def _probe_best_split(rec, args, kwargs, result):
    rec.counts["tree.best_split.rows"] += len(_arg(args, kwargs, 1, "indices"))
    rec.counts["tree.best_split.candidates"] += len(_arg(args, kwargs, 2, "candidate_features"))
    rec.counts["tree.best_split.found"] += result is not None


def _probe_predict_rows(layer):
    def probe(rec, args, kwargs, result):
        rec.counts[layer + ".rows"] += len(_arg(args, kwargs, 1, "X"))
    return probe


def _probe_subset(rec, args, kwargs, result):
    if rec.inside(BOOTSTRAP_PARENTS):
        rec.counts["forest.bootstrap.rows"] += len(_arg(args, kwargs, 1, "indices"))


def _probe_save(rec, args, kwargs, result):
    rec.counts["snapshot.save.bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


TARGETS = (
    Target("tree.route", "streamforest.tree", "_route_and_count", _probe_route),
    Target("tree.grow", "streamforest.tree", "_grow", _probe_grow),
    Target("tree.best_split", "streamforest.tree", "best_split", _probe_best_split),
    Target("tree.predict", "streamforest.tree", "DecisionTree.predict",
           _probe_predict_rows("tree.predict")),
    Target("dataset.subset", "streamforest.tree", "Dataset.subset", _probe_subset),
    Target("stream.init", "streamforest.stream", "StreamTree.__init__"),
    Target("stream.update", "streamforest.stream", "StreamTree.update"),
    Target("stream.predict", "streamforest.stream", "StreamTree.predict"),
    Target("forest.init", "streamforest.forest", "StreamForest.__init__"),
    Target("forest.update", "streamforest.forest", "StreamForest.update"),
    Target("forest.predict", "streamforest.forest", "StreamForest.predict",
           _probe_predict_rows("forest.predict")),
    Target("forest.predict_one", "streamforest.forest", "StreamForest.predict_one"),
    Target("forest.fit", "streamforest.forest", "BatchForest.fit"),
    Target("forest.predict", "streamforest.forest", "BatchForest.predict",
           _probe_predict_rows("forest.predict")),
    Target("forest.predict_one", "streamforest.forest", "BatchForest.predict_one"),
    Target("snapshot.save", "streamforest.snapshot", "save_forest", _probe_save),
    Target("snapshot.load", "streamforest.snapshot", "load_forest"),
    Target("data.gen", "streamforest.data", "gen_synthetic"),
    Target("data.plan", "streamforest.data", "make_batches"),
)

# A Dataset.subset span under one of these is a forest's bootstrap resample.
BOOTSTRAP_PARENTS = frozenset({"forest.init", "forest.update", "forest.fit"})

# The spans each per-layer metric is computed from; a metric is absent when
# any of them is. Metrics not listed come from the workload or the memory step.
SOURCES = {
    "tree.route.": ("tree.route",),
    "tree.grow.": ("tree.grow",),
    "tree.best_split.": ("tree.best_split",),
    "tree.predict.": ("tree.predict",),
    "forest.predict.": ("forest.predict",),
    "forest.predict_one.": ("forest.predict_one",),
    "forest.bootstrap.": ("dataset.subset",),
    "forest.replace.score_s": ("forest.update", "stream.predict"),
    "forest.replace.fresh_s": ("forest.update", "stream.init"),
    "stream.update.": ("stream.update",),
    "forest.update.": ("forest.update",),
    "forest.fit.": ("forest.fit",),
    "snapshot.save.": ("snapshot.save",),
    "snapshot.load.": ("snapshot.load",),
    "data.gen.": ("data.gen",),
    "data.plan.": ("data.plan",),
}


def _resolve(target: Target):
    """(owner, attribute) of a target, or None when the library lacks it."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *outer, attr = target.path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if attr in vars(owner) else None


class Recorder:
    """Spans kept in flat arrays, plus counts gathered at the same calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = defaultdict(float)
        self.absent: set[str] = set()
        self._patches: list = []

    def name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def open(self, name_id: int, start: float) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(start)
        self.end.append(start)
        self.stack.append(i)
        return i

    def close(self, i: int, end: float) -> None:
        self.end[i] = end
        self.stack.pop()

    def inside(self, spans) -> bool:
        """Whether a span with one of these names is open."""
        ids = {self.name_id(s) for s in spans}
        return any(self.name[i] in ids for i in self.stack)

    def _wrap(self, fn, target: Target):
        name_id, probe, clock = self.name_id(target.span), target.probe, time.perf_counter

        def wrapper(*args, **kwargs):
            i = self.open(name_id, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i, clock())
            if probe is not None:
                try:
                    probe(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    # The target's signature changed: its counts are unknown.
                    self.absent.add(target.span)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        found_spans = set()
        modules = [m for k, m in sys.modules.items()
                   if k == "streamforest" or k.startswith("streamforest.")]
        for target in targets:
            found = _resolve(target)
            if found is None:
                continue
            found_spans.add(target.span)
            owner, attr = found
            original = vars(owner)[attr]
            wrapped = self._wrap(original, target)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)
        self.absent |= {t.span for t in targets} - found_spans

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    each child clipped to its parent's interval."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered, reach = 0.0, lo_p
        for lo, hi in sorted((max(start[k], lo_p), min(end[k], hi_p)) for k in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[p] -= covered
    return out


def layer_metrics(rec: Recorder, selfs, counters: dict) -> dict:
    """Per-layer metrics {name: value, or None when absent} of a finished
    recording with span self times `selfs`; `counters` are counts the
    workload read from public attributes."""
    ids = {t.span: rec.name_id(t.span) for t in TARGETS}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    dur_s = defaultdict(float)
    score_s = fresh_s = boot_self = 0.0
    boot_calls = 0
    boot_ids = {ids[n] for n in BOOTSTRAP_PARENTS}
    for i, nid in enumerate(rec.name):
        calls[nid] += 1
        self_s[nid] += selfs[i]
        dur = rec.end[i] - rec.start[i]
        dur_s[nid] += dur
        p = rec.parent[i]
        if p >= 0 and rec.name[p] == ids["forest.update"]:
            if nid == ids["stream.predict"]:
                score_s += dur
            elif nid == ids["stream.init"]:
                fresh_s += dur
        if nid == ids["dataset.subset"]:
            while p >= 0 and rec.name[p] not in boot_ids:
                p = rec.parent[p]
            if p >= 0:
                boot_calls += 1
                boot_self += selfs[i]

    def n(span):
        return calls[ids[span]]

    def ratio(num, den):
        return num / den if den else 0.0

    c = rec.counts
    draws = counters.get("forest.replace.draws", 0)
    events = counters.get("forest.replace.events", 0)
    m = {
        "tree.route.calls": n("tree.route"),
        "tree.route.rows": c["tree.route.rows"],
        "tree.route.leaves_touched": c["tree.route.leaves_touched"],
        "tree.route.self_s": self_s[ids["tree.route"]],
        "tree.grow.calls": n("tree.grow"),
        "tree.grow.rows": c["tree.grow.rows"],
        "tree.grow.self_s": self_s[ids["tree.grow"]],
        "tree.grow.split_ratio": ratio(c["tree.grow.splits"], n("tree.grow")),
        "tree.best_split.calls": n("tree.best_split"),
        "tree.best_split.rows": c["tree.best_split.rows"],
        "tree.best_split.candidates": c["tree.best_split.candidates"],
        "tree.best_split.self_s": self_s[ids["tree.best_split"]],
        "tree.best_split.found_ratio": ratio(c["tree.best_split.found"], n("tree.best_split")),
        "tree.predict.calls": n("tree.predict"),
        "tree.predict.rows": c["tree.predict.rows"],
        "tree.predict.self_s": self_s[ids["tree.predict"]],
        "forest.predict.calls": n("forest.predict"),
        "forest.predict.rows": c["forest.predict.rows"],
        "forest.predict.self_s": self_s[ids["forest.predict"]],
        "forest.predict_one.calls": n("forest.predict_one"),
        "forest.predict_one.self_s": self_s[ids["forest.predict_one"]],
        "forest.bootstrap.calls": boot_calls,
        "forest.bootstrap.rows": c["forest.bootstrap.rows"],
        "forest.bootstrap.self_s": boot_self,
        "forest.replace.draws": draws,
        "forest.replace.events": events,
        "forest.replace.trees": counters.get("forest.replace.trees", 0),
        "forest.replace.fire_ratio": ratio(events, draws),
        "forest.replace.score_s": score_s,
        "forest.replace.fresh_s": fresh_s,
        "stream.update.self_s": self_s[ids["stream.update"]],
        "forest.update.self_s": self_s[ids["forest.update"]],
        "forest.fit.self_s": self_s[ids["forest.fit"]],
        "snapshot.save.s": ratio(dur_s[ids["snapshot.save"]], n("snapshot.save")),
        "snapshot.save.bytes": c["snapshot.save.bytes"],
        "snapshot.load.s": ratio(dur_s[ids["snapshot.load"]], n("snapshot.load")),
        "data.gen.s": ratio(dur_s[ids["data.gen"]], n("data.gen")),
        "data.plan.s": ratio(dur_s[ids["data.plan"]], n("data.plan")),
    }
    for name in m:
        for prefix, spans in SOURCES.items():
            if name.startswith(prefix) and rec.absent.intersection(spans):
                m[name] = None
    return m


def model_bytes(model, path) -> tuple[int, int]:
    """(bytes, nodes) of a model as tracemalloc measures a copy loaded from
    its snapshot: the allocations the load leaves alive are the model."""
    sf.save_forest(model, path)
    gc.collect()
    tracemalloc.start()
    try:
        loaded = sf.load_forest(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held, int(loaded.node_count())


def traced_run(name: str, seed: int, shape: Shape, tmp) -> tuple[dict, tuple, dict]:
    """The workload's minimum work untraced, then traced, both timed by the
    wall clock alone.

    Returns (per-layer metrics, (attempted, failed) over both passes,
    self time by span)."""
    start = time.perf_counter()
    plain = run_workload(name, seed, 0.0, shape, tmp, WallClock())
    untraced_s = time.perf_counter() - start
    attempted, failed = plain.attempted, plain.failed
    del plain
    rec = Recorder()
    rec.install()
    try:
        start = time.perf_counter()
        run = run_workload(name, seed, 0.0, shape, tmp, WallClock())
        traced_s = time.perf_counter() - start
    finally:
        rec.uninstall()
    selfs = self_times(rec.parent, rec.start, rec.end)
    m = layer_metrics(rec, selfs, run.counters)
    held, nodes = model_bytes(run.model, tmp / "memory.json")
    m.update({
        "model.nodes": nodes,
        "model.bytes": held,
        "model.bytes_per_node": held / nodes,
        "model.bytes_per_node_const": getattr(sf, "BYTES_PER_NODE", None),
        "trace.spans": len(rec.start),
        "trace.wall_s": traced_s,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    by_span = defaultdict(float)
    for i, nid in enumerate(rec.name):
        by_span[rec.names[nid]] += selfs[i]
    return m, (attempted + run.attempted, failed + run.failed), dict(by_span)
