"""Forest snapshots: a forest's node table, laid out breadth-first, saved as
raw arrays.

A snapshot (format ``streamforest-snapshot-v5``) is an uncompressed numpy
``.npz`` archive holding
- ``meta``: one string, the JSON header: model kind, shape and the
  hyperparameters that `forest._Forest._configure` checks and sets, the
  forest's ``seed`` under the key ``master_seed``; for a stream forest,
  also its replacement count, batch counts and generator state;
- the four `NodeTable.COLUMNS` as `NodeTable.export` returns them: the
  ``n_trees`` roots first, then each level's children pair by pair, an
  internal node's right child at ``left + 1`` (-1 at leaves). The class
  counts are int32, as the table holds them; files written with int64
  counts are v5 too, and load while every node's total fits int32.

It loads without unpickling anything. v4 archives, which also hold a
``pre_split_total`` column that the class counts determine, load alike,
that column unread. v3 archives and v1 and v2 JSON documents, which hold
the trees tree after tree in preorder with an explicit ``right`` column,
still load, and are laid out breadth-first on load. The numbers of a
JSON document's columns, and of any header's ``tree_batches_seen``, pass
one rule (`_numbers`): integers are JSON integers that fit int64,
thresholds JSON integers or reals that fit float64, and anything else
fails by its key. Every snapshot passes one check before its trees are
built: every child link points further on, so every descent ends, and
every node but the roots is the child of exactly one node, so the columns
are exactly the header's trees. save -> load -> predict round-trips
bit-exactly, and save -> load -> update continues the original run.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
import zipfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .forest import BatchForest, StreamForest
from .tree import _MAX_COUNT, NodeTable, SplitCriteria, _breadth_first, _check_integer

__all__ = ["save_forest", "load_forest", "FORMAT"]

FORMAT = "streamforest-snapshot-v5"
_V4 = "streamforest-snapshot-v4"  # v5 with a `pre_split_total` column as well
# Formats written before v4, which hold tree t at nodes starts[t]:starts[t + 1]
# in preorder, with a `right` column and child links counted from the start
# of the node's own tree. v3 is an archive, v1 and v2 are JSON documents;
# v1 differs from v2 only in carrying per-tree generator states as well,
# which the one-generator draw rule of v2 no longer uses.
_V3 = "streamforest-snapshot-v3"
_JSON_FORMATS = ("streamforest-snapshot-v2", "streamforest-snapshot-v1")
_ZIP_MAGIC = b"PK\x03\x04"


class _Header(dict):
    """A snapshot header, whose missing keys raise ValueError by name."""

    def __missing__(self, key):
        raise ValueError(f"snapshot header lacks {key!r}")


@contextlib.contextmanager
def _write_atomically(path):
    """A binary file to write in place of `path`: a temporary file in the
    same directory, renamed over `path` once the block ends. If the block
    raises, the temporary file is removed and `path` keeps its old contents.
    If the temporary file cannot be made, say in a missing directory, or
    cannot be renamed, say over a directory, the OSError names `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")

    def named(err: OSError) -> OSError:  # the file asked for, not the temporary one
        return type(err)(err.errno, err.strerror, str(path))

    try:
        fh = open(tmp, "xb")
    except OSError as err:
        raise named(err) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as err:
            raise named(err) from None
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _meta(forest: StreamForest | BatchForest) -> dict:
    """The snapshot header of `forest`: everything but its nodes."""
    if not isinstance(forest, (StreamForest, BatchForest)):
        raise TypeError(f"cannot snapshot {type(forest).__name__}")
    if forest._table is None:
        raise ValueError("cannot snapshot an unfitted forest")
    meta = {
        "format": FORMAT,
        "model": "stream_forest" if isinstance(forest, StreamForest) else "batch_forest",
        "n_classes": forest.n_classes,
        "n_features": forest.n_features,
        "n_trees": forest.n_trees,
        "master_seed": forest.seed,
        "bootstrap": forest.bootstrap,
        "criteria": asdict(forest.criteria),
    }
    if isinstance(forest, StreamForest):
        meta.update(replace_count=forest.replace_count, batches_seen=forest.batches_seen,
                    tree_batches_seen=forest._batches.tolist(),
                    rng_state=forest.rng.bit_generator.state)
    return meta


def save_forest(forest: StreamForest | BatchForest, path) -> None:
    """Write a forest snapshot. The columns are written as raw arrays, so
    thresholds survive the round trip bit-exactly and reloaded predictions
    match. A stream forest's generator state is saved too. The archive's
    bytes depend only on the forest: every member carries the zip format's
    fixed 1980-01-01 timestamp.

    The archive is written to a temporary file in the target directory and
    then renamed over `path`, so `path` holds either the old snapshot or the
    complete new one, also when writing fails midway.
    """
    meta = _meta(forest)
    columns = forest._table.export(forest._roots)
    with _write_atomically(path) as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **columns)


# What zipfile raises on a damaged archive: a bad CRC, magic number or
# header, a file cut short, a flag or version it cannot read, or a seek to
# an offset before the start of the file.
_DAMAGED = (zipfile.BadZipFile, EOFError, NotImplementedError, OSError)


def _read_archive(fh) -> tuple[dict, dict, np.ndarray | None]:
    """(meta, columns, starts) of a v5, v4 or v3 archive, starts None for v5
    and v4; nothing is unpickled. A damaged archive raises ValueError."""
    try:
        with np.load(fh, allow_pickle=False) as archive:
            meta = archive["meta"] if "meta" in archive.files else np.array(None)
            if meta.shape or meta.dtype.kind != "U":
                raise ValueError("snapshot meta must be one string")
            meta = json.loads(meta.item())
            if not isinstance(meta, dict) or meta.get("format") not in (FORMAT, _V4, _V3):
                raise ValueError(f"not a {FORMAT}, {_V4} or {_V3} archive")
            names = NodeTable.COLUMNS + (("right", "starts") if meta["format"] == _V3 else ())
            missing = set(names) - set(archive.files)
            if missing:
                raise ValueError(f"snapshot lacks {sorted(missing)}")
            columns = {name: archive[name] for name in names}
    except _DAMAGED as err:
        raise ValueError(f"not a readable snapshot archive: {err}") from err
    return meta, columns, columns.pop("starts", None)


def _read_json(fh) -> tuple[dict, dict, np.ndarray]:
    """(meta, columns, starts) of a v1 or v2 JSON document. A file that is
    no JSON document, and a document whose ``trees`` are not a list of
    objects of list columns of one length, raise ValueError; the latter
    names the key and the tree. Each column is converted by `_numbers`, so
    one that holds anything but the numbers it takes is an object array,
    which `_check_trees` refuses by name."""
    try:
        doc = json.load(fh)
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError among them
        raise ValueError(f"not a streamforest snapshot: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") not in _JSON_FORMATS:
        raise ValueError("not a streamforest snapshot")
    trees = doc.pop("trees", None)
    if not isinstance(trees, list):
        raise ValueError(f"snapshot 'trees' must be a list of trees, not "
                         f"{type(trees).__name__}")
    keys = {name: "class_counts" if name == "counts" else name
            for name in (*NodeTable.COLUMNS, "right")}
    values = {name: [] for name in keys}
    for t, tree in enumerate(trees):
        if not isinstance(tree, dict):
            raise ValueError(f"snapshot tree {t} must be an object of columns, not "
                             f"{type(tree).__name__}")
        for name, key in keys.items():
            if key not in tree:
                raise ValueError(f"snapshot tree {t} lacks {key!r}")
            column = tree[key]
            if not isinstance(column, list) or len(column) != len(tree["feature"]):
                raise ValueError(f"snapshot tree {t} must hold {key!r} as a list of one "
                                 f"value per node")
            values[name] += column
    starts = np.cumsum([0] + [len(tree["feature"]) for tree in trees])
    return doc, {name: _numbers(column, float if name == "threshold" else int)
                 for name, column in values.items()}, starts


def _numbers(values: list, kind: type) -> np.ndarray:
    """JSON numbers, or lists of them, as int64 if all are integers (`kind`
    int) or as float64 if all are integers or reals (`kind` float); else,
    or beyond int64 or float64, as objects, which `_check_trees` and
    `_check_integer` reject by dtype kind: 1.0 or true is no integer."""
    column = np.array(values, dtype=object)
    if all(type(v) in (int, kind) for v in column.flat):
        with contextlib.suppress(OverflowError):
            return column.astype(np.int64 if kind is int else np.float64)
    return column


def _check_trees(meta: dict, columns: dict, starts: np.ndarray | None) -> np.ndarray:
    """Raise ValueError unless `columns` hold exactly the snapshot's trees;
    returns their roots.

    v4 and v5 have their roots first and each right child at
    ``left + 1``. v1–v3 have a tree at each of `starts` and a ``right``
    column, whose tree-local links are made global here, in place. Then
    every internal node i has ``i < left < right < n``, so every descent
    ends, leaves have both links -1, and every node but the roots is the
    child of exactly one node. Features must be in range, internal
    thresholds finite and class counts nonnegative, each node's summing to
    less than ``tree._MAX_COUNT``, so that they fit the table's int32
    counts (v1–v5 files may hold int64 counts)."""
    n_classes, n_features = meta["n_classes"], meta["n_features"]
    n = len(columns["feature"])
    for name, value in columns.items():
        shape = (n, n_classes) if name == "counts" else (n,)
        kind = "f" if name == "threshold" else "i"
        if value.shape != shape or value.dtype.kind != kind:
            raise ValueError(f"snapshot column {name!r} is {value.dtype} of shape "
                             f"{value.shape}, expected shape {shape} of kind {kind!r}")
    left, feature, counts = columns["left"], columns["feature"], columns["counts"]
    if starts is None:
        n_trees = meta["n_trees"]
        if type(n_trees) is not int or not 0 < n_trees <= n:
            raise ValueError(f"snapshot holds {n} nodes, its header {n_trees!r} trees")
        roots = np.arange(n_trees)
        right = np.where(left >= 0, left + 1, -1)
    else:
        if (starts.ndim != 1 or starts.dtype.kind != "i" or starts.size < 2
                or starts[0] != 0 or starts[-1] != n or (np.diff(starts) <= 0).any()):
            raise ValueError("snapshot tree starts must rise from 0 to the node count")
        roots = starts[:-1]
        tree_start = np.repeat(roots, np.diff(starts))
        for name in ("left", "right"):
            columns[name] = columns[name] + np.where(columns[name] >= 0, tree_start, 0)
        left, right = columns["left"], columns["right"]
    described = {"n_trees": meta["n_trees"]}
    if meta["model"] == "stream_forest":
        described["tree_batches_seen"] = len(meta["tree_batches_seen"])
    if any(count != roots.size for count in described.values()):
        raise ValueError(f"snapshot holds {roots.size} trees, its header {described}")

    i = np.arange(n)
    leaf = (left == -1) & (right == -1)
    inner = ((i < left) & (left < right) & (right < n) & (feature >= 0)
             & (feature < n_features) & np.isfinite(columns["threshold"]))
    bad = ~(leaf | inner)
    if bad.any() or counts.min(initial=0) < 0:
        i = int(np.argmax(bad | (counts < 0).any(axis=1)))
        raise ValueError(
            f"snapshot node {i} of {n} is not a leaf or an internal node linking further "
            f"on: left={left[i]}, right={right[i]}, feature={feature[i]} of {n_features}, "
            f"threshold={columns['threshold'][i]}, counts={counts[i].tolist()}")
    # A node's counts sum to at most n_classes times the largest count,
    # which settles the bound for a sane file without summing rows; the
    # rows are summed in floats, exact up to 2**53, as an int64 sum could
    # wrap.
    heavy = np.zeros(n, dtype=bool)
    if int(counts.max(initial=0)) * n_classes >= _MAX_COUNT:
        heavy = counts.sum(axis=1, dtype=np.float64) >= _MAX_COUNT
    if heavy.any():
        i = int(np.argmax(heavy))
        raise ValueError(f"snapshot node {i} counts {sum(counts[i].tolist())} samples; "
                         f"a node's total must stay below {_MAX_COUNT} (2**31)")
    # Every link is now -1 or a node id; bin 0 takes the leaves' -1.
    parents = np.bincount(np.concatenate((left, right)) + 1, minlength=n + 1)[1:]
    parents[roots] += 1  # so that every node of a forest has 1
    if (parents != 1).any():
        i = int(np.argmax(parents != 1))
        root = int(i in roots)
        raise ValueError(f"snapshot node {i} has {parents[i] - root} parents, expected "
                         f"{1 - root}")
    return roots


def load_forest(path) -> StreamForest | BatchForest:
    """Rebuild a forest from a snapshot.

    A stream forest gets back the generator state it was saved with, so
    further updates continue exactly as the original run would have.
    Snapshots without that state still load; their generator is seeded
    afresh from the master seed, so further updates are deterministic but
    need not match the original run.

    v1 documents, written before the forest drew from one generator, load
    and predict exactly as saved. Their per-tree generator states are
    ignored: updates continue under the v2 draw rule from the forest-level
    state, so they are deterministic but differ from a v1 run.

    The header is checked as the constructors check their arguments, batch
    counts as integers of at least 1; a missing key, a `criteria` that is
    not an object of `SplitCriteria` fields and an `rng_state` the generator
    refuses raise ValueError naming the key. Damage that the zip reader
    finds, such as a file cut short or a bad checksum or header, raises
    ValueError too, with the zip reader's error as its cause.
    """
    with open(path, "rb") as fh:
        is_archive = fh.read(len(_ZIP_MAGIC)) == _ZIP_MAGIC
        fh.seek(0)
        meta, columns, starts = (_read_archive if is_archive else _read_json)(fh)
    meta = _Header(meta)
    n_classes = _check_integer("n_classes", meta["n_classes"], 2)
    n_features = _check_integer("n_features", meta["n_features"], 1)
    criteria = meta["criteria"]
    if not isinstance(criteria, dict) or criteria.keys() - {f.name for f in fields(SplitCriteria)}:
        raise ValueError(f"criteria must map SplitCriteria fields to values, not {criteria!r}")
    criteria = SplitCriteria(**criteria)
    bootstrap = meta.get("bootstrap", True)
    if meta["model"] == "stream_forest":
        forest = StreamForest.__new__(StreamForest)
        forest._configure(n_classes, meta["n_trees"], meta["replace_count"], criteria,
                          meta["master_seed"], bootstrap)
        if "rng_state" in meta:
            try:
                forest.rng.bit_generator.state = meta["rng_state"]
            except (TypeError, ValueError, KeyError, OverflowError) as exc:
                raise ValueError(f"rng_state {meta['rng_state']!r} is not a PCG64 state") from exc
        forest.batches_seen = _check_integer("batches_seen", meta["batches_seen"], 1)
        forest._batches = _check_integer("tree_batches_seen",
                                         _numbers(meta["tree_batches_seen"], int), 1)
        if forest._batches.ndim != 1:
            raise ValueError("tree_batches_seen must be a list of integers")
        if forest._batches.max(initial=0) > forest.batches_seen:
            raise ValueError(f"tree_batches_seen holds {forest._batches.max()}, more than "
                             f"batches_seen {forest.batches_seen}")
    elif meta["model"] == "batch_forest":
        forest = BatchForest(meta["n_trees"], criteria, meta["master_seed"], bootstrap)
    else:
        raise ValueError(f"unknown model kind {meta['model']!r}")
    roots = _check_trees(meta, columns, starts)
    if starts is not None:
        columns = _breadth_first(columns, roots, columns["right"])
    forest.n_classes, forest.n_features = n_classes, n_features
    forest._table = NodeTable(n_classes)
    forest._roots = forest._table.append(columns, roots.size)
    return forest
