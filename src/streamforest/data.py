"""Dataset ingestion, deterministic batch/fold planning, and synthetic
dataset generators for desk-scale experiments."""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from ._io import _write_atomically
from .tree import Dataset, _check_index, _check_integer, _check_real

__all__ = [
    "DataLoadError",
    "BatchPlan",
    "FoldPlan",
    "load_csv",
    "save_csv",
    "make_batches",
    "make_folds",
    "gen_synthetic",
]


class DataLoadError(ValueError):
    """Raised when a CSV cannot be parsed into a Dataset."""


@dataclass(frozen=True)
class BatchPlan:
    """Seeded permutation of 0..n-1 sliced into fixed-size batches.

    All batches have batch_size samples except possibly the last; the final
    short batch is kept, not dropped. Pure function of (n, batch_size, seed),
    using numpy's default PCG64 generator. The ordering, an array or a list,
    must be a permutation of 0..n-1.
    """

    ordering: np.ndarray
    batch_size: int
    boundaries: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "batch_size", _check_integer("batch_size", self.batch_size, 1))
        ordering = _check_index("ordering", self.ordering, np.size(self.ordering))
        n = ordering.size
        if ordering.ndim != 1 or not (np.bincount(ordering, minlength=n) == 1).all():
            raise ValueError(f"ordering must be a permutation of 0..{n - 1}")
        object.__setattr__(self, "ordering", ordering)
        cuts = list(range(0, n, self.batch_size)) + [n]
        object.__setattr__(
            self, "boundaries",
            tuple((cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)),
        )

    @property
    def n_batches(self) -> int:
        return len(self.boundaries)

    def batch(self, i: int) -> np.ndarray:
        start, end = self.boundaries[i]
        return self.ordering[start:end]


@dataclass(frozen=True)
class FoldPlan:
    """Disjoint covering folds with sizes differing by at most one.

    Assignment is a seeded shuffle followed by round-robin fold labels, so
    the plan is a pure function of (n, k, seed). The assignments, an array
    or a list, give each sample's fold in 0..k-1, at least one to each.
    """

    assignments: np.ndarray
    k: int

    def __post_init__(self):
        k = _check_integer("k", self.k, 2)
        assignments = _check_index("assignments", self.assignments, k)
        sizes = np.bincount(assignments.ravel(), minlength=k)
        if assignments.ndim != 1 or sizes.min() < 1 or sizes.max() - sizes.min() > 1:
            raise ValueError(f"assignments must be 1-D and give the {k} folds sizes of "
                             f"at least 1 that differ by at most 1, not {sizes.tolist()}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "assignments", assignments)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


def make_batches(n: int, batch_size: int = 100, seed=0) -> BatchPlan:
    """Shuffle 0..n-1 with the given seed and slice into contiguous batches."""
    _check_integer("n", n, 1)
    rng = np.random.default_rng(_check_integer("seed", seed, 0))
    return BatchPlan(rng.permutation(n), batch_size)


def make_folds(n: int, k: int = 5, seed=0) -> FoldPlan:
    """Assign each of n samples to one of k cross-validation folds, at
    least one sample to each."""
    _check_integer("k", k, 2)
    _check_integer("n", n, k)
    rng = np.random.default_rng(_check_integer("seed", seed, 0))
    order = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = np.arange(n) % k
    return FoldPlan(assignments, k)


def _parse_feature(cell: str, line: int, column: int) -> float:
    text = cell.strip()
    if not text:
        raise DataLoadError(f"line {line}, column {column}: empty cell")
    try:
        value = float(text)
    except ValueError:
        raise DataLoadError(
            f"line {line}, column {column}: {text!r} is not numeric"
        ) from None
    if not math.isfinite(value):
        raise DataLoadError(f"line {line}, column {column}: non-finite value {text!r}")
    return value


def load_csv(path, label_column: int | str = -1, n_classes: int | None = None,
             header: bool = False, label_map: dict | None = None) -> tuple[Dataset, dict]:
    """Load a dense numeric CSV into a Dataset.

    Parameters
    ----------
    path : CSV file, comma-separated, UTF-8; a leading byte-order mark, as
        Excel and PowerShell write, is skipped.
    label_column : column index (an int, may be negative) or, with
        header=True, a column name.
    n_classes : declared class count K, an int of at least 2; it gives the
        label map {"0": 0, ..., "K-1": K-1}. Not with label_map.
    header : whether the first row is a header.
    label_map : a map as returned here, say a training file's.

    One rule reads every label cell: a given map, from n_classes or
    label_map, admits only its own keys; with neither, the sorted distinct
    cells make the map, integer-looking labels in numeric order.

    Returns
    -------
    (dataset, label_map) where label_map sends each label text to its class
    index in the dataset, which has len(label_map) classes.

    One pass reads the file, parsing each row as it is read, so a load holds
    one float64 per feature cell. It raises DataLoadError at the first fault
    in file order: naming the line and column, for missing or non-numeric
    cells and labels the map lacks; naming the line, for a row or header
    whose cell count differs from the first row's, a header that names the
    label column more than once, or a row the csv module refuses.
    """
    if not isinstance(label_column, str):
        label_column = _check_integer("label_column", label_column, -math.inf)
    if n_classes is not None:
        n_classes = _check_integer("n_classes", n_classes, 2)
        if label_map is not None:
            raise ValueError("give n_classes or label_map, not both")
        label_map = {str(k): k for k in range(n_classes)}
    names = width = None
    values = array("d")
    raw_labels: list[str] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                line = reader.line_num
                if header and names is None:
                    header_line, names = line, [c.strip() for c in row]
                    continue
                if not row:
                    continue
                if width is None:
                    width = len(row)
                    if names is not None and len(names) != width:
                        raise DataLoadError(f"line {header_line}: header has {len(names)} "
                                            f"cells, line {line} has {width}")
                    if isinstance(label_column, str):
                        if names is None:
                            raise DataLoadError("a named label column requires header=True")
                        if label_column not in names:
                            raise DataLoadError(f"no column named {label_column!r}")
                        if names.count(label_column) > 1:
                            raise DataLoadError(f"line {header_line}: the header names "
                                                f"{names.count(label_column)} columns "
                                                f"{label_column!r}")
                        label_idx = names.index(label_column)
                    else:
                        label_idx = label_column if label_column >= 0 else width + label_column
                    if not 0 <= label_idx < width:
                        raise DataLoadError(f"label column {label_column} out of range")
                if len(row) != width:
                    raise DataLoadError(f"line {line}: expected {width} cells, got {len(row)}")
                for c, cell in enumerate(row):
                    if c == label_idx:
                        text, where = cell.strip(), f"line {line}, column {c + 1}"
                        if not text:
                            raise DataLoadError(f"{where}: empty cell")
                        if label_map is not None and text not in label_map:
                            raise DataLoadError(f"{where}: unknown label {text!r}")
                        raw_labels.append(text)
                    else:
                        values.append(_parse_feature(cell, line, c + 1))
        except csv.Error as err:
            raise DataLoadError(f"line {reader.line_num}: {err}") from None
    if header and names is None:
        raise DataLoadError("file is empty")
    if width is None:
        raise DataLoadError("no data rows")
    features = np.frombuffer(values).reshape(len(raw_labels), width - 1)

    if label_map is None:
        distinct = sorted(set(raw_labels), key=_label_sort_key)
        label_map = {text: i for i, text in enumerate(distinct)}
    labels = np.array([label_map[t] for t in raw_labels], dtype=np.int64)
    return Dataset(features, labels, len(label_map)), label_map


def _label_sort_key(text: str):
    """Sort integer-looking labels numerically, everything else lexically."""
    try:
        return (0, int(text), "")
    except ValueError:
        return (1, 0, text)


def save_csv(data: Dataset, path) -> None:
    """Write a Dataset as a f0..f{p-1},label header and one row per sample;
    floats use repr so a reload reproduces them bit-exactly. Like a
    snapshot, the file is replaced only once it is complete."""
    with (_write_atomically(path) as raw,
          io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh):
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(data.n_features)] + ["label"])
        for x, label in zip(data.features, data.labels):
            writer.writerow([*map(repr, x.tolist()), str(int(label))])


def _blob_centers(n_classes: int, n_features: int) -> np.ndarray:
    """Class centers with pairwise distance >= 4 in the first two features."""
    centers = np.zeros((n_classes, n_features))
    if n_classes == 2:
        centers[0, 0] = -2.0
        centers[1, 0] = 2.0
        return centers
    radius = 2.0 / math.sin(math.pi / n_classes)
    angles = 2.0 * math.pi * np.arange(n_classes) / n_classes
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


# xor's four groups by the signs of the first two features; the same-sign
# quadrants make class 1
_QUADRANT_SIGNS = [(1, 1), (1, -1), (-1, -1), (-1, 1)]


def _class_sizes(n: int, k: int) -> list[int]:
    base = n // k
    return [base + (1 if i < n % k else 0) for i in range(k)]


def gen_synthetic(kind: str, n: int, noise: float = 0.0, seed=0,
                  n_classes: int | None = None, n_features: int = 2) -> Dataset:
    """Generate a synthetic classification dataset.

    kinds:
      blobs      - n_classes isotropic Gaussian clusters (default 3) whose
                   centers sit 4 units apart; point spread is 0.5 + noise,
                   so noise 0 leaves the clusters essentially disjoint.
      xor        - 2-class checkerboard over the four quadrants of the first
                   two features; noise jitters the coordinates.
      concentric - 2-class radial rings (inner disc vs outer annulus);
                   noise jitters the radii.
    The two-class kinds raise ValueError for an n_classes other than None or 2.

    Class sizes are balanced within one sample; rows are shuffled. Features
    beyond the first two are independent standard normal noise. The result
    is a pure function of the arguments.
    """
    n = _check_integer("n", n, 4)
    n_features = _check_integer("n_features", n_features, 2)
    _check_real("noise", noise)
    rng = np.random.default_rng(_check_integer("seed", seed, 0))

    if kind == "blobs":
        k = 3 if n_classes is None else _check_integer("n_classes", n_classes, 2)
        centers = _blob_centers(k, n_features)
        group_labels = range(k)
    elif kind in ("xor", "concentric"):
        if n_classes not in (None, 2):
            raise ValueError(f"n_classes must be None or 2: {kind} is a two-class dataset")
        k = 2
        group_labels = [1, 0, 1, 0] if kind == "xor" else range(2)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")

    sizes = _class_sizes(n, len(group_labels))
    parts = []
    for g, size in enumerate(sizes):
        pts = (centers[g] + rng.normal(0.0, 1.0, (size, n_features)) * (0.5 + noise)
               if kind == "blobs" else np.zeros((size, n_features)))
        if kind == "xor":
            pts[:, :2] = rng.uniform(0.05, 1.0, (size, 2)) * _QUADRANT_SIGNS[g]
        elif kind == "concentric":  # radius in [0, 1) for class 0, [1.5, 2.5) for class 1
            low = 1.5 * g
            radius = rng.uniform(low, low + 1.0, size) + rng.normal(0.0, 0.5, size) * noise
            angle = rng.uniform(0.0, 2.0 * math.pi, size)
            pts[:, 0] = radius * np.cos(angle)
            pts[:, 1] = radius * np.sin(angle)
        if n_features > 2:
            pts[:, 2:] = rng.normal(0.0, 1.0, (size, n_features - 2))
        if kind == "xor":
            pts[:, :2] += rng.normal(0.0, 0.2, (size, 2)) * noise
        parts.append(pts)

    order = rng.permutation(n)
    y = np.repeat(np.array(group_labels, dtype=np.int64), sizes)
    return Dataset(np.vstack(parts)[order], y[order], k)
