"""Dataset ingestion, deterministic batch/fold planning, and synthetic
dataset generators for desk-scale experiments."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .tree import Dataset, _check_integer, _check_real

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
    using numpy's default PCG64 generator.
    """

    ordering: np.ndarray
    batch_size: int
    boundaries: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "batch_size", _check_integer("batch_size", self.batch_size, 1))
        n = self.ordering.shape[0]
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
    the plan is a pure function of (n, k, seed).
    """

    assignments: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _check_integer("k", self.k, 2))

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
    n_classes : declared class count, an int of at least 2. When given,
        label cells must be integers below it. When omitted, labels are
        remapped through a sorted dictionary of the distinct values seen
        and n_classes is the number of distinct labels.
    header : whether the first row is a header.
    label_map : a map as returned here, say a training file's, to use in place
        of a new one: its keys are the labels allowed. Not with n_classes.

    Returns
    -------
    (dataset, label_map) where label_map sends each original label cell to
    the class index used in the dataset.

    Raises DataLoadError, naming the line and column, for missing or
    non-numeric cells, unmapped labels and labels that are not integers
    below a declared class count; naming the line, for a row or header
    whose cell count differs from the first row's, and for a header that
    names the label column more than once.
    """
    if not isinstance(label_column, str):
        label_column = _check_integer("label_column", label_column, -math.inf)
    if n_classes is not None:
        n_classes = _check_integer("n_classes", n_classes, 2)
        if label_map is not None:
            raise ValueError("give n_classes or label_map, not both")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader]
    names: list[str] | None = None
    if header:
        if not rows:
            raise DataLoadError("file is empty")
        header_line, names = rows.pop(0)
        names = [c.strip() for c in names]
    body = [(line, row) for line, row in rows if row]
    if not body:
        raise DataLoadError("no data rows")

    width = len(body[0][1])
    if names is not None and len(names) != width:
        raise DataLoadError(f"line {header_line}: header has {len(names)} cells, "
                            f"line {body[0][0]} has {width}")
    if isinstance(label_column, str):
        if names is None:
            raise DataLoadError("a named label column requires header=True")
        if label_column not in names:
            raise DataLoadError(f"no column named {label_column!r}")
        if names.count(label_column) > 1:
            raise DataLoadError(f"line {header_line}: the header names "
                                f"{names.count(label_column)} columns {label_column!r}")
        label_idx = names.index(label_column)
    else:
        label_idx = label_column if label_column >= 0 else width + label_column
    if not 0 <= label_idx < width:
        raise DataLoadError(f"label column {label_column} out of range")

    features = np.empty((len(body), width - 1), dtype=np.float64)
    raw_labels: list = []  # label cells, as ints under n_classes
    for i, (line, row) in enumerate(body):
        if len(row) != width:
            raise DataLoadError(f"line {line}: expected {width} cells, got {len(row)}")
        j = 0
        for c, cell in enumerate(row):
            if c == label_idx:
                text, where = cell.strip(), f"line {line}, column {c + 1}"
                if not text:
                    raise DataLoadError(f"{where}: empty cell")
                if label_map is not None and text not in label_map:
                    raise DataLoadError(f"{where}: unknown label {text!r}")
                if n_classes is not None:
                    try:
                        text = int(text)
                    except ValueError:
                        raise DataLoadError(f"{where}: label {text!r} is not an integer "
                                            "under declared n_classes") from None
                    if not 0 <= text < n_classes:
                        raise DataLoadError(
                            f"{where}: label {text} outside declared range [0, {n_classes})")
                raw_labels.append(text)
            else:
                features[i, j] = _parse_feature(cell, line, c + 1)
                j += 1

    if n_classes is not None:
        label_map = {v: v for v in sorted(set(raw_labels))}
        return Dataset(features, np.array(raw_labels, dtype=np.int64), n_classes), label_map

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


def save_csv(data: Dataset, path, header: bool = True) -> None:
    """Write a Dataset as f0..f{p-1},label rows; floats use repr so a reload
    reproduces them bit-exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"f{j}" for j in range(data.n_features)] + ["label"])
        for i in range(data.n_samples):
            row = [repr(float(v)) for v in data.features[i]]
            row.append(str(int(data.labels[i])))
            writer.writerow(row)


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
