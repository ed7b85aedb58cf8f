"""Dataset ingestion, deterministic batch/fold planning, and synthetic
dataset generators for desk-scale experiments."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .tree import Dataset, _check_integer

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
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
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

    def batches(self):
        for i in range(self.n_batches):
            yield self.batch(i)


@dataclass(frozen=True)
class FoldPlan:
    """Disjoint covering folds with sizes differing by at most one.

    Assignment is a seeded shuffle followed by round-robin fold labels, so
    the plan is a pure function of (n, k, seed).
    """

    assignments: np.ndarray
    k: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


def make_batches(n: int, batch_size: int = 100, seed=0) -> BatchPlan:
    """Shuffle 0..n-1 with the given seed and slice into contiguous batches."""
    _check_integer("n", n, 1)
    _check_integer("batch_size", batch_size, 1)
    rng = np.random.default_rng(seed)
    return BatchPlan(rng.permutation(n), batch_size)


def make_folds(n: int, k: int = 5, seed=0) -> FoldPlan:
    """Assign each of n samples to one of k cross-validation folds, at
    least one sample to each."""
    _check_integer("k", k, 2)
    _check_integer("n", n, k)
    rng = np.random.default_rng(seed)
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
             header: bool = False) -> tuple[Dataset, dict]:
    """Load a dense numeric CSV into a Dataset.

    Parameters
    ----------
    path : CSV file, comma-separated, UTF-8.
    label_column : column index (may be negative) or, with header=True, a
        column name.
    n_classes : declared class count. When given, label cells must be
        integers below it. When omitted, labels are remapped through a
        sorted dictionary of the distinct values seen and n_classes is the
        number of distinct labels.
    header : whether the first row is a header.

    Returns
    -------
    (dataset, label_map) where label_map sends each original label cell to
    the class index used in the dataset.

    Raises DataLoadError for missing or non-numeric cells, naming the line
    and column, and for labels outside a declared class count.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    offset = 0
    names: list[str] | None = None
    if header:
        if not rows:
            raise DataLoadError("file is empty")
        names = [c.strip() for c in rows[0]]
        offset = 1
    body = [r for r in rows[offset:] if r]
    if not body:
        raise DataLoadError("no data rows")

    width = len(body[0])
    if isinstance(label_column, str):
        if names is None:
            raise DataLoadError("a named label column requires header=True")
        try:
            label_idx = names.index(label_column)
        except ValueError:
            raise DataLoadError(f"no column named {label_column!r}") from None
    else:
        label_idx = label_column if label_column >= 0 else width + label_column
    if not 0 <= label_idx < width:
        raise DataLoadError(f"label column {label_column} out of range")

    features = np.empty((len(body), width - 1), dtype=np.float64)
    raw_labels: list[str] = []
    for i, row in enumerate(body):
        line = i + 1 + offset
        if len(row) != width:
            raise DataLoadError(f"line {line}: expected {width} cells, got {len(row)}")
        j = 0
        for c, cell in enumerate(row):
            if c == label_idx:
                text = cell.strip()
                if not text:
                    raise DataLoadError(f"line {line}, column {c + 1}: empty cell")
                raw_labels.append(text)
            else:
                features[i, j] = _parse_feature(cell, line, c + 1)
                j += 1

    if n_classes is not None:
        labels = np.empty(len(raw_labels), dtype=np.int64)
        for i, text in enumerate(raw_labels):
            try:
                value = int(text)
            except ValueError:
                raise DataLoadError(
                    f"label {text!r} is not an integer under declared n_classes"
                ) from None
            if not 0 <= value < n_classes:
                raise DataLoadError(
                    f"label {value} outside declared range [0, {n_classes})"
                )
            labels[i] = value
        label_map = {v: v for v in sorted(set(labels.tolist()))}
        return Dataset(features, labels, n_classes), label_map

    distinct = sorted(set(raw_labels), key=_label_sort_key)
    label_map = {text: i for i, text in enumerate(distinct)}
    labels = np.array([label_map[t] for t in raw_labels], dtype=np.int64)
    return Dataset(features, labels, len(distinct)), label_map


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

    Class sizes are balanced within one sample; rows are shuffled. Features
    beyond the first two are independent standard normal noise. The result
    is a pure function of the arguments.
    """
    if n < 4:
        raise ValueError("need at least four samples")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    if n_features < 2:
        raise ValueError("synthetic kinds need at least two features")
    rng = np.random.default_rng(seed)

    if kind == "blobs":
        k = n_classes if n_classes is not None else 3
        if k < 2:
            raise ValueError("blobs need at least two classes")
        centers = _blob_centers(k, n_features)
        sigma = 0.5 + noise
        sizes = _class_sizes(n, k)
        parts, labels = [], []
        for c, size in enumerate(sizes):
            pts = centers[c] + rng.normal(0.0, 1.0, (size, n_features)) * sigma
            if n_features > 2:
                pts[:, 2:] = rng.normal(0.0, 1.0, (size, n_features - 2))
            parts.append(pts)
            labels.append(np.full(size, c, dtype=np.int64))
        features = np.vstack(parts)
        y = np.concatenate(labels)
        k_out = k
    elif kind == "xor":
        if n_classes not in (None, 2):
            raise ValueError("xor is a two-class dataset")
        quadrant_signs = [(1, 1), (1, -1), (-1, -1), (-1, 1)]
        quadrant_labels = [1, 0, 1, 0]  # same-sign quadrants share a class
        sizes = _class_sizes(n, 4)
        parts, labels = [], []
        for q, size in enumerate(sizes):
            mag = rng.uniform(0.05, 1.0, (size, 2))
            pts = np.zeros((size, n_features))
            pts[:, 0] = mag[:, 0] * quadrant_signs[q][0]
            pts[:, 1] = mag[:, 1] * quadrant_signs[q][1]
            if n_features > 2:
                pts[:, 2:] = rng.normal(0.0, 1.0, (size, n_features - 2))
            pts[:, :2] += rng.normal(0.0, 0.2, (size, 2)) * noise
            parts.append(pts)
            labels.append(np.full(size, quadrant_labels[q], dtype=np.int64))
        features = np.vstack(parts)
        y = np.concatenate(labels)
        k_out = 2
    elif kind == "concentric":
        if n_classes not in (None, 2):
            raise ValueError("concentric is a two-class dataset")
        sizes = _class_sizes(n, 2)
        parts, labels = [], []
        for c, size in enumerate(sizes):
            radius = rng.uniform(0.0, 1.0, size) if c == 0 else rng.uniform(1.5, 2.5, size)
            radius = radius + rng.normal(0.0, 0.5, size) * noise
            angle = rng.uniform(0.0, 2.0 * math.pi, size)
            pts = np.zeros((size, n_features))
            pts[:, 0] = radius * np.cos(angle)
            pts[:, 1] = radius * np.sin(angle)
            if n_features > 2:
                pts[:, 2:] = rng.normal(0.0, 1.0, (size, n_features - 2))
            parts.append(pts)
            labels.append(np.full(size, c, dtype=np.int64))
        features = np.vstack(parts)
        y = np.concatenate(labels)
        k_out = 2
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")

    order = rng.permutation(n)
    return Dataset(features[order], y[order], k_out)
