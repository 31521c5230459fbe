"""Tabular datasets: CSV ingestion, bundled synthetic tasks, splits, scaling.

Ingestion is strict: every feature cell must parse as a number and errors
name the offending row and column. Labels may be arbitrary strings; they are
re-indexed densely in a recorded order (numeric when every label parses as a
number, lexicographic otherwise).

Two bundled task families stand in for public tabular benchmarks. One builds
its labels from a sum of pairwise feature products (low interaction orders),
the other from a high-degree conjunction (high orders); both expose knobs so
the structure can be mixed or rescaled. Named presets behind bundled_dataset
are frozen, including their seeds, so "bundled:pairs" always denotes the
exact same rows.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from math import floor
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, SchemaError, ValidationError
from .rng import make_rng
from .textio import format_float, meta_comment

BUNDLED_TASKS = ("pairs", "conjunction")
_BUNDLED_PREFIX = "bundled:"


@dataclass(frozen=True)
class TabularDataset:
    """Feature matrix plus densely indexed integer labels.

    label_values holds the original label strings by class index, so the
    mapping applied at ingestion stays recoverable.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    label_name: str
    label_values: tuple[str, ...]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-d, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValidationError(
                f"labels shape {labels.shape} does not match {feats.shape[0]} rows")
        if len(self.feature_names) != feats.shape[1]:
            raise ValidationError(
                f"{len(self.feature_names)} feature names for {feats.shape[1]} columns")
        if not np.all(np.isfinite(feats)):
            raise ValidationError("features contain non-finite values")
        if not self.label_values:
            raise ValidationError("label_values must list at least one class")
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.label_values)):
            raise ValidationError(
                f"labels must lie in [0, {len(self.label_values)}), "
                f"got range [{labels.min()}, {labels.max()}]")

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.label_values)

    def take(self, indices) -> "TabularDataset":
        """Row subset in the given order; the label mapping is unchanged."""
        idx = np.asarray(indices, dtype=int)
        return replace(self, features=self.features[idx], labels=self.labels[idx])


def _parse_label_order(raw: list[str]) -> list[str]:
    # numeric order when every label is a number, else plain string order
    unique = sorted(set(raw))
    try:
        return sorted(unique, key=float)
    except ValueError:
        return unique


def load_dataset_csv(path, label_column: str) -> TabularDataset:
    """Strict CSV reader: header row, numeric features, any labels.

    Lines starting with '#' before the header are skipped, so files written
    by this package read back. Parse failures raise errors naming the 1-based
    data row and the column.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = [row for row in csv.reader(fh)]
    except OSError as exc:
        raise ValidationError(f"cannot read dataset {path}: {exc}") from exc
    while lines and lines[0] and lines[0][0].startswith("#"):
        lines = lines[1:]
    if not lines:
        raise SchemaError(f"dataset {path} is empty")
    header = [name.strip() for name in lines[0]]
    if len(set(header)) != len(header):
        raise SchemaError(f"dataset {path} has duplicate column names")
    if label_column not in header:
        raise SchemaError(
            f"dataset {path} has no column {label_column!r}; columns are {header}")
    body = [row for row in lines[1:] if row]
    if not body:
        raise SchemaError(f"dataset {path} has a header but no data rows")
    label_idx = header.index(label_column)
    feature_names = tuple(name for k, name in enumerate(header) if k != label_idx)

    features = np.empty((len(body), len(feature_names)))
    raw_labels: list[str] = []
    for r, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise SchemaError(
                f"row {r}: expected {len(header)} cells, got {len(row)}")
        col = 0
        for k, cell in enumerate(row):
            if k == label_idx:
                label = cell.strip()
                if not label:
                    raise SchemaError(f"row {r}: empty label cell")
                raw_labels.append(label)
                continue
            text = cell.strip()
            try:
                value = float(text)
            except ValueError:
                raise SchemaError(
                    f"row {r}: column {header[k]!r} has non-numeric cell {cell!r}") from None
            if not np.isfinite(value):
                raise SchemaError(
                    f"row {r}: column {header[k]!r} has non-finite cell {cell!r}")
            features[r - 1, col] = value
            col += 1

    order = _parse_label_order(raw_labels)
    index = {value: k for k, value in enumerate(order)}
    labels = np.array([index[value] for value in raw_labels], dtype=int)
    return TabularDataset(features, labels, feature_names, label_column, tuple(order))


def write_dataset_csv(path, dataset: TabularDataset, meta=None) -> None:
    """Write a dataset the loader reads back identically; bytes are stable."""
    lines = []
    if meta:
        lines.append(meta_comment(meta))
    lines.append(",".join([*dataset.feature_names, dataset.label_name]))
    for row, label in zip(dataset.features, dataset.labels):
        cells = [format_float(v) for v in row]
        cells.append(dataset.label_values[label])
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def standardize(dataset: TabularDataset) -> tuple[TabularDataset, np.ndarray, np.ndarray]:
    """Center and unit-scale features; constant columns get scale one."""
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return apply_standardization(dataset, mean, std), mean, std


def apply_standardization(dataset: TabularDataset, mean, std) -> TabularDataset:
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.shape != (dataset.num_features,) or std.shape != (dataset.num_features,):
        raise DomainError(
            f"scaling vectors must have length {dataset.num_features}, "
            f"got {mean.shape} and {std.shape}")
    if np.any(std <= 0):
        raise DomainError("scale entries must be positive")
    return replace(dataset, features=(dataset.features - mean) / std)


def split_dataset(dataset: TabularDataset, val_fraction: float,
                  seed: int) -> tuple[TabularDataset, TabularDataset]:
    """Seeded shuffle, then validation rows first: (train, validation)."""
    if not (0 < val_fraction < 1):
        raise ValidationError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    rows = dataset.num_rows
    if rows < 2:
        raise DomainError(f"need at least two rows to split, got {rows}")
    val_rows = int(floor(val_fraction * rows + 0.5))
    val_rows = min(max(val_rows, 1), rows - 1)
    perm = make_rng(seed).permutation(rows)
    return dataset.take(perm[val_rows:]), dataset.take(perm[:val_rows])


def _finish_task(features: np.ndarray, labels: np.ndarray, noise: float,
                 rng: np.random.Generator) -> TabularDataset:
    if not (0 <= noise < 0.5):
        raise ValidationError(f"label noise must lie in [0, 0.5), got {noise}")
    if noise > 0:
        flip = rng.random(len(labels)) < noise
        labels = np.where(flip, 1 - labels, labels)
    names = tuple(f"x{k}" for k in range(features.shape[1]))
    return TabularDataset(features, labels.astype(int), names, "label", ("0", "1"))


def _conjunction_indicator(features: np.ndarray, members: np.ndarray,
                           degree: int) -> np.ndarray:
    # per-feature threshold puts the full conjunction near a 50/50 split;
    # ndtri is the standard normal quantile (scipy.stats costs ~0.4 s to import)
    threshold = ndtri(1.0 - 0.5 ** (1.0 / degree))
    return np.all(features[:, members] > threshold, axis=1)


def make_pairwise_task(rows: int, n: int, num_pairs: int, seed: int, *,
                       conjunction_degree: int = 0, conjunction_weight: float = 0.0,
                       label_noise: float = 0.0) -> TabularDataset:
    """Binary task scored by a sum of pairwise feature products.

    Optionally mixes in a high-degree conjunction with the given weight, so
    the label carries a controllable amount of high-order structure on top
    of the dominant pairwise terms.
    """
    if rows < 2 or n < 2:
        raise ValidationError(f"need rows >= 2 and n >= 2, got ({rows}, {n})")
    max_pairs = n * (n - 1) // 2
    if not (1 <= num_pairs <= max_pairs):
        raise ValidationError(f"num_pairs must lie in [1, {max_pairs}], got {num_pairs}")
    rng = make_rng(seed)
    features = rng.normal(size=(rows, n))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = rng.choice(len(all_pairs), size=num_pairs, replace=False)
    signs = rng.choice([-1.0, 1.0], size=num_pairs)
    score = np.zeros(rows)
    for sign, k in zip(signs, picked):
        i, j = all_pairs[k]
        score += sign * features[:, i] * features[:, j]
    score /= np.sqrt(num_pairs)
    if conjunction_degree:
        if not (2 <= conjunction_degree <= n):
            raise ValidationError(
                f"conjunction_degree must lie in [2, {n}], got {conjunction_degree}")
        members = np.sort(rng.permutation(n)[:conjunction_degree])
        on = _conjunction_indicator(features, members, conjunction_degree)
        score += conjunction_weight * np.where(on, 1.0, -1.0)
    return _finish_task(features, (score > 0).astype(int), label_noise, rng)


def make_conjunction_task(rows: int, n: int, degree: int, seed: int, *,
                          label_noise: float = 0.0) -> TabularDataset:
    """Binary task whose positive class is a degree-wide AND over features."""
    if rows < 2 or n < 2:
        raise ValidationError(f"need rows >= 2 and n >= 2, got ({rows}, {n})")
    if not (2 <= degree <= n):
        raise ValidationError(f"degree must lie in [2, {n}], got {degree}")
    rng = make_rng(seed)
    features = rng.normal(size=(rows, n))
    members = np.sort(rng.permutation(n)[:degree])
    labels = _conjunction_indicator(features, members, degree).astype(int)
    return _finish_task(features, labels, label_noise, rng)


def bundled_dataset(name: str) -> TabularDataset:
    """Frozen presets; the same name always yields the exact same rows."""
    if name == "pairs":
        return make_pairwise_task(768, 12, 8, 1011, conjunction_degree=9,
                                  conjunction_weight=1.25, label_noise=0.1)
    if name == "conjunction":
        return make_conjunction_task(768, 12, 8, 2022, label_noise=0.05)
    raise ValidationError(f"unknown bundled task {name!r}; choose from {BUNDLED_TASKS}")


def resolve_dataset(spec: str, label_column: str = "label") -> TabularDataset:
    """Dataset from either "bundled:<name>" or a CSV path."""
    if spec.startswith(_BUNDLED_PREFIX):
        return bundled_dataset(spec[len(_BUNDLED_PREFIX):])
    return load_dataset_csv(spec, label_column)
