"""Mini-batch SGD trainer with banded-loss terms and profile snapshots.

Everything downstream of (config, dataset) is a pure function of the config
seed: the train/validation split, parameter init, per-epoch shuffles, and the
subset pairs drawn inside each loss term all run on derived streams. Features
are standardized with training-split statistics before any optimization, and
the scaling is recorded on the returned model so later evaluation and attacks
can reproduce the exact input space. The masking baseline is the zero vector
of that space, i.e. the per-feature training mean.

Per-epoch metrics are plain cross-entropy and accuracy, measured after the
epoch's updates on the full train and validation splits; the modulation terms
never enter the logged numbers, which keeps runs with different objectives
comparable. Snapshots profile the current model on a small fixed probe of
validation samples with every pair and every context enumerated exactly;
models of more than MAX_TABLE_PLAYERS features take none and build no probe.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .datasets import TabularDataset, apply_standardization, split_dataset, standardize
from .errors import DomainError, NumericError, ValidationError, require
from .games import Baseline
from .interactions import (MAX_TABLE_PLAYERS, LogOddsGame, OrderProfile, order_profile,
                           write_profile_csv)
from .mlp import MLP, accuracy, cross_entropy
from .modulation import ModulationSpec, band_sizes, combined_value_and_grad
from .rng import child_seed, make_rng
from .textio import format_float, write_csv

TRAIN_LOG_HEADER = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc")
PROBE_ROWS = 16

_SPLIT_STREAM = 0x165667B1
_INIT_STREAM = 0x27D4EB2F
_SHUFFLE_STREAM = 0x9E3779B1
_STEP_STREAM = 0x85EBCA77
_PROFILE_STREAM = 0xC2B2AE3D

VARIANT_TERMS: dict[str, tuple[ModulationSpec, ...]] = {
    "normal": (),
    "low": (ModulationSpec("suppress", 0.7, 1.0, 1.0),),
    "mid": (ModulationSpec("encourage", 0.3, 0.7, 1.0),),
    "high": (ModulationSpec("suppress", 0.0, 0.5, 1.0),),
}


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the data itself.

    val_fraction is the share of rows held out for validation; the rest
    trains. Every loss term draws its pairs from the step's derived stream.
    """

    epochs: int
    batch_size: int
    learning_rate: float
    seed: int
    hidden_sizes: tuple[int, ...] = (48, 48)
    terms: tuple[ModulationSpec, ...] = ()
    snapshot_every: int = 0
    val_fraction: float = 0.25

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed", "snapshot_every"):
            require(name, getattr(self, name), Integral)
        for name in ("learning_rate", "val_fraction"):
            require(name, getattr(self, name), Real)
        if not isinstance(self.hidden_sizes, (list, tuple)):
            raise ValidationError(f"hidden_sizes must be a list, got {self.hidden_sizes!r}")
        for size in self.hidden_sizes:
            require("hidden_sizes", size, Integral)
        object.__setattr__(self, "hidden_sizes", tuple(int(s) for s in self.hidden_sizes))
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if self.snapshot_every < 0:
            raise ValidationError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if any(s < 1 for s in self.hidden_sizes):
            raise ValidationError(f"hidden sizes must be positive, got {self.hidden_sizes}")
        for term in self.terms:
            if not isinstance(term, ModulationSpec):
                raise ValidationError(f"terms must be ModulationSpec, got {type(term)!r}")
        if not 0 < self.val_fraction < 1:
            raise ValidationError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainLog:
    epochs: tuple[EpochStats, ...]
    snapshots: dict[int, OrderProfile] = field(default_factory=dict)


def _epoch_metrics(model: MLP, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    logits = model.forward(X)
    return cross_entropy(logits, y), accuracy(logits, y)


def train(config: TrainConfig, dataset: TabularDataset) -> tuple[MLP, TrainLog]:
    """Run SGD per the config; returns the model plus the per-epoch log.

    The model's meta records the feature scaling, the label mapping, and the
    architecture seed, which is everything needed to evaluate it on raw data
    later. Raises on divergence instead of returning NaN parameters.
    """
    if dataset.num_classes < 2:
        raise DomainError("training needs at least two classes")
    if dataset.num_features < 2:
        raise DomainError("training needs at least two features")
    n = dataset.num_features
    for term in config.terms:
        if term.r1 > 0 and band_sizes(n, term.r1, term.r2)[0] == 0:
            raise ValidationError(
                f"term band [{term.r1}, {term.r2}] rounds to s1=0 at n={n}, where s2/s1 "
                "is undefined; r1=0 selects the E[v(S2)] - v(empty) convention")
    train_raw, val_raw = split_dataset(dataset, config.val_fraction,
                                       child_seed(config.seed, _SPLIT_STREAM))
    train_ds, mean, std = standardize(train_raw)
    val_ds = apply_standardization(val_raw, mean, std)
    X_train, y_train = train_ds.features, train_ds.labels
    X_val, y_val = val_ds.features, val_ds.labels
    baseline = Baseline.zeros(n)

    sizes = [n, *config.hidden_sizes, dataset.num_classes]
    model = MLP(sizes, seed=child_seed(config.seed, _INIT_STREAM))
    model.meta = {
        "feature_mean": [float(v) for v in mean],
        "feature_std": [float(v) for v in std],
        "feature_names": list(dataset.feature_names),
        "label_name": dataset.label_name,
        "label_values": list(dataset.label_values),
        "train_seed": config.seed,
    }

    # built once, and only when snapshots are taken: each game reads the model,
    # whose weights the steps update in place
    snap_orders = config.snapshot_every > 0 and n <= MAX_TABLE_PLAYERS
    probe = [LogOddsGame(model, baseline, X_val[t], y_val[t])
             for t in range(min(PROBE_ROWS, len(X_val)))] if snap_orders else []

    stats = []
    snapshots: dict[int, OrderProfile] = {}
    for epoch in range(1, config.epochs + 1):
        order = make_rng(child_seed(config.seed, _SHUFFLE_STREAM, epoch)).permutation(len(X_train))
        for step, start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[start:start + config.batch_size]
            # a run with no terms samples nothing, so it derives no step seed
            step_seed = (child_seed(config.seed, _STEP_STREAM, epoch, step)
                         if config.terms else 0)
            loss, grads = combined_value_and_grad(
                model, X_train[batch], y_train[batch], config.terms, step_seed, baseline)
            if not np.isfinite(loss):
                raise NumericError(
                    f"training diverged at epoch {epoch} step {step}: loss={loss}")
            for w, gw in zip(model.weights, grads.weights):
                w -= config.learning_rate * gw
            for b, gb in zip(model.biases, grads.biases):
                b -= config.learning_rate * gb
        train_loss, train_acc = _epoch_metrics(model, X_train, y_train)
        val_loss, val_acc = _epoch_metrics(model, X_val, y_val)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise NumericError(f"training diverged at epoch {epoch}: "
                               f"loss train={train_loss} val={val_loss}")
        stats.append(EpochStats(epoch, train_loss, train_acc, val_loss, val_acc))
        if snap_orders and (epoch % config.snapshot_every == 0 or epoch == config.epochs):
            # full budgets sample at least 2^n masks, so the profile is exact
            snapshots[epoch] = order_profile(
                probe, pair_budget=n * (n - 1) // 2,
                subset_budget=comb(n - 2, (n - 2) // 2),
                seed=child_seed(config.seed, _PROFILE_STREAM, epoch))
    return model, TrainLog(tuple(stats), snapshots)


def write_train_log(path, log: TrainLog, meta=None) -> None:
    rows = [[str(s.epoch), format_float(s.train_loss), format_float(s.train_acc),
             format_float(s.val_loss), format_float(s.val_acc)] for s in log.epochs]
    write_csv(path, TRAIN_LOG_HEADER, rows, meta)


def write_snapshots(out_dir, log: TrainLog, meta=None) -> list[str]:
    """One profile CSV per snapshot, named by epoch; returns the file names."""
    names = []
    for epoch in sorted(log.snapshots):
        name = f"profile_epoch_{epoch}.csv"
        extra = dict(meta or {})
        extra["epoch"] = epoch
        write_profile_csv(Path(out_dir) / name, log.snapshots[epoch], extra)
        names.append(name)
    return names
