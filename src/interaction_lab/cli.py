"""Command-line entry point: file-in/file-out runs of the library workflows.

Five subcommands: verify (self-check suites with hard thresholds), analyze
(interaction profile of a saved model on a dataset), theory (reference curve
and optional profile fit), train (SGD with optional banded loss terms), and
attack (PGD robustness evaluation). Every output file embeds a sha256 over
the fully resolved configuration plus the seed, and identical invocations
produce byte-identical files. Each command runs on one thread: the library
starts no worker threads, and numpy's bundled OpenBLAS is held to one thread
for the duration of the command.

Errors leave on stderr as one machine-parsable line, `error: <kind>: <text>`,
with the exit code encoding the kind: 1 for validation/schema problems, for
files that cannot be read, decoded as UTF-8 or written, and for sizes whose
arrays cannot be allocated or indexed, 2 for verification failures, 3 for
numeric failures. Every text file is read and written as UTF-8 whatever the locale.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import json
import sys
from numbers import Real
from pathlib import Path
from typing import Iterator

import numpy as np

from .attack import AttackConfig, adversarial_accuracy
from .datasets import apply_standardization, resolve_dataset
from .errors import NumericError, SchemaError, ValidationError, VerificationError, require
from .games import Baseline, SyntheticGame, compute_baseline, synthetic_game
from .interactions import (MAX_TABLE_PLAYERS, LogOddsGame, efficiency_residual,
                           order_profile, read_profile_csv, write_profile_csv)
from .mlp import MLP, accuracy, load_model, save_model
from .modulation import ModulationSpec, verify_theorem2
from .rng import child_seed
from .textio import read_json_object
from .theory import (GradSimConfig, fit_effective_n, learning_strength_hat,
                     predicted_update_norm, simulate_curve, theory_curve, write_theory_csv)
from .training import (TrainConfig, VARIANT_TERMS, train, write_snapshots,
                       write_train_log)

_EFFICIENCY_THRESHOLD = 1e-9
_THEOREM2_THRESHOLD = 1e-8
_GRADSIM_TOLERANCE = 0.03

_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)} | {"variant", "label_column"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # normal validation path instead so exit codes keep their meaning
    def error(self, message):
        raise ValidationError(message)


def _config_hash(resolved: dict) -> str:
    # a train stamp holds its terms, which enter under their JSON keys
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"),
                       default=ModulationSpec.to_json_dict)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _file_sha256(path) -> str:
    # input artifacts enter the run stamp by content, not by path, so the
    # stamp of a run does not depend on which directory its inputs sat in
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _report(result: dict, out) -> None:
    """Print the result as one JSON line, and write the same line to out when given."""
    line = json.dumps(result, sort_keys=True) + "\n"
    sys.stdout.write(line)
    if out:
        Path(out).write_text(line, encoding="utf-8", newline="")


def _seed(text: str) -> int:
    # checked at parse time, so every command rejects a negative seed alike
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _out_path(text: str) -> str:
    # checked at parse time, so a bad path fails before any work is done
    if Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    if not Path(text).parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory of {text} does not exist")
    return text


def _out_dir(text: str) -> str:
    # checked at parse time, so train fails before it trains: creating the
    # directory needs its nearest existing ancestor (or itself) to be one
    path = Path(text)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{existing} exists and is not a directory")
    return text


# ---------------------------------------------------------------- verify

def _suite_efficiency(seed: int) -> list[str]:
    worst = 0.0
    games = 0
    for g in range(25):
        n = 4 + g % 7
        spec = SyntheticGame.random_polynomial(n, degree=n, num_terms=2 * n + 5,
                                               seed=child_seed(seed, 0, g))
        report = efficiency_residual(synthetic_game(spec))
        worst = max(worst, report.relative_residual)
        games += 1
    ok = worst < _EFFICIENCY_THRESHOLD
    line = (f"efficiency games={games} max_relative_residual={worst:.3e} "
            f"threshold={_EFFICIENCY_THRESHOLD:g} status={'ok' if ok else 'FAIL'}")
    print(line)
    return [] if ok else [line]


def _suite_theorem2(seed: int) -> list[str]:
    failures = []
    for t, (n, r1, r2) in enumerate([(6, 1 / 3, 5 / 6), (8, 0.25, 0.75), (10, 0.2, 0.5)]):
        residual = verify_theorem2(n, r1, r2, num_games=8, seed=child_seed(seed, 1, t))
        ok = residual < _THEOREM2_THRESHOLD
        line = (f"theorem2 n={n} r1={r1:g} r2={r2:g} max_residual={residual:.3e} "
                f"threshold={_THEOREM2_THRESHOLD:g} status={'ok' if ok else 'FAIL'}")
        print(line)
        if not ok:
            failures.append(line)
    return failures


def _suite_gradsim(seed: int) -> list[str]:
    # the ratios check the curve's shape, the norms its absolute scale
    cfg = GradSimConfig(n=12, k=300, sigma=1.0, trials=100, seed=seed)
    simulated = simulate_curve(cfg)
    worst = worst_norm = 0.0
    for m in range(cfg.n - 1):
        predicted = learning_strength_hat(cfg.n, m)
        ratio = simulated[m] / simulated[0]
        worst = max(worst, abs(ratio - predicted) / predicted)
        norm = predicted_update_norm(cfg.n, m, cfg.k, cfg.sigma)
        worst_norm = max(worst_norm, abs(simulated[m] - norm) / norm)
    ok = max(worst, worst_norm) < _GRADSIM_TOLERANCE
    line = (f"gradsim n={cfg.n} k={cfg.k} trials={cfg.trials} "
            f"max_ratio_deviation={worst:.3e} max_norm_deviation={worst_norm:.3e} "
            f"tolerance={_GRADSIM_TOLERANCE:g} status={'ok' if ok else 'FAIL'}")
    print(line)
    return [] if ok else [line]


def _cmd_verify(args) -> int:
    suites = {"efficiency": _suite_efficiency, "theorem2": _suite_theorem2,
              "gradsim": _suite_gradsim}
    names = list(suites) if args.suite == "all" else [args.suite]
    failures = []
    for name in names:
        failures.extend(suites[name](args.seed))
    if failures:
        raise VerificationError(f"{len(failures)} check(s) failed: {failures[0]}")
    return 0


# ---------------------------------------------------------------- analyze

def _parse_orders(text: str, n: int) -> tuple[int, ...] | None:
    if text == "auto":
        return None
    try:
        grid = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"--orders must be 'auto' or comma-separated integers, "
                              f"got {text!r}") from None
    return grid


def _meta_vector(meta: dict, key: str) -> np.ndarray:
    """The model meta's list under key, checked to hold finite numbers only."""
    values = meta[key]
    if not isinstance(values, list):
        raise SchemaError(f"model meta {key!r} must be a list, got {values!r}")
    for value in values:
        require(f"model meta {key!r} entry", value, Real)
    return np.array(values, dtype=float)


def _model_input_space(model: MLP, dataset):
    """Features in the space the model was trained in, plus its baseline."""
    meta = model.meta or {}
    names = meta.get("feature_names")
    if names is not None and not isinstance(names, list):
        raise SchemaError(f"model meta 'feature_names' must be a list, got {names!r}")
    if names is not None and list(dataset.feature_names) != names:
        raise ValidationError(
            f"dataset columns {list(dataset.feature_names)} do not match the "
            f"model's training columns {names}")
    if model.num_features != dataset.num_features:
        raise ValidationError(
            f"model expects {model.num_features} features, dataset has "
            f"{dataset.num_features}")
    if "feature_mean" in meta and "feature_std" in meta:
        # apply_standardization checks both lengths and that every scale is positive
        scaled = apply_standardization(dataset, _meta_vector(meta, "feature_mean"),
                                       _meta_vector(meta, "feature_std"))
        return scaled.features, Baseline.zeros(dataset.num_features)
    # unscaled model: mask toward the column means of this dataset
    return dataset.features, compute_baseline(dataset.features)


def _cmd_analyze(args) -> int:
    for flag, value in (("--pairs", args.pairs), ("--rows", args.rows)):
        if value < 0:
            raise ValidationError(f"{flag} must be >= 0 (0 means all), got {value}")
    model = load_model(args.model)
    dataset = resolve_dataset(args.data, args.label_column)
    features, baseline = _model_input_space(model, dataset)
    n = dataset.num_features
    grid = _parse_orders(args.orders, n)
    pair_budget = args.pairs if args.pairs > 0 else n * (n - 1) // 2
    rows = min(args.rows, dataset.num_rows) if args.rows > 0 else dataset.num_rows
    games = [LogOddsGame(model, baseline, features[t], dataset.labels[t]) for t in range(rows)]
    profile = order_profile(games, grid, pair_budget=pair_budget,
                            subset_budget=args.samples, seed=args.seed)
    # the budgets the profile used: on the value-table path they are the
    # enumeration amounts, whatever --pairs and --samples asked for
    resolved = {"command": "analyze", "model_sha256": _file_sha256(args.model),
                "data": str(args.data),
                "label_column": args.label_column, "orders": args.orders,
                "pairs": profile.pair_budget, "samples": profile.subset_budget,
                "rows": rows, "seed": args.seed}
    write_profile_csv(args.out, profile,
                      {"config_sha256": _config_hash(resolved), "seed": args.seed})
    if profile.degenerate:
        print("warning: profile is degenerate (every order strength is zero)",
              file=sys.stderr)
    print(f"wrote {args.out} rows={rows} orders={len(profile.order_grid)} "
          f"degenerate={profile.degenerate}")
    return 0


# ---------------------------------------------------------------- theory

def _cmd_theory(args) -> int:
    if args.fit_out and not args.fit:
        raise ValidationError("--fit-out needs --fit")
    curve = theory_curve(args.n)
    resolved = {"command": "theory", "n": args.n,
                "fit_sha256": args.fit and _file_sha256(args.fit),
                "seed": args.seed}
    digest = _config_hash(resolved)
    # fit before writing anything, so a profile that cannot be fit leaves no curve file
    fit = fit_effective_n(read_profile_csv(args.fit)[0]) if args.fit else None
    write_theory_csv(args.out, curve, {"config_sha256": digest, "seed": args.seed})
    print(f"wrote {args.out} n={args.n}")
    if fit:
        result = {"n_prime": fit.n_prime, "mismatch": fit.mismatch,
                  "config_sha256": digest, "seed": args.seed}
        _report(result, args.fit_out)
    return 0


# ---------------------------------------------------------------- train

def _load_train_config(path, seed_override: int | None) -> tuple[TrainConfig, str, dict]:
    raw = read_json_object(path, "config")
    unknown = sorted(set(raw) - _TRAIN_KEYS)
    if unknown:
        raise SchemaError(f"config {path} has unknown keys {unknown}; "
                          f"allowed keys are {sorted(_TRAIN_KEYS)}")
    if "terms" in raw and "variant" in raw:
        raise SchemaError("config keys 'terms' and 'variant' are mutually exclusive")

    label_column = raw.pop("label_column", "label")
    variant = raw.pop("variant", None)
    if variant is not None:
        if not isinstance(variant, str) or variant not in VARIANT_TERMS:
            raise SchemaError(f"unknown variant {variant!r}; "
                              f"choose from {sorted(VARIANT_TERMS)}")
        terms = VARIANT_TERMS[variant]
    else:
        entries = raw.pop("terms", [])
        if not isinstance(entries, list):
            raise SchemaError("config key 'terms' must be a list")
        terms = tuple(ModulationSpec.from_json_dict(entry) for entry in entries)
    if seed_override is not None:
        raw["seed"] = seed_override
    try:
        config = TrainConfig(terms=terms, **raw)
    except TypeError as exc:
        raise SchemaError(f"config {path}: {exc}") from exc
    resolved = {"command": "train", "label_column": label_column, "variant": variant,
                **{f.name: getattr(config, f.name) for f in dataclasses.fields(config)}}
    return config, label_column, resolved


def _cmd_train(args) -> int:
    config, label_column, resolved = _load_train_config(args.config, args.seed)
    resolved["data"] = str(args.data)
    dataset = resolve_dataset(args.data, label_column)
    model, log = train(config, dataset)
    if config.snapshot_every > 0 and not log.snapshots:
        print(f"warning: snapshots need n <= {MAX_TABLE_PLAYERS}, got n="
              f"{dataset.num_features}; none were taken", file=sys.stderr)
    digest = _config_hash(resolved)
    stamp = {"config_sha256": digest, "seed": config.seed}

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(out_dir / "model.json", model, stamp)
    write_train_log(out_dir / "train_log.csv", log, stamp)
    names = write_snapshots(out_dir, log, stamp)
    last = log.epochs[-1]
    print(f"wrote {out_dir}/model.json train_log.csv and {len(names)} snapshot(s); "
          f"epoch {last.epoch}: train_loss={last.train_loss:.4f} "
          f"train_acc={last.train_acc:.3f} val_loss={last.val_loss:.4f} "
          f"val_acc={last.val_acc:.3f}")
    return 0


# ---------------------------------------------------------------- attack

def _cmd_attack(args) -> int:
    model = load_model(args.model)
    dataset = resolve_dataset(args.data, args.label_column)
    features, _ = _model_input_space(model, dataset)
    cfg = AttackConfig(epsilon=args.eps, steps=args.steps, step_size=args.step_size)
    clean = 100.0 * accuracy(model.forward(features), dataset.labels)
    adv = adversarial_accuracy(model, features, dataset.labels, cfg)
    resolved = {"command": "attack", "model_sha256": _file_sha256(args.model),
                "data": str(args.data),
                "label_column": args.label_column, "eps": args.eps,
                "steps": args.steps, "step_size": args.step_size, "seed": args.seed}
    result = {"adversarial_accuracy": adv, "clean_accuracy": clean,
              "rows": dataset.num_rows, "epsilon": args.eps, "steps": args.steps,
              "step_size": args.step_size,
              "config_sha256": _config_hash(resolved), "seed": args.seed}
    _report(result, args.out)
    return 0


# ---------------------------------------------------------------- wiring

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="interaction-lab",
                     description="Game-theoretic interaction analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run self-check suites against hard thresholds")
    p.add_argument("--suite", choices=["efficiency", "theorem2", "gradsim", "all"],
                   default="all")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="interaction profile of a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True,
                   help="CSV path or bundled:<name>")
    p.add_argument("--label-column", default="label")
    p.add_argument("--orders", default="auto",
                   help="'auto' or comma-separated context sizes")
    p.add_argument("--pairs", type=int, default=0,
                   help="pairs sampled per order; 0 means every pair. Up to 20 features, "
                        "when the budgets would evaluate at least 2^n masks, the profile "
                        "reads value tables and enumerates every pair and context")
    p.add_argument("--samples", type=int, default=128,
                   help="contexts sampled per pair and order, capped at the context "
                        "count; see --pairs for when every context is enumerated")
    p.add_argument("--rows", type=int, default=16,
                   help="dataset rows profiled; 0 means every row")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, type=_out_path)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("theory", help="reference curve, optionally fit to a profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fit", default=None,
                   help="profile CSV to fit an effective player count to")
    p.add_argument("--fit-out", default=None, type=_out_path,
                   help="also write the fit result JSON here")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, type=_out_path)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("train", help="train a model per a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True,
                   help="CSV path or bundled:<name>")
    p.add_argument("--seed", type=_seed, default=None,
                   help="override the seed in the config file")
    p.add_argument("--out-dir", required=True, type=_out_dir)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("attack", help="PGD robustness of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True,
                   help="CSV path or bundled:<name>")
    p.add_argument("--label-column", default="label")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--step-size", type=float, default=0.01)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, type=_out_path)
    p.set_defaults(func=_cmd_attack)
    return parser


def _openblas():
    """Getter and setter of numpy's bundled OpenBLAS thread count, or None when absent."""
    try:
        from numpy._core import _multiarray_umath
        # dlsym on the extension's handle also searches the libraries it links
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with one OpenBLAS thread, then restore the previous count.

    The matmuls here are small, and a second BLAS thread spins on them
    without shortening them; results are the same at any BLAS thread count.
    Does nothing when numpy's bundled OpenBLAS is not found.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def keep_freed_memory() -> None:
    """Have glibc's malloc keep freed blocks in the heap; acts once per process.

    By default a block above the mmap threshold (128 KiB, raised by frees of
    larger mapped blocks) is mapped for each allocation and unmapped when
    freed, and a free heap top above twice that threshold goes back to the
    system. The row-sized temporaries of every attack step and training
    epoch then page-fault again on each use. Fixed thresholds of 32 MiB
    (mmap) and 64 MiB (trim) keep those pages; results do not depend on
    them. Does nothing when the C library is not glibc.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        keep_freed_memory()
        # numpy's warnings would add stderr lines; finite checks raise NumericError
        with one_blas_thread(), np.errstate(all="ignore"):
            return args.func(args)
    except (ValidationError, OSError, MemoryError) as exc:
        # a file that cannot be written is bad input like any other, and so is
        # a size in a config (hidden units, pair draws) too large for numpy to
        # allocate its arrays: the allocation fails before it uses any memory
        print(f"error: validation: {_one_line(exc)}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"error: verification: {_one_line(exc)}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: numeric: {_one_line(exc)}", file=sys.stderr)
        return 3


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
