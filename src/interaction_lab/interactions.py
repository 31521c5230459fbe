"""Pairwise interaction estimates at fixed context size.

The elementary quantity is the second-order difference

    delta_v(i, j, S) = [v(S+{i,j}) - v(S+{j})] - [v(S+{i}) - v(S)]

for a context S containing neither i nor j. Averaging delta_v over all
contexts of one fixed size m gives the order-m interaction of the pair; the
mean magnitude across pairs is the strength of that order, and normalizing
strengths to mean one over the order grid gives a profile that can be
compared between models. A brute-force efficiency identity ties the
full-coalition value back to the independent effects plus a weighted sum of
per-order interactions over ordered pairs, which pins down every sign and
weight convention used here.

delta_v is accumulated as (v_both + v_base) - (v_low + v_high) with the pair
sorted, and Monte Carlo contexts are drawn from a stream keyed by the sorted
pair, so estimates for (i, j) and (j, i) are equal bit for bit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import DimensionError, DomainError, GuardError, SchemaError, ValidationError
from .games import (Baseline, ValueFunction, as_masks, check_player_count, masked_matrix,
                    sample_subset)
from .rng import child_seed, make_rng
from .textio import format_float, read_csv, write_csv

MAX_EXACT_PLAYERS = 20
MAX_EFFICIENCY_PLAYERS = 12

# Stream ids reserved so derived streams can never collide with the per-pair
# context streams, whose first path component is a player index.
_PAIR_STREAM = 0x9E3779B9
_SAMPLE_STREAM = 0x85EBCA6B

PROFILE_HEADER = "m,strength,normalized"


@dataclass(frozen=True)
class InteractionEstimate:
    """One estimated per-order interaction value.

    exact means every admissible context was enumerated, in which case
    samples_used is the full context count and std_error is zero.
    """

    value: float
    std_error: float
    samples_used: int
    exact: bool


@dataclass(frozen=True)
class OrderProfile:
    """Per-order strength of a model, with the budgets that produced it.

    normalized holds strengths divided by their mean over the grid (so it
    averages to one); degenerate is set when that mean is zero or not finite,
    and then normalized is all zeros instead of a 0/0 artifact.
    """

    n: int
    order_grid: tuple[int, ...]
    strengths: tuple[float, ...]
    normalized: tuple[float, ...]
    pair_budget: int
    subset_budget: int
    seed: int
    degenerate: bool


@dataclass(frozen=True)
class EfficiencyReport:
    """Decomposition of v(full) into baseline, independent and interaction parts.

    per_order[m] is the weighted ordered-pair sum w(m) * sum_{i != j} I_m(i, j);
    reconstruction = v_empty + independent_sum + sum(per_order); residual is
    its absolute gap to lhs = v(full), and relative_residual divides that by
    |lhs| + 1 so near-zero games are not penalized.
    """

    n: int
    lhs: float
    v_empty: float
    independent_sum: float
    per_order: tuple[float, ...]
    reconstruction: float
    residual: float
    relative_residual: float


class ValueCache:
    """Memoizes coalition values for one (game, sample) pair, keyed by bitmask.

    Unknown masks are evaluated in one evaluate_many batch, so model-backed
    games see a single stacked forward pass instead of per-subset calls. A
    cache is meant for one thread. Model-backed values depend on which masks
    share a batch, but only at the level of rounding, so a fixed call order
    gives bit-identical values.
    """

    def __init__(self, game: ValueFunction, x=None):
        self.game = game
        self.x = x
        self._known: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._known)

    def values(self, bits) -> np.ndarray:
        keys = np.asarray(bits, dtype=np.uint64).tolist()
        # unknown masks in order of first appearance
        fresh = list(dict.fromkeys(b for b in keys if b not in self._known))
        if fresh:
            out = np.asarray(self.game.evaluate_many(np.array(fresh, dtype=np.uint64),
                                                     x=self.x), dtype=float)
            if out.shape != (len(fresh),):
                raise DimensionError(
                    f"evaluate_many returned shape {out.shape} for {len(fresh)} masks")
            self._known.update(zip(fresh, out.tolist()))
        return np.array([self._known[b] for b in keys], dtype=float)

    def value(self, bits: int) -> float:
        return float(self.values([bits])[0])


def _check_pair(n: int, i: int, j: int) -> tuple[int, int]:
    for k in (i, j):
        if not (0 <= k < n):
            raise DomainError(f"player index {k} outside [0, {n})")
    if i == j:
        raise DomainError(f"interaction needs two distinct players, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


def _check_order(n: int, m: int) -> None:
    if not (0 <= m <= n - 2):
        raise DomainError(f"context size {m} outside [0, {n - 2}] for n={n}")


def _deltas(cache: ValueCache, base_bits: np.ndarray, lo: int, hi: int) -> np.ndarray:
    blo, bhi = np.uint64(1 << lo), np.uint64(1 << hi)
    stacked = np.concatenate([base_bits | blo | bhi, base_bits, base_bits | blo, base_bits | bhi])
    vals = cache.values(stacked).reshape(4, -1)
    return (vals[0] + vals[1]) - (vals[2] + vals[3])


def delta_v(game: ValueFunction, i: int, j: int, S: int,
            x=None, cache: ValueCache | None = None) -> float:
    """Second-order difference of v at the context mask S; S must exclude both players."""
    lo, hi = _check_pair(game.n, i, j)
    context = as_masks([S], game.n)
    if context[0] & np.uint64((1 << lo) | (1 << hi)):
        raise DomainError("context must not contain either player of the pair")
    cache = cache if cache is not None else ValueCache(game, x)
    return float(_deltas(cache, context, lo, hi)[0])


def interaction_order_exact(game: ValueFunction, i: int, j: int, m: int,
                            x=None, cache: ValueCache | None = None) -> InteractionEstimate:
    """Average delta_v over every size-m context; needs n <= MAX_EXACT_PLAYERS."""
    n = game.n
    lo, hi = _check_pair(n, i, j)
    _check_order(n, m)
    if n > MAX_EXACT_PLAYERS:
        raise GuardError(
            f"exact enumeration is limited to n <= {MAX_EXACT_PLAYERS}, got n={n}; "
            "use the Monte Carlo path")
    cache = cache if cache is not None else ValueCache(game, x)
    pool = [k for k in range(n) if k != lo and k != hi]
    base_bits = np.array(
        [sum(1 << k for k in combo) for combo in itertools.combinations(pool, m)],
        dtype=np.uint64)
    deltas = _deltas(cache, base_bits, lo, hi)
    return InteractionEstimate(value=float(deltas.mean()), std_error=0.0,
                               samples_used=len(base_bits), exact=True)


def interaction_order_mc(game: ValueFunction, i: int, j: int, m: int,
                         num_samples: int, seed: int,
                         x=None, cache: ValueCache | None = None) -> InteractionEstimate:
    """Monte Carlo counterpart of interaction_order_exact.

    Contexts are drawn uniformly with replacement from the size-m subsets of
    the remaining players. When the budget equals the context count exactly
    (and n permits enumeration) the estimator enumerates instead, reported
    with exact=True and zero standard error; any other budget keeps drawing
    with replacement so std_error stays an honest dispersion measure even
    past the context count. std_error is the sample standard deviation
    (ddof=1) over sqrt(num_samples); a single draw cannot estimate it and
    reports 0.
    """
    n = game.n
    lo, hi = _check_pair(n, i, j)
    _check_order(n, m)
    if num_samples < 1:
        raise DomainError(f"num_samples must be positive, got {num_samples}")
    total = comb(n - 2, m)
    if n <= MAX_EXACT_PLAYERS and num_samples == total:
        return interaction_order_exact(game, i, j, m, x=x, cache=cache)
    cache = cache if cache is not None else ValueCache(game, x)
    pool = ((1 << n) - 1) & ~((1 << lo) | (1 << hi))
    rng = make_rng(seed, lo, hi, m)
    base_bits = np.array([sample_subset(pool, m, rng) for _ in range(num_samples)],
                         dtype=np.uint64)
    deltas = _deltas(cache, base_bits, lo, hi)
    se = float(np.std(deltas, ddof=1) / np.sqrt(num_samples)) if num_samples > 1 else 0.0
    return InteractionEstimate(value=float(deltas.mean()), std_error=se,
                               samples_used=num_samples, exact=False)


def _capped_budget(n: int, m: int, budget: int) -> int:
    # cap only where enumeration is allowed to take over
    if budget >= 1 and n <= MAX_EXACT_PLAYERS:
        return min(budget, comb(n - 2, m))
    return budget


def _pair_grid(n: int, pair_budget: int, seed: int, m: int) -> list[tuple[int, int]]:
    pairs = list(itertools.combinations(range(n), 2))
    if pair_budget < 1:
        raise DomainError(f"pair_budget must be positive, got {pair_budget}")
    if pair_budget >= len(pairs):
        return pairs
    rng = make_rng(seed, _PAIR_STREAM, m)
    idx = rng.permutation(len(pairs))[:pair_budget]
    return [pairs[int(k)] for k in sorted(idx)]


def order_strength(game: ValueFunction, m: int, pair_budget: int,
                   subset_budget: int, seed: int,
                   x=None, cache: ValueCache | None = None) -> float:
    """Mean |I_m(i, j)| over unordered pairs.

    Pairs are sampled without replacement when pair_budget is below the full
    pair count, and fully covered otherwise. The subset budget is capped at
    the context count, so covered orders are enumerated exactly. Pairs are
    evaluated one after another in fixed pair order, so the cache sees the
    same batches, and the result is the same bits, on every run.
    """
    n = game.n
    _check_order(n, m)
    cache = cache if cache is not None else ValueCache(game, x)
    pairs = _pair_grid(n, pair_budget, seed, m)
    budget = _capped_budget(n, m, subset_budget)

    return float(np.mean([abs(interaction_order_mc(game, i, j, m, budget, seed,
                                                   x=x, cache=cache).value)
                          for i, j in pairs]))


def default_order_grid(n: int) -> tuple[int, ...]:
    """All orders for n <= 20; 21 evenly spaced (de-duplicated) orders beyond."""
    if n < 2:
        raise DomainError(f"need at least two players, got n={n}")
    if n <= 20:
        return tuple(range(n - 1))
    # round half up, matching the fraction-to-size convention used elsewhere
    marks = {int(np.floor(t * (n - 2) / 20 + 0.5)) for t in range(21)}
    return tuple(sorted(marks))


def order_profile(game: ValueFunction, samples: Sequence,
                  order_grid: Sequence[int] | None = None, *,
                  pair_budget: int, subset_budget: int, seed: int) -> OrderProfile:
    """Strength per order, averaged over the given samples, normalized to mean one.

    samples is a non-empty sequence of opaque per-sample inputs handed to the
    game's evaluate_many (closed-form games take [None]; model-backed games take
    (features, target) pairs). Each sample runs under its own derived seed
    and its own value cache. The normalization denominator is the mean over
    the declared grid only.
    """
    n = game.n
    if len(samples) == 0:
        raise ValidationError("need at least one sample to build a profile")
    grid = default_order_grid(n) if order_grid is None else tuple(int(m) for m in order_grid)
    if not grid:
        raise DomainError("order grid must not be empty")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise DomainError("order grid must be strictly increasing")
    for m in grid:
        _check_order(n, m)

    per_sample = np.empty((len(samples), len(grid)))
    for t, sample in enumerate(samples):
        cache = ValueCache(game, sample)
        sample_seed = child_seed(seed, _SAMPLE_STREAM, t)
        for col, m in enumerate(grid):
            per_sample[t, col] = order_strength(game, m, pair_budget, subset_budget,
                                                sample_seed, x=sample, cache=cache)
    strengths = per_sample.mean(axis=0)
    mean = float(strengths.mean())
    if np.isfinite(mean) and mean > 0:
        normalized = tuple((strengths / mean).tolist())
        degenerate = False
    else:
        normalized = tuple(0.0 for _ in grid)
        degenerate = True
    return OrderProfile(n=n, order_grid=grid, strengths=tuple(strengths.tolist()),
                        normalized=normalized, pair_budget=int(pair_budget),
                        subset_budget=int(subset_budget), seed=int(seed),
                        degenerate=degenerate)


def efficiency_weight(n: int, m: int) -> float:
    """Weight of order-m interactions in the efficiency identity (ordered pairs)."""
    _check_order(n, m)
    return (n - 1 - m) / (n * (n - 1))


def efficiency_residual(game: ValueFunction, x=None) -> EfficiencyReport:
    """Check v(full) against its additive-plus-interactions reconstruction.

    Builds the complete value table (hence the n <= MAX_EFFICIENCY_PLAYERS
    guard), forms every exact per-order interaction, and reconstructs

        v(full) = v(empty) + sum_i [v({i}) - v(empty)]
                  + sum_m w(m) * sum over ordered pairs of I_m(i, j)

    with w(m) = (n - 1 - m) / (n (n - 1)).
    """
    n = game.n
    if n > MAX_EFFICIENCY_PLAYERS:
        raise GuardError(
            f"efficiency check is limited to n <= {MAX_EFFICIENCY_PLAYERS}, got n={n}")
    cache = ValueCache(game, x)
    all_bits = np.arange(1 << n, dtype=np.uint64)
    table = cache.values(all_bits)
    popcount = np.array([int(b).bit_count() for b in range(1 << n)], dtype=np.int64)

    lhs = float(table[(1 << n) - 1])
    v_empty = float(table[0])
    independent = float(sum(table[1 << i] - v_empty for i in range(n)))

    weights = np.array([efficiency_weight(n, m) for m in range(n - 1)])
    counts = np.array([comb(n - 2, m) for m in range(n - 1)], dtype=float)
    per_order = np.zeros(n - 1)
    for lo, hi in itertools.combinations(range(n), 2):
        blo, bhi = np.uint64(1 << lo), np.uint64(1 << hi)
        sub = all_bits[(all_bits & (blo | bhi)) == 0]
        deltas = (table[sub | blo | bhi] + table[sub]) - (table[sub | blo] + table[sub | bhi])
        sums = np.bincount(popcount[sub], weights=deltas, minlength=n - 1)
        # ordered pairs: (i, j) and (j, i) contribute the same interaction
        per_order += 2.0 * weights * (sums / counts)

    reconstruction = v_empty + independent + float(per_order.sum())
    residual = abs(lhs - reconstruction)
    return EfficiencyReport(n=n, lhs=lhs, v_empty=v_empty, independent_sum=independent,
                            per_order=tuple(per_order.tolist()),
                            reconstruction=reconstruction, residual=residual,
                            relative_residual=residual / (abs(lhs) + 1.0))


class LogOddsGame(ValueFunction):
    """Masked-input log odds of a target class under a classifier.

    v(S | x) = z_target - logsumexp(z_other), the log odds p/(1-p) of the
    target class, where z is the logit vector the model produces on the
    sample with players outside S replaced by the baseline. A sample is a
    (features, target) pair; a default sample may be fixed at construction.
    The model only needs a forward(X) -> (rows, classes) method.
    """

    def __init__(self, model, baseline: Baseline, sample=None):
        self.model = model
        self.baseline = baseline
        self.n = check_player_count(len(baseline))
        self.sample = self._checked(sample) if sample is not None else None

    def _checked(self, sample) -> tuple[np.ndarray, int]:
        try:
            features, target = sample
        except (TypeError, ValueError):
            raise ValidationError(
                "sample must be a (features, target) pair") from None
        features = np.asarray(features, dtype=float)
        if features.shape != (self.n,):
            raise DimensionError(
                f"sample has shape {features.shape}, baseline length is {self.n}")
        target = int(target)
        if target < 0:
            raise DomainError(f"target class must be non-negative, got {target}")
        return features, target

    def evaluate_many(self, bits, x=None) -> np.ndarray:
        if x is None:
            if self.sample is None:
                raise ValidationError("no sample given and no default sample set")
            features, target = self.sample
        else:
            features, target = self._checked(x)
        rows = masked_matrix(features, bits, self.baseline)
        logits = np.asarray(self.model.forward(rows), dtype=float)
        if logits.ndim != 2 or logits.shape[0] != len(rows):
            raise DimensionError(f"model returned logits of shape {logits.shape}")
        if logits.shape[1] < 2:
            raise DomainError("log odds need at least two classes")
        if target >= logits.shape[1]:
            raise DomainError(f"target class {target} outside [0, {logits.shape[1]})")
        z_target = logits[:, target]
        others = np.delete(logits, target, axis=1)
        return z_target - logsumexp(others, axis=1)


def write_profile_csv(path, profile: OrderProfile, meta=None) -> None:
    """Rows are m,strength,normalized with m ascending and 17-digit floats.

    The profile's own n, budgets and seed are embedded in the leading comment
    line alongside any caller-provided metadata (caller keys win).
    """
    merged = {"n": profile.n, "pair_budget": profile.pair_budget,
              "subset_budget": profile.subset_budget, "seed": profile.seed}
    merged.update(dict(meta) if meta else {})
    rows = [(str(m), format_float(s), format_float(z))
            for m, s, z in zip(profile.order_grid, profile.strengths, profile.normalized)]
    write_csv(path, PROFILE_HEADER, rows, merged)


def read_profile_csv(path) -> tuple[OrderProfile, dict[str, str]]:
    """Inverse of write_profile_csv; returns the profile and the metadata line."""
    raw, meta = read_csv(path, PROFILE_HEADER)
    try:
        grid = tuple(int(r[0]) for r in raw)
        strengths = tuple(float(r[1]) for r in raw)
        normalized = tuple(float(r[2]) for r in raw)
    except ValueError as exc:
        raise SchemaError(f"non-numeric profile row: {exc}") from None
    if not grid:
        raise SchemaError("profile file contains no rows")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise SchemaError("profile rows must have strictly increasing m")
    try:
        n = int(meta["n"])
        pair_budget = int(meta["pair_budget"])
        subset_budget = int(meta["subset_budget"])
        seed = int(meta["seed"])
    except (KeyError, ValueError):
        raise SchemaError(
            "profile metadata must carry integer n, pair_budget, subset_budget, seed") from None
    mean = float(np.mean(strengths))
    degenerate = not (np.isfinite(mean) and mean > 0)
    return OrderProfile(n=n, order_grid=grid, strengths=strengths, normalized=normalized,
                        pair_budget=pair_budget, subset_budget=subset_budget, seed=seed,
                        degenerate=degenerate), meta
