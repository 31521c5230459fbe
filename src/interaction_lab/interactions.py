"""Pairwise interaction estimates at fixed context size.

Each game is v(S) of one input, and a profile takes one game per input. The
elementary quantity is the second-order difference

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

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionError, DomainError, GuardError, SchemaError, ValidationError
from .games import (Baseline, ValueFunction, check_player_count, masked_matrix,
                    sample_subsets)
from .rng import child_seed, make_rng
from .textio import format_float, read_csv, write_csv

MAX_TABLE_PLAYERS = 20  # bounds every exact path: value tables and pair enumeration
EVAL_CHUNK = 256  # masks per evaluate_many call of evaluate, whatever asks for them
# masks per evaluate call of _pair_deltas, unless one pair needs more
_GROUP_MASKS = 65536
# pair-contexts up to which pair_order_table reduces every pair in one gather (n <= 10)
_GATHER_CONTEXTS = 1 << 14

# Stream ids reserved so derived streams can never collide with the per-pair
# context streams, whose first path component is a player index.
_PAIR_STREAM = 0x9E3779B9
_SAMPLE_STREAM = 0x85EBCA6B

PROFILE_HEADER = ("m", "strength", "normalized")


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


def evaluate(game: ValueFunction, bits) -> np.ndarray:
    """v(S) for each mask of bits, in order, EVAL_CHUNK masks per evaluate_many call.

    The library's one caller of evaluate_many. The chunks are consecutive
    slices of bits, so every value comes from the same batch on every run,
    and each chunk's matmuls stay small whatever the number of masks; each
    chunk must come back as one value per mask.
    """
    out = np.empty(len(bits))
    for start in range(0, len(bits), EVAL_CHUNK):
        chunk = bits[start:start + EVAL_CHUNK]
        values = np.asarray(game.evaluate_many(chunk), dtype=float)
        if values.shape != (len(chunk),):
            raise DimensionError(
                f"evaluate_many returned shape {values.shape} for {len(chunk)} masks")
        out[start:start + len(chunk)] = values
    return out


def _check_table_size(n: int) -> None:
    if n > MAX_TABLE_PLAYERS:
        raise GuardError(f"exact work is limited to n <= {MAX_TABLE_PLAYERS}, got n={n}")


def value_table(game: ValueFunction) -> np.ndarray:
    """v(S) for every mask S, indexed by the mask; needs n <= MAX_TABLE_PLAYERS.

    The masks go through evaluate in ascending order. The GuardError raised
    here is the size guard of every exact quantity: table-backed profiles,
    efficiency_residual, verify_theorem2 and interaction_order_exact, whose
    4 C(n - 2, m) coalitions never outnumber the table's 2^n.
    """
    _check_table_size(game.n)
    return evaluate(game, np.arange(1 << game.n, dtype=np.uint64))


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


def _corners(base_bits: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Each context with both players, with neither, with lo only, with hi only, stacked."""
    blo, bhi = np.uint64(1 << lo), np.uint64(1 << hi)
    return np.concatenate([base_bits | blo | bhi, base_bits, base_bits | blo, base_bits | bhi])


def _deltas(corner_values: np.ndarray, pairs: int = 1) -> np.ndarray:
    """delta_v per context, one row per pair, from the pairs' _corners stacks in a row."""
    vals = corner_values.reshape(pairs, 4, -1)
    return (vals[:, 0] + vals[:, 1]) - (vals[:, 2] + vals[:, 3])


@functools.lru_cache(maxsize=None)
def _popcounts(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Popcount of each mask 0 .. 2^k - 1 in ascending order, and C(k, m) per m = 0..k."""
    order = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        order = np.concatenate([order, order + 1])
    counts = np.array([comb(k, m) for m in range(k + 1)], dtype=float)
    order.setflags(write=False)
    counts.setflags(write=False)
    return order, counts


def size_means(values: np.ndarray, k: int) -> np.ndarray:
    """Mean of values[mask] over the masks of each size 0..k; values holds all 2^k masks."""
    order, counts = _popcounts(k)
    return np.bincount(order, weights=values, minlength=k + 1) / counts


@functools.lru_cache(maxsize=None)
def _pair_corners(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Table indices of every pair's four corners, and each context's pair-major bin.

    Row 0 holds each context with both players, row 1 with neither, row 2
    with the lower player only, row 3 with the higher only; pairs run in
    combinations order and each pair's contexts in ascending mask order. The
    bin of a context is pair * (n - 1) + its size.
    """
    masks = np.arange(1 << n)
    sizes = _popcounts(n)[0]
    corners, bins = [], []
    for p, (lo, hi) in enumerate(itertools.combinations(range(n), 2)):
        blo, bhi = 1 << lo, 1 << hi
        none = masks[(masks & (blo | bhi)) == 0]
        corners.append([none | blo | bhi, none, none | blo, none | bhi])
        bins.append(p * (n - 1) + sizes[none])
    corners, bins = np.concatenate(corners, axis=1), np.concatenate(bins)
    corners.setflags(write=False)
    bins.setflags(write=False)
    return corners, bins


def pair_order_table(table: np.ndarray, n: int) -> np.ndarray:
    """Exact I_m(i, j) for m = 0..n-2, one row per pair i < j in combinations order.

    Each pair's delta_v is (v_both + v_none) - (v_low + v_high) over its
    contexts in ascending mask order, and a bincount by context size sums
    them in that order before dividing by C(n - 2, m). Up to
    _GATHER_CONTEXTS pair-contexts (n <= 10), one gather of the cached
    _pair_corners and one bincount over pair-major bins reduce every pair
    at once. Larger tables copy the table once per player i into the halves
    without and with i; for every j > i the four corners are then views of
    those halves in contiguous runs of 2^(j-1) values. Both paths do the
    same additions in the same order, so they agree bit for bit.
    """
    pairs = n * (n - 1) // 2
    if pairs << (n - 2) <= _GATHER_CONTEXTS:
        corners, bins = _pair_corners(n)
        v = table[corners]
        deltas = (v[0] + v[1]) - (v[2] + v[3])
        sums = np.bincount(bins, weights=deltas, minlength=pairs * (n - 1))
        return sums.reshape(pairs, n - 1) / _popcounts(n - 2)[1]
    rows = []
    for lo in range(n - 1):
        halves = table.reshape(-1, 2, 1 << lo).transpose(1, 0, 2).copy()
        for hi in range(lo + 1, n):
            v = halves.reshape(2, 1 << (n - 1 - hi), 2, 1 << (hi - 1))
            deltas = (v[1, :, 1] + v[0, :, 0]) - (v[1, :, 0] + v[0, :, 1])
            rows.append(size_means(deltas.ravel(), n - 2))
    return np.array(rows)


def enumerated_contexts(n: int, i: int, j: int, m: int) -> np.ndarray:
    """Every size-m context of the pair as uint64 masks, in itertools.combinations order."""
    lo, hi = _check_pair(n, i, j)
    bits = [1 << k for k in range(n) if k != lo and k != hi]
    return np.fromiter(map(sum, itertools.combinations(bits, m)), dtype=np.uint64,
                       count=comb(n - 2, m))


def _contexts(n: int, lo: int, hi: int, m: int, num_samples: int, seed: int) -> np.ndarray:
    """num_samples uniform size-m contexts of the pair, from the pair's own stream."""
    pool = ((1 << n) - 1) & ~((1 << lo) | (1 << hi))
    return sample_subsets(pool, (m,), num_samples, make_rng(seed, lo, hi, m))[0]


def _enumerates(n: int, m: int, budget: int) -> bool:
    """Whether a budget of size-m contexts is met by enumerating every one of them."""
    return n <= MAX_TABLE_PLAYERS and budget == comb(n - 2, m)


def _pair_deltas(game: ValueFunction, m: int, pairs: Sequence[tuple[int, int]],
                 budget: int, seed: int) -> Iterator[np.ndarray]:
    """Yield delta_v of the sorted pairs over budget size-m contexts each, in blocks.

    A pair's contexts are all of them when _enumerates(n, m, budget), else
    budget uniform draws from the pair's own stream. Each evaluate call takes
    the corners of as many pairs as fit in _GROUP_MASKS masks, at least one,
    and yields their (pairs, budget) block.
    """
    n = game.n
    enumerate_all = _enumerates(n, m, budget)
    group = max(1, _GROUP_MASKS // (4 * budget))
    for start in range(0, len(pairs), group):
        chunk = pairs[start:start + group]
        corners = np.concatenate([
            _corners(enumerated_contexts(n, lo, hi, m) if enumerate_all
                     else _contexts(n, lo, hi, m, budget, seed), lo, hi)
            for lo, hi in chunk])
        yield _deltas(evaluate(game, corners), len(chunk))


def interaction_order_exact(game: ValueFunction, i: int, j: int, m: int) -> InteractionEstimate:
    """Average delta_v over every size-m context; needs n <= MAX_TABLE_PLAYERS.

    The 4 C(n-2, m) coalitions go through evaluate as one block of _pair_deltas.
    """
    n = game.n
    pair = _check_pair(n, i, j)
    _check_order(n, m)
    _check_table_size(n)
    deltas = next(_pair_deltas(game, m, [pair], comb(n - 2, m), 0))[0]
    return InteractionEstimate(value=float(deltas.mean()), std_error=0.0,
                               samples_used=len(deltas), exact=True)


def interaction_order_mc(game: ValueFunction, i: int, j: int, m: int,
                         num_samples: int, seed: int) -> InteractionEstimate:
    """Monte Carlo counterpart of interaction_order_exact.

    Contexts are drawn uniformly with replacement from the size-m subsets of
    the remaining players. When the budget equals the context count and
    n <= MAX_TABLE_PLAYERS, the estimator enumerates instead, reported with
    exact=True and zero standard error; any other budget keeps drawing with
    replacement so std_error stays an honest dispersion measure even past
    the context count. std_error is the sample standard deviation (ddof=1)
    over sqrt(num_samples); a single draw cannot estimate it and reports 0.
    The coalitions go through evaluate as one block of _pair_deltas.
    """
    n = game.n
    pair = _check_pair(n, i, j)
    _check_order(n, m)
    if num_samples < 1:
        raise DomainError(f"num_samples must be positive, got {num_samples}")
    if _enumerates(n, m, num_samples):
        return interaction_order_exact(game, i, j, m)
    deltas = next(_pair_deltas(game, m, [pair], num_samples, seed))[0]
    se = float(np.std(deltas, ddof=1) / np.sqrt(num_samples)) if num_samples > 1 else 0.0
    return InteractionEstimate(value=float(deltas.mean()), std_error=se,
                               samples_used=num_samples, exact=False)


def _capped_budget(n: int, m: int, budget: int) -> int:
    # cap only where enumeration is allowed to take over
    return min(budget, comb(n - 2, m)) if n <= MAX_TABLE_PLAYERS else budget


def _pair_grid(n: int, pair_budget: int, seed: int, m: int) -> list[tuple[int, int]]:
    pairs = list(itertools.combinations(range(n), 2))
    if pair_budget >= len(pairs):
        return pairs
    rng = make_rng(seed, _PAIR_STREAM, m)
    idx = rng.permutation(len(pairs))[:pair_budget]
    return [pairs[int(k)] for k in sorted(idx)]


def default_order_grid(n: int) -> tuple[int, ...]:
    """All orders for n <= 20; 21 evenly spaced (de-duplicated) orders beyond."""
    if n < 2:
        raise DomainError(f"need at least two players, got n={n}")
    if n <= 20:
        return tuple(range(n - 1))
    # round half up, matching the fraction-to-size convention used elsewhere
    marks = {int(np.floor(t * (n - 2) / 20 + 0.5)) for t in range(21)}
    return tuple(sorted(marks))


def order_profile(games: Sequence[ValueFunction], order_grid: Sequence[int] | None = None, *,
                  pair_budget: int, subset_budget: int, seed: int) -> OrderProfile:
    """Strength per order, averaged over the samples' games, normalized to mean one.

    The strength of order m is the mean |I_m(i, j)| over unordered pairs.

    games holds one game per sample, all with the same n (a closed-form game
    is one sample of itself). The sampled path would evaluate, per sample,
    4 * min(pair_budget, n (n - 1) / 2) * min(subset_budget, C(n - 2, m))
    masks summed over the grid. Where that is at least the 2^n masks of a
    value table and n <= MAX_TABLE_PLAYERS, each sample's table is built once
    and every pair's exact per-order means are read from it; the profile then
    records the budgets that enumeration amounts to: every pair, and the
    largest context count C(n - 2, (n - 2) // 2). Otherwise each sample runs
    under its own derived seed: pairs are sampled without replacement when
    pair_budget is below the full pair count, the subset budget is capped at
    the context count (so covered orders are enumerated exactly), and each
    order's pairs, in fixed pair order, go through _pair_deltas; each pair's
    mean is the value interaction_order_mc returns for it. The
    normalization denominator is the mean over the declared grid only.
    """
    if len(games) == 0:
        raise ValidationError("need at least one game to build a profile")
    n = games[0].n
    if any(game.n != n for game in games):
        raise DimensionError(f"games differ in player count: {sorted({g.n for g in games})}")
    grid = default_order_grid(n) if order_grid is None else tuple(int(m) for m in order_grid)
    if not grid:
        raise DomainError("order grid must not be empty")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise DomainError("order grid must be strictly increasing")
    for m in grid:
        _check_order(n, m)
    if pair_budget < 1:
        raise DomainError(f"pair_budget must be positive, got {pair_budget}")
    if subset_budget < 1:
        raise DomainError(f"subset_budget must be positive, got {subset_budget}")

    all_pairs = n * (n - 1) // 2
    sampled_masks = sum(4 * min(pair_budget, all_pairs) * _capped_budget(n, m, subset_budget)
                        for m in grid)
    per_sample = np.empty((len(games), len(grid)))
    if n <= MAX_TABLE_PLAYERS and (1 << n) <= sampled_masks:
        pair_budget, subset_budget = all_pairs, comb(n - 2, (n - 2) // 2)
        for t, game in enumerate(games):
            # one row of |I_m| per order, in pair order
            magnitudes = np.abs(pair_order_table(value_table(game), n)).T
            per_sample[t] = [np.mean(magnitudes[m]) for m in grid]
    else:
        for t, game in enumerate(games):
            sample_seed = child_seed(seed, _SAMPLE_STREAM, t)
            for col, m in enumerate(grid):
                blocks = _pair_deltas(game, m, _pair_grid(n, pair_budget, sample_seed, m),
                                      _capped_budget(n, m, subset_budget), sample_seed)
                means = np.concatenate([block.mean(axis=1) for block in blocks])
                per_sample[t, col] = np.mean(np.abs(means))
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


def order_weights(n: int, coeffs: Mapping[int, float]) -> np.ndarray:
    """Weight w(m) of the order-m interactions, m = 0..n-2, in a signal sum_s c_s mu_s.

    mu_s is the mean of v over the coalitions of size s, and coeffs maps each
    size s to its c_s. Expanding the signal in per-order interactions over
    ordered pairs gives

        w(m) = sum_s c_s (s - 1 - m)_+ / (n (n - 1)),

    next to sum_s c_s v(empty) and (sum_s s c_s) / n times the independent
    effects sum_i [v({i}) - v(empty)]. The efficiency identity is c_n = 1,
    c_0 = -1; the band signal of verify_theorem2 is c_{s2} = 1, c_{s1} = -s2/s1.
    """
    m = np.arange(n - 1)
    return sum(c * np.maximum(s - 1 - m, 0) for s, c in coeffs.items()) / (n * (n - 1))


def efficiency_residual(game: ValueFunction) -> EfficiencyReport:
    """Check v(full) against its additive-plus-interactions reconstruction.

    Builds the complete value table (hence value_table's n <= MAX_TABLE_PLAYERS
    guard), forms every exact per-order interaction, and reconstructs

        v(full) = v(empty) + sum_i [v({i}) - v(empty)]
                  + sum_m w(m) * sum over ordered pairs of I_m(i, j)

    with w(m) = (n - 1 - m) / (n (n - 1)), order_weights of c_n = 1, c_0 = -1.
    """
    n = game.n
    table = value_table(game)
    lhs = float(table[(1 << n) - 1])
    v_empty = float(table[0])
    independent = float(sum(table[1 << i] - v_empty for i in range(n)))

    weights = order_weights(n, {n: 1.0, 0: -1.0})
    # ordered pairs: (i, j) and (j, i) contribute the same interaction
    per_order = np.zeros(n - 1)
    for row in pair_order_table(table, n):
        per_order += 2.0 * weights * row

    reconstruction = v_empty + independent + float(per_order.sum())
    residual = abs(lhs - reconstruction)
    return EfficiencyReport(n=n, lhs=lhs, v_empty=v_empty, independent_sum=independent,
                            per_order=tuple(per_order.tolist()),
                            reconstruction=reconstruction, residual=residual,
                            relative_residual=residual / (abs(lhs) + 1.0))


class LogOddsGame(ValueFunction):
    """Masked-input log odds of a target class under a classifier, on one sample.

    v(S) = z_target - logsumexp(z_other), the log odds p/(1-p) of the target
    class, where z is the logit vector the model produces on the sample's
    features with players outside S replaced by the baseline. The features'
    shape and the target's sign are checked once, here; a target beyond the
    model's classes is refused when the logits show the class count. The
    model only needs a forward(X) -> (rows, classes) method, and the game
    reads it on every call, so it follows weights updated in place.
    """

    def __init__(self, model, baseline: Baseline, features, target: int):
        self.model = model
        self.baseline = baseline
        self.n = check_player_count(len(baseline))
        self.features = np.asarray(features, dtype=float)
        if self.features.shape != (self.n,):
            raise DimensionError(
                f"sample has shape {self.features.shape}, baseline length is {self.n}")
        self.target = int(target)
        if self.target < 0:
            raise DomainError(f"target class must be non-negative, got {self.target}")

    def evaluate_many(self, bits) -> np.ndarray:
        rows = masked_matrix(self.features, bits, self.baseline)
        logits = np.asarray(self.model.forward(rows), dtype=float)
        if logits.ndim != 2 or logits.shape[0] != len(rows):
            raise DimensionError(f"model returned logits of shape {logits.shape}")
        if logits.shape[1] < 2:
            raise DomainError("log odds need at least two classes")
        if self.target >= logits.shape[1]:
            raise DomainError(f"target class {self.target} outside [0, {logits.shape[1]})")
        z_target = logits[:, self.target]
        others = np.delete(logits, self.target, axis=1)
        # logsumexp over the other classes, shifted by their maximum
        top = others.max(axis=1)
        return z_target - (top + np.log(np.exp(others - top[:, None]).sum(axis=1)))


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
    if grid[0] < 0 or grid[-1] > n - 2:
        raise SchemaError(f"profile orders must lie in [0, {n - 2}] for n={n}, "
                          f"got {grid[0]}..{grid[-1]}")
    mean = float(np.mean(strengths))
    degenerate = not (np.isfinite(mean) and mean > 0)
    return OrderProfile(n=n, order_grid=grid, strengths=strengths, normalized=normalized,
                        pair_budget=pair_budget, subset_budget=subset_budget, seed=seed,
                        degenerate=degenerate), meta
