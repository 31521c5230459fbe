"""Closed-form learning-strength curve and the averaged-gradient simulator.

An order-m interaction for a fixed pair can appear in u(m) = C(n-2, m)
distinct contexts. If each context contributes an independent zero-mean
gradient and contributions are averaged, the per-order update magnitude,
normalized to 1 at m = 0, is

    f_hat(m) = (n - m - 1) / (n - 1) * 1 / sqrt(u(m))

which dips in the middle of the order grid where u(m) is combinatorially
large and rises again toward m = n - 2. The simulator reproduces the curve
the long way: it literally averages u(m) random gaussian gradients and
measures the resulting update norm, keeping the formula and the simulation
as two independent routes to the same numbers.

fit_effective_n inverts the curve: given a measured profile on n players it
finds the candidate n' whose curve, laid out on the fractional axis m/n',
best matches the measurement in mean squared log space.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, lgamma, log, sqrt
from typing import Sequence

import numpy as np

from .errors import DomainError, GuardError, ValidationError
from .interactions import OrderProfile
from .parallel import ordered_map
from .rng import make_rng
from .textio import format_float, read_csv, write_csv

MAX_SIMULATED_CONTEXTS = 1_000_000
MAX_CURVE_PLAYERS = 1000  # every C(n-2, m) stays inside the float range

THEORY_HEADER = "m,f_hat"


@dataclass(frozen=True)
class TheoryCurve:
    """Normalized learning strengths over the order grid of an n-player curve."""

    n: int
    orders: tuple[int, ...]
    f_hat: tuple[float, ...]


@dataclass(frozen=True)
class GradSimConfig:
    """Knobs of the averaged-gradient simulation.

    k is the parameter dimensionality of one context gradient, sigma its
    per-coordinate standard deviation.
    """

    n: int
    k: int
    sigma: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.n < 3:
            raise ValidationError(f"simulation needs n >= 3, got n={self.n}")
        if self.k < 1:
            raise ValidationError(f"gradient dimension must be positive, got {self.k}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValidationError(f"sigma must be finite and non-negative, got {self.sigma}")
        if self.trials < 1:
            raise ValidationError(f"trials must be positive, got {self.trials}")


def contextual_variability(n: int, m: int) -> int:
    """Number of order-m contexts for a fixed pair: C(n-2, m)."""
    if n < 2:
        raise DomainError(f"need at least two players, got n={n}")
    if not (0 <= m <= n - 2):
        raise DomainError(f"context size {m} outside [0, {n - 2}] for n={n}")
    return comb(n - 2, m)


def learning_strength_hat(n: int, m: int) -> float:
    """f_hat(m): relative ease of learning an order-m interaction; f_hat(0) = 1."""
    if n > MAX_CURVE_PLAYERS:
        raise GuardError(f"the curve is limited to n <= {MAX_CURVE_PLAYERS}, got n={n}")
    u = contextual_variability(n, m)
    return (n - m - 1) / (n - 1) / sqrt(u)


def theory_curve(n: int) -> TheoryCurve:
    """f_hat over the full order grid 0..n-2."""
    if n < 3:
        raise DomainError(f"a curve needs n >= 3, got n={n}")
    grid = tuple(range(n - 1))
    return TheoryCurve(n=n, orders=grid,
                       f_hat=tuple(learning_strength_hat(n, m) for m in grid))


def argmin_order(orders: Sequence[int], values: Sequence[float]) -> int:
    """Order at which the curve bottoms out (first on ties)."""
    if len(orders) != len(values) or not orders:
        raise DomainError("orders and values must be equal-length and non-empty")
    return int(orders[int(np.argmin(values))])


def mean_norm_gaussian(k: int, scale: float) -> float:
    """E||z|| for z ~ N(0, scale^2 I_k): scale * sqrt(2) * Gamma((k+1)/2) / Gamma(k/2).

    The exact expression, not the large-k approximation scale * sqrt(k).
    """
    if k < 1:
        raise DomainError(f"dimension must be positive, got {k}")
    if scale < 0:
        raise DomainError(f"scale must be non-negative, got {scale}")
    return scale * exp(0.5 * log(2.0) + lgamma((k + 1) / 2) - lgamma(k / 2))


def predicted_update_norm(n: int, m: int, k: int, sigma: float) -> float:
    """Expected norm of the order-m averaged update for k-dimensional gradients.

    Averaging u(m) independent N(0, sigma^2 I_k) gradients and scaling by
    (n - m - 1) / (n (n - 1)) yields a gaussian whose mean norm follows from
    mean_norm_gaussian exactly.
    """
    u = contextual_variability(n, m)
    coeff = (n - m - 1) / (n * (n - 1))
    return float(coeff * mean_norm_gaussian(k, sigma / np.sqrt(u)))


def simulate_learning_strength(cfg: GradSimConfig, m: int) -> float:
    """Empirical mean update norm at order m under the averaged-gradient model.

    Each trial draws u(m) independent gaussian context gradients for one
    generic pair (the distribution does not depend on which pair), averages
    them, applies the (n - m - 1) / (n (n - 1)) coefficient, and records the
    L2 norm; trials use derived per-trial streams and are reduced in trial
    order, so the result is identical for any worker count.
    """
    u = contextual_variability(cfg.n, m)
    if u > MAX_SIMULATED_CONTEXTS:
        raise GuardError(
            f"order {m} has {u} contexts, above the {MAX_SIMULATED_CONTEXTS} "
            "limit; subsample contexts instead of materializing them")
    coeff = (cfg.n - m - 1) / (cfg.n * (cfg.n - 1))

    def one_trial(t: int) -> float:
        g = make_rng(cfg.seed, m, t).normal(0.0, cfg.sigma, size=(u, cfg.k))
        return float(np.linalg.norm(coeff * g.mean(axis=0)))

    norms = ordered_map(one_trial, range(cfg.trials))
    return float(np.mean(norms))


def simulate_curve(cfg: GradSimConfig) -> tuple[float, ...]:
    """simulate_learning_strength at every order 0..n-2."""
    return tuple(simulate_learning_strength(cfg, m) for m in range(cfg.n - 1))


@dataclass(frozen=True)
class EffectiveNFit:
    """Grid-search result; mismatch is the best candidate's score."""

    n_prime: int
    mismatch: float
    candidates: tuple[int, ...]
    mismatches: tuple[float, ...]


def fit_effective_n(profile: OrderProfile) -> EffectiveNFit:
    """Best-matching curve size for a measured profile.

    Candidates n' in {3, ..., n} each contribute their curve sampled (by
    linear interpolation on the fractional axis, clamped at the ends) at the
    measured positions m/n. Both sides are anchored at the m = 0 point (J/J(0)
    against f_hat, which is already 1 there) and compared by mean squared log
    difference; ties go to the smaller candidate.
    """
    if profile.degenerate:
        raise DomainError("cannot fit a degenerate (all-zero) profile")
    n = profile.n
    if n < 3:
        raise DomainError(f"need n >= 3 to fit, got n={n}")
    if profile.order_grid[0] != 0:
        raise ValidationError("fitting anchors at m=0, so the grid must start there")
    measured = np.array(profile.strengths, dtype=float)
    if measured.size < 2:
        raise ValidationError("need at least two measured orders to fit")
    if not np.all(measured > 0):
        raise ValidationError("fit needs strictly positive strengths at every order")
    fractions = np.array(profile.order_grid, dtype=float) / n
    anchored = measured / measured[0]

    candidates = tuple(range(3, n + 1))
    mismatches = []
    for cand in candidates:
        grid = np.arange(cand - 1, dtype=float) / cand
        curve = np.array([learning_strength_hat(cand, m) for m in range(cand - 1)])
        sampled = np.interp(fractions, grid, curve)
        mismatches.append(float(np.mean((np.log(anchored) - np.log(sampled)) ** 2)))
    best = int(np.argmin(mismatches))
    return EffectiveNFit(n_prime=candidates[best], mismatch=mismatches[best],
                         candidates=candidates, mismatches=tuple(mismatches))


def write_theory_csv(path, curve: TheoryCurve, meta=None) -> None:
    """Rows are m,f_hat with m ascending and 17-digit floats."""
    rows = [(str(m), format_float(v)) for m, v in zip(curve.orders, curve.f_hat)]
    write_csv(path, THEORY_HEADER, rows, meta)


def read_theory_csv(path) -> tuple[tuple[int, ...], tuple[float, ...], dict[str, str]]:
    raw, meta = read_csv(path, THEORY_HEADER)
    orders = tuple(int(r[0]) for r in raw)
    f_hat = tuple(float(r[1]) for r in raw)
    return orders, f_hat, meta
