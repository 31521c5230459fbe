"""Band-selective output differences and the losses built on them.

For fractions r1 < r2 with sizes s_k = round(r_k * n) (half up), the signal

    delta_u(r1, r2) = E[ v(S2) - (s2/s1) * v(S1) ]        (S1 strictly inside S2)

averages over nested subset pairs |S1| = s1, |S2| = s2. Sampling takes one
uniform permutation of the n player bits per pair: S2 is its first s2
players and S1 its first s1. So S2 is uniform at size s2 and S1 uniform
inside it; because every S2 contains the same number of size-s1 subsets,
both marginals are uniform and the pair distribution matches the nested
expectation. A training loss draws every pair of one step's batch from one
generator per (step, term), pair_samples consecutive pairs per row.

Expanding delta_u in per-order interactions gives a closed-form weight for
every order that vanishes above s2 - 2, so the signal only listens to orders
inside the band; verify_theorem2 checks that expansion against exact
per-order interactions read from a full value table.

Two training losses act through the per-class version of the signal: the
encouraging loss classifies with softmax(delta_u_c) (forcing the banded
orders to carry label information), and the suppressing loss maximizes the
entropy of that softmax (draining them). band_value_and_grad returns one
term's loss with its parameter gradient, and combined_value_and_grad adds
the weighted terms to the plain cross-entropy. At r1 = 0 the s2/s1 ratio is
undefined; the documented convention is delta_u(0, r2) = E[v(S2)] - v(empty),
and the closed-form weight refuses r1 = 0 outright.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import floor
from numbers import Integral
from typing import Sequence

import numpy as np
from scipy.special import xlogy

from .errors import DomainError, NumericError, ValidationError
from .games import _PLAYER_BITS, Baseline, ValueFunction, masked_matrix
from .interactions import evaluate, pair_order_means, size_means, value_table
from .mlp import MLP, ParamGrads, ce_value_and_grad, cross_entropy, cross_entropy_grad, softmax
from .rng import child_seed, make_rng

_ROW_STREAM = 0xC2B2AE35


def round_half_up(value: float) -> int:
    """Nearest integer with .5 rounded away from zero toward +inf."""
    return int(floor(value + 0.5))


def band_sizes(n: int, r1: float, r2: float) -> tuple[int, int]:
    """Rounded subset sizes (s1, s2) for the fraction band [r1, r2].

    The fractions must satisfy 0 <= r1 < r2 <= 1 and must stay distinct
    after rounding; a collision means the band is unusable at this n.
    """
    if not (0 <= r1 < r2 <= 1):
        raise ValidationError(f"fractions must satisfy 0 <= r1 < r2 <= 1, got ({r1}, {r2})")
    if n < 2:
        raise DomainError(f"need at least two players, got n={n}")
    s1 = round_half_up(r1 * n)
    s2 = round_half_up(r2 * n)
    if not (s1 < s2 <= n):
        raise ValidationError(
            f"fractions ({r1}, {r2}) collapse to sizes ({s1}, {s2}) at n={n}")
    return s1, s2


@dataclass(frozen=True)
class ModulationSpec:
    """One loss term: encourage or suppress the orders inside [r1, r2].

    lam is the term's weight in the combined objective. pair_samples is the
    number of (S1, S2) draws per input per step; the draws come from a
    stream derived from the step's seed, so each step samples new pairs.
    """

    kind: str
    r1: float
    r2: float
    lam: float
    pair_samples: int = 4

    def __post_init__(self):
        if self.kind not in ("encourage", "suppress"):
            raise ValidationError(f"kind must be encourage or suppress, got {self.kind!r}")
        if not (0 <= self.r1 < self.r2 <= 1):
            raise ValidationError(
                f"fractions must satisfy 0 <= r1 < r2 <= 1, got ({self.r1}, {self.r2})")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(f"lambda must be finite and >= 0, got {self.lam}")
        # bool is an Integral too, but a flag is never a count
        if isinstance(self.pair_samples, bool) or not isinstance(self.pair_samples, Integral):
            raise ValidationError(f"pair_samples must be an integer, got {self.pair_samples!r}")
        if self.pair_samples < 1:
            raise ValidationError(f"pair_samples must be positive, got {self.pair_samples}")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "r1": self.r1, "r2": self.r2,
                "lambda": self.lam, "pair_samples": self.pair_samples}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModulationSpec":
        if not isinstance(obj, dict):
            raise ValidationError("modulation term must be a JSON object")
        known = {"kind", "r1", "r2", "lambda", "pair_samples"}
        unknown = set(obj) - known
        if unknown:
            raise ValidationError(f"unknown modulation keys: {sorted(unknown)}")
        for key in ("kind", "r1", "r2", "lambda"):
            if key not in obj:
                raise ValidationError(f"modulation term is missing {key!r}")
        try:
            r1, r2, lam = float(obj["r1"]), float(obj["r2"]), float(obj["lambda"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"modulation term has a non-numeric field: {exc}") from None
        return cls(kind=obj["kind"], r1=r1, r2=r2, lam=lam,
                   pair_samples=obj.get("pair_samples", 4))


def theorem2_weight(n: int, r1: float, r2: float, m: int) -> float:
    """Weight of order-m interactions (ordered pairs) in delta_u's expansion.

    Piecewise in m with boundaries at the rounded sizes:
      m <= s1 - 2:            (s2/s1 - 1) * (m + 1) / (n (n - 1))
      s1 - 2 < m <= s2 - 2:   (s2 - m - 1) / (n (n - 1))
      m > s2 - 2:             0
    Undefined at r1 = 0 (the s2/s1 ratio); delta_u documents the convention
    used there instead.
    """
    if r1 == 0:
        raise DomainError(
            "the closed-form weight is undefined at r1=0; "
            "delta_u uses the convention delta_u(0, r2) = E[v(S2)] - v(empty)")
    if not (0 <= m <= n - 2):
        raise DomainError(f"context size {m} outside [0, {n - 2}] for n={n}")
    s1, s2 = band_sizes(n, r1, r2)
    denom = n * (n - 1)
    if m <= s1 - 2:
        return (s2 / s1 - 1.0) * (m + 1) / denom
    if m <= s2 - 2:
        return (s2 - m - 1) / denom
    return 0.0


def order_weights(n: int, r1: float, r2: float) -> np.ndarray:
    """theorem2_weight at every order 0..n-2."""
    return np.array([theorem2_weight(n, r1, r2, m) for m in range(n - 1)])


def _effective_ratio(s1: int, s2: int) -> float:
    # rounded sizes, not raw fractions: the expansion is exact only for s2/s1
    return s2 / s1 if s1 > 0 else 1.0


def _sample_pairs(n: int, s1: int, s2: int, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """(2, count) uint64 masks: row 0 holds each S1, row 1 the S2 around it.

    Pair p permutes the n player bits with one rng.permuted row; S2 sums
    the first s2 of them and S1 the first s1.
    """
    order = rng.permuted(np.broadcast_to(_PLAYER_BITS[:n], (count, n)), axis=1)
    return np.stack([order[:, :s1].sum(axis=1, dtype=np.uint64),
                     order[:, :s2].sum(axis=1, dtype=np.uint64)])


def _exact_delta_u(table: np.ndarray, n: int, s1: int, s2: int) -> float:
    # both marginals of the nested pair are uniform, so the pair mean splits
    # into the mean value at size s2 minus ratio times the mean at size s1
    means = size_means(table, n)
    return float(means[s2] - _effective_ratio(s1, s2) * means[s1])


def delta_u(game: ValueFunction, r1: float, r2: float, pair_samples: int, seed: int,
            x=None, exact: bool = False) -> float:
    """Band-selective output difference E[v(S2) - (s2/s1) v(S1)].

    exact mode reads the game's value table (so n <= MAX_TABLE_PLAYERS):
    because both marginals of the nested pair are uniform, the expectation is
    the mean of v over size s2 minus s2/s1 times the mean over size s1, one
    popcount bincount over the table. It ignores pair_samples and seed.
    Otherwise pair_samples pairs are drawn from the stream of the given seed
    and evaluated in one batch. At r1 = 0: E[v(S2)] - v(empty).
    """
    n = game.n
    s1, s2 = band_sizes(n, r1, r2)
    if exact:
        return _exact_delta_u(value_table(game, x), n, s1, s2)
    if pair_samples < 1:
        raise DomainError(f"pair_samples must be positive, got {pair_samples}")
    pairs = _sample_pairs(n, s1, s2, pair_samples, make_rng(seed))
    inner, outer = evaluate(game, pairs.reshape(-1), x).reshape(2, -1)
    return float(np.mean(outer - _effective_ratio(s1, s2) * inner))


def _band_delta_logits(model: MLP, X: np.ndarray, baseline: Baseline,
                       r1: float, r2: float, pair_samples: int, seed: int):
    """Per-row, per-class delta_u matrix, plus what backward needs.

    One generator, make_rng(seed, _ROW_STREAM), draws all batch *
    pair_samples pairs; row b takes pairs [Pb, P(b+1)). For each row the
    same drawn pairs serve every class. Returns (delta, ratio, trace,
    logits_shape) where delta has shape (batch, classes).
    """
    n = len(baseline)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise DomainError(f"batch must have shape (rows, {n}), got {X.shape}")
    s1, s2 = band_sizes(n, r1, r2)
    ratio = _effective_ratio(s1, s2)
    batch = len(X)
    # row b owns stack rows [2Pb, 2P(b+1)): its P inner masks, then its P outer ones
    pairs = _sample_pairs(n, s1, s2, batch * pair_samples, make_rng(seed, _ROW_STREAM))
    bits = pairs.reshape(2, batch, pair_samples).transpose(1, 0, 2)
    stacked = masked_matrix(np.repeat(X, 2 * pair_samples, axis=0), bits.reshape(-1), baseline)
    logits, trace = model.forward_trace(stacked)
    shaped = logits.reshape(batch, 2, pair_samples, model.num_classes)
    delta = shaped[:, 1].mean(axis=1) - ratio * shaped[:, 0].mean(axis=1)
    return delta, ratio, trace, logits.shape


def _assemble_dlogits(ddelta: np.ndarray, ratio: float, pair_samples: int,
                      logits_shape) -> np.ndarray:
    batch, classes = ddelta.shape
    d = np.zeros((batch, 2, pair_samples, classes))
    d[:, 1] = ddelta[:, None, :] / pair_samples
    d[:, 0] = -ratio * ddelta[:, None, :] / pair_samples
    return d.reshape(logits_shape)


def band_value_and_grad(spec: ModulationSpec, model: MLP, X, y, seed: int,
                        baseline: Baseline) -> tuple[float, ParamGrads]:
    """One band loss on the batch and its parameter gradients.

    encourage: cross-entropy of the labels against softmax(delta); suppress:
    negative entropy of softmax(delta), averaged over the batch (labels
    unused, minimum -ln(classes)). spec.lam is not applied here.
    """
    delta, ratio, trace, shape = _band_delta_logits(
        model, X, baseline, spec.r1, spec.r2, spec.pair_samples, seed)
    if spec.kind == "encourage":
        loss = cross_entropy(delta, y)
    else:
        probs = softmax(delta)
        plogp = xlogy(probs, probs)
        loss = float(plogp.sum(axis=1).mean())
    if not np.isfinite(loss):
        raise NumericError(f"{spec.kind} loss is not finite: {loss}")
    if spec.kind == "encourage":
        ddelta = cross_entropy_grad(delta, y)
    else:
        ddelta = (plogp - probs * plogp.sum(axis=1, keepdims=True)) / len(delta)
    dlogits = _assemble_dlogits(ddelta, ratio, spec.pair_samples, shape)
    grads = model.backward(trace, dlogits)
    grads.inputs = None  # gradient is w.r.t. the masked stack, not the batch
    return loss, grads


def combined_value_and_grad(model: MLP, X, y, terms: Sequence[ModulationSpec],
                            seed: int, baseline: Baseline) -> tuple[float, ParamGrads]:
    """Classification cross-entropy plus every weighted modulation term.

    Term t samples its pairs from the stream derived as (seed, t), so every
    term draws new pairs at every step. Gradient accumulation follows the
    fixed term order.
    """
    X = np.asarray(X, dtype=float)
    total, grads = ce_value_and_grad(model, X, y)
    for t, spec in enumerate(terms):
        if spec.lam == 0:
            continue
        value, term_grads = band_value_and_grad(spec, model, X, y, child_seed(seed, t),
                                                baseline)
        total += spec.lam * value
        grads.add_scaled(term_grads, spec.lam)
    return total, grads


def verify_theorem2(n: int, r1: float, r2: float, num_games: int, seed: int) -> float:
    """Max |delta_u - closed-form reconstruction| over random polynomial games.

    The reconstruction is (1 - s2/s1) v(empty) plus the weighted ordered-pair
    sum of exact per-order interactions, with weights from theorem2_weight.
    The pair sum must run over ordered pairs: collapsing to unordered pairs
    halves the interaction mass and leaves O(1) residuals. Each game's value
    table (so n <= MAX_TABLE_PLAYERS) is evaluated once and read by both
    sides: exact delta_u from its size means, the interactions from
    pair_order_means.
    """
    if r1 == 0:
        raise DomainError("verification needs r1 > 0; the expansion is undefined at r1=0")
    if num_games < 1:
        raise DomainError(f"num_games must be positive, got {num_games}")
    from .games import SyntheticGame, synthetic_game

    s1, s2 = band_sizes(n, r1, r2)
    ratio = _effective_ratio(s1, s2)
    weights = order_weights(n, r1, r2)
    worst = 0.0
    for g in range(num_games):
        spec = SyntheticGame.random_polynomial(
            n, degree=n, num_terms=2 * n + 5, seed=child_seed(seed, g))
        table = value_table(synthetic_game(spec))
        measured = _exact_delta_u(table, n, s1, s2)
        # ordered pairs: (i, j) and (j, i) carry the same interaction
        pair_sums = 2.0 * sum(pair_order_means(table, n, i, j)
                              for i in range(n) for j in range(i + 1, n))
        recon = (1.0 - ratio) * float(table[0]) + float(weights @ pair_sums)
        worst = max(worst, abs(measured - recon))
    return worst
