"""Band-selective output differences and the losses built on them.

For fractions r1 < r2 with sizes s_k = round(r_k * n) (half up), the band signal

    Du(r1, r2) = E[ v(S2) - (s2/s1) * v(S1) ]        (S1 strictly inside S2)

averages over nested subset pairs |S1| = s1, |S2| = s2. The pairs come from
games.sample_subsets, the sampler interaction contexts use too, with sizes
(s1, s2): one uniform permutation of the n player bits per pair, S2 its
first s2 players and S1 its first s1. So S2 is uniform at size s2 and S1
uniform inside it; because every S2 contains the same number of size-s1
subsets, both marginals are uniform and the pair distribution matches the
nested expectation. A training loss draws every pair of one step's batch
from one generator per (step, term), pair_samples consecutive pairs per row.

Both marginals being uniform, Du = mu_{s2} - (s2/s1) mu_{s1}, where mu_s is the
mean of v over size s. Expanding it in per-order interactions gives the
interactions.order_weights of that sum. For s1 >= 1 they are positive on
every order 0..s2 - 2, rise to a peak at s1 - 1 and vanish above s2 - 2, so
the signal also listens below the band: the mid recipe on 12 features
(sizes 4 and 8) weighs orders 0..6 and peaks at order 3. verify_theorem2
checks that expansion against exact per-order interactions read from a full
value table.

Two training losses act through the per-class version of the signal: the
encouraging loss classifies with softmax(Du_c) (forcing the banded
orders to carry label information), and the suppressing loss maximizes the
entropy of that softmax (draining them). band_value_and_grad returns one
term's loss with its parameter gradient, and combined_value_and_grad adds
the weighted terms to the plain cross-entropy in one pass: the batch and
every active term's masked stack go through one forward and one backward,
and each term's logits block is turned into its loss and logits gradient by
the same helper band_value_and_grad uses. Where s1 rounds to 0 the s2/s1
ratio is undefined; the convention there is Du(r1, r2) = E[v(S2)] - v(empty),
and verify_theorem2 refuses such a band outright.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import floor
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError, ValidationError, require
from .games import Baseline, check_player_count, masked_matrix, sample_subsets
from .interactions import order_weights, pair_order_table, size_means, value_table
from .mlp import (MLP, ParamGrads, _checked_cross_entropy, ce_value_and_grad, cross_entropy,
                  cross_entropy_grad, log_softmax)
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
    r1, r2 and lam are numbers, stored as floats, and pair_samples is an
    integer; errors name each field by its JSON key.
    """

    kind: str
    r1: float
    r2: float
    lam: float
    pair_samples: int = 4

    def __post_init__(self):
        if self.kind not in ("encourage", "suppress"):
            raise ValidationError(f"kind must be encourage or suppress, got {self.kind!r}")
        for name, key in (("r1", "r1"), ("r2", "r2"), ("lam", "lambda")):
            require(key, getattr(self, name), Real)
            object.__setattr__(self, name, float(getattr(self, name)))
        require("pair_samples", self.pair_samples, Integral)
        if not (0 <= self.r1 < self.r2 <= 1):
            raise ValidationError(
                f"fractions must satisfy 0 <= r1 < r2 <= 1, got ({self.r1}, {self.r2})")
        if self.lam < 0:
            raise ValidationError(f"lambda must be >= 0, got {self.lam}")
        if self.pair_samples < 1:
            raise ValidationError(f"pair_samples must be positive, got {self.pair_samples}")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "r1": self.r1, "r2": self.r2,
                "lambda": self.lam, "pair_samples": self.pair_samples}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModulationSpec":
        if not isinstance(obj, dict):
            raise ValidationError("modulation term must be a JSON object")
        unknown = set(obj) - {"kind", "r1", "r2", "lambda", "pair_samples"}
        if unknown:
            raise ValidationError(f"unknown modulation keys: {sorted(unknown)}")
        for key in ("kind", "r1", "r2", "lambda"):
            if key not in obj:
                raise ValidationError(f"modulation term is missing {key!r}")
        return cls(kind=obj["kind"], r1=obj["r1"], r2=obj["r2"], lam=obj["lambda"],
                   pair_samples=obj.get("pair_samples", 4))


def _effective_ratio(s1: int, s2: int) -> float:
    # rounded sizes, not raw fractions: the expansion is exact only for s2/s1
    return s2 / s1 if s1 > 0 else 1.0


def _exact_delta_u(table: np.ndarray, n: int, s1: int, s2: int) -> float:
    # both marginals of the nested pair are uniform, so the pair mean splits
    # into the mean value at size s2 minus ratio times the mean at size s1
    means = size_means(table, n)
    return float(means[s2] - _effective_ratio(s1, s2) * means[s1])


def _band_stack(spec: ModulationSpec, X: np.ndarray, baseline: Baseline,
                seed: int) -> tuple[np.ndarray, float]:
    """One term's masked stack of the batch, plus its ratio s2/s1.

    One generator, make_rng(seed, _ROW_STREAM), draws all batch *
    pair_samples pairs; row b takes pairs [Pb, P(b+1)) and owns stack rows
    [2Pb, 2P(b+1)): its P inner masks, then its P outer ones. For each row
    the same drawn pairs serve every class.
    """
    n = check_player_count(len(baseline))
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise DomainError(f"batch must have shape (rows, {n}), got {X.shape}")
    s1, s2 = band_sizes(n, spec.r1, spec.r2)
    batch, pair_samples = len(X), spec.pair_samples
    pairs = sample_subsets((1 << n) - 1, (s1, s2), batch * pair_samples,
                           make_rng(seed, _ROW_STREAM))
    bits = pairs.reshape(2, batch, pair_samples).transpose(1, 0, 2)
    stacked = masked_matrix(np.repeat(X, 2 * pair_samples, axis=0), bits.reshape(-1), baseline)
    return stacked, _effective_ratio(s1, s2)


def _band_loss(spec: ModulationSpec, logits: np.ndarray, ratio: float,
               y) -> tuple[float, np.ndarray]:
    """One term's loss and d(loss)/d(logits) from its stack's logits block.

    delta is the per-row, per-class Du of the block's pairs; the loss
    is the one band_value_and_grad documents, with spec.lam not applied.
    """
    pair_samples = spec.pair_samples
    shaped = logits.reshape(-1, 2, pair_samples, logits.shape[1])
    delta = shaped[:, 1].mean(axis=1) - ratio * shaped[:, 0].mean(axis=1)
    if spec.kind == "encourage":
        loss = cross_entropy(delta, y)
    else:
        logp = log_softmax(delta)
        probs = np.exp(logp)
        plogp = probs * logp
        loss = float(plogp.sum(axis=1).mean())
    if not np.isfinite(loss):
        raise NumericError(f"{spec.kind} loss is not finite: {loss}")
    if spec.kind == "encourage":
        ddelta = cross_entropy_grad(delta, y)
    else:
        ddelta = (plogp - probs * plogp.sum(axis=1, keepdims=True)) / len(delta)
    d = np.zeros(shaped.shape)
    d[:, 1] = ddelta[:, None, :] / pair_samples
    d[:, 0] = -ratio * ddelta[:, None, :] / pair_samples
    return loss, d.reshape(logits.shape)


def band_value_and_grad(spec: ModulationSpec, model: MLP, X, y, seed: int,
                        baseline: Baseline) -> tuple[float, ParamGrads]:
    """One band loss on the batch and its parameter gradients.

    encourage: cross-entropy of the labels against softmax(delta); suppress:
    negative entropy of softmax(delta), averaged over the batch (labels
    unused, minimum -ln(classes)). The pairs come from the stream
    make_rng(seed, _ROW_STREAM). spec.lam is not applied here.
    """
    stacked, ratio = _band_stack(spec, X, baseline, seed)
    logits, trace = model.forward_trace(stacked)
    loss, dlogits = _band_loss(spec, logits, ratio, y)
    return loss, model.backward(trace, dlogits)


def combined_value_and_grad(model: MLP, X, y, terms: Sequence[ModulationSpec],
                            seed: int, baseline: Baseline) -> tuple[float, ParamGrads]:
    """Classification cross-entropy plus every weighted modulation term.

    Term t samples its pairs from the stream derived as (seed, t), so every
    term draws new pairs at every step; terms with lam = 0 are skipped. The
    batch and the masked stack of each active term, in term order, go
    through one forward pass, and one backward pass takes the stacked logits
    gradient [dCE; lam_t * dterm_t]. With no active term this is
    ce_value_and_grad.
    """
    X = np.asarray(X, dtype=float)
    active = [(spec, _band_stack(spec, X, baseline, child_seed(seed, t)))
              for t, spec in enumerate(terms) if spec.lam != 0]
    if not active:
        return ce_value_and_grad(model, X, y)
    logits, trace = model.forward_trace(np.concatenate([X, *(s for _, (s, _) in active)]))
    start = len(X)
    total, dce = _checked_cross_entropy(logits[:start], y)
    blocks = [dce]
    for spec, (stacked, ratio) in active:
        stop = start + len(stacked)
        value, dlogits = _band_loss(spec, logits[start:stop], ratio, y)
        total += spec.lam * value
        blocks.append(spec.lam * dlogits)
        start = stop
    return total, model.backward(trace, np.concatenate(blocks))


def verify_theorem2(n: int, r1: float, r2: float, num_games: int, seed: int) -> float:
    """Max |band signal - closed-form reconstruction| over random polynomial games.

    The reconstruction is (1 - s2/s1) v(empty) plus the weighted ordered-pair
    sum of exact per-order interactions, with the order_weights of c_{s2} = 1,
    c_{s1} = -s2/s1. The pair sum must run over ordered pairs: collapsing to
    unordered pairs halves the interaction mass and leaves O(1) residuals.
    Each game's value table (so n <= MAX_TABLE_PLAYERS) is evaluated once and
    read by both sides: the exact signal from its size means, the
    interactions from pair_order_table. A band whose s1 rounds to 0 is
    refused: the ratio is undefined there, and the signal's convention keeps
    an independent-effects term the reconstruction does not have.
    """
    if num_games < 1:
        raise DomainError(f"num_games must be positive, got {num_games}")
    s1, s2 = band_sizes(n, r1, r2)
    if s1 == 0:
        raise DomainError(
            f"verification needs s1 > 0; r1={r1} rounds to s1=0 at n={n}, "
            "where the expansion is undefined")
    from .games import SyntheticGame, synthetic_game

    ratio = s2 / s1
    weights = order_weights(n, {s2: 1.0, s1: -ratio})
    worst = 0.0
    for g in range(num_games):
        spec = SyntheticGame.random_polynomial(
            n, degree=n, num_terms=2 * n + 5, seed=child_seed(seed, g))
        table = value_table(synthetic_game(spec))
        measured = _exact_delta_u(table, n, s1, s2)
        # ordered pairs: (i, j) and (j, i) carry the same interaction
        pair_sums = 2.0 * sum(pair_order_table(table, n))
        recon = (1.0 - ratio) * float(table[0]) + float(weights @ pair_sums)
        worst = max(worst, abs(measured - recon))
    return worst
