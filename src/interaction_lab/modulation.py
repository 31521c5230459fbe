"""Band-selective output differences and the losses built on them.

For fractions r1 < r2 with sizes s_k = round(r_k * n) (half up), the signal

    delta_u(r1, r2) = E[ v(S2) - (s2/s1) * v(S1) ]        (S1 strictly inside S2)

averages over nested subset pairs |S1| = s1, |S2| = s2. Sampling draws S2
uniformly at size s2 and then S1 uniformly inside S2; because every S2
contains the same number of size-s1 subsets, both marginals are uniform and
the pair distribution matches the nested expectation. Expanding delta_u in
per-order interactions gives a closed-form weight for every order that
vanishes above s2 - 2, so the signal only listens to orders inside the band;
verify_theorem2 checks that expansion against brute-force enumeration.

Two training losses act through the per-class version of the signal: the
encouraging loss classifies with softmax(delta_u_c) (forcing the banded
orders to carry label information), and the suppressing loss maximizes the
entropy of that softmax (draining them). At r1 = 0 the s2/s1 ratio is
undefined; the documented convention is delta_u(0, r2) = E[v(S2)] - v(empty),
and the closed-form weight refuses r1 = 0 outright.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import floor
from typing import Sequence

import numpy as np
from scipy.special import xlogy

from .errors import DomainError, GuardError, NumericError, ValidationError
from .games import Baseline, ValueFunction, masked_matrix, sample_subset
from .interactions import ValueCache, interaction_order_exact
from .mlp import MLP, ParamGrads, ce_value_and_grad, cross_entropy, cross_entropy_grad, softmax
from .rng import child_seed, make_rng

MAX_EXACT_DELTA_U_PLAYERS = 14
MAX_VERIFY_PLAYERS = 10

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
    number of (S1, S2) draws per input per step. seed, when set, pins this
    term's sampling stream; otherwise the trainer derives one.
    """

    kind: str
    r1: float
    r2: float
    lam: float
    pair_samples: int = 4
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("encourage", "suppress"):
            raise ValidationError(f"kind must be encourage or suppress, got {self.kind!r}")
        if not (0 <= self.r1 < self.r2 <= 1):
            raise ValidationError(
                f"fractions must satisfy 0 <= r1 < r2 <= 1, got ({self.r1}, {self.r2})")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.pair_samples < 1:
            raise ValidationError(f"pair_samples must be positive, got {self.pair_samples}")

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "r1": self.r1, "r2": self.r2,
               "lambda": self.lam, "pair_samples": self.pair_samples}
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModulationSpec":
        if not isinstance(obj, dict):
            raise ValidationError("modulation term must be a JSON object")
        known = {"kind", "r1", "r2", "lambda", "pair_samples", "seed"}
        unknown = set(obj) - known
        if unknown:
            raise ValidationError(f"unknown modulation keys: {sorted(unknown)}")
        for key in ("kind", "r1", "r2", "lambda"):
            if key not in obj:
                raise ValidationError(f"modulation term is missing {key!r}")
        try:
            r1, r2, lam = float(obj["r1"]), float(obj["r2"]), float(obj["lambda"])
            pair_samples = int(obj.get("pair_samples", 4))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"modulation term has a non-numeric field: {exc}") from None
        return cls(kind=obj["kind"], r1=r1, r2=r2, lam=lam, pair_samples=pair_samples,
                   seed=obj.get("seed"))


@dataclass(frozen=True)
class OrderWeights:
    """Closed-form per-order weights of delta_u for one fraction band."""

    n: int
    r1: float
    r2: float
    weights: tuple[float, ...]


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


def order_weights(n: int, r1: float, r2: float) -> OrderWeights:
    """theorem2_weight at every order 0..n-2."""
    return OrderWeights(n=n, r1=r1, r2=r2,
                        weights=tuple(theorem2_weight(n, r1, r2, m) for m in range(n - 1)))


def _effective_ratio(s1: int, s2: int) -> float:
    # rounded sizes, not raw fractions: the expansion is exact only for s2/s1
    return s2 / s1 if s1 > 0 else 1.0


def _sample_pairs(n: int, s1: int, s2: int, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """(2, count) uint64 masks: row 0 holds each S1, row 1 the S2 around it."""
    pairs = np.empty((2, count), dtype=np.uint64)
    for p in range(count):
        outer = sample_subset((1 << n) - 1, s2, rng)
        pairs[:, p] = sample_subset(outer, s1, rng), outer
    return pairs


def _enumerate_pairs(n: int, s1: int, s2: int) -> np.ndarray:
    """Every nested pair, laid out as in _sample_pairs."""
    pairs = []
    for outer in itertools.combinations(range(n), s2):
        outer_bits = sum(1 << k for k in outer)
        for inner in itertools.combinations(outer, s1):
            pairs.append((sum(1 << k for k in inner), outer_bits))
    return np.array(pairs, dtype=np.uint64).T


def delta_u(game: ValueFunction, r1: float, r2: float, pair_samples: int, seed: int,
            x=None, exact: bool = False, cache: ValueCache | None = None) -> float:
    """Band-selective output difference E[v(S2) - (s2/s1) v(S1)].

    exact mode enumerates every nested pair (guarded to n <= 14) and ignores
    pair_samples and seed; otherwise pair_samples pairs are drawn from the
    stream of the given seed. At r1 = 0: E[v(S2)] - v(empty).
    """
    n = game.n
    s1, s2 = band_sizes(n, r1, r2)
    ratio = _effective_ratio(s1, s2)
    cache = cache if cache is not None else ValueCache(game, x)
    if exact:
        if n > MAX_EXACT_DELTA_U_PLAYERS:
            raise GuardError(
                f"exact pair enumeration is limited to n <= {MAX_EXACT_DELTA_U_PLAYERS}, "
                f"got n={n}")
        pairs = _enumerate_pairs(n, s1, s2)
    else:
        if pair_samples < 1:
            raise DomainError(f"pair_samples must be positive, got {pair_samples}")
        pairs = _sample_pairs(n, s1, s2, pair_samples, make_rng(seed))
    inner_vals = cache.values(pairs[0])
    outer_vals = cache.values(pairs[1])
    return float(np.mean(outer_vals - ratio * inner_vals))


def _band_delta_logits(model: MLP, X: np.ndarray, baseline: Baseline,
                       r1: float, r2: float, pair_samples: int, seed: int,
                       need_trace: bool):
    """Per-row, per-class delta_u matrix, plus what backward needs.

    For each row the same drawn pairs serve every class. Returns (delta,
    ratio, trace, logits_shape) where delta has shape (batch, classes);
    trace is None unless requested.
    """
    n = len(baseline)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise DomainError(f"batch must have shape (rows, {n}), got {X.shape}")
    s1, s2 = band_sizes(n, r1, r2)
    ratio = _effective_ratio(s1, s2)
    batch = len(X)
    # row b owns stack rows [2Pb, 2P(b+1)): its P inner masks, then its P outer ones
    bits = np.empty((batch, 2, pair_samples), dtype=np.uint64)
    for b in range(batch):
        bits[b] = _sample_pairs(n, s1, s2, pair_samples,
                                make_rng(child_seed(seed, _ROW_STREAM, b)))
    stacked = masked_matrix(np.repeat(X, 2 * pair_samples, axis=0), bits.reshape(-1), baseline)
    if need_trace:
        logits, trace = model.forward_trace(stacked)
    else:
        logits, trace = model.forward(stacked), None
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


def _encourage(model, X, y, r1, r2, pair_samples, seed, baseline, need_grad):
    delta, ratio, trace, shape = _band_delta_logits(
        model, X, baseline, r1, r2, pair_samples, seed, need_trace=need_grad)
    loss = cross_entropy(delta, y)
    if not np.isfinite(loss):
        raise NumericError(f"encouraging loss is not finite: {loss}")
    if not need_grad:
        return loss, None
    dlogits = _assemble_dlogits(cross_entropy_grad(delta, y), ratio, pair_samples, shape)
    grads = model.backward(trace, dlogits)
    grads.inputs = None  # gradient is w.r.t. the masked stack, not the batch
    return loss, grads


def _suppress(model, X, y, r1, r2, pair_samples, seed, baseline, need_grad):
    delta, ratio, trace, shape = _band_delta_logits(
        model, X, baseline, r1, r2, pair_samples, seed, need_trace=need_grad)
    probs = softmax(delta)
    plogp = xlogy(probs, probs)
    # negative entropy, averaged over the batch; minimum is -ln(classes)
    loss = float(plogp.sum(axis=1).mean())
    if not np.isfinite(loss):
        raise NumericError(f"suppressing loss is not finite: {loss}")
    if not need_grad:
        return loss, None
    ddelta = (plogp - probs * plogp.sum(axis=1, keepdims=True)) / len(delta)
    dlogits = _assemble_dlogits(ddelta, ratio, pair_samples, shape)
    grads = model.backward(trace, dlogits)
    grads.inputs = None  # gradient is w.r.t. the masked stack, not the batch
    return loss, grads


def loss_encourage(model: MLP, X, y, r1: float, r2: float, pair_samples: int,
                   seed: int, baseline: Baseline) -> float:
    """Cross-entropy of the labels against softmax over per-class delta_u."""
    return _encourage(model, X, y, r1, r2, pair_samples, seed, baseline, need_grad=False)[0]


def loss_suppress(model: MLP, X, y, r1: float, r2: float, pair_samples: int,
                  seed: int, baseline: Baseline) -> float:
    """Negative entropy of softmax over per-class delta_u (labels unused)."""
    return _suppress(model, X, y, r1, r2, pair_samples, seed, baseline, need_grad=False)[0]


def encourage_value_and_grad(model: MLP, X, y, r1: float, r2: float, pair_samples: int,
                             seed: int, baseline: Baseline) -> tuple[float, ParamGrads]:
    return _encourage(model, X, y, r1, r2, pair_samples, seed, baseline, need_grad=True)


def suppress_value_and_grad(model: MLP, X, y, r1: float, r2: float, pair_samples: int,
                            seed: int, baseline: Baseline) -> tuple[float, ParamGrads]:
    return _suppress(model, X, y, r1, r2, pair_samples, seed, baseline, need_grad=True)


def combined_loss(model: MLP, X, y, terms: Sequence[ModulationSpec],
                  seed: int, baseline: Baseline) -> float:
    return combined_value_and_grad(model, X, y, terms, seed, baseline, need_grad=False)[0]


def combined_value_and_grad(model: MLP, X, y, terms: Sequence[ModulationSpec],
                            seed: int, baseline: Baseline,
                            need_grad: bool = True) -> tuple[float, ParamGrads | None]:
    """Classification cross-entropy plus every weighted modulation term.

    Term t samples from its own pinned seed when the spec carries one,
    otherwise from a stream derived as (seed, t). Gradient accumulation
    follows the fixed term order.
    """
    X = np.asarray(X, dtype=float)
    if need_grad:
        total, grads = ce_value_and_grad(model, X, y)
    else:
        logits = model.forward(X)
        total, grads = cross_entropy(logits, y), None
    for t, spec in enumerate(terms):
        if spec.lam == 0:
            continue
        term_seed = spec.seed if spec.seed is not None else child_seed(seed, t)
        fn = _encourage if spec.kind == "encourage" else _suppress
        value, term_grads = fn(model, X, y, spec.r1, spec.r2, spec.pair_samples,
                               term_seed, baseline, need_grad)
        total += spec.lam * value
        if need_grad:
            grads.add_scaled(term_grads, spec.lam)
    return total, grads


def verify_theorem2(n: int, r1: float, r2: float, num_games: int, seed: int) -> float:
    """Max |delta_u - closed-form reconstruction| over random polynomial games.

    The reconstruction is (1 - s2/s1) v(empty) plus the weighted ordered-pair
    sum of exact per-order interactions, with weights from theorem2_weight.
    The pair sum must run over ordered pairs: collapsing to unordered pairs
    halves the interaction mass and leaves O(1) residuals.
    """
    if n > MAX_VERIFY_PLAYERS:
        raise GuardError(f"verification is limited to n <= {MAX_VERIFY_PLAYERS}, got n={n}")
    if r1 == 0:
        raise DomainError("verification needs r1 > 0; the expansion is undefined at r1=0")
    if num_games < 1:
        raise DomainError(f"num_games must be positive, got {num_games}")
    from .games import SyntheticGame, synthetic_game

    s1, s2 = band_sizes(n, r1, r2)
    ratio = _effective_ratio(s1, s2)
    weights = order_weights(n, r1, r2).weights
    worst = 0.0
    for g in range(num_games):
        spec = SyntheticGame.random_polynomial(
            n, degree=n, num_terms=2 * n + 5, seed=child_seed(seed, g))
        game = synthetic_game(spec)
        cache = ValueCache(game)
        measured = delta_u(game, r1, r2, pair_samples=1, seed=0, exact=True, cache=cache)
        recon = (1.0 - ratio) * cache.value(0)
        for m in range(n - 1):
            if weights[m] == 0.0:
                continue
            pair_sum = 0.0
            for i, j in itertools.combinations(range(n), 2):
                pair_sum += 2.0 * interaction_order_exact(game, i, j, m, cache=cache).value
            recon += weights[m] * pair_sum
        worst = max(worst, abs(measured - recon))
    return worst
