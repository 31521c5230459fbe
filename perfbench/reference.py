"""Reference computations made apart from the program under test.

Nothing here imports interaction_lab. Models are read from their JSON files
and evaluated with plain numpy; interaction values come from the full 2^n
masked value table or from closed forms. The benchmark compares the program's
outputs with these numbers after the timed part of a run.
"""
from __future__ import annotations

import json
from math import comb, sqrt

import numpy as np


# ---------------------------------------------------------------- models

class Model:
    """A saved MLP: ReLU hidden layers, identity output, plus its input scaling."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        self.weights = [np.asarray(w, dtype=float) for w in obj["weights"]]
        self.biases = [np.asarray(b, dtype=float) for b in obj["biases"]]
        meta = obj.get("meta", {})
        self.mean = np.asarray(meta["feature_mean"], dtype=float)
        self.std = np.asarray(meta["feature_std"], dtype=float)

    def inputs(self, features: np.ndarray) -> np.ndarray:
        """Raw features mapped into the space the model was trained in."""
        return (np.asarray(features, dtype=float) - self.mean) / self.std

    def forward(self, X: np.ndarray, keep: bool = False):
        """Logits; with keep, also every layer's pre-activation."""
        h = X
        pre = []
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre.append(z)
            h = z if layer == len(self.weights) - 1 else np.maximum(z, 0.0)
        return (h, pre) if keep else h

    def input_grad(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """d(mean cross-entropy)/d(X), by backpropagation."""
        logits, pre = self.forward(X, keep=True)
        g = _softmax(logits)
        g[np.arange(len(y)), y] -= 1.0
        g /= len(y)
        for layer in range(len(self.weights) - 1, -1, -1):
            dh = g @ self.weights[layer].T
            if layer > 0:
                g = dh * (pre[layer - 1] > 0.0)
        return dh


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_and_accuracy(model: Model, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    logits = model.forward(X)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ce = float(-logp[np.arange(len(y)), y].mean())
    acc = float((logits.argmax(axis=1) == y).mean())
    return ce, acc


def pgd_accuracy(model: Model, X: np.ndarray, y: np.ndarray, eps: float, steps: int,
                 step_size: float) -> float:
    """Percent of rows still classified correctly after L-inf PGD from the clean point."""
    adv = X.copy()
    for _ in range(steps):
        adv = np.clip(adv + step_size * np.sign(model.input_grad(adv, y)), X - eps, X + eps)
    return 100.0 * float((model.forward(adv).argmax(axis=1) == y).mean())


# ---------------------------------------------------------------- value tables

def _popcounts(n: int) -> np.ndarray:
    """Number of members of every coalition of n players, indexed by bitmask."""
    bits = np.arange(1 << n, dtype=np.int64)
    count = np.zeros(1 << n, dtype=np.int64)
    for k in range(n):
        count += (bits >> k) & 1
    return count


def log_odds_table(model: Model, x: np.ndarray, target: int, chunk: int = 1 << 15) -> np.ndarray:
    """v(S) for every coalition S (index = bitmask), masking to the zero baseline."""
    n = len(x)
    players = np.arange(n)
    table = np.empty(1 << n)
    for start in range(0, 1 << n, chunk):
        bits = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        rows = np.where((bits[:, None] >> players) & 1 == 1, x, 0.0)
        logits = model.forward(rows)
        others = np.delete(logits, target, axis=1)
        top = others.max(axis=1)
        table[start:start + len(bits)] = logits[:, target] - (
            top + np.log(np.exp(others - top[:, None]).sum(axis=1)))
    return table


def pair_order_moments(table: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-pair, per-order mean and variance of the second-order difference.

    Returns two (pairs, n - 1) arrays, pairs in lexicographic (i < j) order;
    the variance is over all contexts of that order (population variance).
    The table is viewed as an n-dimensional 2x...x2 cube (axis a holds player
    n - 1 - a), so fixing the pair's two axes leaves every context in bitmask
    order of the other players, whose popcounts are the same for every pair.
    """
    cube = table.reshape((2,) * n)
    order = _popcounts(n - 2)
    counts = np.array([comb(n - 2, m) for m in range(n - 1)], dtype=float)

    def corner(lo, hi, with_lo, with_hi):
        index = [slice(None)] * n
        index[n - 1 - lo] = with_lo
        index[n - 1 - hi] = with_hi
        return cube[tuple(index)]

    means, variances = [], []
    for lo in range(n):
        for hi in range(lo + 1, n):
            d = ((corner(lo, hi, 1, 1) + corner(lo, hi, 0, 0))
                 - (corner(lo, hi, 1, 0) + corner(lo, hi, 0, 1))).ravel()
            mean = np.bincount(order, weights=d, minlength=n - 1) / counts
            square = np.bincount(order, weights=d * d, minlength=n - 1) / counts
            means.append(mean)
            variances.append(np.maximum(square - mean * mean, 0.0))
    return np.array(means), np.array(variances)


def profile_bounds(moments: list[tuple[np.ndarray, np.ndarray]], pair_budget: int,
                   samples: int, n: int) -> list[tuple[float, float]]:
    """Reference strength per order and the tolerance a correct estimate meets.

    moments holds one (means, variances) pair per analyzed row. For each order
    m the reference is the mean over rows of the mean |I_m| over all pairs.
    An order whose context budget covers every context is enumerated: its
    tolerance is 1e-9 relative. Otherwise the tolerance adds
      - the worst deviation any choice of pair_budget pairs can make,
      - the bias bound E|I_hat| - |I| <= SE per pair, and
      - six standard errors of the context sampling noise,
    where SE = sd/sqrt(samples) uses the exact context variance. Returns
    (reference, tolerance) per order.
    """
    out = []
    rows = len(moments)
    for m in range(n - 1):
        enumerated = samples >= comb(n - 2, m)
        ref = 0.0
        spread = 0.0
        bias = 0.0
        noise = 0.0
        for means, variances in moments:
            magnitude = np.abs(means[:, m])
            ref += magnitude.mean() / rows
            k = min(pair_budget, len(magnitude))
            ordered = np.sort(magnitude)
            spread += max(ordered[-k:].mean() - magnitude.mean(),
                          magnitude.mean() - ordered[:k].mean()) / rows
            if not enumerated:
                se = np.sqrt(variances[:, m] / samples)
                bias += se.mean() / rows
                noise += float(np.mean(se * se)) / k / rows ** 2
        tolerance = 1e-9 * abs(ref) + spread + bias + 6.0 * sqrt(noise)
        out.append((float(ref), float(tolerance)))
    return out


# ---------------------------------------------------------------- closed forms

def polynomial_interaction(terms, n: int, i: int, j: int, m: int) -> float:
    """I_m(i, j) = sum over terms T containing i and j of c_T C(n-|T|, m-|T|+2) / C(n-2, m)."""
    total = 0.0
    for coalition, coeff in terms:
        size = len(coalition)
        if i in coalition and j in coalition and m - size + 2 >= 0:
            total += coeff * comb(n - size, m - size + 2)
    return total / comb(n - 2, m)


def efficiency_parts(terms, n: int) -> tuple[float, float, float, list[float]]:
    """v(full), v(empty), the independent-effect sum and w(m) * ordered-pair sums."""
    full = sum(c for _, c in terms)
    empty = sum(c for t, c in terms if not t)
    independent = sum(c for t, c in terms if len(t) == 1)
    per_order = []
    for m in range(n - 1):
        weight = (n - 1 - m) / (n * (n - 1))
        pair_sum = sum(polynomial_interaction(terms, n, i, j, m)
                       for i in range(n) for j in range(i + 1, n))
        per_order.append(2.0 * weight * pair_sum)
    return full, empty, independent, per_order


def learning_strength(n: int, m: int) -> float:
    """f_hat(m) = (n - m - 1) / (n - 1) / sqrt(C(n - 2, m))."""
    return (n - m - 1) / (n - 1) / sqrt(comb(n - 2, m))
