"""Small dense ReLU classifier with hand-derived reverse-mode gradients.

Hidden layers use ReLU (subgradient 0 at the kink, for determinism), the
output layer is identity, so the network emits raw class logits. Gradients
are computed by explicit backpropagation rather than an autodiff framework,
and each backward pass computes only what its caller reads: backward gives
the parameter gradients (training) and input_gradient the gradient with
respect to the batch (attacks). The library's three losses,
ce_value_and_grad, band_value_and_grad and combined_value_and_grad, and the
input gradient are finite-difference checked against this implementation,
so keep forward, backward and input_gradient in lockstep when editing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, NumericError, SchemaError, ValidationError
from .games import MAX_ARRAY_ITEMS
from .rng import make_rng
from .textio import read_json_object

MODEL_FORMAT_VERSION = 1


@dataclass
class ParamGrads:
    """Gradient of a scalar loss with respect to every weight and bias."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def _checked_sizes(layer_sizes: Sequence[int]) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValidationError(f"need at least input and output layers, got {sizes}")
    if any(s < 1 for s in sizes):
        raise ValidationError(f"layer sizes must be positive, got {sizes}")
    if any(a * b > MAX_ARRAY_ITEMS for a, b in zip(sizes, sizes[1:])):
        raise DomainError(f"layer sizes {sizes} give weights beyond numpy's index range")
    return sizes


class MLP:
    """Feed-forward network: X @ W + b per layer, ReLU between, logits out."""

    def __init__(self, layer_sizes: Sequence[int], seed: int = 0):
        sizes = _checked_sizes(layer_sizes)
        self.layer_sizes = sizes
        self.seed = int(seed)
        self.meta: dict = {}
        rng = make_rng(self.seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            limit = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @classmethod
    def from_params(cls, layer_sizes: Sequence[int], weights: Sequence[np.ndarray],
                    biases: Sequence[np.ndarray], seed: int = 0) -> "MLP":
        """A model holding copies of the given parameters.

        Every count and shape is checked against layer_sizes before anything
        is allocated, so a file that declares huge layers fails at once.
        """
        sizes = _checked_sizes(layer_sizes)
        if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
            raise DimensionError("parameter list lengths do not match the architecture")
        weights = [np.array(w, dtype=float) for w in weights]
        biases = [np.array(b, dtype=float) for b in biases]
        for l, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != sizes[l:l + 2] or b.shape != sizes[l + 1:l + 2]:
                raise DimensionError(
                    f"layer {l} expects shapes {sizes[l:l + 2]}/"
                    f"{sizes[l + 1:l + 2]}, got {w.shape}/{b.shape}")
        model = cls.__new__(cls)
        model.layer_sizes, model.seed, model.meta = sizes, int(seed), {}
        model.weights, model.biases = weights, biases
        return model

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def num_features(self) -> int:
        return self.layer_sizes[0]

    def _check_input(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.num_features:
            raise DimensionError(
                f"expected input of shape (rows, {self.num_features}), got {X.shape}")
        return X

    def forward(self, X) -> np.ndarray:
        """Logits for a (rows, features) batch."""
        h = self._check_input(X)
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if l != last:
                h = np.maximum(h, 0.0)
        return h

    def forward_trace(self, X):
        """Logits plus the per-layer inputs and pre-activations backward needs."""
        h = self._check_input(X)
        inputs = []
        pre = []
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            z = h @ w + b
            pre.append(z)
            h = np.maximum(z, 0.0) if l != last else z
        return h, (inputs, pre)

    def backward(self, trace, dlogits: np.ndarray) -> ParamGrads:
        """Parameter gradients from d(loss)/d(logits) and the trace of forward_trace.

        The chain stops at layer 0's pre-activation: the input gradient is
        input_gradient's job.
        """
        inputs, pre = trace
        dz = _checked_dlogits(pre, dlogits)
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        for l in range(len(self.weights) - 1, -1, -1):
            grads_w[l] = inputs[l].T @ dz
            grads_b[l] = dz.sum(axis=0)
            if l > 0:
                dz = (dz @ self.weights[l].T) * (pre[l - 1] > 0.0)
        return ParamGrads(weights=grads_w, biases=grads_b)

    def input_gradient(self, trace, dlogits: np.ndarray) -> np.ndarray:
        """d(loss)/d(X) from d(loss)/d(logits) and the trace of forward_trace.

        Runs only the chain through the weights, in backward's op order, and
        computes no parameter gradient.
        """
        _, pre = trace
        dz = _checked_dlogits(pre, dlogits)
        for l in range(len(self.weights) - 1, -1, -1):
            dh = dz @ self.weights[l].T
            if l > 0:
                dz = dh * (pre[l - 1] > 0.0)
        return dh


def _checked_dlogits(pre: list[np.ndarray], dlogits) -> np.ndarray:
    dz = np.asarray(dlogits, dtype=float)
    if dz.shape != pre[-1].shape:
        raise DimensionError(
            f"dlogits shape {dz.shape} does not match logits shape {pre[-1].shape}")
    return dz


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _check_labels(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) != len(logits):
        raise DimensionError(
            f"labels shape {labels.shape} does not match {len(logits)} logit rows")
    if len(labels) == 0:
        raise ValidationError("need at least one row")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise DomainError(f"labels must lie in [0, {logits.shape[1]})")
    return labels.astype(int)


def cross_entropy(logits: np.ndarray, labels) -> float:
    """Mean negative log-likelihood of the labels under softmax(logits)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    labels = _check_labels(logits, labels)
    picked = log_softmax(logits)[np.arange(len(labels)), labels]
    return float(-picked.mean())


def cross_entropy_grad(logits: np.ndarray, labels) -> np.ndarray:
    """d(mean CE)/d(logits): (softmax - onehot) / rows."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    labels = _check_labels(logits, labels)
    g = softmax(logits)
    g[np.arange(len(labels)), labels] -= 1.0
    return g / len(labels)


def accuracy(logits: np.ndarray, labels) -> float:
    """Fraction of rows whose argmax logit equals the label (first index on ties)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    labels = _check_labels(logits, labels)
    return float((logits.argmax(axis=1) == labels).mean())


def _checked_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its logits gradient; a non-finite loss raises."""
    loss = cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise NumericError(f"cross-entropy is not finite: {loss}")
    return loss, cross_entropy_grad(logits, labels)


def ce_value_and_grad(model: MLP, X, labels) -> tuple[float, ParamGrads]:
    """Plain classification loss and its exact parameter gradient."""
    logits, trace = model.forward_trace(X)
    loss, dlogits = _checked_cross_entropy(logits, labels)
    return loss, model.backward(trace, dlogits)


def save_model(path, model: MLP, meta=None) -> None:
    """JSON with layer sizes, parameters, and init seed; round-trips bit-exactly.

    Extra provenance (config hash, seed of the producing run, preprocessing
    stats) goes under the "meta" key and is restored onto model.meta on load.
    """
    obj = {
        "version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "seed": model.seed,
    }
    merged = dict(model.meta)
    if meta:
        merged.update(meta)
    if merged:
        obj["meta"] = merged
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8", newline="")


def load_model(path) -> MLP:
    obj = read_json_object(path, "model")
    version = obj.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise SchemaError(
            f"model format version {version!r} is not supported "
            f"(expected {MODEL_FORMAT_VERSION})")
    for key in ("layer_sizes", "weights", "biases", "seed"):
        if key not in obj:
            raise SchemaError(f"model file is missing the {key!r} field")
    try:
        weights = [np.asarray(w, dtype=float) for w in obj["weights"]]
        biases = [np.asarray(b, dtype=float) for b in obj["biases"]]
        model = MLP.from_params(obj["layer_sizes"], weights, biases, seed=int(obj["seed"]))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed model parameters: {exc}") from None
    for arr in (*model.weights, *model.biases):
        if not np.all(np.isfinite(arr)):
            raise SchemaError("model parameters must all be finite")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError("model meta must be a JSON object")
    model.meta = meta
    return model
