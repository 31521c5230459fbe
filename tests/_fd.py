"""Central finite-difference checks of an MLP's parameter gradients.

A model's parameters are read and written as one flat vector in layer
order, each layer's weights (row-major) followed by its biases; a
ParamGrads flattens the same way.
"""
import numpy as np
import pytest


def _params(model_or_grads) -> list[np.ndarray]:
    return [a for w, b in zip(model_or_grads.weights, model_or_grads.biases) for a in (w, b)]


def get_flat_params(model) -> np.ndarray:
    return np.concatenate([a.ravel() for a in _params(model)])


def set_flat_params(model, vec: np.ndarray) -> None:
    offset = 0
    for a in _params(model):
        a[...] = vec[offset:offset + a.size].reshape(a.shape)
        offset += a.size


def flatten_grads(grads) -> np.ndarray:
    return np.concatenate([np.asarray(a).ravel() for a in _params(grads)])


def fd_check(model, loss_fn, grads, *, stride, eps, rel, abs):
    """Every stride-th entry of grads against (loss(theta + eps) - loss(theta - eps)) / 2 eps.

    loss_fn() evaluates the loss at the model's current parameters; the
    model's parameters are restored after each entry.
    """
    theta = get_flat_params(model)
    flat = flatten_grads(grads)
    for idx in range(0, theta.size, stride):
        losses = []
        for step in (eps, -eps):
            vec = theta.copy()
            vec[idx] += step
            set_flat_params(model, vec)
            losses.append(loss_fn())
        set_flat_params(model, theta)
        fd = (losses[0] - losses[1]) / (2 * eps)
        assert flat[idx] == pytest.approx(fd, rel=rel, abs=abs), f"index {idx}"
