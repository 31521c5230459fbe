"""Untargeted L-infinity PGD and the accuracy-under-attack metric.

The attack maximizes cross-entropy by signed gradient steps, clipping back
into the epsilon box around the clean input after every step. It is fully
deterministic: the start point is the clean input itself (no random
restarts), and sign(0) is 0, so a flat model is a fixed point. Each step
runs one forward pass and backpropagates the cross-entropy gradient to the
input only (MLP.input_gradient); it computes no loss value and no parameter
gradient. Adversarial points are not clamped to any data range; standardized
tabular features are unbounded, so the epsilon box is the only constraint.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ValidationError
from .mlp import MLP, accuracy, cross_entropy_grad


@dataclass(frozen=True)
class AttackConfig:
    """L-inf budget, iteration count, and per-step size, in feature units."""

    epsilon: float
    steps: int
    step_size: float

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValidationError(f"step_size must be positive, got {self.step_size}")


def pgd_attack(model: MLP, x, y, cfg: AttackConfig) -> np.ndarray:
    """Adversarial version of the (rows, features) batch x.

    Every output satisfies ||x_adv - x||_inf <= epsilon exactly. steps=0
    returns the input unchanged. Non-finite logits raise NumericError.
    """
    x0 = np.asarray(x, dtype=float)
    labels = np.asarray(y, dtype=int)
    if len(labels) != len(x0):
        raise DomainError(f"{len(labels)} labels for {len(x0)} rows")
    lo, hi = x0 - cfg.epsilon, x0 + cfg.epsilon
    adv = x0.copy()
    for _ in range(cfg.steps):
        logits, trace = model.forward_trace(adv)
        if not np.isfinite(logits).all():
            raise NumericError("logits are not finite during the attack")
        grad = model.input_gradient(trace, cross_entropy_grad(logits, labels))
        adv = np.clip(adv + cfg.step_size * np.sign(grad), lo, hi)
    return adv


def adversarial_accuracy(model: MLP, X, y, cfg: AttackConfig) -> float:
    """Percentage of rows still classified correctly after the attack.

    X must already live in the model's input space.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(X) == 0:
        raise DomainError("evaluation set must not be empty")
    adv = pgd_attack(model, X, y, cfg)
    return 100.0 * accuracy(model.forward(adv), y)
