"""Tests for the projected-gradient attack."""
import numpy as np
import pytest

from interaction_lab import (
    MLP,
    AttackConfig,
    TrainConfig,
    ValidationError,
    adversarial_accuracy,
    make_pairwise_task,
    make_rng,
    pgd_attack,
    train,
)


def _trained():
    ds = make_pairwise_task(200, 6, 3, seed=14)
    cfg = TrainConfig(epochs=15, batch_size=16, learning_rate=0.1, seed=1,
                      hidden_sizes=(16,))
    model, _ = train(cfg, ds)
    # reconstruct the standardized validation view the model expects
    mean = np.array(model.meta["feature_mean"])
    std = np.array(model.meta["feature_std"])
    X = (ds.features - mean) / std
    return model, X, ds.labels


def test_attack_config_validation():
    AttackConfig(epsilon=0.3, steps=0, step_size=0.01)
    with pytest.raises(ValidationError):
        AttackConfig(epsilon=0.0, steps=10, step_size=0.01)
    with pytest.raises(ValidationError):
        AttackConfig(epsilon=0.3, steps=-1, step_size=0.01)
    with pytest.raises(ValidationError):
        AttackConfig(epsilon=0.3, steps=10, step_size=0.0)


def test_zero_steps_returns_input_unchanged():
    model, X, y = _trained()
    cfg = AttackConfig(epsilon=0.3, steps=0, step_size=0.01)
    adv = pgd_attack(model, X[:8], y[:8], cfg)
    assert np.array_equal(adv, X[:8])


def test_attack_respects_budget_exactly():
    model, X, y = _trained()
    cfg = AttackConfig(epsilon=0.25, steps=40, step_size=0.02)
    adv = pgd_attack(model, X[:32], y[:32], cfg)
    gap = np.abs(adv - X[:32]).max()
    assert gap <= 0.25 + 1e-12
    # enough steps to walk to the boundary somewhere
    assert gap > 0.2


def test_attack_is_deterministic():
    model, X, y = _trained()
    cfg = AttackConfig(epsilon=0.3, steps=20, step_size=0.01)
    a = pgd_attack(model, X[:16], y[:16], cfg)
    b = pgd_attack(model, X[:16], y[:16], cfg)
    assert np.array_equal(a, b)


def test_attack_degrades_accuracy():
    model, X, y = _trained()
    clean_logits = model.forward(X)
    clean = (clean_logits.argmax(axis=1) == y).mean() * 100
    cfg = AttackConfig(epsilon=0.5, steps=30, step_size=0.05)
    attacked = adversarial_accuracy(model, X, y, cfg)
    assert 0.0 <= attacked <= 100.0
    assert attacked < clean


def test_adversarial_accuracy_on_plain_pair():
    model = MLP((4, 2), seed=0)
    X = make_rng(3).normal(size=(10, 4))
    y = np.zeros(10, dtype=int)
    cfg = AttackConfig(epsilon=0.1, steps=0, step_size=0.01)
    val = adversarial_accuracy(model, X, y, cfg)
    logits = model.forward(X)
    assert val == pytest.approx((logits.argmax(axis=1) == 0).mean() * 100)
