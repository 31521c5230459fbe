"""Tests for band-selective output differences and the modulation losses."""
import math

import numpy as np
import pytest

from interaction_lab import (
    MLP,
    Baseline,
    DomainError,
    ModulationSpec,
    SyntheticGame,
    ValidationError,
    band_sizes,
    ce_value_and_grad,
    combined_loss,
    combined_value_and_grad,
    delta_u,
    encourage_value_and_grad,
    flatten_grads,
    get_flat_params,
    loss_encourage,
    loss_suppress,
    make_rng,
    order_weights,
    round_half_up,
    set_flat_params,
    suppress_value_and_grad,
    synthetic_game,
    theorem2_weight,
    verify_theorem2,
)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4) == 2
    assert round_half_up(2.6) == 3
    assert round_half_up(0.0) == 0


def test_band_sizes():
    assert band_sizes(10, 0.2, 0.5) == (2, 5)
    assert band_sizes(12, 0.3, 0.7) == (4, 8)
    assert band_sizes(12, 0.0, 0.5) == (0, 6)
    with pytest.raises(ValidationError):
        band_sizes(10, 0.5, 0.2)
    with pytest.raises(ValidationError):
        band_sizes(10, 0.5, 0.5)
    # distinct fractions that round to the same size are unusable
    with pytest.raises(ValidationError):
        band_sizes(3, 0.5, 0.6)
    with pytest.raises(DomainError):
        band_sizes(1, 0.2, 0.8)


def test_modulation_spec_validation():
    spec = ModulationSpec(kind="encourage", r1=0.3, r2=0.7, lam=1.0)
    assert spec.pair_samples == 4
    with pytest.raises(ValidationError):
        ModulationSpec(kind="boost", r1=0.3, r2=0.7, lam=1.0)
    with pytest.raises(ValidationError):
        ModulationSpec(kind="suppress", r1=0.7, r2=0.3, lam=1.0)
    with pytest.raises(ValidationError):
        ModulationSpec(kind="suppress", r1=0.3, r2=0.7, lam=-1.0)
    with pytest.raises(ValidationError):
        ModulationSpec(kind="suppress", r1=0.3, r2=0.7, lam=1.0, pair_samples=0)


def test_modulation_spec_json_round_trip():
    spec = ModulationSpec(kind="suppress", r1=0.7, r2=1.0, lam=2.0, pair_samples=8, seed=5)
    again = ModulationSpec.from_json_dict(spec.to_json_dict())
    assert again == spec
    with pytest.raises(ValidationError):
        ModulationSpec.from_json_dict({"kind": "suppress", "r1": 0, "r2": 1,
                                       "lambda": 1, "alpha": 2})
    with pytest.raises(ValidationError):
        ModulationSpec.from_json_dict({"kind": "suppress", "r1": 0, "r2": 1})


def test_theorem2_weight_reference_points():
    assert theorem2_weight(10, 0.2, 0.5, 0) == pytest.approx(1 / 60)
    assert theorem2_weight(10, 0.2, 0.5, 2) == pytest.approx(2 / 90)
    assert theorem2_weight(10, 0.2, 0.5, 5) == 0.0


def test_theorem2_weight_band_structure():
    n, r1, r2 = 12, 0.3, 0.7
    s1, s2 = band_sizes(n, r1, r2)
    w = order_weights(n, r1, r2).weights
    assert len(w) == n - 1
    for m in range(n - 1):
        if m <= s2 - 2:
            assert w[m] > 0.0
        else:
            assert w[m] == 0.0
    # the ramp grows to m = s1 - 1 and decays linearly after
    assert w[s1 - 1] == max(w)


def test_theorem2_weight_guards():
    with pytest.raises(DomainError):
        theorem2_weight(10, 0.0, 0.5, 1)
    with pytest.raises(DomainError):
        theorem2_weight(10, 0.2, 0.5, 9)


def test_delta_u_additive_cancellation():
    game = synthetic_game(SyntheticGame.additive([1.0, 2.0, 3.0, 4.0]))
    val = delta_u(game, 0.5, 1.0, pair_samples=1, seed=0, exact=True)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_delta_u_conjunction_enumeration():
    """v(S2)=1 always at s2=4; exactly 1 of 6 inner pairs hits the coalition."""
    game = synthetic_game(SyntheticGame.conjunction(4, [0, 1]))
    val = delta_u(game, 0.5, 1.0, pair_samples=1, seed=0, exact=True)
    assert val == pytest.approx(1.0 - 2.0 * (1 / 6))


def test_delta_u_zero_lower_fraction_convention():
    # at r1=0 the coefficient is 1 and the inner term is v(empty)
    game = synthetic_game(SyntheticGame.additive([1.0, 2.0, 3.0, 4.0]))
    val = delta_u(game, 0.0, 0.5, pair_samples=1, seed=0, exact=True)
    assert val == pytest.approx((2 / 4) * 10.0)


def test_delta_u_exact_ignores_seed_and_sampling_converges():
    spec = SyntheticGame.random_polynomial(8, 3, 12, seed=6)
    game = synthetic_game(spec)
    exact = delta_u(game, 0.25, 0.75, pair_samples=1, seed=1, exact=True)
    assert delta_u(game, 0.25, 0.75, pair_samples=1, seed=99, exact=True) == exact
    sampled = delta_u(game, 0.25, 0.75, pair_samples=4000, seed=3)
    assert sampled == pytest.approx(exact, abs=0.1)
    assert delta_u(game, 0.25, 0.75, pair_samples=16, seed=3) == \
        delta_u(game, 0.25, 0.75, pair_samples=16, seed=3)


def test_band_losses_constant_model():
    """A constant model gives delta = (1 - s2/s1) * bias for every class."""
    n = 6
    model = MLP((n, 2), seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = (1.5, -2.0)
    base = Baseline.zeros(n)
    s1, s2 = band_sizes(n, 1 / 3, 5 / 6)
    delta = (1.0 - s2 / s1) * np.array([1.5, -2.0])
    probs = np.exp(delta) / np.exp(delta).sum()
    X = np.ones((2, n))
    assert loss_encourage(model, X, [0, 1], 1 / 3, 5 / 6, 4, 0, base) == \
        pytest.approx(-np.log(probs).mean())
    assert loss_suppress(model, X, [0, 1], 1 / 3, 5 / 6, 4, 0, base) == \
        pytest.approx((probs * np.log(probs)).sum())
    with pytest.raises(DomainError):
        loss_encourage(model, X, [0, 2], 1 / 3, 5 / 6, 4, 0, base)


def test_band_losses_share_pairs_across_classes():
    """Duplicate output columns must yield identical per-class values."""
    n = 5
    model = MLP((n, 4, 2), seed=3)
    model.weights[-1][:, 1] = model.weights[-1][:, 0]
    model.biases[-1][1] = model.biases[-1][0]
    base = Baseline.zeros(n)
    X = make_rng(4).normal(size=(1, n))
    # equal deltas make a uniform softmax, whose negative entropy is -ln 2
    assert loss_suppress(model, X, [0], 0.4, 0.8, 6, 17, base) == math.log(0.5)


def _fixture(n=6, classes=3, batch=4, seed=12):
    model = MLP((n, 7, classes), seed=seed)
    rng = make_rng(seed, 1)
    for b in model.biases:
        b += rng.normal(0.0, 0.05, size=b.shape)
    X = rng.normal(size=(batch, n))
    y = rng.integers(0, classes, size=batch)
    return model, X, y, Baseline.zeros(n)


def test_loss_encourage_uniform_and_saturated():
    n = 6
    base = Baseline.zeros(n)
    X = np.ones((3, n))
    flat = MLP((n, 2), seed=0)
    for w in flat.weights:
        w[:] = 0.0
    assert loss_encourage(flat, X, [0, 1, 0], 0.5, 1.0, 2, 0, base) == \
        pytest.approx(math.log(2.0))
    # constant logits (20, -20) with ratio 2 give saturated class-1 deltas
    flat.biases[-1][:] = (20.0, -20.0)
    assert loss_encourage(flat, X, [1, 1, 1], 0.5, 1.0, 2, 0, base) < 1e-8


def test_loss_suppress_bounds():
    model, X, y, base = _fixture()
    val = loss_suppress(model, X, y, 0.3, 0.7, 3, 5, base)
    assert -math.log(3.0) <= val <= 0.0
    flat = MLP((6, 3), seed=0)
    for w in flat.weights:
        w[:] = 0.0
    uniform = loss_suppress(flat, X[:, :6], y, 0.3, 0.7, 3, 5, base)
    assert uniform == pytest.approx(-math.log(3.0))


def test_loss_encourage_nonnegative():
    model, X, y, base = _fixture(seed=21)
    assert loss_encourage(model, X, y, 0.3, 0.7, 3, 9, base) >= 0.0


def _fd_check(model, loss_fn, grads, stride=5, eps=1e-4, tol=1e-4):
    theta = get_flat_params(model)
    flat = flatten_grads(grads)
    for idx in range(0, theta.size, stride):
        vec = theta.copy()
        vec[idx] += eps
        set_flat_params(model, vec)
        up = loss_fn()
        vec[idx] -= 2 * eps
        set_flat_params(model, vec)
        dn = loss_fn()
        set_flat_params(model, theta)
        fd = (up - dn) / (2 * eps)
        assert flat[idx] == pytest.approx(fd, rel=tol, abs=1e-8)


def test_encourage_gradient_matches_fd():
    model, X, y, base = _fixture(seed=31)
    _, grads = encourage_value_and_grad(model, X, y, 0.3, 0.7, 2, 7, base)
    _fd_check(model, lambda: loss_encourage(model, X, y, 0.3, 0.7, 2, 7, base), grads)


def test_suppress_gradient_matches_fd():
    model, X, y, base = _fixture(seed=32)
    _, grads = suppress_value_and_grad(model, X, y, 0.7, 1.0, 2, 8, base)
    _fd_check(model, lambda: loss_suppress(model, X, y, 0.7, 1.0, 2, 8, base), grads)


def test_suppress_gradient_matches_fd_zero_lower_band():
    # r1=0 puts every inner subset at the empty mask; still differentiable
    model, X, y, base = _fixture(seed=33)
    _, grads = suppress_value_and_grad(model, X, y, 0.0, 0.5, 2, 9, base)
    _fd_check(model, lambda: loss_suppress(model, X, y, 0.0, 0.5, 2, 9, base), grads)


def test_combined_loss_degenerate_and_linear():
    model, X, y, base = _fixture(seed=41)
    zero_terms = (ModulationSpec(kind="encourage", r1=0.3, r2=0.7, lam=0.0),)
    plain, _ = ce_value_and_grad(model, X, y)
    assert combined_loss(model, X, y, zero_terms, 5, base) == pytest.approx(plain)

    pinned = (ModulationSpec(kind="encourage", r1=0.3, r2=0.7, lam=1.0,
                             pair_samples=3, seed=77),)
    total = combined_loss(model, X, y, pinned, 5, base)
    separate = plain + loss_encourage(model, X, y, 0.3, 0.7, 3, 77, base)
    assert total == pytest.approx(separate)


def test_combined_gradient_matches_fd_and_keeps_input_grads():
    model, X, y, base = _fixture(seed=42)
    terms = (ModulationSpec(kind="encourage", r1=0.3, r2=0.7, lam=0.5, pair_samples=2),
             ModulationSpec(kind="suppress", r1=0.7, r2=1.0, lam=0.25, pair_samples=2))
    _, grads = combined_value_and_grad(model, X, y, terms, 13, base)
    _fd_check(model, lambda: combined_loss(model, X, y, terms, 13, base), grads,
              stride=7)
    # modulation terms rewrite the batch, so input grads are the plain-CE ones
    _, ce_grads = ce_value_and_grad(model, X, y)
    assert np.array_equal(grads.inputs, ce_grads.inputs)


def test_verify_theorem2_small_bands():
    assert verify_theorem2(6, 2 / 6, 5 / 6, num_games=5, seed=0) < 1e-10
    assert verify_theorem2(8, 0.25, 0.75, num_games=5, seed=1) < 1e-8
    with pytest.raises(DomainError):
        verify_theorem2(6, 0.0, 0.5, num_games=2, seed=0)
    with pytest.raises(DomainError):
        verify_theorem2(6, 1 / 3, 5 / 6, num_games=0, seed=0)
