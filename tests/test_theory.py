"""Tests for the closed-form curve and the gradient simulator."""
import math

import numpy as np
import pytest

from interaction_lab import (
    DomainError,
    GradSimConfig,
    GuardError,
    OrderProfile,
    ValidationError,
    contextual_variability,
    fit_effective_n,
    learning_strength_hat,
    mean_norm_gaussian,
    predicted_update_norm,
    simulate_curve,
    simulate_learning_strength,
    theory_curve,
    write_theory_csv,
)
from interaction_lab.textio import read_csv
from interaction_lab.theory import THEORY_HEADER


def test_contextual_variability_matches_comb():
    for n in (2, 5, 12):
        for m in range(n - 1):
            assert contextual_variability(n, m) == math.comb(n - 2, m)
    with pytest.raises(DomainError):
        contextual_variability(5, 4)
    with pytest.raises(DomainError):
        contextual_variability(5, -1)
    with pytest.raises(DomainError):
        contextual_variability(1, 0)


def test_learning_strength_hat_values():
    assert learning_strength_hat(6, 0) == 1.0
    # (n-m-1)/(n-1) / sqrt(C(n-2, m)) spelled out for a couple of points
    assert learning_strength_hat(6, 2) == pytest.approx((3 / 5) / math.sqrt(6))
    assert learning_strength_hat(10, 8) == pytest.approx((1 / 9) / math.sqrt(1))


def test_theory_curve_grid_and_normalization():
    curve = theory_curve(9)
    assert curve.orders == tuple(range(8))
    assert curve.f_hat[0] == 1.0
    assert len(curve.f_hat) == 8
    with pytest.raises(DomainError):
        theory_curve(2)


def test_curve_is_u_shaped_for_moderate_n():
    # band ends rounded to grid orders; at n=9 the dip sits at m=5, a hair
    # past the continuous 2(n-2)/3 bound but still well clear of both ends
    for n in range(8, 33):
        curve = theory_curve(n)
        m_star = curve.orders[int(np.argmin(curve.f_hat))]
        assert round((n - 2) / 3) <= m_star <= round(2 * (n - 2) / 3)
        assert 1 < m_star < n - 3


def test_mean_norm_gaussian_known_dimensions():
    # E||z|| in 1d is scale*sqrt(2/pi); in 2d scale*sqrt(pi/2); in 3d 2*scale*sqrt(2/pi)
    assert mean_norm_gaussian(1, 2.0) == pytest.approx(2.0 * math.sqrt(2 / math.pi))
    assert mean_norm_gaussian(2, 1.0) == pytest.approx(math.sqrt(math.pi / 2))
    assert mean_norm_gaussian(3, 1.0) == pytest.approx(2 * math.sqrt(2 / math.pi))
    assert mean_norm_gaussian(4, 0.0) == 0.0
    with pytest.raises(DomainError):
        mean_norm_gaussian(0, 1.0)
    with pytest.raises(DomainError):
        mean_norm_gaussian(3, -1.0)


def test_mean_norm_gaussian_monte_carlo():
    rng = np.random.default_rng(0)
    z = rng.normal(0.0, 1.5, size=(200_000, 7))
    empirical = np.linalg.norm(z, axis=1).mean()
    assert mean_norm_gaussian(7, 1.5) == pytest.approx(empirical, rel=2e-3)


def test_grad_sim_config_validation():
    with pytest.raises(ValidationError):
        GradSimConfig(n=2, k=5, sigma=1.0, trials=10, seed=0)
    with pytest.raises(ValidationError):
        GradSimConfig(n=8, k=0, sigma=1.0, trials=10, seed=0)
    with pytest.raises(ValidationError):
        GradSimConfig(n=8, k=5, sigma=-1.0, trials=10, seed=0)
    with pytest.raises(ValidationError):
        GradSimConfig(n=8, k=5, sigma=1.0, trials=0, seed=0)


def test_simulator_tracks_predicted_norm():
    cfg = GradSimConfig(n=8, k=50, sigma=1.0, trials=400, seed=3)
    for m in (0, 3, 6):
        sim = simulate_learning_strength(cfg, m)
        assert sim == pytest.approx(predicted_update_norm(8, m, 50, 1.0), rel=0.05)


def test_simulated_ratios_match_curve():
    """Normalizing the simulated norms by the m=0 value recovers f_hat."""
    cfg = GradSimConfig(n=10, k=100, sigma=1.0, trials=200, seed=11)
    sims = simulate_curve(cfg)
    curve = theory_curve(10)
    for m in range(1, 9):
        assert sims[m] / sims[0] == pytest.approx(curve.f_hat[m], rel=0.08)


def test_simulator_is_deterministic():
    cfg = GradSimConfig(n=9, k=20, sigma=0.5, trials=50, seed=4)
    a = simulate_learning_strength(cfg, 4)
    b = simulate_learning_strength(cfg, 4)
    c = simulate_learning_strength(cfg, 4)
    assert a == b == c


def test_predicted_update_norm_beyond_int64_contexts():
    # C(68, 34) does not fit in 64 bits
    expected = (35 / (70 * 69)) * mean_norm_gaussian(10, 1.0 / math.sqrt(math.comb(68, 34)))
    assert predicted_update_norm(70, 34, 10, 1.0) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(GuardError):
        predicted_update_norm(1001, 3, 10, 1.0)


def test_simulator_context_guard():
    cfg = GradSimConfig(n=40, k=2, sigma=1.0, trials=1, seed=0)
    with pytest.raises(GuardError):
        simulate_learning_strength(cfg, 19)


def _mk_profile(n, grid, strengths):
    vals = np.array(strengths, dtype=float)
    mean = vals.mean()
    degenerate = not (np.isfinite(mean) and mean > 0)
    normalized = np.zeros_like(vals) if degenerate else vals / mean
    return OrderProfile(n=n, order_grid=tuple(grid),
                        strengths=tuple(float(v) for v in vals),
                        normalized=tuple(float(v) for v in normalized),
                        pair_budget=0, subset_budget=0, seed=0,
                        degenerate=degenerate)


def _profile_from_curve(n, scale=2.5):
    curve = theory_curve(n)
    return _mk_profile(n, curve.orders, np.array(curve.f_hat) * scale)


def test_fit_effective_n_recovers_own_curve():
    fit = fit_effective_n(_profile_from_curve(12))
    assert fit.n_prime == 12
    assert fit.mismatch == pytest.approx(0.0, abs=1e-24)
    assert fit.candidates == tuple(range(3, 13))
    assert len(fit.mismatches) == len(fit.candidates)


def test_fit_effective_n_prefers_smaller_curve():
    """A profile sampled from a smaller curve on a coarse grid fits that n'."""
    small = theory_curve(6)
    fractions = np.array(small.orders) / 6
    grid = tuple(int(round(f * 12)) for f in fractions)
    fit = fit_effective_n(_mk_profile(12, grid, small.f_hat))
    assert fit.n_prime < 12
    assert fit.mismatch < 0.01


def test_fit_effective_n_guards():
    with pytest.raises(DomainError):
        fit_effective_n(_mk_profile(6, (0, 1, 2), (0.0, 0.0, 0.0)))
    off_grid = _profile_from_curve(8)
    with pytest.raises(ValidationError):
        fit_effective_n(_mk_profile(8, (1, 2, 3), off_grid.strengths[1:4]))


def test_theory_csv_round_trip(tmp_path):
    curve = theory_curve(7)
    path = tmp_path / "curve.csv"
    write_theory_csv(path, curve, meta={"n": "7"})
    rows, meta = read_csv(path, THEORY_HEADER)
    assert tuple(int(m) for m, _ in rows) == curve.orders
    assert tuple(float(v) for _, v in rows) == curve.f_hat
    assert meta["n"] == "7"
    first = path.read_bytes()
    write_theory_csv(path, curve, meta={"n": "7"})
    assert path.read_bytes() == first
