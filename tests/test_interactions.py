from math import comb

import numpy as np
import pytest

from interaction_lab import (
    MLP,
    Baseline,
    GuardError,
    LogOddsGame,
    SyntheticGame,
    ValidationError,
    default_order_grid,
    delta_v,
    efficiency_residual,
    efficiency_weight,
    interaction_order_exact,
    interaction_order_mc,
    order_profile,
    order_strength,
    read_profile_csv,
    synthetic_game,
    write_profile_csv,
)


@pytest.fixture
def poly_game():
    return synthetic_game(SyntheticGame.random_polynomial(8, degree=5, num_terms=14, seed=3))


def test_delta_v_additive_game_is_zero():
    game = synthetic_game(SyntheticGame.additive([2.0, -1.0, 0.5, 3.0]))
    for s in [0b0000, 0b0100]:
        assert delta_v(game, 0, 1, s) == 0.0


def test_delta_v_matches_inclusion_exclusion(poly_game):
    S = 0b00100100
    both, left, right, base = poly_game.evaluate_many([S | 0b11, S | 0b01, S | 0b10, S])
    assert delta_v(poly_game, 0, 1, S) == pytest.approx((both + left * -1) - (right - base))


def test_delta_v_rejects_overlapping_context(poly_game):
    with pytest.raises(ValidationError):
        delta_v(poly_game, 0, 1, 0b00010010)
    with pytest.raises(ValidationError):
        delta_v(poly_game, 0, 1, 1 << 8)


def test_conjunction_interaction_ramp():
    # pair inside a 3-way conjunction: I^(m)(0,1) climbs as m/3 on n=5
    game = synthetic_game(SyntheticGame.conjunction(5, [0, 1, 2]))
    for m in range(4):
        est = interaction_order_exact(game, 0, 1, m)
        assert est.value == pytest.approx(m / 3)
        assert est.exact


def test_exact_symmetry_is_bitwise(poly_game):
    for m in [0, 2, 5]:
        ij = interaction_order_exact(poly_game, 1, 6, m)
        ji = interaction_order_exact(poly_game, 6, 1, m)
        assert ij.value == ji.value


def test_mc_symmetry_is_bitwise(poly_game):
    ij = interaction_order_mc(poly_game, 3, 7, 4, num_samples=10, seed=11)
    ji = interaction_order_mc(poly_game, 7, 3, 4, num_samples=10, seed=11)
    assert ij.value == ji.value
    assert ij.samples_used == 10 and not ij.exact


def test_mc_switches_to_exact_when_budget_covers(poly_game):
    est = interaction_order_mc(poly_game, 0, 1, 2, num_samples=comb(6, 2), seed=0)
    assert est.exact
    assert est.value == interaction_order_exact(poly_game, 0, 1, 2).value


def test_mc_keeps_resampling_past_context_count(poly_game):
    est = interaction_order_mc(poly_game, 0, 1, 2, num_samples=200, seed=0)
    assert not est.exact
    assert est.samples_used == 200
    assert est.std_error > 0.0
    exact = interaction_order_exact(poly_game, 0, 1, 2)
    assert abs(est.value - exact.value) <= 5 * est.std_error


def test_mc_reaches_player_63():
    # the pair (0, 63) is a conjunction: every context gives delta_v = 1
    game = synthetic_game(SyntheticGame.conjunction(64, [0, 63]))
    est = interaction_order_mc(game, 63, 0, 5, num_samples=4, seed=0)
    assert est.value == 1.0 and est.std_error == 0.0
    assert delta_v(game, 0, 63, 0b110) == 1.0


def test_mc_single_sample_has_zero_std_error(poly_game):
    est = interaction_order_mc(poly_game, 0, 1, 3, num_samples=1, seed=4)
    assert est.std_error == 0.0
    assert est.samples_used == 1


def test_interaction_order_guards():
    big = synthetic_game(SyntheticGame.additive([1.0] * 25))
    with pytest.raises(GuardError):
        interaction_order_exact(big, 0, 1, 2)
    game = synthetic_game(SyntheticGame.additive([1.0] * 4))
    with pytest.raises(ValidationError):
        interaction_order_exact(game, 0, 0, 1)
    with pytest.raises(ValidationError):
        interaction_order_exact(game, 0, 1, 3)  # max order is n-2


def test_efficiency_weight_values():
    assert efficiency_weight(4, 0) == pytest.approx(3 / 12)
    assert efficiency_weight(4, 2) == pytest.approx(1 / 12)
    assert efficiency_weight(12, 10) == pytest.approx(1 / 132)


@pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (9, 2)])
def test_efficiency_identity_random_games(n, seed):
    game = synthetic_game(SyntheticGame.random_polynomial(n, n, 2 * n + 5, seed=seed))
    report = efficiency_residual(game)
    assert report.relative_residual < 1e-12
    assert report.lhs == pytest.approx(report.reconstruction)


def test_efficiency_guard():
    game = synthetic_game(SyntheticGame.additive([1.0] * 13))
    with pytest.raises(GuardError):
        efficiency_residual(game)


def test_order_strength_additive_is_zero():
    game = synthetic_game(SyntheticGame.additive([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert order_strength(game, 1, pair_budget=10, subset_budget=3, seed=0) == 0.0


def test_default_order_grid_small_and_large():
    assert default_order_grid(6) == (0, 1, 2, 3, 4)
    grid = default_order_grid(40)
    assert grid[0] == 0 and grid[-1] == 38
    assert len(grid) <= 21
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_order_profile_normalization(poly_game):
    profile = order_profile(poly_game, [None], pair_budget=10, subset_budget=8, seed=5)
    assert profile.n == 8
    assert profile.order_grid == tuple(range(7))
    assert np.mean(profile.normalized) == pytest.approx(1.0)
    assert not profile.degenerate


def test_order_profile_degenerate_on_additive():
    game = synthetic_game(SyntheticGame.additive([1.0] * 6))
    profile = order_profile(game, [None], pair_budget=5, subset_budget=4, seed=1)
    assert profile.degenerate
    assert all(v == 0.0 for v in profile.normalized)


def test_model_profile_is_thread_count_invariant(monkeypatch):
    # MLP.forward is not bitwise batch-invariant, so a model-backed game (not a
    # closed-form one) is needed to expose batches that depend on scheduling.
    n = 10
    game = LogOddsGame(MLP([n, 32, 32, 2], seed=7), Baseline.zeros(n))
    sample = (np.random.default_rng(3).normal(size=n), 1)
    # 30 of 45 pairs; 16 contexts enumerate m in {0, 1, 7, 8} and sample the rest
    kwargs = dict(pair_budget=30, subset_budget=16, seed=11)
    monkeypatch.setenv("INTERACTION_LAB_THREADS", "4")
    threaded = [order_profile(game, [sample], **kwargs).strengths for _ in range(3)]
    monkeypatch.setenv("INTERACTION_LAB_THREADS", "1")
    serial = order_profile(game, [sample], **kwargs).strengths
    assert all(s == serial for s in threaded)


def test_profile_csv_round_trip(tmp_path, poly_game):
    profile = order_profile(poly_game, [None], pair_budget=6, subset_budget=5, seed=2)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, profile, {"config_sha256": "aa", "seed": 2})
    back, meta = read_profile_csv(path)
    assert back.order_grid == profile.order_grid
    assert back.strengths == profile.strengths
    assert back.normalized == profile.normalized
    assert meta["config_sha256"] == "aa"
    # byte stability: writing the reread profile reproduces the file
    path2 = tmp_path / "profile2.csv"
    write_profile_csv(path2, back, {"config_sha256": "aa", "seed": 2})
    assert path.read_bytes() == path2.read_bytes()
