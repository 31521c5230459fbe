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
    efficiency_residual,
    efficiency_weight,
    interaction_order_exact,
    interaction_order_mc,
    order_profile,
    read_profile_csv,
    synthetic_game,
    write_profile_csv,
)


@pytest.fixture
def poly_game():
    return synthetic_game(SyntheticGame.random_polynomial(8, degree=5, num_terms=14, seed=3))


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
    # the value table's guard: 16 players run, 17 do not
    game = synthetic_game(SyntheticGame.random_polynomial(16, 16, 37, seed=1))
    assert efficiency_residual(game).relative_residual < 1e-12
    with pytest.raises(GuardError):
        efficiency_residual(synthetic_game(SyntheticGame.additive([1.0] * 17)))


def test_single_order_profile_additive_is_zero():
    game = synthetic_game(SyntheticGame.additive([1.0, 2.0, 3.0, 4.0, 5.0]))
    profile = order_profile(game, [None], [1], pair_budget=10, subset_budget=3, seed=0)
    assert profile.strengths == (0.0,)


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


def test_order_profile_rejects_empty_budgets(poly_game):
    for budgets in (dict(pair_budget=5, subset_budget=0), dict(pair_budget=0, subset_budget=5)):
        with pytest.raises(ValidationError):
            order_profile(poly_game, [None], **budgets, seed=0)


def test_table_profile_ignores_budgets_and_reports_full_ones(poly_game):
    full = order_profile(poly_game, [None], pair_budget=28, subset_budget=20, seed=0)
    tiny = order_profile(poly_game, [None], pair_budget=3, subset_budget=2, seed=9)
    assert tiny.strengths == full.strengths
    assert (tiny.pair_budget, tiny.subset_budget) == (28, comb(6, 3))


def test_profile_budgets_matter_above_the_table_guard():
    game = synthetic_game(SyntheticGame.random_polynomial(17, degree=6, num_terms=40, seed=2))
    tiny = order_profile(game, [None], [3, 8], pair_budget=3, subset_budget=2, seed=0)
    larger = order_profile(game, [None], [3, 8], pair_budget=12, subset_budget=16, seed=0)
    assert tiny.strengths != larger.strengths
    assert (tiny.pair_budget, tiny.subset_budget) == (3, 2)


def test_order_profile_degenerate_on_additive():
    game = synthetic_game(SyntheticGame.additive([1.0] * 6))
    profile = order_profile(game, [None], pair_budget=5, subset_budget=4, seed=1)
    assert profile.degenerate
    assert all(v == 0.0 for v in profile.normalized)


def test_model_profile_is_rerun_identical():
    # MLP.forward is not bitwise batch-invariant, so a model-backed game (not a
    # closed-form one) is needed to expose batches that change between runs.
    # n=10 reads a value table; n=17 evaluates one batch per (pair, order).
    for n in (10, 17):
        game = LogOddsGame(MLP([n, 32, 32, 2], seed=7), Baseline.zeros(n))
        sample = (np.random.default_rng(3).normal(size=n), 1)
        # at n=17: 30 pairs; 16 contexts enumerate the outermost orders and sample the rest
        kwargs = dict(pair_budget=30, subset_budget=16, seed=11)
        reruns = [order_profile(game, [sample], **kwargs).strengths for _ in range(3)]
        first = order_profile(game, [sample], **kwargs).strengths
        assert all(s == first for s in reruns)


@pytest.mark.parametrize("n", [8, 10])
def test_table_profile_matches_enumeration(n):
    # every order is read from the value table's bincounts
    if n == 8:
        game = synthetic_game(SyntheticGame.random_polynomial(n, degree=6, num_terms=20, seed=4))
        sample = None
    else:
        game = LogOddsGame(MLP([n, 24, 24, 3], seed=5), Baseline.zeros(n))
        sample = (np.random.default_rng(8).normal(size=n), 2)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    profile = order_profile(game, [sample], pair_budget=len(pairs),
                            subset_budget=comb(n - 2, (n - 2) // 2), seed=0)
    expected = [np.mean([abs(interaction_order_exact(game, i, j, m, x=sample).value)
                         for i, j in pairs]) for m in range(n - 1)]
    assert profile.strengths == pytest.approx(expected, rel=1e-12, abs=0)


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
