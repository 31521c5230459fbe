import itertools
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interaction_lab import (
    MLP,
    Baseline,
    DimensionError,
    DomainError,
    GuardError,
    LogOddsGame,
    SyntheticGame,
    ValidationError,
    ValueFunction,
    default_order_grid,
    efficiency_residual,
    interaction_order_exact,
    interaction_order_mc,
    order_profile,
    order_weights,
    read_profile_csv,
    synthetic_game,
    write_profile_csv,
)
from interaction_lab import interactions
from interaction_lab.interactions import _SAMPLE_STREAM, _pair_grid
from interaction_lab.rng import child_seed


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
    # c_n = 1, c_0 = -1 gives (n - 1 - m) / (n (n - 1)), bit for bit
    assert order_weights(4, {4: 1.0, 0: -1.0}).tolist() == [3 / 12, 2 / 12, 1 / 12]
    assert order_weights(12, {12: 1.0, 0: -1.0})[10] == 1 / 132
    for n in range(3, 17):
        want = [(n - 1 - m) / (n * (n - 1)) for m in range(n - 1)]
        assert order_weights(n, {n: 1.0, 0: -1.0}).tolist() == want


@pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (9, 2)])
def test_efficiency_identity_random_games(n, seed):
    game = synthetic_game(SyntheticGame.random_polynomial(n, n, 2 * n + 5, seed=seed))
    report = efficiency_residual(game)
    assert report.relative_residual < 1e-12
    assert report.lhs == pytest.approx(report.reconstruction)


def test_efficiency_guard():
    # the value table's guard: 16 players run, 21 do not
    game = synthetic_game(SyntheticGame.random_polynomial(16, 16, 37, seed=1))
    assert efficiency_residual(game).relative_residual < 1e-12
    with pytest.raises(GuardError):
        efficiency_residual(synthetic_game(SyntheticGame.additive([1.0] * 21)))


def test_single_order_profile_additive_is_zero():
    game = synthetic_game(SyntheticGame.additive([1.0, 2.0, 3.0, 4.0, 5.0]))
    profile = order_profile([game], [1], pair_budget=10, subset_budget=3, seed=0)
    assert profile.strengths == (0.0,)


def test_default_order_grid_small_and_large():
    assert default_order_grid(6) == (0, 1, 2, 3, 4)
    grid = default_order_grid(40)
    assert grid[0] == 0 and grid[-1] == 38
    assert len(grid) <= 21
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_order_profile_normalization(poly_game):
    profile = order_profile([poly_game], pair_budget=10, subset_budget=8, seed=5)
    assert profile.n == 8
    assert profile.order_grid == tuple(range(7))
    assert np.mean(profile.normalized) == pytest.approx(1.0)
    assert not profile.degenerate


def test_order_profile_rejects_empty_budgets(poly_game):
    for budgets in (dict(pair_budget=5, subset_budget=0), dict(pair_budget=0, subset_budget=5)):
        with pytest.raises(ValidationError):
            order_profile([poly_game], **budgets, seed=0)


def test_profile_reads_tables_where_they_cost_fewer_masks(poly_game):
    full = order_profile([poly_game], pair_budget=28, subset_budget=20, seed=0)
    # 4 * 10 pairs * (1 + 6 + 8 * 3 + 6 + 1) contexts = 1520 masks >= 2^8: the table path
    table = order_profile([poly_game], pair_budget=10, subset_budget=8, seed=9)
    assert table.strengths == full.strengths
    assert (table.pair_budget, table.subset_budget) == (28, comb(6, 3))
    # 4 * 3 pairs * (1 + 2 * 5 + 1) contexts = 144 masks < 2^8: the sampled path
    tiny = order_profile([poly_game], pair_budget=3, subset_budget=2, seed=9)
    assert (tiny.pair_budget, tiny.subset_budget) == (3, 2)


def test_profile_budgets_matter_above_the_table_guard():
    # at n = 17 both budgets sample far fewer masks than a 2^17 value table
    game = synthetic_game(SyntheticGame.random_polynomial(17, degree=6, num_terms=40, seed=2))
    tiny = order_profile([game], [3, 8], pair_budget=3, subset_budget=2, seed=0)
    larger = order_profile([game], [3, 8], pair_budget=12, subset_budget=16, seed=0)
    assert tiny.strengths != larger.strengths
    assert (tiny.pair_budget, tiny.subset_budget) == (3, 2)


def test_order_profile_degenerate_on_additive():
    game = synthetic_game(SyntheticGame.additive([1.0] * 6))
    profile = order_profile([game], pair_budget=5, subset_budget=4, seed=1)
    assert profile.degenerate
    assert all(v == 0.0 for v in profile.normalized)


def test_order_profile_rejects_games_of_different_sizes(poly_game):
    other = synthetic_game(SyntheticGame.random_polynomial(7, degree=5, num_terms=14, seed=3))
    with pytest.raises(DimensionError):
        order_profile([poly_game, other], pair_budget=5, subset_budget=4, seed=0)
    with pytest.raises(ValidationError):
        order_profile([], pair_budget=5, subset_budget=4, seed=0)


class _FixedLogits:
    """A stand-in model whose forward returns the given logits whatever the rows."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=float)

    def forward(self, rows):
        return self.logits


def test_log_odds_game_checks_its_sample_once_at_construction():
    model, baseline = MLP([4, 6, 3], seed=0), Baseline.zeros(4)
    with pytest.raises(DimensionError):
        LogOddsGame(model, baseline, np.ones(5), 0)
    with pytest.raises(DimensionError):
        LogOddsGame(model, baseline, np.ones((1, 4)), 0)
    with pytest.raises(DomainError):
        LogOddsGame(model, baseline, np.ones(4), -1)
    game = LogOddsGame(model, baseline, np.ones(4), 2)
    assert game.evaluate_many([0b1111]).shape == (1,)


def test_log_odds_game_checks_the_logits_on_evaluation():
    # three classes: target 3 is only known to be out of range once logits show it
    game = LogOddsGame(MLP([4, 6, 3], seed=0), Baseline.zeros(4), np.ones(4), 3)
    with pytest.raises(DomainError):
        game.evaluate_many([0b0011])
    for logits in ([1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]], [[[1.0, 2.0]]]):
        game = LogOddsGame(_FixedLogits(logits), Baseline.zeros(4), np.ones(4), 0)
        with pytest.raises(DimensionError):
            game.evaluate_many([0b0011])
    one_class = LogOddsGame(_FixedLogits([[1.0]]), Baseline.zeros(4), np.ones(4), 0)
    with pytest.raises(DomainError):
        one_class.evaluate_many([0b0011])


def test_model_profile_is_rerun_identical():
    # MLP.forward is not bitwise batch-invariant, so a model-backed game (not a
    # closed-form one) is needed to expose batches that change between runs.
    # n=10 reads a value table; n=17 sends each order's pairs through one
    # chunked evaluate pass.
    for n in (10, 17):
        game = LogOddsGame(MLP([n, 32, 32, 2], seed=7), Baseline.zeros(n),
                           np.random.default_rng(3).normal(size=n), 1)
        # at n=17: 30 pairs; 16 contexts enumerate the outermost orders and sample the rest
        kwargs = dict(pair_budget=30, subset_budget=16, seed=11)
        reruns = [order_profile([game], **kwargs).strengths for _ in range(3)]
        first = order_profile([game], **kwargs).strengths
        assert all(s == first for s in reruns)


def _reference_strengths(games, grid, pair_budget, subset_budget, seed):
    """Mean |interaction_order_mc| over each sample's pair grid, averaged over samples."""
    n = games[0].n
    per_sample = []
    for t, game in enumerate(games):
        sample_seed = child_seed(seed, _SAMPLE_STREAM, t)
        per_sample.append([np.mean([
            abs(interaction_order_mc(game, i, j, m, min(subset_budget, comb(n - 2, m)),
                                     sample_seed).value)
            for i, j in _pair_grid(n, pair_budget, sample_seed, m)]) for m in grid])
    return np.array(per_sample).mean(axis=0).tolist()


@pytest.mark.parametrize("n, grid, pair_budget, group_masks", [
    # 16 contexts enumerate the outermost orders and sample the rest
    (17, None, 12, 65536),
    (17, [1, 3, 8, 14], 136, 65536),
    (20, None, 10, 65536),
    (20, [2, 4, 6, 8, 10, 12, 14, 16], 40, 65536),
    # groups of three pairs, the last one short
    (20, [0, 1, 9], 10, 200),
])
def test_sampled_profile_matches_the_pairwise_estimator(n, grid, pair_budget, group_masks,
                                                        monkeypatch):
    monkeypatch.setattr(interactions, "_GROUP_MASKS", group_masks)
    poly = synthetic_game(SyntheticGame.random_polynomial(n, degree=7, num_terms=40, seed=n))
    model = MLP([n, 24, 24, 3], seed=n)
    games_by_kind = [
        ([poly, poly], 0),
        ([LogOddsGame(model, Baseline.zeros(n), np.random.default_rng(t).normal(size=n), t)
          for t in range(2)], 1e-12),
    ]
    for games, rel in games_by_kind:
        profile = order_profile(games, grid, pair_budget=pair_budget,
                                subset_budget=16, seed=5)
        expected = _reference_strengths(games, profile.order_grid, pair_budget, 16, 5)
        if rel:
            assert profile.strengths == pytest.approx(expected, rel=rel, abs=0)
        else:
            assert list(profile.strengths) == expected


def test_sampled_profile_bounds_each_evaluate_call(monkeypatch):
    sizes = []
    real_evaluate = interactions.evaluate

    def recording_evaluate(game, bits):
        sizes.append(len(bits))
        return real_evaluate(game, bits)

    monkeypatch.setattr(interactions, "evaluate", recording_evaluate)
    game = synthetic_game(SyntheticGame.random_polynomial(24, degree=4, num_terms=10, seed=1))
    # 65536 // (4 * 48) = 341 pairs fit in one call, so all 276 pairs go together
    order_profile([game], [5], pair_budget=276, subset_budget=48, seed=0)
    assert sizes == [276 * 4 * 48]
    sizes.clear()
    # 4 * 20000 masks per pair: one pair per call, as many masks as one pair needs
    order_profile([game], [5], pair_budget=3, subset_budget=20000, seed=0)
    assert sizes == [80000] * 3
    sizes.clear()
    order_profile([game], [5], pair_budget=276, subset_budget=100, seed=0)
    assert max(sizes) <= 65536 and sum(sizes) == 276 * 400


class _RecordingGame(ValueFunction):
    """A closed-form game that records how many masks each evaluate_many call holds."""

    def __init__(self, game, drop_from_short_calls=False):
        self.game, self.n, self.sizes = game, game.n, []
        self.drop = drop_from_short_calls

    def evaluate_many(self, bits):
        self.sizes.append(len(bits))
        values = self.game.evaluate_many(bits)
        return values[1:] if self.drop and len(bits) < interactions.EVAL_CHUNK else values


def test_single_pair_estimators_evaluate_in_bounded_chunks():
    poly = synthetic_game(SyntheticGame.random_polynomial(12, degree=6, num_terms=30, seed=2))
    game = _RecordingGame(poly)
    # C(10, 5) = 252 contexts: 1008 masks
    exact = interaction_order_exact(game, 2, 9, 5)
    assert sum(game.sizes) == 1008 and max(game.sizes) <= interactions.EVAL_CHUNK
    assert exact == interaction_order_exact(poly, 2, 9, 5)
    game.sizes.clear()
    mc = interaction_order_mc(game, 2, 9, 5, num_samples=2000, seed=1)
    assert sum(game.sizes) == 8000 and max(game.sizes) <= interactions.EVAL_CHUNK
    assert mc == interaction_order_mc(poly, 2, 9, 5, num_samples=2000, seed=1)
    # every chunk, the short last one included, must hold one value per mask
    with pytest.raises(DimensionError):
        interaction_order_exact(_RecordingGame(poly, drop_from_short_calls=True), 2, 9, 5)


@pytest.mark.parametrize("n", [4, 12, 20])
def test_enumerated_contexts_match_the_combination_sums(n):
    for i, j in [(n - 1, 0), (0, 1), (n - 2, n - 1)]:
        pool = [k for k in range(n) if k not in (i, j)]
        for m in range(n - 1):
            expected = [sum(1 << k for k in combo) for combo in itertools.combinations(pool, m)]
            got = interactions.enumerated_contexts(n, i, j, m)
            assert got.dtype == np.uint64 and got.tolist() == expected


@pytest.mark.parametrize("n", [8, 10])
def test_table_profile_matches_enumeration(n):
    # every order is read from the value table's bincounts
    if n == 8:
        game = synthetic_game(SyntheticGame.random_polynomial(n, degree=6, num_terms=20, seed=4))
    else:
        game = LogOddsGame(MLP([n, 24, 24, 3], seed=5), Baseline.zeros(n),
                           np.random.default_rng(8).normal(size=n), 2)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    profile = order_profile([game], pair_budget=len(pairs),
                            subset_budget=comb(n - 2, (n - 2) // 2), seed=0)
    expected = [np.mean([abs(interaction_order_exact(game, i, j, m).value)
                         for i, j in pairs]) for m in range(n - 1)]
    assert profile.strengths == pytest.approx(expected, rel=1e-12, abs=0)


def test_profile_csv_round_trip(tmp_path, poly_game):
    profile = order_profile([poly_game], pair_budget=6, subset_budget=5, seed=2)
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


@pytest.mark.parametrize("n, kind", [(17, "polynomial"), (17, "mlp"), (20, "polynomial")])
def test_pair_order_table_matches_enumeration(n, kind):
    if kind == "polynomial":
        game = synthetic_game(SyntheticGame.random_polynomial(n, degree=7, num_terms=60, seed=n))
    else:
        game = LogOddsGame(MLP([n, 24, 24, 3], seed=n), Baseline.zeros(n),
                           np.random.default_rng(n).normal(size=n), 1)
    table = interactions.pair_order_table(interactions.value_table(game), n)
    pairs = list(itertools.combinations(range(n), 2))
    assert table.shape == (len(pairs), n - 1)
    for i, j in [(0, 1), (3, n // 2 + 1), (n - 2, n - 1)]:
        row = table[pairs.index((i, j))]
        expected = [interaction_order_exact(game, i, j, m).value for m in range(n - 1)]
        assert np.max(np.abs(row)) > 0
        assert np.max(np.abs(row - expected)) <= 1e-12 * np.max(np.abs(row))


@st.composite
def _profile_requests(draw):
    n = draw(st.integers(2, 10))
    grid = sorted(draw(st.sets(st.integers(0, n - 2), min_size=1)))
    pair_budget = draw(st.integers(1, n * (n - 1) // 2 + 2))
    subset_budget = draw(st.integers(1, comb(n - 2, (n - 2) // 2) + 2))
    return n, grid, pair_budget, subset_budget


@settings(max_examples=60, deadline=None)
@given(_profile_requests())
# 4 * 4 pairs * 1 context = 2^4 masks: a tie reads the table
@example((4, [0], 4, 1))
@example((4, [0], 3, 1))
def test_profile_path_follows_the_mask_count_rule(request):
    n, grid, pair_budget, subset_budget = request
    game = synthetic_game(SyntheticGame.random_polynomial(n, n, min(2 * n + 5, 1 << n), seed=n))
    all_pairs, widest = n * (n - 1) // 2, comb(n - 2, (n - 2) // 2)
    sampled_masks = sum(4 * min(pair_budget, all_pairs) * min(subset_budget, comb(n - 2, m))
                        for m in grid)
    with mock.patch.object(interactions, "evaluate", wraps=interactions.evaluate) as spy:
        profile = order_profile([game], grid, pair_budget=pair_budget,
                                subset_budget=subset_budget, seed=3)
    # whichever path runs, it is the one that evaluates fewer masks
    assert sum(len(call.args[1]) for call in spy.call_args_list) == min(1 << n, sampled_masks)
    if 1 << n <= sampled_masks:
        full = order_profile([game], pair_budget=all_pairs, subset_budget=widest, seed=0)
        assert list(profile.strengths) == [full.strengths[m] for m in grid]
        assert (profile.pair_budget, profile.subset_budget) == (all_pairs, widest)
    else:
        assert (profile.pair_budget, profile.subset_budget) == (pair_budget, subset_budget)


def _cube_pair_means(table, n, lo, hi):
    """One pair's exact I_m through the table viewed as a 2 x ... x 2 cube."""
    cube = table.reshape((2,) * n)

    def corner(with_lo, with_hi):
        index = [slice(None)] * n
        index[n - 1 - lo], index[n - 1 - hi] = with_lo, with_hi
        return cube[tuple(index)].ravel()

    deltas = (corner(1, 1) + corner(0, 0)) - (corner(1, 0) + corner(0, 1))
    return interactions.size_means(deltas, n - 2)


@pytest.mark.parametrize("n", [2, 3, 7, 10, 11, 12])
def test_pair_order_table_equals_the_cube_reduction_bit_for_bit(n):
    # n = 10 is the largest table reduced in one gather, n = 11 the smallest looped
    table = np.random.default_rng(n).normal(size=1 << n)
    expected = [_cube_pair_means(table, n, lo, hi)
                for lo, hi in itertools.combinations(range(n), 2)]
    assert interactions.pair_order_table(table, n).tolist() == np.array(expected).tolist()


def test_cached_pair_corners_are_read_only():
    interactions.pair_order_table(np.zeros(1 << 5), 5)
    corners, bins = interactions._pair_corners(5)
    assert corners.shape == (4, comb(5, 2) << 3) and bins.shape == (comb(5, 2) << 3,)
    with pytest.raises(ValueError):
        corners[0, 0] = 1
    with pytest.raises(ValueError):
        bins[0] = 1


def test_ordered_row_sum_keeps_the_loop_bits():
    # a loop over the rows from zeros: the zero start turns an all -0.0 column into +0.0
    rows = np.array([[-0.0, 1e16, 0.1], [-0.0, 1.0, 0.2], [-0.0, -1e16, 0.3], [-0.0, 1.0, 0.4]])
    expected = np.zeros(3)
    for row in rows:
        expected += row
    assert interactions.ordered_row_sum(rows).tobytes() == expected.tobytes()
    column = np.random.default_rng(0).normal(size=(40, 1))
    expected = np.zeros(1)
    for row in column:
        expected += row
    assert interactions.ordered_row_sum(column).tobytes() == expected.tobytes()
