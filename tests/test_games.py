import numpy as np
import pytest

from interaction_lab import (
    Baseline,
    DimensionError,
    DomainError,
    PolynomialGame,
    SyntheticGame,
    ValidationError,
    compute_baseline,
    masked_matrix,
    make_rng,
    synthetic_game,
)
from interaction_lab.games import sample_subsets

TOP = 1 << 63  # player 63, the highest a uint64 mask holds


def test_subset_mask_rejects_out_of_range():
    with pytest.raises(ValidationError):
        masked_matrix(np.ones(3), [0b1000], Baseline.zeros(3))
    with pytest.raises(ValidationError):
        PolynomialGame(SyntheticGame.additive([1.0]))
    with pytest.raises(ValidationError):
        PolynomialGame(SyntheticGame.additive([1.0] * 65))
    assert PolynomialGame(SyntheticGame.additive([1.0] * 64)).n == 64


def test_masking_replaces_absent_features():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    b = Baseline(np.array([-1.0, -2.0, -3.0, -4.0]))
    out = masked_matrix(x, [0b0110, 0b1111, 0b0000], b)
    assert np.array_equal(out[0], [-1.0, 2.0, 3.0, -4.0])
    # full set is the identity, empty set is the baseline
    assert np.array_equal(out[1], x)
    assert np.array_equal(out[2], b.values)


def test_masked_matrix_stacks_rows():
    x = np.arange(3.0)
    b = Baseline.zeros(3)
    out = masked_matrix(x, [0b000, 0b100, 0b111], b)
    assert out.shape == (3, 3)
    assert np.array_equal(out[0], [0, 0, 0])
    assert np.array_equal(out[1], [0, 0, 2])
    assert np.array_equal(out[2], x)


def test_masked_matrix_reaches_player_63():
    x = np.arange(1.0, 65.0)
    b = Baseline(-x)
    out = masked_matrix(x, np.array([TOP, TOP | 1, 2**64 - 1], dtype=np.uint64), b)
    assert np.array_equal(out[0], np.r_[-x[:63], x[63]])
    assert np.array_equal(out[1], np.r_[x[0], -x[1:63], x[63]])
    assert np.array_equal(out[2], x)


def test_masked_matrix_takes_one_sample_per_mask():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = masked_matrix(X, [0b01, 0b10], Baseline(np.array([-1.0, -2.0])))
    assert np.array_equal(out, [[1.0, -2.0], [-1.0, 4.0]])
    with pytest.raises(DimensionError):
        masked_matrix(X, [0b01], Baseline.zeros(2))


def test_masked_input_dimension_mismatch():
    with pytest.raises(DimensionError):
        masked_matrix(np.ones(3), [0b111], Baseline.zeros(4))


def test_compute_baseline_is_column_means():
    data = np.array([[1.0, 10.0], [3.0, 30.0]])
    assert np.array_equal(compute_baseline(data).values, [2.0, 20.0])


def test_sample_subset_is_within_pool_and_seeded():
    pool = 0b01010101
    a = int(sample_subsets(pool, (2,), 1, make_rng(9))[0, 0])
    b = int(sample_subsets(pool, (2,), 1, make_rng(9))[0, 0])
    assert a == b
    assert a & ~pool == 0 and a.bit_count() == 2
    with pytest.raises(DomainError):
        sample_subsets(pool, (5,), 1, make_rng(0))


def test_sample_subset_permutes_sorted_members():
    pool = TOP | 0b1010
    picked = int(sample_subsets(pool, (2,), 1, make_rng(4))[0, 0])
    members = make_rng(4).permutation([1, 3, 63])[:2]
    assert picked == sum(1 << int(k) for k in members)


@pytest.mark.parametrize("n", [3, 12, 20, 64])
def test_sample_subsets_equals_sample_subset_loop(n):
    # pins numpy's row order in Generator.permuted: a numpy that changes it fails here
    pool = ((1 << n) - 1) & ~0b10
    members = np.array([1 << k for k in range(n) if k != 1], dtype=np.uint64)
    for m in range(n):
        batched_rng, loop_rng = make_rng(n, m), make_rng(n, m)
        batched = sample_subsets(pool, (m,), 17, batched_rng)
        loop = [int(loop_rng.permutation(members)[:m].sum()) for _ in range(17)]
        assert batched.dtype == np.uint64 and batched.tolist() == [loop]
        assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
    # nested sizes: prefix sums of one permutation per draw
    s1, s2 = n // 3, n - 1
    batched_rng, loop_rng = make_rng(n, s1, s2), make_rng(n, s1, s2)
    batched = sample_subsets(pool, (s1, s2), 17, batched_rng)
    loop = [loop_rng.permutation(members) for _ in range(17)]
    assert batched.dtype == np.uint64 and batched.shape == (2, 17)
    assert batched.tolist() == [[int(p[:s].sum()) for p in loop] for s in (s1, s2)]
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
    with pytest.raises(DomainError):
        sample_subsets(pool, (n,), 3, make_rng(0))
    with pytest.raises(DomainError):
        sample_subsets(pool, (0, n), 3, make_rng(0))


def test_terms_are_sorted_index_tuples():
    spec = SyntheticGame(n=5,
                         terms=((frozenset({3, 1}), 1.0), ([4, 0, 4], 2.0), ((), 0.5)))
    assert spec.terms == (((1, 3), 1.0), ((0, 4), 2.0), ((), 0.5))
    drawn = SyntheticGame.random_polynomial(6, degree=3, num_terms=10, seed=5)
    assert all(list(c) == sorted(set(c)) for c, _ in drawn.terms)
    with pytest.raises(ValidationError):
        SyntheticGame(n=4, terms=(((0, 1), 1.0), ((1, 0), 2.0)))


def test_additive_game_values():
    game = synthetic_game(SyntheticGame.additive([1.0, 2.0, 4.0]))
    assert game.evaluate_many([0b000, 0b101, 0b111]).tolist() == [0.0, 5.0, 7.0]


def test_conjunction_game_fires_only_on_full_coalition():
    game = synthetic_game(SyntheticGame.conjunction(4, [1, 3]))
    assert game.evaluate_many([0b0010, 0b1010, 0b1111]).tolist() == [0.0, 1.0, 1.0]


def test_random_polynomial_reproducible():
    a = SyntheticGame.random_polynomial(6, degree=3, num_terms=10, seed=5)
    b = SyntheticGame.random_polynomial(6, degree=3, num_terms=10, seed=5)
    assert a == b
    game = synthetic_game(a)
    size3 = [bits for bits in range(1 << 6) if bits.bit_count() == 3]
    assert len(size3) == 20
    vals = game.evaluate_many(size3)
    assert np.all(np.isfinite(vals))


def test_evaluate_many_matches_evaluate():
    # a batch of masks gives what each mask gives on its own
    game = synthetic_game(SyntheticGame.random_polynomial(7, 4, 12, seed=2))
    bits = [0b0000001, 0b0100110, 0b1111111]
    many = game.evaluate_many(bits)
    singles = [game.evaluate_many([b])[0] for b in bits]
    assert np.array_equal(many, singles)


def test_evaluate_many_reaches_player_63():
    spec = SyntheticGame(n=64,
                         terms=((frozenset({63}), 2.0), (frozenset({0, 63}), 0.5)))
    game = synthetic_game(spec)
    bits = np.array([0, 1, TOP, TOP | 1, 2**64 - 1], dtype=np.uint64)
    assert game.evaluate_many(bits).tolist() == [0.0, 0.0, 2.0, 2.5, 2.5]
    with pytest.raises(OverflowError):
        game.evaluate_many([2**64])
