"""Tests for band-selective output differences and the modulation losses."""
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interaction_lab import (
    MLP,
    Baseline,
    DomainError,
    GuardError,
    ModulationSpec,
    SyntheticGame,
    ValidationError,
    band_sizes,
    band_value_and_grad,
    ce_value_and_grad,
    child_seed,
    combined_value_and_grad,
    make_rng,
    order_weights,
    round_half_up,
    synthetic_game,
    verify_theorem2,
)
from interaction_lab.games import sample_subsets
from interaction_lab.interactions import value_table
from interaction_lab.modulation import _ROW_STREAM, _band_stack, _exact_delta_u

from _fd import fd_check, flatten_grads


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
    spec = ModulationSpec(kind="suppress", r1=0.7, r2=1.0, lam=2.0, pair_samples=8)
    again = ModulationSpec.from_json_dict(spec.to_json_dict())
    assert again == spec
    with pytest.raises(ValidationError):
        ModulationSpec.from_json_dict({"kind": "suppress", "r1": 0, "r2": 1,
                                       "lambda": 1, "alpha": 2})
    with pytest.raises(ValidationError):
        ModulationSpec.from_json_dict({"kind": "suppress", "r1": 0, "r2": 1})


def _piecewise_weight(n, r1, r2, m):
    """The band signal's order-m weight, written out piecewise at the rounded sizes."""
    s1, s2 = band_sizes(n, r1, r2)
    if m <= s1 - 2:
        return (s2 / s1 - 1.0) * (m + 1) / (n * (n - 1))
    if m <= s2 - 2:
        return (s2 - m - 1) / (n * (n - 1))
    return 0.0


def _band_weights(n, r1, r2):
    s1, s2 = band_sizes(n, r1, r2)
    return order_weights(n, {s2: 1.0, s1: -s2 / s1})


def test_theorem2_weight_reference_points():
    w = _band_weights(10, 0.2, 0.5)
    assert w[0] == pytest.approx(1 / 60)
    assert w[2] == pytest.approx(2 / 90)
    assert w[5] == 0.0


def test_theorem2_weight_matches_the_piecewise_form():
    # every band of whole sizes 0 < s1 < s2 <= n, for n = 3..16
    for n in range(3, 17):
        for s1, s2 in itertools.combinations(range(1, n + 1), 2):
            want = [_piecewise_weight(n, s1 / n, s2 / n, m) for m in range(n - 1)]
            assert _band_weights(n, s1 / n, s2 / n) == pytest.approx(want, rel=0, abs=1e-16)


def test_theorem2_weight_band_structure():
    n, r1, r2 = 12, 0.3, 0.7
    s1, s2 = band_sizes(n, r1, r2)
    w = _band_weights(n, r1, r2)
    assert len(w) == n - 1
    for m in range(n - 1):
        if m <= s2 - 2:
            assert w[m] > 0.0
        else:
            assert w[m] == 0.0
    # the ramp grows to m = s1 - 1 and decays linearly after
    assert w[s1 - 1] == max(w)


def _exact(game, r1, r2):
    return _exact_delta_u(value_table(game), game.n, *band_sizes(game.n, r1, r2))


def test_delta_u_additive_cancellation():
    game = synthetic_game(SyntheticGame.additive([1.0, 2.0, 3.0, 4.0]))
    assert _exact(game, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_delta_u_conjunction_enumeration():
    """v(S2)=1 always at s2=4; exactly 1 of 6 inner pairs hits the coalition."""
    game = synthetic_game(SyntheticGame.conjunction(4, [0, 1]))
    assert _exact(game, 0.5, 1.0) == pytest.approx(1.0 - 2.0 * (1 / 6))


def test_delta_u_zero_lower_fraction_convention():
    # at r1=0 the coefficient is 1 and the inner term is v(empty)
    game = synthetic_game(SyntheticGame.additive([1.0, 2.0, 3.0, 4.0]))
    assert _exact(game, 0.0, 0.5) == pytest.approx((2 / 4) * 10.0)


def _nested_pair_delta_u(game, r1, r2):
    """Mean of v(S2) - (s2/s1) v(S1) over every nested pair S1 inside S2, by brute force."""
    s1, s2 = band_sizes(game.n, r1, r2)
    ratio = s2 / s1 if s1 > 0 else 1.0
    inner, outer = [], []
    for big in itertools.combinations(range(game.n), s2):
        for small in itertools.combinations(big, s1):
            outer.append(sum(1 << k for k in big))
            inner.append(sum(1 << k for k in small))
    v_inner = game.evaluate_many(np.array(inner, dtype=np.uint64))
    v_outer = game.evaluate_many(np.array(outer, dtype=np.uint64))
    return float(np.mean(v_outer - ratio * v_inner))


@pytest.mark.parametrize("n,bands", [
    (6, [(1 / 3, 5 / 6), (0.0, 0.5), (0.5, 1.0)]),
    (8, [(0.25, 0.75), (0.0, 1.0), (0.125, 0.5)]),
])
def test_exact_delta_u_matches_nested_pair_enumeration(n, bands):
    game = synthetic_game(SyntheticGame.random_polynomial(n, n, 2 * n + 5, seed=n))
    for r1, r2 in bands:
        assert _exact(game, r1, r2) == pytest.approx(_nested_pair_delta_u(game, r1, r2),
                                                    rel=0, abs=1e-12)


def test_table_backed_checks_share_the_value_table_guard():
    game = synthetic_game(SyntheticGame.random_polynomial(16, 16, 37, seed=1))
    assert np.isfinite(_exact(game, 0.25, 0.75))
    assert verify_theorem2(16, 0.25, 0.75, num_games=1, seed=0) < 1e-8
    wide = synthetic_game(SyntheticGame.additive([1.0] * 21))
    with pytest.raises(GuardError):
        _exact(wide, 0.25, 0.75)
    with pytest.raises(GuardError):
        verify_theorem2(21, 0.25, 0.75, num_games=1, seed=0)


@st.composite
def _pair_draws(draw):
    n = draw(st.integers(2, 64))
    s2 = draw(st.integers(1, n))
    s1 = draw(st.integers(0, s2 - 1))
    return n, s1, s2, draw(st.integers(1, 64)), draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(_pair_draws())
@example((64, 0, 64, 1, 0))  # S2 holds every player, bit 63 included
@example((64, 63, 64, 64, 1))
def test_sample_pairs_are_nested_and_sized(draw):
    n, s1, s2, count, seed = draw
    pairs = sample_subsets((1 << n) - 1, (s1, s2), count, make_rng(seed))
    assert pairs.dtype == np.uint64 and pairs.shape == (2, count)
    for inner, outer in zip(pairs[0].tolist(), pairs[1].tolist()):
        assert inner.bit_count() == s1 and outer.bit_count() == s2
        assert inner & ~outer == 0
        assert outer >> n == 0


def test_sample_pairs_are_uniform_over_nested_pairs():
    n, s1, s2, draws = 5, 1, 3, 30_000
    pairs = sample_subsets((1 << n) - 1, (s1, s2), draws, make_rng(2024))
    counts = Counter(zip(pairs[0].tolist(), pairs[1].tolist()))
    # C(5, 3) outer sets times 3 inner players each
    expected = {(1 << i, sum(1 << k for k in big))
                for big in itertools.combinations(range(n), s2) for i in big}
    assert set(counts) == expected and len(expected) == 30
    p = 1 / len(expected)
    se = math.sqrt(draws * p * (1 - p))
    for pair, c in counts.items():
        assert abs(c - draws * p) <= 5 * se, f"pair {pair} drawn {c} times"


def _stack_masks(seed, batch, pair_samples, n=6):
    # ones masked toward a zero baseline: each stack row is its mask's indicator
    spec = ModulationSpec("encourage", 0.3, 0.7, 1.0, pair_samples)
    stacked, _ = _band_stack(spec, np.ones((batch, n)), Baseline.zeros(n), seed)
    return (stacked != 0) @ (1 << np.arange(n))


def test_band_delta_logits_masks_follow_seed_and_batch():
    batch, pair_samples = 5, 3
    masks = _stack_masks(11, batch, pair_samples)
    assert np.array_equal(masks, _stack_masks(11, batch, pair_samples))
    assert not np.array_equal(masks, _stack_masks(12, batch, pair_samples))
    # one stream per call: row b holds pairs [Pb, P(b+1)), its S1s then its S2s
    s1, s2 = band_sizes(6, 0.3, 0.7)
    pairs = sample_subsets((1 << 6) - 1, (s1, s2), batch * pair_samples,
                           make_rng(11, _ROW_STREAM))
    rows = pairs.reshape(2, batch, pair_samples).transpose(1, 0, 2).reshape(-1)
    assert masks.tolist() == rows.tolist()


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
    encourage = ModulationSpec("encourage", 1 / 3, 5 / 6, 1.0, 4)
    suppress = ModulationSpec("suppress", 1 / 3, 5 / 6, 1.0, 4)
    assert band_value_and_grad(encourage, model, X, [0, 1], 0, base)[0] == \
        pytest.approx(-np.log(probs).mean())
    assert band_value_and_grad(suppress, model, X, [0, 1], 0, base)[0] == \
        pytest.approx((probs * np.log(probs)).sum())
    with pytest.raises(DomainError):
        band_value_and_grad(encourage, model, X, [0, 2], 0, base)


def test_band_losses_share_pairs_across_classes():
    """Duplicate output columns must yield identical per-class values."""
    n = 5
    model = MLP((n, 4, 2), seed=3)
    model.weights[-1][:, 1] = model.weights[-1][:, 0]
    model.biases[-1][1] = model.biases[-1][0]
    base = Baseline.zeros(n)
    X = make_rng(4).normal(size=(1, n))
    # equal deltas make a uniform softmax, whose negative entropy is -ln 2
    spec = ModulationSpec("suppress", 0.4, 0.8, 1.0, 6)
    assert band_value_and_grad(spec, model, X, [0], 17, base)[0] == math.log(0.5)


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
    spec = ModulationSpec("encourage", 0.5, 1.0, 1.0, 2)
    assert band_value_and_grad(spec, flat, X, [0, 1, 0], 0, base)[0] == \
        pytest.approx(math.log(2.0))
    # constant logits (20, -20) with ratio 2 give saturated class-1 deltas
    flat.biases[-1][:] = (20.0, -20.0)
    assert band_value_and_grad(spec, flat, X, [1, 1, 1], 0, base)[0] < 1e-8


def test_loss_suppress_bounds():
    model, X, y, base = _fixture()
    spec = ModulationSpec("suppress", 0.3, 0.7, 1.0, 3)
    val = band_value_and_grad(spec, model, X, y, 5, base)[0]
    assert -math.log(3.0) <= val <= 0.0
    flat = MLP((6, 3), seed=0)
    for w in flat.weights:
        w[:] = 0.0
    uniform = band_value_and_grad(spec, flat, X[:, :6], y, 5, base)[0]
    assert uniform == pytest.approx(-math.log(3.0))


def test_loss_encourage_nonnegative():
    model, X, y, base = _fixture(seed=21)
    spec = ModulationSpec("encourage", 0.3, 0.7, 1.0, 3)
    assert band_value_and_grad(spec, model, X, y, 9, base)[0] >= 0.0


def test_encourage_gradient_matches_fd():
    model, X, y, base = _fixture(seed=31)
    spec = ModulationSpec("encourage", 0.3, 0.7, 1.0, 2)
    _, grads = band_value_and_grad(spec, model, X, y, 7, base)
    fd_check(model, lambda: band_value_and_grad(spec, model, X, y, 7, base)[0], grads,
             stride=5, eps=1e-4, rel=1e-4, abs=1e-8)


def test_suppress_gradient_matches_fd():
    model, X, y, base = _fixture(seed=32)
    spec = ModulationSpec("suppress", 0.7, 1.0, 1.0, 2)
    _, grads = band_value_and_grad(spec, model, X, y, 8, base)
    fd_check(model, lambda: band_value_and_grad(spec, model, X, y, 8, base)[0], grads,
             stride=5, eps=1e-4, rel=1e-4, abs=1e-8)


def test_suppress_gradient_matches_fd_zero_lower_band():
    # r1=0 puts every inner subset at the empty mask; still differentiable
    model, X, y, base = _fixture(seed=33)
    spec = ModulationSpec("suppress", 0.0, 0.5, 1.0, 2)
    _, grads = band_value_and_grad(spec, model, X, y, 9, base)
    fd_check(model, lambda: band_value_and_grad(spec, model, X, y, 9, base)[0], grads,
             stride=5, eps=1e-4, rel=1e-4, abs=1e-8)


def test_combined_loss_degenerate_and_linear():
    model, X, y, base = _fixture(seed=41)
    zero_terms = (ModulationSpec(kind="encourage", r1=0.3, r2=0.7, lam=0.0),)
    plain, _ = ce_value_and_grad(model, X, y)
    assert combined_value_and_grad(model, X, y, zero_terms, 5, base)[0] == pytest.approx(plain)

    terms = (ModulationSpec(kind="encourage", r1=0.3, r2=0.7, lam=1.0, pair_samples=3),)
    total = combined_value_and_grad(model, X, y, terms, 5, base)[0]
    separate = plain + band_value_and_grad(terms[0], model, X, y, child_seed(5, 0), base)[0]
    assert total == pytest.approx(separate)


def test_combined_gradient_matches_fd():
    model, X, y, base = _fixture(seed=42)
    terms = (ModulationSpec(kind="encourage", r1=0.3, r2=0.7, lam=0.5, pair_samples=2),
             ModulationSpec(kind="suppress", r1=0.7, r2=1.0, lam=0.25, pair_samples=2))
    _, grads = combined_value_and_grad(model, X, y, terms, 13, base)
    fd_check(model, lambda: combined_value_and_grad(model, X, y, terms, 13, base)[0], grads,
             stride=7, eps=1e-4, rel=1e-4, abs=1e-8)


_ENCOURAGE = ModulationSpec("encourage", 0.3, 0.7, 0.5, pair_samples=3)
_SUPPRESS = ModulationSpec("suppress", 0.7, 1.0, 0.25, pair_samples=2)


@pytest.mark.parametrize("terms", [
    pytest.param((), id="no-terms"),
    pytest.param((_ENCOURAGE,), id="one-term"),
    pytest.param((_ENCOURAGE, _SUPPRESS), id="two-terms"),
    pytest.param((_SUPPRESS, ModulationSpec("encourage", 0.3, 0.7, 0.0), _ENCOURAGE),
                 id="zero-lambda-term"),
])
def test_combined_pass_equals_the_sum_of_its_losses(terms):
    # one forward and one backward over [batch; stacks] against separate passes
    model, X, y, base = _fixture(seed=43)
    total, grads = combined_value_and_grad(model, X, y, terms, 21, base)
    want_total, want = ce_value_and_grad(model, X, y)
    want_flat = flatten_grads(want)
    for t, spec in enumerate(terms):
        if spec.lam == 0:
            continue
        value, term_grads = band_value_and_grad(spec, model, X, y, child_seed(21, t), base)
        want_total += spec.lam * value
        want_flat = want_flat + spec.lam * flatten_grads(term_grads)
    assert total == pytest.approx(want_total, rel=1e-12, abs=0)
    assert np.allclose(flatten_grads(grads), want_flat, rtol=1e-12, atol=1e-15)
    if not any(spec.lam for spec in terms):
        # no active term: the plain cross-entropy path, bit for bit
        assert total == want_total
        assert np.array_equal(flatten_grads(grads), want_flat)


def test_verify_theorem2_small_bands():
    assert verify_theorem2(6, 2 / 6, 5 / 6, num_games=5, seed=0) < 1e-10
    assert verify_theorem2(8, 0.25, 0.75, num_games=5, seed=1) < 1e-8
    with pytest.raises(DomainError):
        verify_theorem2(6, 0.0, 0.5, num_games=2, seed=0)
    with pytest.raises(DomainError):
        verify_theorem2(6, 1 / 3, 5 / 6, num_games=0, seed=0)


def test_theorem2_weight_guards():
    # the weight is undefined where s1 rounds to 0, also for r1 > 0: there
    # the independent effects would not cancel, so verification refuses
    for n, r1, r2 in [(4, 0.1, 0.9), (6, 0.05, 0.5), (10, 0.0, 0.5)]:
        assert band_sizes(n, r1, r2)[0] == 0
        for seed in range(3):
            with pytest.raises(DomainError):
                verify_theorem2(n, r1, r2, num_games=2, seed=seed)
