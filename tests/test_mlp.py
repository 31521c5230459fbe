"""Tests for the small feed-forward network and its exact gradients."""
import json

import numpy as np
import pytest

from interaction_lab import (
    MLP,
    DimensionError,
    DomainError,
    SchemaError,
    ValidationError,
    accuracy,
    ce_value_and_grad,
    cross_entropy,
    cross_entropy_grad,
    load_model,
    log_softmax,
    make_rng,
    save_model,
    softmax,
)

from _fd import fd_check


def _jittered(layer_sizes, seed=0):
    """Seeded model with biases nudged off zero so no ReLU sits on its kink."""
    model = MLP(layer_sizes, seed=seed)
    rng = make_rng(seed, 999)
    for b in model.biases:
        b += rng.normal(0.0, 0.05, size=b.shape)
    return model


def test_init_is_seeded_and_shaped():
    a = MLP((5, 7, 3), seed=42)
    b = MLP((5, 7, 3), seed=42)
    c = MLP((5, 7, 3), seed=43)
    assert [w.shape for w in a.weights] == [(5, 7), (7, 3)]
    assert [b_.shape for b_ in a.biases] == [(7,), (3,)]
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))
    assert all(np.all(b_ == 0.0) for b_ in a.biases)
    assert a.num_features == 5 and a.num_classes == 3


def test_init_rejects_bad_architectures():
    with pytest.raises(ValidationError):
        MLP((4,))
    with pytest.raises(ValidationError):
        MLP((4, 0, 2))


def test_from_params_checks_shapes():
    base = MLP((3, 4, 2), seed=0)
    with pytest.raises(DimensionError):
        MLP.from_params((3, 4, 2), base.weights[:1], base.biases)
    bad_w = [base.weights[0], np.zeros((4, 3))]
    with pytest.raises(DimensionError):
        MLP.from_params((3, 4, 2), bad_w, base.biases)


def test_forward_matches_manual_computation():
    model = MLP((2, 3, 2), seed=1)
    X = np.array([[0.5, -1.0], [2.0, 0.25]])
    h = np.maximum(X @ model.weights[0] + model.biases[0], 0.0)
    expected = h @ model.weights[1] + model.biases[1]
    assert np.allclose(model.forward(X), expected)


def test_forward_rejects_wrong_width():
    model = MLP((4, 2), seed=0)
    with pytest.raises(DimensionError):
        model.forward(np.zeros((3, 5)))
    with pytest.raises(DimensionError):
        model.forward(np.zeros(4))


def test_backward_passes_reject_wrong_dlogits_shape():
    model = MLP((4, 3, 2), seed=0)
    _, trace = model.forward_trace(np.zeros((5, 4)))
    for backprop in (model.backward, model.input_gradient):
        with pytest.raises(DimensionError):
            backprop(trace, np.zeros((5, 3)))
        with pytest.raises(DimensionError):
            backprop(trace, np.zeros((4, 2)))


def test_softmax_and_log_softmax_are_stable():
    big = np.array([[1000.0, 1001.0, 999.0]])
    p = softmax(big)
    assert np.all(np.isfinite(p))
    assert p.sum() == pytest.approx(1.0)
    lp = log_softmax(big)
    assert np.all(np.isfinite(lp))
    assert np.allclose(np.exp(lp), p)


def test_cross_entropy_known_value():
    logits = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert cross_entropy(logits, [0, 1]) == pytest.approx(np.log(2.0))
    perfect = np.array([[50.0, 0.0]])
    assert cross_entropy(perfect, [0]) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_label_guards():
    logits = np.zeros((2, 3))
    with pytest.raises(DomainError):
        cross_entropy(logits, [0, 3])
    with pytest.raises(DimensionError):
        cross_entropy(logits, [0])
    with pytest.raises(ValidationError):
        cross_entropy(np.zeros((0, 3)), [])


def test_cross_entropy_grad_matches_fd():
    rng = make_rng(5)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    g = cross_entropy_grad(logits, labels)
    eps = 1e-6
    for r in range(4):
        for c in range(3):
            up, dn = logits.copy(), logits.copy()
            up[r, c] += eps
            dn[r, c] -= eps
            fd = (cross_entropy(up, labels) - cross_entropy(dn, labels)) / (2 * eps)
            assert g[r, c] == pytest.approx(fd, abs=1e-8)


def test_accuracy_counts_argmax_rows():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 1.0]])
    # tie on the last row resolves to class 0
    assert accuracy(logits, [0, 1, 0]) == pytest.approx(1.0)
    assert accuracy(logits, [1, 1, 1]) == pytest.approx(1 / 3)


def test_ce_param_gradient_matches_fd():
    model = _jittered((4, 6, 3), seed=7)
    rng = make_rng(8)
    X = rng.normal(size=(5, 4))
    y = np.array([0, 1, 2, 0, 1])
    _, grads = ce_value_and_grad(model, X, y)
    fd_check(model, lambda: ce_value_and_grad(model, X, y)[0], grads,
             stride=7, eps=1e-6, rel=1e-4, abs=1e-9)


def test_ce_input_gradient_matches_fd():
    model = _jittered((3, 5, 2), seed=9)
    rng = make_rng(10)
    X = rng.normal(size=(2, 3))
    y = np.array([1, 0])
    logits, trace = model.forward_trace(X)
    grad = model.input_gradient(trace, cross_entropy_grad(logits, y))
    eps = 1e-6
    for r in range(2):
        for c in range(3):
            up, dn = X.copy(), X.copy()
            up[r, c] += eps
            dn[r, c] -= eps
            fd = (ce_value_and_grad(model, up, y)[0]
                  - ce_value_and_grad(model, dn, y)[0]) / (2 * eps)
            assert grad[r, c] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_save_load_round_trip(tmp_path):
    model = _jittered((4, 5, 3), seed=11)
    model.meta = {"feature_names": ["a", "b", "c", "d"]}
    path = tmp_path / "model.json"
    save_model(path, model, meta={"run": "t"})
    loaded = load_model(path)
    assert loaded.layer_sizes == model.layer_sizes
    assert loaded.seed == model.seed
    assert all(np.array_equal(a, b) for a, b in zip(model.weights, loaded.weights))
    assert all(np.array_equal(a, b) for a, b in zip(model.biases, loaded.biases))
    assert loaded.meta["run"] == "t"
    assert loaded.meta["feature_names"] == ["a", "b", "c", "d"]
    first = path.read_bytes()
    save_model(path, model, meta={"run": "t"})
    assert path.read_bytes() == first


def test_load_rejects_bad_files(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_model(path)
    path.write_text(json.dumps({"version": "nope"}), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_model(path)
    model = MLP((2, 2), seed=0)
    save_model(path, model)
    obj = json.loads(path.read_text(encoding="utf-8"))
    del obj["weights"]
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_model(path)
    save_model(path, model)
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["weights"][0][0][0] = None
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_model(path)

