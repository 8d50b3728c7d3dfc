import math

import numpy as np
import pytest

from shapguard import neural
from shapguard.neural import (
    Adam,
    MlpModel,
    MlpSpec,
    TrainConfig,
    TrainingDivergedError,
)


def _linear_model(w, b, output="linear"):
    """Single-layer model with explicit weights."""
    w = np.atleast_2d(np.asarray(w, float))
    b = np.atleast_1d(np.asarray(b, float))
    spec = MlpSpec((w.shape[1], w.shape[0]), output_activation=output, seed=0)
    return MlpModel(spec=spec, weights=[w], biases=[b])


def _fd_loss_grad_input(model, x, target, loss, h=1e-5):
    """Independent central-difference oracle for input gradients."""
    grad = np.empty_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        op, _ = neural.forward(model, xp)
        om, _ = neural.forward(model, xm)
        lp = neural.loss_value(op, np.atleast_1d(target), loss)
        lm = neural.loss_value(om, np.atleast_1d(target), loss)
        grad[j] = (lp - lm) / (2 * h)
    return grad


def _fd_loss_grad_params(model, X, targets, loss, h=1e-5):
    """Independent central-difference oracle for parameter gradients."""
    def batch_loss():
        out, _ = neural.forward(model, X)
        return neural.loss_value(out, targets, loss)

    dWs, dbs = [], []
    for arrs, store in ((model.weights, dWs), (model.biases, dbs)):
        for P in arrs:
            g = np.empty_like(P)
            flat = P.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                lp = batch_loss()
                flat[k] = orig - h
                lm = batch_loss()
                flat[k] = orig
                g.reshape(-1)[k] = (lp - lm) / (2 * h)
            store.append(g)
    return dWs, dbs


def _rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


def _random_net_away_from_kinks(seed, layer_sizes, n_inputs, output="sigmoid"):
    """Model + batch whose pre-activations stay clear of relu kinks.

    Central differences are only a valid derivative oracle away from the
    relu kink, so configurations with any |pre-activation| <= 1e-3 are
    redrawn under the next sub-seed.
    """
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        spec = MlpSpec(layer_sizes, output_activation=output, seed=int(rng.integers(1e6)))
        model = neural.init(spec)
        model.biases = [rng.normal(0.0, 0.2, b.shape) for b in model.biases]
        X = rng.uniform(0.05, 0.95, (n_inputs, layer_sizes[0]))
        _, trace = neural.forward(model, X)
        margin = min(np.min(np.abs(z)) for z in trace.pre[:-1]) if len(trace.pre) > 1 else 1.0
        if margin > 1e-3:
            return model, X, rng
    raise AssertionError("could not find a kink-free configuration")


# ---------------------------------------------------------------------------
# init


def test_init_deterministic_under_seed():
    spec = MlpSpec((39, 64, 32, 1), seed=1)
    a, b = neural.init(spec), neural.init(spec)
    for Wa, Wb in zip(a.weights, b.weights):
        assert np.array_equal(Wa, Wb)


def test_init_shapes_and_zero_bias():
    model = neural.init(MlpSpec((2, 1), seed=0))
    assert model.weights[0].shape == (1, 2)
    assert model.biases[0].shape == (1,)
    assert np.all(model.biases[0] == 0.0)


def test_init_weight_bound():
    model = neural.init(MlpSpec((9, 16, 4, 1), seed=3))
    for W, fan_in in zip(model.weights, (9, 16, 4)):
        assert np.max(np.abs(W)) <= 1.0 / math.sqrt(fan_in)


# ---------------------------------------------------------------------------
# forward


def test_forward_linear_hand_value():
    model = _linear_model([[2.0, -2.0]], [0.5], output="linear")
    out, _ = neural.forward(model, np.array([1.0, 1.0]))
    assert out[0] == pytest.approx(0.5, abs=0)


def test_forward_sigmoid_hand_value():
    model = _linear_model([[2.0, -2.0]], [0.5], output="sigmoid")
    out, _ = neural.forward(model, np.array([1.0, 1.0]))
    assert out[0] == pytest.approx(0.6224593312018546, abs=1e-12)


def test_forward_relu_gating():
    spec = MlpSpec((1, 2, 1), output_activation="linear", seed=0)
    model = MlpModel(
        spec=spec,
        weights=[np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
        biases=[np.zeros(2), np.zeros(1)],
    )
    _, trace = neural.forward(model, np.array([3.0]))
    assert trace.post[0].tolist() == [[3.0, 0.0]]


def test_forward_batch_order_equivariance():
    model = neural.init(MlpSpec((6, 8, 3, 1), seed=5))
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (17, 6))
    perm = rng.permutation(17)
    out, _ = neural.forward(model, X)
    out_perm, _ = neural.forward(model, X[perm])
    assert np.array_equal(out[perm], out_perm)


def test_forward_shape_mismatch():
    model = neural.init(MlpSpec((4, 1), seed=0))
    with pytest.raises(ValueError):
        neural.forward(model, np.zeros(3))


# ---------------------------------------------------------------------------
# loss


def test_mse_identity_is_zero():
    assert neural.loss_value(np.array([1.0, 2.0]), np.array([1.0, 2.0]), "mse") == 0.0


def test_mse_is_mean_of_per_sample_squared_l2():
    outputs = np.zeros((2, 2))
    targets = np.array([[1.0, 0.0], [1.0, np.sqrt(2.0)]])  # norms^2 = 1 and 3
    assert neural.loss_value(outputs, targets, "mse") == pytest.approx(2.0, abs=1e-15)


def test_bce_half_is_ln2():
    assert neural.loss_value(np.array([0.5]), np.array([1.0]), "bce") == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_bce_rejects_non_binary_targets():
    with pytest.raises(ValueError):
        neural.loss_value(np.array([0.5]), np.array([0.3]), "bce")


# ---------------------------------------------------------------------------
# gradients


def test_grad_params_matches_linear_regression_form():
    model = _linear_model([[0.7, -0.3]], [0.1], output="linear")
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (10, 2))
    y = rng.uniform(-1, 1, (10, 1))
    out, _ = neural.forward(model, X)
    err = out - y
    dWs, dbs = neural.grad_params(model, X, y, "mse")
    assert np.allclose(dWs[0], 2.0 * (err.T @ X) / 10, atol=1e-14)
    assert np.allclose(dbs[0], 2.0 * err.mean(axis=0), atol=1e-14)


def test_grad_params_zero_at_perfect_reconstruction():
    model = _linear_model(np.eye(3), np.zeros(3), output="linear")
    X = np.random.default_rng(0).uniform(0, 1, (5, 3))
    dWs, dbs = neural.grad_params(model, X, X, "mse")
    assert all(np.all(g == 0.0) for g in dWs + dbs)


def test_grad_params_finite_difference_oracle():
    for trial in range(5):
        output = "sigmoid" if trial % 2 == 0 else "linear"
        loss = "bce" if output == "sigmoid" else "mse"
        model, X, rng = _random_net_away_from_kinks(trial, (3, 5, 4, 1), 4, output)
        t = (
            rng.integers(0, 2, (4, 1)).astype(float)
            if loss == "bce"
            else rng.uniform(0, 1, (4, 1))
        )
        dWs, dbs = neural.grad_params(model, X, t, loss)
        fWs, fbs = _fd_loss_grad_params(model, X, t, loss)
        for a, b in zip(dWs + dbs, fWs + fbs):
            assert _rel_err(a, b) <= 1e-4


def test_grad_input_logistic_analytic_form():
    w = np.array([2.0, -2.0])
    model = _linear_model([w], [0.0], output="sigmoid")
    x = np.array([0.5, 0.5])
    p, _ = neural.predict(model, x)
    grad = neural.grad_input_batch(model, x[None, :], np.array([1]), "bce")[0]
    assert np.allclose(grad, (p - 1.0) * w, atol=1e-14)


def test_grad_input_finite_difference_oracle():
    for trial in range(5):
        model, X, rng = _random_net_away_from_kinks(trial + 50, (4, 6, 3, 1), 1)
        x = X[0]
        y = int(rng.integers(0, 2))
        grad = neural.grad_input_batch(model, x[None, :], np.array([y]), "bce")[0]
        fd = _fd_loss_grad_input(model, x, y, "bce")
        assert _rel_err(grad, fd) <= 1e-4


def test_grad_input_dead_relu_path_is_zero():
    spec = MlpSpec((2, 2, 1), output_activation="sigmoid", seed=0)
    model = MlpModel(
        spec=spec,
        weights=[np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]])],
        biases=[np.array([-10.0, -10.0]), np.zeros(1)],
    )
    grad = neural.grad_input_batch(model, np.array([[0.5, 0.5]]), np.array([1]), "bce")[0]
    assert np.all(grad == 0.0)


# ---------------------------------------------------------------------------
# training


def test_train_separable_toy_reaches_high_accuracy():
    rng = np.random.default_rng(5)
    n = 100
    X = np.clip(
        np.vstack(
            [rng.normal([0.3, 0.3], 0.05, (n, 2)), rng.normal([0.7, 0.7], 0.05, (n, 2))]
        ),
        0,
        1,
    )
    y = np.r_[np.zeros(n, int), np.ones(n, int)]
    model = neural.init(MlpSpec((2, 8, 1), seed=1))
    model, history = neural.train(
        model, X, y, TrainConfig(epochs=200, batch_size=32, learning_rate=0.01, seed=4)
    )
    _, labels = neural.predict(model, X)
    assert np.mean(labels == y) >= 0.99
    assert len(history) == 200
    assert all(np.isfinite(v) for v in history)


def test_train_epochs_zero_rejected():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_train_deterministic_history():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, (60, 3))
    y = rng.integers(0, 2, 60)
    cfg = TrainConfig(epochs=5, batch_size=16, learning_rate=1e-3, seed=3)
    model = neural.init(MlpSpec((3, 4, 1), seed=2))
    _, h1 = neural.train(model, X, y, cfg)
    _, h2 = neural.train(model, X, y, cfg)
    assert h1 == h2


def test_train_divergence_names_epoch():
    # mse on astronomically scaled targets overflows on the first batch
    Z = np.full((8, 2), 1e200)
    model = neural.init(MlpSpec((2, 2), output_activation="linear", seed=0))
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError, match="epoch 1"):
        neural.train(model, Z, Z, TrainConfig(epochs=3, loss="mse", seed=0))


def test_train_does_not_mutate_input_model():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, (30, 2))
    y = rng.integers(0, 2, 30)
    model = neural.init(MlpSpec((2, 3, 1), seed=9))
    before = [W.copy() for W in model.weights]
    neural.train(model, X, y, TrainConfig(epochs=2, seed=0))
    assert all(np.array_equal(a, b) for a, b in zip(before, model.weights))


def test_adam_zero_learning_rate_is_identity():
    params = [np.array([1.0, -2.0]), np.array([[0.5]])]
    snapshot = [p.copy() for p in params]
    opt = Adam(lr=0.0)
    opt.step(params, [np.array([3.0, 4.0]), np.array([[5.0]])])
    assert all(np.array_equal(p, s) for p, s in zip(params, snapshot))


# ---------------------------------------------------------------------------
# predict


def test_predict_cutoff_and_tie_rule():
    model = _linear_model([[1.0]], [0.0], output="sigmoid")
    # logit 0 -> p = 0.5 -> label 0 (strict inequality)
    p, label = neural.predict(model, np.array([0.0]))
    assert p == 0.5 and label == 0
    p, label = neural.predict(model, np.array([1.0]))
    assert p > 0.5 and label == 1


def test_predict_batch_shape():
    model = _linear_model([[1.0, 1.0]], [0.0], output="sigmoid")
    probs, labels = neural.predict(model, np.zeros((7, 2)))
    assert probs.shape == (7,) and labels.shape == (7,)


def test_predict_rejects_linear_output():
    model = _linear_model([[1.0]], [0.0], output="linear")
    with pytest.raises(ValueError):
        neural.predict(model, np.array([0.0]))


# ---------------------------------------------------------------------------
# serialization


def test_save_load_reproduces_outputs_bit_exactly(tmp_path):
    model = neural.init(MlpSpec((5, 7, 3, 1), seed=11))
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, (20, 5))
    out, _ = neural.forward(model, X)
    path = tmp_path / "model.json"
    neural.save(model, path)
    back = neural.load(path)
    out2, _ = neural.forward(back, X)
    assert np.array_equal(out, out2)
    assert back.spec == model.spec


def test_logit_matches_inverse_sigmoid():
    model = neural.init(MlpSpec((3, 4, 1), seed=6))
    x = np.array([0.2, 0.5, 0.9])
    g = neural.logit(model, x)
    out, _ = neural.forward(model, x)
    assert 1.0 / (1.0 + math.exp(-g)) == pytest.approx(out[0], abs=1e-12)
