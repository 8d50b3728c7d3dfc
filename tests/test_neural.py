import math

import numpy as np
import pytest

from shapguard import neural
from shapguard.neural import Adam, MlpModel, MlpSpec, TrainConfig


def _linear_model(w, b, output="linear"):
    """Single-layer model with explicit weights."""
    w = np.atleast_2d(np.asarray(w, float))
    b = np.atleast_1d(np.asarray(b, float))
    spec = MlpSpec((w.shape[1], w.shape[0]), output_activation=output, seed=0)
    return MlpModel(spec=spec, weights=[w], biases=[b])


def _fd_logit_grad_input(model, x, h=1e-5):
    """Independent central-difference oracle for the logit's input gradient."""
    grad = np.empty_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        gp, gm = (neural.forward(model, v[None, :])[1].pre[-1][0, 0] for v in (xp, xm))
        grad[j] = (gp - gm) / (2 * h)
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
    out, _ = neural.forward(model, np.array([[1.0, 1.0]]))
    assert out[0, 0] == pytest.approx(0.5, abs=0)


def test_forward_sigmoid_hand_value():
    model = _linear_model([[2.0, -2.0]], [0.5], output="sigmoid")
    out, _ = neural.forward(model, np.array([[1.0, 1.0]]))
    assert out[0, 0] == pytest.approx(0.6224593312018546, abs=1e-12)


def test_forward_relu_gating():
    spec = MlpSpec((1, 2, 1), output_activation="linear", seed=0)
    model = MlpModel(
        spec=spec,
        weights=[np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
        biases=[np.zeros(2), np.zeros(1)],
    )
    _, trace = neural.forward(model, np.array([[3.0]]))
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
    with pytest.raises(ValueError, match="3 features"):
        neural.forward(model, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="matrix of rows"):
        neural.forward(model, np.zeros(4))


@pytest.mark.parametrize("output", ["sigmoid", "linear"])
def test_forward_one_row_stack_is_bitwise_one_row_calls(output):
    model = neural.init(MlpSpec((6, 8, 3, 1), output_activation=output, seed=5))
    model.biases = [np.full(b.shape, 0.1) for b in model.biases]
    X = np.random.default_rng(3).uniform(0, 1, (9, 6))
    out, trace = neural.forward(model, X[:, None, :])
    assert out.shape == (9, 1, 1)
    for k in range(9):
        out_k, trace_k = neural.forward(model, X[k : k + 1])
        assert np.array_equal(out[k], out_k)
        for stacked, alone in zip(trace.pre + trace.post, trace_k.pre + trace_k.post):
            assert np.array_equal(stacked[k], alone), k


def test_forward_stack_rejects_wrong_shapes():
    model = neural.init(MlpSpec((6, 4, 1), seed=0))
    with pytest.raises(ValueError, match="5 features"):
        neural.forward(model, np.zeros((3, 1, 5)))
    with pytest.raises(ValueError):
        neural.forward(model, np.zeros((3, 2, 6)))


@pytest.mark.parametrize(
    "call",
    [
        lambda model, X, y: neural.predict(model, X),
        lambda model, X, y: neural.train(model, X, y, TrainConfig(epochs=1)),
        lambda model, X, y: neural.grad_params(model, X, y, "bce"),
    ],
    ids=["predict", "train", "grad_params"],
)
def test_only_forward_takes_a_stack(call):
    model = neural.init(MlpSpec((6, 4, 1), seed=0))
    X = np.random.default_rng(0).uniform(0, 1, (3, 1, 6))
    with pytest.raises(ValueError, match="matrix of rows"):
        call(model, X, np.array([0.0, 1.0, 1.0]))


def test_grad_logit_input_on_a_stack_is_bitwise_one_row_calls():
    model = neural.init(MlpSpec((6, 8, 3, 1), seed=5))
    model.biases = [np.full(b.shape, 0.1) for b in model.biases]
    X = np.random.default_rng(3).uniform(0, 1, (9, 6))
    stacked = neural.grad_logit_input(model, X[:, None, :])
    assert stacked.shape == (9, 1, 6)
    for k in range(9):
        assert np.array_equal(stacked[k], neural.grad_logit_input(model, X[k : k + 1])), k
    with pytest.raises(ValueError, match="matrix of rows"):
        neural.grad_logit_input(model, X[0])


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


@pytest.mark.parametrize("bad", [0.5, -1.0, 2.0, math.nan, math.inf, -math.inf])
def test_bce_rejects_each_non_binary_target_value(bad):
    with pytest.raises(ValueError, match="bce targets must be 0 or 1"):
        neural.loss_value(np.array([0.5, 0.5]), np.array([1.0, bad]), "bce")


def test_bce_accepts_negative_zero_and_is_the_mean_cross_entropy():
    rng = np.random.default_rng(0)
    outputs = rng.uniform(0.0, 1.0, size=(256, 1))
    targets = (rng.uniform(size=(256, 1)) < 0.5).astype(np.float64)
    targets[0, 0] = -0.0
    p = np.clip(outputs, neural.BCE_CLIP, 1.0 - neural.BCE_CLIP)
    expected = float(-np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)))
    assert neural.loss_value(outputs, targets, "bce") == expected


# ---------------------------------------------------------------------------
# gradients


def test_grad_params_matches_linear_regression_form():
    model = _linear_model([[0.7, -0.3]], [0.1], output="linear")
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (10, 2))
    y = rng.uniform(-1, 1, (10, 1))
    out, _ = neural.forward(model, X)
    err = out - y
    loss, dWs, dbs = neural.grad_params(model, X, y, "mse")
    assert loss == neural.loss_value(out, y, "mse")
    assert np.allclose(dWs[0], 2.0 * (err.T @ X) / 10, atol=1e-14)
    assert np.allclose(dbs[0], 2.0 * err.mean(axis=0), atol=1e-14)


def test_grad_params_zero_at_perfect_reconstruction():
    model = _linear_model(np.eye(3), np.zeros(3), output="linear")
    X = np.random.default_rng(0).uniform(0, 1, (5, 3))
    loss, dWs, dbs = neural.grad_params(model, X, X, "mse")
    assert loss == 0.0
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
        _, dWs, dbs = neural.grad_params(model, X, t, loss)
        fWs, fbs = _fd_loss_grad_params(model, X, t, loss)
        for a, b in zip(dWs + dbs, fWs + fbs):
            assert _rel_err(a, b) <= 1e-4


def test_grad_input_logistic_analytic_form():
    # g(x) = w.x + b, so grad g = w at every x, the sigmoid saturated or not
    w = np.array([2.0, -2.0])
    for b in (0.0, 60.0):
        model = _linear_model([w], [b], output="sigmoid")
        grad = neural.grad_logit_input(model, np.array([[0.5, 0.5], [0.1, 0.9]]))
        assert np.array_equal(grad, [w, w])


def test_grad_input_finite_difference_oracle():
    for trial in range(5):
        model, X, _ = _random_net_away_from_kinks(trial + 50, (4, 6, 3, 1), 1)
        grad = neural.grad_logit_input(model, X)[0]
        fd = _fd_logit_grad_input(model, X[0])
        assert _rel_err(grad, fd) <= 1e-4


def test_grad_input_dead_relu_path_is_zero():
    spec = MlpSpec((2, 2, 1), output_activation="sigmoid", seed=0)
    model = MlpModel(
        spec=spec,
        weights=[np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]])],
        biases=[np.array([-10.0, -10.0]), np.zeros(1)],
    )
    grad = neural.grad_logit_input(model, np.array([[0.5, 0.5]]))[0]
    assert np.all(grad == 0.0)


def test_each_loss_requires_its_output_activation():
    X = np.array([[0.5, 0.5]])
    sigmoid = _linear_model([[2.0, -2.0]], [0.0], output="sigmoid")
    linear = _linear_model([[2.0, -2.0]], [0.0], output="linear")
    with pytest.raises(ValueError, match="bce loss requires a sigmoid output"):
        neural.grad_params(linear, X, np.array([1.0]), "bce")
    with pytest.raises(ValueError, match="mse loss requires a linear output"):
        neural.grad_params(sigmoid, X, np.array([1.0]), "mse")


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
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite loss at epoch 1$"):
        neural.train(model, Z, Z, TrainConfig(epochs=3, loss="mse", seed=0))


def test_train_does_not_mutate_input_model():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, (30, 2))
    y = rng.integers(0, 2, 30)
    model = neural.init(MlpSpec((2, 3, 1), seed=9))
    before = [W.copy() for W in model.weights]
    trained, _ = neural.train(model, X, y, TrainConfig(epochs=2, seed=0))
    assert all(np.array_equal(a, b) for a, b in zip(before, model.weights))
    inputs = [X, y, *model.weights, *model.biases]
    for a in [*trained.weights, *trained.biases]:
        assert not any(np.shares_memory(a, b) for b in inputs)


def test_grad_params_are_views_of_one_flat_vector():
    model = neural.init(MlpSpec((4, 3, 2, 1), seed=1))
    X = np.random.default_rng(0).uniform(0, 1, (5, 4))
    _, dWs, dbs = neural.grad_params(model, X, np.array([0, 1, 1, 0, 1]), "bce")
    flat = dWs[0].base
    assert flat.shape == (4 * 3 + 3 * 2 + 2 * 1 + 3 + 2 + 1,)
    assert all(g.base is flat for g in dWs + dbs)
    assert np.array_equal(flat, np.concatenate([g.ravel() for g in dWs + dbs]))


def _inline_adam_training(model, X, targets, cfg):
    """The training loop as it was before it called grad_params, with the
    loss, the output delta, backpropagation and Adam's constants (0.9,
    0.999, 1e-8) spelled out one parameter array at a time; the bitwise
    oracle for neural.train."""
    t_all = np.asarray(targets, dtype=np.float64)
    t_all = t_all[:, None] if t_all.ndim == 1 else t_all
    work = MlpModel(model.spec, [W.copy() for W in model.weights],
                    [b.copy() for b in model.biases])
    params = [*work.weights, *work.biases]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    rng = np.random.default_rng(cfg.seed)
    history, step = [], 0
    for _ in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        total = 0.0
        for start in range(0, X.shape[0], cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, tb = X[idx], t_all[idx]
            out, trace = neural.forward(work, xb)
            if cfg.loss == "bce":
                prob = np.clip(out, 1e-7, 1.0 - 1e-7)
                batch_loss = float(-np.mean(tb * np.log(prob) + (1.0 - tb) * np.log(1.0 - prob)))
                delta = (out - tb) / xb.shape[0]
            else:
                batch_loss = float(np.mean(((out - tb) ** 2).sum(axis=1)))
                delta = 2.0 * (out - tb) / xb.shape[0]
            d_pres, d_pre = [delta], delta
            for i in reversed(range(len(work.weights))):
                d_h = d_pre @ work.weights[i]
                if i > 0:
                    d_pre = d_h * (trace.pre[i - 1] > 0)
                    d_pres.insert(0, d_pre)
            h_prev = [trace.inputs, *trace.post[:-1]]
            grads = [d.T @ h for d, h in zip(d_pres, h_prev)] + [d.sum(axis=0) for d in d_pres]
            step += 1
            for p, g, (m, v) in zip(params, grads, moments):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                m_hat = m / (1.0 - 0.9**step)
                v_hat = v / (1.0 - 0.999**step)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            total += batch_loss * xb.shape[0]
        history.append(total / X.shape[0])
    return work, history


@pytest.mark.parametrize(
    "sizes, output, loss, n, batch_size, epochs",
    [
        ((12, 16, 8, 1), "sigmoid", "bce", 300, 64, 4),
        ((12, 8, 4, 8, 12), "linear", "mse", 300, 64, 4),
        # the benchmark's NIDS and autoencoder at CIC-IoT2023 width
        ((39, 64, 32, 1), "sigmoid", "bce", 300, 64, 3),
        ((39, 32, 16, 8, 16, 32, 39), "linear", "mse", 256, 64, 3),
        ((12, 16, 8, 1), "sigmoid", "bce", 50, 64, 4),
        ((12, 8, 4, 8, 12), "linear", "mse", 40, 1, 2),
    ],
    ids=["bce-classifier", "mse-autoencoder", "bce-cic39-nids", "mse-cic39-autoencoder",
         "batch-larger-than-n", "batch-of-one"],
)
def test_train_is_bitwise_the_inline_adam_loop(sizes, output, loss, n, batch_size, epochs):
    rng = np.random.default_rng(17)
    X = rng.uniform(0, 1, (n, sizes[0]))
    targets = rng.integers(0, 2, n) if loss == "bce" else X
    model = neural.init(MlpSpec(sizes, output_activation=output, seed=5))
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.01, loss=loss, seed=9)
    trained, history = neural.train(model, X, targets, cfg)
    oracle, oracle_history = _inline_adam_training(model, X, targets, cfg)
    assert history == oracle_history
    for a, b in zip([*trained.weights, *trained.biases], [*oracle.weights, *oracle.biases]):
        assert np.array_equal(a, b)


def test_adam_zero_learning_rate_is_identity():
    params = np.array([1.0, -2.0, 0.5])
    snapshot = params.copy()
    opt = Adam(lr=0.0)
    opt.step(params, np.array([3.0, 4.0, 5.0]))
    assert np.array_equal(params, snapshot)


# ---------------------------------------------------------------------------
# predict


def test_predict_cutoff_and_tie_rule():
    model = _linear_model([[1.0]], [0.0], output="sigmoid")
    # logit 0 -> p = 0.5 -> label 0 (strict inequality)
    p, label = neural.predict(model, np.array([[0.0], [1.0]]))
    assert p[0] == 0.5 and label[0] == 0
    assert p[1] > 0.5 and label[1] == 1


def test_predict_batch_shape():
    model = _linear_model([[1.0, 1.0]], [0.0], output="sigmoid")
    probs, labels = neural.predict(model, np.zeros((7, 2)))
    assert probs.shape == (7,) and labels.shape == (7,)


def test_predict_rejects_linear_output():
    model = _linear_model([[1.0]], [0.0], output="linear")
    with pytest.raises(ValueError):
        neural.predict(model, np.array([[0.0]]))


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
    x = np.array([[0.2, 0.5, 0.9]])
    out, trace = neural.forward(model, x)
    g = trace.pre[-1][0, 0]
    assert 1.0 / (1.0 + math.exp(-g)) == pytest.approx(out[0, 0], abs=1e-12)
