import numpy as np
import pytest

from shapguard import attacks, data, neural
from shapguard.attacks import (
    AttackConfig,
    DegenerateGradientError,
    EmptyBatchError,
)


def _linear_sigmoid(w, b):
    w = np.atleast_2d(np.asarray(w, float))
    spec = neural.MlpSpec((w.shape[1], 1), output_activation="sigmoid", seed=0)
    return neural.MlpModel(spec=spec, weights=[w], biases=[np.atleast_1d(float(b))])


def _trained_toy(seed=21, m=10, n=600):
    ds = data.synth_generate(n, m, class_separation=0.4, noise=0.1, seed=seed)
    model = neural.init(neural.MlpSpec((m, 32, 16, 1), seed=5))
    model, _ = neural.train(
        model, ds.X, ds.y, neural.TrainConfig(epochs=40, batch_size=128, learning_rate=0.01, seed=3)
    )
    return model, ds


# ---------------------------------------------------------------------------
# config validation


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(kind="bogus")
    with pytest.raises(ValueError):
        AttackConfig(kind="fgsm", epsilon=0.0)
    with pytest.raises(ValueError):
        AttackConfig(kind="pgd", epsilon=0.1, alpha=0.2)  # alpha > epsilon
    with pytest.raises(ValueError):
        AttackConfig(kind="pgd", steps=0)
    with pytest.raises(ValueError):
        AttackConfig(kind="deepfool", max_iter=0)
    with pytest.raises(ValueError):
        AttackConfig(kind="deepfool", overshoot=-0.1)


# ---------------------------------------------------------------------------
# fgsm: one pgd step of size epsilon


def _one_step(epsilon):
    return AttackConfig(kind="pgd", epsilon=epsilon, alpha=epsilon, steps=1, random_start=False)


def test_fgsm_analytic_logistic_example():
    # w=[2,-2], b=0, x=[.5,.5], y=1: grad = (sigma-1)*w, signs [-1,+1]
    model = _linear_sigmoid([2.0, -2.0], 0.0)
    x_adv = attacks.pgd(model, np.array([0.5, 0.5]), 1, _one_step(0.1))
    assert np.allclose(x_adv, [0.4, 0.6], atol=1e-15)


def test_fgsm_clamps_at_box_corner():
    # gradient pushes below 0 / above 1; clamped coordinates stay put
    model = _linear_sigmoid([2.0, -2.0], 0.0)
    x = np.array([0.0, 1.0])
    x_adv = attacks.pgd(model, x, 1, _one_step(0.1))
    assert np.array_equal(x_adv, x)


# ---------------------------------------------------------------------------
# pgd


def test_pgd_single_step_equals_fgsm_bitwise():
    model, ds = _trained_toy()
    X, y = ds.X[:50], ds.y[:50]
    cfg = _one_step(0.1)
    fgsm = np.clip(X + 0.1 * np.sign(neural.grad_input_batch(model, X, y)), 0.0, 1.0)
    assert np.array_equal(attacks.pgd(model, X, y, cfg), fgsm)
    # and per-sample
    assert np.array_equal(attacks.pgd(model, X[0], int(y[0]), cfg), fgsm[0])


def test_pgd_every_iterate_stays_in_ball_and_box():
    model, ds = _trained_toy()
    x, y = ds.X[1], int(ds.y[1])
    for steps in range(1, 6):
        cfg = AttackConfig(kind="pgd", epsilon=0.05, alpha=0.02, steps=steps)
        xt = attacks.pgd(model, x, y, cfg)
        assert np.max(np.abs(xt - x)) <= 0.05 + 1e-12
        assert xt.min() >= 0.0 and xt.max() <= 1.0


def test_pgd_monotone_on_scalar_logistic():
    # positive weight, y=1: loss ascent pushes the feature down by alpha per
    # step until the epsilon projection binds
    model = _linear_sigmoid([3.0], 0.2)
    x = np.array([0.7])
    values = []
    for steps in range(1, 8):
        cfg = AttackConfig(kind="pgd", epsilon=0.05, alpha=0.01, steps=steps)
        values.append(float(attacks.pgd(model, x, 1, cfg)[0]))
    assert values == pytest.approx([0.69, 0.68, 0.67, 0.66, 0.65, 0.65, 0.65], abs=1e-12)


def test_pgd_random_start_is_seeded():
    model, ds = _trained_toy()
    X, y = ds.X[:20], ds.y[:20]
    cfg = AttackConfig(kind="pgd", epsilon=0.1, alpha=0.02, steps=3, random_start=True, seed=5)
    a = attacks.pgd(model, X, y, cfg)
    b = attacks.pgd(model, X, y, cfg)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - X)) <= 0.1 + 1e-12


# ---------------------------------------------------------------------------
# deepfool


def test_deepfool_linear_single_step_lands_on_hyperplane():
    w = np.array([1.5, -2.0, 0.5])
    model = _linear_sigmoid(w, 0.4)
    x = np.array([0.8, 0.2, 0.6])
    g0 = float(neural.logit(model, x))
    cfg = AttackConfig(kind="deepfool", max_iter=50, overshoot=0.0)
    x_adv, iters = attacks.deepfool(model, x, cfg)
    assert iters == 1
    assert abs(neural.logit(model, x_adv)) <= 1e-9
    assert np.linalg.norm(x_adv - x) == pytest.approx(abs(g0) / np.linalg.norm(w), abs=1e-12)


def test_deepfool_noop_when_already_misclassified():
    model = _linear_sigmoid([2.0, 1.0], -10.0)  # predicts 0 everywhere in the box
    x = np.array([0.5, 0.5])
    cfg = AttackConfig(kind="deepfool")
    x_adv, iters = attacks.deepfool(model, x, cfg, y_true=1)
    assert iters == 0
    assert np.array_equal(x_adv, x)


def test_deepfool_degenerate_gradient_raises():
    # dead relu: logit gradient identically zero around x
    spec = neural.MlpSpec((2, 2, 1), output_activation="sigmoid", seed=0)
    model = neural.MlpModel(
        spec=spec,
        weights=[np.eye(2), np.array([[1.0, 1.0]])],
        biases=[np.array([-5.0, -5.0]), np.array([1.0])],
    )
    with pytest.raises(DegenerateGradientError):
        attacks.deepfool(model, np.array([0.5, 0.5]), AttackConfig(kind="deepfool"))


def test_deepfool_beats_fgsm_on_trained_net():
    # flip rate >= 0.95 within 50 iters and mean l2 strictly below fgsm(0.1)
    model, ds = _trained_toy()
    _, labels = neural.predict(model, ds.X)
    correct = np.flatnonzero(labels == ds.y)[:500]
    X, y = ds.X[correct], ds.y[correct]
    cfg = AttackConfig(kind="deepfool", max_iter=50, overshoot=0.02)
    flips, l2 = 0, []
    for i in range(X.shape[0]):
        x_adv, _ = attacks.deepfool(model, X[i], cfg, y_true=int(y[i]))
        _, lab = neural.predict(model, x_adv)
        flips += int(lab != y[i])
        l2.append(np.linalg.norm(x_adv - X[i]))
    assert flips / X.shape[0] >= 0.95
    fgsm_l2 = np.linalg.norm(attacks.pgd(model, X, y, _one_step(0.1)) - X, axis=1)
    assert np.mean(l2) < np.mean(fgsm_l2)


# ---------------------------------------------------------------------------
# attack_batch


def test_attack_batch_malicious_filter():
    model, ds = _trained_toy(seed=3, n=30)
    batch = attacks.attack_batch(model, ds, AttackConfig(kind="fgsm"), "malicious_only")
    assert batch.n == int(ds.y.sum())
    assert np.all(ds.y[batch.sample_index] == 1)


def test_attack_batch_respects_epsilon_ball():
    model, ds = _trained_toy(seed=4, n=100)
    for kind in ("fgsm", "pgd"):
        batch = attacks.attack_batch(model, ds, AttackConfig(kind=kind, seed=1), "all")
        assert np.all(batch.linf <= 0.1 + 1e-12)
        assert batch.X_adv.min() >= 0.0 and batch.X_adv.max() <= 1.0


def test_attack_batch_deterministic():
    model, ds = _trained_toy(seed=6, n=40)
    cfg = AttackConfig(kind="pgd", random_start=True, seed=11, steps=5)
    a = attacks.attack_batch(model, ds, cfg)
    b = attacks.attack_batch(model, ds, cfg)
    assert np.array_equal(a.X_adv, b.X_adv)
    assert np.array_equal(a.success, b.success)


def test_attack_batch_success_is_model_label_change():
    model, ds = _trained_toy(seed=8, n=100)
    batch = attacks.attack_batch(model, ds, AttackConfig(kind="fgsm"), "all")
    _, before = neural.predict(model, batch.X_clean)
    _, after = neural.predict(model, batch.X_adv)
    assert np.array_equal(batch.success, before != after)


def test_attack_batch_empty_selection():
    ds = data.FlowDataset(
        data.FeatureSchema.synthetic(2), np.random.default_rng(0).uniform(0, 1, (5, 2)), [0] * 5
    )
    model = _linear_sigmoid([1.0, 1.0], 0.0)
    with pytest.raises(EmptyBatchError):
        attacks.attack_batch(model, ds, AttackConfig(kind="fgsm"), "malicious_only")


def test_adv_batch_roundtrip(tmp_path):
    model, ds = _trained_toy(seed=9, n=30)
    batch = attacks.attack_batch(model, ds, AttackConfig(kind="deepfool"), "malicious_only")
    path = tmp_path / "adv.csv"
    attacks.save_adv_batch(batch, ds.schema.names, path)
    back = attacks.load_adv_batch(path)
    assert np.array_equal(back.X_clean, batch.X_clean)
    assert np.array_equal(back.X_adv, batch.X_adv)
    assert np.array_equal(back.success, batch.success)
    assert back.config == batch.config
