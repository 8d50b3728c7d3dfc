import re

import numpy as np
import pytest

from shapguard import attacks, data, neural
from shapguard.attacks import AttackConfig


def _linear_sigmoid(w, b):
    w = np.atleast_2d(np.asarray(w, float))
    spec = neural.MlpSpec((w.shape[1], 1), output_activation="sigmoid", seed=0)
    return neural.MlpModel(spec=spec, weights=[w], biases=[np.atleast_1d(float(b))])


def _logit(model, X):
    """g(x) per row of X: the final pre-activation."""
    return neural.forward(model, X)[1].pre[-1][:, 0]


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
    x_adv = attacks.pgd(model, np.array([[0.5, 0.5]]), np.array([1]), _one_step(0.1))
    assert np.allclose(x_adv, [[0.4, 0.6]], atol=1e-15)


def test_fgsm_clamps_at_box_corner():
    # gradient pushes below 0 / above 1; clamped coordinates stay put
    model = _linear_sigmoid([2.0, -2.0], 0.0)
    x = np.array([[0.0, 1.0]])
    x_adv = attacks.pgd(model, x, np.array([1]), _one_step(0.1))
    assert np.array_equal(x_adv, x)


# ---------------------------------------------------------------------------
# pgd


def test_pgd_single_step_equals_fgsm_bitwise():
    model, ds = _trained_toy()
    X, y = ds.X[:50], ds.y[:50]
    cfg = _one_step(0.1)
    ascent = (1 - 2 * y)[:, None]
    fgsm = np.clip(X + 0.1 * (ascent * np.sign(neural.grad_logit_input(model, X)[1])), 0.0, 1.0)
    assert np.array_equal(attacks.pgd(model, X, y, cfg), fgsm)


def test_fgsm_and_pgd_step_a_row_whose_sigmoid_saturates():
    """At g(x) = 60 the sigmoid rounds to 1, so the bce input gradient
    (p - y) * grad g is exactly 0 for y = 1; the step still moves the row
    along -sign(grad g), as it does where p < 1."""
    model = _linear_sigmoid([2.0, -2.0], 60.0)
    x = np.array([[0.5, 0.5]])
    assert neural.predict(model, x)[0][0] == 1.0
    fgsm = attacks.pgd(model, x, np.array([1]), _one_step(0.1))
    assert np.allclose(fgsm, [[0.4, 0.6]], atol=1e-15)
    cfg = AttackConfig(kind="pgd", epsilon=0.05, alpha=0.02, steps=3)
    assert np.allclose(attacks.pgd(model, x, np.array([1]), cfg), [[0.45, 0.55]], atol=1e-15)
    # a benign label steps the other way
    assert np.allclose(attacks.pgd(model, x, np.array([0]), _one_step(0.1)), [[0.6, 0.4]],
                       atol=1e-15)


def test_pgd_every_iterate_stays_in_ball_and_box():
    model, ds = _trained_toy()
    x, y = ds.X[1:2], ds.y[1:2]
    for steps in range(1, 6):
        cfg = AttackConfig(kind="pgd", epsilon=0.05, alpha=0.02, steps=steps)
        xt = attacks.pgd(model, x, y, cfg)
        assert np.max(np.abs(xt - x)) <= 0.05 + 1e-12
        assert xt.min() >= 0.0 and xt.max() <= 1.0


def test_pgd_monotone_on_scalar_logistic():
    # positive weight, y=1: loss ascent pushes the feature down by alpha per
    # step until the epsilon projection binds
    model = _linear_sigmoid([3.0], 0.2)
    x = np.array([[0.7]])
    values = []
    for steps in range(1, 8):
        cfg = AttackConfig(kind="pgd", epsilon=0.05, alpha=0.01, steps=steps)
        values.append(float(attacks.pgd(model, x, np.array([1]), cfg)[0, 0]))
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


def _predicted(model, X):
    return neural.predict(model, X)[1]


def test_deepfool_linear_single_step_lands_on_hyperplane():
    w = np.array([1.5, -2.0, 0.5])
    model = _linear_sigmoid(w, 0.4)
    X = np.array([[0.8, 0.2, 0.6]])
    g0 = float(_logit(model, X)[0])
    cfg = AttackConfig(kind="deepfool", max_iter=50, overshoot=0.0)
    x_adv, iters, _ = attacks.deepfool(model, X, _predicted(model, X), cfg)
    assert iters == 1
    assert abs(_logit(model, x_adv)[0]) <= 1e-9
    assert np.linalg.norm(x_adv - X) == pytest.approx(abs(g0) / np.linalg.norm(w), abs=1e-12)


def test_deepfool_noop_when_already_misclassified():
    model = _linear_sigmoid([2.0, 1.0], -10.0)  # predicts 0 everywhere in the box
    X = np.array([[0.5, 0.5]])
    cfg = AttackConfig(kind="deepfool")
    x_adv, iters, _ = attacks.deepfool(model, X, np.array([1]), cfg)
    assert iters == 0
    assert np.array_equal(x_adv, X)


def test_deepfool_degenerate_gradient_row_is_kept_and_counted():
    # dead relu: logit gradient identically zero around x; predicts 1 there
    spec = neural.MlpSpec((2, 2, 1), output_activation="sigmoid", seed=0)
    model = neural.MlpModel(
        spec=spec,
        weights=[np.eye(2), np.array([[1.0, 1.0]])],
        biases=[np.array([-5.0, -5.0]), np.array([1.0])],
    )
    X = np.array([[0.5, 0.5], [0.1, 0.9], [0.5, 0.5]])
    y = np.array([1, 1, 0])  # the last row is misclassified, not degenerate
    x_adv, iters, degenerate = attacks.deepfool(model, X, y, AttackConfig(kind="deepfool"))
    assert degenerate.tolist() == [True, True, False]
    assert np.array_equal(x_adv, X)
    assert iters == 0
    ds = data.FlowDataset(data.FeatureSchema.synthetic(2), X, y)
    batch = attacks.attack_batch(model, ds, AttackConfig(kind="deepfool"))
    assert batch.sample_index.tolist() == [0, 1]
    assert batch.degenerate_rows == 2
    assert np.array_equal(batch.X_adv, x_adv[:2])


def test_deepfool_beats_fgsm_on_trained_net():
    # flip rate >= 0.95 within 50 iters and mean l2 strictly below fgsm(0.1)
    model, ds = _trained_toy()
    _, labels = neural.predict(model, ds.X)
    correct = np.flatnonzero(labels == ds.y)[:500]
    X, y = ds.X[correct], ds.y[correct]
    cfg = AttackConfig(kind="deepfool", max_iter=50, overshoot=0.02)
    X_adv, _, _ = attacks.deepfool(model, X, y, cfg)
    flips = int(np.count_nonzero(_predicted(model, X_adv) != y))
    l2 = np.linalg.norm(X_adv - X, axis=1)
    assert flips / X.shape[0] >= 0.95
    fgsm_l2 = np.linalg.norm(attacks.pgd(model, X, y, _one_step(0.1)) - X, axis=1)
    assert np.mean(l2) < np.mean(fgsm_l2)


class _Degenerate(RuntimeError):
    pass


def _deepfool_per_row(model, x, cfg, y_true=None):
    """The one-row DeepFool that preceded the batched one, kept verbatim as
    the bitwise oracle (its vector calls now pass one-row matrices)."""
    if cfg.kind != "deepfool":
        raise ValueError("config kind must be 'deepfool'")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("deepfool operates on a single sample")
    label0 = int(neural.predict(model, x[None, :])[1][0])
    if y_true is not None and label0 != int(y_true):
        return x.copy(), 0

    g0 = float(_logit(model, x[None, :])[0])
    tol = attacks._BOUNDARY_TOL * max(1.0, abs(g0))

    def crossed(g: float) -> bool:
        return (g > 0) != (g0 > 0) or abs(g) <= tol

    xt = x.copy()
    iters = 0
    while iters < cfg.max_iter:
        g = g0 if iters == 0 else float(_logit(model, xt[None, :])[0])
        if crossed(g):
            break
        grad = neural.grad_logit_input(model, xt[None, :])[1][0]
        sq_norm = float(grad @ grad)
        if sq_norm < attacks._DEGENERATE_GRAD**2:
            raise _Degenerate(f"vanishing logit gradient (||grad||^2 = {sq_norm:.3e})")
        xt = xt - (g / sq_norm) * grad
        iters += 1
    x_adv = np.clip(x + (1.0 + cfg.overshoot) * (xt - x), 0.0, 1.0)
    return x_adv, iters


def _oracle(model, X, y, cfg):
    """The per-row attack loop that preceded the batched DeepFool:
    (X_adv, iterations per row, degenerate mask)."""
    X_adv = np.empty_like(X)
    iters = np.zeros(X.shape[0], dtype=np.int64)
    degenerate = np.zeros(X.shape[0], dtype=bool)
    for i in range(X.shape[0]):
        try:
            X_adv[i], iters[i] = _deepfool_per_row(model, X[i], cfg, y_true=int(y[i]))
        except _Degenerate:
            X_adv[i] = X[i]
            degenerate[i] = True
    return X_adv, iters, degenerate


def _dead_row(model):
    """A row whose first-layer pre-activations are all -1, so every relu is
    dead and the logit gradient vanishes (needs fewer units than inputs)."""
    W, b = model.weights[0], model.biases[0]
    return np.linalg.lstsq(W, -1.0 - b, rcond=None)[0]


def _oracle_case(kind):
    """(model, X, y): trained relu nets at m=20 and m=39, or linear nets.
    Labels of the first rows are flipped so the model misclassifies them.
    A relu net's input holds data rows, rows from a wider box (they cross
    more relu kinks, so take more steps) and, last, a row on which every
    relu is dead. A linear net takes one step on every row."""
    if kind == "linear":
        rng = np.random.default_rng(7)
        model = _linear_sigmoid(rng.normal(0, 2, 12), 0.3)
        X = rng.uniform(0, 1, (60, 12))
    elif kind == "linear-zero-weights":
        model = _linear_sigmoid(np.zeros(5), 0.3)
        X = np.random.default_rng(8).uniform(0, 1, (10, 5))
    else:
        m = int(kind.removeprefix("m"))
        ds = data.synth_generate(300, m, class_separation=0.3, noise=0.15, seed=m)
        model = neural.init(neural.MlpSpec((m, m - 4, 12, 1), seed=m))
        model, _ = neural.train(
            model, ds.X, ds.y, neural.TrainConfig(epochs=30, batch_size=64, learning_rate=0.003)
        )
        wide = np.random.default_rng(m).uniform(-3.0, 4.0, (60, m))
        X = np.vstack([ds.X[:60], wide, _dead_row(model)])
    X[2:4] = 3.0 * X[2:4] - 1.0  # misclassified rows outside the box stay unclipped
    y = _predicted(model, X)
    y[:4] = 1 - y[:4]
    return model, X, y


@pytest.mark.parametrize(
    "cfg",
    [AttackConfig(kind="deepfool"), AttackConfig(kind="deepfool", max_iter=2, overshoot=0.0)],
    ids=["default", "max_iter-2"],
)
@pytest.mark.parametrize("kind", ["m20", "m39", "linear", "linear-zero-weights"])
def test_batched_deepfool_is_bitwise_the_per_row_oracle(kind, cfg):
    model, X, y = _oracle_case(kind)
    X_adv, iters, degenerate = attacks.deepfool(model, X, y, cfg)
    want, want_iters, want_degenerate = _oracle(model, X, y, cfg)
    assert np.array_equal(X_adv, want)
    assert type(iters) is int and iters == int(want_iters.sum())
    assert np.array_equal(degenerate, want_degenerate)

    # the input holds every kind of row it should
    assert np.all(want_iters[:4] == 0) and not want_degenerate[:4].any()
    if kind == "linear-zero-weights":
        assert want_degenerate[4:].all()
    else:
        assert np.any(want_iters == 1)
    if kind.startswith("m"):
        assert want_degenerate[-1] and want_degenerate.sum() == 1
        assert want_iters.max() >= min(3, cfg.max_iter)

    # a row's result does not depend on the other rows
    reversed_adv, _, _ = attacks.deepfool(model, X[::-1], y[::-1], cfg)
    assert np.array_equal(reversed_adv[::-1], X_adv)
    for i in range(X.shape[0]):
        alone, _, _ = attacks.deepfool(model, X[i : i + 1], y[i : i + 1], cfg)
        assert np.array_equal(alone[0], X_adv[i]), i


def _pgd_two_clamps(model, X, y, cfg):
    """attacks.pgd as it was when each step clamped to the eps-ball and then
    to the box, kept verbatim as the bitwise oracle (its gradient call now
    takes the gradient out of the (g, grad) pair)."""
    if cfg.kind != "pgd":
        raise ValueError("config kind must be 'pgd'")
    X0 = np.asarray(X, dtype=np.float64)
    Xt = X0
    if cfg.random_start:
        rng = np.random.default_rng(cfg.seed)
        Xt = np.clip(X0 + rng.uniform(-cfg.epsilon, cfg.epsilon, X0.shape), 0.0, 1.0)
    ascent = (1.0 - 2.0 * np.asarray(y, dtype=np.float64))[:, None]
    for _ in range(cfg.steps):
        grad = neural.grad_logit_input(model, Xt)[1]
        Xt = Xt + cfg.alpha * (ascent * np.sign(grad))
        Xt = np.clip(Xt, X0 - cfg.epsilon, X0 + cfg.epsilon)
        Xt = np.clip(Xt, 0.0, 1.0)
    return Xt


def _deepfool_two_passes(model, X, y, cfg):
    """attacks.deepfool as it was when each iteration forwarded the active
    rows once for g and again for the gradient, kept verbatim as the bitwise
    oracle (its gradient call now takes the gradient out of the pair)."""
    if cfg.kind != "deepfool":
        raise ValueError("config kind must be 'deepfool'")
    if model.spec.output_activation != "sigmoid":
        raise ValueError("deepfool requires a sigmoid-output model")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a matrix of rows, got shape {X.shape}")
    prob, trace = neural.forward(model, X[:, None, :])
    g0 = trace.pre[-1][:, 0, 0]
    # label is 1 iff probability > 0.5, as in neural.predict
    misclassified = (prob[:, 0, 0] > 0.5).astype(np.int64) != np.asarray(y)
    tol = attacks._BOUNDARY_TOL * np.maximum(1.0, np.abs(g0))
    degenerate = np.zeros(X.shape[0], dtype=bool)

    Xt = X.copy()
    g = g0.copy()
    active = np.flatnonzero(~misclassified)
    iters = 0
    for step in range(cfg.max_iter):
        if step:
            g[active] = neural.forward(model, Xt[active][:, None, :])[1].pre[-1][:, 0, 0]
        crossed = ((g[active] > 0) != (g0[active] > 0)) | (np.abs(g[active]) <= tol[active])
        active = active[~crossed]
        if active.size == 0:
            break
        grad = neural.grad_logit_input(model, Xt[active][:, None, :])[1]
        # (a, 1, m) @ (a, m, 1) is bitwise each row's grad @ grad
        sq_norm = (grad @ grad.transpose(0, 2, 1))[:, 0, 0]
        flat = sq_norm < attacks._DEGENERATE_GRAD**2
        degenerate[active[flat]] = True
        active, grad, sq_norm = active[~flat], grad[~flat, 0], sq_norm[~flat]
        Xt[active] -= (g[active] / sq_norm)[:, None] * grad
        iters += active.size
    X_adv = np.clip(X + (1.0 + cfg.overshoot) * (Xt - X), 0.0, 1.0)
    unchanged = misclassified | degenerate
    X_adv[unchanged] = X[unchanged]
    return X_adv, iters, degenerate


def _box_face_case(seed, m=9):
    """(model, X, y): a random relu net whose first-layer biases are all
    negative, so the all-zero row, last, has every relu dead and a zero
    logit gradient. A third of the cells sit on the box's faces, 0 or 1,
    and two rows lie outside the box by more than any epsilon used here.
    The labels of the first rows are flipped so the model misclassifies
    them."""
    rng = np.random.default_rng(seed)
    model = neural.init(neural.MlpSpec((m, 12, 6, 1), seed=seed))
    model.biases = [-rng.uniform(0.01, 0.2, 12),
                    *(rng.normal(0, 0.3, b.shape) for b in model.biases[1:])]
    X = rng.uniform(0, 1, (40, m))
    faces = rng.random(X.shape) < 1 / 3
    X[faces] = rng.integers(0, 2, int(faces.sum()))
    X[5:7] = 3.0 * X[5:7] - 1.0
    X = np.vstack([X, np.zeros((1, m))])
    y = _predicted(model, X)
    y[:5] = 1 - y[:5]
    return model, X, y


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "cfg",
    [_one_step(0.1), AttackConfig(kind="pgd", epsilon=0.1, alpha=0.03, steps=7),
     AttackConfig(kind="pgd", epsilon=0.05, alpha=0.05, steps=4, random_start=True, seed=4)],
    ids=["fgsm", "pgd", "pgd-random-start"],
)
def test_pgd_is_bitwise_the_two_clamp_oracle(seed, cfg, monkeypatch):
    model, X, y = _box_face_case(seed)
    want = _pgd_two_clamps(model, X, y, cfg)
    assert np.any(want == 0.0) and np.any(want == 1.0)
    if not cfg.random_start:  # the zero-gradient row does not move
        assert np.array_equal(want[-1], X[-1])
    clips = []
    clip = np.clip
    monkeypatch.setattr(np, "clip", lambda *a, **k: clips.append(1) or clip(*a, **k))
    assert np.array_equal(attacks.pgd(model, X, y, cfg), want)
    # the two bounds, the random start, then one clamp per step
    assert len(clips) == 2 + cfg.random_start + cfg.steps


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "cfg",
    [AttackConfig(kind="deepfool"), AttackConfig(kind="deepfool", max_iter=2, overshoot=0.0)],
    ids=["default", "max_iter-2"],
)
def test_deepfool_is_bitwise_the_two_pass_oracle(seed, cfg):
    model, X, y = _box_face_case(seed)
    X_adv, iters, degenerate = attacks.deepfool(model, X, y, cfg)
    want, want_iters, want_degenerate = _deepfool_two_passes(model, X, y, cfg)
    assert np.array_equal(X_adv, want)
    assert iters == want_iters and iters > X.shape[0]
    assert np.array_equal(degenerate, want_degenerate) and want_degenerate[-1]


@pytest.mark.parametrize(
    "cfg",
    [AttackConfig(kind="deepfool"), AttackConfig(kind="deepfool", max_iter=2, overshoot=0.0)],
    ids=["default", "max_iter-2"],
)
def test_deepfool_forwards_once_per_iteration(cfg, monkeypatch):
    """One forward pass over every row, then one per iteration on the rows
    still active: the loop runs until the slowest row has crossed and been
    seen to cross, at most max_iter times, and not at all when no row is
    active."""
    model, X, y = _oracle_case("m20")
    _, want_iters, want_degenerate = _oracle(model, X, y, cfg)
    assert want_degenerate.sum() == 1 and want_iters.max() >= 2
    forwards = []
    forward = neural.forward
    monkeypatch.setattr(neural, "forward", lambda *a: forwards.append(1) or forward(*a))
    attacks.deepfool(model, X, y, cfg)
    assert len(forwards) == 1 + min(want_iters.max() + 1, cfg.max_iter)
    forwards.clear()
    attacks.deepfool(model, X[:4], y[:4], cfg)  # every row misclassified
    assert len(forwards) == 1


# ---------------------------------------------------------------------------
# attack_batch


def test_attack_batch_malicious_filter():
    model, ds = _trained_toy(seed=3, n=30)
    batch = attacks.attack_batch(model, ds, AttackConfig(kind="fgsm"))
    assert 0 < batch.n < ds.n
    assert np.array_equal(batch.sample_index, np.flatnonzero(ds.y == 1))


def test_attack_batch_respects_epsilon_ball():
    model, ds = _trained_toy(seed=4, n=100)
    for kind in ("fgsm", "pgd"):
        batch = attacks.attack_batch(model, ds, AttackConfig(kind=kind, seed=1))
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
    batch = attacks.attack_batch(model, ds, AttackConfig(kind="fgsm"))
    _, before = neural.predict(model, ds.X[batch.sample_index])
    _, after = neural.predict(model, batch.X_adv)
    assert np.array_equal(batch.success, before != after)


def test_attack_batch_empty_selection():
    ds = data.FlowDataset(
        data.FeatureSchema.synthetic(2), np.random.default_rng(0).uniform(0, 1, (5, 2)), [0] * 5
    )
    model = _linear_sigmoid([1.0, 1.0], 0.0)
    with pytest.raises(ValueError, match="no malicious rows to attack"):
        attacks.attack_batch(model, ds, AttackConfig(kind="fgsm"))


@pytest.mark.parametrize("kind", attacks.ATTACK_KINDS)
@pytest.mark.parametrize("value", [-0.5, 1.5, np.nan])
def test_attack_batch_rejects_a_row_outside_the_box(kind, value):
    """A cell outside [0, 1] would come back clamped into the box, further
    than epsilon from its row: the batch names it instead of attacking."""
    schema, model = data.FeatureSchema.synthetic(3), _linear_sigmoid([1.0, -1.0, 2.0], 0.0)
    X = np.full((4, 3), 0.5)
    X[2, 1] = value
    ds = data.FlowDataset(schema, X.copy(), [1, 0, 1, 1])
    with pytest.raises(ValueError, match=re.escape(
            f"row 2, feature 'f1': {value!r} is not a finite value in [0, 1]")):
        attacks.attack_batch(model, ds, AttackConfig(kind=kind))
    # within data.BOX_TOL of the box is still in it
    X[2, 1] = 1.0 + data.BOX_TOL
    batch = attacks.attack_batch(model, data.FlowDataset(schema, X, ds.y), AttackConfig(kind=kind))
    assert batch.n == 3


def test_adv_batch_roundtrip(tmp_path):
    model, ds = _trained_toy(seed=9, n=30)
    batch = attacks.attack_batch(model, ds, AttackConfig(kind="deepfool"))
    path = tmp_path / "adv.csv"
    attacks.save_adv_batch(batch, ds.schema.names, path)
    back = attacks.load_adv_batch(path)
    assert np.array_equal(back.sample_index, batch.sample_index)
    assert np.array_equal(back.X_adv, batch.X_adv)
    assert np.array_equal(back.success, batch.success)
    assert np.array_equal(back.linf, batch.linf) and np.array_equal(back.l2, batch.l2)


@pytest.mark.parametrize(
    "column, name, message",
    [(0, "index", "header column 1 is 'index', expected 'sample_index'"),
     (2, "l2", "header column 3 is 'l2', expected 'linf'"),
     (5, "f1", "header column 6 is 'f1', expected 'adv_f1'")],
    ids=["sample-index", "swapped-norms", "feature-without-prefix"],
)
def test_load_adv_batch_names_the_first_header_cell_its_writer_did_not_write(
    tmp_path, column, name, message
):
    batch = attacks.AdvBatch(X_adv=np.full((2, 2), 0.5), success=np.array([True, False]),
                             linf=np.array([0.1, 0.2]), l2=np.array([0.3, 0.4]),
                             sample_index=np.array([3, 7]))
    path = attacks.save_adv_batch(batch, ("f0", "f1"), tmp_path / "adv.csv")
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    header[column] = name
    path.write_text("\n".join([",".join(header), *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match=f"^{path}: {re.escape(message)}$"):
        attacks.load_adv_batch(path)
