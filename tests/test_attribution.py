import numpy as np
import pytest

from shapguard import attribution, neural
from shapguard.attribution import BackgroundSet, EmptySelectionError, Fingerprints


def _linear_logit(w, b):
    w = np.atleast_2d(np.asarray(w, float))
    spec = neural.MlpSpec((w.shape[1], 1), output_activation="sigmoid", seed=0)
    return neural.MlpModel(spec=spec, weights=[w], biases=[np.atleast_1d(float(b))])


def _random_relu_net(seed, m=6):
    rng = np.random.default_rng(seed)
    model = neural.init(neural.MlpSpec((m, 10, 5, 1), seed=int(rng.integers(1e6))))
    model.biases = [rng.normal(0, 0.3, b.shape) for b in model.biases]
    return model, rng


def _fingerprint(model, x, bg):
    """(phi, phi0, g(x)) of one row through the batch path."""
    fps = attribution.fingerprint_batch(model, x[None, :], bg)
    return fps.phi[0], fps.phi0, fps.model_output[0]


def _rescale_oracle(model, x, b):
    """DeepLIFT rescale contributions of x against one reference b, computed
    unit by unit: forward both inputs, then chain the per-unit ratios
    (relu(z_x) - relu(z_b)) / (z_x - z_b) back from the logit."""
    zs = []
    hx, hb = x, b
    for W, c in zip(model.weights[:-1], model.biases[:-1]):
        zx, zb = W @ hx + c, W @ hb + c
        zs.append((zx, zb))
        hx, hb = np.maximum(zx, 0.0), np.maximum(zb, 0.0)
    mult = model.weights[-1][0].copy()
    for W, (zx, zb) in zip(reversed(model.weights[:-1]), reversed(zs)):
        ratio = np.array([
            (max(u, 0.0) - max(v, 0.0)) / (u - v) if abs(u - v) > 1e-9 else float(u > 0)
            for u, v in zip(zx, zb)
        ])
        mult = (mult * ratio) @ W
    return mult * (x - b)


# ---------------------------------------------------------------------------
# expected_output (phi0)


def test_phi0_singleton_background():
    model = _linear_logit([1.0, 2.0], 0.5)
    b = np.array([[0.3, 0.4]])
    bg = BackgroundSet(B=b)
    assert attribution.expected_output(model, bg) == pytest.approx(
        float(neural.logit(model, b[0])), abs=0
    )


def test_phi0_linearity():
    w, c = np.array([1.0, -3.0]), 0.7
    model = _linear_logit(w, c)
    B = np.array([[0.2, 0.8], [0.6, 0.4]])
    phi0 = attribution.expected_output(model, BackgroundSet(B=B))
    assert phi0 == pytest.approx(float(w @ B.mean(axis=0) + c), abs=1e-12)


def test_phi0_invariant_to_duplicated_rows():
    model, _ = _random_relu_net(1)
    B = np.random.default_rng(2).uniform(0, 1, (4, 6))
    a = attribution.expected_output(model, BackgroundSet(B=B))
    b = attribution.expected_output(model, BackgroundSet(B=np.vstack([B, B])))
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# DeepLIFT against a single reference


def test_deeplift_linear_model_is_weight_times_delta():
    w = np.array([2.0, -1.0, 0.5])
    model = _linear_logit(w, 0.3)
    x = np.array([0.9, 0.1, 0.5])
    b = np.array([0.2, 0.6, 0.5])
    phi, _, _ = _fingerprint(model, x, BackgroundSet(B=b[None, :]))
    assert np.allclose(phi, w * (x - b), atol=1e-15)


def test_deeplift_zero_delta_gives_zero_vector():
    model, rng = _random_relu_net(3)
    x = rng.uniform(0, 1, 6)
    phi, _, _ = _fingerprint(model, x, BackgroundSet(B=x[None, :]))
    assert np.all(phi == 0.0)


def test_deeplift_summation_to_delta_on_random_nets():
    for seed in range(30):
        model, rng = _random_relu_net(seed + 10)
        x = rng.uniform(0, 1, 6)
        b = rng.uniform(0, 1, 6)
        phi, _, _ = _fingerprint(model, x, BackgroundSet(B=b[None, :]))
        delta = float(neural.logit(model, x)) - float(neural.logit(model, b))
        assert abs(phi.sum() - delta) <= 1e-8


# ---------------------------------------------------------------------------
# shap_fingerprint


def test_fingerprint_singleton_background_equals_deeplift():
    model, rng = _random_relu_net(40)
    x = rng.uniform(0, 1, 6)
    b = rng.uniform(0, 1, 6)
    phi, phi0, _ = _fingerprint(model, x, BackgroundSet(B=b[None, :]))
    assert np.allclose(phi, _rescale_oracle(model, x, b), atol=0)
    assert phi0 == pytest.approx(float(neural.logit(model, b)), abs=0)


def test_fingerprint_linear_model_closed_form():
    w = np.array([1.0, -2.0, 3.0, 0.25])
    model = _linear_logit(w, -0.1)
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 4)
    B = rng.uniform(0, 1, (20, 4))
    phi, _, _ = _fingerprint(model, x, BackgroundSet(B=B))
    assert np.max(np.abs(phi - w * (x - B.mean(axis=0)))) <= 1e-10


def test_fingerprint_completeness_on_random_nets():
    for seed in range(30):
        model, rng = _random_relu_net(seed + 100)
        x = rng.uniform(0, 1, 6)
        B = rng.uniform(0, 1, (15, 6))
        fps = attribution.fingerprint_batch(model, x[None, :], BackgroundSet(B=B))
        assert fps.count_violations(rtol=1e-5) == 0
        gap = abs(fps.phi0 + fps.phi[0].sum() - fps.model_output[0])
        assert gap <= 1e-5 * max(1.0, abs(fps.model_output[0]))


def test_fingerprint_background_permutation_invariance():
    model, rng = _random_relu_net(55)
    x = rng.uniform(0, 1, 6)
    B = rng.uniform(0, 1, (12, 6))
    perm = rng.permutation(12)
    a = attribution.fingerprint_batch(model, x[None, :], BackgroundSet(B=B))
    b = attribution.fingerprint_batch(model, x[None, :], BackgroundSet(B=B[perm]))
    assert np.max(np.abs(a.phi - b.phi)) <= 1e-12
    assert abs(a.phi0 - b.phi0) <= 1e-12


# ---------------------------------------------------------------------------
# fingerprint_batch


def test_batch_malicious_filter_keeps_rows_in_order():
    model, rng = _random_relu_net(60)
    X = rng.uniform(0, 1, (5, 6))
    labels = np.array([1, 0, 1, 1, 0])
    bg = BackgroundSet(B=rng.uniform(0, 1, (8, 6)))
    fps = attribution.fingerprint_batch(model, X, bg, labels=labels, class_filter="malicious")
    assert fps.sample_ids.tolist() == [0, 2, 3]
    assert np.array_equal(fps.phi, attribution.fingerprint_batch(model, X[[0, 2, 3]], bg).phi)


def test_batch_without_filter_covers_all_rows():
    model, rng = _random_relu_net(61)
    X = rng.uniform(0, 1, (7, 6))
    bg = BackgroundSet(B=rng.uniform(0, 1, (8, 6)))
    fps = attribution.fingerprint_batch(model, X, bg)
    assert fps.n == 7
    assert fps.sample_ids.tolist() == list(range(7))


def test_batch_row_equals_single_fingerprint():
    model, rng = _random_relu_net(62)
    X = rng.uniform(0, 1, (4, 6))
    bg = BackgroundSet(B=rng.uniform(0, 1, (10, 6)))
    fps = attribution.fingerprint_batch(model, X, bg)
    _, trace_b = neural.forward(model, bg.B)
    for k in range(4):
        phi, logit = attribution.shap_fingerprint(model, X[k], bg, trace_b)
        assert np.array_equal(fps.phi[k], phi)
        assert fps.model_output[k] == logit == neural.logit(model, X[k])
    assert fps.phi0 == attribution.expected_output(model, bg)


def test_batch_empty_selection_raises():
    model, rng = _random_relu_net(63)
    X = rng.uniform(0, 1, (3, 6))
    bg = BackgroundSet(B=rng.uniform(0, 1, (5, 6)))
    with pytest.raises(EmptySelectionError):
        attribution.fingerprint_batch(
            model, X, bg, labels=np.zeros(3, int), class_filter="malicious"
        )


# ---------------------------------------------------------------------------
# background sampling and persistence


def test_sample_background_deterministic_and_within_source():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, (50, 6))
    a = attribution.sample_background(X, size=10, seed=3)
    b = attribution.sample_background(X, size=10, seed=3)
    assert np.array_equal(a.B, b.B)
    assert a.size == 10
    # every background row exists in the source
    assert all(any(np.array_equal(row, src) for src in X) for row in a.B)


def test_sample_background_warns_when_source_small():
    X = np.random.default_rng(0).uniform(0, 1, (5, 3))
    with pytest.warns(UserWarning, match="reduced"):
        bg = attribution.sample_background(X, size=10, seed=0)
    assert bg.size == 5


def test_fingerprints_csv_roundtrip(tmp_path):
    model, rng = _random_relu_net(70)
    X = rng.uniform(0, 1, (6, 6))
    bg = BackgroundSet(B=rng.uniform(0, 1, (9, 6)), seed=1, source="unit")
    fps = attribution.fingerprint_batch(model, X, bg, origin="fgsm")
    path = tmp_path / "fps.csv"
    attribution.save_fingerprints(fps, path)
    back = attribution.load_fingerprints(path)
    assert back.n == fps.n
    assert np.array_equal(fps.phi, back.phi)
    assert fps.phi0 == back.phi0
    assert np.array_equal(fps.model_output, back.model_output)
    assert fps.origin == back.origin == "fgsm"
    assert np.array_equal(fps.sample_ids, back.sample_ids)
    attribution.save_fingerprints(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_load_fingerprints_rejects_varying_phi0(tmp_path):
    fps = Fingerprints(phi=np.ones((2, 3)), phi0=0.5, model_output=[3.5, 3.5], sample_ids=[4, 9])
    path = tmp_path / "fps.csv"
    attribution.save_fingerprints(fps, path)
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[1] == lines[2].split(",")[1] == "0.5"
    lines[2] = lines[2].replace(",0.5,", ",0.25,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="phi0"):
        attribution.load_fingerprints(path)


def test_completeness_violation_counter():
    fps = Fingerprints(
        phi=np.array([[1.0, 2.0], [1.0, 2.0]]), phi0=0.5,
        model_output=np.array([3.5, 9.0]), sample_ids=np.array([0, 1]),
    )
    assert fps.count_violations() == 1
    assert fps.completeness_gaps.tolist() == [0.0, 5.5]
    assert fps.max_completeness_gap == 5.5


def test_fingerprints_record_rejects_empty_and_ragged_columns():
    with pytest.raises(EmptySelectionError):
        Fingerprints(phi=np.empty((0, 3)), phi0=0.0, model_output=[], sample_ids=[])
    with pytest.raises(ValueError, match="one entry per phi row"):
        Fingerprints(phi=np.ones((2, 3)), phi0=0.0, model_output=[1.0], sample_ids=[0, 1])
