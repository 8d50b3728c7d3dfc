import numpy as np
import pytest

from shapguard import attribution, detector, neural
from shapguard.detector import CalibrationMethod, DetectorModel


def _trained_constant_ae(seed=2):
    rng = np.random.default_rng(11)
    z_star = rng.uniform(0, 1, 8)
    Z = np.tile(z_star, (256, 1))
    cfg = neural.TrainConfig(epochs=200, batch_size=64, learning_rate=0.01, loss="mse", seed=seed)
    ae, hist = detector.train_autoencoder(Z, cfg, latent=4, hidden_sizes=(16,), init_seed=3)
    return ae, hist, z_star


# ---------------------------------------------------------------------------
# autoencoder training


def test_autoencoder_spec_is_symmetric_with_linear_output():
    spec = detector.autoencoder_spec(20, hidden_sizes=(32, 16), latent=8, seed=1)
    assert spec.layer_sizes == (20, 32, 16, 8, 16, 32, 20)
    assert spec.output_activation == "linear"


def test_autoencoder_learns_constant_data():
    ae, hist, z_star = _trained_constant_ae()
    assert hist[-1] <= 1e-4
    assert detector.reconstruction_errors(ae, z_star) <= 1e-4


def test_autoencoder_rejects_latent_not_smaller_than_input():
    Z = np.random.default_rng(0).uniform(0, 1, (20, 8))
    cfg = neural.TrainConfig(epochs=1, loss="mse")
    with pytest.raises(ValueError):
        detector.train_autoencoder(Z, cfg, latent=8, hidden_sizes=(16,))


def test_autoencoder_training_is_deterministic():
    Z = np.random.default_rng(1).uniform(0, 1, (64, 6))
    cfg = neural.TrainConfig(epochs=5, batch_size=16, learning_rate=1e-3, loss="mse", seed=4)
    _, h1 = detector.train_autoencoder(Z, cfg, latent=2, hidden_sizes=(8,), init_seed=2)
    _, h2 = detector.train_autoencoder(Z, cfg, latent=2, hidden_sizes=(8,), init_seed=2)
    assert h1 == h2


def test_autoencoder_requires_mse():
    Z = np.random.default_rng(0).uniform(0, 1, (20, 6))
    with pytest.raises(ValueError, match="bce loss requires a sigmoid output"):
        detector.train_autoencoder(Z, neural.TrainConfig(epochs=1, loss="bce"), latent=2)


# ---------------------------------------------------------------------------
# reconstruction error


def test_reconstruction_error_arithmetic():
    # identity autoencoder via explicit linear weights
    spec = neural.MlpSpec((4, 4), output_activation="linear", seed=0)
    ae = neural.MlpModel(spec=spec, weights=[np.eye(4)], biases=[np.zeros(4)])
    z = np.array([0.1, 0.2, 0.3, 0.4])
    assert detector.reconstruction_errors(ae, z) == 0.0
    shifted = neural.MlpModel(spec=spec, weights=[np.eye(4)], biases=[np.full(4, 0.1)])
    assert detector.reconstruction_errors(shifted, z) == pytest.approx(0.04, abs=1e-15)


def test_reconstruction_error_sign_invariance():
    spec = neural.MlpSpec((2, 2), output_activation="linear", seed=0)
    ae = neural.MlpModel(spec=spec, weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
    assert detector.reconstruction_errors(ae, np.array([0.3, -0.3])) == pytest.approx(
        detector.reconstruction_errors(ae, np.array([-0.3, 0.3])), abs=0
    )


def test_reconstruction_errors_batch_matches_single():
    ae, _, _ = _trained_constant_ae()
    Z = np.random.default_rng(5).uniform(0, 1, (10, 8))
    batch = detector.reconstruction_errors(ae, Z)
    singles = [detector.reconstruction_errors(ae, z) for z in Z]
    assert batch.shape == (10,) and all(isinstance(s, float) for s in singles)
    assert np.allclose(batch, singles, atol=1e-12)


# ---------------------------------------------------------------------------
# calibration


def test_percentile_calibration_linear_interpolation():
    errors = np.arange(1.0, 101.0)
    tau = detector.calibrate_threshold(errors, CalibrationMethod("percentile", 99.0))
    assert tau == pytest.approx(99.01, abs=1e-12)


def test_percentile_order_statistics_with_mass_at_zero():
    errors = np.array([0.0] * 99 + [1.0])
    tau = detector.calibrate_threshold(errors, CalibrationMethod("percentile", 95.0))
    assert tau == 0.0


def test_sigma_calibration_zero_variance_returns_mean():
    errors = np.full(25, 0.7)
    tau = detector.calibrate_threshold(errors, CalibrationMethod("sigma", 3.0))
    assert tau == pytest.approx(0.7, abs=1e-12)
    # dyadic value: mean and std are exact, so tau equals the constant
    exact = np.full(25, 0.75)
    assert detector.calibrate_threshold(exact, CalibrationMethod("sigma", 3.0)) == 0.75


def test_sigma_calibration_uses_population_std():
    errors = np.array([1.0, 3.0] * 10)
    tau = detector.calibrate_threshold(errors, CalibrationMethod("sigma", 2.0))
    assert tau == pytest.approx(2.0 + 2.0 * 1.0, abs=1e-12)


def test_calibration_input_validation():
    with pytest.raises(ValueError, match="need at least 10 calibration errors, got 9"):
        detector.calibrate_threshold(np.ones(9), CalibrationMethod("percentile", 99.0))
    with pytest.raises(ValueError, match="calibration errors must be >= 0"):
        detector.calibrate_threshold(np.array([1.0] * 9 + [-0.1]), CalibrationMethod("percentile", 99.0))
    with pytest.raises(ValueError):
        CalibrationMethod("percentile", 100.0)
    with pytest.raises(ValueError):
        CalibrationMethod("sigma", 4.0)
    with pytest.raises(ValueError):
        CalibrationMethod("median", 1.0)


def test_calibration_coverage_matches_percentile():
    rng = np.random.default_rng(9)
    errors = rng.gamma(2.0, 1.5, 1000)
    tau = detector.calibrate_threshold(errors, CalibrationMethod("percentile", 99.0))
    frac = np.mean(errors <= tau)
    assert abs(frac - 0.99) <= 1.0 / errors.size


def test_percentile_toward_100_drives_calibration_false_positives_to_zero():
    rng = np.random.default_rng(10)
    errors = rng.gamma(2.0, 1.5, 500)
    counts = []
    for p in (90.0, 99.0, 99.9, 99.999):
        tau = detector.calibrate_threshold(errors, CalibrationMethod("percentile", p))
        counts.append(int(np.sum(errors > tau)))
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] <= 1  # only the strict maximum can remain
    # with a tied maximum the limit is reached inside (0, 100)
    tied = np.append(errors, errors.max())
    tau = detector.calibrate_threshold(tied, CalibrationMethod("percentile", 99.999))
    assert int(np.sum(tied > tau)) == 0


# ---------------------------------------------------------------------------
# detect


def _calibrated_detector(tau=1.0):
    spec = neural.MlpSpec((3, 3), output_activation="linear", seed=0)
    ae = neural.MlpModel(spec=spec, weights=[np.eye(3)], biases=[np.zeros(3)])
    det = DetectorModel(autoencoder=ae)
    return detector.calibrate(det, np.full(10, tau), CalibrationMethod("sigma", 3.0))


def test_detect_boundary_belongs_to_clean():
    det = _calibrated_detector(tau=0.0)  # identity AE: s = 0 = tau exactly
    decision, score = detector.detect(det, np.array([0.5, 0.5, 0.5]))
    assert decision == "clean" and score == 0.0


def test_detect_strictly_above_tau_is_adversarial():
    spec = neural.MlpSpec((3, 3), output_activation="linear", seed=0)
    ae = neural.MlpModel(spec=spec, weights=[np.zeros((3, 3))], biases=[np.zeros(3)])
    det = detector.calibrate(
        DetectorModel(autoencoder=ae), np.full(10, 0.01), CalibrationMethod("sigma", 3.0)
    )
    decision, score = detector.detect(det, np.array([1.0, 0.0, 0.0]))  # s = 1 > 0.01
    assert decision == "adversarial" and score == 1.0


def test_detect_requires_calibration():
    spec = neural.MlpSpec((3, 3), output_activation="linear", seed=0)
    ae = neural.MlpModel(spec=spec, weights=[np.eye(3)], biases=[np.zeros(3)])
    with pytest.raises(ValueError, match="detector has no calibrated threshold"):
        detector.detect(DetectorModel(autoencoder=ae), np.zeros(3))


def test_decision_monotonicity():
    det = _calibrated_detector(tau=0.5)
    rng = np.random.default_rng(3)
    scored = sorted(
        detector.detect(det, rng.uniform(-2, 2, 3))[1] for _ in range(50)
    )
    flags = [s > det.tau for s in scored]
    # once adversarial, always adversarial for larger scores
    assert flags == sorted(flags)


def test_detect_matrix_matches_vector_decisions():
    ae = neural.init(detector.autoencoder_spec(6, (5,), 2, seed=1))
    Z = np.random.default_rng(4).uniform(-1, 1, (20, 6))
    det = DetectorModel(ae, tau=float(np.median(detector.reconstruction_errors(ae, Z))))
    decisions, scores = detector.detect(det, Z)
    assert decisions.shape == scores.shape == (20,)
    assert set(decisions.tolist()) == {"adversarial", "clean"}
    assert decisions.tolist() == ["adversarial" if s > det.tau else "clean" for s in scores]
    for z, decision, score in zip(Z, decisions, scores):
        single = detector.detect(det, z)
        assert isinstance(single[0], str) and isinstance(single[1], float)
        assert single[0] == decision
        # a row alone goes through another 2-d product than in the batch
        assert single[1] == pytest.approx(score, abs=1e-12)


# ---------------------------------------------------------------------------
# fingerprint -> detect


def test_fingerprint_then_detect_composes_and_is_deterministic():
    rng = np.random.default_rng(6)
    nids = neural.init(neural.MlpSpec((6, 8, 1), seed=1))
    bg = attribution.BackgroundSet(B=rng.uniform(0, 1, (12, 6)))
    Z = attribution.fingerprint_batch(nids, rng.uniform(0, 1, (40, 6)), bg).phi
    ae, _ = detector.train_autoencoder(
        Z, neural.TrainConfig(epochs=30, learning_rate=0.01, loss="mse", seed=2),
        latent=2, hidden_sizes=(8,), init_seed=3,
    )
    errors = detector.reconstruction_errors(ae, Z)
    det = detector.calibrate(
        DetectorModel(autoencoder=ae), errors, CalibrationMethod("percentile", 99.0)
    )
    X = rng.uniform(0, 1, (5, 6))
    fps = attribution.fingerprint_batch(nids, X, bg)
    d1, s1 = detector.detect(det, fps.phi)
    d2, s2 = detector.detect(det, attribution.fingerprint_batch(nids, X, bg).phi)
    assert np.array_equal(d1, d2)
    assert np.array_equal(s1, s2)
    # the scores must be consistent with the composed steps
    assert np.array_equal(s1, detector.reconstruction_errors(ae, fps.phi))
    assert d1.tolist() == ["adversarial" if s > det.tau else "clean" for s in s1]


def test_detector_json_roundtrip(tmp_path):
    det = _calibrated_detector(tau=0.25)
    path = tmp_path / "det.json"
    detector.save_detector(det, path)
    back = detector.load_detector(path)
    assert back.tau == det.tau
    assert back.calibration == det.calibration
    z = np.array([0.1, 0.9, 0.4])
    assert detector.detect(back, z) == detector.detect(det, z)


def test_save_uncalibrated_detector_refused(tmp_path):
    spec = neural.MlpSpec((3, 3), output_activation="linear", seed=0)
    ae = neural.MlpModel(spec=spec, weights=[np.eye(3)], biases=[np.zeros(3)])
    with pytest.raises(ValueError, match="refusing to save an uncalibrated detector"):
        detector.save_detector(DetectorModel(autoencoder=ae), tmp_path / "d.json")
