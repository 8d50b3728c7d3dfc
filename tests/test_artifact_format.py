"""Exact bytes of every artifact codec on one tiny fixed input each.

Round-trip tests compare values and the rerun check compares two runs of
the same code; neither notices a codec that changes the bytes it writes.
These tests pin the bytes. The floats cover the repr corner cases: a
subnormal, 1e16 (exponent form), 1e-05, -0.0 and a 17-digit mantissa.
"""

import numpy as np

from shapguard import attacks, attribution, data, detector, neural

SCHEMA = data.FeatureSchema(("a", "b c"))


def test_dataset_bytes(tmp_path):
    ds = data.FlowDataset(SCHEMA, X=[[0.1, 1e-05], [1.0, -0.0], [5e-324, 1e16]], y=[0, 1, 1])
    path = tmp_path / "ds.csv"
    data.save_dataset(ds, path)
    assert path.read_bytes() == (
        b"a,b c,label\r\n0.1,1e-05,0\r\n1.0,-0.0,1\r\n5e-324,1e+16,1\r\n"
    )
    back = data.load_dataset(path)
    assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)
    assert np.signbit(back.X[1, 1])


def test_scaler_bytes(tmp_path):
    path = tmp_path / "scaler.json"
    data.save_scaler(data.ScalerParams(min=[0.0, -1.5], max=[1.0, 2.0 / 3.0]), SCHEMA, path)
    assert path.read_bytes() == (
        b'{\n  "schema": [\n    "a",\n    "b c"\n  ],\n  "min": [\n    0.0,\n    -1.5\n'
        b'  ],\n  "max": [\n    1.0,\n    0.6666666666666666\n  ]\n}\n'
    )


def test_adv_batch_and_sidecar_bytes(tmp_path):
    batch = attacks.AdvBatch(
        X_adv=np.array([[0.1, 0.4], [1.0, 0.9]]),
        success=np.array([True, False]),
        linf=np.array([0.1, 0.1]),
        l2=np.array([0.1414213562373095, 0.14142135623730953]),
        config=attacks.AttackConfig(
            kind="pgd", epsilon=0.1, alpha=0.05, steps=2, random_start=True, seed=3
        ),
        sample_index=np.array([4, 9]),
    )
    path = tmp_path / "adv.csv"
    attacks.save_adv_batch(batch, SCHEMA.names, path)
    assert path.read_bytes() == (
        b"sample_index,success,linf,l2,adv_a,adv_b c\r\n"
        b"4,1,0.1,0.1414213562373095,0.1,0.4\r\n"
        b"9,0,0.1,0.14142135623730953,1.0,0.9\r\n"
    )
    assert path.with_suffix(".config.json").read_bytes() == (
        b'{\n  "kind": "pgd",\n  "epsilon": 0.1,\n  "alpha": 0.05,\n  "steps": 2,\n'
        b'  "max_iter": 50,\n  "overshoot": 0.02,\n  "random_start": true,\n  "seed": 3\n}\n'
    )
    back = attacks.load_adv_batch(path)
    assert back.sample_index.tolist() == [4, 9]
    assert back.success.tolist() == [True, False]
    assert np.array_equal(back.l2, batch.l2) and back.config == batch.config
    assert np.array_equal(back.X_adv, batch.X_adv) and back.n == 2


def test_fingerprints_bytes(tmp_path):
    fps = attribution.Fingerprints(
        phi=[[0.25, -0.5], [1e-17, 3.0]], phi0=0.125, model_output=[-0.125, 3.125],
        sample_ids=[0, 7], origin="fgsm",
    )
    path = tmp_path / "fps.csv"
    attribution.save_fingerprints(fps, path)
    assert path.read_bytes() == (
        b"sample_id,phi0,phi_1,phi_2,model_output,origin\r\n"
        b"0,0.125,0.25,-0.5,-0.125,fgsm\r\n"
        b"7,0.125,1e-17,3.0,3.125,fgsm\r\n"
    )
    back = attribution.load_fingerprints(path)
    assert np.array_equal(back.phi, fps.phi) and back.origin == "fgsm"
    assert back.sample_ids.tolist() == [0, 7]


def test_model_bytes(tmp_path):
    model = neural.MlpModel(
        spec=neural.MlpSpec((2, 1), seed=4),
        weights=[np.array([[0.5, -1.25]])],
        biases=[np.array([0.1])],
    )
    path = tmp_path / "model.json"
    neural.save(model, path)
    assert path.read_bytes() == (
        b'{"spec": {"layer_sizes": [2, 1], "hidden_activation": "relu", '
        b'"output_activation": "sigmoid", "seed": 4}, "weights": [[[0.5, -1.25]]], '
        b'"biases": [[0.1]]}\n'
    )


def test_detector_bytes(tmp_path):
    ae = neural.MlpModel(
        spec=neural.MlpSpec((2, 1, 2), output_activation="linear", seed=5),
        weights=[np.array([[1.0, -2.0]]), np.array([[0.5], [0.25]])],
        biases=[np.array([0.0]), np.array([0.1, 0.2])],
    )
    record = detector.CalibrationRecord(
        detector.CalibrationMethod("percentile", 99.0), 10, 0.1, 0.2, 0.0, 0.9
    )
    det = detector.DetectorModel(
        autoencoder=ae, tau=0.75, calibration=record,
        background_ref="clean-train (k=3, seed=1)",
    )
    path = tmp_path / "det.json"
    detector.save_detector(det, path)
    assert path.read_bytes() == (
        b'{"autoencoder": {"spec": {"layer_sizes": [2, 1, 2], "hidden_activation": "relu", '
        b'"output_activation": "linear", "seed": 5}, "weights": [[[1.0, -2.0]], [[0.5], '
        b'[0.25]]], "biases": [[0.0], [0.1, 0.2]]}, "tau": 0.75, "calibration": '
        b'{"method": "percentile", "parameter": 99.0, "n_samples": 10, "error_mean": 0.1, '
        b'"error_std": 0.2, "error_min": 0.0, "error_max": 0.9}, '
        b'"background_ref": "clean-train (k=3, seed=1)"}\n'
    )
