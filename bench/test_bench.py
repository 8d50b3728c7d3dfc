"""Tests of the benchmark's own code: python3 -m pytest bench"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import layertrace
import run
import workloads

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def program():
    return workloads.load_program()


def test_self_time_subtracts_child_intervals():
    # root [0, 10] holds a [1, 4] (which holds a leaf [2, 3]) and b [5, 9].
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert layertrace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(layertrace.self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 6.0, 0, 0], ["b", 4.0, 8.0, 0, 0]]
    assert layertrace.self_times(spans)[0] == pytest.approx(3.0)


def test_wrapped_nested_calls_account_for_the_root():
    tracer = layertrace.Tracer()

    def inner():
        return sum(range(10_000))

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer.wrap("neural", "neural.inner", inner)
    wrapped_outer = tracer.wrap("cli", "cli.outer", outer)
    assert wrapped_outer() == 2 * sum(range(10_000))
    names = [span[0] for span in tracer.spans]
    assert names == ["cli.outer", "neural.inner", "neural.inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    root = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(layertrace.self_times(tracer.spans)) == pytest.approx(root, rel=1e-9)


def test_traced_run_all_sees_nested_layers(program, tmp_path):
    cfg = {
        "data": {"synthetic": {"n_per_class": 60, "n_features": 10}},
        "classifier": {"train": {"epochs": 2}},
        "background": {"size": 10},
        "detector": {"latent": 3, "train": {"epochs": 2}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        import shapguard.cli

        code = shapguard.cli.main(
            ["run-all", "--config", str(cfg_path), "--out", str(tmp_path / "ws")]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    import shapguard.neural

    assert not hasattr(shapguard.neural.forward, "__wrapped__")
    metrics = tracer.metrics(runs=1)
    assert set(metrics) <= set(layertrace.UNITS)
    assert metrics["attribution.fingerprints"] > 0
    # Every fingerprint pushes its own row twice plus a share of the background.
    assert metrics["attribution.forward_rows_per_fingerprint"] > 2
    assert metrics["neural.train_rows"] == 72 * 2 + 36 * 2
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    root = roots[0][2] - roots[0][1]
    assert sum(layertrace.self_times(tracer.spans)) == pytest.approx(root, rel=1e-9)
    # Hook time is charged to no layer: the layers plus the hooks make the root.
    assert tracer.hook_seconds() > 0
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    assert layer_self + tracer.hook_seconds() == pytest.approx(root, rel=1e-9)


def test_generator_is_deterministic_under_a_seed():
    labels_a, raw_a, bad_a = inputs.generate(600, seed=5)
    labels_b, raw_b, bad_b = inputs.generate(600, seed=5)
    _, raw_c, _ = inputs.generate(600, seed=6)
    assert labels_a == labels_b and bad_a == bad_b == 3
    assert np.array_equal(raw_a, raw_b, equal_nan=True)
    assert not np.array_equal(raw_a, raw_c, equal_nan=True)
    assert (~np.isfinite(raw_a)).any(axis=1).sum() == bad_a


def test_generated_csv_matches_program_schema(program, tmp_path):
    from shapguard import data

    first = inputs.write_csv(tmp_path / "a.csv", 400, seed=9)
    second = inputs.write_csv(tmp_path / "b.csv", 400, seed=9)
    assert first["sha256"] == second["sha256"]
    assert inputs.CIC_FEATURES == data.CIC_IOT2023_FEATURES
    with pytest.warns(UserWarning, match="dropped 2 row"):
        ds = data.load_csv(tmp_path / "a.csv", data.FeatureSchema.cic_iot2023())
    assert ds.n == 398
    assert 0 < ds.y.mean() < 1


def _fingerprint_csv(program, path: Path) -> None:
    from shapguard import attribution, neural

    rng = np.random.default_rng(0)
    model = neural.init(neural.MlpSpec((4, 6, 1), seed=1))
    background = attribution.sample_background(rng.uniform(size=(20, 4)), size=5)
    fps = attribution.fingerprint_batch(model, rng.uniform(size=(8, 4)), background)
    attribution.save_fingerprints(fps, path)


def test_checker_rejects_tampered_fingerprint_csv(program, tmp_path):
    ws = tmp_path / "ws"
    path = ws / "fingerprints" / "clean_test.csv"
    _fingerprint_csv(program, path)
    failures, gap = checks.check_fingerprints(ws)
    assert failures == [] and gap < 1e-12

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][2] = repr(float(rows[3][2]) + 1e-3)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    failures, gap = checks.check_fingerprints(ws)
    assert failures == ["clean_test.csv: 1 completeness violation(s)"]
    assert gap == pytest.approx(1e-3, rel=1e-6)


def _detections(tmp_path: Path, rows: list[dict], tau: float = 1.0) -> Path:
    path = tmp_path / "detections.json"
    flagged = sum(r["decision"] == "adversarial" for r in rows)
    path.write_text(json.dumps(
        {"input": "w.csv", "tau": tau, "n": len(rows), "adversarial": flagged, "rows": rows}
    ))
    return path


def test_checker_accepts_consistent_detections(tmp_path):
    rows = [
        {"sample_id": 0, "decision": "clean", "score": 0.5},
        {"sample_id": 1, "decision": "clean", "score": 1.0},   # s == tau is clean
        {"sample_id": 2, "decision": "adversarial", "score": 1.5},
    ]
    failures, flags = checks.check_detections(_detections(tmp_path, rows), 3)
    assert failures == [] and flags == [False, False, True]


def test_checker_rejects_decision_disagreeing_with_threshold(tmp_path):
    rows = [
        {"sample_id": 0, "decision": "adversarial", "score": 0.5},
        {"sample_id": 1, "decision": "clean", "score": 1.5},
    ]
    failures, _ = checks.check_detections(_detections(tmp_path, rows), 2)
    assert len(failures) == 2 and all("decision" in f for f in failures)


def test_checker_rejects_scores_off_the_reference(tmp_path):
    rows = [
        {"sample_id": 0, "decision": "clean", "score": 0.5},
        {"sample_id": 1, "decision": "adversarial", "score": 1.5},
        {"sample_id": 2, "decision": "clean", "score": 0.25},
    ]
    path = _detections(tmp_path, rows)
    ok, _ = checks.check_detections(path, 3, tau=1.0, expected_scores=[0.5, None, 0.25])
    assert ok == []
    failures, _ = checks.check_detections(path, 3, tau=1.0, expected_scores=[0.5, 1.2, 0.25001])
    assert len(failures) == 2 and all("batch-path" in f for f in failures)
    failures, _ = checks.check_detections(path, 3, tau=2.0)
    assert len(failures) == 1 and "detector's tau" in failures[0]


def test_reference_scores_match_the_program_detector(program, tmp_path):
    from shapguard import detector, neural

    rng = np.random.default_rng(3)
    Z = rng.normal(size=(12, 6))
    ae, _ = detector.train_autoencoder(
        Z, neural.TrainConfig(epochs=2, loss="mse"), latent=2, hidden_sizes=(4,)
    )
    det = detector.calibrate(detector.DetectorModel(ae), rng.uniform(size=10),
                             detector.CalibrationMethod())
    detector.save_detector(det, tmp_path / "detector.json")
    payload = json.loads((tmp_path / "detector.json").read_text())
    expected = [detector.detect(det, z)[1] for z in Z]
    assert checks.reconstruction_errors(payload, Z) == pytest.approx(expected, rel=1e-12)


def test_checker_rejects_missing_rows(tmp_path):
    rows = [{"sample_id": 0, "decision": "clean", "score": 0.5}]
    failures, _ = checks.check_detections(_detections(tmp_path, rows), 200)
    assert failures and "expected 200 rows" in failures[0]


def test_tail_is_highest_percentile_with_ten_calls_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3 calls")
    value, label = run.tail([float(i) for i in range(50)])
    assert value == 39.0 and label.startswith("p80 of 50 calls")


def test_untraced_run_imports_no_wrappers():
    code = "import sys, run; assert 'layertrace' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
