import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from shapguard import cli, pipeline


def _tiny_config(out_dir, **overrides):
    cfg = {
        "out_dir": str(out_dir),
        "data": {
            "synthetic": {"n_per_class": 150, "n_features": 8},
        },
        "classifier": {"train": {"epochs": 8}},
        "attacks": {"pgd": {"steps": 5}},
        "background": {"size": 30},
        "detector": {"latent": 3, "hidden_sizes": [16, 8], "train": {"epochs": 20}},
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One full tiny pipeline run shared by the read-only assertions."""
    out = tmp_path_factory.mktemp("run")
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(_tiny_config(out / "artifacts")), encoding="utf-8")
    code = cli.main(["run-all", "--config", str(cfg_path)])
    assert code == 0
    return out / "artifacts"


# ---------------------------------------------------------------------------
# config resolution


def test_resolve_config_materializes_seeds():
    cfg = pipeline.resolve_config({"seed": 41})
    assert cfg["data"]["synthetic"]["seed"] == 42
    assert cfg["data"]["split"]["seed"] == 43
    assert cfg["classifier"]["init_seed"] == 44
    assert cfg["background"]["seed"] == 47


def test_resolve_config_keeps_explicit_seeds():
    cfg = pipeline.resolve_config({"seed": 5, "background": {"seed": 123}})
    assert cfg["background"]["seed"] == 123
    assert cfg["data"]["synthetic"]["seed"] == 6


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(pipeline.ConfigError, match="bogus"):
        pipeline.resolve_config({"bogus": 1})
    with pytest.raises(pipeline.ConfigError, match="data.bogus"):
        pipeline.resolve_config({"data": {"bogus": 1}})


def test_resolve_config_requires_csv_path_for_csv_source():
    with pytest.raises(pipeline.ConfigError, match="csv"):
        pipeline.resolve_config({"data": {"source": "csv"}})


# ---------------------------------------------------------------------------
# full run artifacts


def test_run_all_produces_expected_bundle(tiny_run):
    expected = [
        "data/train.csv", "data/val.csv", "data/test.csv", "data/scaler.json",
        "models/nids.json", "models/nids_history.csv", "models/nids_report.json",
        "attacks/fgsm.csv", "attacks/pgd.csv", "attacks/deepfool.csv",
        "fingerprints/clean_train.csv", "fingerprints/clean_val.csv",
        "fingerprints/clean_test.csv", "fingerprints/fgsm.csv",
        "fingerprints/pgd.csv", "fingerprints/deepfool.csv",
        "detector/detector.json",
        "reports/metrics.csv", "reports/metrics_fgsm.json",
        "reports/rank_table.csv", "reports/rank_table.json",
        "reports/error_distribution_deepfool.json", "reports/summary.json",
        "manifest.json", "resolved_config.json",
    ]
    for rel in expected:
        assert (tiny_run / rel).exists(), rel


def test_manifest_lists_every_artifact_with_correct_digest(tiny_run):
    manifest = json.loads((tiny_run / "manifest.json").read_text())
    assert manifest["tool"] == "shapguard"
    stages = manifest["stages"]
    assert set(stages) >= {
        "ingest", "train-nids", "attack-fgsm", "attack-pgd", "attack-deepfool",
        "fingerprint", "train-detector", "evaluate",
    }
    recorded = {}
    for stage in stages.values():
        recorded.update(stage["artifacts"])
    # every file produced by the run is listed, with a correct digest
    on_disk = {
        str(p.relative_to(tiny_run))
        for p in tiny_run.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    assert on_disk == set(recorded)
    for rel, digest in recorded.items():
        assert digest == f"sha256:{_digest(tiny_run / rel)}", rel


def test_detector_tau_positive_and_recorded(tiny_run):
    det = json.loads((tiny_run / "detector/detector.json").read_text())
    assert det["tau"] > 0
    assert det["calibration"]["method"] == "percentile"
    assert det["calibration"]["parameter"] == 99.0


def test_metrics_reports_have_robustness_identity(tiny_run):
    for kind in ("fgsm", "pgd", "deepfool"):
        report = json.loads((tiny_run / f"reports/metrics_{kind}.json").read_text())
        assert abs(report["aa"] + report["asr"] - 1.0) <= 1e-12
        assert report["tp"] + report["fn"] == report["tp"] + report["fn"]
        assert 0.0 <= report["accuracy"] <= 1.0


def test_fingerprint_summary_reports_measured_completeness_gap(tiny_run):
    summary = json.loads((tiny_run / "manifest.json").read_text())["stages"]["fingerprint"]["summary"]
    gaps, rows = [], {}
    for path in sorted((tiny_run / "fingerprints").glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            body = list(csv.reader(fh))[1:]
        phi = np.array([[float(v) for v in row[2:-2]] for row in body])
        phi0 = np.array([float(row[1]) for row in body])
        output = np.array([float(row[-2]) for row in body])
        gaps.append(np.abs(phi0 + phi.sum(axis=1) - output).max())
        rows[path.stem] = len(body)
    assert summary["rows"] == rows
    assert summary["max_completeness_gap"] == max(gaps)
    assert "completeness_violations" not in summary


# ---------------------------------------------------------------------------
# determinism and stage isolation


def test_rerun_reproduces_byte_identical_artifacts(tmp_path):
    cfg = _tiny_config(tmp_path / "a")
    cfg_path = _write_config(tmp_path, cfg)
    assert cli.main(["run-all", "--config", cfg_path]) == 0
    first = {
        rel: _digest(tmp_path / "a" / rel)
        for rel in (
            "models/nids.json", "fingerprints/clean_test.csv", "fingerprints/fgsm.csv",
            "detector/detector.json", "reports/metrics.csv", "reports/rank_table.csv",
        )
    }
    cfg2 = dict(cfg, out_dir=str(tmp_path / "b"))
    cfg2_path = _write_config(tmp_path, cfg2, "config2.json")
    assert cli.main(["run-all", "--config", cfg2_path]) == 0
    for rel, digest in first.items():
        assert _digest(tmp_path / "b" / rel) == digest, rel


def test_stage_isolation_rebuilds_identical_downstream(tmp_path):
    cfg_path = _write_config(tmp_path, _tiny_config(tmp_path / "run"))
    assert cli.main(["run-all", "--config", cfg_path]) == 0
    out = tmp_path / "run"
    before = {
        rel: _digest(out / rel)
        for rel in ("detector/detector.json", "reports/metrics.csv")
    }
    (out / "detector/detector.json").unlink()
    (out / "reports/metrics.csv").unlink()
    assert cli.main(["train-detector", "--config", cfg_path]) == 0
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    for rel, digest in before.items():
        assert _digest(out / rel) == digest, rel


def test_seed_override_changes_artifacts(tmp_path):
    cfg_path = _write_config(tmp_path, _tiny_config(tmp_path / "run"))
    assert cli.main(["ingest", "--config", cfg_path]) == 0
    base = _digest(tmp_path / "run" / "data/train.csv")
    assert cli.main(["ingest", "--config", cfg_path, "--seed", "99",
                     "--out", str(tmp_path / "run2")]) == 0
    assert _digest(tmp_path / "run2" / "data/train.csv") != base


# ---------------------------------------------------------------------------
# exit codes


def test_exit_usage_on_bad_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["ingest", "--config", missing]) == cli.EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["ingest", "--config", str(bad)]) == cli.EXIT_USAGE


def test_exit_usage_on_unknown_config_key(tmp_path):
    cfg_path = _write_config(tmp_path, {"nonsense": True})
    assert cli.main(["ingest", "--config", cfg_path]) == cli.EXIT_USAGE


def test_exit_usage_on_bad_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["attack", "--attack", "bogus"])
    assert exc.value.code == cli.EXIT_USAGE


def test_exit_stage_failure_when_artifacts_missing(tmp_path):
    cfg_path = _write_config(tmp_path, _tiny_config(tmp_path / "fresh"))
    # attack before ingest/train: missing model artifact
    assert cli.main(["attack", "--config", cfg_path, "--attack", "fgsm"]) == cli.EXIT_STAGE


def test_exit_stage_failure_on_missing_csv(tmp_path):
    cfg = _tiny_config(tmp_path / "run")
    cfg["data"] = {"source": "csv", "csv": {"path": str(tmp_path / "absent.csv")}}
    cfg_path = _write_config(tmp_path, cfg)
    code = cli.main(["ingest", "--config", cfg_path])
    assert code == cli.EXIT_STAGE


def test_detect_command_scores_a_dataset(tiny_run, tmp_path):
    cfg = json.loads((tiny_run / "resolved_config.json").read_text())
    cfg_path = _write_config(tmp_path, cfg)
    code = cli.main(
        ["detect", "--config", cfg_path, "--input", str(tiny_run / "data/test.csv")]
    )
    assert code == 0
    detections = json.loads((tiny_run / "reports/detections.json").read_text())
    assert detections["n"] == len(detections["rows"])
    assert all(r["decision"] in ("clean", "adversarial") for r in detections["rows"])
    assert detections["adversarial"] == sum(
        r["decision"] == "adversarial" for r in detections["rows"]
    )


def test_detect_command_missing_input(tiny_run, tmp_path):
    cfg = json.loads((tiny_run / "resolved_config.json").read_text())
    cfg_path = _write_config(tmp_path, cfg)
    code = cli.main(["detect", "--config", cfg_path, "--input", str(tmp_path / "no.csv")])
    assert code == cli.EXIT_STAGE


def _detect_on_rewritten_test_csv(tiny_run, tmp_path, rewrite):
    """Run detect on data/test.csv after ``rewrite`` maps its rows (header
    first, label last) to new rows."""
    with open(tiny_run / "data/test.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    path = tmp_path / "input.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rewrite(rows))
    cfg = json.loads((tiny_run / "resolved_config.json").read_text())
    cfg_path = _write_config(tmp_path, cfg)
    return cli.main(["detect", "--config", cfg_path, "--input", str(path)])


def test_detect_rejects_header_only_csv(tiny_run, tmp_path, capsys):
    code = _detect_on_rewritten_test_csv(tiny_run, tmp_path, lambda rows: rows[:1])
    assert code == cli.EXIT_STAGE
    assert "no data rows" in capsys.readouterr().err


def test_detect_rejects_a_missing_feature_column(tiny_run, tmp_path, capsys):
    code = _detect_on_rewritten_test_csv(
        tiny_run, tmp_path, lambda rows: [row[1:] for row in rows]
    )
    assert code == cli.EXIT_STAGE
    assert "trained schema" in capsys.readouterr().err


def test_detect_rejects_reordered_feature_columns(tiny_run, tmp_path, capsys):
    code = _detect_on_rewritten_test_csv(
        tiny_run, tmp_path, lambda rows: [[*row[-2::-1], row[-1]] for row in rows]
    )
    assert code == cli.EXIT_STAGE
    assert "trained schema" in capsys.readouterr().err


def test_single_stage_cli_commands(tmp_path):
    cfg_path = _write_config(tmp_path, _tiny_config(tmp_path / "run"))
    assert cli.main(["ingest", "--config", cfg_path]) == 0
    assert cli.main(["train-nids", "--config", cfg_path]) == 0
    assert cli.main(["attack", "--config", cfg_path, "--attack", "fgsm"]) == 0
    assert cli.main(["fingerprint", "--config", cfg_path, "--source", "clean"]) == 0
    assert cli.main(["fingerprint", "--config", cfg_path, "--source", "fgsm"]) == 0
    assert cli.main(["train-detector", "--config", cfg_path]) == 0
    # evaluate needs all three attack fingerprint files
    assert cli.main(["attack", "--config", cfg_path, "--attack", "all"]) == 0
    assert cli.main(["fingerprint", "--config", cfg_path, "--source", "all"]) == 0
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
