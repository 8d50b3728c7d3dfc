import ast
import csv
import errno
import hashlib
import json
import os
import re
import shutil
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from shapguard import attacks, attribution, cli, data, detector, neural, pipeline
from test_acceptance import DESK_OVERRIDES
from test_readme import README


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


@pytest.mark.parametrize(
    "user", [{}, _tiny_config("runs/tiny"), DESK_OVERRIDES], ids=["default", "tiny", "desk"]
)
def test_resolve_config_is_a_fixed_point(user):
    """A resolved snapshot fed back in resolves to itself, types included."""
    once = pipeline.resolve_config(user)
    assert json.dumps(pipeline.resolve_config(once)) == json.dumps(once)


@pytest.mark.parametrize(
    "user, message",
    [
        # the JSON type of the default
        ({"classifier": {"train": {"epochs": "x"}}},
         "field 'classifier.train.epochs' must be an integer, got 'x'"),
        ({"classifier": {"train": {"epochs": 2.9}}},
         "field 'classifier.train.epochs' must be an integer, got 2.9"),
        ({"attacks": {"pgd": {"random_start": "no"}}},
         "field 'attacks.pgd.random_start' must be a boolean, got 'no'"),
        ({"classifier": {"hidden_sizes": 8}},
         "field 'classifier.hidden_sizes' must be a list, got 8"),
        ({"classifier": {"hidden_sizes": [8, "x"]}},
         "field 'classifier.hidden_sizes[1]' must be an integer, got 'x'"),
        ({"data": {"csv": {"schema": 3}}},
         "field 'data.csv.schema' must be a string or a list, got 3"),
        ({"attacks": {"fgsm": {"epsilon": None}}},
         "field 'attacks.fgsm.epsilon' must be a number, got None"),
        ({"attacks": {"fgsm": {"epsilon": float("nan")}}},
         "field 'attacks.fgsm.epsilon' must be a number, got nan"),
        ({"attacks": {"fgsm": {"epsilon": 10**400}}},
         "field 'attacks.fgsm.epsilon' must be a number, got 1000"),
        ({"seed": "x"}, "field 'seed' must be an integer, got 'x'"),
        ({"data": 3}, "field 'data' must be an object, got 3"),
        ({"data": {"source": "parquet"}}, "unknown data source 'parquet'"),
        ({"data": {"csv": {"schema": "cic"}}}, "data.csv: unsupported schema spec 'cic'"),
        # the splits are saved with a label column after the features
        ({"data": {"csv": {"schema": ["a", "label"]}}},
         "data.csv: no feature may be named 'label', the label column's name"),
        # load_csv would read that column's cells as labels, so no row would be left
        ({"data": {"csv": {"schema": ["a", "kind"], "label_column": "kind"}}},
         "data.csv: label_column 'kind' names a feature of the schema"),
        # the range the setting object checks
        ({"classifier": {"train": {"epochs": 0}}}, "classifier.train: epochs must be >= 1"),
        ({"attacks": {"pgd": {"alpha": 0.5}}}, "attacks.pgd: pgd needs 0 < alpha <= epsilon"),
        ({"background": {"size": 0}}, "background.size must be >= 1"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"background": {"seed": -3}}, "background.seed must be >= 0, got -3"),
        ({"detector": {"latent": 20}},
         "detector: latent size 20 must be smaller than input 20"),
        ({"data": {"split": {"test_frac": 0.1}}},
         "data.split: split fractions must sum to 1"),
        # every attack starts from the malicious test rows; no key selects others
        ({"attacks": {"filter": "all"}}, "unknown config key 'attacks.filter'"),
        ({"attacks": {"filter": "malicious_only"}}, "unknown config key 'attacks.filter'"),
    ],
    ids=["epochs-string", "epochs-fraction", "random-start-string", "hidden-sizes-int",
         "hidden-sizes-string-item", "csv-schema-int",
         "epsilon-null", "epsilon-nan", "epsilon-beyond-float", "seed-string", "data-not-mapping",
         "data-source-unknown", "csv-schema-unknown", "csv-schema-names-label",
         "csv-label-column-is-a-feature", "epochs-zero",
         "pgd-alpha-above-epsilon", "background-empty", "seed-negative",
         "background-seed-negative", "latent-not-below-m",
         "split-sums-to-0.9", "attacks-filter-all", "attacks-filter-malicious-only"],
)
def test_bad_config_value_is_a_config_error_before_any_stage(tmp_path, capsys, user, message):
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, {"out_dir": str(out), **user})
    assert cli.main(["run-all", "--config", cfg_path]) == cli.EXIT_USAGE
    assert f"shapguard: config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_an_integer_number_is_stored_as_a_float(tmp_path):
    out = tmp_path / "run"
    cfg = _tiny_config(out, attacks={"pgd": {"steps": 5}, "fgsm": {"epsilon": 1}})
    cfg_path = _write_config(tmp_path, cfg)
    for argv in (["ingest"], ["train-nids"], ["attack", "--attack", "fgsm"]):
        assert cli.main([*argv, "--config", cfg_path]) == 0
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    used = stages["attack-fgsm"]["config"]["attacks"]["fgsm"]
    assert repr(used["epsilon"]) == "1.0"


def _is_config_part(node: ast.AST, sections: set[str]) -> bool:
    """Whether an expression is ws.cfg, a name bound to a part of it, or a
    subscript, method result or dict/list/tuple copy of either."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            node = node.func.value
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "id", None) in ("dict", "list", "tuple")):
            node = node.args[0]
        else:
            break
    return (isinstance(node, ast.Attribute) and node.attr == "cfg") or (
        isinstance(node, ast.Name) and node.id in sections
    )


def test_stages_cast_no_config_value():
    """resolve_config is the one place that types a config value: no stage
    calls int, float or bool on ws.cfg or on a name bound to a part of it."""
    tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
    stages = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(stages) == 8
    casts = []
    for stage in stages:
        bindings = []  # (target, value): assignments, for loops, comprehensions
        for node in ast.walk(stage):
            if isinstance(node, ast.Assign):
                bindings += [(target, node.value) for target in node.targets]
            elif isinstance(node, (ast.For, ast.comprehension)):
                bindings.append((node.target, node.iter))
        sections: set[str] = set()
        while True:
            bound = {
                n.id for target, value in bindings if _is_config_part(value, sections)
                for n in ast.walk(target) if isinstance(n, ast.Name)
            }
            if bound <= sections:
                break
            sections |= bound
        for node in ast.walk(stage):
            if (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("int", "float", "bool")
                and any(_is_config_part(part, sections) for arg in node.args
                        for part in ast.walk(arg))
            ):
                casts.append(f"{stage.name}: {ast.unparse(node)}")
    assert casts == []


def test_stage_failures_are_made_by_the_stage_runner_alone():
    """run_command is the one place that times a stage, checks its option
    value and turns an exception into a StageError: no cmd_* catches an
    exception, reads the clock or tests its option value for membership."""
    tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def stage_errors(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "StageError"]
    made = stage_errors(functions["run_command"]) if "run_command" in functions else []
    assert made
    assert [n.lineno for n in stage_errors(tree) if n not in made] == []
    bookkeeping = [
        f"{name}: line {node.lineno}"
        for name, stage in functions.items() if name.startswith("cmd_")
        for node in ast.walk(stage)
        if isinstance(node, ast.Try)
        or (isinstance(node, ast.Attribute) and node.attr == "perf_counter")
    ]
    assert bookkeeping == []
    option_checks = [
        f"{name}: line {node.lineno}"
        for name, stage in functions.items()
        if name.startswith("cmd_") and len(stage.args.args) > 1
        for node in ast.walk(stage)
        if isinstance(node, ast.Compare)
        and getattr(node.left, "id", None) == stage.args.args[1].arg
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
    ]
    assert option_checks == []


@pytest.mark.parametrize("command", ["attack", "fingerprint"])
def test_the_runner_rejects_an_option_value_outside_the_stage_table(tmp_path, command):
    """argparse's choices stop a bad value at the CLI; the runner checks it
    for a library caller, before the body runs and without a manifest entry."""
    ws = pipeline.Workspace(tmp_path, {})
    with pytest.raises(pipeline.StageError, match=rf"^{command}-bogus: 'bogus' is not one of "):
        pipeline.run_command(ws, command, "bogus")
    assert not (tmp_path / "manifest.json").exists()


class _RecordingConfig(dict):
    """A resolved config that records which of its sections are read."""

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_each_stage_reads_only_the_config_sections_it_records(tmp_path):
    out = tmp_path / "run"
    cfg = _RecordingConfig(pipeline.resolve_config(_tiny_config(out)))
    ws = pipeline.Workspace(out, cfg)
    calls = [
        ("ingest", None, "ingest"),
        ("train-nids", None, "train-nids"),
        *(("attack", kind, f"attack-{kind}") for kind in pipeline.ATTACK_KINDS),
        *(("fingerprint", source, f"fingerprint-{source}")
          for source in pipeline.option_values("fingerprint")),
        ("train-detector", None, "train-detector"),
        ("evaluate", None, "evaluate"),
        ("detect", out / "data/test.csv", "detect"),
    ]
    for command, value, name in calls:
        cfg.read = set()
        pipeline.run_command(ws, command, value)
        entry = json.loads((out / "manifest.json").read_text())["stages"][name]
        assert cfg.read == set(entry.get("config", {})), name


# ---------------------------------------------------------------------------
# full run artifacts


def _readme_artifact_tree() -> set[str]:
    """The files of the README's fenced tree under "Artifacts land under",
    each <attack> expanded to every attack kind."""
    text = README.read_text(encoding="utf-8")
    tree = re.search(r"Artifacts land under .*?\n```\n(.*?)```", text, re.DOTALL).group(1)
    files, folder = set(), ""
    for line in tree.splitlines():
        if not line.startswith(" "):  # a folder, or a file at the top
            first = line.split()[0]
            folder = first if first.endswith("/") else ""
        files.update(folder + name for name in re.findall(r"[\w<>]+\.(?:csv|json)\b", line))
    return {name.replace("<attack>", kind) for name in files for kind in pipeline.ATTACK_KINDS}


def test_help_lists_exactly_the_commands_of_the_table(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    listed = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1).split(",")
    assert listed == list(pipeline.commands())
    assert {command for command, _, _ in pipeline.STAGES} <= set(listed)


def test_readme_cli_block_names_each_command_with_its_option():
    """The README's block of CLI commands has one line per command, with
    the command's option flag where it has one."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Each command runs on its own.*?\n```bash\n(.*?)```", text, re.DOTALL)
    named = {}
    for line in block.group(1).splitlines():
        _, command, *words = line.split()
        named[command] = [word for word in words if word.startswith("--") and word != "--config"]
    assert named == {command: [option[0]] if option else []
                     for command, (_, _, option) in pipeline.commands().items()}


def test_run_all_produces_expected_bundle(tiny_run):
    """run-all writes exactly the files of the README's artifact tree."""
    stages = json.loads((tiny_run / "manifest.json").read_text())["stages"]
    # the detect tests of this module write into the shared run
    detected = set(stages.get("detect", {}).get("artifacts", {}))
    written = {str(p.relative_to(tiny_run)) for p in tiny_run.rglob("*") if p.is_file()}
    assert written - detected == _readme_artifact_tree()
    # each of these repeated a fact that another artifact holds
    deleted = [
        "models/nids_report.json",
        *(f"attacks/{kind}_summary.json" for kind in pipeline.ATTACK_KINDS),
        "reports/metrics.csv", "reports/rank_table.csv", "reports/summary.json",
        *(f"reports/error_distribution_{kind}.csv" for kind in pipeline.ATTACK_KINDS),
        *(f"reports/error_distribution_{kind}.json" for kind in pipeline.ATTACK_KINDS),
        # the manifest's config parts record what these did
        "resolved_config.json",
        *(f"attacks/{kind}.config.json" for kind in pipeline.ATTACK_KINDS),
    ]
    assert len(deleted) == 17
    assert not written & set(deleted)


def _assert_manifest_lists_every_file_once(root):
    """The files under ``root`` are manifest.json plus the union of the
    entries' artifacts, no two entries list one file, and every listed
    digest matches its file."""
    stages = json.loads((root / "manifest.json").read_text())["stages"]
    listed = [rel for entry in stages.values() for rel in entry["artifacts"]]
    assert len(listed) == len(set(listed))
    on_disk = {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
    assert on_disk == {*listed, "manifest.json"}
    for entry in stages.values():
        for rel, digest in entry["artifacts"].items():
            assert digest == f"sha256:{_digest(root / rel)}", rel


def test_manifest_lists_every_artifact_with_correct_digest(tiny_run):
    manifest = json.loads((tiny_run / "manifest.json").read_text())
    assert manifest["tool"] == "shapguard"
    assert set(manifest["stages"]) >= {
        "ingest", "train-nids", "attack-fgsm", "attack-pgd", "attack-deepfool",
        "fingerprint-clean", "fingerprint-fgsm", "fingerprint-pgd", "fingerprint-deepfool",
        "train-detector", "evaluate",
    }
    _assert_manifest_lists_every_file_once(tiny_run)


def test_manifest_lists_every_file_once_after_a_stage_rerun(tiny_run, tmp_path):
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    assert cli.main(["fingerprint", "--config", cfg_path, "--source", "fgsm"]) == 0
    _assert_manifest_lists_every_file_once(out)


def test_each_stage_records_the_config_part_it_read(tiny_run):
    stages = json.loads((tiny_run / "manifest.json").read_text())["stages"]
    cfg = pipeline.resolve_config(_tiny_config(tiny_run))
    assert stages["ingest"]["config"] == {"data": cfg["data"]}
    assert stages["train-nids"]["config"] == {
        "classifier": cfg["classifier"], "background": cfg["background"]
    }
    for kind in pipeline.ATTACK_KINDS:
        assert stages[f"attack-{kind}"]["config"] == {"attacks": {kind: cfg["attacks"][kind]}}
    assert stages["train-detector"]["config"] == {"detector": cfg["detector"]}
    sources = pipeline.option_values("fingerprint")
    for name in ("evaluate", *(f"fingerprint-{source}" for source in sources)):
        assert "config" not in stages[name], name
    for entry in stages.values():
        assert list(entry) in (["seconds", "config", "artifacts", "summary"],
                               ["seconds", "artifacts", "summary"])


def _deep_merge(parts):
    merged: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                value = _deep_merge([merged.get(key, {}), value])
            merged[key] = value
    return merged


def test_run_is_reproducible_from_its_manifest(tiny_run, tmp_path):
    """The stages' config parts, merged, are a config that rebuilds every
    artifact bitwise, whatever the master seed."""
    stages = json.loads((tiny_run / "manifest.json").read_text())["stages"]
    cfg = _deep_merge(entry["config"] for entry in stages.values() if "config" in entry)
    assert set(cfg) == {"data", "classifier", "attacks", "background", "detector"}
    out = tmp_path / "rebuilt"
    cfg_path = _write_config(tmp_path, cfg)
    assert cli.main(["run-all", "--config", cfg_path, "--seed", "99", "--out", str(out)]) == 0
    made = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()} - {"manifest.json"}
    assert made == {
        rel for name, entry in stages.items() if name != "detect" for rel in entry["artifacts"]
    }
    for rel in made:
        assert _digest(out / rel) == _digest(tiny_run / rel), rel


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
    """Each fingerprint-<source> summary holds the row count of every file
    its run wrote and the largest completeness gap measured in them."""
    stages = json.loads((tiny_run / "manifest.json").read_text())["stages"]
    names = {"clean": ["clean_train", "clean_val", "clean_test"],
             **{kind: [kind] for kind in pipeline.ATTACK_KINDS}}
    for source in pipeline.option_values("fingerprint"):
        summary = stages[f"fingerprint-{source}"]["summary"]
        gaps, rows = [], {}
        for name in names[source]:
            with open(tiny_run / f"fingerprints/{name}.csv", newline="", encoding="utf-8") as fh:
                body = list(csv.reader(fh))[1:]
            phi = np.array([[float(v) for v in row[2:-2]] for row in body])
            phi0 = np.array([float(row[1]) for row in body])
            output = np.array([float(row[-2]) for row in body])
            gaps.append(np.abs(phi0 + phi.sum(axis=1) - output).max())
            rows[name] = len(body)
        assert summary == {"rows": rows, "max_completeness_gap": max(gaps)}, source


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
            "detector/detector.json", "reports/metrics_fgsm.json", "reports/rank_table.json",
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
        for rel in ("detector/detector.json", "reports/metrics_fgsm.json")
    }
    (out / "detector/detector.json").unlink()
    (out / "reports/metrics_fgsm.json").unlink()
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


@pytest.mark.parametrize("user", [[], "", 0, [1], "x"], ids=repr)
def test_resolve_config_rejects_a_config_that_is_not_a_mapping(user):
    got = {list: "array"}.get(type(user)) or repr(user)
    message = f"field 'config' must be an object or null, got {got}"
    with pytest.raises(pipeline.ConfigError, match=re.escape(message)):
        pipeline.resolve_config(user)


@pytest.mark.parametrize(
    "text, got", [("[1, 2]", "array"), ('"x"', "string"), ("3", "number"), ("null", "null")]
)
def test_a_config_file_that_holds_no_object_is_a_config_error(tmp_path, capsys, text, got):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        f"shapguard: config error: {cfg_path}: not a JSON object, got {got}\n"
    )
    assert not out.exists()


def test_a_config_file_that_is_not_valid_json_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"seed": ', encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        f"shapguard: config error: {cfg_path}: not valid JSON: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "target, code", [(None, cli.EXIT_USAGE), ("data/train.csv", cli.EXIT_STAGE)],
    ids=["config", "split"],
)
def test_a_file_that_is_not_utf8_is_named(tiny_run, tmp_path, capsys, target, code):
    """A --config file is a config error, an artifact a stage failure."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    path = Path(cfg_path) if target is None else out / target
    path.write_bytes(path.read_bytes().replace(b",", b",\xff", 1))
    assert cli.main(["train-nids", "--config", cfg_path]) == code
    assert f"{path}: not UTF-8 text: cannot decode byte 0xff" in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "sub"], ids=["the-file", "below-the-file"])
def test_an_out_dir_that_cannot_be_made_is_a_usage_error(tmp_path, capsys, below):
    afile = tmp_path / "afile"
    afile.write_text("keep", encoding="utf-8")
    out = afile / below if below else afile
    reason = os.strerror(errno.ENOTDIR if below else errno.EEXIST)
    assert cli.main(["ingest", "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        f"shapguard: cannot create output directory {out}: {reason}\n"
    )
    assert afile.read_text(encoding="utf-8") == "keep"


@pytest.mark.parametrize("where", ["flag", "config"])
def test_an_empty_out_dir_is_a_config_error(tmp_path, capsys, monkeypatch, where):
    """An empty out_dir would be the current directory: it is refused
    before anything is written there."""
    monkeypatch.chdir(tmp_path)
    argv = ["--out", ""] if where == "flag" else [
        "--config", _write_config(tmp_path, {"out_dir": ""})]
    assert cli.main(["ingest", *argv]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "shapguard: config error: out_dir must name a directory, got ''\n")
    assert [p.name for p in tmp_path.iterdir()] == ([] if where == "flag" else ["config.json"])


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


def _ingest_raw_csv(tmp_path, text, command="ingest"):
    """Run ``command`` on a raw CSV holding ``text``, schema a, b, c; return
    the exit code and the file's path."""
    path = tmp_path / "flows.csv"
    path.write_text(text, encoding="utf-8")
    cfg = _tiny_config(tmp_path / "run")
    cfg["data"] = {"source": "csv", "csv": {"path": str(path), "schema": ["a", "b", "c"]}}
    cfg["detector"]["latent"] = 2  # the latent size must be below the schema's 3 features
    return cli.main([command, "--config", _write_config(tmp_path, cfg)]), path


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b,c,label\n1,2,3,x\n4,oops,6,x\n", "row 3, column 'b': cannot parse 'oops'"),
        ("a,c,label\n1,3,x\n", "missing required column(s): b"),
        # rejected since ingest reads through the table codec; the parser
        # before it ignored or accepted each of these
        ("a,b,c,proto,label\n1,2,3,tcp,x\n", "row 2, column 'proto': cannot parse 'tcp'"),
        ("a,b,c,label\n1,2,3,x\n4,5,6,x,extra\n", "row 3 has 5 cells but the header has 4"),
        ("a,b,c,label\n1,2,3,x\n,,,\n", "row 3, column 'a': cannot parse ''"),
        ("a,b,c,label\n1,2,3,x\n1_000,5,6,x\n", "row 3, column 'a': cannot parse '1_000'"),
        # the reader took the last of the two columns
        ("a,b,c,a,label\n1,2,3,4,x\n", "the header names column 'a' twice, at columns 1 and 4"),
    ],
    ids=["unparsable-cell", "missing-column", "text-extra-column", "ragged-row",
         "empty-cells-row", "digit-grouping", "repeated-column"],
)
def test_ingest_rejects_a_malformed_raw_csv_naming_the_file(tmp_path, capsys, text, message):
    code, path = _ingest_raw_csv(tmp_path, text)
    assert code == cli.EXIT_STAGE
    assert f"ingest: {path}: {message}" in capsys.readouterr().err


def test_a_split_without_malicious_rows_is_an_ingest_failure_naming_it(tmp_path, capsys):
    """60 benign rows and 2 malicious ones leave the test split with no
    malicious row to fingerprint: ingest refuses it before it writes any
    split, naming the split and its class counts."""
    rows = "".join(f"0.{i:02d},0.{i % 7},0.{i % 5},BenignTraffic\n" for i in range(60))
    text = f"a,b,c,label\n{rows}0.9,0.9,0.9,x\n0.8,0.95,0.85,y\n"
    with pytest.warns(UserWarning, match="split 'test' received no rows of class 1"):
        code, _ = _ingest_raw_csv(tmp_path, text, command="run-all")
    assert code == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert "shapguard: ingest: split 'test' has no malicious rows (12 benign, 0 malicious)" in err
    assert not (tmp_path / "run/data").exists()


def test_detect_command_scores_a_dataset(tiny_run, tmp_path):
    cfg_path = _write_config(tmp_path, _tiny_config(tiny_run))
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
    cfg_path = _write_config(tmp_path, _tiny_config(tiny_run))
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
    cfg_path = _write_config(tmp_path, _tiny_config(tiny_run))
    return cli.main(["detect", "--config", cfg_path, "--input", str(path)])


def test_detect_rejects_header_only_csv(tiny_run, tmp_path, capsys):
    code = _detect_on_rewritten_test_csv(tiny_run, tmp_path, lambda rows: rows[:1])
    assert code == cli.EXIT_STAGE
    assert f"{tmp_path / 'input.csv'}: no data rows" in capsys.readouterr().err


def test_detect_rejects_a_missing_feature_column(tiny_run, tmp_path, capsys):
    code = _detect_on_rewritten_test_csv(
        tiny_run, tmp_path, lambda rows: [row[1:] for row in rows]
    )
    assert code == cli.EXIT_STAGE
    message = f"{tmp_path / 'input.csv'}: header column 1 is 'f1', expected 'f0'"
    assert message in capsys.readouterr().err


def test_detect_rejects_reordered_feature_columns(tiny_run, tmp_path, capsys):
    code = _detect_on_rewritten_test_csv(
        tiny_run, tmp_path, lambda rows: [[*row[-2::-1], row[-1]] for row in rows]
    )
    assert code == cli.EXIT_STAGE
    message = f"{tmp_path / 'input.csv'}: header column 1 is 'f7', expected 'f0'"
    assert message in capsys.readouterr().err


def _set_cell(row, col, value):
    """A rewrite for _detect_on_rewritten_test_csv: one data cell replaced."""
    def rewrite(rows):
        rows = [list(r) for r in rows]
        rows[row][col] = value
        return rows
    return rewrite


# A bad cell is named by its file line, the header being line 1, as
# data.read_table names a cell it cannot parse.


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_detect_rejects_non_finite_cells(tiny_run, tmp_path, capsys, value):
    code = _detect_on_rewritten_test_csv(tiny_run, tmp_path, _set_cell(3, 1, value))
    assert code == cli.EXIT_STAGE
    assert f"{tmp_path / 'input.csv'}: row 4, column 'f1': " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["5.0", "-3.0", "1.000001"])
def test_detect_rejects_cells_outside_the_box(tiny_run, tmp_path, capsys, value):
    code = _detect_on_rewritten_test_csv(tiny_run, tmp_path, _set_cell(2, 0, value))
    assert code == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert f"{tmp_path / 'input.csv'}: row 3, column 'f0': " in err and "[0, 1]" in err


@pytest.mark.parametrize("value, problem", [("nan", "nan is not a finite value"),
                                            ("x", "cannot parse 'x'")])
def test_detect_counts_blank_lines_when_it_names_a_bad_row(tiny_run, tmp_path, capsys, value,
                                                           problem):
    """Header on line 1, a row on line 2, a blank line 3, the bad row on 4."""
    def rewrite(rows):
        rows = _set_cell(2, 1, value)(rows)
        return [*rows[:2], [], *rows[2:]]
    code = _detect_on_rewritten_test_csv(tiny_run, tmp_path, rewrite)
    assert code == cli.EXIT_STAGE
    assert f"{tmp_path / 'input.csv'}: row 4, column 'f1': {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["2", "BenignTraffic", ""])
def test_detect_ignores_the_label_column(tiny_run, tmp_path, label):
    """Any text in the label column scores like the unmodified file."""
    cfg_path = _write_config(tmp_path, _tiny_config(tiny_run))
    argv = ["detect", "--config", cfg_path, "--input", str(tiny_run / "data/test.csv")]
    assert cli.main(argv) == 0
    unmodified = json.loads((tiny_run / "reports/detections.json").read_text())["rows"]

    def relabel(rows):
        return [rows[0], *([*row[:-1], label] for row in rows[1:])]
    assert _detect_on_rewritten_test_csv(tiny_run, tmp_path, relabel) == 0
    relabelled = json.loads((tiny_run / "reports/detections.json").read_text())["rows"]
    assert relabelled == unmodified


def _copy_of_run(tiny_run, tmp_path):
    """A private copy of the tiny run plus an unresolved config for it, so
    a --seed override re-derives every seed."""
    out = tmp_path / "run"
    shutil.copytree(tiny_run, out)
    return out, _write_config(tmp_path, _tiny_config(out))


def test_each_fingerprint_entry_lists_exactly_the_files_its_run_wrote(tiny_run, tmp_path):
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    shutil.rmtree(out / "fingerprints")

    def files():
        return {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    written = {}
    for source in ("clean", "fgsm"):
        before = files()
        assert cli.main(["fingerprint", "--config", cfg_path, "--source", source]) == 0
        written[source] = files() - before
    assert written == {
        "clean": {f"fingerprints/clean_{split}.csv" for split in ("train", "val", "test")},
        "fgsm": {"fingerprints/fgsm.csv"},
    }
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    for source, files in written.items():
        entry = stages[f"fingerprint-{source}"]
        assert set(entry["artifacts"]) == files, source
        for rel, digest in entry["artifacts"].items():
            assert digest == f"sha256:{_digest(out / rel)}", rel
            assert digest == f"sha256:{_digest(tiny_run / rel)}", rel
        assert entry["summary"]["rows"].keys() == {Path(rel).stem for rel in files}


def test_a_failed_completeness_check_names_the_stage_and_records_its_files(
    tiny_run, tmp_path, capsys, monkeypatch
):
    """A completeness violation is a failed check of the stage: every table
    is still written and recorded with its digest, and the failure, in the
    summary, exits 3 naming the stage."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    shutil.rmtree(out / "fingerprints")
    # keyed on the table itself, by the outputs the shared run wrote for
    # clean_val: the tables are made in two processes, each counting its calls
    val = attribution.load_fingerprints(tiny_run / "fingerprints/clean_val.csv")

    def count_violations(self):
        return 1 if np.array_equal(self.model_output, val.model_output) else 0
    monkeypatch.setattr(attribution.Fingerprints, "count_violations", count_violations)
    assert cli.main(["fingerprint", "--config", cfg_path, "--source", "clean"]) == 3
    assert capsys.readouterr().err.startswith(
        "shapguard: invariant check failed: fingerprint-clean: clean_val: 1 completeness"
    )
    entry = json.loads((out / "manifest.json").read_text())["stages"]["fingerprint-clean"]
    assert entry["summary"]["checks_failed"] == ["clean_val: 1 completeness violation(s)"]
    on_disk = {str(p.relative_to(out)) for p in (out / "fingerprints").iterdir()}
    assert set(entry["artifacts"]) == on_disk == {
        f"fingerprints/clean_{split}.csv" for split in ("train", "val", "test")
    }
    for rel, digest in entry["artifacts"].items():
        assert digest == f"sha256:{_digest(out / rel)}", rel


def test_fingerprint_rerun_under_another_seed_rewrites_the_same_bytes(tiny_run, tmp_path):
    """The background belongs to the NIDS: fingerprint reads the one
    train-nids saved and no config, so a --seed flag changes no file and
    no other entry, and the rerun's entry records no config."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    stages_before = json.loads((out / "manifest.json").read_text())["stages"]
    (out / "fingerprints/fgsm.csv").unlink()
    argv = ["fingerprint", "--config", cfg_path, "--seed", "8", "--source", "fgsm"]
    assert cli.main(argv) == 0
    after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    manifest = out / "manifest.json"
    assert {p: b for p, b in after.items() if p != manifest} == {
        p: b for p, b in before.items() if p != manifest
    }
    stages = json.loads(manifest.read_text())["stages"]
    assert {n: e for n, e in stages.items() if n != "fingerprint-fgsm"} == {
        n: e for n, e in stages_before.items() if n != "fingerprint-fgsm"
    }
    entry = stages["fingerprint-fgsm"]
    assert "config" not in entry
    assert entry["artifacts"] == {
        "fingerprints/fgsm.csv": f"sha256:{_digest(tiny_run / 'fingerprints/fgsm.csv')}"
    }
    assert stages["train-nids"]["config"]["background"] == {"size": 30, "seed": 13}


def test_detect_and_evaluate_leave_the_config_snapshot_alone(tiny_run, tmp_path):
    """Neither reads a config value, so a --seed flag records no config
    part and leaves the other stages' entries as they were."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    before = json.loads((out / "manifest.json").read_text())["stages"]
    assert cli.main(["detect", "--config", cfg_path, "--seed", "8",
                     "--input", str(out / "data/test.csv")]) == 0
    assert cli.main(["evaluate", "--config", cfg_path, "--seed", "8"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"tool", "version", "stages"}
    stages = manifest["stages"]
    assert "config" not in stages["detect"] and "config" not in stages["evaluate"]
    for name in set(stages) | set(before):
        if name not in ("detect", "evaluate"):
            assert stages[name] == before[name], name


def test_detect_scores_do_not_depend_on_the_seed_flag(tiny_run, tmp_path):
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    argv = ["detect", "--config", cfg_path, "--input", str(out / "data/test.csv")]
    assert cli.main(argv) == 0
    trained = json.loads((out / "reports/detections.json").read_text())
    assert cli.main([*argv, "--seed", "8"]) == 0
    reseeded = json.loads((out / "reports/detections.json").read_text())
    assert reseeded["rows"] == trained["rows"]


def _benign_only(rows):
    return [rows[0], *([*row[:-1], "0"] for row in rows[1:])]


def _renamed_header(rows):
    return [["renamed_a", "renamed_b", *rows[0][2:]], *rows[1:]]


@pytest.mark.parametrize(
    "artifact, argv, rewrite, message",
    [
        ("fingerprints/clean_train.csv", ["train-detector"], lambda rows: [],
         "fingerprints/clean_train.csv: file is empty"),
        ("attacks/pgd.csv", ["fingerprint", "--source", "pgd"], lambda rows: [],
         "attacks/pgd.csv: file is empty"),
        ("models/background.csv", ["detect", "--input", "data/test.csv"], lambda rows: [],
         "models/background.csv: file is empty"),
        ("data/train.csv", ["train-nids"], lambda rows: rows[:1], "data/train.csv: no data rows"),
        ("data/train.csv", ["train-nids"], lambda rows: [row[:-1] for row in rows],
         "data/train.csv: header column 8 is 'f7', expected 'label'"),
        ("data/val.csv", ["fingerprint", "--source", "clean"],
         lambda rows: [row[-1:] for row in rows],
         "data/val.csv: no feature column before 'label'"),
        ("fingerprints/clean_train.csv", ["train-detector"], lambda rows: rows[:1],
         "fingerprints/clean_train.csv: no data rows"),
        ("data/val.csv", ["fingerprint"], _benign_only,
         "fingerprint-clean: data/val.csv has no malicious rows to fingerprint"),
        ("models/background.csv", ["fingerprint", "--source", "fgsm"], _renamed_header,
         "models/background.csv: header column 1 is 'renamed_a', expected 'f0'"),
        ("models/background.csv", ["detect", "--input", "data/test.csv"], _renamed_header,
         "models/background.csv: header column 1 is 'renamed_a', expected 'f0'"),
        ("models/background.csv", ["fingerprint", "--source", "fgsm"], lambda rows: rows[:1],
         "models/background.csv: no data rows"),
        ("models/background.csv", ["detect", "--input", "data/test.csv"], lambda rows: rows[:1],
         "models/background.csv: no data rows"),
        ("attacks/pgd.csv", ["fingerprint", "--source", "pgd"], lambda rows: rows[:1],
         "attacks/pgd.csv: no data rows"),
        ("data/test.csv", ["detect", "--input", "data/test.csv"],
         lambda rows: [[*row, "extra" if i == 0 else "0"] for i, row in enumerate(rows)],
         "data/test.csv: header column 10 is 'extra', expected 9 columns"),
    ],
    ids=["fingerprints/clean_train.csv-argv0", "attacks/pgd.csv-argv1",
         "models/background.csv-argv2", "split-header-only", "split-without-label",
         "split-label-only",
         "fingerprints-header-only", "split-without-malicious-rows",
         "background-renamed-fingerprint", "background-renamed-detect",
         "background-header-only-fingerprint", "background-header-only-detect",
         "attack-header-only", "detect-input-extra-column"],
)
def test_empty_artifact_is_a_stage_failure_naming_it(
    tiny_run, tmp_path, capsys, artifact, argv, rewrite, message
):
    """An artifact that is empty, or that lacks the rows or the column its
    stage reads or holds one more, is a stage failure naming it."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    _rewrite_csv(out / artifact, rewrite)
    argv = [str(out / a) if a.endswith(".csv") else a for a in argv]
    assert cli.main([*argv, "--config", cfg_path]) == cli.EXIT_STAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["attack", "--attack", "fgsm"], "attack-fgsm: input has 10 features, model expects 8"),
        (["fingerprint"], "fingerprint-clean: X has 10 features, the background 8, the model 8"),
        (["detect", "--input", "data/test.csv"],
         "detect: X has 10 features, the background 8, the model 8"),
        (["detect", "--input", "data"], "detect: {out}/data: Is a directory"),
    ],
    ids=["attack", "fingerprint", "detect", "detect-a-directory"],
)
def test_input_that_does_not_match_the_model_is_a_stage_failure(
    tiny_run, tmp_path, capsys, argv, message
):
    """A re-ingest at another width without retraining leaves a model that
    takes 8 features beside data with 10: each stage that pairs them fails
    naming itself, as does detect given a directory."""
    out, _ = _copy_of_run(tiny_run, tmp_path)
    cfg = _tiny_config(out)
    cfg["data"]["synthetic"]["n_features"] = 10
    cfg_path = _write_config(tmp_path, cfg, "wide.json")
    assert cli.main(["ingest", "--config", cfg_path]) == 0
    argv = [str(out / a) if a.startswith("data") else a for a in argv]
    assert cli.main([*argv, "--config", cfg_path]) == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert f"shapguard: {message.format(out=out)}" in err and "Traceback" not in err


def test_truncated_fingerprint_file_is_a_stage_failure(tiny_run, tmp_path, capsys):
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    path = out / "fingerprints/clean_val.csv"
    path.write_bytes(path.read_bytes()[:-40])
    assert cli.main(["train-detector", "--config", cfg_path]) == cli.EXIT_STAGE
    assert "clean_val.csv" in capsys.readouterr().err


def _rewrite_csv(path, rewrite):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rewrite(rows))


def test_unparsable_fingerprint_cell_is_a_stage_failure_naming_its_line(tiny_run, tmp_path, capsys):
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)

    def corrupt(rows):
        rows[2][rows[0].index("phi_2")] = "oops"
        return rows
    _rewrite_csv(out / "fingerprints/clean_val.csv", corrupt)
    assert cli.main(["train-detector", "--config", cfg_path]) == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert "fingerprints/clean_val.csv: row 3, column 'phi_2': cannot parse 'oops'" in err


@pytest.mark.parametrize("column, value", [("phi_2", "nan"), ("model_output", "-inf")])
def test_non_finite_fingerprint_cell_is_a_stage_failure_naming_its_line(
    tiny_run, tmp_path, capsys, column, value
):
    """A NaN would otherwise score as clean and leave NaN in the error
    histogram, which is not valid JSON."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)

    def corrupt(rows):
        rows[2][rows[0].index(column)] = value
        return rows
    _rewrite_csv(out / "fingerprints/fgsm.csv", corrupt)
    assert cli.main(["evaluate", "--config", cfg_path]) == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert (f"shapguard: evaluate: {out / 'fingerprints/fgsm.csv'}: row 3, column {column!r}: "
            f"{value} is not a finite value") in err


_FINGERPRINT_PGD = (["fingerprint", "--source", "pgd"], "fingerprint-pgd")
_TRAIN_NIDS = (["train-nids"], "train-nids")
_TRAIN_DETECTOR = (["train-detector"], "train-detector")


@pytest.mark.parametrize(
    "artifact, column, value, message, argv, stage",
    [
        ("attacks/pgd.csv", "adv_f3", "nan", "row 3, column 'adv_f3': nan is not a finite value",
         *_FINGERPRINT_PGD),
        ("data/train.csv", "f3", "nan", "row 3, column 'f3': nan is not a finite value",
         *_TRAIN_NIDS),
        # an integer cell a cast would truncate
        ("data/train.csv", "label", "0.5", "row 3, column 'label': 0.5 is not 0 or 1",
         *_TRAIN_NIDS),
        ("attacks/pgd.csv", "sample_index", "2.7",
         "row 3, column 'sample_index': 2.7 is not a whole number >= 0", *_FINGERPRINT_PGD),
        ("attacks/pgd.csv", "success", "0.5", "row 3, column 'success': 0.5 is not 0 or 1",
         *_FINGERPRINT_PGD),
        # an attacked row must be a malicious row of the test split
        ("attacks/pgd.csv", "sample_index", "99999",
         "row 3, column 'sample_index': 99999 is not a malicious row of data/test.csv",
         *_FINGERPRINT_PGD),
        ("models/background.csv", "f3", "1.5",
         "row 3, column 'f3': 1.5 is not a finite value in [0, 1]", *_FINGERPRINT_PGD),
        ("attacks/pgd.csv", "adv_f3", "1.5",
         "row 3, column 'adv_f3': 1.5 is not a finite value in [0, 1]", *_FINGERPRINT_PGD),
        ("fingerprints/clean_val.csv", "sample_id", "1.5",
         "row 3, column 'sample_id': 1.5 is not a whole number >= 0", *_TRAIN_DETECTOR),
        # a column every row of a fingerprint table shares
        ("fingerprints/clean_val.csv", "origin", "fgsm", "the origin column is not constant",
         *_TRAIN_DETECTOR),
    ],
    ids=["fingerprint", "train-nids", "label-fraction", "sample-index-fraction",
         "success-fraction", "sample-index-not-malicious-test-row", "background-outside-box",
         "adversarial-row-outside-box",
         "sample-id-fraction", "origin-not-constant"],
)
def test_non_finite_cell_in_an_upstream_artifact_is_a_stage_failure_naming_its_line(
    tiny_run, tmp_path, capsys, artifact, column, value, message, argv, stage
):
    """A NaN in an attacked row would otherwise be fingerprinted into a NaN
    phi row whose completeness gap passes every comparison; a label of 0.5
    would be read as benign, a sample index of 2.7 as row 2, and one past
    the test split would fingerprint a row no clean fingerprint pairs with.
    A bad cell is named by its file line; a column that must be constant,
    by name."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)

    def corrupt(rows):
        rows[2][rows[0].index(column)] = value
        return rows
    _rewrite_csv(out / artifact, corrupt)
    assert cli.main([*argv, "--config", cfg_path]) == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert f"shapguard: {stage}: {out / artifact}: {message}" in err


def test_malicious_split_row_outside_the_box_is_an_attack_failure_naming_its_line(
    tiny_run, tmp_path, capsys
):
    """PGD would clamp a row at -0.5 into the box, an l-inf step beyond
    epsilon."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    line = {}

    def corrupt(rows):
        at = next(i for i, row in enumerate(rows) if row[-1] == "1")
        rows[at][rows[0].index("f2")] = "-0.5"
        line["n"] = at + 1
        return rows
    _rewrite_csv(out / "data/test.csv", corrupt)
    assert cli.main(["attack", "--attack", "pgd", "--config", cfg_path]) == cli.EXIT_STAGE
    assert (f"shapguard: attack-pgd: {out / 'data/test.csv'}: row {line['n']}, column 'f2': "
            "-0.5 is not a finite value in [0, 1]") in capsys.readouterr().err


@pytest.mark.parametrize("source", ["clean_test", "deepfool"])
def test_evaluate_rejects_fingerprints_wider_than_the_detector(tiny_run, tmp_path, capsys, source):
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)

    def widen(rows):
        at = rows[0].index("model_output")
        return [[*row[:at], "phi_9" if i == 0 else "0.0", *row[at:]] for i, row in enumerate(rows)]
    _rewrite_csv(out / f"fingerprints/{source}.csv", widen)
    assert cli.main(["evaluate", "--config", cfg_path]) == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert f"fingerprints/{source}.csv: 9 fingerprint features, but the detector takes 8" in err


def test_detect_and_evaluate_reject_a_detector_of_another_width(tiny_run, tmp_path, capsys):
    """Both stages that score fingerprints run one width check, naming the
    fingerprints' file, the detector and data/scaler.json."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    Z = np.random.default_rng(0).random((20, 6))
    ae, _ = detector.train_autoencoder(Z, neural.TrainConfig(epochs=1, loss="mse"), latent=2,
                                       hidden_sizes=(4,))
    det = detector.calibrate(detector.DetectorModel(autoencoder=ae), np.linspace(0, 1, 10),
                             detector.CalibrationMethod())
    detector.save_detector(det, out / "detector/detector.json")
    width = "8 fingerprint features, but the detector takes 6 and data/scaler.json has 8"
    test_csv = out / "data/test.csv"
    for argv, where in ((["evaluate"], "fingerprints/clean_test.csv"),
                        (["detect", "--input", str(test_csv)], test_csv)):
        assert cli.main([*argv, "--config", cfg_path]) == cli.EXIT_STAGE
        assert f"shapguard: {argv[0]}: {where}: {width}" in capsys.readouterr().err


def test_deepfool_stage_counts_degenerate_rows_in_the_manifest_only(tiny_run):
    stages = json.loads((tiny_run / "manifest.json").read_text())["stages"]
    assert stages["attack-deepfool"]["summary"]["degenerate_rows"] == 0
    assert not (tiny_run / "attacks/deepfool_summary.json").exists()
    header = (tiny_run / "attacks/deepfool.csv").read_text().splitlines()[0]
    assert "degenerate" not in header


def test_attack_summaries_and_rows_rebuild_from_the_test_split(tiny_run):
    """The adversarial table stores no clean rows: linf, l2 and success
    follow bitwise from data/test.csv at sample_index and the adv_ columns,
    and the stage summary holds the means the old summary file did."""
    test = data.load_dataset(tiny_run / "data/test.csv")
    model = neural.load(tiny_run / "models/nids.json")
    stages = json.loads((tiny_run / "manifest.json").read_text())["stages"]
    for kind in pipeline.ATTACK_KINDS:
        header = (tiny_run / f"attacks/{kind}.csv").read_text().splitlines()[0].split(",")
        assert header == ["sample_index", "success", "linf", "l2",
                          *(f"adv_{name}" for name in test.schema.names)]
        batch = attacks.load_adv_batch(tiny_run / f"attacks/{kind}.csv")
        clean = test.X[batch.sample_index]
        diff = batch.X_adv - clean
        assert np.array_equal(batch.linf, np.abs(diff).max(axis=1)), kind
        assert np.array_equal(batch.l2, np.sqrt((diff**2).sum(axis=1))), kind
        _, before = neural.predict(model, clean)
        _, after = neural.predict(model, batch.X_adv)
        assert np.array_equal(batch.success, before != after), kind
        summary = stages[f"attack-{kind}"]["summary"]
        assert summary["rows"] == batch.n
        assert summary["success_rate"] == batch.success_rate
        assert summary["mean_linf"] == float(batch.linf.mean())
        assert summary["mean_l2"] == float(batch.l2.mean())
    assert "checks_failed" not in stages["evaluate"]["summary"]


def test_every_attack_starts_from_the_malicious_test_rows(tiny_run):
    test = data.load_dataset(tiny_run / "data/test.csv")
    for kind in pipeline.ATTACK_KINDS:
        batch = attacks.load_adv_batch(tiny_run / f"attacks/{kind}.csv")
        assert np.array_equal(batch.sample_index, np.flatnonzero(test.y == 1)), kind


def test_every_adversarial_fingerprint_pairs_with_a_clean_test_fingerprint(tiny_run):
    """The adversarial fingerprints are of the rows fingerprint-clean
    explains, in the same order."""
    clean = attribution.load_fingerprints(tiny_run / "fingerprints/clean_test.csv")
    for kind in pipeline.ATTACK_KINDS:
        adv = attribution.load_fingerprints(tiny_run / f"fingerprints/{kind}.csv")
        assert np.array_equal(adv.sample_ids, clean.sample_ids), kind


@pytest.mark.parametrize("damage", ["missing", "corrupt"])
def test_evaluate_without_a_readable_scaler_is_a_stage_failure(tiny_run, tmp_path, capsys, damage):
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    scaler = out / "data/scaler.json"
    if damage == "missing":
        scaler.unlink()
    else:
        scaler.write_text("{", encoding="utf-8")
    assert cli.main(["evaluate", "--config", cfg_path]) == cli.EXIT_STAGE
    assert "scaler.json" in capsys.readouterr().err


def test_train_detector_records_the_background_the_fingerprints_used(tiny_run, tmp_path):
    """Each stage records the config part it ran with, so a rerun under
    another seed leaves the background seed train-nids recorded as it was."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    assert cli.main(["train-detector", "--config", cfg_path, "--seed", "8"]) == 0
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    used = stages["train-detector"]["config"]["detector"]
    assert used["init_seed"] == 15 and used["train"]["seed"] == 16
    assert stages["train-nids"]["config"]["background"] == {"size": 30, "seed": 13}
    assert stages["train-nids"]["summary"]["background_rows"] == 30
    assert len((out / "models/background.csv").read_text().splitlines()) == 1 + 30
    assert "background_ref" not in json.loads((out / "detector/detector.json").read_text())


def test_train_nids_counts_the_background_rows_a_small_split_leaves(tiny_run, tmp_path):
    """A train split with fewer rows than background.size gives a smaller
    background, with a warning; the summary records the measured size."""
    out, _ = _copy_of_run(tiny_run, tmp_path)
    cfg_path = _write_config(tmp_path, _tiny_config(out, background={"size": 500}))
    n_train = len((out / "data/train.csv").read_text().splitlines()) - 1
    assert n_train < 500
    with pytest.warns(UserWarning, match=f"background size reduced from 500 to {n_train}"):
        assert cli.main(["train-nids", "--config", cfg_path]) == 0
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert stages["train-nids"]["summary"]["background_rows"] == n_train
    assert stages["train-nids"]["config"]["background"]["size"] == 500
    assert len((out / "models/background.csv").read_text().splitlines()) == 1 + n_train
    # the draw does not touch the classifier
    assert _digest(out / "models/nids.json") == _digest(tiny_run / "models/nids.json")


def _drop(field):
    def damage(path):
        payload = json.loads(path.read_text())
        del payload[field]
        path.write_text(json.dumps(payload), encoding="utf-8")
    return damage


def _set_tanh(path):
    """Damage: the stored network (nids.json, or detector.json's
    autoencoder) says its hidden layers are tanh."""
    payload = json.loads(path.read_text())
    payload.get("autoencoder", payload)["spec"]["hidden_activation"] = "tanh"
    path.write_text(json.dumps(payload), encoding="utf-8")


def _set(field, value):
    return _edit(lambda payload: payload.update({field: value}))


def _edit(change):
    def damage(path):
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
    return damage


def _nan_weight(payload):
    payload["weights"][0][0][0] = float("nan")


def _string_weight(payload):
    payload["weights"][0][0][0] = "0.5"


def _set_spec(**fields):
    """Damage: set ``fields`` in the stored network's spec (nids.json, or
    detector.json's autoencoder)."""
    return _edit(lambda payload: payload.get("autoencoder", payload)["spec"].update(fields))


def _narrow_output(payload):
    """detector.json's autoencoder, its output layer one unit narrower."""
    ae = payload["autoencoder"]
    ae["spec"]["layer_sizes"][-1] -= 1
    ae["weights"][-1].pop()
    ae["biases"][-1].pop()


@pytest.mark.parametrize(
    "artifact, damage, argv, message",
    [
        ("models/nids.json", lambda p: p.write_text("{}"), ["attack", "--attack", "fgsm"],
         "models/nids.json: missing field 'spec'"),
        ("models/nids.json", _set_tanh, ["attack", "--attack", "fgsm"],
         "models/nids.json: unsupported hidden activation 'tanh'"),
        ("models/nids.json", _set("weights", 3), ["attack", "--attack", "fgsm"],
         "models/nids.json: field 'weights' must be a list, got 3"),
        ("models/nids.json", _set("biases", "x"), ["attack", "--attack", "fgsm"],
         "models/nids.json: field 'biases' must be a list, got 'x'"),
        ("models/nids.json", _edit(_nan_weight), ["attack", "--attack", "fgsm"],
         "models/nids.json: field 'weights[0][0][0]': nan is not a finite value"),
        ("models/nids.json", _set("spec", 3), ["attack", "--attack", "fgsm"],
         "models/nids.json: field 'spec' must be an object, got 3"),
        *(
            ("models/nids.json", _set_spec(layer_sizes=sizes), ["attack", "--attack", "fgsm"],
             f"models/nids.json: field 'layer_sizes[3]' must be an integer, got {sizes[3]!r}")
            for sizes in ([8, 64, 32, 1.5], [8, 64, 32, "1"])
        ),
        ("models/nids.json", _set_spec(seed="x"), ["attack", "--attack", "fgsm"],
         "models/nids.json: field 'seed' must be an integer, got 'x'"),
        ("data/scaler.json", _edit(lambda s: s.update(max=[lo - 1 for lo in s["min"]])),
         ["evaluate"], "data/scaler.json: scaler max must be >= min per feature"),
        ("data/scaler.json", _edit(lambda s: s.update(min=s["min"][:-1])), ["evaluate"],
         "data/scaler.json: scaler min/max must be 1-d arrays of equal length"),
        ("data/scaler.json", _edit(lambda s: s.update(min=s["min"][:-1], max=s["max"][:-1])),
         ["evaluate"], "data/scaler.json: scaler/schema dimension mismatch"),
        ("detector/detector.json", _set_tanh, ["detect", "--input", "data/test.csv"],
         "detector/detector.json: unsupported hidden activation 'tanh'"),
        ("detector/detector.json", _edit(lambda d: d["autoencoder"].update(weights=3)),
         ["detect", "--input", "data/test.csv"],
         "detector/detector.json: field 'weights' must be a list, got 3"),
        ("detector/detector.json", _drop("tau"), ["detect", "--input", "data/test.csv"],
         "detector/detector.json: missing field 'tau'"),
        ("detector/detector.json", _set_spec(output_activation="sigmoid"),
         ["detect", "--input", "data/test.csv"],
         "detector/detector.json: the autoencoder's output activation must be 'linear', "
         "got 'sigmoid'"),
        ("detector/detector.json", _edit(_narrow_output), ["detect", "--input", "data/test.csv"],
         "detector/detector.json: the autoencoder's output size 7 must equal its input size 8"),
        ("detector/detector.json", _set("tau", -1.0), ["detect", "--input", "data/test.csv"],
         "detector/detector.json: tau must be >= 0, got -1.0"),
        ("detector/detector.json", _set("calibration", 3), ["detect", "--input", "data/test.csv"],
         "detector/detector.json: field 'calibration' must be an object, got 3"),
        *(
            ("detector/detector.json", _drop("calibration"), argv,
             "detector/detector.json: missing field 'calibration'")
            for argv in (["detect", "--input", "data/test.csv"], ["evaluate"])
        ),
        *(
            ("detector/detector.json", _set("tau", tau), argv,
             f"detector/detector.json: field 'tau' must be a number, got {tau!r}")
            for tau in (None, "0.5")
            for argv in (["detect", "--input", "data/test.csv"], ["evaluate"])
        ),
        ("models/nids.json", _edit(_string_weight), ["detect", "--input", "data/test.csv"],
         "models/nids.json: field 'weights[0]' must hold only numbers, got strings"),
        ("models/nids.json", _edit(lambda n: n["biases"][-1].__setitem__(0, True)),
         ["detect", "--input", "data/test.csv"],
         "models/nids.json: field 'biases[2]' must hold only numbers, got booleans"),
        ("detector/detector.json", _edit(lambda d: _string_weight(d["autoencoder"])),
         ["detect", "--input", "data/test.csv"],
         "detector/detector.json: field 'weights[0]' must hold only numbers, got strings"),
        ("detector/detector.json", _edit(lambda d: d["calibration"].update(parameter="99")),
         ["detect", "--input", "data/test.csv"],
         "detector/detector.json: field 'parameter' must be a number, got '99'"),
        ("data/scaler.json", _edit(lambda s: s["min"].__setitem__(0, "0")), ["evaluate"],
         "data/scaler.json: field 'min' must hold only numbers, got strings"),
        ("data/scaler.json", _edit(lambda s: s.update(schema=list(range(len(s["schema"]))))),
         ["detect", "--input", "data/test.csv"],
         "data/scaler.json: field 'schema[0]' must be a string, got 0"),
        # a string as long as the schema would be read one feature per character
        ("data/scaler.json", _edit(lambda s: s.update(schema="abcdefgh"[:len(s["schema"])])),
         ["evaluate"], "data/scaler.json: field 'schema' must be a list, got 'abcdefgh'"),
        ("detector/detector.json", _set("autoencoder", []), ["detect", "--input", "data/test.csv"],
         "detector/detector.json: field 'autoencoder' must be an object, got array"),
        ("models/nids.json", lambda p: p.write_text("[]"), ["attack", "--attack", "fgsm"],
         "models/nids.json: not a JSON object, got array"),
        # numpy would promote the boolean among numbers to 1.0
        ("models/nids.json", _edit(lambda n: n["weights"][0][0].__setitem__(1, True)),
         ["detect", "--input", "data/test.csv"],
         "models/nids.json: field 'weights[0]' must hold only numbers, got booleans"),
        # json reads NaN and Infinity, and a NaN bound passes max >= min
        ("data/scaler.json", _edit(lambda s: s["min"].__setitem__(0, float("nan"))),
         ["evaluate"], "data/scaler.json: field 'min[0]': nan is not a finite value"),
        ("data/scaler.json", _edit(lambda s: s["max"].__setitem__(1, float("inf"))),
         ["evaluate"], "data/scaler.json: field 'max[1]': inf is not a finite value"),
        ("models/nids.json", _edit(lambda n: n["weights"].pop()), ["attack", "--attack", "fgsm"],
         "models/nids.json: field 'weights' must be a list of 3 matrices, got a list of 2"),
    ],
    ids=["nids-empty-object", "nids-tanh", "nids-weights-int", "nids-biases-str",
         "nids-nan-weight", "nids-spec-int", "nids-layer-size-fraction",
         "nids-layer-size-string", "nids-seed-string", "scaler-max-below-min", "scaler-min-short", "scaler-both-short",
         "detector-tanh", "detector-weights-int", "detector-without-tau",
         "detector-sigmoid-output", "detector-output-narrower", "detector-tau-negative",
         "detector-calibration-int",
         "detect-without-calibration", "evaluate-without-calibration", "detect-tau-null", "evaluate-tau-null", "detect-tau-string", "evaluate-tau-string",
         "nids-string-cell", "nids-boolean-bias", "detector-string-cell",
         "detector-calibration-parameter-string", "scaler-min-string", "scaler-integer-names",
         "scaler-schema-string", "detector-autoencoder-list", "nids-list",
         "nids-boolean-among-numbers", "scaler-min-nan", "scaler-max-infinity",
         "nids-weights-short"],
)
def test_json_artifact_lacking_a_field_is_a_stage_failure_naming_it(
    tiny_run, tmp_path, capsys, artifact, damage, argv, message
):
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    damage(out / artifact)
    argv = [str(out / a) if a.endswith(".csv") else a for a in argv]
    assert cli.main([*argv, "--config", cfg_path]) == cli.EXIT_STAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["evaluate"], ["train-detector"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "text, message",
    [('{"tool": "shapguard", "vers', "manifest.json: not valid JSON"),
     ("{}", "manifest.json: missing field 'stages'"),
     ('{"stages": []}', "manifest.json: field 'stages' must be an object, got array")],
    ids=["truncated", "empty-object", "stages-list"],
)
def test_damaged_manifest_is_a_stage_failure_naming_it(
    tiny_run, tmp_path, capsys, text, message, argv
):
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)
    (out / "manifest.json").write_text(text, encoding="utf-8")
    assert cli.main([*argv, "--config", cfg_path]) == cli.EXIT_STAGE
    err = capsys.readouterr().err
    assert f"shapguard: {argv[0]}: " in err and message in err


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


# ---------------------------------------------------------------------------
# run-all's two processes: after fingerprint-clean a forked child runs the
# attack stages and their fingerprints beside train-detector; ingest and
# fingerprint-clean each make their first table in a forked child


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_attack(kind, exc):
    """attacks.attack_batch, raising ``exc`` for attack ``kind``."""
    real = attacks.attack_batch

    def attack_batch(model, ds, config, **kwargs):
        if config.kind == kind:
            raise exc
        return real(model, ds, config, **kwargs)
    return attack_batch


def test_run_all_records_its_stages_in_the_serial_order(tmp_path):
    serial = [
        "ingest", "train-nids", "attack-fgsm", "attack-pgd", "attack-deepfool",
        "fingerprint-clean", "fingerprint-fgsm", "fingerprint-pgd", "fingerprint-deepfool",
        "train-detector", "evaluate",
    ]
    assert ["-".join(filter(None, (command, value)))
            for command, value, _ in pipeline.STAGES] == serial
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", _write_config(tmp_path, _tiny_config(out))]) == 0
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert list(stages) == serial
    _assert_no_child_left()


def test_run_all_writes_the_bytes_of_its_stages_run_one_command_at_a_time(tmp_path):
    """run-all's forks change no byte: each of its artifacts but the
    manifest (which records stage seconds) equals the one the stages write
    run one CLI command at a time, in the serial order."""
    config = _write_config(tmp_path, _tiny_config(tmp_path / "unused"))
    forked, serial = tmp_path / "forked", tmp_path / "serial"
    assert cli.main(["run-all", "--config", config, "--out", str(forked)]) == 0
    for argv in (["ingest"], ["train-nids"], ["attack", "--attack", "all"],
                 ["fingerprint", "--source", "all"], ["train-detector"], ["evaluate"]):
        assert cli.main([*argv, "--config", config, "--out", str(serial)]) == 0, argv
    _assert_no_child_left()

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*")
                      if p.is_file() and p.name != pipeline.MANIFEST_NAME)

    assert files(forked) == files(serial) != []
    for name in files(forked):
        assert (forked / name).read_bytes() == (serial / name).read_bytes(), name


@pytest.mark.parametrize("command, flag", [("attack", "--attack"), ("fingerprint", "--source")])
def test_all_runs_the_tables_stages_of_a_command_in_table_order(
    tmp_path, monkeypatch, command, flag
):
    calls = []
    monkeypatch.setattr(pipeline, f"cmd_{command}",
                        lambda ws, value: calls.append(value) or ([], {}, None))
    assert cli.main([command, flag, "all", "--out", str(tmp_path)]) == 0
    assert calls == [value for name, value, _ in pipeline.STAGES if name == command]


def test_run_all_calls_the_stage_bodies_set_on_the_pipeline_module(tmp_path, monkeypatch):
    """run-all looks each stage body up on the pipeline module when it runs
    it, so a wrapper set there (as the benchmark's tracer sets one) is the
    one called: in this process (train-detector) and in the forked child
    (the attacks), which reports through a marker file."""
    real_attack, real_train_detector = pipeline.cmd_attack, pipeline.cmd_train_detector
    marker, trained = tmp_path / "attacks.txt", []

    def cmd_attack(ws, kind):
        with open(marker, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {kind}\n")
        return real_attack(ws, kind)

    def cmd_train_detector(ws):
        trained.append(os.getpid())
        return real_train_detector(ws)
    monkeypatch.setattr(pipeline, "cmd_attack", cmd_attack)
    monkeypatch.setattr(pipeline, "cmd_train_detector", cmd_train_detector)
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", _write_config(tmp_path, _tiny_config(out))]) == 0
    assert trained == [os.getpid()]
    pids, kinds = zip(*(line.split() for line in marker.read_text().splitlines()))
    assert list(kinds) == list(pipeline.ATTACK_KINDS)
    assert len(set(pids)) == 1 and pids[0] != str(os.getpid())
    _assert_no_child_left()


def test_an_attack_failure_in_the_child_exits_2_naming_its_stage(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, _tiny_config(out))
    monkeypatch.setattr(attacks, "attack_batch", _fail_attack("pgd", ValueError("no rows")))
    assert cli.main(["run-all", "--config", cfg_path]) == cli.EXIT_STAGE
    assert capsys.readouterr().err == "shapguard: attack-pgd: no rows\n"
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert "attack-fgsm" in stages and "attack-pgd" not in stages and "evaluate" not in stages
    _assert_no_child_left()


def test_a_detector_failure_in_the_parent_exits_2_after_the_child_finishes(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, _tiny_config(out))

    def train_autoencoder(*args, **kwargs):
        raise ValueError("diverged")
    monkeypatch.setattr(detector, "train_autoencoder", train_autoencoder)
    assert cli.main(["run-all", "--config", cfg_path]) == cli.EXIT_STAGE
    assert capsys.readouterr().err == "shapguard: train-detector: diverged\n"
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert list(stages) == [
        "ingest", "train-nids", "attack-fgsm", "attack-pgd", "attack-deepfool",
        "fingerprint-clean", "fingerprint-fgsm", "fingerprint-pgd", "fingerprint-deepfool",
    ]
    _assert_no_child_left()


def test_when_both_branches_fail_the_attack_branch_is_reported(tmp_path, capsys, monkeypatch):
    cfg_path = _write_config(tmp_path, _tiny_config(tmp_path / "run"))
    monkeypatch.setattr(attacks, "attack_batch", _fail_attack("fgsm", ValueError("no rows")))

    def train_autoencoder(*args, **kwargs):
        raise ValueError("diverged")
    monkeypatch.setattr(detector, "train_autoencoder", train_autoencoder)
    assert cli.main(["run-all", "--config", cfg_path]) == cli.EXIT_STAGE
    assert capsys.readouterr().err == "shapguard: attack-fgsm: no rows\n"
    _assert_no_child_left()


def test_an_invariant_failure_in_the_child_exits_3(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, _tiny_config(out))

    def count_violations(self):
        return 1 if self.origin == "deepfool" else 0
    monkeypatch.setattr(attribution.Fingerprints, "count_violations", count_violations)
    assert cli.main(["run-all", "--config", cfg_path]) == cli.EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "shapguard: invariant check failed: fingerprint-deepfool: "
        "deepfool: 1 completeness violation(s)\n"
    )
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert stages["fingerprint-deepfool"]["summary"]["checks_failed"]
    _assert_no_child_left()


def test_a_bug_in_the_child_is_raised_with_the_child_traceback(tmp_path, monkeypatch):
    cfg = pipeline.resolve_config(_tiny_config(tmp_path / "run"))
    monkeypatch.setattr(attacks, "attack_batch", _fail_attack("fgsm", TypeError("a bug")))
    with pytest.raises(RuntimeError, match=r"(?s)Traceback.*cmd_attack.*TypeError: a bug"):
        pipeline.cmd_run_all(pipeline.Workspace(cfg["out_dir"], cfg))
    _assert_no_child_left()


def test_a_child_killed_by_a_signal_is_raised_and_reaped(tmp_path, monkeypatch):
    cfg = pipeline.resolve_config(_tiny_config(tmp_path / "run"))

    def attack_batch(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)
    monkeypatch.setattr(attacks, "attack_batch", attack_batch)
    with pytest.raises(ChildProcessError,
                       match=r"run_part\('attack'\) \(pid \d+\) was killed by SIGKILL"):
        pipeline.cmd_run_all(pipeline.Workspace(cfg["out_dir"], cfg))
    _assert_no_child_left()


def test_an_interrupt_in_the_parent_still_reaps_the_child(tmp_path, monkeypatch):
    cfg = pipeline.resolve_config(_tiny_config(tmp_path / "run"))

    def train_autoencoder(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(detector, "train_autoencoder", train_autoencoder)
    with pytest.raises(KeyboardInterrupt):
        pipeline.cmd_run_all(pipeline.Workspace(cfg["out_dir"], cfg))
    _assert_no_child_left()
    stages = json.loads((tmp_path / "run" / "manifest.json").read_text())["stages"]
    assert "fingerprint-deepfool" in stages  # the child ran its branch to the end


def test_clean_fingerprints_made_in_two_processes_are_those_of_one(tiny_run, tmp_path):
    """fingerprint-clean makes clean_train in a forked child beside the
    other two tables: each is the table this process makes from its rows."""
    model = neural.load(tiny_run / "models/nids.json")
    background = pipeline._load_background(tiny_run / pipeline.BACKGROUND)
    for split in ("train", "val", "test"):
        ds = data.load_dataset(tiny_run / f"data/{split}.csv")
        ids = np.flatnonzero(ds.y == 1)
        fps = attribution.fingerprint_batch(model, ds.X[ids], background, sample_ids=ids,
                                            origin="clean")
        path = attribution.save_fingerprints(fps, tmp_path / f"{split}.csv")
        assert path.read_bytes() == (tiny_run / f"fingerprints/clean_{split}.csv").read_bytes()


def test_a_failure_in_the_childs_table_is_the_one_a_serial_stage_reports(
    tiny_run, tmp_path, capsys
):
    """data/train.csv feeds the child's table and data/val.csv one of this
    process's: with both damaged, the child's failure is the one reported,
    as a serial loop over the tables meets it first."""
    out, cfg_path = _copy_of_run(tiny_run, tmp_path)

    def damage(rows):
        rows[1][0] = "nan"
        return rows
    for split in ("train", "val"):
        _rewrite_csv(out / f"data/{split}.csv", damage)
    feature = (out / "data/train.csv").read_text().split(",", 1)[0]
    assert cli.main(["fingerprint", "--config", cfg_path]) == cli.EXIT_STAGE
    assert capsys.readouterr().err == (
        f"shapguard: fingerprint-clean: {out / 'data/train.csv'}: row 2, "
        f"column {feature!r}: nan is not a finite value in [0, 1]\n"
    )
    _assert_no_child_left()


def test_a_fingerprint_clean_failure_stops_run_all_before_any_attack(
    tmp_path, capsys, monkeypatch
):
    """fingerprint-clean runs before the fork, so its failure in its own
    child is reported even where an attack would fail too, and no attack
    stage is recorded."""
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, _tiny_config(out))
    real, parent = attribution.fingerprint_batch, os.getpid()

    def fingerprint_batch(model, X, background, **kwargs):
        if kwargs["origin"] == "clean" and os.getpid() != parent:
            raise ValueError("no rows")
        return real(model, X, background, **kwargs)
    monkeypatch.setattr(attribution, "fingerprint_batch", fingerprint_batch)
    monkeypatch.setattr(attacks, "attack_batch", _fail_attack("fgsm", ValueError("bad")))
    assert cli.main(["run-all", "--config", cfg_path]) == cli.EXIT_STAGE
    assert capsys.readouterr().err == "shapguard: fingerprint-clean: no rows\n"
    assert list(json.loads((out / "manifest.json").read_text())["stages"]) == [
        "ingest", "train-nids"]
    _assert_no_child_left()


def test_an_os_error_in_ingests_child_is_an_ingest_failure_naming_its_file(tmp_path, capsys):
    """ingest writes data/train.csv in a forked child: the child's OSError
    reaches the stage runner as it is."""
    out = tmp_path / "run"
    (out / "data/train.csv").mkdir(parents=True)
    cfg_path = _write_config(tmp_path, _tiny_config(out))
    assert cli.main(["run-all", "--config", cfg_path]) == cli.EXIT_STAGE
    assert capsys.readouterr().err == (
        f"shapguard: ingest: {out / 'data/train.csv'}: Is a directory\n")
    assert not (out / "manifest.json").exists()
    _assert_no_child_left()


def test_two_processes_finishing_stages_lose_no_entry(tmp_path):
    ws = pipeline.Workspace(tmp_path / "run", {})
    names = {side: [f"{side}-{i}" for i in range(20)] for side in ("parent", "child")}
    pid = os.fork()
    if pid == 0:
        try:
            for name in names["child"]:
                ws.finish(name, time.perf_counter(), [], {})
        finally:
            os._exit(0)
    for name in names["parent"]:
        ws.finish(name, time.perf_counter(), [], {})
    deadline = time.monotonic() + 60
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the child did not finish its 20 stages within 60 s")
        time.sleep(0.01)
    stages = json.loads((tmp_path / "run" / "manifest.json").read_text())["stages"]
    assert sorted(stages) == sorted(names["parent"] + names["child"])
    for side in names:  # each process records its own stages in its order
        assert [name for name in stages if name.startswith(side)] == names[side]
    assert [p.name for p in (tmp_path / "run").iterdir()] == ["manifest.json"]


def test_a_stage_is_recorded_in_serial_order_and_a_rerun_keeps_its_place(tmp_path):
    ws = pipeline.Workspace(tmp_path, {})
    for name in ["train-detector", "detect", "fingerprint-fgsm", "ingest", "fingerprint-clean",
                 "train-detector", "evaluate"]:
        ws.finish(name, time.perf_counter(), [], {})
    stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    assert list(stages) == [
        "ingest", "fingerprint-clean", "fingerprint-fgsm", "train-detector", "evaluate", "detect",
    ]
