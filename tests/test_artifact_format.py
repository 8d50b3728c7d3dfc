"""Exact bytes of every artifact codec on one tiny fixed input each.

Round-trip tests compare values and the rerun check compares two runs of
the same code; neither notices a codec that changes the bytes it writes.
These tests pin the bytes. The floats cover the repr corner cases: a
subnormal, 1e16 (exponent form), 1e-05, -0.0 and a 17-digit mantissa.
"""

import ast
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from shapguard import attacks, attribution, data, detector, neural, pipeline

SCHEMA = data.FeatureSchema(("a", "b c"))


def test_dataset_bytes(tmp_path):
    ds = data.FlowDataset(SCHEMA, X=[[0.1, 1e-05], [1.0, -0.0], [5e-324, 1e16]], y=[0, 1, 1])
    path = tmp_path / "ds.csv"
    data.save_dataset(ds, path)
    assert path.read_bytes() == (
        b"a,b c,label\r\n0.1,1e-05,0\r\n1.0,-0.0,1\r\n5e-324,1e+16,1\r\n"
    )
    # a split lies in the [0, 1] box: the 1e16 cell is named, then the
    # in-box rows round-trip
    with pytest.raises(ValueError, match=r"ds.csv: row 4, column 'b c': 1e\+16 is not a finite "
                                         r"value in \[0, 1\]"):
        data.load_dataset(path)
    ds = data.FlowDataset(SCHEMA, X=ds.X[:2], y=ds.y[:2])
    data.save_dataset(ds, path)
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
        sample_index=np.array([4, 9]),
    )
    path = tmp_path / "adv.csv"
    attacks.save_adv_batch(batch, SCHEMA.names, path)
    assert path.read_bytes() == (
        b"sample_index,success,linf,l2,adv_a,adv_b c\r\n"
        b"4,1,0.1,0.1414213562373095,0.1,0.4\r\n"
        b"9,0,0.1,0.14142135623730953,1.0,0.9\r\n"
    )
    # the attack-<kind> manifest entry records the config; no sidecar
    assert list(tmp_path.iterdir()) == [path]
    back = attacks.load_adv_batch(path)
    assert back.sample_index.tolist() == [4, 9]
    assert back.success.tolist() == [True, False]
    assert np.array_equal(back.l2, batch.l2)
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
    calibration = {
        "method": "percentile", "parameter": 99.0, "n_samples": 10,
        "error_mean": 0.1, "error_std": 0.2, "error_min": 0.0, "error_max": 0.9,
    }
    det = detector.DetectorModel(autoencoder=ae, tau=0.75, calibration=calibration)
    path = tmp_path / "det.json"
    detector.save_detector(det, path)
    assert path.read_bytes() == (
        b'{"autoencoder": {"spec": {"layer_sizes": [2, 1, 2], "hidden_activation": "relu", '
        b'"output_activation": "linear", "seed": 5}, "weights": [[[1.0, -2.0]], [[0.5], '
        b'[0.25]]], "biases": [[0.0], [0.1, 0.2]]}, "tau": 0.75, "calibration": '
        b'{"method": "percentile", "parameter": 99.0, "n_samples": 10, "error_mean": 0.1, '
        b'"error_std": 0.2, "error_min": 0.0, "error_max": 0.9}}\n'
    )


# The detector of test_detector_bytes and four fingerprint tables whose
# reconstruction errors (0.05 .. 4.1 against tau 0.75) give every confusion
# cell, a score tie between clean and deepfool rows and a rank swap.
EVAL_DETECTOR = (
    b'{"autoencoder": {"spec": {"layer_sizes": [2, 1, 2], "hidden_activation": "relu", '
    b'"output_activation": "linear", "seed": 5}, "weights": [[[1.0, -2.0]], [[0.5], '
    b'[0.25]]], "biases": [[0.0], [0.1, 0.2]]}, "tau": 0.75, "calibration": '
    b'{"method": "percentile", "parameter": 99.0, "n_samples": 10, "error_mean": 0.1, '
    b'"error_std": 0.2, "error_min": 0.0, "error_max": 0.9}}\n'
)
EVAL_SCALER = b'{"schema": ["a", "b c"], "min": [0.0, 0.0], "max": [1.0, 1.0]}\n'
EVAL_FINGERPRINTS = {
    "clean_test": b"0,0.125,0.0,0.0,0.125,clean\r\n1,0.125,1.0,0.0,1.125,clean\r\n"
                  b"2,0.125,0.5,0.5,1.125,clean\r\n3,0.125,2.0,0.0,2.125,clean\r\n",
    "fgsm": b"0,0.125,0.0,1.0,1.125,fgsm\r\n1,0.125,-1.0,0.0,-0.875,fgsm\r\n"
            b"2,0.125,0.0,-1.0,-0.875,fgsm\r\n",
    "pgd": b"0,0.125,-1.0,0.0,-0.875,pgd\r\n1,0.125,0.0,-1.0,-0.875,pgd\r\n"
           b"3,0.125,2.0,0.0,2.125,pgd\r\n",
    "deepfool": b"0,0.125,0.0,1.0,1.125,deepfool\r\n2,0.125,0.0,0.0,0.125,deepfool\r\n",
}


def test_evaluate_report_bytes(tmp_path):
    for sub in ("detector", "data", "fingerprints"):
        (tmp_path / sub).mkdir()
    (tmp_path / "detector/detector.json").write_bytes(EVAL_DETECTOR)
    (tmp_path / "data/scaler.json").write_bytes(EVAL_SCALER)
    for name, body in EVAL_FINGERPRINTS.items():
        (tmp_path / f"fingerprints/{name}.csv").write_bytes(
            b"sample_id,phi0,phi_1,phi_2,model_output,origin\r\n" + body
        )
    pipeline.run_command(pipeline.Workspace(tmp_path, {}), "evaluate")
    reports = tmp_path / "reports"
    assert (reports / "metrics_fgsm.json").read_bytes().startswith(
        b'{\n  "attack": "fgsm",\n  "accuracy": 0.7142857142857143,\n'
        b'  "precision": 0.6666666666666666,\n  "recall": 0.6666666666666666,\n'
        b'  "f1": 0.6666666666666666,\n  "roc_auc": 0.8333333333333333,\n'
        b'  "average_precision": 0.8055555555555556,\n  "specificity": 0.75,\n'
        b'  "npv": 0.75,\n  "fpr": 0.25,\n  "fnr": 0.3333333333333333,\n'
        b'  "tp": 2,\n  "tn": 3,\n  "fp": 1,\n  "fn": 1,\n'
        b'  "ca": 0.75,\n  "aa": 0.6666666666666666,\n  "asr": 0.3333333333333333,\n'
        b'  "bin_edges": [\n'
    )
    assert (reports / "metrics_pgd.json").read_bytes().startswith(
        b'{\n  "attack": "pgd",\n  "accuracy": 0.8571428571428571,\n  "precision": 0.75,\n'
        b'  "recall": 1.0,\n  "f1": 0.8571428571428571,\n  "roc_auc": 0.875,\n'
        b'  "average_precision": 0.8055555555555556,\n  "specificity": 0.75,\n'
        b'  "npv": 1.0,\n  "fpr": 0.25,\n  "fnr": 0.0,\n'
        b'  "tp": 3,\n  "tn": 3,\n  "fp": 1,\n  "fn": 0,\n'
        b'  "ca": 0.75,\n  "aa": 1.0,\n  "asr": 0.0,\n'
        b'  "bin_edges": [\n'
    )
    assert (reports / "metrics_deepfool.json").read_bytes().startswith(
        b'{\n  "attack": "deepfool",\n  "accuracy": 0.5,\n  "precision": 0.0,\n'
        b'  "recall": 0.0,\n  "f1": 0.0,\n  "roc_auc": 0.4375,\n'
        b'  "average_precision": 0.41666666666666663,\n  "specificity": 0.75,\n'
        b'  "npv": 0.6,\n  "fpr": 0.25,\n  "fnr": 1.0,\n'
        b'  "tp": 0,\n  "tn": 3,\n  "fp": 1,\n  "fn": 2,\n'
        b'  "ca": 0.75,\n  "aa": 0.0,\n  "asr": 1.0,\n'
        b'  "bin_edges": [\n'
    )
    row_a = (
        b'    {\n      "feature": "a",\n      "index": 0,\n'
        b'      "shap_clean": 0.875,\n      "shap_fgsm": 0.3333333333333333,\n'
        b'      "shap_pgd": 1.0,\n      "shap_deepfool": 0.0,\n'
        b'      "shap_norm_clean": 1.0,\n      "shap_norm_fgsm": 0.5,\n'
        b'      "shap_norm_pgd": 1.0,\n      "shap_norm_deepfool": 0.0,\n'
        b'      "rank_clean": 1,\n      "rank_fgsm": 2,\n      "rank_pgd": 1,\n'
        b'      "rank_deepfool": 2,\n'
        b'      "shift_fgsm": 1,\n      "shift_pgd": 0,\n      "shift_deepfool": 1\n    }'
    )
    row_bc = (
        b'    {\n      "feature": "b c",\n      "index": 1,\n'
        b'      "shap_clean": 0.125,\n      "shap_fgsm": 0.6666666666666666,\n'
        b'      "shap_pgd": 0.3333333333333333,\n      "shap_deepfool": 0.5,\n'
        b'      "shap_norm_clean": 0.14285714285714285,\n      "shap_norm_fgsm": 1.0,\n'
        b'      "shap_norm_pgd": 0.3333333333333333,\n      "shap_norm_deepfool": 1.0,\n'
        b'      "rank_clean": 2,\n      "rank_fgsm": 1,\n      "rank_pgd": 2,\n'
        b'      "rank_deepfool": 1,\n'
        b'      "shift_fgsm": 1,\n      "shift_pgd": 0,\n      "shift_deepfool": 1\n    }'
    )
    assert (reports / "rank_table.json").read_bytes() == (
        b'{\n  "rows": [\n' + row_a + b",\n" + row_bc + b"\n  ]\n}\n"
    )
    # After asr, 51 bin edges and 2 x 50 counts, one per line: each file is
    # pinned by digest, with the group summaries spelled out.
    digests = {
        "fgsm": "727c500e5fe636295c62f1d59619f83c8100e5bedb6b5e1fc063d52487ec6d35",
        "pgd": "dc148365b0d3436e67e293f024974e13dc714172f1a0ed2ae25a39f5379edef0",
        "deepfool": "daa76c4812b6e326343d7e43260f8c11bc250fb7498174b949ebc89d988beed5",
    }
    for kind, digest in digests.items():
        body = (reports / f"metrics_{kind}.json").read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest, kind
    assert (reports / "metrics_fgsm.json").read_bytes().endswith(
        b'  "clean": {\n    "mean": 0.490625,\n    "median": 0.30625\n  },\n'
        b'  "adv": {\n    "mean": 2.0,\n    "median": 1.2500000000000002\n  }\n}\n'
    )
    stage = json.loads((tmp_path / "manifest.json").read_text())["stages"]["evaluate"]
    assert stage["summary"] == {
        "tau": 0.75, "clean_rows": 4,
        "fgsm": {"accuracy": 0.7142857142857143, "roc_auc": 0.8333333333333333,
                 "aa": 0.6666666666666666},
        "pgd": {"accuracy": 0.8571428571428571, "roc_auc": 0.875, "aa": 1.0},
        "deepfool": {"accuracy": 0.5, "roc_auc": 0.4375, "aa": 0.0},
    }
    assert sorted(stage["artifacts"]) == sorted(
        f"reports/{p.name}" for p in reports.iterdir()
    )


# Calls that read or write a file's format; outside the codec each would be
# a second reader or writer of some artifact.
FORMAT_CALLS = {
    "csv.reader", "csv.writer", "csv.DictReader", "csv.DictWriter",
    "np.loadtxt", "np.genfromtxt", "np.savetxt",
    "json.load", "json.loads", "json.dump", "json.dumps",
}


def test_files_are_parsed_and_written_by_the_codec_alone():
    src = Path(data.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    call = f"{func.value.id}.{func.attr}"
                    if call in FORMAT_CALLS:
                        found.add((f"{path.stem}.{owner}", call))
    assert found == {
        ("data.write_table", "csv.writer"),
        ("data.read_table", "csv.reader"),
        ("data.read_table", "np.loadtxt"),
        ("data.write_json", "json.dumps"),
        ("data.read_json", "json.load"),
    }


@pytest.mark.parametrize(
    "load, payload, message",
    [(neural.load, {}, "missing field 'spec'"),
     (neural.load, {"spec": 3}, "field 'spec' must be an object, got 3"),
     (detector.load_detector, {}, "missing field 'tau'"),
     (detector.load_detector, {"tau": 1.0, "calibration": []},
      "field 'calibration' must be an object, got array"),
     (data.load_scaler, {}, "missing field 'schema'"),
     (data.load_scaler, {"schema": "ab", "min": [0, 0], "max": [1, 1]},
      "field 'schema' must be a list, got 'ab'")],
    ids=["nids-empty", "nids-spec-int", "detector-empty", "detector-calibration-list",
         "scaler-empty", "scaler-schema-string"],
)
def test_a_json_loader_called_alone_names_the_file_and_the_field(tmp_path, load, payload, message):
    """The library's own JSON loaders keep the README's promise without a
    Workspace: every failure is a ValueError naming the file."""
    path = data.write_json(tmp_path / "artifact.json", payload)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "load, header",
    [(data.read_table, "a,b"),
     (data.load_dataset, "f0,label"),
     (attacks.load_adv_batch, "sample_index,success,linf,l2,adv_f0"),
     (attribution.load_fingerprints, "sample_id,phi0,phi_1,model_output,origin"),
     (lambda path: pipeline._load_background(path, ("f0",)), "f0"),
     (lambda path: data.load_csv(path, data.FeatureSchema(("f0",))), "f0,label")],
    ids=["read_table", "load_dataset", "load_adv_batch", "load_fingerprints",
         "load_background", "load_csv"],
)
def test_every_table_loader_rejects_a_header_only_table_in_one_wording(tmp_path, load, header):
    """read_table decides that a table holding only its header is empty,
    for every loader alike."""
    path = tmp_path / "table.csv"
    path.write_text(header + "\r\n\r\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: no data rows"


def test_table_shape_and_json_type_names_are_decided_in_data_alone():
    """Only the codec words an empty table, the modules that read JSON
    artifacts name a mistyped field by its JSON type, never its Python one,
    and no module but data.py tests a value's type itself (by comparing
    type(...) with is, is not, in or not in): the others call json_value."""
    src = Path(data.__file__).parent
    worded = [path.name for path in sorted(src.glob("*.py"))
              if path.name != "data.py" and "no data rows" in path.read_text(encoding="utf-8")]
    python_names = [
        f"{name}:{node.lineno}" for name in ("data.py", "neural.py", "detector.py")
        for node in ast.walk(ast.parse((src / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "__name__"
        and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "type"
    ]
    type_tests = [
        f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py")) if path.name != "data.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn)) for op in node.ops)
        and any(isinstance(side, ast.Call) and getattr(side.func, "id", None) == "type"
                for side in (node.left, *node.comparators))
    ]
    assert (worded, python_names, type_tests) == ([], [], [])


def _with(shape, index, value, fill=0.5):
    array = np.full(shape, fill)
    array[index] = value
    return array


def _model(weight=0.0, bias=0.0):
    """A (2, 3, 1) net with value at weights[1][0][2] or biases[0][1]."""
    return neural.MlpModel(neural.MlpSpec((2, 3, 1)),
                           [np.zeros((3, 2)), _with((1, 3), (0, 2), weight, 0.0)],
                           [_with(3, 1, bias, 0.0), np.zeros(1)])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "check, value, where, rule",
    [*((lambda v: attribution.BackgroundSet(B=_with((3, 2), (2, 1), v)), value,
        "background row 2, column 1", "box") for value in (NAN, INF, 1.5)),
     *((lambda v: data.ScalerParams(min=_with(3, 1, v, 0.0), max=np.ones(3)), value,
        "field 'min[1]'", "finite") for value in (NAN, -INF)),
     *((lambda v: data.ScalerParams(min=np.zeros(3), max=_with(3, 2, v, 1.0)), value,
        "field 'max[2]'", "finite") for value in (NAN, INF)),
     *((lambda v: _model(weight=v), value, "field 'weights[1][0][2]'", "finite")
       for value in (NAN, INF)),
     *((lambda v: _model(bias=v), value, "field 'biases[0][1]'", "finite")
       for value in (NAN, -INF)),
     *((lambda v: data.FlowDataset(SCHEMA, np.zeros((3, 2)), [0.0, 1.0, v]), value,
        "row 2, column 'label'", "binary") for value in (0.7, NAN)),
     (lambda v: detector.calibrate_threshold(_with(12, 5, v, 1.0),
                                             detector.CalibrationMethod("percentile", 99.0)),
      NAN, "calibration error 5", "finite")],
    ids=["background-nan", "background-inf", "background-outside-box", "scaler-min-nan",
         "scaler-min-minus-inf", "scaler-max-nan", "scaler-max-inf", "model-weight-nan",
         "model-weight-inf", "model-bias-nan", "model-bias-minus-inf", "label-0.7",
         "label-nan", "calibration-error-nan"],
)
def test_every_matrix_taken_in_names_its_first_bad_cell_in_one_shape(check, value, where, rule):
    """The background, the scaler, the stored models, the labels and the
    calibration errors are checked by data.CELL_RULES, worded as read_table
    words a bad table cell."""
    with pytest.raises(ValueError) as info:
        check(value)
    assert str(info.value) == f"{where}: {value!r} is not {data.CELL_RULES[rule][1]}"


def test_cells_are_tested_by_data_cell_rules_alone():
    """No module tests finiteness or the [0, 1] box itself: np.isfinite is
    called and data.BOX_TOL read only inside data.CELL_RULES; every other
    check goes through data.check_cells. A scalar's math.isfinite is no
    matrix check."""
    src = Path(data.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rules = {id(node) for top in tree.body if isinstance(top, ast.Assign)
                 and any(getattr(target, "id", None) == "CELL_RULES" for target in top.targets)
                 for node in ast.walk(top.value)}
        lines = sorted({
            node.lineno for node in ast.walk(tree) if id(node) not in rules and (
                (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                 and getattr(node.value, "id", None) == "np")
                or (isinstance(node, ast.Attribute) and node.attr == "BOX_TOL")
                or (isinstance(node, ast.Name) and node.id == "BOX_TOL"
                    and isinstance(node.ctx, ast.Load)))
        })
        if lines:
            found.append(f"{path.name}:{','.join(map(str, lines))}")
    assert not found, f"cell checks outside data.CELL_RULES: {found}"
