"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the PASS lines. The
desk-scale pipeline run (criterion 7) is a session fixture reused by the
calibration and determinism criteria.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from shapguard import attacks, attribution, data, detector, evaluation, neural, pipeline


def _report(name: str, detail: str = "") -> None:
    print(f"[ACCEPTANCE] {name}: PASS {detail}".rstrip())


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# shared desk-scale run (criterion 7; reused by 8 and 9)

DESK_OVERRIDES = {
    "data": {
        "synthetic": {"n_per_class": 6000, "n_features": 20},
        "split": {"train_frac": 2 / 3, "val_frac": 1 / 6, "test_frac": 1 / 6},
    },
}


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "run"
    cfg = pipeline.resolve_config(dict(DESK_OVERRIDES, out_dir=str(out)))
    ws = pipeline.Workspace(cfg["out_dir"], cfg)
    started = time.perf_counter()
    pipeline.cmd_run_all(ws)
    elapsed = time.perf_counter() - started
    return {"out": out, "cfg": cfg, "seconds": elapsed}


# ---------------------------------------------------------------------------
# criteria 1 and 2 drive detection_report with score vectors that reproduce
# the published counts: under tau 0.5, a clean score of 1.5 is a false
# positive and an adversarial score of 0.5 (equal to tau) a miss.

TAU = 0.5


def _published_scores(n_below: int, n_above: int) -> np.ndarray:
    return np.repeat([TAU, TAU + 1.0], [n_below, n_above])


FGSM_CLEAN = _published_scores(9955, 45)     # tn 9955, fp 45
FGSM_ADV = _published_scores(52, 9948)       # fn 52, tp 9948


# ---------------------------------------------------------------------------
# criterion 1: metric oracle vs published detection rows


def test_criterion_01_metric_oracle_matches_published_rows():
    tol = 5e-5 + 1e-9
    fgsm = evaluation.detection_report(FGSM_CLEAN, FGSM_ADV, TAU)
    assert (fgsm["tp"], fgsm["tn"], fgsm["fp"], fgsm["fn"]) == (9948, 9955, 45, 52)
    published = {
        "accuracy": 0.9952, "precision": 0.9955, "recall": 0.9948,
        "f1": 0.9951, "fpr": 0.0045, "fnr": 0.0052,
    }
    for name, value in published.items():
        assert abs(fgsm[name] - value) <= tol, name

    deepfool = evaluation.detection_report(
        _published_scores(9735, 265), _published_scores(3351, 6649), TAU
    )
    assert (deepfool["tp"], deepfool["tn"], deepfool["fp"], deepfool["fn"]) == (
        6649, 9735, 265, 3351
    )
    assert abs(deepfool["recall"] - 0.6649) <= tol
    assert abs(deepfool["fnr"] - 0.3351) <= tol
    _report("criterion 1 (metric oracle vs published rows)")


# ---------------------------------------------------------------------------
# criterion 2: robustness oracle vs published rows


def test_criterion_02_robustness_oracle_matches_published_rows():
    fgsm = evaluation.detection_report(FGSM_CLEAN, FGSM_ADV, TAU)
    assert fgsm["ca"] == 0.9955
    assert fgsm["aa"] == 0.9948
    assert fgsm["asr"] == 0.0052
    pgd = evaluation.detection_report(FGSM_CLEAN, _published_scores(0, 10000), TAU)
    assert pgd["aa"] == 1.0
    assert pgd["asr"] == 0.0
    _report("criterion 2 (robustness oracle, exact)")


# ---------------------------------------------------------------------------
# criterion 3: rank-shift oracle vs the published feature ranking

# mean |SHAP| per feature index 0..38 for the clean and FGSM conditions,
# as published.
CLEAN_SHAP_BY_INDEX = [
    0.1770, 0.0139, 0.0640, 0.0448, 0.1722, 0.1235, 0.0904, 0.0303, 0.2782,
    0.0009, 0.0015, 0.1274, 0.0607, 0.0362, 0.0251, 0.0143, 0.0689, 0.0136,
    0.0002, 0.0, 0.0014, 9.97e-05, 0.1125, 0.0726, 0.0007, 0.0032, 0.0319,
    0.0002, 0.0029, 0.0054, 0.0395, 0.0026, 0.1050, 0.0250, 0.0301, 0.0266,
    0.0011, 1.0, 0.0018,
]
FGSM_SHAP_BY_INDEX = [
    0.3948, 0.0155, 0.1697, 0.0387, 0.1795, 0.1644, 0.0803, 0.1755, 0.1667,
    0.0343, 0.0234, 0.1411, 0.1199, 0.0668, 0.0450, 0.0602, 0.1149, 0.0201,
    0.0188, 0.0, 0.0040, 0.0625, 0.3166, 0.1802, 0.0039, 0.0066, 0.0504,
    0.0500, 0.0274, 0.0458, 0.0755, 0.0083, 0.1019, 0.2916, 0.0282, 0.3996,
    0.4972, 1.0, 0.0335,
]


def test_criterion_03_rank_shift_oracle_matches_published_ranking():
    schema = data.FeatureSchema.cic_iot2023()
    clean_ranks = evaluation.rank_features(np.array(CLEAN_SHAP_BY_INDEX))
    fgsm_ranks = evaluation.rank_features(np.array(FGSM_SHAP_BY_INDEX))
    shifts = evaluation.rank_shift(clean_ranks, fgsm_ranks)
    expected = {
        # feature: (clean rank, fgsm rank, shift)
        "Number": (1, 1, 0),
        "ack_flag_number": (2, 11, 9),
        "IAT": (33, 2, 31),
        "Tot size": (20, 3, 17),
        "IRC": (38, 20, 18),
    }
    for name, (rc, rf, shift) in expected.items():
        j = schema.names.index(name)
        assert clean_ranks[j] == rc, name
        assert fgsm_ranks[j] == rf, name
        assert shifts[j] == shift, name
    _report("criterion 3 (rank/rank-shift oracle vs published table)")


# ---------------------------------------------------------------------------
# criterion 4: attribution completeness over random triples


def test_criterion_04_attribution_completeness_fuzz():
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(125):
        n_hidden = int(rng.integers(2, 5))  # 2..4 hidden layers
        sizes = (int(rng.integers(3, 8)),
                 *(int(rng.integers(3, 10)) for _ in range(n_hidden)), 1)
        model = neural.init(neural.MlpSpec(sizes, seed=int(rng.integers(1e9))))
        model.biases = [rng.normal(0, 0.3, b.shape) for b in model.biases]
        m = sizes[0]
        bg = attribution.BackgroundSet(B=rng.uniform(0, 1, (int(rng.integers(2, 8)), m)))
        fps = attribution.fingerprint_batch(model, rng.uniform(0, 1, (8, m)), bg)
        for phi, output in zip(fps.phi, fps.model_output):
            gap = abs(fps.phi0 + phi.sum() - output)
            assert gap <= 1e-5 * max(1.0, abs(output))
            checked += 1
    assert checked >= 1000

    # linear-model exactness: phi_j = w_j (x_j - mean(B)_j) within 1e-10
    for trial in range(50):
        m = int(rng.integers(2, 10))
        w = rng.normal(0, 2, m)
        spec = neural.MlpSpec((m, 1), output_activation="sigmoid", seed=0)
        model = neural.MlpModel(
            spec=spec, weights=[w[None, :]], biases=[rng.normal(0, 1, 1)]
        )
        x = rng.uniform(0, 1, m)
        B = rng.uniform(0, 1, (int(rng.integers(1, 30)), m))
        fps = attribution.fingerprint_batch(model, x[None, :], attribution.BackgroundSet(B=B))
        assert np.max(np.abs(fps.phi[0] - w * (x - B.mean(axis=0)))) <= 1e-10
    _report("criterion 4 (completeness fuzz)", f"[{checked} samples]")


# ---------------------------------------------------------------------------
# criterion 5: gradient correctness vs central finite differences


def _fd_input(model, x, h=1e-5):
    """Central differences of the logit g(x), the final pre-activation."""
    grad = np.empty_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        gp, gm = (neural.forward(model, v[None, :])[1].pre[-1][0, 0] for v in (xp, xm))
        grad[j] = (gp - gm) / (2 * h)
    return grad


def _fd_params(model, X, targets, loss, h=1e-5):
    grads = []
    for P in (*model.weights, *model.biases):
        g = np.empty_like(P)
        flat = P.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = neural.loss_value(neural.forward(model, X)[0], targets, loss)
            flat[k] = orig - h
            lm = neural.loss_value(neural.forward(model, X)[0], targets, loss)
            flat[k] = orig
            gflat[k] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def _kink_free_config(seed):
    """Random model/batch with pre-activations away from relu kinks, where
    central differences are a valid derivative oracle."""
    for attempt in range(200):
        rng = np.random.default_rng((seed, attempt))
        n_hidden = int(rng.integers(1, 4))
        sizes = (int(rng.integers(2, 6)),
                 *(int(rng.integers(2, 7)) for _ in range(n_hidden)), 1)
        output = "sigmoid" if rng.random() < 0.5 else "linear"
        model = neural.init(neural.MlpSpec(sizes, output_activation=output,
                                           seed=int(rng.integers(1e9))))
        model.biases = [rng.normal(0, 0.25, b.shape) for b in model.biases]
        X = rng.uniform(0.05, 0.95, (int(rng.integers(1, 5)), sizes[0]))
        _, trace = neural.forward(model, X)
        if min(np.min(np.abs(z)) for z in trace.pre[:-1]) > 1e-3:
            loss = "bce" if output == "sigmoid" else "mse"
            t = (rng.integers(0, 2, (X.shape[0], 1)).astype(float) if loss == "bce"
                 else rng.uniform(0, 1, (X.shape[0], 1)))
            return model, X, t, loss
    raise AssertionError("no kink-free configuration found")


def test_criterion_05_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(100):
        model, X, t, loss = _kink_free_config(seed)
        _, dWs, dbs = neural.grad_params(model, X, t, loss)
        for a, b in zip([*dWs, *dbs], _fd_params(model, X, t, loss)):
            denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
            worst = max(worst, np.max(np.abs(a - b)) / denom)
        gi = neural.grad_logit_input(model, X[:1])[0]
        fd = _fd_input(model, X[0])
        denom = max(np.max(np.abs(gi)), np.max(np.abs(fd)), 1e-8)
        worst = max(worst, np.max(np.abs(gi - fd)) / denom)
        assert worst <= 1e-4
    _report("criterion 5 (gradient finite-difference check)",
            f"[worst rel err {worst:.2e} over 100 configs]")


# ---------------------------------------------------------------------------
# criterion 6: attack invariants on a fuzz run


def test_criterion_06_attack_invariants_fuzz():
    rng = np.random.default_rng(99)
    model = neural.init(neural.MlpSpec((12, 24, 12, 1), seed=31))
    model.biases = [rng.normal(0, 0.2, b.shape) for b in model.biases]
    X = rng.uniform(0, 1, (10_000, 12))
    y = rng.integers(0, 2, 10_000)
    ds = data.FlowDataset(data.FeatureSchema.synthetic(12), X, y)

    eps = 0.1
    fgsm_batch = attacks.attack_batch(model, ds, attacks.AttackConfig(kind="fgsm", epsilon=eps))
    pgd_cfg = attacks.AttackConfig(kind="pgd", epsilon=eps, alpha=0.02, steps=10)
    pgd_batch = attacks.attack_batch(model, ds, pgd_cfg)
    for batch in (fgsm_batch, pgd_batch):
        assert batch.n == int(y.sum())
        assert np.array_equal(batch.sample_index, np.flatnonzero(y == 1))
        assert np.all(batch.linf <= eps + 1e-12)
        assert batch.X_adv.min() >= 0.0 and batch.X_adv.max() <= 1.0

    single_step = attacks.attack_batch(
        model, ds,
        attacks.AttackConfig(kind="pgd", epsilon=eps, alpha=eps, steps=1, random_start=False),
    )
    assert np.array_equal(single_step.X_adv, fgsm_batch.X_adv)

    # attack_batch starts from malicious rows only; pgd itself takes any
    # labels, so the benign-label step direction is fuzzed on every row.
    every_row = attacks.pgd(model, X, y, pgd_cfg)
    assert np.all(np.abs(every_row - X).max(axis=1) <= eps + 1e-12)
    assert every_row.min() >= 0.0 and every_row.max() <= 1.0

    # DeepFool on linear models: one iteration to the hyperplane. Cases whose
    # hyperplane projection leaves the box are redrawn (the clamp would then
    # legitimately move the point off the plane).
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 12))
        w = rng.normal(0, 2, m)
        b = rng.normal(0, 0.5, 1)
        x = rng.uniform(0, 1, m)
        g = float(w @ x + b[0])
        landing = x - (g / float(w @ w)) * w
        if landing.min() < 0.0 or landing.max() > 1.0:
            continue
        spec = neural.MlpSpec((m, 1), output_activation="sigmoid", seed=0)
        lin = neural.MlpModel(spec=spec, weights=[w[None, :]], biases=[b])
        X = x[None, :]
        x_adv, iters, _ = attacks.deepfool(
            lin, X, neural.predict(lin, X)[1],
            attacks.AttackConfig(kind="deepfool", max_iter=50, overshoot=0.0),
        )
        assert iters <= 1
        assert abs(neural.forward(lin, x_adv)[1].pre[-1][0, 0]) <= 1e-9
        checked += 1
    _report("criterion 6 (attack invariants fuzz)",
            "[10,000 samples; pgd(1)=fgsm bitwise; deepfool linear 1-step]")


# ---------------------------------------------------------------------------
# criterion 7: desk-scale end-to-end


def test_criterion_07_desk_scale_end_to_end(desk_run):
    out = desk_run["out"]
    assert desk_run["seconds"] <= 300.0

    # split sizes: 4000/1000/1000 per class
    for name, rows in (("train", 8000), ("val", 2000), ("test", 2000)):
        ds = data.load_dataset(out / f"data/{name}.csv")
        assert ds.n == rows
        assert int(ds.y.sum()) == rows // 2

    stages = json.loads((out / "manifest.json").read_text())["stages"]
    test_accuracy = stages["train-nids"]["summary"]["test_accuracy"]
    assert test_accuracy >= 0.95

    for kind in ("fgsm", "pgd"):
        assert stages[f"attack-{kind}"]["summary"]["success_rate"] >= 0.80, kind

    lines = []
    for kind in ("fgsm", "pgd", "deepfool"):
        report = json.loads((out / f"reports/metrics_{kind}.json").read_text())
        assert report["roc_auc"] >= 0.95, kind
        assert report["accuracy"] >= 0.90, kind
        assert report["fpr"] <= 0.03, kind
        lines.append(f"{kind}: auc {report['roc_auc']:.4f} acc {report['accuracy']:.4f}")
    _report(
        "criterion 7 (desk-scale end-to-end)",
        f"[{desk_run['seconds']:.1f}s; acc {test_accuracy:.4f}; "
        + "; ".join(lines) + "]",
    )


# ---------------------------------------------------------------------------
# criterion 8: calibration semantics


def test_criterion_08_calibration_semantics(desk_run):
    out = desk_run["out"]
    det = detector.load_detector(out / "detector/detector.json")
    Z = attribution.load_fingerprints(out / "fingerprints/clean_val.csv").phi
    errors = detector.reconstruction_errors(det.autoencoder, Z)
    frac = float(np.mean(errors <= det.tau))
    assert abs(frac - 0.99) <= 1.0 / errors.size

    constant = np.full(50, 0.75)
    tau = detector.calibrate_threshold(constant, detector.CalibrationMethod("sigma", 3.0))
    assert tau == float(constant.mean())
    _report("criterion 8 (calibration semantics)",
            f"[coverage {frac:.4f} on n={errors.size}]")


def test_detect_scores_equal_evaluate_scores(desk_run):
    """detect and evaluate score one fingerprint through the same batch path,
    so a malicious test row gets bitwise the same reconstruction error from
    both."""
    out = desk_run["out"]
    ws = pipeline.Workspace(desk_run["cfg"]["out_dir"], desk_run["cfg"])
    pipeline.cmd_detect(ws, out / "data/test.csv")
    rows = json.loads((out / "reports/detections.json").read_text())["rows"]
    det = detector.load_detector(out / "detector/detector.json")
    clean = attribution.load_fingerprints(out / "fingerprints/clean_test.csv")
    expected = detector.reconstruction_errors(det.autoencoder, clean.phi)
    got = np.array([rows[i]["score"] for i in clean.sample_ids])
    assert clean.n == 1000
    assert np.count_nonzero(got != expected) == 0


# ---------------------------------------------------------------------------
# criterion 9: byte-identical rerun


def test_criterion_09_rerun_is_byte_identical(desk_run):
    out = desk_run["out"]
    tracked = [
        "models/nids.json",
        "detector/detector.json",
        "fingerprints/clean_train.csv",
        "fingerprints/clean_val.csv",
        "fingerprints/clean_test.csv",
        "fingerprints/fgsm.csv",
        "fingerprints/pgd.csv",
        "fingerprints/deepfool.csv",
        "attacks/fgsm.csv",
        "attacks/pgd.csv",
        "attacks/deepfool.csv",
        "reports/metrics_fgsm.json",
        "reports/metrics_pgd.json",
        "reports/metrics_deepfool.json",
        "reports/rank_table.json",
    ]
    before = {rel: _digest(out / rel) for rel in tracked}
    ws = pipeline.Workspace(desk_run["cfg"]["out_dir"], desk_run["cfg"])
    pipeline.cmd_run_all(ws)  # identical resolved config, same workspace
    after = {rel: _digest(out / rel) for rel in tracked}
    assert before == after
    _report("criterion 9 (byte-identical rerun)", f"[{len(tracked)} artifacts]")


# ---------------------------------------------------------------------------
# criterion 10: average-precision oracle


def _brute_force_ap(scores, truths):
    thresholds = sorted(set(scores), reverse=True)
    ap, r_prev = 0.0, 0.0
    positives = truths.sum()
    for t in thresholds:
        pred = scores >= t
        tp = int(np.sum(pred & (truths == 1)))
        fp = int(np.sum(pred & (truths == 0)))
        recall = tp / positives
        precision = tp / (tp + fp)
        ap += (recall - r_prev) * precision
        r_prev = recall
    return ap


def test_criterion_10_average_precision_oracle():
    rng = np.random.default_rng(1234)
    cases = 0
    while cases < 10_000:
        n = int(rng.integers(2, 13))
        scores = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 4)))
        truths = rng.integers(0, 2, n)
        if truths.sum() in (0, n):
            continue
        got = evaluation.average_precision(scores, truths)
        want = _brute_force_ap(scores, truths)
        assert got == pytest.approx(want, abs=1e-12)
        cases += 1
    _report("criterion 10 (average-precision oracle)", f"[{cases} fuzz cases]")
