"""End-to-end pipeline stages with persisted artifacts between them.

Each stage reads its inputs from disk and writes plain CSV/JSON artifacts,
so any downstream stage can be deleted and re-run in isolation with
identical results. A cumulative manifest records every produced file with
its sha256 digest plus stage timings.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__, attacks, attribution, data, detector, evaluation, neural

logger = logging.getLogger(__name__)

ATTACK_KINDS = attacks.ATTACK_KINDS
CLEAN_SOURCES = ("clean_train", "clean_val", "clean_test")
MANIFEST_NAME = "manifest.json"
METRIC_COLUMNS = (
    "accuracy", "precision", "recall", "f1", "roc_auc", "average_precision",
    "specificity", "npv", "fpr", "fnr", "tp", "tn", "fp", "fn",
    "ca", "aa", "asr",
)


class ConfigError(ValueError):
    """The pipeline configuration is invalid."""


class StageError(RuntimeError):
    """A pipeline stage failed; the message carries the stage name."""


class InvariantError(RuntimeError):
    """A built-in consistency check failed during a stage."""


DEFAULT_CONFIG: dict = {
    "seed": 7,
    "out_dir": "runs/latest",
    "data": {
        "source": "synthetic",
        "csv": {
            "path": None,
            "label_column": "label",
            "benign_labels": ["BenignTraffic"],
            "schema": "cic-iot2023",
        },
        "synthetic": {
            "n_per_class": 1000,
            "n_features": 20,
            "class_separation": 0.3,
            "noise": 0.1,
            "seed": None,
        },
        "split": {
            "train_frac": 0.6,
            "val_frac": 0.2,
            "test_frac": 0.2,
            "seed": None,
        },
    },
    "classifier": {
        "hidden_sizes": [64, 32],
        "init_seed": None,
        "train": {
            "epochs": 50,
            "batch_size": 256,
            "learning_rate": 1e-3,
            "beta1": 0.9,
            "beta2": 0.999,
            "eps_opt": 1e-8,
            "seed": None,
            "shuffle": True,
        },
    },
    "attacks": {
        "filter": "malicious_only",
        "fgsm": {"epsilon": 0.1},
        "pgd": {
            "epsilon": 0.1,
            "alpha": 0.01,
            "steps": 40,
            "random_start": False,
            "seed": None,
        },
        "deepfool": {"max_iter": 50, "overshoot": 0.02},
    },
    "background": {"size": 100, "seed": None},
    "detector": {
        "hidden_sizes": [32, 16],
        "latent": 8,
        "init_seed": None,
        "class_filter": "malicious",
        "train": {
            "epochs": 100,
            "batch_size": 256,
            "learning_rate": 1e-3,
            "beta1": 0.9,
            "beta2": 0.999,
            "eps_opt": 1e-8,
            "seed": None,
            "shuffle": True,
        },
        "calibration": {"method": "percentile", "parameter": 99.0},
    },
    "evaluation": {"clean_panel": "malicious", "histogram_bins": 50},
}

# Offsets added to the master seed for every seed left unset in the config,
# so a single --seed flag re-derives the whole run deterministically.
_SEED_OFFSETS = {
    ("data", "synthetic", "seed"): 1,
    ("data", "split", "seed"): 2,
    ("classifier", "init_seed"): 3,
    ("classifier", "train", "seed"): 4,
    ("attacks", "pgd", "seed"): 5,
    ("background", "seed"): 6,
    ("detector", "init_seed"): 7,
    ("detector", "train", "seed"): 8,
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be a mapping")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def resolve_config(
    user: dict | None = None,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> dict:
    """Merge user settings over defaults and materialize every seed.

    The resolved snapshot is fully explicit: later stages never fall back
    to implicit defaults, so a run is reproducible from its snapshot alone.
    """
    cfg = _merge(DEFAULT_CONFIG, user or {})
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    if out_override is not None:
        cfg["out_dir"] = str(out_override)
    master = int(cfg["seed"])
    for keys, offset in _SEED_OFFSETS.items():
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        if node[keys[-1]] is None:
            node[keys[-1]] = master + offset
    if cfg["data"]["source"] not in ("synthetic", "csv"):
        raise ConfigError(f"unknown data source {cfg['data']['source']!r}")
    if cfg["data"]["source"] == "csv" and not cfg["data"]["csv"]["path"]:
        raise ConfigError("data.csv.path is required for the csv source")
    if cfg["attacks"]["filter"] not in attacks.FILTERS:
        raise ConfigError(f"unknown attacks.filter {cfg['attacks']['filter']!r}")
    if cfg["detector"]["class_filter"] not in ("malicious", "benign", "all"):
        raise ConfigError("detector.class_filter must be malicious|benign|all")
    if cfg["evaluation"]["clean_panel"] not in ("malicious", "benign", "all"):
        raise ConfigError("evaluation.clean_panel must be malicious|benign|all")
    return cfg


# ---------------------------------------------------------------------------
# artifact bookkeeping


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class StageResult:
    name: str
    seconds: float
    artifacts: dict[str, str] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


class Workspace:
    """Output directory plus the cumulative run manifest."""

    def __init__(self, out_dir: str | Path, cfg: dict):
        self.root = Path(out_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg

    def path(self, rel: str) -> Path:
        return self.root / rel

    def write_json(self, rel: str, payload: dict) -> Path:
        target = self.path(rel)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return target

    def write_csv(self, rel: str, header: list[str], rows: list[list]) -> Path:
        target = self.path(rel)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return target

    def require(self, rel: str, stage: str) -> Path:
        target = self.path(rel)
        if not target.exists():
            raise StageError(
                f"{stage}: missing artifact {rel!r}; run the producing stage first"
            )
        return target

    def write_resolved_config(self) -> Path:
        """Persist the resolved config snapshot and record it in the manifest."""
        target = self.write_json("resolved_config.json", self.cfg)
        self.record(
            StageResult(
                name="config",
                seconds=0.0,
                artifacts={"resolved_config.json": f"sha256:{_sha256(target)}"},
            )
        )
        return target

    def record(self, result: StageResult) -> None:
        manifest_path = self.path(MANIFEST_NAME)
        if manifest_path.exists():
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        else:
            manifest = {
                "tool": "shapguard",
                "version": __version__,
                "resolved_config": self.cfg,
                "stages": {},
            }
        manifest["resolved_config"] = self.cfg
        manifest["stages"][result.name] = {
            "seconds": round(result.seconds, 3),
            "artifacts": result.artifacts,
            "summary": result.summary,
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")

    def finish(
        self, name: str, started: float, paths: list[Path], summary: dict
    ) -> StageResult:
        artifacts = {
            str(p.relative_to(self.root)): f"sha256:{_sha256(p)}" for p in paths
        }
        result = StageResult(
            name=name,
            seconds=time.perf_counter() - started,
            artifacts=artifacts,
            summary=summary,
        )
        self.record(result)
        logger.info("stage %s finished in %.2fs: %s", name, result.seconds, summary)
        return result


def _schema_from_cfg(csv_cfg: dict) -> data.FeatureSchema:
    schema = csv_cfg["schema"]
    if schema == "cic-iot2023":
        return data.FeatureSchema.cic_iot2023()
    if isinstance(schema, list):
        return data.FeatureSchema(tuple(schema))
    raise ConfigError(f"unsupported schema spec {schema!r}")


def _train_config(train_cfg: dict, loss: str) -> neural.TrainConfig:
    return neural.TrainConfig(
        epochs=int(train_cfg["epochs"]),
        batch_size=int(train_cfg["batch_size"]),
        learning_rate=float(train_cfg["learning_rate"]),
        beta1=float(train_cfg["beta1"]),
        beta2=float(train_cfg["beta2"]),
        eps_opt=float(train_cfg["eps_opt"]),
        loss=loss,
        seed=int(train_cfg["seed"]),
        shuffle=bool(train_cfg["shuffle"]),
    )


def _attack_config(cfg: dict, kind: str) -> attacks.AttackConfig:
    section = cfg["attacks"][kind]
    if kind == "fgsm":
        return attacks.AttackConfig(kind="fgsm", epsilon=float(section["epsilon"]))
    if kind == "pgd":
        return attacks.AttackConfig(
            kind="pgd",
            epsilon=float(section["epsilon"]),
            alpha=float(section["alpha"]),
            steps=int(section["steps"]),
            random_start=bool(section["random_start"]),
            seed=int(section["seed"]),
        )
    return attacks.AttackConfig(
        kind="deepfool",
        max_iter=int(section["max_iter"]),
        overshoot=float(section["overshoot"]),
    )


def _load_background(ws: Workspace, stage: str) -> attribution.BackgroundSet:
    train = data.load_dataset(ws.require("data/train.csv", stage))
    bg_cfg = ws.cfg["background"]
    return attribution.sample_background(
        train.X,
        size=int(bg_cfg["size"]),
        seed=int(bg_cfg["seed"]),
        source="clean-train",
    )


# ---------------------------------------------------------------------------
# stages


def cmd_ingest(ws: Workspace) -> StageResult:
    """Ingest or synthesize data, split, fit the scaler on train, persist."""
    started = time.perf_counter()
    cfg = ws.cfg["data"]
    try:
        if cfg["source"] == "csv":
            schema = _schema_from_cfg(cfg["csv"])
            ds = data.load_csv(
                cfg["csv"]["path"],
                schema,
                label_column=cfg["csv"]["label_column"],
                benign_labels=frozenset(cfg["csv"]["benign_labels"]),
            )
        else:
            syn = cfg["synthetic"]
            ds = data.synth_generate(
                n_per_class=int(syn["n_per_class"]),
                m=int(syn["n_features"]),
                class_separation=float(syn["class_separation"]),
                noise=float(syn["noise"]),
                seed=int(syn["seed"]),
            )
        spec = data.SplitSpec(
            train_frac=float(cfg["split"]["train_frac"]),
            val_frac=float(cfg["split"]["val_frac"]),
            test_frac=float(cfg["split"]["test_frac"]),
            seed=int(cfg["split"]["seed"]),
        )
        train, val, test = data.split(ds, spec)
        scaler = data.fit_scaler(train)
        train = data.apply_scaler(train, scaler)
        val = data.apply_scaler(val, scaler)
        test = data.apply_scaler(test, scaler)
    except FileNotFoundError as exc:
        raise StageError(f"ingest: file not found: {exc.filename}") from exc
    except (data.SchemaError, data.ParseError, data.EmptyDatasetError, ValueError) as exc:
        raise StageError(f"ingest: {exc}") from exc

    paths = []
    for name, part in (("train", train), ("val", val), ("test", test)):
        target = ws.path(f"data/{name}.csv")
        data.save_dataset(part, target)
        paths.append(target)
    scaler_path = ws.path("data/scaler.json")
    data.save_scaler(scaler, ds.schema, scaler_path)
    paths.append(scaler_path)
    summary = {
        "rows": ds.n,
        "features": ds.m,
        "train": train.n,
        "val": val.n,
        "test": test.n,
    }
    return ws.finish("ingest", started, paths, summary)


def cmd_train_nids(ws: Workspace) -> StageResult:
    """Train the reference classifier; persist model, history, report."""
    started = time.perf_counter()
    cfg = ws.cfg["classifier"]
    train = data.load_dataset(ws.require("data/train.csv", "train-nids"))
    test = data.load_dataset(ws.require("data/test.csv", "train-nids"))
    spec = neural.MlpSpec(
        layer_sizes=(train.m, *(int(h) for h in cfg["hidden_sizes"]), 1),
        hidden_activation="relu",
        output_activation="sigmoid",
        seed=int(cfg["init_seed"]),
    )
    model = neural.init(spec)
    try:
        model, history = neural.train(
            model, train.X, train.y, _train_config(cfg["train"], "bce")
        )
    except neural.TrainingDivergedError as exc:
        raise StageError(f"train-nids: {exc}") from exc
    _, train_pred = neural.predict(model, train.X)
    _, test_pred = neural.predict(model, test.X)
    train_acc = float(np.mean(train_pred == train.y))
    test_acc = float(np.mean(test_pred == test.y))
    logger.info("nids train accuracy %.4f, test accuracy %.4f", train_acc, test_acc)

    model_path = ws.path("models/nids.json")
    neural.save(model, model_path)
    history_path = ws.write_csv(
        "models/nids_history.csv",
        ["epoch", "loss"],
        [[i + 1, repr(loss)] for i, loss in enumerate(history)],
    )
    report_path = ws.write_json(
        "models/nids_report.json",
        {
            "train_accuracy": train_acc,
            "test_accuracy": test_acc,
            "final_loss": history[-1],
            "epochs": len(history),
        },
    )
    summary = {"train_accuracy": train_acc, "test_accuracy": test_acc}
    return ws.finish("train-nids", started, [model_path, history_path, report_path], summary)


def cmd_attack(ws: Workspace, kind: str) -> StageResult:
    """Craft adversarial rows from the test split for one attack kind."""
    started = time.perf_counter()
    if kind not in ATTACK_KINDS:
        raise ConfigError(f"unknown attack kind {kind!r}")
    model = neural.load(ws.require("models/nids.json", f"attack-{kind}"))
    test = data.load_dataset(ws.require("data/test.csv", f"attack-{kind}"))
    cfg = _attack_config(ws.cfg, kind)
    try:
        batch = attacks.attack_batch(
            model, test, cfg, row_filter=ws.cfg["attacks"]["filter"]
        )
    except attacks.EmptyBatchError as exc:
        raise StageError(f"attack-{kind}: {exc}") from exc

    csv_path = ws.path(f"attacks/{kind}.csv")
    attacks.save_adv_batch(batch, test.schema.names, csv_path)
    summary_path = ws.write_json(
        f"attacks/{kind}_summary.json",
        {
            "kind": kind,
            "rows": batch.n,
            "success_rate": batch.success_rate,
            "mean_linf": float(batch.linf.mean()),
            "mean_l2": float(batch.l2.mean()),
        },
    )
    summary = {"rows": batch.n, "success_rate": batch.success_rate}
    return ws.finish(
        f"attack-{kind}",
        started,
        [csv_path, csv_path.with_suffix(".config.json"), summary_path],
        summary,
    )


def _fingerprint_sources(
    ws: Workspace,
    model: neural.MlpModel,
    background: attribution.BackgroundSet,
    sources: list[str],
) -> Iterator[tuple[str, attribution.Fingerprints]]:
    """Yield (artifact name, fingerprints) for each clean split or attack."""
    filters = {
        "clean_train": ws.cfg["detector"]["class_filter"],
        "clean_val": ws.cfg["detector"]["class_filter"],
        "clean_test": ws.cfg["evaluation"]["clean_panel"],
    }
    for item in sources:
        if item == "clean":
            for source in CLEAN_SOURCES:
                split_name = source.removeprefix("clean_")
                ds = data.load_dataset(ws.require(f"data/{split_name}.csv", "fingerprint"))
                yield source, attribution.fingerprint_batch(
                    model, ds.X, background, labels=ds.y, class_filter=filters[source]
                )
        else:
            batch = attacks.load_adv_batch(ws.require(f"attacks/{item}.csv", "fingerprint"))
            yield item, attribution.fingerprint_batch(
                model, batch.X_adv, background, sample_ids=batch.sample_index, origin=item
            )


def cmd_fingerprint(ws: Workspace, source: str = "all") -> StageResult:
    """Compute attribution fingerprints for clean splits and/or attacks.

    source is 'clean', an attack kind, or 'all'. Completeness violations
    abort the stage; the largest completeness gap goes into the summary.
    """
    started = time.perf_counter()
    model = neural.load(ws.require("models/nids.json", "fingerprint"))
    background = _load_background(ws, "fingerprint")
    sources: list[str]
    if source == "all":
        sources = ["clean", *ATTACK_KINDS]
    elif source in ("clean", *ATTACK_KINDS):
        sources = [source]
    else:
        raise ConfigError(f"unknown fingerprint source {source!r}")
    paths: list[Path] = []
    rows: dict[str, int] = {}
    max_gap = 0.0
    for name, fps in _fingerprint_sources(ws, model, background, sources):
        violations = fps.count_violations()
        if violations:
            raise InvariantError(
                f"fingerprint {name}: {violations} completeness violation(s)"
            )
        target = ws.path(f"fingerprints/{name}.csv")
        attribution.save_fingerprints(fps, target)
        paths.append(target)
        rows[name] = fps.n
        max_gap = max(max_gap, fps.max_completeness_gap)
    summary = {
        "rows": rows,
        "background": background.describe(),
        "max_completeness_gap": max_gap,
    }
    return ws.finish("fingerprint", started, paths, summary)


def cmd_train_detector(ws: Workspace) -> StageResult:
    """Train the autoencoder on clean train fingerprints and calibrate tau."""
    started = time.perf_counter()
    cfg = ws.cfg["detector"]
    Z_train = attribution.load_fingerprints(
        ws.require("fingerprints/clean_train.csv", "train-detector")
    ).phi
    Z_val = attribution.load_fingerprints(
        ws.require("fingerprints/clean_val.csv", "train-detector")
    ).phi
    try:
        ae, history = detector.train_autoencoder(
            Z_train,
            _train_config(cfg["train"], "mse"),
            latent=int(cfg["latent"]),
            hidden_sizes=tuple(int(h) for h in cfg["hidden_sizes"]),
            init_seed=int(cfg["init_seed"]),
        )
        method = detector.CalibrationMethod(
            method=cfg["calibration"]["method"],
            parameter=float(cfg["calibration"]["parameter"]),
        )
        errors_val = detector.reconstruction_errors(ae, Z_val)
        det = detector.calibrate(
            detector.DetectorModel(autoencoder=ae),
            errors_val,
            method,
            background_ref=f"clean-train (k={ws.cfg['background']['size']}, "
            f"seed={ws.cfg['background']['seed']})",
        )
    except (neural.TrainingDivergedError, detector.CalibrationError, ValueError) as exc:
        raise StageError(f"train-detector: {exc}") from exc

    det_path = ws.path("detector/detector.json")
    detector.save_detector(det, det_path)
    history_path = ws.write_csv(
        "detector/ae_history.csv",
        ["epoch", "loss"],
        [[i + 1, repr(loss)] for i, loss in enumerate(history)],
    )
    logger.info("detector tau=%.6g on %d validation errors", det.tau, errors_val.size)
    summary = {"tau": det.tau, "val_errors": int(errors_val.size)}
    return ws.finish("train-detector", started, [det_path, history_path], summary)


def _detector_checks(
    report: evaluation.MetricsReport, robustness: evaluation.RobustnessReport
) -> list[str]:
    """Recompute every threshold metric from counts; return failures."""
    failures = []
    c = report.counts
    expected = {
        "accuracy": (c.tp + c.tn) / c.total,
        "precision": c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0,
        "recall": c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0,
        "specificity": c.tn / (c.tn + c.fp) if c.tn + c.fp else 0.0,
        "npv": c.tn / (c.tn + c.fn) if c.tn + c.fn else 0.0,
        "fpr": c.fp / (c.fp + c.tn) if c.fp + c.tn else 0.0,
        "fnr": c.fn / (c.fn + c.tp) if c.fn + c.tp else 0.0,
    }
    p, r = expected["precision"], expected["recall"]
    expected["f1"] = 2 * p * r / (p + r) if p + r else 0.0
    for name, value in expected.items():
        if abs(getattr(report, name) - value) > 1e-12:
            failures.append(f"{name} mismatch")
    if abs(robustness.aa + robustness.asr - 1.0) > 1e-12:
        failures.append("aa + asr != 1")
    return failures


def cmd_evaluate(ws: Workspace) -> StageResult:
    """Emit the full report bundle; raises InvariantError on check failures."""
    started = time.perf_counter()
    det = detector.load_detector(ws.require("detector/detector.json", "evaluate"))
    Z_clean = attribution.load_fingerprints(
        ws.require("fingerprints/clean_test.csv", "evaluate")
    ).phi
    errors_clean = detector.reconstruction_errors(det.autoencoder, Z_clean)
    bins = int(ws.cfg["evaluation"]["histogram_bins"])

    paths: list[Path] = []
    failures: list[str] = []
    metrics_rows = []
    importance_by_condition = {"clean": evaluation.importance(Z_clean)}
    summary: dict = {"tau": det.tau, "clean_rows": int(errors_clean.size)}

    for kind in ATTACK_KINDS:
        Z_adv = attribution.load_fingerprints(
            ws.require(f"fingerprints/{kind}.csv", "evaluate")
        ).phi
        errors_adv = detector.reconstruction_errors(det.autoencoder, Z_adv)
        importance_by_condition[kind] = evaluation.importance(Z_adv)

        scores = np.concatenate([errors_clean, errors_adv])
        truths = np.concatenate(
            [np.zeros(errors_clean.size, int), np.ones(errors_adv.size, int)]
        )
        preds = (scores > det.tau).astype(int)
        counts = evaluation.confusion(truths, preds)
        report = evaluation.classification_metrics(counts, scores, truths)
        robustness = evaluation.robustness_metrics(
            clean_results=errors_clean <= det.tau,
            adv_results=errors_adv > det.tau,
        )
        failures.extend(f"{kind}: {msg}" for msg in _detector_checks(report, robustness))

        paths.append(
            ws.write_json(
                f"reports/metrics_{kind}.json",
                {"attack": kind, **report.to_dict(), **robustness.to_dict()},
            )
        )
        dist = evaluation.error_distribution_report(
            errors_clean, errors_adv, det.tau, bins=bins
        )
        paths.append(ws.write_json(f"reports/error_distribution_{kind}.json", dist))
        edges = dist["bin_edges"]
        paths.append(
            ws.write_csv(
                f"reports/error_distribution_{kind}.csv",
                ["bin_left", "bin_right", "clean_count", "adv_count"],
                [
                    [repr(edges[i]), repr(edges[i + 1]),
                     dist["clean_counts"][i], dist["adv_counts"][i]]
                    for i in range(len(dist["clean_counts"]))
                ],
            )
        )
        combined = {**report.to_dict(), **robustness.to_dict()}
        metrics_rows.append([kind, *(
            repr(v) if isinstance(v, float) else ("" if v is None else v)
            for v in (combined[name] for name in METRIC_COLUMNS)
        )])
        summary[kind] = {
            "accuracy": report.accuracy,
            "roc_auc": report.roc_auc,
            "aa": robustness.aa,
        }

    paths.append(
        ws.write_csv("reports/metrics.csv", ["attack", *METRIC_COLUMNS], metrics_rows)
    )

    scaler_path = ws.path("data/scaler.json")
    if scaler_path.exists():
        _, schema = data.load_scaler(scaler_path)
        feature_names = schema.names
    else:
        feature_names = tuple(f"phi_{j + 1}" for j in range(Z_clean.shape[1]))
    table = evaluation.build_rank_table(feature_names, importance_by_condition)
    for cond, ranks in table.ranks.items():
        if sorted(ranks.tolist()) != list(range(1, len(table.feature_names) + 1)):
            failures.append(f"rank table: {cond} ranks are not a permutation")
    rows = table.rows()
    paths.append(ws.write_json("reports/rank_table.json", {"rows": rows}))
    paths.append(
        ws.write_csv(
            "reports/rank_table.csv",
            list(rows[0].keys()),
            [[row[k] if not isinstance(row[k], float) else repr(row[k])
              for k in rows[0]] for row in rows],
        )
    )

    paths.append(ws.write_json("reports/summary.json", {**summary, "checks_failed": failures}))
    result = ws.finish("evaluate", started, paths, summary)
    if failures:
        raise InvariantError("evaluate: " + "; ".join(failures))
    return result


def cmd_detect(ws: Workspace, input_path: str | Path) -> StageResult:
    """Fingerprint every row of a dataset CSV, score the fingerprints with
    the autoencoder and compare the scores with tau.

    The input must be in scaled feature space (like the persisted splits),
    with the feature columns of data/scaler.json in the same order; labels
    in the file are ignored. Decisions and scores are written to
    reports/detections.json.
    """
    started = time.perf_counter()
    input_path = Path(input_path)
    nids = neural.load(ws.require("models/nids.json", "detect"))
    det = detector.load_detector(ws.require("detector/detector.json", "detect"))
    _, schema = data.load_scaler(ws.require("data/scaler.json", "detect"))
    background = _load_background(ws, "detect")
    try:
        ds = data.load_dataset(input_path)
    except FileNotFoundError:
        raise StageError(f"detect: file not found: {input_path}") from None
    except ValueError as exc:
        raise StageError(f"detect: {exc}") from exc
    if ds.schema.names != schema.names:
        raise StageError(
            f"detect: {input_path}: feature columns {list(ds.schema.names)} do not "
            f"match the trained schema {list(schema.names)} in data/scaler.json"
        )
    fps = attribution.fingerprint_batch(nids, ds.X, background)
    decisions, scores = detector.detect(det, fps.phi)
    flagged = int(np.count_nonzero(decisions == "adversarial"))
    rows = [
        {"sample_id": i, "decision": decision, "score": score}
        for i, (decision, score) in enumerate(zip(decisions.tolist(), scores.tolist()))
    ]
    target = ws.write_json(
        "reports/detections.json",
        {"input": str(input_path), "tau": det.tau, "n": ds.n,
         "adversarial": flagged, "rows": rows},
    )
    summary = {"n": ds.n, "adversarial": flagged, "tau": det.tau}
    return ws.finish("detect", started, [target], summary)


def cmd_run_all(ws: Workspace) -> list[StageResult]:
    """Execute every stage in pipeline order."""
    results = [cmd_ingest(ws), cmd_train_nids(ws)]
    for kind in ATTACK_KINDS:
        results.append(cmd_attack(ws, kind))
    results.append(cmd_fingerprint(ws, "all"))
    results.append(cmd_train_detector(ws))
    results.append(cmd_evaluate(ws))
    return results
