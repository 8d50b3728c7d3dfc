"""End-to-end pipeline stages with persisted artifacts between them.

Each stage reads its inputs from disk and writes plain CSV/JSON artifacts,
so any downstream stage can be deleted and re-run in isolation with
identical results. A cumulative manifest records, per stage, the config
part the stage read, every file it produced with its sha256 digest, its
timing and its summary.
"""

from __future__ import annotations

import copy
import fcntl
import hashlib
import logging
import os
import pickle
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__, attacks, attribution, data, detector, evaluation, neural

logger = logging.getLogger(__name__)

ATTACK_KINDS = attacks.ATTACK_KINDS
MANIFEST_NAME = "manifest.json"
# Not under fingerprints/: every CSV there is a fingerprint table.
BACKGROUND = "models/background.csv"
# The one list of run-all's stages, in manifest order: each one's CLI command,
# its option value or None, and its part of run-all: "before" the fork, the
# forked "attack" branch, the "detector" branch beside it, or "after" both.
STAGES = (
    ("ingest", None, "before"),
    ("train-nids", None, "before"),
    *(("attack", kind, "attack") for kind in ATTACK_KINDS),
    ("fingerprint", "clean", "before"),
    *(("fingerprint", kind, "attack") for kind in ATTACK_KINDS),
    ("train-detector", None, "detector"),
    ("evaluate", None, "after"),
)


def option_values(command: str) -> tuple[str, ...]:
    """The option values of ``command``'s run-all stages, in table order;
    none for a command whose stages take no option."""
    return tuple(value for name, value, _ in STAGES if name == command and value)


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
            "seed": None,
        },
    },
    "attacks": {
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
        "train": {
            "epochs": 100,
            "batch_size": 256,
            "learning_rate": 1e-3,
            "seed": None,
        },
        "calibration": {"method": "percentile", "parameter": 99.0},
    },
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


# An overriding value has the JSON type of the default it replaces, save
# these leaves: a seed left unset is null, a csv schema a list of names.
_FORMS = {
    **{".".join(keys): (int, None) for keys in _SEED_OFFSETS},
    "data.csv.path": (str, None),
    "data.csv.schema": (str, [str]),
}


def _leaf(where: str, default, value):
    """``value`` if it has the form of ``default`` (see data.json_value),
    as a float where that is a float; otherwise a ConfigError."""
    own = [type(default[0])] if isinstance(default, list) else type(default)
    _checked("", data.json_value, value, where, *_FORMS.get(where, (own,)))
    return float(value) if isinstance(default, float) else value


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], _checked("", data.json_value, value, where), where)
        else:
            out[key] = _leaf(where, base[key], value)
    return out


def _checked(section: str, build: Callable[..., Any], *args, **kwargs) -> Any:
    """``build(*args, **kwargs)``, a ValueError from it raised as a
    ConfigError naming the config section it checks, if one is given."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}" if section else exc) from None


def resolve_config(
    user: dict | None = None,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> dict:
    """Merge user settings over defaults, materialize every seed and check
    every value: its type, and its range by building each setting object a
    stage builds from it.

    The result is fully explicit: later stages never fall back to implicit
    defaults or cast a value, so a run is reproducible from the config
    parts its stages record in the manifest.
    """
    _checked("", data.json_value, user, "config", dict, None)
    flags = {"seed": seed_override, "out_dir": out_override}
    cfg = _merge(DEFAULT_CONFIG, user or {})
    cfg = _merge(cfg, {key: value for key, value in flags.items() if value is not None})
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    if not cfg["out_dir"]:  # Path("") is the current directory
        raise ConfigError("out_dir must name a directory, got ''")
    for keys, offset in _SEED_OFFSETS.items():
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        if node[keys[-1]] is None:
            node[keys[-1]] = cfg["seed"] + offset
        if node[keys[-1]] < 0:
            raise ConfigError(f"{'.'.join(keys)} must be >= 0, got {node[keys[-1]]}")
    source, clf, det = cfg["data"]["source"], cfg["classifier"], cfg["detector"]
    if source not in ("synthetic", "csv"):
        raise ConfigError(f"unknown data source {source!r}")
    if source == "csv" and not cfg["data"]["csv"]["path"]:
        raise ConfigError("data.csv.path is required for the csv source")
    schema = _checked("data.csv", _schema_from_cfg, cfg["data"]["csv"])
    label = cfg["data"]["csv"]["label_column"]
    if label in schema.names:  # load_csv would read that column's cells as labels
        raise ConfigError(f"data.csv: label_column {label!r} names a feature of the schema")
    m = schema.m if source == "csv" else cfg["data"]["synthetic"]["n_features"]
    _checked("data.split", data.SplitSpec, **cfg["data"]["split"])
    _checked("classifier", neural.MlpSpec, (m, *clf["hidden_sizes"], 1))
    _checked("classifier.train", neural.TrainConfig, **clf["train"], loss="bce")
    for kind in ATTACK_KINDS:
        _checked(f"attacks.{kind}", attacks.AttackConfig, kind, **cfg["attacks"][kind])
    if cfg["background"]["size"] < 1:
        raise ConfigError("background.size must be >= 1")
    _checked("detector", detector.autoencoder_spec, m, tuple(det["hidden_sizes"]), det["latent"])
    _checked("detector.train", neural.TrainConfig, **det["train"], loss="mse")
    _checked("detector.calibration", detector.CalibrationMethod, **det["calibration"])
    return cfg


# ---------------------------------------------------------------------------
# artifact bookkeeping


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Workspace:
    """Output directory plus the cumulative run manifest."""

    def __init__(self, out_dir: str | Path, cfg: dict):
        self.root = Path(out_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg

    def path(self, rel: str) -> Path:
        return self.root / rel

    def load(self, rel: str, loader: Callable[[Path], Any]) -> Any:
        """Read artifact ``rel`` with ``loader``. A missing file is a
        ValueError naming it; the stage runner makes it, like the loader's
        own ValueErrors, a stage failure (exit 2) naming the stage."""
        target = self.path(rel)
        if not target.exists():
            raise ValueError(f"missing artifact {rel!r}; run the producing stage first")
        return loader(target)

    def finish(
        self, name: str, started: float, paths: list[Path], summary: dict,
        config: dict | None = None,
    ) -> None:
        """Record stage ``name`` in the manifest. ``config`` is the part of
        the resolved config it read, nested as in it; a stage that reads
        none has no ``config`` key."""
        artifacts = {
            str(p.relative_to(self.root)): f"sha256:{_sha256(p)}" for p in paths
        }
        seconds = time.perf_counter() - started
        entry = {"seconds": round(seconds, 3), "config": config,
                 "artifacts": artifacts, "summary": summary}
        entry = {k: v for k, v in entry.items() if v is not None}
        # An exclusive lock on the directory itself, so that two processes
        # finishing stages lose no entry and no lock file appears in it; the
        # manifest is replaced whole, so a crash never leaves it truncated.
        fd = os.open(self.root, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            manifest = _manifest(self)
            manifest["stages"] = _placed(manifest["stages"], name, entry)
            scratch = data.write_json(self.path(MANIFEST_NAME + ".tmp"), manifest)
            os.replace(scratch, self.path(MANIFEST_NAME))
        finally:
            os.close(fd)
        logger.info("stage %s finished in %.2fs: %s", name, seconds, summary)


def _schema_from_cfg(csv_cfg: dict) -> data.FeatureSchema:
    schema = csv_cfg["schema"]
    if schema == "cic-iot2023":
        return data.FeatureSchema.cic_iot2023()
    if isinstance(schema, list):
        return data.FeatureSchema(tuple(schema))
    raise ConfigError(f"unsupported schema spec {schema!r}")


def _manifest(ws: Workspace) -> dict:
    """The run manifest so far; a fresh one before any stage finished."""
    if ws.path(MANIFEST_NAME).exists():
        return data.read_json(ws.path(MANIFEST_NAME), lambda manifest: {
            **manifest, "stages": data.json_value(manifest["stages"], "stages")})
    return {"tool": "shapguard", "version": __version__, "stages": {}}


def _stage_name(command: str, value: str | None) -> str:
    """The manifest name of ``command`` run with option ``value``: the two
    joined by a dash where the command's run-all stages differ by their
    option value, the command alone otherwise (detect's value is its input)."""
    return f"{command}-{value}" if option_values(command) else command


def _placed(stages: dict, name: str, entry: dict) -> dict:
    """``stages`` with ``entry`` recorded as stage ``name``, in the order a
    serial run-all records its stages; the stages outside run-all follow,
    in the order they were first recorded."""
    rank = {_stage_name(command, value): i for i, (command, value, _) in enumerate(STAGES)}
    stages = {**stages, name: entry}
    return dict(sorted(stages.items(), key=lambda item: rank.get(item[0], len(rank))))


def _load_background(path: Path, names: Sequence[str] = ()) -> attribution.BackgroundSet:
    """Read the background rows the train-nids stage sampled and saved,
    whose header cells must be ``names``, the feature names of
    data/scaler.json, as far as both go: a width that differs is left to
    fingerprint_batch, which names the model's width too."""
    _, values, _ = data.read_table(path, rules={"*": "box"}, columns=lambda header: (
        [*names[:len(header)], *header[len(names):]]))
    return attribution.BackgroundSet(B=values)


# ---------------------------------------------------------------------------
# stages


def cmd_ingest(ws: Workspace) -> tuple[list[Path], dict, dict]:
    """Ingest or synthesize data, split, fit the scaler on train, persist."""
    cfg = ws.cfg["data"]
    if cfg["source"] == "csv":
        schema = _schema_from_cfg(cfg["csv"])
        ds = data.load_csv(
            cfg["csv"]["path"],
            schema,
            label_column=cfg["csv"]["label_column"],
            benign_labels=frozenset(cfg["csv"]["benign_labels"]),
        )
    else:
        syn = dict(cfg["synthetic"])
        ds = data.synth_generate(m=syn.pop("n_features"), **syn)
    splits = dict(zip(("train", "val", "test"), data.split(ds, data.SplitSpec(**cfg["split"]))))
    summary = {"rows": ds.n, "features": ds.m}
    del ds  # split copied its rows; the splits are scaled without the whole matrix
    for name, part in splits.items():
        # fingerprint-clean explains each split's malicious rows
        if not part.y.any():
            raise ValueError(f"split {name!r} has no malicious rows ({part.n} benign, 0 malicious)")
        summary[name] = part.n
    scaler = data.fit_scaler(splits["train"])

    def save(name: str) -> Path:
        scaled = data.apply_scaler(splits[name], scaler)
        return data.save_dataset(scaled, ws.path(f"data/{name}.csv"))
    paths = _split(save, list(splits))
    paths.append(data.save_scaler(scaler, splits["train"].schema, ws.path("data/scaler.json")))
    return paths, summary, {"data": cfg}


def cmd_train_nids(ws: Workspace) -> tuple[list[Path], dict, dict]:
    """Train the reference classifier and sample the background its
    fingerprints are explained against from the train split; persist model,
    loss history and background.

    The accuracies and the background's row count go into the stage
    summary; the final loss and the epoch count are the last row and the
    length of the history.
    """
    cfg = ws.cfg["classifier"]
    train = ws.load("data/train.csv", data.load_dataset)
    test = ws.load("data/test.csv", data.load_dataset)
    model = neural.init(neural.MlpSpec((train.m, *cfg["hidden_sizes"], 1), seed=cfg["init_seed"]))
    model, history = neural.train(
        model, train.X, train.y, neural.TrainConfig(**cfg["train"], loss="bce")
    )
    _, train_pred = neural.predict(model, train.X)
    _, test_pred = neural.predict(model, test.X)
    train_acc = float(np.mean(train_pred == train.y))
    test_acc = float(np.mean(test_pred == test.y))
    logger.info("nids train accuracy %.4f, test accuracy %.4f", train_acc, test_acc)

    model_path = neural.save(model, ws.path("models/nids.json"))
    history_path = data.write_table(
        ws.path("models/nids_history.csv"), ["epoch", "loss"], enumerate(history, start=1)
    )
    background = attribution.sample_background(train.X, **ws.cfg["background"])
    background_path = data.write_table(
        ws.path(BACKGROUND), train.schema.names, background.B.tolist()
    )
    summary = {"train_accuracy": train_acc, "test_accuracy": test_acc,
               "background_rows": background.size}
    config = {"classifier": cfg, "background": ws.cfg["background"]}
    return [model_path, history_path, background_path], summary, config


def cmd_attack(ws: Workspace, kind: str) -> tuple[list[Path], dict, dict]:
    """Craft adversarial rows from the malicious test rows for one attack kind."""
    model = ws.load("models/nids.json", neural.load)
    test = ws.load("data/test.csv", data.load_dataset)
    cfg = ws.cfg["attacks"][kind]
    batch = attacks.attack_batch(model, test, attacks.AttackConfig(kind, **cfg))

    csv_path = attacks.save_adv_batch(batch, test.schema.names, ws.path(f"attacks/{kind}.csv"))
    summary = {
        "rows": batch.n,
        "success_rate": batch.success_rate,
        "mean_linf": float(batch.linf.mean()),
        "mean_l2": float(batch.l2.mean()),
    }
    if kind == "deepfool":
        summary["degenerate_rows"] = batch.degenerate_rows
    return [csv_path], summary, {"attacks": {kind: cfg}}


def cmd_fingerprint(ws: Workspace, source: str) -> tuple[list[Path], dict, None]:
    """Fingerprint one source against the background train-nids saved:
    'clean' is each split's malicious rows, the rows the attacks start
    from, an attack kind its adversarial rows, each of which must name a
    malicious row of data/test.csv by its sample_index. The largest
    completeness gap goes into the summary. A table with completeness
    violations is still written, and goes into the summary's
    checks_failed, which the stage runner records and then raises as an
    InvariantError.
    """
    model = ws.load("models/nids.json", neural.load)
    _, schema = ws.load("data/scaler.json", data.load_scaler)
    background = ws.load(BACKGROUND, lambda path: _load_background(path, schema.names))

    def table(name: str) -> tuple[Path, int, int, float]:
        """Fingerprint and save table ``name``; its path, row count,
        completeness violations and largest completeness gap."""
        if source == "clean":
            rel = f"data/{name.removeprefix('clean_')}.csv"
            ds = ws.load(rel, data.load_dataset)
            ids = np.flatnonzero(ds.y == 1)
            if not ids.size:
                raise ValueError(f"{rel} has no malicious rows to fingerprint")
            X = ds.X[ids]
        else:
            rel = f"attacks/{source}.csv"
            batch = ws.load(rel, attacks.load_adv_batch)
            X, ids = batch.X_adv, batch.sample_index
            test = ws.load("data/test.csv", data.load_dataset)
            stray = ~np.isin(ids, np.flatnonzero(test.y == 1))
            if stray.any():
                row = int(np.argmax(stray))
                raise ValueError(f"{ws.path(rel)}: row {data.file_line(ws.path(rel), row)}, "
                                 f"column 'sample_index': {ids[row]} is not a malicious row "
                                 "of data/test.csv")
        fps = attribution.fingerprint_batch(model, X, background, sample_ids=ids, origin=source)
        path = attribution.save_fingerprints(fps, ws.path(f"fingerprints/{name}.csv"))
        return path, fps.n, fps.count_violations(), fps.max_completeness_gap

    names = ["clean_train", "clean_val", "clean_test"] if source == "clean" else [source]
    paths: list[Path] = []
    rows: dict[str, int] = {}
    failures: list[str] = []
    max_gap = 0.0
    for name, (path, n, violations, gap) in zip(names, _split(table, names)):
        if violations:
            failures.append(f"{name}: {violations} completeness violation(s)")
        paths.append(path)
        rows[name] = n
        max_gap = max(max_gap, gap)
    summary: dict = {"rows": rows, "max_completeness_gap": max_gap}
    if failures:
        summary["checks_failed"] = failures
    return paths, summary, None


def cmd_train_detector(ws: Workspace) -> tuple[list[Path], dict, dict]:
    """Train the autoencoder on clean train fingerprints and calibrate tau."""
    cfg = ws.cfg["detector"]
    load = attribution.load_fingerprints
    Z_train = ws.load("fingerprints/clean_train.csv", load).phi
    Z_val = ws.load("fingerprints/clean_val.csv", load).phi
    ae, history = detector.train_autoencoder(
        Z_train,
        neural.TrainConfig(**cfg["train"], loss="mse"),
        latent=cfg["latent"],
        hidden_sizes=tuple(cfg["hidden_sizes"]),
        init_seed=cfg["init_seed"],
    )
    errors_val = detector.reconstruction_errors(ae, Z_val)
    det = detector.calibrate(
        detector.DetectorModel(autoencoder=ae),
        errors_val,
        detector.CalibrationMethod(**cfg["calibration"]),
    )

    det_path = detector.save_detector(det, ws.path("detector/detector.json"))
    history_path = data.write_table(
        ws.path("detector/ae_history.csv"), ["epoch", "loss"], enumerate(history, start=1)
    )
    logger.info("detector tau=%.6g on %d validation errors", det.tau, errors_val.size)
    summary = {"tau": det.tau, "val_errors": int(errors_val.size)}
    return [det_path, history_path], summary, {"detector": cfg}


def _fitting(Z: np.ndarray, det: detector.DetectorModel, schema: data.FeatureSchema,
             where: str | Path) -> np.ndarray:
    """Fingerprints ``Z`` of file ``where``; a ValueError naming it unless
    they, the detector and data/scaler.json agree on the feature count."""
    if not Z.shape[1] == det.autoencoder.spec.input_size == schema.m:
        raise ValueError(f"{where}: {Z.shape[1]} fingerprint features, but the detector takes "
                         f"{det.autoencoder.spec.input_size} and data/scaler.json has {schema.m}")
    return Z


def cmd_evaluate(ws: Workspace) -> tuple[list[Path], dict, None]:
    """Emit the JSON report bundle: per attack the detection report with its
    score distribution, and the feature rank table; the summary records tau,
    the clean row count and each attack's accuracy, ROC AUC and AA."""
    det = ws.load("detector/detector.json", detector.load_detector)
    _, schema = ws.load("data/scaler.json", data.load_scaler)

    def scored(rel: str) -> tuple[np.ndarray, np.ndarray]:
        Z = _fitting(ws.load(rel, attribution.load_fingerprints).phi, det, schema, rel)
        return Z, detector.reconstruction_errors(det.autoencoder, Z)

    Z_clean, errors_clean = scored("fingerprints/clean_test.csv")

    paths: list[Path] = []
    importance_by_condition = {"clean": evaluation.importance(Z_clean)}
    summary: dict = {"tau": det.tau, "clean_rows": int(errors_clean.size)}

    for kind in ATTACK_KINDS:
        Z_adv, errors_adv = scored(f"fingerprints/{kind}.csv")
        importance_by_condition[kind] = evaluation.importance(Z_adv)

        report = evaluation.detection_report(errors_clean, errors_adv, det.tau)
        paths.append(data.write_json(
            ws.path(f"reports/metrics_{kind}.json"), {"attack": kind, **report}
        ))
        summary[kind] = {
            "accuracy": report["accuracy"],
            "roc_auc": report["roc_auc"],
            "aa": report["aa"],
        }

    rows = evaluation.build_rank_table(schema.names, importance_by_condition)
    paths.append(data.write_json(ws.path("reports/rank_table.json"), {"rows": rows}))
    return paths, summary, None


def cmd_detect(ws: Workspace, input_path: str | Path) -> tuple[list[Path], dict, None]:
    """Fingerprint every row of a dataset CSV, score the fingerprints with
    the autoencoder and compare the scores with tau.

    The input must be in scaled feature space (like the persisted splits):
    the feature columns of data/scaler.json in the same order, every value
    finite and inside the [0, 1] box, then a last column named label whose
    cells may hold any text and are ignored. The background is the one the
    train-nids stage saved. Decisions and scores are written to
    reports/detections.json.
    """
    input_path = Path(input_path)
    nids = ws.load("models/nids.json", neural.load)
    det = ws.load("detector/detector.json", detector.load_detector)
    _, schema = ws.load("data/scaler.json", data.load_scaler)
    background = ws.load(BACKGROUND, lambda path: _load_background(path, schema.names))
    _, values, _ = data.read_table(input_path, text=(data.LABEL_COLUMN,), rules={"*": "box"},
                                   columns=lambda header: [*schema.names, data.LABEL_COLUMN])
    X = values[:, :-1]  # in the box, as read_table checks
    fps = attribution.fingerprint_batch(nids, X, background)
    decisions, scores = detector.detect(det, _fitting(fps.phi, det, schema, input_path))
    flagged = int(np.count_nonzero(decisions == "adversarial"))
    rows = [
        {"sample_id": i, "decision": decision, "score": score}
        for i, (decision, score) in enumerate(zip(decisions.tolist(), scores.tolist()))
    ]
    n = len(X)
    target = data.write_json(
        ws.path("reports/detections.json"),
        {"input": str(input_path), "tau": det.tau, "n": n,
         "adversarial": flagged, "rows": rows},
    )
    summary = {"n": n, "adversarial": flagged, "tau": det.tau}
    return [target], summary, None


def _split(work: Callable[[Any], Any], items: list) -> list:
    """``work(item)`` for each item, in order. With more than one item, the
    first runs in a forked child while this process runs the rest; the
    child is reaped whatever the rest did, and its result crosses back.

    The child never returns into its caller: it pickles its result or its
    failure over a pipe and leaves through os._exit. A ValueError or
    OSError, which the stage runner makes a stage failure, and a StageError
    or InvariantError go over as they are; any other exception goes as a
    RuntimeError carrying the child's traceback. The child's failure is
    raised before one of the rest, since the first item is the work a
    serial loop meets first. A child that dies without a report is a
    ChildProcessError naming its signal or exit status.
    """
    if len(items) == 1:
        return [work(items[0])]
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                report = (work(items[0]), None)
            except (StageError, InvariantError, ValueError, OSError) as exc:
                report = (None, exc)
            except BaseException as exc:
                report = (None, RuntimeError("".join(traceback.format_exception(exc))))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(report))
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    rest = failure = None
    try:
        rest = [work(item) for item in items[1:]]
    except Exception as exc:
        failure = exc
    finally:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if not payload:
        how = f"exited with status {code}"
        if code < 0:
            names = {sig.value: sig.name for sig in signal.Signals}
            how = f"was killed by {names.get(-code, f'signal {-code}')}"
        raise ChildProcessError(
            f"{work.__name__}({items[0]!r}) (pid {pid}) {how} before it reported")
    first, report = pickle.loads(payload)
    if report is not None:
        raise report
    if failure is not None:
        raise failure
    return [first, *rest]


def cmd_run_all(ws: Workspace) -> None:
    """Execute every stage of STAGES, each part in table order: after
    fingerprint-clean, a forked child runs the attack part while this
    process runs the detector part; evaluate runs once both are done.
    ingest and fingerprint-clean each make their first table in a child of
    their own (see _split)."""
    def run_part(part: str) -> None:
        for command, value, where in STAGES:
            if where == part:
                run_command(ws, command, value)

    run_part("before")
    _split(run_part, ["attack", "detector"])
    run_part("after")


def commands() -> dict[str, tuple[str, Callable[..., Any], tuple[str, str] | None]]:
    """Each CLI command's help text, body, and option flag and help or None.
    Built on each call, so a body replaced on this module is the one run."""
    return {
        "ingest": ("ingest or synthesize the dataset and persist the splits", cmd_ingest, None),
        "train-nids": ("train the reference classifier", cmd_train_nids, None),
        "attack": ("craft adversarial examples from the test split", cmd_attack,
                   ("--attack", "which attack to craft")),
        "fingerprint": ("compute attribution fingerprints", cmd_fingerprint,
                        ("--source", "which fingerprints to compute")),
        "train-detector": ("train the autoencoder and calibrate the threshold",
                           cmd_train_detector, None),
        "evaluate": ("emit the full report bundle", cmd_evaluate, None),
        "detect": ("score a dataset CSV through the detection pipeline", cmd_detect,
                   ("--input", "dataset CSV in scaled feature space to score")),
        "run-all": ("run every stage in order", cmd_run_all, None),
    }


def run_command(ws: Workspace, command: str, value: str | Path | None = None) -> None:
    """Run CLI ``command`` on ``ws`` with its option ``value`` or None;
    "all" runs each of the command's run-all stages in table order.

    This is the one stage runner. Each ``cmd_*`` body returns (paths,
    summary, config part); the runner names the stage (see _stage_name),
    times the body and records it with Workspace.finish. It is the one
    place a stage failure is made: an option value that is not in STAGES,
    a ValueError (a bad, missing or mismatched input, a check that depends
    on the data or a diverged training run) or an OSError becomes a
    StageError naming the stage. A summary listing failed checks is
    recorded, then raised as an InvariantError. run-all's body is not a
    stage: it runs each of its stages through this runner.
    """
    body = commands()[command][1]
    if command == "run-all":
        return body(ws)
    values = option_values(command)
    for each in (values if value == "all" else ()) or (value,):
        stage = _stage_name(command, each)
        started = time.perf_counter()
        try:
            if values and each not in values:
                raise ValueError(f"{each!r} is not one of {', '.join(values)}")
            paths, summary, config = body(ws, *(() if each is None else (each,)))
            ws.finish(stage, started, paths, summary, config)
        except OSError as exc:
            where = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
            raise StageError(f"{stage}: {where}") from exc
        except ValueError as exc:
            raise StageError(f"{stage}: {exc}") from exc
        if summary.get("checks_failed"):
            raise InvariantError(f"{stage}: " + "; ".join(summary["checks_failed"]))
