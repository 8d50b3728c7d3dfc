"""Correctness checks on the artifacts a CLI call leaves in its workspace.

Every check re-derives its verdict from the files alone (CSV and JSON), so
it holds whatever code produced them. A check returns a list of failure
messages; an empty list means the artifacts passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Completeness gap allowed relative to max(1, |model_output|).
COMPLETENESS_RTOL = 1e-5
# A detect score may differ from the benchmark's own reconstruction error of
# the batch-path fingerprint by this share of it (plus SCORE_ATOL). Float
# reordering moves a score by about 1e-15 of itself; a wrong fingerprint or
# a wrong autoencoder moves it by far more.
SCORE_RTOL = 1e-6
SCORE_ATOL = 1e-12

ATTACKS = ("fgsm", "pgd", "deepfool")
# Detection-quality figures, reported per run but not gated.
QUALITY = (*(f"{kind}_accuracy" for kind in ATTACKS), "detect_fpr", "detect_recall")


def fingerprint_gaps(path: Path) -> tuple[float, int, int]:
    """Return (max |phi0 + sum(phi) - model_output|, violations, rows).

    Columns: sample_id, phi0, phi_1..phi_M, model_output, origin.
    """
    max_gap, violations, rows = 0.0, 0, 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        m = len(next(reader)) - 4
        for raw in reader:
            if not raw:
                continue
            phi0 = float(raw[1])
            output = float(raw[2 + m])
            gap = abs(phi0 + math.fsum(float(v) for v in raw[2 : 2 + m]) - output)
            max_gap = max(max_gap, gap)
            violations += gap > COMPLETENESS_RTOL * max(1.0, abs(output))
            rows += 1
    return max_gap, violations, rows


def check_fingerprints(ws: Path) -> tuple[list[str], float]:
    """Completeness of every fingerprint CSV in a workspace; also the max gap."""
    failures: list[str] = []
    max_gap = 0.0
    paths = sorted((ws / "fingerprints").glob("*.csv"))
    if not paths:
        failures.append("no fingerprint CSVs")
    for path in paths:
        gap, violations, rows = fingerprint_gaps(path)
        max_gap = max(max_gap, gap)
        if rows == 0:
            failures.append(f"{path.name}: no rows")
        if violations:
            failures.append(f"{path.name}: {violations} completeness violation(s)")
    return failures, max_gap


def fingerprint_phis(path: Path) -> dict[int, list[float]]:
    """sample_id -> phi vector of a fingerprint CSV."""
    out: dict[int, list[float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        m = len(next(reader)) - 4
        for raw in reader:
            if raw:
                out[int(raw[0])] = [float(v) for v in raw[2 : 2 + m]]
    return out


def reconstruction_errors(detector: dict, Z: np.ndarray) -> np.ndarray:
    """||z - A(z)||^2 per row, with A the autoencoder of a parsed
    ``detector.json`` (relu hidden layers, linear output)."""
    spec = detector["autoencoder"]["spec"]
    if spec["hidden_activation"] != "relu" or spec["output_activation"] != "linear":
        raise ValueError(f"unexpected autoencoder activations in {spec}")
    weights = detector["autoencoder"]["weights"]
    biases = detector["autoencoder"]["biases"]
    Z = np.asarray(Z, dtype=np.float64)
    h = Z
    for i, (W, b) in enumerate(zip(weights, biases)):
        h = h @ np.asarray(W).T + np.asarray(b)
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return ((Z - h) ** 2).sum(axis=1)


def check_detections(
    path: Path,
    n_expected: int,
    tau: float | None = None,
    expected_scores: list[float | None] | None = None,
) -> tuple[list[str], list[bool]]:
    """One row per input row, in order, each decision equal to score > tau.

    If given, ``tau`` must be the file's threshold, and each row's score
    must match its entry of ``expected_scores`` (None: no reference) within
    SCORE_RTOL. Returns the failures and the per-row flags (True =
    adversarial).
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    rows = payload["rows"]
    failures = []
    if tau is not None and payload["tau"] != tau:
        failures.append(f"tau {payload['tau']!r}, but the detector's tau is {tau!r}")
    tau = float(payload["tau"])
    if payload["n"] != n_expected or len(rows) != n_expected:
        failures.append(
            f"expected {n_expected} rows, got n={payload['n']} and {len(rows)} rows"
        )
    flags = []
    for i, row in enumerate(rows):
        score = float(row["score"])
        expected = "adversarial" if score > tau else "clean"
        if row["sample_id"] != i:
            failures.append(f"row {i}: sample_id {row['sample_id']!r}")
        if row["decision"] != expected:
            failures.append(
                f"row {i}: decision {row['decision']!r} but score {row['score']!r} "
                f"vs tau {tau!r} gives {expected!r}"
            )
        ref = expected_scores[i] if expected_scores and i < len(expected_scores) else None
        if ref is not None and not abs(score - ref) <= SCORE_RTOL * abs(ref) + SCORE_ATOL:
            failures.append(
                f"row {i}: score {score!r}, but the batch-path fingerprint gives {ref!r}"
            )
        flags.append(expected == "adversarial")
    if payload["adversarial"] != sum(flags):
        failures.append(
            f"adversarial count {payload['adversarial']} != {sum(flags)} flagged rows"
        )
    return failures, flags


def artifact_digest(ws: Path) -> str:
    """sha256 over every (stage, artifact, sha256) entry of manifest.json.

    Stage timings are left out, so two runs with byte-identical artifacts
    give the same digest.
    """
    with open(ws / "manifest.json", encoding="utf-8") as fh:
        stages = json.load(fh)["stages"]
    lines = sorted(
        f"{stage}\t{name}\t{sha}"
        for stage, entry in stages.items()
        for name, sha in entry["artifacts"].items()
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def report_quality(ws: Path) -> dict[str, float]:
    """Detection accuracy per attack, plus pooled fpr and recall, from reports/."""
    quality: dict[str, float] = {}
    fp = tn = tp = fn = 0
    for kind in ATTACKS:
        with open(ws / "reports" / f"metrics_{kind}.json", encoding="utf-8") as fh:
            report = json.load(fh)
        quality[f"{kind}_accuracy"] = float(report["accuracy"])
        tp += report["tp"]
        fn += report["fn"]
        # The clean panel is the same for every attack; count it once.
        fp, tn = report["fp"], report["tn"]
    quality["detect_fpr"] = fp / (fp + tn) if fp + tn else 0.0
    quality["detect_recall"] = tp / (tp + fn) if tp + fn else 0.0
    return quality
