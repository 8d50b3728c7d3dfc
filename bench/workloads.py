"""The benchmark's workloads: their untimed set-up and the CLI calls they time.

Set-up runs in a fresh process of its own, so that it does not set the
timed process's peak memory:

    python3 bench/workloads.py WORKLOAD SEED

It prints one JSON line describing what it prepared. Every path it writes
or prints is relative to the checkout root, so artifact digests do not
depend on where the checkout lives.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")

WORKLOADS = ("pipeline-cic39", "pipeline-default", "detect-windows")
# Set-ups per run, as (before, after) the timed calls; setup_s is their
# median. Splitting them spreads them over the run, so that one slow phase
# of the machine does not cover all of them. detect-windows trains a
# workspace in each, so it repeats fewer times.
SETUP_REPEATS = {"pipeline-cic39": (3, 3), "pipeline-default": (3, 3), "detect-windows": (2, 1)}

CIC39_ROWS = 20_000
DETECT_WORKSPACE_ROWS = 10_000
N_WINDOWS = 16
WINDOW_CLEAN_ROWS = 100
WINDOW_ADV_ROWS = 100


def load_program():
    """Import the checkout's own ``shapguard.cli`` from ``src/``."""
    src = ROOT / "src"
    if not (src / "shapguard" / "__init__.py").is_file():
        raise SystemExit(f"bench: program source not found under {src}")
    sys.path.insert(0, str(src))
    import shapguard.cli

    found = Path(shapguard.__file__).resolve().parent
    if found != (src / "shapguard").resolve():
        raise SystemExit(f"bench: imported shapguard from {found}, not from {src}")
    return shapguard.cli


def workdir(workload: str) -> Path:
    return WORK / workload


def argv_for(workload: str, seed: int, call: int, prepared: dict) -> list[str]:
    """CLI arguments of the workload's ``call``-th timed operation."""
    ws = str(workdir(workload) / "ws")
    if workload == "pipeline-default":
        return ["run-all", "--out", ws, "--seed", str(seed)]
    if workload == "pipeline-cic39":
        return ["run-all", "--config", prepared["config"], "--out", ws]
    window = prepared["windows"][call % len(prepared["windows"])]
    return ["detect", "--config", prepared["config"], "--out", ws, "--input", window["path"]]


def _write_config(path: Path, csv_path: Path, seed: int) -> None:
    cfg = {"seed": seed, "data": {"source": "csv", "csv": {"path": str(csv_path)}}}
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def _write_windows(ws: Path, out: Path, seed: int) -> list[dict]:
    """Windows of scaled rows mixing clean test rows with adversarial rows.

    Rows keep their exact text from the workspace's own artifacts. The
    label column is the row's class (detect ignores it); the truth the
    benchmark scores against is returned separately, with each row's
    expected detect score: the reconstruction error, under the workspace's
    autoencoder, of the row's batch-path fingerprint from ``fingerprints/``
    (None for benign clean rows, which the clean panel does not cover).
    """
    rng = np.random.default_rng([seed, 1])
    header, test = _read_rows(ws / "data" / "test.csv")
    m = len(header) - 1
    clean_pick = rng.permutation(len(test))
    phis = {"clean": checks.fingerprint_phis(ws / "fingerprints" / "clean_test.csv")}
    adv_pools = {}
    for kind in checks.ATTACKS:
        adv_header, rows = _read_rows(ws / "attacks" / f"{kind}.csv")
        first_adv = len(adv_header) - m
        adv_pools[kind] = (rows, first_adv, rng.permutation(len(rows)))
        phis[kind] = checks.fingerprint_phis(ws / "fingerprints" / f"{kind}.csv")
    with open(ws / "detector" / "detector.json", encoding="utf-8") as fh:
        det = json.load(fh)

    windows = []
    per_kind = [WINDOW_ADV_ROWS // 3 + (i < WINDOW_ADV_ROWS % 3) for i in range(3)]
    for w in range(N_WINDOWS):
        # (row text, origin, test-split index of the row)
        rows: list[tuple[list[str], str, int]] = []
        for i in clean_pick[w * WINDOW_CLEAN_ROWS : (w + 1) * WINDOW_CLEAN_ROWS]:
            rows.append((test[i], "clean", int(i)))
        for kind, count in zip(checks.ATTACKS, per_kind):
            pool, first_adv, order = adv_pools[kind]
            for i in order[w * count : (w + 1) * count]:
                # Attacked rows are malicious test rows (label 1).
                rows.append(([*pool[i][first_adv:], "1"], kind, int(pool[i][0])))
        rows = [rows[i] for i in rng.permutation(len(rows))]
        path = out / f"window_{w:02d}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(row for row, _, _ in rows)
        known = [k for k, (_, origin, i) in enumerate(rows) if i in phis[origin]]
        scores = checks.reconstruction_errors(
            det, np.array([phis[rows[k][1]][rows[k][2]] for k in known])
        )
        expected: list[float | None] = [None] * len(rows)
        for k, score in zip(known, scores.tolist()):
            expected[k] = score
        windows.append({
            "path": str(path),
            "truth": [origin for _, origin, _ in rows],
            "expected_scores": expected,
        })
    return windows


def prepare(workload: str, seed: int) -> dict:
    """Build the workload's inputs under its work directory; describe them."""
    if workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {workload!r}")
    cli = load_program()
    work = workdir(workload)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepared: dict = {"inputs": []}
    if workload == "pipeline-default":
        return prepared

    rows = CIC39_ROWS if workload == "pipeline-cic39" else DETECT_WORKSPACE_ROWS
    csv_path = work / "flows.csv"
    prepared["inputs"].append(inputs.write_csv(csv_path, rows, seed))
    prepared["config"] = str(work / "config.json")
    _write_config(Path(prepared["config"]), csv_path, seed)
    if workload == "pipeline-cic39":
        return prepared

    ws = work / "ws"
    code = cli.main(["run-all", "--config", prepared["config"], "--out", str(ws)])
    if code != 0:
        raise SystemExit(f"bench: set-up run-all exited {code}")
    failures, max_gap = checks.check_fingerprints(ws)
    if failures:
        raise SystemExit("bench: set-up workspace failed checks: " + "; ".join(failures))
    windows_dir = work / "windows"
    windows_dir.mkdir()
    with open(ws / "detector" / "detector.json", encoding="utf-8") as fh:
        tau = json.load(fh)["tau"]
    prepared.update(
        workspace_digest=checks.artifact_digest(ws),
        tau=tau,
        max_completeness_gap=max_gap,
        windows=_write_windows(ws, windows_dir, seed),
    )
    return prepared


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: python3 bench/workloads.py WORKLOAD SEED")
    result = prepare(sys.argv[1], int(sys.argv[2]))
    print(json.dumps(result))
