"""Seeded CIC-IoT2023-shaped flow CSVs, generated by the benchmark itself.

The benchmark owns this generator (it does not call ``data.synth_generate``)
so that a change to the program cannot change the inputs of the CSV
workloads. Rows are drawn from one Gaussian cluster per traffic class in a
latent [0, 1] space, then mapped to raw units: flag and protocol columns
become 0/1 indicators, every other column gets its own affine scale. A
small fixed share of rows carries an inf or NaN cell, which ingest must
drop.

The traffic is the benchmark's own choice, not a model of CIC-IoT2023: the
class mix (40% benign, 60% attack over five attack classes), the class
separation and the noise are arbitrary, fixed so that the classifier
learns and the attacks partly succeed. They were not tuned against any
detection result. The published CIC-IoT2023 data is mostly attack traffic;
the stages that handle malicious rows only (the attacks, fingerprinting of
the clean splits and detector training) process rows in proportion to the
attack share, so a larger share would make those stages heavier.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# CIC-IoT2023 flow features in canonical column order; kept here rather than
# imported so the inputs do not depend on the program under test.
CIC_FEATURES: tuple[str, ...] = (
    "Header_Length", "Protocol Type", "Time_To_Live", "Rate",
    "fin_flag_number", "syn_flag_number", "rst_flag_number", "psh_flag_number",
    "ack_flag_number", "ece_flag_number", "cwr_flag_number",
    "ack_count", "syn_count", "fin_count", "rst_count",
    "HTTP", "HTTPS", "DNS", "Telnet", "SMTP", "SSH", "IRC", "TCP", "UDP",
    "DHCP", "ARP", "ICMP", "IGMP", "IPv", "LLC",
    "Tot sum", "Min", "Max", "AVG", "Std", "Tot size", "IAT", "Number",
    "Variance",
)

# 0/1 indicator columns: the TCP flag numbers and the protocol indicators.
INDICATOR_COLUMNS = frozenset(range(4, 11)) | frozenset(range(15, 30))

BENIGN_LABEL = "BenignTraffic"
# (label, share of rows); shares sum to 1. Arbitrary, see above.
CLASSES: tuple[tuple[str, float], ...] = (
    (BENIGN_LABEL, 0.40),
    ("DDoS-ICMP_Flood", 0.12),
    ("DDoS-UDP_Flood", 0.12),
    ("DoS-TCP_Flood", 0.12),
    ("Mirai-greeth_flood", 0.12),
    ("Recon-PortScan", 0.12),
)

# Share of rows given one non-finite cell, and the columns that get it.
NONFINITE_SHARE = 0.005
NONFINITE_COLUMNS = ("Rate", "Std", "Variance")

# Distance of each attack centre from the benign centre, and the per-cell
# noise, in the latent [0, 1] space. Arbitrary, see above.
_CLASS_SEPARATION = 0.8
_NOISE = 0.12


def generate(n_rows: int, seed: int) -> tuple[list[str], np.ndarray, int]:
    """Return (labels, raw feature matrix, non-finite row count)."""
    if n_rows < len(CLASSES):
        raise ValueError(f"need at least {len(CLASSES)} rows")
    rng = np.random.default_rng([seed, n_rows])
    m = len(CIC_FEATURES)

    counts = [int(n_rows * share) for _, share in CLASSES]
    counts[0] += n_rows - sum(counts)
    benign_centre = rng.uniform(0.3, 0.7, m)
    centres = [benign_centre]
    for _ in CLASSES[1:]:
        direction = rng.standard_normal(m)
        centres.append(benign_centre + _CLASS_SEPARATION * direction / np.linalg.norm(direction))

    class_of_row = np.repeat(np.arange(len(CLASSES)), counts)
    rng.shuffle(class_of_row)
    latent = np.stack(centres)[class_of_row] + _NOISE * rng.standard_normal((n_rows, m))

    scale = 10.0 ** rng.uniform(0.0, 5.0, m)
    offset = 10.0 ** rng.uniform(-1.0, 2.0, m)
    raw = offset + scale * np.clip(latent, 0.0, None)
    for j in INDICATOR_COLUMNS:
        raw[:, j] = (latent[:, j] > 0.5).astype(np.float64)

    n_bad = max(1, round(NONFINITE_SHARE * n_rows))
    bad_rows = rng.choice(n_rows, size=n_bad, replace=False)
    bad_cols = [CIC_FEATURES.index(c) for c in NONFINITE_COLUMNS]
    for k, row in enumerate(bad_rows):
        raw[row, bad_cols[k % len(bad_cols)]] = (np.inf, np.nan)[k % 2]

    labels = [CLASSES[c][0] for c in class_of_row]
    return labels, raw, n_bad


def write_csv(path: Path, n_rows: int, seed: int) -> dict:
    """Write a generated flow CSV; return its row counts and sha256."""
    labels, raw, n_bad = generate(n_rows, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join([*CIC_FEATURES, "label"])]
    for values, label in zip(raw.tolist(), labels):
        lines.append(",".join([*(f"{v:.6g}" for v in values), label]))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(payload)
    return {
        "path": str(path),
        "rows": n_rows,
        "nonfinite_rows": n_bad,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
