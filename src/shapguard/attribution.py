"""SHAP-style attribution fingerprints via the DeepLIFT rescale rule.

The explained scalar is the classifier's pre-sigmoid logit g(x). For each
background reference b, layer multipliers are the rescale ratios
(relu(z_x) - relu(z_b)) / (z_x - z_b) chained through the weights, which
makes the per-reference contributions satisfy summation-to-delta exactly:
sum_j phi_j = g(x) - g(b). Averaging over the background set then gives
completeness: phi0 + sum_j phi_j = g(x) with phi0 the mean background logit.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import neural

# Below this pre-activation delta the rescale ratio falls back to the relu
# derivative (1 if z_x > 0 else 0) to avoid 0/0.
NEAR_ZERO_DELTA = 1e-9

# Completeness gap allowed relative to max(1, |g(x)|).
COMPLETENESS_RTOL = 1e-5


class EmptySelectionError(ValueError):
    """No fingerprint rows: the class filter selected none, or a record or
    file has none."""


@dataclass(frozen=True)
class BackgroundSet:
    """Clean, preprocessed reference samples plus their provenance."""

    B: np.ndarray
    seed: int | None = None
    source: str = ""

    def __post_init__(self) -> None:
        B = np.array(self.B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] < 1:
            raise ValueError("background must be a non-empty 2-d matrix")
        if B.min() < -1e-12 or B.max() > 1.0 + 1e-12:
            raise ValueError("background entries must lie in [0, 1]")
        B.setflags(write=False)
        object.__setattr__(self, "B", B)

    @property
    def size(self) -> int:
        return self.B.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def describe(self) -> str:
        return f"{self.source} (k={self.size}, seed={self.seed})"


@dataclass(frozen=True)
class Fingerprints:
    """Fingerprints of n rows in columns: phi (n, M), the shared baseline
    phi0, the explained logits g(x) (n,), int sample ids (n,) and origin."""

    phi: np.ndarray
    phi0: float
    model_output: np.ndarray
    sample_ids: np.ndarray
    origin: str = "clean"

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=np.float64)
        model_output = np.asarray(self.model_output, dtype=np.float64)
        sample_ids = np.asarray(self.sample_ids, dtype=np.int64)
        if phi.ndim != 2 or phi.shape[0] == 0:
            raise EmptySelectionError("no fingerprints")
        if model_output.shape != (phi.shape[0],) or sample_ids.shape != model_output.shape:
            raise ValueError("model_output and sample_ids need one entry per phi row")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi0", float(self.phi0))
        object.__setattr__(self, "model_output", model_output)
        object.__setattr__(self, "sample_ids", sample_ids)

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def completeness_gaps(self) -> np.ndarray:
        return np.abs(self.phi0 + self.phi.sum(axis=1) - self.model_output)

    @property
    def max_completeness_gap(self) -> float:
        return float(self.completeness_gaps.max())

    def count_violations(self, rtol: float = COMPLETENESS_RTOL) -> int:
        allowed = rtol * np.maximum(1.0, np.abs(self.model_output))
        return int(np.count_nonzero(self.completeness_gaps > allowed))


def sample_background(
    X: np.ndarray, size: int = 100, seed: int = 0, source: str = "clean-train"
) -> BackgroundSet:
    """Uniform sample without replacement from clean rows, recorded seed."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 1:
        raise ValueError("cannot sample a background from an empty matrix")
    k = min(size, n)
    if k < size:
        warnings.warn(
            f"background size reduced from {size} to {k} (only {n} rows)",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return BackgroundSet(B=X[idx], seed=seed, source=source)


def expected_output(model: neural.MlpModel, background: BackgroundSet) -> float:
    """phi0: mean logit over the background distribution."""
    return float(np.mean(neural.logit(model, background.B)))


def shap_fingerprint(
    model: neural.MlpModel,
    x: np.ndarray,
    background: BackgroundSet,
    trace_b: neural.ForwardTrace,
) -> tuple[np.ndarray, float]:
    """Mean rescale-rule contributions of x over the background set, plus
    the explained logit g(x) read from x's own forward trace.

    trace_b is the forward trace of background.B. Against each reference
    b_k the contributions sum to g(x) - g(b_k), so completeness
    phi0 + sum(phi) = g(x) holds by linearity of the mean.
    """
    B = background.B
    _, trace_x = neural.forward(model, x[None, :])
    n_layers = len(model.weights)
    mult = np.ones((B.shape[0], 1))
    for i in reversed(range(n_layers)):
        # mult is d(logit)/d(pre-activation of layer i), per reference
        mult = mult @ model.weights[i]
        if i == 0:
            break
        zx = trace_x.pre[i - 1]            # (1, units)
        zb = trace_b.pre[i - 1]            # (K, units)
        delta = zx - zb
        small = np.abs(delta) <= NEAR_ZERO_DELTA
        ratio = (np.maximum(zx, 0.0) - np.maximum(zb, 0.0)) / np.where(
            small, 1.0, delta
        )
        ratio = np.where(small, (zx > 0).astype(np.float64), ratio)
        mult = mult * ratio
    phi = (mult * (x[None, :] - B)).mean(axis=0)
    return phi, float(trace_x.pre[-1][0, 0])


def fingerprint_batch(
    model: neural.MlpModel,
    X: np.ndarray,
    background: BackgroundSet,
    labels: np.ndarray | None = None,
    class_filter: str | None = None,
    sample_ids: np.ndarray | list | None = None,
    origin: str = "clean",
) -> Fingerprints:
    """Fingerprints of the selected rows, input order preserved.

    class_filter 'malicious' keeps rows with label 1, 'benign' keeps label
    0, None keeps everything. sample_ids defaults to row indices.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a matrix")
    if model.output_size != 1:
        raise ValueError("attribution requires a single-output model")
    if X.shape[1] != model.input_size or background.m != model.input_size:
        raise ValueError("X and the background must match the model input")
    n = X.shape[0]
    if sample_ids is None:
        sample_ids = np.arange(n)
    if len(sample_ids) != n:
        raise ValueError("sample_ids length must match X")

    if class_filter in (None, "all"):
        rows = np.arange(n)
    elif class_filter in ("malicious", "benign"):
        if labels is None:
            raise ValueError("class_filter requires labels")
        wanted = 1 if class_filter == "malicious" else 0
        rows = np.flatnonzero(np.asarray(labels) == wanted)
    else:
        raise ValueError(f"unknown class_filter {class_filter!r}")
    if rows.size == 0:
        raise EmptySelectionError(f"class_filter {class_filter!r} selected no rows")

    _, trace_b = neural.forward(model, background.B)
    phi = np.empty((rows.size, X.shape[1]))
    logits = np.empty(rows.size)
    for k, i in enumerate(rows):
        phi[k], logits[k] = shap_fingerprint(model, X[i], background, trace_b)
    return Fingerprints(
        phi=phi,
        phi0=expected_output(model, background),
        model_output=logits,
        sample_ids=np.asarray(sample_ids)[rows],
        origin=origin,
    )


def save_fingerprints(fps: Fingerprints, path: str | Path) -> None:
    """CSV columns: sample_id, phi0, phi_1..phi_M, model_output, origin.

    phi0 is repeated on every row.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    phi0 = repr(fps.phi0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_id", "phi0", *(f"phi_{j + 1}" for j in range(fps.phi.shape[1])),
             "model_output", "origin"]
        )
        for sample_id, phi, output in zip(
            fps.sample_ids.tolist(), fps.phi.tolist(), fps.model_output.tolist()
        ):
            writer.writerow(
                [sample_id, phi0, *map(repr, phi), repr(output), fps.origin]
            )


def load_fingerprints(path: str | Path) -> Fingerprints:
    """Read a file written by :func:`save_fingerprints`; its phi0 and origin
    columns must be constant."""
    path = Path(path)
    phi, outputs, sample_ids, phi0s, origins = [], [], [], set(), set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        m = len(next(reader)) - 4
        for raw in reader:
            if not raw:
                continue
            sample_ids.append(int(raw[0]))
            phi0s.add(float(raw[1]))
            phi.append(np.array([float(v) for v in raw[2 : 2 + m]]))
            outputs.append(float(raw[2 + m]))
            origins.add(raw[3 + m])
    if not phi:
        raise EmptySelectionError(f"{path}: no fingerprints")
    if len(phi0s) != 1:
        raise ValueError(f"{path}: the phi0 column is not constant")
    if len(origins) != 1:
        raise ValueError(f"{path}: the origin column is not constant")
    return Fingerprints(
        phi=np.array(phi),
        phi0=phi0s.pop(),
        model_output=np.array(outputs),
        sample_ids=np.array(sample_ids),
        origin=origins.pop(),
    )
