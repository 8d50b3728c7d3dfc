"""SHAP-style attribution fingerprints via the DeepLIFT rescale rule.

The explained scalar is the classifier's pre-sigmoid logit g(x). For each
background reference b, layer multipliers are the rescale ratios
(relu(z_x) - relu(z_b)) / (z_x - z_b) chained through the weights, which
makes the per-reference contributions satisfy summation-to-delta exactly:
sum_j phi_j = g(x) - g(b). Averaging over the background set then gives
completeness: phi0 + sum_j phi_j = g(x) with phi0 the mean background logit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data, neural

# Below this pre-activation delta the rescale ratio falls back to the relu
# derivative (1 if z_x > 0 else 0) to avoid 0/0.
NEAR_ZERO_DELTA = 1e-9

# Completeness gap allowed relative to max(1, |g(x)|).
COMPLETENESS_RTOL = 1e-5

# Rows per shap_fingerprint call in fingerprint_batch; at m=39, 100
# references and a (64, 32) net, 4 measured fastest (1, 2, 8-32 slower).
BLOCK_ROWS = 4


@dataclass(frozen=True)
class BackgroundSet:
    """Clean, preprocessed reference samples."""

    B: np.ndarray

    def __post_init__(self) -> None:
        B = np.array(self.B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] < 1:
            raise ValueError("background must be a non-empty 2-d matrix")
        if B.min() < -data.BOX_TOL or B.max() > 1.0 + data.BOX_TOL:
            raise ValueError("background entries must lie in [0, 1]")
        B.setflags(write=False)
        object.__setattr__(self, "B", B)

    @property
    def size(self) -> int:
        return self.B.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


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
            raise ValueError("no fingerprints")
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

    def count_violations(self) -> int:
        allowed = COMPLETENESS_RTOL * np.maximum(1.0, np.abs(self.model_output))
        # a NaN gap is a violation too
        return int(np.count_nonzero(~(self.completeness_gaps <= allowed)))


def sample_background(X: np.ndarray, size: int = 100, seed: int = 0) -> BackgroundSet:
    """Uniform sample of min(size, len(X)) rows without replacement, in
    row order; a warning when there are fewer than size rows."""
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
    return BackgroundSet(B=X[idx])


def shap_fingerprint(
    model: neural.MlpModel,
    X_block: np.ndarray,
    background: BackgroundSet,
    trace_b: neural.ForwardTrace,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean rescale-rule contributions (r, M) of each row of X_block over
    the background set, plus the explained logits g(x) (r,) read from the
    rows' own forward traces.

    trace_b is the forward trace of background.B. Against each reference
    b_k a row's contributions sum to g(x) - g(b_k), so completeness
    phi0 + sum(phi) = g(x) holds by linearity of the mean. The rows go
    through one stacked forward pass and the chain runs over (rows,
    references, units) with the same float ops per row, so each row's
    result is bitwise that of the row alone, whatever rows share its block.
    """
    B = background.B
    r, K = X_block.shape[0], B.shape[0]
    _, trace_x = neural.forward(model, X_block[:, None, :])
    W_last = model.weights[-1]
    mult = np.broadcast_to(W_last, (r * K, W_last.shape[1]))
    for i in reversed(range(len(model.weights) - 1)):
        # mult is d(logit)/d(post-activation of layer i), per row and reference
        zx = trace_x.pre[i]            # (r, 1, units)
        delta = zx - trace_b.pre[i]    # (r, K, units)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (trace_x.post[i] - trace_b.post[i]) / delta
        np.copyto(ratio, zx > 0, where=np.abs(delta) <= NEAR_ZERO_DELTA)
        mult = (mult.reshape(ratio.shape) * ratio).reshape(r * K, -1) @ model.weights[i]
    phi = ((X_block[:, None, :] - B) * mult.reshape(r, K, -1)).sum(axis=1) / K
    return phi, trace_x.pre[-1][:, 0, 0]


def fingerprint_batch(
    model: neural.MlpModel,
    X: np.ndarray,
    background: BackgroundSet,
    sample_ids: np.ndarray | list | None = None,
    origin: str = "clean",
) -> Fingerprints:
    """Fingerprints of every row of X, input order preserved.

    A row's fingerprint does not depend on the other rows passed with it,
    so callers select rows by slicing X. sample_ids defaults to row indices.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a matrix")
    if model.output_size != 1:
        raise ValueError("attribution requires a single-output model")
    if X.shape[1] != model.input_size or background.m != model.input_size:
        raise ValueError(f"X has {X.shape[1]} features, the background {background.m}, "
                         f"the model {model.input_size}")
    n = X.shape[0]
    if sample_ids is None:
        sample_ids = np.arange(n)
    if len(sample_ids) != n:
        raise ValueError("sample_ids length must match X")

    _, trace_b = neural.forward(model, background.B)
    phi = np.empty(X.shape)
    logits = np.empty(n)
    for start in range(0, n, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        # a fresh, aligned copy per block, whatever the layout of X
        phi[block], logits[block] = shap_fingerprint(
            model, X[block].copy(), background, trace_b
        )
    return Fingerprints(
        phi=phi,
        phi0=float(np.mean(trace_b.pre[-1][:, 0])),  # the mean background logit
        model_output=logits,
        sample_ids=sample_ids,
        origin=origin,
    )


def save_fingerprints(fps: Fingerprints, path: str | Path) -> Path:
    """Table columns: sample_id, phi0, phi_1..phi_M, model_output, origin.

    phi0 is repeated on every row. Returns the path written.
    """
    header = [
        "sample_id", "phi0", *(f"phi_{j + 1}" for j in range(fps.phi.shape[1])),
        "model_output", "origin",
    ]
    rows = (
        [sample_id, fps.phi0, *phi.tolist(), output, fps.origin]
        for sample_id, phi, output in zip(
            fps.sample_ids.tolist(), fps.phi, fps.model_output.tolist()
        )
    )
    return data.write_table(path, header, rows)


def load_fingerprints(path: str | Path) -> Fingerprints:
    """Read a file written by :func:`save_fingerprints`; its phi0 and origin
    columns must be constant."""
    header, values, text = data.read_table(path, text=("origin",))
    if not len(values):
        raise ValueError(f"{path}: no fingerprints")
    m = len(header) - 4
    if np.unique(values[:, 1]).size != 1:
        raise ValueError(f"{path}: the phi0 column is not constant")
    if len(set(text["origin"])) != 1:
        raise ValueError(f"{path}: the origin column is not constant")
    return Fingerprints(
        phi=values[:, 2 : 2 + m].copy(),
        phi0=values[0, 1],
        model_output=values[:, 2 + m].copy(),
        sample_ids=values[:, 0].astype(np.int64),
        origin=text["origin"][0],
    )
