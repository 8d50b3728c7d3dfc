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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data, neural

# Below this pre-activation delta the rescale ratio falls back to the relu
# derivative (1 if z_x > 0 else 0) to avoid 0/0.
NEAR_ZERO_DELTA = 1e-9

# Completeness gap allowed relative to max(1, |g(x)|).
COMPLETENESS_RTOL = 1e-5

# Rows per shap_fingerprint call in fingerprint_batch. With 100 references,
# 4 measured fastest on 7,165 rows at m=39 with a (64, 32) net, on 600 rows
# at m=20 and on 200-row detect windows; 2, 3, 6, 8 and 16 were slower.
# Smaller blocks pay numpy's per-call cost more often; larger ones make
# (K, r * units) slabs that outgrow the cache.
BLOCK_ROWS = 4


@dataclass(frozen=True)
class BackgroundSet:
    """Clean, preprocessed reference samples."""

    B: np.ndarray

    def __post_init__(self) -> None:
        B = np.array(self.B, dtype=np.float64)
        if B.ndim != 2 or B.size == 0:
            raise ValueError("background must be a non-empty 2-d matrix")
        data.check_cells(B, ["box"], lambda row, col: f"background row {row}, column {col}")
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


class ReferenceSlabs:
    """The background's half of the rescale chain, laid out reference-major
    for blocks of up to ``rows`` rows.

    It runs the background's forward pass and keeps phi0, the mean
    background logit. Each slab has one row per reference and a block's
    rows side by side along its columns: B and each hidden layer's
    background pre- and post-activations are tiled to (K, rows * units), the
    top-layer weights to (1, rows * units). ``blocks[r]`` holds what a block
    of r rows reads: the slabs' first r * units columns and (K, r * units)
    views of the work buffers (delta, ratio, mult and the fallback mask),
    which every block of a batch reuses.
    """

    def __init__(self, model: neural.MlpModel, background: BackgroundSet, rows: int) -> None:
        _, trace = neural.forward(model, background.B)
        self.phi0 = float(np.mean(trace.pre[-1][:, 0]))
        K = self.K = background.size
        B = np.tile(background.B, rows)
        pre = [np.tile(z, rows) for z in trace.pre[:-1]]
        post = [np.tile(h, rows) for h in trace.post[:-1]]
        top = np.tile(model.weights[-1], rows)
        size = K * rows * max(model.spec.layer_sizes[:-1])
        delta, ratio, mult = np.empty(size), np.empty(size), np.empty(size)
        fallback = np.empty(size, dtype=bool)

        def work(buffer: np.ndarray, width: int) -> np.ndarray:
            return buffer[: K * width].reshape(K, width)

        self.blocks = {}
        for r in range(1, rows + 1):
            layers = []
            for i in reversed(range(len(model.weights) - 1)):
                W = model.weights[i]
                width = r * W.shape[0]
                layers.append((
                    W, pre[i][:, :width], post[i][:, :width], work(delta, width),
                    work(ratio, width), work(fallback, width), work(mult, r * W.shape[1]),
                ))
            width = r * model.input_size
            self.blocks[r] = (top[:, : r * model.weights[-1].shape[1]], layers,
                              B[:, :width], work(delta, width))


def shap_fingerprint(
    model: neural.MlpModel, X: np.ndarray, slabs: ReferenceSlabs
) -> tuple[np.ndarray, np.ndarray]:
    """Mean rescale-rule contributions (r, M) of the C-ordered rows X (r, M)
    over the background set, plus their explained logits g(x) (r,).

    r is at most the rows slabs was tiled for, and the rows are forwarded
    as one (r, 1, M) stack. Call it under np.errstate(divide="ignore",
    invalid="ignore"), as fingerprint_batch does: a zero delta divides by
    zero before the fallback replaces its ratio. Against each
    reference b_k a row's contributions sum to g(x) - g(b_k), so
    completeness phi0 + sum(phi) = g(x) holds by linearity of the mean.
    Every elementwise op runs on (K, r * units) slabs with the same float op
    per row and reference, the (K * r, units) products run row by row, and
    the sum over references runs in reference order, so each row's result
    is bitwise that of the row alone, whatever rows share its block.
    """
    r, K = X.shape[0], slabs.K
    _, trace = neural.forward(model, X[:, None, :])
    # mult is d(logit)/d(post-activation of a layer), per reference and row
    mult, layers, B, terms = slabs.blocks[r]
    for (W, zb, hb, delta, ratio, fallback, below), zx, hx in zip(
            layers, reversed(trace.pre[:-1]), reversed(trace.post[:-1])):
        zx = zx.reshape(1, -1)
        np.subtract(zx, zb, out=delta)
        np.subtract(hx.reshape(1, -1), hb, out=ratio)
        np.divide(ratio, delta, out=ratio)
        np.less_equal(np.abs(delta, out=delta), NEAR_ZERO_DELTA, out=fallback)
        np.copyto(ratio, zx > 0, where=fallback)
        np.multiply(mult, ratio, out=ratio)
        np.matmul(ratio.reshape(K * r, -1), W, out=below.reshape(K * r, -1))
        mult = below
    np.subtract(X.reshape(1, -1), B, out=terms)
    np.multiply(terms, mult, out=terms)
    phi = terms.sum(axis=0).reshape(r, -1) / K
    return phi, trace.pre[-1][:, 0, 0]


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
    # any other layout is copied to C order: a product can round a row of a
    # strided stack differently
    X = np.ascontiguousarray(X, dtype=np.float64)
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

    # numpy sums a lone column pairwise, not in reference order; one-row
    # blocks keep a one-feature model's sums those of a row alone.
    rows = BLOCK_ROWS if model.input_size > 1 else 1
    # the same weights with a linear output: the rescale chain reads only
    # pre-activations, so the forwards skip the sigmoid
    model = neural.MlpModel(replace(model.spec, output_activation="linear"),
                            model.weights, model.biases)
    slabs = ReferenceSlabs(model, background, rows)
    phi = np.empty(X.shape)
    logits = np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            phi[block], logits[block] = shap_fingerprint(model, X[block], slabs)
    return Fingerprints(
        phi=phi, phi0=slabs.phi0, model_output=logits, sample_ids=sample_ids, origin=origin
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
    """Read a file written by :func:`save_fingerprints`, with its header
    and a data row, as :func:`data.read_table` checks; its phi0 and origin
    columns must be constant, and every sample_id a whole number >= 0."""
    header, values, text = data.read_table(
        path, text=("origin",), rules={"sample_id": "whole"}, columns=lambda header: [
            "sample_id", "phi0", *(f"phi_{j}" for j in range(1, len(header) - 3)),
            "model_output", "origin"])
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
