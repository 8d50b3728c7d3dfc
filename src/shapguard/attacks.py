"""White-box evasion attacks against the flow classifier: FGSM, PGD, DeepFool.

All attacks operate in scaled feature space and clamp results into the
[0, 1] box. FGSM/PGD use an l-inf budget epsilon (FGSM runs as one PGD step
of size epsilon); DeepFool seeks the minimal l2 step to the logit decision
boundary g(x) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data, neural
from .data import FlowDataset

ATTACK_KINDS = ("fgsm", "pgd", "deepfool")

# |logit| at or below this (relative) level counts as boundary reached.
_BOUNDARY_TOL = 1e-11
_DEGENERATE_GRAD = 1e-12


@dataclass(frozen=True)
class AttackConfig:
    kind: str
    epsilon: float = 0.1
    alpha: float = 0.01
    steps: int = 40
    max_iter: int = 50
    overshoot: float = 0.02
    random_start: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.kind in ("fgsm", "pgd") and self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.kind == "pgd":
            if not 0 < self.alpha <= self.epsilon:
                raise ValueError("pgd needs 0 < alpha <= epsilon")
            if self.steps < 1:
                raise ValueError("pgd needs steps >= 1")
        if self.kind == "deepfool":
            if self.max_iter < 1:
                raise ValueError("deepfool needs max_iter >= 1")
            if self.overshoot < 0:
                raise ValueError("overshoot must be >= 0")


@dataclass
class AdvBatch:
    """Adversarial rows plus bookkeeping; the clean originals are the
    attacked dataset's rows at sample_index."""

    X_adv: np.ndarray
    success: np.ndarray          # True iff the model label changed
    linf: np.ndarray             # ||x' - x||_inf against the clean row
    l2: np.ndarray               # ||x' - x||_2 against the clean row
    sample_index: np.ndarray     # row indices into the attacked dataset
    # DeepFool rows left at their clean value because the logit gradient
    # vanished; reported in the stage manifest, not saved with the batch.
    degenerate_rows: int = 0

    @property
    def n(self) -> int:
        return self.X_adv.shape[0]

    @property
    def success_rate(self) -> float:
        return float(np.mean(self.success)) if self.n else 0.0


def pgd(
    model: neural.MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    cfg: AttackConfig,
) -> np.ndarray:
    """Iterated signed-gradient steps on a matrix of rows, projecting each
    step into the eps-ball and the box.

    A step moves each row by alpha along (1 - 2y) * sign(grad_x g), g the
    logit: the sign of the bce loss gradient (p - y) * grad_x g wherever
    that is non-zero, and still a step where the sigmoid saturates and
    p - y rounds to 0. With steps=1, alpha=epsilon and no random start this
    is FGSM: clamp(x + epsilon * (1 - 2y) * sign(grad_x g), 0, 1).
    Every row of X must lie in the [0, 1] box, as :func:`attack_batch`
    checks: a row outside it comes back in the box, further than epsilon
    from X.
    """
    if cfg.kind != "pgd":
        raise ValueError("config kind must be 'pgd'")
    X0 = np.asarray(X, dtype=np.float64)
    Xt = X0
    if cfg.random_start:
        rng = np.random.default_rng(cfg.seed)
        Xt = np.clip(X0 + rng.uniform(-cfg.epsilon, cfg.epsilon, X0.shape), 0.0, 1.0)
    ascent = (1.0 - 2.0 * np.asarray(y, dtype=np.float64))[:, None]
    # the ball's bounds clamped into the box: one clamp to them equals both
    lo = np.clip(X0 - cfg.epsilon, 0.0, 1.0)
    hi = np.clip(X0 + cfg.epsilon, 0.0, 1.0)
    for _ in range(cfg.steps):
        # grad stays bound until the next step's gradient replaces it; freed
        # at once, it let glibc trim the heap every step (a fresh process
        # attacking 2,388 cic39 rows took 71,000 page faults against 2,400).
        _, grad = neural.grad_logit_input(model, Xt)
        Xt = np.clip(Xt + cfg.alpha * (ascent * np.sign(grad)), lo, hi)
    return Xt


def deepfool(
    model: neural.MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    cfg: AttackConfig,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Minimal-l2 iterative push of each row toward the logit boundary g = 0.

    Repeats x <- x - (g / ||grad g||^2) grad g on every row that has not
    yet crossed (sign flip, or |g| within tolerance of 0), at most
    cfg.max_iter times, then applies the overshoot to the accumulated
    perturbation and clamps into the box. Rows the model already
    misclassifies, and degenerate rows whose logit gradient vanishes, are
    returned unchanged. Every product runs on an (a, 1, m) stack, so a
    row's result is bitwise that of attacking it alone. Returns (X_adv,
    total iterations over all rows, degenerate-row mask). Every row of X
    must lie in the [0, 1] box, as :func:`attack_batch` checks.
    """
    if cfg.kind != "deepfool":
        raise ValueError("config kind must be 'deepfool'")
    if model.spec.output_activation != "sigmoid":
        raise ValueError("deepfool requires a sigmoid-output model")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a matrix of rows, got shape {X.shape}")
    prob, trace = neural.forward(model, X[:, None, :])
    g0 = trace.pre[-1][:, 0, 0]
    # label is 1 iff probability > 0.5, as in neural.predict
    misclassified = (prob[:, 0, 0] > 0.5).astype(np.int64) != np.asarray(y)
    tol = _BOUNDARY_TOL * np.maximum(1.0, np.abs(g0))
    degenerate = np.zeros(X.shape[0], dtype=bool)

    Xt = X.copy()
    active = np.flatnonzero(~misclassified)
    iters = 0
    for _ in range(cfg.max_iter):
        if active.size == 0:
            break
        g, grad = neural.grad_logit_input(model, Xt[active][:, None, :])
        crossed = ((g > 0) != (g0[active] > 0)) | (np.abs(g) <= tol[active])
        active, g, grad = active[~crossed], g[~crossed], grad[~crossed]
        # (a, 1, m) @ (a, m, 1) is bitwise each row's grad @ grad
        sq_norm = (grad @ grad.transpose(0, 2, 1))[:, 0, 0]
        flat = sq_norm < _DEGENERATE_GRAD**2
        degenerate[active[flat]] = True
        active, g, grad, sq_norm = active[~flat], g[~flat], grad[~flat, 0], sq_norm[~flat]
        Xt[active] -= (g / sq_norm)[:, None] * grad
        iters += active.size
    X_adv = np.clip(X + (1.0 + cfg.overshoot) * (Xt - X), 0.0, 1.0)
    unchanged = misclassified | degenerate
    X_adv[unchanged] = X[unchanged]
    return X_adv, iters, degenerate


def attack_batch(model: neural.MlpModel, ds: FlowDataset, cfg: AttackConfig) -> AdvBatch:
    """Attack every malicious (y == 1) row of a preprocessed dataset, in row
    order: the evasion setting, and the rows fingerprint-clean explains.

    Success is strict model-label change f(x') != f(x) at the 0.5 cutoff.
    The result is deterministic under cfg.seed. A malicious row with a cell
    outside the [0, 1] box (by more than data.BOX_TOL, or NaN) is a
    ValueError naming its row and feature, raised before any attack runs.
    """
    rows = np.flatnonzero(ds.y == 1)
    if rows.size == 0:
        raise ValueError("no malicious rows to attack")

    X = ds.X[rows]
    y = ds.y[rows]
    outside, in_box = data.CELL_RULES["box"]
    bad = outside(X)
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), X.shape[1])
        raise ValueError(f"row {rows[row]}, feature {ds.schema.names[col]!r}: "
                         f"{float(X[row, col])!r} is not {in_box}")
    _, orig_labels = neural.predict(model, X)

    degenerate_rows = 0
    if cfg.kind == "fgsm":
        one_step = replace(cfg, kind="pgd", alpha=cfg.epsilon, steps=1, random_start=False)
        X_adv = pgd(model, X, y, one_step)
    elif cfg.kind == "pgd":
        X_adv = pgd(model, X, y, cfg)
    else:
        X_adv, _, degenerate = deepfool(model, X, y, cfg)
        degenerate_rows = int(degenerate.sum())

    _, adv_labels = neural.predict(model, X_adv)
    diff = X_adv - X
    return AdvBatch(
        X_adv=X_adv,
        success=adv_labels != orig_labels,
        linf=np.abs(diff).max(axis=1),
        l2=np.sqrt((diff**2).sum(axis=1)),
        sample_index=rows,
        degenerate_rows=degenerate_rows,
    )


def save_adv_batch(
    batch: AdvBatch, feature_names: tuple[str, ...], path: str | Path
) -> Path:
    """Write the adversarial rows as a table; returns the path written.

    Columns: sample_index, success, linf, l2, adv_<feature>... The clean
    rows are not stored: they are the attacked split at sample_index.
    """
    header = ["sample_index", "success", "linf", "l2", *(f"adv_{n}" for n in feature_names)]
    rows = (
        [i, success, linf, l2, *adv.tolist()]
        for i, success, linf, l2, adv in zip(
            batch.sample_index.astype(np.int64).tolist(),
            batch.success.astype(np.int64).tolist(),
            batch.linf.tolist(), batch.l2.tolist(), batch.X_adv,
        )
    )
    return data.write_table(path, header, rows)


def load_adv_batch(path: str | Path) -> AdvBatch:
    """Read a file written by :func:`save_adv_batch`, with its header (any
    feature names after adv_), its adv_ cells in the box, and at least one row."""
    _, values, _ = data.read_table(
        path, rules={"sample_index": "whole", "success": "binary", "linf": "finite",
                     "l2": "finite", "*": "box"},
        columns=lambda header: ["sample_index", "success", "linf", "l2",
                                *(f"adv_{name.removeprefix('adv_')}" for name in header[4:])])
    if not len(values):
        raise ValueError(f"{path}: no data rows")
    return AdvBatch(
        X_adv=values[:, 4:].copy(),
        success=values[:, 1].astype(bool),
        linf=values[:, 2].copy(),
        l2=values[:, 3].copy(),
        sample_index=values[:, 0].astype(np.int64),
    )
