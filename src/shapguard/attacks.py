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
FILTERS = ("all", "malicious_only")

# |logit| at or below this (relative) level counts as boundary reached.
_BOUNDARY_TOL = 1e-11
_DEGENERATE_GRAD = 1e-12


class DegenerateGradientError(RuntimeError):
    """DeepFool hit a vanishing logit gradient for a sample."""


class EmptyBatchError(ValueError):
    """The attack row filter selected nothing."""


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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "steps": self.steps,
            "max_iter": self.max_iter,
            "overshoot": self.overshoot,
            "random_start": self.random_start,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackConfig":
        return cls(**payload)


@dataclass
class AdvBatch:
    """Adversarial rows paired with their clean originals and bookkeeping."""

    X_clean: np.ndarray
    X_adv: np.ndarray
    success: np.ndarray          # True iff the model label changed
    linf: np.ndarray
    l2: np.ndarray
    config: AttackConfig
    sample_index: np.ndarray     # row indices into the attacked dataset

    @property
    def n(self) -> int:
        return self.X_clean.shape[0]

    @property
    def success_rate(self) -> float:
        return float(np.mean(self.success)) if self.n else 0.0


def pgd(
    model: neural.MlpModel,
    x: np.ndarray,
    y_true: int | np.ndarray,
    cfg: AttackConfig,
) -> np.ndarray:
    """Iterated signed-gradient steps, projecting each step into the
    eps-ball and the box.

    With steps=1, alpha=epsilon and no random start this is FGSM:
    clamp(x + epsilon * sign(grad_x bce_loss), 0, 1).
    """
    if cfg.kind != "pgd":
        raise ValueError("config kind must be 'pgd'")
    x0 = np.asarray(x, dtype=np.float64)
    single = x0.ndim == 1
    X0 = x0[None, :] if single else x0
    y = np.atleast_1d(y_true)

    Xt = X0
    if cfg.random_start:
        rng = np.random.default_rng(cfg.seed)
        Xt = np.clip(X0 + rng.uniform(-cfg.epsilon, cfg.epsilon, X0.shape), 0.0, 1.0)
    for _ in range(cfg.steps):
        grad = neural.grad_input_batch(model, Xt, y)
        Xt = Xt + cfg.alpha * np.sign(grad)
        Xt = np.clip(Xt, X0 - cfg.epsilon, X0 + cfg.epsilon)
        Xt = np.clip(Xt, 0.0, 1.0)
    return Xt[0] if single else Xt


def deepfool(
    model: neural.MlpModel,
    x: np.ndarray,
    cfg: AttackConfig,
    y_true: int | None = None,
) -> tuple[np.ndarray, int]:
    """Minimal-l2 iterative push toward the logit boundary g(x) = 0.

    Repeats x <- x - (g / ||grad g||^2) grad g until the predicted label
    flips (or the boundary is reached within tolerance), then applies the
    overshoot to the accumulated perturbation and clamps into the box.
    Returns (x_adv, iterations_used). If y_true is given and the model
    already misclassifies x, returns x unchanged with 0 iterations.
    """
    if cfg.kind != "deepfool":
        raise ValueError("config kind must be 'deepfool'")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("deepfool operates on a single sample")
    _, label0 = neural.predict(model, x)
    if y_true is not None and label0 != int(y_true):
        return x.copy(), 0

    g0 = float(neural.logit(model, x))
    tol = _BOUNDARY_TOL * max(1.0, abs(g0))

    def crossed(g: float) -> bool:
        return (g > 0) != (g0 > 0) or abs(g) <= tol

    xt = x.copy()
    iters = 0
    while iters < cfg.max_iter:
        g = g0 if iters == 0 else float(neural.logit(model, xt))
        if crossed(g):
            break
        grad = neural.grad_logit_input(model, xt)
        sq_norm = float(grad @ grad)
        if sq_norm < _DEGENERATE_GRAD**2:
            raise DegenerateGradientError(
                f"vanishing logit gradient (||grad||^2 = {sq_norm:.3e})"
            )
        xt = xt - (g / sq_norm) * grad
        iters += 1
    x_adv = np.clip(x + (1.0 + cfg.overshoot) * (xt - x), 0.0, 1.0)
    return x_adv, iters


def attack_batch(
    model: neural.MlpModel,
    ds: FlowDataset,
    cfg: AttackConfig,
    row_filter: str = "malicious_only",
) -> AdvBatch:
    """Attack every selected row of a preprocessed dataset.

    malicious_only restricts to y == 1 rows (the evasion setting). Success
    is strict model-label change f(x') != f(x) at the 0.5 cutoff. The
    result is deterministic under cfg.seed.
    """
    if row_filter not in FILTERS:
        raise ValueError(f"unknown filter {row_filter!r}")
    rows = np.flatnonzero(ds.y == 1) if row_filter == "malicious_only" else np.arange(ds.n)
    if rows.size == 0:
        raise EmptyBatchError(f"filter {row_filter!r} selected no rows")

    X = ds.X[rows]
    y = ds.y[rows]
    _, orig_labels = neural.predict(model, X)

    if cfg.kind == "fgsm":
        one_step = replace(cfg, kind="pgd", alpha=cfg.epsilon, steps=1, random_start=False)
        X_adv = pgd(model, X, y, one_step)
    elif cfg.kind == "pgd":
        X_adv = pgd(model, X, y, cfg)
    else:
        X_adv = np.empty_like(X)
        for i in range(X.shape[0]):
            try:
                X_adv[i], _ = deepfool(model, X[i], cfg, y_true=int(y[i]))
            except DegenerateGradientError:
                X_adv[i] = X[i]

    _, adv_labels = neural.predict(model, X_adv)
    diff = X_adv - X
    return AdvBatch(
        X_clean=X,
        X_adv=X_adv,
        success=adv_labels != orig_labels,
        linf=np.abs(diff).max(axis=1),
        l2=np.sqrt((diff**2).sum(axis=1)),
        config=cfg,
        sample_index=rows,
    )


def save_adv_batch(
    batch: AdvBatch, feature_names: tuple[str, ...], path: str | Path
) -> None:
    """Write clean/adversarial rows as a table plus a JSON config sidecar."""
    path = Path(path)
    header = [
        "sample_index", "success", "linf", "l2",
        *(f"clean_{n}" for n in feature_names), *(f"adv_{n}" for n in feature_names),
    ]
    rows = (
        [i, success, linf, l2, *clean.tolist(), *adv.tolist()]
        for i, success, linf, l2, clean, adv in zip(
            batch.sample_index.astype(np.int64).tolist(),
            batch.success.astype(np.int64).tolist(),
            batch.linf.tolist(), batch.l2.tolist(), batch.X_clean, batch.X_adv,
        )
    )
    data.write_table(path, header, rows)
    data.write_json(path.with_suffix(".config.json"), batch.config.to_dict())


def load_adv_batch(path: str | Path) -> AdvBatch:
    path = Path(path)
    cfg = AttackConfig.from_dict(data.read_json(path.with_suffix(".config.json")))
    header, values, _ = data.read_table(path)
    m = (len(header) - 4) // 2
    return AdvBatch(
        X_clean=values[:, 4 : 4 + m].copy(),
        X_adv=values[:, 4 + m :].copy(),
        success=values[:, 1].astype(bool),
        linf=values[:, 2].copy(),
        l2=values[:, 3].copy(),
        config=cfg,
        sample_index=values[:, 0].astype(np.int64),
    )
