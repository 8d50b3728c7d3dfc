"""Unsupervised adversarial detector over attribution fingerprints.

A symmetric autoencoder is trained on fingerprints of clean samples with the
mean squared reconstruction objective. At inference the squared l2
reconstruction error s of a fingerprint is compared against a threshold tau
calibrated on clean validation fingerprints: s <= tau is clean, s > tau is
adversarial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import neural

CALIBRATION_METHODS = ("percentile", "sigma")
SIGMA_MULTIPLIERS = (2.0, 3.0)


class CalibrationError(ValueError):
    """Threshold calibration got unusable inputs."""


class NotCalibratedError(RuntimeError):
    """detect() was called before a threshold was calibrated."""


@dataclass(frozen=True)
class CalibrationMethod:
    """percentile: empirical percentile in (0, 100); sigma: mean + k * std."""

    method: str = "percentile"
    parameter: float = 99.0

    def __post_init__(self) -> None:
        if self.method not in CALIBRATION_METHODS:
            raise ValueError(f"unknown calibration method {self.method!r}")
        if self.method == "percentile" and not 0 < self.parameter < 100:
            raise ValueError("percentile parameter must be in (0, 100)")
        if self.method == "sigma" and self.parameter not in SIGMA_MULTIPLIERS:
            raise ValueError(f"sigma multiplier must be one of {SIGMA_MULTIPLIERS}")


@dataclass
class CalibrationRecord:
    """How tau was obtained, plus a summary of the validation errors."""

    method: CalibrationMethod
    n_samples: int
    error_mean: float
    error_std: float
    error_min: float
    error_max: float

    def to_dict(self) -> dict:
        return {
            "method": self.method.method,
            "parameter": self.method.parameter,
            "n_samples": self.n_samples,
            "error_mean": self.error_mean,
            "error_std": self.error_std,
            "error_min": self.error_min,
            "error_max": self.error_max,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationRecord":
        return cls(
            method=CalibrationMethod(payload["method"], payload["parameter"]),
            n_samples=payload["n_samples"],
            error_mean=payload["error_mean"],
            error_std=payload["error_std"],
            error_min=payload["error_min"],
            error_max=payload["error_max"],
        )


@dataclass
class DetectorModel:
    autoencoder: neural.MlpModel
    tau: float | None = None
    calibration: CalibrationRecord | None = None
    background_ref: str = ""

    @property
    def is_calibrated(self) -> bool:
        return self.tau is not None


def autoencoder_spec(
    m: int,
    hidden_sizes: tuple[int, ...] = (32, 16),
    latent: int = 8,
    seed: int = 0,
) -> neural.MlpSpec:
    """Symmetric encoder/decoder sizes [m, hidden..., latent, ...hidden, m]."""
    if latent >= m:
        raise ValueError(f"latent size {latent} must be smaller than input {m}")
    sizes = (m, *hidden_sizes, latent, *reversed(hidden_sizes), m)
    return neural.MlpSpec(
        layer_sizes=sizes,
        hidden_activation="relu",
        output_activation="linear",
        seed=seed,
    )


def train_autoencoder(
    Z_clean: np.ndarray,
    cfg: neural.TrainConfig,
    latent: int = 8,
    hidden_sizes: tuple[int, ...] = (32, 16),
    init_seed: int = 0,
) -> tuple[neural.MlpModel, list[float]]:
    """Train the reconstruction autoencoder on clean fingerprints (targets
    equal inputs, mse loss). Returns the model and per-epoch loss history."""
    Z = np.asarray(Z_clean, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 2:
        raise ValueError("need a fingerprint matrix with at least 2 rows")
    if cfg.loss != "mse":
        raise ValueError("the autoencoder objective is mse")
    spec = autoencoder_spec(Z.shape[1], hidden_sizes, latent, seed=init_seed)
    model = neural.init(spec)
    return neural.train(model, Z, Z, cfg)


def reconstruction_errors(
    ae: neural.MlpModel, Z: np.ndarray
) -> np.ndarray | float:
    """s = ||z - A(z)||_2^2 per fingerprint row of Z; a float for one vector."""
    Z = np.asarray(Z, dtype=np.float64)
    out, _ = neural.forward(ae, Z)
    squared = (Z - out) ** 2
    return float(squared.sum()) if Z.ndim == 1 else squared.sum(axis=1)


def calibrate_threshold(
    errors_clean_val: np.ndarray, method: CalibrationMethod
) -> float:
    """Percentile with linear interpolation, or mean + k * population std."""
    e = np.asarray(errors_clean_val, dtype=np.float64)
    if e.size < 10:
        raise CalibrationError(f"need at least 10 calibration errors, got {e.size}")
    if not np.isfinite(e).all() or (e < 0).any():
        raise CalibrationError("calibration errors must be finite and >= 0")
    if method.method == "percentile":
        return float(np.percentile(e, method.parameter))
    return float(e.mean() + method.parameter * e.std())


def calibrate(
    det: DetectorModel,
    errors_clean_val: np.ndarray,
    method: CalibrationMethod,
    background_ref: str | None = None,
) -> DetectorModel:
    """Return a calibrated copy of the detector with tau and its record."""
    e = np.asarray(errors_clean_val, dtype=np.float64)
    tau = calibrate_threshold(e, method)
    record = CalibrationRecord(
        method=method,
        n_samples=int(e.size),
        error_mean=float(e.mean()),
        error_std=float(e.std()),
        error_min=float(e.min()),
        error_max=float(e.max()),
    )
    return DetectorModel(
        autoencoder=det.autoencoder,
        tau=tau,
        calibration=record,
        background_ref=det.background_ref if background_ref is None else background_ref,
    )


def detect(
    det: DetectorModel, Z: np.ndarray
) -> tuple[str, float] | tuple[np.ndarray, np.ndarray]:
    """Decisions and scores: adversarial iff s > tau (s <= tau is clean,
    boundary included). One vector gives (decision, score); a matrix gives
    an array of decisions and an array of scores."""
    if not det.is_calibrated:
        raise NotCalibratedError("detector has no calibrated threshold")
    s = reconstruction_errors(det.autoencoder, Z)
    if isinstance(s, float):
        return ("adversarial" if s > det.tau else "clean"), s
    return np.where(s > det.tau, "adversarial", "clean"), s


def save_detector(det: DetectorModel, path: str | Path) -> None:
    if not det.is_calibrated:
        raise NotCalibratedError("refusing to save an uncalibrated detector")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "autoencoder": neural.to_dict(det.autoencoder),
        "tau": det.tau,
        "calibration": det.calibration.to_dict() if det.calibration else None,
        "background_ref": det.background_ref,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_detector(path: str | Path) -> DetectorModel:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    calibration = (
        CalibrationRecord.from_dict(payload["calibration"])
        if payload.get("calibration")
        else None
    )
    return DetectorModel(
        autoencoder=neural.from_dict(payload["autoencoder"]),
        tau=payload["tau"],
        calibration=calibration,
        background_ref=payload.get("background_ref", ""),
    )
