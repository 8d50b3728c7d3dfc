"""Unsupervised adversarial detector over attribution fingerprints.

A symmetric autoencoder is trained on fingerprints of clean samples with the
mean squared reconstruction objective. At inference the squared l2
reconstruction error s of a fingerprint is compared against a threshold tau
calibrated on clean validation fingerprints: s <= tau is clean, s > tau is
adversarial.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data, neural

CALIBRATION_METHODS = ("percentile", "sigma")
SIGMA_MULTIPLIERS = (2.0, 3.0)


@dataclass(frozen=True)
class CalibrationMethod:
    """percentile: empirical percentile in (0, 100); sigma: mean + k * std."""

    method: str = "percentile"
    parameter: float = 99.0

    def __post_init__(self) -> None:
        if type(self.method) is not str:
            raise ValueError(f"field 'method' must be a string, got {self.method!r}")
        if isinstance(self.parameter, bool) or not isinstance(self.parameter, (int, float)):
            raise ValueError(f"field 'parameter' must be a number, got {self.parameter!r}")
        if self.method not in CALIBRATION_METHODS:
            raise ValueError(f"unknown calibration method {self.method!r}")
        if self.method == "percentile" and not 0 < self.parameter < 100:
            raise ValueError("percentile parameter must be in (0, 100)")
        if self.method == "sigma" and self.parameter not in SIGMA_MULTIPLIERS:
            raise ValueError(f"sigma multiplier must be one of {SIGMA_MULTIPLIERS}")


@dataclass
class DetectorModel:
    autoencoder: neural.MlpModel
    tau: float | None = None
    # How tau was obtained plus a summary of the validation errors, as
    # written into detector.json.
    calibration: dict | None = None


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
    spec = autoencoder_spec(Z.shape[1], hidden_sizes, latent, seed=init_seed)
    model = neural.init(spec)
    return neural.train(model, Z, Z, cfg)


def reconstruction_errors(ae: neural.MlpModel, Z: np.ndarray) -> np.ndarray:
    """s = ||z - A(z)||_2^2 per fingerprint row of Z; a scalar for one vector."""
    Z = np.asarray(Z, dtype=np.float64)
    # the reconstruction's buffer takes the difference and then its square
    diff = neural.output(ae, np.atleast_2d(Z)).reshape(Z.shape)
    np.subtract(Z, diff, out=diff)
    return np.square(diff, out=diff).sum(axis=-1)


def calibrate_threshold(
    errors_clean_val: np.ndarray, method: CalibrationMethod
) -> float:
    """Percentile with linear interpolation, or mean + k * population std."""
    e = np.asarray(errors_clean_val, dtype=np.float64)
    if e.size < 10:
        raise ValueError(f"need at least 10 calibration errors, got {e.size}")
    if not np.isfinite(e).all() or (e < 0).any():
        raise ValueError("calibration errors must be finite and >= 0")
    if method.method == "percentile":
        return float(np.percentile(e, method.parameter))
    return float(e.mean() + method.parameter * e.std())


def calibrate(
    det: DetectorModel,
    errors_clean_val: np.ndarray,
    method: CalibrationMethod,
) -> DetectorModel:
    """Return a calibrated copy of the detector with tau and its record."""
    e = np.asarray(errors_clean_val, dtype=np.float64)
    tau = calibrate_threshold(e, method)
    calibration = {
        "method": method.method,
        "parameter": method.parameter,
        "n_samples": int(e.size),
        "error_mean": float(e.mean()),
        "error_std": float(e.std()),
        "error_min": float(e.min()),
        "error_max": float(e.max()),
    }
    return DetectorModel(autoencoder=det.autoencoder, tau=tau, calibration=calibration)


def detect(det: DetectorModel, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decisions and scores: adversarial iff s > tau (s <= tau is clean,
    boundary included). A matrix gives an array of decisions and an array
    of scores; one vector gives a scalar (str) decision and (float) score."""
    if det.tau is None:
        raise ValueError("detector has no calibrated threshold")
    s = reconstruction_errors(det.autoencoder, Z)
    return np.where(s > det.tau, "adversarial", "clean")[()], s


def save_detector(det: DetectorModel, path: str | Path) -> Path:
    """Write the calibrated detector as JSON; returns the path written."""
    if det.tau is None:
        raise ValueError("refusing to save an uncalibrated detector")
    payload = {
        "autoencoder": neural.to_dict(det.autoencoder),
        "tau": det.tau,
        "calibration": det.calibration,
    }
    return data.write_json(path, payload, indent=None)


def _detector_from_dict(payload: dict) -> DetectorModel:
    tau = payload["tau"]
    if type(tau) not in (int, float) or not np.isfinite(tau):
        raise ValueError(f"tau must be a finite number, got {tau!r}")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    calibration = data.json_value(payload["calibration"], "calibration")
    CalibrationMethod(calibration["method"], calibration["parameter"])
    autoencoder = neural.from_dict(data.json_value(payload["autoencoder"], "autoencoder"))
    spec = autoencoder.spec
    if spec.output_activation != "linear":
        raise ValueError(f"the autoencoder's output activation must be 'linear', "
                         f"got {spec.output_activation!r}")
    if spec.output_size != spec.input_size:
        raise ValueError(f"the autoencoder's output size {spec.output_size} must equal "
                         f"its input size {spec.input_size}")
    return DetectorModel(autoencoder=autoencoder, tau=tau, calibration=calibration)


def load_detector(path: str | Path) -> DetectorModel:
    """The detector :func:`save_detector` wrote: a finite tau >= 0, a
    calibration object with a method calibrate can use, and an autoencoder
    with a linear output as wide as its input. A ValueError names the file."""
    return data.read_json(path, _detector_from_dict)
