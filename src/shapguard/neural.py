"""Dense feed-forward networks with exact reverse-mode gradients.

All math is float64 numpy. The same machinery serves the binary NIDS
classifier (relu hidden, sigmoid output, bce loss) and the fingerprint
autoencoder (relu hidden, linear output, mse loss). The relu subgradient at
exactly 0 is fixed to 0 so gradients and attribution multipliers are
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HIDDEN_ACTIVATIONS = ("relu",)
OUTPUT_ACTIVATIONS = ("sigmoid", "linear")
LOSSES = ("bce", "mse")

# Probabilities are clipped into [BCE_CLIP, 1 - BCE_CLIP] before the log in
# the bce loss value; gradients go through the unclipped sigmoid.
BCE_CLIP = 1e-7


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer sizes (input first), activation tags, init seed."""

    layer_sizes: tuple[int, ...]
    hidden_activation: str = "relu"
    output_activation: str = "sigmoid"
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unsupported hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unsupported output activation {self.output_activation!r}")

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class MlpModel:
    """Weights W_i of shape (layer_sizes[i+1], layer_sizes[i]) plus biases."""

    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        sizes = self.spec.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("parameter count does not match spec")
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.shape != (sizes[i + 1], sizes[i]) or b.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i} parameter shape mismatch")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has non-finite parameters")

    @property
    def input_size(self) -> int:
        return self.spec.input_size

    @property
    def output_size(self) -> int:
        return self.spec.output_size

    def copy(self) -> "MlpModel":
        return MlpModel(
            spec=self.spec,
            weights=[W.copy() for W in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 256
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8
    loss: str = "bce"
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.optimizer != "adam":
            raise ValueError(f"unsupported optimizer {self.optimizer!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"unsupported loss {self.loss!r}")


@dataclass
class ForwardTrace:
    """Per-layer pre/post activations for one batch; post[-1] is the output."""

    inputs: np.ndarray
    pre: list[np.ndarray]
    post: list[np.ndarray]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _as_batch(X: np.ndarray) -> tuple[np.ndarray, bool]:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        return X[None, :], True
    if X.ndim == 2:
        return X, False
    raise ValueError(f"expected a vector or matrix, got shape {X.shape}")


def init(spec: MlpSpec) -> MlpModel:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(spec=spec, weights=weights, biases=biases)


def forward(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """h_i = act_i(W_i h_{i-1} + b_i); returns output and the full trace."""
    batch, was_vector = _as_batch(X)
    if batch.shape[1] != model.input_size:
        raise ValueError(
            f"input has {batch.shape[1]} features, model expects {model.input_size}"
        )
    h = batch
    pre_list: list[np.ndarray] = []
    post_list: list[np.ndarray] = []
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ W.T + b
        if i < last:
            h = np.maximum(z, 0.0)
        elif model.spec.output_activation == "sigmoid":
            h = _sigmoid(z)
        else:
            h = z
        pre_list.append(z)
        post_list.append(h)
    trace = ForwardTrace(inputs=batch, pre=pre_list, post=post_list)
    out = post_list[-1][0] if was_vector else post_list[-1]
    return out, trace


def logit(model: MlpModel, X: np.ndarray) -> float | np.ndarray:
    """Final pre-activation with the last axis squeezed for 1-unit outputs.

    For a sigmoid classifier this is the pre-sigmoid score g(x) whose sign
    gives the decision boundary at g = 0.
    """
    batch, was_vector = _as_batch(X)
    _, trace = forward(model, batch)
    z = trace.pre[-1]
    if model.output_size == 1:
        z = z[:, 0]
        return float(z[0]) if was_vector else z
    return z[0] if was_vector else z


def loss_value(outputs: np.ndarray, targets: np.ndarray, loss: str) -> float:
    """mse: mean over samples of squared l2 error; bce: mean binary CE."""
    o = np.asarray(outputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if o.shape != t.shape:
        raise ValueError(f"outputs {o.shape} and targets {t.shape} differ in shape")
    if loss == "mse":
        sq = (o - t) ** 2
        if o.ndim <= 1:
            return float(np.mean(sq))
        return float(np.mean(sq.sum(axis=1)))
    if loss == "bce":
        if t.size and not np.isin(t, (0.0, 1.0)).all():
            raise ValueError("bce targets must be 0 or 1")
        p = np.clip(o, BCE_CLIP, 1.0 - BCE_CLIP)
        return float(-np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)))
    raise ValueError(f"unsupported loss {loss!r}")


def _normalize_targets(model: MlpModel, n: int, targets: np.ndarray) -> np.ndarray:
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1 and model.output_size == 1:
        t = t[:, None]
    if t.shape != (n, model.output_size):
        raise ValueError(
            f"targets shape {t.shape} does not match ({n}, {model.output_size})"
        )
    return t


def _output_delta(
    model: MlpModel, trace: ForwardTrace, targets: np.ndarray, loss: str
) -> np.ndarray:
    """dL/d(final pre-activation), without the 1/n mean factor."""
    out = trace.post[-1]
    act = model.spec.output_activation
    if loss == "bce":
        if act != "sigmoid":
            raise ValueError("bce loss requires a sigmoid output")
        return out - targets
    if loss == "mse":
        delta = 2.0 * (out - targets)
        if act == "sigmoid":
            delta = delta * out * (1.0 - out)
        return delta
    raise ValueError(f"unsupported loss {loss!r}")


def _backward(
    model: MlpModel, trace: ForwardTrace, delta: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Backpropagate dL/d(pre_last) = delta; returns (dWs, dbs, dX)."""
    n_layers = len(model.weights)
    dWs: list[np.ndarray] = [np.empty(0)] * n_layers
    dbs: list[np.ndarray] = [np.empty(0)] * n_layers
    d_pre = delta
    d_h = d_pre
    for i in reversed(range(n_layers)):
        h_prev = trace.post[i - 1] if i > 0 else trace.inputs
        dWs[i] = d_pre.T @ h_prev
        dbs[i] = d_pre.sum(axis=0)
        d_h = d_pre @ model.weights[i]
        if i > 0:
            d_pre = d_h * (trace.pre[i - 1] > 0)
    return dWs, dbs, d_h


def grad_params(
    model: MlpModel, X: np.ndarray, targets: np.ndarray, loss: str
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradients of the mean loss with respect to weights and biases."""
    batch, _ = _as_batch(X)
    t = _normalize_targets(model, batch.shape[0], targets)
    _, trace = forward(model, batch)
    delta = _output_delta(model, trace, t, loss) / batch.shape[0]
    dWs, dbs, _ = _backward(model, trace, delta)
    return dWs, dbs


def grad_input_batch(
    model: MlpModel, X: np.ndarray, targets: np.ndarray, loss: str = "bce"
) -> np.ndarray:
    """Per-row input gradients of each row's own (unaveraged) loss."""
    batch, _ = _as_batch(X)
    t = _normalize_targets(model, batch.shape[0], targets)
    _, trace = forward(model, batch)
    delta = _output_delta(model, trace, t, loss)
    _, _, dX = _backward(model, trace, delta)
    return dX


def grad_logit_input(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Gradient of the scalar logit g(x) with respect to the input vector."""
    if model.output_size != 1:
        raise ValueError("logit gradient requires a single-output model")
    batch, was_vector = _as_batch(x)
    _, trace = forward(model, batch)
    delta = np.ones((batch.shape[0], 1))
    _, _, dX = _backward(model, trace, delta)
    return dX[0] if was_vector else dX


class Adam:
    """Bias-corrected Adam; one instance per training run."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def train(
    model: MlpModel, X: np.ndarray, targets: np.ndarray, cfg: TrainConfig
) -> tuple[MlpModel, list[float]]:
    """Mini-batch Adam training; returns a new model and per-epoch mean loss.

    Deterministic under cfg.seed (shuffling is the only randomness). Raises
    TrainingDivergedError naming the epoch if any batch loss is non-finite.
    """
    batch_X, _ = _as_batch(X)
    n = batch_X.shape[0]
    if n < 1:
        raise ValueError("training set is empty")
    t_all = _normalize_targets(model, n, targets)

    work = model.copy()
    params = [*work.weights, *work.biases]
    opt = Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps_opt)
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, tb = batch_X[idx], t_all[idx]
            out, trace = forward(work, xb)
            batch_loss = loss_value(out, tb, cfg.loss)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch + 1}"
                )
            delta = _output_delta(work, trace, tb, cfg.loss) / xb.shape[0]
            dWs, dbs, _ = _backward(work, trace, delta)
            opt.step(params, [*dWs, *dbs])
            total += batch_loss * xb.shape[0]
        history.append(total / n)
    return work, history


def predict(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray | float, np.ndarray | int]:
    """Probabilities plus hard labels; label is 1 iff probability > 0.5."""
    if model.spec.output_activation != "sigmoid":
        raise ValueError("predict requires a sigmoid-output model")
    if model.output_size != 1:
        raise ValueError("predict requires a single-output model")
    out, _ = forward(model, X)
    if out.ndim == 1:  # single sample
        p = float(out[0])
        return p, int(p > 0.5)
    probs = out[:, 0]
    return probs, (probs > 0.5).astype(np.int64)


def to_dict(model: MlpModel) -> dict:
    return {
        "spec": {
            "layer_sizes": list(model.spec.layer_sizes),
            "hidden_activation": model.spec.hidden_activation,
            "output_activation": model.spec.output_activation,
            "seed": model.spec.seed,
        },
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


def from_dict(payload: dict) -> MlpModel:
    spec = MlpSpec(
        layer_sizes=tuple(payload["spec"]["layer_sizes"]),
        hidden_activation=payload["spec"]["hidden_activation"],
        output_activation=payload["spec"]["output_activation"],
        seed=payload["spec"]["seed"],
    )
    return MlpModel(
        spec=spec,
        weights=[np.array(W, dtype=np.float64) for W in payload["weights"]],
        biases=[np.array(b, dtype=np.float64) for b in payload["biases"]],
    )


def save(model: MlpModel, path: str | Path) -> None:
    """JSON serialization; load(save(m)) reproduces outputs bit-exactly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(model), fh)
        fh.write("\n")


def load(path: str | Path) -> MlpModel:
    with open(path, encoding="utf-8") as fh:
        return from_dict(json.load(fh))
