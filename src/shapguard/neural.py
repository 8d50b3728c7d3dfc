"""Dense feed-forward networks with exact reverse-mode gradients.

All math is float64 numpy. The same machinery serves the binary NIDS
classifier (relu hidden, sigmoid output, bce loss) and the fingerprint
autoencoder (relu hidden, linear output, mse loss). The relu subgradient at
exactly 0 is fixed to 0 so gradients and attribution multipliers are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data

OUTPUT_ACTIVATIONS = ("sigmoid", "linear")
LOSSES = ("bce", "mse")

# Probabilities are clipped into [BCE_CLIP, 1 - BCE_CLIP] before the log in
# the bce loss value; gradients go through the unclipped sigmoid.
BCE_CLIP = 1e-7


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer sizes (input first), output activation tag, init
    seed. Every hidden layer is relu."""

    layer_sizes: tuple[int, ...]
    output_activation: str = "sigmoid"
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
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


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 256
    learning_rate: float = 1e-3
    loss: str = "bce"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
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


def _as_batch(X: np.ndarray, stack: bool = False) -> np.ndarray:
    """X as a float64 matrix of rows; stack also admits (n, 1, m)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 2 or (stack and X.ndim == 3 and X.shape[1] == 1):
        return X
    raise ValueError(f"expected a matrix of rows, got shape {X.shape}")


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
    """h_i = act_i(W_i h_{i-1} + b_i); returns output and the full trace.

    X is a matrix of rows or an (n, 1, m) stack of one-row matrices.
    numpy's matmul runs a stack as n one-row products, so each row's trace
    is bitwise that of a one-row call; the trace keeps the stack's
    (n, 1, units) shape.
    """
    batch = _as_batch(X, stack=True)
    if batch.shape[-1] != model.input_size:
        raise ValueError(
            f"input has {batch.shape[-1]} features, model expects {model.input_size}"
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
    return h, ForwardTrace(inputs=batch, pre=pre_list, post=post_list)


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
        if not ((t == 0.0) | (t == 1.0)).all():
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
        if act != "linear":
            raise ValueError("mse loss requires a linear output")
        return 2.0 * (out - targets)
    raise ValueError(f"unsupported loss {loss!r}")


def _backward(model: MlpModel, trace: ForwardTrace, delta: np.ndarray) -> list[np.ndarray]:
    """Backpropagate dL/d(pre_last) = delta to dL/d(pre_i) for every layer
    i. The input gradient, d_pres[0] @ W_0, is left to the caller that
    needs it: training does not. A stack trace gives stacked gradients."""
    d_pres = [delta]
    for i in range(len(model.weights) - 1, 0, -1):
        d_pres.insert(0, (d_pres[0] @ model.weights[i]) * (trace.pre[i - 1] > 0))
    return d_pres


def _param_views(
    flat: np.ndarray, sizes: tuple[int, ...]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The weights and the biases of a network with these layer sizes as
    views, in their shapes, of the one flat buffer that holds them all,
    every weight before every bias."""
    shapes = [*zip(sizes[1:], sizes), *((fan_out,) for fan_out in sizes[1:])]
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views[: len(sizes) - 1], views[len(sizes) - 1 :]


def grad_params(
    model: MlpModel, X: np.ndarray, targets: np.ndarray, loss: str
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """The mean loss of a batch and its exact gradients with respect to the
    weights and biases; one training step's worth of work.

    The gradients are views, in the parameters' shapes, of one fresh flat
    vector (their ``base``; every weight before every bias), which train
    hands to Adam whole.
    """
    batch = _as_batch(X)
    t = _normalize_targets(model, batch.shape[0], targets)
    out, trace = forward(model, batch)
    delta = _output_delta(model, trace, t, loss) / batch.shape[0]
    flat = np.empty(sum(W.size + b.size for W, b in zip(model.weights, model.biases)))
    dWs, dbs = _param_views(flat, model.spec.layer_sizes)
    h_prev = [trace.inputs, *trace.post[:-1]]
    for d, h, dW, db in zip(_backward(model, trace, delta), h_prev, dWs, dbs):
        # dL/dW_i = d_pre_i^T h_(i-1) and dL/db_i = d_pre_i summed over rows
        np.matmul(d.T, h, out=dW)
        d.sum(axis=0, out=db)
    return loss_value(out, t, loss), dWs, dbs


def grad_logit_input(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Gradient of the scalar logit g(x) with respect to the input, for each
    row of a matrix or of an (n, 1, m) stack; the result has X's shape. On a
    stack each row's gradient is bitwise that of a one-row call."""
    if model.output_size != 1:
        raise ValueError("logit gradient requires a single-output model")
    _, trace = forward(model, X)
    return _backward(model, trace, np.ones(trace.pre[-1].shape))[0] @ model.weights[0]


class Adam:
    """Bias-corrected Adam with the constants of Kingma & Ba (ICLR 2015)
    over one flat parameter buffer; one instance per training run."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update the flat buffer params in place from the flat gradient
        grads, every element by the same float ops in the same order."""
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        self.t += 1
        b1, b2, m, v = self.beta1, self.beta2, self._m, self._v
        m *= b1
        m += (1.0 - b1) * grads
        v *= b2
        v += (1.0 - b2) * grads * grads
        m_hat = m / (1.0 - b1**self.t)
        v_hat = v / (1.0 - b2**self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def train(
    model: MlpModel, X: np.ndarray, targets: np.ndarray, cfg: TrainConfig
) -> tuple[MlpModel, list[float]]:
    """Mini-batch Adam training; returns a new model and per-epoch mean loss.

    Each epoch visits the rows in a fresh random order; deterministic under
    cfg.seed (the order is the only randomness). Raises a ValueError naming
    the epoch if any batch loss is non-finite.
    """
    batch_X = _as_batch(X)
    n = batch_X.shape[0]
    if n < 1:
        raise ValueError("training set is empty")
    t_all = _normalize_targets(model, n, targets)

    # One fresh buffer holds every parameter; the new model's weights and
    # biases are views of it, so one Adam step updates the whole model.
    params = np.concatenate([p.ravel() for p in (*model.weights, *model.biases)])
    work = MlpModel(model.spec, *_param_views(params, model.spec.layer_sizes))
    opt = Adam(cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch_loss, dWs, _ = grad_params(work, batch_X[idx], t_all[idx], cfg.loss)
            if not np.isfinite(batch_loss):
                raise ValueError(f"non-finite loss at epoch {epoch + 1}")
            opt.step(params, dWs[0].base)  # the one flat gradient vector
            total += batch_loss * idx.size
        history.append(total / n)
    return work, history


def predict(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row probabilities plus hard labels; label is 1 iff probability > 0.5."""
    if model.spec.output_activation != "sigmoid":
        raise ValueError("predict requires a sigmoid-output model")
    if model.output_size != 1:
        raise ValueError("predict requires a single-output model")
    out, _ = forward(model, _as_batch(X))
    probs = out[:, 0]
    return probs, (probs > 0.5).astype(np.int64)


def to_dict(model: MlpModel) -> dict:
    return {
        "spec": {
            "layer_sizes": list(model.spec.layer_sizes),
            "hidden_activation": "relu",
            "output_activation": model.spec.output_activation,
            "seed": model.spec.seed,
        },
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


def from_dict(payload: dict) -> MlpModel:
    spec = payload["spec"]
    if spec["hidden_activation"] != "relu":
        raise ValueError(f"unsupported hidden activation {spec['hidden_activation']!r}")
    return MlpModel(
        spec=MlpSpec(
            layer_sizes=tuple(spec["layer_sizes"]),
            output_activation=spec["output_activation"],
            seed=spec["seed"],
        ),
        weights=[np.array(W, dtype=np.float64) for W in payload["weights"]],
        biases=[np.array(b, dtype=np.float64) for b in payload["biases"]],
    )


def save(model: MlpModel, path: str | Path) -> None:
    """JSON serialization; load(save(m)) reproduces outputs bit-exactly."""
    data.write_json(path, to_dict(model), indent=None)


def load(path: str | Path) -> MlpModel:
    payload = data.read_json(path)
    try:
        return from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
