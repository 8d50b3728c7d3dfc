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
# Each loss and the output activation it is paired with.
LOSSES = {"bce": "sigmoid", "mse": "linear"}

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
            data.check_cells(W, ["finite"], lambda row, col: f"field 'weights[{i}][{row}][{col}]'")
            data.check_cells(b, ["finite"], lambda row, _: f"field 'biases[{i}][{row}]'")

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


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so that no exp
    overflows; both are e^min(z, 0) / (1 + e^-|z|), so no row is scattered
    by its sign. ``out`` may be z itself."""
    den = np.exp(-np.abs(z))
    den += 1.0
    out = np.exp(np.minimum(z, 0.0, out=out), out=out)
    out /= den
    return out


def _as_batch(model: MlpModel, X: np.ndarray, stack: bool = False) -> np.ndarray:
    """X as a float64 matrix of rows of the model's input width; stack also
    admits (n, 1, m)."""
    X = np.asarray(X, dtype=np.float64)
    if not (X.ndim == 2 or (stack and X.ndim == 3 and X.shape[1] == 1)):
        raise ValueError(f"expected a matrix of rows, got shape {X.shape}")
    if X.shape[-1] != model.input_size:
        raise ValueError(f"input has {X.shape[-1]} features, model expects {model.input_size}")
    return X


def init(spec: MlpSpec) -> MlpModel:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(spec=spec, weights=weights, biases=biases)


def forward(
    model: MlpModel, X: np.ndarray, buffers: _StepBuffers | None = None
) -> tuple[np.ndarray, ForwardTrace]:
    """h_i = act_i(W_i h_{i-1} + b_i); returns output and the full trace.

    X is a matrix of rows or an (n, 1, m) stack of one-row matrices.
    numpy's matmul runs a stack as n one-row products, so each row's trace
    is bitwise that of a one-row call; the trace keeps the stack's
    (n, 1, units) shape. Given a training step's ``buffers``, the trace's
    arrays are their leading rows instead of fresh ones.
    """
    batch = _as_batch(model, X, stack=True)
    trace = ForwardTrace(inputs=batch, pre=[], post=[])
    h = batch
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        pre, post = (None, None) if buffers is None else (
            buffers.pre[i][: len(batch)], buffers.post[i][: len(batch)])
        z = np.matmul(h, W.T, out=pre)
        z += b
        if i < last:
            h = np.maximum(z, 0.0, out=post)
        elif model.spec.output_activation == "sigmoid":
            h = _sigmoid(z, out=post)
        else:
            h = z
        trace.pre.append(z)
        trace.post.append(h)
    return h, trace


def output(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """The output of :func:`forward` on a matrix of rows, bitwise, without
    its trace: the same whole-matrix products, keeping only the current
    layer, so the peak is the input plus two layers' activations.

    The rows are never split into chunks: a 2-d product may round a row
    differently with the rows it is computed with, so chunking would change
    outputs in the last bits.
    """
    h = _as_batch(model, X)
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ W.T
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        elif model.spec.output_activation == "sigmoid":
            _sigmoid(h, out=h)
    return h


def loss_value(outputs: np.ndarray, targets: np.ndarray, loss: str) -> float:
    """mse: mean over samples of squared l2 error; bce: mean binary CE."""
    o = np.asarray(outputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if o.shape != t.shape:
        raise ValueError(f"outputs {o.shape} and targets {t.shape} differ in shape")
    if loss == "mse":
        # each sample's error summed over every axis after the first
        return float(np.mean(((o - t) ** 2).sum(axis=tuple(range(1, o.ndim)))))
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


def _backward(
    model: MlpModel, trace: ForwardTrace, delta: np.ndarray, buffers: _StepBuffers | None = None
) -> list[np.ndarray]:
    """Backpropagate dL/d(pre_last) = delta to dL/d(pre_i) for every layer
    i, into the leading rows of a training step's ``buffers`` if given. The
    input gradient, d_pres[0] @ W_0, is left to the caller that needs it:
    training does not. A stack trace gives stacked gradients."""
    d_pres = [delta]
    for i in range(len(model.weights) - 1, 0, -1):
        out = None if buffers is None else buffers.deltas[i - 1][: len(delta)]
        d = np.matmul(d_pres[0], model.weights[i], out=out)
        np.multiply(d, trace.pre[i - 1] > 0, out=d)
        d_pres.insert(0, d)
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


class _StepBuffers:
    """The arrays a training step of up to ``rows`` rows writes, allocated
    once per training run: each layer's pre- and post-activations and
    delta, and the flat gradient with its views in the parameters' shapes,
    every weight before every bias."""

    def __init__(self, sizes: tuple[int, ...], rows: int):
        self.pre, self.post, self.deltas = (
            [np.empty((rows, units)) for units in sizes[1:]] for _ in range(3))
        self.flat = np.empty(sum(fan_in * fan_out + fan_out
                                 for fan_in, fan_out in zip(sizes, sizes[1:])))
        self.dWs, self.dbs = _param_views(self.flat, sizes)


def grad_params(
    model: MlpModel, X: np.ndarray, targets: np.ndarray, loss: str,
    buffers: _StepBuffers | None = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """The mean loss of a batch and its exact gradients with respect to the
    weights and biases; one training step's worth of work.

    The gradients are views, in the parameters' shapes, of one flat vector
    (their ``base``; every weight before every bias), which train hands to
    Adam whole. Every array the step writes is in ``buffers``, those of
    train's run, or fresh. A loss that LOSSES does not pair with the
    model's output activation is a ValueError.
    """
    if loss not in LOSSES:
        raise ValueError(f"unsupported loss {loss!r}")
    if model.spec.output_activation != LOSSES[loss]:
        raise ValueError(f"{loss} loss requires a {LOSSES[loss]} output")
    batch = _as_batch(model, X)
    n = batch.shape[0]
    t = _normalize_targets(model, n, targets)
    if buffers is None:
        buffers = _StepBuffers(model.spec.layer_sizes, n)
    out, trace = forward(model, batch, buffers)
    batch_loss = loss_value(out, t, loss)
    # dL/d(final pre-activation): sigmoid+bce and linear+mse both reduce to
    # a multiple of the output error
    delta = np.subtract(out, t, out=buffers.deltas[-1][:n])
    if loss == "mse":
        delta *= 2.0
    delta /= n
    h_prev = [trace.inputs, *trace.post[:-1]]
    d_pres = _backward(model, trace, delta, buffers)
    for d, h, dW, db in zip(d_pres, h_prev, buffers.dWs, buffers.dbs):
        # dL/dW_i = d_pre_i^T h_(i-1) and dL/db_i = d_pre_i summed over rows
        np.matmul(d.T, h, out=dW)
        d.sum(axis=0, out=db)
    return batch_loss, buffers.dWs, buffers.dbs


def grad_logit_input(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The logit g(x) of each row of a matrix or an (n, 1, m) stack, shape
    (n,), and its input gradient, of X's shape, both from one forward pass.
    On a stack each row's g and gradient are bitwise those of a one-row call."""
    if model.output_size != 1:
        raise ValueError("logit gradient requires a single-output model")
    _, trace = forward(model, X)
    g = trace.pre[-1]
    return g.reshape(-1), _backward(model, trace, np.ones(g.shape))[0] @ model.weights[0]


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
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update the flat buffer params in place from the flat gradient
        grads, every element by the same float ops in the same order:
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and
        params -= lr m_hat / (sqrt(v_hat) + eps) with the bias-corrected
        moments, through two scratch buffers allocated with the moments."""
        if self._m is None:
            self._m, self._v = np.zeros_like(params), np.zeros_like(params)
            self._scratch = (np.empty_like(params), np.empty_like(params))
        self.t += 1
        b1, b2, m, v, (a, b) = self.beta1, self.beta2, self._m, self._v, self._scratch
        m *= b1
        m += np.multiply(grads, 1.0 - b1, out=a)
        v *= b2
        np.multiply(grads, 1.0 - b2, out=a)
        v += np.multiply(a, grads, out=a)
        m_hat = np.divide(m, 1.0 - b1**self.t, out=a)
        v_hat = np.divide(v, 1.0 - b2**self.t, out=b)
        m_hat *= self.lr
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        params -= np.divide(m_hat, v_hat, out=m_hat)


def train(
    model: MlpModel, X: np.ndarray, targets: np.ndarray, cfg: TrainConfig
) -> tuple[MlpModel, list[float]]:
    """Mini-batch Adam training; returns a new model and per-epoch mean loss.

    Each epoch visits the rows in a fresh random order; deterministic under
    cfg.seed (the order is the only randomness). Raises a ValueError naming
    the epoch if any batch loss is non-finite.
    """
    batch_X = _as_batch(model, X)
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
    rows = min(cfg.batch_size, n)
    buffers = _StepBuffers(model.spec.layer_sizes, rows)
    # each batch is gathered into these: numpy's take buffers its out under
    # its default mode, "raise", and a permutation's indices are in range
    X_rows, t_rows = np.empty((rows, batch_X.shape[1])), np.empty((rows, t_all.shape[1]))
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = np.take(batch_X, idx, axis=0, out=X_rows[: idx.size], mode="clip")
            tb = np.take(t_all, idx, axis=0, out=t_rows[: idx.size], mode="clip")
            batch_loss, _, _ = grad_params(work, xb, tb, cfg.loss, buffers)
            if not math.isfinite(batch_loss):
                raise ValueError(f"non-finite loss at epoch {epoch + 1}")
            opt.step(params, buffers.flat)
            total += batch_loss * idx.size
        history.append(total / n)
    return work, history


def predict(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row probabilities plus hard labels; label is 1 iff probability > 0.5."""
    if model.spec.output_activation != "sigmoid":
        raise ValueError("predict requires a sigmoid-output model")
    if model.output_size != 1:
        raise ValueError("predict requires a single-output model")
    probs = output(model, X)[:, 0]
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
    """The model :func:`to_dict` wrote. A spec field of the wrong JSON type
    or range, or a weight or bias cell that is not a number, is a ValueError
    naming it, never cast to the type it needs."""
    spec = data.json_value(payload["spec"], "spec")
    if spec["hidden_activation"] != "relu":
        raise ValueError(f"unsupported hidden activation {spec['hidden_activation']!r}")
    sizes = data.json_value(spec["layer_sizes"], "layer_sizes", [int])
    seed = data.json_value(spec["seed"], "seed", int)
    if seed < 0:
        raise ValueError(f"field 'seed' must be >= 0, got {seed}")
    mlp_spec = MlpSpec(
        layer_sizes=tuple(sizes), output_activation=spec["output_activation"], seed=seed
    )
    layers = len(mlp_spec.layer_sizes) - 1
    for field, what in (("weights", "matrices"), ("biases", "vectors")):
        count = len(data.json_value(payload[field], field, list))
        if count != layers:
            raise ValueError(f"field {field!r} must be a list of {layers} {what}, "
                             f"got a list of {count}")
    return MlpModel(
        spec=mlp_spec,
        weights=[data.float_array(W, f"weights[{i}]") for i, W in enumerate(payload["weights"])],
        biases=[data.float_array(b, f"biases[{i}]") for i, b in enumerate(payload["biases"])],
    )


def save(model: MlpModel, path: str | Path) -> Path:
    """JSON serialization; load(save(m)) reproduces outputs bit-exactly.
    Returns the path written."""
    return data.write_json(path, to_dict(model), indent=None)


def load(path: str | Path) -> MlpModel:
    return data.read_json(path, from_dict)
