import math
import re

import numpy as np
import pytest

from shapguard import attribution, neural
from shapguard.attribution import BackgroundSet, Fingerprints


def _linear_logit(w, b):
    w = np.atleast_2d(np.asarray(w, float))
    spec = neural.MlpSpec((w.shape[1], 1), output_activation="sigmoid", seed=0)
    return neural.MlpModel(spec=spec, weights=[w], biases=[np.atleast_1d(float(b))])


def _logit(model, X):
    """g(x) per row of X: the final pre-activation."""
    return neural.forward(model, X)[1].pre[-1][:, 0]


def _random_relu_net(seed, m=6, hidden=(10, 5)):
    rng = np.random.default_rng(seed)
    model = neural.init(neural.MlpSpec((m, *hidden, 1), seed=int(rng.integers(1e6))))
    model.biases = [rng.normal(0, 0.3, b.shape) for b in model.biases]
    return model, rng


def _fingerprint(model, x, bg):
    """(phi, phi0, g(x)) of one row through the batch path."""
    fps = attribution.fingerprint_batch(model, x[None, :], bg)
    return fps.phi[0], fps.phi0, fps.model_output[0]


def _rescale_oracle(model, x, b):
    """DeepLIFT rescale contributions of x against one reference b, computed
    unit by unit: forward both inputs, then chain the per-unit ratios
    (relu(z_x) - relu(z_b)) / (z_x - z_b) back from the logit."""
    zs = []
    hx, hb = x, b
    for W, c in zip(model.weights[:-1], model.biases[:-1]):
        zx, zb = W @ hx + c, W @ hb + c
        zs.append((zx, zb))
        hx, hb = np.maximum(zx, 0.0), np.maximum(zb, 0.0)
    mult = model.weights[-1][0].copy()
    for W, (zx, zb) in zip(reversed(model.weights[:-1]), reversed(zs)):
        ratio = np.array([
            (max(u, 0.0) - max(v, 0.0)) / (u - v) if abs(u - v) > 1e-9 else float(u > 0)
            for u, v in zip(zx, zb)
        ])
        mult = (mult * ratio) @ W
    return mult * (x - b)


# ---------------------------------------------------------------------------
# phi0, the mean background logit


def _phi0(model, bg):
    return attribution.fingerprint_batch(model, bg.B, bg).phi0


def test_phi0_singleton_background():
    model = _linear_logit([1.0, 2.0], 0.5)
    b = np.array([[0.3, 0.4]])
    bg = BackgroundSet(B=b)
    assert _phi0(model, bg) == pytest.approx(
        float(_logit(model, b)[0]), abs=0
    )


def test_phi0_linearity():
    w, c = np.array([1.0, -3.0]), 0.7
    model = _linear_logit(w, c)
    B = np.array([[0.2, 0.8], [0.6, 0.4]])
    phi0 = _phi0(model, BackgroundSet(B=B))
    assert phi0 == pytest.approx(float(w @ B.mean(axis=0) + c), abs=1e-12)


def test_phi0_invariant_to_duplicated_rows():
    model, _ = _random_relu_net(1)
    B = np.random.default_rng(2).uniform(0, 1, (4, 6))
    a = _phi0(model, BackgroundSet(B=B))
    b = _phi0(model, BackgroundSet(B=np.vstack([B, B])))
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# DeepLIFT against a single reference


def test_deeplift_linear_model_is_weight_times_delta():
    w = np.array([2.0, -1.0, 0.5])
    model = _linear_logit(w, 0.3)
    x = np.array([0.9, 0.1, 0.5])
    b = np.array([0.2, 0.6, 0.5])
    phi, _, _ = _fingerprint(model, x, BackgroundSet(B=b[None, :]))
    assert np.allclose(phi, w * (x - b), atol=1e-15)


def test_deeplift_zero_delta_gives_zero_vector():
    model, rng = _random_relu_net(3)
    x = rng.uniform(0, 1, 6)
    phi, _, _ = _fingerprint(model, x, BackgroundSet(B=x[None, :]))
    assert np.all(phi == 0.0)


def test_deeplift_summation_to_delta_on_random_nets():
    for seed in range(30):
        model, rng = _random_relu_net(seed + 10)
        x = rng.uniform(0, 1, 6)
        b = rng.uniform(0, 1, 6)
        phi, _, _ = _fingerprint(model, x, BackgroundSet(B=b[None, :]))
        delta = float(_logit(model, x[None, :])[0] - _logit(model, b[None, :])[0])
        assert abs(phi.sum() - delta) <= 1e-8


# ---------------------------------------------------------------------------
# shap_fingerprint


def test_fingerprint_singleton_background_equals_deeplift():
    model, rng = _random_relu_net(40)
    x = rng.uniform(0, 1, 6)
    b = rng.uniform(0, 1, 6)
    phi, phi0, _ = _fingerprint(model, x, BackgroundSet(B=b[None, :]))
    assert np.allclose(phi, _rescale_oracle(model, x, b), atol=0)
    assert phi0 == pytest.approx(float(_logit(model, b[None, :])[0]), abs=0)


def test_fingerprint_linear_model_closed_form():
    w = np.array([1.0, -2.0, 3.0, 0.25])
    model = _linear_logit(w, -0.1)
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 4)
    B = rng.uniform(0, 1, (20, 4))
    phi, _, _ = _fingerprint(model, x, BackgroundSet(B=B))
    assert np.max(np.abs(phi - w * (x - B.mean(axis=0)))) <= 1e-10


def test_fingerprint_completeness_on_random_nets():
    for seed in range(30):
        model, rng = _random_relu_net(seed + 100)
        x = rng.uniform(0, 1, 6)
        B = rng.uniform(0, 1, (15, 6))
        fps = attribution.fingerprint_batch(model, x[None, :], BackgroundSet(B=B))
        assert fps.count_violations() == 0
        gap = abs(fps.phi0 + fps.phi[0].sum() - fps.model_output[0])
        assert gap <= 1e-5 * max(1.0, abs(fps.model_output[0]))


def test_fingerprint_background_permutation_invariance():
    model, rng = _random_relu_net(55)
    x = rng.uniform(0, 1, 6)
    B = rng.uniform(0, 1, (12, 6))
    perm = rng.permutation(12)
    a = attribution.fingerprint_batch(model, x[None, :], BackgroundSet(B=B))
    b = attribution.fingerprint_batch(model, x[None, :], BackgroundSet(B=B[perm]))
    assert np.max(np.abs(a.phi - b.phi)) <= 1e-12
    assert abs(a.phi0 - b.phi0) <= 1e-12


# ---------------------------------------------------------------------------
# fingerprint_batch


def test_batch_malicious_filter_keeps_rows_in_order():
    model, rng = _random_relu_net(60)
    X = rng.uniform(0, 1, (5, 6))
    labels = np.array([1, 0, 1, 1, 0])
    bg = BackgroundSet(B=rng.uniform(0, 1, (8, 6)))
    rows = np.flatnonzero(labels == 1)
    fps = attribution.fingerprint_batch(model, X[rows], bg, sample_ids=rows)
    assert fps.sample_ids.tolist() == [0, 2, 3]
    assert np.array_equal(fps.phi, attribution.fingerprint_batch(model, X, bg).phi[rows])


def test_batch_without_filter_covers_all_rows():
    model, rng = _random_relu_net(61)
    X = rng.uniform(0, 1, (7, 6))
    bg = BackgroundSet(B=rng.uniform(0, 1, (8, 6)))
    fps = attribution.fingerprint_batch(model, X, bg)
    assert fps.n == 7
    assert fps.sample_ids.tolist() == list(range(7))


def test_batch_row_equals_single_fingerprint():
    model, rng = _random_relu_net(62)
    X = rng.uniform(0, 1, (4, 6))
    bg = BackgroundSet(B=rng.uniform(0, 1, (10, 6)))
    fps = attribution.fingerprint_batch(model, X, bg)
    slabs = attribution.ReferenceSlabs(model, bg, rows=4)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(4):
            phi, logit = attribution.shap_fingerprint(model, X[k : k + 1], slabs)
            assert phi.shape == (1, 6) and logit.shape == (1,)
            assert np.array_equal(fps.phi[k], phi[0])
            assert fps.model_output[k] == logit[0] == _logit(model, X[k : k + 1])[0]
        phi, logit = attribution.shap_fingerprint(model, X, slabs)
    assert np.array_equal(fps.phi, phi)
    assert np.array_equal(fps.model_output, logit)
    assert fps.phi0 == slabs.phi0 == float(np.mean(_logit(model, bg.B)))


def _per_row_fingerprint(model, x, background, trace_b):
    """The one-row rescale kernel that preceded the block kernel, kept
    verbatim as the bitwise oracle for fingerprint_batch."""
    B = background.B
    _, trace_x = neural.forward(model, x[None, :])
    n_layers = len(model.weights)
    mult = np.ones((B.shape[0], 1))
    for i in reversed(range(n_layers)):
        mult = mult @ model.weights[i]
        if i == 0:
            break
        zx = trace_x.pre[i - 1]
        zb = trace_b.pre[i - 1]
        delta = zx - zb
        small = np.abs(delta) <= attribution.NEAR_ZERO_DELTA
        ratio = (np.maximum(zx, 0.0) - np.maximum(zb, 0.0)) / np.where(
            small, 1.0, delta
        )
        ratio = np.where(small, (zx > 0).astype(np.float64), ratio)
        mult = mult * ratio
    phi = (mult * (x[None, :] - B)).mean(axis=0)
    return phi, float(trace_x.pre[-1][0, 0])


def _rows_touching_the_background(rng, n, B):
    """n rows in the box: row 0 equals a reference and row 1 lies 1e-12
    from another, so both the zero and the near-zero delta fall back."""
    X = rng.uniform(0, 1, (n, B.shape[1]))
    X[0] = B[2]
    if n > 1:
        X[1] = B[5] + 1e-12
    return X


@pytest.mark.parametrize("hidden", [(9,), (10, 5), ()], ids=["1-hidden", "2-hidden", "linear"])
@pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
def test_batch_is_bitwise_the_per_row_kernel(hidden, n):
    model, rng = _random_relu_net(80 + n, m=7, hidden=hidden)
    bg = BackgroundSet(B=rng.uniform(0, 1, (12, 7)))
    X = _rows_touching_the_background(rng, n, bg.B)
    fps = attribution.fingerprint_batch(model, X, bg)
    _, trace_b = neural.forward(model, bg.B)
    for k in range(n):
        phi, logit = _per_row_fingerprint(model, X[k], bg, trace_b)
        assert np.array_equal(fps.phi[k], phi), k
        assert fps.model_output[k] == logit, k
    if hidden and n > 1:
        # the 1e-12 row really takes the fallback on some non-zero delta
        _, trace_x = neural.forward(model, X[1:2])
        delta = np.abs(trace_x.pre[0][0] - trace_b.pre[0][5])
        assert np.any((delta > 0) & (delta <= attribution.NEAR_ZERO_DELTA))


@pytest.mark.parametrize("hidden", [(9,), (10, 5), ()], ids=["1-hidden", "2-hidden", "linear"])
def test_row_fingerprint_does_not_depend_on_its_block(hidden):
    model, rng = _random_relu_net(90, m=7, hidden=hidden)
    bg = BackgroundSet(B=rng.uniform(0, 1, (12, 7)))
    X = _rows_touching_the_background(rng, 9, bg.B)
    fps = attribution.fingerprint_batch(model, X, bg)
    reversed_fps = attribution.fingerprint_batch(model, X[::-1], bg)
    assert np.array_equal(reversed_fps.phi[::-1], fps.phi)
    assert np.array_equal(reversed_fps.model_output[::-1], fps.model_output)
    for k in range(9):
        alone = attribution.fingerprint_batch(model, X[k : k + 1], bg)
        assert np.array_equal(alone.phi[0], fps.phi[k]), k
        assert alone.model_output[0] == fps.model_output[k], k


@pytest.mark.parametrize(
    "m, hidden", [(7, (9,)), (7, (10, 5)), (7, ()), (1, (9,))],
    ids=["1-hidden", "2-hidden", "linear", "one-feature"],
)
def test_block_size_and_layout_of_x_change_no_bit(monkeypatch, m, hidden):
    model, rng = _random_relu_net(95, m=m, hidden=hidden)
    bg = BackgroundSet(B=rng.uniform(0, 1, (12, m)))
    X = _rows_touching_the_background(rng, 13, bg.B)
    # the feature columns of a table with a label column, as detect passes them
    strided = np.hstack([X, np.ones((13, 1))])[:, :-1]
    assert not strided.flags.c_contiguous
    _, trace_b = neural.forward(model, bg.B)
    oracle = [_per_row_fingerprint(model, x, bg, trace_b) for x in X]
    for rows in (1, 3, 7, 64):
        monkeypatch.setattr(attribution, "BLOCK_ROWS", rows)
        for layout in (X, strided, np.asfortranarray(X)):
            fps = attribution.fingerprint_batch(model, layout, bg)
            for k, (phi, logit) in enumerate(oracle):
                assert np.array_equal(fps.phi[k], phi), (rows, k)
                assert fps.model_output[k] == logit, (rows, k)


def test_batch_calls_the_block_kernel_once_per_block(monkeypatch):
    """fingerprint_batch looks the kernel up in the module namespace once per
    block, so a wrapper set there (a tracer, say) sees every block. Each
    block is one forward pass of at most BLOCK_ROWS rows, after one of the
    background: no row is forwarded twice."""
    kernel, forward, blocks, passes = attribution.shap_fingerprint, neural.forward, [], []

    def counted(*args, **kwargs):
        blocks.append(args)
        return kernel(*args, **kwargs)

    def counted_forward(model, X, *args, **kwargs):
        passes.append(len(X))
        return forward(model, X, *args, **kwargs)

    monkeypatch.setattr(attribution, "shap_fingerprint", counted)
    monkeypatch.setattr(neural, "forward", counted_forward)
    model, rng = _random_relu_net(96)
    bg = BackgroundSet(B=rng.uniform(0, 1, (5, 6)))
    rows = attribution.BLOCK_ROWS
    for n in (1, rows, rows + 1, 67):
        blocks.clear()
        passes.clear()
        attribution.fingerprint_batch(model, rng.uniform(0, 1, (n, 6)), bg)
        assert len(blocks) == math.ceil(n / rows), n
        assert len(passes) == 1 + len(blocks) and passes[0] == bg.size, (n, passes)
        assert max(passes[1:]) <= rows and sum(passes[1:]) == n, (n, passes)


def test_batch_forwards_its_model_without_the_output_sigmoid(monkeypatch):
    """The rescale chain reads pre-activations only: every forward of a
    batch runs the model's own weight arrays with a linear output, and the
    fingerprints are bitwise those the sigmoid model's blocks give."""
    forward, models = neural.forward, []

    def counted_forward(model, X, *args, **kwargs):
        models.append(model)
        return forward(model, X, *args, **kwargs)

    model, rng = _random_relu_net(98)
    X, bg = rng.uniform(0, 1, (9, 6)), BackgroundSet(B=rng.uniform(0, 1, (5, 6)))
    rows = attribution.BLOCK_ROWS
    slabs = attribution.ReferenceSlabs(model, bg, rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        blocks = [attribution.shap_fingerprint(model, X[i : i + rows], slabs)
                  for i in range(0, len(X), rows)]
    monkeypatch.setattr(neural, "forward", counted_forward)
    fps = attribution.fingerprint_batch(model, X, bg)
    assert model.spec.output_activation == "sigmoid"
    assert {m.spec.output_activation for m in models} == {"linear"}
    assert all(a is b for m in models for a, b in zip(m.weights + m.biases,
                                                      model.weights + model.biases))
    assert fps.phi.tobytes() == np.concatenate([phi for phi, _ in blocks]).tobytes()
    assert fps.model_output.tobytes() == np.concatenate([g for _, g in blocks]).tobytes()
    assert fps.phi0 == slabs.phi0


def test_batch_empty_selection_raises():
    model, rng = _random_relu_net(63)
    X = rng.uniform(0, 1, (3, 6))
    bg = BackgroundSet(B=rng.uniform(0, 1, (5, 6)))
    labels = np.zeros(3, int)
    with pytest.raises(ValueError, match="^no fingerprints$"):
        attribution.fingerprint_batch(model, X[labels == 1], bg)


# ---------------------------------------------------------------------------
# background sampling and persistence


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_background_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match=re.escape(
            f"background row 0, column 1: {bad!r} is not a finite value in [0, 1]")):
        BackgroundSet(B=[[0.1, bad], [0.2, 0.3]])


def test_sample_background_deterministic_and_within_source():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, (50, 6))
    a = attribution.sample_background(X, size=10, seed=3)
    b = attribution.sample_background(X, size=10, seed=3)
    assert np.array_equal(a.B, b.B)
    assert a.size == 10
    # every background row exists in the source
    assert all(any(np.array_equal(row, src) for src in X) for row in a.B)


def test_sample_background_warns_when_source_small():
    X = np.random.default_rng(0).uniform(0, 1, (5, 3))
    with pytest.warns(UserWarning, match="reduced"):
        bg = attribution.sample_background(X, size=10, seed=0)
    assert bg.size == 5


def test_fingerprints_csv_roundtrip(tmp_path):
    model, rng = _random_relu_net(70)
    X = rng.uniform(0, 1, (6, 6))
    bg = BackgroundSet(B=rng.uniform(0, 1, (9, 6)))
    fps = attribution.fingerprint_batch(model, X, bg, origin="fgsm")
    path = tmp_path / "fps.csv"
    attribution.save_fingerprints(fps, path)
    back = attribution.load_fingerprints(path)
    assert back.n == fps.n
    assert np.array_equal(fps.phi, back.phi)
    assert fps.phi0 == back.phi0
    assert np.array_equal(fps.model_output, back.model_output)
    assert fps.origin == back.origin == "fgsm"
    assert np.array_equal(fps.sample_ids, back.sample_ids)
    attribution.save_fingerprints(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_load_fingerprints_rejects_varying_phi0(tmp_path):
    fps = Fingerprints(phi=np.ones((2, 3)), phi0=0.5, model_output=[3.5, 3.5], sample_ids=[4, 9])
    path = tmp_path / "fps.csv"
    attribution.save_fingerprints(fps, path)
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[1] == lines[2].split(",")[1] == "0.5"
    lines[2] = lines[2].replace(",0.5,", ",0.25,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="phi0"):
        attribution.load_fingerprints(path)


@pytest.mark.parametrize(
    "cells, message",
    [
        # the loader reads by position: 1.5 would be read as sample id 1
        ({0: "id"}, "header column 1 is 'id', expected 'sample_id'"),
        ({3: "phi_3"}, "header column 4 is 'phi_3', expected 'phi_2'"),
        ({4: "output"}, "header column 5 is 'output', expected 'model_output'"),
    ],
    ids=["sample-id", "phi-order", "model-output"],
)
def test_load_fingerprints_names_the_first_header_cell_its_writer_did_not_write(
    tmp_path, cells, message
):
    fps = Fingerprints(phi=np.ones((2, 2)), phi0=0.5, model_output=[2.5, 2.5], sample_ids=[4, 9])
    path = attribution.save_fingerprints(fps, tmp_path / "fps.csv")
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for j, name in cells.items():
        header[j] = name
    lines[0] = ",".join(header)
    lines[1] = "1.5" + lines[1][1:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{path}: {re.escape(message)}$"):
        attribution.load_fingerprints(path)


def test_completeness_violation_counter():
    fps = Fingerprints(
        phi=np.array([[1.0, 2.0], [1.0, 2.0]]), phi0=0.5,
        model_output=np.array([3.5, 9.0]), sample_ids=np.array([0, 1]),
    )
    assert fps.count_violations() == 1
    assert fps.completeness_gaps.tolist() == [0.0, 5.5]
    assert fps.max_completeness_gap == 5.5


def test_a_nan_completeness_gap_is_a_violation():
    fps = Fingerprints(
        phi=np.array([[1.0, np.nan], [1.0, 2.0]]), phi0=0.5,
        model_output=np.array([3.5, 3.5]), sample_ids=np.array([0, 1]),
    )
    assert fps.count_violations() == 1


def test_fingerprints_record_rejects_empty_and_ragged_columns():
    with pytest.raises(ValueError, match="^no fingerprints$"):
        Fingerprints(phi=np.empty((0, 3)), phi0=0.0, model_output=[], sample_ids=[])
    with pytest.raises(ValueError, match="one entry per phi row"):
        Fingerprints(phi=np.ones((2, 3)), phi0=0.0, model_output=[1.0], sample_ids=[0, 1])
