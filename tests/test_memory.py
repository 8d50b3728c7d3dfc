"""Peak memory of the full-size paths, traced with tracemalloc.

Each stage holds its full-size matrix once: reading a flow CSV, scoring
rows with the NIDS and scoring fingerprints with the autoencoder each peak
below three times the bytes of the matrix they produce or read (the input
itself, allocated before tracing starts, is not counted). A forward pass
that keeps its whole trace, or a loader that gathers the feature columns
twice, reads four to seven times. Reading back a split or an attack table,
its cell rules checked, peaks below two and a half times: a rule pass that
gathered the columns of a rule into a float copy reads above that.
"""

import tracemalloc

import numpy as np
import pytest

from shapguard import attacks, data, detector, neural

ROWS = 4000
M = 39  # the CIC-IoT2023 width


def _traced_peak(call, *args):
    """The call's result and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def X():
    return np.random.default_rng(0).uniform(0, 1, (ROWS, M))


def test_predict_peaks_below_three_times_its_input(X):
    model = neural.init(neural.MlpSpec((M, 64, 32, 1), seed=1))
    _, peak = _traced_peak(neural.predict, model, X)
    assert peak < 3 * X.nbytes


def test_reconstruction_errors_peak_below_three_times_the_fingerprints(X):
    ae = neural.init(detector.autoencoder_spec(M, seed=1))
    _, peak = _traced_peak(detector.reconstruction_errors, ae, X)
    assert peak < 3 * X.nbytes


def test_load_csv_peaks_below_three_times_its_output(tmp_path, X):
    schema = data.FeatureSchema.cic_iot2023()
    path = tmp_path / "flows.csv"
    raw = (X * 1000).round(3)
    raw[::100, 5] = np.inf  # rows load_csv drops
    labels = np.where(np.arange(ROWS) % 3, "DDoS-ICMP_Flood", "BenignTraffic")
    data.write_table(path, [*schema.names, "label"],
                     ([*x, label] for x, label in zip(raw.tolist(), labels)))
    with pytest.warns(UserWarning, match="dropped 40 row"):
        ds, peak = _traced_peak(data.load_csv, path, schema)
    assert ds.X.shape == (ROWS - 40, M)
    assert peak < 3 * ds.X.nbytes


def test_load_dataset_peaks_below_two_and_a_half_times_its_output(tmp_path, X):
    path = tmp_path / "split.csv"
    data.save_dataset(data.FlowDataset(data.FeatureSchema.cic_iot2023(), X=X,
                                       y=np.arange(ROWS) % 2), path)
    ds, peak = _traced_peak(data.load_dataset, path)
    assert np.array_equal(ds.X, X)
    assert peak < 2.5 * X.nbytes


def test_load_adv_batch_peaks_below_two_and_a_half_times_its_output(tmp_path, X):
    path = tmp_path / "pgd.csv"
    batch = attacks.AdvBatch(X_adv=X, success=np.arange(ROWS) % 2 == 0, linf=X[:, 0],
                             l2=X[:, 1], sample_index=np.arange(ROWS))
    attacks.save_adv_batch(batch, data.CIC_IOT2023_FEATURES, path)
    back, peak = _traced_peak(attacks.load_adv_batch, path)
    assert np.array_equal(back.X_adv, X)
    assert peak < 2.5 * X.nbytes
