import csv
import logging
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from shapguard import data
from shapguard.data import FeatureSchema, FlowDataset, ScalerParams, SplitSpec


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _small_schema():
    return FeatureSchema(("a", "b", "c"))


# ---------------------------------------------------------------------------
# schema


def test_cic_schema_has_39_features_with_table_indices():
    schema = FeatureSchema.cic_iot2023()
    assert schema.m == 39
    assert schema.names.index("Header_Length") == 0
    assert schema.names.index("IAT") == 36
    assert schema.names.index("Number") == 37
    assert schema.names.index("Variance") == 38


def test_schema_rejects_duplicates():
    with pytest.raises(ValueError, match="feature names must be unique"):
        FeatureSchema(("x", "x"))


# ---------------------------------------------------------------------------
# load_csv


def test_load_csv_maps_labels_via_benign_set(tmp_path):
    path = tmp_path / "flows.csv"
    _write_csv(
        path,
        ["a", "b", "c", "label"],
        [[1, 2, 3, "BenignTraffic"], [4, 5, 6, "DDoS-ICMP_Flood"]],
    )
    ds = data.load_csv(path, _small_schema())
    assert ds.y.tolist() == [0, 1]
    assert ds.X.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_load_csv_missing_column_names_it(tmp_path):
    schema = FeatureSchema.cic_iot2023()
    path = tmp_path / "flows.csv"
    header = [n for n in schema.names if n != "IAT"] + ["label"]
    _write_csv(path, header, [[0] * 38 + ["BenignTraffic"]])
    with pytest.raises(ValueError, match=r"flows.csv: missing required column\(s\): IAT$"):
        data.load_csv(path, schema)


def test_load_csv_shape_preserved(tmp_path):
    schema = FeatureSchema.cic_iot2023()
    rng = np.random.default_rng(0)
    rows = [[*rng.uniform(0, 9, 39).round(3), "Mirai"] for _ in range(100)]
    path = tmp_path / "flows.csv"
    _write_csv(path, [*schema.names, "label"], rows)
    ds = data.load_csv(path, schema)
    assert (ds.n, ds.m) == (100, 39)
    assert ds.y.sum() == 100


def test_load_csv_non_numeric_cell_reports_row_and_column(tmp_path):
    path = tmp_path / "flows.csv"
    _write_csv(path, ["a", "b", "c", "label"], [[1, "oops", 3, "x"]])
    with pytest.raises(ValueError, match=r"row 2, column 'b': cannot parse 'oops' as a number"):
        data.load_csv(path, _small_schema())


def test_load_csv_empty_file_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty.csv: file is empty"):
        data.load_csv(empty, _small_schema())
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b,c,label\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header.csv: no usable data rows"):
        data.load_csv(header_only, _small_schema())


def test_load_csv_drops_nan_inf_rows_with_warning(tmp_path):
    path = tmp_path / "flows.csv"
    _write_csv(
        path,
        ["a", "b", "c", "label"],
        [[1, 2, 3, "x"], ["nan", 2, 3, "x"], [1, "inf", 3, "x"], [7, 8, 9, "x"]],
    )
    with pytest.warns(UserWarning, match="dropped 2"):
        ds = data.load_csv(path, _small_schema())
    assert ds.n == 2


def _reference_load_csv(
    path,
    schema,
    label_column=data.LABEL_COLUMN,
    benign_labels=data.DEFAULT_BENIGN_LABELS,
):
    """The hand-written csv.reader parser load_csv replaced, kept verbatim
    as the oracle for the inputs both accept."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: file is empty")
        header = [cell.strip() for cell in header]
        positions = {name: i for i, name in enumerate(header)}

        missing = [n for n in (*schema.names, label_column) if n not in positions]
        if missing:
            raise ValueError(
                f"{path}: missing required column(s): {', '.join(missing)}"
            )
        feat_idx = [positions[n] for n in schema.names]
        label_idx = positions[label_column]
        max_idx = max(*feat_idx, label_idx)

        rows: list[list[float]] = []
        labels: list[int] = []
        dropped = 0
        for line_no, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) <= max_idx:
                raise ValueError(
                    f"{path}: row {line_no}: expected at least {max_idx + 1} cells, "
                    f"got {len(raw)}"
                )
            values = []
            for name, col in zip(schema.names, feat_idx):
                cell = raw[col].strip()
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {line_no}, column {name!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
            if not all(math.isfinite(v) for v in values):
                dropped += 1
                continue
            rows.append(values)
            labels.append(0 if raw[label_idx].strip() in benign_labels else 1)

    if dropped:
        warnings.warn(
            f"{path}: dropped {dropped} row(s) containing NaN/inf values",
            stacklevel=2,
        )
    if not rows:
        raise ValueError(f"{path}: no usable data rows")
    X = np.array(rows, dtype=np.float64)
    logging.getLogger(__name__).info(
        "loaded %d rows x %d features from %s", X.shape[0], X.shape[1], path
    )
    return FlowDataset(schema=schema, X=X, y=np.array(labels, dtype=np.int64))


def _spell(rng, v):
    """One of the spellings a raw CSV may hold for the float v."""
    return (repr(v), f"{v:.6g}", f"{v:.4e}", f"{v:E}", f" {v!r} ", f"\t{v:.3g}")[rng.integers(6)]


def test_load_csv_matches_the_reference_parser_bitwise(tmp_path):
    schema = FeatureSchema(("Rate", "Protocol Type", "IAT", "Tot sum", "f4", "f5"))
    rng = np.random.default_rng(17)
    # schema columns shuffled, numeric extra columns before, between and
    # after them, the label in the middle, a padded header cell
    header = ["x0", "IAT", " Rate ", "x1", "f5", "label", "Tot sum", "x2", "f4",
              "Protocol Type", "x3"]
    lines = [",".join(header)]
    for i in range(400):
        cells = [_spell(rng, float(v)) for v in rng.normal(0, 10.0 ** rng.integers(-6, 7), 11)]
        cells[5] = ["BenignTraffic", " BenignTraffic ", "Mirai", "DDoS-ICMP_Flood", ""][i % 5]
        if i % 23 == 0:
            cells[1 + i % 4] = ["-0.0", "0", "-0", "4.9e-324"][i % 4]
        if i % 17 == 0:
            cells[[1, 2, 4, 6, 8, 9][i % 6]] = ["inf", "-inf", "nan", "NaN", " Infinity", "-nan"][i % 6]
        if i % 19 == 0:
            cells[[0, 3, 7, 10][i % 4]] = ["inf", "nan"][i % 2]  # not a schema column: kept
        lines.append(",".join(cells))
        if i % 50 == 0:
            lines.append("")
    path = tmp_path / "flows.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))

    with pytest.warns(UserWarning) as expected_warnings:
        expected = _reference_load_csv(path, schema)
    with pytest.warns(UserWarning) as got_warnings:
        got = data.load_csv(path, schema)
    assert got.X.tobytes() == expected.X.tobytes()
    assert np.array_equal(got.y, expected.y)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in expected_warnings]
    assert "dropped 24 row(s)" in str(got_warnings[0].message)
    assert 0 < got.y.mean() < 1 and np.signbit(got.X).any()


# ---------------------------------------------------------------------------
# scaler


def test_fit_scaler_column_min_max():
    ds = FlowDataset(FeatureSchema(("a",)), np.array([[2.0], [4.0], [6.0]]), [0, 0, 1])
    s = data.fit_scaler(ds)
    assert s.min.tolist() == [2.0]
    assert s.max.tolist() == [6.0]


def test_fit_scaler_constant_column():
    ds = FlowDataset(FeatureSchema(("a",)), np.array([[5.0], [5.0]]), [0, 1])
    s = data.fit_scaler(ds)
    assert s.min[0] == s.max[0] == 5.0


def test_fit_scaler_per_column_independence():
    ds = FlowDataset(
        FeatureSchema(("a", "b")), np.array([[0.0, 10.0], [1.0, 30.0]]), [0, 1]
    )
    s = data.fit_scaler(ds)
    assert s.min.tolist() == [0.0, 10.0]
    assert s.max.tolist() == [1.0, 30.0]


def test_apply_scaler_midpoint_clamp_and_degenerate():
    schema = FeatureSchema(("a", "b"))
    s = ScalerParams(min=np.array([2.0, 5.0]), max=np.array([6.0, 5.0]))
    ds = FlowDataset(schema, np.array([[4.0, 7.0], [10.0, 5.0]]), [0, 1])
    scaled = data.apply_scaler(ds, s)
    assert scaled.X[0, 0] == 0.5       # midpoint
    assert scaled.X[1, 0] == 1.0       # clamp above
    assert scaled.X[:, 1].tolist() == [0.0, 0.0]  # degenerate column


def test_apply_scaler_dimension_mismatch():
    s = ScalerParams(min=np.zeros(2), max=np.ones(2))
    ds = FlowDataset(_small_schema(), np.zeros((1, 3)), [0])
    with pytest.raises(ValueError, match="scaler has 2 features but dataset has 3"):
        data.apply_scaler(ds, s)


def test_rescaling_already_scaled_data_is_identity():
    rng = np.random.default_rng(3)
    schema = FeatureSchema.synthetic(5)
    ds = FlowDataset(schema, rng.uniform(-4, 9, (40, 5)), rng.integers(0, 2, 40))
    once = data.apply_scaler(ds, data.fit_scaler(ds))
    twice = data.apply_scaler(once, data.fit_scaler(once))
    assert np.max(np.abs(twice.X - once.X)) <= 1e-12


def test_scaled_values_always_in_unit_box():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n, m = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        X = rng.normal(0, 10.0 ** int(rng.integers(-3, 4)), (n, m))
        ds = FlowDataset(FeatureSchema.synthetic(m), X, rng.integers(0, 2, n))
        scaled = data.apply_scaler(ds, data.fit_scaler(ds))
        assert scaled.X.min() >= 0.0 and scaled.X.max() <= 1.0


# ---------------------------------------------------------------------------
# split


def _toy_dataset(n=10, seed=0):
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n // 2))
    return FlowDataset(FeatureSchema.synthetic(2), rng.uniform(0, 1, (n, 2)), y)


def test_split_sizes_and_determinism():
    ds = _toy_dataset(10)
    spec = SplitSpec(0.6, 0.2, 0.2, seed=7)
    tr, va, te = data.split(ds, spec)
    assert (tr.n, va.n, te.n) == (6, 2, 2)
    tr2, va2, te2 = data.split(ds, spec)
    assert np.array_equal(tr.X, tr2.X) and np.array_equal(te.y, te2.y)


def test_split_is_stratified_within_one_sample():
    ds = _toy_dataset(100, seed=5)
    tr, va, te = data.split(ds, SplitSpec(0.8, 0.1, 0.1, seed=3))
    for part in (tr, va, te):
        assert abs(part.y.sum() - part.n / 2) <= 1


def test_split_is_a_partition():
    ds = _toy_dataset(50, seed=2)
    key = ds.X[:, 0]
    tr, va, te = data.split(ds, SplitSpec(0.5, 0.25, 0.25, seed=9))
    recovered = np.sort(np.concatenate([tr.X[:, 0], va.X[:, 0], te.X[:, 0]]))
    assert np.array_equal(recovered, np.sort(key))
    assert tr.n + va.n + te.n == ds.n


def test_split_warns_when_class_missing_from_split():
    # a single malicious row cannot reach all three splits
    y = np.array([0] * 29 + [1])
    ds = FlowDataset(FeatureSchema.synthetic(2), np.random.default_rng(0).uniform(0, 1, (30, 2)), y)
    with pytest.warns(UserWarning, match="no rows of class"):
        data.split(ds, SplitSpec(0.4, 0.3, 0.3, seed=1))


def test_split_preconditions():
    ds = _toy_dataset(2)
    with pytest.raises(ValueError, match="need at least 3 rows to split"):
        data.split(ds, SplitSpec(seed=0))
    with pytest.raises(ValueError):
        SplitSpec(0.5, 0.2, 0.2, seed=0)
    with pytest.raises(ValueError):
        SplitSpec(-0.2, 0.6, 0.6, seed=0)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_shape_and_labels():
    ds = data.synth_generate(100, 10, class_separation=0.4, noise=0.05, seed=1)
    assert ds.n == 200 and ds.m == 10
    assert ds.y.sum() == 100
    assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0


def test_synth_zero_separation_means_identical_class_distributions():
    ds = data.synth_generate(2000, 6, class_separation=0.0, noise=0.1, seed=4)
    benign = ds.X[ds.y == 0]
    malicious = ds.X[ds.y == 1]
    gap = np.abs(benign.mean(axis=0) - malicious.mean(axis=0))
    assert gap.max() < 0.02  # sampling error only


def test_synth_deterministic_under_seed():
    a = data.synth_generate(50, 7, 0.3, 0.1, seed=9)
    b = data.synth_generate(50, 7, 0.3, 0.1, seed=9)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_synth_noise_features_uninformative():
    # last ceil(m/4) features: identical class-conditional distribution
    ds = data.synth_generate(5000, 8, class_separation=0.6, noise=0.1, seed=2)
    tail = ds.X[:, 6:]
    gap = np.abs(tail[ds.y == 0].mean(axis=0) - tail[ds.y == 1].mean(axis=0))
    assert gap.max() < 0.01


def test_synth_preconditions():
    with pytest.raises(ValueError):
        data.synth_generate(0, 5, 0.3, 0.1, 0)
    with pytest.raises(ValueError):
        data.synth_generate(5, 1, 0.3, 0.1, 0)
    with pytest.raises(ValueError):
        data.synth_generate(5, 5, 0.3, -0.1, 0)


# ---------------------------------------------------------------------------
# persistence


def test_dataset_csv_roundtrip_is_exact(tmp_path):
    ds = data.synth_generate(20, 5, 0.3, 0.1, seed=6)
    path = tmp_path / "ds.csv"
    data.save_dataset(ds, path)
    back = data.load_dataset(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)
    assert back.schema.names == ds.schema.names


def test_table_roundtrip_with_a_text_column(tmp_path):
    path = data.write_table(
        tmp_path / "sub" / "t.csv", ["id", "name", "x"],
        [[1, "a,b", 0.1], [2, 'say "hi"', -0.0]],
    )
    header, values, text = data.read_table(path, text=("name",))
    assert header == ["id", "name", "x"]
    assert values[:, [0, 2]].tolist() == [[1.0, 0.1], [2.0, -0.0]]
    assert np.isnan(values[:, 1]).all()
    assert text == {"name": ["a,b", 'say "hi"']}


def test_write_table_writes_the_bytes_of_csv_writer(tmp_path):
    bits = np.random.default_rng(4).integers(0, 2**64, 2000, dtype=np.uint64)
    floats = bits.view(np.float64)  # every exponent, NaN and inf included
    rows = [
        [0.0, -0.0, 1e16, 1e-05, 5e-324, math.nan, math.inf, -math.inf, 1e15, 0.1],
        [np.float64(v) for v in (0.0, -0.0, 1e16, 1e-05, 5e-324, math.nan, math.inf, 0.1)],
        [3, -7, np.int64(12), True, False, np.float64(2.5)],
        [1, None, 2.5],
        [None],
        # one str per row that sends the row to csv.writer, each on its own
        *([cell, 0.5] for cell in ("a,b", 'say "hi"', "two\nlines", "cr\rhere", "None")),
        ["plain", " spaces ", "", "text"],
        [""],
        ["", ""],
        [],
        (4, 2.0),
        list(floats),
        floats.tolist(),
    ]
    header = ["id", "a name", "comma,name"]
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    written = data.write_table(tmp_path / "t.csv", header, iter(rows))
    assert written.read_bytes() == expected.read_bytes()


def test_read_table_rejects_empty_and_ragged_files(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="t.csv: file is empty"):
        data.read_table(path)
    path.write_text("a,b\n")
    assert data.read_table(path)[1].shape == (0, 2)
    for body in ("1,2\n3\n", "1,2,3\n", "1\n"):
        path.write_text("a,b\n" + body)
        with pytest.raises(ValueError, match=r"t.csv: row \d has \d cells but the header has 2"):
            data.read_table(path)
    path.write_text("a,b\n1,x\n")
    with pytest.raises(ValueError, match="t.csv: row 2, column 'b': cannot parse 'x'"):
        data.read_table(path)
    with pytest.raises(ValueError, match=r"t.csv: missing column\(s\): c"):
        data.read_table(path, text=("c",))


def test_read_table_names_the_file_line_of_a_bad_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n  \n3,x\n")
    with pytest.raises(ValueError, match=r"t.csv: row 5, column 'b': cannot parse 'x'"):
        data.read_table(path)
    path.write_text("a,b\r\n1,2\r\n\r\n3,4,5\r\n")
    with pytest.raises(ValueError, match=r"t.csv: row 4 has 3 cells but the header has 2"):
        data.read_table(path)


def test_read_table_rejects_a_non_finite_number_unless_asked_not_to(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,name,b\n1,x,2\n\n3,y,inf\n")
    with pytest.raises(ValueError, match=r"t.csv: row 4, column 'b': inf is not a finite value$"):
        data.read_table(path, text=("name",))
    _, values, _ = data.read_table(path, text=("name",), rules={"*": None})
    assert values[1, 2] == np.inf


@pytest.mark.parametrize(
    "rule, cell, message",
    [("finite", "-inf", "-inf is not a finite value"),
     ("box", "1.5", "1.5 is not a finite value in [0, 1]"),
     ("box", "-1e-09", "-1e-09 is not a finite value in [0, 1]"),
     ("binary", "0.5", "0.5 is not 0 or 1"),
     ("whole", "-1", "-1.0 is not a whole number >= 0"),
     ("whole", "2.7", "2.7 is not a whole number >= 0"),
     ("whole", "1e19", "1e+19 is not a whole number >= 0"),
     *((rule, "nan", f"nan is not {what}") for rule, what in (
         ("box", "a finite value in [0, 1]"), ("binary", "0 or 1"),
         ("whole", "a whole number >= 0")))],
    ids=["finite-inf", "box-above", "box-below", "binary-half", "whole-negative",
         "whole-fraction", "whole-too-large", "box-nan", "binary-nan", "whole-nan"],
)
def test_read_table_names_a_cell_that_breaks_its_columns_rule(tmp_path, rule, cell, message):
    path = tmp_path / "t.csv"
    path.write_text(f"a,b\n1,0\n1,{cell}\n")
    with pytest.raises(ValueError) as caught:
        data.read_table(path, rules={"b": rule, "a": None})
    assert str(caught.value) == f"{path}: row 3, column 'b': {message}"


def test_read_table_passes_cells_on_the_edge_of_each_rule(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(f"f,x,b,w\n-1e300,{-data.BOX_TOL},0,0\n1e300,{1 + data.BOX_TOL},1,9e18\n")
    _, values, _ = data.read_table(path, rules={"x": "box", "b": "binary", "w": "whole"})
    assert values[:, 3].tolist() == [0.0, 9e18]


def test_read_table_names_the_first_bad_cell_in_row_major_order(tmp_path):
    """Each column breaks its own rule, on a later row the further left it
    is; blank lines count in the row number."""
    path = tmp_path / "t.csv"
    path.write_text("w,b,x,f\n0,0,0,0\n\n0,0,0,inf\n0,0,2,inf\n0,3,2,inf\n\n2.5,3,2,inf\n")
    rules = {"w": "whole", "b": "binary", "*": "box", "f": "finite"}
    with pytest.raises(ValueError, match=r"t.csv: row 4, column 'f': inf is not a finite value$"):
        data.read_table(path, rules=rules)
    for fixed, message in [("f", "row 5, column 'x': 2.0 is not a finite value in"),
                           ("x", "row 6, column 'b': 3.0 is not 0 or 1"),
                           ("b", "row 8, column 'w': 2.5 is not a whole number")]:
        rules[fixed] = None
        with pytest.raises(ValueError, match=f"t.csv: {re.escape(message)}"):
            data.read_table(path, rules=rules)


def test_read_table_never_checks_a_text_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,name,b\n0.5,nan,0\n0.5,7,1\n")
    _, values, text = data.read_table(path, text=("name",), rules={"*": "box", "name": "binary"})
    assert np.isnan(values[:, 1]).all() and text == {"name": ["nan", "7"]}


def test_read_table_without_rules_leaves_nan_cells_for_load_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,label\nnan,x\n-inf,y\n0.5,z\n")
    _, values, _ = data.read_table(path, text=("label",), rules={"*": None})
    assert np.isnan(values[0, 0]) and values[1, 0] == -np.inf
    with pytest.warns(UserWarning, match="dropped 2 row"):
        ds = data.load_csv(path, FeatureSchema(("a",)), benign_labels={"x"})
    assert ds.X.tolist() == [[0.5]] and ds.y.tolist() == [1]


@pytest.mark.parametrize("value", [[0.5, True], [[1, 2], [False, 3]], [[0.5], [1.0], [True]]])
def test_float_array_rejects_a_boolean_among_numbers(value):
    with pytest.raises(ValueError, match="field 'w' must hold only numbers, got booleans"):
        data.float_array(value, "w")


@pytest.mark.parametrize(
    "cell",
    ["1_000", "\u0663", "\xa01.5", "1.5\u3000", "\x1c7", " 1.5 ", "inf", "-nan", "1e400",
     ".5", "+1", "4.9e-324", "0x1p3", "1d5", "", " ", "1 5", "nan(1)", "--1", "1e"],
)
def test_read_table_locates_exactly_the_cells_numpy_rejects(tmp_path, cell):
    """A cell numpy cannot read is named by its line and column; one it can
    read is passed over, so the error names the ragged row after it."""
    try:
        np.loadtxt([f'"{cell}"'], delimiter=",", quotechar='"', comments=None)
        message = "row 4 has 3 cells"
    except ValueError:
        message = "row 3, column 'b'"
    path = tmp_path / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["a", "b"], [1, 2], [3, cell], [4, 5, 6]])
    with pytest.raises(ValueError, match=message):
        data.read_table(path)


def test_json_artifact_rejects_truncated_file(tmp_path):
    path = data.write_json(tmp_path / "p.json", {"a": [1.5, None]})
    assert path.read_text() == '{\n  "a": [\n    1.5,\n    null\n  ]\n}\n'
    assert data.read_json(path) == {"a": [1.5, None]}
    path.write_text(path.read_text()[:-5])
    with pytest.raises(ValueError, match="p.json: not valid JSON"):
        data.read_json(path)


@pytest.mark.parametrize(
    "text, got", [("[1, 2]", "array"), ('"x"', "string"), ("3", "number"), ("2.5", "number"),
                  ("true", "boolean"), ("null", "null")]
)
def test_read_json_names_the_json_type_of_a_file_that_holds_no_object(tmp_path, text, got):
    path = tmp_path / "p.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a JSON object, got {got}$"):
        data.read_json(path)


def _raise(exc):
    def parse(payload):
        raise exc
    return parse


@pytest.mark.parametrize(
    "exc, message",
    [(ValueError("field 'a' must be a list, got int"), "field 'a' must be a list, got int"),
     (KeyError("a"), "missing field 'a'"),
     (TypeError("'stages' is not a mapping"), "malformed field: 'stages' is not a mapping")],
    ids=["ValueError", "KeyError", "TypeError"],
)
def test_read_json_makes_its_parsers_errors_a_value_error_naming_the_file(tmp_path, exc, message):
    path = data.write_json(tmp_path / "p.json", {"a": 1})
    with pytest.raises(ValueError) as info:
        data.read_json(path, _raise(exc))
    assert type(info.value) is ValueError and str(info.value) == f"{path}: {message}"
    assert data.read_json(path, lambda payload: payload["a"] + 1) == 2


def test_write_json_pins_the_bytes_of_both_layouts(tmp_path):
    payload = {"rows": [{"id": 0, "score": 0.1, "ok": True}], "tau": 2.5e-07,
               "none": None, "name": "é", "empty": {}}
    compact = data.write_json(tmp_path / "c.json", payload, indent=None)
    assert compact.read_bytes() == (
        b'{"rows": [{"id": 0, "score": 0.1, "ok": true}], "tau": 2.5e-07, '
        b'"none": null, "name": "\\u00e9", "empty": {}}\n'
    )
    indented = data.write_json(tmp_path / "i.json", payload)
    assert indented.read_bytes() == (
        b'{\n  "rows": [\n    {\n      "id": 0,\n      "score": 0.1,\n      "ok": true\n'
        b'    }\n  ],\n  "tau": 2.5e-07,\n  "none": null,\n  "name": "\\u00e9",\n'
        b'  "empty": {}\n}\n'
    )


def test_scaler_json_roundtrip(tmp_path):
    schema = FeatureSchema.synthetic(3)
    s = ScalerParams(min=np.array([0.0, 1.5, -2.0]), max=np.array([1.0, 1.5, 4.0]))
    path = tmp_path / "scaler.json"
    data.save_scaler(s, schema, path)
    s2, schema2 = data.load_scaler(path)
    assert np.array_equal(s2.min, s.min) and np.array_equal(s2.max, s.max)
    assert schema2.names == schema.names


def test_dataset_is_immutable():
    ds = data.synth_generate(5, 4, 0.3, 0.1, seed=0)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0


def test_dataset_keeps_a_c_ordered_float64_matrix_and_copies_any_other_layout():
    schema, y = FeatureSchema(("a", "b", "c")), np.array([0, 1, 1, 0])
    X = np.arange(12.0).reshape(4, 3)
    ds = FlowDataset(schema, X, y)
    assert ds.X is X and not X.flags.writeable
    table = np.arange(16.0).reshape(4, 4)
    for other in (table[:, :-1], np.asfortranarray(X), X.astype(np.float32)):
        ds = FlowDataset(schema, other, y)
        assert ds.X.flags.c_contiguous and not ds.X.flags.writeable
        assert not np.shares_memory(ds.X, other)
        assert np.array_equal(ds.X, other)
    assert table.flags.writeable


@pytest.mark.parametrize("y", [[0.7, 1.0], [1.9, 0.0], [-0.5, 1.0], [2, 0]])
def test_dataset_rejects_a_label_that_is_not_0_or_1_before_casting_it(y):
    with pytest.raises(ValueError, match="labels must be 0"):
        FlowDataset(FeatureSchema(("a",)), np.zeros((2, 1)), y)
