"""Flow-feature dataset handling: ingestion, scaling, splitting, synthesis,
and the artifact codec every pipeline stage reads and writes files with.

Feature matrices are float64 throughout. After min-max preprocessing every
value lies in the [0, 1] box; the attack budgets and attribution baselines
downstream rely on that box being fixed.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# CIC-IoT2023 flow features in canonical column order (index 0..38).
CIC_IOT2023_FEATURES: tuple[str, ...] = (
    "Header_Length",
    "Protocol Type",
    "Time_To_Live",
    "Rate",
    "fin_flag_number",
    "syn_flag_number",
    "rst_flag_number",
    "psh_flag_number",
    "ack_flag_number",
    "ece_flag_number",
    "cwr_flag_number",
    "ack_count",
    "syn_count",
    "fin_count",
    "rst_count",
    "HTTP",
    "HTTPS",
    "DNS",
    "Telnet",
    "SMTP",
    "SSH",
    "IRC",
    "TCP",
    "UDP",
    "DHCP",
    "ARP",
    "ICMP",
    "IGMP",
    "IPv",
    "LLC",
    "Tot sum",
    "Min",
    "Max",
    "AVG",
    "Std",
    "Tot size",
    "IAT",
    "Number",
    "Variance",
)

# Label strings mapped to the benign class; everything else is malicious.
DEFAULT_BENIGN_LABELS = frozenset({"BenignTraffic"})

LABEL_COLUMN = "label"

# Slack allowed outside the [0, 1] box before a scaled value is rejected.
BOX_TOL = 1e-12

# The rules of read_table: each maps a float64 matrix to the mask of the
# cells it rejects, NaN always among them, and names what such a cell is not.
CELL_RULES = {
    "finite": (lambda v: ~np.isfinite(v), "a finite value"),
    "box": (lambda v: ~((v >= -BOX_TOL) & (v <= 1.0 + BOX_TOL)), "a finite value in [0, 1]"),
    "binary": (lambda v: (v != 0) & (v != 1), "0 or 1"),
    "whole": (lambda v: ~((v >= 0) & (v < 2.0**63) & (v % 1 == 0)), "a whole number >= 0"),
}


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered, unique feature names; list position is the column index.
    No feature is named like the label column the splits are saved with."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 1:
            raise ValueError("schema needs at least one feature")
        for name in names:
            if type(name) is not str:
                raise ValueError(f"feature names must be strings, got {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        if LABEL_COLUMN in names:
            raise ValueError(f"no feature may be named {LABEL_COLUMN!r}, the label column's name")

    @property
    def m(self) -> int:
        return len(self.names)

    @classmethod
    def cic_iot2023(cls) -> "FeatureSchema":
        return cls(CIC_IOT2023_FEATURES)

    @classmethod
    def synthetic(cls, m: int) -> "FeatureSchema":
        return cls(tuple(f"f{j}" for j in range(m)))


@dataclass(frozen=True)
class FlowDataset:
    """Immutable matrix of flow feature vectors with binary labels.

    y == 0 is benign traffic, y == 1 is malicious traffic. A C-ordered
    float64 X is held as given, not copied, and made read-only.
    """

    schema: FeatureSchema
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        # any other layout is copied to C order: 2-d products can round a row
        # of a strided matrix differently
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {X.shape}")
        if X.shape[1] != self.schema.m:
            raise ValueError(f"X has {X.shape[1]} columns but schema has {self.schema.m} features")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError(f"label count {y.shape} does not match row count {X.shape[0]}")
        # checked before the cast, which would truncate 0.7 to 0
        if y.size and not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 (benign) or 1 (malicious)")
        y = np.array(y, dtype=np.int64)
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.schema.m


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature min/max fitted on training data only."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self) -> None:
        lo, hi = float_array(self.min, "min"), float_array(self.max, "max")
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("scaler min/max must be 1-d arrays of equal length")
        for field, values in (("min", lo), ("max", hi)):
            bad = values[~np.isfinite(values)]  # json reads NaN and Infinity
            if bad.size:
                raise ValueError(f"field {field!r} must hold only finite numbers, got {bad[0]}")
        if np.any(hi < lo):
            raise ValueError("scaler max must be >= min per feature")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)

    @property
    def m(self) -> int:
        return self.min.shape[0]


@dataclass(frozen=True)
class SplitSpec:
    """Stratified train/val/test fractions plus the shuffle seed."""

    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise ValueError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")


def load_csv(
    path: str | Path,
    schema: FeatureSchema,
    label_column: str = LABEL_COLUMN,
    benign_labels: frozenset[str] | set[str] = DEFAULT_BENIGN_LABELS,
) -> FlowDataset:
    """Load a raw flow-feature CSV into a FlowDataset.

    The file is read by :func:`read_table`, so every column but the label
    column must be numeric. The schema columns are taken by name, in schema
    order; other columns are ignored. Label cells, stripped, found in
    ``benign_labels`` map to 0, everything else to 1. Rows with NaN/inf in a
    schema column are dropped with a counted warning.

    Raises a ValueError naming the file, as :func:`read_table` does, when a
    schema column is missing from the header or no usable data row is left.
    """
    header, values, text = read_table(path, text=(label_column,), rules={"*": None})
    positions = {name: i for i, name in enumerate(header)}
    missing = [name for name in schema.names if name not in positions]
    if missing:
        raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
    columns = [positions[name] for name in schema.names]
    finite = np.isfinite(values)[:, columns].all(axis=1)
    dropped = int(np.count_nonzero(~finite))
    if dropped:
        warnings.warn(
            f"{path}: dropped {dropped} row(s) containing NaN/inf values",
            stacklevel=2,
        )
    if not finite.any():
        raise ValueError(f"{path}: no usable data rows")
    y = np.array([label.strip() not in benign_labels for label in text[label_column]])
    logger.info("loaded %d rows x %d features from %s", finite.sum(), schema.m, path)
    return FlowDataset(schema=schema, X=values[np.ix_(finite, columns)], y=y[finite])


def fit_scaler(ds: FlowDataset) -> ScalerParams:
    """Compute per-feature min/max from ``ds`` only (never from test data)."""
    if ds.n < 1:
        raise ValueError("cannot fit a scaler on an empty dataset")
    return ScalerParams(min=ds.X.min(axis=0), max=ds.X.max(axis=0))


def apply_scaler(ds: FlowDataset, s: ScalerParams) -> FlowDataset:
    """Min-max scale into [0, 1], clamping; constant features map to 0."""
    if s.m != ds.m:
        raise ValueError(f"scaler has {s.m} features but dataset has {ds.m}")
    span = s.max - s.min
    safe = np.where(span > 0, span, 1.0)
    scaled = ds.X - s.min
    scaled /= safe
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled[:, span <= 0] = 0.0
    return FlowDataset(schema=ds.schema, X=scaled, y=ds.y)


def _largest_remainder(n: int, fracs: tuple[float, ...]) -> list[int]:
    """Integer allocation of n by fractions, deterministic tie-breaking."""
    quotas = [n * f for f in fracs]
    counts = [int(math.floor(q)) for q in quotas]
    leftovers = sorted(
        range(len(fracs)),
        key=lambda i: (-(quotas[i] - counts[i]), i),
    )
    for i in leftovers[: n - sum(counts)]:
        counts[i] += 1
    return counts


def split(
    ds: FlowDataset, spec: SplitSpec
) -> tuple[FlowDataset, FlowDataset, FlowDataset]:
    """Deterministic class-stratified shuffle split.

    Each class is shuffled under the seed and allocated to train/val/test by
    largest-remainder rounding, so every split's class ratio matches the
    whole dataset within one sample per class. Identical spec (including
    seed) always yields identical row assignments.
    """
    if ds.n < 3:
        raise ValueError("need at least 3 rows to split")
    rng = np.random.default_rng(spec.seed)
    fracs = (spec.train_frac, spec.val_frac, spec.test_frac)
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in np.unique(ds.y):
        cls_idx = np.flatnonzero(ds.y == cls)
        shuffled = cls_idx[rng.permutation(cls_idx.size)]
        counts = _largest_remainder(cls_idx.size, fracs)
        start = 0
        for part, count in zip(parts, counts):
            part.append(shuffled[start : start + count])
            start += count
    names = ("train", "val", "test")
    out = []
    for name, chunks in zip(names, parts):
        idx = np.sort(np.concatenate(chunks))
        for cls in np.unique(ds.y):
            if not np.any(ds.y[idx] == cls):
                warnings.warn(
                    f"split {name!r} received no rows of class {cls}",
                    stacklevel=2,
                )
        out.append(FlowDataset(schema=ds.schema, X=ds.X[idx], y=ds.y[idx]))
    return out[0], out[1], out[2]


def synth_generate(
    n_per_class: int,
    m: int,
    class_separation: float = 0.3,
    noise: float = 0.1,
    seed: int = 0,
) -> FlowDataset:
    """Generate a two-class Gaussian-mixture dataset inside [0, 1]^m.

    Class centroids sit ``class_separation`` apart along a seeded random
    direction d. Variance along d is tied to the separation (sigma =
    class_separation / 6, so class overlap stays small whenever the classes
    are separated at all); ``noise`` controls the variance perpendicular to
    d, which spreads the per-feature ranges without mixing the classes. The
    last ceil(m/4) features carry no class signal (identical distribution
    in both classes) so importance-rank analysis has known ground truth.
    Benign rows (y=0) come first, then malicious (y=1).
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    n_noise = math.ceil(m / 4)
    n_informative = m - n_noise

    # Random signs with magnitudes in [0.5, 1.5]: every informative feature
    # contributes, with enough spread for distinct importance ranks.
    direction = np.zeros(m)
    signs = rng.choice((-1.0, 1.0), size=n_informative)
    direction[:n_informative] = signs * rng.uniform(0.5, 1.5, n_informative)
    direction /= np.linalg.norm(direction)

    n = n_per_class
    margin_sigma = class_separation / 6.0
    margins = np.concatenate(
        [
            -0.5 * class_separation + margin_sigma * rng.standard_normal(n),
            +0.5 * class_separation + margin_sigma * rng.standard_normal(n),
        ]
    )
    eta = noise * rng.standard_normal((2 * n, m))
    eta -= np.outer(eta @ direction, direction)  # strictly perpendicular to d
    X = np.clip(0.5 + margins[:, None] * direction + eta, 0.0, 1.0)
    y = np.concatenate([np.zeros(n, int), np.ones(n, int)])
    return FlowDataset(schema=FeatureSchema.synthetic(m), X=X, y=y)


def save_dataset(ds: FlowDataset, path: str | Path) -> Path:
    """Write a dataset as a table: the feature columns, then the int label.
    Returns the path written."""
    rows = (row.tolist() + [label] for row, label in zip(ds.X, ds.y.tolist()))
    return write_table(path, [*ds.schema.names, LABEL_COLUMN], rows)


def load_dataset(path: str | Path) -> FlowDataset:
    """Read back a table written by :func:`save_dataset`, its features in the box."""
    header, values, _ = read_table(path, rules={LABEL_COLUMN: "binary", "*": "box"})
    if header[-1] != LABEL_COLUMN:
        raise ValueError(f"{path}: not a saved dataset (missing label column)")
    if not len(values):
        raise ValueError(f"{path}: no data rows")
    return FlowDataset(
        schema=FeatureSchema(tuple(header[:-1])), X=values[:, :-1], y=values[:, -1]
    )


def save_scaler(s: ScalerParams, schema: FeatureSchema, path: str | Path) -> Path:
    return write_json(
        path, {"schema": list(schema.names), "min": s.min.tolist(), "max": s.max.tolist()}
    )


def _scaler_from_dict(payload: dict) -> tuple[ScalerParams, FeatureSchema]:
    schema = FeatureSchema(tuple(json_value(payload["schema"], "schema", list)))
    params = ScalerParams(min=payload["min"], max=payload["max"])
    if params.m != schema.m:
        raise ValueError("scaler/schema dimension mismatch")
    return params, schema


def load_scaler(path: str | Path) -> tuple[ScalerParams, FeatureSchema]:
    return read_json(path, _scaler_from_dict)


# ---------------------------------------------------------------------------
# artifact codec: every CSV and JSON file the pipeline writes goes through
# these four functions


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write a CSV artifact: the header, then one line per row.

    The default csv dialect writes a float (Python or numpy float64) as
    ``repr(float(v))``, which :func:`read_table` parses back bit-exactly,
    and None as an empty cell. Pass bools as ints. A row is written as its
    cells' str joined by commas, which are the same bytes, unless the line
    shows a cell the dialect writes otherwise; csv.writer writes that row.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in itertools.chain([header], rows):
            line = ",".join(map(str, row))
            # an empty line (no cell or one empty cell), a cell holding a
            # comma (one comma too many), a quote or a line break, or None
            if (line and line.count(",") == len(row) - 1
                    and not any(special in line for special in ('"', "\r", "\n", "None"))):
                fh.write(line + "\r\n")
            else:
                writer.writerow(row)
    return path


def read_table(
    path: str | Path, text: Sequence[str] = (), rules: Mapping[str, str | None] = {},
    columns: Callable[[list[str]], Sequence[str]] | None = None,
) -> tuple[list[str], np.ndarray, dict[str, list[str]]]:
    """Read a CSV file in the dialect :func:`write_table` writes.

    Returns the header (its cells stripped), a float64 matrix with one row
    per non-blank line and one column per header cell, and the cells of the
    columns named in ``text`` as lists of str (their matrix columns hold NaN).

    ``rules`` maps a column name to the :data:`CELL_RULES` rule its cells
    must meet, or to None; ``"*"`` covers every other number column and
    defaults to ``"finite"``. A rule naming no column is unused.
    ``columns``, for a loader that reads its columns by position, gives
    the names the table's writer writes, from the header read (they may
    depend on its width or its feature names), at least as many as it has.

    Raises a ValueError naming the file when it is empty, a header cell
    differs from its ``columns`` name (the first is named), the header names
    a column twice, a text column is missing, a row's width differs from
    the header's, a cell is not a number or one breaks its column's rule; a
    bad row is named by its file line, the first bad cell in row-major order.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        header = [name.strip() for name in next(csv.reader([fh.readline()]), [])]
        if not header:
            raise ValueError(f"{path}: file is empty")
        expected = header if columns is None else columns(header)
        for j, (got, want) in enumerate(itertools.zip_longest(header, expected), start=1):
            if got != want:
                got = "missing" if got is None else repr(got)
                raise ValueError(f"{path}: header column {j} is {got}, expected {want!r}")
        for j, name in enumerate(header):
            if header.index(name) < j:
                raise ValueError(f"{path}: the header names column {name!r} twice, "
                                 f"at columns {header.index(name) + 1} and {j + 1}")
        missing = [name for name in text if name not in header]
        if missing:
            raise ValueError(f"{path}: missing column(s): {', '.join(missing)}")
        cells: dict[str, list[str]] = {name: [] for name in text}
        # list.append returns None, which numpy stores as NaN
        converters = {header.index(name): cells[name].append for name in text}
        values = np.empty((0, len(header)))
        # np.loadtxt streams the data lines; it is handed the first one apart
        # because it warns on input without any.
        lines = (line for _, line in _data_lines(fh))
        first = next(lines, None)
        try:
            if first is not None:
                values = np.loadtxt(
                    itertools.chain([first], lines), dtype=np.float64, delimiter=",",
                    quotechar='"', comments=None, converters=converters, ndmin=2,
                )
            if values.shape[1] != len(header):
                raise ValueError(f"rows have {values.shape[1]} cells, the header {len(header)}")
        except ValueError as exc:
            # numpy counts rows from the first data line: scan the lines
            # again to name the first bad one by its file line.
            for line_no, line in _data_lines(fh):
                row = next(csv.reader([line]))
                if len(row) != len(header):
                    raise ValueError(f"{path}: row {line_no} has {len(row)} cells "
                                     f"but the header has {len(header)}") from None
                for j, cell in enumerate(row):
                    if j not in converters and not _parses_as_float64(cell):
                        raise ValueError(f"{path}: row {line_no}, column {header[j]!r}: "
                                         f"cannot parse {cell!r} as a number") from None
            raise ValueError(f"{path}: malformed table: {exc}") from None
    kinds = np.array([None if j in converters else rules.get(name, rules.get("*", "finite"))
                      for j, name in enumerate(header)], dtype=object)
    bad = np.zeros(values.shape, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf % 1 in a "whole" column
        for kind in set(kinds) - {None}:
            # each rule sees the columns from its first to its last: a view
            cols = np.flatnonzero(kinds == kind)
            span = slice(cols[0], cols[-1] + 1)
            bad[:, span] |= CELL_RULES[kind][0](values[:, span]) & (kinds[span] == kind)
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), len(header))
        raise ValueError(f"{path}: row {file_line(path, row)}, column {header[col]!r}: "
                         f"{float(values[row, col])!r} is not {CELL_RULES[kinds[col]][1]}")
    return header, values, cells


def _data_lines(fh) -> Iterator[tuple[int, str]]:
    """(file line, text) of each non-blank line below the header of an open
    table, one per data row; the header is line 1, and blank lines count."""
    fh.seek(0)
    fh.readline()
    return ((line_no, line) for line_no, line in enumerate(fh, start=2) if line.strip())


def file_line(path: str | Path, row: int) -> int:
    """The file line holding data row ``row`` (from 0) of a table
    :func:`read_table` read."""
    with open(path, newline="", encoding="utf-8") as fh:
        return next(itertools.islice(_data_lines(fh), row, None))[0]


def float_array(value, field: str) -> np.ndarray:
    """A fresh float64 array of value, a ValueError naming field unless
    every cell is an integer or a float; a boolean is neither."""
    array = np.array(value)
    # numpy promotes a boolean among numbers to a number: look at each cell
    kind = "b" if bool in map(type, np.array(value, dtype=object).flat) else array.dtype.kind
    if kind not in "iuf":
        got = {"b": "booleans", "U": "strings"}.get(kind, "non-numbers")
        raise ValueError(f"field {field!r} must hold only numbers, got {got}")
    return array.astype(np.float64, copy=False)


def _parses_as_float64(cell: str) -> bool:
    """np.loadtxt's test: float() of the stripped cell, less digit-grouping
    underscores and non-ASCII digits."""
    cell = cell.strip()
    try:
        float(cell)
    except ValueError:
        return False
    return cell.isascii() and "_" not in cell


def write_json(path: str | Path, payload, indent: int | None = 2) -> Path:
    """Write a JSON artifact (indented, or compact with indent=None) plus a
    trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=indent) + "\n", encoding="utf-8")
    return path


# The JSON name of each type json.load can return besides an object.
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def read_json(path: str | Path, parse: Callable[[dict], object] | None = None):
    """``parse`` of the JSON object in file ``path``, or the object itself.
    A file that does not parse or holds another JSON value, and a ValueError,
    KeyError (a missing field) or TypeError (a malformed one) raised by
    ``parse``, is a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if type(payload) is not dict:
        raise ValueError(f"{path}: not a JSON object, got {_JSON_TYPES[type(payload)]}")
    if parse is None:
        return payload
    try:
        return parse(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"{path}: malformed field: {exc}") from exc


def json_value(value, field: str, kind: type = dict):
    """value, a ValueError naming field unless it is a JSON object (or list)."""
    if type(value) is not kind:
        what = "an object" if kind is dict else "a list"
        raise ValueError(f"field {field!r} must be {what}, got {type(value).__name__}")
    return value
