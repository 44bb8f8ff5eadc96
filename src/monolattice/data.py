"""Schema and dataset files.

The schema is JSON: an optional label column name and one entry per feature
(kind, lattice size, calibration keypoints, bounds, monotone direction,
missing policy, categories and order pairs).  Data is CSV with a header row;
a configurable token (empty cell by default) marks missing values.

Ranking data comes in two layouts: one row per pair with per-feature column
suffixes ``+`` and ``-``, or two rows per pair sharing a pair-id column with
the label column marking the preferred row.

Files are loaded a column at a time.  The records are read in one pass,
their widths checked together, and transposed once; blank lines are skipped
but counted in line numbers.  Every column the schema reads must appear
once in the header.  A continuous or label column is parsed by one
``float`` per cell into one array (NaN for the missing token), and only a
failure scans the column again, for the first bad cell.  Two-row pairs are
grouped from the pair-id and label columns alone; each feature column is
parsed once and split into its two sides by index.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibrators import DataError, FeatureKind, FeatureSpec, MissingPolicy
from .monotonicity import parse_direction


# --------------------------------------------------------------------------
# schema


def load_schema(path) -> tuple[list[FeatureSpec], str | None]:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"schema {path}: invalid JSON ({e})") from None
    if not isinstance(raw, dict) or "features" not in raw:
        raise DataError(f"schema {path}: expected an object with a 'features' list")
    specs = []
    for entry in raw["features"]:
        if "name" not in entry:
            raise DataError(f"schema {path}: feature entry without a name")
        kind = FeatureKind(entry.get("kind", "continuous"))
        missing = MissingPolicy(entry.get("missing", "none"))
        size = entry.get("size", 3 if missing is MissingPolicy.VERTEX else 2)
        bounds = entry.get("bounds")
        try:
            specs.append(
                FeatureSpec(
                    name=str(entry["name"]),
                    kind=kind,
                    size=int(size),
                    keypoints=int(entry.get("keypoints", 2)),
                    bounds=None if bounds is None else (float(bounds[0]), float(bounds[1])),
                    monotone=parse_direction(str(entry.get("monotone", "none"))),
                    missing=missing,
                    categories=(
                        None
                        if entry.get("categories") is None
                        else [str(c) for c in entry["categories"]]
                    ),
                    order_pairs=[(str(a), str(b)) for a, b in entry.get("order", [])],
                    allow_unseen=bool(entry.get("allow_unseen", False)),
                )
            )
        except (TypeError, ValueError) as e:
            raise DataError(f"schema {path}: feature {entry.get('name')}: {e}") from None
    if not specs:
        raise DataError(f"schema {path}: no features")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise DataError(f"schema {path}: duplicate feature names")
    label = raw.get("label")
    return specs, None if label is None else str(label)


# --------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    columns: list  # per feature: float ndarray (nan = missing) or list[str | None]
    labels: np.ndarray | None

    @property
    def num_rows(self) -> int:
        col = self.columns[0]
        return len(col)

    def row(self, i: int) -> list:
        return [col[i] for col in self.columns]


@dataclass
class PairDataset:
    plus_columns: list
    minus_columns: list

    @property
    def num_pairs(self) -> int:
        return len(self.plus_columns[0])

    def plus_row(self, i: int) -> list:
        return [col[i] for col in self.plus_columns]

    def minus_row(self, i: int) -> list:
        return [col[i] for col in self.minus_columns]

    def fit_columns(self) -> list:
        """Per feature, both sides pooled (for knot and category fitting)."""
        out = []
        for plus, minus in zip(self.plus_columns, self.minus_columns):
            if isinstance(plus, np.ndarray):
                out.append(np.concatenate([plus, minus]))
            else:
                out.append(list(plus) + list(minus))
        return out


class _Table:
    """A CSV file's header and cells, column by column.

    The records are read in one pass and transposed once; blank lines are
    skipped but still count in the line numbers of errors.
    """

    def __init__(self, path):
        self.path = path
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, expected a header row") from None
            rows = list(reader)
        width = len(header)
        widths = set(map(len, rows))
        if widths - {width, 0}:
            for lineno, row in enumerate(rows, start=2):
                if row and len(row) != width:
                    raise DataError(f"{path}:{lineno}: {len(row)} cells, header has {width}")
        if 0 in widths:
            rows = [row for row in rows if row]
        self.cells = list(zip(*rows)) if rows else [()] * width
        self.header = [h.strip() for h in header]
        self.index = {name: i for i, name in enumerate(self.header)}

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def column(self, name: str) -> tuple:
        """The cells of the column named ``name``, which must be present
        exactly once."""
        if self.header.count(name) > 1:
            raise DataError(f"{self.path}: column {name!r} appears more than once in the header")
        return self.cells[self.index[name]]


def _floats(cells: tuple, missing_token: str | None = None) -> np.ndarray:
    """``float`` of every cell, NaN for ``missing_token``; raises ValueError."""
    texts = cells
    if missing_token is not None and missing_token in cells:
        texts = map({missing_token: "nan"}.get, cells, cells)
    return np.fromiter(map(float, texts), float, count=len(cells))


def _parse_column(spec: FeatureSpec, cells: tuple, missing_token: str, where: str, order=None):
    """A continuous feature's cells as floats (NaN = missing), a categorical
    one's as a list of str or None.  A bad cell raises for the first one in
    ``order`` (row indices; file order by default)."""
    if spec.kind is not FeatureKind.CONTINUOUS:
        if missing_token not in cells:
            return list(cells)
        return [None if cell == missing_token else cell for cell in cells]
    try:
        return _floats(cells, missing_token)
    except ValueError:
        for cell in cells if order is None else map(cells.__getitem__, order):
            try:
                if cell != missing_token:
                    float(cell)
            except ValueError:
                raise DataError(
                    f"{where}: feature {spec.name}: {cell!r} is not a number"
                ) from None
        raise


def load_dataset(
    path,
    specs: list[FeatureSpec],
    label_column: str | None = None,
    missing_token: str = "",
    require_labels: bool = False,
) -> Dataset:
    table = _Table(path)
    columns = []
    for spec in specs:
        if spec.name not in table:
            raise DataError(f"{path}: no column for feature {spec.name!r}")
        columns.append(_parse_column(spec, table.column(spec.name), missing_token, str(path)))
    labels = None
    if label_column is not None and label_column in table:
        cells = table.column(label_column)
        try:
            labels = _floats(cells)
        except ValueError:
            raise DataError(f"{path}: label column {label_column!r} is not numeric") from None
    if require_labels and labels is None:
        raise DataError(f"{path}: label column {label_column!r} not found")
    return Dataset(columns, labels)


def load_pair_dataset(
    path,
    specs: list[FeatureSpec],
    pair_id_column: str | None = None,
    label_column: str | None = None,
    missing_token: str = "",
) -> PairDataset:
    """Ranking pairs; column-suffix layout unless a pair-id column is given."""
    table = _Table(path)
    where = str(path)

    if pair_id_column is None:
        plus_cols, minus_cols = [], []
        for spec in specs:
            for suffix, cols in (("+", plus_cols), ("-", minus_cols)):
                name = spec.name + suffix
                if name not in table:
                    raise DataError(f"{path}: no column {name!r} for feature {spec.name!r}")
                cols.append(_parse_column(spec, table.column(name), missing_token, where))
        return PairDataset(plus_cols, minus_cols)

    if pair_id_column not in table:
        raise DataError(f"{path}: pair-id column {pair_id_column!r} not found")
    if label_column is None or label_column not in table:
        raise DataError(
            f"{path}: two-row pair data needs a label column marking the preferred row"
        )
    keys, marks = table.column(pair_id_column), table.column(label_column)
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    plus, minus = [], []
    for key, group in groups.items():
        if len(group) != 2:
            raise DataError(f"{path}: pair {key!r} has {len(group)} rows, expected 2")
        labels = [marks[i] for i in group]
        if sorted(labels) != ["0", "1"]:
            raise DataError(
                f"{path}: pair {key!r} labels {labels} must be exactly one 1 and one 0"
            )
        winner, loser = group if labels[0] == "1" else group[::-1]
        plus.append(winner)
        minus.append(loser)
    # each feature is parsed once; a bad cell is reported for the first
    # preferred row that has one, then for the first other row
    order = plus + minus
    plus_at, minus_at = np.array(plus, dtype=np.intp), np.array(minus, dtype=np.intp)
    plus_cols, minus_cols = [], []
    for spec in specs:
        if spec.name not in table:
            raise DataError(f"{path}: no column for feature {spec.name!r}")
        values = _parse_column(spec, table.column(spec.name), missing_token, where, order)
        if isinstance(values, np.ndarray):
            plus_cols.append(values[plus_at])
            minus_cols.append(values[minus_at])
        else:
            plus_cols.append(list(map(values.__getitem__, plus)))
            minus_cols.append(list(map(values.__getitem__, minus)))
    return PairDataset(plus_cols, minus_cols)
