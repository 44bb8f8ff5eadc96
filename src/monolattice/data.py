"""Schema and dataset files.

The schema is JSON: an optional label column name and one entry per feature
(kind, lattice size, calibration keypoints, bounds, monotone direction,
missing policy, categories and order pairs), a model file's feature entry
read by ``FeatureSpec.from_doc``, with defaults and direction aliases.
Data is CSV with a header row; a configurable token (empty cell by
default) marks missing values.

A :class:`Dataset` holds samples of one or two sides.  A labelled row is a
sample of one side.  A ranking pair is a sample of two, its preferred row
and its other row: a two-sided set of n pairs holds 2n rows a column, the
n preferred rows first and then the n other rows, both in pair order, so
row i and row n + i are pair i's.  Ranking files come in two layouts: one
row per pair with per-feature column suffixes ``+`` and ``-``, or two rows
per pair sharing a pair-id column with the label column marking the
preferred row.

Files are loaded a column at a time.  The records are read in one pass,
their widths checked together, and transposed once; blank lines are skipped
but counted in line numbers.  Every column the schema reads must appear
once in the header.  A continuous or label column is parsed by one
``float`` per cell into one array (NaN for the missing token), and only a
failure scans the column again, for the first bad cell.  Two-row pairs are
grouped from the pair-id and label columns alone; each feature column is
parsed once and gathered once, preferred rows then other rows, by index.
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


# a schema entry's values for the keys it leaves out: those of a spec made
# of defaults, whose lattice has room for a missing vertex if the entry asks
# for one
_DEFAULTS = FeatureSpec("").to_doc()
_VERTEX_DEFAULTS = FeatureSpec("", size=3, missing=MissingPolicy.VERTEX).to_doc()


def load_schema(path) -> tuple[list[FeatureSpec], str | None]:
    """The feature specs and label column of a schema file.  A feature entry
    is a model file's (:meth:`FeatureSpec.from_doc`), less the calibrator,
    and with defaults for absent keys and aliases of the ``monotone``
    directions (``+``, ``inc``, ...)."""
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
        try:
            doc = {**(_VERTEX_DEFAULTS if entry.get("missing") == "vertex" else _DEFAULTS), **entry}
            try:  # an alias (+, inc, ...) as its direction
                doc["monotone"] = parse_direction(doc["monotone"])
            except (AttributeError, ValueError):
                pass  # not text, or no direction: the spec names the value
            specs.append(FeatureSpec.from_doc(doc))
        except (TypeError, ValueError) as e:
            raise DataError(f"schema {path}: {e}") from None
    if not specs:
        raise DataError(f"schema {path}: no features")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise DataError(f"schema {path}: duplicate feature names")
    label = raw.get("label")
    return specs, None if label is None else str(label)


# --------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class Dataset:
    """Samples of one or two sides, one column per feature: a float array
    (NaN = missing) or a sequence of str or None.  With ``sides=1`` a row is
    a sample and ``labels`` (one per row, or None) are the targets.  With
    ``sides=2`` the samples are ranking pairs, which take no labels: rows
    0..n-1 are the preferred rows and rows n..2n-1 the other rows, both in
    pair order (:meth:`pairs` builds this layout).  A malformed shape is a
    DataError, and once the rules hold the shape cannot change: the fields
    cannot be set again, and ``columns`` is stored as a tuple, each column
    that is not an array as a tuple too."""

    columns: tuple
    labels: np.ndarray | None = None
    sides: int = 1

    def __post_init__(self):
        columns = tuple(c if isinstance(c, np.ndarray) else tuple(c) for c in self.columns)
        object.__setattr__(self, "columns", columns)
        if self.sides not in (1, 2):
            raise DataError(f"a sample has 1 or 2 sides, not {self.sides}")
        lengths = set(map(len, self.columns))
        if len(lengths) > 1:
            raise DataError(f"columns of unequal length: {sorted(lengths)} rows")
        rows = lengths.pop() if lengths else 0
        if self.sides == 2 and rows % 2:
            raise DataError(f"pair data holds two rows a pair, not {rows} rows")
        if self.sides == 2 and self.labels is not None:
            raise DataError("pair data takes no labels")
        if self.labels is not None and len(self.labels) != rows:
            raise DataError(f"{len(self.labels)} labels for {rows} rows")

    @classmethod
    def pairs(cls, preferred: list, other: list) -> "Dataset":
        """Ranking pairs from the columns of their preferred rows and of their
        other rows, stacked in that order."""
        lengths = [list(map(len, side)) for side in (preferred, other)]
        if lengths[0] != lengths[1]:
            raise DataError(f"pair sides of unequal length: {lengths[0]} and {lengths[1]} rows")
        columns = [
            np.concatenate([a, b]) if isinstance(a, np.ndarray) else [*a, *b]
            for a, b in zip(preferred, other)
        ]
        return cls(columns, None, 2)

    @property
    def num_rows(self) -> int:
        return len(self.columns[0])

    @property
    def num_samples(self) -> int:
        return self.num_rows // self.sides

    def row(self, i: int) -> list:
        return [col[i] for col in self.columns]

    def where(self, row: int) -> str:
        """The name an error gives row ``row`` of the columns: ``row i``, or
        ``pair i (preferred row)`` or ``pair i (other row)``."""
        if self.sides == 1:
            return f"row {row}"
        side, i = divmod(row, self.num_samples)
        return f"pair {i} ({('preferred', 'other')[side]} row)"


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
) -> Dataset:
    """Ranking pairs, a two-sided :class:`Dataset`; column-suffix layout
    unless a pair-id column is given."""
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
        return Dataset.pairs(plus_cols, minus_cols)

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
    # each feature is parsed once, and gathered once into the two-sided
    # layout; a bad cell is reported for the first preferred row that has
    # one, then for the first other row
    order = plus + minus
    at = np.array(order, dtype=np.intp)
    columns = []
    for spec in specs:
        if spec.name not in table:
            raise DataError(f"{path}: no column for feature {spec.name!r}")
        values = _parse_column(spec, table.column(spec.name), missing_token, where, order)
        columns.append(values[at] if isinstance(values, np.ndarray) else [values[i] for i in order])
    return Dataset(columns, None, 2)
