"""Per-feature calibration onto lattice coordinates.

Each raw feature is mapped into its lattice axis [0, M_d - 1] by a trainable
one-dimensional transform:

* continuous features - a piecewise-linear function with fixed knots placed
  at the feature's bounds and at equally spaced quantiles of the training
  column (for all features that share their keypoints and number of finite
  values at once); the outputs at the two end knots are pinned to the ends
  of the axis, the interior outputs are learned under a nondecreasing chain.
* categorical features - one learned axis value per category, optionally
  under declared pairwise order constraints.

Missing values are handled per feature, either by learning the axis value to
impute (``calibrated``) or by reserving the top lattice slice as a dedicated
missing vertex and rescaling real values to [0, M_d - 2] (``vertex``).

Calibrators are frozen values.  Each holds its feature's ``FeatureSpec``,
the one place its name, axis top, missing policy, missing vertex (the top
slice) and order pairs are kept; a set's specs and a model's specs and
lattice shape are read from its calibrators.  ``knots``, ``outputs`` and
``values`` are stored as read-only float64 copies and ``categories`` as a
tuple, so what is derived from them (the knot list, the category lookup, a
set's bound row calibration) is built once, on first use, and cannot go
stale.  A calibrator checks its structure when made, whoever makes it
(fit, ``with_table``, the model loader, code), and raises a ``DataError``
that names the feature and the field: a spec of its own kind; finite
values; knots strictly increasing, as many as the outputs and at least 2,
no gap between two of them past the float limit; categories that are
text, none named twice (rows are looked up by their text),
``other_index`` in range, order pairs that name known categories;
``missing_value`` a finite number under the calibrated policy and None
otherwise.  Whether its values keep the promises of a trained calibrator
(monotone, inside the axis) is the model's check, so a set can be made
from any table.  Other parameters make a new calibrator
(``dataclasses.replace``), or a new set (``CalibratorSet.with_table``,
which training uses once, for the trained model, and which shares the
set's layout); a copied or unpickled calibrator is rebuilt through its
constructor.

Single-row calibration (``CalibratorSet.calibrate_row``, behind
``Model.predict_row``) is one function per set, generated from the set's
*layout* (per feature: continuous or categorical, the missing policy,
whether a missing coordinate exists, whether an OTHER bucket exists) and
compiled once per layout (``_row_calibration``), so sets of equal layout
share its code.  A set binds its own values into it when it first
calibrates a row: knots and outputs, or the category lookup and values, as
lists, the axis top or OTHER index, the missing coordinate.  The source is
built from fixed templates and the features' positions alone; no float,
category or name reaches it.  Each calibrator's ``calibrate`` is the
scalar oracle of that path, and the function hands it every value it
cannot place, for its error.

Batch calibration has two parts.  *Locate* depends only on the values
and the fixed knots or categories: per value it finds two indices into a
flat table of parameters, a fraction t and an inner flag (a
:class:`Location`).  *Apply* reads the table P it is given (``table()``
for the current parameters): ``x = P[lo]``, and on inner entries
``x = (1 - t) * P[lo] + t * P[hi]`` capped at the axis top, the formula of
``calibrate``.  Table P holds every feature's outputs or values, each
followed by its missing coordinate, so one gather calibrates all features.
Training scatters apply's derivative, 1 - t at ``lo`` and t at ``hi``, into
a vector over the table (``add_apply_gradient``); the gradient with respect
to alpha, the free parameters, is that vector read at the free entries, the
gather ``alpha`` reads the parameters with.  Training's workers each hold a
table of their own, stacked end to end: a location taken with an offset of
k times the table size per row reads and scatters into worker k's.

Locate is one pass over every feature at once, on feature-major (D, rows)
blocks, the layout the batched kernel reads (``CalibratorSet.locate_chunks``,
a chunk of rows at a time, or ``locate``, all rows as one chunk).  The
set's knots are laid out once, when the set is made: a knot matrix padded
with NaN to the widest feature, and each knot and segment width at its
table entry.  A continuous value's segment is the count of its feature's
knots 1 .. last at or below it, which is ``bisect_right``'s segment for an
inner value; the padding counts for no value, +inf included.  Then one
gather gives every value's knot and one its segment's width.  A
categorical column's distinct values are looked up once per call, and its
rows are written by table entry.  Errors have one path: the checks inside
a chunk only detect a bad value, and a chunk that holds one is calibrated
again row by row, so it raises the ``DataError`` that ``calibrate_row``
raises on the first bad row, with that row's index.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .interpolation import ChunkBuffers, _generated
from .monotonicity import ConstraintSet, Direction, read_only


class FeatureKind(str, enum.Enum):
    CONTINUOUS = "continuous"
    CATEGORICAL = "categorical"


class MissingPolicy(str, enum.Enum):
    NONE = "none"
    CALIBRATED = "calibrated"  # learn the value to impute
    VERTEX = "vertex"  # dedicated lattice slice for missing


OTHER_CATEGORY = "<OTHER>"


class DataError(ValueError):
    """Data does not match the schema (bad cell, unknown category, ...)."""

    row: int | None = None  # index of the first bad row of a batch, when known


@dataclass(frozen=True)
class FeatureSpec:
    """A feature's schema entry.  A frozen value: ``categories`` and
    ``order_pairs`` are stored as tuples, and a changed spec is a new one
    (``dataclasses.replace``), checked again on construction."""

    name: str
    kind: FeatureKind = FeatureKind.CONTINUOUS
    size: int = 2  # lattice vertices along this feature
    keypoints: int = 2  # calibration knots (continuous only)
    bounds: tuple[float, float] | None = None
    monotone: Direction = Direction.NONE
    missing: MissingPolicy = MissingPolicy.NONE
    categories: tuple[str, ...] | None = None
    order_pairs: tuple[tuple[str, str], ...] = ()
    allow_unseen: bool = False

    def __post_init__(self):
        coerced = {
            "kind": FeatureKind(self.kind),
            "monotone": Direction(self.monotone),
            "missing": MissingPolicy(self.missing),
            "categories": None if self.categories is None else tuple(self.categories),
            "order_pairs": tuple(tuple(p) for p in self.order_pairs),
        }
        for name, value in coerced.items():
            object.__setattr__(self, name, value)
        if self.size < 2:
            raise DataError(f"feature {self.name}: lattice size must be >= 2")
        if self.missing is MissingPolicy.VERTEX and self.size < 3:
            raise DataError(f"feature {self.name}: a missing vertex needs lattice size >= 3")
        if self.kind is FeatureKind.CONTINUOUS and self.keypoints < 2:
            raise DataError(f"feature {self.name}: need at least 2 keypoints")

    @property
    def axis_top(self) -> float:
        """Top of the axis span used for real (non-missing) values."""
        if self.missing is MissingPolicy.VERTEX:
            return float(self.size - 2)
        return float(self.size - 1)


def missing_vertex_dims(specs) -> frozenset[int]:
    """Lattice dimensions whose top slice holds the missing-value vertex."""
    return frozenset(d for d, s in enumerate(specs) if s.missing is MissingPolicy.VERTEX)


def is_missing(raw) -> bool:
    if raw is None:
        return True
    return isinstance(raw, float) and math.isnan(raw)


def _missing_coordinate(cal) -> float:
    spec = cal.spec
    if spec.missing is MissingPolicy.CALIBRATED:
        return float(cal.missing_value)
    if spec.missing is MissingPolicy.VERTEX:
        return float(spec.size - 1)  # the top slice
    raise DataError(f"feature {spec.name}: missing value but no missing policy")


def _missing_gradient(cal) -> list[tuple[int, float]]:
    if cal.spec.missing is MissingPolicy.CALIBRATED:
        return [(cal.num_free - 1, 1.0)]
    return []


class Frozen:
    """Base of the frozen dataclasses whose derived structures are built once
    (``Model``, the calibrators and ``CalibratorSet``).  They are declared
    with ``eq=False`` and compare here, field by field, arrays by value
    (``Model`` compares its model files instead)."""

    def __reduce__(self):
        # copies, deep copies and unpickled values are rebuilt through the
        # constructor: arrays read-only again, nothing derived carried over
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for f in dataclasses.fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True


# --------------------------------------------------------------------------
# knot placement


def fit_knots(column, keypoints: int, bounds: tuple[float, float] | None = None) -> np.ndarray:
    """Knot vector: the bounds plus equally spaced quantiles between them.

    Quantiles are the usual linearly interpolated empirical ones.  Duplicate
    knots (heavy ties in the column) are collapsed, shrinking the vector.
    The column's finite values are a block of one row (``_fit_rows``).
    """
    col = np.asarray(column, dtype=float)
    (knots,) = _fit_rows(col[np.isfinite(col)][None, :], keypoints, [bounds])
    if isinstance(knots, str):
        raise ValueError(knots)
    return knots


def _fit_rows(rows: np.ndarray, keypoints: int, bounds: list) -> list:
    """Knot vectors of every row of ``rows`` (F, n), the finite values of F
    columns, ``bounds[i]`` the bounds of row i (None: its min and max): per
    row, its knots, or the message of the ``ValueError`` that
    :func:`fit_knots` raises for it.

    One ``np.quantile`` along the rows gives every row the quantiles a call
    on the row alone gives, bit for bit.  The knots are deduplicated per row
    as ``np.unique`` does it: sort the row, then keep each value that differs
    from the one before it.  The sort is needed, since a quantile's lerp can
    leave it an ulp out of order."""
    count, n = rows.shape
    if keypoints < 2:
        return ["need at least 2 keypoints"] * count
    if n == 0:
        return ["no finite values to place knots on"] * count
    if any(b is None for b in bounds):
        lows, highs = rows.min(axis=1).tolist(), rows.max(axis=1).tolist()
        bounds = [(lows[i], highs[i]) if b is None else b for i, b in enumerate(bounds)]
    errors = [None if lo < hi else f"degenerate bounds [{lo}, {hi}]; column may be constant"
              for lo, hi in bounds]
    q = np.arange(1, keypoints - 1) / (keypoints - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = np.quantile(rows, q, axis=1)
    if not np.isfinite(inner).all():
        # numpy's lerp takes the difference of the two order statistics,
        # which overflows when they are more than the float limit apart;
        # their weighted mean cannot
        gamma = (q * (n - 1) % 1.0)[:, None]
        lerp = (np.quantile(rows, q, axis=1, method="lower") * (1.0 - gamma)
                + np.quantile(rows, q, axis=1, method="higher") * gamma)
        inner = np.where(np.isfinite(inner), inner, lerp)
    knots = np.empty((count, keypoints))
    # clipped row by row against the bounds as numbers, as fit_knots clips
    # one column: a clip against arrays of bounds can pick the other of two
    # equal zeros (-0.0 against 0.0)
    for row, quantiles, (lo, hi) in zip(knots, inner.T.copy(), bounds):
        row[0], row[-1] = lo, hi
        np.clip(quantiles, lo, hi, out=row[1:-1])
    knots.sort(axis=1)
    keep = np.empty(knots.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(knots[:, 1:], knots[:, :-1], out=keep[:, 1:])
    return [row[k] if error is None else error for row, k, error in zip(knots, keep, errors)]


# --------------------------------------------------------------------------
# calibrators


def _check_finite(field: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise DataError(f"{field}[{np.flatnonzero(~np.isfinite(values))[0]}] is not finite")


def _check_spec(cal, kind: FeatureKind) -> str:
    """The feature ``cal`` names in its errors; a DataError unless its spec
    is of ``kind``."""
    spec = cal.spec
    where = f"feature {spec.name!r}:"
    if spec.kind is not kind:
        raise DataError(f"{where} a {spec.kind.value} feature's calibrator is {type(cal).__name__}")
    return where


def _check_missing_value(cal, where: str) -> None:
    value, missing = cal.missing_value, cal.spec.missing
    if missing is MissingPolicy.CALIBRATED:
        if type(value) is bool or not isinstance(value, (int, float)) or not -math.inf < value < math.inf:
            raise DataError(f"{where} missing_value {value!r} is not a finite number")
    elif value is not None:
        # never read under the other policies, so it would save back unchecked
        raise DataError(
            f"{where} missing_value {value!r} is not null under missing {missing.value!r}"
        )


@dataclass(frozen=True, eq=False)
class ContinuousCalibrator(Frozen):
    """Piecewise-linear map from a raw value to a lattice coordinate."""

    spec: FeatureSpec  # a continuous feature's
    knots: np.ndarray  # strictly increasing, len >= 2
    outputs: np.ndarray  # same length; first and last entries are fixed
    missing_value: float | None = None  # learned coordinate (calibrated policy)

    def __post_init__(self):
        where = _check_spec(self, FeatureKind.CONTINUOUS)
        knots, outputs = read_only(self.knots), read_only(self.outputs)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "outputs", outputs)
        if knots.ndim != 1 or len(knots) < 2 or knots.shape != outputs.shape:
            raise DataError(
                f"{where} {knots.size} knots and {outputs.size} outputs; "
                "need the same number, at least 2"
            )
        # Batch locate's knot count relies on strictly increasing knots, and
        # increasing knots (no NaN compares) are finite if the ends are.
        # Calibration divides by each gap between knots, so no gap may pass
        # the float limit; the span of all the knots may.  The knots are
        # compared as Python floats, whose difference overflows to inf
        # without a warning, and since numpy's fixed cost per call exceeds
        # the work on a calibrator's few knots.
        listed = knots.tolist()
        if not (all(map(operator.lt, listed, listed[1:])) and -math.inf < listed[0]
                and listed[-1] < math.inf):
            _check_finite(f"{where} knots", knots)
            raise DataError(f"{where} knots are not strictly increasing")
        _check_finite(f"{where} outputs", outputs)
        for a, b in zip(listed, listed[1:]):
            if b - a == math.inf:
                raise DataError(
                    f"{where} the gap between knots {a!r} and {b!r} overflows; "
                    "use more keypoints or narrower bounds"
                )
        _check_missing_value(self, where)

    @property
    def num_free(self) -> int:
        n = max(len(self.outputs) - 2, 0)
        if self.spec.missing is MissingPolicy.CALIBRATED:
            n += 1
        return n

    @cached_property
    def _knot_list(self) -> list[float]:
        return self.knots.tolist()

    def _number(self, raw) -> float:
        """``raw`` as a float, NaN where it is missing; a DataError naming
        the feature where it is not a number."""
        if is_missing(raw):
            return math.nan
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise DataError(f"feature {self.spec.name}: {raw!r} is not a number") from None

    def calibrate(self, raw) -> float:
        x = self._number(raw)
        if x != x:  # missing, NaN text such as "nan" included, as locate reads it
            return _missing_coordinate(self)
        knots, outputs = self._knot_list, self.outputs
        if x <= knots[0]:
            return float(outputs[0])
        if x >= knots[-1]:
            return float(outputs[-1])
        j = bisect_right(knots, x) - 1
        t = (x - knots[j]) / (knots[j + 1] - knots[j])
        x = (1.0 - t) * outputs.item(j) + t * outputs.item(j + 1)
        top = self.spec.axis_top  # with both outputs at the top, x can round past it
        return x if x <= top else top

    def gradient(self, raw) -> list[tuple[int, float]]:
        """Partials of calibrate(raw) w.r.t. the free parameters (sparse)."""
        x = self._number(raw)
        if x != x:  # missing, as in calibrate
            return _missing_gradient(self)
        knots = self.knots
        last = len(knots) - 1
        if x <= knots[0] or x >= knots[-1]:
            return []  # pinned endpoint outputs
        j = bisect_right(knots, x) - 1
        t = (x - knots[j]) / (knots[j + 1] - knots[j])
        out = []
        if 1 <= j <= last - 1:
            out.append((j - 1, 1.0 - t))
        if 1 <= j + 1 <= last - 1 and t != 0.0:
            out.append((j, t))
        return out

    @property
    def points(self) -> np.ndarray:
        return self.outputs


@dataclass(frozen=True, eq=False)
class CategoricalCalibrator(Frozen):
    """One learned lattice coordinate per category."""

    spec: FeatureSpec  # a categorical feature's, its order pairs included
    categories: tuple[str, ...]  # stored as a tuple, whatever is passed
    values: np.ndarray
    missing_value: float | None = None
    other_index: int | None = None  # bucket for unseen categories

    def __post_init__(self):
        where = _check_spec(self, FeatureKind.CATEGORICAL)
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "values", read_only(self.values))
        for c in self.categories:
            if not isinstance(c, str):  # rows are looked up by their text
                raise DataError(f"{where} category {c!r} is not text")
        values, position = self.values, self._lookup
        if values.shape != (len(self.categories),):
            raise DataError(
                f"{where} {values.size} category_values for {len(self.categories)} categories"
            )
        _check_finite(f"{where} category_values", values)
        if len(position) != len(self.categories):
            repeated = next(c for i, c in enumerate(self.categories) if position[c] != i)
            raise DataError(f"{where} category_order repeats {repeated!r}")
        other = self.other_index
        if other is not None and not (type(other) is int and 0 <= other < len(values)):
            raise DataError(f"{where} other_index {other!r} is out of range")
        for a, b in self.spec.order_pairs:
            if a not in position or b not in position:
                raise DataError(f"{where} order pair ({a!r}, {b!r}) names an unknown category")
        _check_missing_value(self, where)

    @property
    def num_free(self) -> int:
        n = len(self.values)
        if self.spec.missing is MissingPolicy.CALIBRATED:
            n += 1
        return n

    @cached_property
    def _lookup(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.categories)}

    def _index(self, raw) -> int:
        i = self._lookup.get(str(raw))
        if i is None:
            if self.other_index is not None:
                return self.other_index
            raise DataError(f"feature {self.spec.name}: unknown category {raw!r}")
        return i

    def calibrate(self, raw) -> float:
        if is_missing(raw):
            return _missing_coordinate(self)
        return float(self.values[self._index(raw)])

    def gradient(self, raw) -> list[tuple[int, float]]:
        if is_missing(raw):
            return _missing_gradient(self)
        return [(self._index(raw), 1.0)]

    @property
    def points(self) -> np.ndarray:
        return self.values


def _distinct_texts(column) -> tuple[list, np.ndarray]:
    """A categorical column's distinct values as text (None for missing) in
    first-seen order, and each row's index into them."""
    keys = column
    distinct = dict.fromkeys(keys)
    if not all(isinstance(v, str) or is_missing(v) for v in distinct):
        # values that compare equal can print apart (1 and 1.0, 0.0 and
        # -0.0), and a category is named by its text
        keys = [None if is_missing(v) else str(v) for v in column]
        distinct = dict.fromkeys(keys)
    index_of = {v: i for i, v in enumerate(distinct)}
    index = np.fromiter(map(index_of.__getitem__, keys), dtype=np.int64, count=len(keys))
    return [None if is_missing(v) else v for v in distinct], index


# --------------------------------------------------------------------------
# fitting to data


def _numbers(column) -> np.ndarray:
    """``column`` as floats for knot fitting, NaN where a value is not a
    number: ``locate`` then reports the first such value with its row."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return column
    out = np.empty(len(column))
    for i, v in enumerate(column):
        try:
            out[i] = float(v)
        except (TypeError, ValueError):
            out[i] = np.nan
    return out


def _missing_start(spec: FeatureSpec) -> float | None:
    """A fitted calibrator's missing_value: a learned coordinate starts mid-axis."""
    return (spec.size - 1) / 2.0 if spec.missing is MissingPolicy.CALIBRATED else None


def _fit_columns(specs, columns) -> dict:
    """The knots of every continuous feature of ``specs``, fitted to its
    column in blocks: the finite values of the features that share their
    keypoints and their number of finite values are stacked and fitted
    together (``_fit_rows``).  Per feature index, its knots or the message
    of the error that ``fit_knots`` raises for its column."""
    groups: dict[tuple, list] = {}
    for d, (spec, column) in enumerate(zip(specs, columns)):
        if spec.kind is FeatureKind.CONTINUOUS:
            values = _numbers(column)
            finite = values[np.isfinite(values)]
            groups.setdefault((spec.keypoints, len(finite)), []).append((d, finite, spec.bounds))
    out = {}
    for (keypoints, _), members in groups.items():
        rows = np.stack([finite for _, finite, _ in members])
        fitted = _fit_rows(rows, keypoints, [bounds for _, _, bounds in members])
        out.update(zip([d for d, _, _ in members], fitted))
    return out


def _continuous_calibrator(spec: FeatureSpec, knots, outputs: dict) -> ContinuousCalibrator:
    """The calibrator of ``spec`` on ``knots`` (or the message of its fitting
    error, raised as a ``DataError``), its outputs evenly spread on the axis;
    ``outputs`` keeps each (knot count, axis top)'s outputs for the next."""
    if isinstance(knots, str):
        raise DataError(f"feature {spec.name}: {knots}")
    key = (len(knots), spec.axis_top)
    if key not in outputs:
        outputs[key] = np.linspace(0.0, spec.axis_top, len(knots))
    return ContinuousCalibrator(spec, knots, outputs[key], _missing_start(spec))


def _respect_order_pairs(spec: FeatureSpec, ordered: list[str]) -> list[str]:
    """``ordered`` reordered so that a comes before b for every declared pair
    (a, b): a topological sort that always takes the earliest category that
    is ready, so an order that already satisfies every pair is kept as is."""
    before: dict[str, set[str]] = {c: set() for c in ordered}
    for a, b in spec.order_pairs:
        for c in (a, b):
            if c not in before:
                raise DataError(f"feature {spec.name}: order pair names unknown category {c!r}")
        if a != b:
            before[b].add(a)
    out: list[str] = []
    rest = list(ordered)
    while rest:
        ready = next((c for c in rest if not before[c]), None)
        if ready is None:
            raise DataError(f"feature {spec.name}: order pairs form a cycle among {sorted(rest)}")
        out.append(ready)
        rest.remove(ready)
        for c in rest:
            before[c].discard(ready)
    return out


def build_categorical_calibrator(
    spec: FeatureSpec, column, labels=None
) -> CategoricalCalibrator:
    """Category map initialized by mean label order, evenly spread on the axis.

    Categories with no labels to average (explicitly declared but absent from
    the data, or label-free ranking data) fall back to name order.  Declared
    order pairs then move categories as little as needed to hold, so the
    start satisfies every pair; cyclic pairs raise a ``DataError``.  With
    ``allow_unseen``, a dedicated OTHER bucket absorbs categories rarer than
    1% of rows during fitting, any unknown category later, and values that
    are literally ``<OTHER>``.
    """
    texts, index = _distinct_texts(column)
    if None in texts and spec.missing is MissingPolicy.NONE:
        raise DataError(f"feature {spec.name}: missing value but no missing policy")
    counts = np.bincount(index, minlength=len(texts))
    observed = {c: int(k) for c, k in zip(texts, counts) if c is not None}

    if spec.categories is not None:
        kept = list(dict.fromkeys(spec.categories))
        unknown = [c for c in observed if c not in set(kept)]
        if unknown and not spec.allow_unseen:
            raise DataError(
                f"feature {spec.name}: categories {sorted(unknown)} not in the schema"
            )
    else:
        kept = sorted(observed)
        if spec.allow_unseen and observed:
            threshold = max(1, math.ceil(0.01 * sum(observed.values())))
            kept = [c for c in kept if observed[c] >= threshold]

    if spec.allow_unseen:
        # a value spelled like the bucket is the bucket, not a second category
        kept = [c for c in kept if c != OTHER_CATEGORY]
    if not kept and not spec.allow_unseen:
        raise DataError(f"feature {spec.name}: no categories in the data")

    # order by mean label where labels exist, then by name for determinism
    if labels is not None:
        lab = np.asarray(labels, dtype=float)
        overall = float(lab.mean()) if len(lab) else 0.0
        # each category's labels in row order, so np.mean sums them as it
        # sums a masked column
        rows = np.argsort(index, kind="stable")
        mean_of = {
            c: float(lab[rows[end - k : end]].mean())
            for c, k, end in zip(texts, counts, np.cumsum(counts))
        }
        ordered = [c for _, c in sorted((mean_of.get(c, overall), c) for c in kept)]
    else:
        ordered = sorted(kept)
    ordered = _respect_order_pairs(spec, ordered)

    top = spec.axis_top
    if len(ordered) >= 2:
        values = np.linspace(0.0, top, len(ordered))
    else:
        values = np.full(len(ordered), top / 2.0)

    other_index = None
    if spec.allow_unseen:
        ordered = ordered + [OTHER_CATEGORY]
        values = np.append(values, top / 2.0)
        other_index = len(ordered) - 1

    return CategoricalCalibrator(spec, ordered, values, _missing_start(spec), other_index)


# --------------------------------------------------------------------------
# the per-model collection


@dataclass(frozen=True)
class Location:
    """Where a batch of rows sits on the calibrators: what batch calibration
    needs that does not depend on the parameters.

    ``lo``, ``hi``, ``t`` and ``inner`` are feature-major (D, n): indices
    into :meth:`CalibratorSet.table`, fraction and inner flag per feature
    and row.
    """

    lo: np.ndarray
    hi: np.ndarray
    t: np.ndarray
    inner: np.ndarray

    def take(self, rows, offset=None) -> "Location":
        """The located ``rows``; with ``offset`` (one per row) added to their
        ``lo`` and ``hi``, so that they index a stack of tables, laid end to
        end, where row i reads the table that starts at ``offset[i]``."""
        # take along the rows keeps the result C-contiguous, as the
        # kernels' row-wise passes want it; indexing with [:, rows] would
        # not
        lo, hi = self.lo.take(rows, axis=1), self.hi.take(rows, axis=1)
        if offset is not None:
            lo += offset
            hi += offset
        return Location(lo, hi, self.t.take(rows, axis=1), self.inner.take(rows, axis=1))


@dataclass(frozen=True)
class _KnotBlock:
    """A set's knots laid out for locating all features in one pass.

    Row d of each (D, 1) column belongs to feature d.  ``columns`` holds
    knots 1 .. W-1 of every continuous feature, W the most knots of any,
    padded with NaN, which no value compares to; a categorical row is all
    NaN.  ``knot_at`` and ``width_at`` run over the parameter table: at a
    continuous feature's entry j, its knot j and the width of segment j;
    1.0 as the width at every entry no inner value reads (the last knot,
    the missing slot, a category), so that 0 / width is 0 there."""

    columns: np.ndarray  # (W - 1, D, 1): the knot columns, knot 1 first
    first: np.ndarray  # (D, 1) first knot (NaN for a categorical feature)
    last: np.ndarray  # (D, 1) last knot (NaN for a categorical feature)
    offsets: np.ndarray  # (D, 1) each feature's first table entry
    missing_slots: np.ndarray  # (D, 1) each feature's missing slot
    knot_at: np.ndarray  # (table size,)
    width_at: np.ndarray  # (table size,)
    numbers: tuple  # continuous features
    strict: np.ndarray  # continuous features without a missing policy
    count: np.dtype  # the narrowest unsigned type that holds W - 1, a segment's count

    @classmethod
    def of(cls, cals, table_offsets) -> "_KnotBlock":
        """The block of calibrators ``cals`` whose table blocks start at
        ``table_offsets``, built from the knot lists (Python floats, whose
        differences are numpy's bit for bit)."""
        continuous = [isinstance(cal, ContinuousCalibrator) for cal in cals]
        width = max([len(c.knots) for c, k in zip(cals, continuous) if k], default=2)
        rows, last, slots, knot_at, width_at = [], [], [], [], []
        for cal, start, is_continuous in zip(cals, table_offsets, continuous):
            slots.append(start + len(cal.points))
            if is_continuous:
                knots = cal._knot_list
                rows.append(knots + [math.nan] * (width - len(knots)))
                last.append(knots[-1])
                knot_at += knots + [0.0]
                width_at += [b - a for a, b in zip(knots, knots[1:])] + [1.0, 1.0]
            else:
                rows.append([math.nan] * width)
                last.append(math.nan)
                knot_at += [0.0] * (len(cal.points) + 1)
                width_at += [1.0] * (len(cal.points) + 1)
        padded = np.array(rows)
        numbers = [d for d, k in enumerate(continuous) if k]
        return cls(
            columns=read_only(padded.T[1:, :, None]),
            first=read_only(padded[:, :1]),
            last=read_only(np.array(last)[:, None]),
            offsets=read_only(np.array(table_offsets)[:, None], np.intp),
            missing_slots=read_only(np.array(slots)[:, None], np.intp),
            knot_at=read_only(knot_at),
            width_at=read_only(width_at),
            numbers=tuple(numbers),
            strict=read_only([d for d in numbers if cals[d].spec.missing is MissingPolicy.NONE],
                             np.intp),
            count=np.min_scalar_type(width - 1),
        )


def _number_chunk(column, start: int, stop: int):
    """Rows start:stop of a continuous column as floats, NaN where missing;
    a value that is not a number raises a DataError."""
    part = column[start:stop]
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return part
    try:
        return [np.nan if is_missing(v) else float(v) for v in part]
    except (TypeError, ValueError):
        raise DataError("a value is not a number") from None


def _text(v):
    return None if is_missing(v) else str(v)


def _category_codes(cal, column, offset: int):
    """A categorical column's table entries for one call: a function that
    writes the entries of rows start:stop into an int row.  Each distinct
    value is looked up once per call, when a chunk first holds it, and a
    value ``calibrate`` rejects (an unknown category without an OTHER
    bucket, missing without a policy) raises a DataError.

    Values are read as text, as ``calibrate`` reads them: a column of text
    and None is keyed by its values, and from the first other value on
    (a number, NaN) by each value's text, since values that compare equal
    can print apart (1 and 1.0, 0.0 and -0.0)."""
    lookup = cal._lookup
    unknown = -1 if cal.other_index is None else offset + cal.other_index
    missing = -1 if cal.spec.missing is MissingPolicy.NONE else offset + len(cal.values)
    code_of: dict = {}  # value, or its text, -> table entry (-1: rejected)
    key = None  # _text once the column is keyed by text

    def write(start: int, stop: int, out: np.ndarray) -> None:
        nonlocal key
        part = column[start:stop]
        keys = part if key is None else list(map(key, part))
        try:
            out[...] = list(map(code_of.__getitem__, keys))
        except KeyError:
            new = dict.fromkeys(keys)
            if key is None and not all(v is None or isinstance(v, str) for v in new):
                key = _text
                keys = list(map(key, part))
                new = dict.fromkeys(keys)
            for v in new:
                if v not in code_of:
                    i = lookup.get(v)
                    code_of[v] = missing if v is None else unknown if i is None else offset + i
            out[...] = list(map(code_of.__getitem__, keys))
        if out.min(initial=0) < 0:
            raise DataError("a value has no table entry")

    return write


def _row_binding(cal) -> tuple[tuple, tuple]:
    """A calibrator's layout (continuous or not, its missing policy, whether
    it has a missing coordinate, whether it has an OTHER bucket) and its
    row entry: what its row calibration reads, as plain Python values, in
    the order of :data:`_ENTRY_NAMES`.  That is, for a continuous
    calibrator its knots, inner knots, segment widths, outputs, end knots,
    end outputs and axis top, for a categorical one its lookup, values and
    OTHER index; then the missing coordinate (None where ``calibrate``
    raises for a missing value) and ``calibrate`` itself."""
    missing = None if cal.spec.missing is MissingPolicy.NONE else _missing_coordinate(cal)
    continuous = isinstance(cal, ContinuousCalibrator)
    if continuous:
        knots, outputs = cal._knot_list, cal.outputs.tolist()
        widths = [b - a for a, b in zip(knots, knots[1:])]
        entry = (knots, knots[1:-1], widths, outputs, knots[0], knots[-1], outputs[0],
                 outputs[-1], cal.spec.axis_top, missing, cal.calibrate)
        other = None
    else:
        other = cal.other_index
        entry = (cal._lookup, cal.values.tolist(), other, missing, cal.calibrate)
    return (continuous, cal.spec.missing, missing is not None, other is not None), entry


# the names a feature's row entry is bound to, {d} its position; continuous
# and categorical
_ENTRY_NAMES = (
    ("K{d}", "B{d}", "W{d}", "P{d}", "f{d}", "l{d}", "p{d}", "q{d}", "T{d}", "m{d}", "c{d}"),
    ("L{d}", "V{d}", "o{d}", "m{d}", "c{d}"),
)


@functools.lru_cache(maxsize=64)
def _row_calibration(layout: tuple):
    """The single-row calibration of a set of ``layout``: a function
    ``bind(width, *values)`` that binds a set's ``_check_width`` and its
    calibrators' row entries (:func:`_row_binding`, laid end to end) into
    ``calibrate_row(row)``.  Compiled once per layout; sets of equal layout
    share its code.

    ``calibrate_row`` does ``calibrate``'s float operations in its order,
    in straight-line code, one block per feature: the width check and the
    unpack, then per continuous value ``float()`` (None, which it rejects,
    is missing).  An inner value (strictly between the end knots) takes
    its segment j by ``bisect_right`` over the inner knots, ``t = (x -
    K[j]) / W[j]`` with the segment's width ``K[j + 1] - K[j]`` taken when
    the set is bound, ``(1.0 - t) * P[j] + t * P[j + 1]`` and the cap at
    the axis top; other values take the end outputs, and NaN (also as
    text), which no comparison holds for, is missing.  Per categorical
    value: the missing test, then the lookup of its text, unknown text
    going to the OTHER bucket.  A value a block cannot place
    goes to the calibrator's ``calibrate``, which raises its error.

    The source is built from fixed templates, the feature positions and
    the layout's flags; everything read from a model file is bound."""
    D = len(layout)
    vs = [f"v{d}" for d in range(D)]
    names = [name.format(d=d) for d, (continuous, *_) in enumerate(layout)
             for name in _ENTRY_NAMES[not continuous]]
    src = [
        f"def bind(width, {', '.join(names)}):",
        "    def calibrate_row(row):",
        f"        if len(row) != {D}:",
        "            width(len(row), 'values')",
        f"        {', '.join(vs)}, = row",
    ]
    for d, (continuous, _, has_missing, has_other) in enumerate(layout):
        v, x = f"v{d}", f"x{d}"
        missing = f"m{d}" if has_missing else f"c{d}({v})"
        if continuous:
            src += [
                "        try:",
                f"            {x} = float({v})",
                "        except (TypeError, ValueError):",
                f"            {x} = {missing} if {v} is None else c{d}({v})",
                "        else:",
                f"            if f{d} < {x} < l{d}:",
                f"                j = bisect_right(B{d}, {x})",
                f"                t = ({x} - K{d}[j]) / W{d}[j]",
                f"                {x} = (1.0 - t) * P{d}[j] + t * P{d}[j + 1]",
                f"                {x} = {x} if {x} <= T{d} else T{d}",
                f"            elif {x} <= f{d}:",
                f"                {x} = p{d}",
                f"            elif {x} >= l{d}:",
                f"                {x} = q{d}",
                "            else:",
                f"                {x} = {missing}",
            ]
        else:
            src += [
                f"        if {v} is None or isinstance({v}, float) and {v} != {v}:",
                f"            {x} = {missing}",
                "        else:",
            ]
            if has_other:
                src.append(f"            {x} = V{d}[L{d}.get(str({v}), o{d})]")
            else:
                src += [
                    f"            j = L{d}.get(str({v}))",
                    f"            {x} = c{d}({v}) if j is None else V{d}[j]",
                ]
    src += [f"        return [{', '.join(f'x{d}' for d in range(D))}]", "    return calibrate_row"]
    return _generated(src, "<row calibration>", {"bisect_right": bisect_right})


# what a set works out from the kinds and sizes of its calibrators alone,
# which a set with other parameters shares (``CalibratorSet.with_table``)
_LAYOUT = ("offsets", "table_offsets", "num_free", "table_size", "_tops", "_free_entries", "_knots")


@dataclass(frozen=True, eq=False)
class CalibratorSet(Frozen):
    """All feature calibrators plus their shared free-parameter vector.

    A frozen value: ``calibrators`` are stored as a tuple, so the layout
    worked out from them once (each feature's offset into alpha and into
    the parameter table, alpha's table entries, and the knots' layout for
    locate) cannot go stale.  A set with other parameters is a new one
    (:meth:`with_table`)."""

    calibrators: tuple

    def __post_init__(self):
        cals = tuple(self.calibrators)
        offsets, table_offsets, free = [], [], []
        num_free = table_size = 0
        for cal in cals:
            offsets.append(num_free)
            table_offsets.append(table_size)
            num_free += cal.num_free
            table_size += len(cal.points) + 1
            block = [True] * len(cal.points) + [cal.spec.missing is MissingPolicy.CALIBRATED]
            if isinstance(cal, ContinuousCalibrator):
                block[0] = block[-2] = False  # the pinned end outputs
            free += block
        layout = {
            "offsets": tuple(offsets),
            "table_offsets": tuple(table_offsets),
            "num_free": num_free,
            "table_size": table_size,
            "_tops": read_only([[cal.spec.axis_top] for cal in cals]),  # (D, 1)
            "_free_entries": read_only(np.flatnonzero(free), np.int64),  # alpha's, in order
            "_knots": _KnotBlock.of(cals, table_offsets),
        }
        vars(self).update(layout, calibrators=cals)

    @property
    def specs(self) -> tuple[FeatureSpec, ...]:
        """The features' specs, each calibrator's."""
        return tuple(cal.spec for cal in self.calibrators)

    @classmethod
    def fit(cls, specs: list[FeatureSpec], columns: list, labels=None) -> "CalibratorSet":
        """Calibrators fitted to ``columns``, the continuous features' knots
        in blocks (``_fit_columns``); a bad feature raises the error of the
        first one in spec order."""
        knots = _fit_columns(specs, columns)
        outputs: dict = {}
        cals = []
        for d, (spec, col) in enumerate(zip(specs, columns)):
            if spec.kind is FeatureKind.CONTINUOUS:
                cals.append(_continuous_calibrator(spec, knots[d], outputs))
            else:
                cals.append(build_categorical_calibrator(spec, col, labels))
        return cls(cals)

    def alpha(self) -> np.ndarray:
        """The free parameters, feature by feature: one gather from :meth:`table`."""
        return self.at_free(self.table())

    def at_free(self, vector) -> np.ndarray:
        """``vector``, laid out as :meth:`table` along its last axis, read at
        alpha's entries."""
        return vector[..., self._free_entries]

    def put_free(self, vector, alpha) -> None:
        """Write ``alpha`` into ``vector``, laid out as :meth:`table` along
        its last axis, at alpha's entries: the inverse of :meth:`at_free`."""
        vector[..., self._free_entries] = alpha

    def with_table(self, table) -> "CalibratorSet":
        """A set whose calibrators hold the parameters in ``table`` (laid out
        as :meth:`table`), each made from this set's with
        ``dataclasses.replace``, which keeps everything else.  The layout
        depends on none of the parameters, so the new set shares this
        set's (offsets, free entries, axis tops, knot block) and does not
        work it out again."""
        cals = []
        for cal, start in zip(self.calibrators, self.table_offsets):
            end = start + len(cal.points)
            points = "outputs" if isinstance(cal, ContinuousCalibrator) else "values"
            missing = cal.missing_value
            if cal.spec.missing is MissingPolicy.CALIBRATED:
                missing = float(table[end])
            changed = {points: table[start:end], "missing_value": missing}
            cals.append(dataclasses.replace(cal, **changed))
        new = object.__new__(CalibratorSet)
        layout = {name: vars(self)[name] for name in _LAYOUT}
        vars(new).update(layout, calibrators=tuple(cals))
        return new

    def _check_width(self, count: int, unit: str) -> None:
        if count != len(self.calibrators):
            raise DataError(
                f"got {count} {unit} for a model with {len(self.calibrators)} features"
            )

    @cached_property
    def _calibrate_row(self):
        """This set's single-row calibration: its layout's function
        (:func:`_row_calibration`) with the set's values bound in."""
        bindings = [_row_binding(cal) for cal in self.calibrators]
        layout = tuple(layout for layout, _ in bindings)
        return _row_calibration(layout)(self._check_width, *[v for _, e in bindings for v in e])

    def calibrate_row(self, row) -> list[float]:
        """The coordinates of one row, equal to each calibrator's
        ``calibrate`` bit for bit, by one function generated for this set's
        layout.  A value it cannot place (missing without a coordinate, not
        a number, an unknown category) is handed to ``calibrate``, which
        raises its error, so the first bad value of the row is reported."""
        return self._calibrate_row(row)

    def row_gradients(self, row) -> list[list[tuple[int, float]]]:
        """Per feature: (global alpha position, partial) pairs for this row."""
        out = []
        for cal, off, v in zip(self.calibrators, self.offsets, row):
            out.append([(off + p, g) for p, g in cal.gradient(v)])
        return out

    def table(self) -> np.ndarray:
        """The current parameters as one flat table: per feature its outputs
        or values, then its missing coordinate (NaN, never read, without a
        missing policy)."""
        out = np.empty(self.table_size)
        for cal, start in zip(self.calibrators, self.table_offsets):
            end = start + len(cal.points)
            out[start:end] = cal.points
            no_policy = cal.spec.missing is MissingPolicy.NONE
            out[end] = np.nan if no_policy else _missing_coordinate(cal)
        return out

    def locate(self, columns) -> Location:
        """Locate every row of ``columns`` (one column per feature), as one
        chunk of :meth:`locate_chunks`; the arrays are the caller's."""
        rows = len(columns[0]) if len(columns) else 0
        return next(self.locate_chunks(columns, max(rows, 1), ChunkBuffers()))[1]

    def locate_chunks(self, columns, size: int, buffers: ChunkBuffers):
        """Locate the rows of ``columns`` (one column per feature) ``size``
        at a time: yield each chunk's slice of rows and its feature-major
        :class:`Location`, whose arrays come from ``buffers`` and are
        overwritten by the next chunk.  Columns of no rows yield one empty
        chunk.

        A categorical column's distinct values are looked up once per call
        (``_category_codes``).  A chunk whose locate finds a bad value is
        calibrated again row by row: the error is the ``DataError`` that
        :meth:`calibrate_row` raises on its first bad row, with that row's
        index in ``columns`` as its ``row``."""
        self._check_width(len(columns), "columns")
        rows = len(columns[0]) if len(columns) else 0
        cals = enumerate(zip(self.calibrators, columns, self.table_offsets))
        codes = [
            (d, _category_codes(cal, col, start))
            for d, (cal, col, start) in cals
            if isinstance(cal, CategoricalCalibrator)
        ]
        for start in range(0, max(rows, 1), size):
            stop = min(start + size, rows)
            try:
                location = self._locate_rows(columns, codes, start, stop, buffers)
            except DataError:
                for i in range(start, stop):
                    try:
                        self.calibrate_row([col[i] for col in columns])
                    except DataError as e:
                        e.row = i
                        raise
                raise
            yield slice(start, stop), location

    def _locate_rows(self, columns, codes, start, stop, buffers) -> Location:
        # One pass over every feature, on (D, m) blocks.  A continuous
        # value's segment is the count of knots 1 .. last at or below it:
        # bisect_right's segment for an inner value, 0 at and below the
        # first knot, the last knot's index at and above the last knot, 0
        # for NaN (the NaN padding counts for no value, +inf included).
        # Categorical rows hold 0.0, which no NaN knot row counts or finds
        # inner, and take their table entries last.  The counts are kept in
        # the narrowest unsigned type that holds them and take each column's
        # flags through their bytes, so that every add is between arrays of
        # one type (uint8, for up to 256 knots), and cast once, when the
        # offsets are added.
        kb = self._knots
        m = stop - start
        x = buffers.get("locate x", len(self.calibrators), m)
        lo = buffers.get("locate lo", *x.shape, np.intp)
        flag = buffers.get("locate flag", *x.shape, bool)
        inner = buffers.get("locate inner", *x.shape, bool)
        count = buffers.get("locate count " + kb.count.char, *x.shape, kb.count)
        for d in kb.numbers:
            x[d] = _number_chunk(columns[d], start, stop)
        for d, _ in codes:
            x[d] = 0.0
        bits = flag.view(np.uint8)  # the flags as 0 and 1
        np.greater_equal(x, kb.columns[0], flag)
        np.copyto(count, bits)
        for column in kb.columns[1:]:
            np.greater_equal(x, column, flag)
            np.add(count, bits, count)
        np.add(count, kb.offsets, lo)
        np.logical_and(np.greater(x, kb.first, inner), np.less(x, kb.last, flag), inner)
        missing = np.isnan(x, flag)
        if missing.any():
            if missing[kb.strict].any():
                raise DataError("a value is missing without a missing policy")
            np.copyto(lo, kb.missing_slots, where=missing)
        for d, write in codes:
            write(start, stop, lo[d])
        # the fraction of inner values only: a value beyond the knots can be
        # too far from its segment's knot to subtract without overflow.  t
        # takes the segment's knot, then x less the knot, over the width,
        # which x takes once read; 0 off inner values.  Every entry of lo
        # is in the table, so the gathers need no bounds check (mode="clip"
        # writes into the buffer directly).
        t = kb.knot_at.take(lo, out=buffers.get("locate t", *x.shape), mode="clip")
        np.subtract(x, t, out=t, where=inner)
        np.divide(t, kb.width_at.take(lo, out=x, mode="clip"), out=t, where=inner)
        np.copyto(t, 0.0, where=np.logical_not(inner, out=flag))
        hi = np.add(lo, inner, buffers.get("locate hi", *x.shape, np.intp))
        return Location(lo, hi, t, inner)

    def apply(self, location: Location, table: np.ndarray, out=None) -> np.ndarray:
        """Coordinates (D, n) of located rows under the parameters in
        ``table`` (laid out as :meth:`table`, or a stack of such tables
        laid end to end that ``location`` indexes), written into ``out``
        when given; inner values are capped at their axis tops, as in
        ``calibrate``."""
        t = location.t
        at_lo = table.take(location.lo, out=out)
        inner = np.subtract(1.0, t)
        inner *= at_lo
        at_hi = table.take(location.hi)
        at_hi *= t
        inner += at_hi
        np.minimum(inner, self._tops, out=inner)
        np.copyto(at_lo, inner, where=location.inner)
        return at_lo

    def add_apply_gradient(self, location: Location, dx, out, buffers: ChunkBuffers) -> None:
        """Add ``dx`` (D, n) times the derivative of :meth:`apply` (cap not
        differentiated) into ``out``, laid out as the table ``location``
        indexes: ``dx * (1 - t)`` at ``lo``, then ``dx * t`` at ``hi``,
        feature by feature, row by row.  Each feature owns its block of
        entries, so every entry gets its terms in row order, as a loop over
        the rows of one feature at a time adds them.  Off inner values and
        on knots the ``hi`` term is ``dx * 0``, which leaves a sum that
        starts at +0.0 as it is.  The terms and their entries are laid out
        (D, n, 2) in two of ``buffers``' arrays."""
        t = location.t
        D, n = t.shape
        terms = buffers.get("apply terms", D * n, 2).reshape(D, n, 2)
        entries = buffers.get("apply entries", D * n, 2, np.intp).reshape(D, n, 2)
        near = np.subtract(1.0, t, out=terms[..., 0])
        np.multiply(dx, near, out=near)
        np.multiply(dx, t, out=terms[..., 1])
        np.copyto(entries[..., 0], location.lo)
        np.copyto(entries[..., 1], location.hi)
        np.add.at(out, entries.ravel(), terms.ravel())

    def constraints(self) -> ConstraintSet:
        """Nondecreasing chains, declared category orders, and box bounds."""
        lower = np.full(self.num_free, -np.inf)
        upper = np.full(self.num_free, np.inf)
        lo_rows: list[int] = []
        hi_rows: list[int] = []
        for cal, off in zip(self.calibrators, self.offsets):
            spec = cal.spec
            if isinstance(cal, ContinuousCalibrator):
                k = max(len(cal.outputs) - 2, 0)
                if k:
                    lower[off] = 0.0
                    upper[off + k - 1] = spec.axis_top
                    for j in range(k - 1):
                        lo_rows.append(off + j)
                        hi_rows.append(off + j + 1)
            else:
                k = len(cal.values)
                for j in range(k):
                    lower[off + j] = 0.0
                    upper[off + j] = spec.axis_top
                pos = {c: i for i, c in enumerate(cal.categories)}
                for a, b in spec.order_pairs:
                    lo_rows.append(off + pos[a])
                    hi_rows.append(off + pos[b])
            if spec.missing is MissingPolicy.CALIBRATED:
                mpos = off + cal.num_free - 1
                lower[mpos] = 0.0
                upper[mpos] = float(spec.size - 1)
        return ConstraintSet(
            self.num_free,
            np.asarray(lo_rows, dtype=np.int64),
            np.asarray(hi_rows, dtype=np.int64),
            lower,
            upper,
        )
