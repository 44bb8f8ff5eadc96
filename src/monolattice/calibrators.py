"""Per-feature calibration onto lattice coordinates.

Each raw feature is mapped into its lattice axis [0, M_d - 1] by a trainable
one-dimensional transform:

* continuous features - a piecewise-linear function with fixed knots placed
  at the feature's bounds and at equally spaced quantiles of the training
  column; the outputs at the two end knots are pinned to the ends of the
  axis, the interior outputs are learned under a nondecreasing chain.
* categorical features - one learned axis value per category, optionally
  under declared pairwise order constraints.

Missing values are handled per feature, either by learning the axis value to
impute (``calibrated``) or by reserving the top lattice slice as a dedicated
missing vertex and rescaling real values to [0, M_d - 2] (``vertex``).

Calibrators are frozen values.  ``knots``, ``outputs`` and ``values`` are
stored as read-only float64 copies and ``categories`` as a tuple, so what is
derived from them (the knot list, the category lookup, the row entry) is
built once, on first use, and cannot go stale.  Other parameters make a new
calibrator (``dataclasses.replace``), or a new set (``CalibratorSet.with_table``,
which training uses once, for the trained model); a copied or unpickled
calibrator is rebuilt through its constructor.

Single-row calibration (``CalibratorSet.calibrate_row``, behind
``Model.predict_row``) reads each calibrator's *row entry*: the plain Python
values ``calibrate`` needs (knots and outputs, or the category lookup and
values, as lists; the axis top or the OTHER index; the missing coordinate).
Each calibrator's ``calibrate`` is the scalar oracle of that path.

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
k times the table size per row reads and scatters into worker k's.  The
multilinear kernel after calibration keeps its chunk buffers for a whole
call or training run (see ``interpolation``), so its speed does not depend
on what calibration freed before.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .monotonicity import ConstraintSet, Direction


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


@dataclass
class FeatureSpec:
    name: str
    kind: FeatureKind = FeatureKind.CONTINUOUS
    size: int = 2  # lattice vertices along this feature
    keypoints: int = 2  # calibration knots (continuous only)
    bounds: tuple[float, float] | None = None
    monotone: Direction = Direction.NONE
    missing: MissingPolicy = MissingPolicy.NONE
    categories: list[str] | None = None
    order_pairs: list[tuple[str, str]] = field(default_factory=list)
    allow_unseen: bool = False

    def __post_init__(self):
        self.kind = FeatureKind(self.kind)
        self.monotone = Direction(self.monotone)
        self.missing = MissingPolicy(self.missing)
        if self.size < 2:
            raise ValueError(f"feature {self.name}: lattice size must be >= 2")
        if self.missing is MissingPolicy.VERTEX and self.size < 3:
            raise ValueError(
                f"feature {self.name}: a missing vertex needs lattice size >= 3"
            )
        if self.kind is FeatureKind.CONTINUOUS and self.keypoints < 2:
            raise ValueError(f"feature {self.name}: need at least 2 keypoints")

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
    if cal.missing is MissingPolicy.CALIBRATED:
        return float(cal.missing_value)
    if cal.missing is MissingPolicy.VERTEX:
        return float(cal.missing_vertex)
    raise DataError(f"feature {cal.name}: missing value but no missing policy")


def _missing_gradient(cal) -> list[tuple[int, float]]:
    if cal.missing is MissingPolicy.CALIBRATED:
        return [(cal.num_free - 1, 1.0)]
    return []


def _locate_missing(cal, missing: np.ndarray, slot: int, lo) -> None:
    """Point the missing rows of a located column at the table's missing
    slot; raises without a missing policy."""
    if missing.any():
        _missing_coordinate(cal)
        lo[missing] = slot


def _row_missing(cal) -> float | None:
    """The missing coordinate of ``cal``'s row entry; None where ``calibrate``
    raises for a missing value, which ``calibrate_row`` then leaves to it."""
    try:
        return _missing_coordinate(cal)
    except (TypeError, ValueError):
        return None


def read_only(value) -> np.ndarray:
    """A read-only float64 copy of ``value``."""
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


class Frozen:
    """Base of the frozen dataclasses whose derived structures are built once
    (``Model`` and the calibrators)."""

    def __reduce__(self):
        # copies, deep copies and unpickled values are rebuilt through the
        # constructor: arrays read-only again, nothing derived carried over
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))


# --------------------------------------------------------------------------
# knot placement


def fit_knots(column, keypoints: int, bounds: tuple[float, float] | None = None) -> np.ndarray:
    """Knot vector: the bounds plus equally spaced quantiles between them.

    Quantiles are the usual linearly interpolated empirical ones.  Duplicate
    knots (heavy ties in the column) are collapsed, shrinking the vector.
    """
    if keypoints < 2:
        raise ValueError("need at least 2 keypoints")
    col = np.asarray(column, dtype=float)
    col = col[np.isfinite(col)]
    if col.size == 0:
        raise ValueError("no finite values to place knots on")
    lo, hi = bounds if bounds is not None else (float(col.min()), float(col.max()))
    if not lo < hi:
        raise ValueError(f"degenerate bounds [{lo}, {hi}]; column may be constant")
    inner = np.quantile(col, np.arange(1, keypoints - 1) / (keypoints - 1))
    knots = np.unique(np.concatenate([[lo], np.clip(inner, lo, hi), [hi]]))
    return knots


# --------------------------------------------------------------------------
# calibrators


@dataclass(frozen=True)
class ContinuousCalibrator(Frozen):
    """Piecewise-linear map from a raw value to a lattice coordinate."""

    knots: np.ndarray  # strictly increasing, len >= 2
    outputs: np.ndarray  # same length; first and last entries are fixed
    axis_top: float
    missing: MissingPolicy = MissingPolicy.NONE
    missing_value: float | None = None  # learned coordinate (calibrated policy)
    missing_vertex: float | None = None  # fixed coordinate (vertex policy)
    name: str = ""  # the feature's, for error messages

    def __post_init__(self):
        object.__setattr__(self, "knots", read_only(self.knots))
        object.__setattr__(self, "outputs", read_only(self.outputs))

    @property
    def num_free(self) -> int:
        n = max(len(self.outputs) - 2, 0)
        if self.missing is MissingPolicy.CALIBRATED:
            n += 1
        return n

    @cached_property
    def _knot_list(self) -> list[float]:
        return self.knots.tolist()

    @cached_property
    def _row(self) -> tuple:
        """This calibrator's row entry: knots and outputs as lists, the axis
        top, the missing coordinate (or None) and the two end knots."""
        knots = self._knot_list
        return (knots, self.outputs.tolist(), self.axis_top, _row_missing(self),
                knots[0], knots[-1])

    def _number(self, raw) -> float:
        """``raw`` as a float, NaN where it is missing; a DataError naming
        the feature where it is not a number."""
        if is_missing(raw):
            return math.nan
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise DataError(f"feature {self.name}: {raw!r} is not a number") from None

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
        top = self.axis_top  # with both outputs at the top, x can round past it
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

    def locate(self, column):
        """The parameter-free half of :meth:`calibrate`.

        Per value: indices ``lo`` and ``hi`` into the calibrator's block of
        :meth:`CalibratorSet.table` (``points``, then the missing slot), fraction
        ``t`` (0 unless inner) and the inner flag (strictly between the end
        knots).  An inner value's ``lo`` is its segment.  Needs strictly
        increasing knots (``searchsorted`` stands in for ``bisect_right``).
        """
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            x = column.astype(float, copy=False)
        else:
            try:
                x = np.array([np.nan if is_missing(v) else float(v) for v in column])
            except (TypeError, ValueError):
                for v in column:
                    self.calibrate(v)  # raises the DataError of the first bad value
                raise
        knots = self.knots
        last = len(knots) - 1
        inner = (x > knots[0]) & (x < knots[-1])
        # the segment bisect_right gives inner values; it is 0 at and below
        # the first knot, and last - 1 at and above the last knot and for NaN
        lo = np.searchsorted(knots[1:-1], x, side="right")
        xj = knots.take(lo)
        # the fraction of inner values only: a value beyond the knots can be
        # too far from its segment's knot to subtract without overflow
        t = np.subtract(x, xj, out=np.zeros(len(x)), where=inner)
        t /= knots.take(lo + 1) - xj
        lo[x >= knots[-1]] = last
        _locate_missing(self, np.isnan(x), last + 1, lo)
        return lo, lo + inner, t, inner


@dataclass(frozen=True)
class CategoricalCalibrator(Frozen):
    """One learned lattice coordinate per category."""

    categories: tuple[str, ...]  # stored as a tuple, whatever is passed
    values: np.ndarray
    axis_top: float
    missing: MissingPolicy = MissingPolicy.NONE
    missing_value: float | None = None
    missing_vertex: float | None = None
    other_index: int | None = None  # bucket for unseen categories
    order_pairs: list[tuple[str, str]] = field(default_factory=list)
    name: str = ""  # the feature's, for error messages

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "values", read_only(self.values))

    @property
    def num_free(self) -> int:
        n = len(self.values)
        if self.missing is MissingPolicy.CALIBRATED:
            n += 1
        return n

    @cached_property
    def _lookup(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.categories)}

    @cached_property
    def _row(self) -> tuple:
        """This calibrator's row entry, laid out as the continuous one's:
        the lookup, the values as a list, the OTHER index, the missing
        coordinate (or None), and None twice where the end knots would be."""
        return (self._lookup, self.values.tolist(), self.other_index, _row_missing(self),
                None, None)

    def _index(self, raw) -> int:
        i = self._lookup.get(str(raw))
        if i is None:
            if self.other_index is not None:
                return self.other_index
            raise DataError(f"feature {self.name}: unknown category {raw!r}")
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

    def locate(self, column):
        """The parameter-free half of :meth:`calibrate`, laid out as
        :meth:`ContinuousCalibrator.locate` (``lo`` = ``hi`` = the code, t = 0,
        never inner).  Each distinct value is looked up once.  The first bad
        value raises the ``DataError`` that ``calibrate`` raises."""
        unknown = -2 if self.other_index is None else self.other_index
        texts, index = _distinct_texts(column)
        lookup = self._lookup
        code_of = [-1 if v is None else lookup.get(v, unknown) for v in texts]
        codes = np.array(code_of, dtype=np.int64)[index]
        missing = codes == -1
        bad = (codes == -2) | (missing & (self.missing is MissingPolicy.NONE))
        if bad.any():
            self.calibrate(column[int(np.argmax(bad))])
        _locate_missing(self, missing, len(self.values), codes)
        n = len(codes)
        return codes, codes, np.zeros(n), np.zeros(n, dtype=bool)


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


def _missing_fields(spec: FeatureSpec) -> dict:
    """The missing-value fields of a calibrator fitted for ``spec``: a
    learned coordinate starts mid-axis, a missing vertex is the top slice."""
    missing = spec.missing
    return {
        "missing": missing,
        "missing_value": (spec.size - 1) / 2.0 if missing is MissingPolicy.CALIBRATED else None,
        "missing_vertex": float(spec.size - 1) if missing is MissingPolicy.VERTEX else None,
    }


def build_continuous_calibrator(spec: FeatureSpec, column) -> ContinuousCalibrator:
    try:
        knots = fit_knots(_numbers(column), spec.keypoints, spec.bounds)
    except ValueError as e:
        raise DataError(f"feature {spec.name}: {e}") from None
    top = spec.axis_top
    return ContinuousCalibrator(
        knots=knots,
        outputs=np.linspace(0.0, top, len(knots)),
        axis_top=top,
        name=spec.name,
        **_missing_fields(spec),
    )


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

    return CategoricalCalibrator(
        categories=ordered,
        values=values,
        axis_top=top,
        order_pairs=[(str(a), str(b)) for a, b in spec.order_pairs],
        other_index=other_index,
        name=spec.name,
        **_missing_fields(spec),
    )


# --------------------------------------------------------------------------
# the per-model collection


@dataclass(frozen=True)
class Location:
    """Where a batch of rows sits on the calibrators: what batch calibration
    needs that does not depend on the parameters.

    ``lo``, ``hi``, ``t`` and ``inner`` are (n, D): indices into
    :meth:`CalibratorSet.table`, fraction and inner flag per row and feature.
    """

    lo: np.ndarray
    hi: np.ndarray
    t: np.ndarray
    inner: np.ndarray

    def take(self, rows, offset=None) -> "Location":
        """The located ``rows``; with ``offset`` (one per row) added to their
        ``lo`` and ``hi``, so that they index a stack of tables, laid end to
        end, where row i reads the table that starts at ``offset[i]``."""
        lo, hi = self.lo[rows], self.hi[rows]
        if offset is not None:
            lo += offset[:, None]
            hi += offset[:, None]
        return Location(lo, hi, self.t[rows], self.inner[rows])


class CalibratorSet:
    """All feature calibrators plus their shared free-parameter vector."""

    def __init__(self, specs: list[FeatureSpec], calibrators: list) -> None:
        if len(specs) != len(calibrators):
            raise ValueError("one calibrator per feature spec")
        self.specs = specs
        self.calibrators = calibrators
        self.offsets = []
        self.table_offsets = []
        total = self.table_size = 0
        free = []
        for cal in calibrators:
            self.offsets.append(total)
            self.table_offsets.append(self.table_size)
            total += cal.num_free
            self.table_size += len(cal.points) + 1
            block = [True] * len(cal.points) + [cal.missing is MissingPolicy.CALIBRATED]
            if isinstance(cal, ContinuousCalibrator):
                block[0] = block[-2] = False  # the pinned end outputs
            free += block
        self.num_free = total
        self._tops = np.array([cal.axis_top for cal in calibrators])
        self._free_entries = np.flatnonzero(free)  # alpha's table entries, in order

    @classmethod
    def fit(cls, specs: list[FeatureSpec], columns: list, labels=None) -> "CalibratorSet":
        cals = []
        for spec, col in zip(specs, columns):
            if spec.kind is FeatureKind.CONTINUOUS:
                cals.append(build_continuous_calibrator(spec, col))
            else:
                cals.append(build_categorical_calibrator(spec, col, labels))
        return cls(specs, cals)

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
        ``dataclasses.replace``, which keeps everything else."""
        cals = []
        for cal, start in zip(self.calibrators, self.table_offsets):
            end = start + len(cal.points)
            points = "outputs" if isinstance(cal, ContinuousCalibrator) else "values"
            missing = cal.missing_value
            if cal.missing is MissingPolicy.CALIBRATED:
                missing = float(table[end])
            changed = {points: table[start:end], "missing_value": missing}
            cals.append(dataclasses.replace(cal, **changed))
        return CalibratorSet(self.specs, cals)

    def _check_width(self, count: int, unit: str) -> None:
        if count != len(self.calibrators):
            raise DataError(
                f"got {count} {unit} for a model with {len(self.calibrators)} features"
            )

    def calibrate_row(self, row) -> list[float]:
        """The coordinates of one row, equal to each calibrator's
        ``calibrate`` bit for bit, from the calibrators' row entries.  A
        value the entry cannot place (missing without a coordinate, not a
        number, an unknown category) is handed to ``calibrate``, which
        raises its error, so the first bad value of the row is reported."""
        cals = self.calibrators
        if len(row) != len(cals):
            self._check_width(len(row), "values")
        out = []
        for cal, raw in zip(cals, row):
            # continuous: knot list, outputs, axis top, missing, end knots;
            # categorical: lookup, values, OTHER index, missing, None, None
            keys, points, top, missing, first, last = cal._row
            if first is None:
                if raw is None or isinstance(raw, float) and raw != raw:
                    x = missing
                else:
                    i = keys.get(str(raw), top)
                    x = None if i is None else points[i]
            elif raw is None:
                x = missing
            else:
                try:
                    x = float(raw)
                except (TypeError, ValueError):
                    x = None
                else:
                    if x != x:  # NaN, also as text
                        x = missing
                    elif x <= first:
                        x = points[0]
                    elif x >= last:
                        x = points[-1]
                    else:
                        j = bisect_right(keys, x) - 1
                        t = (x - keys[j]) / (keys[j + 1] - keys[j])
                        x = (1.0 - t) * points[j] + t * points[j + 1]
                        x = x if x <= top else top
            out.append(cal.calibrate(raw) if x is None else x)
        return out

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
            out[end] = np.nan if cal.missing is MissingPolicy.NONE else _missing_coordinate(cal)
        return out

    def locate(self, columns) -> Location:
        """Locate every row of ``columns`` (one column per feature).  A bad
        value raises the ``DataError`` that :meth:`calibrate_row` raises on
        the first bad row, with that row's index as its ``row``."""
        self._check_width(len(columns), "columns")
        try:
            per_feature = [cal.locate(col) for cal, col in zip(self.calibrators, columns)]
        except DataError:
            for i in range(len(columns[0])):
                try:
                    self.calibrate_row([col[i] for col in columns])
                except DataError as e:
                    e.row = i
                    raise
            raise
        lo, hi, t, inner = zip(*per_feature)
        blocks = np.asarray(self.table_offsets, dtype=np.int64)
        return Location(
            lo=np.stack(lo, axis=1) + blocks,
            hi=np.stack(hi, axis=1) + blocks,
            t=np.stack(t, axis=1),
            inner=np.stack(inner, axis=1),
        )

    def apply(self, location: Location, table: np.ndarray) -> np.ndarray:
        """Coordinates (n, D) of located rows under the parameters in
        ``table`` (laid out as :meth:`table`, or a stack of such tables
        laid end to end that ``location`` indexes); inner values are capped
        at their axis tops, as in ``calibrate``."""
        t = location.t
        at_lo = table[location.lo]
        inner = np.minimum((1.0 - t) * at_lo + t * table[location.hi], self._tops)
        return np.where(location.inner, inner, at_lo)

    def add_apply_gradient(self, location: Location, dx, out) -> None:
        """Add ``dx`` (n, D) times the derivative of :meth:`apply` (cap not
        differentiated) into ``out``, laid out as the table ``location``
        indexes: ``dx * (1 - t)`` at ``lo``, then ``dx * t`` at ``hi``, row
        by row, feature by feature.  Each feature owns its block of entries,
        so every entry gets its terms in row order, as a loop over the rows
        of one feature at a time adds them.  Off inner values and on knots
        the ``hi`` term is ``dx * 0``, which leaves a sum that starts at
        +0.0 as it is."""
        t = location.t
        terms = np.stack([dx * (1.0 - t), dx * t], axis=2)  # (n, D, 2)
        entries = np.stack([location.lo, location.hi], axis=2)
        np.add.at(out, entries.ravel(), terms.ravel())

    def constraints(self) -> ConstraintSet:
        """Nondecreasing chains, declared category orders, and box bounds."""
        lower = np.full(self.num_free, -np.inf)
        upper = np.full(self.num_free, np.inf)
        lo_rows: list[int] = []
        hi_rows: list[int] = []
        for spec, cal, off in zip(self.specs, self.calibrators, self.offsets):
            if isinstance(cal, ContinuousCalibrator):
                k = max(len(cal.outputs) - 2, 0)
                if k:
                    lower[off] = 0.0
                    upper[off + k - 1] = cal.axis_top
                    for j in range(k - 1):
                        lo_rows.append(off + j)
                        hi_rows.append(off + j + 1)
            else:
                k = len(cal.values)
                for j in range(k):
                    lower[off + j] = 0.0
                    upper[off + j] = cal.axis_top
                pos = {c: i for i, c in enumerate(cal.categories)}
                for a, b in cal.order_pairs:
                    lo_rows.append(off + pos[a])
                    hi_rows.append(off + pos[b])
            if cal.missing is MissingPolicy.CALIBRATED:
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
