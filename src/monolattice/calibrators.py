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

Batch calibration has two halves.  *Locate* depends only on the values and
the fixed knots or categories: per value it finds two indices into a flat
table of parameters, a fraction t, an inner flag, and the free-parameter
positions and partials of the gradient (a :class:`CalibrationPlan`).
*Apply* reads the current parameters: ``x = P[lo]``, and on inner entries
``x = (1 - t) * P[lo] + t * P[hi]``, the formula of ``calibrate``.  Table P
holds every feature's outputs or values, each followed by its missing
coordinate, so one gather calibrates all features.  Training locates its
samples once per run and applies the plan at every step.
"""

from __future__ import annotations

import copy
import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field

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


def _missing_slot(cal) -> float:
    """The table entry after a calibrator's points: its missing coordinate
    (NaN, never read, without a missing policy)."""
    return np.nan if cal.missing is MissingPolicy.NONE else _missing_coordinate(cal)


def _apply(table: np.ndarray, lo, hi, t, inner) -> np.ndarray:
    """Coordinates of located values under the parameters in ``table``."""
    at_lo = table[lo]
    return np.where(inner, (1.0 - t) * at_lo + t * table[hi], at_lo)


def _missing_gradient(cal) -> list[tuple[int, float]]:
    if cal.missing is MissingPolicy.CALIBRATED:
        return [(cal.num_free - 1, 1.0)]
    return []


def _fill_missing(cal, missing: np.ndarray, slot: int, lo, positions, partials) -> None:
    """Point the missing rows of a located column at the table's missing
    slot, with the missing value's gradient entries."""
    if missing.any():
        _missing_coordinate(cal)  # raises without a missing policy
        lo[missing] = slot
        for k, (pos, partial) in enumerate(_missing_gradient(cal)):
            positions[missing, k] = pos
            partials[missing, k] = partial


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


class _Calibrator:
    """What both calibrators share: their block of the parameter table
    (``points``, then the missing slot) and batch calibration."""

    def table(self) -> np.ndarray:
        """This calibrator's block of the parameter table."""
        return np.append(self.points, _missing_slot(self))

    def calibrate_batch(self, column):
        """:meth:`calibrate` and :meth:`gradient` over a column, bit for bit:
        coordinates (n,) and the positions and partials of ``locate``."""
        lo, hi, t, inner, positions, partials = self.locate(column)
        return _apply(self.table(), lo, hi, t, inner), positions, partials


@dataclass
class ContinuousCalibrator(_Calibrator):
    """Piecewise-linear map from a raw value to a lattice coordinate."""

    knots: np.ndarray  # strictly increasing, len >= 2
    outputs: np.ndarray  # same length; first and last entries are fixed
    axis_top: float
    missing: MissingPolicy = MissingPolicy.NONE
    missing_value: float | None = None  # learned coordinate (calibrated policy)
    missing_vertex: float | None = None  # fixed coordinate (vertex policy)
    name: str = ""  # the feature's, for error messages

    @property
    def num_free(self) -> int:
        n = max(len(self.outputs) - 2, 0)
        if self.missing is MissingPolicy.CALIBRATED:
            n += 1
        return n

    def free_parameters(self) -> np.ndarray:
        vals = list(self.outputs[1:-1])
        if self.missing is MissingPolicy.CALIBRATED:
            vals.append(self.missing_value)
        return np.array(vals, dtype=float)

    def set_free_parameters(self, vals) -> None:
        vals = np.asarray(vals, dtype=float)
        k = max(len(self.outputs) - 2, 0)
        self.outputs[1:-1] = vals[:k]
        if self.missing is MissingPolicy.CALIBRATED:
            self.missing_value = float(vals[k])

    def calibrate(self, raw) -> float:
        if is_missing(raw):
            return _missing_coordinate(self)
        try:
            x = float(raw)
        except (TypeError, ValueError):
            raise DataError(f"feature {self.name}: {raw!r} is not a number") from None
        knots = self.knots
        if x <= knots[0]:
            return float(self.outputs[0])
        if x >= knots[-1]:
            return float(self.outputs[-1])
        j = bisect_right(knots, x) - 1
        t = (x - knots[j]) / (knots[j + 1] - knots[j])
        return float((1.0 - t) * self.outputs[j] + t * self.outputs[j + 1])

    def gradient(self, raw) -> list[tuple[int, float]]:
        """Partials of calibrate(raw) w.r.t. the free parameters (sparse)."""
        if is_missing(raw):
            return _missing_gradient(self)
        x = float(raw)
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

    def fork(self) -> "ContinuousCalibrator":
        """A calibrator sharing the knots, with its own outputs."""
        out = copy.copy(self)
        out.outputs = self.outputs.copy()
        return out

    def locate(self, column):
        """The parameter-free half of :meth:`calibrate_batch`.

        Per value: indices ``lo`` and ``hi`` into :meth:`table`, fraction
        ``t`` and the inner flag (strictly between the end knots), then the
        free-parameter positions (n, 2) and partials (n, 2) that list
        ``gradient`` in order, with position -1 where it has no entry.
        Needs strictly increasing knots (``searchsorted`` stands in for
        ``bisect_right``).
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
        # the segment bisect_right gives inner values, clipped to [0, last - 1]
        # for the rest (NaN included)
        j = np.searchsorted(knots[1:-1], x, side="right")
        xj = knots[j]
        t = (np.where(inner, x, xj) - xj) / (knots[j + 1] - xj)  # 0 where not inner
        lo = np.where(inner, j, np.where(x >= knots[-1], last, 0))
        near = inner & (j >= 1)
        far = inner & (j + 1 <= last - 1) & (t != 0.0)
        positions = np.stack([np.where(near, j - 1, -1), np.where(far, j, -1)], axis=1)
        partials = np.stack([np.where(near, 1.0 - t, 0.0), np.where(far, t, 0.0)], axis=1)
        _fill_missing(self, np.isnan(x), last + 1, lo, positions, partials)
        hi = np.where(inner, j + 1, lo)
        return lo, hi, t, inner, positions, partials


@dataclass
class CategoricalCalibrator(_Calibrator):
    """One learned lattice coordinate per category."""

    categories: list[str]
    values: np.ndarray
    axis_top: float
    missing: MissingPolicy = MissingPolicy.NONE
    missing_value: float | None = None
    missing_vertex: float | None = None
    other_index: int | None = None  # bucket for unseen categories
    order_pairs: list[tuple[str, str]] = field(default_factory=list)
    name: str = ""  # the feature's, for error messages

    def __post_init__(self):
        self._lookup = {c: i for i, c in enumerate(self.categories)}

    @property
    def num_free(self) -> int:
        n = len(self.values)
        if self.missing is MissingPolicy.CALIBRATED:
            n += 1
        return n

    def free_parameters(self) -> np.ndarray:
        vals = list(self.values)
        if self.missing is MissingPolicy.CALIBRATED:
            vals.append(self.missing_value)
        return np.array(vals, dtype=float)

    def set_free_parameters(self, vals) -> None:
        vals = np.asarray(vals, dtype=float)
        self.values[:] = vals[: len(self.values)]
        if self.missing is MissingPolicy.CALIBRATED:
            self.missing_value = float(vals[len(self.values)])

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

    def fork(self) -> "CategoricalCalibrator":
        """A calibrator sharing categories and lookup, with its own values."""
        out = copy.copy(self)
        out.values = self.values.copy()
        return out

    def locate(self, column):
        """The parameter-free half of :meth:`calibrate_batch`, laid out as
        :meth:`ContinuousCalibrator.locate` (``hi`` = ``lo``, t = 0, never
        inner).  The first bad value raises the ``DataError`` that
        ``calibrate`` raises."""
        unknown = -2 if self.other_index is None else self.other_index
        codes = np.array(
            [-1 if is_missing(v) else self._lookup.get(str(v), unknown) for v in column],
            dtype=np.int64,
        )
        missing = codes == -1
        bad = (codes == -2) | (missing & (self.missing is MissingPolicy.NONE))
        if bad.any():
            self.calibrate(column[int(np.argmax(bad))])
        n = len(codes)
        positions = np.stack([codes, np.full(n, -1)], axis=1)
        partials = np.stack([np.where(missing, 0.0, 1.0), np.zeros(n)], axis=1)
        _fill_missing(self, missing, len(self.values), codes, positions, partials)
        return codes, codes, np.zeros(n), np.zeros(n, dtype=bool), positions, partials


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


def build_continuous_calibrator(spec: FeatureSpec, column) -> ContinuousCalibrator:
    try:
        knots = fit_knots(_numbers(column), spec.keypoints, spec.bounds)
    except ValueError as e:
        raise DataError(f"feature {spec.name}: {e}") from None
    top = spec.axis_top
    outputs = np.linspace(0.0, top, len(knots))
    cal = ContinuousCalibrator(
        knots=knots,
        outputs=outputs,
        axis_top=top,
        missing=spec.missing,
        name=spec.name,
    )
    if spec.missing is MissingPolicy.CALIBRATED:
        cal.missing_value = (spec.size - 1) / 2.0
    elif spec.missing is MissingPolicy.VERTEX:
        cal.missing_vertex = float(spec.size - 1)
    return cal


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
    observed: dict[str, int] = {}
    for raw in column:
        if is_missing(raw):
            if spec.missing is MissingPolicy.NONE:
                raise DataError(
                    f"feature {spec.name}: missing value but no missing policy"
                )
            continue
        observed[str(raw)] = observed.get(str(raw), 0) + 1

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
    keyed = []
    overall = None
    if labels is not None:
        lab = np.asarray(labels, dtype=float)
        col = [None if is_missing(r) else str(r) for r in column]
        overall = float(lab.mean()) if len(lab) else 0.0
        for c in kept:
            mask = [v == c for v in col]
            mean = float(lab[mask].mean()) if any(mask) else overall
            keyed.append((mean, c))
        keyed.sort()
        ordered = [c for _, c in keyed]
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

    cal = CategoricalCalibrator(
        categories=ordered,
        values=values,
        axis_top=top,
        missing=spec.missing,
        order_pairs=[(str(a), str(b)) for a, b in spec.order_pairs],
        other_index=other_index,
        name=spec.name,
    )
    if spec.missing is MissingPolicy.CALIBRATED:
        cal.missing_value = (spec.size - 1) / 2.0
    elif spec.missing is MissingPolicy.VERTEX:
        cal.missing_vertex = float(spec.size - 1)
    return cal


# --------------------------------------------------------------------------
# the per-model collection


@dataclass(frozen=True)
class CalibrationPlan:
    """Where a batch of rows sits on the calibrators: the half of batch
    calibration that does not depend on the parameters.

    ``lo``, ``hi``, ``t`` and ``inner`` are (n, D): indices into
    :meth:`CalibratorSet.table`, fraction and inner flag per row and feature.
    ``positions`` (D, n, 2) holds each value's global free-parameter
    positions in ``gradient`` order (-1 = no entry), ``partials`` (D, n, 2)
    their partials; feature-major, so a scatter runs feature, row, entry.
    """

    lo: np.ndarray
    hi: np.ndarray
    t: np.ndarray
    inner: np.ndarray
    positions: np.ndarray
    partials: np.ndarray

    def take(self, rows) -> "CalibrationPlan":
        return CalibrationPlan(
            self.lo[rows],
            self.hi[rows],
            self.t[rows],
            self.inner[rows],
            self.positions[:, rows],
            self.partials[:, rows],
        )


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
        for cal in calibrators:
            self.offsets.append(total)
            self.table_offsets.append(self.table_size)
            total += cal.num_free
            self.table_size += len(cal.points) + 1
        self.num_free = total

    def fork(self) -> "CalibratorSet":
        """A set sharing specs, knots, categories and lookups with this one
        and owning its parameters, so training it leaves this one as is."""
        out = copy.copy(self)
        out.calibrators = [cal.fork() for cal in self.calibrators]
        return out

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
        if self.num_free == 0:
            return np.empty(0, dtype=float)
        return np.concatenate([c.free_parameters() for c in self.calibrators if c.num_free])

    def set_alpha(self, vec) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.num_free,):
            raise ValueError(f"expected {self.num_free} calibrator parameters")
        for cal, off in zip(self.calibrators, self.offsets):
            if cal.num_free:
                cal.set_free_parameters(vec[off : off + cal.num_free])

    def _check_width(self, count: int, unit: str) -> None:
        if count != len(self.calibrators):
            raise DataError(
                f"got {count} {unit} for a model with {len(self.calibrators)} features"
            )

    def calibrate_row(self, row) -> list[float]:
        self._check_width(len(row), "values")
        return [cal.calibrate(v) for cal, v in zip(self.calibrators, row)]

    def row_gradients(self, row) -> list[list[tuple[int, float]]]:
        """Per feature: (global alpha position, partial) pairs for this row."""
        out = []
        for cal, off, v in zip(self.calibrators, self.offsets, row):
            out.append([(off + p, g) for p, g in cal.gradient(v)])
        return out

    def table(self) -> np.ndarray:
        """The current parameters as one flat table: per feature its outputs
        or values, then its missing coordinate."""
        out = np.empty(self.table_size)
        for cal, start in zip(self.calibrators, self.table_offsets):
            end = start + len(cal.points)
            out[start:end] = cal.points
            out[end] = _missing_slot(cal)
        return out

    def locate(self, columns) -> CalibrationPlan:
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
        lo, hi, t, inner, positions, partials = zip(*per_feature)
        blocks = np.asarray(self.table_offsets, dtype=np.int64)
        return CalibrationPlan(
            lo=np.stack(lo, axis=1) + blocks,
            hi=np.stack(hi, axis=1) + blocks,
            t=np.stack(t, axis=1),
            inner=np.stack(inner, axis=1),
            positions=np.stack(
                [np.where(pos >= 0, pos + off, -1) for pos, off in zip(positions, self.offsets)]
            ),
            partials=np.stack(partials),
        )

    def apply(self, plan: CalibrationPlan) -> np.ndarray:
        """Coordinates (n, D) of located rows under the current parameters."""
        return _apply(self.table(), plan.lo, plan.hi, plan.t, plan.inner)

    def calibrate_batch(self, columns):
        """:meth:`calibrate_row` and :meth:`row_gradients` over whole columns:
        :meth:`locate`, then :meth:`apply`.

        Returns coordinates (n, D) and, per feature, global alpha positions
        (n, 2) (-1 = no entry) and their partials (n, 2), all equal to the
        row-wise results.
        """
        plan = self.locate(columns)
        return self.apply(plan), list(zip(plan.positions, plan.partials))

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
