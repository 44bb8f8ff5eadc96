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
"""

from __future__ import annotations

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
    raise DataError("missing value in a feature with no missing policy")


def _missing_gradient(cal) -> list[tuple[int, float]]:
    if cal.missing is MissingPolicy.CALIBRATED:
        return [(cal.num_free - 1, 1.0)]
    return []


def _batch_with_missing(cal, n: int, width: int, missing: np.ndarray):
    """Coordinates, positions (-1 = no entry) and partials for a column of
    n values, with the missing rows already filled in."""
    coords = np.empty(n)
    positions = np.full((n, width), -1, dtype=np.int64)
    partials = np.zeros((n, width))
    if missing.any():
        coords[missing] = _missing_coordinate(cal)
        for k, (pos, partial) in enumerate(_missing_gradient(cal)):
            positions[missing, k] = pos
            partials[missing, k] = partial
    return coords, positions, partials


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


@dataclass
class ContinuousCalibrator:
    """Piecewise-linear map from a raw value to a lattice coordinate."""

    knots: np.ndarray  # strictly increasing, len >= 2
    outputs: np.ndarray  # same length; first and last entries are fixed
    axis_top: float
    missing: MissingPolicy = MissingPolicy.NONE
    missing_value: float | None = None  # learned coordinate (calibrated policy)
    missing_vertex: float | None = None  # fixed coordinate (vertex policy)

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
        x = float(raw)
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

    def calibrate_batch(self, column):
        """:meth:`calibrate` and :meth:`gradient` over a column, bit for bit.

        Returns coordinates (n,), free-parameter positions (n, 2) and their
        partials (n, 2); row i lists ``gradient`` of value i in order, with
        position -1 where it has no entry.  Needs strictly increasing knots
        (``searchsorted`` stands in for ``bisect_right``).
        """
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            x = column.astype(float, copy=False)
        else:
            x = np.array([np.nan if is_missing(v) else float(v) for v in column])
        missing = np.isnan(x)
        coords, positions, partials = _batch_with_missing(self, len(x), 2, missing)
        knots, outputs = self.knots, self.outputs
        high = x >= knots[-1]
        low = x <= knots[0]
        coords[high] = outputs[-1]
        coords[low] = outputs[0]
        inner = ~(missing | low | high)
        xi = x[inner]
        j = np.searchsorted(knots, xi, side="right") - 1
        t = (xi - knots[j]) / (knots[j + 1] - knots[j])
        coords[inner] = (1.0 - t) * outputs[j] + t * outputs[j + 1]
        last = len(knots) - 1
        near = j >= 1
        far = (j + 1 <= last - 1) & (t != 0.0)
        positions[inner, 0] = np.where(near, j - 1, -1)
        partials[inner, 0] = np.where(near, 1.0 - t, 0.0)
        positions[inner, 1] = np.where(far, j, -1)
        partials[inner, 1] = np.where(far, t, 0.0)
        return coords, positions, partials


@dataclass
class CategoricalCalibrator:
    """One learned lattice coordinate per category."""

    categories: list[str]
    values: np.ndarray
    axis_top: float
    missing: MissingPolicy = MissingPolicy.NONE
    missing_value: float | None = None
    missing_vertex: float | None = None
    other_index: int | None = None  # bucket for unseen categories
    order_pairs: list[tuple[str, str]] = field(default_factory=list)

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
            raise DataError(f"unknown category {raw!r}")
        return i

    def calibrate(self, raw) -> float:
        if is_missing(raw):
            return _missing_coordinate(self)
        return float(self.values[self._index(raw)])

    def gradient(self, raw) -> list[tuple[int, float]]:
        if is_missing(raw):
            return _missing_gradient(self)
        return [(self._index(raw), 1.0)]

    def calibrate_batch(self, column):
        """:meth:`calibrate` and :meth:`gradient` over a column, bit for bit:
        coordinates (n,), positions (n, 1) (-1 = no entry) and partials (n, 1).
        The first bad value raises the ``DataError`` that ``calibrate`` raises."""
        unknown = -2 if self.other_index is None else self.other_index
        codes = np.array(
            [-1 if is_missing(v) else self._lookup.get(str(v), unknown) for v in column],
            dtype=np.int64,
        )
        missing = codes == -1
        bad = (codes == -2) | (missing & (self.missing is MissingPolicy.NONE))
        if bad.any():
            self.calibrate(column[int(np.argmax(bad))])
        coords, positions, partials = _batch_with_missing(self, len(codes), 1, missing)
        known = ~missing
        coords[known] = self.values[codes[known]]
        positions[known, 0] = codes[known]
        partials[known, 0] = 1.0
        return coords, positions, partials


# --------------------------------------------------------------------------
# fitting to data


def build_continuous_calibrator(spec: FeatureSpec, column) -> ContinuousCalibrator:
    knots = fit_knots(column, spec.keypoints, spec.bounds)
    top = spec.axis_top
    outputs = np.linspace(0.0, top, len(knots))
    cal = ContinuousCalibrator(
        knots=knots,
        outputs=outputs,
        axis_top=top,
        missing=spec.missing,
    )
    if spec.missing is MissingPolicy.CALIBRATED:
        cal.missing_value = (spec.size - 1) / 2.0
    elif spec.missing is MissingPolicy.VERTEX:
        cal.missing_vertex = float(spec.size - 1)
    return cal


def build_categorical_calibrator(
    spec: FeatureSpec, column, labels=None
) -> CategoricalCalibrator:
    """Category map initialized by mean label order, evenly spread on the axis.

    Categories with no labels to average (explicitly declared but absent from
    the data, or label-free ranking data) fall back to name order.  With
    ``allow_unseen``, a dedicated OTHER bucket absorbs categories rarer than
    1% of rows during fitting and any unknown category later.
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

    for a, b in spec.order_pairs:
        for c in (a, b):
            if c not in ordered:
                raise DataError(f"feature {spec.name}: order pair names unknown category {c!r}")

    cal = CategoricalCalibrator(
        categories=ordered,
        values=values,
        axis_top=top,
        missing=spec.missing,
        order_pairs=[(str(a), str(b)) for a, b in spec.order_pairs],
        other_index=other_index,
    )
    if spec.missing is MissingPolicy.CALIBRATED:
        cal.missing_value = (spec.size - 1) / 2.0
    elif spec.missing is MissingPolicy.VERTEX:
        cal.missing_vertex = float(spec.size - 1)
    return cal


# --------------------------------------------------------------------------
# the per-model collection


class CalibratorSet:
    """All feature calibrators plus their shared free-parameter vector."""

    def __init__(self, specs: list[FeatureSpec], calibrators: list) -> None:
        if len(specs) != len(calibrators):
            raise ValueError("one calibrator per feature spec")
        self.specs = specs
        self.calibrators = calibrators
        self.offsets = []
        total = 0
        for cal in calibrators:
            self.offsets.append(total)
            total += cal.num_free
        self.num_free = total

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

    def calibrate_row(self, row) -> list[float]:
        return [cal.calibrate(v) for cal, v in zip(self.calibrators, row)]

    def row_gradients(self, row) -> list[list[tuple[int, float]]]:
        """Per feature: (global alpha position, partial) pairs for this row."""
        out = []
        for cal, off, v in zip(self.calibrators, self.offsets, row):
            out.append([(off + p, g) for p, g in cal.gradient(v)])
        return out

    def calibrate_batch(self, columns):
        """:meth:`calibrate_row` and :meth:`row_gradients` over whole columns.

        Returns coordinates (n, D) and, per feature, global alpha positions
        (n, k) (-1 = no entry) and their partials (n, k), all equal to the
        row-wise results.  A bad value raises the ``DataError`` that
        ``calibrate_row`` raises on the first bad row.
        """
        try:
            per_feature = [cal.calibrate_batch(col) for cal, col in zip(self.calibrators, columns)]
        except DataError:
            for i in range(len(columns[0])):
                self.calibrate_row([col[i] for col in columns])
            raise
        coords = np.stack([c for c, _, _ in per_feature], axis=1)
        grads = [
            (np.where(pos >= 0, pos + off, -1), partials)
            for off, (_, pos, partials) in zip(self.offsets, per_feature)
        ]
        return coords, grads

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
