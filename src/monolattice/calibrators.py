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
            if self.missing is MissingPolicy.CALIBRATED:
                return float(self.missing_value)
            if self.missing is MissingPolicy.VERTEX:
                return float(self.missing_vertex)
            raise DataError("missing value in a feature with no missing policy")
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
            if self.missing is MissingPolicy.CALIBRATED:
                return [(self.num_free - 1, 1.0)]
            return []
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
            if self.missing is MissingPolicy.CALIBRATED:
                return float(self.missing_value)
            if self.missing is MissingPolicy.VERTEX:
                return float(self.missing_vertex)
            raise DataError("missing value in a feature with no missing policy")
        return float(self.values[self._index(raw)])

    def gradient(self, raw) -> list[tuple[int, float]]:
        if is_missing(raw):
            if self.missing is MissingPolicy.CALIBRATED:
                return [(self.num_free - 1, 1.0)]
            return []
        return [(self._index(raw), 1.0)]


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
