"""Monotonicity constraints and feasibility-preserving updates.

Monotonicity of the interpolated surface in a lattice dimension reduces to
pairwise inequalities between parameters at adjacent vertices: for every
edge of the grid along that dimension, the parameter on the far side must
not be smaller.  That pairwise set is necessary and sufficient for both the
multilinear and the simplex surface, so constraints never need to look past
one grid step.

``ConstraintSet`` also carries optional per-parameter box bounds; calibrator
parameters reuse the same machinery.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeShape, vertex_coords


class Direction(str, enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NONE = "none"


MonotonicitySpec = tuple  # of Direction, one per lattice dimension

_DIRECTION_ALIASES = {
    "+": Direction.INCREASING,
    "increasing": Direction.INCREASING,
    "inc": Direction.INCREASING,
    "-": Direction.DECREASING,
    "decreasing": Direction.DECREASING,
    "dec": Direction.DECREASING,
    "": Direction.NONE,
    "none": Direction.NONE,
    "free": Direction.NONE,
}


def parse_direction(token: str) -> Direction:
    try:
        return _DIRECTION_ALIASES[token.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown monotone direction {token!r}") from None


@dataclass
class ConstraintSet:
    """Pairwise rows theta[hi] >= theta[lo], plus optional box bounds."""

    num_parameters: int
    lo: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    hi: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    lower: np.ndarray | None = None  # per-parameter, -inf where unbounded
    upper: np.ndarray | None = None

    @property
    def num_rows(self) -> int:
        return len(self.lo)

    def is_empty(self) -> bool:
        return (
            self.num_rows == 0
            and (self.lower is None or not np.any(np.isfinite(self.lower)))
            and (self.upper is None or not np.any(np.isfinite(self.upper)))
        )


# --------------------------------------------------------------------------
# building and checking


def build_constraints(
    shape: LatticeShape, spec, missing_dims=frozenset()
) -> ConstraintSet:
    """Adjacent-vertex rows for every constrained dimension.

    For a dimension whose top slice holds missing-value parameters, the chain
    covers only the real-value span; the missing slice is not ordered against
    it (it still appears in rows for the other dimensions).
    """
    if len(spec) != shape.ndim:
        raise ValueError(f"expected {shape.ndim} directions, got {len(spec)}")
    idx = np.arange(shape.num_parameters, dtype=np.int64)
    los, his = [], []
    for d, direction in enumerate(spec):
        direction = Direction(direction)
        if direction is Direction.NONE:
            continue
        m = shape.sizes[d]
        sd = shape.strides[d]
        top = m - 2 if d in missing_dims else m - 1
        near = idx[(idx // sd) % m < top]
        far = near + sd
        if direction is Direction.INCREASING:
            los.append(near)
            his.append(far)
        else:
            los.append(far)
            his.append(near)
    if los:
        lo = np.concatenate(los)
        hi = np.concatenate(his)
    else:
        lo = np.empty(0, dtype=np.int64)
        hi = np.empty(0, dtype=np.int64)
    return ConstraintSet(shape.num_parameters, lo, hi)


def check_monotonic(theta, constraints: ConstraintSet, tolerance: float = 1e-12) -> np.ndarray:
    """Positions of rows with theta[hi] - theta[lo] < -tolerance."""
    th = np.asarray(theta, dtype=float)
    if constraints.num_rows == 0:
        return np.empty(0, dtype=np.int64)
    slack = th[constraints.hi] - th[constraints.lo]
    return np.nonzero(slack < -tolerance)[0].astype(np.int64)


def describe_violations(
    theta, shape: LatticeShape, constraints: ConstraintSet, tolerance: float = 1e-12
) -> list[tuple[tuple[int, ...], tuple[int, ...], float]]:
    """(low coords, high coords, gap) for every violated row."""
    th = np.asarray(theta, dtype=float)
    out = []
    for r in check_monotonic(th, constraints, tolerance):
        lo = int(constraints.lo[r])
        hi = int(constraints.hi[r])
        gap = float(th[hi] - th[lo])
        out.append((vertex_coords(shape, lo), vertex_coords(shape, hi), gap))
    return out


def max_infeasibility(theta, constraints: ConstraintSet) -> float:
    """Largest constraint violation (0 when feasible); covers rows and bounds."""
    th = np.asarray(theta, dtype=float)
    worst = 0.0
    if constraints.num_rows:
        slack = th[constraints.hi] - th[constraints.lo]
        worst = max(worst, float(-slack.min()))
    if constraints.lower is not None:
        finite = np.isfinite(constraints.lower)
        if np.any(finite):
            worst = max(worst, float((constraints.lower[finite] - th[finite]).max()))
    if constraints.upper is not None:
        finite = np.isfinite(constraints.upper)
        if np.any(finite):
            worst = max(worst, float((th[finite] - constraints.upper[finite]).max()))
    return max(worst, 0.0)


# --------------------------------------------------------------------------
# feasible updates

_HIT_TOL = 1e-12  # slack considered zero, in line-parameter space
_FEASIBLE_INPUT_TOL = 1e-9


def _constraint_rows(constraints: ConstraintSet):
    """Uniform (normal, offset) view: rows as sparse entries, bounds as +-e_j."""
    rows = []
    for r in range(constraints.num_rows):
        lo = int(constraints.lo[r])
        hi = int(constraints.hi[r])
        rows.append(((hi, lo), (1.0, -1.0), 0.0))
    if constraints.lower is not None:
        for j in np.nonzero(np.isfinite(constraints.lower))[0]:
            rows.append(((int(j),), (1.0,), float(constraints.lower[j])))
    if constraints.upper is not None:
        for j in np.nonzero(np.isfinite(constraints.upper))[0]:
            rows.append(((int(j),), (-1.0,), -float(constraints.upper[j])))
    return rows


def _finite_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the finite entries of a bound vector, and their values."""
    if bounds is None:
        return np.empty(0, dtype=np.int64), np.empty(0)
    positions = np.nonzero(np.isfinite(bounds))[0]
    return positions, bounds[positions]


def _robust_norm(vec: np.ndarray) -> float:
    """Euclidean norm that survives entries whose squares overflow."""
    peak = float(np.max(np.abs(vec))) if vec.size else 0.0
    if peak == 0.0 or not math.isfinite(peak):
        return peak
    return peak * float(np.linalg.norm(vec / peak))


def project_update(
    theta, step, constraints: ConstraintSet, *, return_active: bool = False
):
    """Apply ``step`` to feasible ``theta`` without leaving the feasible set.

    Walks along the step until a constraint boundary is hit, freezes that
    constraint into the active set, and continues along the component of the
    remaining step orthogonal to all active normals, until the step is spent
    or no feasible direction remains.  Active constraints are never released
    within one call, so the result can differ from the exact projection when
    several constraints interact, but it never leaves the feasible set and
    costs only one pass.
    """
    th = np.array(theta, dtype=float)
    st = np.array(step, dtype=float)
    if th.shape != st.shape or th.ndim != 1:
        raise ValueError("theta and step must be 1-d arrays of equal length")
    if th.shape[0] != constraints.num_parameters:
        raise ValueError(
            f"expected {constraints.num_parameters} parameters, got {th.shape[0]}"
        )
    if max_infeasibility(th, constraints) > _FEASIBLE_INPUT_TOL:
        raise ValueError("theta violates the constraints it is supposed to satisfy")

    # Rows in _constraint_rows order: pairwise rows, then finite lower
    # bounds, then finite upper bounds.  Each pass computes every row's slack
    # and rate at once, with the arithmetic the per-row form uses.
    lo, hi = constraints.lo, constraints.hi
    lower_j, lower = _finite_bounds(constraints.lower)
    upper_j, upper = _finite_bounds(constraints.upper)
    num_rows = len(lo) + len(lower_j) + len(upper_j)
    active: list[int] = []
    inactive = np.ones(num_rows, dtype=bool)
    basis: list[np.ndarray] = []  # orthonormalized active normals
    remaining = st
    step_scale = _robust_norm(st)
    if step_scale == 0.0 or num_rows == 0:
        th += st
        return (th, active) if return_active else th

    def row_normal(r: int) -> np.ndarray:
        normal = np.zeros_like(th)
        if r < len(lo):
            normal[hi[r]] = 1.0
            normal[lo[r]] = -1.0
        elif r < len(lo) + len(lower_j):
            normal[lower_j[r - len(lo)]] = 1.0
        else:
            normal[upper_j[r - len(lo) - len(lower_j)]] = -1.0
        return normal

    for _ in range(num_rows + 2):
        direction = remaining.copy()
        for q in basis:
            direction -= q.dot(direction) * q
        if _robust_norm(direction) <= 1e-13 * step_scale:
            break
        slack = np.concatenate([th[hi] - th[lo], th[lower_j] - lower, upper - th[upper_j]])
        rate = np.concatenate([direction[hi] - direction[lo], direction[lower_j], -direction[upper_j]])
        candidates = np.nonzero(inactive & (rate < 0.0))[0]
        # max(s, 0.0) keeps s when s is not below 0, as Python's max does; a
        # rate so small that t overflows to inf is never hit within the step
        s = slack[candidates]
        with np.errstate(over="ignore"):
            t = np.where(s < 0.0, 0.0, s) / -rate[candidates]
        hits = candidates[t <= 1.0]
        t = t[t <= 1.0]
        if len(hits) == 0:
            th += direction
            remaining = np.zeros_like(remaining)
            break
        t_min = float(t[np.argmin(t)])  # the first smallest, as a strict-< scan finds
        th += t_min * direction
        remaining = (1.0 - t_min) * direction
        for r in hits[t <= t_min + _HIT_TOL].tolist():
            normal = row_normal(r)
            for q in basis:
                normal -= q.dot(normal) * q
            norm = np.linalg.norm(normal)
            active.append(r)
            inactive[r] = False
            if norm > 1e-12:
                basis.append(normal / norm)
    _remove_roundoff(th, constraints)
    return (th, active) if return_active else th


def _remove_roundoff(th: np.ndarray, constraints: ConstraintSet) -> None:
    """Make ``th`` exactly feasible, in place.

    Moving along the orthogonalised directions leaves the constraints the
    walk hit off by roundoff (~1e-18), in either direction.  Raising to the
    lower bounds and then along the rows, then lowering to the upper bounds
    and then against the rows, reaches a point that violates nothing
    (whenever the set is nonempty).  It only copies existing values, so a
    feasible point is unchanged and an infeasible one moves only as far as
    its violations.
    """
    lo, hi = constraints.lo, constraints.hi
    if constraints.lower is not None:
        np.maximum(th, constraints.lower, out=th)
    while np.any(th[hi] < th[lo]):
        np.maximum.at(th, hi, th[lo])
    if constraints.upper is not None:
        np.minimum(th, constraints.upper, out=th)
    while np.any(th[hi] < th[lo]):
        np.minimum.at(th, lo, th[hi])


def project_exact(
    theta,
    constraints: ConstraintSet,
    tolerance: float = 1e-10,
    max_sweeps: int = 10**6,
) -> np.ndarray:
    """Euclidean projection onto the feasible set, by alternating projections.

    Cycles over the half-spaces with Dykstra correction terms until a full
    sweep changes no parameter by more than ``tolerance``.  Intended for
    small problems (test oracles); refuses large ones.
    """
    th = np.array(theta, dtype=float)
    if th.ndim != 1 or th.shape[0] != constraints.num_parameters:
        raise ValueError(
            f"expected {constraints.num_parameters} parameters, got {th.shape}"
        )
    if th.shape[0] > 64:
        raise ValueError("exact projection is for small parameter vectors (<= 64)")
    rows = _constraint_rows(constraints)
    if not rows:
        return th
    # each correction is a scalar c with p_r = c * a_r (projections onto a
    # half-space only ever move along its normal), c <= 0
    corrections = [0.0] * len(rows)
    norms_sq = [sum(c * c for c in row[1]) for row in rows]
    for _ in range(max_sweeps):
        biggest = 0.0
        for r, (ids, coeffs, offset) in enumerate(rows):
            c_old = corrections[r]
            # y = x + c_old * a; slack of y is a.y - b
            slack_y = -offset + c_old * norms_sq[r]
            for j, c in zip(ids, coeffs):
                slack_y += c * th[j]
            c_new = min(slack_y, 0.0) / norms_sq[r]
            # x' = y - c_new * a
            shift = c_old - c_new
            if shift != 0.0:
                for j, c in zip(ids, coeffs):
                    nv = th[j] + shift * c
                    biggest = max(biggest, abs(nv - th[j]))
                    th[j] = nv
            corrections[r] = c_new
        if biggest <= tolerance:
            return th
    raise RuntimeError(f"projection failed to converge in {max_sweeps} sweeps")
