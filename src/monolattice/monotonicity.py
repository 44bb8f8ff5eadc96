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
import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import LatticeShape, vertex_coords


class Direction(str, enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NONE = "none"


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


def read_only(value, dtype=float) -> np.ndarray:
    """A read-only copy of ``value`` (float64 unless ``dtype`` says)."""
    out = np.array(value, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Pairwise rows theta[hi] >= theta[lo], plus optional box bounds.

    A frozen value: its arrays are stored as read-only copies, so what the
    walk derives from them (``_rows``, with its workspaces) is built once
    per set.  A changed set is a new one (``dataclasses.replace``), and a
    copied, deep-copied or unpickled set is rebuilt through the constructor
    and builds its own ``_rows``."""

    num_parameters: int
    lo: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    hi: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    lower: np.ndarray | None = None  # per-parameter, -inf where unbounded
    upper: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "lo", read_only(self.lo, np.int64))
        object.__setattr__(self, "hi", read_only(self.hi, np.int64))
        for name in ("lower", "upper"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, read_only(getattr(self, name)))

    @property
    def num_rows(self) -> int:
        return len(self.lo)

    @cached_property
    def _rows(self) -> "_Rows":
        return _Rows(self)

    def __reduce__(self):
        # copies, deep copies and unpickled sets are rebuilt through the
        # constructor: arrays read-only again, nothing derived carried over
        return type(self), (self.num_parameters, self.lo, self.hi, self.lower, self.upper)


# --------------------------------------------------------------------------
# building and checking


# A set on 2^16 vertices with 16 monotone dimensions holds about 48 MB with
# its walk's workspace, so few are kept, as few as regularizer tables
_CACHED_SETS = 8


def build_constraints(
    shape: LatticeShape, spec, missing_dims=frozenset()
) -> ConstraintSet:
    """Adjacent-vertex rows for every constrained dimension.

    For a dimension whose top slice holds missing-value parameters, the chain
    covers only the real-value span; the missing slice is not ordered against
    it (it still appears in rows for the other dimensions).

    A set is built once per (shape, directions, missing dims) and shared by
    every caller, with the walk's rows and workspaces it builds on first
    use; a cache of bounded size keeps the most recently used ones.  Its
    arrays are read-only, and its workspaces are never shared between
    concurrent walks (``_Rows``).
    """
    if len(spec) != shape.ndim:
        raise ValueError(f"expected {shape.ndim} directions, got {len(spec)}")
    return _constraints(shape, tuple(map(Direction, spec)), frozenset(missing_dims))


@functools.lru_cache(maxsize=_CACHED_SETS)
def _constraints(shape: LatticeShape, spec: tuple, missing_dims: frozenset) -> ConstraintSet:
    idx = np.arange(shape.num_parameters, dtype=np.int64)
    los, his = [], []
    for d, direction in enumerate(spec):
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


def check_monotonic(theta, constraints: ConstraintSet, tolerance: float = 0.0) -> np.ndarray:
    """Positions of rows with theta[hi] - theta[lo] < -tolerance, or not a
    number (a row touching NaN, or +inf on both ends, is violated).  A
    slack that overflows is +-inf, as large as it is."""
    th = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore"):
        slack = th[constraints.hi] - th[constraints.lo]
    return np.nonzero(~(slack >= -tolerance))[0].astype(np.int64)


def describe_violations(
    theta, shape: LatticeShape, constraints: ConstraintSet, tolerance: float = 0.0
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
    """Largest constraint violation (0 when feasible); covers rows and bounds,
    the finite ones, as the walk reads them (``_finite_bounds``).  A theta
    with a non-finite entry is infinitely infeasible."""
    th = np.asarray(theta, dtype=float)
    if not np.isfinite(th).all():
        return math.inf
    lower_j, lower = _finite_bounds(constraints.lower)
    upper_j, upper = _finite_bounds(constraints.upper)
    with np.errstate(over="ignore"):  # a slack that overflows is +-inf
        slack = [th[constraints.hi] - th[constraints.lo], th[lower_j] - lower, upper - th[upper_j]]
    return 0.0 - float(np.concatenate(slack).min(initial=0.0))


# --------------------------------------------------------------------------
# feasible updates

_HIT_TOL = 1e-12  # slack considered zero, in line-parameter space
_FEASIBLE_INPUT_TOL = 1e-9


def _finite_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the finite entries of a bound vector, and their values."""
    if bounds is None:
        return np.empty(0, dtype=np.int64), np.empty(0)
    positions = np.nonzero(np.isfinite(bounds))[0]
    return positions, bounds[positions]


def _full_bounds(size: int, positions: np.ndarray, values: np.ndarray, off: float):
    """A bound vector of ``size`` entries: ``values`` at ``positions`` and
    ``off`` (-inf or +inf) elsewhere, or None without a position.  Clamping
    to it with ``np.maximum`` or ``np.minimum`` leaves an entry without a
    finite bound as it is, bit for bit, a -0.0 or NaN included."""
    if not len(positions):
        return None
    full = np.full(size, off)
    full[positions] = values
    full.flags.writeable = False
    return full


class _Rows:
    """The walk's rows (pairwise rows, then finite lower bounds, then finite
    upper bounds: the numbering of ``active``), with theta and a direction
    gathered at both ends of all rows at once.  Built once per constraint
    set (``ConstraintSet._rows``).

    A lower bound is a row from its entry down to a slot past the P entries
    that holds the bound's value (and a zero step), an upper bound a row
    from such a slot down to its entry; ``row_hi`` and ``row_lo`` are every
    row's two ends, slots included, and ``bounds`` the slots' values.

    ``spare`` holds the workspaces no call is using.  A call pops one (or
    makes one when none is spare) and appends it back when it is done;
    ``list.pop`` and ``list.append`` are atomic, so threads that share a set
    never share a workspace."""

    def __init__(self, constraints: ConstraintSet) -> None:
        self.num_parameters = constraints.num_parameters
        self.lo, self.hi = constraints.lo, constraints.hi
        self.lower_j, lower = _finite_bounds(constraints.lower)
        self.upper_j, upper = _finite_bounds(constraints.upper)
        self.count = len(self.lo) + len(self.lower_j) + len(self.upper_j)
        self.bounds = np.concatenate([lower, upper])
        p = constraints.num_parameters
        # the finite bounds over all P entries, -inf and +inf elsewhere,
        # which remove_roundoff clamps to; None without a finite bound
        self.floor = _full_bounds(p, self.lower_j, lower, -math.inf)
        self.ceiling = _full_bounds(p, self.upper_j, upper, math.inf)
        slots = np.arange(p, p + len(self.bounds))
        lower_slots, upper_slots = slots[: len(self.lower_j)], slots[len(self.lower_j) :]
        # new, writeable arrays: take copies read-only indices on every call
        self.row_hi = np.concatenate([self.hi, self.lower_j, upper_slots])
        self.row_lo = np.concatenate([self.lo, lower_slots, self.upper_j])
        self.spare: list[_Workspace] = []

    def workspace(self) -> "_Workspace":
        try:
            return self.spare.pop()
        except IndexError:
            return _Workspace(self)

    def scan(self, th: np.ndarray, direction: np.ndarray, work: "_Workspace") -> np.ndarray:
        """One pass over every row: gathers ``th`` and ``direction`` at both
        ends of all rows (one take per end), forms each row's slack
        (``th[hi] - th[lo]``; ``th[j] - lower`` and ``upper - th[j]`` for
        the bounds) and closing rate (the negated rate, ``direction[lo] -
        direction[hi]``) in ``work``, and returns the rows the pass hits.

        Either difference may overflow to +-inf, with numpy's warning turned
        off.  An infinite slack against a finite rate is no hit, as the
        exact one would not be, and neither is a rate of -inf.  A rate of
        +inf is a hit of the first test; such a row takes its rate, and its
        slack unless that is negative, from its ends halved, which cannot
        overflow and keeps their ratio, the hit time, and the hits are
        tested again.  A negative slack keeps its value: the hit test and
        the hit time read it as 0 at any scale, and the input check reads
        it whole."""
        p = len(th)
        work.values[:p, 0], work.values[:p, 1] = th, direction
        # every index is in range; "clip" lets take write straight into out
        work.values.take(self.row_hi, axis=0, out=work.at_hi, mode="clip")
        work.values.take(self.row_lo, axis=0, out=work.at_lo, mode="clip")
        with np.errstate(over="ignore"):
            np.subtract(work.at_hi[:, 0], work.at_lo[:, 0], out=work.slack)
            # lo - hi is -(hi - lo) up to the sign of a zero, which no test reads
            np.subtract(work.at_lo[:, 1], work.at_hi[:, 1], out=work.closing)
        _hits_within_step(work.slack, work.closing, scratch=work.raised, out=work.hit)
        hits = work.hit.nonzero()[0]
        if not hits.size:
            return hits
        wide = hits[work.closing[hits] == math.inf]
        if wide.size:
            at_hi, at_lo = work.at_hi[wide] * 0.5, work.at_lo[wide] * 0.5
            # halving keeps a slack's sign, so the smaller is the halved
            # one where the slack is not negative, and the slack where it is
            work.slack[wide] = np.minimum(work.slack[wide], at_hi[:, 0] - at_lo[:, 0])
            work.closing[wide] = at_lo[:, 1] - at_hi[:, 1]
            hits = hits[_hits_within_step(work.slack[hits], work.closing[hits])]
        return hits

    def ends(self, r: int, ground: int) -> tuple[int, int]:
        """The two nodes row ``r`` ties together: ``(hi, lo)`` for a
        pairwise row, ``(j, ground)`` for a bound on entry j."""
        if r < len(self.lo):
            return int(self.hi[r]), int(self.lo[r])
        r -= len(self.lo)
        if r < len(self.lower_j):
            return int(self.lower_j[r]), ground
        return int(self.upper_j[r - len(self.lower_j)]), ground

    def remove_roundoff(self, th: np.ndarray, work: "_Workspace", *,
                        scan_rows: bool = True) -> None:
        """Make ``th`` exactly feasible, in place.

        Stopping at a hit time leaves the constraints the walk hit off by
        roundoff (~1e-18), in either direction.  Raising to the lower bounds
        and then along the rows, then lowering to the upper bounds and then
        against the rows, reaches a point that violates nothing (whenever
        the set is nonempty).  It only copies existing values, so a feasible
        point is unchanged and an infeasible one moves only as far as its
        violations.  The rows hold after the first scan, so they are scanned
        again only when the upper bounds lowered an entry.  A caller that
        knows every row and bound holds passes ``scan_rows=False``: the
        scans would change nothing, and only the bound clamps run, which
        still turn a -0.0 entry on a 0.0 bound into +0.0.

        A scan gathers theta at both ends of the pairwise rows into
        ``work`` (the prefixes of ``row_hi`` and ``row_lo`` are the rows'
        ends, and writeable, so take does not copy them), so it allocates
        nothing row-sized.
        """
        n = len(self.lo)
        hi, lo = self.row_hi[:n], self.row_lo[:n]
        at_hi, at_lo = work.slack[:n], work.raised[:n]

        def violated() -> bool:
            th.take(hi, out=at_hi, mode="clip")
            th.take(lo, out=at_lo, mode="clip")
            return bool(np.less(at_hi, at_lo, out=work.hit[:n]).any())

        if self.floor is not None:
            np.maximum(th, self.floor, out=th)
        while scan_rows and violated():
            np.maximum.at(th, hi, at_lo)
        if self.ceiling is not None:
            lowered = scan_rows and bool(np.greater(th, self.ceiling).any())
            np.minimum(th, self.ceiling, out=th)
            if lowered:
                while violated():
                    np.minimum.at(th, lo, at_hi)


class _Workspace:
    """One walk's scratch arrays for a set's rows (see ``_Rows.scan``).
    ``values``, the gather source, has a row per entry, theta then the
    direction: the P entries, then the bound slots (their values and a zero
    direction).  Each pass takes its rows at every row's two ends into
    ``at_hi`` and ``at_lo``, one 16-byte row per index, and forms one entry
    per row in ``slack``, ``closing``, ``raised`` and ``hit``."""

    def __init__(self, rows: _Rows) -> None:
        p, n = rows.num_parameters, rows.count
        self.values = np.empty((p + len(rows.bounds), 2))
        self.values[p:, 0], self.values[p:, 1] = rows.bounds, 0.0
        self.rest = np.zeros(p + 1)  # a pass's rest of the direction, and the ground's 0
        self.at_hi, self.at_lo = np.empty((n, 2)), np.empty((n, 2))
        self.slack, self.closing, self.raised = np.empty(n), np.empty(n), np.empty(n)
        self.hit = np.empty(n, dtype=bool)


_TINY = 5e-324  # the smallest positive float


def _hits_within_step(
    slack: np.ndarray, closing: np.ndarray, scratch=None, out=None
) -> np.ndarray:
    """Per row, whether a pass of the walk hits it: ``closing`` (the
    negated rate) is positive and ``t = max(slack, 0) / closing <= 1``,
    without the division.  For positive finite s and q, s <= q gives
    s / q <= 1 exactly, and s > q gives s / q >= 1 + ulp(q) / q > 1 + 2^-53,
    which rounds above 1 (to inf where it overflows).  Raising the slack to
    the smallest positive float, not to 0, also asks ``closing > 0``: no
    float lies between 0 and it.  ``scratch`` (floats) and ``out`` (bools)
    receive the raised slack and the result when given."""
    return np.less_equal(np.maximum(slack, _TINY, out=scratch), closing, out=out)


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm of a 1-d ``vec`` whose squares do not overflow, its
    squares summed by numpy's ``add.reduce`` in a fixed order.  (For a 1-d
    array ``np.linalg.norm`` takes the dot product in BLAS, whose order of
    summation follows the CPU's kernel.)"""
    return math.sqrt(np.add.reduce(np.square(vec)))


def _robust_norm(vec: np.ndarray) -> float:
    """Euclidean norm that survives entries whose squares overflow."""
    peak = float(np.max(np.abs(vec))) if vec.size else 0.0
    if peak == 0.0 or not math.isfinite(peak):
        return peak
    return peak * _norm(vec / peak)


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

    Every active normal is ``e_hi - e_lo`` for a pairwise row or ``+-e_j``
    for a bound, so the orthogonal component is known in closed form.  Treat
    each bound as an edge from j to a *ground* node (index P) held at zero:
    a vector is orthogonal to every active normal exactly when it is
    constant on each connected component of the active edges and zero on
    the ground's component.  Each pass therefore replaces the rest of the
    step by its mean over each component, and by 0 on the ground's.  Both
    ends of an active row then move by the same value, so its rate is
    exactly 0 and it is never hit again.  A pass whose component sums
    overflow (entries near the float limit) takes the means of the rest
    divided by the step's largest entry, and scales them back; a row whose
    slack or closing rate overflows is read as ``_Rows.scan`` says.  The
    component labels and the step's norm are computed at the first hit; a
    step that hits nothing never needs them.

    A theta or step with a non-finite entry, or a theta more than 1e-9 from
    feasible, is a ``ValueError``.  The first pass walks the step itself.
    Each pass gathers theta and its direction once at both ends of every
    row (bounds included), which gives it its slack (the first pass's
    serves the input check too) and its rate.  Whether a pass hits a row
    is tested without a division, which then runs over the hit rows alone.
    A pass that hits nothing adds the rest of its direction and ends the
    walk, so a step that hits nothing gives theta plus the step.  The walk
    also ends once the direction's norm falls to 1e-13 of the step's, both
    taken over the step's largest entry, so that neither overflows.

    Every result is exactly feasible (tolerance 0), a zero step's included.
    A walk that hit a row, or that started from a theta infeasible within
    the tolerance, ends with ``_Rows.remove_roundoff``.  A step that hits
    nothing from an exactly feasible theta needs only its bound clamps:
    every row then has slack >= 0 and either a closing rate <= 0 or a slack
    above it, and since rounding is monotone those inequalities between the
    computed differences hold between the exact ones, so ``th[hi] +
    st[hi] >= th[lo] + st[lo]`` holds before rounding the sums and after.

    ``step`` is only read.  The result is a new array; the rows' scratch
    arrays, the walk's and the roundoff repair's, come from a workspace
    that lives as long as the set, which one call at a time holds.
    """
    th = np.array(theta, dtype=float)
    st = np.asarray(step, dtype=float)
    if th.shape != st.shape or th.ndim != 1:
        raise ValueError("theta and step must be 1-d arrays of equal length")
    if th.shape[0] != constraints.num_parameters:
        raise ValueError(
            f"expected {constraints.num_parameters} parameters, got {th.shape[0]}"
        )
    if not np.isfinite(th).all():
        raise ValueError("theta has a non-finite entry")
    if not np.isfinite(st).all():
        raise ValueError("step has a non-finite entry")
    rows = constraints._rows
    work = rows.workspace()
    try:
        hits = rows.scan(th, st, work)
        worst = float(work.slack.min()) if rows.count else 0.0
        if worst < -_FEASIBLE_INPUT_TOL:
            raise ValueError("theta violates the constraints it is supposed to satisfy")
        active: list[int] = []
        ground = th.size
        component = None  # node -> component label, the ground node last
        direction = st  # the first pass walks the step itself
        for _ in range(rows.count + 2):
            if len(hits) == 0:
                th += direction
                break
            # max(s, 0.0) keeps s when s is not below 0, as Python's max
            # does; every hit has t <= 1, so the division cannot overflow
            s = work.slack[hits]
            t = np.where(s < 0.0, 0.0, s) / work.closing[hits]
            t_min = float(t[np.argmin(t)])  # the first smallest, as a strict-< scan finds
            th += t_min * direction
            if component is None:
                component = np.arange(ground + 1)
                # norms relative to the step's largest entry, which no
                # entry of a direction exceeds, so neither overflows
                peak = float(np.max(np.abs(st)))
                step_scale = _norm(st / peak)
            for r in hits[t <= t_min + _HIT_TOL].tolist():
                a, b = rows.ends(r, ground)
                component[component == component[b]] = component[a]
                active.append(r)
            rest = work.rest
            np.multiply(1.0 - t_min, direction, out=rest[:-1])
            members = component[:-1]
            sizes = np.bincount(component)[members]
            sums = np.bincount(component, rest)
            sums[component[ground]] = 0.0
            if np.isfinite(sums).all():
                direction = sums[members] / sizes
            else:
                # a component's sum passed the float limit: average the rest
                # over the step's peak, which none of its entries exceeds,
                # and scale the means back
                sums = np.bincount(component, rest / peak)
                sums[component[ground]] = 0.0
                direction = sums[members] / sizes * peak
            if _norm(direction / peak) <= 1e-13 * step_scale:
                break
            hits = rows.scan(th, direction, work)
        # a walk hit a row exactly when ``active`` is not empty
        rows.remove_roundoff(th, work, scan_rows=bool(active) or worst < 0.0)
    finally:
        rows.spare.append(work)
    return (th, active) if return_active else th
