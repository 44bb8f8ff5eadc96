"""Scalar references for the batched training step.

``reference_loss_gradients`` is the per-sample gradient loop over the scalar
kernels (``evaluate_with_gradients``, ``calibrate_row``, ``row_gradients``,
``loss_slope``), run for each worker of a ``batches`` mapping on its rows of
the state's stacks; the batched ``loss_gradients`` must equal its stacks bit
for bit.  ``loss_slope`` is the scalar derivative of ``loss_value``, which
``training._loss_slopes`` must equal sample by sample.  ``plus_row`` and
``minus_row`` read one pair's two rows from a two-sided ``Dataset``.

``multilinear_weights_naive`` and ``multilinear_weights_naive_batch`` are
the product-form multilinear weights, one product per cell vertex; the
doubling pass of ``multilinear_weights`` and the batched kernel are tested
against them.  ``forward_backward_batch`` runs the batched kernel
(``interpolation._forward_backward``) on an (n, D) array of points and
returns point-major arrays the caller owns, which tests hold against
``evaluate_with_gradients`` row by row.

``reference_train`` is the sequential driver ``train`` replaced: each
round, every worker in turn trains a one-row state holding the consensus
on its shard through ``training.sgd_step``, one step after another, and
the consensus is the mean of the workers' vectors.  ``train``, whose
workers step in lockstep, must give the same model bytes and the same
``TrainingError``.  It reads ``sgd_step`` (and through it
``loss_gradients`` and ``project_update``) from the training module at
call time, so a test can run it through the other references.

``free_parameters`` reads one calibrator's free parameters (its inner
outputs or its values, then a learned missing coordinate), and
``with_free_parameters`` rebuilds a calibrator holding others: per
calibrator, what ``CalibratorSet.alpha`` and ``CalibratorSet.with_table``
do for a whole set through its parameter table.

``reference_calibrate_batch`` runs batch calibration (``locate``, then
``apply``) and lists each value's gradient from its location and the free
entries of the calibrator table; tests hold both against ``calibrate_row``,
``row_gradients`` and the calibrators' scalar methods.

``build_continuous_calibrator`` fits one continuous calibrator to one
column, as ``CalibratorSet.fit`` fits it in a set.

``reference_fit_knots`` is the one-column knot fit that ``fit_knots`` and
``CalibratorSet.fit`` replaced with one fit over blocks of columns: one
``np.quantile`` and one ``np.unique`` per column.  The block fit must give
the same knots byte for byte and raise the same messages.

``reference_locate`` is the per-feature locate that ``CalibratorSet.locate``
replaced with one pass over all features: one column at a time, its segment
from ``np.searchsorted`` over the interior knots.  Each feature's row of
the set's location, less the feature's table offset, must equal it byte for
byte and dtype for dtype.

``reference_max_infeasibility`` is the feasibility scan that
``max_infeasibility`` replaced with one over the walk's finite bounds: the
rows' worst slack, then each bound vector's finite entries by a mask.

``project_exact`` is the Euclidean projection onto a constraint set, by
Dykstra's alternating projections over the rows of ``_constraint_rows``
(pairwise rows, then finite lower bounds, then finite upper bounds, the
numbering of ``project_update``'s active rows); tests check the walk and
pool-adjacent-violators against it.

``reference_component_walk`` scans one constraint row at a time and keeps
the active rows' connected components in a dict; ``project_update`` must
equal it bit for bit.  The two Gram-Schmidt walks ``project_update`` used
before it averaged over components stay as agreement oracles:
``reference_project_update`` scans one row at a time, and
``reference_array_walk`` is the array scan in which every pass recomputes
slack, rate and norm and the repair scans the rows twice.  Neither repairs
the result of a zero step.

``reference_load_dataset`` and ``reference_load_pair_dataset`` are the
per-cell CSV loader: records checked one at a time, each column rebuilt from
the rows, each float stored on its own, and two-row pairs grouped as row
lists that are parsed once per side.  The columnar loader in ``data`` must
give the same arrays byte for byte, the same lists and the same
``DataError`` messages.

``reference_regularizer_terms`` enumerates each regularizer kind's terms in
a branch of its own, one slab of vertices per stencil.  The single builder
behind ``regularizer_terms`` must give the same index table and signs byte
for byte: the order of the terms fixes which terms sampling draws and the
order in which the exact gradient adds them.
"""

import csv
import math
from dataclasses import replace

import numpy as np

from monolattice import CalibratorSet, Loss, TrainingError, training
from monolattice.calibrators import (
    ContinuousCalibrator,
    DataError,
    FeatureKind,
    MissingPolicy,
    is_missing,
)
from monolattice.data import Dataset
from monolattice.interpolation import (
    ChunkBuffers,
    InterpolationKind,
    _doubled_offsets,
    _forward_backward,
    evaluate_with_gradients,
)
from monolattice.lattice import as_block
from monolattice.monotonicity import (
    _FEASIBLE_INPUT_TOL,
    _HIT_TOL,
    _robust_norm,
    max_infeasibility,
)
from monolattice.regularizers import RegularizerKind


def loss_slope(loss: Loss, y: float, z: float) -> float:
    """d loss / dz (a subgradient where the loss has a kink)."""
    if loss is Loss.SQUARED:
        return 2.0 * (z - y)
    sign = 2.0 * y - 1.0
    margin = sign * z
    if loss is Loss.LOGISTIC:
        if margin >= 0:
            return -sign * math.exp(-margin) / (1.0 + math.exp(-margin))
        return -sign / (1.0 + math.exp(margin))
    return -sign if margin < 1.0 else 0.0


def plus_row(data, i: int) -> list:
    return data.row(i)


def minus_row(data, i: int) -> list:
    return data.row(data.num_samples + i)


def multilinear_weights_naive(residual) -> list[float]:
    """Dense weights over all 2^D cell vertices, one product per vertex.

    Entry k weights the vertex whose offset bits are the binary digits of k
    (bit d = 1 means the far side of the cell in dimension d).
    """
    rs = [float(r) for r in residual]
    D = len(rs)
    if D > 24:
        raise ValueError(f"naive weights over {D} dimensions would need 2^{D} entries")
    for r in rs:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"residual {r} outside [0, 1]")
    out = []
    for k in range(1 << D):
        w = 1.0
        for d in range(D):
            w *= rs[d] if (k >> d) & 1 else 1.0 - rs[d]
        out.append(w)
    return out


def multilinear_weights_naive_batch(residuals: np.ndarray) -> np.ndarray:
    """Vectorized naive weights: (n, D) residuals -> (n, 2^D) weights."""
    rs = np.asarray(residuals, dtype=float)
    if rs.ndim != 2:
        raise ValueError(f"expected an (n, D) array, got {rs.shape}")
    n, D = rs.shape
    if D > 24:
        raise ValueError(f"naive weights over {D} dimensions would need 2^{D} entries")
    if np.any(rs < 0.0) or np.any(rs > 1.0):
        raise ValueError("residuals outside [0, 1]")
    bits = (np.arange(1 << D)[None, :] >> np.arange(D)[:, None]) & 1
    out = np.ones((n, 1 << D))
    for d in range(D):
        r = rs[:, d : d + 1]
        out *= np.where(bits[d][None, :] == 1, r, 1.0 - r)
    return out


def forward_backward_batch(
    theta, shape, points: np.ndarray,
    kind: InterpolationKind = InterpolationKind.MULTILINEAR,
    want_slopes: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Values, vertex indices, vertex weights and (optionally) d(value)/dx
    for an (n, D) array of points.

    Returns ``(values (n,), indices (n, k), weights (n, k), slopes (n, D) or
    None)``, where row i of ``indices``/``weights`` lists the vertices in the
    order the scalar kernel of ``kind`` lists them.  Every entry equals what
    :func:`evaluate_with_gradients` gives for row i, bit for bit.

    Both kernels record the vertex lists vertex-major, as (k, n) arrays,
    and return their transposed views.  The arrays belong to the caller:
    this call's chunk buffers are its own.  On a lattice of one cell every
    row of ``indices`` is 0 .. 2^D-1.
    """
    values, indices, weights, slopes = _forward_backward(
        theta, shape, as_block(shape, points), kind, want_slopes, ChunkBuffers()
    )
    if indices is None:  # one cell: the kernel reads theta without indices
        indices = np.tile(_doubled_offsets(shape), (len(values), 1))
    return values, indices, weights, None if slopes is None else slopes.T


def reference_loss_gradients(state, batches):
    g_theta = np.zeros_like(state.theta)
    g_alpha = np.zeros((len(state.theta), state.calibrators.num_free))
    for k, minibatch in batches.items():
        _reference_worker_gradients(state, k, minibatch, g_theta[k], g_alpha[k])
    return g_theta, g_alpha


def _reference_worker_gradients(state, k, minibatch, g_theta, g_alpha):
    """Worker k's loss gradient, the per-sample loop over its rows of the
    state's stacks, added into ``g_theta`` and ``g_alpha``."""
    theta = state.theta[k]
    want = state.trains_calibrators
    cs = state.calibrators.with_table(state.table[k])
    scale = 1.0 / len(minibatch)
    for i in minibatch:
        if state.data.sides == 2:
            y = 1.0
            sides = ((1.0, plus_row(state.data, i)), (-1.0, minus_row(state.data, i)))
        else:
            y = float(state.data.labels[i])
            sides = ((1.0, state.data.row(i)),)
        z = 0.0
        terms = []
        for sign, row in sides:
            x = cs.calibrate_row(row)
            v, sw, dfdx = evaluate_with_gradients(theta, state.shape, x, state.config.kind)
            z += sign * v
            terms.append((sign, sw, dfdx, cs.row_gradients(row)))
        slope = loss_slope(state.config.loss, y, z) * scale
        if slope == 0.0:
            continue
        for sign, sw, dfdx, entries in terms:
            s = sign * slope
            for j, w in zip(sw.indices, sw.weights):
                g_theta[j] += s * w
            if want:
                for d, per_feature in enumerate(entries):
                    if not per_feature or dfdx[d] == 0.0:
                        continue
                    for pos, partial in per_feature:
                        g_alpha[pos] += s * dfdx[d] * partial


def reference_train(data, specs, config):
    state = training.prepare_state(data, specs, config)
    n = data.num_samples
    if n == 0:
        raise ValueError("training data is empty")
    K = config.workers
    streams = np.random.SeedSequence(config.seed).spawn(K + 1)
    rngs = [np.random.default_rng(s) for s in streams[:K]]
    if K == 1:
        shards = [np.arange(n)]
    else:
        order = np.random.default_rng(streams[K]).permutation(n)
        shards = [order[k::K] for k in range(K)]
    base, extra = divmod(config.epochs, config.sync_rounds)
    done = 0  # epochs of the earlier rounds
    for r in range(config.sync_rounds):
        count = base + (1 if r < extra else 0)
        epochs = range(done + 1, done + count + 1)
        done += count
        # each worker trains a one-row state of its own, from the consensus
        workers = [
            replace(state, theta=state.theta[:1].copy(), table=state.table[:1].copy())
            for _ in range(K)
        ]
        for k, (worker, shard, rng) in enumerate(zip(workers, shards, rngs), 1):
            _reference_run_epochs(worker, shard, epochs, rng, f"round {r + 1}, worker {k}")
        state.theta[:] = np.mean([w.theta[0] for w in workers], axis=0)
        cs = state.calibrators
        if cs.num_free:
            cs.put_free(state.table, np.mean([cs.at_free(w.table[0]) for w in workers], axis=0))
    return training._model(state)


def _reference_run_epochs(state, shard, epochs, rng, where):
    n = len(shard)
    if n == 0:
        return
    k = state.config.minibatch_size
    full = k >= n  # one deterministic full pass per epoch
    steps = 1 if full else math.ceil(n / k)
    for epoch in epochs:
        for step in range(1, steps + 1):
            batch = shard if full else shard[rng.integers(0, n, size=k)]
            try:
                training.sgd_step(state, {0: batch}, [rng])
            except TrainingError as e:
                raise TrainingError(f"{e} ({where}, epoch {epoch}, step {step})") from None


def _inner(cal) -> slice:
    """The free span of ``cal.points``: the end outputs of a continuous
    calibrator are pinned."""
    return slice(1, -1) if isinstance(cal, ContinuousCalibrator) else slice(None)


def free_parameters(cal) -> np.ndarray:
    vals = list(cal.points[_inner(cal)])
    if cal.spec.missing is MissingPolicy.CALIBRATED:
        vals.append(cal.missing_value)
    return np.array(vals, dtype=float)


def with_free_parameters(cal, vals):
    vals = np.asarray(vals, dtype=float)
    points = cal.points.copy()
    k = len(points[_inner(cal)])
    points[_inner(cal)] = vals[:k]
    missing = float(vals[k]) if cal.spec.missing is MissingPolicy.CALIBRATED else cal.missing_value
    name = "outputs" if isinstance(cal, ContinuousCalibrator) else "values"
    return replace(cal, **{name: points, "missing_value": missing})


def reference_calibrate_batch(cs, columns):
    """``cs.calibrate_row`` and ``cs.row_gradients`` over whole columns.

    Returns coordinates (n, D) from ``locate`` then ``apply`` (which work
    feature-major), and per row and feature the (global alpha position,
    partial) pairs of apply's derivative: ``lo`` with 1 - t, then ``hi``
    with t where the value is inner and t != 0, each kept only where its
    table entry is free.
    """
    location = cs.locate(columns)
    x = cs.apply(location, cs.table()).T
    free = cs.at_free(np.arange(cs.table_size)).tolist()
    position = {entry: p for p, entry in enumerate(free)}
    grads = []
    for lo, hi, t, inner in zip(
        location.lo.T.tolist(), location.hi.T.tolist(), location.t.T.tolist(),
        location.inner.T.tolist(),
    ):
        row = []
        for d in range(len(lo)):
            entries = [(lo[d], 1.0 - t[d])]
            if inner[d] and t[d] != 0.0:
                entries.append((hi[d], t[d]))
            row.append([(position[e], g) for e, g in entries if e in position])
        grads.append(row)
    return x, grads


def build_continuous_calibrator(spec, column) -> ContinuousCalibrator:
    return CalibratorSet.fit([spec], [column]).calibrators[0]


def reference_fit_knots(column, keypoints, bounds=None):
    """The knots of one column: its bounds (its finite values' min and max
    where none are given) and the clipped, linearly interpolated quantiles
    between them, deduplicated by ``np.unique``."""
    if keypoints < 2:
        raise ValueError("need at least 2 keypoints")
    col = np.asarray(column, dtype=float)
    col = col[np.isfinite(col)]
    if col.size == 0:
        raise ValueError("no finite values to place knots on")
    lo, hi = bounds if bounds is not None else (float(col.min()), float(col.max()))
    if not lo < hi:
        raise ValueError(f"degenerate bounds [{lo}, {hi}]; column may be constant")
    q = np.arange(1, keypoints - 1) / (keypoints - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = np.quantile(col, q)
    # where the two order statistics are more than the float limit apart,
    # their weighted mean, which cannot overflow as their difference does
    gamma = q * (col.size - 1) % 1.0
    lerp = np.quantile(col, q, method="lower") * (1.0 - gamma) + np.quantile(col, q, method="higher") * gamma
    inner = np.where(np.isfinite(inner), inner, lerp)
    return np.unique(np.concatenate([[lo], np.clip(inner, lo, hi), [hi]]))


def reference_locate(cal, column):
    """The per-feature locate of a continuous calibrator ``cal``: per value,
    indices ``lo`` and ``hi`` into the calibrator's block of the parameter
    table (its outputs, then the missing slot), fraction ``t`` (0 unless
    inner) and the inner flag (strictly between the end knots), as
    ``(lo, hi, t, inner)``.  The segment is ``searchsorted`` over the
    interior knots; a value that is not a number raises ``calibrate``'s
    DataError, and so does NaN without a missing policy."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        x = column.astype(float, copy=False)
    else:
        try:
            x = np.array([np.nan if is_missing(v) else float(v) for v in column])
        except (TypeError, ValueError):
            for v in column:
                cal.calibrate(v)  # raises the DataError of the first bad value
            raise
    knots = cal.knots
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
    missing = np.isnan(x)
    if missing.any():
        cal.calibrate(np.nan)  # raises without a missing policy
        lo[missing] = last + 1
    return lo, lo + inner, t, inner


def reference_max_infeasibility(theta, constraints) -> float:
    th = np.asarray(theta, dtype=float)
    if not np.isfinite(th).all():
        return math.inf
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


def _constraint_rows(constraints):
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



def project_exact(
    theta,
    constraints,
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


def reference_project_update(theta, step, constraints, *, return_active=False):
    th = np.array(theta, dtype=float)
    st = np.array(step, dtype=float)
    if max_infeasibility(th, constraints) > _FEASIBLE_INPUT_TOL:
        raise ValueError("theta violates the constraints it is supposed to satisfy")
    rows = _constraint_rows(constraints)
    active = []
    basis = []
    remaining = st
    step_scale = _robust_norm(st)
    if step_scale == 0.0 or not rows:
        th += st
        return (th, active) if return_active else th

    def slack_and_rate(row, vec):
        ids, coeffs, offset = row
        s = -offset
        rate = 0.0
        for j, c in zip(ids, coeffs):
            s += c * th[j]
            rate += c * vec[j]
        return s, rate

    for _ in range(len(rows) + 2):
        direction = remaining.copy()
        for q in basis:
            direction -= q.dot(direction) * q
        if _robust_norm(direction) <= 1e-13 * step_scale:
            break
        t_min = 1.0
        hit_ts = {}
        for r, row in enumerate(rows):
            if r in active:
                continue
            s, rate = slack_and_rate(row, direction)
            if rate >= 0.0:
                continue
            with np.errstate(over="ignore"):
                t = max(s, 0.0) / -rate
            if t <= 1.0:
                hit_ts[r] = t
                if t < t_min:
                    t_min = t
        if not hit_ts:
            th += direction
            remaining = np.zeros_like(remaining)
            break
        th += t_min * direction
        remaining = (1.0 - t_min) * direction
        for r, t in hit_ts.items():
            if t <= t_min + _HIT_TOL:
                ids, coeffs, _ = rows[r]
                normal = np.zeros_like(th)
                for j, c in zip(ids, coeffs):
                    normal[j] = c
                for q in basis:
                    normal -= q.dot(normal) * q
                norm = np.linalg.norm(normal)
                active.append(r)
                if norm > 1e-12:
                    basis.append(normal / norm)
    reference_remove_roundoff(th, constraints)
    return (th, active) if return_active else th


def reference_remove_roundoff(th, constraints):
    """Clip to the lower bounds, raise along the rows, clip to the upper
    bounds, lower against the rows; both row scans always run."""
    lo, hi = constraints.lo, constraints.hi
    if constraints.lower is not None:
        np.maximum(th, constraints.lower, out=th)
    while np.any(th[hi] < th[lo]):
        np.maximum.at(th, hi, th[lo])
    if constraints.upper is not None:
        np.minimum(th, constraints.upper, out=th)
    while np.any(th[hi] < th[lo]):
        np.minimum.at(th, lo, th[hi])


def _finite_bounds(bounds):
    if bounds is None:
        return np.empty(0, dtype=np.int64), np.empty(0)
    positions = np.nonzero(np.isfinite(bounds))[0]
    return positions, bounds[positions]


def reference_array_walk(theta, step, constraints, *, return_active=False):
    th = np.array(theta, dtype=float)
    st = np.array(step, dtype=float)
    if max_infeasibility(th, constraints) > _FEASIBLE_INPUT_TOL:
        raise ValueError("theta violates the constraints it is supposed to satisfy")
    lo, hi = constraints.lo, constraints.hi
    lower_j, lower = _finite_bounds(constraints.lower)
    upper_j, upper = _finite_bounds(constraints.upper)
    num_rows = len(lo) + len(lower_j) + len(upper_j)
    active = []
    inactive = np.ones(num_rows, dtype=bool)
    basis = []
    remaining = st
    step_scale = _robust_norm(st)
    if step_scale == 0.0 or num_rows == 0:
        th += st
        return (th, active) if return_active else th

    def row_normal(r):
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
        s = slack[candidates]
        with np.errstate(over="ignore"):
            t = np.where(s < 0.0, 0.0, s) / -rate[candidates]
        hits = candidates[t <= 1.0]
        t = t[t <= 1.0]
        if len(hits) == 0:
            th += direction
            remaining = np.zeros_like(remaining)
            break
        t_min = float(t[np.argmin(t)])
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
    reference_remove_roundoff(th, constraints)
    return (th, active) if return_active else th


def reference_component_walk(theta, step, constraints, *, return_active=False):
    """The component-averaging walk, one row at a time.  Bounds tie their
    entry to a ground node P held at zero; each component's sum is formed
    in ascending node order from 0.0, and its mean is the next direction."""
    th = np.array(theta, dtype=float)
    st = np.array(step, dtype=float)
    if max_infeasibility(th, constraints) > _FEASIBLE_INPUT_TOL:
        raise ValueError("theta violates the constraints it is supposed to satisfy")
    rows = _constraint_rows(constraints)
    active = []
    ground = len(th)
    label = {node: node for node in range(ground + 1)}
    direction = st
    step_scale = _robust_norm(st)
    if step_scale == 0.0 or not rows:
        th += st
        reference_remove_roundoff(th, constraints)
        return (th, active) if return_active else th

    for _ in range(len(rows) + 2):
        if _robust_norm(direction) <= 1e-13 * step_scale:
            break
        t_min = 1.0
        hit_ts = {}
        for r, (ids, coeffs, offset) in enumerate(rows):
            s = -offset
            rate = 0.0
            for j, c in zip(ids, coeffs):
                s += c * th[j]
                rate += c * direction[j]
            if rate >= 0.0:
                continue
            with np.errstate(over="ignore"):
                t = max(s, 0.0) / -rate
            if t <= 1.0:
                hit_ts[r] = t
                if t < t_min:
                    t_min = t
        if not hit_ts:
            th += direction
            break
        th += t_min * direction
        for r, t in hit_ts.items():
            if t <= t_min + _HIT_TOL:
                ids = rows[r][0]
                a, b = ids if len(ids) == 2 else (ids[0], ground)
                old, new = label[b], label[a]
                for node in label:
                    if label[node] == old:
                        label[node] = new
                active.append(r)
        sums, counts = {}, {}
        for node in range(ground):
            value = float((1.0 - t_min) * direction[node])
            sums[label[node]] = sums.get(label[node], 0.0) + value
            counts[label[node]] = counts.get(label[node], 0) + 1
        sums[label[ground]] = 0.0
        direction = np.array([sums[label[node]] / counts[label[node]] for node in range(ground)])
    reference_remove_roundoff(th, constraints)
    return (th, active) if return_active else th


def _reference_read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{lineno}: {len(row)} cells, header has {len(header)}"
                )
            rows.append(row)
    return [h.strip() for h in header], rows


def _reference_parse_column(spec, cells, missing_token, where):
    if spec.kind is FeatureKind.CONTINUOUS:
        out = np.empty(len(cells))
        for i, cell in enumerate(cells):
            if cell == missing_token:
                out[i] = np.nan
            else:
                try:
                    out[i] = float(cell)
                except ValueError:
                    raise DataError(
                        f"{where}: feature {spec.name}: {cell!r} is not a number"
                    ) from None
        return out
    return [None if cell == missing_token else cell for cell in cells]


def reference_load_dataset(
    path, specs, label_column=None, missing_token="", require_labels=False
):
    header, rows = _reference_read_rows(path)
    index = {name: i for i, name in enumerate(header)}
    columns = []
    for spec in specs:
        if spec.name not in index:
            raise DataError(f"{path}: no column for feature {spec.name!r}")
        cells = [r[index[spec.name]] for r in rows]
        columns.append(_reference_parse_column(spec, cells, missing_token, str(path)))
    labels = None
    if label_column is not None and label_column in index:
        raw = [r[index[label_column]] for r in rows]
        try:
            labels = np.array([float(v) for v in raw])
        except ValueError:
            raise DataError(f"{path}: label column {label_column!r} is not numeric") from None
    if require_labels and labels is None:
        raise DataError(f"{path}: label column {label_column!r} not found")
    return Dataset(columns, labels)


def reference_load_pair_dataset(
    path, specs, pair_id_column=None, label_column=None, missing_token=""
):
    header, rows = _reference_read_rows(path)
    index = {name: i for i, name in enumerate(header)}
    where = str(path)

    if pair_id_column is None:
        plus_cols, minus_cols = [], []
        for spec in specs:
            for suffix, cols in (("+", plus_cols), ("-", minus_cols)):
                name = spec.name + suffix
                if name not in index:
                    raise DataError(f"{path}: no column {name!r} for feature {spec.name!r}")
                cols.append(
                    _reference_parse_column(
                        spec, [r[index[name]] for r in rows], missing_token, where
                    )
                )
        return Dataset.pairs(plus_cols, minus_cols)

    if pair_id_column not in index:
        raise DataError(f"{path}: pair-id column {pair_id_column!r} not found")
    if label_column is None or label_column not in index:
        raise DataError(
            f"{path}: two-row pair data needs a label column marking the preferred row"
        )
    groups = {}
    order = []
    for r in rows:
        key = r[index[pair_id_column]]
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    plus_rows, minus_rows = [], []
    for key in order:
        group = groups[key]
        if len(group) != 2:
            raise DataError(f"{path}: pair {key!r} has {len(group)} rows, expected 2")
        labels = [g[index[label_column]] for g in group]
        if sorted(labels) != ["0", "1"]:
            raise DataError(
                f"{path}: pair {key!r} labels {labels} must be exactly one 1 and one 0"
            )
        winner = group[0] if labels[0] == "1" else group[1]
        loser = group[1] if labels[0] == "1" else group[0]
        plus_rows.append(winner)
        minus_rows.append(loser)
    plus_cols, minus_cols = [], []
    for spec in specs:
        if spec.name not in index:
            raise DataError(f"{path}: no column for feature {spec.name!r}")
        col = index[spec.name]
        plus_cols.append(
            _reference_parse_column(spec, [r[col] for r in plus_rows], missing_token, where)
        )
        minus_cols.append(
            _reference_parse_column(spec, [r[col] for r in minus_rows], missing_token, where)
        )
    return Dataset.pairs(plus_cols, minus_cols)


def _reference_axis_pairs(m, missing):
    # a missing vertex at the top is adjacent to both ends of the real span
    if not missing:
        return [(j, j + 1) for j in range(m - 1)]
    pairs = [(j, j + 1) for j in range(m - 2)]
    pairs.append((0, m - 1))
    if m - 2 != 0:
        pairs.append((m - 2, m - 1))
    return pairs


def _reference_slab_indices(shape, fixed):
    # flat indices of all vertices whose coordinates in `fixed` dims are
    # pinned, the last free dimension fastest
    out = np.zeros(1, dtype=np.int64)
    for d in range(shape.ndim):
        if d in fixed:
            continue
        steps = np.arange(shape.sizes[d], dtype=np.int64) * shape.strides[d]
        out = (out[:, None] + steps[None, :]).ravel()
    return out + sum(c * shape.strides[d] for d, c in fixed.items())


def reference_regularizer_terms(shape, kind, missing_dims=frozenset()):
    """Index table and signs of every term of ``kind``, enumerated kind by
    kind with one slab of vertices per stencil."""
    kind = RegularizerKind(kind)
    rows = []
    if kind is RegularizerKind.LAPLACIAN:
        signs = np.array([1.0, -1.0])
        for d in range(shape.ndim):
            sd = shape.strides[d]
            for ja, jb in _reference_axis_pairs(shape.sizes[d], d in missing_dims):
                slab = _reference_slab_indices(shape, {d: 0})
                rows.append(np.stack([slab + ja * sd, slab + jb * sd], axis=1))
    elif kind is RegularizerKind.HESSIAN:
        signs = np.array([1.0, -2.0, 1.0])
        for d in range(shape.ndim):
            sd = shape.strides[d]
            top = shape.sizes[d] - (1 if d in missing_dims else 0)
            for j in range(1, top - 1):
                slab = _reference_slab_indices(shape, {d: 0})
                rows.append(
                    np.stack([slab + (j - 1) * sd, slab + j * sd, slab + (j + 1) * sd], axis=1)
                )
    else:
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        for d in range(shape.ndim):
            for e in range(d + 1, shape.ndim):
                sd, se = shape.strides[d], shape.strides[e]
                for ja, jb in _reference_axis_pairs(shape.sizes[d], d in missing_dims):
                    for ka, kb in _reference_axis_pairs(shape.sizes[e], e in missing_dims):
                        slab = _reference_slab_indices(shape, {d: 0, e: 0})
                        r = slab + ja * sd + ka * se
                        s = slab + jb * sd + ka * se
                        t = slab + ja * sd + kb * se
                        u = slab + jb * sd + kb * se
                        rows.append(np.stack([r, s, t, u], axis=1))
    if not rows:
        return np.empty((0, len(signs)), dtype=np.int64), signs
    return np.concatenate(rows, axis=0), signs
