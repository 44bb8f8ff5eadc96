"""Scalar references for the batched training step.

``reference_loss_gradients`` is the per-sample gradient loop over the scalar
kernels (``evaluate_with_gradients``, ``calibrate_row``, ``row_gradients``)
and ``reference_project_update`` is the walk that scans one constraint row
at a time.  The batched ``loss_gradients`` and the array-scan
``project_update`` must equal them bit for bit.
"""

import numpy as np

from monolattice import PairDataset, evaluate_with_gradients, loss_slope
from monolattice.monotonicity import (
    _FEASIBLE_INPUT_TOL,
    _HIT_TOL,
    _constraint_rows,
    _remove_roundoff,
    _robust_norm,
    max_infeasibility,
)


def reference_loss_gradients(state, minibatch):
    g_theta = np.zeros_like(state.theta)
    g_alpha = np.zeros(state.calibrators.num_free)
    want = state.trains_calibrators
    cs = state.calibrators
    scale = 1.0 / len(minibatch)
    for i in minibatch:
        if isinstance(state.data, PairDataset):
            y = 1.0
            sides = ((1.0, state.data.plus_row(i)), (-1.0, state.data.minus_row(i)))
        else:
            y = float(state.data.labels[i])
            sides = ((1.0, state.data.row(i)),)
        z = 0.0
        terms = []
        for sign, row in sides:
            x = cs.calibrate_row(row)
            v, sw, dfdx = evaluate_with_gradients(state.theta, state.shape, x, state.config.kind)
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
    return g_theta, g_alpha


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
    _remove_roundoff(th, constraints)
    return (th, active) if return_active else th
