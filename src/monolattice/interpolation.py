"""Interpolation kernels over lattice cells.

Three ways to turn a cell location into a convex combination of vertex
parameters:

* ``multilinear_weights_naive`` - direct product form: the weight on cell
  vertex v is prod_d residual[d]^v[d] * (1-residual[d])^(1-v[d]), evaluated
  one vertex at a time.  O(D * 2^D).  Kept as the correctness oracle and as
  the baseline in benchmarks.
* ``multilinear_weights`` - same weights via a doubling pass: process one
  dimension at a time, splitting every partial weight into its (1-r) and r
  halves.  O(2^D).
* ``simplex_weights`` - locally linear instead of multilinear: sort the
  residual, walk the chain of vertices from the cell base to its far corner
  in sorted order, and weight each chain vertex by a difference of
  consecutive sorted residuals.  O(D log D), touches D+1 vertices.

All three produce nonnegative weights that sum to 1 and average the residual
back exactly (linear precision), so piecing cells together yields a
continuous surface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .lattice import CellLocation, LatticeShape, locate_cell, vertex_index


class InterpolationKind(str, enum.Enum):
    MULTILINEAR_NAIVE = "multilinear-naive"
    MULTILINEAR = "multilinear"
    SIMPLEX = "simplex"


@dataclass
class SparseWeights:
    """Parallel lists of flat vertex indices and their interpolation weights."""

    indices: list[int]
    weights: list[float]


# --------------------------------------------------------------------------
# naive multilinear (oracle / baseline)


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


def _cell_vertex_indices(shape: LatticeShape, base) -> list[int]:
    # flat indices of all 2^D cell vertices, in the same bit order as the
    # naive weight vector
    base_idx = vertex_index(shape, base)
    indices = [base_idx]
    for d in range(shape.ndim):
        sd = shape.strides[d]
        indices += [i + sd for i in indices]
    return indices


# --------------------------------------------------------------------------
# fast multilinear


def multilinear_weights(shape: LatticeShape, location: CellLocation) -> SparseWeights:
    """Multilinear weights via the doubling pass.

    After processing dimension d the lists hold the 2^(d+1) partial products
    over the first d+1 dimensions; each pass splits every entry into its
    near-side (1-r) and far-side (r) halves and offsets the far copies by the
    dimension stride.
    """
    indices = [vertex_index(shape, location.base)]
    weights = [1.0]
    for d in range(shape.ndim):
        r = location.residual[d]
        sd = shape.strides[d]
        indices += [i + sd for i in indices]
        far = [w * r for w in weights]
        weights = [w - f for w, f in zip(weights, far)] + far
    return SparseWeights(indices, weights)


# --------------------------------------------------------------------------
# simplex


def simplex_weights(shape: LatticeShape, location: CellLocation) -> SparseWeights:
    """Weights of the D+1 vertices of the simplex containing the residual.

    Dimensions are visited in order of decreasing residual (ties broken by
    ascending dimension index, which only reorders zero-width steps); the
    chain starts at the cell base and flips one dimension per step.  Chain
    vertex j gets weight r_(j) - r_(j+1) where r_(j) are the sorted residuals
    padded with 1 in front and 0 behind.
    """
    rs = location.residual
    order = sorted(range(shape.ndim), key=lambda d: (-rs[d], d))
    idx = vertex_index(shape, location.base)
    indices = [idx]
    weights = []
    prev = 1.0
    for d in order:
        r = rs[d]
        weights.append(prev - r)
        idx += shape.strides[d]
        indices.append(idx)
        prev = r
    weights.append(prev)
    return SparseWeights(indices, weights)


# --------------------------------------------------------------------------
# evaluation


def _naive_sparse(shape: LatticeShape, location: CellLocation) -> SparseWeights:
    return SparseWeights(
        _cell_vertex_indices(shape, location.base),
        multilinear_weights_naive(location.residual),
    )


_WEIGHT_FNS = {
    InterpolationKind.MULTILINEAR_NAIVE: _naive_sparse,
    InterpolationKind.MULTILINEAR: multilinear_weights,
    InterpolationKind.SIMPLEX: simplex_weights,
}


def interpolation_weights(
    shape: LatticeShape, location: CellLocation, kind: InterpolationKind
) -> SparseWeights:
    return _WEIGHT_FNS[InterpolationKind(kind)](shape, location)


def evaluate(
    theta, shape: LatticeShape, x, kind: InterpolationKind = InterpolationKind.MULTILINEAR
) -> float:
    """Interpolated value at ``x`` (in lattice coordinates)."""
    sw = interpolation_weights(shape, locate_cell(shape, x), kind)
    total = 0.0
    for i, w in zip(sw.indices, sw.weights):
        total += theta[i] * w
    return total


def evaluate_batch(
    theta, shape: LatticeShape, points: np.ndarray,
    kind: InterpolationKind = InterpolationKind.MULTILINEAR,
) -> np.ndarray:
    """Row-wise :func:`evaluate` over an (n, D) array of points."""
    pts = np.asarray(points, dtype=float)
    th = theta if isinstance(theta, list) else np.asarray(theta, dtype=float).tolist()
    return np.array([evaluate(th, shape, row, kind) for row in pts])


# --------------------------------------------------------------------------
# gradients w.r.t. the point


def evaluate_with_gradients(
    theta, shape: LatticeShape, x, kind: InterpolationKind = InterpolationKind.MULTILINEAR
) -> tuple[float, SparseWeights, list[float]]:
    """Value, vertex weights, and d(value)/dx for every dimension.

    The weights are the gradient w.r.t. the parameters; the per-dimension
    slopes feed the chain rule when the coordinates themselves are produced
    by trainable calibrators.  At simplex boundaries and cell faces the
    surface is only piecewise differentiable; the slope of the containing
    piece is returned, which is a valid subgradient during training.
    """
    location = locate_cell(shape, x)
    kind = InterpolationKind(kind)
    sw = _WEIGHT_FNS[kind](shape, location)
    value = 0.0
    for i, w in zip(sw.indices, sw.weights):
        value += theta[i] * w
    grad = [0.0] * shape.ndim
    if kind is InterpolationKind.SIMPLEX:
        # consecutive chain vertices differ by one step in one dimension
        dim_of = {s: d for d, s in enumerate(shape.strides)}
        for a, b in zip(sw.indices, sw.indices[1:]):
            grad[dim_of[b - a]] = theta[b] - theta[a]
        return value, sw, grad

    # Collapse the cell one dimension at a time, highest bit first.  Summing
    # the two halves of the weights leaves the weights over the lower
    # dimensions; the slope in d pairs them with the edge differences across
    # d of the vertex values already interpolated over the higher dimensions.
    vals = [theta[i] for i in sw.indices]
    ws = sw.weights
    for d in reversed(range(shape.ndim)):
        half = 1 << d
        r = location.residual[d]
        ws = [a + b for a, b in zip(ws[:half], ws[half:])]
        diffs = [b - a for a, b in zip(vals[:half], vals[half:])]
        slope = 0.0
        for w, diff in zip(ws, diffs):
            slope += w * diff
        grad[d] = slope
        vals = [a + r * diff for a, diff in zip(vals[:half], diffs)]
    return value, sw, grad
