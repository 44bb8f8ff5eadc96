"""Interpolation kernels over lattice cells.

Two kinds of interpolation turn a cell location into a convex combination
of vertex parameters:

* ``multilinear_weights`` - the product-form weights via a doubling pass:
  process one dimension at a time, splitting every partial weight into its
  (1-r) and r halves.  O(2^D).  ``multilinear_weights_naive`` evaluates the
  product one vertex at a time, O(D * 2^D); it is not a kind but the oracle
  the doubling pass is tested against.
* ``simplex_weights`` - locally linear instead of multilinear: sort the
  residual, walk the chain of vertices from the cell base to its far corner
  in sorted order, and weight each chain vertex by a difference of
  consecutive sorted residuals.  O(D log D), touches D+1 vertices.

Both produce nonnegative weights that sum to 1 and average the residual back
exactly (linear precision), so piecing cells together yields a continuous
surface.

The scalar kernels above work on one point.  ``forward_backward_batch`` runs
the same arithmetic on an (n, D) array of points in numpy, one column
operation per scalar step, and sums every vertex product left to right as
the scalar loops do, so its values, weights and slopes equal the scalar
ones bit for bit.  Training, ``evaluate_batch`` and batch prediction go
through it; the scalar kernels serve single-row prediction and act as its
oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .lattice import CellLocation, LatticeShape, locate_cell, locate_cells, vertex_index


class InterpolationKind(str, enum.Enum):
    MULTILINEAR = "multilinear"
    SIMPLEX = "simplex"


@dataclass
class SparseWeights:
    """Parallel lists of flat vertex indices and their interpolation weights."""

    indices: list[int]
    weights: list[float]


# --------------------------------------------------------------------------
# naive multilinear (oracle)


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


_WEIGHT_FNS = {
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
    """:func:`evaluate` over an (n, D) array of points, bit for bit.

    Runs in chunks of about ``CHUNK_ENTRIES`` vertex weights, so the n x
    (cell size) temporaries stay small whatever n is.
    """
    pts = np.asarray(points, dtype=float)
    th = np.asarray(theta, dtype=float)
    step = chunk_rows(shape, kind)
    out = np.empty(len(pts))
    for start in range(0, len(pts), step):
        out[start : start + step] = forward_backward_batch(
            th, shape, pts[start : start + step], kind
        )[0]
    return out


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


# --------------------------------------------------------------------------
# batched forward/backward

CHUNK_ENTRIES = 1 << 15  # vertex weights per chunk of rows


def chunk_rows(shape: LatticeShape, kind: InterpolationKind) -> int:
    """Rows per chunk that keep a chunk near ``CHUNK_ENTRIES`` weights; a
    point touches D+1 vertices for simplex, 2^D otherwise."""
    if InterpolationKind(kind) is InterpolationKind.SIMPLEX:
        return max(1, CHUNK_ENTRIES // (shape.ndim + 1))
    return max(1, CHUNK_ENTRIES >> shape.ndim)


def _row_sums(a: np.ndarray) -> np.ndarray:
    # Left-to-right sum of each row from 0.0, as the scalar loops add: cumsum
    # accumulates sequentially, and adding 0.0 turns a -0.0 total into the
    # +0.0 that a sum started at 0.0 gives.  Overwrites ``a``.
    return np.cumsum(a, axis=1, out=a)[:, -1] + 0.0


def _doubled_offsets(shape: LatticeShape) -> np.ndarray:
    # flat offsets of the 2^D cell vertices from the base, in the order of
    # the doubling pass (bit d set = far side in dimension d)
    offsets = np.zeros(1, dtype=np.int64)
    for sd in shape.strides:
        offsets = np.concatenate([offsets, offsets + sd])
    return offsets


def _doubling_weights(residual: np.ndarray) -> np.ndarray:
    # multilinear_weights' doubling pass, one column per list entry
    n, D = residual.shape
    w = np.empty((n, 1 << D))
    w[:, 0] = 1.0
    for d in range(D):
        half = 1 << d
        np.multiply(w[:, :half], residual[:, d : d + 1], out=w[:, half : 2 * half])
        np.subtract(w[:, :half], w[:, half : 2 * half], out=w[:, :half])
    return w


def _multilinear_slopes(vals: np.ndarray, ws: np.ndarray, residual: np.ndarray) -> np.ndarray:
    # evaluate_with_gradients' highest-bit-first collapse, one column per entry
    n, D = residual.shape
    slopes = np.empty((n, D))
    for d in reversed(range(D)):
        half = 1 << d
        ws = ws[:, :half] + ws[:, half:]
        diffs = vals[:, half:] - vals[:, :half]
        slopes[:, d] = _row_sums(ws * diffs)
        vals = vals[:, :half] + residual[:, d : d + 1] * diffs
    return slopes


def forward_backward_batch(
    theta, shape: LatticeShape, points: np.ndarray,
    kind: InterpolationKind = InterpolationKind.MULTILINEAR,
    want_slopes: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Values, vertex indices, vertex weights and (optionally) d(value)/dx
    for an (n, D) array of points.

    Returns ``(values (n,), indices (n, k), weights (n, k), slopes (n, D) or
    None)``, where row i of ``indices``/``weights`` lists the vertices in the
    order the scalar kernel of ``kind`` lists them.  Every entry equals what
    :func:`evaluate_with_gradients` gives for row i, bit for bit.
    """
    kind = InterpolationKind(kind)
    th = np.asarray(theta, dtype=float)
    base, residual = locate_cells(shape, points)
    strides = np.asarray(shape.strides, dtype=np.int64)
    base_idx = base @ strides
    if kind is InterpolationKind.SIMPLEX:
        # stable sort: ties keep ascending dimension order, as simplex_weights
        order = np.argsort(-residual, axis=1, kind="stable")
        r = np.take_along_axis(residual, order, axis=1)
        weights = np.concatenate([1.0 - r[:, :1], r[:, :-1] - r[:, 1:], r[:, -1:]], axis=1)
        indices = np.concatenate(
            [base_idx[:, None], base_idx[:, None] + np.cumsum(strides[order], axis=1)], axis=1
        )
    else:
        weights = _doubling_weights(residual)
        indices = base_idx[:, None] + _doubled_offsets(shape)[None, :]
    vals = th[indices]
    values = _row_sums(vals * weights)
    if not want_slopes:
        return values, indices, weights, None
    if kind is InterpolationKind.SIMPLEX:
        # consecutive chain vertices differ by one step in dimension order[j]
        slopes = np.empty(residual.shape)
        np.put_along_axis(slopes, order, vals[:, 1:] - vals[:, :-1], axis=1)
    else:
        slopes = _multilinear_slopes(vals, weights, residual)
    return values, indices, weights, slopes
