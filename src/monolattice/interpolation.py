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
the same arithmetic on an (n, D) array of points in numpy, one array
operation per scalar step, and sums every vertex product in list order as
the scalar loops do, so its values, weights and slopes equal the scalar
ones bit for bit.  Training, ``evaluate_batch`` and batch prediction go
through it; the scalar kernels act as its oracle.  Multilinear chunks are
stored vertex-major, as C-contiguous (2^D, n) arrays, so each doubling,
collapse and sum step works on whole rows; numpy's ``add.reduce`` over the
rows then adds them top to bottom.  A one-column chunk is the exception:
numpy would sum its single column pairwise, so it goes through ``cumsum``.

A simplex chunk is one chain walk.  Each point's residuals are sorted once
(a stable argsort, so ties keep ascending dimension order); the sorted
residuals and each step's stride are gathered by flat position (point * D
plus dimension).  Then all n chains take one step per pass: the step's weight
is the previous sorted residual minus this one, theta is gathered at the
vertex with ``take`` (which raises ``IndexError`` past the end of theta),
the product joins a running total that starts at +0.0, and the vertex
index advances by the step's stride.  The vertex lists (vertex-major, as
the multilinear kernel's) and the vertex values behind the slopes are kept
only when the caller asks; the slopes are written by the same flat
positions.  ``evaluate_batch`` asks for values only, so the index advances
in place and nothing (D+1, n)-shaped is allocated.  CHANGES.md records
its speed against the earlier kernel, which built the (n, D+1) vertex
lists with ``take_along_axis``, ``concatenate`` and ``cumsum``.

A multilinear chunk's (2^D, n) arrays (weights, vertex indices, gathered
values, and a scratch array for the products and the slope collapse) come
from a :class:`ChunkBuffers` set and are reused from chunk to chunk: one
set lives for one ``evaluate_batch`` call, and one for a whole training run
(held on the run's state).  At D = 10 each array is 256 KB, above glibc's
initial mmap threshold, so arrays made afresh for every chunk would be
mapped, page-faulted and unmapped chunk after chunk, and the kernel would
run at half speed unless some earlier, larger free had raised the
threshold.  ``forward_backward_batch`` itself draws a fresh set per call,
so the arrays it returns are the caller's.  The vertex values are gathered
with ``take(mode="clip")`` into their buffer, which writes there directly
only because nothing can be clipped: the cells' far corners are checked
against ``theta`` first, so a short ``theta`` still raises ``IndexError``.

A lattice whose sizes are all 2 has one cell: every point's base index is
0 and the doubled offsets are 0 .. 2^D-1, so a point's vertex values are
theta's first 2^D entries in order.  ``_forward_backward`` sees that from
the shape and kind alone (:func:`one_cell`) and then builds no vertex
indices and gathers nothing: the products are the doubling weights times
theta as one column, and the slope collapse starts from a broadcast copy
of that column.  It returns no indices; training, which reads a stack of
worker parameter vectors, takes each point's column from its worker's
row.  ``evaluate_batch``, which needs neither weights nor slopes, forms
the products in the weights' place, so a chunk keeps one (2^D, n) array
where the general path keeps four, and takes four times the rows
(``one_cell_rows``, 128 at D = 10) in the same bytes; CHANGES.md records
its speed against the general path.

The batched kernel and the row plan below build multilinear weights with
one doubling helper, ``_doubling_weights``, which fills an array the
caller passes: a (2^D, n) chunk from the rows of the (D, n) residuals, or
a row's (2^D,) array from its D residuals as floats.

Single-row prediction goes through a :class:`RowPlan`, built once per
theta and shape.  It does the scalar kernels' float operations in their
order, so it equals them bit for bit, without their generic steps: it
locates the cell and its flat base index in one loop and keeps no
``CellLocation`` or ``SparseWeights``.  On a lattice of one cell the base
is 0 and the residual is the point itself, so locating is the range check
alone.  Small cells run on Python lists, which beat numpy's per-call
overhead there.  From ``ROW_NUMPY_MIN_VERTICES`` cell vertices on, the
multilinear weights come from ``_doubling_weights`` into an array made
afresh for every call, so threads may share a plan, and are multiplied
in place by the vertex values: a gather at the cell's offsets, or, on a
lattice of one cell, a view of theta's first 2^D entries made with the
plan.  The scalar kernels stay as the
plan's oracle and as what ``bench_interpolation`` times; CHANGES.md
records the row plan's speed.
"""

from __future__ import annotations

import enum
import functools
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

    Runs in chunks of about ``CHUNK_ENTRIES`` vertex weights
    (:func:`chunk_rows`), so the n x (cell size) temporaries stay small
    whatever n is.  A multilinear lattice of one cell (every size 2) reads
    theta as one column, with no vertex indices or gather, in chunks of
    :func:`one_cell_rows`; the path follows from the shape and kind alone.
    """
    pts = np.asarray(points, dtype=float)
    th = np.asarray(theta, dtype=float)
    step = one_cell_rows(shape) if one_cell(shape, kind) else chunk_rows(shape, kind)
    buffers = ChunkBuffers()  # one set for all chunks of this call
    out = np.empty(len(pts))
    for start in range(0, len(pts), step):
        chunk = pts[start : start + step]
        out[start : start + step] = _forward_backward(
            th, shape, chunk, kind, False, buffers, vertices=False
        )[0]
    return out


# Multilinear cells with at least this many vertices (2^7: D >= 7) are
# faster through the row plan's numpy pass than through its lists; at 2^6
# the two tie.
ROW_NUMPY_MIN_VERTICES = 1 << 7


class RowPlan:
    """:func:`evaluate` at one point at a time for a fixed theta and shape,
    bit for bit.

    Holds the shape's tops, strides and doubled offsets, and theta (a
    float64 array the caller does not change) with its list form, made on
    first use, and on a lattice of one cell the view of its first 2^D
    entries.  A call locates the cell and its flat base index in one loop,
    with :func:`locate_cell`'s checks and messages; on a lattice of one cell
    that is the range check alone.  Multilinear cells then run
    :func:`multilinear_weights`' doubling pass on lists, or, from
    ``ROW_NUMPY_MIN_VERTICES`` vertices on, :func:`_doubling_weights` into
    a fresh array that takes the products in place.  Simplex cells walk
    :func:`simplex_weights`' sorted chain.  Each sum runs left to right
    from 0.0, as :func:`evaluate`'s loop adds.  Apart from making the list
    form on first use, a call writes nothing the plan holds, so threads may
    share a plan.
    """

    def __init__(self, theta, shape: LatticeShape) -> None:
        self._theta = np.asarray(theta, dtype=float)
        self._values: list[float] | None = None
        self._tops = [m - 1 for m in shape.sizes]
        self._strides = list(shape.strides)
        self._offsets = _doubled_offsets(shape)
        self._numpy = len(self._offsets) >= ROW_NUMPY_MIN_VERTICES
        self._offset_list = None if self._numpy else self._offsets.tolist()
        self._one_cell = set(shape.sizes) == {2}
        # the one cell's vertex values; a theta too short for them keeps the
        # gather, which raises IndexError
        k = len(self._offsets)
        self._cell = self._theta[:k] if self._one_cell and len(self._theta) >= k else None

    def evaluate(self, x, kind: InterpolationKind = InterpolationKind.MULTILINEAR) -> float:
        """Interpolated value at ``x`` (in lattice coordinates)."""
        base, res = self._locate(x)
        if kind is not InterpolationKind.MULTILINEAR and kind is not InterpolationKind.SIMPLEX:
            kind = InterpolationKind(kind)
        if kind is InterpolationKind.SIMPLEX:
            return self._simplex(base, res)
        if self._numpy:
            return self._multilinear_array(base, res)
        return self._multilinear_list(base, res)

    def _locate(self, x) -> tuple[int, list[float]]:
        # locate_cell and then vertex_index of its base, in one loop
        if len(x) != len(self._tops):
            raise ValueError(f"expected {len(self._tops)} coordinates, got {len(x)}")
        if self._one_cell:
            # base 0 in every dimension, and v - 0 is v (-0.0 included)
            res = [float(v) for v in x]
            for d, v in enumerate(res):
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"coordinate {v} outside [0, 1] in dimension {d}")
            return 0, res
        base = 0
        res = []
        for d, (v, top, sd) in enumerate(zip(x, self._tops, self._strides)):
            v = float(v)
            if not 0.0 <= v <= top:
                raise ValueError(f"coordinate {v} outside [0, {top}] in dimension {d}")
            b = int(v)
            if b >= top:
                b = top - 1
            res.append(v - b)
            base += b * sd
        return base, res

    def _list(self) -> list[float]:
        if self._values is None:
            self._values = self._theta.tolist()
        return self._values

    def _multilinear_list(self, base: int, res: list[float]) -> float:
        w = [1.0]
        for r in res:
            far = [a * r for a in w]
            w = [a - f for a, f in zip(w, far)] + far
        values = self._list()
        total = 0.0
        for o, a in zip(self._offset_list, w):
            total += values[base + o] * a
        return total

    def _multilinear_array(self, base: int, res: list[float]) -> float:
        # the products overwrite the weights; add.accumulate (cumsum's
        # ufunc) adds left to right, and adding 0.0 turns a -0.0 total into
        # +0.0
        p = _doubling_weights(np.empty(len(self._offsets)), res)
        vals = self._theta[base + self._offsets] if self._cell is None else self._cell
        np.multiply(vals, p, p)
        return np.add.accumulate(p, 0, None, p).item(-1) + 0.0

    def _simplex(self, base: int, res: list[float]) -> float:
        # a stable sort: tied residuals keep ascending dimension order
        values = self._list()
        total = 0.0
        prev = 1.0
        idx = base
        for d in sorted(range(len(res)), key=res.__getitem__, reverse=True):
            r = res[d]
            total += values[idx] * (prev - r)
            idx += self._strides[d]
            prev = r
        return total + values[idx] * prev


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
    point touches D+1 vertices for simplex, 2^D otherwise.  Training uses
    it everywhere; :func:`evaluate_batch` on a multilinear lattice of one
    cell uses :func:`one_cell_rows` instead."""
    if InterpolationKind(kind) is InterpolationKind.SIMPLEX:
        return max(1, CHUNK_ENTRIES // (shape.ndim + 1))
    return max(1, CHUNK_ENTRIES >> shape.ndim)


def one_cell(shape: LatticeShape, kind: InterpolationKind) -> bool:
    """Whether the batched kernel takes its one-cell path: a multilinear
    lattice whose sizes are all 2."""
    return InterpolationKind(kind) is InterpolationKind.MULTILINEAR and set(shape.sizes) == {2}


def one_cell_rows(shape: LatticeShape) -> int:
    """Rows per multilinear chunk of :func:`evaluate_batch` on a lattice of
    one cell (every size 2): the chunk keeps one (2^D, n) array where
    :func:`chunk_rows`' chunk keeps four, so it takes four times the rows in
    the same bytes."""
    return max(1, (4 * CHUNK_ENTRIES) >> shape.ndim)


@functools.lru_cache(maxsize=64)
def _doubled_offsets(shape: LatticeShape) -> np.ndarray:
    # flat offsets of the 2^D cell vertices from the base, in the order of
    # the doubling pass (bit d set = far side in dimension d); cached per
    # shape, so read-only
    offsets = np.zeros(1, dtype=np.int64)
    for sd in shape.strides:
        offsets = np.concatenate([offsets, offsets + sd])
    offsets.flags.writeable = False
    return offsets


def _column_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Top-to-bottom sum of each column of a C-contiguous (k, n) array from
    # 0.0, as the scalar loops add.  For n >= 2, add.reduce over axis 0 adds
    # whole rows in order; a single column would be summed pairwise, with
    # other bits, so n = 1 goes through the sequential cumsum.  Adding 0.0
    # turns a -0.0 total into the +0.0 that a sum started at 0.0 gives.
    if a.shape[1] == 1:
        total = np.cumsum(a, axis=0)[-1]
    else:
        total = np.add.reduce(a, axis=0, out=out)
    return np.add(total, 0.0, out=out)


class ChunkBuffers:
    """The multilinear kernel's (2^D, n) chunk arrays, kept from one chunk
    to the next.

    Each array is the front of a flat buffer, so it is C-contiguous whatever
    its shape; a buffer is allocated when a chunk first needs more than it
    holds.  The last view of each buffer is kept, since a run's chunks mostly
    share one shape.  What a chunk leaves in them is overwritten by the next.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}
        self._views: dict[str, np.ndarray] = {}

    def get(self, name: str, rows: int, cols: int, dtype=float) -> np.ndarray:
        view = self._views.get(name)
        if view is None or view.shape != (rows, cols):
            size = rows * cols
            flat = self._flat.get(name)
            if flat is None or flat.size < size:
                flat = self._flat[name] = self._allocate(size, dtype)
            view = self._views[name] = flat[:size].reshape(rows, cols)
        return view

    @staticmethod
    def _allocate(size: int, dtype) -> np.ndarray:
        return np.empty(size, dtype=dtype)


def _doubling_weights(w: np.ndarray, residual) -> np.ndarray:
    # multilinear_weights' doubling pass into ``w``, one entry of the list
    # per entry of ``w``: a (2^D,) array with a row's D residuals as floats,
    # or a (2^D, n) chunk with the rows of its (D, n) residuals.  out= goes
    # by position: as a keyword it costs about 0.4 us a call.
    w[0] = 1.0
    for d, r in enumerate(residual):
        near, far = w[: 1 << d], w[1 << d : 2 << d]
        np.multiply(near, r, far)
        np.subtract(near, far, near)
    return w


def _multilinear_slopes(
    vals: np.ndarray, w: np.ndarray, residual: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    # evaluate_with_gradients' highest-bit-first collapse, one row per list
    # entry, in place: ``vals`` (overwritten) holds the vertex values still
    # to collapse and, in its upper half, each pass's products; ``ws`` the
    # summed weights and ``diffs`` the edge differences, the two halves of
    # ``scratch`` (2^D, n).  Returns (D, n) slopes.
    D, n = residual.shape
    slopes = np.empty((D, n))
    ws, diffs = scratch[: 1 << (D - 1)], scratch[1 << (D - 1) :]
    src = w
    for d in reversed(range(D)):
        half = 1 << d
        lo, hi, wd, dd = vals[:half], vals[half : 2 * half], ws[:half], diffs[:half]
        np.add(src[:half], src[half : 2 * half], out=wd)
        src = ws
        np.subtract(hi, lo, out=dd)
        _column_sums(np.multiply(wd, dd, out=hi), out=slopes[d])
        lo += np.multiply(dd, residual[d], out=dd)
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

    Both kernels record the vertex lists vertex-major, as (k, n) arrays,
    and return their transposed views.  Multilinear sums over a single
    point's column run through ``cumsum``, since numpy sums one column
    pairwise.  The arrays belong to the caller: this call's chunk buffers
    are its own.  On a lattice of one cell every row of ``indices`` is
    0 .. 2^D-1.
    """
    values, indices, weights, slopes = _forward_backward(
        theta, shape, points, kind, want_slopes, ChunkBuffers()
    )
    if indices is None:  # one cell: the kernel reads theta without indices
        indices = np.tile(_doubled_offsets(shape), (len(values), 1))
    return values, indices, weights, slopes


def _forward_backward(theta, shape, points, kind, want_slopes, buffers: ChunkBuffers,
                      vertices: bool = True, owner=None):
    # forward_backward_batch, with the multilinear chunk arrays drawn from
    # ``buffers``: its indices and weights are views into them, valid until
    # the next call with the same buffers.  Without ``vertices`` the caller
    # reads no vertex lists: the simplex walk records none and the one-cell
    # kernel overwrites its weights, and both return None for them.  On a
    # lattice of one cell (one_cell) the indices are None: vertex j of every
    # point is entry j of its parameter vector.  With ``owner`` (one per
    # point, in runs of equal owners), ``theta`` is a (K, P) stack of
    # parameter vectors and point i reads row owner[i].
    kind = InterpolationKind(kind)
    th = np.asarray(theta, dtype=float)
    base, residual = locate_cells(shape, points)
    if one_cell(shape, kind):
        return _one_cell(th, residual, want_slopes, buffers, vertices, owner)
    strides = np.asarray(shape.strides, dtype=np.int64)
    base_idx = base @ strides
    if owner is not None:
        base_idx += owner * th.shape[1]
        th = th.ravel()
    if kind is InterpolationKind.SIMPLEX:
        return _simplex_walk(th, base_idx, residual, strides, vertices, want_slopes)
    # vertex-major: one C-contiguous row of n entries per cell vertex
    k, n = 1 << shape.ndim, len(base_idx)
    residual_t = np.ascontiguousarray(residual.T)
    weights = _doubling_weights(buffers.get("weights", k, n), residual_t)
    offsets = _doubled_offsets(shape)
    indices = buffers.get("indices", k, n, np.int64)
    np.add(offsets[:, None], base_idx[None, :], out=indices)
    vals = _gather(th, indices, base_idx, offsets[-1], buffers.get("vals", k, n))
    # the products, then (once summed) the slope collapse's halves
    scratch = buffers.get("scratch", k, n)
    values = _column_sums(np.multiply(vals, weights, out=scratch))
    slopes = _multilinear_slopes(vals, weights, residual_t, scratch) if want_slopes else None
    return values, indices.T, weights.T, None if slopes is None else slopes.T


def _one_cell(th, residual, want_slopes, buffers: ChunkBuffers, vertices, owner):
    # The multilinear chunk on a lattice of one cell (see the module
    # docstring).  w * t is t * w bit for bit, so the products equal the
    # general path's gathered values times weights.  The products go into
    # the weights when the caller reads neither them nor the slopes.
    n, D = residual.shape
    k = 1 << D
    if th.shape[-1] < k:
        raise IndexError(f"cell vertex index out of bounds for theta of size {th.shape[-1]}")
    residual_t = np.ascontiguousarray(residual.T)
    w = _doubling_weights(buffers.get("weights", k, n), residual_t)
    # every point's vertex values: one column, or its worker's row of the stack
    vals = th[:k, None] if owner is None else th.take(owner, axis=0)[:, :k].T
    scratch = buffers.get("scratch", k, n) if vertices or want_slopes else w
    values = _column_sums(np.multiply(w, vals, out=scratch))
    slopes = None
    if want_slopes:
        start = buffers.get("vals", k, n)
        np.copyto(start, vals)
        slopes = _multilinear_slopes(start, w, residual_t, scratch).T
    return values, None, w.T if vertices else None, slopes


def _simplex_walk(th, base_idx, residual, strides, vertices, want_slopes):
    # The chain walk of the module docstring.  After the last sorted
    # residual comes 0.0, and prev - 0.0 is prev bit for bit, so the far
    # corner's weight is made like the others.  The total starts at +0.0, as
    # evaluate's loop does, so a sum of -0.0 terms comes out +0.0.
    n, D = residual.shape
    # stable sort: ties keep ascending dimension order, as simplex_weights.
    # Row j holds every point's dimension of step j, and ``at`` its flat
    # position (point * D + dimension) in the (n, D) residuals and slopes.
    order = np.argsort(-residual.T, axis=0, kind="stable")
    at = order + np.arange(0, n * D, D)
    steps = strides.take(order)
    if vertices:
        index_at = np.empty((D + 1, n), dtype=np.int64)
        weight_at = np.empty((D + 1, n))
        index_at[0] = base_idx
    else:
        index_at = [base_idx] * (D + 1)  # this call's array, advanced in place
        weight_at = [np.empty(n)] * (D + 1)
    vals = np.empty((D + 1, n)) if want_slopes else [None] * (D + 1)
    total = np.zeros(n)
    product = np.empty(n)
    prev, idx = 1.0, base_idx
    # out= goes by position: as a keyword it costs about 0.4 us a call,
    # which the 5(D+1) calls of a 64-row training chunk feel
    for r, w_out, v_out, step, next_idx in zip(
        [*residual.take(at), 0.0], weight_at, vals, [*steps, None], [*index_at[1:], None]
    ):
        w = np.subtract(prev, r, w_out)
        prev = r
        # take raises IndexError for a vertex beyond theta
        total += np.multiply(th.take(idx, None, v_out), w, product)
        if step is not None:
            idx = np.add(idx, step, next_idx)
    indices, weights = (index_at.T, weight_at.T) if vertices else (None, None)
    if not want_slopes:
        return total, indices, weights, None
    # consecutive chain vertices differ by one step in dimension order[j]
    slopes = np.empty((n, D))
    slopes.put(at, vals[1:] - vals[:-1])
    return total, indices, weights, slopes


def _gather(th: np.ndarray, indices: np.ndarray, base_idx: np.ndarray, far: int, out) -> np.ndarray:
    # th[indices] into ``out``.  take buffers its output unless it cannot
    # fail, so the highest vertex of any cell (base + far) is checked here
    # and the gather itself runs with mode="clip"; no index is negative,
    # since locate_cells keeps every point inside the box.
    if len(base_idx) and base_idx.max() + far >= len(th):
        raise IndexError(f"cell vertex index out of bounds for theta of size {len(th)}")
    return th.take(indices, out=out, mode="clip")
