"""Interpolation kernels over lattice cells.

Two kinds of interpolation turn a cell location into a convex combination
of vertex parameters:

* ``multilinear_weights`` - the product-form weights via a doubling pass:
  process one dimension at a time, splitting every partial weight into its
  (1-r) and r halves.  O(2^D).  ``multilinear_weights_naive`` in
  ``tests/scalar_reference.py`` evaluates the product one vertex at a time,
  O(D * 2^D); it is not a kind but the oracle the doubling pass is tested
  against, and the library does not ship it.
* ``simplex_weights`` - locally linear instead of multilinear: sort the
  residual, walk the chain of vertices from the cell base to its far corner
  in sorted order, and weight each chain vertex by a difference of
  consecutive sorted residuals.  O(D log D), touches D+1 vertices.

Both produce nonnegative weights that sum to 1 and average the residual back
exactly (linear precision), so piecing cells together yields a continuous
surface.

The scalar kernels above work on one point.  The batched kernel,
``_forward_backward``, runs the same arithmetic on a block of points in
numpy, one array operation per scalar step, and sums every vertex product
in list order as the scalar loops do, so its values, weights and slopes
equal the scalar ones bit for bit.  Training, ``evaluate_batch`` and batch
prediction go through it; the scalar kernels act as its oracle, and the
tests run it on (n, D) arrays of points through ``forward_backward_batch``
in ``tests/scalar_reference.py``.  Points are a feature-major (D, n) block
(``lattice.as_block``), the layout batch calibration writes, so a
calibrated chunk feeds the kernel with no transpose, and the slopes come
back (D, n).  Multilinear chunks are stored vertex-major, as C-contiguous
(2^D, n) arrays, so each doubling, collapse and sum step works on whole
rows; numpy's ``add.reduce`` over the rows then adds them top to bottom.
A one-column chunk is the exception: numpy would sum its single column
pairwise, so it goes through ``cumsum``.

A simplex chunk is one chain walk, one array operation per formula
rather than per step.  Each point's residuals are sorted once (a stable
argsort, so ties keep ascending dimension order).  Row j of three
(D+1, n) arrays is step j of every chain: its weight, the previous sorted
residual minus this one; its vertex index, the previous one plus the
step's stride; its vertex value, gathered from theta.  The far corner,
the last row of indices, is checked against theta before the gather, so a
short theta raises ``IndexError``.  The products are summed row by row,
top to bottom, so a total starts at +0.0 as the scalar loop's does.  The
slopes are written at each step's flat position (dimension * n + point).

A chunk's (2^D, n) or (D+1, n) arrays (weights, vertex indices, gathered
values, and a scratch array for the products and the slope collapse,
which the gathered values stand in for when no slopes are wanted), and
the (D, n) inside mask, bases and residuals of its ``locate_block``, come
from a :class:`ChunkBuffers` set and are reused from chunk to chunk.  An
``evaluate_batch`` or ``Model.predict`` call, or a whole training run,
takes a set from a process-wide list of spare sets and gives it back when
it ends (:func:`spare_buffers`), so sets outlive the calls and a warm
process allocates no chunk array per call.  At D = 10 each multilinear
array is 256 KB, above glibc's initial mmap threshold, so arrays made
afresh for every chunk would be mapped, page-faulted and unmapped chunk
after chunk, and the kernel would run at half speed unless some earlier,
larger free had raised the threshold; sets made afresh for every call
fault their pages call after call in the same way.  The vertex values
are gathered with ``take(mode="clip")`` into their buffer, which writes
there directly only because nothing can be clipped: the cells' far
corners are checked against ``theta`` first, so a short ``theta`` still
raises ``IndexError``.

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
where the general path keeps three (four with slopes), and takes four
times the rows (``one_cell_rows``, 128 at D = 10) in the same bytes;
CHANGES.md records its speed against the general path.  ``lattice.locate_block`` gives such a
lattice's points a base of 0 and themselves as residuals.

The batched kernel builds multilinear weights with one doubling helper,
``_doubling_weights``, which fills a (2^D, n) chunk from the rows of the
(D, n) residuals over (near, far) views made once per buffer view
(``ChunkBuffers.doubling``).  What the batched kernel reads from the
shape alone (the strides, and ``locate_block``'s axis tops) comes from
``lattice.axis_arrays``, built once per shape.

Single-row prediction (``Model.predict_row``) runs one function compiled
per calibrator layout, lattice shape and kind; this module gives it the
lines of its row kernel (``_row_kernel_lines``), built from the shape's
sizes, strides and offsets as int literals and nothing else.  They do the
scalar kernels' float operations in their order, so they give their bits,
without their generic steps: no ``CellLocation`` or ``SparseWeights``.
They take coordinates that calibration has placed inside the box, so they
find the cell's base and residuals in straight-line code with no check
(on a lattice of one cell the base is 0 and the residual is the point
itself), then walk the simplex chain on theta's list, or run the
multilinear doubling pass.  Below ``ROW_NUMPY_MIN_VERTICES`` cell
vertices that pass runs on named locals; from it on, one hybrid form
runs its first ``ROW_PREFIX_DIMS`` steps on named locals, writes them
into a workspace the function keeps, and runs each remaining step as one
numpy multiply and subtract on that workspace's (near, far) views, where
a step's 2^d entries outweigh numpy's cost per call.  The weights are
then multiplied in place by the vertex values: a gather at the cell's
offsets, or, on a lattice of one cell, a view of theta's first 2^D
entries.  The scalar kernels stay as the row kernels' oracle and as what
``bench_interpolation`` times; CHANGES.md records the row path's speed.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import struct
from dataclasses import dataclass

import numpy as np

from .lattice import (
    CellLocation,
    LatticeShape,
    as_block,
    axis_arrays,
    locate_block,
    locate_cell,
    vertex_index,
)


class InterpolationKind(str, enum.Enum):
    MULTILINEAR = "multilinear"
    SIMPLEX = "simplex"


@dataclass
class SparseWeights:
    """Parallel lists of flat vertex indices and their interpolation weights."""

    indices: list[int]
    weights: list[float]


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
    """:func:`evaluate` over an (n, D) array of points, bit for bit: the
    points as a feature-major block (:func:`~.lattice.as_block`) through
    :func:`evaluate_block`."""
    block = as_block(shape, points)
    out = np.empty(block.shape[1])
    with spare_buffers() as buffers:
        evaluate_block(theta, shape, block, kind, buffers, out)
    return out


def evaluate_block(theta, shape: LatticeShape, block: np.ndarray, kind: InterpolationKind,
                   buffers: ChunkBuffers, out: np.ndarray) -> None:
    """:func:`evaluate` at every point of a feature-major (D, n) block, bit
    for bit, written into ``out`` (n,).

    Runs in chunks of about ``CHUNK_ENTRIES`` vertex weights
    (:func:`chunk_rows`), with the multilinear chunk arrays drawn from
    ``buffers``, so the n x (cell size) temporaries stay small whatever n
    is.  A multilinear lattice of one cell (every size 2) reads theta as
    one column, with no vertex indices or gather, in chunks of
    :func:`one_cell_rows`; the path follows from the shape and kind alone.
    """
    th = np.asarray(theta, dtype=float)
    n = block.shape[1]
    step = one_cell_rows(shape) if one_cell(shape, kind) else chunk_rows(shape, kind)
    for start in range(0, n, step):
        out[start : start + step] = _forward_backward(
            th, shape, block[:, start : start + step], kind, False, buffers, vertices=False
        )[0]


# Multilinear cells with at least this many vertices (2^7: D >= 7) are
# faster through the row kernel's hybrid form, ROW_PREFIX_DIMS doubling
# steps on float locals and the rest as numpy calls, than through its
# straight-line body, which doubles in size with every dimension
# (_row_kernel_lines); CHANGES.md records the sweep.
ROW_NUMPY_MIN_VERTICES = 1 << 7

# the dimensions the hybrid form doubles on float locals before its first
# numpy step, each of which costs about as much as 32 local statements
# whatever its size; CHANGES.md records the sweep of 3, 4 and 5
ROW_PREFIX_DIMS = 4


# terms per statement of a row kernel's sum, which keeps each expression shallow
_SUM_TERMS = 16


def _doubling_lines(residuals: list) -> list:
    # multilinear_weights' doubling pass over ``residuals`` on the locals
    # w0 .. w{2^len - 1}: step d splits w{j} into itself and w{j + 2^d}
    lines = ["    w1 = " + residuals[0], "    w0 = 1.0 - w1"]
    for d in range(1, len(residuals)):
        half = 1 << d
        for j in range(half):
            lines += [
                f"    w{j + half} = w{j} * {residuals[d]}",
                f"    w{j} = w{j} - w{j + half}",
            ]
    return lines


def _row_kernel_lines(shape: LatticeShape, kind: InterpolationKind) -> tuple[list, list, dict]:
    """The lines of ``Model.predict_row``'s kernel of ``kind`` on ``shape``:
    ``head``, run once when ``theta`` (a float64 array of the lattice's
    size) is bound, ``body``, which scores the coordinates ``x0`` ..
    ``x{D-1}``, and the names the lines read.  Both are indented one level,
    ``body`` for the scoring function's own body; ``model._row_scorer``
    compiles them after the calibration lines, which leave each coordinate
    a float inside its axis.

    The body does :func:`evaluate`'s float operations in their order.  Per
    dimension it takes the base ``int(v)`` (``top - 1`` on the top face)
    and the residual ``v - base``; on an axis of two vertices the base is
    0 and the residual is ``v`` itself.  The flat base index sums base
    times stride.  Then:

    * simplex: :func:`simplex_weights`' chain on theta's list, the
      dimensions sorted by residual (a stable sort, so tied residuals keep
      ascending dimension order), the products summed left to right from
      0.0;
    * multilinear, below ``ROW_NUMPY_MIN_VERTICES`` vertices: the doubling
      pass of :func:`multilinear_weights` on named locals, and
      ``values[base + offset] * weight`` summed left to right from 0.0;
    * multilinear, larger cells: one hybrid form.  The first
      ``ROW_PREFIX_DIMS`` doubling steps run on named locals, as above;
      one ``Struct.pack_into`` call writes those 2^s weights into the
      front of a workspace (:func:`_row_workspace`) popped from the bound
      function's ``spare`` list, so threads never share one; each
      remaining step is a ``multiply`` and a ``subtract`` on the
      workspace's (near, far) views, written out inline.  The vertex
      values (a gather at the cell's offsets into the workspace, or on a
      lattice of one cell the view of theta's first 2^D entries) are
      multiplied into the weights in place and summed by
      ``add.accumulate``, which adds left to right; adding 0.0 turns a
      -0.0 total into +0.0.

    Each weight takes the same IEEE multiply and subtract in every form,
    so every form gives :func:`evaluate`'s bits.  The lines are built only
    from Python ints, each passed through ``int()``: the shape's sizes,
    tops, strides and vertex offsets, put into fixed templates."""
    kind = InterpolationKind(kind)
    sizes = [int(m) for m in shape.sizes]
    strides = [int(s) for s in shape.strides]
    D = len(sizes)
    body, residuals, base = [], [], []
    for d, m in enumerate(sizes):
        if m == 2:
            residuals.append(f"x{d}")
            continue
        top = m - 1
        body += [
            f"    b{d} = int(x{d}) if x{d} < {top}.0 else {top - 1}",
            f"    r{d} = x{d} - b{d}",
        ]
        residuals.append(f"r{d}")
        base.append(f"b{d}" if strides[d] == 1 else f"b{d} * {strides[d]}")
    if base or kind is InterpolationKind.SIMPLEX:
        body.append(f"    b = {' + '.join(base) if base else 0}")
    namespace = {}
    k = 1 << D
    if kind is InterpolationKind.SIMPLEX:
        head = ["    values = theta.tolist()"]
        body += [
            f"    res = [{', '.join(residuals)}]",
            "    t = 0.0",
            "    p = 1.0",
            f"    for d in sorted(range({D}), key=res.__getitem__, reverse=True):",
            "        r = res[d]",
            "        t += values[b] * (p - r)",
            f"        b += {tuple(strides)}[d]",
            "        p = r",
            "    return t + values[b] * p",
        ]
    elif k < ROW_NUMPY_MIN_VERTICES:
        head = ["    values = theta.tolist()"]
        body += _doubling_lines(residuals)
        at = [int(o) for o in _doubled_offsets(shape)]
        if base:
            at = ["b"] + [f"b + {o}" for o in at[1:]]
        terms = [f"values[{i}] * w{j}" for j, i in enumerate(at)]
        total = "0.0"
        for start in range(0, len(terms), _SUM_TERMS):
            body.append(f"    t = {' + '.join([total, *terms[start : start + _SUM_TERMS]])}")
            total = "t"
        body.append("    return t")
    else:
        one = set(sizes) == {2}
        s = ROW_PREFIX_DIMS  # < D, since 2^D >= ROW_NUMPY_MIN_VERTICES
        views = [f"{side}{d}" for d in range(s, D) for side in ("near", "far")]
        head = ["    spare = []"]
        if one:  # the one cell's vertex values
            head.append(f"    cell = theta[:{k}]")
        body += [
            "    try:",
            "        work = spare.pop()",
            "    except IndexError:",
            f"        work = _row_workspace({D}, {s}, {not one})",
            f"    {', '.join(['w', *views, 'at', 'vals'])} = work",
            *_doubling_lines(residuals[:s]),
            f"    prefix(w, 0, {', '.join(f'w{j}' for j in range(1 << s))})",
        ]
        for d in range(s, D):
            body += [
                f"    multiply(near{d}, {residuals[d]}, far{d})",
                f"    subtract(near{d}, far{d}, near{d})",
            ]
        if one:
            body.append("    multiply(cell, w, w)")
        else:
            body += [
                "    np.add(offsets, b, at)",
                "    multiply(theta.take(at, out=vals, mode='clip'), w, w)",
            ]
        body += [
            "    t = accumulate(w, 0, None, w).item(-1) + 0.0",
            "    spare.append(work)",
            "    return t",
        ]
        namespace.update(
            np=np, multiply=np.multiply, subtract=np.subtract, accumulate=np.add.accumulate,
            offsets=_doubled_offsets(shape), _row_workspace=_row_workspace,
            # the locals' doubles, as a slice assignment from their tuple
            # writes them, at less than half its cost
            prefix=struct.Struct(f"{1 << s}d").pack_into,
        )
    return head, body, namespace


def _short(size: int) -> IndexError:
    # the error of a theta of ``size`` entries too short for a cell
    return IndexError(f"cell vertex index out of bounds for theta of size {size}")


def _row_workspace(D: int, s: int, gather: bool) -> tuple:
    # a hybrid row kernel's arrays: the (2^D,) weights, the (near, far)
    # views of each doubling step from step s on, laid end to end, and,
    # where the kernel gathers, the vertex indices and values
    k = 1 << D
    w = np.empty(k)
    halves = [v for d in range(s, D) for v in (w[: 1 << d], w[1 << d : 2 << d])]
    if not gather:
        return w, *halves, None, None
    return w, *halves, np.empty(k, dtype=np.int64), np.empty(k)


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
    :func:`chunk_rows`' chunk keeps up to four, so it takes four times the
    rows in the same bytes."""
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


def _sum_rows(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Top-to-bottom sum of each column of a C-contiguous (k, n) array, as
    # the scalar loops add, except that a total of -0.0 stays -0.0.  For
    # n >= 2, add.reduce over axis 0 adds whole rows in order; a single
    # column would be summed pairwise, with other bits, so n = 1 goes
    # through the sequential cumsum.
    if a.shape[1] != 1:
        return np.add.reduce(a, axis=0, out=out)
    total = np.cumsum(a, axis=0)[-1]
    if out is None:
        return total
    out[...] = total
    return out


def _column_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # _sum_rows from 0.0: adding 0.0 turns a -0.0 total into the +0.0 that
    # a sum started at 0.0 gives
    total = _sum_rows(a, out)
    return np.add(total, 0.0, out=total)


class ChunkBuffers:
    """Named chunk arrays kept from one chunk to the next: the kernels'
    (2^D, n) or (D+1, n) arrays and ``lattice.locate_block``'s (D, n) mask,
    bases and residuals; in ``Model.predict`` also the located and
    calibrated (D, n) blocks (``CalibratorSet.locate_chunks``) and
    ``CalibratorSet.apply``'s two temporaries; in training also the
    scatters' sample-major arrays, a pair's signed loss slopes and the
    calibrator scatter's terms and entries
    (``CalibratorSet.add_apply_gradient``).

    Each array is the front of a flat, 64-byte aligned buffer, so it is
    C-contiguous whatever its shape; a buffer is allocated when a chunk
    first needs more than it holds, or another dtype.  The last view of each buffer is kept, since a
    run's chunks mostly share one shape.  What a chunk leaves in them is
    overwritten by the next.  A set serves one caller at a time; callers
    that hold it for one call draw it from :func:`spare_buffers`.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}
        self._views: dict[str, np.ndarray] = {}
        self._halves: dict[str, tuple] = {}

    def get(self, name: str, rows: int, cols: int, dtype=float) -> np.ndarray:
        view = self._views.get(name)
        if view is None or view.shape != (rows, cols) or view.dtype != dtype:
            size = rows * cols
            flat = self._flat.get(name)
            if flat is None or flat.size < size or flat.dtype != dtype:
                flat = self._flat[name] = self._allocate(size, dtype)
            view = self._views[name] = flat[:size].reshape(rows, cols)
        return view

    def doubling(self, name: str, rows: int, cols: int) -> tuple:
        """:meth:`get`'s (2^D, n) view and the (near, far) views of each
        step of :func:`_doubling_weights` over it, made once per view."""
        view = self.get(name, rows, cols)
        kept = self._halves.get(name)
        if kept is None or kept[0] is not view:
            steps = rows.bit_length() - 1
            halves = [(view[: 1 << d], view[1 << d : 2 << d]) for d in range(steps)]
            kept = self._halves[name] = (view, halves)
        return kept

    @staticmethod
    def _allocate(size: int, dtype) -> np.ndarray:
        # 64-byte aligned: the kernels' ufuncs run faster on aligned
        # operands, and malloc places a large block 16 bytes past a page,
        # which a kept buffer would keep for the life of the process
        nbytes = size * np.dtype(dtype).itemsize
        raw = np.empty(nbytes + 64, dtype=np.uint8)
        start = -raw.ctypes.data % 64
        return raw[start : start + nbytes].view(dtype)


# Chunk buffer sets that no call holds, kept for the next call that needs
# one: the object cache of Bonwick's slab allocator (USENIX 1994), as
# monotonicity's walk keeps its workspaces.  A warm process allocates no
# chunk array per call, and its chunk arrays are never freed, so the heap
# top does not shrink and grow again from chunk to chunk.
_SPARE_BUFFERS: list[ChunkBuffers] = []


@contextlib.contextmanager
def spare_buffers():
    """A :class:`ChunkBuffers` set for the caller alone while the block
    runs: taken from the spare sets (made when none is spare) and given
    back when the block ends, also by an error.  ``list.pop`` and
    ``append`` are atomic, so concurrent callers never share a set."""
    try:
        buffers = _SPARE_BUFFERS.pop()
    except IndexError:
        buffers = ChunkBuffers()
    try:
        yield buffers
    finally:
        _SPARE_BUFFERS.append(buffers)


def _doubling_weights(w: np.ndarray, residual, halves=None) -> np.ndarray:
    # multilinear_weights' doubling pass into ``w``, one entry of the list
    # per entry of ``w``: the batched kernel's (2^D, n) chunk with the rows
    # of its (D, n) residuals (or a (2^D,) array with D floats).  Step d
    # splits ``w``'s first 2^d entries (near) into themselves and the next
    # 2^d (far); ``halves`` holds those views made beforehand, as the chunk
    # buffers keep them.  out= goes by position: as a keyword it costs
    # about 0.4 us a call.
    w[0] = 1.0
    if halves is None:
        halves = [(w[: 1 << d], w[1 << d : 2 << d]) for d in range(len(residual))]
    for (near, far), r in zip(halves, residual):
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
    # ``scratch`` (2^D, n).  Returns (D, n) slopes.  Each level's sum is
    # _sum_rows', and the 0.0 that _column_sums adds is added once, to all
    # of them: the same bits.
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
        _sum_rows(np.multiply(wd, dd, out=hi), out=slopes[d])
        lo += np.multiply(dd, residual[d], out=dd)
    return np.add(slopes, 0.0, out=slopes)


def _forward_backward(theta, shape, points, kind, want_slopes, buffers: ChunkBuffers,
                      vertices: bool = True, owner=None):
    # Values, vertex indices, vertex weights and (with want_slopes) the
    # slopes d(value)/dx of a feature-major (D, n) block of points, each
    # point's vertices in the order the scalar kernel of ``kind`` lists
    # them.  The multilinear chunk arrays are drawn from ``buffers``: the
    # indices and weights are views into them, valid until the next call
    # with the same buffers, and the slopes are (D, n).  Without
    # ``vertices`` the caller reads no vertex lists: the one-cell kernel
    # overwrites its weights, and both it and the simplex walk return None
    # for them.  On a lattice of one cell (one_cell) the indices are None:
    # vertex j of every point is entry j of its parameter vector.  With
    # ``owner`` (one per point, in runs of equal owners), ``theta`` is a
    # (K, P) stack of parameter vectors and point i reads row owner[i].
    kind = InterpolationKind(kind)
    th = np.asarray(theta, dtype=float)
    base, residual = locate_block(shape, points, buffers)
    if one_cell(shape, kind):
        return _one_cell(th, residual, want_slopes, buffers, vertices, owner)
    strides = axis_arrays(shape)[2]
    base_idx = strides @ base
    if owner is not None:
        base_idx += owner * th.shape[1]
        th = th.ravel()
    if kind is InterpolationKind.SIMPLEX:
        return _simplex_walk(th, base_idx, residual, strides, buffers, vertices, want_slopes)
    # vertex-major: one C-contiguous row of n entries per cell vertex
    k, n = 1 << shape.ndim, len(base_idx)
    weights, halves = buffers.doubling("weights", k, n)
    _doubling_weights(weights, residual, halves)
    offsets = _doubled_offsets(shape)
    indices = buffers.get("indices", k, n, np.int64)
    np.add(offsets[:, None], base_idx[None, :], out=indices)
    vals = _gather(th, indices, base_idx, offsets[-1], buffers.get("vals", k, n))
    # the products, then (once summed) the slope collapse's halves; the
    # products overwrite the vertex values unless the slopes read those
    scratch = buffers.get("scratch", k, n) if want_slopes else vals
    values = _column_sums(np.multiply(vals, weights, out=scratch))
    slopes = _multilinear_slopes(vals, weights, residual, scratch) if want_slopes else None
    return values, indices.T, weights.T, slopes


def _one_cell(th, residual, want_slopes, buffers: ChunkBuffers, vertices, owner):
    # The multilinear chunk on a lattice of one cell (see the module
    # docstring).  w * t is t * w bit for bit, so the products equal the
    # general path's gathered values times weights.  The products go into
    # the weights when the caller reads neither them nor the slopes.
    D, n = residual.shape
    k = 1 << D
    if th.shape[-1] < k:
        raise _short(th.shape[-1])
    w, halves = buffers.doubling("weights", k, n)
    _doubling_weights(w, residual, halves)
    # every point's vertex values: one column, or its worker's row of the stack
    vals = th[:k, None] if owner is None else th.take(owner, axis=0)[:, :k].T
    scratch = buffers.get("scratch", k, n) if vertices or want_slopes else w
    values = _column_sums(np.multiply(w, vals, out=scratch))
    slopes = None
    if want_slopes:
        start = buffers.get("vals", k, n)
        np.copyto(start, vals)
        slopes = _multilinear_slopes(start, w, residual, scratch)
    return values, None, w.T if vertices else None, slopes


def _simplex_walk(th, base_idx, residual, strides, buffers: ChunkBuffers, vertices,
                  want_slopes):
    # The chain walk of the module docstring, one array operation per
    # formula rather than per step.  Row j of the (D+1, n) arrays is step j
    # of every chain.  After the last sorted residual comes 0.0, and
    # prev - 0.0 is prev bit for bit, so the far corner's weight is the
    # last sorted residual as it stands.  The rows of products are summed
    # top to bottom, as the scalar loop adds them (_column_sums); they
    # overwrite the vertex values unless the slopes read those.
    D, n = residual.shape
    # stable sort: ties keep ascending dimension order, as simplex_weights.
    # Row j holds every point's dimension of step j; each step adds its
    # dimension's stride to the vertex index, so the last row of indices is
    # the far corner, the highest vertex of the chain.
    vals = buffers.get("vals", D + 1, n)  # first the negated residuals
    order = np.argsort(np.negative(residual, out=vals[:D]), axis=0, kind="stable")
    indices = buffers.get("indices", D + 1, n, np.int64)
    indices[0] = base_idx
    strides.take(order, out=indices[1:])
    for j in range(D):
        np.add(indices[j], indices[j + 1], out=indices[j + 1])
    if n and indices[D].max() >= len(th):
        raise _short(len(th))
    # ``at``: each step's flat position (dimension * n + point) in the
    # (D, n) residuals and slopes.  Rows 1 .. D of the weights take the
    # sorted residuals, then each row but the last the difference to the
    # row below it; row 0 is 1.0 minus the first.
    at = order
    at *= n
    at += np.arange(n)
    weights = buffers.get("weights", D + 1, n)
    residual.take(at, out=weights[1:], mode="clip")
    np.subtract(1.0, weights[1], out=weights[0])
    np.subtract(weights[1:D], weights[2:], out=weights[1:D])
    th.take(indices, out=vals, mode="clip")
    products = buffers.get("scratch", D + 1, n) if want_slopes else vals
    total = _column_sums(np.multiply(vals, weights, out=products))
    if vertices:
        indices, weights = indices.T, weights.T
    else:
        indices = weights = None
    if not want_slopes:
        return total, indices, weights, None
    # consecutive chain vertices differ by one step in dimension order[j]
    slopes = np.empty((D, n))
    slopes.put(at, vals[1:] - vals[:-1])
    return total, indices, weights, slopes


def _gather(th: np.ndarray, indices: np.ndarray, base_idx: np.ndarray, far: int, out) -> np.ndarray:
    # th[indices] into ``out``.  take buffers its output unless it cannot
    # fail, so the highest vertex of any cell (base + far) is checked here
    # and the gather itself runs with mode="clip"; no index is negative,
    # since locate_block keeps every point inside the box.
    if len(base_idx) and base_idx.max() + far >= len(th):
        raise _short(len(th))
    return th.take(indices, out=out, mode="clip")
