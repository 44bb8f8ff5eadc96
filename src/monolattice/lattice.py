"""Regular grid of parameters over a D-dimensional box.

A lattice of sizes (M_1, ..., M_D) places one parameter at every integer
vertex of [0, M_1-1] x ... x [0, M_D-1].  Parameters are stored flat, in
stride order: dimension 0 varies fastest, so the flat index of vertex v is
sum_d v[d] * stride[d] with stride[0] = 1 and stride[d] = stride[d-1] * M_{d-1}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_PARAMETERS = 2**30


# --------------------------------------------------------------------------
# shape


@dataclass(frozen=True)
class LatticeShape:
    """Vertex counts per dimension plus the derived flat-index strides."""

    sizes: tuple[int, ...]
    strides: tuple[int, ...]

    def __init__(self, sizes) -> None:
        sizes = tuple(int(m) for m in sizes)
        if not sizes:
            raise ValueError("lattice needs at least one dimension")
        for d, m in enumerate(sizes):
            if m < 2:
                raise ValueError(f"dimension {d} has {m} vertices; need >= 2")
        total = math.prod(sizes)
        if total > MAX_PARAMETERS:
            raise ValueError(
                f"lattice has {total} parameters; refusing shapes over {MAX_PARAMETERS}"
            )
        strides = []
        acc = 1
        for m in sizes:
            strides.append(acc)
            acc *= m
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "strides", tuple(strides))

    @property
    def ndim(self) -> int:
        return len(self.sizes)

    @property
    def num_parameters(self) -> int:
        return math.prod(self.sizes)


@dataclass(frozen=True)
class CellLocation:
    """A point inside one cell: integer base vertex plus residual in [0,1]^D."""

    base: tuple[int, ...]
    residual: tuple[float, ...]


# --------------------------------------------------------------------------
# vertex indexing


def vertex_index(shape: LatticeShape, coords) -> int:
    """Flat index of the vertex at integer coordinates ``coords``."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != shape.ndim:
        raise ValueError(f"expected {shape.ndim} coordinates, got {len(coords)}")
    idx = 0
    for d, c in enumerate(coords):
        if not 0 <= c < shape.sizes[d]:
            raise ValueError(
                f"coordinate {c} out of range [0, {shape.sizes[d] - 1}] in dimension {d}"
            )
        idx += c * shape.strides[d]
    return idx


def vertex_coords(shape: LatticeShape, index: int) -> tuple[int, ...]:
    """Integer coordinates of the vertex with flat index ``index``."""
    index = int(index)
    if not 0 <= index < shape.num_parameters:
        raise ValueError(
            f"index {index} out of range [0, {shape.num_parameters - 1}]"
        )
    coords = []
    for m in shape.sizes:
        index, c = divmod(index, m)
        coords.append(c)
    return tuple(coords)


# --------------------------------------------------------------------------
# cell lookup


def _coordinates(x, ndim: int) -> list[float]:
    # every coordinate through float(), then the width, in this order
    xs = [float(v) for v in x]
    if len(xs) != ndim:
        raise ValueError(f"expected {ndim} coordinates, got {len(xs)}")
    return xs


def _outside(v: float, top: int, d: int) -> ValueError:
    return ValueError(f"coordinate {v} outside [0, {top}] in dimension {d}")


def locate_cell(shape: LatticeShape, x) -> CellLocation:
    """Cell containing ``x`` and the residual of ``x`` within it.

    ``x`` must lie inside the lattice box.  The base vertex is floor(x),
    except on the upper face of the box where the last cell is reused so the
    residual becomes 1.0 instead of stepping outside the grid.
    """
    base = []
    residual = []
    for d, v in enumerate(_coordinates(x, shape.ndim)):
        top = shape.sizes[d] - 1
        if not 0.0 <= v <= top:
            raise _outside(v, top, d)
        b = int(v)
        if b >= top:
            b = top - 1
        base.append(b)
        residual.append(v - b)
    return CellLocation(tuple(base), tuple(residual))


def locate_cells(shape: LatticeShape, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`locate_cell` for an (n, D) array of points: base
    vertices (n, D) and residuals (n, D), equal to the scalar ones.  The
    first coordinate outside the box, in row order, is reported as
    :func:`locate_cell` reports it."""
    base, residual = locate_block(shape, as_block(shape, points))
    return base.T, residual.T


def as_block(shape: LatticeShape, points) -> np.ndarray:
    """A copy of an (n, D) array of points as a C-contiguous feature-major
    (D, n) float block, the layout :func:`locate_block` and the batched
    kernels work in."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != shape.ndim:
        raise ValueError(f"expected an (n, {shape.ndim}) array, got {pts.shape}")
    return np.array(pts.T, order="C")


_ZERO = np.zeros(1, dtype=np.int64)  # the one-cell base's single entry, read-only
_ZERO.flags.writeable = False


def locate_block(shape: LatticeShape, block: np.ndarray,
                 buffers=None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`locate_cells` of a feature-major (D, n) block of points: base
    vertices (D, n) and residuals (D, n), and the same error for the first
    coordinate outside the box in row order.  On a lattice of one cell
    (every size 2) the base is a read-only view of 0 and the residual is
    the block itself, since v - 0 is v bit for bit.

    With ``buffers`` (an ``interpolation.ChunkBuffers`` set) the two
    halves of the inside mask, the base and the residual are its arrays,
    valid until its next locate.  The residual first holds the base as
    floats: the block less those floats is the block less the int base,
    bit for bit.  NaN is outside the box, since no comparison holds."""
    top, last_base, _ = axis_arrays(shape)
    D, n = block.shape

    def array(name, dtype=float):
        return np.empty((D, n), dtype) if buffers is None else buffers.get(name, D, n, dtype)

    inside = np.greater_equal(block, 0.0, out=array("cell inside", bool))
    below_top = np.less_equal(block, top, out=array("cell below top", bool))
    np.logical_and(inside, below_top, out=inside)
    if not inside.all():
        i, d = divmod(int(np.argmin(inside.T)), shape.ndim)
        raise _outside(float(block[d, i]), shape.sizes[d] - 1, d)
    if max(shape.sizes) == 2:
        return np.ndarray(block.shape, np.int64, _ZERO, 0, (0, 0)), block
    residual = np.floor(block, out=array("cell residual"))
    np.minimum(residual, last_base, out=residual)
    base = array("cell base", np.int64)
    np.copyto(base, residual, casting="unsafe")
    return base, np.subtract(block, residual, out=residual)


@functools.lru_cache(maxsize=64)
def axis_arrays(shape: LatticeShape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays the batched locate and kernels read from the shape alone,
    built once per shape and read-only: each axis's top coordinate and the
    base of its top cell as (D, 1) floats, and the strides as int64."""
    top = np.array(shape.sizes, dtype=float)[:, None] - 1.0
    arrays = (top, top - 1.0, np.array(shape.strides, dtype=np.int64))
    for a in arrays:
        a.flags.writeable = False
    return arrays
