"""Graph regularizers over lattice parameters.

All three regularizers are sums of squared signed combinations of a few
parameters each:

* Laplacian - (theta_r - theta_s)^2 over every pair of adjacent vertices;
  pulls toward flat surfaces.
* Hessian - (theta_next - 2 theta_mid + theta_prev)^2 over every three
  consecutive vertices along a dimension; pulls toward linear surfaces.
* Torsion - ((theta_r - theta_s) - (theta_t - theta_u))^2 comparing the two
  parallel edges of every elementary 2-face, one term per face; pulls toward
  additively separable surfaces, and vanishes exactly on lattices linear in
  the vertex coordinates.

For a dimension carrying a missing-value slice at its top coordinate, the
missing vertices are treated as adjacent to both the minimum and the maximum
real-value vertices of that dimension (Laplacian and Torsion); Hessian
triples stay within the real-value span where "consecutive" is meaningful.

``regularizer_terms`` lists every term of a kind as rows of an index table,
in one fixed order, since term ids are what sampling draws, and keeps the
table column-major too, the layout the sums gather from.  A table is
built once per lattice shape, kind and set of missing dimensions, and
handed out read-only to every caller; a cache of bounded size keeps the
most recently used ones.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeShape


class RegularizerKind(str, enum.Enum):
    LAPLACIAN = "laplacian"
    HESSIAN = "hessian"
    TORSION = "torsion"


@dataclass(frozen=True)
class RegularizerConfig:
    kind: RegularizerKind
    weight: float
    sample_count: int | None = None  # None means use every term

    def __post_init__(self):
        object.__setattr__(self, "kind", RegularizerKind(self.kind))
        for name in ("weight", "sample_count"):
            value = getattr(self, name)
            if isinstance(value, np.generic):  # as the Python number the model file writes
                object.__setattr__(self, name, value.item())
        if self.weight < 0 or not math.isfinite(self.weight):
            raise ValueError("regularizer weight must be finite and nonnegative")
        if self.sample_count is not None and type(self.sample_count) is not int:
            raise ValueError(f"sample_count must be an integer, not {self.sample_count!r}")
        if self.sample_count is not None and self.sample_count < 1:
            raise ValueError("sample count must be positive")


@dataclass(frozen=True)
class TermSet:
    """All terms of one regularizer: row i is sum_j signs[j]*theta[indices[i,j]], squared.

    ``columns`` holds the same table column-major, a read-only C-contiguous
    (width, num_terms) copy, from which the sums gather their values in one
    take; the gradient scatters in the order of ``indices``.
    """

    indices: np.ndarray  # (num_terms, width) int64
    signs: np.ndarray  # (width,) float
    columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        columns = np.ascontiguousarray(self.indices.T)
        columns.flags.writeable = False
        object.__setattr__(self, "columns", columns)

    def __len__(self) -> int:
        return self.indices.shape[0]


# a torsion table on 2^16 vertices alone holds 63 MB, so few are kept
_CACHED_TABLES = 8


# --------------------------------------------------------------------------
# term enumeration


def _axis_pairs(shape: LatticeShape, d: int, missing: bool) -> list[tuple[int, int]]:
    # coordinate pairs counted as adjacent along dimension d
    m = shape.sizes[d]
    if not missing:
        return [(j, j + 1) for j in range(m - 1)]
    pairs = [(j, j + 1) for j in range(m - 2)]
    pairs.append((0, m - 1))
    if m - 2 != 0:
        pairs.append((m - 2, m - 1))
    return pairs


def _stencils(shape: LatticeShape, kind: RegularizerKind, d: int, missing: bool) -> list[tuple]:
    # coordinates along dimension d of each stencil of kind
    if kind is not RegularizerKind.HESSIAN:
        return _axis_pairs(shape, d, missing)
    top = shape.sizes[d] - (1 if missing else 0)
    return [(j - 1, j, j + 1) for j in range(1, top - 1)]


def regularizer_terms(
    shape: LatticeShape, kind: RegularizerKind, missing_dims=frozenset()
) -> TermSet:
    """Every term of ``kind`` on ``shape``, as read-only tables built once
    per (shape, kind, missing dims) and kept in a cache of a few tables."""
    return _terms(shape, RegularizerKind(kind), tuple(sorted(missing_dims)))


@functools.lru_cache(maxsize=_CACHED_TABLES)
def _terms(shape: LatticeShape, kind: RegularizerKind, missing_dims: tuple) -> TermSet:
    """A term is one stencil per axis of its group: one axis for Laplacian
    and Hessian, the two axes of a face for torsion.  Rows run over the
    groups, then over the products of the group's stencils (its first axis
    slowest), then over the vertices at 0 on the group (the last dimension
    fastest).  Columns run over the product with the first axis fastest,
    and the signs are the outer product of the per-axis signs.  Sampling
    draws term ids and the exact gradient adds terms in this order, so it
    fixes the model bytes."""
    step = np.array([1.0, -2.0, 1.0] if kind is RegularizerKind.HESSIAN else [1.0, -1.0])
    torsion = kind is RegularizerKind.TORSION
    signs = np.outer(step, step).ravel() if torsion else step
    grid = np.arange(shape.num_parameters, dtype=np.int64).reshape(shape.sizes[::-1]).T
    blocks = [np.empty((0, len(signs)), dtype=np.int64)]
    for group in itertools.combinations(range(shape.ndim), 2 if torsion else 1):
        offsets = np.zeros((1, 1), dtype=np.int64)
        for d in group:
            coords = _stencils(shape, kind, d, d in missing_dims)
            at = np.array(coords, dtype=np.int64).reshape(len(coords), len(step))
            at *= shape.strides[d]
            offsets = (at[None, :, :, None] + offsets[:, None, None, :]).reshape(
                -1, len(step) * offsets.shape[1]
            )
        corners = grid[tuple(0 if d in group else slice(None) for d in range(shape.ndim))]
        blocks.append((offsets[:, None, :] + corners.reshape(-1, 1)).reshape(-1, len(signs)))
    indices = np.concatenate(blocks)
    indices.flags.writeable = signs.flags.writeable = False
    return TermSet(indices, signs)


# --------------------------------------------------------------------------
# values and gradients


def regularizer_value(theta, terms: TermSet) -> float:
    """The correctly rounded sum of the terms' squares, the same on every
    machine; inf where a term, a square or the sum passes the float limit."""
    th = np.asarray(theta, dtype=float)
    if len(terms) == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        combos = _combinations(th, terms.columns, terms.signs)
        squares = combos * combos
    if not np.isfinite(squares).all():
        return math.inf
    try:
        return math.fsum(squares.tolist())
    except OverflowError:  # finite squares whose sum is past the float limit
        return math.inf


def _combinations(th: np.ndarray, columns: np.ndarray, signs: np.ndarray) -> np.ndarray:
    # each term's signed sum of ``th`` at its column of ``columns``
    # (width, m), its products added left to right in numpy: a
    # matrix-vector product would sum them in the order of the CPU's BLAS
    # kernel, and the model bytes with it
    values = th.take(columns)
    values *= signs[:, None]
    combos = values[0]
    for products in values[1:]:
        combos += products
    return combos


def regularizer_gradient(theta, terms: TermSet) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    return _gradient(th, terms.indices, terms.columns, terms.signs)


def _gradient(
    th: np.ndarray, indices: np.ndarray, columns: np.ndarray, signs: np.ndarray
) -> np.ndarray:
    # the gradient of the terms of rows ``indices`` (m, width) at ``th``,
    # ``columns`` the same terms column-major: each combination, doubled,
    # times the signs, scattered row by row
    if len(indices) == 0:
        return np.zeros_like(th)
    combos = _combinations(th, columns, signs)
    # 2.0 * combos, then times the signs, in one array
    np.multiply(combos, 2.0, out=combos)
    products = np.multiply(combos[:, None], signs)
    # bincount adds each weight into its bin in input order, from 0.0, as
    # np.add.at adds into zeros; on 1-d arrays both are several times faster
    # than np.add.at over the (m, width) tables
    return np.bincount(indices.ravel(), products.ravel(), minlength=len(th))


def sample_regularizer_subgradient(
    theta, terms: TermSet, sample_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Unbiased estimate of the full gradient from ``sample_count`` terms.

    Terms are drawn uniformly with replacement and the partial sum is scaled
    by num_terms / sample_count, so the expectation over draws equals
    :func:`regularizer_gradient`.
    """
    if sample_count < 1:
        raise ValueError("sample count must be positive")
    m = len(terms)
    if m == 0:
        return regularizer_gradient(theta, terms)
    picks = rng.integers(0, m, size=sample_count)
    th = np.asarray(theta, dtype=float)
    # the drawn rows, and the same terms column-major for the gathers
    rows, columns = terms.indices.take(picks, axis=0), terms.columns.take(picks, axis=1)
    grad = _gradient(th, rows, columns, terms.signs)
    grad *= m / sample_count
    return grad
