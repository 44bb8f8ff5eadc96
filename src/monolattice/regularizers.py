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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
        if self.weight < 0 or not math.isfinite(self.weight):
            raise ValueError("regularizer weight must be finite and nonnegative")
        if self.sample_count is not None and self.sample_count < 1:
            raise ValueError("sample count must be positive")


@dataclass(frozen=True)
class TermSet:
    """All terms of one regularizer: row i is sum_j signs[j]*theta[indices[i,j]], squared."""

    indices: np.ndarray  # (num_terms, width) int64
    signs: np.ndarray  # (width,) float

    def __len__(self) -> int:
        return self.indices.shape[0]


_SIGNS = {
    RegularizerKind.LAPLACIAN: np.array([1.0, -1.0]),
    RegularizerKind.HESSIAN: np.array([1.0, -2.0, 1.0]),
    RegularizerKind.TORSION: np.array([1.0, -1.0, -1.0, 1.0]),
}

_terms_cache: dict[tuple, TermSet] = {}


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


def _slab_indices(shape: LatticeShape, fixed: dict[int, int]) -> np.ndarray:
    # flat indices of all vertices whose coordinates in `fixed` dims are pinned
    free_sizes = [m for d, m in enumerate(shape.sizes) if d not in fixed]
    out = np.zeros(1, dtype=np.int64)
    for d in range(shape.ndim):
        if d in fixed:
            continue
        steps = np.arange(shape.sizes[d], dtype=np.int64) * shape.strides[d]
        out = (out[:, None] + steps[None, :]).ravel()
    offset = sum(c * shape.strides[d] for d, c in fixed.items())
    assert len(out) == int(np.prod(free_sizes or [1]))
    return out + offset


def regularizer_terms(
    shape: LatticeShape, kind: RegularizerKind, missing_dims=frozenset()
) -> TermSet:
    """Every term of ``kind`` on ``shape``, cached per (shape, kind, missing dims)."""
    kind = RegularizerKind(kind)
    key = (shape.sizes, kind, tuple(sorted(missing_dims)))
    cached = _terms_cache.get(key)
    if cached is not None:
        return cached

    rows = []
    if kind is RegularizerKind.LAPLACIAN:
        for d in range(shape.ndim):
            sd = shape.strides[d]
            for ja, jb in _axis_pairs(shape, d, d in missing_dims):
                slab = _slab_indices(shape, {d: 0})
                rows.append(np.stack([slab + ja * sd, slab + jb * sd], axis=1))
    elif kind is RegularizerKind.HESSIAN:
        for d in range(shape.ndim):
            sd = shape.strides[d]
            top = shape.sizes[d] - (1 if d in missing_dims else 0)
            for j in range(1, top - 1):
                slab = _slab_indices(shape, {d: 0})
                rows.append(
                    np.stack(
                        [slab + (j - 1) * sd, slab + j * sd, slab + (j + 1) * sd],
                        axis=1,
                    )
                )
    else:
        for d in range(shape.ndim):
            for e in range(d + 1, shape.ndim):
                sd, se = shape.strides[d], shape.strides[e]
                for ja, jb in _axis_pairs(shape, d, d in missing_dims):
                    for ka, kb in _axis_pairs(shape, e, e in missing_dims):
                        slab = _slab_indices(shape, {d: 0, e: 0})
                        r = slab + ja * sd + ka * se
                        s = slab + jb * sd + ka * se
                        t = slab + ja * sd + kb * se
                        u = slab + jb * sd + kb * se
                        rows.append(np.stack([r, s, t, u], axis=1))
    width = len(_SIGNS[kind])
    if rows:
        indices = np.concatenate(rows, axis=0)
    else:
        indices = np.empty((0, width), dtype=np.int64)
    terms = TermSet(indices, _SIGNS[kind].copy())
    _terms_cache[key] = terms
    return terms


# --------------------------------------------------------------------------
# values and gradients


def regularizer_value(theta, terms: TermSet) -> float:
    th = np.asarray(theta, dtype=float)
    if len(terms) == 0:
        return 0.0
    combos = th[terms.indices] @ terms.signs
    return float(np.dot(combos, combos))


def regularizer_gradient(theta, terms: TermSet) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    grad = np.zeros_like(th)
    if len(terms) == 0:
        return grad
    combos = th[terms.indices] @ terms.signs
    np.add.at(grad, terms.indices, 2.0 * combos[:, None] * terms.signs[None, :])
    return grad


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
    grad = regularizer_gradient(theta, TermSet(terms.indices[picks], terms.signs))
    grad *= m / sample_count
    return grad
