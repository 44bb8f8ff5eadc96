import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_reference import reference_regularizer_terms

import monolattice
from monolattice import (
    Dataset,
    FeatureSpec,
    LatticeShape,
    RegularizerConfig,
    RegularizerKind,
    TrainConfig,
    regularizer_gradient,
    regularizer_terms,
    regularizer_value,
    sample_regularizer_subgradient,
    train,
    vertex_coords,
)
from monolattice.regularizers import _terms

LAP = RegularizerKind.LAPLACIAN
HES = RegularizerKind.HESSIAN
TOR = RegularizerKind.TORSION


def brute_force_count(sizes, kind):
    """Count terms by walking every vertex; independent of the implementation."""
    coords = list(itertools.product(*[range(m) for m in sizes]))
    d_range = range(len(sizes))
    if kind is LAP:
        return sum(
            1
            for c in coords
            for d in d_range
            if c[d] + 1 < sizes[d]
        )
    if kind is HES:
        return sum(
            1
            for c in coords
            for d in d_range
            if 1 <= c[d] and c[d] + 1 < sizes[d]
        )
    return sum(
        1
        for c in coords
        for d in d_range
        for e in d_range
        if d < e and c[d] + 1 < sizes[d] and c[e] + 1 < sizes[e]
    )


class TestTermCounts:
    def test_square_laplacian(self):
        terms = regularizer_terms(LatticeShape([2, 2]), LAP)
        assert len(terms) == 4

    def test_square_hessian_empty(self):
        assert len(regularizer_terms(LatticeShape([2, 2]), HES)) == 0

    def test_hessian_needs_three_vertices(self):
        assert len(regularizer_terms(LatticeShape([3]), HES)) == 1
        assert len(regularizer_terms(LatticeShape([4]), HES)) == 2
        assert len(regularizer_terms(LatticeShape([4, 2]), HES)) == 4

    @pytest.mark.parametrize("d", range(2, 7))
    def test_torsion_cube_closed_form(self, d):
        terms = regularizer_terms(LatticeShape([2] * d), TOR)
        assert len(terms) == d * (d - 1) * 2 ** (d - 3)

    @pytest.mark.parametrize(
        "sizes",
        [[2], [3], [2, 2], [3, 2], [3, 3], [2, 2, 2], [3, 2, 4], [3, 3, 3], [3, 3, 3, 3], [2, 3, 2, 3]],
    )
    @pytest.mark.parametrize("kind", [LAP, HES, TOR])
    def test_counts_match_brute_force(self, sizes, kind):
        terms = regularizer_terms(LatticeShape(sizes), kind)
        assert len(terms) == brute_force_count(sizes, kind)

    def test_terms_are_cached(self):
        a = regularizer_terms(LatticeShape([3, 3]), TOR)
        b = regularizer_terms(LatticeShape([3, 3]), TOR)
        assert a is b

    def test_tables_are_read_only_and_the_cache_is_bounded(self):
        terms = regularizer_terms(LatticeShape([3, 3]), TOR)
        with pytest.raises(ValueError):
            terms.indices[0, 0] = 8
        with pytest.raises(ValueError):
            terms.signs[0] = 2.0
        assert regularizer_terms(LatticeShape([3, 3]), TOR).indices[0, 0] == 0
        assert _terms.cache_info().maxsize is not None

    def test_term_indices_are_local_neighborhoods(self):
        sh = LatticeShape([3, 4, 2])
        for kind in (LAP, HES, TOR):
            terms = regularizer_terms(sh, kind)
            for row in terms.indices:
                cs = np.array([vertex_coords(sh, int(i)) for i in row])
                assert (cs.max(axis=0) - cs.min(axis=0)).max() <= 2


class TestValues:
    def test_checkerboard(self):
        sh = LatticeShape([2, 2])
        theta = np.array([0.0, 1.0, 1.0, 0.0])
        assert regularizer_value(theta, regularizer_terms(sh, TOR)) == pytest.approx(4.0)
        assert regularizer_value(theta, regularizer_terms(sh, LAP)) == pytest.approx(4.0)

    def test_constant_lattice_all_zero(self):
        sh = LatticeShape([3, 3])
        theta = np.full(9, 2.5)
        for kind in (LAP, HES, TOR):
            assert regularizer_value(theta, regularizer_terms(sh, kind)) == 0.0

    @pytest.mark.parametrize("sizes", [[2, 2], [3, 2], [3, 3, 3], [2, 2, 2, 2]])
    def test_torsion_and_hessian_vanish_on_linear(self, sizes):
        sh = LatticeShape(sizes)
        rng = np.random.default_rng(0)
        slopes = rng.standard_normal(sh.ndim)
        theta = np.array(
            [
                1.7 + slopes @ np.array(vertex_coords(sh, i), dtype=float)
                for i in range(sh.num_parameters)
            ]
        )
        assert regularizer_value(theta, regularizer_terms(sh, TOR)) == pytest.approx(0.0, abs=1e-24)
        assert regularizer_value(theta, regularizer_terms(sh, HES)) == pytest.approx(0.0, abs=1e-24)

    def test_values_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sizes = rng.integers(2, 4, size=rng.integers(1, 5))
            sh = LatticeShape(sizes)
            theta = rng.standard_normal(sh.num_parameters)
            for kind in (LAP, HES, TOR):
                assert regularizer_value(theta, regularizer_terms(sh, kind)) >= 0.0


class TestGradients:
    @pytest.mark.parametrize("kind", [LAP, HES, TOR])
    @pytest.mark.parametrize("sizes", [[3], [2, 2], [3, 3], [3, 3, 3], [2] * 8])
    def test_matches_central_differences(self, kind, sizes):
        sh = LatticeShape(sizes)
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(sh.num_parameters)
        terms = regularizer_terms(sh, kind)
        grad = regularizer_gradient(theta, terms)
        eps = 1e-6
        for j in range(sh.num_parameters):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += eps
            tm[j] -= eps
            fd = (regularizer_value(tp, terms) - regularizer_value(tm, terms)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_empty_term_set_zero_gradient(self):
        sh = LatticeShape([2, 2])
        terms = regularizer_terms(sh, HES)
        assert regularizer_gradient(np.ones(4), terms) == pytest.approx([0.0] * 4)


def left_to_right(theta, indices, signs):
    """Each term's signed sum, its products added left to right in Python."""
    out = []
    for row in indices.tolist():
        total = theta[row[0]] * signs[0]
        for i, s in zip(row[1:], signs[1:]):
            total = total + theta[i] * s
        out.append(total)
    return out


class TestFixedOrder:
    """Every sum runs in an order fixed by the term table, so that model
    bytes do not follow the CPU's BLAS kernel."""

    @pytest.mark.parametrize("kind", [LAP, HES, TOR])
    @pytest.mark.parametrize("sizes", [[3, 3], [3, 3, 3], [2] * 5])
    def test_sums_match_a_left_to_right_reference(self, kind, sizes):
        sh = LatticeShape(sizes)
        theta = np.random.default_rng(4).standard_normal(sh.num_parameters) * 1e3
        terms = regularizer_terms(sh, kind)
        combos = left_to_right(theta.tolist(), terms.indices, terms.signs.tolist())
        assert regularizer_value(theta, terms) == math.fsum(c * c for c in combos)
        weights = [2.0 * c * s for c in combos for s in terms.signs.tolist()]
        want = np.bincount(terms.indices.ravel(), weights, minlength=len(theta))
        assert regularizer_gradient(theta, terms).tobytes() == want.tobytes()

    def test_one_sampled_term(self):
        # a single term is a (width, 1) block, whose column a reduction
        # would sum in another order
        sh = LatticeShape([3, 3])
        theta = np.array([1e16, 1.0, -1e16, 3.0, 1.0, 1.0, -1.0, 1.0, 7.0])
        terms = regularizer_terms(sh, TOR)
        got = sample_regularizer_subgradient(theta, terms, 1, np.random.default_rng(0))
        pick = np.random.default_rng(0).integers(0, len(terms), size=1)
        (c,) = left_to_right(theta.tolist(), terms.indices[pick], terms.signs.tolist())
        weights = [2.0 * c * s * len(terms) for s in terms.signs.tolist()]
        want = np.bincount(terms.indices[pick].ravel(), weights, minlength=len(theta))
        assert got.tobytes() == want.tobytes()


def regularized_run(seed: int = 0) -> str:
    """The model file of a small run under exact torsion and a sampled
    Laplacian, whose bytes follow every regularizer sum of training."""
    rng = np.random.default_rng(seed)
    x = rng.random((200, 3))
    y = x @ np.array([1.0, 2.0, -0.5]) + np.sin(7.0 * x[:, 0] * x[:, 1])
    specs = [FeatureSpec(f"x{d}", size=3, keypoints=4) for d in range(3)]
    config = TrainConfig(
        epochs=2, step_size=0.3, seed=seed,
        regularizers=(RegularizerConfig(TOR, 0.1), RegularizerConfig(LAP, 0.1, sample_count=16)),
    )
    return train(Dataset([x[:, d] for d in range(3)], y), specs, config).to_json()


def test_model_bytes_do_not_follow_the_blas_kernel():
    # OpenBLAS picks its kernel by CPU unless OPENBLAS_CORETYPE names one;
    # Prescott's sums run in another order than the newer kernels'
    tests = Path(__file__).resolve().parent
    src = Path(monolattice.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    env.pop("OPENBLAS_CORETYPE", None)
    files = [
        subprocess.run(
            [sys.executable, "-c", "import test_regularizers as t; print(t.regularized_run(), end='')"],
            env=dict(env, **kernel), capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"})
    ]
    assert files[0] == files[1] == regularized_run()


class TestSampling:
    def test_no_terms_gives_zero(self):
        sh = LatticeShape([2, 2, 2])
        terms = regularizer_terms(sh, HES)
        rng = np.random.default_rng(3)
        out = sample_regularizer_subgradient(np.ones(8), terms, 4, rng)
        assert out == pytest.approx([0.0] * 8)

    def test_sampling_all_terms_has_right_scale(self):
        # with one term, any sample size returns exactly the full gradient
        sh = LatticeShape([2, 2])
        terms = regularizer_terms(sh, TOR)
        assert len(terms) == 1
        theta = np.array([0.0, 1.0, 1.0, 0.0])
        rng = np.random.default_rng(4)
        full = regularizer_gradient(theta, terms)
        for k in (1, 3):
            assert sample_regularizer_subgradient(theta, terms, k, rng) == pytest.approx(full)

    def test_single_term_estimate_is_unbiased(self):
        sh = LatticeShape([3, 3])
        terms = regularizer_terms(sh, LAP)
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(9)
        full = regularizer_gradient(theta, terms)
        draws = 20000
        acc = np.zeros(9)
        acc_sq = np.zeros(9)
        for _ in range(draws):
            g = sample_regularizer_subgradient(theta, terms, 1, rng)
            acc += g
            acc_sq += g * g
        mean = acc / draws
        se = np.sqrt(np.maximum(acc_sq / draws - mean**2, 0.0) / draws)
        assert np.all(np.abs(mean - full) <= 5 * se + 1e-9)

    @pytest.mark.parametrize("kind", [LAP, HES, TOR])
    def test_estimate_sums_the_drawn_terms(self, kind):
        # m / k times the gradient of the k drawn terms, a term drawn twice
        # counting twice; the draws are rng.integers(0, m, size=k)
        sh = LatticeShape([3, 3, 2])
        terms = regularizer_terms(sh, kind)
        theta = np.random.default_rng(6).standard_normal(sh.num_parameters)
        m = len(terms)
        k = 2 * m + 1
        expect = np.zeros(sh.num_parameters)
        for p in np.random.default_rng(7).integers(0, m, size=k):
            idx = terms.indices[p]
            combo = sum(theta[i] * s for i, s in zip(idx, terms.signs))
            for i, s in zip(idx, terms.signs):
                expect[i] += 2.0 * combo * s
        got = sample_regularizer_subgradient(theta, terms, k, np.random.default_rng(7))
        assert got == pytest.approx(expect * m / k, rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive_count(self):
        terms = regularizer_terms(LatticeShape([2, 2]), LAP)
        with pytest.raises(ValueError):
            sample_regularizer_subgradient(np.zeros(4), terms, 0, np.random.default_rng(0))


class TestMissingAdjacency:
    def test_laplacian_links_missing_to_both_ends(self):
        sh = LatticeShape([3, 2])
        terms = regularizer_terms(sh, LAP, missing_dims={0})
        assert len(terms) == 9  # (0,1),(0,2),(1,2) per slice, plus 3 cross pairs
        pairs = {tuple(sorted(map(int, row))) for row in terms.indices}
        assert (0, 2) in pairs  # min real vertex to the missing vertex
        assert (1, 2) in pairs  # max real vertex to the missing vertex

    def test_torsion_uses_augmented_edges(self):
        sh = LatticeShape([3, 2])
        regular = regularizer_terms(sh, TOR)
        augmented = regularizer_terms(sh, TOR, missing_dims={0})
        assert len(regular) == 2
        assert len(augmented) == 3

    def test_hessian_stays_in_real_span(self):
        sh = LatticeShape([4, 2])
        terms = regularizer_terms(sh, HES, missing_dims={0})
        assert len(terms) == 2
        for row in terms.indices:
            for i in row:
                assert vertex_coords(sh, int(i))[0] <= 2


@st.composite
def lattices_with_missing_dims(draw):
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=5))
    # any axis may carry the missing slice, an axis of two vertices included
    missing = draw(st.sets(st.integers(0, len(sizes) - 1)))
    return sizes, frozenset(missing)


class TestTermOrder:
    @settings(max_examples=150, deadline=None)
    @given(lattices_with_missing_dims(), st.sampled_from([LAP, HES, TOR]))
    @example(([2, 3], frozenset({0, 1})), TOR)
    @example(([3, 2, 4], frozenset({1, 2})), LAP)
    @example(([4, 2], frozenset({0})), HES)
    @example(([5], frozenset()), TOR)
    def test_tables_equal_the_per_kind_enumeration(self, lattice, kind):
        # sampling draws term ids and the exact gradient adds terms in table
        # order, so the tables must match byte for byte
        sizes, missing = lattice
        terms = regularizer_terms(LatticeShape(sizes), kind, missing)
        indices, signs = reference_regularizer_terms(LatticeShape(sizes), kind, missing)
        assert terms.indices.dtype == np.int64 and terms.indices.shape == indices.shape
        assert terms.indices.tobytes() == indices.tobytes()
        assert terms.signs.dtype == signs.dtype and terms.signs.tobytes() == signs.tobytes()
