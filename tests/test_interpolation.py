import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import (
    CellLocation,
    InterpolationKind,
    LatticeShape,
    evaluate,
    evaluate_batch,
    evaluate_with_gradients,
    interpolation_weights,
    locate_cell,
    multilinear_weights,
    multilinear_weights_naive,
    multilinear_weights_naive_batch,
    simplex_weights,
    vertex_coords,
    vertex_index,
)

ALL_KINDS = list(InterpolationKind)


def random_shape(rng, max_d=5, max_m=4):
    d = rng.integers(1, max_d + 1)
    return LatticeShape(rng.integers(2, max_m + 1, size=d))


def random_point(rng, shape):
    return rng.random(shape.ndim) * (np.array(shape.sizes) - 1.0)


def weight_coords(shape, sw):
    return [np.array(vertex_coords(shape, i), dtype=float) for i in sw.indices]


class TestNaive:
    def test_corner_weights(self):
        w = multilinear_weights_naive([0.8, 0.2])
        assert w == pytest.approx([0.16, 0.64, 0.04, 0.16], abs=1e-15)

    def test_center_is_uniform(self):
        w = multilinear_weights_naive([0.5, 0.5])
        assert w == pytest.approx([0.25] * 4, abs=0)

    def test_vertex_residual_is_one_hot(self):
        w = multilinear_weights_naive([1.0, 0.0, 1.0])
        expect = [0.0] * 8
        expect[0b101] = 1.0
        assert w == expect

    def test_rejects_bad_residual(self):
        with pytest.raises(ValueError):
            multilinear_weights_naive([1.2])
        with pytest.raises(ValueError):
            multilinear_weights_naive([-0.1, 0.5])

    def test_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            multilinear_weights_naive([0.5] * 25)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        for d in range(1, 7):
            rs = rng.random((50, d))
            batch = multilinear_weights_naive_batch(rs)
            assert batch.shape == (50, 1 << d)
            for i in range(50):
                assert batch[i] == pytest.approx(
                    multilinear_weights_naive(rs[i]), abs=1e-15
                )


class TestFastMultilinear:
    def test_small_cell(self):
        sh = LatticeShape([2, 2])
        sw = multilinear_weights(sh, locate_cell(sh, (0.8, 0.2)))
        assert sw.indices == [0, 1, 2, 3]
        assert sw.weights == pytest.approx([0.16, 0.64, 0.04, 0.16], abs=1e-15)

    def test_base_vertex_of_second_cell(self):
        sh = LatticeShape([3, 2])
        sw = multilinear_weights(sh, CellLocation((1, 0), (0.0, 0.0)))
        w = dict(zip(sw.indices, sw.weights))
        assert w[vertex_index(sh, (1, 0))] == 1.0
        assert sum(sw.weights) == 1.0

    def test_matches_naive_on_random_cells(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            sh = random_shape(rng)
            loc = locate_cell(sh, random_point(rng, sh))
            sw = multilinear_weights(sh, loc)
            naive = multilinear_weights_naive(loc.residual)
            assert sw.weights == pytest.approx(naive, abs=1e-12)
            # index order matches the bit order of the naive vector
            base = np.array(loc.base)
            for k, idx in enumerate(sw.indices):
                bits = [(k >> d) & 1 for d in range(sh.ndim)]
                assert idx == vertex_index(sh, base + bits)

    def test_indices_distinct_and_valid(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            sh = random_shape(rng)
            sw = multilinear_weights(sh, locate_cell(sh, random_point(rng, sh)))
            assert len(set(sw.indices)) == len(sw.indices) == 2**sh.ndim
            assert all(0 <= i < sh.num_parameters for i in sw.indices)


class TestSimplex:
    def test_three_dim_example(self):
        sh = LatticeShape([2, 2, 2])
        sw = simplex_weights(sh, locate_cell(sh, (0.8, 0.2, 0.3)))
        verts = [vertex_coords(sh, i) for i in sw.indices]
        assert verts == [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)]
        assert sw.weights == pytest.approx([0.2, 0.5, 0.1, 0.2], abs=1e-12)

    def test_two_dim_orderings(self):
        sh = LatticeShape([2, 2])
        sw = simplex_weights(sh, locate_cell(sh, (0.7, 0.4)))
        assert sw.weights == pytest.approx([0.3, 0.3, 0.4], abs=1e-15)
        verts = [vertex_coords(sh, i) for i in sw.indices]
        assert verts == [(0, 0), (1, 0), (1, 1)]
        sw = simplex_weights(sh, locate_cell(sh, (0.4, 0.7)))
        verts = [vertex_coords(sh, i) for i in sw.indices]
        assert verts == [(0, 0), (0, 1), (1, 1)]

    def test_tie_gives_zero_weight_and_dim_order(self):
        sh = LatticeShape([2, 2])
        sw = simplex_weights(sh, locate_cell(sh, (0.5, 0.5)))
        verts = [vertex_coords(sh, i) for i in sw.indices]
        assert verts == [(0, 0), (1, 0), (1, 1)]
        assert sw.weights == pytest.approx([0.5, 0.0, 0.5], abs=0)

    def test_tie_value_unaffected_by_order(self):
        # evaluation is continuous across the tie even though the chain differs
        sh = LatticeShape([2, 2, 2])
        rng = np.random.default_rng(3)
        theta = rng.random(8).tolist()
        for t in rng.random(20):
            below = evaluate(theta, sh, (t, min(t + 1e-13, 1.0), 0.3), InterpolationKind.SIMPLEX)
            at = evaluate(theta, sh, (t, t, 0.3), InterpolationKind.SIMPLEX)
            assert at == pytest.approx(below, abs=1e-9)

    def test_chain_is_monotone_in_cell(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            sh = random_shape(rng)
            sw = simplex_weights(sh, locate_cell(sh, random_point(rng, sh)))
            assert len(sw.indices) == sh.ndim + 1
            assert len(set(sw.indices)) == sh.ndim + 1
            assert all(b > a for a, b in zip(sw.indices, sw.indices[1:]))


class TestWeightInvariants:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_partition_of_unity_and_mean(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(300):
            sh = random_shape(rng)
            x = random_point(rng, sh)
            loc = locate_cell(sh, x)
            sw = interpolation_weights(sh, loc, kind)
            assert all(w >= 0.0 for w in sw.weights)
            assert sum(sw.weights) == pytest.approx(1.0, abs=1e-12)
            mean = sum(
                w * c for w, c in zip(sw.weights, weight_coords(sh, sw))
            )
            assert mean == pytest.approx(np.array(x), abs=1e-12)

    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.lists(
                st.floats(0.0, 1.0, allow_nan=False), min_size=d, max_size=d
            )
        ),
        st.sampled_from(ALL_KINDS),
    )
    @settings(max_examples=150, deadline=None)
    def test_weights_form_convex_combination(self, residual, kind):
        sh = LatticeShape([2] * len(residual))
        sw = interpolation_weights(sh, CellLocation((0,) * len(residual), tuple(residual)), kind)
        assert all(w >= 0.0 for w in sw.weights)
        assert sum(sw.weights) == pytest.approx(1.0, abs=1e-12)


class TestEvaluate:
    def test_cell_center_averages_corners(self):
        sh = LatticeShape([3, 2])
        theta = [6.0, 3.0, 9.0, 5.0, 8.0, 7.0]
        assert evaluate(theta, sh, (0.5, 0.5)) == pytest.approx(5.5, abs=1e-15)

    def test_center_example_both_kinds(self):
        sh = LatticeShape([2, 2])
        theta = [0.0, 0.5, 1.0, 1.0]
        assert evaluate(theta, sh, (0.5, 0.5), InterpolationKind.MULTILINEAR) == 0.625
        assert evaluate(theta, sh, (0.5, 0.5), InterpolationKind.SIMPLEX) == 0.5

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_vertex_exactness(self, kind):
        rng = np.random.default_rng(6)
        for _ in range(50):
            sh = random_shape(rng)
            theta = rng.standard_normal(sh.num_parameters)
            coords = tuple(int(rng.integers(0, m)) for m in sh.sizes)
            got = evaluate(theta, sh, [float(c) for c in coords], kind)
            assert got == theta[vertex_index(sh, coords)]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_linear_precision(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sh = random_shape(rng)
            slopes = rng.standard_normal(sh.ndim)
            c0 = rng.standard_normal()
            theta = np.array(
                [
                    c0 + slopes @ np.array(vertex_coords(sh, i), dtype=float)
                    for i in range(sh.num_parameters)
                ]
            )
            x = random_point(rng, sh)
            assert evaluate(theta, sh, x, kind) == pytest.approx(
                c0 + slopes @ x, abs=1e-10
            )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_continuous_across_cell_faces(self, kind):
        # the shared face of two cells gives the same value computed from
        # either side
        sh = LatticeShape([3, 2])
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(6)
        for _ in range(20):
            y = float(rng.random())
            left = interpolation_weights(sh, CellLocation((0, 0), (1.0, y)), kind)
            right = interpolation_weights(sh, CellLocation((1, 0), (0.0, y)), kind)
            vl = sum(theta[i] * w for i, w in zip(left.indices, left.weights))
            vr = sum(theta[i] * w for i, w in zip(right.indices, right.weights))
            assert vl == pytest.approx(vr, abs=1e-12)

    def test_batch_matches_scalar(self):
        sh = LatticeShape([3, 2, 2])
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(12)
        pts = rng.random((100, 3)) * (np.array(sh.sizes) - 1.0)
        for kind in ALL_KINDS:
            batch = evaluate_batch(theta, sh, pts, kind)
            scalar = [evaluate(theta, sh, x, kind) for x in pts]
            assert batch == pytest.approx(scalar, abs=0)


class TestPointGradients:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(10)
        shapes = [random_shape(rng, max_d=4) for _ in range(60)]
        shapes += [LatticeShape(rng.integers(2, 4, size=d)) for d in (8, 9, 10, 10)]
        for sh in shapes:
            theta = rng.standard_normal(sh.num_parameters)
            # keep away from cell faces and simplex boundaries so the local
            # piece is smooth around x
            while True:
                x = random_point(rng, sh)
                loc = locate_cell(sh, x)
                r = sorted(loc.residual)
                if all(0.02 < v < 0.98 for v in loc.residual) and all(
                    b - a > 0.02 for a, b in zip(r, r[1:])
                ):
                    break
            value, sw, grad = evaluate_with_gradients(theta, sh, x, kind)
            assert value == pytest.approx(evaluate(theta, sh, x, kind), abs=1e-14)
            eps = 1e-6
            for d in range(sh.ndim):
                xp = np.array(x)
                xm = np.array(x)
                xp[d] += eps
                xm[d] -= eps
                fd = (evaluate(theta, sh, xp, kind) - evaluate(theta, sh, xm, kind)) / (
                    2 * eps
                )
                assert grad[d] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_weights_match_plain_computation(self):
        sh = LatticeShape([2, 3])
        rng = np.random.default_rng(11)
        theta = rng.standard_normal(6)
        x = (0.3, 1.4)
        for kind in (InterpolationKind.MULTILINEAR, InterpolationKind.SIMPLEX):
            _, sw, _ = evaluate_with_gradients(theta, sh, x, kind)
            plain = interpolation_weights(sh, locate_cell(sh, x), kind)
            assert sw.indices == plain.indices
            assert sw.weights == pytest.approx(plain.weights, abs=0)
