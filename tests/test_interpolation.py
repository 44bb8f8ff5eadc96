import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import (
    InterpolationKind,
    LatticeShape,
    evaluate,
    evaluate_batch,
    interpolation_weights,
    locate_cell,
    multilinear_weights,
    simplex_weights,
    vertex_coords,
    vertex_index,
)
from monolattice import interpolation
from monolattice.interpolation import (
    ChunkBuffers,
    SparseWeights,
    chunk_rows,
    evaluate_with_gradients,
    one_cell_rows,
)
from monolattice.lattice import CellLocation

from scalar_reference import (
    forward_backward_batch,
    multilinear_weights_naive,
    multilinear_weights_naive_batch,
)

ALL_KINDS = list(InterpolationKind)
# the product-form kernel is no served kind, only the oracle of the fast
# multilinear one; the weight invariants hold for it too
NAIVE = "multilinear-naive"
WEIGHT_KINDS = ALL_KINDS + [NAIVE]


def random_shape(rng, max_d=5, max_m=4):
    d = rng.integers(1, max_d + 1)
    return LatticeShape(rng.integers(2, max_m + 1, size=d))


def random_point(rng, shape):
    return rng.random(shape.ndim) * (np.array(shape.sizes) - 1.0)


def weights_of(shape, loc, kind):
    if kind != NAIVE:
        return interpolation_weights(shape, loc, kind)
    base = np.array(loc.base)
    indices = [
        vertex_index(shape, base + [(k >> d) & 1 for d in range(shape.ndim)])
        for k in range(1 << shape.ndim)
    ]
    return SparseWeights(indices, multilinear_weights_naive(loc.residual))


def value_of(theta, shape, x, kind):
    if kind != NAIVE:
        return evaluate(theta, shape, x, kind)
    sw = weights_of(shape, locate_cell(shape, x), kind)
    return sum(theta[i] * w for i, w in zip(sw.indices, sw.weights))


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
                assert batch[i].tolist() == multilinear_weights_naive(rs[i])


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
    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_partition_of_unity_and_mean(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(300):
            sh = random_shape(rng)
            x = random_point(rng, sh)
            loc = locate_cell(sh, x)
            sw = weights_of(sh, loc, kind)
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
        st.sampled_from(WEIGHT_KINDS),
    )
    @settings(max_examples=150, deadline=None)
    def test_weights_form_convex_combination(self, residual, kind):
        sh = LatticeShape([2] * len(residual))
        sw = weights_of(sh, CellLocation((0,) * len(residual), tuple(residual)), kind)
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

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_vertex_exactness(self, kind):
        rng = np.random.default_rng(6)
        for _ in range(50):
            sh = random_shape(rng)
            theta = rng.standard_normal(sh.num_parameters)
            coords = tuple(int(rng.integers(0, m)) for m in sh.sizes)
            got = value_of(theta, sh, [float(c) for c in coords], kind)
            assert got == theta[vertex_index(sh, coords)]

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
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
            assert value_of(theta, sh, x, kind) == pytest.approx(
                c0 + slopes @ x, abs=1e-10
            )

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_continuous_across_cell_faces(self, kind):
        # the shared face of two cells gives the same value computed from
        # either side
        sh = LatticeShape([3, 2])
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(6)
        for _ in range(20):
            y = float(rng.random())
            left = weights_of(sh, CellLocation((0, 0), (1.0, y)), kind)
            right = weights_of(sh, CellLocation((1, 0), (0.0, y)), kind)
            vl = sum(theta[i] * w for i, w in zip(left.indices, left.weights))
            vr = sum(theta[i] * w for i, w in zip(right.indices, right.weights))
            assert vl == pytest.approx(vr, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        for sh in batch_shapes(rng):
            theta = rng.standard_normal(sh.num_parameters)
            pts = batch_points(rng, sh)
            for kind in ALL_KINDS:
                batch = evaluate_batch(theta, sh, pts, kind)
                assert batch.tolist() == [evaluate(theta, sh, x, kind) for x in pts]
                # a list theta (as predict_row keeps it) gives the same bits
                assert evaluate_batch(theta.tolist(), sh, pts, kind).tolist() == batch.tolist()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_batch_keeps_the_sign_of_zero_sums(self, kind):
        # a scalar sum starts at +0.0, so it is never -0.0, even when every
        # term is -0.0
        sh = LatticeShape([3, 2, 2])
        rng = np.random.default_rng(14)
        theta = np.full(12, -0.0)
        pts = batch_points(rng, sh)
        scalar = np.array([evaluate(theta, sh, x, kind) for x in pts])
        assert evaluate_batch(theta, sh, pts, kind).tobytes() == scalar.tobytes()
        values, _, _, slopes = forward_backward_batch(theta, sh, pts, kind, want_slopes=True)
        grads = np.array([evaluate_with_gradients(theta, sh, x, kind)[2] for x in pts])
        assert slopes.tobytes() == grads.tobytes()

    @staticmethod
    def assert_several_chunks(sh, step):
        rng = np.random.default_rng(12)
        theta = rng.standard_normal(sh.num_parameters)
        pts = rng.random((3 * step + 5, sh.ndim)) * (np.array(sh.sizes) - 1)
        batch = evaluate_batch(theta, sh, pts)
        assert batch.tolist() == [evaluate(theta, sh, x) for x in pts]

    def test_batch_spans_several_chunks(self):
        sh = LatticeShape([2] * 10)  # one cell
        self.assert_several_chunks(sh, one_cell_rows(sh))

    def test_batch_spans_several_chunks_of_many_cells(self):
        sh = LatticeShape([3, 3] + [2] * 6)
        self.assert_several_chunks(sh, chunk_rows(sh, InterpolationKind.MULTILINEAR))

    def test_batch_of_no_points(self):
        sh = LatticeShape([3, 2])
        assert evaluate_batch(np.zeros(6), sh, np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("bad", [-1e-300, 2.5, np.nan])
    def test_batch_reports_the_first_bad_coordinate(self, bad):
        sh = LatticeShape([3, 2])
        pts = np.array([[0.5, 0.5], [1.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError) as scalar:
            locate_cell(sh, pts[1])
        with pytest.raises(ValueError) as batch:
            evaluate_batch(np.zeros(6), sh, pts)
        assert str(batch.value) == str(scalar.value)


def batch_shapes(rng):
    """Random shapes up to D=4, then one per D up to 10."""
    shapes = [random_shape(rng, max_d=4) for _ in range(12)]
    return shapes + [LatticeShape(rng.integers(2, 4, size=d)) for d in range(5, 11)]


def batch_points(rng, sh, n=40):
    """Random points, points on interior cell faces, on the top face of the
    box, on vertices, and with tied residuals (simplex chain ties)."""
    top = np.array(sh.sizes) - 1.0
    pts = rng.random((n, sh.ndim)) * top
    pts[: n // 4] = np.floor(pts[: n // 4])  # vertices and cell faces
    pts[n // 4 : n // 2, 0] = top[0]  # top face in dimension 0
    pts[n // 2 : n // 2 + 2] = top  # top corner
    tied = pts[n // 2 + 2 : 3 * n // 4]
    tied[:] = np.floor(tied) + rng.random((len(tied), 1))
    np.minimum(tied, top, out=tied)
    return pts


class TestForwardBackwardBatch:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_evaluate_with_gradients(self, kind):
        rng = np.random.default_rng(13)
        for sh in batch_shapes(rng):
            theta = rng.standard_normal(sh.num_parameters)
            pts = batch_points(rng, sh)
            values, indices, weights, slopes = forward_backward_batch(
                theta, sh, pts, kind, want_slopes=True
            )
            for i, x in enumerate(pts):
                value, sw, grad = evaluate_with_gradients(theta, sh, x, kind)
                assert values[i] == value
                assert indices[i].tolist() == sw.indices
                assert weights[i].tolist() == sw.weights
                assert slopes[i].tolist() == grad

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("D", range(3, 11))
    def test_batches_of_one_and_two_rows(self, D, size):
        # numpy sums a single column pairwise, not top to bottom, so one-row
        # batches take their own summation path
        sh = LatticeShape([size] * D)
        rng = np.random.default_rng(100 * D + size)
        theta = rng.standard_normal(sh.num_parameters)
        pts = rng.random((40, D)) * (size - 1)
        for batch in [pts[i : i + 1] for i in range(30)] + [pts[30:32], pts[32:34]]:
            values, indices, weights, slopes = forward_backward_batch(
                theta, sh, batch, want_slopes=True
            )
            scalar = [evaluate_with_gradients(theta, sh, x) for x in batch]
            assert values.tobytes() == np.array([v for v, _, _ in scalar]).tobytes()
            assert indices.tolist() == [sw.indices for _, sw, _ in scalar]
            assert weights.tobytes() == np.array([sw.weights for _, sw, _ in scalar]).tobytes()
            assert slopes.tobytes() == np.array([g for _, _, g in scalar]).tobytes()

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("D", range(3, 11))
    def test_chunk_ending_in_one_row(self, D, size):
        sh = LatticeShape([size] * D)
        rng = np.random.default_rng(200 * D + size)
        theta = rng.standard_normal(sh.num_parameters)
        step = one_cell_rows(sh) if size == 2 else chunk_rows(sh, InterpolationKind.MULTILINEAR)
        pts = rng.random((step + 1, D)) * (size - 1)
        scalar = np.array([evaluate(theta, sh, x) for x in pts])
        assert evaluate_batch(theta, sh, pts).tobytes() == scalar.tobytes()

    @staticmethod
    def assert_buffers_allocated_once(monkeypatch, sh, step, arrays):
        # with no spare buffer set, a call of one chunk allocates ``arrays``
        # buffers; a later call of several chunks and a shorter last one
        # takes the same set back and allocates none
        allocations = []

        def counting(size, dtype):
            allocations.append(size)
            return np.empty(size, dtype=dtype)

        monkeypatch.setattr(ChunkBuffers, "_allocate", staticmethod(counting))
        monkeypatch.setattr(interpolation, "_SPARE_BUFFERS", [])
        rng = np.random.default_rng(15)
        theta = rng.standard_normal(sh.num_parameters)
        top = np.array(sh.sizes) - 1
        evaluate_batch(theta, sh, rng.random((step, sh.ndim)) * top)
        assert len(allocations) == arrays
        allocations.clear()
        pts = rng.random((3 * step + 5, sh.ndim)) * top
        batch = evaluate_batch(theta, sh, pts)
        assert allocations == []
        assert len(interpolation._SPARE_BUFFERS) == 1
        assert batch.tobytes() == np.array([evaluate(theta, sh, x) for x in pts]).tobytes()

    def test_evaluate_batch_allocates_each_chunk_buffer_once(self, monkeypatch):
        # one cell: the weights, and the two halves of locate's inside mask
        sh = LatticeShape([2] * 8)
        self.assert_buffers_allocated_once(monkeypatch, sh, one_cell_rows(sh), 3)

    def test_evaluate_batch_allocates_each_chunk_buffer_of_many_cells_once(self, monkeypatch):
        # weights, vertex indices and gathered values, which take the
        # products, since no slopes read them, and locate's two mask
        # halves, bases and residuals
        sh = LatticeShape([3, 3] + [2] * 6)
        self.assert_buffers_allocated_once(
            monkeypatch, sh, chunk_rows(sh, InterpolationKind.MULTILINEAR), 7
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_successive_calls_return_separate_arrays(self, kind):
        sh = LatticeShape([2] * 6)
        rng = np.random.default_rng(16)
        theta = rng.standard_normal(sh.num_parameters)
        first = forward_backward_batch(theta, sh, rng.random((20, 6)), kind, want_slopes=True)
        kept = [a.copy() for a in first]
        second = forward_backward_batch(theta, sh, rng.random((20, 6)), kind, want_slopes=True)
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)
        for a, b in zip(first, kept):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_short_theta_raises_index_error(self, kind):
        # every point's cell holds the last vertex, which a theta one entry
        # short lacks; a gather that clamps or wraps would return a value
        sh = LatticeShape([3, 3, 2])
        rng = np.random.default_rng(17)
        theta = rng.standard_normal(sh.num_parameters - 1)
        pts = np.array([[2.0, 2.0, 1.0], [1.5, 1.5, 0.5]])
        for batch in (pts, pts[:1], pts[1:]):
            with pytest.raises(IndexError):
                evaluate_batch(theta, sh, batch, kind)
            with pytest.raises(IndexError):
                forward_backward_batch(theta, sh, batch, kind, want_slopes=True)

    def test_slopes_only_on_request(self):
        sh = LatticeShape([3, 3])
        out = forward_backward_batch(np.zeros(9), sh, np.array([[0.5, 1.5]]))
        assert out[3] is None


class TestOneCellBatch:
    """``evaluate_batch`` on lattices of one cell (every size 2), which
    reads theta as one column instead of gathering it, against the scalar
    kernel by bytes."""

    @pytest.mark.parametrize("D", [1, 2, 7, 10])
    def test_chunks_and_a_one_row_remainder(self, D):
        # the last chunk is one row, whose sum runs through cumsum
        sh = LatticeShape([2] * D)
        rng = np.random.default_rng(300 + D)
        theta = rng.standard_normal(sh.num_parameters)
        pts = rng.random((3 * one_cell_rows(sh) + 1, D))
        pts[:4] = np.floor(pts[:4] * 2)  # vertices
        pts[4:8, 0] = 1.0  # top face
        scalar = np.array([evaluate(theta, sh, x) for x in pts])
        assert evaluate_batch(theta, sh, pts).tobytes() == scalar.tobytes()
        # a longer theta only has its first 2^D entries read
        longer = np.concatenate([theta, rng.standard_normal(3)])
        assert evaluate_batch(longer, sh, pts).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("D", [1, 2, 7, 10])
    def test_sums_of_negative_zeros_are_positive(self, D):
        sh = LatticeShape([2] * D)
        rng = np.random.default_rng(310 + D)
        theta = np.full(sh.num_parameters, -0.0)
        for pts in (batch_points(rng, sh), batch_points(rng, sh)[:1]):
            scalar = np.array([evaluate(theta, sh, x) for x in pts])
            batch = evaluate_batch(theta, sh, pts)
            assert batch.tobytes() == scalar.tobytes()
            assert not np.signbit(batch).any()

    @pytest.mark.parametrize("D", [1, 2, 7, 10])
    def test_short_theta_raises_index_error(self, D):
        sh = LatticeShape([2] * D)
        rng = np.random.default_rng(320 + D)
        theta = rng.standard_normal(sh.num_parameters - 1)
        pts = rng.random((5, D))
        for batch in (pts, pts[:1]):
            with pytest.raises(IndexError):
                evaluate(theta, sh, batch[0])
            with pytest.raises(IndexError):
                evaluate_batch(theta, sh, batch)

    @pytest.mark.parametrize("D", [1, 2, 7, 10])
    def test_no_points(self, D):
        sh = LatticeShape([2] * D)
        for theta in (np.zeros(sh.num_parameters), np.zeros(sh.num_parameters - 1)):
            out = evaluate_batch(theta, sh, np.empty((0, D)))
            assert out.shape == (0,) and out.dtype == np.float64

    def test_bad_coordinate_is_reported_as_by_locate_cell(self):
        sh = LatticeShape([2] * 3)
        pts = np.array([[0.5, 0.5, 0.5], [1.0, 1.5, 0.0], [np.nan, 0.0, 0.0]])
        with pytest.raises(ValueError) as scalar:
            locate_cell(sh, pts[1])
        with pytest.raises(ValueError) as batch:
            evaluate_batch(np.zeros(8), sh, pts)
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize(
        "sizes, kind, path",
        [
            ([2] * 10, InterpolationKind.MULTILINEAR, "_one_cell"),
            ([2], "multilinear", "_one_cell"),
            ([2] * 10, InterpolationKind.SIMPLEX, "_simplex_walk"),
            ([3, 3, 3, 3], InterpolationKind.MULTILINEAR, "_gather"),
            ([2] * 9 + [3], InterpolationKind.MULTILINEAR, "_gather"),
        ],
    )
    def test_path_is_chosen_from_the_shape_and_kind(self, monkeypatch, sizes, kind, path):
        # evaluate_batch and forward_backward_batch take the same path
        taken = []
        for name in ("_one_cell", "_simplex_walk", "_gather"):
            real = getattr(interpolation, name)

            def spy(*args, _real=real, _name=name, **kw):
                taken.append(_name)
                return _real(*args, **kw)

            monkeypatch.setattr(interpolation, name, spy)
        sh = LatticeShape(sizes)
        pts = np.random.default_rng(330).random((3, sh.ndim))
        evaluate_batch(np.zeros(sh.num_parameters), sh, pts, kind)
        forward_backward_batch(np.zeros(sh.num_parameters), sh, pts, kind, want_slopes=True)
        assert taken == [path, path]


SIMPLEX = InterpolationKind.SIMPLEX


def assert_walk_matches_scalar(theta, sh, pts):
    """The batched simplex walk's values, vertex lists and slopes, with and
    without slopes, and ``evaluate_batch``, equal the scalar kernels' by
    bytes."""
    pts = np.asarray(pts, dtype=float).reshape(-1, sh.ndim)
    n, k = len(pts), sh.ndim + 1
    scalar = [evaluate_with_gradients(theta, sh, x, SIMPLEX) for x in pts]
    values = np.array([v for v, _, _ in scalar], dtype=float)
    indices = np.array([sw.indices for _, sw, _ in scalar], dtype=np.int64).reshape(n, k)
    weights = np.array([sw.weights for _, sw, _ in scalar], dtype=float).reshape(n, k)
    slopes = np.array([g for _, _, g in scalar], dtype=float).reshape(n, sh.ndim)
    for want_slopes in (False, True):
        out = forward_backward_batch(theta, sh, pts, SIMPLEX, want_slopes=want_slopes)
        assert out[0].tobytes() == values.tobytes()
        assert out[1].dtype == np.int64
        assert np.ascontiguousarray(out[1]).tobytes() == indices.tobytes()
        assert np.ascontiguousarray(out[2]).tobytes() == weights.tobytes()
        if want_slopes:
            assert out[3].tobytes() == slopes.tobytes()
        else:
            assert out[3] is None
    batch = evaluate_batch(theta, sh, pts, SIMPLEX)
    assert batch.tobytes() == np.array([evaluate(theta, sh, x, SIMPLEX) for x in pts]).tobytes()


@st.composite
def walk_cases(draw):
    """A shape of 1-5 dimensions with sizes 2-4, theta with none, some or
    all entries -0.0, and up to 8 points whose residuals are often 0, 1 or
    tied across dimensions."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=5))
    sh = LatticeShape(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.standard_normal(sh.num_parameters)
    theta[rng.random(sh.num_parameters) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    shared = draw(st.floats(0.0, 1.0))
    residual = st.one_of(st.sampled_from([0.0, 1.0, 0.5, shared]), st.floats(0.0, 1.0))
    pts = []
    for _ in range(draw(st.integers(0, 8))):
        base = [draw(st.integers(0, m - 2)) for m in sizes]
        pts.append([b + draw(residual) for b in base])
    return theta, sh, pts


class TestSimplexWalk:
    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_random_shapes(self, case):
        assert_walk_matches_scalar(*case)

    def test_all_residuals_tied(self):
        sh = LatticeShape([3, 2, 4, 2])
        theta = np.random.default_rng(20).standard_normal(sh.num_parameters)
        # dyadic fractions, so that x - floor(x) is exact and the ties are real
        assert_walk_matches_scalar(theta, sh, [[0.25, 0.25, 2.25, 0.25], [1.75, 0.75, 0.75, 0.75]])

    def test_residuals_of_exactly_zero_and_one(self):
        sh = LatticeShape([3, 3, 3, 2])
        theta = np.random.default_rng(21).standard_normal(sh.num_parameters)
        # interior faces give 0, the top face 1 (the last cell is reused)
        pts = [[1.0, 2.0, 0.0, 1.0], [2.0, 2.0, 1.0, 0.5], [0.0, 1.0, 2.0, 0.0], [2.0, 2.0, 2.0, 1.0]]
        assert_walk_matches_scalar(theta, sh, pts)

    def test_one_dimension(self):
        sh = LatticeShape([5])
        theta = np.random.default_rng(22).standard_normal(5)
        assert_walk_matches_scalar(theta, sh, [[0.0], [0.5], [1.0], [3.25], [4.0]])

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_zero_one_and_two_points(self, n):
        sh = LatticeShape([2, 3, 2])
        rng = np.random.default_rng(23 + n)
        theta = rng.standard_normal(sh.num_parameters)
        assert_walk_matches_scalar(theta, sh, rng.random((n, 3)) * [1.0, 2.0, 1.0])

    def test_negative_zero_theta(self):
        # every product is -0.0 or +0.0; a sum that starts at +0.0 is +0.0
        sh = LatticeShape([3, 2, 2])
        pts = batch_points(np.random.default_rng(24), sh)
        assert_walk_matches_scalar(np.full(sh.num_parameters, -0.0), sh, pts)


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
