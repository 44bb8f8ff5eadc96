import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import (
    LatticeShape,
    locate_cell,
    locate_cells,
    vertex_coords,
    vertex_index,
)
from monolattice.lattice import CellLocation


class TestShape:
    def test_strides_are_running_products(self):
        sh = LatticeShape([2, 3, 4])
        assert sh.sizes == (2, 3, 4)
        assert sh.strides == (1, 2, 6)
        assert sh.num_parameters == 24

    def test_rejects_undersized_dimension(self):
        with pytest.raises(ValueError):
            LatticeShape([2, 1])

    def test_rejects_oversized_lattice(self):
        with pytest.raises(ValueError):
            LatticeShape([2] * 31)
        LatticeShape([2] * 30)  # exactly the cap is fine

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LatticeShape([])


class TestVertexIndex:
    def test_examples(self):
        sh = LatticeShape([2, 2])
        assert vertex_index(sh, (0, 0)) == 0
        assert vertex_index(sh, (1, 0)) == 1
        assert vertex_index(sh, (0, 1)) == 2
        assert vertex_index(sh, (1, 1)) == 3
        sh32 = LatticeShape([3, 2])
        assert vertex_index(sh32, (2, 1)) == 5

    def test_out_of_range(self):
        sh = LatticeShape([2, 2])
        with pytest.raises(ValueError):
            vertex_index(sh, (2, 0))
        with pytest.raises(ValueError):
            vertex_index(sh, (0, -1))

    def test_coords_examples(self):
        sh = LatticeShape([3, 2])
        assert vertex_coords(sh, 0) == (0, 0)
        assert vertex_coords(sh, 4) == (1, 1)
        with pytest.raises(ValueError):
            vertex_coords(sh, 6)

    @pytest.mark.parametrize(
        "sizes",
        [[2] * 12, [16, 16, 16], [3, 4, 5, 6], [4096], [2, 2048]],
    )
    def test_round_trip_exhaustive(self, sizes):
        sh = LatticeShape(sizes)
        assert sh.num_parameters <= 4096
        for idx in range(sh.num_parameters):
            coords = vertex_coords(sh, idx)
            assert vertex_index(sh, coords) == idx

    def test_adjacent_vertices_differ_by_stride(self):
        sh = LatticeShape([3, 4, 2])
        rng = np.random.default_rng(7)
        for _ in range(500):
            coords = [rng.integers(0, m) for m in sh.sizes]
            d = rng.integers(0, sh.ndim)
            if coords[d] + 1 >= sh.sizes[d]:
                continue
            up = list(coords)
            up[d] += 1
            assert vertex_index(sh, up) - vertex_index(sh, coords) == sh.strides[d]


class TestLocateCell:
    def test_interior(self):
        sh = LatticeShape([3, 2])
        loc = locate_cell(sh, (1.25, 0.5))
        assert loc.base == (1, 0)
        assert loc.residual == (0.25, 0.5)

    def test_upper_boundary_reuses_last_cell(self):
        sh = LatticeShape([3, 2])
        loc = locate_cell(sh, (2.0, 1.0))
        assert loc.base == (1, 0)
        assert loc.residual == (1.0, 1.0)

    def test_vertex_point(self):
        sh = LatticeShape([3, 2])
        loc = locate_cell(sh, (1.0, 0.0))
        assert loc.base == (1, 0)
        assert loc.residual == (0.0, 0.0)

    def test_outside_box(self):
        sh = LatticeShape([3, 2])
        with pytest.raises(ValueError):
            locate_cell(sh, (-0.01, 0.5))
        with pytest.raises(ValueError):
            locate_cell(sh, (2.01, 0.5))

    def test_random_invariants(self):
        rng = np.random.default_rng(11)
        shapes = [LatticeShape(rng.integers(2, 6, size=d)) for d in range(1, 7)]
        for sh in shapes:
            top = np.array(sh.sizes) - 1.0
            pts = rng.random((2000, sh.ndim)) * top
            for x in pts:
                loc = locate_cell(sh, x)
                for d in range(sh.ndim):
                    assert 0 <= loc.base[d] <= sh.sizes[d] - 2
                    assert 0.0 <= loc.residual[d] <= 1.0
                    assert loc.base[d] + loc.residual[d] == pytest.approx(x[d], abs=1e-12)

    def test_batch_matches_scalar(self):
        sh = LatticeShape([3, 4, 2])
        rng = np.random.default_rng(3)
        pts = rng.random((300, 3)) * (np.array(sh.sizes) - 1.0)
        pts[:10] = np.array(sh.sizes) - 1.0  # exercise the top corner
        base, residual = locate_cells(sh, pts)
        for i, x in enumerate(pts):
            loc = locate_cell(sh, x)
            assert tuple(base[i]) == loc.base
            assert np.allclose(residual[i], loc.residual, atol=0)

    @given(
        st.lists(st.integers(2, 5), min_size=1, max_size=5).flatmap(
            lambda sizes: st.tuples(
                st.just(sizes),
                st.lists(
                    st.floats(0.0, 1.0, allow_nan=False),
                    min_size=len(sizes),
                    max_size=len(sizes),
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_locate_cell_property(self, case):
        sizes, unit = case
        sh = LatticeShape(sizes)
        x = [u * (m - 1) for u, m in zip(unit, sizes)]
        loc = locate_cell(sh, x)
        assert isinstance(loc, CellLocation)
        vertex_index(sh, loc.base)  # base is a valid vertex
        for d in range(sh.ndim):
            assert 0.0 <= loc.residual[d] <= 1.0
            assert loc.base[d] + loc.residual[d] == pytest.approx(x[d], abs=1e-9)
