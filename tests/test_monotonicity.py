import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import (
    ConstraintSet,
    Direction,
    LatticeShape,
    build_constraints,
    check_monotonic,
    describe_violations,
    max_infeasibility,
    project_exact,
    project_update,
    vertex_coords,
)

from scalar_reference import (
    reference_array_walk,
    reference_component_walk,
    reference_project_update,
)

INC = Direction.INCREASING
DEC = Direction.DECREASING
FREE = Direction.NONE


def rows(cs):
    return sorted(zip(cs.lo.tolist(), cs.hi.tolist()))


def pav_increasing(y):
    """Pool-adjacent-violators for a 1-d chain; independent projection oracle."""
    blocks = [[v, 1] for v in y]
    i = 0
    while i < len(blocks) - 1:
        if blocks[i][0] > blocks[i + 1][0] + 0:
            total = blocks[i][0] * blocks[i][1] + blocks[i + 1][0] * blocks[i + 1][1]
            count = blocks[i][1] + blocks[i + 1][1]
            blocks[i : i + 2] = [[total / count, count]]
            i = max(i - 1, 0)
        else:
            i += 1
    out = []
    for value, count in blocks:
        out.extend([value] * count)
    return np.array(out)


class TestBuildConstraints:
    def test_cube_all_increasing(self):
        sh = LatticeShape([2, 2, 2])
        cs = build_constraints(sh, (INC, INC, INC))
        assert cs.num_rows == 12
        assert (0, 1) in rows(cs)

    def test_partial_spec(self):
        sh = LatticeShape([2, 2])
        cs = build_constraints(sh, (INC, FREE))
        assert rows(cs) == [(0, 1), (2, 3)]

    def test_three_by_two(self):
        sh = LatticeShape([3, 2])
        cs = build_constraints(sh, (INC, FREE))
        assert rows(cs) == [(0, 1), (1, 2), (3, 4), (4, 5)]

    def test_decreasing_swaps_sides(self):
        sh = LatticeShape([2, 2])
        cs = build_constraints(sh, (DEC, FREE))
        assert rows(cs) == [(1, 0), (3, 2)]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_cube_count_formula(self, d):
        sh = LatticeShape([2] * d)
        cs = build_constraints(sh, (INC,) * d)
        assert cs.num_rows == d * 2 ** (d - 1)

    @pytest.mark.parametrize("sizes", [[3], [4, 2], [3, 3, 2], [2, 3, 4]])
    def test_general_count_formula(self, sizes):
        sh = LatticeShape(sizes)
        cs = build_constraints(sh, (INC,) * len(sizes))
        expect = sum(
            (m - 1) * math.prod(sizes) // m for m in sizes
        )
        assert cs.num_rows == expect
        # and every row really is one grid step
        for lo, hi in zip(cs.lo, cs.hi):
            a = np.array(vertex_coords(sh, int(lo)))
            b = np.array(vertex_coords(sh, int(hi)))
            assert np.abs(b - a).sum() == 1

    def test_missing_dim_skips_top_slice_chain(self):
        sh = LatticeShape([3, 2])
        cs = build_constraints(sh, (INC, INC), missing_dims={0})
        # along dim 0 only (0,1) per slice; missing column still ordered in dim 1
        assert rows(cs) == [(0, 1), (0, 3), (1, 4), (2, 5), (3, 4)]

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            build_constraints(LatticeShape([2, 2]), (INC,))


class TestCheckMonotonic:
    def test_single_violated_edge(self):
        # increasing left edge, decreasing right edge: one bad row
        sh = LatticeShape([2, 2])
        cs = build_constraints(sh, (INC, INC))
        theta = np.array([0.0, 1.0, 0.4, 0.4])
        bad = check_monotonic(theta, cs)
        assert len(bad) == 1
        report = describe_violations(theta, sh, cs)
        assert report == [((1, 0), (1, 1), pytest.approx(-0.6))]

    def test_feasible_thetas_pass(self):
        sh = LatticeShape([3])
        cs = build_constraints(sh, (INC,))
        assert len(check_monotonic(np.array([0.0, 0.5, 0.5]), cs)) == 0
        assert len(check_monotonic(np.array([1.0, 1.0, 1.0]), cs)) == 0

    def test_tolerance(self):
        sh = LatticeShape([2])
        cs = build_constraints(sh, (INC,))
        theta = np.array([0.0, -1e-13])
        assert len(check_monotonic(theta, cs, tolerance=1e-12)) == 0
        assert len(check_monotonic(theta, cs, tolerance=1e-14)) == 1

    def test_nan_row_is_violated(self):
        cs = chain(3)
        theta = np.array([0.0, np.nan, 1.0])
        assert check_monotonic(theta, cs).tolist() == [0, 1]
        assert max_infeasibility(theta, cs) == math.inf

    def test_infinite_theta_is_infinitely_infeasible(self):
        cs = ConstraintSet(2)
        assert max_infeasibility(np.array([0.0, np.inf]), cs) == math.inf


def chain(n):
    return ConstraintSet(
        n, np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)
    )


class TestProjectUpdate:
    def test_walk_slides_along_boundary(self):
        cs = chain(2)
        out = project_update(np.array([0.3, 0.5]), np.array([0.4, 0.0]), cs)
        assert out == pytest.approx([0.6, 0.6], abs=1e-15)

    def test_no_hit_applies_full_step(self):
        cs = chain(2)
        out = project_update(np.array([0.0, 1.0]), np.array([0.2, -0.1]), cs)
        assert out == pytest.approx([0.2, 0.9], abs=0)

    def test_zero_step(self):
        cs = chain(3)
        theta = np.array([0.0, 0.1, 0.2])
        assert project_update(theta, np.zeros(3), cs) == pytest.approx(theta, abs=0)

    def test_zero_step_result_is_repaired(self):
        # a theta inside the input tolerance comes back exactly feasible,
        # whether or not the step moves it
        cs = chain(2)
        for step in ([0.0, 0.0], [0.0, 1e-20]):
            out = project_update(np.array([1e-10, 0.0]), np.array(step), cs)
            assert out.tolist() == [1e-10, 1e-10]
            assert max_infeasibility(out, cs) == 0.0

    def test_corner_stops_motion(self):
        # pair constraint plus an upper bound meet at (1, 1); both freeze
        cs = ConstraintSet(
            2,
            np.array([0]),
            np.array([1]),
            upper=np.array([np.inf, 1.0]),
        )
        out, active = project_update(
            np.array([0.8, 0.9]), np.array([0.4, 0.2]), cs, return_active=True
        )
        assert out == pytest.approx([1.0, 1.0], abs=1e-12)
        assert len(active) == 2

    def test_simultaneous_hits_all_added(self):
        cs = chain(3)
        out, active = project_update(
            np.array([0.0, 1.0, 2.0]),
            np.array([2.0, 0.0, -2.0]),
            cs,
            return_active=True,
        )
        assert sorted(active) == [0, 1]
        assert out == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    def test_box_bound_clamps(self):
        cs = ConstraintSet(1, lower=np.array([0.0]))
        out = project_update(np.array([0.5]), np.array([-1.0]), cs)
        assert out == pytest.approx([0.0], abs=0)

    def test_infeasible_input_rejected(self):
        cs = chain(2)
        with pytest.raises(ValueError):
            project_update(np.array([1.0, 0.0]), np.array([0.0, 0.0]), cs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, bad):
        with pytest.raises(ValueError, match="theta has a non-finite entry"):
            project_update(np.array([0.0, bad, 1.0]), np.zeros(3), chain(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_step_rejected(self, bad):
        with pytest.raises(ValueError, match="step has a non-finite entry"):
            project_update(np.array([0.0, 0.5, 1.0]), np.array([0.1, bad, 0.0]), chain(3))

    def test_steps_too_large_to_square_still_walk(self):
        shape = LatticeShape((2, 2))
        cs = build_constraints(shape, (INC, INC))
        theta = np.array([0.0, 0.5, 0.5, 1.0])
        step = 1e199 * np.array([-0.3, -0.1, 0.2, 0.35])
        out = project_update(theta, step, cs)
        assert not np.array_equal(out, theta)
        assert np.all(np.isfinite(out))
        assert max_infeasibility(out, cs) <= 1e-12 * 1e199

    def test_feasibility_invariant_random_walks(self):
        rng = np.random.default_rng(0)
        for sizes, dirs in [
            ([4], (INC,)),
            ([3, 3], (INC, DEC)),
            ([2, 2, 2], (INC, INC, FREE)),
        ]:
            sh = LatticeShape(sizes)
            cs = build_constraints(sh, dirs)
            cs.lower = np.full(sh.num_parameters, -2.0)
            cs.upper = np.full(sh.num_parameters, 2.0)
            theta = np.zeros(sh.num_parameters)
            for _ in range(300):
                step = rng.standard_normal(sh.num_parameters) * 0.5
                theta = project_update(theta, step, cs)
                assert max_infeasibility(theta, cs) <= 1e-12

    def test_chain_with_bounds_exactly_feasible(self):
        # the calibrator layout: a nondecreasing chain bounded below at its
        # first entry and above at its last, checked at tolerance 0
        rng = np.random.default_rng(2)
        for n in (2, 3, 5):
            cs = chain(n)
            cs.lower = np.full(n, -np.inf)
            cs.upper = np.full(n, np.inf)
            cs.lower[0], cs.upper[-1] = 0.0, 1.0
            theta = np.linspace(0.0, 1.0, n)
            for _ in range(300):
                theta = project_update(theta, rng.standard_normal(n) * 0.5, cs)
                assert max_infeasibility(theta, cs) == 0.0

    def test_tight_row_next_to_clipped_bound(self):
        # entry 0 sits a hair below its bound, tied to entry 1 by a tight
        # row: lifting entry 0 alone would break the row
        cs = chain(3)
        cs.lower = np.array([0.0, -np.inf, -np.inf])
        theta = np.array([-1e-19, -1e-19, 0.5])
        out = project_update(theta, np.array([0.0, 0.0, 0.25]), cs)
        assert out.tolist() == [0.0, 0.0, 0.75]
        assert max_infeasibility(out, cs) == 0.0

    def test_single_hit_agrees_with_exact_projection(self):
        rng = np.random.default_rng(1)
        num_checked = 0
        while num_checked < 200:
            n = int(rng.integers(2, 7))
            cs = chain(n)
            theta = np.sort(rng.standard_normal(n))
            step = rng.standard_normal(n) * rng.choice([0.05, 0.3, 1.0])
            out, active = project_update(theta, step, cs, return_active=True)
            if len(active) > 1:
                continue
            exact = project_exact(theta + step, cs)
            assert out == pytest.approx(exact, abs=1e-10)
            num_checked += 1


class TestWalkMatchesRowScan:
    """The array scan in project_update against the row-at-a-time component
    walk."""

    def sets(self, rng):
        for n in (2, 3, 6, 12):
            cs = chain(n)
            cs.lower = np.where(rng.random(n) < 0.5, -1.0, -np.inf)
            cs.upper = np.where(rng.random(n) < 0.5, 1.0, np.inf)
            yield cs
        for sizes, dirs in (
            ([3, 3], (INC, INC)),
            ([2, 3, 4], (INC, DEC, FREE)),
            ([2] * 6, (INC,) * 6),
            ([3, 2, 2, 2], (DEC, INC, INC, FREE)),
        ):
            cs = build_constraints(LatticeShape(sizes), dirs)
            p = cs.num_parameters
            cs.lower = np.where(rng.random(p) < 0.3, -1.0, -np.inf)
            cs.upper = np.where(rng.random(p) < 0.3, 1.0, np.inf)
            yield cs

    def test_walks_agree_bit_for_bit(self):
        rng = np.random.default_rng(21)
        multi_hit = 0
        for cs in self.sets(rng):
            p = cs.num_parameters
            # feasible starts with every row tight (some slacks -0.0), the
            # last one on every lower bound, so one step can hit several at once
            signed_zeros = np.where(rng.random(p) < 0.5, -0.0, 0.0)
            for theta in (np.zeros(p), signed_zeros, np.full(p, -1.0)):
                for _ in range(60):
                    step = rng.standard_normal(p) * rng.choice([0.01, 0.3, 2.0])
                    if rng.random() < 0.3:
                        step = np.round(step)  # whole steps: ties between hit times
                    got, active = project_update(theta, step, cs, return_active=True)
                    ref, ref_active = reference_component_walk(theta, step, cs, return_active=True)
                    assert got.tobytes() == ref.tobytes()
                    assert active == ref_active
                    multi_hit += len(active) > 1
                    theta = got
        assert multi_hit > 50

    def test_no_rows_or_zero_step(self):
        cs = ConstraintSet(3)
        theta = np.array([0.0, 1.0, 2.0])
        for step in (np.zeros(3), np.array([1.0, -1.0, 0.5])):
            got = project_update(theta, step, cs, return_active=True)
            ref = reference_project_update(theta, step, cs, return_active=True)
            assert got[0].tolist() == ref[0].tolist() and got[1] == ref[1]


@st.composite
def walk_problems(draw):
    """A chain or a grid set, with or without box bounds, a feasible start
    on the boundary (the oracle's walk from zero, or signed zeros), and
    steps of several sizes: zero, small, and large enough to hit many rows
    at once."""
    if draw(st.booleans()):
        cs = chain(draw(st.integers(2, 12)))
    else:
        sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
        dirs = tuple(draw(st.sampled_from([INC, DEC, FREE])) for _ in sizes)
        cs = build_constraints(LatticeShape(sizes), dirs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = cs.num_parameters
    if draw(st.booleans()):
        # bounds at 0.0 meet entries at -0.0, which clipping turns into +0.0
        cs.lower = np.where(rng.random(p) < 0.5, rng.choice([-1.0, 0.0], p), -np.inf)
        cs.upper = np.where(rng.random(p) < 0.5, rng.choice([0.0, 1.0], p), np.inf)
    if draw(st.booleans()):
        start = reference_array_walk(np.zeros(p), rng.standard_normal(p), cs)
    else:
        start = np.where(rng.random(p) < 0.5, -0.0, 0.0)  # every row and 0.0 bound tight
    scales = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]), min_size=1, max_size=6))
    steps = []
    for scale in scales:
        step = rng.standard_normal(p) * scale
        if draw(st.booleans()):
            step = np.round(step)  # whole steps: ties between hit times
        steps.append(step)
    return cs, start, steps


class TestWalkMatchesOracle:
    """project_update against the row-scan component walk, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(walk_problems())
    def test_result_and_active_rows(self, problem):
        cs, theta, steps = problem
        for step in steps:
            got, active = project_update(theta, step, cs, return_active=True)
            ref, ref_active = reference_component_walk(theta, step, cs, return_active=True)
            assert got.tobytes() == ref.tobytes()
            assert active == ref_active
            assert max_infeasibility(got, cs) == 0.0
            theta = got

    def test_hit_counts_covered(self):
        # the strategy's steps reach no hit, one hit and many hits
        rng = np.random.default_rng(3)
        seen = set()
        for scale in (1e-3, 0.1, 10.0):
            cs = build_constraints(LatticeShape([3, 3]), (INC, INC))
            theta = reference_array_walk(np.zeros(9), rng.standard_normal(9), cs)
            for _ in range(20):
                step = rng.standard_normal(9) * scale
                got, active = project_update(theta, step, cs, return_active=True)
                ref, ref_active = reference_component_walk(theta, step, cs, return_active=True)
                assert got.tobytes() == ref.tobytes() and active == ref_active
                seen.add(min(len(active), 2))
                theta = got
        assert seen == {0, 1, 2}


class TestWalkMatchesGramSchmidt:
    """project_update against the Gram-Schmidt walk that orthogonalised
    each hit normal against the earlier ones."""

    @settings(max_examples=300, deadline=None)
    @given(walk_problems())
    def test_results_agree_on_non_whole_steps(self, problem):
        # whole-number steps can tie hit times exactly, and there the old
        # walk may freeze a row through a roundoff rate of about -1e-17
        cs, theta, steps = problem
        for step in steps:
            got = project_update(theta, step, cs)
            if not np.array_equal(step, np.round(step)):
                ref = reference_array_walk(theta, step, cs)
                assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(step))
            theta = got

    def test_implied_row_is_never_hit(self):
        # rows 0, 2 and 3 join all four vertices of the square, so row 1
        # (vertex 2 to 3) is implied: both its ends move by the same mean.
        # The old walk froze it through a roundoff rate.
        cs = build_constraints(LatticeShape([2, 2]), (INC, INC))
        theta = np.full(4, 0.625)
        step = np.array([0.0, -0.375, -0.875, -0.75])
        got, active = project_update(theta, step, cs, return_active=True)
        ref, ref_active = reference_array_walk(theta, step, cs, return_active=True)
        assert active == [0, 2, 3]
        assert ref_active == [0, 2, 3, 1]
        assert got.tolist() == ref.tolist() == [0.125] * 4


class TestProjectExact:
    def test_feasible_point_fixed(self):
        cs = chain(3)
        theta = np.array([0.0, 0.2, 0.9])
        assert project_exact(theta, cs) == pytest.approx(theta, abs=1e-12)

    def test_two_point_swap(self):
        cs = chain(2)
        assert project_exact(np.array([1.0, 0.0]), cs) == pytest.approx(
            [0.5, 0.5], abs=1e-10
        )

    def test_three_point_chain(self):
        cs = chain(3)
        assert project_exact(np.array([3.0, 1.0, 2.0]), cs) == pytest.approx(
            [2.0, 2.0, 2.0], abs=1e-10
        )

    def test_matches_pav_on_random_chains(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            y = rng.standard_normal(n) * 3
            got = project_exact(y, chain(n))
            assert got == pytest.approx(pav_increasing(y), abs=1e-8)

    def test_respects_box_bounds(self):
        cs = ConstraintSet(
            2,
            np.array([0]),
            np.array([1]),
            lower=np.array([0.0, 0.0]),
            upper=np.array([1.0, 1.0]),
        )
        out = project_exact(np.array([0.9, 0.05]), cs)
        assert max_infeasibility(out, cs) <= 1e-9
        assert out[1] >= out[0] - 1e-10

    def test_refuses_large_problems(self):
        with pytest.raises(ValueError):
            project_exact(np.zeros(65), chain(65))

    def test_grid_projection_feasible_and_no_worse(self):
        # 2-d grid: exact projection is feasible and at least as close as the
        # walk's result
        sh = LatticeShape([3, 3])
        cs = build_constraints(sh, (INC, INC))
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.standard_normal(9)
            exact = project_exact(z, cs)
            assert max_infeasibility(exact, cs) <= 1e-9
            start = np.zeros(9)
            walked = project_update(start, z, cs)
            assert np.linalg.norm(exact - z) <= np.linalg.norm(walked - z) + 1e-8
