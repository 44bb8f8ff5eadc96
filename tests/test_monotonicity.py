import copy
import math
import pickle
import sys
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace

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
    project_update,
    vertex_coords,
)
from monolattice import monotonicity
from monolattice.monotonicity import _hits_within_step

from scalar_reference import (
    project_exact,
    reference_array_walk,
    reference_component_walk,
    reference_max_infeasibility,
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

    def test_sets_are_built_once_per_shape_and_shared_read_only(self):
        sh = LatticeShape([3, 2, 2])
        cs = build_constraints(sh, (INC, DEC, FREE), {0})
        # the same directions and missing dims spelled otherwise
        assert build_constraints(sh, ["increasing", "decreasing", "none"], frozenset([0])) is cs
        assert build_constraints(sh, (INC, DEC, FREE)) is not cs
        for array in (cs.lo, cs.hi):
            with pytest.raises(ValueError):
                array[0] = 0
        assert monotonicity._constraints.cache_parameters()["maxsize"] == monotonicity._CACHED_SETS
        monotonicity._constraints.cache_clear()
        fresh = build_constraints(sh, (INC, DEC, FREE), {0})
        assert fresh is not cs and rows(fresh) == rows(cs)


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


class TestMaxInfeasibility:
    """``max_infeasibility`` reads the bounds through the walk's
    ``_finite_bounds`` and gives the masked scan's value, bit for bit."""

    INF = np.inf

    def sets(self):
        inf = self.INF
        return {
            "no rows": ConstraintSet(3),
            "no rows, bounds": ConstraintSet(3, lower=[0.0, -inf, -1.0], upper=[inf, 2.0, 0.5]),
            "infinite bounds": replace(chain(3), lower=[-inf] * 3, upper=[inf] * 3),
            "mixed bounds": replace(chain(3), lower=[0.0, -inf, -inf], upper=[inf, inf, 1.0]),
            "lower only": replace(chain(3), lower=[-0.0, 0.0, -inf]),
            "upper only": replace(chain(3), upper=[inf, 0.0, -0.0]),
        }

    THETAS = [
        [0.0, 0.5, 1.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [1.0, 0.5, 2.0],
        [-3.0, 4.0, 0.25], [5e-324, 0.0, -5e-324], [-1e308, 1e308, 1e308],
        [0.0, np.nan, 1.0], [np.inf, 0.0, 1.0], [0.0, 0.0, -np.inf],
    ]

    def test_matches_the_masked_scan(self):
        for name, cs in self.sets().items():
            for theta in self.THETAS:
                got = max_infeasibility(np.array(theta), cs)
                with np.errstate(over="ignore"):  # the reference warns on -1e308
                    want = reference_max_infeasibility(np.array(theta), cs)
                assert got.hex() == want.hex(), (name, theta)

    def test_random_sets(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            bounds = rng.choice([-np.inf, np.inf, -1.0, 0.0, 0.5], size=(2, n))
            lo = rng.integers(0, n, size=int(rng.integers(0, 4)))
            hi = rng.integers(0, n, size=len(lo))
            cs = ConstraintSet(n, lo, hi, bounds.min(axis=0), bounds.max(axis=0))
            theta = rng.choice([-1.0, -0.0, 0.0, 0.25, 2.0], size=n)
            got = max_infeasibility(theta, cs)
            assert got.hex() == reference_max_infeasibility(theta, cs).hex()

    def test_a_slack_that_overflows_is_feasible_without_a_warning(self):
        # th[hi] - th[lo] rounds to +inf: feasible, and numpy's overflow
        # warning is not raised (the suite makes it an error)
        assert max_infeasibility(np.array([-1e308, 1e308]), chain(2)) == 0.0
        assert check_monotonic(np.array([-1e308, 1e308]), chain(2)).tolist() == []
        assert max_infeasibility(np.array([1e308, -1e308]), chain(2)) == math.inf


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
            cs = replace(
                build_constraints(sh, dirs),
                lower=np.full(sh.num_parameters, -2.0),
                upper=np.full(sh.num_parameters, 2.0),
            )
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
            lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
            lower[0], upper[-1] = 0.0, 1.0
            cs = replace(chain(n), lower=lower, upper=upper)
            theta = np.linspace(0.0, 1.0, n)
            for _ in range(300):
                theta = project_update(theta, rng.standard_normal(n) * 0.5, cs)
                assert max_infeasibility(theta, cs) == 0.0

    def test_tight_row_next_to_clipped_bound(self):
        # entry 0 sits a hair below its bound, tied to entry 1 by a tight
        # row: lifting entry 0 alone would break the row
        cs = replace(chain(3), lower=np.array([0.0, -np.inf, -np.inf]))
        theta = np.array([-1e-19, -1e-19, 0.5])
        out = project_update(theta, np.array([0.0, 0.0, 0.25]), cs)
        assert out.tolist() == [0.0, 0.0, 0.75]
        assert max_infeasibility(out, cs) == 0.0

    def test_constraint_set_is_a_frozen_value(self):
        lower = np.array([0.0, -np.inf, -np.inf])
        cs = ConstraintSet(3, [0, 1], [1, 2], lower=lower)
        lower[0] = 5.0  # the set holds its own copy
        assert cs.lower.tolist() == [0.0, -np.inf, -np.inf]
        assert cs.lo.dtype == np.int64 and cs.upper is None
        with pytest.raises(FrozenInstanceError):
            cs.lower = np.zeros(3)
        for array in (cs.lo, cs.hi, cs.lower):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_walk_rows_are_built_once_per_set(self, monkeypatch):
        built = []
        real = monotonicity._Rows

        def counting(constraints):
            built.append(constraints)
            return real(constraints)

        monkeypatch.setattr(monotonicity, "_Rows", counting)
        cs = replace(chain(3), lower=np.array([0.0, -np.inf, -np.inf]),
                     upper=np.array([np.inf, np.inf, 1.0]))
        theta = np.array([0.1, 0.5, 0.9])
        for step in ([0.0, 0.0, 0.0], [0.01, -0.02, 0.03], [-1.0, 0.0, 1.0]):
            theta = project_update(theta, np.array(step), cs)
        assert built == [cs]
        wider = replace(cs, upper=None)  # a new set gets its own rows
        project_update(theta, np.array([0.0, 0.0, 5.0]), wider)
        assert built == [cs, wider]

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
            yield replace(
                chain(n),
                lower=np.where(rng.random(n) < 0.5, -1.0, -np.inf),
                upper=np.where(rng.random(n) < 0.5, 1.0, np.inf),
            )
        for sizes, dirs in (
            ([3, 3], (INC, INC)),
            ([2, 3, 4], (INC, DEC, FREE)),
            ([2] * 6, (INC,) * 6),
            ([3, 2, 2, 2], (DEC, INC, INC, FREE)),
        ):
            cs = build_constraints(LatticeShape(sizes), dirs)
            p = cs.num_parameters
            yield replace(
                cs,
                lower=np.where(rng.random(p) < 0.3, -1.0, -np.inf),
                upper=np.where(rng.random(p) < 0.3, 1.0, np.inf),
            )

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
    at once, some of them along a direction that crosses nothing."""
    if draw(st.booleans()):
        cs = chain(draw(st.integers(2, 12)))
    else:
        sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
        dirs = tuple(draw(st.sampled_from([INC, DEC, FREE])) for _ in sizes)
        cs = build_constraints(LatticeShape(sizes), dirs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = cs.num_parameters
    # the feasible directions: the rows hold on them and they are 0 on
    # every entry with a finite bound, so from a feasible theta they cross
    # nothing
    cone = cs
    if draw(st.booleans()):
        # bounds at 0.0 meet entries at -0.0, which clipping turns into +0.0
        cs = replace(
            cs,
            lower=np.where(rng.random(p) < 0.5, rng.choice([-1.0, 0.0], p), -np.inf),
            upper=np.where(rng.random(p) < 0.5, rng.choice([0.0, 1.0], p), np.inf),
        )
        bounded = np.isfinite(cs.lower) | np.isfinite(cs.upper)
        cone = replace(
            cs, lower=np.where(bounded, 0.0, -np.inf), upper=np.where(bounded, 0.0, np.inf)
        )
    if draw(st.booleans()):
        start = reference_array_walk(np.zeros(p), rng.standard_normal(p), cs)
    else:
        start = np.where(rng.random(p) < 0.5, -0.0, 0.0)  # every row and 0.0 bound tight
    scales = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]), min_size=1, max_size=6))
    steps = []
    for scale in scales:
        step = rng.standard_normal(p) * scale
        if draw(st.booleans()):
            step = reference_array_walk(np.zeros(p), step, cone)  # crosses nothing
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


class TestNoHitExit:
    """A step that crosses nothing from an exactly feasible theta skips the
    repair's row scans and keeps only its bound clamps; the result still
    equals the component walk's, byte for byte."""

    def walk(self, theta, step, cs):
        got, active = project_update(np.array(theta), np.array(step), cs, return_active=True)
        ref, ref_active = reference_component_walk(theta, step, cs, return_active=True)
        assert active == ref_active == []
        assert got.tobytes() == ref.tobytes()
        return got

    def test_signed_zero_on_a_zero_upper_bound(self):
        # -0.0 + -0.0 stays -0.0 at the bound; np.minimum(-0.0, 0.0) is +0.0
        upper = np.array([np.inf, 0.0])
        for cs in (ConstraintSet(2, upper=upper), replace(chain(2), upper=upper)):
            got = self.walk([0.0, -0.0], [-0.0, -0.0], cs)
            assert not np.signbit(got).any()

    def test_signed_zero_on_a_zero_lower_bound(self):
        cs = replace(chain(2), lower=np.array([0.0, -np.inf]))
        got = self.walk([-0.0, 0.5], [-0.0, 0.25], cs)
        assert got.tolist() == [0.0, 0.75] and not np.signbit(got).any()

    def test_input_within_tolerance_is_still_repaired(self):
        # row 0 is 1e-10 short: the rows are scanned, whether or not the
        # step moves theta
        cs = chain(3)
        for step in ([0.0, 0.0, 0.0], [1e-3, 1e-3, 0.5]):
            got = self.walk([1e-10, 0.0, 1.0], step, cs)
            assert max_infeasibility(got, cs) == 0.0

    def test_zero_step(self):
        cs = replace(
            chain(3), lower=np.array([0.0, -np.inf, -np.inf]), upper=np.array([np.inf, np.inf, 1.0])
        )
        for step in ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]):
            got = self.walk([-0.0, 0.5, 1.0], step, cs)
            assert got.tolist() == [0.0, 0.5, 1.0] and not np.signbit(got).any()

    def test_sum_that_overflows(self):
        # theta + step rounds to -inf at one end of a row and to +inf at
        # both ends of another, where inf >= inf still holds
        with np.errstate(over="ignore"):
            got = self.walk([-1e308, 0.0, 1e308], [-1e308, 0.0, 0.0], chain(3))
            assert got.tolist() == [-np.inf, 0.0, 1e308]
            got = self.walk([1e308, 1.5e308], [1e308, 1e308], chain(2))
            assert got.tolist() == [np.inf, np.inf]

    def test_oracle_problems_include_steps_that_cross_nothing(self):
        # walk_problems reaches the exit with nonzero steps, on sets with
        # and without bounds, so TestWalkMatchesOracle covers it
        crossed_nothing = {"bounds": 0, "no bounds": 0}

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(walk_problems())
        def count(problem):
            cs, theta, steps = problem
            for step in steps:
                theta, active = project_update(theta, step, cs, return_active=True)
                if step.any() and not active:
                    crossed_nothing["bounds" if cs.lower is not None else "no bounds"] += 1

        count()
        assert min(crossed_nothing.values()) > 10, crossed_nothing


class TestWorkspace:
    """The walk's scratch arrays live as long as the constraint set, and no
    two calls share them or their results."""

    def problem(self):
        cs = build_constraints(LatticeShape([3, 3, 2, 2, 2]), (INC, DEC, INC, INC, FREE))
        p = cs.num_parameters
        cs = replace(cs, lower=np.full(p, -1.0), upper=np.full(p, 1.0))
        rng = np.random.default_rng(5)
        theta = reference_array_walk(np.zeros(p), rng.standard_normal(p), cs)
        # small steps cross nothing, larger ones hit rows and bounds
        steps = [rng.standard_normal(p) * scale for scale in (1e-3, 0.1, 1.0) * 10]
        return cs, theta, steps

    def serial(self, cs, theta, steps):
        out = []
        for step in steps:
            theta = project_update(theta, step, cs)
            out.append(theta.tobytes())
        return out

    def test_results_are_fresh_arrays_and_steps_are_only_read(self):
        cs, theta, steps = self.problem()
        for array in (theta, *steps):
            array.flags.writeable = False
        first = project_update(theta, steps[0], cs)
        kept = first.copy()
        second = project_update(theta, steps[1], cs)
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second) and not np.shares_memory(first, theta)
        first[:] = 5.0
        assert project_update(theta, steps[1], cs).tobytes() == second.tobytes()

    def test_threads_sharing_a_set_match_serial_calls(self):
        cs, theta, steps = self.problem()
        expected = self.serial(cs, theta, steps)
        results = {}
        barrier = threading.Barrier(3)

        def run(k):
            barrier.wait()
            results[k] = self.serial(cs, theta, steps)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {k: expected for k in range(3)}

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda cs: pickle.loads(pickle.dumps(cs))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_after_a_walk(self, clone):
        cs, theta, steps = self.problem()
        expected = self.serial(cs, theta, steps)
        twin = clone(cs)
        assert twin._rows is not cs._rows
        for name in ("lo", "hi", "lower", "upper"):
            assert np.array_equal(getattr(twin, name), getattr(cs, name))
            assert not getattr(twin, name).flags.writeable
        assert self.serial(twin, theta, steps) == expected
        assert self.serial(cs, theta, steps) == expected

    def test_step_that_crosses_nothing_allocates_no_row_sized_arrays(self):
        # a 2^10 lattice has 5,120 rows; a float per row is 40 KiB
        cs = build_constraints(LatticeShape([2] * 10), (INC,) * 10)
        theta = np.array([bin(v).count("1") for v in range(1024)], dtype=float)  # slack 1
        step = np.random.default_rng(0).standard_normal(1024) * 1e-3
        project_update(theta, step, cs)  # builds the rows and a workspace
        tracemalloc.start()
        try:
            out, active = project_update(theta, step, cs, return_active=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert active == [] and out.tobytes() == (theta + step).tobytes()
        assert peak <= 64 * 1024

    @pytest.mark.parametrize("dent", [0.0, 1e-17])
    def test_roundoff_repair_allocates_no_row_sized_arrays(self, dent):
        # the repair's scans gather into the walk's workspace: at 5,120 rows
        # a row-sized float array alone is 40 KiB.  Raising the bottom
        # vertex of a flat theta by roundoff makes the repair raise every
        # entry, one scan per level of the cube.
        cs = build_constraints(LatticeShape([2] * 10), (INC,) * 10)
        rows = cs._rows
        work = rows.workspace()
        repaired = np.zeros(1024)
        repaired[0] = dent
        rows.remove_roundoff(repaired.copy(), work)  # anything built once is built now
        tracemalloc.start()
        try:
            rows.remove_roundoff(repaired, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max_infeasibility(repaired, cs) == 0.0
        assert repaired.tobytes() == np.full(1024, dent).tobytes()
        assert peak <= 16 * 1024


class TestOverflowingStep:
    def test_a_step_whose_norm_overflows_is_walked_to_its_end(self):
        # the step's norm is inf, so a stop test against it stopped the walk
        # after its first hit, dropping the rest of the step
        cs = ConstraintSet(5, [0], [1])
        theta = np.array([0.0, 0.5, 0.0, 0.0, 0.0])
        step = np.array([0.8e308, 0.7e308, 1e308, 1e308, 1e308])
        got, active = project_update(theta, step, cs, return_active=True)
        # the first pass stops where row 0 closes; the rest of the step is
        # then averaged over entries 0 and 1 and walked to its end
        t = 0.5 / (step[0] - step[1])
        mid = theta + t * step
        rest = (1.0 - t) * step
        rest[:2] = (rest[0] + rest[1]) / 2.0
        assert active == [0]
        assert got.tobytes() == (mid + rest).tobytes()
        assert np.isfinite(got).all() and got[1] >= got[0]
        assert got.tolist() == [7.5e307, 7.5e307, 1e308, 1e308, 1e308]

    def test_a_component_whose_sum_overflows_is_averaged_to_its_end(self):
        # after the hit the rest of the step is averaged over entries 0 and
        # 1, whose sum passes the float limit; the pass is redone on the
        # rest over its largest entry, and scaled back
        cs = ConstraintSet(2, [0], [1])
        theta = np.array([0.0, 0.5])
        step = np.array([1.5e308, 1.4e308])
        got, active = project_update(theta, step, cs, return_active=True)
        t = 0.5 / (step[0] - step[1])
        mid = theta + t * step
        rest = (1.0 - t) * step / step[0]
        assert active == [0]
        assert got.tobytes() == (mid + (rest[0] + rest[1]) / 2.0 * step[0]).tobytes()
        assert np.isfinite(got).all() and max_infeasibility(got, cs) == 0.0
        assert got[1] >= got[0]


    def test_rows_ends_that_overflow_their_closing_rate(self):
        # direction[lo] - direction[hi] rounds to +inf: the hit time is
        # taken from the ends halved, so the walk stops where the row closes
        # (it stopped at once, at the time 0.5 / inf), with no warning
        cs = ConstraintSet(2, [0], [1])
        got, active = project_update(
            np.array([0.0, 0.5]), np.array([1e308, -1e308]), cs, return_active=True
        )
        assert active == [0]
        assert got[0] == got[1] == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("gap", [1.5e-9, 1.0])
    def test_a_row_whose_closing_rate_overflows_keeps_its_infeasibility(self, gap):
        # the halved ends serve the hit time only: the input check reads the
        # row's whole slack, -gap, which is more than 1e-9 infeasible
        with pytest.raises(ValueError, match="theta violates the constraints"):
            project_update(
                np.array([gap, 0.0]), np.array([1e308, -1e308]), ConstraintSet(2, [0], [1])
            )

    def test_an_infeasible_theta_within_tolerance_under_an_overflowing_rate(self):
        # a slack of -5e-10 passes the input check and is repaired: the
        # result is exactly feasible
        cs = ConstraintSet(2, [0], [1])
        got = project_update(np.array([5e-10, 0.0]), np.array([1e308, -1e308]), cs)
        assert got[1] >= got[0] and max_infeasibility(got, cs) == 0.0

    @pytest.mark.parametrize(
        "theta, step, want",
        [
            ([-1e308, 1e308], [0.0, 0.0], [-1e308, 1e308]),
            ([-1e308, 1e308], [1.0, -1.0], [-1e308, 1e308]),
            ([-1e308, 1e308], [1e307, -1e307], [-9e307, 9e307]),
            # slack and closing rate both overflow: the row closes at t = 1
            ([-1e308, 1e308], [1e308, -1e308], [0.0, 0.0]),
            # ... or before the end of the step
            ([-1e308, 1e308], [1.7e308, -1.7e308], None),
            # ... or not at all, its time being 1.5
            ([-1.5e308, 1.5e308], [1e308, -1e308], [-5e307, 5e307]),
        ],
    )
    def test_a_feasible_theta_whose_slack_overflows(self, theta, step, want):
        # no warning: the suite makes numpy's overflow warning an error
        got = project_update(np.array(theta), np.array(step), ConstraintSet(2, [0], [1]))
        assert got[1] >= got[0]
        if want is None:
            assert got[0] == got[1] == pytest.approx(0.0, abs=1e293)
        else:
            assert got.tolist() == pytest.approx(want, rel=1e-15)


# slacks and rates: any finite float, subnormals, values near the overflow
# threshold and signed zeros, so that s / q underflows, overflows or ties 1
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 1.7976931348623157e308,
                -1.7976931348623157e308, 8.98846567431158e307]
_walk_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.sampled_from(_EDGE_FLOATS),
)


class TestHitTestWithoutDivision:
    """The first pass's hit test, ``max(s, 0) <= -rate`` for rate < 0,
    against the walk's ``t = max(s, 0) / -rate <= 1``."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(_walk_floats, _walk_floats), min_size=1, max_size=8))
    def test_matches_the_division(self, cases):
        slack = np.array([s for s, _ in cases])
        rate = np.array([r for _, r in cases])
        closing = rate < 0.0
        with np.errstate(over="ignore"):
            t = np.where(slack < 0.0, 0.0, slack)[closing] / -rate[closing]
        divided = np.zeros(len(cases), dtype=bool)
        divided[closing] = t <= 1.0
        # where the test finds no hit, the division finds none either, and
        # where it finds one, so does the division
        assert _hits_within_step(slack, -rate).tolist() == divided.tolist()

    def test_ratios_next_to_one(self):
        # the slack one ulp above the closing rate: the quotient rounds above 1
        for q in (5e-324, 2.2250738585072014e-308, 1e-300, 0.75, 1.0, 3.0, 1e300):
            s = np.nextafter(q, np.inf)
            assert s / q > 1.0
            assert _hits_within_step(np.array([s, q]), np.array([q, q])).tolist() == [False, True]

    def test_no_hit_with_negative_zeros_at_zero_bounds(self):
        # entry 0 sits at -0.0 on its lower bound 0.0 and entry 3 at -0.0 on
        # its upper bound 0.0; the step hits nothing, leaves both at -0.0,
        # and the repair's clamps turn them into +0.0, as in every walk
        cs = ConstraintSet(
            4, np.array([0, 1]), np.array([1, 2]),
            lower=np.array([0.0, -np.inf, -np.inf, -np.inf]),
            upper=np.array([np.inf, np.inf, 1.0, 0.0]),
        )
        theta = np.array([-0.0, 0.5, 0.75, -0.0])
        step = np.array([-0.0, 0.125, 0.125, -0.0])
        got, active = project_update(theta, step, cs, return_active=True)
        assert active == []
        assert got.tolist() == [0.0, 0.625, 0.875, 0.0]
        assert not np.signbit(got).any()
        for walk in (reference_component_walk, reference_project_update, reference_array_walk):
            assert got.tobytes() == walk(theta, step, cs).tobytes()


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
