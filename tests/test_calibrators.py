import copy
import dataclasses
import math
import pickle
import re
import warnings
from bisect import bisect_right
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import (
    CalibratorSet,
    DataError,
    Dataset,
    FeatureKind,
    FeatureSpec,
    MissingPolicy,
    Model,
    PairDataset,
    TrainConfig,
    fit_knots,
    max_infeasibility,
    train,
)
from monolattice.calibrators import (
    OTHER_CATEGORY,
    CategoricalCalibrator,
    ContinuousCalibrator,
    build_categorical_calibrator,
)
from monolattice.interpolation import ChunkBuffers

from scalar_reference import (
    build_continuous_calibrator,
    free_parameters,
    reference_calibrate_batch,
    reference_fit_knots,
    reference_locate,
    with_free_parameters,
)


def cont_spec(**kw):
    base = dict(name="f", kind=FeatureKind.CONTINUOUS, size=2, keypoints=2)
    base.update(kw)
    return FeatureSpec(**base)


def cat_spec(**kw):
    base = dict(name="g", kind=FeatureKind.CATEGORICAL, size=2)
    base.update(kw)
    return FeatureSpec(**base)


class TestFitKnots:
    def test_uniform_column_gets_even_quantiles(self):
        knots = fit_knots(np.arange(101.0), 3)
        assert knots == pytest.approx([0.0, 50.0, 100.0])

    def test_two_keypoints_are_the_bounds(self):
        knots = fit_knots(np.array([3.0, 9.0, 5.0]), 2)
        assert knots == pytest.approx([3.0, 9.0])

    def test_explicit_bounds_override_data(self):
        knots = fit_knots(np.arange(101.0), 2, bounds=(-1.0, 200.0))
        assert knots == pytest.approx([-1.0, 200.0])

    def test_constant_column_fails(self):
        with pytest.raises(ValueError):
            fit_knots(np.full(10, 4.2), 3)

    def test_heavy_ties_collapse_duplicates(self):
        col = np.array([0.0] * 98 + [1.0, 2.0])
        knots = fit_knots(col, 5)
        assert len(knots) < 5
        assert len(np.unique(knots)) == len(knots)

    def test_ignores_missing_cells(self):
        col = np.array([0.0, np.nan, 10.0, np.nan])
        assert fit_knots(col, 2) == pytest.approx([0.0, 10.0])


def overflowing_gap(knots):
    """The message of the set's error for the first gap between knots that
    passes the float limit, or None: gaps taken one at a time in Python."""
    for a, b in zip(knots.tolist(), knots.tolist()[1:]):
        if math.isinf(b - a):
            return f"the gap between knots {a!r} and {b!r} overflows; use more keypoints or narrower bounds"
    return None


def fitted_or_message(fit):
    """``fit()``'s knots as bytes, or the message of the error it raises."""
    try:
        return fit().tobytes()
    except ValueError as e:
        return str(e)


# column cells: heavy ties (signed zeros among them), a wide range, tiny and
# huge magnitudes; and cells that are not finite
_finite_cells = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, -3.0]),
    st.floats(-1e300, 1e300),
    st.sampled_from([5e-324, -5e-324, 1e-300, 1.7e308, -1.7e308]),
)
_cells = st.one_of(_finite_cells, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def fit_problems(draw):
    """Specs and columns for ``CalibratorSet.fit``: continuous features
    with 2-60 keypoints (drawn from a few counts, so that features share a
    block), with or without bounds (some degenerate), on columns of ties
    and wide ranges, some with NaN and infinities, some constant or empty;
    and categorical features between them, some with a missing value they
    have no policy for, so that errors of both kinds compete for the first
    place."""
    n = draw(st.integers(0, 30))
    counts = draw(st.lists(st.integers(2, 60), min_size=1, max_size=3))
    specs, columns = [], []
    for d in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 5)) == 0:
            specs.append(cat_spec(name=f"g{d}"))
            cells = ["a", "b", None] if draw(st.integers(0, 3)) == 0 else ["a", "b"]
            columns.append(draw(st.lists(st.sampled_from(cells), min_size=n, max_size=n)))
            continue
        bounds = draw(st.one_of(st.none(), st.tuples(
            st.floats(-10, 10), st.floats(-10, 10)).map(lambda b: (min(b), max(b)))))
        keypoints = draw(st.sampled_from(counts))
        specs.append(cont_spec(name=f"x{d}", keypoints=keypoints, bounds=bounds))
        kind = draw(st.integers(0, 5))
        if kind == 0:
            column = np.full(n, draw(_cells))  # constant
        else:
            cells = _cells if kind == 1 else _finite_cells
            column = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
        columns.append(column)
    return specs, columns


class TestBlockFit:
    """``CalibratorSet.fit`` places the knots of the features that share
    their keypoints and number of finite values in one block; each must
    equal ``fit_knots`` on its column and ``reference_fit_knots``, the
    one-column fit, byte for byte, and a bad feature raises the error that
    fitting the features one at a time in spec order raises first."""

    @given(fit_problems())
    @settings(max_examples=300, deadline=None)
    def test_block_fit_matches_the_one_column_fit(self, problem):
        specs, columns = problem
        labels = np.zeros(len(columns[0]))
        expected, first_error = [], None
        for spec, column in zip(specs, columns):
            if spec.kind is FeatureKind.CATEGORICAL:
                try:
                    build_categorical_calibrator(spec, column, labels)
                except DataError as e:
                    first_error = first_error or str(e)
                expected.append(None)
                continue
            want = fitted_or_message(lambda: reference_fit_knots(column, spec.keypoints, spec.bounds))
            assert fitted_or_message(lambda: fit_knots(column, spec.keypoints, spec.bounds)) == want
            if isinstance(want, str):
                first_error = first_error or f"feature {spec.name}: {want}"
            elif (gap := overflowing_gap(np.frombuffer(want))) is not None:
                first_error = first_error or f"feature {spec.name!r}: {gap}"
            expected.append(want)
        if first_error is not None:
            with pytest.raises(DataError) as e:
                CalibratorSet.fit(specs, columns, labels)
            assert str(e.value) == first_error
            return
        cs = CalibratorSet.fit(specs, columns, labels)
        for spec, cal, want in zip(specs, cs.calibrators, expected):
            if want is not None:
                assert cal.knots.tobytes() == want
                assert cal.outputs.tobytes() == np.linspace(0.0, spec.axis_top, len(cal.knots)).tobytes()

    @pytest.mark.parametrize("bounds", [(-0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (0.0, 1.0)])
    def test_zero_bounds_of_either_sign(self, bounds):
        # a clip of a block of 5 or more rows against arrays of bounds
        # picked -0.0 where the one-column clip picks 0.0
        ones = np.zeros(18)
        ones[-1] = 1.0
        columns = [ones, np.zeros(18), -ones, ones, -ones, ones]
        specs = [cont_spec(name=f"x{d}", keypoints=10, bounds=bounds if d == 1 else None)
                 for d in range(len(columns))]
        cs = CalibratorSet.fit(specs, columns)
        for spec, cal, column in zip(specs, cs.calibrators, columns):
            want = reference_fit_knots(column, spec.keypoints, spec.bounds)
            assert cal.knots.tobytes() == want.tobytes()

    def test_large_blocks(self):
        rng = np.random.default_rng(3)
        specs = [cont_spec(name=f"x{d}", keypoints=k, bounds=(-1.0, 1.0) if d % 3 == 0 else None)
                 for d, k in enumerate([2, 7, 7, 7, 60, 60, 7, 7, 25, 7])]
        columns = [np.round(rng.standard_normal(3000) * 100, d % 3) for d in range(len(specs))]
        cs = CalibratorSet.fit(specs, columns)
        for spec, cal, column in zip(specs, cs.calibrators, columns):
            want = reference_fit_knots(column, spec.keypoints, spec.bounds)
            assert cal.knots.tobytes() == want.tobytes()

    def test_pair_pooled_columns(self):
        rng = np.random.default_rng(7)
        specs = [cont_spec(name=f"x{d}", keypoints=k) for d, k in enumerate([4, 4, 9, 4])]
        plus = [np.round(rng.standard_normal(50), 1) for _ in specs]
        minus = [np.round(rng.standard_normal(50), 1) for _ in specs]
        plus[1][::5] = np.nan  # fewer finite values: a block of its own
        pairs = PairDataset(plus, minus)
        cs = CalibratorSet.fit(specs, pairs.fit_columns())
        for spec, cal, a, b in zip(specs, cs.calibrators, plus, minus):
            want = reference_fit_knots(np.concatenate([a, b]), spec.keypoints)
            assert cal.knots.tobytes() == want.tobytes()


class TestContinuousCalibrate:
    def test_two_knot_rescale(self):
        spec = cont_spec(bounds=(0.0, 10.0))
        cal = build_continuous_calibrator(spec, np.array([0.0, 10.0]))
        assert cal.calibrate(5.0) == pytest.approx(0.5)
        assert cal.num_free == 0

    def test_interior_segment(self):
        spec = cont_spec(keypoints=3)
        cal = build_continuous_calibrator(spec, np.array([0.0, 1.0, 10.0]))
        cal = replace(cal, knots=np.array([0.0, 1.0, 10.0]), outputs=np.array([0.0, 0.8, 1.0]))
        assert cal.calibrate(5.0) == pytest.approx(0.8 + (4.0 / 9.0) * 0.2)

    def test_out_of_range_clamps(self):
        spec = cont_spec(bounds=(0.0, 10.0))
        cal = build_continuous_calibrator(spec, np.array([0.0, 10.0]))
        assert cal.calibrate(-3.0) == 0.0
        assert cal.calibrate(25.0) == 1.0

    def test_exact_knot_values(self):
        spec = cont_spec(keypoints=3, size=3)
        cal = build_continuous_calibrator(spec, np.arange(11.0))
        for k, knot in enumerate(cal.knots):
            assert cal.calibrate(float(knot)) == pytest.approx(float(cal.outputs[k]))

    def test_monotone_outputs_make_monotone_map(self):
        spec = cont_spec(keypoints=5, size=4)
        rng = np.random.default_rng(0)
        cal = build_continuous_calibrator(spec, rng.random(200) * 7)
        outputs = cal.outputs.copy()
        outputs[1:-1] = np.sort(rng.random(3) * 3)
        cal = replace(cal, outputs=outputs)
        raws = np.sort(rng.random(100) * 9 - 1)
        vals = [cal.calibrate(r) for r in raws]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_missing_without_policy_fails(self):
        spec = cont_spec(bounds=(0.0, 1.0))
        cal = build_continuous_calibrator(spec, np.array([0.0, 1.0]))
        with pytest.raises(DataError):
            cal.calibrate(float("nan"))

    def test_knots_are_a_read_only_float_copy(self):
        source = np.array([0, 1, 10])
        cal = build_continuous_calibrator(cont_spec(keypoints=3), np.arange(11.0))
        cal = replace(cal, knots=source)
        source[1] = 5
        assert cal.knots.dtype == np.float64
        assert cal.knots.tolist() == [0.0, 1.0, 10.0]
        with pytest.raises(ValueError):
            cal.knots[1] = 2.0
        with pytest.raises(ValueError):
            cal.knots += 1.0
        with pytest.raises(FrozenInstanceError):
            cal.knots = source

    def test_reassigned_knots_move_every_row_path(self):
        spec = cont_spec(keypoints=3)
        cal = build_continuous_calibrator(spec, np.array([0.0, 1.0, 10.0]))
        cal = replace(cal, outputs=np.array([0.0, 0.8, 1.0]))
        cals = CalibratorSet([cal])
        model = Model(cals, np.array([0.0, 1.0]))
        before = (cal.calibrate(5.0), cals.calibrate_row([5.0])[0], model.predict_row([5.0]))
        assert before == (pytest.approx(0.8 + (4.0 / 9.0) * 0.2),) * 3
        moved = replace(cal, knots=np.array([0.0, 6.0, 10.0]))
        moved_cals = CalibratorSet([moved])
        moved_model = replace(model, calibrators=moved_cals)
        after = (moved.calibrate(5.0), moved_cals.calibrate_row([5.0])[0],
                 moved_model.predict_row([5.0]))
        assert after == (pytest.approx(0.8 * 5.0 / 6.0),) * 3
        assert moved_model.predict(Dataset([np.array([5.0])], None)).tolist() == [after[2]]
        assert (cal.calibrate(5.0), model.predict_row([5.0])) == before[::2]


def located_features(cs, columns):
    """``cs.locate(columns)`` per feature: ``(lo, hi, t, inner)``, with
    ``lo`` and ``hi`` less the feature's table offset."""
    location = cs.locate(columns)
    return [
        (location.lo[d] - start, location.hi[d] - start, location.t[d], location.inner[d])
        for d, start in enumerate(cs.table_offsets)
    ]


def assert_same_location(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestContinuousLocate:
    """The set's one-pass ``locate`` against ``reference_locate``, the
    per-feature locate, byte for byte and dtype for dtype, warning-free (the
    suite makes a RuntimeWarning an error)."""

    KNOTS = [
        [0.0, 1.0],  # no interior knot
        [-2.0, -0.5, 0.0, 3.0, 10.0],
        [0.0, 5e-324, 1e-300, 1.0],  # subnormal segments
        [-1.5e308, 0.0],  # x - knots[0] overflows for some values past the last knot
    ]

    @staticmethod
    def calibrator(knots, missing, name="x0"):
        # axis top 1.0 under every missing policy
        size = 3 if missing is MissingPolicy.VERTEX else 2
        spec = cont_spec(name=name, size=size, missing=missing)
        return ContinuousCalibrator(
            spec,
            np.array(knots),
            np.linspace(0.0, 1.0, len(knots)),
            0.5 if missing is MissingPolicy.CALIBRATED else None,
        )

    @staticmethod
    def values(knots):
        """Every knot and segment middle, the values next to the end knots
        on both sides, values beyond them, +-inf, +-5e-324, +-0.0 and NaN."""
        k = np.array(knots)
        edges = [np.nextafter(k[0], -np.inf), np.nextafter(k[0], np.inf),
                 np.nextafter(k[-1], -np.inf), np.nextafter(k[-1], np.inf)]
        beyond = [k[0] - 1.0, k[-1] + 1.0, -1e308, 1e308, -np.inf, np.inf]
        tiny = [5e-324, -5e-324, 0.0, -0.0]
        return np.concatenate([k, (k[:-1] + k[1:]) / 2, edges, beyond, tiny, [np.nan]])

    @pytest.mark.parametrize("knots", KNOTS)
    @pytest.mark.parametrize("missing", list(MissingPolicy))
    def test_matches_reference(self, knots, missing):
        cal = self.calibrator(knots, missing)
        x = self.values(knots)
        if missing is MissingPolicy.NONE:
            x = x[:-1]  # NaN needs a missing policy
        [got] = located_features(CalibratorSet([cal]), [x])
        assert_same_location(got, reference_locate(cal, x))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_more_than_255_knots_count_in_a_wider_type(self, data):
        # a feature of 257-400 knots beside a narrow one: the segment counts
        # no longer fit a byte; an inner value's segment is bisect_right's
        knots = sorted(data.draw(st.lists(
            st.floats(-1e6, 1e6), min_size=257, max_size=400, unique=True)))
        wide = self.calibrator(knots, MissingPolicy.CALIBRATED, name="x0")
        narrow = self.calibrator([0.0, 1.0, 2.0], MissingPolicy.NONE, name="x1")
        cs = CalibratorSet([wide, narrow])
        assert cs._knots.count == np.uint16
        cell = st.one_of(st.sampled_from(knots), st.floats(knots[0] - 1, knots[-1] + 1),
                         st.sampled_from([np.nan, -np.inf, np.inf]))
        x = np.array(data.draw(st.lists(cell, min_size=1, max_size=50)))
        got, _ = located_features(cs, [x, np.zeros(len(x))])
        assert_same_location(got, reference_locate(wide, x))
        for xi, lo, inner in zip(x.tolist(), got[0].tolist(), got[3].tolist()):
            if inner:
                assert lo == bisect_right(knots, xi) - 1

    def test_nan_without_missing_policy_is_a_data_error(self):
        cal = self.calibrator([0.0, 1.0], MissingPolicy.NONE)
        with pytest.raises(DataError, match="feature x0: missing value but no missing policy") as e:
            CalibratorSet([cal]).locate([np.array([0.5, np.nan])])
        assert e.value.row == 1

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_matches_the_per_feature_locate(self, data):
        # features of different knot counts side by side, so that the
        # shorter ones are padded, with values on, between and beyond their
        # knots, +-inf and NaN; t must not pick up the padding (inf - inf)
        n = data.draw(st.integers(1, 20))
        cals, columns = [], []
        for d in range(data.draw(st.integers(1, 4))):
            missing = data.draw(st.sampled_from(list(MissingPolicy)))
            knots = sorted(data.draw(st.lists(
                st.floats(-1e6, 1e6), min_size=2, max_size=9, unique=True
            )))
            cal = self.calibrator(knots, missing, name=f"x{d}")
            cell = st.one_of(
                st.sampled_from(knots),
                st.floats(knots[0] - 10, knots[-1] + 10),
                st.sampled_from([-np.inf, np.inf, knots[0] - 1e300, knots[-1] + 1e300,
                                 -1.7e308, 1.7e308, 0.0, -0.0]),
                *([st.just(np.nan)] if missing is not MissingPolicy.NONE else []),
            )
            cals.append(cal)
            columns.append(np.array(data.draw(st.lists(cell, min_size=n, max_size=n))))
        for got, cal, column in zip(located_features(CalibratorSet(cals), columns), cals, columns):
            want = reference_locate(cal, column)
            assert_same_location(got, want)
            assert not np.isnan(got[2]).any()


class TestContinuousGradient:
    def test_example_weights(self):
        spec = cont_spec(keypoints=3)
        cal = build_continuous_calibrator(spec, np.array([0.0, 1.0, 10.0]))
        cal = replace(cal, knots=np.array([0.0, 1.0, 10.0]))
        grads = dict(cal.gradient(5.0))
        assert grads == {0: pytest.approx(5.0 / 9.0)}  # far output is pinned

    def test_interior_knot_hit(self):
        spec = cont_spec(keypoints=4, size=3)
        cal = build_continuous_calibrator(spec, np.arange(10.0))
        k = float(cal.knots[1])
        assert dict(cal.gradient(k)) == {0: pytest.approx(1.0)}

    @pytest.mark.parametrize("raw", ["abc", "", object()])
    def test_non_number_is_a_data_error(self, raw):
        # gradient reads raw values as calibrate does, with its error
        cal = build_continuous_calibrator(cont_spec(name="x0"), np.array([0.0, 1.0]))
        message = f"feature x0: {re.escape(repr(raw))} is not a number"
        for method in (cal.calibrate, cal.gradient):
            with pytest.raises(DataError, match=message):
                method(raw)

    def test_clamped_regions_have_no_gradient(self):
        spec = cont_spec(keypoints=3, bounds=(0.0, 1.0))
        cal = build_continuous_calibrator(spec, np.array([0.0, 0.5, 1.0]))
        assert cal.gradient(-1.0) == []
        assert cal.gradient(2.0) == []

    def test_finite_difference(self):
        spec = cont_spec(keypoints=6, size=4)
        rng = np.random.default_rng(1)
        cal = build_continuous_calibrator(spec, rng.random(500) * 10)
        outputs = cal.outputs.copy()
        outputs[1:-1] = np.sort(rng.random(len(cal.outputs) - 2) * 3)
        cal = replace(cal, outputs=outputs)
        params = free_parameters(cal)
        eps = 1e-6
        for raw in rng.random(50) * 12 - 1:
            grads = dict(cal.gradient(raw))
            for j in range(cal.num_free):
                up, down = params.copy(), params.copy()
                up[j] += eps
                down[j] -= eps
                hi = with_free_parameters(cal, up).calibrate(raw)
                lo = with_free_parameters(cal, down).calibrate(raw)
                fd = (hi - lo) / (2 * eps)
                assert grads.get(j, 0.0) == pytest.approx(fd, abs=1e-9)

    @given(st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_output_stays_on_axis(self, raw):
        spec = cont_spec(keypoints=4, size=3)
        cal = build_continuous_calibrator(spec, np.arange(0.0, 20.0))
        assert 0.0 <= cal.calibrate(raw) <= cal.spec.axis_top


class TestCategorical:
    def test_mean_label_ordering(self):
        spec = cat_spec()
        col = ["A", "B", "C", "A", "B", "C"]
        labels = np.array([0.9, 0.1, 0.5, 0.9, 0.1, 0.5])
        cal = build_categorical_calibrator(spec, col, labels)
        vals = dict(zip(cal.categories, cal.values))
        assert vals["B"] == pytest.approx(0.0)
        assert vals["C"] == pytest.approx(0.5)
        assert vals["A"] == pytest.approx(1.0)

    def test_single_category_at_midpoint(self):
        spec = cat_spec(size=3)
        cal = build_categorical_calibrator(spec, ["only"], np.array([1.0]))
        assert cal.values == pytest.approx([1.0])  # (size-1)/2

    def test_no_labels_orders_by_name(self):
        spec = cat_spec()
        cal = build_categorical_calibrator(spec, ["z", "a", "m"], None)
        assert cal.categories == ("a", "m", "z")

    def test_categories_are_a_tuple(self):
        # so no edit in place can leave the lookup on the old order
        spec = cat_spec(size=3)
        cal = build_categorical_calibrator(spec, ["a", "b", "c", "a"], np.array([0, 1, 2, 0]))
        assert cal.calibrate("a") == 0.0
        with pytest.raises(AttributeError):
            cal.categories.reverse()
        with pytest.raises(FrozenInstanceError):
            cal.categories = ["c", "b", "a"]
        cal = replace(cal, categories=["c", "b", "a"])
        assert cal.categories == ("c", "b", "a")
        assert cal.calibrate("a") == 2.0

    def test_order_pairs_are_tuples(self):
        # so no edit in place can add a constraint the saved spec lacks
        specs = [cat_spec(size=3, order_pairs=[("a", "b")])]
        cs = CalibratorSet.fit(specs, [["a", "b", "c"]], np.array([0.0, 1.0, 2.0]))
        cal = cs.calibrators[0]
        assert cal.spec.order_pairs == (("a", "b"),)
        with pytest.raises(AttributeError):
            cal.spec.order_pairs.append(("c", "b"))
        assert len(cs.constraints().lo) == 1
        assert replace(cal.spec, order_pairs=[["b", "c"]]).order_pairs == (("b", "c"),)

    def test_gradient_is_indicator(self):
        spec = cat_spec()
        cal = build_categorical_calibrator(spec, ["x", "y"], np.array([0.0, 1.0]))
        assert dict(cal.gradient("y")) == {cal.categories.index("y"): 1.0}

    def test_unknown_category_fails_by_default(self):
        spec = cat_spec()
        cal = build_categorical_calibrator(spec, ["x", "y"], np.array([0.0, 1.0]))
        with pytest.raises(DataError):
            cal.calibrate("zzz")

    def test_other_bucket_catches_unknown(self):
        spec = cat_spec(allow_unseen=True)
        cal = build_categorical_calibrator(spec, ["x", "y"], np.array([0.0, 1.0]))
        assert OTHER_CATEGORY in cal.categories
        assert cal.calibrate("zzz") == cal.values[cal.other_index]

    def test_rare_categories_fold_into_other(self):
        spec = cat_spec(allow_unseen=True)
        col = ["a"] * 150 + ["b"] * 148 + ["rare"] * 2
        labels = np.array([0.0] * 150 + [1.0] * 148 + [1.0] * 2)
        cal = build_categorical_calibrator(spec, col, labels)
        assert "rare" not in cal.categories
        assert cal.gradient("rare") == [(cal.other_index, 1.0)]

    def test_schema_universe_is_respected(self):
        spec = cat_spec(categories=["p", "q", "r"])
        cal = build_categorical_calibrator(spec, ["p", "q"], np.array([0.0, 1.0]))
        assert sorted(cal.categories) == ["p", "q", "r"]
        with pytest.raises(DataError):
            build_categorical_calibrator(
                cat_spec(categories=["p"]), ["p", "q"], np.array([0.0, 1.0])
            )

    def test_order_pairs_move_only_what_they_must(self):
        col = ["a", "b", "c", "d"]
        labels = np.array([0.0, 1.0, 2.0, 3.0])
        cal = build_categorical_calibrator(cat_spec(order_pairs=[("c", "a")]), col, labels)
        assert cal.categories == ("b", "c", "a", "d")
        kept = build_categorical_calibrator(cat_spec(order_pairs=[("a", "c")]), col, labels)
        assert kept.categories == ("a", "b", "c", "d")

    def test_cyclic_order_pairs_are_a_data_error(self):
        spec = cat_spec(name="tier", order_pairs=[("x", "y"), ("y", "z"), ("z", "x")])
        with pytest.raises(DataError, match="feature tier: order pairs form a cycle"):
            build_categorical_calibrator(spec, ["x", "y", "z"], None)

    def test_start_satisfies_random_acyclic_pairs(self):
        rng = np.random.default_rng(17)
        names = [f"c{i}" for i in range(6)]
        for _ in range(50):
            hidden = list(rng.permutation(names))
            pairs = []
            for _ in range(int(rng.integers(1, 8))):
                i, j = sorted(rng.choice(len(names), size=2, replace=False))
                pairs.append((hidden[i], hidden[j]))
            col = names + list(rng.choice(names, size=60))
            labels = rng.random(len(col)) if rng.random() < 0.5 else None
            cal = build_categorical_calibrator(cat_spec(order_pairs=pairs), col, labels)
            value = dict(zip(cal.categories, cal.values))
            assert all(value[a] < value[b] for a, b in pairs)

    def test_values_spelled_like_the_bucket_fold_into_it(self):
        spec = cat_spec(allow_unseen=True)
        col = ["a"] * 200 + [OTHER_CATEGORY] * 100 + ["b"] * 200
        labels = np.array([0.0] * 200 + [0.5] * 100 + [1.0] * 200)
        cal = build_categorical_calibrator(spec, col, labels)
        assert cal.categories == ("a", "b", OTHER_CATEGORY)
        assert cal.other_index == 2
        assert cal.gradient(OTHER_CATEGORY) == [(2, 1.0)]
        schema = build_categorical_calibrator(
            cat_spec(allow_unseen=True, categories=["a", OTHER_CATEGORY, "b"]), col, labels
        )
        assert schema.categories.count(OTHER_CATEGORY) == 1

    def test_values_that_print_apart_stay_apart(self):
        # 1, 1.0 and True are one dict key, and 0.0 == -0.0, but a category
        # is named by its text: six categories, placed by mean label
        column = [1, 1.0, True, "1", 0.0, -0.0, "x"]
        labels = np.array([0.5, 0.2, 0.9, 0.1, 0.4, 0.7, 0.3])
        cal = build_categorical_calibrator(cat_spec(size=3), column, labels)
        assert cal.categories == ("1.0", "1", "x", "0.0", "-0.0", "True")
        assert cal.values.tolist() == [0.0, 0.4, 0.8, 1.2000000000000002, 1.6, 2.0]
        cal = build_categorical_calibrator(cat_spec(size=3), column, None)
        assert cal.categories == ("-0.0", "0.0", "1", "1.0", "True", "x")

    def test_reassigned_categories_move_every_path(self, tmp_path):
        # a calibrator rebuilt with other categories has a lookup that
        # follows them, so every path maps a category to the value the
        # model file saves for it
        spec = cat_spec(size=3)
        cal = build_categorical_calibrator(spec, ["a", "b", "c", "a"], np.array([0, 1, 2, 0]))
        cals = CalibratorSet([cal])
        model = Model(cals, np.array([0.0, 1.0, 2.0]))
        assert model.predict_row(["a"]) == 0.0
        cal = replace(cal, categories=["c", "b", "a"])
        cals = CalibratorSet([cal])
        model = replace(model, calibrators=cals)
        data = Dataset([["a", "b", "c"]], None)
        want = [2.0, 1.0, 0.0]
        assert [cal.calibrate(v) for v in "abc"] == want
        assert [cals.calibrate_row([v])[0] for v in "abc"] == want
        assert [model.predict_row([v]) for v in "abc"] == want
        assert model.predict(data).tolist() == want
        model.save(tmp_path / "m.json")
        loaded = Model.load(tmp_path / "m.json")
        assert loaded.predict(data).tolist() == want
        assert [loaded.predict_row([v]) for v in "abc"] == want

    def test_order_pair_naming_other_bucket_is_unknown(self):
        # the OTHER bucket sits outside the placed order, so no pair may name it
        spec = cat_spec(allow_unseen=True, order_pairs=[("x", OTHER_CATEGORY)])
        with pytest.raises(DataError, match="unknown category '<OTHER>'"):
            build_categorical_calibrator(spec, ["x", "y"], np.array([0.0, 1.0]))


class TestMissingPolicies:
    def test_vertex_policy_rescales_and_reserves_top(self):
        spec = cont_spec(size=3, missing=MissingPolicy.VERTEX, bounds=(0.0, 1.0))
        cal = build_continuous_calibrator(spec, np.array([0.0, 1.0]))
        assert cal.spec.axis_top == 1.0  # real span ends one vertex early
        assert cal.calibrate(1.0) == 1.0
        assert cal.calibrate(float("nan")) == 2.0
        assert cal.gradient(float("nan")) == []

    def test_vertex_policy_needs_three_vertices(self):
        with pytest.raises(ValueError):
            cont_spec(size=2, missing=MissingPolicy.VERTEX)

    def test_calibrated_policy_learns_missing(self):
        spec = cont_spec(size=2, missing=MissingPolicy.CALIBRATED, bounds=(0.0, 1.0))
        cal = build_continuous_calibrator(spec, np.array([0.0, 1.0]))
        assert cal.num_free == 1
        assert cal.calibrate(float("nan")) == pytest.approx(0.5)
        assert cal.gradient(float("nan")) == [(0, 1.0)]
        cal = replace(cal, missing_value=0.8)
        assert cal.calibrate(float("nan")) == pytest.approx(0.8)

    def test_categorical_missing_calibrated(self):
        spec = cat_spec(missing=MissingPolicy.CALIBRATED)
        cal = build_categorical_calibrator(spec, ["x", None, "y"], np.array([0.0, 1.0, 1.0]))
        assert cal.calibrate(None) == pytest.approx(0.5)
        assert cal.gradient(None) == [(cal.num_free - 1, 1.0)]


class TestCalibratorSet:
    def build(self):
        specs = [
            cont_spec(name="a", keypoints=4, size=2),
            cat_spec(name="b", order_pairs=[("x", "y")]),
            cont_spec(name="c", keypoints=2, size=3, missing=MissingPolicy.CALIBRATED),
        ]
        rng = np.random.default_rng(2)
        columns = [
            rng.random(50) * 10,
            list(rng.choice(["x", "y", "z"], size=50)),
            rng.random(50),
        ]
        labels = rng.random(50)
        return CalibratorSet.fit(specs, columns, labels)

    def test_alpha_round_trip(self):
        cs = self.build()
        # a: 2 interior outputs; b: 3 values; c: 0 interior + 1 missing
        assert cs.num_free == 6
        alpha = cs.alpha()
        table = cs.table()
        cs.put_free(table, alpha + 0.0)
        assert cs.with_table(table).alpha() == pytest.approx(alpha, abs=0)
        bumped = alpha.copy()
        bumped[-1] = 1.25
        cs.put_free(table, bumped)
        assert cs.with_table(table).calibrators[2].missing_value == 1.25
        assert cs.calibrators[2].missing_value == alpha[-1]

    @pytest.mark.parametrize("missing", list(MissingPolicy))
    def test_alpha_crossing_equals_per_calibrator_concatenation(self, missing):
        size = 3 if missing is MissingPolicy.VERTEX else 2
        specs = [
            cont_spec(name="a", keypoints=5, size=size, missing=missing),
            cat_spec(name="b", size=size, missing=missing, allow_unseen=True),
            cont_spec(name="c", keypoints=2, size=size, missing=missing),
        ]
        rng = np.random.default_rng(5)
        a = rng.random(80) * 4
        b = list(rng.choice(["x", "y", "z"], size=80))
        if missing is not MissingPolicy.NONE:
            a[::7] = np.nan
            b[3] = None
        cs = CalibratorSet.fit(specs, [a, b, rng.random(80)], rng.random(80))

        def concatenated(s):
            blocks = [free_parameters(c) for c in s.calibrators if c.num_free]
            return np.concatenate(blocks) if blocks else np.empty(0)

        assert cs.alpha().tobytes() == concatenated(cs).tobytes()
        for _ in range(3):
            vec = rng.standard_normal(cs.num_free)
            table = cs.table()
            cs.put_free(table, vec)
            crossed = cs.with_table(table)
            by_calibrator = CalibratorSet([
                with_free_parameters(cal, vec[off : off + cal.num_free])
                for cal, off in zip(cs.calibrators, cs.offsets)
            ])
            assert crossed.alpha().tobytes() == vec.tobytes()
            assert concatenated(crossed).tobytes() == concatenated(by_calibrator).tobytes()
            assert crossed.table().tobytes() == by_calibrator.table().tobytes()

    def test_with_table_keeps_the_layout(self):
        cs = self.build()
        same = cs.with_table(cs.table())
        assert same == cs and same._knots is cs._knots
        table = cs.table()
        cs.put_free(table, np.linspace(0.1, 0.9, cs.num_free))
        moved = cs.with_table(table)
        # the shared layout is the one the moved calibrators give afresh
        fresh = CalibratorSet(moved.calibrators)
        for name in ("offsets", "table_offsets", "num_free", "table_size", "_tops",
                     "_free_entries"):
            assert np.array_equal(getattr(moved, name), getattr(fresh, name))
        for f in dataclasses.fields(fresh._knots):
            a, b = getattr(moved._knots, f.name), getattr(fresh._knots, f.name)
            assert a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b
        row = [4.0, "y", np.nan]
        assert cs.calibrate_row(row) != moved.calibrate_row(row) == fresh.calibrate_row(row)
        assert pickle.loads(pickle.dumps(moved)) == moved

    def test_row_gradients_use_global_positions(self):
        cs = self.build()
        row = [3.0, "y", float("nan")]
        grads = cs.row_gradients(row)
        flat = [pos for per_feature in grads for pos, _ in per_feature]
        assert all(0 <= p < cs.num_free for p in flat)
        assert grads[2] == [(5, 1.0)]

    def test_constraints_keep_initial_point_feasible(self):
        cs = self.build()
        assert max_infeasibility(cs.alpha(), cs.constraints()) == 0.0

    def test_constraint_layout(self):
        cs = self.build()
        con = cs.constraints()
        assert con.num_parameters == 6
        # chain inside feature a, declared pair inside feature b
        got = sorted(zip(con.lo.tolist(), con.hi.tolist()))
        bpos = {c: i for i, c in enumerate(cs.calibrators[1].categories)}
        assert got == sorted([(0, 1), (2 + bpos["x"], 2 + bpos["y"])])
        assert con.lower[0] == 0.0
        assert con.upper[1] == 1.0
        assert con.lower[5] == 0.0 and con.upper[5] == 2.0  # missing spans the full axis

    def test_two_keypoint_feature_contributes_no_constraints(self):
        specs = [cont_spec(name="only", keypoints=2)]
        cs = CalibratorSet.fit(specs, [np.array([0.0, 5.0, 9.0])], np.array([0, 1, 2]))
        assert cs.num_free == 0
        con = cs.constraints()
        assert con.num_rows == 0
        assert not np.isfinite(con.lower).any() and not np.isfinite(con.upper).any()

    def test_in_place_edits_are_refused(self):
        # the layout (offsets, table size, alpha's entries) is worked out
        # once, so the parts it comes from cannot change under it
        cs = self.build()
        assert isinstance(cs.specs, tuple) and isinstance(cs.calibrators, tuple)
        wider = replace(cs.calibrators[0], knots=[0.0, 2.0, 4.0, 6.0, 10.0],
                        outputs=[0.0, 0.2, 0.5, 0.8, 1.0])
        with pytest.raises(TypeError):
            cs.calibrators[0] = wider
        with pytest.raises(TypeError):
            cs.specs[0] = cont_spec(name="z")
        with pytest.raises(FrozenInstanceError):
            cs.calibrators = (wider,) + cs.calibrators[1:]
        with pytest.raises(AttributeError):
            cs.offsets.append(0)
        assert (cs.num_free, cs.table_size, len(cs.alpha())) == (6, 12, 6)
        # a set built from the changed calibrators lays them out afresh
        rebuilt = CalibratorSet([wider, *cs.calibrators[1:]])
        assert (rebuilt.num_free, rebuilt.table_size, len(rebuilt.alpha())) == (7, 13, 7)
        assert rebuilt.offsets == (0, 3, 6)

    @pytest.mark.parametrize("index", [0, 1], ids=["continuous", "categorical"])
    def test_calibrators_and_sets_compare_by_value(self, index):
        cs = self.build()
        cal = cs.calibrators[index]
        assert cal == replace(cal) and cal == copy.deepcopy(cal)
        assert cs == CalibratorSet(list(cs.calibrators))
        points = cal.points.copy()
        points[1] += 0.125
        changed = replace(cal, **{"outputs" if index == 0 else "values": points})
        assert cal != changed and not cal == changed
        cals = list(cs.calibrators)
        cals[index] = changed
        assert cs != CalibratorSet(cals)


def batch_rows(cal, column):
    """Batch calibration of a column through a one-feature set, as
    (coordinate, gradient list) per row."""
    coords, grads = reference_calibrate_batch(CalibratorSet([cal]), [column])
    return [(c, g) for c, [g] in zip(coords[:, 0].tolist(), grads)]


def scalar_rows(cal, column):
    return [(cal.calibrate(v), cal.gradient(v)) for v in column]


class TestCalibrateBatch:
    @pytest.mark.parametrize("missing", list(MissingPolicy))
    def test_continuous_matches_scalar(self, missing):
        size = 3 if missing is MissingPolicy.VERTEX else 4
        spec = cont_spec(keypoints=6, size=size, missing=missing)
        rng = np.random.default_rng(3)
        cal = build_continuous_calibrator(spec, rng.random(200) * 10)
        k = len(cal.outputs)
        outputs = cal.outputs.copy()
        outputs[1:-1] = np.sort(rng.random(k - 2)) * cal.spec.axis_top  # learned outputs
        cal = replace(cal, outputs=outputs)
        if missing is MissingPolicy.CALIBRATED:
            cal = replace(cal, missing_value=1.7)
        knots = cal.knots
        column = np.concatenate([
            rng.random(100) * 12 - 1,  # interior and beyond both bounds
            knots,  # exactly on every knot
            np.nextafter(knots, np.inf),
            np.nextafter(knots, -np.inf),
            [-np.inf, np.inf, knots[0] - 5, knots[-1] + 5],
        ])
        if missing is not MissingPolicy.NONE:
            column[::7] = np.nan
        assert batch_rows(cal, column) == scalar_rows(cal, column)
        # a plain list with None or NaN text for missing gives the same
        as_list = [float(v) for v in column]
        for i, v in enumerate(as_list):
            if np.isnan(v):
                as_list[i] = None if i % 2 else "nan"
        assert batch_rows(cal, as_list) == scalar_rows(cal, as_list)
        assert scalar_rows(cal, as_list) == scalar_rows(cal, column)

    def test_two_knot_continuous_has_no_partials(self):
        spec = cont_spec(size=3)
        cal = build_continuous_calibrator(spec, np.array([0.0, 4.0]))
        column = np.array([-1.0, 0.0, 1.0, 2.5, 4.0, 9.0])
        assert batch_rows(cal, column) == scalar_rows(cal, column)

    @pytest.mark.parametrize("missing", list(MissingPolicy))
    @pytest.mark.parametrize("allow_unseen", [False, True])
    def test_categorical_matches_scalar(self, missing, allow_unseen):
        size = 3 if missing is MissingPolicy.VERTEX else 2
        spec = cat_spec(size=size, missing=missing, allow_unseen=allow_unseen)
        fit = ["a", "b", "c", "a", "b"] * 40 + (["rare"] if allow_unseen else [])
        labels = np.linspace(0.0, 1.0, len(fit))
        cal = build_categorical_calibrator(spec, fit, labels)
        cal = replace(cal, values=np.linspace(0.1, cal.spec.axis_top - 0.2, len(cal.values)))
        if missing is MissingPolicy.CALIBRATED:
            cal = replace(cal, missing_value=0.3)
        column = ["c", "a", "b", "a"]
        if allow_unseen:
            column += ["rare", "never seen", OTHER_CATEGORY]
        if missing is not MissingPolicy.NONE:
            column += [None, "b", float("nan")]
        assert batch_rows(cal, column) == scalar_rows(cal, column)

    def test_categorical_keys_values_by_their_text(self):
        # 1, 1.0 and True are one dict key, and 0.0 == -0.0, but each prints
        # as another category
        spec = cat_spec(categories=["1", "1.0", "0.0"], allow_unseen=True)
        cal = build_categorical_calibrator(spec, ["1", "1.0", "0.0"])
        cal = replace(cal, values=[0.1, 0.2, 0.3, 0.4])
        column = [1, 1.0, "1.0", True, 0.0, -0.0, "1", "0.0"]
        assert batch_rows(cal, column) == scalar_rows(cal, column)
        assert batch_rows(cal, column[::-1]) == scalar_rows(cal, column[::-1])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_sets_match_rows(self, data):
        cals, columns = [], []
        n = data.draw(st.integers(1, 12))
        for d in range(data.draw(st.integers(1, 3))):
            missing = data.draw(st.sampled_from(list(MissingPolicy)))
            size = 3 if missing is MissingPolicy.VERTEX else data.draw(st.integers(2, 4))
            top = float(size - 2 if missing is MissingPolicy.VERTEX else size - 1)
            learned = None  # the learned missing coordinate
            if missing is MissingPolicy.CALIBRATED:
                learned = data.draw(st.floats(0.0, float(size - 1)))
            if data.draw(st.booleans()):
                knots = np.array(sorted(data.draw(
                    st.lists(st.floats(-100, 100), min_size=2, max_size=8, unique=True)
                )))
                k = len(knots)
                outputs = np.array(sorted(data.draw(st.lists(
                    st.floats(0.0, top), min_size=k, max_size=k
                ))))
                spec = cont_spec(name=f"f{d}", size=size, keypoints=k, missing=missing)
                cal = ContinuousCalibrator(spec, knots, outputs, learned)
                cell = st.one_of(
                    st.sampled_from(knots.tolist()),  # exactly on a knot
                    st.floats(knots[0] - 10, knots[-1] + 10),
                    st.sampled_from([-np.inf, np.inf, knots[0] - 1e6, knots[-1] + 1e6]),
                )
            else:
                names = data.draw(st.lists(
                    st.sampled_from(["a", "b", "1", "1.0", "True", "0.0", "-0.0"]),
                    min_size=1, max_size=5, unique=True,
                ))
                allow_unseen = data.draw(st.booleans())
                if allow_unseen:
                    names.append(OTHER_CATEGORY)
                values = data.draw(st.lists(
                    st.floats(0.0, top), min_size=len(names), max_size=len(names)
                ))
                spec = cat_spec(name=f"g{d}", size=size, missing=missing,
                                allow_unseen=allow_unseen)
                cal = CategoricalCalibrator(
                    spec, names, np.array(values), learned,
                    len(names) - 1 if allow_unseen else None,
                )
                raw = [1, 1.0, True, 0.0, -0.0]  # same text as a category name
                known = names + [v for v in raw if str(v) in names]
                cell = st.sampled_from(known + (["zz", 7] if allow_unseen else []))
            if missing is not MissingPolicy.NONE:
                cell = st.one_of(cell, st.sampled_from([None, float("nan")]))
            cals.append(cal)
            columns.append(data.draw(st.lists(cell, min_size=n, max_size=n)))

        cs = CalibratorSet(cals)
        x, grads = reference_calibrate_batch(cs, columns)
        for i in range(n):
            row = [col[i] for col in columns]
            assert x[i].tolist() == cs.calibrate_row(row)
            assert grads[i] == cs.row_gradients(row)
        # apply's derivative scattered over the table and read at the free
        # entries is the loop over those lists, feature by feature, bit for bit
        dx = np.array(data.draw(st.lists(
            st.floats(-4.0, 4.0), min_size=n * len(cals), max_size=n * len(cals)
        ))).reshape(n, len(cals))
        table = np.zeros(cs.table_size)
        cs.add_apply_gradient(cs.locate(columns), dx.T, table, ChunkBuffers())  # feature-major
        want = np.zeros(cs.num_free)
        for d in range(len(cals)):
            for i in range(n):
                for p, g in grads[i][d]:
                    want[p] += dx[i, d] * g
        assert cs.at_free(table).tobytes() == want.tobytes()

    def test_missing_without_policy_raises_the_same_error(self):
        spec = cont_spec()
        cal = build_continuous_calibrator(spec, np.array([0.0, 1.0]))
        with pytest.raises(DataError) as scalar:
            cal.calibrate(float("nan"))
        with pytest.raises(DataError) as batch:
            reference_calibrate_batch(CalibratorSet([cal]), [np.array([0.5, np.nan])])
        assert str(batch.value) == str(scalar.value)

    def test_first_bad_category_raises_the_same_error(self):
        spec = cat_spec()
        cal = build_categorical_calibrator(spec, ["x", "y"], np.array([0.0, 1.0]))
        for column, first_bad in ((["x", "zzz", None], "zzz"), (["x", None, "zzz"], None)):
            with pytest.raises(DataError) as scalar:
                cal.calibrate(first_bad)
            with pytest.raises(DataError) as batch:
                reference_calibrate_batch(CalibratorSet([cal]), [column])
            assert str(batch.value) == str(scalar.value)

    def test_set_matches_rows(self):
        cs = TestCalibratorSet().build()
        rng = np.random.default_rng(4)
        columns = [
            rng.random(60) * 12 - 1,
            list(rng.choice(["x", "y", "z"], size=60)),
            np.where(rng.random(60) < 0.3, np.nan, rng.random(60)),
        ]
        coords, grads = reference_calibrate_batch(cs, columns)
        for i in range(60):
            row = [col[i] for col in columns]
            assert coords[i].tolist() == cs.calibrate_row(row)
            assert grads[i] == cs.row_gradients(row)

    def test_set_reports_the_first_bad_row(self):
        # row 0 has an unknown category in feature b, row 1 a missing value
        # in feature a (which has no missing policy): row order decides
        cs = TestCalibratorSet().build()
        columns = [np.array([1.0, np.nan]), ["nope", "x"], np.array([0.5, 0.5])]
        with pytest.raises(DataError) as scalar:
            cs.calibrate_row([1.0, "nope", 0.5])
        with pytest.raises(DataError) as batch:
            reference_calibrate_batch(cs, columns)
        assert str(batch.value) == str(scalar.value)
        assert "unknown category" in str(batch.value)


def wide_column():
    """64 increasing values over +-1.7e308, more than the float range: its
    median, 1.14e307, is more than the float limit from -1.7e308, but its
    quartiles and tertiles are not."""
    return np.concatenate([np.linspace(-1.7, 0.114, 32), np.linspace(0.114, 1.7, 32)]) * 1e308


class TestKnotGaps:
    """Calibration divides by each gap between consecutive knots, so a fit
    whose gap passes the float limit is bad input, named by its feature;
    the span of all the knots may pass it."""

    @pytest.mark.parametrize("keypoints, a, b", [(2, -1.7e308, 1.7e308), (3, -1.7e308, 1.14e307)])
    def test_a_gap_past_the_float_limit_is_a_data_error(self, keypoints, a, b):
        specs = [cont_spec(name="wide", size=3, keypoints=keypoints, monotone="increasing")]
        data = Dataset([wide_column()], np.linspace(0.0, 1.0, 64))
        message = f"feature 'wide': the gap between knots {a!r} and {b!r} overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match=re.escape(message)):
                train(data, specs, TrainConfig(epochs=1))

    def test_quantiles_between_values_past_the_float_limit(self):
        # numpy's quantile subtracts the two order statistics it lerps
        # between, which overflows here; the fit takes their weighted mean
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert fit_knots(np.array([1.7e308, -1.7e308]), 3).tolist() == [-1.7e308, 0.0, 1.7e308]
            cs = CalibratorSet.fit([cont_spec(name="x", keypoints=5)], [np.array([-1.7e308, 1.7e308])])
        a, b = -1.7e308, 1.7e308
        assert cs.calibrators[0].knots.tolist() == [a, a * 0.75 + b * 0.25, 0.0, a * 0.25 + b * 0.75, b]

    @pytest.mark.parametrize("keypoints", [4, 5])
    def test_a_span_past_the_float_limit_trains(self, keypoints):
        specs = [cont_spec(name="wide", size=3, keypoints=keypoints, monotone="increasing")]
        data = Dataset([wide_column()], np.linspace(0.0, 1.0, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = train(data, specs, TrainConfig(epochs=1))
        knots = model.calibrators.calibrators[0].knots.tolist()
        assert knots[-1] - knots[0] == math.inf and overflowing_gap(np.array(knots)) is None
        assert model.violations(0.0) == []


class TestErrorsNameTheFeature:
    """Both calibration paths say which feature a bad value belongs to."""

    def build(self):
        specs = [cont_spec(name="price", keypoints=3), cat_spec(name="country")]
        columns = [np.array([0.0, 1.0, 2.0]), ["us", "de", "us"]]
        return CalibratorSet.fit(specs, columns, np.array([0.0, 1.0, 0.5]))

    @pytest.mark.parametrize(
        "row, message",
        [
            ([float("nan"), "us"], "feature price: missing value but no missing policy"),
            ([1.0, "fr"], "feature country: unknown category 'fr'"),
        ],
    )
    def test_row_and_batch_paths(self, row, message):
        cs = self.build()
        with pytest.raises(DataError, match=message):
            cs.calibrate_row(row)
        good = [1.5, "de"]
        columns = [np.array([good[0], row[0]]), [good[1], row[1]]]
        with pytest.raises(DataError, match=message) as batch:
            reference_calibrate_batch(cs, columns)
        assert batch.value.row == 1
