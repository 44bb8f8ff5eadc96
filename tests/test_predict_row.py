"""Single-row prediction: the row plan, held against the batch path and the
scalar kernels, and the checks on the row itself."""

import math

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
    InterpolationKind,
    LatticeShape,
    MissingPolicy,
    Model,
    TrainConfig,
    evaluate,
    locate_cell,
    multilinear_weights,
    train,
)
from monolattice import interpolation
from monolattice.bench import bench_interpolation
from monolattice.interpolation import ROW_NUMPY_MIN_VERTICES, RowPlan, _doubled_offsets


def unit_model(sizes, kind=InterpolationKind.MULTILINEAR, seed=0):
    """A model over [0, 1]^D whose calibrators are linear onto each axis,
    with random theta."""
    rng = np.random.default_rng(seed)
    specs = [FeatureSpec(f"x{d}", size=m, bounds=(0.0, 1.0)) for d, m in enumerate(sizes)]
    columns = [rng.random(8) for _ in specs]
    shape = LatticeShape(sizes)
    return Model(
        specs=specs,
        shape=shape,
        theta=rng.random(shape.num_parameters),
        calibrators=CalibratorSet.fit(specs, columns),
        kind=kind,
    )


def unit_rows(D, seed=1, n=40):
    """Random rows plus rows on the top face, at vertices and at the origin."""
    rng = np.random.default_rng(seed)
    rows = rng.random((n, D))
    rows[1] = 1.0  # far corner: every coordinate on the top face
    rows[2] = 0.0
    rows[3] = rng.integers(0, 2, D)  # a vertex
    rows[4, ::2] = 1.0  # top face in half the dimensions
    rows[5, 1::2] = 0.5
    return Dataset([rows[:, d] for d in range(D)], None)


def assert_paths_agree(model, data, kind=None):
    batch = model.predict(data, kind).tolist()
    singles = [model.predict_row(data.row(i), kind) for i in range(data.num_rows)]
    assert [v.hex() for v in batch] == [v.hex() for v in singles]  # -0.0 != 0.0


class TestPredictEqualsPredictRow:
    @pytest.mark.parametrize("D", range(2, 11))
    def test_all_two_lattices(self, D):
        assert_paths_agree(unit_model([2] * D, seed=D), unit_rows(D, seed=D))

    @pytest.mark.parametrize("D", [2, 8])
    def test_sums_of_negative_zeros_are_positive(self, D):
        model = unit_model([2] * D)
        model.theta = np.full(model.shape.num_parameters, -0.0)
        data = unit_rows(D, n=6)
        assert_paths_agree(model, data)
        assert model.predict_row(data.row(0)).hex() == "0x0.0p+0"

    def test_three_per_dimension(self):
        assert_paths_agree(unit_model([3] * 7), unit_rows(7))

    @pytest.mark.parametrize("D", [4, 7, 10])
    def test_simplex_override_and_model(self, D):
        data = unit_rows(D)
        assert_paths_agree(unit_model([2] * D), data, kind="simplex")
        assert_paths_agree(unit_model([2] * D, kind=InterpolationKind.SIMPLEX), data)

    @pytest.mark.parametrize("D", [4, 8])
    def test_missing_vertex_and_categorical_features(self, D):
        rng = np.random.default_rng(D)
        n = 60
        cats = list(rng.choice(["lo", "mid", "hi"], size=n))
        cats[0] = None
        cats[1] = "never seen"
        gapped = rng.random(n)
        gapped[rng.random(n) < 0.2] = np.nan
        rest = [rng.random(n) for _ in range(D - 2)]
        specs = [
            FeatureSpec("c", kind=FeatureKind.CATEGORICAL, size=3, allow_unseen=True,
                        missing=MissingPolicy.CALIBRATED),
            FeatureSpec("g", size=3, keypoints=4, missing=MissingPolicy.VERTEX),
        ] + [FeatureSpec(f"x{d}", keypoints=3) for d in range(D - 2)]
        data = Dataset([cats, gapped] + rest, rng.random(n))
        model = train(data, specs, TrainConfig(epochs=1, minibatch_size=8, seed=D))
        assert_paths_agree(model, data)


MAX_DRAWN_PARAMETERS = 1 << 12  # keeps a drawn lattice small enough to score quickly
CATEGORIES = ["a", "b", "c", "d"]


def _shrink(sizes):
    # sizes of 3 or 4 that would take the lattice past MAX_DRAWN_PARAMETERS become 2
    out, total = [], 1
    for m in sizes:
        m = m if total * m <= MAX_DRAWN_PARAMETERS else 2
        out.append(m)
        total *= m
    return out


@st.composite
def features(draw, size):
    """A feature spec on an axis of ``size`` vertices, and how to draw its
    values: "knot", "below", "above", "inside", "missing" or "unseen"."""
    missing = draw(st.sampled_from(
        [MissingPolicy.NONE, MissingPolicy.CALIBRATED]
        + ([MissingPolicy.VERTEX] if size >= 3 else [])
    ))
    value_kinds = ["missing"] if missing is not MissingPolicy.NONE else []
    if draw(st.booleans()):
        unseen = draw(st.booleans())
        spec = FeatureSpec("f", kind=FeatureKind.CATEGORICAL, size=size, missing=missing,
                           allow_unseen=unseen)
        value_kinds += ["inside"] + (["unseen"] if unseen else [])
    else:
        spec = FeatureSpec("f", size=size, keypoints=draw(st.integers(2, 5)), missing=missing)
        value_kinds += ["knot", "below", "above", "inside"]
    return spec, value_kinds


@st.composite
def scored_models(draw):
    """A model with random calibrator parameters and theta, and rows that
    hit knots, the ends of the box, top faces, unseen and missing values."""
    D = draw(st.integers(1, 10))
    sizes = _shrink(draw(st.lists(st.integers(2, 4), min_size=D, max_size=D)))
    drawn = [draw(features(m)) for m in sizes]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = []
    for d, (spec, _) in enumerate(drawn):
        spec.name = f"f{d}"
        specs.append(spec)
    columns = [
        list(rng.choice(CATEGORIES, 12)) if s.kind is FeatureKind.CATEGORICAL
        else (rng.random(12) * 10.0 - 5.0).tolist()
        for s in specs
    ]
    calibrators = CalibratorSet.fit(specs, columns, rng.random(12))
    for spec, cal in zip(specs, calibrators.calibrators):
        # random monotone parameters, some exactly on the axis ends
        top = spec.axis_top
        points = np.sort(rng.choice([0.0, top, *(rng.random(4) * top)], len(cal.points)))
        if spec.kind is FeatureKind.CONTINUOUS:
            points[0], points[-1] = 0.0, top
        cal.points[:] = points
        if spec.missing is MissingPolicy.CALIBRATED:
            cal.missing_value = float(rng.choice([0.0, 1.0, rng.random()]) * (spec.size - 1))
    shape = LatticeShape(sizes)
    theta = rng.standard_normal(shape.num_parameters)
    theta[rng.random(len(theta)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = -0.0
    kind = draw(st.sampled_from(list(InterpolationKind)))
    model = Model(specs=specs, shape=shape, theta=theta, calibrators=calibrators, kind=kind)
    n = draw(st.integers(1, 12))
    cols = []
    for (spec, value_kinds), cal in zip(drawn, calibrators.calibrators):
        col = []
        for how in rng.choice(value_kinds, n):
            if how == "missing":
                col.append(None if rng.random() < 0.5 else math.nan)
            elif how == "unseen":
                col.append("never seen")
            elif spec.kind is FeatureKind.CATEGORICAL:
                col.append(str(rng.choice(cal.categories)))
            else:
                knots = cal.knots
                col.append({
                    "knot": float(rng.choice(knots)),
                    "below": float(knots[0]) - rng.random(),
                    "above": float(knots[-1]) + rng.random(),
                    "inside": float(knots[0] + rng.random() * (knots[-1] - knots[0])),
                }[how])
        cols.append(col)
    override = draw(st.sampled_from([None, "multilinear", InterpolationKind.SIMPLEX]))
    return model, Dataset(cols, None), override


def _outcome(score):
    """A score's hex (-0.0 and 0.0 differ), or the message of its ValueError."""
    try:
        return score().hex()
    except ValueError as e:
        return f"error: {e}"


class TestRowPathProperty:
    @settings(max_examples=150, deadline=None)
    @given(scored_models())
    def test_predict_row_equals_predict_and_the_scalar_oracle(self, drawn):
        model, data, kind = drawn
        theta, cals = model.theta.tolist(), model.calibrators
        rows = [data.row(i) for i in range(data.num_rows)]
        oracle = [
            _outcome(lambda: evaluate(theta, model.shape, cals.calibrate_row(r), kind or model.kind))
            for r in rows
        ]
        assert [_outcome(lambda: model.predict_row(r, kind)) for r in rows] == oracle
        # a calibrated coordinate can round past the top of its axis; then
        # every path reports the first such row alike
        errors = [o for o in oracle if o.startswith("error")]
        try:
            batch = [v.hex() for v in model.predict(data, kind).tolist()]
        except ValueError as e:
            assert errors[:1] == [f"error: {e}"]
        else:
            assert batch == oracle


class TestRowKernel:
    @pytest.mark.parametrize(
        "x", [[0.5] * 6 + [-0.5], [0.5] * 6 + [1.5], [0.5] * 6 + [np.nan], [0.5] * 6]
    )
    def test_errors_match_the_scalar_path(self, x):
        # a coordinate below or above the box, a NaN one, and a wrong width
        for sizes in ([2] * 7, [3, 2, 2, 4, 2, 2, 2]):
            shape = LatticeShape(sizes)
            theta = np.random.default_rng(0).random(shape.num_parameters)
            plan = RowPlan(theta, shape)
            for kind in InterpolationKind:
                with pytest.raises(ValueError) as scalar:
                    evaluate(theta.tolist(), shape, x, kind)
                with pytest.raises(ValueError) as row:
                    plan.evaluate(x, kind)
                assert str(row.value) == str(scalar.value)

    def test_out_of_box_error_matches_through_the_model(self):
        model = unit_model([2] * 7)
        small = unit_model([2] * 2)
        for m in (model, small):
            m.calibrators.calibrators[0].outputs[-1] = 1.5  # leaves the axis
        with pytest.raises(ValueError) as large_err:
            model.predict_row([1.0] + [0.5] * 6)
        with pytest.raises(ValueError) as small_err:
            small.predict_row([1.0, 0.5])
        assert str(large_err.value) == str(small_err.value) == (
            "coordinate 1.5 outside [0, 1] in dimension 0"
        )

    @pytest.mark.parametrize("sizes", [[2], [3, 2], [2] * 7, [3, 4, 2], [2] * 10])
    def test_cached_offsets_are_read_only_and_exact(self, sizes):
        shape = LatticeShape(sizes)
        cached = _doubled_offsets(shape)
        assert cached is _doubled_offsets(LatticeShape(sizes))
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1
        assert np.array_equal(cached, _doubled_offsets.__wrapped__(shape))
        location = locate_cell(shape, [0.0] * len(sizes))
        assert cached.tolist() == multilinear_weights(shape, location).indices


class TestWhichKernelRuns:
    @pytest.fixture
    def scalar_calls(self, monkeypatch):
        """Calls into the scalar weight functions and cell lookup, per kind."""
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for kind, fn in list(interpolation._WEIGHT_FNS.items()):
            monkeypatch.setitem(interpolation._WEIGHT_FNS, kind, counted(kind.value, fn))
        monkeypatch.setattr(interpolation, "locate_cell", counted("locate_cell", locate_cell))
        return calls

    def test_bench_times_the_scalar_kernel_at_d10(self, scalar_calls):
        bench_interpolation(
            min_d=10, max_d=10, kinds=["multilinear", "simplex"], target_time=1e-6, repeats=1,
            points=2,
        )
        assert scalar_calls.count("multilinear") >= 2
        assert scalar_calls.count("simplex") >= 2
        assert scalar_calls.count("locate_cell") >= 4

    @pytest.mark.parametrize("D", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_predict_row_never_reaches_the_scalar_kernels(self, scalar_calls, D):
        for kind in InterpolationKind:
            model = unit_model([2] * D, kind=kind)
            model.predict_row([0.3] * D)
            model.predict_row([0.3] * D, kind="simplex")
            model.predict_row([1.0] * D, kind="multilinear")
        assert scalar_calls == []
        # the list/numpy crossover of the multilinear row pass, measured
        assert ROW_NUMPY_MIN_VERTICES == 1 << 7


class TestTheta:
    @pytest.mark.parametrize("D", [2, 10])
    def test_in_place_edits_raise(self, D):
        model = unit_model([2] * D)
        with pytest.raises(ValueError):
            model.theta += 1.0
        with pytest.raises(ValueError):
            model.theta[0] = 5.0

    @pytest.mark.parametrize("D", [2, 10])
    def test_prediction_follows_reassignment(self, D):
        model = unit_model([2] * D)
        data = unit_rows(D, n=8)
        before = [model.predict_row(data.row(i)) for i in range(8)]
        model.theta = model.theta + 1.0
        after = [model.predict_row(data.row(i)) for i in range(8)]
        assert after == model.predict(data).tolist()
        assert after == pytest.approx([b + 1.0 for b in before])

    def test_stored_as_a_private_float_copy(self, tmp_path):
        source = np.array([0, 1, 1, 2])
        model = unit_model([2, 2])
        model.theta = source
        source[0] = 7
        assert model.theta.dtype == np.float64
        assert model.theta.tolist() == [0.0, 1.0, 1.0, 2.0]
        model.save(tmp_path / "m.json")
        assert not Model.load(tmp_path / "m.json").theta.flags.writeable

    def test_list_cache_is_not_a_field_of_the_model(self):
        # the row plan holds theta's list form; it is neither shown nor set
        model = unit_model([2, 2])
        model.predict_row([0.5, 0.5])
        assert model._row_plan is not None
        assert "_row_plan" not in repr(model)
        with pytest.raises(TypeError):
            Model(model.specs, model.shape, model.theta, model.calibrators, _row_plan=None)

    def test_assigning_theta_or_shape_drops_the_row_plan(self):
        model = unit_model([2, 2])
        model.predict_row([0.5, 0.5])
        plan = model._row_plan
        model.theta = model.theta
        assert model._row_plan is None
        model.predict_row([0.5, 0.5])
        assert model._row_plan is not plan
        model.shape = LatticeShape([2, 2])
        assert model._row_plan is None


class TestRowChecks:
    def test_extra_values_are_an_error(self):
        model = unit_model([2] * 10)
        row = [0.5] * 10
        with pytest.raises(DataError, match="got 12 values for a model with 10 features"):
            model.predict_row(row + [99.0, "junk"])
        with pytest.raises(DataError, match="got 9 values for a model with 10 features"):
            model.predict_row(row[:9])

    @pytest.mark.parametrize("width", [9, 12])
    def test_batch_column_count_is_checked(self, width):
        model = unit_model([2] * 10)
        data = Dataset([np.full(3, 0.5)] * width, None)
        with pytest.raises(DataError, match=f"got {width} columns for a model with 10 features"):
            model.predict(data)

    def test_non_numeric_value_names_the_feature(self):
        model = unit_model([2] * 3)
        with pytest.raises(DataError, match=r"feature x1: 'abc' is not a number"):
            model.predict_row([0.5, "abc", 0.5])
        data = Dataset([[0.5, 0.5, 0.5], [0.5, 0.5, "abc"], [0.5] * 3], None)
        with pytest.raises(DataError, match=r"feature x1: 'abc' is not a number") as err:
            model.predict(data)
        assert err.value.row == 2

    @pytest.mark.parametrize("text", ["nan", "NaN", "-nan"])
    def test_nan_text_is_a_missing_value_on_both_paths(self, text):
        spec = FeatureSpec("x", size=3, keypoints=3, missing=MissingPolicy.CALIBRATED)
        cals = CalibratorSet.fit([spec], [np.linspace(0.0, 2.1, 9)])
        model = Model([spec], LatticeShape([3]), np.array([0.0, 1.0, 3.0]), cals)
        assert model.predict_row([text]) == model.predict(Dataset([[text]], None))[0] == 1.0
        model.calibrators.calibrators[0].missing = MissingPolicy.NONE
        message = "feature x: missing value but no missing policy"
        with pytest.raises(DataError, match=message):
            model.predict_row([text])
        with pytest.raises(DataError, match=message) as err:
            model.predict(Dataset([["0.5", text]], None))
        assert err.value.row == 1

    def test_training_names_the_row(self):
        rng = np.random.default_rng(3)
        column = rng.random(20).tolist()
        column[7] = "abc"
        data = Dataset([column], rng.random(20))
        with pytest.raises(DataError, match=r"training row 7: feature x: 'abc' is not a number"):
            train(data, [FeatureSpec("x")], TrainConfig(epochs=1))

    @pytest.mark.parametrize(
        "column, message",
        [(["abc"] * 20, "no finite values"), ([1.0] * 20, "degenerate bounds")],
    )
    def test_knot_fitting_names_the_feature(self, column, message):
        data = Dataset([column], np.random.default_rng(3).random(20))
        with pytest.raises(DataError, match=f"feature x: {message}"):
            train(data, [FeatureSpec("x")], TrainConfig(epochs=1))
