"""Single-row prediction: the numpy row kernel for large multilinear cells,
the scalar kernels for the rest, and the checks on the row itself."""

import numpy as np
import pytest

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
from monolattice.interpolation import (
    ROW_NUMPY_MIN_VERTICES,
    _doubled_offsets,
    evaluate_multilinear_row,
)


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


class TestRowKernel:
    @pytest.mark.parametrize(
        "x", [[0.5] * 6 + [-0.5], [0.5] * 6 + [1.5], [0.5] * 6 + [np.nan], [0.5] * 6]
    )
    def test_errors_match_the_scalar_path(self, x):
        shape = LatticeShape([2] * 7)
        theta = np.random.default_rng(0).random(shape.num_parameters)
        with pytest.raises(ValueError) as scalar:
            evaluate(theta.tolist(), shape, x)
        with pytest.raises(ValueError) as row:
            evaluate_multilinear_row(theta, shape, x)
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
        calls = []
        scalar = interpolation._WEIGHT_FNS[InterpolationKind.MULTILINEAR]

        def counted(*args):
            calls.append(1)
            return scalar(*args)

        monkeypatch.setitem(interpolation._WEIGHT_FNS, InterpolationKind.MULTILINEAR, counted)
        return calls

    def test_bench_times_the_scalar_kernel_at_d10(self, scalar_calls):
        bench_interpolation(
            min_d=10, max_d=10, kinds=["multilinear"], target_time=1e-6, repeats=1, points=2
        )
        assert len(scalar_calls) >= 2

    @pytest.mark.parametrize("D", [6, 7, 10])
    def test_only_small_cells_use_the_scalar_kernel(self, scalar_calls, D):
        unit_model([2] * D).predict_row([0.3] * D)
        assert len(scalar_calls) == (1 if 1 << D < ROW_NUMPY_MIN_VERTICES else 0)
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
        model = unit_model([2, 2])
        model.predict_row([0.5, 0.5])
        assert "_theta_cache" not in repr(model)
        with pytest.raises(TypeError):
            Model(model.specs, model.shape, model.theta, model.calibrators, _theta_cache=[])


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
