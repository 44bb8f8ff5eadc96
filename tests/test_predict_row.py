"""Single-row prediction: the row plan, held against the batch path and the
scalar kernels, and the checks on the row itself."""

import copy
import math
import pickle
import re
import sys
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

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
from monolattice import model as model_module
from monolattice.bench import bench_interpolation
from monolattice.calibrators import CategoricalCalibrator, ContinuousCalibrator, _missing_start
from monolattice.interpolation import (
    ROW_NUMPY_MIN_VERTICES,
    RowPlan,
    _doubled_offsets,
    _row_kernel,
)
from monolattice.model import predict_rows


def unit_model(sizes, kind=InterpolationKind.MULTILINEAR, seed=0):
    """A model over [0, 1]^D whose calibrators are linear onto each axis,
    with random theta."""
    rng = np.random.default_rng(seed)
    specs = [FeatureSpec(f"x{d}", size=m, bounds=(0.0, 1.0)) for d, m in enumerate(sizes)]
    columns = [rng.random(8) for _ in specs]
    theta = rng.random(LatticeShape(sizes).num_parameters)
    return Model(CalibratorSet.fit(specs, columns), theta, kind=kind)


def replace_calibrator(model, d, **changes):
    """``model`` with calibrator ``d`` rebuilt with ``changes``."""
    cals = list(model.calibrators.calibrators)
    cals[d] = replace(cals[d], **changes)
    return replace(model, calibrators=CalibratorSet(cals))


def replace_spec(model, d, **changes):
    """``model`` with calibrator ``d`` on its spec rebuilt with ``changes``,
    its missing_value where fit starts it."""
    spec = replace(model.specs[d], **changes)
    return replace_calibrator(model, d, spec=spec, missing_value=_missing_start(spec))


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
        model = replace(model, theta=np.full(model.shape.num_parameters, -0.0))
        data = unit_rows(D, n=6)
        assert_paths_agree(model, data)
        assert model.predict_row(data.row(0)).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("D", [1, 2, 7, 10])
    def test_trained_one_cell_models(self, D):
        # batch predict on a lattice of one cell reads theta as one column;
        # 300 rows span three of its chunks at D = 10
        rng = np.random.default_rng(40 + D)
        cols = [rng.random(60) for _ in range(D)]
        specs = [FeatureSpec(f"x{d}", keypoints=3) for d in range(D)]
        model = train(Dataset(cols, sum(cols) / D), specs,
                      TrainConfig(epochs=2, minibatch_size=8, step_size=0.5, seed=D))
        assert model.shape.sizes == (2,) * D
        data = Dataset([rng.uniform(-0.1, 1.1, 300) for _ in range(D)], None)
        assert_paths_agree(model, data)

    def test_three_per_dimension(self):
        assert_paths_agree(unit_model([3] * 7), unit_rows(7))

    @pytest.mark.parametrize("D", [4, 7, 10])
    def test_simplex_override_and_model(self, D):
        data = unit_rows(D)
        assert_paths_agree(unit_model([2] * D), data, kind="simplex")
        assert_paths_agree(unit_model([2] * D, kind=InterpolationKind.SIMPLEX), data)

    def test_values_between_two_top_outputs_stay_on_the_axis(self):
        # (1 - t) * 3 + t * 3 rounds to 3.0000000000000004 for some t in (0, 1)
        specs = [FeatureSpec("x", size=4, keypoints=3, bounds=(0.0, 2.1))]
        rng = np.random.default_rng(5)
        theta = rng.random(4)
        model = Model(CalibratorSet.fit(specs, [rng.random(8)]), theta)
        model = replace_calibrator(model, 0, knots=[0.0, 1.05, 2.1], outputs=[0.0, 3.0, 3.0])
        cal = model.calibrators.calibrators[0]
        data = Dataset([rng.uniform(1.05, 2.1, 10_000)], None)
        assert_paths_agree(model, data)
        assert max(cal.calibrate(v) for v in data.columns[0]) == 3.0

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
    specs = [replace(spec, name=f"f{d}") for d, (spec, _) in enumerate(drawn)]
    columns = [
        list(rng.choice(CATEGORIES, 12)) if s.kind is FeatureKind.CATEGORICAL
        else (rng.random(12) * 10.0 - 5.0).tolist()
        for s in specs
    ]
    cals = []
    for spec, cal in zip(specs, CalibratorSet.fit(specs, columns, rng.random(12)).calibrators):
        # random monotone parameters, some exactly on the axis ends
        top = spec.axis_top
        points = np.sort(rng.choice([0.0, top, *(rng.random(4) * top)], len(cal.points)))
        if spec.kind is FeatureKind.CONTINUOUS:
            points[0], points[-1] = 0.0, top
            changes = {"outputs": points}
        else:
            changes = {"values": points}
        if spec.missing is MissingPolicy.CALIBRATED:
            changes["missing_value"] = float(
                rng.choice([0.0, 1.0, rng.random()]) * (spec.size - 1)
            )
        cals.append(replace(cal, **changes))
    calibrators = CalibratorSet(cals)
    shape = LatticeShape(sizes)
    theta = rng.standard_normal(shape.num_parameters)
    theta[rng.random(len(theta)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = -0.0
    kind = draw(st.sampled_from(list(InterpolationKind)))
    model = Model(calibrators, theta, kind=kind)
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
    if draw(st.booleans()):
        # one odd cell: NaN text, or a value the feature may reject (a
        # non-number, a missing value without a policy, an unknown category)
        d, i = int(rng.integers(D)), int(rng.integers(n))
        if specs[d].kind is FeatureKind.CONTINUOUS:
            odd = ["nan", "NaN", "abc", None]
        else:
            odd = ["nan", "never seen", None, math.nan]
        cols[d][i] = odd[int(rng.integers(len(odd)))]
    override = draw(st.sampled_from([None, "multilinear", InterpolationKind.SIMPLEX]))
    return model, Dataset(cols, None), override


def _outcome(score):
    """A score's hex (-0.0 and 0.0 differ), or the message of its ValueError."""
    try:
        return score().hex()
    except ValueError as e:
        return f"error: {e}"


def _coordinates(calibrate):
    """Calibrated coordinates as hex, or the message of their ValueError."""
    try:
        return [x.hex() for x in calibrate()]
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
        # calibrate_row against each calibrator's scalar calibrate, value
        # by value: the first bad value of a row raises
        per_value = [
            _coordinates(lambda: [cal.calibrate(v) for cal, v in zip(cals.calibrators, r)])
            for r in rows
        ]
        assert [_coordinates(lambda: cals.calibrate_row(r)) for r in rows] == per_value
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
        "x",
        [
            [0.5] * 6 + [-0.5], [0.5] * 6 + [1.5], [0.5] * 6 + [np.nan], [0.5] * 6,
            [2.5, "abc"], [0.5, 0.5, "abc"], [0.5] * 8 + [1.5],
        ],
    )
    def test_errors_match_the_scalar_path(self, x):
        # a coordinate below or above the box, a NaN one, a wrong width, and
        # a value float() rejects after one outside the box or in a row of
        # the wrong width: every coordinate is converted first, then the
        # width is checked, then the range in dimension order.  Each row
        # meets every shape: the row kernel's (D <= 8) and the numpy pass's.
        for sizes in ([2] * 7, [3, 2, 2, 4, 2, 2, 2], [3, 2], [2, 2], [2] * 9, [3] + [2] * 8):
            shape = LatticeShape(sizes)
            theta = np.random.default_rng(0).random(shape.num_parameters)
            plan = RowPlan(theta, shape)
            for kind in InterpolationKind:
                with pytest.raises(ValueError) as scalar:
                    evaluate(theta.tolist(), shape, x, kind)
                with pytest.raises(ValueError) as row:
                    plan.evaluate(x, kind)
                assert str(row.value) == str(scalar.value)

    def test_a_calibrator_off_its_axis_is_refused_by_the_model(self):
        # a calibrator that leaves the axis would hand the row kernel a
        # coordinate outside the box (test_errors_match_the_scalar_path
        # covers the kernel's message); the model refuses it when made
        for sizes in ([2] * 7, [2] * 2):
            model = unit_model(sizes)
            outputs = model.calibrators.calibrators[0].outputs.copy()
            outputs[-1] = 1.5
            with pytest.raises(DataError, match=re.escape("feature 'x0': outputs leave [0, 1]")):
                replace_calibrator(model, 0, outputs=outputs)

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


# the largest D whose cells (2^D vertices) take the row kernel; a drawn
# lattice goes up to one dimension past it, onto the numpy pass
KERNEL_MAX_D = ROW_NUMPY_MIN_VERTICES.bit_length() - 2


def coordinates(top):
    """Coordinates on an axis [0, top]: its ends and their nearest
    neighbours inside it, -0.0, every integer (as an int; at the top it
    moves the base down to top - 1) and any float inside."""
    return st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, float(top), math.nextafter(float(top), 0.0)]),
        st.integers(0, top),
        st.floats(0.0, float(top)),
    )


@st.composite
def kernel_rows(draw):
    """A shape of sizes 2-4 in 1 to KERNEL_MAX_D + 1 dimensions, theta
    with -0.0 entries, and rows drawn from :func:`coordinates`."""
    D = draw(st.integers(1, KERNEL_MAX_D + 1))
    shape = LatticeShape(_shrink(draw(st.lists(st.integers(2, 4), min_size=D, max_size=D))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.standard_normal(shape.num_parameters)
    theta[rng.random(len(theta)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = -0.0
    row = [coordinates(m - 1) for m in shape.sizes]
    rows = draw(st.lists(st.tuples(*row).map(list), min_size=1, max_size=8))
    return shape, theta, rows


def closure(fn) -> dict:
    """The values a function's closure binds, by name."""
    return {name: cell.cell_contents for name, cell in zip(fn.__code__.co_freevars, fn.__closure__)}


class TestRowKernelProperty:
    @settings(max_examples=150, deadline=None)
    @given(kernel_rows())
    def test_plan_equals_the_scalar_kernel(self, drawn):
        shape, theta, rows = drawn
        plan = RowPlan(theta, shape)
        for kind in InterpolationKind:
            for x in rows:
                assert plan.evaluate(x, kind).hex() == evaluate(theta.tolist(), shape, x, kind).hex()
        # once each kind's kernel is bound, a call writes nothing the plan holds
        held = dict(vars(plan))
        for kind in InterpolationKind:
            for x in rows:
                plan.evaluate(x, kind)
        assert vars(plan).keys() == held.keys()
        assert all(vars(plan)[name] is value for name, value in held.items())
        for kind in InterpolationKind:
            # one compiled kernel per shape and kind, shared by equal shapes
            kernel = held[f"_{kind.value}"]
            bind = _row_kernel(LatticeShape(list(shape.sizes)), kind)
            assert kernel.__code__ is bind(theta).__code__
            bound = closure(kernel)
            if kind is InterpolationKind.SIMPLEX or shape.ndim <= KERNEL_MAX_D:
                assert bound["values"] == theta.tolist()
            else:
                assert "values" not in bound
        # a theta too short for the last cell
        corner = [m - 1 for m in shape.sizes]
        short = RowPlan(theta[:-1], shape)
        for kind in InterpolationKind:
            with pytest.raises(IndexError):
                short.evaluate(corner, kind)


# the ends of [0, 1] and their nearest neighbours inside it, and -0.0
ONE_CELL_COORDINATES = [0.0, -0.0, 5e-324, 1.0 - 2.0**-53, 1.0]


def one_cell_points(D, seed=0, n=30):
    """Points in [0, 1]^D: each special coordinate in every dimension, rows
    mixing them, and random points."""
    rng = np.random.default_rng(seed)
    specials = [[v] * D for v in ONE_CELL_COORDINATES]
    mixed = rng.choice(ONE_CELL_COORDINATES, (n, D)).tolist()
    return specials + mixed + rng.random((n, D)).tolist()


class TestOneCellRows:
    """The row plan on a lattice of one cell (every size 2), which skips the
    cell search and, for multilinear cells, reads theta's first 2^D entries
    without a gather."""

    @pytest.mark.parametrize("kind", list(InterpolationKind))
    @pytest.mark.parametrize("D", [1, 2, 6, 7, 9, 10])
    def test_plan_equals_the_scalar_kernel(self, D, kind):
        shape = LatticeShape([2] * D)
        theta = np.random.default_rng(D).standard_normal(shape.num_parameters)
        theta[::3] = -0.0
        plan = RowPlan(theta, shape)
        for x in one_cell_points(D, seed=D):
            assert plan.evaluate(x, kind).hex() == evaluate(theta.tolist(), shape, x, kind).hex()

    @pytest.mark.parametrize("kind", list(InterpolationKind))
    @pytest.mark.parametrize("D", [1, 2, 6, 7, 9, 10])
    def test_predict_row_equals_predict(self, D, kind):
        points = np.array(one_cell_points(D, seed=D + 1))
        data = Dataset([points[:, d] for d in range(D)], None)
        assert_paths_agree(unit_model([2] * D, kind=kind, seed=D), data)

    @pytest.mark.parametrize("kind", list(InterpolationKind))
    @pytest.mark.parametrize("D", [1, 2, 6, 7, 9, 10])
    def test_short_theta_raises_index_error(self, D, kind):
        shape = LatticeShape([2] * D)
        plan = RowPlan(np.ones(shape.num_parameters - 1), shape)
        with pytest.raises(IndexError):
            plan.evaluate([0.5] * D, kind)

    @pytest.mark.parametrize("D", [1, 6, 7, 10])
    def test_doubling_weights_of_a_row_and_a_one_column_chunk(self, D):
        shape = LatticeShape([2] * D)
        for x in one_cell_points(D, seed=D, n=5):
            row = interpolation._doubling_weights(np.empty(1 << D), x)
            chunk = interpolation._doubling_weights(np.empty((1 << D, 1)), np.array(x)[:, None])
            assert row.tobytes() == chunk.tobytes()
            assert row.tolist() == multilinear_weights(shape, locate_cell(shape, x)).weights

    def test_threads_sharing_a_model_get_the_serial_bits(self):
        # the numpy pass and the simplex kernel on a lattice of one cell, for
        # a model of either kind, and the row kernel on 3^4
        for sizes, kind in [([2] * 10, InterpolationKind.MULTILINEAR),
                            ([2] * 10, InterpolationKind.SIMPLEX),
                            ([3] * 4, InterpolationKind.MULTILINEAR)]:
            self._threads_get_the_serial_bits(unit_model(sizes, kind, seed=4))

    @staticmethod
    def _threads_get_the_serial_bits(model):
        D = model.shape.ndim
        points = np.array(one_cell_points(D, seed=4, n=60))
        rows = [points[i].tolist() for i in range(len(points))]
        kinds = [None, InterpolationKind.SIMPLEX]
        serial = [[model.predict_row(r, kind).hex() for r in rows] for kind in kinds]
        shared = replace(model)  # a fresh model: the threads build its plan
        results = [None] * 4
        errors = []

        def score(t):
            try:
                results[t] = [[shared.predict_row(r, kind).hex() for r in rows] for kind in kinds]
            except Exception as e:  # reported by the main thread
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=score, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [serial] * 4


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
        # the row kernel/numpy crossover of the multilinear row pass, measured
        assert ROW_NUMPY_MIN_VERTICES == 1 << 9

    def test_predict_row_never_calls_a_calibrators_calibrate(self, monkeypatch):
        model, data = mixed_model()
        calls = []
        for cls in (ContinuousCalibrator, CategoricalCalibrator):
            def counted(cal, raw, fn=cls.calibrate):
                calls.append(raw)
                return fn(cal, raw)

            monkeypatch.setattr(cls, "calibrate", counted)
        for i in range(data.num_rows):
            model.predict_row(data.row(i))
        assert calls == []
        # a value calibrate_row cannot place is handed to calibrate for its error
        model = replace_calibrator(model, 0, other_index=None)
        with pytest.raises(DataError, match="feature c: unknown category 'never seen'"):
            model.predict_row(data.row(1))
        assert calls == ["never seen"]


def mixed_model():
    """A model with a continuous feature (missing vertex), a categorical one
    with an OTHER bucket and a calibrated missing value, and a plain
    categorical one, all with trained-looking parameters, and rows on every
    kind of value: knots, the ends and beyond them, unseen categories, None,
    NaN and NaN text."""
    specs = [
        FeatureSpec("c", kind=FeatureKind.CATEGORICAL, size=3, allow_unseen=True,
                    missing=MissingPolicy.CALIBRATED),
        FeatureSpec("x", size=4, keypoints=5, missing=MissingPolicy.VERTEX),
        FeatureSpec("k", kind=FeatureKind.CATEGORICAL),
    ]
    rng = np.random.default_rng(8)
    columns = [list(rng.choice(["lo", "mid", "hi"], 30)), rng.random(30) * 10.0,
               list(rng.choice(["u", "v"], 30))]
    cat, cont, plain = CalibratorSet.fit(specs, columns, rng.random(30)).calibrators
    cals = CalibratorSet([
        replace(cat, values=[0.2, 0.7, 1.9, 1.1]),
        replace(cont, outputs=[0.0, 0.4, 1.1, 1.5, 2.0]),
        replace(plain, values=[0.3, 0.9]),
    ])
    shape = LatticeShape([3, 4, 2])
    model = Model(cals, rng.standard_normal(shape.num_parameters))
    knots = cont.knots.tolist()
    cats = ["lo", "never seen", None, "mid", math.nan, "hi", "<OTHER>", "hi", "lo", "mid"] * 2
    xs = knots + [knots[0] - 1.0, knots[-1] + 1.0, None, math.nan, "nan"]
    xs += rng.uniform(knots[0], knots[-1], len(cats) - len(xs)).tolist()
    return model, Dataset([cats, xs, ["u", "v"] * 10], None)


def assert_fresh(model, data):
    """predict_row equals predict and the calibrators' scalar calibrate
    followed by the scalar kernel, by hex; returns the scores."""
    theta, cals = model.theta.tolist(), model.calibrators.calibrators
    rows = [data.row(i) for i in range(data.num_rows)]
    singles = [model.predict_row(r).hex() for r in rows]
    oracle = [
        evaluate(theta, model.shape, [c.calibrate(v) for c, v in zip(cals, r)], model.kind).hex()
        for r in rows
    ]
    assert singles == oracle
    assert [v.hex() for v in model.predict(data).tolist()] == oracle
    return singles


def tiled(data, n):
    """The rows of ``data`` repeated to ``n`` rows, columns as lists."""
    return Dataset([[col[i % data.num_rows] for i in range(n)] for col in data.columns], None)


# rows per predict chunk of mixed_model, a model of three features
MIXED_ROWS = predict_rows(3)


class TestPredictChunks:
    """``predict`` scores ``predict_rows`` rows at a time through one buffer
    set per call; its chunk boundaries show in nothing it returns or raises."""

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_chunk_boundaries_match_predict_row(self, offset):
        n = 0 if offset is None else MIXED_ROWS + offset
        model, data = mixed_model()
        assert_paths_agree(model, tiled(data, n))
        for kind in InterpolationKind:
            D = 10
            n = 0 if offset is None else predict_rows(D) + offset
            rows = unit_rows(D, seed=n, n=max(n, 6))
            rows = Dataset([col[:n] for col in rows.columns], None)
            assert_paths_agree(unit_model([2] * D, kind), rows)

    @staticmethod
    def unchunked(monkeypatch, model, data):
        """The error of the same call in one chunk."""
        with monkeypatch.context() as m:
            m.setattr(model_module, "PREDICT_BYTES", 8 * len(model.specs) * data.num_rows)
            with pytest.raises(DataError) as err:
                model.predict(data)
        return err.value

    @pytest.mark.parametrize(
        "feature, value, message",
        [
            (2, "zz", "feature k: unknown category 'zz'"),
            (1, "abc", "feature x: 'abc' is not a number"),
            (1, [1.0], r"feature x: \[1.0\] is not a number"),
            (2, None, "feature k: missing value but no missing policy"),
            (2, math.nan, "feature k: missing value but no missing policy"),
            # a number keys the column by text from its chunk on
            (2, 7, "feature k: unknown category 7"),
        ],
    )
    def test_bad_values_raise_the_unchunked_error(self, monkeypatch, feature, value, message):
        model, data = mixed_model()
        n = 2 * MIXED_ROWS + 10
        for bad_rows in ([MIXED_ROWS + 7], [n - 1], [MIXED_ROWS + 7, n - 1]):
            rows = tiled(data, n)
            for i in bad_rows:
                rows.columns[feature][i] = value
            with pytest.raises(DataError, match=message) as err:
                model.predict(rows)
            assert err.value.row == bad_rows[0]
            whole = self.unchunked(monkeypatch, model, rows)
            assert (str(err.value), err.value.row) == (str(whole), whole.row)

    def test_first_bad_row_wins_across_features(self, monkeypatch):
        # a bad category in the last row, a missing value without a policy
        # earlier in the same chunk: the row counted first is named
        model, data = mixed_model()
        model = replace_spec(model, 1, missing=MissingPolicy.NONE)
        n = MIXED_ROWS + 20
        rows = tiled(data, n)
        xs = rows.columns[1]
        for i, v in enumerate(xs):
            if v is None or v == "nan" or v != v:  # missing: None, NaN text, NaN
                xs[i] = 0.5
        rows.columns[2][n - 1] = "zz"
        rows.columns[1][MIXED_ROWS + 3] = None
        with pytest.raises(DataError, match="feature x: missing value but no missing policy") as err:
            model.predict(rows)
        assert err.value.row == MIXED_ROWS + 3
        whole = self.unchunked(monkeypatch, model, rows)
        assert (str(err.value), err.value.row) == (str(whole), whole.row)

    @pytest.mark.parametrize("kind", list(InterpolationKind))
    def test_memory_is_bounded_by_the_chunk(self, kind):
        # numpy reports its buffers to tracemalloc; ten times the rows may
        # add the output array and nothing else
        model, data = mixed_model()
        model = replace(model, kind=kind)
        small, large = tiled(data, 2 * MIXED_ROWS), tiled(data, 20 * MIXED_ROWS)
        model.predict(small)  # anything built once per model is built now

        def peak(rows):
            tracemalloc.start()
            try:
                model.predict(rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        output = 8 * large.num_rows
        assert peak(large) - output <= 1.1 * peak(small)


class TestRowEntries:
    """Calibrators are frozen: assignment is refused, and every value built
    with other parameters agrees with itself on every path and leaves the
    one it was built from as it was."""

    def test_assignment_is_refused(self):
        model, data = mixed_model()
        scores = assert_fresh(model, data)  # binds the row calibration
        cat, cont, plain = model.calibrators.calibrators
        for cal, name, value in [
            (cont, "outputs", cont.outputs * 0.75),
            (cat, "values", cat.values[::-1]),
            (cont, "knots", cont.knots * 1.1),
            (cat, "categories", cat.categories[::-1]),
            (cat, "other_index", 0),
            (cat, "missing_value", 0.25),
            (plain, "missing", MissingPolicy.CALIBRATED),
        ]:
            with pytest.raises(FrozenInstanceError):
                setattr(cal, name, value)
        assert assert_fresh(model, data) == scores

    def test_every_route_of_change_reaches_predict_row(self):
        model, data = mixed_model()
        scores = assert_fresh(model, data)
        cs = model.calibrators
        table = cs.table()
        cs.put_free(table, cs.alpha() * 0.5)
        routes = [
            lambda m: replace(m, calibrators=m.calibrators.with_table(table)),
            lambda m: replace_calibrator(m, 1, outputs=m.calibrators.calibrators[1].outputs * 0.75),
            lambda m: replace_calibrator(m, 0, values=m.calibrators.calibrators[0].values[::-1]),
            lambda m: replace_calibrator(m, 2, values=m.calibrators.calibrators[2].values[::-1]),
            lambda m: replace_calibrator(m, 1, knots=m.calibrators.calibrators[1].knots * 1.1),
            lambda m: replace_calibrator(
                m, 0, categories=m.calibrators.calibrators[0].categories[::-1]
            ),
            lambda m: replace_calibrator(m, 0, other_index=0),
            lambda m: replace_calibrator(m, 0, missing_value=0.25),
        ]
        for route in routes:
            changed = route(model)
            changed_scores = assert_fresh(changed, data)
            assert changed_scores != scores
            assert assert_fresh(model, data) == scores
            model, scores = changed, changed_scores

    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda cs: pickle.loads(pickle.dumps(cs))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_do_not_share_parameters_or_row_entries(self, duplicate):
        model, data = mixed_model()
        scores = assert_fresh(model, data)  # binds the row calibration
        twin = Model(duplicate(model.calibrators), model.theta)
        assert "_calibrate_row" not in vars(twin.calibrators)  # nothing derived is carried over
        for mine, theirs in zip(model.calibrators.calibrators, twin.calibrators.calibrators):
            assert not np.shares_memory(mine.points, theirs.points)
            assert not theirs.points.flags.writeable
        assert assert_fresh(twin, data) == scores

    def test_outputs_and_values_are_read_only(self):
        model, _ = mixed_model()
        cat, cont, _ = model.calibrators.calibrators
        source = np.array([0, 1, 2, 2, 3])
        cont = replace(cont, outputs=source)
        source[1] = 2
        assert cont.outputs.dtype == np.float64
        assert cont.outputs.tolist() == [0.0, 1.0, 2.0, 2.0, 3.0]
        for points in (cont.outputs, cat.values, cont.points, cat.points):
            with pytest.raises(ValueError):
                points[1] = 0.5
            with pytest.raises(ValueError):
                points += 0.0
        for mine in (cat, cont):
            theirs = copy.copy(mine)
            assert not np.shares_memory(mine.points, theirs.points)
            assert mine.points.tolist() == theirs.points.tolist()


class TestTheta:
    @pytest.mark.parametrize("D", [2, 10])
    def test_in_place_edits_raise(self, D):
        model = unit_model([2] * D)
        with pytest.raises(ValueError):
            model.theta += 1.0
        with pytest.raises(ValueError):
            model.theta[0] = 5.0
        with pytest.raises(FrozenInstanceError):
            model.theta = model.theta + 1.0

    @pytest.mark.parametrize("D", [2, 10])
    def test_prediction_follows_reassignment(self, D):
        model = unit_model([2] * D)
        data = unit_rows(D, n=8)
        before = [model.predict_row(data.row(i)) for i in range(8)]
        changed = replace(model, theta=model.theta + 1.0)
        after = [changed.predict_row(data.row(i)) for i in range(8)]
        assert after == changed.predict(data).tolist()
        assert after == pytest.approx([b + 1.0 for b in before])
        assert [model.predict_row(data.row(i)) for i in range(8)] == before

    def test_stored_as_a_private_float_copy(self, tmp_path):
        source = np.array([0, 1, 1, 2])
        model = replace(unit_model([2, 2]), theta=source)
        source[0] = 7
        assert model.theta.dtype == np.float64
        assert model.theta.tolist() == [0.0, 1.0, 1.0, 2.0]
        model.save(tmp_path / "m.json")
        assert not Model.load(tmp_path / "m.json").theta.flags.writeable

    @pytest.mark.parametrize(
        "duplicate", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_duplicates_keep_theta_and_knots_read_only(self, duplicate):
        model, data = mixed_model()
        scores = assert_fresh(model, data)  # builds the row plan and row calibration
        twin = duplicate(model)
        assert "_row_plan" not in vars(twin)
        assert "_calibrate_row" not in vars(twin.calibrators)
        cat, cont, _ = twin.calibrators.calibrators
        assert cont._knot_list == cont.knots.tolist()
        for array in (twin.theta, cont.knots, cont.outputs, cat.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:] = array + 1.0
        assert assert_fresh(twin, data) == scores
        twin = replace(twin, theta=twin.theta + 1.0)
        assert assert_fresh(twin, data) != scores
        assert assert_fresh(model, data) == scores

    def test_list_cache_is_not_a_field_of_the_model(self):
        # the row plan holds theta's list form; it is neither shown nor set
        model = unit_model([2, 2])
        model.predict_row([0.5, 0.5])
        assert model._row_plan is model._row_plan
        assert "_row_plan" not in repr(model)
        assert "_row_plan" not in [f.name for f in fields(model)]
        with pytest.raises(TypeError):
            Model(model.calibrators, model.theta, _row_plan=None)

    def test_assigning_theta_or_shape_is_refused(self):
        model = unit_model([2, 2])
        model.predict_row([0.5, 0.5])
        plan = model._row_plan
        for name, value in (("theta", model.theta), ("shape", LatticeShape([2, 2]))):
            with pytest.raises(FrozenInstanceError):
                setattr(model, name, value)
        assert model._row_plan is plan
        twin = replace(model, theta=model.theta)
        twin.predict_row([0.5, 0.5])
        assert twin._row_plan is not plan


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
        model = Model(cals, np.array([0.0, 1.0, 3.0]))
        assert model.predict_row([text]) == model.predict(Dataset([[text]], None))[0] == 1.0
        model = replace_spec(model, 0, missing=MissingPolicy.NONE)
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
