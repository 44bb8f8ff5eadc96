import copy
import json
import math
import pickle
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import (
    CalibratorSet,
    CategoricalCalibrator,
    ContinuousCalibrator,
    DataError,
    Dataset,
    Direction,
    FeatureKind,
    FeatureSpec,
    InterpolationKind,
    LatticeShape,
    Loss,
    MissingPolicy,
    Model,
    TrainConfig,
    train,
)
from monolattice.calibrators import _missing_start
from monolattice.model import FORMAT_NAME, FORMAT_VERSION


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(17)
    n = 120
    cont = rng.random(n) * 5
    cont[rng.random(n) < 0.1] = np.nan
    gapped = rng.random(n)
    gapped[rng.random(n) < 0.1] = np.nan
    cats = list(rng.choice(["low", "mid", "high"], size=n))
    y = np.where(np.isnan(cont), 0.4, cont / 5) + np.where(
        [c == "high" for c in cats], 0.5, 0.0
    )
    data = Dataset([cont, cats, gapped], y)
    specs = [
        FeatureSpec(
            name="signal",
            kind=FeatureKind.CONTINUOUS,
            size=3,
            keypoints=4,
            monotone=Direction.INCREASING,
            missing=MissingPolicy.CALIBRATED,
        ),
        FeatureSpec(
            name="bucket",
            kind=FeatureKind.CATEGORICAL,
            size=2,
            order_pairs=[("low", "high")],
            allow_unseen=True,
        ),
        FeatureSpec(
            name="sparse",
            kind=FeatureKind.CONTINUOUS,
            size=3,
            keypoints=2,
            missing=MissingPolicy.VERTEX,
        ),
    ]
    config = TrainConfig(epochs=10, minibatch_size=16, step_size=0.2, seed=5)
    model = train(data, specs, config)
    return model, data


# every kind, missing policy and OTHER bucket (categorical only)
CALIBRATOR_LAYOUTS = [
    (kind, missing, other)
    for kind in FeatureKind
    for missing in MissingPolicy
    for other in (False, True)
    if kind is FeatureKind.CATEGORICAL or not other
]


@pytest.mark.parametrize("kind, missing, other", CALIBRATOR_LAYOUTS)
def test_load_builds_the_trained_calibrators(kind, missing, other):
    # the loader takes fit's rules for every field the file does not hold
    rng = np.random.default_rng(9)
    n = 90
    gaps = rng.random(n) < (0.0 if missing is MissingPolicy.NONE else 0.15)
    if kind is FeatureKind.CONTINUOUS:
        column = np.where(gaps, np.nan, rng.random(n) * 4.0)
    else:
        column = [None if g else c for g, c in zip(gaps, rng.choice(["a", "b", "c"], n))]
    specs = [
        FeatureSpec("f", kind=kind, size=3, keypoints=4, missing=missing, allow_unseen=other),
        FeatureSpec("g", monotone=Direction.INCREASING),
    ]
    data = Dataset([column, rng.random(n)], rng.random(n))
    model = train(data, specs, TrainConfig(epochs=2, seed=3))
    loaded = Model.from_json(model.to_json())
    assert loaded.calibrators == model.calibrators
    assert loaded.to_json() == model.to_json()


class TestRoundTrip:
    def test_every_parameter_survives(self, trained):
        model, _ = trained
        clone = Model.from_json(model.to_json())
        assert np.array_equal(np.asarray(clone.theta), np.asarray(model.theta))
        for a, b in zip(model.calibrators.calibrators, clone.calibrators.calibrators):
            if hasattr(a, "knots"):
                assert np.array_equal(a.knots, b.knots)
                assert np.array_equal(a.outputs, b.outputs)
            else:
                assert a.categories == b.categories
                assert np.array_equal(a.values, b.values)
                assert a.other_index == b.other_index
            assert a.missing_value == b.missing_value
            assert a.spec == b.spec

    def test_specs_survive(self, trained):
        model, _ = trained
        clone = Model.from_json(model.to_json())
        for a, b in zip(model.specs, clone.specs):
            assert a == b
        assert clone.shape == model.shape
        assert clone.kind is model.kind
        assert clone.loss is model.loss
        assert clone.metadata == model.metadata

    def test_specs_are_frozen(self, trained, tmp_path):
        # a changed spec would change the file, or write one that fails to load
        model, _ = trained
        text = model.to_json()
        assert isinstance(model.specs, tuple)
        for name, value in (("monotone", Direction.NONE), ("size", 4), ("name", "z")):
            with pytest.raises(FrozenInstanceError):
                setattr(model.specs[0], name, value)
        with pytest.raises(TypeError):
            model.specs[0] = replace(model.specs[0], size=4)
        bucket = model.specs[1]
        assert bucket.order_pairs == (("low", "high"),)
        with pytest.raises(AttributeError):
            bucket.order_pairs.append(("mid", "high"))
        assert model.to_json() == text
        model.save(tmp_path / "m.json")
        assert Model.load(tmp_path / "m.json").specs == model.specs

    def test_metadata_is_read_only(self, trained):
        # a change in place would change the file of a frozen model
        model, _ = trained
        text = model.to_json()
        plain = json.loads(text)["metadata"]
        assert model.metadata == plain
        for change in (
            lambda m: m.__setitem__("note", 1),
            lambda m: m.update(seed=1),
            lambda m: m.pop("seed"),
            lambda m: m["regularizers"].append({"kind": "torsion"}),
        ):
            with pytest.raises(TypeError, match="metadata is read-only"):
                change(model.metadata)
        assert model.to_json() == text
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert clone.to_json() == text
            with pytest.raises(TypeError):
                clone.metadata["note"] = 1
        other = replace(model, metadata={**plain, "note": [1]})
        assert json.loads(other.to_json())["metadata"]["note"] == [1]
        with pytest.raises(TypeError):
            other.metadata["note"].append(2)

    def test_predictions_identical(self, trained):
        model, data = trained
        clone = Model.from_json(model.to_json())
        before = model.predict(data)
        after = clone.predict(data)
        assert np.array_equal(before, after)

    def test_missing_rows_predict_identically(self, trained):
        model, _ = trained
        clone = Model.from_json(model.to_json())
        rows = [
            [float("nan"), "mid", 0.3],
            [2.5, "NEVER-SEEN", float("nan")],
            [None, "low", None],
        ]
        for row in rows:
            assert clone.predict_row(row) == model.predict_row(row)

    def test_constraints_survive(self, trained):
        model, _ = trained
        clone = Model.from_json(model.to_json())
        assert model.violations() == []
        assert clone.violations() == []
        assert clone.constraints().num_rows == model.constraints().num_rows

    def test_serialization_is_stable(self, trained):
        model, _ = trained
        text = model.to_json()
        assert Model.from_json(text).to_json() == text

    def test_bucket_spelled_category_round_trips(self, tmp_path):
        # a data value that is literally "<OTHER>" is the OTHER bucket
        rng = np.random.default_rng(3)
        col = list(rng.choice(["a", "<OTHER>", "b"], size=90, p=[0.4, 0.2, 0.4]))
        data = Dataset([col], np.array([{"a": 0.1, "<OTHER>": 0.5, "b": 0.9}[c] for c in col]))
        specs = [FeatureSpec("g", FeatureKind.CATEGORICAL, size=2, allow_unseen=True)]
        model = train(data, specs, TrainConfig(epochs=3, minibatch_size=8, seed=1))
        assert model.calibrators.calibrators[0].categories.count("<OTHER>") == 1
        path = tmp_path / "m.json"
        model.save(path)
        assert Model.load(path).to_json() == model.to_json()

    def test_save_and_load_files(self, trained, tmp_path):
        model, data = trained
        path = tmp_path / "m.json"
        model.save(path)
        raw = path.read_text()
        assert raw.endswith("\n")
        json.loads(raw)
        clone = Model.load(path)
        assert np.array_equal(clone.predict(data), model.predict(data))

    def test_round_trip_compares_equal(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "m.json"
        model.save(path)
        assert Model.load(path) == model
        assert Model.from_json(model.to_json()) == model

    def test_one_changed_parameter_compares_unequal(self, trained):
        model, _ = trained
        other = Model.from_json(model.to_json())
        theta = np.array(other.theta)
        theta[3] = np.nextafter(theta[3], np.inf)
        other = replace(other, theta=theta)
        assert other != model
        assert model != model.to_json()

    def test_save_twice_is_byte_identical(self, trained, tmp_path):
        model, _ = trained
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()


def _node_paths(node, path=()):
    """The key path of every node of a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _node_paths(child, (*path, key))


def _json_type(value) -> str:
    return {type(None): "null", bool: "boolean", int: "number", float: "number",
            str: "string", list: "array", dict: "object"}[type(value)]


# values of every JSON type, some at the edges of what a field accepts
OTHER_TYPED_VALUES = [
    None, True, False, 0, -1, 3, 0.5, -1e308, float("inf"), float("nan"),
    "", "x", "increasing", [], [0.5], [["a"]], [[0.0, 1.0]], {}, {"a": 1},
]


class TestValidation:
    def doc(self, trained):
        model, _ = trained
        return json.loads(model.to_json())

    def test_rejects_other_formats(self, trained):
        doc = self.doc(trained)
        doc["format"] = "something-else"
        with pytest.raises(ValueError, match="not a"):
            Model.from_json(json.dumps(doc))

    def test_rejects_future_versions(self, trained):
        doc = self.doc(trained)
        doc["version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            Model.from_json(json.dumps(doc))

    def test_rejects_theta_length_mismatch(self, trained):
        doc = self.doc(trained)
        doc["theta"] = doc["theta"][:-1]
        with pytest.raises(ValueError, match="theta"):
            Model.from_json(json.dumps(doc))

    def test_constructor_rejects_theta_length_mismatch(self, trained):
        # the loader's message, raised by the constructor the loader calls
        model, _ = trained
        message = re.escape("theta has shape (17,), lattice needs (18,)")
        with pytest.raises(DataError, match=message):
            Model(model.calibrators, model.theta[:-1])

    def test_rejects_non_json(self):
        with pytest.raises(ValueError):
            Model.from_json("not json at all")

    @pytest.mark.parametrize("key", ["lattice", "theta", "features", "loss"])
    def test_missing_key_is_a_data_error(self, trained, key):
        doc = self.doc(trained)
        del doc[key]
        with pytest.raises(DataError, match=repr(key)):
            Model.from_json(json.dumps(doc))

    @pytest.mark.parametrize("features", [[], {}])
    def test_file_without_features_is_a_data_error(self, trained, features):
        # a set of no calibrators has no knot block to build
        doc = self.doc(trained)
        doc["features"] = features
        with pytest.raises(DataError, match="model file lists no features"):
            Model.from_json(json.dumps(doc))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_or_is_a_data_error(self, trained, data):
        doc = self.doc(trained)
        path = data.draw(st.sampled_from(list(_node_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and path and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            node = parent[path[-1]] if path else doc
            value = data.draw(
                st.sampled_from([v for v in OTHER_TYPED_VALUES if _json_type(v) != _json_type(node)])
            )
            if path:
                parent[path[-1]] = value
            else:
                doc = value
        try:
            Model.from_json(json.dumps(doc))
        except DataError:
            pass

    @pytest.mark.parametrize("feature, key", [(1, "other_index"), (0, "missing_value")])
    def test_boolean_number_is_a_data_error(self, trained, feature, key):
        # JSON true is not the number 1, and would save back as true
        doc = self.doc(trained)
        doc["features"][feature]["calibrator"][key] = True
        with pytest.raises(DataError, match=f"{key} True"):
            Model.from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", ["x", True, 0.5])
    @pytest.mark.parametrize("feature, policy", [(1, "none"), (2, "vertex")])
    def test_missing_value_without_calibrated_policy_is_a_data_error(
        self, trained, feature, policy, value
    ):
        # only the calibrated policy reads missing_value; elsewhere it is null
        doc = self.doc(trained)
        assert doc["features"][feature]["missing"] == policy
        assert doc["features"][feature]["calibrator"]["missing_value"] is None
        doc["features"][feature]["calibrator"]["missing_value"] = value
        name = doc["features"][feature]["name"]
        message = f"feature '{name}': missing_value {value!r} is not null"
        with pytest.raises(DataError, match=message):
            Model.from_json(json.dumps(doc))

    def test_knot_gap_past_the_float_limit_is_a_data_error(self, trained):
        # knots and outputs each fine alone; calibration would divide by the
        # gap between the knots, which is inf: the calibrator is not made,
        # in code or from a file
        message = "feature 'wide': the gap between knots -1.7e+308 and 1.7e+308 overflows"
        with pytest.raises(DataError, match=re.escape(message)):
            ContinuousCalibrator(FeatureSpec("wide", size=3), [-1.7e308, 1.7e308], [0.0, 2.0])
        doc = self.doc(trained)
        doc["features"][0]["calibrator"].update(knots=[-1.7e308, 1.7e308], outputs=[0.0, 2.0])
        with pytest.raises(DataError, match=re.escape(message.replace("wide", "signal"))):
            Model.from_json(json.dumps(doc))

    def test_format_constants(self, trained):
        doc = self.doc(trained)
        assert doc["format"] == FORMAT_NAME
        assert doc["version"] == FORMAT_VERSION
        assert doc["lattice"] == [3, 2, 3]


def one_feature_model(cal, theta=None, **fields):
    theta = np.linspace(0.0, 1.0, cal.spec.size) if theta is None else theta
    return Model(CalibratorSet([cal]), theta, **fields)


def line(spec, **changes):
    """A calibrator of continuous ``spec`` on knots 0 and 1, its outputs the
    ends of the axis, with ``changes``."""
    fields = dict(knots=[0.0, 1.0], outputs=[0.0, spec.axis_top])
    return ContinuousCalibrator(spec, **{**fields, "missing_value": _missing_start(spec), **changes})


class TestConstructionGate:
    """A calibrator checks its structure and a model checks the rest when
    made, so that a model built in code, by ``replace`` or from a
    hand-built set scores only what its own file would load."""

    def test_calibrated_missing_value_left_unset(self):
        spec = FeatureSpec("x", size=3, missing=MissingPolicy.CALIBRATED)
        with pytest.raises(DataError, match="feature 'x': missing_value None is not a finite number"):
            line(spec, missing_value=None)

    def test_theta_that_is_not_finite(self):
        spec = FeatureSpec("x")
        with pytest.raises(DataError, match=re.escape("theta[0] is not finite")):
            one_feature_model(line(spec), theta=[np.nan, np.inf])
        model = one_feature_model(line(spec))
        with pytest.raises(DataError, match=re.escape("theta[1] is not finite")):
            replace(model, theta=[0.0, np.inf])

    def test_kind_and_loss_given_as_text(self):
        spec = FeatureSpec("x")
        model = one_feature_model(line(spec), kind="simplex", loss="logistic")
        assert model.kind is InterpolationKind.SIMPLEX and model.loss is Loss.LOGISTIC
        assert Model.from_json(model.to_json()).to_json() == model.to_json()
        with pytest.raises(DataError, match="interpolation 'cubic' is not one of"):
            replace(model, kind="cubic")
        with pytest.raises(DataError, match="loss 'cubic' is not one of"):
            replace(model, loss="cubic")

    def test_continuous_calibrator_under_a_categorical_spec(self):
        spec = FeatureSpec("x", kind=FeatureKind.CATEGORICAL)
        message = "feature 'x': a categorical feature's calibrator is ContinuousCalibrator"
        with pytest.raises(DataError, match=message):
            line(spec)

    def test_categorical_calibrator_under_a_continuous_spec(self):
        message = "feature 'y': a continuous feature's calibrator is CategoricalCalibrator"
        with pytest.raises(DataError, match=message):
            CategoricalCalibrator(FeatureSpec("y"), ["a"], [0.0])

    def test_category_that_is_not_text(self):
        # rows are looked up by their text, so such a category could never
        # match, and the model file could not be written
        spec = FeatureSpec("c", kind=FeatureKind.CATEGORICAL)
        with pytest.raises(DataError, match="feature 'c': category 1 is not text"):
            CategoricalCalibrator(spec, [1, "b"], [0.0, 1.0])

    def test_category_that_is_not_text_in_a_model_file(self):
        spec = FeatureSpec("c", kind=FeatureKind.CATEGORICAL)
        cal = CategoricalCalibrator(spec, ["1", "b"], [0.0, 1.0])
        doc = json.loads(one_feature_model(cal).to_json())
        doc["features"][0]["calibrator"]["category_order"] = [1, "b"]
        with pytest.raises(DataError) as err:
            Model.from_json(json.dumps(doc))
        assert str(err.value) == "feature 'c': category 1 is not text"

    def test_metadata_that_json_cannot_write(self):
        spec = FeatureSpec("x")
        with pytest.raises(DataError) as err:
            one_feature_model(line(spec), metadata={"a": {1, 2}})
        assert str(err.value) == "metadata['a'] is a set, which JSON cannot write"
        with pytest.raises(DataError) as err:
            one_feature_model(line(spec), metadata={"a": [0, {2: "b"}]})
        assert str(err.value) == "metadata['a'][1] has the key 2, which is not text"
        model = one_feature_model(line(spec), metadata={"a": [1, (2.5, None)], "b": {"c": True}})
        assert Model.from_json(model.to_json()).to_json() == model.to_json()

    def test_lattice_size_below_two_is_the_spec_s_error(self, trained):
        doc = json.loads(trained[0].to_json())
        doc["features"][0]["size"] = 1
        with pytest.raises(DataError) as err:
            Model.from_json(json.dumps(doc))
        assert str(err.value) == "feature signal: lattice size must be >= 2"

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_a_model_made_in_code_loads_back_and_scores_alike(self, data):
        # hostile fields: every built model saves and loads to the same
        # bytes, and both predict paths agree on every row, by bits
        try:
            model = data.draw(code_built_models())
        except DataError:
            return
        text = model.to_json()
        assert Model.from_json(text).to_json() == text
        for _ in range(4):
            row = [data.draw(_raw_values(spec)) for spec in model.specs]
            batch = Dataset([[v] for v in row], None)
            try:
                want = model.predict_row(row)
            except DataError as e:
                with pytest.raises(DataError, match=re.escape(str(e))):
                    model.predict(batch)
                continue
            assert model.predict(batch)[0].hex() == want.hex()

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_calibrated_coordinates_are_floats_on_the_lattice(self, data):
        # predict_row's kernel scores the calibrated coordinates with no
        # check of their own, so every model that is made places each value
        # it accepts at a float inside the lattice
        try:
            model = data.draw(code_built_models())
        except DataError:
            return
        cals = model.calibrators
        for _ in range(4):
            row = [data.draw(_edge_values(cal)) for cal in cals.calibrators]
            try:
                coordinates = cals.calibrate_row(row)
            except DataError:
                continue
            for x, spec in zip(coordinates, model.specs):
                assert type(x) is float and 0.0 <= x <= spec.size - 1, (x, spec)


# floats a user can hand in: signed zeros, a subnormal, the ends of the
# axis and beyond, near the float limit, and values that are not finite
_HOSTILE = [0.0, -0.0, 5e-324, 0.5, 1.0, 2.0, 3.0, -1.0, 1e300, -1.7e308, 1.7e308,
            math.nan, math.inf, -math.inf]
_NAMES = ["a", "b", "c", "<OTHER>"]


def _hostile_list(draw, size):
    return draw(st.lists(st.sampled_from(_HOSTILE), min_size=size, max_size=size))


def _raw_values(spec):
    if spec.kind is FeatureKind.CONTINUOUS:
        return st.one_of(st.sampled_from(_HOSTILE + [None, "nan", "abc"]), st.floats(-2.0, 2.0))
    return st.sampled_from(_NAMES + ["zz", None, math.nan, 1.0])


def _edge_values(cal):
    """A calibrator's edge values: missing ones, ±inf, its knots and the
    floats just past the end knots, or its categories and unknown ones;
    then any raw value."""
    edges = [None, math.nan, math.inf, -math.inf]
    if isinstance(cal, ContinuousCalibrator):
        knots = cal.knots.tolist()
        edges += knots + [math.nextafter(knots[0], -math.inf), math.nextafter(knots[-1], math.inf)]
    else:
        edges += list(cal.categories) + ["zz", "<OTHER>"]
    return st.one_of(st.sampled_from(edges), _raw_values(cal.spec))


@st.composite
def code_built_models(draw):
    """A model made in code, through every constructor, with fields that
    are mostly those training makes and each sometimes hostile.  Whatever
    is refused raises a DataError on construction."""
    def rarely() -> bool:
        return draw(st.integers(0, 11)) == 7

    cals = []
    for d in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(list(FeatureKind)))
        names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
        pairs = []
        if kind is FeatureKind.CATEGORICAL and draw(st.booleans()):
            pairs = [tuple(draw(st.lists(st.sampled_from(names + ["z"] * rarely()), min_size=2,
                                         max_size=2)))]
        if kind is FeatureKind.CATEGORICAL and rarely():
            pairs = [("a", "b")]
        spec = FeatureSpec(f"f{d}", kind=kind, size=1 if rarely() else draw(st.integers(3, 4)),
                           missing=draw(st.sampled_from(list(MissingPolicy))), order_pairs=pairs)
        missing = _missing_start(spec)
        if rarely():
            missing = draw(st.sampled_from(_HOSTILE + [None, True, 1]))
        top = spec.axis_top
        if (kind is FeatureKind.CONTINUOUS) is not rarely():
            k = draw(st.integers(2, 4))
            if rarely():
                knots = _hostile_list(draw, k)
            else:
                knots = draw(st.lists(st.floats(-1e300, 1e300), min_size=k, max_size=k, unique=True))
                knots.sort()
            outputs = np.linspace(0.0, top, k).tolist()
            if rarely():
                outputs = _hostile_list(draw, k + draw(st.sampled_from([0, 1])))
            elif draw(st.booleans()):
                outputs = sorted(draw(st.lists(st.floats(0.0, top), min_size=k, max_size=k)))
            cal = ContinuousCalibrator(spec, knots, outputs, missing)
        else:
            categories = names + [draw(st.sampled_from(names))] * rarely()
            values = draw(st.lists(st.floats(0.0, top), min_size=len(categories),
                                   max_size=len(categories)))
            if rarely():
                values = _hostile_list(draw, len(values))
            other = None
            if draw(st.booleans()):
                other = draw(st.sampled_from([len(categories), -1, True])) if rarely() else 0
            cal = CategoricalCalibrator(spec, categories, values, missing, other)
        cals.append(cal)
    size = LatticeShape([cal.spec.size for cal in cals]).num_parameters
    theta = draw(st.lists(st.floats(-1e300, 1e300), min_size=size, max_size=size))
    if rarely():
        theta[draw(st.integers(0, len(theta) - 1))] = draw(st.sampled_from(_HOSTILE))
    return Model(
        CalibratorSet(cals), theta,
        kind=draw(st.sampled_from(list(InterpolationKind) + ["simplex", "multilinear"]
                                  + ["cubic"] * rarely())),
        loss=draw(st.sampled_from(list(Loss) + ["logistic"] + ["cubic"] * rarely())),
    )


class TestLoadingViolatingFiles:
    """check must be able to load and report an infeasible file."""

    def test_violating_theta_loads_and_reports(self, trained):
        model, _ = trained
        doc = json.loads(model.to_json())
        doc["theta"] = [x for x in reversed(doc["theta"])]
        clone = Model.from_json(json.dumps(doc))
        assert len(clone.violations()) > 0


class TestPredict:
    def test_prediction_follows_theta_assignment(self):
        data = Dataset([np.array([0.0, 1.0])], np.array([0.0, 1.0]))
        specs = [FeatureSpec(name="x", bounds=(0.0, 1.0))]
        model = train(data, specs, TrainConfig(epochs=1, step_size=0.0))
        model = replace(model, theta=np.array([0.0, 1.0]))
        assert model.predict_row([0.25]) == pytest.approx(0.25)
        model = replace(model, theta=np.array([1.0, 1.0]))
        assert model.predict_row([0.25]) == pytest.approx(1.0)
