import copy
import json
import pickle
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import (
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
            assert a.missing_vertex == b.missing_vertex

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
            Model(model.specs, model.shape, model.theta[:-1], model.calibrators)

    def test_constructor_rejects_lattice_size_mismatch(self, trained):
        model, _ = trained
        message = re.escape("lattice sizes [3, 2] do not match the feature sizes [3, 2, 3]")
        with pytest.raises(DataError, match=message):
            Model(model.specs, LatticeShape([3, 2]), model.theta[:6], model.calibrators)

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

    def test_format_constants(self, trained):
        doc = self.doc(trained)
        assert doc["format"] == FORMAT_NAME
        assert doc["version"] == FORMAT_VERSION
        assert doc["lattice"] == [3, 2, 3]


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
