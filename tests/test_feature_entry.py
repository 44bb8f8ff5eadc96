"""A feature's JSON entry has one codec and one gate.

``FeatureSpec.to_doc`` writes the entry and ``FeatureSpec.from_doc`` reads
it, for schema and model files alike, and the spec's constructor checks
the type of every field, whoever makes the spec.  The schema adds defaults
for absent keys and aliases of the ``monotone`` directions; a model file
holds every key, in its canonical spelling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import DataError, Direction, FeatureKind, FeatureSpec, MissingPolicy, load_schema

_TEXTS = st.text(min_size=1, max_size=4)
_NUMBERS = st.one_of(st.integers(-10**6, 10**6), st.floats(-1e300, 1e300))


@st.composite
def specs(draw, name="f"):
    """A valid spec of any kind and missing policy, with or without bounds,
    categories and order pairs."""
    missing = draw(st.sampled_from(list(MissingPolicy)))
    categories = draw(st.none() | st.lists(_TEXTS, max_size=4).map(tuple))
    return FeatureSpec(
        name,
        kind=draw(st.sampled_from(list(FeatureKind))),
        size=draw(st.integers(3 if missing is MissingPolicy.VERTEX else 2, 5)),
        keypoints=draw(st.integers(2, 9)),
        bounds=draw(st.none() | st.tuples(_NUMBERS, _NUMBERS)),
        monotone=draw(st.sampled_from(list(Direction))),
        missing=missing,
        categories=categories,
        order_pairs=draw(st.lists(st.tuples(_TEXTS, _TEXTS), max_size=3).map(tuple)),
        allow_unseen=draw(st.booleans()),
    )


@given(st.lists(specs(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_an_entry_reads_back_as_its_spec_from_a_model_and_a_schema_file(tmp_path_factory, drawn):
    drawn = [FeatureSpec.from_doc({**s.to_doc(), "name": f"f{d}"}) for d, s in enumerate(drawn)]
    for spec in drawn:
        assert FeatureSpec.from_doc(spec.to_doc()) == spec
        assert FeatureSpec.from_doc(json.loads(json.dumps(spec.to_doc()))) == spec
    path = tmp_path_factory.mktemp("schema") / "schema.json"
    path.write_text(json.dumps({"label": "y", "features": [s.to_doc() for s in drawn]}))
    assert load_schema(path) == (drawn, "y")


class TestGate:
    def test_numpy_integers_are_stored_as_python_ints(self):
        spec = FeatureSpec("x", size=np.int64(3), keypoints=np.int32(4))
        assert (type(spec.size), type(spec.keypoints)) == (int, int)
        assert spec == FeatureSpec("x", size=3, keypoints=4)

    @pytest.mark.parametrize("field, value, message", [
        ("size", True, "feature 'x': size True is not an integer"),
        ("size", 3.0, "feature 'x': size 3.0 is not an integer"),
        ("keypoints", "4", "feature 'x': keypoints '4' is not an integer"),
        ("bounds", (True, 1.0), "feature 'x': bounds (True, 1.0) is not null or a pair of numbers"),
        ("bounds", ("0", 1.0), "feature 'x': bounds ('0', 1.0) is not null or a pair of numbers"),
        ("bounds", 1.0, "feature 'x': bounds 1.0 is not null or a pair of numbers"),
        ("categories", ["a", 1], "feature 'x': categories ['a', 1] is not null or a list of text"),
        ("categories", "abc", "feature 'x': categories 'abc' is not null or a list of text"),
        ("order_pairs", [("a", "b", "c")],
         "feature 'x': order [('a', 'b', 'c')] is not a list of pairs of texts"),
        ("order_pairs", [("a", 1)],
         "feature 'x': order [('a', 1)] is not a list of pairs of texts"),
        ("order_pairs", "ab", "feature 'x': order 'ab' is not a list of pairs of texts"),
        ("allow_unseen", 1, "feature 'x': allow_unseen 1 is not true or false"),
    ])
    def test_a_field_of_the_wrong_type_is_a_type_error(self, field, value, message):
        with pytest.raises(TypeError) as err:
            FeatureSpec("x", **{field: value})
        assert str(err.value) == message

    def test_a_name_that_is_not_text_is_a_type_error(self):
        with pytest.raises(TypeError, match="^feature name 5 is not text$"):
            FeatureSpec(5)

    def test_a_value_that_is_not_a_choice_names_the_choices(self):
        with pytest.raises(DataError, match="^feature 'x': monotone 'up' is not one of increasing"):
            FeatureSpec("x", monotone="up")

    def test_bounds_are_kept_as_given(self):
        # a model file writes back the numbers it read
        assert FeatureSpec("x", bounds=[0, 1]).bounds == (0, 1)
        assert FeatureSpec("x", bounds=[0, 1]).to_doc()["bounds"] == [0, 1]

    def test_an_entry_missing_a_key_names_it(self):
        doc = FeatureSpec("x").to_doc()
        del doc["keypoints"]
        with pytest.raises(KeyError, match="keypoints"):
            FeatureSpec.from_doc(doc)


class TestSchemaEntries:
    def load(self, tmp_path, *features):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"features": list(features)}))
        return load_schema(path)[0]

    def test_absent_keys_take_the_defaults(self, tmp_path):
        plain, vertex = self.load(tmp_path, {"name": "a"}, {"name": "b", "missing": "vertex"})
        assert plain == FeatureSpec("a")
        assert vertex == FeatureSpec("b", size=3, missing=MissingPolicy.VERTEX)

    @pytest.mark.parametrize("alias, direction", [
        ("+", Direction.INCREASING), ("inc", Direction.INCREASING),
        (" Decreasing ", Direction.DECREASING),
    ])
    def test_monotone_aliases(self, tmp_path, alias, direction):
        (spec,) = self.load(tmp_path, {"name": "a", "monotone": alias})
        assert spec.monotone is direction

    def test_an_unknown_direction_is_the_spec_s_error(self, tmp_path):
        with pytest.raises(DataError) as err:
            self.load(tmp_path, {"name": "a", "monotone": "sideways"})
        assert str(err.value) == (
            f"schema {tmp_path / 'schema.json'}: feature 'a': monotone 'sideways' is not one of "
            "increasing, decreasing, none"
        )

    def test_a_wrong_type_is_a_data_error_with_the_schema_prefix(self, tmp_path):
        with pytest.raises(DataError) as err:
            self.load(tmp_path, {"name": "a", "size": 2.9})
        assert str(err.value) == (
            f"schema {tmp_path / 'schema.json'}: feature 'a': size 2.9 is not an integer"
        )
