"""Each feature's schema is stored once, in its calibrator's ``FeatureSpec``.

A calibrator reads its feature's name, axis top, missing policy, missing
vertex and order pairs from its spec; a ``CalibratorSet`` reads its specs
from its calibrators, and a ``Model`` its specs and lattice shape from its
set.  A copy of any of them stored beside the spec would need rules to
keep the copies in agreement, so this test fails on a constructor field
that holds one.

A feature's JSON entry, the same in a schema and in a model file, is read
and written by ``FeatureSpec`` alone, so its keys are spelled in one
module: a static test fails on a spec key written as a string literal
anywhere else in ``src``."""

import ast
import dataclasses
from pathlib import Path

import monolattice
from monolattice import (
    CalibratorSet,
    CategoricalCalibrator,
    ContinuousCalibrator,
    FeatureSpec,
    Model,
)

# what a calibrator or a set reads from the specs, and a model from its set
SPEC_FIELDS = {"name", "axis_top", "missing", "missing_vertex", "order_pairs", "specs"}
DERIVED_BY_THE_MODEL = {"specs", "shape"}


def _fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_calibrators_hold_their_spec_and_no_copy_of_it():
    for cls in (ContinuousCalibrator, CategoricalCalibrator):
        assert "spec" in _fields(cls), cls.__name__
        assert not _fields(cls) & SPEC_FIELDS, cls.__name__


def test_the_set_stores_no_specs():
    assert not _fields(CalibratorSet) & SPEC_FIELDS


def test_the_model_derives_its_specs_and_shape():
    assert not _fields(Model) & DERIVED_BY_THE_MODEL


# keys of a feature entry that only the spec's codec reads or writes
SPEC_KEYS = {"size", "keypoints", "bounds", "order", "allow_unseen"}


def test_the_spec_keys_are_spelled_only_beside_the_spec():
    for path in sorted(Path(monolattice.__file__).parent.glob("*.py")):
        if path.name == "calibrators.py":
            continue
        literals = {
            node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert not literals & SPEC_KEYS, path.name
    assert SPEC_KEYS <= set(FeatureSpec("x").to_doc())
