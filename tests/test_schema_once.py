"""Each feature's schema is stored once, in its calibrator's ``FeatureSpec``.

A calibrator reads its feature's name, axis top, missing policy, missing
vertex and order pairs from its spec; a ``CalibratorSet`` reads its specs
from its calibrators, and a ``Model`` its specs and lattice shape from its
set.  A copy of any of them stored beside the spec would need rules to
keep the copies in agreement, so this test fails on a constructor field
that holds one."""

import dataclasses

from monolattice import CalibratorSet, CategoricalCalibrator, ContinuousCalibrator, Model

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
