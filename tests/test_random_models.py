"""Random small models, trained end to end: scored alike by the batch and
single-row paths, monotone at tolerance 0 with feasible calibrators, saved
and loaded byte for byte, the same bytes for the same seed, and scored
alike by their pickled and deep-copied twins.  Random problems with one
feature broken fail with the ``DataError`` naming it, in the library and,
with exit code 2, on the command line."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import pickle
import tempfile
from dataclasses import replace

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
    Loss,
    MissingPolicy,
    Model,
    PairDataset,
    RegularizerConfig,
    RegularizerKind,
    TrainConfig,
    max_infeasibility,
    train,
)
from monolattice.cli import main

CATEGORIES = ["a", "b", "c"]


@st.composite
def features(draw, name, continuous=None):
    """One feature of lattice size 2 or 3 and a column drawer for it: a
    continuous feature of any direction and missing policy, or a
    categorical one, with or without an order pair and an OTHER bucket.
    ``continuous`` fixes the kind, which is drawn when it is None."""
    size = draw(st.integers(2, 3))
    missing = draw(st.sampled_from(
        [MissingPolicy.NONE, MissingPolicy.CALIBRATED]
        + ([MissingPolicy.VERTEX] if size == 3 else [])
    ))
    if draw(st.booleans()) if continuous is None else continuous:
        spec = FeatureSpec(
            name, size=size, keypoints=draw(st.integers(2, 5)), missing=missing,
            monotone=draw(st.sampled_from(list(Direction))),
        )

        def column(rng, n):
            col = rng.random(n) * 10
            if missing is not MissingPolicy.NONE:
                col[rng.random(n) < 0.2] = np.nan
            return col

        return spec, column
    spec = FeatureSpec(
        name, kind=FeatureKind.CATEGORICAL, size=size, missing=missing,
        order_pairs=draw(st.sampled_from([[], [("a", "c")]])),
        allow_unseen=draw(st.booleans()),
    )

    def column(rng, n):
        col = list(rng.choice(CATEGORIES, n))
        col[:3] = CATEGORIES  # every category the order pair names is seen
        if missing is not MissingPolicy.NONE:
            col[3] = None
        return col

    return spec, column


@st.composite
def random_models(draw):
    """1-4 features of sizes 2-3 (all-2 lattices have one cell), either
    interpolation kind, the three losses on rows or on pairs, 1-3
    workers, and no regularizer, an exact or a sampled one, or both.  Returns the training data,
    specs, config and data to score."""
    drawn = [draw(features(f"f{d}")) for d in range(draw(st.integers(1, 4)))]
    specs = [spec for spec, _ in drawn]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(20, 40))

    def columns(count):
        return [column(rng, count) for _, column in drawn]

    loss = draw(st.sampled_from(list(Loss)))
    if draw(st.booleans()):
        data = PairDataset(columns(n), columns(n))
    else:
        labels = rng.random(n)
        data = Dataset(columns(n), labels if loss is Loss.SQUARED else np.round(labels))
    config = TrainConfig(
        loss=loss,
        kind=draw(st.sampled_from(list(InterpolationKind))),
        epochs=draw(st.integers(1, 3)),
        minibatch_size=draw(st.integers(1, 16)),
        step_size=draw(st.sampled_from([0.1, 1.0, 10.0, 100.0])),
        regularizers=draw(st.sampled_from([
            (),
            (RegularizerConfig(RegularizerKind.LAPLACIAN, 0.01),),
            (RegularizerConfig(RegularizerKind.TORSION, 0.01, sample_count=2),),
            (
                RegularizerConfig(RegularizerKind.LAPLACIAN, 0.01),
                RegularizerConfig(RegularizerKind.TORSION, 0.01, sample_count=2),
            ),
        ])),
        seed=draw(st.integers(0, 1000)),
        workers=draw(st.integers(1, 3)),
        sync_rounds=draw(st.integers(1, 2)),
    )
    return data, specs, config, Dataset(columns(30), None)


class TestRandomModels:
    @settings(max_examples=50, deadline=None)
    @given(random_models())
    def test_trained_models_keep_their_promises(self, drawn):
        data, specs, config, scored = drawn
        model = train(data, specs, config)
        batch = model.predict(scored)
        rows = [model.predict_row(scored.row(i)) for i in range(scored.num_rows)]
        assert batch.tobytes() == np.array(rows).tobytes()
        assert model.violations(0.0) == []
        cs = model.calibrators
        assert max_infeasibility(cs.alpha(), cs.constraints()) == 0.0
        for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert twin.predict(scored).tobytes() == batch.tobytes()
            twin_rows = [twin.predict_row(scored.row(i)) for i in range(scored.num_rows)]
            assert np.array(twin_rows).tobytes() == batch.tobytes()
            cals = twin.calibrators.calibrators
            # theta, every calibrator's outputs or values, and the knots
            arrays = [twin.theta, *(cal.points for cal in cals),
                      *(cal.knots for cal in cals if hasattr(cal, "knots"))]
            assert not any(array.flags.writeable for array in arrays)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            model.save(first)
            Model.load(first).save(second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()
        assert train(data, specs, config).to_json() == model.to_json()


@st.composite
def broken_problems(draw, constant: bool):
    """1-4 features drawn as for random_models, on rows, with one feature
    broken: with ``constant`` a continuous one whose column holds one value
    (and its missing values), otherwise a categorical one that declares the
    pair ("a", "c") and whose column never holds "c".  Returns the data,
    specs and the message of the DataError that fitting the calibrators
    raises."""
    count = draw(st.integers(1, 4))
    d = draw(st.integers(0, count - 1))
    drawn = [draw(features(f"f{j}", constant if j == d else None)) for j in range(count)]
    specs = [spec for spec, _ in drawn]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(20, 40))
    columns = [column(rng, n) for _, column in drawn]
    if constant:
        value = draw(st.sampled_from([0.0, 2.5, 10.0]))
        columns[d] = np.where(np.isnan(columns[d]), np.nan, value)
        message = f"feature f{d}: degenerate bounds [{value}, {value}]; column may be constant"
    else:
        specs[d] = replace(specs[d], order_pairs=[("a", "c")])
        columns[d] = ["b" if v == "c" else v for v in columns[d]]
        message = f"feature f{d}: order pair names unknown category 'c'"
    return Dataset(columns, rng.random(n)), specs, message


def _cell(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return v if isinstance(v, str) else repr(float(v))


def _write_problem(tmp: str, data: Dataset, specs) -> list[str]:
    """The problem as a schema and a CSV file; returns the train arguments."""
    schema = {"label": "y", "features": [
        {"name": s.name, "kind": s.kind.value, "size": s.size, "keypoints": s.keypoints,
         "monotone": s.monotone.value, "missing": s.missing.value,
         "order": [list(p) for p in s.order_pairs], "allow_unseen": s.allow_unseen}
        for s in specs
    ]}
    paths = [os.path.join(tmp, name) for name in ("schema.json", "train.csv", "model.json")]
    with open(paths[0], "w") as fh:
        json.dump(schema, fh)
    with open(paths[1], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in specs] + ["y"])
        for i in range(data.num_rows):
            writer.writerow([_cell(v) for v in data.row(i)] + [repr(float(data.labels[i]))])
    return ["train", "--schema", paths[0], "--data", paths[1], "--out", paths[2]]


class TestBrokenProblems:
    @pytest.mark.parametrize("constant", [True, False], ids=["constant-column", "unknown-category"])
    @settings(max_examples=20, deadline=None)
    @given(drawn=st.data())
    def test_data_errors_name_the_feature_and_exit_2(self, constant, drawn):
        data, specs, message = drawn.draw(broken_problems(constant))
        with pytest.raises(DataError) as err:
            train(data, specs, TrainConfig(epochs=1))
        assert str(err.value) == message
        with tempfile.TemporaryDirectory() as tmp:
            args = _write_problem(tmp, data, specs)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                assert main(args) == 2
            assert not os.path.exists(args[-1])
        assert stderr.getvalue() == f"error: {message}\n"
