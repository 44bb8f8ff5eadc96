"""Every float a user can hand in, through the whole pipeline.

A derandomized hypothesis property drives fit -> train -> save -> load ->
``predict``/``predict_row`` -> ``check`` with hostile floats: signed
zeros, subnormals, values within 4x of the float max, columns whose span
is past the float range, constant and two-valued columns, and labels,
step sizes and regularizer weights up to 1e300.  The suite makes every
``RuntimeWarning`` an error, so an overflow numpy would only warn about
fails here too.

Every example ends in one of three ways:

* a ``DataError`` that names the feature;
* a ``TrainingError`` that names round, worker, epoch and step;
* a model with finite parameters, monotone at tolerance 0, whose
  ``predict`` equals ``predict_row`` bit for bit, which saves and loads
  to an equal model, and which ``check`` passes; its objective on the
  training data is a number >= 0, inf where a square passes the float
  limit.
"""

import contextlib
import io
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import (
    DataError,
    Dataset,
    Direction,
    FeatureKind,
    FeatureSpec,
    Loss,
    MissingPolicy,
    Model,
    RegularizerConfig,
    RegularizerKind,
    TrainConfig,
    TrainingError,
    model_objective,
    train,
)
from monolattice.cli import main

MAX = sys.float_info.max
TINY = 5e-324  # the least subnormal
HOSTILE = [0.0, -0.0, TINY, -TINY, 1e-310, -1e-310, 2.2250738585072014e-308, 1e-15, 0.5, 1.0,
           -1.0, 3.0, 1e300, -1e300, MAX / 4, -MAX / 4, MAX / 2, 1.7e308, -1.7e308, MAX, -MAX]
LABELS = [0.0, -0.0, 1.0, 0.5, TINY, 1e-300, 1e150, -1e150, 1e300, -1e300]
STEPS = [0.0, TINY, 1e-300, 0.05, 1.0, 1e10, 1e150, 1e300]
WEIGHTS = [0.0, TINY, 1.0, 1e150, 1e300]
TRAINING_WHERE = re.compile(r"\(round \d+, worker \d+, epoch \d+, step \d+\)$")


@st.composite
def columns(draw, kind: FeatureKind, missing: MissingPolicy, n: int):
    """A hostile column of ``n`` values: hostile floats, one repeated
    value, two values, a span past the float range or subnormals only;
    categorical columns hold their text.  Missing values appear where the
    feature has a missing policy, and now and then where it has none."""
    shape = draw(st.sampled_from(["hostile", "constant", "two", "span", "subnormal"]))
    if shape == "hostile":
        values = draw(st.lists(st.sampled_from(HOSTILE), min_size=n, max_size=n))
    elif shape == "constant":
        values = [draw(st.sampled_from(HOSTILE))] * n
    elif shape == "two":
        pair = draw(st.lists(st.sampled_from(HOSTILE), min_size=2, max_size=2))
        values = [pair[i] for i in draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))]
    elif shape == "span":
        values = draw(st.lists(st.floats(-MAX, MAX), min_size=n, max_size=n))
        values[:2] = [-1.7e308, 1.7e308]
    else:
        values = draw(st.lists(st.floats(-1e-308, 1e-308), min_size=n, max_size=n))
    if missing is not MissingPolicy.NONE or draw(st.integers(0, 9)) == 0:
        holes = draw(st.lists(st.integers(0, n - 1), max_size=3))
        for i in holes:
            values[i] = math.nan
    if kind is FeatureKind.CATEGORICAL:
        return [None if v != v else repr(v) for v in values]
    return np.array(values, dtype=float)


@st.composite
def problems(draw):
    """Specs, a labelled dataset and a training config."""
    n = draw(st.integers(2, 24))
    specs, cols = [], []
    for d in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(list(FeatureKind)))
        missing = draw(st.sampled_from(list(MissingPolicy)))
        bounds = None
        if kind is FeatureKind.CONTINUOUS and draw(st.integers(0, 4)) == 0:
            bounds = tuple(sorted(draw(st.lists(st.sampled_from(HOSTILE), min_size=2, max_size=2))))
        specs.append(FeatureSpec(
            f"f{d}", kind=kind,
            size=draw(st.integers(3 if missing is MissingPolicy.VERTEX else 2, 4)),
            keypoints=draw(st.integers(2, 6)), bounds=bounds,
            monotone=draw(st.sampled_from(list(Direction))), missing=missing,
            allow_unseen=kind is FeatureKind.CATEGORICAL and draw(st.booleans()),
        ))
        cols.append(draw(columns(kind, missing, n)))
    loss = draw(st.sampled_from(list(Loss)))
    if loss is Loss.SQUARED:
        labels = draw(st.lists(st.one_of(st.sampled_from(LABELS), st.floats(-1e300, 1e300)),
                               min_size=n, max_size=n))
    else:
        labels = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    regularizers = ()
    if draw(st.booleans()):
        regularizers = (RegularizerConfig(draw(st.sampled_from(list(RegularizerKind))),
                                          draw(st.sampled_from(WEIGHTS))),)
    config = TrainConfig(
        loss=loss, epochs=draw(st.integers(1, 2)), minibatch_size=draw(st.integers(1, 8)),
        step_size=draw(st.sampled_from(STEPS)),
        calibrator_step_scale=draw(st.sampled_from([0.0, 1.0, 1e300])),
        regularizers=regularizers, seed=draw(st.integers(0, 3)),
        workers=draw(st.integers(1, 2)),
    )
    return specs, Dataset(cols, np.array(labels)), config


def names_a_feature(message: str, specs) -> bool:
    return any(re.search(rf"feature '?{s.name}'?:", message) for s in specs)


def assert_usable(model: Model, data: Dataset, config: TrainConfig) -> None:
    assert np.isfinite(model.theta).all()
    for cal in model.calibrators.calibrators:
        assert np.isfinite(cal.points).all()
        assert cal.missing_value is None or math.isfinite(cal.missing_value)
    assert model.violations(0.0) == []
    text = model.to_json()
    loaded = Model.from_json(text)
    assert loaded == model and loaded.to_json() == text
    rows = [data.row(i) for i in range(data.num_rows)]
    batch = loaded.predict(data)
    for row, score in zip(rows, batch.tolist()):
        assert loaded.predict_row(row).hex() == score.hex()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        model.save(path)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["check", "--model", str(path)]) == 0
        assert out.getvalue().endswith("0 violations\n")
    assert model_objective(model, data, config) >= 0.0


@settings(max_examples=250, deadline=None, derandomize=True)
@given(problems())
def test_hostile_floats_give_a_named_error_or_a_usable_model(problem):
    specs, data, config = problem
    try:
        model = train(data, specs, config)
    except DataError as e:
        assert names_a_feature(str(e), specs), str(e)
        return
    except TrainingError as e:
        assert TRAINING_WHERE.search(str(e)), str(e)
        return
    assert_usable(model, data, config)
