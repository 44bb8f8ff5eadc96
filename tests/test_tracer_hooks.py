"""The benchmark's span tracer (perfbench/spans.py) patches library names
from outside.  Entering it here makes a rename or deletion of a patched name
fail in the test suite rather than in a benchmark run."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from monolattice import DataError, Dataset, Direction, FeatureSpec, TrainConfig, parallel_train
from monolattice import training

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_training_and_prediction_spans():
    rng = np.random.default_rng(0)
    a, b = rng.random(40), rng.random(40)
    data = Dataset([a, b], a + b)
    specs = [FeatureSpec(name, monotone=Direction.INCREASING, keypoints=3) for name in "ab"]
    config = TrainConfig(epochs=1, minibatch_size=8, workers=2, sync_rounds=2)
    original = training.sgd_step
    tracer = load_spans().Tracer()
    with tracer.patched():
        model = parallel_train(data, specs, config)
        model.predict_row([0.3, 0.6])
        with pytest.raises(DataError):
            model.predict(Dataset([[0.3, 0.4], [0.6, math.nan]], None))
    assert training.sgd_step is original
    summary = tracer.summary()
    # predict_row runs its generated scorer, which crosses no patched name;
    # calibrate_row is the row-by-row error path of a predict chunk that
    # holds a bad value, here a NaN without a missing policy
    for name in ("training.sgd_step", "monotonicity.project_update.theta",
                 "monotonicity.project_update.alpha", "calibrators.calibrate_row"):
        assert summary[name]["calls"] > 0, name
