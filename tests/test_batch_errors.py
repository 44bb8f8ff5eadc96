"""Batch calibration has one error path: a chunk that holds a bad value is
calibrated again row by row, and the error is the one ``calibrate_row``
raises on the first bad row, with that row's index.  Every kind of bad
value, in every column form, at the start, in a later chunk and in the
last row, gives the same message and row through ``Model.predict``,
``CalibratorSet.locate`` and ``CalibratorSet.locate_chunks``.  Training
(``prepare_state``) and evaluation (``evaluate_metrics``,
``model_objective``) add the name of the first bad row, or of the first bad
pair and its side: every preferred row comes before every other row."""

import math

import numpy as np
import pytest

from monolattice import (
    CalibratorSet,
    DataError,
    Dataset,
    FeatureKind,
    FeatureSpec,
    Model,
    Loss,
    TrainConfig,
    evaluate_metrics,
    model_objective,
)
from monolattice import model as model_module
from monolattice.interpolation import ChunkBuffers
from monolattice.training import prepare_state

CHUNK = 512  # rows per chunk of predict here (set by chunk_rows below)
N = 2 * CHUNK + 10
# the first chunk, a later chunk, the last row
POSITIONS = [3, CHUNK + 7, N - 1]
SPECS = [
    FeatureSpec("x", size=3, keypoints=4),  # no missing policy
    FeatureSpec("k", kind=FeatureKind.CATEGORICAL),  # no missing policy, no OTHER bucket
]


@pytest.fixture(autouse=True)
def chunk_rows(monkeypatch):
    # predict in chunks of CHUNK rows, so that the positions fall in three
    # chunks of short columns (two features take 10240 rows a chunk)
    monkeypatch.setattr(model_module, "PREDICT_BYTES", CHUNK * 8 * len(SPECS))
    assert model_module.predict_rows(len(SPECS)) == CHUNK


def good_columns(x_form: str, k_form: str) -> list:
    """N good rows: ``x`` as a float array, a list of floats or a list of
    number texts; ``k`` as a list of texts or a list of numbers (each read as
    its text, "1" and "2")."""
    rng = np.random.default_rng(5)
    x = rng.random(N) * 10.0
    x = {"floats": x, "list": x.tolist(), "texts": [repr(v) for v in x.tolist()]}[x_form]
    k = rng.integers(1, 3, N).tolist()
    k = {"texts": [str(v) for v in k], "list": k}[k_form]
    return [x, k]


def model() -> Model:
    cs = CalibratorSet.fit(SPECS, good_columns("floats", "texts"))
    return Model(cs, np.arange(6, dtype=float))


# (feature, column form of x, column form of k, bad value, message)
CASES = [
    # not a number
    (0, "list", "texts", "abc", "feature x: 'abc' is not a number"),
    (0, "texts", "texts", "1.5.2", "feature x: '1.5.2' is not a number"),
    (0, "list", "texts", [1.0], r"feature x: \[1.0\] is not a number"),
    # missing without a missing policy
    (0, "floats", "texts", math.nan, "feature x: missing value but no missing policy"),
    (0, "list", "texts", None, "feature x: missing value but no missing policy"),
    (0, "texts", "texts", "nan", "feature x: missing value but no missing policy"),
    (1, "floats", "texts", None, "feature k: missing value but no missing policy"),
    (1, "floats", "list", math.nan, "feature k: missing value but no missing policy"),
    # an unknown category without an OTHER bucket
    (1, "floats", "texts", "zz", "feature k: unknown category 'zz'"),
    (1, "floats", "list", 7, "feature k: unknown category 7"),
    (1, "floats", "texts", 1.0, "feature k: unknown category 1.0"),
]


def with_bad(case, rows):
    feature, x_form, k_form, value, _ = case
    columns = good_columns(x_form, k_form)
    for i in rows:
        columns[feature][i] = value
    return columns


@pytest.fixture(scope="module")
def served():
    return model()


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{c[3]!r}")
def test_predict_and_locate_name_the_first_bad_row(served, case, position):
    columns = with_bad(case, [position])
    message = case[-1]
    with pytest.raises(DataError, match=message) as scalar:
        served.calibrators.calibrate_row([col[position] for col in columns])
    calls = {
        "predict": lambda: served.predict(Dataset(columns, None)),
        "locate": lambda: served.calibrators.locate(columns),
        "locate_chunks": lambda: list(served.calibrators.locate_chunks(columns, 100,
                                                                       ChunkBuffers())),
    }
    for name, call in calls.items():
        with pytest.raises(DataError) as batch:
            call()
        assert (str(batch.value), batch.value.row) == (str(scalar.value), position), name


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{c[3]!r}")
def test_the_first_of_two_bad_rows_is_named(served, case):
    columns = with_bad(case, [CHUNK + 7, N - 1])
    with pytest.raises(DataError, match=case[-1]) as batch:
        served.predict(Dataset(columns, None))
    assert batch.value.row == CHUNK + 7


# what reaches locate in training: the fit reads past a bad number or a
# missing value of a continuous feature, and rejects a bad category itself
TRAINING_CASES = [case for case in CASES if case[0] == 0]


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("case", TRAINING_CASES, ids=lambda c: f"{c[1]}-{c[3]!r}")
def test_prepare_state_names_the_training_row(served, case, position):
    columns = with_bad(case, [position])
    labels = np.random.default_rng(6).random(N)
    with pytest.raises(DataError) as err:
        prepare_state(Dataset(columns, labels), SPECS, TrainConfig(epochs=1))
    with pytest.raises(DataError) as scalar:
        served.calibrators.calibrate_row([col[position] for col in columns])
    assert str(err.value) == f"training row {position}: {scalar.value}"


@pytest.mark.parametrize("case", TRAINING_CASES, ids=lambda c: f"{c[1]}-{c[3]!r}")
def test_prepare_state_names_the_pair_and_its_side(served, case):
    plus, minus = with_bad(case, []), with_bad(case, [N - 1])
    data = Dataset.pairs([col[::-1] for col in plus], [col[::-1] for col in minus])
    with pytest.raises(DataError) as err:
        prepare_state(data, SPECS, TrainConfig(epochs=1))
    with pytest.raises(DataError) as scalar:
        served.calibrators.calibrate_row([col[N - 1] for col in minus])
    assert str(err.value) == f"training pair 0 (other row): {scalar.value}"


def bad_pairs(case):
    """Pairs whose first other row and last preferred row are bad: the
    preferred row is named."""
    return Dataset.pairs(with_bad(case, [N - 1]), with_bad(case, [0]))


@pytest.mark.parametrize("case", TRAINING_CASES, ids=lambda c: f"{c[1]}-{c[3]!r}")
def test_prepare_state_names_a_preferred_row_before_an_other_row(served, case):
    with pytest.raises(DataError) as err:
        prepare_state(bad_pairs(case), SPECS, TrainConfig(loss=Loss.LOGISTIC, epochs=1))
    with pytest.raises(DataError) as scalar:
        served.calibrators.calibrate_row([col[N - 1] for col in with_bad(case, [N - 1])])
    assert str(err.value) == f"training pair {N - 1} (preferred row): {scalar.value}"


EVALUATIONS = {
    "evaluate_metrics": evaluate_metrics,
    "model_objective": lambda model, data: model_objective(model, data, TrainConfig()),
}


@pytest.mark.parametrize("evaluation", EVALUATIONS)
@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{c[3]!r}")
def test_evaluation_names_the_row(served, case, position, evaluation):
    columns = with_bad(case, [position])
    with pytest.raises(DataError) as err:
        EVALUATIONS[evaluation](served, Dataset(columns, np.zeros(N)))
    with pytest.raises(DataError) as scalar:
        served.calibrators.calibrate_row([col[position] for col in columns])
    assert str(err.value) == f"row {position}: {scalar.value}"


@pytest.mark.parametrize("evaluation", EVALUATIONS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{c[3]!r}")
def test_evaluation_names_the_pair_and_its_side(served, case, evaluation):
    with pytest.raises(DataError) as err:
        EVALUATIONS[evaluation](served, bad_pairs(case))
    with pytest.raises(DataError) as scalar:
        served.calibrators.calibrate_row([col[N - 1] for col in with_bad(case, [N - 1])])
    assert str(err.value) == f"pair {N - 1} (preferred row): {scalar.value}"
    # with no bad preferred row, the first bad other row is named
    with pytest.raises(DataError) as err:
        EVALUATIONS[evaluation](served, Dataset.pairs(with_bad(case, []), with_bad(case, [3])))
    assert str(err.value) == f"pair 3 (other row): {scalar.value}"
