"""The benchmark's workloads and their seeded input generator.

Each workload is a schema, a training file and a held-out file written by
``generate`` from the workload seed, plus the training configuration.  The
library sees only the files.  Sizes are fixed per workload, so timings from
different seeds measure the same amount of work on different data.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from monolattice import Loss, RegularizerConfig, RegularizerKind, TrainConfig

LABEL = "y"
PAIR_ID = "pair"


@dataclass(frozen=True)
class Inputs:
    schema: Path
    train: Path
    holdout: Path
    pairs: bool  # two-row pair layout, keyed by PAIR_ID


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_train: int  # rows, or pairs for ranking
    n_holdout: int
    predict_row_calls: int  # single-row calls timed per round
    config: TrainConfig


# Regularizers are built from RegularizerKind members: a plain string such as
# "torsion" passes TrainConfig but raises AttributeError at the end of
# training, where the model metadata reads ``cfg.kind.value``.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="calib-d4",
            why="4 calibrated features (10-knot PWL, categorical with order pairs and unseen "
            "bucket, missing vertex) plus torsion and sampled Laplacian: calibrator- and "
            "regularizer-heavy",
            n_train=1500,
            n_holdout=3000,
            predict_row_calls=3000,
            config=TrainConfig(
                loss=Loss.SQUARED,
                kind="multilinear",
                epochs=1,
                minibatch_size=32,
                step_size=0.1,
                regularizers=(
                    RegularizerConfig(RegularizerKind.TORSION, 1e-3),
                    RegularizerConfig(RegularizerKind.LAPLACIAN, 1e-3, sample_count=64),
                ),
            ),
        ),
        Workload(
            name="dense-d10",
            why="10 features on a 2^10 multilinear lattice: interpolation and its gradient "
            "are over 80% of train and predict, so a batched kernel shows here",
            n_train=256,
            n_holdout=2000,
            predict_row_calls=1000,
            config=TrainConfig(
                loss=Loss.SQUARED,
                kind="multilinear",
                epochs=1,
                minibatch_size=32,
                step_size=0.5,
            ),
        ),
        Workload(
            name="rank-simplex-d10",
            why="pairwise logistic ranking from two-row pair CSV, simplex, 2 shards x 4 syncs: "
            "the walk projection is about two thirds of training",
            n_train=256,
            n_holdout=600,
            predict_row_calls=1200,
            config=TrainConfig(
                loss=Loss.LOGISTIC,
                kind="simplex",
                epochs=4,
                minibatch_size=32,
                step_size=0.5,
                workers=2,
                sync_rounds=4,
            ),
        ),
    )
}


def gradient_samples(n: int, config: TrainConfig) -> int:
    """Samples (pairs) whose gradient ``parallel_train`` takes on n samples.

    Shard k holds every K-th sample.  A minibatch smaller than the shard
    gives ceil(size / minibatch) steps of ``minibatch`` samples per epoch; a
    larger one gives one full pass.
    """
    total = 0
    for k in range(config.workers):
        size = len(range(k, n, config.workers))
        b = config.minibatch_size
        per_epoch = size if b >= size else math.ceil(size / b) * b
        total += per_epoch * config.epochs
    return total


# --------------------------------------------------------------------------
# input generation


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cell(v: float) -> str:
    return "" if math.isnan(v) else repr(round(float(v), 6))


COUNTRIES = ["AR", "BR", "CA", "DE", "FR", "IN", "JP", "US"]
COUNTRY_EFFECT = dict(zip(COUNTRIES, [0.1, 0.25, 0.5, 0.6, 0.55, 0.2, 0.7, 0.8]))


def _calib_rows(rng: np.random.Generator, n: int, holdout: bool):
    price = np.exp(rng.uniform(0.0, math.log(100.0), n))
    rating = rng.uniform(0.0, 5.0, n)
    # "ZA" is under 1% of rows, so it falls into the OTHER bucket when
    # calibrators are fitted; held-out rows also carry a category never seen.
    names = COUNTRIES + ["ZA"]
    probs = np.array([0.12] * len(COUNTRIES) + [0.004])
    probs /= probs.sum()
    country = rng.choice(names, size=n, p=probs)
    if holdout:
        country[rng.random(n) < 0.01] = "XX"
    age = rng.integers(0, 2000, n).astype(float)
    age[rng.random(n) < 0.1] = np.nan
    effect = np.array([COUNTRY_EFFECT.get(c, 0.4) for c in country])
    age_term = np.where(np.isnan(age), 0.2, 0.4 * np.sqrt(np.nan_to_num(age) / 2000.0))
    y = (
        1.2 * (1.0 - np.log(price) / math.log(100.0))
        + 0.6 * (rating / 5.0) ** 1.5
        + effect * (0.5 + rating / 10.0)
        + age_term
        + 0.2 * rng.standard_normal(n)
    )
    for i in range(n):
        yield [_cell(price[i]), _cell(rating[i]), country[i], _cell(age[i]), _cell(y[i])]


def _gen_calib(rng, n_train, n_holdout, out: Path) -> Inputs:
    schema = {
        "label": LABEL,
        "features": [
            {"name": "price", "monotone": "decreasing", "keypoints": 10, "size": 3},
            {"name": "rating", "monotone": "increasing", "keypoints": 6, "size": 3},
            {
                "name": "country",
                "kind": "categorical",
                "size": 3,
                "allow_unseen": True,
                "order": [["IN", "US"], ["AR", "DE"]],
            },
            {
                "name": "age_days",
                "monotone": "increasing",
                "missing": "vertex",
                "keypoints": 5,
                "size": 3,
            },
        ],
    }
    header = ["price", "rating", "country", "age_days", LABEL]
    return _write_inputs(out, schema, header, _calib_rows(rng, n_train, False),
                         _calib_rows(rng, n_holdout, True), pairs=False)


DENSE_DIRECTIONS = ["increasing"] * 3 + ["decreasing"] * 2 + ["none"] * 5


def _dense_rows(rng: np.random.Generator, n: int):
    x = np.column_stack(
        [
            rng.uniform(0, 10, n),
            rng.beta(2, 5, n) * 10,
            rng.exponential(2.0, n),
            rng.uniform(-5, 5, n),
            rng.normal(0, 2, n),
            rng.uniform(0, 1, n),
            rng.beta(5, 2, n),
            rng.uniform(0, 3, n),
            rng.normal(1, 1, n),
            rng.uniform(0, 100, n),
        ]
    )
    y = (
        -1.0
        + 0.08 * x[:, 0]
        + 0.5 * np.sqrt(x[:, 1])
        + 0.3 * np.log1p(x[:, 2])
        - 0.06 * x[:, 3]
        - 0.1 * np.tanh(x[:, 4])
        + 0.4 * np.sin(3 * x[:, 5]) * x[:, 6]
        + 0.1 * x[:, 7] * x[:, 8] / 3
        + 0.002 * x[:, 9]
        + 0.2 * rng.standard_normal(n)
    )
    for i in range(n):
        yield [_cell(v) for v in x[i]] + [_cell(y[i])]


def _gen_dense(rng, n_train, n_holdout, out: Path) -> Inputs:
    names = [f"x{d}" for d in range(10)]
    schema = {
        "label": LABEL,
        "features": [
            {"name": name, "monotone": direction, "keypoints": 4, "size": 2}
            for name, direction in zip(names, DENSE_DIRECTIONS)
        ],
    }
    header = names + [LABEL]
    return _write_inputs(out, schema, header, _dense_rows(rng, n_train),
                         _dense_rows(rng, n_holdout), pairs=False)


# all ten features are declared increasing; the last two carry no signal
RANK_WEIGHTS = np.array([1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0, 0.0])


def _rank_rows(rng: np.random.Generator, n_pairs: int, tag: str):
    items = rng.uniform(0, 1, (2 * n_pairs, 10)) ** rng.uniform(0.5, 2.0, 10)
    utility = items @ RANK_WEIGHTS * 4.0
    for p in range(n_pairs):
        a, b = 2 * p, 2 * p + 1
        # the first item wins with logistic probability in the utility gap
        first_wins = rng.random() < 1.0 / (1.0 + math.exp(utility[b] - utility[a]))
        pid = f"{tag}{p:05d}"
        yield [pid, "1" if first_wins else "0"] + [_cell(v) for v in items[a]]
        yield [pid, "0" if first_wins else "1"] + [_cell(v) for v in items[b]]


def _gen_rank(rng, n_train, n_holdout, out: Path) -> Inputs:
    names = [f"r{d}" for d in range(10)]
    schema = {
        "label": LABEL,
        "features": [
            {"name": name, "monotone": "increasing", "keypoints": 5, "size": 2}
            for name in names
        ],
    }
    header = [PAIR_ID, LABEL] + names
    return _write_inputs(out, schema, header, _rank_rows(rng, n_train, "t"),
                         _rank_rows(rng, n_holdout, "h"), pairs=True)


def _write_inputs(out: Path, schema, header, train_rows, holdout_rows, pairs) -> Inputs:
    out.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(out / "schema.json", out / "train.csv", out / "holdout.csv", pairs)
    inputs.schema.write_text(json.dumps(schema, indent=2) + "\n")
    _write_csv(inputs.train, header, train_rows)
    _write_csv(inputs.holdout, header, holdout_rows)
    return inputs


_GENERATORS = {"calib-d4": _gen_calib, "dense-d10": _gen_dense, "rank-simplex-d10": _gen_rank}


def generate(workload: Workload, seed: int, out: Path) -> Inputs:
    """Write the workload's schema, training and held-out CSV files under ``out``."""
    rng = np.random.default_rng(seed)
    return _GENERATORS[workload.name](rng, workload.n_train, workload.n_holdout, out)
