"""Golden bytes: the benchmark workloads' trained models and scores, hashed
and held against ``tests/golden/bytes.json``.

For each of the three workloads, seeds 11-20, and two training
configurations (the benchmark's short runs and longer, converging ones,
where the monotonicity walk binds), the corpus records the sha256 of the
saved model file, of ``Model.predict`` on the held-out rows, and of
``Model.predict_row`` on the first ``ROW_CALLS`` held-out rows.  The inputs
come from the benchmark's own generator, ``perfbench/workloads.py``, which
is imported and not changed; the configurations are pinned here, so a new
benchmark configuration does not move the corpus.

A change that moves these bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden_bytes.py

and lists the old and new hashes.  The file records the Python and numpy
versions it was made with.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from monolattice import (
    InterpolationKind,
    Loss,
    RegularizerConfig,
    RegularizerKind,
    TrainConfig,
    load_dataset,
    load_pair_dataset,
    load_schema,
    train,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "bytes.json"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEEDS = range(11, 21)
ROW_CALLS = 200  # predict_row on the first this many held-out rows


def _configs(short: TrainConfig, step_size: float, epochs: int) -> dict[str, TrainConfig]:
    return {"short": short, "converging": replace(short, step_size=step_size, epochs=epochs)}


# seeds are set per run; the short configurations are the benchmark's own
CONFIGS = {
    "calib-d4": _configs(
        TrainConfig(
            loss=Loss.SQUARED, kind=InterpolationKind.MULTILINEAR, epochs=1,
            minibatch_size=32, step_size=0.1,
            regularizers=(
                RegularizerConfig(RegularizerKind.TORSION, 1e-3),
                RegularizerConfig(RegularizerKind.LAPLACIAN, 1e-3, sample_count=64),
            ),
        ),
        step_size=0.4, epochs=4,
    ),
    "dense-d10": _configs(
        TrainConfig(loss=Loss.SQUARED, kind=InterpolationKind.MULTILINEAR, epochs=1,
                    minibatch_size=32, step_size=0.5),
        step_size=8.0, epochs=4,
    ),
    "rank-simplex-d10": _configs(
        TrainConfig(loss=Loss.LOGISTIC, kind=InterpolationKind.SIMPLEX, epochs=4,
                    minibatch_size=32, step_size=0.5, workers=2, sync_rounds=4),
        step_size=2.0, epochs=16,
    ),
}


def _workloads():
    spec = importlib.util.spec_from_file_location("golden_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus(name: str, workdir: Path) -> dict[str, dict[str, str]]:
    """``"<config>/<seed>"`` -> the three hashes, for workload ``name``;
    inputs and model files are written under ``workdir``."""
    workloads = _workloads()
    out = {}
    for seed in SEEDS:
        inputs = workloads.generate(workloads.WORKLOADS[name], seed, workdir / f"{name}-{seed}")
        specs, label = load_schema(inputs.schema)
        if inputs.pairs:
            data = load_pair_dataset(inputs.train, specs, pair_id_column=workloads.PAIR_ID,
                                     label_column=label)
        else:
            data = load_dataset(inputs.train, specs, label, require_labels=True)
        rows = load_dataset(inputs.holdout, specs, label, require_labels=True)
        for config_name, config in CONFIGS[name].items():
            model = train(data, specs, replace(config, seed=seed))
            path = workdir / f"{name}-{seed}" / f"{config_name}.json"
            model.save(path)
            singles = [model.predict_row(rows.row(i)) for i in range(ROW_CALLS)]
            out[f"{config_name}/{seed}"] = {
                "model": _sha256(path.read_bytes()),
                "predict": _sha256(model.predict(rows).tobytes()),
                "predict_row": _sha256(np.array(singles).tobytes()),
            }
    return out


def _versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_bytes_match_the_corpus(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    expected = golden["hashes"][name]
    got = corpus(name, tmp_path)
    wrong = [
        f"{key} {what}"
        for key in expected
        for what in expected[key]
        if got.get(key, {}).get(what) != expected[key][what]
    ]
    now = _versions()
    assert got.keys() == expected.keys() and not wrong, (
        f"{name}: {len(wrong)} of {3 * len(expected)} hashes differ ({', '.join(wrong[:6])}). "
        f"The corpus was made with Python {golden['python']} and numpy {golden['numpy']}; "
        f"this run has Python {now['python']} and numpy {now['numpy']}. A change that "
        f"moves bytes on purpose rewrites {GOLDEN.name} (see this module's docstring) "
        "and lists the old and new hashes."
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: corpus(name, Path(tmp)) for name in CONFIGS}
    doc = {**_versions(), "predict_row_rows": ROW_CALLS, "hashes": hashes}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
