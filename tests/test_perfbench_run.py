"""The benchmark script (perfbench/run.py), run for a moment on every
workload, with and without the span tracer.  The script calls library names
the rest of the suite need not (``CalibratorSet.alpha``, ``TrainerState.clone``
through the tracer, ...), so a change that drops or renames one fails here
rather than in a benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["calib-d4", "dense-d10", "rank-simplex-d10"])
def test_a_short_run_is_correct(monkeypatch, tmp_path, capsys, workload, trace):
    # run.py pins the BLAS threads in the environment on import, and
    # imports its workloads and tracer from its own directory
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = load_run()
    monkeypatch.setattr(run, "WORK", tmp_path)  # inputs and model files go here
    args = ["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(args) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
