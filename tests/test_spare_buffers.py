"""Chunk buffer sets are kept across calls: ``Model.predict``,
``evaluate_batch`` and a ``train`` run take a set from one process-wide
spare list and give it back when they end, also by an error, so a warm
process allocates no chunk array per call and concurrent callers never
share a set.  Sets are made only where this test allows it: the spare
list's helper, and a few sites whose arrays outlive a call."""

import ast
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from monolattice import (
    Dataset,
    Direction,
    FeatureKind,
    FeatureSpec,
    InterpolationKind,
    Loss,
    TrainConfig,
    TrainingError,
    train,
)
from monolattice import interpolation
from monolattice import model as model_module
from monolattice.interpolation import ChunkBuffers, chunk_rows
from monolattice.model import predict_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "monolattice"

# (module, enclosing function or class) -> why a set may be made there
ALLOWED = {
    ("interpolation.py", "spare_buffers"):
        "the spare list's helper: a set for one call, kept for the next",
    ("calibrators.py", "locate"):
        "the located arrays are the caller's to keep (a training run's plan)",
    ("training.py", "TrainerState"):
        "a state stepped outside train keeps a set while it lives; train lends its run one "
        "from the spare list",
}


def _is_chunk_buffers(node: ast.AST) -> bool:
    # the class by its name, or as an attribute (interpolation.ChunkBuffers)
    if isinstance(node, ast.Attribute):
        return node.attr == "ChunkBuffers"
    return isinstance(node, ast.Name) and node.id == "ChunkBuffers"


def _makers(root: Path = SRC) -> list[tuple[str, str, int]]:
    """(module, innermost enclosing function or class, line) of every
    ``ChunkBuffers(...)`` call and every ``ChunkBuffers`` handed to a call
    as a factory (``default_factory=ChunkBuffers``) in the modules under
    ``root``."""
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [n for n in ast.walk(tree)
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            handed = [*node.args, *(k.value for k in node.keywords)]
            if not (_is_chunk_buffers(node.func) or any(map(_is_chunk_buffers, handed))):
                continue
            holders = [s for s in scopes if s.lineno <= node.lineno <= s.end_lineno]
            name = min(holders, key=lambda s: s.end_lineno - s.lineno).name if holders else "<module>"
            found.append((path.name, name, node.lineno))
    return found


def test_sets_are_made_only_where_allowed():
    assert [m for m in _makers() if m[:2] not in ALLOWED] == []


def test_every_allowed_site_is_still_there():
    assert {m[:2] for m in _makers()} == set(ALLOWED)


def test_the_scan_finds_each_way_to_make_a_set(tmp_path):
    sample = (
        "from dataclasses import field\n"
        "def f():\n    return ChunkBuffers()\n"
        "class S:\n    b: ChunkBuffers = field(default_factory=ChunkBuffers)\n"
        "def g(b: ChunkBuffers) -> ChunkBuffers:\n    return b\n"
        "def h():\n    return interpolation.ChunkBuffers()\n"
    )
    (tmp_path / "sample.py").write_text(sample)
    assert sorted(m[:2] for m in _makers(tmp_path)) == [
        ("sample.py", "S"), ("sample.py", "f"), ("sample.py", "h")
    ]


@pytest.fixture
def empty_pool(monkeypatch):
    """No spare set at the start; the list the test sees afterwards."""
    pool: list = []
    monkeypatch.setattr(interpolation, "_SPARE_BUFFERS", pool)
    return pool


def test_a_buffer_of_another_dtype_is_allocated_again():
    buffers = ChunkBuffers()
    floats = buffers.get("a", 2, 3)
    assert buffers.get("a", 2, 3) is floats
    ints = buffers.get("a", 2, 3, np.int64)
    assert ints.dtype == np.int64 and ints.shape == (2, 3)
    assert buffers.get("a", 3, 2, np.int64).base is ints.base  # same buffer, other shape
    again = buffers.get("a", 1, 2)
    assert again.dtype == np.float64 and again.shape == (1, 2)


def _mixed_problem(n):
    rng = np.random.default_rng(3)
    specs = [
        FeatureSpec("x", size=3, keypoints=4, monotone=Direction.INCREASING),
        FeatureSpec("k", kind=FeatureKind.CATEGORICAL, size=3),
        FeatureSpec("z", size=2, keypoints=3),
    ]
    columns = [rng.random(n) * 5, list(rng.choice(["a", "b", "c"], n)), rng.random(n)]
    return Dataset(columns, rng.random(n)), specs


def _dense_problem(n, D=6):
    rng = np.random.default_rng(4)
    specs = [FeatureSpec(f"x{d}", keypoints=3, monotone=Direction.INCREASING) for d in range(D)]
    columns = [rng.random(n) for _ in range(D)]
    return Dataset(columns, rng.random(n)), specs


def test_a_second_predict_allocates_no_chunk_array(empty_pool, monkeypatch):
    data, specs = _mixed_problem(2 * predict_rows(3) + 17)
    model = train(data, specs, TrainConfig(step_size=0.2, seed=1))
    allocations = []

    def counting(size, dtype):
        allocations.append(size)
        return np.empty(size, dtype=dtype)

    monkeypatch.setattr(ChunkBuffers, "_allocate", staticmethod(counting))
    empty_pool.clear()
    first = model.predict(data)
    assert allocations
    allocations.clear()
    assert model.predict(data).tobytes() == first.tobytes()
    assert allocations == []


def test_a_warm_predict_makes_no_array_of_its_chunks_size(monkeypatch):
    # Every (D, n) array of a predict on a lattice of many cells comes from
    # the call's set: the located and calibrated blocks, apply's two
    # temporaries, locate_block's mask, bases and residuals, and the
    # kernel's arrays.  So under tracemalloc a warm call's peak, beyond its
    # output, stays below one (D, n) float block of its smaller chunk (the
    # predict chunk, or the kernel's).  The chunks are 16 times their usual
    # size, which keeps numpy's fixed-size iterator buffers (up to about
    # 120 KB) well below such a block.
    monkeypatch.setattr(model_module, "PREDICT_BYTES", 16 * model_module.PREDICT_BYTES)
    monkeypatch.setattr(interpolation, "CHUNK_ENTRIES", 16 * interpolation.CHUNK_ENTRIES)
    D, rng = 4, np.random.default_rng(5)
    specs = [FeatureSpec(f"x{d}", size=3, keypoints=5, monotone=Direction.INCREASING)
             for d in range(D)]
    model = train(Dataset([rng.random(200) for _ in specs], rng.random(200)), specs,
                  TrainConfig(step_size=0.2, seed=1))
    n = predict_rows(D)
    data = Dataset([rng.uniform(-0.2, 1.2, n) for _ in specs], None)
    first = model.predict(data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = model.predict(data)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert again.tobytes() == first.tobytes()
    block = 8 * D * min(n, chunk_rows(model.shape, model.kind))
    assert peak - again.nbytes < block


def test_threads_predict_the_bits_of_serial_calls(empty_pool):
    # two models of other shapes and kinds, each on rows of several chunks,
    # predicted by 4 threads at once, each in its own order
    data, specs = _mixed_problem(2 * predict_rows(3) + 17)
    mixed = train(data, specs, TrainConfig(step_size=0.2, seed=1))
    data_d, specs_d = _dense_problem(2 * predict_rows(6) + 5)
    dense = train(data_d, specs_d, TrainConfig(kind=InterpolationKind.SIMPLEX, seed=2))
    jobs = [(mixed, data), (dense, data_d)]
    serial = [model.predict(rows).tobytes() for model, rows in jobs]
    start = threading.Barrier(4)
    failures = []

    def predict_often(k):
        start.wait()
        for i in range(6):
            j = (i + k) % 2
            model, rows = jobs[j]
            if model.predict(rows).tobytes() != serial[j]:
                failures.append((k, i))

    threads = [threading.Thread(target=predict_often, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert 1 <= len(empty_pool) <= 4
    assert len({id(b) for b in empty_pool}) == len(empty_pool)


def test_a_failed_run_gives_its_set_back(empty_pool):
    data, specs = _dense_problem(40, D=2)
    diverging = TrainConfig(loss=Loss.SQUARED, step_size=1e300, epochs=2)
    with pytest.raises(TrainingError):
        train(data, specs, diverging)
    assert len(empty_pool) == 1
    (kept,) = empty_pool
    train(data, specs, TrainConfig())
    assert empty_pool == [kept]
