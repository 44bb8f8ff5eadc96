"""The README's Library example runs as written, the package exports the
names the README documents plus those the benchmark script imports, and no
others, and the README quotes no timing figures."""

import ast
import inspect
import re
from pathlib import Path

import monolattice
from monolattice import Model

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

PUBLIC = {
    # calibrators
    "CalibratorSet", "CategoricalCalibrator", "ContinuousCalibrator", "DataError",
    "FeatureKind", "FeatureSpec", "MissingPolicy", "fit_knots",
    # data
    "Dataset", "load_dataset", "load_pair_dataset", "load_schema",
    # interpolation
    "InterpolationKind", "evaluate", "evaluate_batch", "interpolation_weights",
    "multilinear_weights", "simplex_weights",
    # lattice
    "LatticeShape", "locate_cell", "locate_cells", "vertex_coords", "vertex_index",
    # model
    "Model",
    # monotonicity
    "ConstraintSet", "Direction", "build_constraints", "check_monotonic",
    "describe_violations", "max_infeasibility", "project_update",
    # regularizers
    "RegularizerConfig", "RegularizerKind", "regularizer_gradient", "regularizer_terms",
    "regularizer_value", "sample_regularizer_subgradient",
    # training
    "Loss", "TrainConfig", "TrainingError", "evaluate_metrics", "init_lattice",
    "loss_value", "model_objective", "parallel_train", "train",
}


# a number followed by a time or rate unit
TIMING = re.compile(r"\d\s*(?:µs|us|ms|rows/s|samples/s)\b")

LIBRARY = README.split("\n## Library\n", 1)[1]


def library_example() -> str:
    return re.search(r"```python\n(.*?)```", LIBRARY, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # it saves model.json
    namespace = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    assert len(namespace["scores"]) == 500
    assert Model.load(tmp_path / "model.json").to_json() == namespace["model"].to_json()
    assert capsys.readouterr().out.strip().endswith("[]")  # no violations


def perfbench_imports() -> set[str]:
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "monolattice":
                names.update(alias.name for alias in node.names)
    return names


def test_public_names_are_the_documented_ones():
    exported = {
        name for name, value in vars(monolattice).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC
    assert perfbench_imports() <= PUBLIC
    # each is named in the Library section, in its text or its example
    undocumented = sorted(name for name in PUBLIC if not re.search(rf"\b{name}\b", LIBRARY))
    assert undocumented == []


def test_readme_quotes_no_timing_figures():
    # measured speeds go stale with the code; CHANGES.md keeps them, each
    # with its harness and machine, and the README points there
    assert [line for line in README.splitlines() if TIMING.search(line)] == []
