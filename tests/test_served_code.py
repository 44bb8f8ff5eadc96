"""``src`` holds only what the library serves.

Every function and method defined in ``src/monolattice`` must be reached
from the library's own code: the statements of its modules outside any
function (class bodies, decorators, tables of functions, the CLI's entry
point) and its special methods, which Python calls, and from there every
function or method that a reached body names.  Names are matched by
identifier, a call ``x.f()`` reaching every method named ``f``.

What nothing in the library reaches must be an entry of ``ROOTS``, with
its reason:

* ``export`` - the API: a name ``monolattice`` exports, or a method of an
  exported class;
* ``tracer`` - kept only because ``perfbench/spans.py`` patches it by
  name; it can go once the benchmark's spans follow the batched path.

An entry that the library reaches without it is stale and fails too.  The
scalar kernels that ``evaluate`` and ``bench_interpolation`` run are
reached through those, and a test probe such as ``interpolation._gather``,
which tests monkeypatch, through its caller; neither needs an entry.
Oracles and test-only helpers live in ``tests/scalar_reference.py``.
"""

import ast
import inspect
from pathlib import Path

import monolattice

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "monolattice").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

ROOTS = {
    "evaluate_batch": "export",
    "fit_knots": "export",
    "locate_cells": "export",
    "max_infeasibility": "export",
    "model_objective": "export",
    "predict_row": "export",  # Model.predict_row
    "clone": "tracer",  # TrainerState.clone
    "evaluate_with_gradients": "tracer",
    "row_gradients": "tracer",  # CalibratorSet.row_gradients, with the calibrators' gradient
}


def names(node) -> set[str]:
    """The identifiers ``node`` reads: names and attribute names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def is_special(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def scan_src():
    """The names read by module-level code and special methods, and per
    function or method name, where it is defined and what its body reads."""
    module_level: set[str] = set()
    bodies: dict[str, set[str]] = {}
    where: dict[str, list[str]] = {}

    def visit(statements, path):
        for st in statements:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in st.decorator_list:
                    module_level.update(names(dec))
                body = set().union(*(names(s) for s in st.body), names(st.args))
                if is_special(st.name):
                    module_level.update(body)
                else:
                    bodies.setdefault(st.name, set()).update(body - {st.name})
                    where.setdefault(st.name, []).append(f"{path.name}:{st.lineno}")
            elif isinstance(st, ast.ClassDef):
                for node in st.bases + st.decorator_list:
                    module_level.update(names(node))
                visit(st.body, path)
            else:
                module_level.update(names(st))

    for path in SRC:
        visit(ast.parse(path.read_text()).body, path)
    return module_level, bodies, where


def reached(start: set[str], bodies: dict[str, set[str]]) -> set[str]:
    out, todo = set(), [n for n in start if n in bodies]
    while todo:
        name = todo.pop()
        if name not in out:
            out.add(name)
            todo += [n for n in bodies[name] if n in bodies and n not in out]
    return out


def exported() -> set[str]:
    """What ``monolattice`` exports, and the methods of its exported classes."""
    public = {n: v for n, v in vars(monolattice).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    out = set(public)
    for value in public.values():
        if inspect.isclass(value):
            out.update(n for n in vars(value) if not n.startswith("__"))
    return out


def test_every_function_in_src_is_served():
    module_level, bodies, where = scan_src()
    library = reached(module_level, bodies)
    served = reached(module_level | set(ROOTS), bodies)
    unserved = sorted(f"{name} ({', '.join(where[name])})" for name in set(bodies) - served)
    assert not unserved, "reached by nothing in src and not in ROOTS: " + "; ".join(unserved)
    stale = sorted(set(ROOTS) & library)
    assert not stale, f"reached by the library without a ROOTS entry: {stale}"


def test_each_root_has_its_reason():
    _, bodies, _ = scan_src()
    benchmark = set().union(*(names(ast.parse(p.read_text())) for p in PERFBENCH))
    api = exported()
    for name, reason in ROOTS.items():
        assert name in bodies, f"{name} is not defined in src"
        assert reason in ("export", "tracer"), name
        if reason == "export":
            assert name in api, f"{name} is not exported"
        else:
            assert name in benchmark, f"{name} is not read by perfbench"
