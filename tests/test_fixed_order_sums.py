"""Float reductions in the library run in a fixed order, so that model
bytes do not follow the machine: BLAS (behind ``@``, ``np.dot``,
``np.linalg.norm`` of a vector and their kin) picks its summation order by
CPU kernel, and numpy's ``einsum`` may fuse a multiply-add where the build
allows it.  This test walks the syntax of every module under ``src`` and
fails on any such call outside the sites below, each allowed for a stated
reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "monolattice"

# numpy functions whose float sums follow the BLAS kernel or the build
BANNED = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "norm"}

# (module, enclosing function, construct) -> why it may stay
ALLOWED = {
    ("interpolation.py", "_forward_backward", "@"):
        "strides @ base multiplies int64 arrays: integer sums are exact in any order",
}


def _construct(node: ast.AST) -> str | None:
    """The banned construct ``node`` is, or None: ``@``, ``np.<name>``,
    ``np.linalg.norm`` or a ``.dot(...)`` method call."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        attr, owner = node.func.attr, node.func.value
        if attr not in BANNED:
            return None
        if isinstance(owner, ast.Name) and owner.id == "np":
            return f"np.{attr}"
        if isinstance(owner, ast.Attribute) and owner.attr == "linalg":
            return f"np.linalg.{attr}"
        if attr == "dot":
            return ".dot"
    return None


def _sites(root: Path = SRC) -> list[tuple[str, str, str, int]]:
    """(module, enclosing function, construct, line) of every banned
    construct in the modules under ``root``."""
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            what = _construct(node)
            if what is None:
                continue
            # the innermost function that holds the node
            holders = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            name = min(holders, key=lambda f: f.end_lineno - f.lineno).name if holders else "<module>"
            found.append((path.name, name, what, node.lineno))
    return found


def test_no_build_dependent_float_reductions():
    unexpected = [site for site in _sites() if site[:3] not in ALLOWED]
    assert unexpected == [], "float reductions whose order follows BLAS or the build"


def test_every_allowed_site_is_still_there():
    # an allowance whose site is gone would let a new one in unseen
    assert {site[:3] for site in _sites()} == set(ALLOWED)


def test_the_scan_finds_each_construct(tmp_path):
    sample = (
        "import numpy as np\n"
        "def f(a, b):\n"
        "    a @ b\n    a @= b\n    np.dot(a, b)\n    a.dot(b)\n    np.matmul(a, b)\n"
        "    np.einsum('i,i', a, b)\n    np.tensordot(a, b)\n    np.inner(a, b)\n"
        "    np.vdot(a, b)\n    np.linalg.norm(a)\n    np.add.reduce(a * a)\n"
    )
    (tmp_path / "sample.py").write_text(sample)
    kinds = [what for _, _, what, _ in _sites(tmp_path)]
    assert kinds == ["@", "@", "np.dot", ".dot", "np.matmul", "np.einsum", "np.tensordot",
                     "np.inner", "np.vdot", "np.linalg.norm"]
