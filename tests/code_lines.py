"""Count the code lines of the library: every line of ``src`` that holds a
token other than a comment, once, less the lines of docstrings (the string
that opens a module, class or function).  Blank lines, comment lines and
docstrings do not count; a statement over several lines counts each of them.

    python tests/code_lines.py [src]

prints each module's count and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(root: Path) -> dict[str, int]:
    """Code lines per module under ``root``, by path relative to it."""
    return {
        str(path.relative_to(root)): code_lines(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    counts = count(root)
    width = max(map(len, counts), default=0)
    for name, lines in counts.items():
        print(f"{name:<{width}}  {lines:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
