"""The code-line counter, ``tests/code_lines.py``."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

SCRIPT = Path(__file__).with_name("code_lines.py")
SRC = SCRIPT.parent.parent / "src"


def test_counts_code_not_blanks_comments_or_docstrings():
    source = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line
def f(x):
    """Function docstring."""
    text = """a string that is
    not a docstring"""
    return g(x,
             text)


class C:
    "class docstring"
    y = 1
'''
    # import, def, text (2 lines), return (2 lines), class, y
    assert code_lines(source) == 8


def test_script_prints_every_module_and_the_total():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(SRC)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    counts = {name: int(lines) for name, lines in map(str.split, out)}
    total = counts.pop("total")
    modules = {str(p.relative_to(SRC)) for p in SRC.rglob("*.py")}
    assert set(counts) == modules
    assert total == sum(counts.values()) > 0
    assert counts["monolattice/data.py"] == code_lines((SRC / "monolattice/data.py").read_text())
