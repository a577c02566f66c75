"""Every indicator is an exact fraction of integers. So no module of the
package but ``stats``, whose correlations the commands never run, holds a
float literal, divides with ``/`` or ``/=``, or calls ``float`` or
``round``."""

import ast
from pathlib import Path

import pytest

import citemetrics

MODULES = sorted(path for path in Path(citemetrics.__file__).parent.glob("*.py") if path.name != "stats.py")


def inexact(tree):
    """``(line, what)`` for each float literal, ``/``, ``/=``, ``float(`` and
    ``round(`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, repr(node.value)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "/"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "round"):
            yield node.lineno, f"{node.func.id}("


def test_the_walk_finds_each_form():
    tree = ast.parse("a = 0.5\nb = x / y\nc /= 2\nd = float(n)\ne = round(n, 2)\nf = x // y\n")
    assert sorted(inexact(tree)) == [(1, "0.5"), (2, "/"), (3, "/"), (4, "float("), (5, "round(")]
    assert {"matrix.py", "metrics.py", "report.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_computes_in_floating_point(path):
    assert list(inexact(ast.parse(path.read_text(encoding="utf-8")))) == []
