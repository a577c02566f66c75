"""The README agrees with the package: its indicator table names exactly the
indicators the package has, and its Library example prints what it says."""

import ast
import re
from pathlib import Path

from citemetrics.metrics import KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_indicator_table_names_exactly_the_kinds():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| indicator | question it answers |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1])
    names = tuple(name for row in rows for name in re.findall(r"`(\w+)`", row))
    assert names == KINDS


def test_the_library_example_prints_what_its_comments_say(monkeypatch):
    """Each bare expression in the Library snippet, run in order, has the
    repr its comment gives: raw sums unreduced, ``value`` reduced."""
    text = README.read_text(encoding="utf-8")
    snippet = text[text.index("## Library") :].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(README.parent)
    namespace = {}
    checked = 0
    for line in snippet.splitlines():
        code, _, comment = line.partition("  # ")
        code, comment = code.strip(), comment.strip()
        statements = ast.parse(code).body
        if not (statements and isinstance(statements[0], ast.Expr)):
            exec(code, namespace)
            continue
        result = eval(code, namespace)
        shown = ", ".join(map(repr, result)) if isinstance(result, tuple) else repr(result)
        assert shown == comment, line
        checked += 1
    assert checked == 2
