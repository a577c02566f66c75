"""The README's indicator table names exactly the indicators the package has."""

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
