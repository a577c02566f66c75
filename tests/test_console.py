"""The commands as a console-script user runs them: one command per process,
the exit code through ``sys.exit`` and stdout flushed at exit.

Each row is a check that no in-process test makes. It runs in a child
process through ``run_limited``, with the ``citemetrics`` package this
process imports: the source tree when ``src`` is on ``PYTHONPATH``, the
installed package when it is not.
"""

import pytest

from conftest import DATA
from test_resource_limits import run_limited

# name: (argv, input files, exit code, stdout, stderr lines, globs that must
# match no file afterwards); the command runs in the input files' directory.
CASES = {
    "no-command": (
        [],
        {},
        1,
        "",
        [
            "usage: citemetrics [-h] {ingest,metric,report} ...",
            "citemetrics: error: the following arguments are required: command",
        ],
        (),
    ),
    "undefined-garfield_if": (
        ["metric", "--matrix", str(DATA / "mjm_fixture.json"), "--kind", "garfield_if", "--year", "2004"],
        {},
        2,
        "",
        [
            "citemetrics: undefined: impact factor for 2004 needs publications in 2002 and 2003; "
            "2002–2003 outside 2004-2008"
        ],
        (),
    ),
    # A byte-order mark and padded header, a blank row, a duplicate under
    # another spelling, a backdated row and an alias.
    "ingest-bom-blank-row-alias": (
        ["ingest", "--pubs", "pubs.csv", "--cites", "cites.csv", "--aliases", "aliases.csv", "--matrix", "journal.json"],
        {
            "pubs.csv": "\ufeffArticle_ID , Year\np1,2004\np2,2004\np3,2005\n",
            "cites.csv": (
                "cited_article_id,cited_pub_year,citing_journal,citing_year,citing_article_id\n"
                "p1,2004,Lancet,2005,c1\n"
                "\n"
                "p1,2004,lancet.,2005,c1\n"
                "p2,2004,Med. J. Malaysia,2005,\n"
                "p3,2005,MJM,2004,\n"
                "p3,2005,Nature,2006,c2\n"
            ),
            "aliases.csv": "raw,canonical\nMJM,Med. J. Malaysia\n",
        },
        0,
        "wrote journal.json\n"
        "citation rows parsed: 5\n"
        "duplicate rows removed: 1\n"
        "events outside the matrix years (clipped): 0\n"
        "citations dated before publication (kept): 1 [lines 6]\n",
        [],
        ("*.tmp",),
    ),
}


@pytest.mark.parametrize(("argv", "files", "code", "out", "err", "absent"), CASES.values(), ids=list(CASES))
def test_a_command_in_its_own_process(tmp_path, argv, files, code, out, err, absent):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert run_limited(*argv, cwd=tmp_path)[:3] == (code, out, err)
    for pattern in absent:
        assert list(tmp_path.glob(pattern)) == []
