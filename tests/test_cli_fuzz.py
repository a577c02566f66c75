"""The command line under hypothesis: every input ends in an exit code from
0 to 3 and at most a one-line message, never a traceback.

Each example runs ``citemetrics`` in a child process through
``test_resource_limits.run_limited``, which caps that child's address space
and CPU time, so an input that makes a command grow without bound fails
here instead of exhausting the machine. A child interpreter takes about a
tenth of a second to start, so each property runs a twentieth of the
profile's examples: 5 under the default profile, 500 under
``--hypothesis-profile=fuzz``.
"""

import json
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from citemetrics.metrics import REQUEST_KINDS

from conftest import DATA
from helpers import loadable_documents
from test_resource_limits import run_limited

MJM = str(DATA / "mjm_fixture.json")

CHILD_RUNS = settings(max_examples=max(5, settings.default.max_examples // 20), deadline=None)


def _check(code, err, codes):
    """The outcome every command owes its caller, whatever its input."""
    event(f"exit {code}")
    assert code in codes, err
    assert not any("Traceback" in line for line in err), err
    if code:
        assert len(err) == 1 and err[0].startswith("citemetrics"), err
    else:
        assert err == []


# --- ingest on valid CSVs with a few cells swapped out --------------------

_YEARS = ["2003", "2004", "2005", "2006"]
_JOURNALS = ["Lancet", "lancet.", "MJM", "Med J Malaysia", "Gut"]


def _cell(values):
    return st.sampled_from(values).map(str.encode)


@st.composite
def _corpora(draw):
    """Valid ``(pubs, cites, aliases or None)`` tables: lists of rows of
    cells, each cell as bytes, the header first."""
    if draw(st.booleans()):
        pubs = [[b"year", b"count"]] + [[y.encode(), str(draw(st.integers(0, 9))).encode()] for y in _YEARS]
    else:
        articles = draw(st.lists(_cell(_YEARS), min_size=1, max_size=5))
        pubs = [[b"article_id", b"year"]] + [[f"p{n}".encode(), year] for n, year in enumerate(articles)]
    width = draw(st.sampled_from([4, 5]))
    header = [b"cited_article_id", b"cited_pub_year", b"citing_journal", b"citing_year", b"citing_article_id"]
    row = st.tuples(_cell(["a1", "a2"]), _cell(_YEARS), _cell(_JOURNALS), _cell(_YEARS), _cell(["c1", "c2", ""]))
    cites = [header[:width]] + [list(r[:width]) for r in draw(st.lists(row, max_size=6))]
    aliases = [[b"raw", b"canonical"], [b"MJM", b"Med J Malaysia"]] if draw(st.booleans()) else None
    return pubs, cites, aliases


_REPLACEMENTS = st.one_of(
    st.binary(max_size=6),
    st.text(max_size=6).map(str.encode),
    st.sampled_from([b"0000", b"9999", b"0001", b"-001", b"\xef\xbb\xbf2004", b'"', b"2004,2005", b"\r\n"]),
    st.integers(-(10**20), 10**20).map(lambda n: str(n).encode()),
)


def _write(path, table):
    with open(path, "wb") as fh:
        fh.write(b"".join(b",".join(row) + b"\n" for row in table))


# (file, row, cell, replacement), the row and cell taken modulo the table's;
# a mutation of an absent alias file goes to the publications file.
_MUTATIONS = st.tuples(st.integers(0, 2), st.integers(0, 99), st.integers(0, 9), _REPLACEMENTS)


@CHILD_RUNS
@given(_corpora(), st.lists(_MUTATIONS, min_size=1, max_size=3))
def test_ingest_of_mutated_csvs_writes_a_readable_fixture_or_refuses_in_one_line(corpus, mutations):
    tables = list(corpus)
    for which, row, column, replacement in mutations:
        table = tables[which] or tables[0]
        cells = table[row % len(table)]
        cells[column % len(cells)] = replacement
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("pubs.csv", "cites.csv", "aliases.csv")]
        argv = ["ingest", "--pubs", paths[0], "--cites", paths[1]]
        for path, table in zip(paths, tables):
            if table is not None:
                _write(path, table)
        if tables[2] is not None:
            argv += ["--aliases", paths[2]]
        fx = os.path.join(tmp, "fx.json")
        code, _, err, _ = run_limited(*argv, "--matrix", fx)
        _check(code, err, (0, 1))
        if code:
            assert not os.path.exists(fx)
            return
        code, _, err, _ = run_limited("report", "--matrix", fx)
        _check(code, err, (0, 1))


# --- metric and report on small adversarial fixtures ----------------------

_BIG = st.integers(-(10**12), 10**12)
_ODD = st.one_of(
    st.booleans(), st.floats(), st.none(), st.text(max_size=3), st.integers(-(10**19), -1), st.just(10**18 + 1)
)
_DEEP = "\x00deep"


@st.composite
def _fixture_runs(draw):
    """``(fixture text, command)``: a loadable fixture whose years lie
    anywhere in +-10**12, its citation span up to 10**12 years long, then up
    to three faults, each a field dropped, emptied, made odd or nested
    deeply, or one count or year made odd."""
    doc = draw(loadable_documents(years=st.one_of(st.integers(2000, 2010), _BIG)))
    for name in ("unique_new_sync", "unique_new_diach"):
        doc.setdefault(name, [])  # a fault may still drop it
    doc["cite_years"][1] += draw(st.one_of(st.just(0), st.integers(0, 10**12)))
    first = doc["pub_years"][0]
    for name in draw(st.lists(st.sampled_from(list(doc)), max_size=3, unique=True)):
        fault = draw(st.sampled_from(["drop", "empty", "odd", "deep", "entry"]))
        if fault == "drop":
            del doc[name]
        elif fault == "empty":
            doc[name] = type(doc[name])()
        elif fault == "odd":
            doc[name] = draw(st.one_of(_ODD, st.lists(_ODD, max_size=3)))
        elif fault == "deep":
            doc[name] = _DEEP
        elif doc[name]:
            block = doc[name]
            key = draw(st.sampled_from(list(block) if isinstance(block, dict) else range(len(block))))
            if isinstance(block[key], list):
                block, key = block[key], draw(st.integers(0, 2))
            block[key] = draw(st.one_of(_ODD, _BIG))
    depth = draw(st.sampled_from([2, 1000, 100_000]))
    text = json.dumps(doc).replace(json.dumps(_DEEP), "[" * depth + "]" * depth)
    if draw(st.booleans()):
        return text, ["report", "--format", draw(st.sampled_from(["table", "csv", "structured"]))]
    year = draw(st.one_of(st.integers(first - 2, first + 8), _BIG))
    command = ["metric", "--kind", draw(st.sampled_from(REQUEST_KINDS)), "--year", str(year)]
    command += ["--window", draw(st.sampled_from(["1", "2", "3", "max", "100000000000"]))]
    return text, command + draw(st.lists(st.sampled_from(["--no-clip", "--format=structured"]), unique=True))


@CHILD_RUNS
@given(_fixture_runs())
def test_metric_and_report_on_adversarial_fixtures_exit_0_to_3(run):
    text, command = run
    with tempfile.TemporaryDirectory() as tmp:
        fx = os.path.join(tmp, "fx.json")
        with open(fx, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, _, err, _ = run_limited(*command, "--matrix", fx)
    _check(code, err, (0, 1, 2, 3))


# --- integer options from -10**18 to 10**18 -------------------------------

_INTEGERS = st.integers(-(10**18), 10**18).map(str)
_OPTIONS = ("--window", "--shift", "--precision")


@CHILD_RUNS
@given(
    st.sampled_from(REQUEST_KINDS),
    st.one_of(st.integers(2000, 2012).map(str), _INTEGERS),
    st.fixed_dictionaries({}, optional=dict.fromkeys(_OPTIONS, st.one_of(st.integers(0, 12).map(str), _INTEGERS))),
    st.lists(st.sampled_from(["--no-clip", "--format=structured"]), unique=True),
)
def test_any_integer_option_exits_0_to_2(kind, year, options, flags):
    argv = ["metric", "--matrix", MJM, "--kind", kind, "--year", year, *flags]
    for name, value in options.items():
        argv.append(f"{name}={value}")
    code, _, err, _ = run_limited(*argv)
    _check(code, err, (0, 1, 2))
