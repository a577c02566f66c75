"""Commands run with the cyclic garbage collector paused.

Pausing is safe only while a command builds acyclic data, so that reference
counting alone frees it: the cyclic garbage one command leaves must not grow
with its input. A change that makes a cycle per row or per cell fails here
instead of growing a command's memory.
"""

import gc
import json
import random

import pytest

from citemetrics import cli
from citemetrics.cli import main
from citemetrics.errors import UndefinedMetricError
from citemetrics.metrics import MetricRequest, evaluate

from conftest import DATA

MJM = str(DATA / "mjm_fixture.json")


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Sets the collector's state for one test and restores it after."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def _invalid_fixture(tmp_path):
    doc = json.loads((DATA / "mjm_fixture.json").read_text())
    doc["citations"][0][2] = -1
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["metric", "--matrix", MJM, "--kind", "sync_jdf", "--year", "2006", "--window", "2"], 0),
        (["report", "--matrix", MJM, "--format", "csv"], 0),
        (["metric", "--matrix", MJM, "--kind", "no_such_kind", "--year", "2006"], 1),
        (["metric", "--matrix", MJM, "--kind", "sync_jdf", "--year", "2006", "--window", "soon"], 1),
        (["metric", "--matrix", MJM, "--kind", "sync_if", "--year", "2004", "--window", "2"], 2),
        (["report", "--matrix", "INVALID"], 3),
    ],
    ids=["ok", "report", "usage", "parse-error", "undefined", "bad-fixture"],
)
def test_main_leaves_the_collector_as_it_found_it(collector, argv, code, tmp_path, capsys):
    argv = [_invalid_fixture(tmp_path) if arg == "INVALID" else arg for arg in argv]
    assert main(argv) == code
    assert gc.isenabled() is collector


def test_an_unexpected_error_propagates_with_the_state_restored(collector, monkeypatch):
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_report", fail)
    with pytest.raises(RuntimeError, match="boom"):
        main(["report", "--matrix", MJM])
    assert gc.isenabled() is collector


def test_the_collector_is_paused_while_a_command_runs(collector, monkeypatch, capsys):
    seen = []

    def report(args):
        seen.append(gc.isenabled())
        # A nested command leaves the outer command's pause in place.
        assert main(["metric", "--matrix", MJM, "--kind", "garfield_if", "--year", "2006"]) == 0
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(cli, "cmd_report", report)
    assert main(["report", "--matrix", MJM]) == 0
    assert seen == [False, False]
    assert gc.isenabled() is collector


# --- cyclic garbage does not grow with the input --------------------------


def _cyclic_garbage(argv, code):
    """Objects of cyclic garbage one command leaves behind: the count a
    collection finds after the command ran with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == code
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _assert_bounded(small, big, code, capsys):
    _cyclic_garbage(small, code)  # first calls fill lazily built caches
    counts = [_cyclic_garbage(small, code), _cyclic_garbage(big, code)]
    capsys.readouterr()
    assert counts[0] == counts[1], counts


def _ingest_argv(tmp_path, rows, seed=0):
    """An ingest of ``rows`` citation rows over ten years, with spelling
    variants, duplicates and backdated rows among them."""
    rng = random.Random(seed)
    journals = [f"Journal {n}" for n in range(60)]
    pubs = tmp_path / f"pubs{rows}.csv"
    pubs.write_text("year,count\n" + "".join(f"{y},{rng.randint(1, 50)}\n" for y in range(2000, 2010)))
    lines = ["cited_article_id,cited_pub_year,citing_journal,citing_year,citing_article_id"]
    for n in range(rows):
        name = rng.choice(journals)
        if rng.random() < 0.1:
            name = name.upper() + "."
        pub_year = rng.randint(2000, 2009)
        line = f"a{rng.randrange(rows)},{pub_year},{name},{pub_year + rng.randint(-1, 5)},c{n}"
        lines.append(line)
        if rng.random() < 0.05:
            lines.append(line)
    cites = tmp_path / f"cites{rows}.csv"
    cites.write_text("\n".join(lines) + "\n")
    fixture = tmp_path / f"fx{rows}.json"
    return ["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(fixture)]


def _fixture(tmp_path, years, *, invalid=False):
    """A fixture with a counted cell at every on-or-below-diagonal cell of a
    ``years``-year span; with ``invalid``, its last triple has a negative
    count, so every other triple is checked before it is rejected."""
    span = range(2000, 2000 + years)
    cells = [[k, i, 1 + (k * i) % 7] for k in span for i in span if k >= i]
    doc = {
        "pub_years": [span[0], span[-1]],
        "cite_years": [span[0], span[-1]],
        "publications": {str(y): 20 + y % 9 for y in span},
        "citations": cells,
        "unique_new_sync": [[k, i, min(n, 2)] for k, i, n in cells],
        "unique_new_diach": [[k, i, 1] for k, i, n in cells],
    }
    if invalid:
        doc["citations"][-1][2] = -1
    path = tmp_path / f"fx{years}{'-invalid' if invalid else ''}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_ingest_garbage_does_not_grow_with_its_rows(tmp_path, capsys):
    _assert_bounded(_ingest_argv(tmp_path, 200), _ingest_argv(tmp_path, 5000), 0, capsys)


@pytest.mark.parametrize(
    ("args", "code"),
    [
        (["metric", "--kind", "diach_jdf", "--year", "2000", "--window", "max"], 0),
        (["metric", "--kind", "sync_rdf", "--year", "2000", "--window", "4", "--no-clip"], 2),
        (["report", "--format", "table"], 0),
        (["report", "--format", "csv"], 0),
        (["report", "--format", "structured"], 0),
    ],
    ids=["metric", "undefined-metric", "report-table", "report-csv", "report-structured"],
)
def test_query_garbage_does_not_grow_with_the_fixture(tmp_path, args, code, capsys):
    # 15 against 210 counted cells.
    small, big = _fixture(tmp_path, 5), _fixture(tmp_path, 20)
    _assert_bounded([*args, "--matrix", small], [*args, "--matrix", big], code, capsys)


def test_rejected_fixture_garbage_does_not_grow_with_the_fixture(tmp_path, capsys):
    small, big = _fixture(tmp_path, 5, invalid=True), _fixture(tmp_path, 20, invalid=True)
    _assert_bounded(["report", "--matrix", small], ["report", "--matrix", big], 3, capsys)


@pytest.mark.parametrize(
    ("kind", "year", "window"),
    [("sync_if", 2004, 2), ("diach_if", 2011, 2), ("sync_jdf", 2003, None), ("diach_jdf", 2009, 2),
     ("sync_rdf", 2005, 3), ("diach_rdf", 2003, None), ("garfield_if", 2005, 2)],
)
def test_a_raised_refusal_leaves_no_cyclic_garbage(mjm, kind, year, window):
    """An indicator builds its refusal and then raises it: the frames its
    traceback keeps must hold no reference back to it."""
    request = MetricRequest(kind, year, window, 1, False)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(UndefinedMetricError):
            evaluate(request, mjm.matrix, mjm.sync, mjm.diach)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
