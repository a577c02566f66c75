"""``citemetrics ingest`` reads each citation row once; the library's step
functions, run one after another, are the reference it must reproduce: the
same fixture bytes, the same stdout, the same error. Both read the file
through ``_citation_rows``, so the property also holds what the step
functions parse to the fields and lines the test wrote."""

import csv
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics.cli import main
from citemetrics.errors import AliasTableError, ParseError
from citemetrics.fixture import load_fixture, save_fixture
from citemetrics.ingest import (
    backdated_records,
    deduplicate_events,
    load_alias_table,
    normalize_journal_names,
    parse_citations,
    parse_publications,
)
from citemetrics.matrix import augment_diachronous, augment_synchronous, build_pc_matrix

PAD = st.sampled_from(("", " ", "  "))

HEADER = ["cited_article_id", "cited_pub_year", "citing_journal", "citing_year", "citing_article_id"]

# Every journal under four spellings that normalize alike; the csv writer
# quotes the last, whose newline makes its record two physical lines.
SPELLINGS = {
    name: (name, name.upper() + ".", f"  {name.lower()}  ;", f"{name}\n;")
    for name in ("Lancet", "Gut", "Med J Malaysia", "BMJ")
}
JOURNAL_OF = {spelling: name for name, spellings in SPELLINGS.items() for spelling in spellings}

# Rows that fire, one that never fires (no corpus cites Acta Tropica) and
# one that conflicts with the first after normalization.
ALIAS_ROWS = (
    ("med j malaysia", "Lancet"),
    ("BMJ.", "British Medical Journal"),
    ("gut", "Gut Journal"),
    ("Acta Tropica", "Gut"),
    ("Med J Malaysia;", "BMJ"),
)


@st.composite
def corpora(draw):
    width = draw(st.sampled_from((4, 5)))
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        # The ledger covers at most 2003-2005; a citing year before the
        # publication year is backdated. Years below 1000 are written with
        # leading zeros, in pairs whose digits run together alike: 0420 then
        # 0005, and 0004 then 0205. Ids hold digits and dots.
        row = [
            draw(st.sampled_from(("a1", "a2", "a3", "1.", "1.2", "12"))),
            f"{draw(st.integers(2002, 2007) | st.sampled_from((4, 420))):04}",
            draw(st.sampled_from(sorted(JOURNAL_OF))),
            f"{draw(st.integers(2001, 2008) | st.sampled_from((5, 205))):04}",
        ]
        if width == 5:
            row.append(draw(st.sampled_from(("", "c1", "c2", "2", ".2", "1.2"))))
        rows.append(row)
    if rows:
        for row in draw(st.lists(st.sampled_from(rows), max_size=6)):
            copy = list(row)  # a duplicate, possibly under another spelling
            copy[2] = draw(st.sampled_from(SPELLINGS[JOURNAL_OF[row[2]]]))
            rows.insert(draw(st.integers(0, len(rows))), copy)
        if draw(st.integers(0, 9)) == 7:
            for index in draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3)):
                rows[index][2] = draw(st.sampled_from(("...", " ; ")))  # empty once normalized
        if draw(st.booleans()):
            # Spaces around every field; an id of spaces alone is unknown.
            for row in rows:
                row[:] = [f"{draw(PAD)}{cell}{draw(PAD)}" for cell in row]
        if draw(st.integers(0, 4)) == 4:
            rows += [list(row) for row in rows]  # the whole corpus, twice
        for _ in range(draw(st.integers(0, 3))):
            rows.insert(draw(st.integers(0, len(rows))), [])  # a blank row
    aliases = draw(st.none() | st.lists(st.sampled_from(ALIAS_ROWS), unique=True))
    no_pubs = draw(st.integers(0, 9)) == 7
    pubs = draw(
        st.dictionaries(st.integers(2003, 2005), st.integers(0, 9), min_size=0 if no_pubs else 1)
    )
    return width, rows, aliases, pubs


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _written_records(width, rows):
    """What parse_citations must read from ``rows`` as _write_csv writes
    them: per data row, the line its record ends on, then its trimmed
    fields, years as ints and an empty citing_article_id as None."""
    records, line = [], 1  # the header
    for row in rows:
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerow(row)
        line += text.getvalue().count("\n")
        if row:
            cells = [cell.strip() for cell in row]
            citing_id = (cells[4] or None) if width == 5 else None
            records.append((line, cells[0], int(cells[1]), cells[2], int(cells[3]), citing_id))
    return records


def _read(path, parse):
    with open(path, newline="", encoding="utf-8") as fh:
        return parse(fh)


def reference_ingest(pubs, cites, aliases, out):
    """(exit code, stdout, stderr) of the step functions and save_fixture.
    A refusal names the file whose step raised it; normalization counts as
    a step of the citations file."""
    source = pubs
    try:
        ledger = _read(pubs, parse_publications)
        source = aliases
        alias_table = _read(aliases, load_alias_table) if aliases else None
        source = cites
        records = _read(cites, parse_citations)
        _, event_list = normalize_journal_names(records, alias_table)
        source = None
        events, removed = deduplicate_events(event_list)
        backdated = backdated_records(records)
        if ledger.years is None:
            raise ParseError(f"{pubs}: publications file contains no data rows")
        years = [e.citing_year for e in events]
        cite_span = (min(years), max(years)) if years else ledger.years
        matrix = build_pc_matrix(events, ledger, ledger.years, cite_span)
        sync = augment_synchronous(matrix, events)
        diach = augment_diachronous(matrix, events)
        save_fixture(out, matrix, sync, diach)
    except (ParseError, AliasTableError) as exc:
        where = f"{source}: " if source else ""
        return 1, "", f"citemetrics: error: {where}{exc}\n"
    lines = ", ".join(str(r.source_line) for r in backdated[:20])
    more = " ..." if len(backdated) > 20 else ""
    stdout = (
        f"wrote {out}\n"
        f"citation rows parsed: {len(records)}\n"
        f"duplicate rows removed: {removed}\n"
        f"events outside the matrix years (clipped): {len(events) - sum(matrix.citations.values())}\n"
        f"citations dated before publication (kept): {len(backdated)}"
        + (f" [lines {lines}{more}]" if backdated else "")
        + "\n"
    )
    return 0, stdout, ""


def _cli_ingest(pubs, cites, aliases, out):
    argv = ["ingest", "--pubs", pubs, "--cites", cites, "--matrix", out]
    if aliases:
        argv += ["--aliases", aliases]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _outcome(run, pubs, cites, aliases, out):
    result = run(pubs, cites, aliases, out)
    if not os.path.exists(out):
        return result, None
    with open(out, "rb") as fh:
        written = fh.read()
    os.remove(out)
    return result, written


# 150 examples by default, 1,000 under --hypothesis-profile=fuzz.
EXAMPLES = settings(max_examples=max(150, settings.default.max_examples // 10), deadline=None)


@EXAMPLES
@given(corpora())
def test_single_pass_ingest_matches_the_step_functions(corpus):
    width, rows, alias_rows, pub_counts = corpus
    with tempfile.TemporaryDirectory() as tmp:
        pubs, cites, out = (
            os.path.join(tmp, name) for name in ("pubs.csv", "cites.csv", "fx.json")
        )
        _write_csv(pubs, ["year", "count"], sorted(pub_counts.items()))
        _write_csv(cites, HEADER[:width], rows)
        aliases = None
        if alias_rows is not None:
            aliases = os.path.join(tmp, "aliases.csv")
            _write_csv(aliases, ["raw", "canonical"], alias_rows)
        records = _read(cites, parse_citations)
        assert [
            (r.source_line, r.cited_article_id, r.cited_pub_year, r.citing_journal_raw, r.citing_year, r.citing_article_id)
            for r in records
        ] == _written_records(width, rows)
        expected = _outcome(reference_ingest, pubs, cites, aliases, out)
        got = _outcome(_cli_ingest, pubs, cites, aliases, out)
        assert got == expected
        written = got[1]
        if written is not None:
            # The loader reads back exactly what ingest wrote.
            with open(out, "wb") as fh:
                fh.write(written)
            fixture = load_fixture(out)
            save_fixture(out, fixture.matrix, fixture.sync, fixture.diach)
            with open(out, "rb") as fh:
                assert fh.read() == written


def test_years_whose_digits_run_together_alike_are_two_rows():
    """``0420`` then ``0005`` and ``0004`` then ``0205`` share their digits
    when written back to back: the rows differ, so neither is a duplicate."""
    rows = [["a", "0420", "J", "0005"], ["a", "0004", "J", "0205"]]
    with tempfile.TemporaryDirectory() as tmp:
        pubs, cites, out = (os.path.join(tmp, name) for name in ("pubs.csv", "cites.csv", "fx.json"))
        _write_csv(pubs, ["year", "count"], [("0004", 1), ("0420", 1)])
        _write_csv(cites, HEADER[:4], rows)
        expected = _outcome(reference_ingest, pubs, cites, None, out)
        got = _outcome(_cli_ingest, pubs, cites, None, out)
    assert got == expected
    (code, stdout, _), written = got
    assert code == 0 and "citation rows parsed: 2\nduplicate rows removed: 0\n" in stdout
    assert json.loads(written)["citations"] == [[5, 420, 1], [205, 4, 1]]
