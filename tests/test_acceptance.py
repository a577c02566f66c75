"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``[acceptance] criterion N ...: PASS`` line when it
succeeds (run with ``-s`` or read the captured output), and the test name
itself carries the criterion number for ``-v`` runs. Tolerances are pinned in
the assertions; nothing here is free to drift.

Printed reference digits are matched under a dual rule: a fraction agrees
with a printed value when either half-up rounding or truncation at the
printed precision reproduces it. The reference material demonstrably mixes
the two (0.625 appears as 0.62 while 0.739 appears as 0.74), so demanding a
single rounding mode would misreport faithful arithmetic as failure.
"""

import io
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from citemetrics.cli import main
from citemetrics.errors import UndefinedMetricError
from citemetrics.fixture import to_document
from citemetrics.ingest import (
    deduplicate_events,
    load_alias_table,
    normalize_journal_names,
    parse_citations,
    parse_publications,
)
from citemetrics.matrix import (
    COLUMN,
    Window,
    augment_diachronous,
    augment_synchronous,
    build_pc_matrix,
    distinct_journals_block,
    year_range,
)
from citemetrics.metrics import (
    MetricRequest,
    diach_rdf,
    evaluate,
    rowlands_jdf,
    sync_jdf,
    sync_rdf,
)
from citemetrics.report import COLUMN_NAMES, build_report
from citemetrics.stats import Series, pearson

from helpers import build_all, column_events, matches_printed, random_corpus

# --------------------------------------------------------------------------
# criterion 1: the worked example ratios, as exact unreduced fractions and
# as printed digits
# --------------------------------------------------------------------------

WORKED_EXAMPLES = [
    # kind, request arguments, numerator, denominator, printed digits
    ("garfield_if", dict(year=2009), 87, 235, "0.37"),
    ("sync_if", dict(year=2009, window=2), 87, 235, "0.37"),
    ("sync_if", dict(year=2009, window=3), 174, 339, "0.51"),
    ("diach_if", dict(year=2006, window=2, shift=1), 118, 104, "1.13"),
    ("diach_if", dict(year=2006, window=2, shift=0), 65, 104, "0.62"),
    ("sync_jdf", dict(year=2006, window=3), 83, 345, "0.24"),
    ("diach_jdf", dict(year=2006, window=3), 96, 104, "0.92"),
    ("sync_rdf", dict(year=2006, window=3), 83, 109, "0.76"),
    ("diach_rdf", dict(year=2006, window=5), 206, 253, "0.814"),
    ("diach_rdf", dict(year=2004, window=7), 255, 409, "0.62"),
    ("diach_rdf", dict(year=2005, window=6), 184, 249, "0.74"),
]


def test_criterion_1_worked_example_ratios(mjm):
    for kind, kwargs, numerator, denominator, printed in WORKED_EXAMPLES:
        value = evaluate(MetricRequest(kind=kind, **kwargs), mjm.matrix, mjm.sync, mjm.diach)
        assert (value.numerator, value.denominator) == (numerator, denominator), (kind, kwargs)
        assert value.value == Fraction(numerator, denominator)
        assert matches_printed(numerator, denominator, printed), (kind, kwargs, printed)
    print(f"\n[acceptance] criterion 1 (worked-example ratios, {len(WORKED_EXAMPLES)} values): PASS")


# --------------------------------------------------------------------------
# criterion 2: the full reference indicator table for the bundled dataset
# --------------------------------------------------------------------------

# Transcribed printed digits, in report column order (garfield_if, sync_if2,
# diach_if2s1, sync_rdf_max, diach_rdf_max, sync_jdf_max, diach_jdf_max).
REFERENCE_TABLE = {
    2004: ("x", "x", "0.81", "1", "0.62", "0.057", "1.83"),
    2005: ("x", "x", "0.79", "0.87", "0.74", "0.141", "1.8"),
    2006: ("0.42", "0.42", "1.13", "0.77", "0.81", "0.24", "1.98"),
    2007: ("0.55", "0.55", "0.66", "0.74", "0.81", "0.33", "0.8"),
    2008: ("0.36", "0.36", "0.48", "0.66", "0.88", "0.27", "0.46"),
    2009: ("0.37", "0.37", "x", "0.85", "x", "0.45", "x"),
    2010: ("x", "x", "x", "0.82", "x", "0.25", "x"),
}

# The one cell whose printed digits are inconsistent with the underlying
# counts: the 2006 sync_rdf is printed as 0.77, but the cell arithmetic is
# 83/109 = 0.7614..., which renders as 0.76 under either rounding mode (and
# the same ratio is printed as 0.76 where it appears as a worked example).
# The computed fraction is pinned here and the divergence is recorded.
ARTIFACT_CELL = (2006, "sync_rdf_max")


def test_criterion_2_reference_table_reproduction(mjm):
    rows = {row.year: row for row in build_report(mjm.matrix, mjm.sync, mjm.diach)}
    assert sorted(rows) == sorted(REFERENCE_TABLE)
    matched = 0
    for year, printed_cells in REFERENCE_TABLE.items():
        for name, printed in zip(COLUMN_NAMES[1:], printed_cells):
            value = getattr(rows[year], name)
            if (year, name) == ARTIFACT_CELL:
                assert value is not None
                assert (value.numerator, value.denominator) == (83, 109)
                assert matches_printed(83, 109, "0.76")
                assert not matches_printed(83, 109, printed)
                continue
            if printed == "x":
                assert value is None, (year, name)
            else:
                assert value is not None, (year, name)
                assert matches_printed(value.numerator, value.denominator, printed), (
                    year,
                    name,
                    printed,
                    value.numerator,
                    value.denominator,
                )
            matched += 1
    assert matched == 48
    print(
        "\n[acceptance] criterion 2 (reference table, 48 cells + 1 recorded "
        "transcription artifact): PASS"
    )


# --------------------------------------------------------------------------
# criterion 3: scan counts equal the brute-force distinct-journal oracle on
# at least 1000 randomized event sets
# --------------------------------------------------------------------------


def test_criterion_3_scans_match_bruteforce_oracle():
    rng = random.Random(20240815)
    corpora = 0
    lines_checked = 0
    for trial in range(1000):
        events, ledger, pub_span, cite_span = random_corpus(rng, big=(trial % 25 == 0))
        matrix, sync, diach = build_all(events, ledger, pub_span, cite_span)
        for k in year_range(cite_span):
            row_sum = sum(sync.unique(k, i) for i in year_range(pub_span))
            hi = min(k, pub_span[1])
            expected = (
                0 if hi < pub_span[0] else distinct_journals_block(events, (pub_span[0], hi), (k, k))
            )
            assert row_sum == expected, (trial, "row", k)
            lines_checked += 1
        for i in year_range(pub_span):
            col_sum = sum(diach.unique(k, i) for k in year_range(cite_span))
            lo = max(i, cite_span[0])
            expected = (
                0 if lo > cite_span[1] else distinct_journals_block(events, (i, i), (lo, cite_span[1]))
            )
            assert col_sum == expected, (trial, "column", i)
            lines_checked += 1
        corpora += 1
    assert corpora == 1000
    print(
        f"\n[acceptance] criterion 3 (scan vs brute-force oracle, {corpora} event sets, "
        f"{lines_checked} scan lines): PASS"
    )


# --------------------------------------------------------------------------
# criterion 4: every defined RDF lies in (0, 1], and a repeated citation
# lowers the RDF while leaving JDF numerators untouched
# --------------------------------------------------------------------------


def test_criterion_4_rdf_bounds_and_repeat_citation_law():
    rng = random.Random(97)
    bounds_checked = 0
    injections = 0
    for trial in range(1000):
        events, ledger, pub_span, cite_span = random_corpus(rng, big=(trial % 50 == 0))
        matrix, sync, diach = build_all(events, ledger, pub_span, cite_span)

        windows = [1, 2, 3, None]
        for year in year_range(cite_span):
            for window in windows:
                try:
                    value = sync_rdf(sync, year, window)
                except UndefinedMetricError:
                    continue
                assert 0 < value.value <= 1, (trial, "sync", year, window)
                bounds_checked += 1
        for year in year_range(pub_span):
            for window in windows:
                try:
                    value = diach_rdf(diach, year, window)
                except UndefinedMetricError:
                    continue
                assert 0 < value.value <= 1, (trial, "diach", year, window)
                bounds_checked += 1

        eligible = [
            e
            for e in events
            if (e.citing_year, e.cited_pub_year) in matrix.citations
            and e.citing_year >= e.cited_pub_year
        ]
        if not eligible:
            continue
        chosen = rng.choice(eligible)
        clone = replace(chosen, citing_article_id=f"planted-duplicate-{trial}")
        _, sync2, diach2 = build_all(events + [clone], ledger, pub_span, cite_span)

        before = sync_rdf(sync, chosen.citing_year, None)
        after = sync_rdf(sync2, chosen.citing_year, None)
        assert after.numerator == before.numerator
        assert after.denominator == before.denominator + 1
        assert after.value < before.value

        before = diach_rdf(diach, chosen.cited_pub_year, None)
        after = diach_rdf(diach2, chosen.cited_pub_year, None)
        assert after.numerator == before.numerator
        assert after.denominator == before.denominator + 1
        assert after.value < before.value

        try:
            jdf_before = sync_jdf(sync, chosen.citing_year, None)
        except UndefinedMetricError:
            jdf_before = None
        if jdf_before is not None:
            assert sync_jdf(sync2, chosen.citing_year, None) == jdf_before

        injections += 1
    assert bounds_checked > 2000
    assert injections > 500
    print(
        f"\n[acceptance] criterion 4 (RDF in (0,1] x{bounds_checked}; repeat-citation law "
        f"x{injections}): PASS"
    )


# --------------------------------------------------------------------------
# criterion 5: more-cited publication years diffuse relatively less — the
# correlation between citation totals and the diachronous RDF is negative
# --------------------------------------------------------------------------

# Frozen once against scipy.stats.pearsonr; the package must agree to 1e-9.
FROZEN_PEARSON_EXACT = -0.9040180344571682


def test_criterion_5_citation_totals_anticorrelate_with_diffusion(mjm):
    years = tuple(year_range(mjm.matrix.pub_years))
    cite_years = year_range(mjm.matrix.cite_years)
    totals = Series(years, tuple(mjm.matrix.window_sum(Window(COLUMN, y, cite_years)) for y in years))
    rdfs = Series(years, tuple(diach_rdf(mjm.diach, y, None).value for y in years))
    r = pearson(totals, rdfs)
    assert r < 0
    assert r == pytest.approx(FROZEN_PEARSON_EXACT, abs=1e-9)
    print(f"\n[acceptance] criterion 5 (negative diffusion correlation, r={r:.4f}): PASS")


# --------------------------------------------------------------------------
# criterion 6: on a single-publication-year block, the per-100-citations
# score is exactly 100 times the diachronous RDF with the matching window
# --------------------------------------------------------------------------


def test_criterion_6_block_score_vs_diachronous_rdf(mjm):
    rng = random.Random(6006)
    compared = 0
    for _ in range(300):
        events, ledger, pub_span, cite_span = random_corpus(rng)
        matrix, _, diach = build_all(events, ledger, pub_span, cite_span)
        for year in year_range(pub_span):
            try:
                rdf = diach_rdf(diach, year, None)
            except UndefinedMetricError:
                continue
            block = rowlands_jdf(events, matrix, (year, year), (year, cite_span[1]))
            assert block.value == 100 * rdf.value, year
            assert block.numerator == 100 * rdf.numerator
            assert block.denominator == rdf.denominator
            compared += 1
    assert compared > 100

    # and once more on events engineered to match the bundled dataset's 2006
    # column exactly
    rows = [(k, mjm.matrix.cit(k, 2006), mjm.diach.unique(k, 2006)) for k in range(2006, 2011)]
    events = column_events(2006, rows)
    from citemetrics.ingest import PublicationLedger

    matrix, _, diach = build_all(events, PublicationLedger({2006: 104}), (2006, 2006), (2006, 2010))
    block = rowlands_jdf(events, matrix, (2006, 2006), (2006, 2010))
    assert (block.numerator, block.denominator) == (20600, 253)
    assert block.value == 100 * diach_rdf(diach, 2006, None).value
    print(
        f"\n[acceptance] criterion 6 (block score = 100 x diachronous RDF, "
        f"{compared} random comparisons + dataset column): PASS"
    )


# --------------------------------------------------------------------------
# criterion 7: ingestion is deterministic, order-independent, and removes
# exactly the planted duplicate rows
# --------------------------------------------------------------------------

ALIAS_CSV = (
    "raw,canonical\n"
    "the lancet,lancet\n"
    "lancet (london),lancet\n"
    "brit med j,british medical journal\n"
)

_JOURNAL_SPELLINGS = [
    ["gut", "GUT.", " Gut "],
    ["Lancet", "The Lancet", "LANCET (London)"],
    ["British Medical Journal", "BRIT MED J", "brit med j."],
    ["Med J Malaysia", "MED J MALAYSIA"],
    ["Singapore Med J"],
    ["J Clin Path"],
    ["Acta Tropica"],
    ["Ann Acad Med"],
]


def _criterion7_rows(rng):
    rows = []
    for serial in range(700):
        spellings = rng.choice(_JOURNAL_SPELLINGS)
        journal = rng.choice(spellings)
        pub_year = rng.randint(2003, 2009)  # 2003/2009 rows fall outside the ledger
        citing_year = rng.randint(2004, 2010)
        rows.append((f"a{pub_year}", str(pub_year), journal, str(citing_year), f"c{serial}"))
    return rows


def _csv_text(rows):
    header = "cited_article_id,cited_pub_year,citing_journal,citing_year,citing_article_id"
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _ingest_document(pubs_text, cites_text, alias_text):
    ledger = parse_publications(io.StringIO(pubs_text))
    records = parse_citations(io.StringIO(cites_text))
    aliases = load_alias_table(io.StringIO(alias_text))
    _, event_list = normalize_journal_names(records, aliases)
    events, removed = deduplicate_events(event_list)
    cite_span = (min(e.citing_year for e in events), max(e.citing_year for e in events))
    matrix = build_pc_matrix(events, ledger, ledger.years, cite_span)
    sync = augment_synchronous(matrix, events)
    diach = augment_diachronous(matrix, events)
    return to_document(matrix, sync, diach), removed


def test_criterion_7_ingestion_determinism_and_planted_duplicates(tmp_path, capsys):
    rng = random.Random(424242)
    base_rows = _criterion7_rows(rng)
    planted = [rng.choice(base_rows) for _ in range(137)]
    rows_a = base_rows + planted
    rng.shuffle(rows_a)
    rows_b = list(rows_a)
    rng.shuffle(rows_b)
    assert rows_a != rows_b  # the shuffle actually moved something

    pubs_text = "year,count\n" + "".join(f"{y},{rng.randint(50, 150)}\n" for y in range(2004, 2009))

    doc_a, removed_a = _ingest_document(pubs_text, _csv_text(rows_a), ALIAS_CSV)
    doc_a_again, removed_again = _ingest_document(pubs_text, _csv_text(rows_a), ALIAS_CSV)
    doc_b, removed_b = _ingest_document(pubs_text, _csv_text(rows_b), ALIAS_CSV)

    assert doc_a == doc_a_again and removed_a == removed_again  # same input, same output
    assert doc_a == doc_b  # row order is irrelevant
    assert removed_a == removed_b == 137  # exactly the planted copies disappear

    # the command line reports the same removal count
    pubs = tmp_path / "pubs.csv"
    cites = tmp_path / "cites.csv"
    aliases = tmp_path / "aliases.csv"
    out = tmp_path / "fx.json"
    pubs.write_text(pubs_text)
    cites.write_text(_csv_text(rows_a))
    aliases.write_text(ALIAS_CSV)
    code = main(
        ["ingest", "--pubs", str(pubs), "--cites", str(cites), "--aliases", str(aliases), "--matrix", str(out)]
    )
    assert code == 0
    assert "duplicate rows removed: 137" in capsys.readouterr().out
    assert json.loads(out.read_text()) == doc_a
    print(
        "\n[acceptance] criterion 7 (deterministic ingestion, 137/137 planted "
        "duplicates removed): PASS"
    )
