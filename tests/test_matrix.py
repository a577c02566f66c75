import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics.ingest import CitationEvent, JournalId, PublicationLedger
from citemetrics.matrix import (
    COLUMN,
    DIACHRONOUS,
    ROW,
    SYNCHRONOUS,
    AugmentedMatrix,
    PubCitMatrix,
    Window,
    augment,
    augment_diachronous,
    augment_synchronous,
    build_pc_matrix,
    distinct_journals_block,
    year_range,
)

from helpers import build_all, ev, random_corpus

LEDGER_2004_2006 = PublicationLedger({2004: 10, 2005: 10, 2006: 10})


def test_build_counts_cells():
    events = [
        ev("a", 2005, 2004, "c1"),
        ev("b", 2005, 2004, "c2"),
        ev("a", 2006, 2005, "c3"),
    ]
    m = build_pc_matrix(events, LEDGER_2004_2006, (2004, 2006), (2004, 2006))
    assert m.cit(2005, 2004) == 2
    assert m.cit(2006, 2005) == 1
    assert m.cit(2004, 2006) == 0
    assert len(events) - sum(m.citations.values()) == 0


def test_every_cell_is_materialized():
    """Every cell of the grid reads, as 0 unless it was counted; only the
    non-zero cells are stored."""
    events = [ev("a", 2005, 2004, "c1")]
    m = build_pc_matrix(events, LEDGER_2004_2006, (2004, 2006), (2004, 2006))
    assert {(k, i): m.cit(k, i) for k in range(2004, 2007) for i in range(2004, 2007)} == {
        (k, i): int((k, i) == (2005, 2004)) for k in range(2004, 2007) for i in range(2004, 2007)
    }
    assert m.citations == {(2005, 2004): 1}
    assert 0 not in m.citations.values()


def test_out_of_range_events_are_clipped_not_fatal():
    events = [ev("a", 2005, 2003, "c1"), ev("a", 2011, 2005, "c2"), ev("a", 2005, 2005, "c3")]
    m = build_pc_matrix(events, LEDGER_2004_2006, (2004, 2006), (2004, 2006))
    assert len(events) - sum(m.citations.values()) == 2
    assert m.cit(2005, 2005) == 1


def test_ledger_must_cover_every_pub_year():
    with pytest.raises(ValueError):
        build_pc_matrix([], PublicationLedger({2004: 1}), (2004, 2005), (2004, 2005))


def test_empty_span_rejected():
    with pytest.raises(ValueError):
        build_pc_matrix([], LEDGER_2004_2006, (2006, 2004), (2004, 2006))


def test_row_and_column_totals():
    events = [ev("a", 2005, 2004, "c1"), ev("b", 2005, 2005, "c2"), ev("c", 2006, 2005, "c3")]
    m = build_pc_matrix(events, LEDGER_2004_2006, (2004, 2006), (2004, 2006))
    assert m.window_sum(Window(ROW, 2005, range(2004, 2007))) == 2
    assert m.window_sum(Window(COLUMN, 2005, range(2004, 2007))) == 2
    assert m.window_sum(Window(COLUMN, 2006, range(2004, 2007))) == 0


def test_cell_access_outside_grid_raises():
    m = build_pc_matrix([], LEDGER_2004_2006, (2004, 2006), (2004, 2006))
    with pytest.raises(ValueError):
        m.cit(2003, 2004)
    with pytest.raises(ValueError):
        m.pub(2007)


def test_window_sum_matches_cell_reads():
    rng = random.Random(7)
    for _ in range(20):
        events, ledger, pub_span, cite_span = random_corpus(rng)
        matrix, sync, diach = build_all(events, ledger, pub_span, cite_span)
        windows = [Window(ROW, k, year_range(pub_span)) for k in year_range(cite_span)]
        windows += [Window(COLUMN, i, year_range(cite_span)) for i in year_range(pub_span)]
        for window in windows:
            assert matrix.window_sum(window) == sum(matrix.cit(*cell) for cell in window)
            assert sync.window_sum(window) == sum(sync.unique(*c) for c in window)
            assert diach.window_sum(window) == sum(diach.unique(*c) for c in window)
    assert matrix.window_sum(Window(ROW, cite_span[0], range(0))) == 0


@pytest.mark.parametrize(
    "cells, window",
    [
        # first cell off the grid
        pytest.param([(2004, 2003), (2004, 2004)], Window(ROW, 2004, range(2003, 2005)), id="cells0"),
        # last cell off the grid
        pytest.param([(2010, 2008), (2011, 2008)], Window(COLUMN, 2008, range(2010, 2012)), id="cells1"),
        pytest.param([(2003, 2004)], Window(ROW, 2003, range(2004, 2005)), id="cells2"),
    ],
)
def test_window_sum_off_the_grid_raises(mjm, cells, window):
    assert list(window) == cells
    with pytest.raises(ValueError, match="outside the matrix"):
        mjm.matrix.window_sum(window)
    with pytest.raises(ValueError, match="outside the matrix"):
        mjm.diach.window_sum(window)


def test_a_window_inside_the_spans_checks_no_cell(mjm, monkeypatch):
    """A window whose ends lie inside the spans, even on their edges and in
    either direction, is summed without the cell check that names an
    off-grid cell."""
    checked = []
    check = PubCitMatrix._check_cell

    def counting(self, *cell):
        checked.append(cell)
        return check(self, *cell)

    monkeypatch.setattr(PubCitMatrix, "_check_cell", counting)
    matrix = mjm.matrix
    spans = (ROW, matrix.cite_years, matrix.pub_years), (COLUMN, matrix.pub_years, matrix.cite_years)
    for axis, lines, (lo, hi) in spans:
        for line in lines:
            for years in (range(lo, hi + 1), range(hi, lo - 1, -1), range(lo, lo + 1), range(hi, hi + 1)):
                window = Window(axis, line, years)
                assert matrix.window_sum(window) == sum(matrix.citations.get(cell, 0) for cell in window)
    assert checked == []


@pytest.mark.parametrize("line", [2009, 2006])
def test_a_row_window_reaching_a_citation_year_past_the_publications_raises(mjm, line):
    # 2010 is inside the citation span, so only the publication span refuses
    # it; row 2006 also lies inside both spans.
    window = Window(ROW, line, range(2010, 2008, -1))
    with pytest.raises(ValueError, match=rf"^cell \({line}, 2010\) is outside the matrix"):
        mjm.matrix.window_sum(window)


class TestSynchronousScan:
    def test_journal_lands_on_newest_cited_year_in_its_row(self):
        # one journal cites 2004 and 2006 articles during 2007
        events = [ev("gut", 2007, 2006, "c1"), ev("gut", 2007, 2004, "c2")]
        ledger = PublicationLedger({y: 1 for y in range(2004, 2008)})
        m = build_pc_matrix(events, ledger, (2004, 2007), (2004, 2008))
        a = augment_synchronous(m, events)
        assert a.unique(2007, 2006) == 1
        assert a.unique(2007, 2004) == 0

    def test_rows_are_independent(self):
        events = [ev("gut", 2006, 2004, "c1"), ev("gut", 2007, 2004, "c2")]
        ledger = PublicationLedger({2004: 1})
        m = build_pc_matrix(events, ledger, (2004, 2004), (2004, 2008))
        a = augment_synchronous(m, events)
        # a journal citing in two different years is new in both rows
        assert a.unique(2006, 2004) == 1
        assert a.unique(2007, 2004) == 1

    def test_variant_label(self):
        m = build_pc_matrix([], LEDGER_2004_2006, (2004, 2006), (2004, 2006))
        assert augment_synchronous(m, []).variant == SYNCHRONOUS


class TestDiachronousScan:
    def test_journal_lands_on_earliest_citing_year_in_its_column(self):
        events = [ev("gut", 2006, 2004, "c1"), ev("gut", 2008, 2004, "c2")]
        ledger = PublicationLedger({2004: 1})
        m = build_pc_matrix(events, ledger, (2004, 2004), (2004, 2008))
        a = augment_diachronous(m, events)
        assert a.unique(2006, 2004) == 1
        assert a.unique(2008, 2004) == 0

    def test_columns_are_independent(self):
        events = [ev("gut", 2006, 2004, "c1"), ev("gut", 2006, 2005, "c2")]
        ledger = PublicationLedger({2004: 1, 2005: 1})
        m = build_pc_matrix(events, ledger, (2004, 2005), (2004, 2006))
        a = augment_diachronous(m, events)
        assert a.unique(2006, 2004) == 1
        assert a.unique(2006, 2005) == 1

    def test_variant_label(self):
        m = build_pc_matrix([], LEDGER_2004_2006, (2004, 2006), (2004, 2006))
        assert augment_diachronous(m, []).variant == DIACHRONOUS


def test_augment_rejects_foreign_event_set():
    events = [ev("a", 2005, 2004, "c1")]
    m = build_pc_matrix(events, LEDGER_2004_2006, (2004, 2006), (2004, 2006))
    with pytest.raises(ValueError):
        augment_synchronous(m, events + [ev("b", 2005, 2004, "c2")])
    with pytest.raises(ValueError):
        augment_diachronous(m, [])


def test_backdated_cells_count_citations_but_are_never_scanned():
    events = [ev("a", 2004, 2006, "c1")]  # citing year before publication year
    m = build_pc_matrix(events, LEDGER_2004_2006, (2004, 2006), (2004, 2006))
    assert m.cit(2004, 2006) == 1
    sync = augment_synchronous(m, events)
    diach = augment_diachronous(m, events)
    assert sync.unique(2004, 2006) == 0
    assert diach.unique(2004, 2006) == 0


def test_unknown_variant_rejected():
    m = build_pc_matrix([], LEDGER_2004_2006, (2004, 2006), (2004, 2006))
    with pytest.raises(ValueError):
        AugmentedMatrix("sideways", dict.fromkeys(m.citations, 0), m)
    with pytest.raises(ValueError) as err:
        augment(m, {}, "sideways")
    assert str(err.value) == "unknown augmentation variant 'sideways'"


def test_distinct_journals_block_ignores_repeat_visits():
    events = [
        ev("a", 2005, 2004, "c1"),
        ev("a", 2006, 2004, "c2"),
        ev("b", 2006, 2005, "c3"),
        ev("c", 2009, 2004, "c4"),  # outside the queried block
    ]
    assert distinct_journals_block(events, (2004, 2005), (2004, 2006)) == 2
    assert distinct_journals_block(events, (2004, 2005), (2009, 2009)) == 1
    assert distinct_journals_block(events, (2004, 2005), (2007, 2008)) == 0


_YEARS = st.integers(2000, 2005)
_EVENTS = st.lists(
    st.builds(
        CitationEvent,
        cited_article_id=st.just("a"),
        cited_pub_year=_YEARS,
        citing_journal=st.integers(0, 9).map(lambda n: JournalId(f"j{n}")),
        citing_year=_YEARS,
        citing_article_id=st.none(),
    ),
    max_size=60,
)
_FULL_LEDGER = PublicationLedger({y: 1 for y in range(2000, 2006)})


@given(_EVENTS)
def test_scan_lines_sum_to_distinct_journal_counts(events):
    """Each full scan line must agree with the brute-force distinct count
    over the cells it actually scanned (the at-or-after-publication ones)."""
    m = build_pc_matrix(events, _FULL_LEDGER, (2000, 2005), (2000, 2005))
    sync = augment_synchronous(m, events)
    diach = augment_diachronous(m, events)
    for k in year_range(m.cite_years):
        row_sum = sum(sync.unique(k, i) for i in year_range(m.pub_years))
        assert row_sum == distinct_journals_block(events, (2000, min(k, 2005)), (k, k))
    for i in year_range(m.pub_years):
        col_sum = sum(diach.unique(k, i) for k in year_range(m.cite_years))
        assert col_sum == distinct_journals_block(events, (i, i), (max(i, 2000), 2005))


@given(_EVENTS)
def test_unique_never_exceeds_citations(events):
    m = build_pc_matrix(events, _FULL_LEDGER, (2000, 2005), (2000, 2005))
    for aug in (augment_synchronous(m, events), augment_diachronous(m, events)):
        assert all(
            aug.unique(k, i) <= m.cit(k, i) for k in year_range(m.cite_years) for i in year_range(m.pub_years)
        )
        assert 0 not in aug.unique_new.values()


@given(_EVENTS)
def test_first_scanned_nonzero_cell_introduces_a_journal(events):
    """Walking a scan line, the first cell holding any citations must count
    at least one first appearance (nothing has been seen yet)."""
    m = build_pc_matrix(events, _FULL_LEDGER, (2000, 2005), (2000, 2005))
    sync = augment_synchronous(m, events)
    diach = augment_diachronous(m, events)
    for k in year_range(m.cite_years):
        for i in range(min(k, 2005), 1999, -1):
            if m.cit(k, i) > 0:
                assert sync.unique(k, i) >= 1
                break
    for i in year_range(m.pub_years):
        for k in range(max(i, 2000), 2006):
            if m.cit(k, i) > 0:
                assert diach.unique(k, i) >= 1
                break


@given(_EVENTS, st.randoms(use_true_random=False))
def test_event_order_is_irrelevant(events, rnd):
    shuffled = list(events)
    rnd.shuffle(shuffled)
    m1, s1, d1 = build_all(events, _FULL_LEDGER, (2000, 2005), (2000, 2005))
    m2, s2, d2 = build_all(shuffled, _FULL_LEDGER, (2000, 2005), (2000, 2005))
    assert m1 == m2
    assert s1 == s2
    assert d1 == d2


@given(_EVENTS)
def test_duplicating_an_event_changes_counts_not_uniques(events):
    if not events:
        return
    clone = events[0]
    m1, s1, d1 = build_all(events, _FULL_LEDGER, (2000, 2005), (2000, 2005))
    m2, s2, d2 = build_all(events + [clone], _FULL_LEDGER, (2000, 2005), (2000, 2005))
    cell = (clone.citing_year, clone.cited_pub_year)
    assert m2.citations[cell] == m1.citations[cell] + 1
    assert s2.unique_new == s1.unique_new
    assert d2.unique_new == d1.unique_new


def test_random_corpus_spans_hold_their_promises():
    rng = random.Random(5)
    for _ in range(50):
        events, ledger, pub_span, cite_span = random_corpus(rng)
        m, sync, diach = build_all(events, ledger, pub_span, cite_span)
        (pub_lo, pub_hi), (cite_lo, cite_hi) = pub_span, cite_span
        in_grid = [
            (e.citing_year, e.cited_pub_year)
            for e in events
            if cite_lo <= e.citing_year <= cite_hi and pub_lo <= e.cited_pub_year <= pub_hi
        ]
        assert set(m.citations) == set(in_grid)
        assert sum(m.citations.values()) == len(in_grid)
