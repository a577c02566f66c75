"""Windows held by their ends, checked against windows listed year by year.

Every indicator sums a row or column window. The library keeps a window as
a ``Window`` (axis, line, range of years) and the years it misses as a
``YearRuns`` value; the reference here lists every year and every cell, as
the indicators once did, and sums cell by cell.
"""

import copy
import pickle
import random
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citemetrics.errors import UndefinedMetricError
from citemetrics.ingest import PublicationLedger
from citemetrics.matrix import (
    COLUMN,
    DIACHRONOUS,
    ROW,
    SYNCHRONOUS,
    AugmentedMatrix,
    PubCitMatrix,
    Window,
    YearRuns,
    augment,
    matrix_from_counts,
    year_range,
)
from citemetrics.metrics import MetricRequest, diach_if, evaluate, sync_if

from helpers import line_window, runs_text

WINDOW_KINDS = ("sync_if", "diach_if", "sync_jdf", "diach_jdf", "sync_rdf", "diach_rdf")


def listed(lo, hi, start, window, step, clip):
    """``(years, missing, wanted)`` for a window listed year by year from
    ``start`` (step -1: into the past, +1: forward) and cut to or checked
    against the span ``lo..hi``; ``years`` is None when it is undefined."""
    if window is None:
        wanted = list(range(start, (lo if step < 0 else hi) + step, step))
        years = [y for y in wanted if lo <= y <= hi]
        return (years or None), ([] if years else [start]), wanted
    wanted = [start + step * j for j in range(window)]
    inside = [y for y in wanted if lo <= y <= hi]
    missing = [y for y in wanted if not lo <= y <= hi]
    if clip:
        return (inside or None), ([] if inside else wanted), wanted
    return (None if missing else wanted), missing, wanted


def random_fixture(rng):
    """A sparse matrix and both augmentations: spans of up to 15 years and
    at most 25 stored cells."""
    pub_lo = rng.randint(1990, 2000)
    pub_hi = pub_lo + rng.randint(0, 14)
    cite_lo = pub_lo + rng.randint(-2, 5)
    cite_hi = max(cite_lo, pub_hi) + rng.randint(0, 6)
    ledger = PublicationLedger(
        {y: rng.choice((0, rng.randint(1, 30), rng.randint(1, 30))) for y in range(pub_lo, pub_hi + 1)}
    )
    counts, journals = {}, {}
    for _ in range(rng.randint(0, 25)):
        cell = (rng.randint(cite_lo, cite_hi), rng.randint(pub_lo, pub_hi))
        names = {f"j{rng.randint(0, 6)}" for _ in range(rng.randint(1, 4))}
        counts[cell] = counts.get(cell, 0) + len(names) + rng.randint(0, 3)
        journals.setdefault(cell, set()).update(names)
    matrix = matrix_from_counts(counts, ledger, (pub_lo, pub_hi), (cite_lo, cite_hi))
    return matrix, augment(matrix, journals, SYNCHRONOUS), augment(matrix, journals, DIACHRONOUS)


def brute_force(kind, matrix, sync, diach, year, window, shift, clip):
    """``(numerator, denominator, cells)`` summed over listed cells, or None
    when the request is undefined."""
    (pub_lo, pub_hi), (cite_lo, cite_hi) = matrix.pub_years, matrix.cite_years
    pubs, cit = matrix.publications.counts, matrix.citations
    if kind.startswith("sync"):
        if not cite_lo <= year <= cite_hi:
            return None
        start = year - 1 if kind == "sync_if" else year
        years = listed(pub_lo, pub_hi, start, window, -1, clip)[0]
        if years is None:
            return None
        cells = tuple((year, i) for i in years)
    else:
        if not pub_lo <= year <= pub_hi or (kind != "diach_rdf" and pubs[year] == 0):
            return None
        start = year + shift if kind == "diach_if" else year
        years = listed(cite_lo, cite_hi, start, window, 1, clip)[0]
        if years is None:
            return None
        cells = tuple((k, year) for k in years)
    unique = (sync if kind.startswith("sync") else diach).unique_new
    cit_sum = sum(cit.get(cell, 0) for cell in cells)
    uniq_sum = sum(unique.get(cell, 0) for cell in cells)
    numerator = cit_sum if kind.endswith("_if") else uniq_sum
    if kind.endswith("_rdf"):
        denominator = cit_sum
    elif kind.startswith("sync"):
        denominator = sum(pubs[i] for i in years)
    else:
        denominator = pubs[year]
    return None if denominator == 0 else (numerator, denominator, cells)


def test_every_kind_matches_a_brute_force_sum_over_listed_cells():
    rng = random.Random(61)
    compared = undefined = 0
    for _ in range(250):
        matrix, sync, diach = random_fixture(rng)
        (pub_lo, pub_hi), (cite_lo, cite_hi) = matrix.pub_years, matrix.cite_years
        for _ in range(40):
            kind = rng.choice(WINDOW_KINDS)
            year = rng.randint(min(pub_lo, cite_lo) - 2, max(pub_hi, cite_hi) + 2)
            window = rng.choice((None, rng.randint(1, 3), rng.randint(1, 40)))
            shift = rng.randint(0, 3) if kind == "diach_if" else 1
            clip = rng.random() < 0.6
            expected = brute_force(kind, matrix, sync, diach, year, window, shift, clip)
            request = MetricRequest(kind, year, window, shift, clip)
            if expected is None:
                with pytest.raises(UndefinedMetricError):
                    evaluate(request, matrix, sync, diach)
                undefined += 1
                continue
            got = evaluate(request, matrix, sync, diach)
            numerator, denominator, cells = expected
            assert (got.numerator, got.denominator) == (numerator, denominator), request
            window_cells = got.effective_window
            assert tuple(window_cells) == cells and window_cells == cells
            assert hash(window_cells) == hash(cells)
            assert len(window_cells) == len(cells)
            assert (window_cells[0], window_cells[-1]) == (cells[0], cells[-1])
            compared += 1
    assert compared > 2000 and undefined > 500


def test_garfield_window_is_the_two_prior_years():
    rng = random.Random(62)
    for _ in range(100):
        matrix, _, _ = random_fixture(rng)
        for year in range(matrix.cite_years[0], matrix.cite_years[1] + 1):
            try:
                got = evaluate(MetricRequest("garfield_if", year), matrix)
            except UndefinedMetricError:
                continue
            cells = ((year, year - 1), (year, year - 2))
            assert got.effective_window == cells and hash(got.effective_window) == hash(cells)
            assert got.numerator == sum(matrix.citations.get(cell, 0) for cell in cells)


@pytest.mark.parametrize("clip", [True, False])
def test_window_years_and_missing_runs_equal_the_listed_filter(clip):
    """Both directions; starts and windows reach past either end of the span
    and past both at once."""
    rng = random.Random(63 + clip)
    overhang_both = 0
    for _ in range(60):
        matrix, _, _ = random_fixture(rng)
        for axis, (lo, hi) in ((ROW, matrix.pub_years), (COLUMN, matrix.cite_years)):
            step = -1 if axis == ROW else 1
            for _ in range(30):
                year = rng.randint(lo - 6, hi + 6)
                window = rng.choice((None, rng.randint(1, hi - lo + 14)))
                offset = rng.randint(0, 3)
                start = year + step * offset
                call = lambda: line_window(matrix, axis, year, start, window, clip)
                years, missing, wanted = listed(lo, hi, start, window, step, clip)
                if wanted and min(wanted) < lo and max(wanted) > hi:
                    overhang_both += 1
                if years is not None:
                    got = call()
                    assert (got.axis, got.line) == (axis, year)
                    assert tuple(got.years) == tuple(years) and list(got.years) == years
                    assert len(got) == len(years)
                    continue
                with pytest.raises(UndefinedMetricError) as err:
                    call()
                got = err.value.missing_years
                assert got == tuple(missing) and got == missing and tuple(got) == tuple(missing)
                assert hash(got) == hash(tuple(missing))
                what = "publication" if axis == ROW else "citation"
                if window is None:
                    side = "before" if axis == ROW else "after"
                    text = f"no {what} years at or {side} {start} in {lo}-{hi}"
                elif clip:
                    text = f"window {min(wanted)}-{max(wanted)} has no overlap with {what} years {lo}-{hi}"
                else:
                    text = f"{what} years {runs_text(missing)} are outside {lo}-{hi} and clipping is off"
                    assert str(got) == runs_text(missing)
                assert str(err.value) == text
    assert overhang_both > 20


def test_a_window_of_1e11_years_misses_two_runs_not_a_list(mjm):
    with pytest.raises(UndefinedMetricError) as err:
        line_window(mjm.matrix, ROW, 2006, 2006, 10**11, False)
    missing = err.value.missing_years
    assert missing.runs == (range(2003, 2006 - 10**11, -1),)
    assert str(err.value) == (
        "publication years -99999997993–2003 are outside 2004-2008 and clipping is off"
    )
    with pytest.raises(UndefinedMetricError) as err:
        line_window(mjm.matrix, COLUMN, 2000, 2001, 10**11, False)
    assert err.value.missing_years.runs == (range(2001, 2004), range(2011, 2001 + 10**11))
    assert str(err.value) == (
        "citation years 2001–2003, 2011–100000002000 are outside 2004-2010 and clipping is off"
    )
    with pytest.raises(UndefinedMetricError) as err:
        line_window(mjm.matrix, ROW, 2010, 2010, 10**11, False)
    assert err.value.missing_years.runs == (range(2010, 2008, -1), range(2003, -99999997990, -1))
    assert str(err.value) == (
        "publication years -99999997989–2003, 2009–2010 are outside 2004-2008 and clipping is off"
    )


class TestWindowValue:
    def test_a_row_window_is_the_tuple_of_its_cells(self):
        window = Window(ROW, 2010, range(2008, 2004, -1))
        cells = ((2010, 2008), (2010, 2007), (2010, 2006), (2010, 2005))
        assert tuple(window) == cells and window == cells and cells == window
        assert hash(window) == hash(cells) and len(window) == 4
        assert window[0] == (2010, 2008) and window[-1] == (2010, 2005)
        assert window[1:3] == cells[1:3]
        assert window != cells[:3] and window != list(cells)
        with pytest.raises(IndexError):
            window[4]

    def test_a_column_window_is_the_tuple_of_its_cells(self):
        window = Window(COLUMN, 2004, range(2005, 2008))
        cells = ((2005, 2004), (2006, 2004), (2007, 2004))
        assert window == cells and hash(window) == hash(cells)
        assert window == Window(COLUMN, 2004, range(2005, 2008))
        assert window != Window(COLUMN, 2005, range(2005, 2008))
        assert window != Window(ROW, 2004, range(2005, 2008))

    def test_windows_of_one_cell_or_none_compare_by_their_cells(self):
        assert Window(ROW, 2006, range(2004, 2005)) == Window(COLUMN, 2004, range(2006, 2007))
        assert Window(ROW, 2006, range(0)) == Window(COLUMN, 1999, range(5, 5)) == ()
        assert not Window(ROW, 2006, range(0))

    def test_a_window_and_its_year_runs_are_immutable(self):
        window = Window(COLUMN, 2004, range(2005, 2008))
        runs = YearRuns(range(2002, 2004), range(2011, 2012))
        for value, name in ((window, "axis"), (window, "line"), (window, "years"), (runs, "runs")):
            before = getattr(value, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, before)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
            assert getattr(value, name) == before
        with pytest.raises(AttributeError):
            window.cells = ()
        assert window == ((2005, 2004), (2006, 2004), (2007, 2004)) and runs == [2002, 2003, 2011]
        assert {window: 1}[((2005, 2004), (2006, 2004), (2007, 2004))] == 1
        assert {runs: 1}[(2002, 2003, 2011)] == 1
        for copied in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
            assert repr(copied(window)) == repr(window) and copied(window) == window
            assert repr(copied(runs)) == repr(runs) and copied(runs) == runs

    def test_an_unknown_axis_is_refused(self):
        with pytest.raises(ValueError, match="axis"):
            Window("diagonal", 2006, range(3))

    def test_a_window_is_a_run_of_consecutive_years(self, mjm):
        for years in (range(2004, 2010, 2), range(2010, 2004, -3), range(0, 0, 2)):
            with pytest.raises(ValueError, match="not a run of consecutive years"):
                Window(ROW, 2010, years)
        window = sync_if(mjm.matrix, 2009, 3).effective_window
        cells = tuple(window)
        assert window[::-1] == cells[::-1] and window[2:0:-1] == cells[2:0:-1]
        with pytest.raises(ValueError, match="not a run of consecutive years"):
            window[::2]

    @pytest.mark.parametrize(
        "window",
        [
            Window(ROW, 2004, range(2003, 2005)),  # first cell off the grid
            Window(COLUMN, 2008, range(2010, 2012)),  # last cell off the grid
            Window(ROW, 2011, range(2008, 2003, -1)),  # the line itself off the grid
            Window(COLUMN, 2008, range(2004, 10**11)),  # longer than the map
            Window(ROW, 2003, range(2004, 2005)),  # a single cell off the grid
        ],
    )
    def test_a_window_off_the_grid_raises_like_its_listed_cells(self, mjm, window):
        with pytest.raises(ValueError, match="outside the matrix") as err:
            mjm.matrix.window_sum(window)
        with pytest.raises(ValueError) as unique_err:
            mjm.diach.window_sum(window)
        with pytest.raises(ValueError) as cell_err:
            mjm.matrix.cit(*window[0])
            mjm.matrix.cit(*window[-1])
        assert str(err.value) == str(unique_err.value) == str(cell_err.value)

    def test_a_window_longer_than_sys_maxsize_sums_its_stored_cells(self):
        ledger = PublicationLedger({2004: 1})
        matrix = matrix_from_counts({(2004, 2004): 3, (10**30, 2004): 2}, ledger, (2004, 2004), (2004, 10**30))
        window = Window(COLUMN, 2004, range(2004, 10**30 + 1))
        assert matrix.window_sum(window) == 5


@st.composite
def summed_maps(draw):
    """A matrix and both augmentations whose cell maps hold any counts on
    the grid, zeros among them, each map in a drawn insertion order as
    ingest's tallies are: only the sums are under test, so the unique-new
    maps need not agree with the citations.

    Half the draws are narrow: publication spans of up to 13 years,
    citation spans of up to 20 and about 40 cells a map at most. The other
    half are wide: publication spans of up to 61 years, citation spans of up
    to 63, either as short as one year, and about 200 cells a map at most,
    so that a line can hold dozens of cells and its bisections go several
    levels deep. Each map is one drawn byte per grid cell: a cell is stored
    when its byte is below a drawn density, with the byte's last digit as
    its count, and the cells go in by byte."""
    wide = draw(st.booleans())
    pub_lo = draw(st.integers(1990, 2000))
    pub_hi = pub_lo + draw(st.integers(0, 60 if wide else 12))
    pub_width = pub_hi - pub_lo
    cite_lo = pub_lo + draw(st.integers(-2, pub_width + 4 if wide else 4))
    cite_hi = max(cite_lo, pub_hi) + draw(st.integers(0, 60 - pub_width if wide else 5))
    grid = [(k, i) for k in range(cite_lo, cite_hi + 1) for i in range(pub_lo, pub_hi + 1)]
    most = 200 if wide else 40

    def cell_map():
        density = draw(st.integers(0, min(256, 256 * most // len(grid))))
        drawn = draw(st.binary(min_size=len(grid), max_size=len(grid)))
        return {cell: byte % 10 for byte, cell in sorted(zip(drawn, grid)) if byte < density}

    ledger = PublicationLedger(dict.fromkeys(range(pub_lo, pub_hi + 1), 1))
    matrix = PubCitMatrix((pub_lo, pub_hi), (cite_lo, cite_hi), ledger, cell_map())
    return matrix, AugmentedMatrix(SYNCHRONOUS, cell_map(), matrix), AugmentedMatrix(DIACHRONOUS, cell_map(), matrix)


@given(summed_maps(), st.data())
def test_every_window_sums_as_its_cells_read_one_by_one(maps, data):
    """Over the citations and both unique-new maps, every row and column
    window, ascending, descending, empty, of one cell or the whole line,
    equals the cell-by-cell total."""
    matrix, sync, diach = maps
    for source, values in ((matrix, matrix.citations), (sync, sync.unique_new), (diach, diach.unique_new)):
        for axis, (line_lo, line_hi), (lo, hi) in (
            (ROW, matrix.cite_years, matrix.pub_years),
            (COLUMN, matrix.pub_years, matrix.cite_years),
        ):
            a, b = sorted((data.draw(st.integers(lo, hi)), data.draw(st.integers(lo, hi))))
            runs = (range(a, b + 1), range(b, a - 1, -1), range(a, a), range(b, b + 1))
            for line in range(line_lo, line_hi + 1):
                for years in (*runs, range(lo, hi + 1), range(hi, lo - 1, -1)):
                    window = Window(axis, line, years)
                    assert source.window_sum(window) == sum(values.get(cell, 0) for cell in window)


def windows_along(rng, axis, line_span, span):
    """Up to a dozen windows along ``axis``: each line from one year before
    the line span to one after it, so lines with no stored cell come up, and
    each window's years a run, ascending or descending and possibly empty,
    from one year before the span to one after it."""
    (line_lo, line_hi), (lo, hi) = line_span, span
    windows = []
    for _ in range(rng.randint(0, 12)):
        line = rng.randint(line_lo - 1, line_hi + 1)
        first, last = sorted((rng.randint(lo - 1, hi + 1), rng.randint(lo - 1, hi + 1)))
        if rng.random() < 0.5:
            windows.append(Window(axis, line, range(first, last + rng.randint(0, 1))))
        else:
            windows.append(Window(axis, line, range(last, first - rng.randint(0, 1), -1)))
    return windows


@given(summed_maps(), st.integers(0, 2**32 - 1))
def test_a_list_of_windows_sums_as_each_window_read_one_by_one(maps, seed):
    """The running totals of each map sum a whole list of windows on one
    axis in one call, the empty list included: each entry equals that
    window's cells read one by one."""
    matrix, sync, diach = maps
    rng = random.Random(seed)
    for source, values in ((matrix, matrix.citations), (sync, sync.unique_new), (diach, diach.unique_new)):
        for axis, line_span, span in (
            (ROW, matrix.cite_years, matrix.pub_years),
            (COLUMN, matrix.pub_years, matrix.cite_years),
        ):
            windows = windows_along(rng, axis, line_span, span)
            expected = [sum(values.get(cell, 0) for cell in window) for window in windows]
            assert source._totals.sums(axis, windows) == expected
            assert source._totals.sums(axis, []) == []


def test_an_unclipped_column_over_a_span_longer_than_sys_maxsize():
    """A window cut by nothing is told from one the span cuts by its ends,
    never by its length, which may not fit in a C integer."""
    ledger = PublicationLedger({2004: 1})
    matrix = matrix_from_counts({(2004, 2004): 3, (10**30, 2004): 2}, ledger, (2004, 2004), (2004, 10**30))
    whole = diach_if(matrix, 2004, 10**30 - 2003, shift=0, clip=False)
    assert (whole.numerator, whole.denominator) == (5, 1)
    assert (whole.effective_window[0], whole.effective_window[-1]) == ((2004, 2004), (10**30, 2004))
    with pytest.raises(UndefinedMetricError) as err:
        diach_if(matrix, 2004, 10**30 - 2002, shift=0, clip=False)
    assert err.value.missing_years == (10**30 + 1,)
    assert str(err.value) == f"citation years {10**30 + 1} are outside 2004-{10**30} and clipping is off"

# The stored cells of the line-index examples, as (line, year along the
# line). Lines 2002, 2004 and 2005 hold cells; 2000 and 2008, the ends of
# the line span, and 2003, between two stored lines, hold none.
LINE_CELLS = {
    (2002, 2001): 1,
    (2002, 2004): 2,
    (2002, 2005): 4,
    (2004, 2000): 8,
    (2004, 2003): 16,
    (2004, 2006): 32,
    (2005, 2002): 64,
}


def line_matrix(axis, stored):
    """A matrix whose lines along ``axis`` run 2000-2008 and whose years
    along each line run 2000-2006, holding ``stored`` (line, year) counts."""
    cells = {(line, year) if axis == ROW else (year, line): n for (line, year), n in stored.items()}
    lines, years = (2000, 2008), (2000, 2006)
    pub_years, cite_years = (years, lines) if axis == ROW else (lines, years)
    ledger = PublicationLedger(dict.fromkeys(year_range(pub_years), 1))
    return PubCitMatrix(pub_years, cite_years, ledger, cells)


@pytest.mark.parametrize("axis", [ROW, COLUMN])
@pytest.mark.parametrize(
    "line, first, last, total",
    [
        (2000, 2000, 2006, 0),  # no stored cell, at the start of the line span
        (2008, 2000, 2006, 0),  # no stored cell, at the end of the line span
        (2003, 2000, 2006, 0),  # no stored cell, between two stored lines
        (2002, 2002, 2003, 0),  # between the stored years 2001 and 2004
        (2002, 2000, 2000, 0),  # before the line's first stored year
        (2002, 2006, 2006, 0),  # past its last, the next line's cells follow
        (2002, 2001, 2001, 1),  # on the line's first stored year
        (2002, 2001, 2003, 1),  # starts on its first stored year
        (2002, 2005, 2005, 4),  # on its last stored year
        (2002, 2003, 2005, 6),  # ends on its last stored year
        (2002, 2004, 2006, 6),  # runs past its last stored year
        (2002, 2001, 2005, 7),  # from its first to its last stored year
        (2004, 2000, 2000, 8),  # on its first stored year, after a stored line
        (2004, 2000, 2002, 8),
        (2004, 2006, 2006, 32),  # on its last stored year, before a stored line
        (2004, 2004, 2006, 32),
        (2004, 2001, 2005, 16),
        (2004, 2000, 2006, 56),
        (2005, 2002, 2002, 64),  # the one stored cell of the last stored line
        (2005, 2000, 2006, 64),
    ],
)
def test_a_window_sums_only_the_stored_cells_of_its_line(axis, line, first, last, total):
    """Each window, both ways round, over the stored cells and over an
    empty map."""
    for stored, want in ((LINE_CELLS, total), ({}, 0)):
        matrix = line_matrix(axis, stored)
        for years in (range(first, last + 1), range(last, first - 1, -1)):
            window = Window(axis, line, years)
            assert matrix.window_sum(window) == sum(matrix.citations.get(cell, 0) for cell in window) == want


def test_after_the_first_sum_on_an_axis_no_window_reads_the_map(mjm):
    """The running totals of an axis are built from the map once, in one
    pass over its keys that reads each entry at most once; every later
    window on that axis, of any line, length or direction, reads none of
    the map's entries."""

    class Counting(Mapping):
        def __init__(self, cells):
            self.cells, self.reads, self.scans, self.got = cells, 0, 0, Counter()

        def __getitem__(self, cell):
            self.reads += 1
            self.got[cell] += 1
            return self.cells[cell]

        def __iter__(self):
            self.reads += 1
            self.scans += 1
            return iter(self.cells)

        def __len__(self):
            self.reads += 1
            return len(self.cells)

    base = mjm.matrix
    matrix = PubCitMatrix(base.pub_years, base.cite_years, base.publications, Counting(dict(base.citations)))
    sync = AugmentedMatrix(SYNCHRONOUS, Counting(dict(mjm.sync.unique_new)), matrix)
    diach = AugmentedMatrix(DIACHRONOUS, Counting(dict(mjm.diach.unique_new)), matrix)
    for source, counting in ((matrix, matrix.citations), (sync, sync.unique_new), (diach, diach.unique_new)):
        plain = counting.cells
        for axis, lines, (lo, hi) in (
            (ROW, matrix.cite_years, matrix.pub_years),
            (COLUMN, matrix.pub_years, matrix.cite_years),
        ):
            counting.scans, counting.got = 0, Counter()
            source.window_sum(Window(axis, lines[0], range(lo, lo + 1)))
            assert counting.reads > 0 and counting.scans == 1
            assert set(counting.got.values()) <= {1}
            counting.reads = 0
            for line in range(lines[0], lines[1] + 1):
                for first in range(lo, hi + 1):
                    for last in range(lo, hi + 1):
                        step = 1 if first <= last else -1
                        window = Window(axis, line, range(first, last + step, step))
                        assert source.window_sum(window) == sum(plain.get(cell, 0) for cell in window)
            assert counting.reads == 0


class TestYearRuns:
    def test_runs_equal_the_list_and_tuple_they_stand_for(self):
        runs = YearRuns(range(2012, 2009, -1), range(2003, 2001, -1))
        years = [2012, 2011, 2010, 2003, 2002]
        assert runs == years and runs == tuple(years) and years == runs
        assert hash(runs) == hash(tuple(years))
        assert len(runs) == 5 and list(runs) == years
        assert [runs[j] for j in range(-5, 5)] == years + years
        assert 2011 in runs and 2005 not in runs
        assert runs != years[:-1] and runs != years + [2001] and runs != set(years)
        assert str(runs) == runs_text(years) == "2002–2003, 2010–2012"

    def test_empty_runs_are_dropped(self):
        runs = YearRuns(range(5, 5), range(2006, 2007))
        assert runs.runs == (range(2006, 2007),)
        assert runs == (2006,) and str(runs) == "2006"
        assert not YearRuns(range(0)) and YearRuns() == ()

    def test_runs_text_of_random_runs(self):
        rng = random.Random(65)
        for _ in range(300):
            a = rng.randint(1990, 2010)
            b = a + rng.randint(0, 5)
            c = b + rng.randint(2, 6)
            d = c + rng.randint(0, 5)
            step = rng.choice((1, -1))
            first, second = range(a, b + 1), range(c, d + 1)
            if step < 0:
                first, second = range(d, c - 1, -1), range(b, a - 1, -1)
            runs = YearRuns(first, second)
            assert str(runs) == runs_text(list(runs))
