"""Publication-citation matrices and their unique-new-journal augmentations.

The data model every command reads: the publication ledger
(:class:`PublicationLedger`), the limit on any count (``MAX_COUNT``), the
matrix and its two augmentations. Events (``citemetrics.ingest``) appear
here only in annotations, so loading a matrix never loads the CSV side.

A matrix cell (k, i) counts citations made in year k to articles published in
year i. The two augmentations annotate each cell with how many *journals*
appear there for the first time, under two different reading orders:

* synchronous: within each citation-year row, scanning from the most recent
  publication year backwards, so a journal is counted at the newest
  publication year it cites that year;
* diachronous: within each publication-year column, scanning forward in
  citation time, so a journal is counted at the earliest year it cites that
  column.

Cells above the diagonal (citation year before publication year) are never
scanned; any unique-new count there stays zero even if citations exist.

Both cell maps are sparse: a cell that is not stored holds zero, so memory
and the scans grow with the non-zero cells, not with the grid.

Each map sums its windows from running totals along its lines, built the
first time a window on that axis is summed and kept with the matrix that
holds the map. So a cell map must not change after its first window sum.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat, zip_longest
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from .ingest import CitationEvent, JournalId

# The largest publication or citation count a fixture may hold. A rendering
# at the highest precision then stays far inside Python's limit on the
# digits of an int-to-str conversion.
MAX_COUNT = 10**18

SYNCHRONOUS = "synchronous"
DIACHRONOUS = "diachronous"

ROW = "row"
COLUMN = "column"

YearSpan = tuple[int, int]
Cell = tuple[int, int]  # (citation year, publication year)


def year_range(span: YearSpan) -> range:
    """Iterate an inclusive (first, last) year span."""
    return range(span[0], span[1] + 1)


def _same_items(a: Iterable, b: Iterable) -> bool:
    """Whether two iterables yield equal items, compared one by one and
    stopped at the first difference: a window may hold more years than any
    list could."""
    end = object()
    return all(x == y for x, y in zip_longest(a, b, fillvalue=end))


class Window:
    """A run of cells along one line of the grid, held by its ends.

    A ``ROW`` window is citation year ``line`` read at the publication years
    ``years``; a ``COLUMN`` window is publication year ``line`` read at the
    citation years ``years``. ``years`` is a run of consecutive years in
    reading order, a range of step 1 or -1, so the window costs the same
    whatever its length: its cells are made only as they are read. It
    compares and hashes equal to the tuple of its cells, and it is
    immutable: assigning or deleting an attribute raises, as on a frozen
    dataclass, so a window a loaded fixture's report holds stays as built.
    """

    __slots__ = ("axis", "line", "years")

    def __init__(self, axis: str, line: int, years: range):
        if axis not in (ROW, COLUMN):
            raise ValueError(f"unknown window axis {axis!r}")
        if years.step not in (1, -1):
            raise ValueError(f"window years {years!r} are not a run of consecutive years")
        _set_axis(self, axis)
        _set_line(self, line)
        _set_years(self, years)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a window through its constructor, not by
        # setting its slots.
        return Window, (self.axis, self.line, self.years)

    def __len__(self) -> int:
        return len(self.years)

    def __bool__(self) -> bool:
        return bool(self.years)

    def __iter__(self):
        if self.axis == ROW:
            return zip(repeat(self.line), self.years)
        return zip(self.years, repeat(self.line))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Window(self.axis, self.line, self.years[index])
        year = self.years[index]
        return (self.line, year) if self.axis == ROW else (year, self.line)

    def __eq__(self, other):
        if isinstance(other, Window):
            if self.years[1:] or other.years[1:]:
                # Two cells of a row never share a column, nor two of a
                # column a row: a window of two or more cells has one form.
                return (self.axis, self.line, self.years) == (other.axis, other.line, other.years)
            return tuple(self) == tuple(other)
        if isinstance(other, tuple):
            return _same_items(self, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Window({self.axis!r}, {self.line!r}, {self.years!r})"


# The slots' own setters: the only writes a Window or a YearRuns takes.
_set_axis, _set_line, _set_years = (Window.__dict__[name].__set__ for name in Window.__slots__)


class YearRuns:
    """Years held as a few runs of consecutive years, each a range in
    reading order.

    A window's years, or the years it misses, are at most two runs however
    long the window, so they are kept by their ends. The value compares
    equal to the list or tuple of its years and hashes like that tuple.
    ``str()`` is the runs ascending, ``"2002–2003, 2011"``: the runs text of
    the sorted years when no two runs overlap or touch, as for the two runs a
    window misses, one on each side of the span. Empty runs are dropped.
    Like :class:`Window` it is immutable.
    """

    __slots__ = ("runs",)

    def __init__(self, *runs: range):
        _set_runs(self, tuple(filter(None, runs)))

    __setattr__ = Window.__setattr__
    __delattr__ = Window.__delattr__

    def __reduce__(self):
        return YearRuns, self.runs

    def __len__(self) -> int:
        return sum(map(len, self.runs))

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __iter__(self):
        return chain.from_iterable(self.runs)

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += len(self)
        for run in self.runs:
            if 0 <= index < len(run):
                return run[index]
            index -= len(run)
        raise IndexError("year index out of range")

    def __eq__(self, other):
        if not isinstance(other, (list, tuple, YearRuns)):
            return NotImplemented
        return _same_items(self, other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"YearRuns({', '.join(map(repr, self.runs))})"

    def __str__(self) -> str:
        ends = sorted((run[0], run[-1]) if run.step > 0 else (run[-1], run[0]) for run in self.runs)
        return ", ".join(str(lo) if lo == hi else f"{lo}–{hi}" for lo, hi in ends)


_set_runs = YearRuns.__dict__["runs"].__set__


class _LineTotals:
    """Running totals of one cell map along its lines, for window sums.

    The first time a window on an axis is summed, it puts the map's keys in
    line order, ``sorted(cells)`` for rows and that list stable-sorted by
    publication year for columns. In that order it keeps the running totals
    of their counts and each key's year along its line, with each line's
    ``(start, end)`` slice of both. A window is then one lookup of its line,
    two bisections inside that line's slice and one subtraction; a line with
    no stored cell sums to 0. Memory grows with the stored cells, not with
    the spans.
    """

    __slots__ = ("cells", "axes")

    def __init__(self, cells: Mapping[Cell, int]):
        self.cells = cells
        self.axes: dict[str, tuple[dict[int, tuple[int, int]], list[int], list[int]]] = {}

    def sums(self, axis: str, windows: Iterable[Window]) -> list[int]:
        """The counts over each of ``windows``, all along ``axis``, with the
        axis's index read once: an empty window, or one on a line with no
        stored cell, sums to 0."""
        index = self.axes.get(axis)
        if index is None:
            index = self.axes[axis] = self._index(axis)
        bounds, along, totals = index
        line_bounds = bounds.get
        out = []
        for window in windows:
            bound = line_bounds(window.line)
            if bound is None:
                out.append(0)
                continue
            start, end = bound
            years = window.years
            # The keys of the line from the window's first year to its
            # last, read from the ends of its range.
            if years.step > 0:
                lo = bisect_left(along, years.start, start, end)
                hi = bisect_left(along, years.stop, lo, end)
            else:
                lo = bisect_right(along, years.stop, start, end)
                hi = bisect_right(along, years.start, lo, end)
            out.append(totals[hi] - totals[lo])
        return out

    def _index(self, axis: str) -> tuple[dict[int, tuple[int, int]], list[int], list[int]]:
        """Each line's ``(start, end)`` slice, each key's year along its
        line and the running totals, over the keys in ``axis`` line order."""
        keys = sorted(self.cells)
        line_of, year_of = itemgetter(0), itemgetter(1)
        if axis == COLUMN:
            line_of, year_of = year_of, line_of
            keys.sort(key=line_of)
        # Every single-shot command builds this, so a line's end is found by
        # bisection: stepping through each line's keys costs twice as much.
        lines = list(map(line_of, keys))
        bounds, start = {}, 0
        while start < len(lines):
            line = lines[start]
            end = bisect_right(lines, line, start)
            bounds[line], start = (start, end), end
        return bounds, list(map(year_of, keys)), list(accumulate(map(self.cells.__getitem__, keys), initial=0))


@dataclass(frozen=True)
class PublicationLedger:
    """Article counts per publication year over a contiguous year window."""

    counts: Mapping[int, int]

    def __post_init__(self):
        years = sorted(self.counts)
        if years and years != list(range(years[0], years[-1] + 1)):
            raise ValueError("publication years must form a contiguous window")
        for year, n in self.counts.items():
            if n < 0:
                raise ValueError(f"negative publication count for {year}")

    @property
    def years(self) -> tuple[int, int] | None:
        """Inclusive (first, last) publication years, or None when empty."""
        if not self.counts:
            return None
        return (min(self.counts), max(self.counts))

    def total(self, years: Iterable[int]) -> int:
        """Articles published over ``years``, each of which must be in the
        ledger (KeyError otherwise). A range of consecutive ledger years is
        read from a cumulative list built on first use, so it costs two
        reads however long the window."""
        if isinstance(years, range) and years and years.step in (1, -1):
            first, cumulative = self._cumulative
            if first <= min(years[0], years[-1]) and max(years[0], years[-1]) < first + len(cumulative) - 1:
                return self._totals((years,))[0]
        return sum(map(self.counts.__getitem__, years))

    def _totals(self, runs: Iterable[range]) -> list[int]:
        """Articles published over each of ``runs``, non-empty ranges of
        consecutive years in either direction: two reads a run from the
        cumulative list. Every run must lie inside the ledger; past it, a sum is wrong."""
        first, cumulative = self._cumulative
        out = []
        for run in runs:
            if run.step > 0:
                out.append(cumulative[run.stop - first] - cumulative[run.start - first])
            else:
                out.append(cumulative[run.start + 1 - first] - cumulative[run.stop + 1 - first])
        return out

    @cached_property
    def _cumulative(self) -> tuple[int, list[int]]:
        """The first year and the running totals: entry j sums the j years
        from the first."""
        first, last = self.years or (0, -1)
        return first, list(accumulate(map(self.counts.__getitem__, range(first, last + 1)), initial=0))


@dataclass(frozen=True)
class PubCitMatrix:
    """Citation counts on a (citation year, publication year) grid.

    ``citations`` holds the non-zero cells of the grid only; every other
    cell of the grid reads 0. It must not change after the first
    :meth:`window_sum`.
    """

    pub_years: YearSpan
    cite_years: YearSpan
    publications: PublicationLedger
    citations: Mapping[Cell, int]

    def _check_cell(self, citation_year: int, pub_year: int) -> Cell:
        (cite_lo, cite_hi), (pub_lo, pub_hi) = self.cite_years, self.pub_years
        if not (cite_lo <= citation_year <= cite_hi and pub_lo <= pub_year <= pub_hi):
            raise ValueError(
                f"cell ({citation_year}, {pub_year}) is outside the matrix "
                f"(citation years {self.cite_years}, publication years {self.pub_years})"
            )
        return (citation_year, pub_year)

    def cit(self, citation_year: int, pub_year: int) -> int:
        return self.citations.get(self._check_cell(citation_year, pub_year), 0)

    def window_sum(self, window: Window) -> int:
        """Sum the citations over a :class:`Window`.

        Checking the window's two end cells against the spans bounds every
        cell between them: a window reaching off the grid raises ValueError,
        like a single-cell read. The sum is read from the running totals of
        the citations along the window's axis, so it costs a lookup of its
        line and two bisections among that line's stored cells however long
        the window, and the window is never listed.
        """
        return self._sum(window, self._totals)

    @cached_property
    def _totals(self) -> _LineTotals:
        return _LineTotals(self.citations)

    def _sum(self, window: Window, totals: _LineTotals) -> int:
        """Sum one cell map of this grid, through its ``totals``, over a
        window checked against the spans."""
        line, years = window.line, window.years
        if not years:
            return 0
        if window.axis == ROW:
            (line_lo, line_hi), (lo, hi) = self.cite_years, self.pub_years
        else:
            (line_lo, line_hi), (lo, hi) = self.pub_years, self.cite_years
        if not (line_lo <= line <= line_hi and lo <= years[0] <= hi and lo <= years[-1] <= hi):
            self._check_cell(*window[0])  # one of the two raises, naming its cell
            self._check_cell(*window[-1])
        return totals.sums(window.axis, (window,))[0]

    def pub(self, year: int) -> int:
        lo, hi = self.pub_years
        if not lo <= year <= hi:
            raise ValueError(f"{year} is outside the publication years {self.pub_years}")
        return self.publications.counts[year]


@dataclass(frozen=True)
class AugmentedMatrix:
    """A matrix plus per-cell first-appearance journal counts for one variant.

    ``unique_new`` holds the non-zero counts only, like ``base.citations``,
    and must not change after the first :meth:`window_sum`.
    """

    variant: str
    unique_new: Mapping[Cell, int]
    base: PubCitMatrix

    def __post_init__(self):
        if self.variant not in (SYNCHRONOUS, DIACHRONOUS):
            raise ValueError(f"unknown augmentation variant {self.variant!r}")

    def unique(self, citation_year: int, pub_year: int) -> int:
        return self.unique_new.get(self.base._check_cell(citation_year, pub_year), 0)

    def window_sum(self, window: Window) -> int:
        """Sum the unique-new counts over a :class:`Window`, checked against
        the spans as :meth:`PubCitMatrix.window_sum` checks it."""
        return self.base._sum(window, self._totals)

    @cached_property
    def _totals(self) -> _LineTotals:
        return _LineTotals(self.unique_new)


def _check_span(span: YearSpan, what: str) -> YearSpan:
    lo, hi = span
    if lo > hi:
        raise ValueError(f"{what} span {span} is empty")
    return (lo, hi)


def build_pc_matrix(
    events: Iterable[CitationEvent],
    ledger: PublicationLedger,
    pub_years: YearSpan,
    cite_years: YearSpan,
) -> PubCitMatrix:
    """Tally events onto the grid.

    Events whose years fall outside the grid are not an error; they are
    dropped, so ``len(events) - sum(matrix.citations.values())`` counts them.
    The ledger must supply a count for every publication year of the grid.
    """
    counts = Counter((event.citing_year, event.cited_pub_year) for event in events)
    return matrix_from_counts(counts, ledger, pub_years, cite_years)


def matrix_from_counts(
    counts: Mapping[Cell, int],
    ledger: PublicationLedger,
    pub_years: YearSpan,
    cite_years: YearSpan,
) -> PubCitMatrix:
    """Lay per-cell event counts onto the grid, as :func:`build_pc_matrix`
    does with the events themselves."""
    pub_years = _check_span(pub_years, "publication year")
    cite_years = _check_span(cite_years, "citation year")
    for year in year_range(pub_years):
        if year not in ledger.counts:
            raise ValueError(f"publication ledger has no count for {year}")
    (pub_lo, pub_hi), (cite_lo, cite_hi) = pub_years, cite_years
    cells = {(k, i): n for (k, i), n in counts.items() if n and cite_lo <= k <= cite_hi and pub_lo <= i <= pub_hi}
    return PubCitMatrix(pub_years, cite_years, ledger, cells)


def _journals_per_cell(
    matrix: PubCitMatrix, events: Iterable[CitationEvent]
) -> dict[Cell, set[JournalId]]:
    """Group in-grid events by cell, verifying they recount the matrix."""
    (pub_lo, pub_hi), (cite_lo, cite_hi) = matrix.pub_years, matrix.cite_years
    counts: Counter[Cell] = Counter()
    journals: defaultdict[Cell, set[JournalId]] = defaultdict(set)
    for event in events:
        cell = (event.citing_year, event.cited_pub_year)
        if cite_lo <= cell[0] <= cite_hi and pub_lo <= cell[1] <= pub_hi:
            counts[cell] += 1
            journals[cell].add(event.citing_journal)
    if dict(counts) != {cell: n for cell, n in matrix.citations.items() if n}:
        raise ValueError("event set is inconsistent with the matrix cell counts")
    return journals


def augment(matrix: PubCitMatrix, journals: Mapping[Cell, set], variant: str) -> AugmentedMatrix:
    """Count first-appearance journals along each scan line of ``variant``.

    ``journals`` maps a cell to the journals citing there, in any hashable
    form; cells outside the grid are ignored. A synchronous line is one
    citation-year row read from the newest publication year backwards; a
    diachronous line is one publication-year column read forward in time.
    Either way only cells on or below the diagonal are read, and only the
    cells ``journals`` holds: the scan costs the non-zero cells, not the
    grid. Only non-zero counts are stored.
    """
    (pub_lo, pub_hi), (cite_lo, cite_hi) = matrix.pub_years, matrix.cite_years
    scanned = [
        (k, i) for k, i in journals if cite_lo <= k <= cite_hi and pub_lo <= i <= min(k, pub_hi)
    ]
    # Sorting puts each line's cells together in reading order; the order of
    # the lines themselves does not matter.
    if variant == SYNCHRONOUS:
        scanned.sort(reverse=True)
        line_of = itemgetter(0)
    elif variant == DIACHRONOUS:
        scanned.sort(key=itemgetter(1, 0))
        line_of = itemgetter(1)
    else:
        raise ValueError(f"unknown augmentation variant {variant!r}")
    unique = {}
    line = seen = None
    for cell in scanned:
        if line_of(cell) != line:
            line, seen = line_of(cell), set()
        # The journals new here are the growth of ``seen``: no set of them is built.
        before = len(seen)
        seen |= journals[cell]
        new = len(seen) - before
        if new:
            unique[cell] = new
    return AugmentedMatrix(variant, unique, matrix)


def augment_synchronous(matrix: PubCitMatrix, events: Iterable[CitationEvent]) -> AugmentedMatrix:
    """Count each journal once per citation year, at the newest publication
    year it cites within that year."""
    return augment(matrix, _journals_per_cell(matrix, events), SYNCHRONOUS)


def augment_diachronous(matrix: PubCitMatrix, events: Iterable[CitationEvent]) -> AugmentedMatrix:
    """Count each journal once per publication year, at the earliest year it
    cites that publication year."""
    return augment(matrix, _journals_per_cell(matrix, events), DIACHRONOUS)


def distinct_journals_block(
    events: Iterable[CitationEvent], pub_years: YearSpan, cite_years: YearSpan
) -> int:
    """Number of distinct citing journals in a rectangular year block.

    This is the brute-force ground truth the augmentations must agree with:
    summing unique-new counts along a full scan line equals the distinct
    count over the same cells.
    """
    (pub_lo, pub_hi), (cite_lo, cite_hi) = pub_years, cite_years
    return len(
        {
            event.citing_journal
            for event in events
            if pub_lo <= event.cited_pub_year <= pub_hi
            and cite_lo <= event.citing_year <= cite_hi
        }
    )
