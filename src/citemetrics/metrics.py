"""Impact and diffusion indicators over a publication-citation matrix.

Every indicator is a ratio of two cell/ledger sums, so each result is an
exact rational: a :class:`MetricValue` keeps the raw numerator and
denominator (never reduced) plus the cells that were summed. Rounding is the
rendering layer's problem.

Window conventions, shared by the whole family:

* ``window=None`` means "the largest window this matrix supports" for the
  given year, resolved per indicator;
* ``clip=True`` (the default) truncates a window at the matrix boundary and
  computes over what remains; ``clip=False`` insists on every requested year
  and raises :class:`UndefinedMetricError` when one is missing.

Every window's years, and the years an undefined one misses, come from
:func:`_line_windows`, which ``garfield_if`` reads too.

The impact factors look *backwards* from a citation year at the publications
of the preceding years, while the diachronous family looks *forwards* from a
publication year at the citations it accumulates. Diffusion factors divide
first-appearance journal counts by publications (JDF) or by citations (RDF,
"relative"), so an RDF is always in (0, 1] whenever it is defined.

A windowed indicator evaluates a run of years at once,
:meth:`Indicator.column`: its checks, spans and running totals are read
once, the years go through a few passes over lists (their windows, the
sums of each cell map, their values), and each year gets its value or its
refusal, an :class:`UndefinedMetricError` built but not raised. A call for
one year is the column of that year, with the refusal raised.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import UndefinedMetricError
from .matrix import (
    COLUMN,
    DIACHRONOUS,
    ROW,
    SYNCHRONOUS,
    AugmentedMatrix,
    Cell,
    PubCitMatrix,
    Window,
    YearRuns,
    YearSpan,
    distinct_journals_block,
    year_range,
)

if TYPE_CHECKING:
    from .ingest import CitationEvent


@dataclass(frozen=True)
class MetricValue:
    """An exact indicator value: raw sums plus the cells they came from.

    ``effective_window`` is the cells summed: a :class:`Window` held by its
    ends for the row and column indicators, a tuple for ``rowlands_jdf``'s
    block. Either way it iterates, indexes and has a length, and it compares
    and hashes equal to the tuple of its cells.
    """

    numerator: int
    denominator: int
    effective_window: Sequence[Cell]

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class MetricRequest:
    """A single indicator request, as ``evaluate`` and the CLI take it."""

    kind: str
    year: int
    window: int | None = None
    shift: int = 1
    clip: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        _check_window(self.window)
        if self.shift < 0:
            raise ValueError("shift must be non-negative")


def _check_window(window: int | None) -> None:
    if window is not None and window < 1:
        raise ValueError("window must be a positive number of years (or None for max)")


def _outside(year: int, span: YearSpan, what: str) -> UndefinedMetricError:
    """The refusal of a line year outside its span."""
    return UndefinedMetricError(f"{year} is outside the {what} years {span[0]}-{span[1]}", (year,))


def _source_matrix(
    kind: str, variant: str | None, source: PubCitMatrix | AugmentedMatrix | None, matrix: PubCitMatrix | None = None
) -> PubCitMatrix:
    """The matrix ``kind`` reads through ``source``: the citation matrix itself
    if ``variant`` is None, else its ``variant`` augmentation, built from
    ``matrix`` if one is given: that object or, failing that, an equal one.
    Any other source, None included, raises a one-line ValueError."""
    if variant is None and isinstance(source, PubCitMatrix):
        return source
    if variant is not None and isinstance(source, AugmentedMatrix):
        if source.variant != variant:
            raise ValueError(f"this metric needs the {variant} augmentation, got {source.variant}")
        if matrix is not None and source.base is not matrix and source.base != matrix:
            raise ValueError(f"{kind}: the {variant} augmentation was built from another matrix")
        return source.base
    raise ValueError(f"{kind} needs the {'citation' if variant is None else f'{variant} augmented'} matrix")


def _line_windows(
    axis: str, span: YearSpan, lines: Sequence[int], starts: Sequence[int], window: int | None, clip: bool
) -> list[Window | UndefinedMetricError]:
    """The cells each row or column window sums, from the window's ends
    alone, or the refusal of a window that is undefined: one entry for each
    pair of ``lines`` and ``starts``, in their order.

    A ``ROW`` window reads citation year ``line`` from publication year
    ``start`` back ``window`` years; a ``COLUMN`` window reads publication
    year ``line`` from citation year ``start`` forward ``window`` years.
    ``span`` is the matrix's span of the years read: publication years for a
    row, citation years for a column. ``window=None`` runs to the far end of
    the span. With ``clip`` the window is cut to the span, and undefined
    only when nothing is left; without it, every year must lie in the span.
    Each window is held by its ends, so nothing here grows with its length.
    """
    lo, hi = span
    # Each window's years cut to the span, in one pass: empty when none is left.
    if axis == ROW:
        ends = [lo] * len(starts) if window is None else [start - window + 1 for start in starts]
        runs = [range(a if a < hi else hi, (b if b > lo else lo) - 1, -1) for a, b in zip(starts, ends)]
    else:
        ends = [hi] * len(starts) if window is None else [start + window - 1 for start in starts]
        runs = [range(a if a > lo else lo, (b if b < hi else hi) + 1) for a, b in zip(starts, ends)]
    # Unclipped, a window of a set length is defined only if nothing was cut.
    whole = not clip and window is not None
    return [
        Window(axis, line, run)
        if run and not (whole and (run[0] != start or run[-1] != end))
        else _window_refusal(axis, span, start, end, run, window, clip)
        for line, start, end, run in zip(lines, starts, ends, runs)
    ]


def _window_refusal(
    axis: str, span: YearSpan, start: int, end: int, run: range, window: int | None, clip: bool
) -> UndefinedMetricError:
    """The refusal of the undefined window from ``start`` to ``end``, cut to
    the span as ``run``, as :func:`_line_windows` computes them. It misses
    the years before ``run`` and those after it, one run beyond each end."""
    lo, hi = span
    if axis == ROW:
        step, what, side = -1, "publication", "before"
    else:
        step, what, side = 1, "citation", "after"
    if window is None:
        return UndefinedMetricError(f"no {what} years at or {side} {start} in {lo}-{hi}", YearRuns(range(start, start + 1)))
    years = YearRuns(range(start, end + step, step))
    if clip:
        first, last = sorted((start, end))
        return UndefinedMetricError(f"window {first}-{last} has no overlap with {what} years {lo}-{hi}", years)
    missing = YearRuns(range(start, run[0], step), range(run[-1] + step, end + step, step)) if run else years
    return UndefinedMetricError(f"{what} years {missing} are outside {lo}-{hi} and clipping is off", missing)


@dataclass(frozen=True)
class Indicator:
    """A windowed indicator as one choice on each of four axes: the line it
    reads (``ROW``: a citation year, back over publication years; ``COLUMN``:
    a publication year, forward over citation years); the window's start,
    ``offset`` years from the line (``None``: the request's shift); the
    numerator, citations or the unique-new counts of an augmentation
    ``variant``; and the denominator, articles or, if ``relative``, citations.
    Its ``name`` is its kind, and its ``__name__``, as a function's would be.
    """

    name: str
    axis: str
    offset: int | None
    variant: str | None
    relative: bool

    @property
    def __name__(self) -> str:
        return self.name

    def __call__(
        self,
        source: PubCitMatrix | AugmentedMatrix,
        year: int,
        window: int | None,
        *,
        shift: int = 1,
        clip: bool = True,
    ) -> MetricValue:
        """The indicator for ``year``: its :meth:`column` of one year, with
        the refusal raised when the year is undefined."""
        values = self.column(source, (year,), window, shift=shift, clip=clip)
        if isinstance(values[0], UndefinedMetricError):
            # Popped, so this frame, which the traceback keeps, holds no
            # reference back to the refusal: raising it makes no cycle.
            raise values.pop()
        return values[0]

    def column(
        self,
        source: PubCitMatrix | AugmentedMatrix,
        years: Iterable[int],
        window: int | None,
        *,
        shift: int = 1,
        clip: bool = True,
    ) -> list[MetricValue | UndefinedMetricError]:
        """The indicator for each of ``years`` over ``source``: the matrix,
        or the augmented matrix of ``variant``, and no other source. Each
        year's entry is its value, or the :class:`UndefinedMetricError` a
        call for that year raises, built and not raised. ``shift`` is read
        only when ``offset`` is None, as for ``diach_if``.

        The checks, spans and running totals are read once, and the years go
        through a few passes over lists: the lines outside their span, the
        windows, the sums of each map and the values. Only an undefined year
        builds a refusal.
        """
        matrix = _source_matrix(self.name, self.variant, source)
        if self.offset is None and shift < 0:
            raise ValueError("shift must be non-negative")
        _check_window(window)
        axis, relative = self.axis, self.relative
        offset = shift if self.offset is None else self.offset
        if axis == ROW:
            line_span, span, what, step = matrix.cite_years, matrix.pub_years, "citation", -1
        else:
            line_span, span, what, step = matrix.pub_years, matrix.cite_years, "publication", 1
        line_lo, line_hi = line_span
        ledger = matrix.publications
        counts = ledger.counts
        # Along a column the year's articles are the denominator.
        per_article = axis == COLUMN and not relative
        # Each year's refusal if its line is undefined, else None for now.
        column, lines = [], []
        for year in years:
            if not line_lo <= year <= line_hi:
                column.append(_outside(year, line_span, what))
            elif per_article and counts[year] == 0:
                column.append(UndefinedMetricError(f"no articles were published in {year}", (year,)))
            else:
                column.append(None)
                lines.append(year)
        # Then each year's window or refusal, and then each window's value.
        windows = iter(_line_windows(axis, span, lines, [line + step * offset for line in lines], window, clip))
        column = [next(windows) if entry is None else entry for entry in column]
        cells = [entry for entry in column if isinstance(entry, Window)]
        numerators = source._totals.sums(axis, cells)
        if relative:
            denominators = matrix._totals.sums(axis, cells)
        elif axis == ROW:
            denominators = ledger._totals([found.years for found in cells])
        else:
            denominators = [counts[found.line] for found in cells]
        values = iter(
            [
                MetricValue(numerator, denominator, found) if denominator else self._no_denominator(found)
                for numerator, denominator, found in zip(numerators, denominators, cells)
            ]
        )
        return [next(values) if isinstance(entry, Window) else entry for entry in column]

    def _no_denominator(self, cells: Window) -> UndefinedMetricError:
        """The refusal of a window whose denominator sums to 0."""
        line = cells.line
        if not self.relative:
            missing = YearRuns(cells.years)
            return UndefinedMetricError(f"no articles were published in {missing}", missing)
        if self.axis == ROW:
            return UndefinedMetricError(f"no citations were made in {line} within the window", (line,))
        return UndefinedMetricError(f"articles published in {line} received no citations in the window", (line,))


INDICATORS = {
    indicator.name: indicator
    for indicator in (
        # Synchronous impact factor: one citation year's citations to the
        # previous ``window`` years, per article published in those years.
        Indicator("sync_if", ROW, 1, None, relative=False),
        # Diachronous impact factor: citations to ``year``'s articles over
        # ``window`` citation years from ``year + shift``, per article.
        Indicator("diach_if", COLUMN, None, None, relative=False),
        # Synchronous journal diffusion factor: first-appearance journals in
        # one citation year's row (window includes the in-year cell) per article.
        Indicator("sync_jdf", ROW, 0, SYNCHRONOUS, relative=False),
        # Diachronous journal diffusion factor: journals newly citing
        # ``year``'s articles (earliest appearance per journal) per article.
        Indicator("diach_jdf", COLUMN, 0, DIACHRONOUS, relative=False),
        # Relative synchronous diffusion: the sync_jdf numerator per citation.
        Indicator("sync_rdf", ROW, 0, SYNCHRONOUS, relative=True),
        # Relative diachronous diffusion: the diach_jdf numerator per citation.
        Indicator("diach_rdf", COLUMN, 0, DIACHRONOUS, relative=True),
    )
}
# Each public indicator name is its table row: sync_if(matrix, 2009, 3).
sync_if, diach_if, sync_jdf, diach_jdf, sync_rdf, diach_rdf = INDICATORS.values()
# The kinds a MetricRequest can name, which are the CLI's --kind choices.
REQUEST_KINDS = ("garfield_if", *INDICATORS)
KINDS = (*REQUEST_KINDS, "rowlands_jdf")


def garfield_if(matrix: PubCitMatrix, year: int) -> MetricValue:
    """Classic two-year impact factor: citations in ``year`` to the two prior
    years' articles, divided by those years' article counts: the unclipped
    two-year ``sync_if`` window, refused where it is, in its own words."""
    matrix = _source_matrix("garfield_if", None, matrix)
    (cite_lo, cite_hi), (pub_lo, pub_hi) = matrix.cite_years, matrix.pub_years
    if not cite_lo <= year <= cite_hi:
        raise _outside(year, matrix.cite_years, "citation")
    (cells,) = _line_windows(ROW, matrix.pub_years, (year,), (year - 1,), 2, False)
    if isinstance(cells, UndefinedMetricError):
        missing = cells.missing_years
        raise UndefinedMetricError(
            f"impact factor for {year} needs publications in {year - 2} and {year - 1}; "
            f"{missing} outside {pub_lo}-{pub_hi}",
            missing,
        )
    denominator = matrix.publications.total(cells.years)
    if denominator == 0:
        raise UndefinedMetricError(f"no articles were published in {year - 2}-{year - 1}", tuple(cells.years))
    return MetricValue(matrix.window_sum(cells), denominator, cells)


def rowlands_jdf(
    events: Iterable[CitationEvent],
    matrix: PubCitMatrix,
    pub_window: YearSpan,
    cite_window: YearSpan,
) -> MetricValue:
    """Distinct citing journals per 100 citations over a rectangular block.

    Unlike the scan-based diffusion factors this one needs the events
    themselves: a journal citing in two different years of the block must
    still count once. The caller is trusted to pass the same event set the
    matrix was built from; cell counts are read from the matrix. Windows are
    clipped to the matrix spans.
    """
    matrix = _source_matrix("rowlands_jdf", None, matrix)
    pub_clipped = (max(pub_window[0], matrix.pub_years[0]), min(pub_window[1], matrix.pub_years[1]))
    cite_clipped = (
        max(cite_window[0], matrix.cite_years[0]),
        min(cite_window[1], matrix.cite_years[1]),
    )
    if pub_clipped[0] > pub_clipped[1] or cite_clipped[0] > cite_clipped[1]:
        raise UndefinedMetricError("the requested block has no overlap with the matrix year spans")
    cells = tuple((k, i) for k in year_range(cite_clipped) for i in year_range(pub_clipped))
    rows = (Window(ROW, k, year_range(pub_clipped)) for k in year_range(cite_clipped))
    denominator = sum(map(matrix.window_sum, rows))
    if denominator == 0:
        raise UndefinedMetricError("no citations fall inside the block")
    numerator = 100 * distinct_journals_block(events, pub_clipped, cite_clipped)
    return MetricValue(numerator, denominator, cells)


def evaluate(
    request: MetricRequest, matrix: PubCitMatrix, sync: AugmentedMatrix | None = None, diach: AugmentedMatrix | None = None
) -> MetricValue:
    """Evaluate a request: ``garfield_if`` over ``matrix``, or the request's
    :data:`INDICATORS` row over the one of the three matrices it reads.
    ``rowlands_jdf`` works on raw events, so it has no request form here."""
    if request.kind == "garfield_if":
        return garfield_if(matrix, request.year)
    indicator = INDICATORS.get(request.kind)
    if indicator is None:
        raise ValueError("rowlands_jdf works on citation events; call rowlands_jdf() directly")
    source = {None: matrix, SYNCHRONOUS: sync, DIACHRONOUS: diach}[indicator.variant]
    _source_matrix(indicator.name, indicator.variant, source, matrix)
    return indicator(source, request.year, request.window, shift=request.shift, clip=request.clip)
