"""The seven-column indicator report.

One row per year over the union of publication and citation years. The
column set is fixed:

====================  =====================================================
garfield_if           two-prior-year impact factor, strict
sync_if2              synchronous impact factor, window 2, no clipping
diach_if2s1           diachronous impact factor, window 2, shift 1, clipped
sync_rdf_max          relative synchronous diffusion, largest window
diach_rdf_max         relative diachronous diffusion, largest window
sync_jdf_max          synchronous journal diffusion, largest window
diach_jdf_max         diachronous journal diffusion, largest window
====================  =====================================================

Cells round half-up at two decimals, except sync_jdf_max at three (its
values sit an order of magnitude lower). Undefined cells render as ``x`` in
the csv and table text and as ``null`` in the structured JSON.

Each column is one :meth:`~citemetrics.metrics.Indicator.column` over the
report's years. garfield_if is sync_if over the two prior years without
clipping, the same request as sync_if2, so the seven columns take six
column calls. The text is rendered a column at a time, each column's scale
computed once, with the rounding of :func:`format_ratio`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import make_dataclass
from operator import attrgetter

from .errors import UndefinedMetricError
from .matrix import DIACHRONOUS, SYNCHRONOUS, AugmentedMatrix, PubCitMatrix, year_range
from .metrics import INDICATORS, MetricValue, _source_matrix

UNDEFINED = "x"

# (name, request as (kind, window, shift, clip), decimal places). garfield_if
# reads the cells and articles of sync_if at window 2 without clipping, so it
# is that request: the same value, or a refusal where garfield_if refuses.
_COLUMNS = (
    ("garfield_if", ("sync_if", 2, 1, False), 2),
    ("sync_if2", ("sync_if", 2, 1, False), 2),
    ("diach_if2s1", ("diach_if", 2, 1, True), 2),
    ("sync_rdf_max", ("sync_rdf", None, 1, True), 2),
    ("diach_rdf_max", ("diach_rdf", None, 1, True), 2),
    ("sync_jdf_max", ("sync_jdf", None, 1, True), 3),
    ("diach_jdf_max", ("diach_jdf", None, 1, True), 2),
)
COLUMN_NAMES = ("year",) + tuple(name for name, _, _ in _COLUMNS)
_STRUCTURED_HEAD = f'{{"columns": {json.dumps(list(COLUMN_NAMES))}, "rows": ['

ReportRow = make_dataclass(
    "ReportRow",
    [("year", int)] + [(name, "MetricValue | None") for name in COLUMN_NAMES[1:]],
    frozen=True,
    namespace={"__module__": __name__, "__doc__": "A report year and its cells, None where undefined."},
)


def format_ratio(numerator: int, denominator: int, precision: int) -> str:
    """Decimal rendering of a non-negative ratio, half-up at ``precision``.

    Done in integer arithmetic so the tie direction never depends on binary
    floating point: 0.625 at two decimals is 0.63, always.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if numerator < 0:
        raise ValueError("numerator must be non-negative")
    if precision < 0:
        raise ValueError("precision must be non-negative")
    return _texts((MetricValue(numerator, denominator, ()),), precision)[0]


def _texts(values: Iterable[MetricValue | None], precision: int) -> list[str]:
    """Each value rendered as :func:`format_ratio` renders it, or ``x`` for
    None, with the scale of ``precision`` computed once."""
    scale = 2 * 10**precision
    texts = []
    for value in values:
        if value is None:
            texts.append(UNDEFINED)
            continue
        denominator = value.denominator
        digits = str((scale * value.numerator + denominator) // (2 * denominator))
        if precision:
            digits = digits.rjust(precision + 1, "0")
            digits = f"{digits[:-precision]}.{digits[-precision:]}"
        texts.append(digits)
    return texts


def build_report(
    matrix: PubCitMatrix, sync: AugmentedMatrix, diach: AugmentedMatrix
) -> list[ReportRow]:
    """Compute every cell of the report, a column per distinct request;
    undefined cells become None. Each source, in column order, and then each
    augmentation's matrix is checked before the spans are read: a wrong one
    raises a one-line ValueError."""
    sources = {None: matrix, SYNCHRONOUS: sync, DIACHRONOUS: diach}
    requests = {request: INDICATORS[request[0]] for _, request, _ in _COLUMNS}
    for base in (None, matrix):
        for indicator in requests.values():
            _source_matrix(indicator.name, indicator.variant, sources[indicator.variant], base)
    years = sorted(set(year_range(matrix.pub_years)) | set(year_range(matrix.cite_years)))
    columns = {}
    for request, indicator in requests.items():
        _, window, shift, clip = request
        values = indicator.column(sources[indicator.variant], years, window, shift=shift, clip=clip)
        columns[request] = [None if isinstance(value, UndefinedMetricError) else value for value in values]
    return [ReportRow(*cells) for cells in zip(years, *(columns[request] for _, request, _ in _COLUMNS))]


def _columns(rows: Sequence[ReportRow]) -> list[list[str]]:
    """The text of each report column, a column at a time: the years, then
    each indicator column at its precision."""
    return [[str(row.year) for row in rows]] + [
        _texts(map(attrgetter(name), rows), precision) for name, _, precision in _COLUMNS
    ]


def render_csv(rows: Sequence[ReportRow]) -> str:
    """CSV text: header row, LF line endings, one trailing newline."""
    lines = [",".join(COLUMN_NAMES)]
    lines.extend(map(",".join, zip(*_columns(rows))))
    return "\n".join(lines) + "\n"


def render_table(rows: Sequence[ReportRow]) -> str:
    """Monospace-aligned table for terminals."""
    columns = _columns(rows)
    widths = [max(map(len, [name, *column])) for name, column in zip(COLUMN_NAMES, columns)]
    out = ["  ".join(map(str.rjust, COLUMN_NAMES, widths)), "  ".join("-" * width for width in widths)]
    out.extend("  ".join(map(str.rjust, line, widths)) for line in zip(*columns))
    return "\n".join(out)


def render_structured(rows: Sequence[ReportRow]) -> str:
    """The JSON text of the report, keeping each value's exact fraction next
    to its rendering: one object, no trailing newline, written as
    ``json.dumps`` writes ``{"columns": [...], "rows": [...]}``. Each row
    maps ``year`` to its year and each column to ``null`` where undefined,
    else to ``{"value": text, "numerator": n, "denominator": d}``. Written a
    column at a time from the texts of :func:`_columns`, one f-string a
    cell; ``json.loads`` gives the dict back."""
    years, *columns = _columns(rows)
    cells = [[f'{{"year": {year}' for year in years]]
    for (name, _, _), texts in zip(_COLUMNS, columns):
        cells.append([
            f'"{name}": null'
            if value is None
            else f'"{name}": {{"value": "{text}", "numerator": {value.numerator}, "denominator": {value.denominator}}}'
            for value, text in zip(map(attrgetter(name), rows), texts)
        ])
    return _STRUCTURED_HEAD + ", ".join([f'{", ".join(line)}}}' for line in zip(*cells)]) + "]}"
