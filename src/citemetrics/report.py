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
every output format.

Each column is one :meth:`~citemetrics.metrics.Indicator.column` over the
report's years. garfield_if is sync_if over the two prior years without
clipping, the same request as sync_if2, so the seven columns take six
column calls.
"""

from __future__ import annotations

from dataclasses import make_dataclass

from .errors import UndefinedMetricError
from .matrix import DIACHRONOUS, SYNCHRONOUS, AugmentedMatrix, PubCitMatrix, year_range
from .metrics import INDICATORS, MetricValue

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
    scaled = (2 * numerator * 10**precision + denominator) // (2 * denominator)
    if precision == 0:
        return str(scaled)
    digits = str(scaled).rjust(precision + 1, "0")
    return f"{digits[:-precision]}.{digits[-precision:]}"


def build_report(
    matrix: PubCitMatrix, sync: AugmentedMatrix, diach: AugmentedMatrix
) -> list[ReportRow]:
    """Compute every cell of the report, a column per distinct request;
    undefined cells become None."""
    years = sorted(set(year_range(matrix.pub_years)) | set(year_range(matrix.cite_years)))
    sources = {None: matrix, SYNCHRONOUS: sync, DIACHRONOUS: diach}
    columns = {}
    for request in dict.fromkeys(request for _, request, _ in _COLUMNS):
        kind, window, shift, clip = request
        indicator = INDICATORS[kind]
        values = indicator.column(sources[indicator.variant], years, window, shift=shift, clip=clip)
        columns[request] = [None if isinstance(value, UndefinedMetricError) else value for value in values]
    return [ReportRow(*cells) for cells in zip(years, *(columns[request] for _, request, _ in _COLUMNS))]


def _cell_text(value: MetricValue | None, precision: int) -> str:
    if value is None:
        return UNDEFINED
    return format_ratio(value.numerator, value.denominator, precision)


def _row_texts(row: ReportRow) -> list[str]:
    return [str(row.year)] + [
        _cell_text(getattr(row, name), precision) for name, _, precision in _COLUMNS
    ]


def render_csv(rows: list[ReportRow]) -> str:
    """CSV text: header row, LF line endings, one trailing newline."""
    lines = [",".join(COLUMN_NAMES)]
    lines.extend(",".join(_row_texts(row)) for row in rows)
    return "\n".join(lines) + "\n"


def render_table(rows: list[ReportRow]) -> str:
    """Monospace-aligned table for terminals."""
    grid = [list(COLUMN_NAMES)] + [_row_texts(row) for row in rows]
    widths = [max(len(line[col]) for line in grid) for col in range(len(COLUMN_NAMES))]
    out = []
    for index, line in enumerate(grid):
        out.append("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
        if index == 0:
            out.append("  ".join("-" * width for width in widths))
    return "\n".join(out)


def render_structured(rows: list[ReportRow]) -> dict:
    """JSON-ready shape keeping the exact fractions next to the rendering."""
    out_rows = []
    for row in rows:
        cells: dict = {"year": row.year}
        for name, _, precision in _COLUMNS:
            value = getattr(row, name)
            cells[name] = (
                None
                if value is None
                else {
                    "value": _cell_text(value, precision),
                    "numerator": value.numerator,
                    "denominator": value.denominator,
                }
            )
        out_rows.append(cells)
    return {"columns": list(COLUMN_NAMES), "rows": out_rows}
