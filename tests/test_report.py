import json

import pytest

from citemetrics.ingest import PublicationLedger
from citemetrics.report import (
    COLUMN_NAMES,
    build_report,
    format_ratio,
    render_csv,
    render_structured,
    render_table,
)

from helpers import build_all, ev


class TestFormatRatio:
    @pytest.mark.parametrize(
        "num,den,precision,expected",
        [
            (206, 253, 2, "0.81"),
            (87, 235, 2, "0.37"),
            (5, 8, 2, "0.63"),      # 0.625 rounds up, away from the even digit
            (1, 8, 3, "0.125"),
            (8, 139, 3, "0.058"),
            (1, 3, 0, "0"),
            (7, 2, 0, "4"),         # 3.5 rounds up at zero places too
            (995, 1000, 2, "1.00"), # carry across the decimal point
            (255, 139, 2, "1.83"),
            (0, 7, 2, "0.00"),
            (41, 1, 2, "41.00"),
        ],
    )
    def test_half_up_rendering(self, num, den, precision, expected):
        assert format_ratio(num, den, precision) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            format_ratio(1, 0, 2)
        with pytest.raises(ValueError):
            format_ratio(-1, 2, 2)
        with pytest.raises(ValueError):
            format_ratio(1, 2, -1)


@pytest.fixture(scope="module")
def mjm_rows(mjm):
    return build_report(mjm.matrix, mjm.sync, mjm.diach)


def test_one_row_per_year_across_both_spans(mjm_rows):
    assert [row.year for row in mjm_rows] == list(range(2004, 2011))


def test_undefined_cells_are_exactly_where_expected(mjm_rows):
    mask = {
        row.year: tuple(
            getattr(row, name) is None for name in COLUMN_NAMES[1:]
        )
        for row in mjm_rows
    }
    x = True   # undefined
    o = False  # defined
    assert mask == {
        2004: (x, x, o, o, o, o, o),
        2005: (x, x, o, o, o, o, o),
        2006: (o, o, o, o, o, o, o),
        2007: (o, o, o, o, o, o, o),
        2008: (o, o, o, o, o, o, o),
        2009: (o, o, x, o, x, o, x),
        2010: (x, x, x, o, x, o, x),
    }


def test_report_carries_exact_fractions(mjm_rows):
    by_year = {row.year: row for row in mjm_rows}
    assert (by_year[2004].diach_if2s1.numerator, by_year[2004].diach_if2s1.denominator) == (113, 139)
    assert (by_year[2006].sync_rdf_max.numerator, by_year[2006].sync_rdf_max.denominator) == (83, 109)
    assert (by_year[2009].sync_jdf_max.numerator, by_year[2009].sync_jdf_max.denominator) == (262, 580)


def test_csv_matches_the_golden_file(mjm_rows, golden_report_csv):
    assert render_csv(mjm_rows) == golden_report_csv


def test_all_formats_show_the_same_cells(mjm_rows):
    csv_lines = render_csv(mjm_rows).strip().split("\n")
    csv_cells = [line.split(",") for line in csv_lines[1:]]

    table_lines = render_table(mjm_rows).split("\n")
    table_cells = [line.split() for line in table_lines[2:]]  # skip header + rule

    structured = json.loads(render_structured(mjm_rows))
    structured_cells = [
        [str(row["year"])]
        + [("x" if row[name] is None else row[name]["value"]) for name in COLUMN_NAMES[1:]]
        for row in structured["rows"]
    ]

    assert csv_cells == table_cells == structured_cells


def test_structured_output_is_json_ready(mjm_rows):
    parsed = json.loads(render_structured(mjm_rows))
    assert parsed["columns"] == list(COLUMN_NAMES)
    cell = parsed["rows"][2]["sync_rdf_max"]
    assert (cell["numerator"], cell["denominator"], cell["value"]) == (83, 109, "0.76")


def test_single_year_dataset_is_mostly_undefined():
    events = []
    matrix, sync, diach = build_all(
        events, PublicationLedger({2004: 9}), (2004, 2004), (2004, 2004)
    )
    rows = build_report(matrix, sync, diach)
    assert len(rows) == 1
    row = rows[0]
    assert row.garfield_if is None
    assert row.sync_if2 is None
    assert row.diach_if2s1 is None
    assert row.sync_rdf_max is None  # no citations at all
    assert row.diach_rdf_max is None
    # the journal diffusion columns survive: zero new journals over 9 articles
    assert (row.sync_jdf_max.numerator, row.sync_jdf_max.denominator) == (0, 9)
    assert (row.diach_jdf_max.numerator, row.diach_jdf_max.denominator) == (0, 9)
    texts = render_csv(rows).strip().split("\n")[1].split(",")
    assert texts == ["2004", "x", "x", "x", "x", "x", "0.000", "0.00"]


def test_defined_cell_with_citations():
    events = [ev("a", 2004, 2004, "c1"), ev("b", 2005, 2004, "c2")]
    matrix, sync, diach = build_all(
        events, PublicationLedger({2004: 9}), (2004, 2004), (2004, 2005)
    )
    rows = build_report(matrix, sync, diach)
    by_year = {row.year: row for row in rows}
    assert (by_year[2004].sync_rdf_max.numerator, by_year[2004].sync_rdf_max.denominator) == (1, 1)
    assert (by_year[2004].diach_rdf_max.numerator, by_year[2004].diach_rdf_max.denominator) == (2, 2)
    assert by_year[2005].diach_rdf_max is None  # 2005 is not a publication year
