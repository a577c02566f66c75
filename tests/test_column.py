"""An indicator's column: every year of a run in one evaluation.

``Indicator.column`` reads the checks, spans and running totals once and
then each year's window, so a value left over from an earlier year would
pass every single-year test. Here each year of a column is held to the same
year evaluated alone, and the report, which is six columns, to the request
each of its cells names.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics.errors import UndefinedMetricError
from citemetrics.fixture import MatrixFixture
from citemetrics.matrix import ROW, year_range
from citemetrics.metrics import INDICATORS, Indicator, MetricRequest, evaluate, garfield_if, sync_if
from citemetrics.report import (
    COLUMN_NAMES,
    UNDEFINED,
    build_report,
    format_ratio,
    render_csv,
    render_structured,
    render_table,
)

from helpers import augmented_matrices

# Each report column and the request its cells answer, listed here rather
# than read from the report.
REPORT_REQUESTS = {
    "garfield_if": ("garfield_if", 2, 1, False),
    "sync_if2": ("sync_if", 2, 1, False),
    "diach_if2s1": ("diach_if", 2, 1, True),
    "sync_rdf_max": ("sync_rdf", None, 1, True),
    "diach_rdf_max": ("diach_rdf", None, 1, True),
    "sync_jdf_max": ("sync_jdf", None, 1, True),
    "diach_jdf_max": ("diach_jdf", None, 1, True),
}

# The decimal places of each report column, as the report documents them.
PRECISION = {name: 3 if name == "sync_jdf_max" else 2 for name in REPORT_REQUESTS}


def _sources(matrix, sync, diach):
    return {None: matrix, sync.variant: sync, diach.variant: diach}


def _alone(indicator, source, year, window, shift, clip):
    """One year's value, or the refusal its call raises."""
    try:
        return indicator(source, year, window, shift=shift, clip=clip)
    except UndefinedMetricError as err:
        return err


def _same(got, expected):
    """Equal values (sums and cells), or refusals of one type, text and
    missing years."""
    if isinstance(expected, UndefinedMetricError):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        assert got.missing_years == expected.missing_years
        assert got.__traceback__ is None
    else:
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
        assert got.effective_window == expected.effective_window
        assert tuple(got.effective_window) == tuple(expected.effective_window)


@given(augmented_matrices(), st.sampled_from(sorted(INDICATORS)), st.data())
def test_a_column_equals_its_years_evaluated_one_by_one(fixture, kind, data):
    """Years run past both spans and through years with no articles, in any
    order; windows from 1 to 10 past the span, and the largest."""
    matrix = fixture[0]
    indicator = INDICATORS[kind]
    source = _sources(*fixture)[indicator.variant]
    (pub_lo, pub_hi), (cite_lo, cite_hi) = matrix.pub_years, matrix.cite_years
    lo = min(pub_lo, cite_lo) - data.draw(st.integers(1, 3))
    hi = max(pub_hi, cite_hi) + data.draw(st.integers(1, 3))
    years = data.draw(st.permutations(range(lo, hi + 1)))
    span = pub_hi - pub_lo + 1 if indicator.axis == ROW else cite_hi - cite_lo + 1
    window = data.draw(st.none() | st.integers(1, span + 10))
    shift, clip = data.draw(st.integers(0, 2)), data.draw(st.booleans())
    column = indicator.column(source, years, window, shift=shift, clip=clip)
    assert len(column) == len(years)
    for year, got in zip(years, column):
        _same(got, _alone(indicator, source, year, window, shift, clip))


@given(augmented_matrices())
def test_a_report_cell_is_its_request_evaluated(fixture):
    """Each cell of ``build_report`` is its request evaluated alone, and a
    fixture's ``report`` holds those rows, built once."""
    matrix, _, _ = fixture
    rows = build_report(*fixture)
    held = MatrixFixture(*fixture)
    assert held.report == tuple(rows)
    assert held.report is held.report
    years = set(year_range(matrix.pub_years)) | set(year_range(matrix.cite_years))
    assert [row.year for row in rows] == sorted(years)
    assert list(REPORT_REQUESTS) == list(COLUMN_NAMES[1:])
    for row in rows:
        for name, (kind, window, shift, clip) in REPORT_REQUESTS.items():
            try:
                expected = evaluate(MetricRequest(kind, row.year, window, shift, clip), *fixture)
            except UndefinedMetricError:
                expected = None
            got = getattr(row, name)
            if expected is None:
                assert got is None, (name, row.year)
            else:
                _same(got, expected)


@given(augmented_matrices())
def test_garfield_if_refuses_and_sums_as_unclipped_sync_if_at_window_2(fixture):
    """Over years two past each end of the citation span, ``garfield_if``
    has the numerator, denominator and cells of the unclipped two-year
    ``sync_if``, or both refuse, missing the same years."""
    matrix = fixture[0]
    cite_lo, cite_hi = matrix.cite_years
    for year in range(cite_lo - 2, cite_hi + 3):
        expected = _alone(sync_if, matrix, year, 2, 1, False)
        try:
            got = garfield_if(matrix, year)
        except UndefinedMetricError as err:
            assert isinstance(expected, UndefinedMetricError), year
            assert err.missing_years == expected.missing_years, year
        else:
            assert not isinstance(expected, UndefinedMetricError), year
            assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
            assert got.effective_window == expected.effective_window


def _counting(monkeypatch):
    """Count the column calls and the refusals built, per column call: a
    list of ``(indicator, refusals built, undefined entries returned)``."""
    calls, built = [], []
    real_column, real_init = Indicator.column, UndefinedMetricError.__init__

    def column(self, *args, **kwargs):
        before = len(built)
        values = real_column(self, *args, **kwargs)
        calls.append((self, len(built) - before, sum(isinstance(v, UndefinedMetricError) for v in values)))
        return values

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Indicator, "column", column)
    monkeypatch.setattr(UndefinedMetricError, "__init__", init)
    return calls


def test_a_report_makes_six_column_calls_and_a_refusal_per_undefined_cell(mjm, monkeypatch):
    counted = _counting(monkeypatch)
    rows = build_report(mjm.matrix, mjm.sync, mjm.diach)
    assert len(counted) == 6
    assert {indicator.name for indicator, _, _ in counted} == set(INDICATORS)
    for indicator, refusals, undefined in counted:
        assert refusals == undefined, indicator.name
    # The garfield_if column is read from the sync_if2 column, so the
    # refusals built are the undefined cells of the other six.
    cells = {name: [getattr(row, name) for row in rows] for name in COLUMN_NAMES[1:]}
    assert cells["garfield_if"] == cells["sync_if2"]
    undefined = sum(column.count(None) for name, column in cells.items() if name != "garfield_if")
    assert undefined > 0 and sum(refusals for _, refusals, _ in counted) == undefined


@given(augmented_matrices())
def test_a_random_report_builds_a_refusal_per_undefined_cell_only(fixture):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counting(monkeypatch)
        build_report(*fixture)
    assert len(calls) == 6
    assert all(refusals == undefined for _, refusals, undefined in calls)


def _text(value, precision):
    return UNDEFINED if value is None else format_ratio(value.numerator, value.denominator, precision)


@given(augmented_matrices())
def test_every_rendered_cell_is_its_value_at_its_column_precision(fixture):
    """Each csv and table cell is ``format_ratio`` of its cell at the
    column's precision, or ``x`` where undefined; each structured cell holds
    that text and the cell's own numerator and denominator, or None."""
    rows = build_report(*fixture)
    texts = [[str(row.year)] + [_text(getattr(row, name), PRECISION[name]) for name in REPORT_REQUESTS] for row in rows]
    csv = render_csv(rows)
    assert csv.endswith("\n") and csv.count("\n") == len(rows) + 1
    lines = csv.splitlines()
    assert lines[0] == ",".join(COLUMN_NAMES)
    assert [line.split(",") for line in lines[1:]] == texts
    table = render_table(rows).splitlines()
    assert table[0].split() == list(COLUMN_NAMES) and len(table) == len(rows) + 2
    assert [line.split() for line in table[2:]] == texts
    assert len({len(line) for line in table}) == 1
    structured = json.loads(render_structured(rows))
    assert structured["columns"] == list(COLUMN_NAMES)
    for row, cells, line in zip(rows, structured["rows"], texts, strict=True):
        assert list(cells) == list(COLUMN_NAMES) and cells["year"] == row.year
        for name, text in zip(REPORT_REQUESTS, line[1:]):
            value = getattr(row, name)
            if value is None:
                assert cells[name] is None
            else:
                assert cells[name] == {"value": text, "numerator": value.numerator, "denominator": value.denominator}


# 2,000 examples under the fuzz profile, 100 in tier-1.
@settings(max_examples=max(100, settings.default.max_examples // 5), deadline=None)
@given(augmented_matrices())
def test_the_structured_report_is_json_dumps_of_its_documented_shape(fixture):
    """``render_structured`` writes its text itself, so its separators,
    ``null`` and integers are held here, byte for byte, to ``json.dumps`` of
    the documented shape, built from each cell's own numerator and
    denominator and its ``format_ratio`` text at the column's precision."""
    rows = build_report(*fixture)

    def cell(value, precision):
        if value is None:
            return None
        text = format_ratio(value.numerator, value.denominator, precision)
        return {"value": text, "numerator": value.numerator, "denominator": value.denominator}

    shape = {
        "columns": list(COLUMN_NAMES),
        "rows": [
            {"year": row.year} | {name: cell(getattr(row, name), PRECISION[name]) for name in REPORT_REQUESTS}
            for row in rows
        ],
    }
    assert render_structured(rows) == json.dumps(shape)
