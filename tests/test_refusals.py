"""Every refusal the indicators raise, pinned by its exact text.

One case per raise site: the message and the years it names are what the
CLI prints and what a library caller inspects, so they must survive any
change to how the indicators are put together.
"""

from operator import attrgetter
from types import SimpleNamespace

import pytest

from citemetrics.errors import UndefinedMetricError
from citemetrics.fixture import MatrixFixture, load_document, save_fixture, to_document
from citemetrics.ingest import PublicationLedger
from citemetrics.matrix import year_range
from citemetrics.metrics import (
    INDICATORS,
    MetricRequest,
    diach_if,
    diach_jdf,
    diach_rdf,
    evaluate,
    garfield_if,
    rowlands_jdf,
    sync_if,
    sync_jdf,
    sync_rdf,
)
from citemetrics.report import build_report

from helpers import build_all, ev


@pytest.fixture(scope="module")
def sparse():
    """No articles in 2004, 2005 and 2007; one citation in 2006 and one in
    2007, each to the year before."""
    return build_all(
        [ev("A", 2006, 2006), ev("A", 2007, 2005)],
        PublicationLedger({2004: 0, 2005: 0, 2006: 5, 2007: 0}),
        (2004, 2007),
        (2004, 2008),
    )


def _undefined(fn, *args, **kwargs):
    with pytest.raises(UndefinedMetricError) as err:
        fn(*args, **kwargs)
    return str(err.value), tuple(err.value.missing_years)


def _refused(fn, *args, **kwargs):
    with pytest.raises(ValueError) as err:
        fn(*args, **kwargs)
    return str(err.value)


def test_garfield_needs_both_prior_years(mjm):
    assert _undefined(garfield_if, mjm.matrix, 2004) == (
        "impact factor for 2004 needs publications in 2002 and 2003; 2002–2003 outside 2004-2008",
        (2003, 2002),
    )
    assert _undefined(garfield_if, mjm.matrix, 2005) == (
        "impact factor for 2005 needs publications in 2003 and 2004; 2003 outside 2004-2008",
        (2003,),
    )


def test_garfield_needs_articles_in_the_prior_years(sparse):
    matrix, _, _ = sparse
    assert _undefined(garfield_if, matrix, 2006) == (
        "no articles were published in 2004-2005",
        (2005, 2004),
    )


@pytest.mark.parametrize(
    ("fn", "source", "year", "window"),
    [
        (garfield_if, 0, 2011, ()),
        (sync_if, 0, 2011, (2,)),
        (sync_jdf, 1, 2003, (2,)),
        (sync_rdf, 1, 2011, (None,)),
    ],
)
def test_a_row_outside_the_citation_years(mjm, fn, source, year, window):
    matrix = (mjm.matrix, mjm.sync)[source]
    assert _undefined(fn, matrix, year, *window) == (
        f"{year} is outside the citation years 2004-2010",
        (year,),
    )


@pytest.mark.parametrize(
    ("fn", "source", "year"),
    [(diach_if, 0, 2009), (diach_jdf, 1, 2003), (diach_rdf, 1, 2009)],
)
def test_a_column_outside_the_publication_years(mjm, fn, source, year):
    matrix = (mjm.matrix, mjm.diach)[source]
    assert _undefined(fn, matrix, year, 2) == (
        f"{year} is outside the publication years 2004-2008",
        (year,),
    )


@pytest.mark.parametrize(("fn", "source"), [(diach_if, 0), (diach_jdf, 2)])
def test_no_articles_in_the_year(sparse, fn, source):
    assert _undefined(fn, sparse[source], 2005, 2) == (
        "no articles were published in 2005",
        (2005,),
    )


@pytest.mark.parametrize(("fn", "source", "window"), [(sync_if, 0, 2), (sync_jdf, 1, None)])
def test_no_articles_over_the_window(sparse, fn, source, window):
    year = 2006 if fn is sync_if else 2005
    assert _undefined(fn, sparse[source], year, window) == (
        "no articles were published in 2004–2005",
        (2005, 2004),
    )


def test_no_citations_in_a_row_window(sparse):
    _, sync, _ = sparse
    assert _undefined(sync_rdf, sync, 2005, 1) == (
        "no citations were made in 2005 within the window",
        (2005,),
    )


def test_no_citations_in_a_column_window(sparse):
    _, _, diach = sparse
    assert _undefined(diach_rdf, diach, 2004, None) == (
        "articles published in 2004 received no citations in the window",
        (2004,),
    )


def test_a_max_window_with_no_years_left(mjm):
    assert _undefined(sync_if, mjm.matrix, 2004, None) == (
        "no publication years at or before 2003 in 2004-2008",
        (2003,),
    )
    assert _undefined(diach_if, mjm.matrix, 2008, None, shift=3) == (
        "no citation years at or after 2011 in 2004-2010",
        (2011,),
    )


def test_a_clipped_window_with_no_overlap(mjm):
    assert _undefined(sync_if, mjm.matrix, 2004, 2) == (
        "window 2002-2003 has no overlap with publication years 2004-2008",
        (2003, 2002),
    )
    assert _undefined(diach_if, mjm.matrix, 2008, 2, shift=3) == (
        "window 2011-2012 has no overlap with citation years 2004-2010",
        (2011, 2012),
    )


def test_an_unclipped_window_past_the_span(mjm):
    assert _undefined(sync_if, mjm.matrix, 2005, 3, clip=False) == (
        "publication years 2002–2003 are outside 2004-2008 and clipping is off",
        (2003, 2002),
    )
    assert _undefined(diach_rdf, mjm.diach, 2008, 10, clip=False) == (
        "citation years 2011–2017 are outside 2004-2010 and clipping is off",
        tuple(range(2011, 2018)),
    )


def test_the_wrong_augmentation_variant(mjm):
    assert _refused(sync_jdf, mjm.diach, 2006, 2) == (
        "this metric needs the synchronous augmentation, got diachronous"
    )
    assert _refused(diach_rdf, mjm.sync, 2006, 2) == (
        "this metric needs the diachronous augmentation, got synchronous"
    )


@pytest.mark.parametrize(
    ("kind", "variant"),
    [
        ("sync_jdf", "synchronous"),
        ("sync_rdf", "synchronous"),
        ("diach_jdf", "diachronous"),
        ("diach_rdf", "diachronous"),
    ],
)
def test_a_missing_augmentation(mjm, kind, variant):
    request = MetricRequest(kind, 2006, 2)
    assert _refused(evaluate, request, mjm.matrix) == f"{kind} needs the {variant} augmented matrix"


def test_a_negative_shift(mjm):
    assert _refused(diach_if, mjm.matrix, 2006, 2, shift=-1) == "shift must be non-negative"
    assert _refused(MetricRequest, "diach_if", 2006, 2, shift=-1) == "shift must be non-negative"


def test_a_non_positive_window_and_an_unknown_kind(mjm):
    message = "window must be a positive number of years (or None for max)"
    assert _refused(sync_if, mjm.matrix, 2006, 0) == message
    assert _refused(MetricRequest, "sync_if", 2006, 0) == message
    assert _refused(MetricRequest, "nope", 2006) == "unknown metric kind 'nope'"


def test_rowlands_has_no_request_form(mjm):
    request = MetricRequest("rowlands_jdf", 2006, 2)
    assert _refused(evaluate, request, mjm.matrix, mjm.sync, mjm.diach) == (
        "rowlands_jdf works on citation events; call rowlands_jdf() directly"
    )


def _source_refusal(fn, *args, **kwargs):
    """The text of the ValueError a wrong source raises, checked to be one
    line: never an AttributeError from reading the wrong object."""
    message = _refused(fn, *args, **kwargs)
    assert "\n" not in message
    return message


def _source(mjm, name):
    return None if name is None else getattr(mjm, name)


# The fixture field each indicator reads, and every other source by that
# name, None included.
_READS = {None: "matrix", "synchronous": "sync", "diachronous": "diach"}
_WRONG_SOURCES = [
    (kind, given)
    for kind, indicator in INDICATORS.items()
    for given in (None, "matrix", "sync", "diach")
    if given != _READS[indicator.variant]
]


@pytest.mark.parametrize(("kind", "given"), _WRONG_SOURCES)
def test_an_indicator_refuses_every_source_it_does_not_read(mjm, kind, given):
    indicator = INDICATORS[kind]
    variant = indicator.variant
    if variant is None:
        text = f"{kind} needs the citation matrix"
    elif given in ("sync", "diach"):
        text = f"this metric needs the {variant} augmentation, got {getattr(mjm, given).variant}"
    else:
        text = f"{kind} needs the {variant} augmented matrix"
    source = _source(mjm, given)
    assert _source_refusal(indicator, source, 2006, 2) == text
    assert _source_refusal(indicator.column, source, [2005, 2006], None) == text


@pytest.mark.parametrize("given", [None, "sync", "diach"])
def test_garfield_refuses_anything_but_the_citation_matrix(mjm, given):
    assert _source_refusal(garfield_if, _source(mjm, given), 2006) == "garfield_if needs the citation matrix"


@pytest.mark.parametrize(
    ("sync", "diach", "text"),
    [
        (None, "diach", "sync_rdf needs the synchronous augmented matrix"),
        ("sync", None, "diach_rdf needs the diachronous augmented matrix"),
        (None, None, "sync_rdf needs the synchronous augmented matrix"),
        ("diach", "sync", "this metric needs the synchronous augmentation, got diachronous"),
        ("matrix", "diach", "sync_rdf needs the synchronous augmented matrix"),
    ],
)
def test_a_report_refuses_a_missing_or_wrong_augmentation(mjm, sync, diach, text):
    assert _source_refusal(build_report, mjm.matrix, _source(mjm, sync), _source(mjm, diach)) == text


@pytest.mark.parametrize(
    ("kind", "text"),
    [
        ("garfield_if", "garfield_if needs the citation matrix"),
        ("sync_if", "sync_if needs the citation matrix"),
        ("diach_if", "diach_if needs the citation matrix"),
    ],
)
def test_a_request_refuses_an_augmentation_in_place_of_the_matrix(mjm, kind, text):
    request = MetricRequest(kind, 2006, 2)
    assert _source_refusal(evaluate, request, mjm.sync, mjm.sync, mjm.diach) == text
    assert _source_refusal(evaluate, request, None) == text


def test_a_request_refuses_swapped_augmentations(mjm):
    request = MetricRequest("diach_jdf", 2006, 2)
    assert _source_refusal(evaluate, request, mjm.matrix, mjm.diach, mjm.sync) == (
        "this metric needs the diachronous augmentation, got synchronous"
    )


@pytest.mark.parametrize(
    ("matrix", "sync", "diach", "text"),
    [
        ("sync", None, None, "to_document needs the citation matrix"),
        ("diach", "sync", "diach", "to_document needs the citation matrix"),
        (None, None, None, "to_document needs the citation matrix"),
        ("matrix", "matrix", None, "to_document needs the synchronous augmented matrix"),
        ("matrix", None, "matrix", "to_document needs the diachronous augmented matrix"),
        ("matrix", "sync", "matrix", "to_document needs the diachronous augmented matrix"),
        ("matrix", "diach", None, "sync argument must carry the synchronous variant"),
        ("matrix", None, "sync", "diach argument must carry the diachronous variant"),
    ],
)
def test_a_fixture_document_refuses_a_wrong_source(mjm, tmp_path, matrix, sync, diach, text):
    """Through ``to_document`` and ``save_fixture``, which writes nothing."""
    sources = (_source(mjm, matrix), _source(mjm, sync), _source(mjm, diach))
    assert _source_refusal(to_document, *sources) == text
    assert _source_refusal(save_fixture, tmp_path / "out.json", *sources) == text
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("given", [None, "sync", "diach"])
def test_rowlands_refuses_anything_but_the_citation_matrix(mjm, given):
    text = _source_refusal(rowlands_jdf, [], _source(mjm, given), (2004, 2005), (2004, 2006))
    assert text == "rowlands_jdf needs the citation matrix"


@pytest.mark.parametrize(
    ("matrix", "sync", "diach", "text"),
    [
        ("sync", "sync", "diach", "sync_if needs the citation matrix"),
        ("diach", "sync", "diach", "sync_if needs the citation matrix"),
        (None, "sync", "diach", "sync_if needs the citation matrix"),
        ("sync", None, None, "sync_if needs the citation matrix"),
        ("matrix", "matrix", "matrix", "sync_rdf needs the synchronous augmented matrix"),
        ("matrix", "sync", "matrix", "diach_rdf needs the diachronous augmented matrix"),
    ],
)
def test_a_report_checks_every_source_before_reading_the_matrix(mjm, matrix, sync, diach, text):
    sources = (_source(mjm, matrix), _source(mjm, sync), _source(mjm, diach))
    assert _source_refusal(build_report, *sources) == text



# Other citations over the bundled fixture's spans, and over wider spans like
# those of a benchmark fixture: a matrix whose augmentations must not be
# given with the bundled fixture's, nor its matrix with theirs.
_OTHER = {
    "same spans": ([ev("A", 2006, 2005), ev("B", 2007, 2006)], (2004, 2008), (2004, 2010)),
    "wider spans": ([ev("A", 2006, 1995), ev("B", 2008, 2006)], (1990, 2019), (1990, 2021)),
}


@pytest.fixture(scope="module", params=sorted(_OTHER))
def other(request):
    events, pub_span, cite_span = _OTHER[request.param]
    ledger = PublicationLedger(dict.fromkeys(year_range(pub_span), 3))
    return MatrixFixture(*build_all(events, ledger, pub_span, cite_span))


def _given(mjm, other, names):
    """The source each of ``names`` names, as ``mjm.<field>`` or
    ``other.<field>``, or None."""
    both = SimpleNamespace(mjm=mjm, other=other)
    return [None if name is None else attrgetter(name)(both) for name in names]


_SYNC_ELSEWHERE = "the synchronous augmentation was built from another matrix"
_DIACH_ELSEWHERE = "the diachronous augmentation was built from another matrix"


@pytest.mark.parametrize(
    ("names", "text"),
    [
        (("mjm.matrix", "other.sync", "mjm.diach"), f"sync_rdf: {_SYNC_ELSEWHERE}"),
        (("mjm.matrix", "mjm.sync", "other.diach"), f"diach_rdf: {_DIACH_ELSEWHERE}"),
        (("mjm.matrix", "other.sync", "other.diach"), f"sync_rdf: {_SYNC_ELSEWHERE}"),
        (("other.matrix", "mjm.sync", "mjm.diach"), f"sync_rdf: {_SYNC_ELSEWHERE}"),
        # Every source's type is named before any augmentation's matrix.
        (("mjm.matrix", "other.sync", "mjm.sync"), "this metric needs the diachronous augmentation, got synchronous"),
        (("mjm.matrix", "other.sync", None), "diach_rdf needs the diachronous augmented matrix"),
        (("other.sync", "other.sync", "mjm.diach"), "sync_if needs the citation matrix"),
    ],
)
def test_a_report_refuses_an_augmentation_of_another_matrix(mjm, other, names, text):
    assert _source_refusal(build_report, *_given(mjm, other, names)) == text


@pytest.mark.parametrize("kind", ["sync_jdf", "diach_jdf", "sync_rdf", "diach_rdf"])
def test_a_request_refuses_an_augmentation_of_another_matrix(mjm, other, kind):
    variant = INDICATORS[kind].variant
    text = f"{kind}: the {variant} augmentation was built from another matrix"
    for window in (None, 1):
        request = MetricRequest(kind, 2008, window)
        assert _source_refusal(evaluate, request, mjm.matrix, other.sync, other.diach) == text
        assert _source_refusal(evaluate, request, other.matrix, mjm.sync, mjm.diach) == text


@pytest.mark.parametrize(
    ("names", "text"),
    [
        (("mjm.matrix", "other.sync", None), f"to_document: {_SYNC_ELSEWHERE}"),
        (("mjm.matrix", None, "other.diach"), f"to_document: {_DIACH_ELSEWHERE}"),
        (("mjm.matrix", "mjm.sync", "other.diach"), f"to_document: {_DIACH_ELSEWHERE}"),
        (("other.matrix", "mjm.sync", "mjm.diach"), f"to_document: {_SYNC_ELSEWHERE}"),
        # Every source's type and variant are named before any augmentation's matrix.
        (("mjm.matrix", "other.sync", "mjm.matrix"), "to_document needs the diachronous augmented matrix"),
        (("mjm.matrix", "other.sync", "mjm.sync"), "diach argument must carry the diachronous variant"),
    ],
)
def test_a_fixture_document_refuses_an_augmentation_of_another_matrix(mjm, other, tmp_path, names, text):
    """Through ``to_document`` and ``save_fixture``, which writes nothing."""
    sources = _given(mjm, other, names)
    assert _source_refusal(to_document, *sources) == text
    assert _source_refusal(save_fixture, tmp_path / "out.json", *sources) == text
    assert list(tmp_path.iterdir()) == []


def test_an_augmentation_is_accepted_with_an_equal_rebuilt_matrix(mjm):
    rebuilt = load_document(to_document(mjm.matrix, mjm.sync, mjm.diach)).matrix
    assert rebuilt is not mjm.matrix and rebuilt == mjm.matrix
    assert build_report(rebuilt, mjm.sync, mjm.diach) == build_report(mjm.matrix, mjm.sync, mjm.diach)
    assert to_document(rebuilt, mjm.sync, mjm.diach) == to_document(mjm.matrix, mjm.sync, mjm.diach)
    for kind in ("sync_jdf", "diach_jdf", "sync_rdf", "diach_rdf"):
        request = MetricRequest(kind, 2006, None)
        assert evaluate(request, rebuilt, mjm.sync, mjm.diach) == evaluate(request, mjm.matrix, mjm.sync, mjm.diach)
