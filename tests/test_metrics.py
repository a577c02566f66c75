import random
from fractions import Fraction

import pytest

from citemetrics import metrics
from citemetrics.errors import UndefinedMetricError
from citemetrics.ingest import PublicationLedger
from citemetrics.matrix import COLUMN, ROW, Window, year_range
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

from helpers import build_all, column_events, ev, line_window, random_corpus


class TestGarfield:
    def test_known_value(self, mjm):
        v = garfield_if(mjm.matrix, 2009)
        assert (v.numerator, v.denominator) == (87, 235)
        assert v.value == Fraction(87, 235)
        assert v.effective_window == ((2009, 2008), (2009, 2007))

    def test_2006(self, mjm):
        v = garfield_if(mjm.matrix, 2006)
        assert (v.numerator, v.denominator) == (102, 241)

    def test_undefined_when_prior_years_missing(self, mjm):
        with pytest.raises(UndefinedMetricError) as err:
            garfield_if(mjm.matrix, 2004)
        assert set(err.value.missing_years) == {2002, 2003}
        with pytest.raises(UndefinedMetricError):
            garfield_if(mjm.matrix, 2005)

    def test_undefined_outside_citation_years(self, mjm):
        with pytest.raises(UndefinedMetricError):
            garfield_if(mjm.matrix, 2011)

    def test_zero_citations_is_zero_not_undefined(self):
        m, _, _ = build_all(
            [], PublicationLedger({2004: 5, 2005: 5, 2006: 5}), (2004, 2006), (2004, 2006)
        )
        v = garfield_if(m, 2006)
        assert (v.numerator, v.denominator) == (0, 10)

    def test_zero_articles_is_undefined(self):
        m, _, _ = build_all(
            [], PublicationLedger({2004: 0, 2005: 0, 2006: 5}), (2004, 2006), (2004, 2006)
        )
        with pytest.raises(UndefinedMetricError):
            garfield_if(m, 2006)

    def test_agrees_with_unclipped_two_year_sync_if(self, mjm):
        for year in year_range(mjm.matrix.cite_years):
            try:
                expected = sync_if(mjm.matrix, year, 2, clip=False)
            except UndefinedMetricError:
                with pytest.raises(UndefinedMetricError):
                    garfield_if(mjm.matrix, year)
                continue
            got = garfield_if(mjm.matrix, year)
            assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


class TestSyncIF:
    def test_two_year_value(self, mjm):
        v = sync_if(mjm.matrix, 2009, 2)
        assert (v.numerator, v.denominator) == (87, 235)

    def test_three_year_sums_are_not_reduced(self, mjm):
        v = sync_if(mjm.matrix, 2009, 3)
        assert (v.numerator, v.denominator) == (174, 339)
        assert v.value == Fraction(58, 113)  # the Fraction view may reduce; the fields never do

    def test_single_year_window(self, mjm):
        v = sync_if(mjm.matrix, 2005, 1)
        assert (v.numerator, v.denominator) == (37, 139)

    def test_clip_keeps_available_years(self, mjm):
        v = sync_if(mjm.matrix, 2005, 2, clip=True)
        assert (v.numerator, v.denominator) == (37, 139)
        assert v.effective_window == ((2005, 2004),)

    def test_no_clip_demands_every_year(self, mjm):
        with pytest.raises(UndefinedMetricError) as err:
            sync_if(mjm.matrix, 2005, 2, clip=False)
        assert err.value.missing_years == (2003,)

    def test_long_window_message_lists_runs_not_years(self, mjm):
        with pytest.raises(UndefinedMetricError) as err:
            sync_if(mjm.matrix, 2005, 1000, clip=False)
        assert err.value.missing_years == tuple(range(2003, 2004 - 1000, -1))
        assert str(err.value) == (
            "publication years 1005–2003 are outside 2004-2008 and clipping is off"
        )

    def test_empty_window_message_renders_a_run(self):
        m, _, _ = build_all(
            [], PublicationLedger({2004: 0, 2005: 0, 2006: 5, 2007: 0}), (2004, 2007), (2004, 2008)
        )
        with pytest.raises(UndefinedMetricError) as err:
            sync_if(m, 2006, 2)
        assert str(err.value) == "no articles were published in 2004–2005"

    def test_max_window_reaches_the_whole_span(self, mjm):
        v = sync_if(mjm.matrix, 2010, None)
        assert (v.numerator, v.denominator) == (177, 580)
        assert v.effective_window == tuple((2010, i) for i in range(2008, 2003, -1))

    def test_max_window_with_nothing_behind_is_undefined(self, mjm):
        with pytest.raises(UndefinedMetricError):
            sync_if(mjm.matrix, 2004, None)

    def test_year_outside_citation_span_is_undefined(self, mjm):
        with pytest.raises(UndefinedMetricError):
            sync_if(mjm.matrix, 2003, 2)

    def test_window_must_be_positive(self, mjm):
        with pytest.raises(ValueError):
            sync_if(mjm.matrix, 2009, 0)


class TestDiachIF:
    def test_shift_one(self, mjm):
        v = diach_if(mjm.matrix, 2006, 2, shift=1)
        assert (v.numerator, v.denominator) == (118, 104)
        assert v.effective_window == ((2007, 2006), (2008, 2006))

    def test_the_default_shift_is_one(self, mjm):
        v = diach_if(mjm.matrix, 2006, 2)
        assert v == diach_if(mjm.matrix, 2006, 2, shift=1)
        assert v.numerator == 118
        assert diach_if(mjm.matrix, 2006, 2, shift=2).numerator == 147

    def test_shift_zero_includes_publication_year(self, mjm):
        v = diach_if(mjm.matrix, 2006, 2, shift=0)
        assert (v.numerator, v.denominator) == (65, 104)

    def test_2008_clipped_at_the_far_edge(self, mjm):
        v = diach_if(mjm.matrix, 2008, 2, shift=1)
        assert (v.numerator, v.denominator) == (65, 135)
        # a wider window cannot reach past 2010 either
        v3 = diach_if(mjm.matrix, 2008, 3, shift=1)
        assert (v3.numerator, v3.denominator) == (65, 135)

    def test_no_clip_refuses_missing_citation_years(self, mjm):
        with pytest.raises(UndefinedMetricError) as err:
            diach_if(mjm.matrix, 2008, 3, shift=1, clip=False)
        assert err.value.missing_years == (2011,)

    def test_undefined_outside_publication_years(self, mjm):
        with pytest.raises(UndefinedMetricError):
            diach_if(mjm.matrix, 2009, 2)

    def test_undefined_when_year_has_no_articles(self):
        m, _, _ = build_all(
            [], PublicationLedger({2004: 0, 2005: 3}), (2004, 2005), (2004, 2006)
        )
        with pytest.raises(UndefinedMetricError):
            diach_if(m, 2004, 2)

    def test_negative_shift_is_a_programming_error(self, mjm):
        with pytest.raises(ValueError):
            diach_if(mjm.matrix, 2006, 2, shift=-1)

    def test_max_window(self, mjm):
        v = diach_if(mjm.matrix, 2004, None, shift=1)
        assert (v.numerator, v.denominator) == (401, 139)  # everything after 2004


class TestSyncDiffusion:
    def test_jdf_three_year_value(self, mjm):
        v = sync_jdf(mjm.sync, 2006, 3)
        assert (v.numerator, v.denominator) == (83, 345)

    def test_jdf_max_at_the_first_year(self, mjm):
        v = sync_jdf(mjm.sync, 2004, None)
        assert (v.numerator, v.denominator) == (8, 139)

    def test_jdf_max_at_the_last_year(self, mjm):
        v = sync_jdf(mjm.sync, 2010, None)
        assert (v.numerator, v.denominator) == (146, 580)

    def test_rdf_three_year_value(self, mjm):
        v = sync_rdf(mjm.sync, 2006, 3)
        assert (v.numerator, v.denominator) == (83, 109)

    def test_rdf_single_cell_row(self, mjm):
        v = sync_rdf(mjm.sync, 2004, 1)
        assert (v.numerator, v.denominator) == (8, 8)
        assert v.value == 1

    def test_rdf_undefined_with_no_citations(self):
        m, sync, _ = build_all(
            [], PublicationLedger({2004: 5, 2005: 5}), (2004, 2005), (2004, 2006)
        )
        with pytest.raises(UndefinedMetricError):
            sync_rdf(sync, 2005, 2)

    def test_jdf_zero_articles_in_window_is_undefined(self):
        events = [ev("a", 2005, 2004, "c1")]
        m, sync, _ = build_all(
            events, PublicationLedger({2004: 0, 2005: 0}), (2004, 2005), (2004, 2006)
        )
        with pytest.raises(UndefinedMetricError):
            sync_jdf(sync, 2005, 2)

    def test_window_anchors_at_the_diagonal(self, mjm):
        v = sync_jdf(mjm.sync, 2008, 2)
        # cells (2008, 2008) and (2008, 2007): 2 + 11 new journals
        assert (v.numerator, v.denominator) == (13, 235)

    def test_requires_the_synchronous_variant(self, mjm):
        with pytest.raises(ValueError):
            sync_jdf(mjm.diach, 2006, 3)
        with pytest.raises(ValueError):
            sync_rdf(mjm.diach, 2006, 3)


class TestDiachDiffusion:
    def test_jdf_three_year_value(self, mjm):
        v = diach_jdf(mjm.diach, 2006, 3)
        assert (v.numerator, v.denominator) == (96, 104)

    def test_jdf_max_2004(self, mjm):
        v = diach_jdf(mjm.diach, 2004, None)
        assert (v.numerator, v.denominator) == (255, 139)

    def test_jdf_max_2008(self, mjm):
        v = diach_jdf(mjm.diach, 2008, None)
        assert (v.numerator, v.denominator) == (63, 135)

    def test_rdf_values(self, mjm):
        assert (diach_rdf(mjm.diach, 2006, 5).numerator, diach_rdf(mjm.diach, 2006, 5).denominator) == (206, 253)
        assert (diach_rdf(mjm.diach, 2004, 7).numerator, diach_rdf(mjm.diach, 2004, 7).denominator) == (255, 409)
        assert (diach_rdf(mjm.diach, 2005, 6).numerator, diach_rdf(mjm.diach, 2005, 6).denominator) == (184, 249)

    def test_rdf_max_equals_full_forward_window(self, mjm):
        assert diach_rdf(mjm.diach, 2004, None).value == diach_rdf(mjm.diach, 2004, 7).value

    def test_jdf_numerator_grows_with_the_window(self, mjm):
        for year in year_range(mjm.matrix.pub_years):
            previous = 0
            for window in range(1, 8):
                value = diach_jdf(mjm.diach, year, window)
                assert value.numerator >= previous
                previous = value.numerator

    def test_undefined_outside_publication_years(self, mjm):
        with pytest.raises(UndefinedMetricError):
            diach_jdf(mjm.diach, 2010, 2)
        with pytest.raises(UndefinedMetricError):
            diach_rdf(mjm.diach, 2003, 2)

    def test_requires_the_diachronous_variant(self, mjm):
        with pytest.raises(ValueError):
            diach_jdf(mjm.sync, 2006, 3)


class TestRdfBounds:
    def test_every_defined_rdf_is_a_proper_fraction(self, mjm):
        windows = [1, 2, 3, 4, 5, 6, 7, None]
        for year in year_range(mjm.matrix.cite_years):
            for window in windows:
                try:
                    v = sync_rdf(mjm.sync, year, window)
                except UndefinedMetricError:
                    continue
                assert 0 < v.value <= 1
        for year in year_range(mjm.matrix.pub_years):
            for window in windows:
                try:
                    v = diach_rdf(mjm.diach, year, window)
                except UndefinedMetricError:
                    continue
                assert 0 < v.value <= 1


class TestRowlands:
    def test_single_citation_block(self):
        events = [ev("gut", 2005, 2004, "c1")]
        m, _, _ = build_all(events, PublicationLedger({2004: 2}), (2004, 2004), (2004, 2006))
        v = rowlands_jdf(events, m, (2004, 2004), (2004, 2006))
        assert (v.numerator, v.denominator) == (100, 1)

    def test_repeat_citations_dilute_the_score(self):
        events = [ev("gut", 2005, 2004, f"c{i}") for i in range(4)]
        m, _, _ = build_all(events, PublicationLedger({2004: 2}), (2004, 2004), (2004, 2006))
        v = rowlands_jdf(events, m, (2004, 2004), (2004, 2006))
        assert (v.numerator, v.denominator) == (100, 4)
        assert v.value == 25

    def test_journal_visiting_two_years_counts_once(self):
        events = [ev("gut", 2005, 2004, "c1"), ev("gut", 2006, 2004, "c2")]
        m, _, _ = build_all(events, PublicationLedger({2004: 2}), (2004, 2004), (2004, 2006))
        v = rowlands_jdf(events, m, (2004, 2004), (2004, 2006))
        assert (v.numerator, v.denominator) == (100, 2)

    def test_windows_clip_to_the_matrix(self):
        events = [ev("gut", 2005, 2004, "c1")]
        m, _, _ = build_all(events, PublicationLedger({2004: 2}), (2004, 2004), (2004, 2006))
        wide = rowlands_jdf(events, m, (1990, 2020), (1990, 2020))
        tight = rowlands_jdf(events, m, (2004, 2004), (2004, 2006))
        assert (wide.numerator, wide.denominator) == (tight.numerator, tight.denominator)

    def test_disjoint_block_is_undefined(self):
        events = [ev("gut", 2005, 2004, "c1")]
        m, _, _ = build_all(events, PublicationLedger({2004: 2}), (2004, 2004), (2004, 2006))
        with pytest.raises(UndefinedMetricError):
            rowlands_jdf(events, m, (2010, 2012), (2010, 2012))

    @pytest.mark.parametrize(
        "pub_window, cite_window",
        [((2010, 2011), (2005, 2006)), ((2005, 2006), (2011, 2012))],
        ids=["outside the publication span", "outside the citation span"],
    )
    def test_a_block_outside_one_span_has_no_overlap(self, mjm, pub_window, cite_window):
        with pytest.raises(UndefinedMetricError) as err:
            rowlands_jdf([], mjm.matrix, pub_window, cite_window)
        assert str(err.value) == "the requested block has no overlap with the matrix year spans"

    def test_citation_free_block_is_undefined(self):
        events = [ev("gut", 2005, 2004, "c1")]
        m, _, _ = build_all(events, PublicationLedger({2004: 2}), (2004, 2004), (2004, 2006))
        with pytest.raises(UndefinedMetricError):
            rowlands_jdf(events, m, (2004, 2004), (2006, 2006))

    def test_block_sums_every_cell_of_the_rectangle(self):
        rng = random.Random(7)
        rectangles = 0
        for _ in range(60):
            events, ledger, pub_span, cite_span = random_corpus(rng)
            matrix, _, _ = build_all(events, ledger, pub_span, cite_span)
            cells = tuple((k, i) for k in year_range(cite_span) for i in year_range(pub_span))
            denominator = sum(matrix.cit(*cell) for cell in cells)
            if denominator == 0:
                continue
            v = rowlands_jdf(events, matrix, pub_span, cite_span)
            assert v.denominator == denominator
            assert v.effective_window == cells
            rectangles += pub_span[0] < pub_span[1] and cite_span[0] < cite_span[1]
        assert rectangles >= 10, rectangles

    def test_single_column_consistent_with_the_dataset(self, mjm):
        """Events engineered to reproduce the sample dataset's 2006 column
        give the block score 100 * 206/253."""
        rows = [
            (k, mjm.matrix.cit(k, 2006), mjm.diach.unique(k, 2006))
            for k in range(2006, 2011)
        ]
        events = column_events(2006, rows)
        m, _, diach = build_all(
            events, PublicationLedger({2006: 104}), (2006, 2006), (2006, 2010)
        )
        assert m.window_sum(Window(COLUMN, 2006, range(2006, 2011))) == 253
        v = rowlands_jdf(events, m, (2006, 2006), (2006, 2010))
        assert (v.numerator, v.denominator) == (100 * 206, 253)
        assert v.value == 100 * diach_rdf(diach, 2006, None).value


class TestEvaluate:
    def test_dispatches_each_kind(self, mjm):
        cases = {
            "garfield_if": (dict(year=2009), 87, 235),
            "sync_if": (dict(year=2009, window=3), 174, 339),
            "diach_if": (dict(year=2006, window=2, shift=1), 118, 104),
            "sync_jdf": (dict(year=2006, window=3), 83, 345),
            "diach_jdf": (dict(year=2006, window=3), 96, 104),
            "sync_rdf": (dict(year=2006, window=3), 83, 109),
            "diach_rdf": (dict(year=2006, window=5), 206, 253),
        }
        for kind, (kwargs, num, den) in cases.items():
            value = evaluate(MetricRequest(kind=kind, **kwargs), mjm.matrix, mjm.sync, mjm.diach)
            assert (value.numerator, value.denominator) == (num, den), kind

    def test_unknown_kind_rejected_at_request_time(self):
        with pytest.raises(ValueError):
            MetricRequest(kind="hirsch", year=2006)

    def test_zero_window_rejected_at_request_time(self):
        with pytest.raises(ValueError):
            MetricRequest(kind="sync_if", year=2006, window=0)

    def test_augmentations_must_be_supplied(self, mjm):
        with pytest.raises(ValueError):
            evaluate(MetricRequest(kind="sync_jdf", year=2006, window=3), mjm.matrix)
        with pytest.raises(ValueError):
            evaluate(MetricRequest(kind="diach_rdf", year=2006, window=3), mjm.matrix, mjm.sync)

    def test_rowlands_is_not_dispatchable(self, mjm):
        with pytest.raises(ValueError):
            evaluate(
                MetricRequest(kind="rowlands_jdf", year=2006),
                mjm.matrix,
                mjm.sync,
                mjm.diach,
            )

    def test_same_request_same_answer(self, mjm):
        request = MetricRequest(kind="diach_rdf", year=2006, window=5)
        first = evaluate(request, mjm.matrix, mjm.sync, mjm.diach)
        second = evaluate(request, mjm.matrix, mjm.sync, mjm.diach)
        assert first == second


class TestIndicatorNames:
    @pytest.mark.parametrize("name", ["sync_if", "diach_if", "sync_jdf", "diach_jdf", "sync_rdf", "diach_rdf"])
    def test_each_name_is_its_table_row(self, name):
        assert getattr(metrics, name) is INDICATORS[name]
        assert INDICATORS[name].__name__ == name

    @pytest.mark.parametrize("extra", [(1,), (1, True)], ids=["shift", "shift and clip"])
    def test_shift_and_clip_are_keyword_only(self, mjm, extra):
        with pytest.raises(TypeError):
            diach_if(mjm.matrix, 2006, 2, *extra)

    def test_a_row_with_a_fixed_offset_ignores_shift(self, mjm):
        assert sync_if(mjm.matrix, 2009, 3, shift=4) == sync_if(mjm.matrix, 2009, 3)
        assert sync_rdf(mjm.sync, 2006, 3, shift=4) == sync_rdf(mjm.sync, 2006, 3)


def test_random_matrices_keep_rdf_in_bounds():
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        events, ledger, pub_span, cite_span = random_corpus(rng)
        _, sync, diach = build_all(events, ledger, pub_span, cite_span)
        for year in year_range(cite_span):
            try:
                v = sync_rdf(sync, year, None)
            except UndefinedMetricError:
                continue
            assert 0 < v.value <= 1
            checked += 1
        for year in year_range(pub_span):
            try:
                v = diach_rdf(diach, year, None)
            except UndefinedMetricError:
                continue
            assert 0 < v.value <= 1
            checked += 1
    assert checked > 50


class TestClippedWindows:
    def test_clipped_windows_are_the_listed_window_cut_to_the_span(self, mjm):
        (pub_lo, pub_hi), (cite_lo, cite_hi) = mjm.matrix.pub_years, mjm.matrix.cite_years

        def check(years, wanted, lo, hi):
            expected = [y for y in wanted if lo <= y <= hi]
            if expected:
                assert list(years().years) == expected
            else:
                with pytest.raises(UndefinedMetricError) as err:
                    years()
                assert err.value.missing_years == tuple(wanted)

        for year in range(1998, 2017):
            for window in range(1, 14):
                for offset in (0, 1):
                    check(
                        lambda: line_window(mjm.matrix, ROW, year, year - offset, window, True),
                        [year - offset - j for j in range(window)],
                        pub_lo,
                        pub_hi,
                    )
                for shift in (0, 1, 3):
                    check(
                        lambda: line_window(mjm.matrix, COLUMN, year, year + shift, window, True),
                        [year + shift + j for j in range(window)],
                        cite_lo,
                        cite_hi,
                    )

    def test_a_clipped_window_of_1e11_years_equals_the_max_window(self, mjm):
        # Only requests whose max window is defined: their windows overlap
        # the span, so the clipped 10^11-year window is never listed.
        compared = 0
        for kind in ("sync_if", "diach_if", "sync_jdf", "diach_jdf", "sync_rdf", "diach_rdf"):
            for year in range(2002, 2013):
                try:
                    expected = evaluate(MetricRequest(kind, year), mjm.matrix, mjm.sync, mjm.diach)
                except UndefinedMetricError:
                    continue
                huge = MetricRequest(kind, year, window=10**11)
                assert evaluate(huge, mjm.matrix, mjm.sync, mjm.diach) == expected
                compared += 1
        assert compared >= 30
