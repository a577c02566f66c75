import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics.errors import AliasTableError, ParseError
from citemetrics.ingest import (
    CitationEvent,
    JournalId,
    PublicationLedger,
    backdated_records,
    deduplicate_events,
    load_alias_table,
    normalize_journal_name,
    normalize_journal_names,
    parse_citations,
    parse_publications,
)

from helpers import ev


def _pubs(text):
    return parse_publications(io.StringIO(text))


def _cites(text):
    return parse_citations(io.StringIO(text))


class TestParsePublications:
    def test_counts_form(self):
        ledger = _pubs("year,count\n2004,139\n2005,102\n")
        assert ledger.counts == {2004: 139, 2005: 102}
        assert ledger.years == (2004, 2005)

    def test_gap_years_get_zero(self):
        ledger = _pubs("year,count\n2004,5\n2007,3\n")
        assert ledger.counts == {2004: 5, 2005: 0, 2006: 0, 2007: 3}

    def test_article_form_tallies(self):
        ledger = _pubs("article_id,year\np1,2004\np2,2004\np3,2006\n")
        assert ledger.counts == {2004: 2, 2005: 0, 2006: 1}

    def test_header_is_case_insensitive(self):
        assert _pubs("Year,Count\n2004,1\n").counts == {2004: 1}

    def test_duplicate_year_rejected(self):
        with pytest.raises(ParseError) as err:
            _pubs("year,count\n2004,1\n2004,2\n")
        assert err.value.line == 3
        assert "duplicate year" in str(err.value)

    def test_bad_count_names_line_and_column(self):
        with pytest.raises(ParseError) as err:
            _pubs("year,count\n2004,many\n")
        assert (err.value.line, err.value.column) == (2, "count")

    def test_bad_year_rejected(self):
        with pytest.raises(ParseError):
            _pubs("year,count\n20x4,1\n")

    def test_negative_count_rejected(self):
        with pytest.raises(ParseError):
            _pubs("year,count\n2004,-1\n")

    def test_unknown_header_rejected(self):
        with pytest.raises(ParseError):
            _pubs("anno,n\n2004,1\n")

    def test_zero_byte_file_rejected(self):
        with pytest.raises(ParseError):
            _pubs("")

    def test_header_only_gives_empty_ledger(self):
        ledger = _pubs("year,count\n")
        assert ledger.counts == {}
        assert ledger.years is None


class TestParseCitations:
    def test_four_column_form(self):
        records = _cites(
            "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
            "a1,2004,Lancet,2005\n"
        )
        assert len(records) == 1
        rec = records[0]
        assert rec.cited_pub_year == 2004
        assert rec.citing_journal_raw == "Lancet"
        assert rec.citing_article_id is None
        assert rec.source_line == 2

    def test_five_column_form_keeps_citing_id(self):
        records = _cites(
            "cited_article_id,cited_pub_year,citing_journal,citing_year,citing_article_id\n"
            "a1,2004,Lancet,2005,c9\n"
            "a1,2004,Lancet,2005,\n"
        )
        assert records[0].citing_article_id == "c9"
        assert records[1].citing_article_id is None

    def test_header_only_is_empty(self):
        assert _cites("cited_article_id,cited_pub_year,citing_journal,citing_year\n") == []

    def test_zero_byte_file_rejected(self):
        with pytest.raises(ParseError):
            _cites("")

    def test_field_count_mismatch_names_line(self):
        with pytest.raises(ParseError) as err:
            _cites(
                "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
                "a1,2004,Lancet,2005\n"
                "a1,2004,Lancet\n"
            )
        assert err.value.line == 3

    def test_bad_year_names_column(self):
        with pytest.raises(ParseError) as err:
            _cites(
                "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
                "a1,2004,Lancet,next year\n"
            )
        assert err.value.column == "citing_year"

    def test_empty_journal_rejected(self):
        with pytest.raises(ParseError) as err:
            _cites(
                "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
                "a1,2004,   ,2005\n"
            )
        assert err.value.column == "citing_journal"


class TestNormalizeName:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Lancet", "lancet"),
            ("LANCET.", "lancet"),
            ("  The   LANCET  ", "the lancet"),
            ("Med. J. Malaysia;", "med. j. malaysia"),
            ("Gut.. ", "gut"),
            ("BMJ (Clinical research ed.)", "bmj (clinical research ed"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_journal_name(raw) == expected

    def test_interior_punctuation_survives(self):
        assert normalize_journal_name("J. Clin. Path") == "j. clin. path"

    def test_different_titles_stay_distinct(self):
        assert normalize_journal_name("Lancet") != normalize_journal_name("Lancet Oncology")

    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        once = normalize_journal_name(raw)
        assert normalize_journal_name(once) == once


def _record(journal, line=2):
    return _cites(
        "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
        + f"a1,2004,{journal},2005\n"
    )[0]


class TestNormalizeJournalNames:
    def test_spelling_variants_collapse(self):
        records = _cites(
            "cited_article_id,cited_pub_year,citing_journal,citing_year,citing_article_id\n"
            "a1,2004,Lancet,2005,c1\n"
            "a1,2004,LANCET.,2005,c2\n"
            "a2,2004,lancet,2006,c3\n"
        )
        journals, events = normalize_journal_names(records)
        assert {j.canonical_name for j in journals} == {"lancet"}
        (j,) = journals
        assert j.aliases == frozenset({"Lancet", "LANCET.", "lancet"})
        assert len(events) == 3
        assert all(e.citing_journal == j for e in events)

    def test_events_keep_input_order_and_fields(self):
        records = _cites(
            "cited_article_id,cited_pub_year,citing_journal,citing_year,citing_article_id\n"
            "a1,2004,AJG,2005,c1\n"
            "a2,2005,Gut,2006,c2\n"
        )
        _, events = normalize_journal_names(records)
        assert [e.citing_article_id for e in events] == ["c1", "c2"]
        assert events[1].cited_pub_year == 2005

    def test_alias_table_redirects_normalized_form(self):
        records = [_record("Med J Malaysia")]
        journals, events = normalize_journal_names(
            records, {"med j malaysia": "medical journal of malaysia"}
        )
        assert {j.canonical_name for j in journals} == {"medical journal of malaysia"}
        assert events[0].citing_journal.aliases == frozenset({"Med J Malaysia"})

    def test_alias_keys_are_normalized_too(self):
        journals, _ = normalize_journal_names(
            [_record("MED J MALAYSIA.")], {"Med J  Malaysia": "Medical Journal of Malaysia"}
        )
        assert {j.canonical_name for j in journals} == {"medical journal of malaysia"}

    def test_alias_applies_once_without_chaining(self):
        journals, _ = normalize_journal_names([_record("A")], {"a": "b", "b": "c"})
        assert {j.canonical_name for j in journals} == {"b"}

    def test_conflicting_alias_entries_rejected(self):
        with pytest.raises(AliasTableError):
            normalize_journal_names([_record("x")], {"J. One": "alpha", "j. one": "beta"})

    def test_name_empty_after_normalization_names_source_line(self):
        records = _cites(
            "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
            "a1,2004,Lancet,2005\n"
            'a1,2004,"...",2005\n'
        )
        with pytest.raises(ParseError) as err:
            normalize_journal_names(records)
        assert err.value.line == 3


class TestLoadAliasTable:
    def test_loads_and_normalizes(self):
        table = load_alias_table(io.StringIO("raw,canonical\nMJM.,Medical Journal of Malaysia\n"))
        assert table == {"mjm": "medical journal of malaysia"}

    def test_conflict_rejected(self):
        with pytest.raises(AliasTableError):
            load_alias_table(io.StringIO("raw,canonical\nMJM,alpha\nmjm.,beta\n"))

    def test_repeated_identical_row_tolerated(self):
        table = load_alias_table(io.StringIO("raw,canonical\nMJM,alpha\nMJM,alpha\n"))
        assert table == {"mjm": "alpha"}

    def test_empty_cells_rejected(self):
        with pytest.raises(ParseError):
            load_alias_table(io.StringIO("raw,canonical\n,alpha\n"))

    def test_unknown_header_rejected(self):
        with pytest.raises(ParseError):
            load_alias_table(io.StringIO("from,to\na,b\n"))


_POOL_EVENTS = st.builds(
    CitationEvent,
    cited_article_id=st.sampled_from(["a1", "a2"]),
    cited_pub_year=st.sampled_from([2004, 2005]),
    citing_journal=st.sampled_from([JournalId("x"), JournalId("y")]),
    citing_year=st.sampled_from([2005, 2006]),
    citing_article_id=st.sampled_from([None, "c1", "c2"]),
)


class TestDeduplicate:
    def test_exact_duplicates_removed_and_counted(self):
        events = [ev("lancet", 2005, 2004, "c1"), ev("lancet", 2005, 2004, "c1")]
        unique, removed = deduplicate_events(events)
        assert len(unique) == 1
        assert removed == 1

    def test_distinct_citing_ids_both_survive(self):
        events = [ev("lancet", 2005, 2004, "c1"), ev("lancet", 2005, 2004, "c2")]
        unique, removed = deduplicate_events(events)
        assert len(unique) == 2
        assert removed == 0

    def test_missing_id_differs_from_present_id(self):
        events = [ev("lancet", 2005, 2004, None), ev("lancet", 2005, 2004, "c1")]
        unique, removed = deduplicate_events(events)
        assert len(unique) == 2

    @given(st.lists(_POOL_EVENTS, max_size=30))
    def test_idempotent_and_order_free(self, events):
        unique, removed = deduplicate_events(events)
        assert len(unique) + removed == len(events)
        again, removed_again = deduplicate_events(unique)
        assert again == unique
        assert removed_again == 0
        shuffled = list(events)
        random.Random(7).shuffle(shuffled)
        assert deduplicate_events(shuffled)[0] == unique


class TestBackdated:
    def test_flags_only_backwards_rows(self):
        records = _cites(
            "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
            "a1,2004,J,2005\n"
            "a2,2006,J,2004\n"
            "a3,2006,J,2006\n"
        )
        flagged = backdated_records(records)
        assert [r.source_line for r in flagged] == [3]


class TestPublicationLedger:
    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            PublicationLedger({2004: 1, 2006: 2})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PublicationLedger({2004: -1})

    def test_total_sums_a_window_of_years(self):
        ledger = PublicationLedger({2004: 1, 2005: 2, 2006: 4})
        assert ledger.total(range(2006, 2003, -1)) == 7
        assert ledger.total([2005]) == 2
        assert ledger.total([]) == 0
        with pytest.raises(KeyError):
            ledger.total([2007])

    def test_a_run_of_ledger_years_reads_no_count_after_the_first_total(self):
        """Once the cumulative list is built, a run of ledger years, in
        either direction and of any length, is two list reads."""

        class Counting(dict):
            reads = 0

            def __getitem__(self, year):
                self.reads += 1
                return super().__getitem__(year)

        plain = {2004: 1, 2005: 2, 2006: 4, 2007: 8}
        counts = Counting(plain)
        ledger = PublicationLedger(counts)
        ledger.total(range(2005, 2006))
        counts.reads = 0
        for first in plain:
            for last in plain:
                step = 1 if first <= last else -1
                years = range(first, last + step, step)
                assert ledger.total(years) == sum(plain[year] for year in years)
        assert counts.reads == 0

    @pytest.mark.parametrize(
        "years",
        [range(2001, 2003), range(2002, 2005), range(2003, 2001, -1), range(2000, 2001), range(2010, 2012)],
    )
    def test_a_run_reaching_past_the_ledger_is_refused(self, years):
        """A run of years the ledger does not hold raises KeyError, even
        once the cumulative list that sums runs inside it is built."""
        ledger = PublicationLedger({2004: 3, 2005: 4, 2006: 5, 2007: 6, 2008: 7})
        assert ledger.total(range(2004, 2009)) == 25
        with pytest.raises(KeyError):
            ledger.total(years)

    def test_journal_identity_ignores_alias_set(self):
        assert JournalId("gut", frozenset({"Gut"})) == JournalId("gut", frozenset({"GUT."}))
        assert len({JournalId("gut", frozenset({"Gut"})), JournalId("gut")}) == 1
