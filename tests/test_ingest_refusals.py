"""Every refusal the CSV readers raise, pinned by its exact text and position.

One case per raise site in the three input readers (publications,
citations, aliases), plus the name that normalizes to nothing. The message,
line and column are what `citemetrics ingest` prints, so they must survive
any change to how the readers are put together. The accepted forms every
file shares (a byte-order mark and loose header spelling, blank rows,
CRLF line ends) are pinned alongside.
"""

import io

import pytest

from citemetrics.errors import AliasTableError, ParseError
from citemetrics.ingest import (
    index_citations,
    load_alias_table,
    normalize_journal_names,
    parse_citations,
    parse_publications,
)

H4 = "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
H5 = "cited_article_id,cited_pub_year,citing_journal,citing_year,citing_article_id\n"


def _pubs(text):
    return parse_publications(io.StringIO(text))


def _aliases(text):
    return load_alias_table(io.StringIO(text))


def _parsed(text):
    return parse_citations(io.StringIO(text))


def _indexed(text):
    return index_citations(io.StringIO(text))


def _normalized(text):
    return normalize_journal_names(parse_citations(io.StringIO(text)))


def _refusal(read, text, kind=ParseError):
    with pytest.raises(kind) as err:
        read(text)
    return err.value


PUBLICATIONS = [
    ("empty file", "", "line 1: publications file is empty (missing header row)", 1, None),
    (
        "unknown header",
        "anno,n\n2004,1\n",
        "line 1: unrecognized publications header; expected 'year,count' or 'article_id,year'",
        1,
        None,
    ),
    ("counts, 3 fields", "year,count\n2004,1\n2005,1,7\n", "line 3: expected 2 fields, got 3", 3, None),
    ("articles, 1 field", "article_id,year\np1\n", "line 2: expected 2 fields, got 1", 2, None),
    (
        "counts, bad year",
        "year,count\n20x4,1\n",
        "line 2, column 'year': expected a 4-digit year, got '20x4'",
        2,
        "year",
    ),
    (
        "articles, bad year",
        "article_id,year\np1,04\n",
        "line 2, column 'year': expected a 4-digit year, got '04'",
        2,
        "year",
    ),
    (
        "duplicate year",
        "year,count\n2004,1\n2004,2\n",
        "line 3, column 'year': duplicate year 2004",
        3,
        "year",
    ),
    (
        "non-integer count",
        "year,count\n2004,many\n",
        "line 2, column 'count': expected an integer, got 'many'",
        2,
        "count",
    ),
    (
        "negative count",
        "year,count\n2004,-1\n",
        "line 2, column 'count': count must be non-negative, got -1",
        2,
        "count",
    ),
    # A count is ASCII digits, at most 10**18: what the fixture loader reads.
    (
        "count above the limit",
        "year,count\n2004,5000000000000000000000\n",
        "line 2, column 'count': count is above the limit of 10**18",
        2,
        "count",
    ),
    (
        "count one above the limit",
        "year,count\n2004,1\n2005,1000000000000000001\n",
        "line 3, column 'count': count is above the limit of 10**18",
        3,
        "count",
    ),
    (
        "count longer than int() reads",
        "year,count\n2004," + "9" * 5000 + "\n",
        "line 2, column 'count': count is above the limit of 10**18",
        2,
        "count",
    ),
    (
        "count with an underscore",
        "year,count\n2004,1_000\n",
        "line 2, column 'count': expected a count of ASCII digits only, got '1_000'",
        2,
        "count",
    ),
    (
        "count with a plus sign",
        "year,count\n2004,+3\n",
        "line 2, column 'count': expected a count of ASCII digits only, got '+3'",
        2,
        "count",
    ),
    (
        "count in Arabic-Indic digits",
        "year,count\n2004,\u0663\n",
        "line 2, column 'count': expected a count of ASCII digits only, got '\u0663'",
        2,
        "count",
    ),
    (
        "count of minus zero",
        "year,count\n2004,-0\n",
        "line 2, column 'count': expected a count of ASCII digits only, got '-0'",
        2,
        "count",
    ),
    (
        "empty article_id",
        "article_id,year\n  ,2004\n",
        "line 2, column 'article_id': article_id is empty",
        2,
        "article_id",
    ),
    # One row per article: a repeated id would count the article twice.
    (
        "duplicate article_id",
        "article_id,year\np1,2004\np1,2004\np2,2005\np1,2005\n",
        "line 3, column 'article_id': duplicate article_id 'p1'",
        3,
        "article_id",
    ),
    # Which check fires first when a row breaks several.
    (
        "year before count",
        "year,count\n20x4,many\n",
        "line 2, column 'year': expected a 4-digit year, got '20x4'",
        2,
        "year",
    ),
    (
        "duplicate before count",
        "year,count\n2004,1\n2004,x\n",
        "line 3, column 'year': duplicate year 2004",
        3,
        "year",
    ),
    (
        "article_id before year",
        "article_id,year\n,20x4\n",
        "line 2, column 'article_id': article_id is empty",
        2,
        "article_id",
    ),
    (
        "duplicate article_id before year",
        "article_id,year\n p1,2004\np1 ,20x4\n",
        "line 3, column 'article_id': duplicate article_id 'p1'",
        3,
        "article_id",
    ),
    ("width before cells", "article_id,year\n,20x4,\n", "line 2: expected 2 fields, got 3", 2, None),
]


@pytest.mark.parametrize(
    "text, message, line, column", [case[1:] for case in PUBLICATIONS], ids=[case[0] for case in PUBLICATIONS]
)
def test_publications_refusal(text, message, line, column):
    err = _refusal(_pubs, text)
    assert (str(err), err.line, err.column) == (message, line, column)


CITATIONS = [
    ("empty file", "", "line 1: citations file is empty (missing header row)", 1, None),
    (
        "unknown header",
        "a,b,c,d\na1,2004,J,2005\n",
        "line 1: unrecognized citations header; expected "
        "'cited_article_id,cited_pub_year,citing_journal,citing_year[,citing_article_id]'",
        1,
        None,
    ),
    ("4 columns, 3 fields", H4 + "a1,2004,J,2005\na1,2004,J\n", "line 3: expected 4 fields, got 3", 3, None),
    ("4 columns, 5 fields", H4 + "a1,2004,J,2005,c1\n", "line 2: expected 4 fields, got 5", 2, None),
    ("5 columns, 4 fields", H5 + "a1,2004,J,2005\n", "line 2: expected 5 fields, got 4", 2, None),
    (
        "bad cited_pub_year",
        H4 + "a1,04,J,2005\n",
        "line 2, column 'cited_pub_year': expected a 4-digit year, got '04'",
        2,
        "cited_pub_year",
    ),
    (
        "bad citing_year",
        H4 + "a1,2004,J,２００５\n",
        "line 2, column 'citing_year': expected a 4-digit year, got '２００５'",
        2,
        "citing_year",
    ),
    (
        "bad year on a later row",
        H4 + "a1,2004,J,2005\na1,2oo5,J,2005\n",
        "line 3, column 'cited_pub_year': expected a 4-digit year, got '2oo5'",
        3,
        "cited_pub_year",
    ),
    (
        "empty cited_article_id",
        H4 + " ,2004,J,2005\n",
        "line 2, column 'cited_article_id': cited_article_id is empty",
        2,
        "cited_article_id",
    ),
    (
        "empty citing_journal",
        H5 + "a1,2004,   ,2005,c1\n",
        "line 2, column 'citing_journal': citing_journal is empty",
        2,
        "citing_journal",
    ),
    # Which check fires first when a row breaks several.
    (
        "cited_article_id first",
        H4 + ",04,,05\n",
        "line 2, column 'cited_article_id': cited_article_id is empty",
        2,
        "cited_article_id",
    ),
    (
        "cited_pub_year second",
        H4 + "a1,04,,05\n",
        "line 2, column 'cited_pub_year': expected a 4-digit year, got '04'",
        2,
        "cited_pub_year",
    ),
    (
        "citing_journal third",
        H4 + "a1,2004,,05\n",
        "line 2, column 'citing_journal': citing_journal is empty",
        2,
        "citing_journal",
    ),
]


@pytest.mark.parametrize("read", [_parsed, _indexed], ids=["parse_citations", "index_citations"])
@pytest.mark.parametrize(
    "text, message, line, column", [case[1:] for case in CITATIONS], ids=[case[0] for case in CITATIONS]
)
def test_citations_refusal(read, text, message, line, column):
    err = _refusal(read, text)
    assert (str(err), err.line, err.column) == (message, line, column)


@pytest.mark.parametrize("read", [_normalized, _indexed], ids=["normalize_journal_names", "index_citations"])
def test_a_journal_empty_after_normalization(read):
    err = _refusal(read, H4 + "a1,2004,Lancet,2005\n\na1,2004,...,2005\na2,2004,;,2006\n")
    assert (str(err), err.line, err.column) == (
        "line 4, column 'citing_journal': journal name is empty after normalization",
        4,
        "citing_journal",
    )


ALIASES = [
    ("empty file", "", "line 1: alias file is empty (missing header row)", 1, None),
    (
        "unknown header",
        "from,to\na,b\n",
        "line 1: unrecognized alias header; expected 'raw,canonical'",
        1,
        None,
    ),
    ("3 fields", "raw,canonical\nMJM,alpha,beta\n", "line 2: expected 2 fields, got 3", 2, None),
    ("1 field", "raw,canonical\nMJM,alpha\nMJM\n", "line 3: expected 2 fields, got 1", 3, None),
    ("empty raw", "raw,canonical\n ,alpha\n", "line 2, column 'raw': raw name is empty", 2, "raw"),
    (
        "empty canonical",
        "raw,canonical\nMJM,  \n",
        "line 2, column 'canonical': canonical name is empty",
        2,
        "canonical",
    ),
    ("raw before canonical", "raw,canonical\n,\n", "line 2, column 'raw': raw name is empty", 2, "raw"),
]


@pytest.mark.parametrize(
    "text, message, line, column", [case[1:] for case in ALIASES], ids=[case[0] for case in ALIASES]
)
def test_alias_refusal(text, message, line, column):
    err = _refusal(_aliases, text)
    assert (str(err), err.line, err.column) == (message, line, column)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "raw,canonical\nMJM,alpha\n\nMJM,beta\n",
            "line 4: alias 'MJM' maps to both 'alpha' and 'beta'",
        ),
        (
            "raw,canonical\nMJM,alpha\nmjm.,beta\n",
            "line 3: alias 'mjm' maps to both 'alpha' and 'beta'",
        ),
        (
            "raw,canonical\nMJM,alpha\n...,beta\n",
            "line 3: alias entry '...' -> 'beta' normalizes to an empty name",
        ),
        (
            "raw,canonical\nmjm.,beta\n\nMJM,alpha\nmjm.,beta\n",
            "line 4: alias 'mjm' maps to both 'beta' and 'alpha'",
        ),
        (
            "raw,canonical\nMJM,alpha\nmjm.,beta\nX,a\nX,b\n",
            "line 5: alias 'X' maps to both 'a' and 'b'",
        ),
    ],
    ids=[
        "raw spelling",
        "after normalization",
        "empty after normalization",
        "a repeated spelling names its first line",
        "a raw conflict outranks an earlier normalized one",
    ],
)
def test_alias_table_conflict(text, message):
    assert str(_refusal(_aliases, text, AliasTableError)) == message


@pytest.mark.parametrize(
    "table, message",
    [
        ({"MJM": "alpha", "mjm.": "beta"}, "alias 'mjm' maps to both 'alpha' and 'beta'"),
        ({"MJM": "alpha", "...": "beta"}, "alias entry '...' -> 'beta' normalizes to an empty name"),
    ],
    ids=["after normalization", "empty after normalization"],
)
def test_an_alias_dict_has_no_lines_to_name(table, message):
    for apply in (lambda: normalize_journal_names([], table), lambda: index_citations(io.StringIO(H4), table)):
        with pytest.raises(AliasTableError) as info:
            apply()
        assert str(info.value) == message


def test_an_alias_refusal_is_a_parse_error_at_its_line():
    assert issubclass(AliasTableError, ParseError)
    err = _refusal(_aliases, "raw,canonical\nMJM,alpha\nmjm.,beta\n")
    assert type(err) is AliasTableError
    assert (err.line, err.column) == (3, None)


def test_an_alias_dict_refusal_has_no_line():
    table = {"MJM": "alpha", "mjm.": "beta"}
    for apply in (lambda: normalize_journal_names([], table), lambda: index_citations(io.StringIO(H4), table)):
        with pytest.raises(ParseError) as info:
            apply()
        assert type(info.value) is AliasTableError
        assert info.value.line is None


OVERSIZED = f'"{"x" * 140_000}"'


@pytest.mark.parametrize(
    "read, text, line",
    [
        (_pubs, f"year,count\n2004,1\n{OVERSIZED},1\n", 3),
        (_parsed, f"{H4}a1,2004,{OVERSIZED},2005\n", 2),
        (_indexed, f"{H4}a1,2004,Lancet,2005\n\na1,2004,{OVERSIZED},2005\n", 4),
        (_indexed, f"{OVERSIZED},cited_pub_year,citing_journal,citing_year\n", 1),
        (_aliases, f"raw,canonical\n{OVERSIZED},lancet\n", 2),
    ],
    ids=["parse_publications", "parse_citations", "index_citations", "index_citations header", "load_alias_table"],
)
def test_an_oversized_field_is_a_parse_error_at_its_line(read, text, line):
    err = _refusal(read, text)
    assert (str(err), err.line, err.column) == (f"line {line}: field larger than field limit (131072)", line, None)


class TestAcceptedForms:
    """A byte-order mark, header case and padding, padded cells, blank rows
    and CRLF line ends are accepted by every reader alike."""

    def test_publications_counts(self):
        text = "﻿Year ,  COUNT \r\n\r\n 2004 , 3 \r\n\r\n2006,1\r\n"
        assert _pubs(text).counts == {2004: 3, 2005: 0, 2006: 1}

    def test_publications_counts_with_leading_zeros_up_to_the_limit(self):
        text = "year,count\n2004,007\n2005,1000000000000000000\n2006,000" + "0" * 30 + "12\n"
        assert _pubs(text).counts == {2004: 7, 2005: 10**18, 2006: 12}

    def test_a_byte_order_mark_then_a_space(self):
        assert _pubs("\ufeff year , count\n2004,3\n").counts == {2004: 3}
        assert _pubs(" \ufeff Article_ID,year\np1,2004\n").counts == {2004: 1}
        assert _aliases("\ufeff raw,canonical\nMJM,Med J Malaysia\n") == {"mjm": "med j malaysia"}

    def test_publications_articles(self):
        text = "﻿Article_ID ,Year \r\np1 , 2004\r\n\r\np2,2004\r\n"
        assert _pubs(text).counts == {2004: 2}

    def test_citations(self):
        text = (
            "﻿CITED_article_id , cited_pub_year,Citing_Journal,  citing_year  \r\n"
            "\r\n"
            " a1 ,2004, J. One ,2005\r\n"
        )
        [record] = _parsed(text)
        assert (record.cited_article_id, record.citing_journal_raw, record.source_line) == ("a1", "J. One", 3)

    def test_citations_with_id(self):
        text = H5.upper().replace("\n", "\r\n") + "a1,2004,J,2005, \r\n\r\n\r\na1,2006,J,2005,c1\r\n"
        first, second = _parsed(text)
        assert (first.citing_article_id, first.source_line) == (None, 2)
        assert (second.citing_article_id, second.source_line) == ("c1", 5)
        assert _indexed(text).backdated_lines == [5]

    def test_aliases(self):
        text = "﻿RAW , Canonical\r\n\r\n MJM. , Medical Journal of Malaysia \r\n"
        assert _aliases(text) == {"mjm": "medical journal of malaysia"}

    def test_blank_rows_count_toward_line_numbers(self):
        assert _refusal(_pubs, "year,count\n\n2004,1\n\n2004,2\n").line == 5
        assert _refusal(_parsed, H4 + "\n\na1,2004,J\n").line == 4
        assert _refusal(_aliases, "raw,canonical\n\n\nMJM\n").line == 4
