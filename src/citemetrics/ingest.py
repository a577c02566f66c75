"""Citation ingestion: CSV parsing, journal-name normalization, deduplication.

The pipeline turns two CSV files (publications and citation events) into a
publication ledger plus a clean set of citation events:

    parse_publications, parse_citations -> normalize_journal_names -> deduplicate_events

:func:`index_citations` does the same work on the citations file in one
pass and keeps only each cell's distinct events; the step functions above
are the reference it is tested against.

Citing-journal names arrive as free text, and distinct spellings of one
journal would inflate every unique-journal indicator downstream, so names are
normalized before any counting. Normalization is deliberately conservative
(no fuzzy matching); genuinely different spellings of the same journal are
reconciled through an explicit alias table supplied by the caller.

The ledger (:class:`PublicationLedger`) and the count limit (``MAX_COUNT``)
belong to the data model in :mod:`citemetrics.matrix`; they are imported
here, so ``citemetrics.ingest.PublicationLedger`` still resolves. Only
``citemetrics ingest`` loads this module; the other commands never do.
"""

from __future__ import annotations

import csv
import string
from dataclasses import dataclass, field
from operator import itemgetter
from typing import IO, Iterable, Iterator, Mapping

from .errors import AliasTableError, ParseError
from .matrix import MAX_COUNT, PublicationLedger

PUBLICATIONS_COUNT_HEADER = ("year", "count")
PUBLICATIONS_ARTICLE_HEADER = ("article_id", "year")
CITATIONS_HEADER = ("cited_article_id", "cited_pub_year", "citing_journal", "citing_year")
CITATIONS_HEADER_WITH_ID = CITATIONS_HEADER + ("citing_article_id",)

# Stripped from the tail of a normalized name. ASCII only, on purpose:
# terminal "." and ";" are data-entry noise, exotic punctuation is not ours
# to guess about.
_TRAILING_JUNK = string.punctuation + " "


@dataclass(frozen=True)
class RawCitationRecord:
    """One citation row exactly as parsed, before normalization."""

    cited_article_id: str
    cited_pub_year: int
    citing_journal_raw: str
    citing_year: int
    citing_article_id: str | None = None
    source_line: int = 0


@dataclass(frozen=True)
class JournalId:
    """A canonical journal identity plus the raw spellings mapped onto it.

    Equality and hashing use only the canonical name, so two JournalIds built
    from different alias sets still collapse to one journal in set arithmetic.
    """

    canonical_name: str
    aliases: frozenset[str] = field(default_factory=frozenset, compare=False)


@dataclass(frozen=True)
class CitationEvent:
    """One citation of one article by one (canonicalized) journal."""

    cited_article_id: str
    cited_pub_year: int
    citing_journal: JournalId
    citing_year: int
    citing_article_id: str | None = None


def _table(stream: IO[str], what: str, layouts: tuple[tuple[str, ...], ...], expected: str):
    """Read the header row of the ``what`` CSV, lower-cased, without a
    leading byte-order mark and trimmed on either side of it, and return the
    csv reader with the header, which must be one of ``layouts``. A record
    the csv module refuses (an oversized field, say), here, in :func:`_rows`
    or in :func:`_citation_rows`, is a :class:`ParseError` at its line."""
    reader = csv.reader(stream)
    try:
        header = tuple(cell.strip().lstrip("\ufeff").strip().lower() for cell in next(reader))
    except StopIteration:
        raise ParseError(f"{what} file is empty (missing header row)", line=1) from None
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if header not in layouts:
        raise ParseError(f"unrecognized {what} header; expected {expected}", line=1)
    return reader, header


def _rows(reader, width: int) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, row)`` for each non-empty row, which must have ``width``
    fields. The fields are untrimmed: each caller trims those it reads.
    Blank rows are skipped but still count as lines."""
    try:
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise ParseError(f"expected {width} fields, got {len(row)}", line=reader.line_num)
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def _parse_year(text: str, *, line: int, column: str) -> int:
    if not (len(text) == 4 and text.isascii() and text.isdigit()):
        raise ParseError(f"expected a 4-digit year, got {text!r}", line=line, column=column)
    return int(text)


def _parse_count(text: str, *, line: int, column: str) -> int:
    """A count is ASCII digits, at most MAX_COUNT, so ``ingest`` writes only
    counts the fixture loader reads back."""
    if text.isascii() and text.isdigit():
        # int() refuses more than 4300 digits; past 19 significant digits
        # the count is over the limit anyway.
        if len(text.lstrip("0")) <= 19 and (n := int(text)) <= MAX_COUNT:
            return n
        raise ParseError("count is above the limit of 10**18", line=line, column=column)
    try:
        n = int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", line=line, column=column) from None
    if n < 0:
        raise ParseError(f"count must be non-negative, got {n}", line=line, column=column)
    raise ParseError(f"expected a count of ASCII digits only, got {text!r}", line=line, column=column)


def parse_publications(stream: IO[str]) -> PublicationLedger:
    """Parse a publications CSV.

    Two layouts are accepted, distinguished by the header row: aggregated
    counts (``year,count``) or one row per article (``article_id,year``),
    each year or article id at most once. Years missing from the middle of
    the observed span get a zero count, so the ledger is always contiguous.
    """
    reader, header = _table(
        stream,
        "publications",
        (PUBLICATIONS_COUNT_HEADER, PUBLICATIONS_ARTICLE_HEADER),
        "'year,count' or 'article_id,year'",
    )
    per_article = header == PUBLICATIONS_ARTICLE_HEADER
    counts: dict[int, int] = {}
    articles: set[str] = set()
    for line, (first, second) in _rows(reader, 2):
        first, second = first.strip(), second.strip()
        if per_article:
            if not first:
                raise ParseError("article_id is empty", line=line, column="article_id")
            if first in articles:
                raise ParseError(f"duplicate article_id {first!r}", line=line, column="article_id")
            articles.add(first)
            year = _parse_year(second, line=line, column="year")
            counts[year] = counts.get(year, 0) + 1
        else:
            year = _parse_year(first, line=line, column="year")
            if year in counts:
                raise ParseError(f"duplicate year {year}", line=line, column="year")
            counts[year] = _parse_count(second, line=line, column="count")
    if counts:
        lo, hi = min(counts), max(counts)
        counts = {y: counts.get(y, 0) for y in range(lo, hi + 1)}
    return PublicationLedger(counts)


def _citation_rows(stream: IO[str]) -> Iterator[tuple[int, str, int, str, int, str | None]]:
    """Yield ``(line, cited_article_id, cited_pub_year, citing_journal_raw,
    citing_year, citing_article_id)`` for each data row of a citations CSV,
    after every header, width, year and empty-field check.

    The one place those checks live. It reads each row of :func:`_rows`
    in place, each field trimmed where it is read, so a row costs no list
    of its own."""
    reader, header = _table(
        stream,
        "citations",
        (CITATIONS_HEADER, CITATIONS_HEADER_WITH_ID),
        "'cited_article_id,cited_pub_year,citing_journal,citing_year[,citing_article_id]'",
    )
    width = len(header)
    with_id = width == 5
    # A corpus repeats a few dozen year strings over all its rows, so each
    # distinct string is checked and converted once.
    years: dict[str, int] = {}
    for line, row in _rows(reader, width):
        cited_article_id = row[0].strip()
        if not cited_article_id:
            raise ParseError("cited_article_id is empty", line=line, column="cited_article_id")
        pub_text = row[1].strip()
        cited_pub_year = years.get(pub_text)
        if cited_pub_year is None:
            cited_pub_year = _parse_year(pub_text, line=line, column="cited_pub_year")
            years[pub_text] = cited_pub_year
        journal = row[2].strip()
        if not journal:
            raise ParseError("citing_journal is empty", line=line, column="citing_journal")
        cite_text = row[3].strip()
        citing_year = years.get(cite_text)
        if citing_year is None:
            citing_year = _parse_year(cite_text, line=line, column="citing_year")
            years[cite_text] = citing_year
        citing_article_id = (row[4].strip() or None) if with_id else None
        yield line, cited_article_id, cited_pub_year, journal, citing_year, citing_article_id


def parse_citations(stream: IO[str]) -> list[RawCitationRecord]:
    """Parse a citations CSV into raw records, one per data row.

    The header decides whether the optional ``citing_article_id`` column is
    present; when it is, an empty cell means "identifier unknown". Rows are
    kept in file order and remember their line number for later diagnostics.
    """
    return [
        RawCitationRecord(cited, pub_year, journal, cite_year, citing_id, line)
        for line, cited, pub_year, journal, cite_year, citing_id in _citation_rows(stream)
    ]


def normalize_journal_name(raw: str) -> str:
    """Canonical form of a citing-journal string.

    Case-folds, collapses whitespace runs to single spaces, trims the ends,
    and strips trailing ASCII punctuation ("Lancet." and "lancet" agree).
    Interior punctuation is kept; reconciling abbreviations or alternate
    titles is the alias table's job, not this function's. The result is
    stable under re-normalization.
    """
    return " ".join(raw.casefold().split()).rstrip(_TRAILING_JUNK)


def _normalize_alias_table(
    alias_table: Mapping[str, str], lines: Mapping[str, int] | None = None
) -> dict[str, str]:
    """Normalize both sides of each alias entry. ``lines`` gives the alias
    file's line for each raw spelling, which a refusal then names."""
    normalized: dict[str, str] = {}
    for raw, canonical in alias_table.items():
        line = lines[raw] if lines else None
        key = normalize_journal_name(raw)
        value = normalize_journal_name(canonical)
        if not key or not value:
            raise AliasTableError(f"alias entry {raw!r} -> {canonical!r} normalizes to an empty name", line=line)
        if normalized.get(key, value) != value:
            raise AliasTableError(f"alias {key!r} maps to both {normalized[key]!r} and {value!r}", line=line)
        normalized[key] = value
    return normalized


def load_alias_table(stream: IO[str]) -> dict[str, str]:
    """Read a ``raw,canonical`` CSV into a normalized alias mapping."""
    reader, _ = _table(stream, "alias", (("raw", "canonical"),), "'raw,canonical'")
    table: dict[str, str] = {}
    lines: dict[str, int] = {}  # each raw spelling's first line
    for line, (raw, canonical) in _rows(reader, 2):
        raw, canonical = raw.strip(), canonical.strip()
        if not raw:
            raise ParseError("raw name is empty", line=line, column="raw")
        if not canonical:
            raise ParseError("canonical name is empty", line=line, column="canonical")
        if table.get(raw, canonical) != canonical:
            raise AliasTableError(f"alias {raw!r} maps to both {table[raw]!r} and {canonical!r}", line=line)
        table[raw] = canonical
        lines.setdefault(raw, line)
    return _normalize_alias_table(table, lines)


def normalize_journal_names(
    records: Iterable[RawCitationRecord],
    alias_table: Mapping[str, str] | None = None,
) -> tuple[set[JournalId], list[CitationEvent]]:
    """Resolve raw journal spellings to canonical identities.

    Every record's journal string is normalized and then, if the normalized
    form appears in the alias table, replaced by its canonical target (one
    application, no chaining). Returns the set of distinct journals and the
    records re-expressed as events, in input order.
    """
    records = list(records)
    overrides = _normalize_alias_table(alias_table) if alias_table else {}
    spellings: dict[str, set[str]] = {}
    resolved: list[str] = []
    for record in records:
        base = normalize_journal_name(record.citing_journal_raw)
        canonical = overrides.get(base, base)
        if not canonical:
            raise ParseError(
                "journal name is empty after normalization",
                line=record.source_line,
                column="citing_journal",
            )
        spellings.setdefault(canonical, set()).add(record.citing_journal_raw)
        resolved.append(canonical)
    journals = {
        name: JournalId(name, frozenset(raws)) for name, raws in spellings.items()
    }
    events = [
        CitationEvent(
            cited_article_id=record.cited_article_id,
            cited_pub_year=record.cited_pub_year,
            citing_journal=journals[name],
            citing_year=record.citing_year,
            citing_article_id=record.citing_article_id,
        )
        for record, name in zip(records, resolved)
    ]
    return set(journals.values()), events


def deduplicate_events(events: Iterable[CitationEvent]) -> tuple[set[CitationEvent], int]:
    """Drop exact duplicate events. Returns the survivors and the removed count.

    Two events are duplicates only when every field agrees, including
    ``citing_article_id``; two citing articles in the same journal and year
    are real, distinct citations and both survive.
    """
    events = list(events)
    unique = set(events)
    return unique, len(events) - len(unique)


def backdated_records(records: Iterable[RawCitationRecord]) -> list[RawCitationRecord]:
    """Records whose citing year precedes the cited publication year.

    These are usually data errors (or early online versions); they are kept,
    and callers decide whether to report them.
    """
    return [r for r in records if r.citing_year < r.cited_pub_year]


@dataclass(frozen=True)
class CitationIndex:
    """What one pass over a citations CSV leaves behind.

    ``cell_counts`` and ``cell_journals`` are keyed by (citing year, cited
    publication year) and cover every distinct event, including those whose
    cell will fall outside the matrix: a cell's count is the number of its
    distinct events, and its journals are their citing journals, as
    interned ints, one per canonical name. ``cite_years`` spans the citing
    years of those events (None when there are none); ``backdated_lines``
    lists, in file order, the line of every row citing before its
    publication year, duplicates included, as :func:`backdated_records`
    does.
    """

    rows: int
    duplicates: int
    backdated_lines: list[int]
    cite_years: tuple[int, int] | None
    cell_counts: dict[tuple[int, int], int]
    cell_journals: dict[tuple[int, int], set[int]]


def index_citations(stream: IO[str], alias_table: Mapping[str, str] | None = None) -> CitationIndex:
    """Parse, normalize, deduplicate and tally a citations CSV in one pass.

    Reads each row once and keeps, per (citing year, publication year)
    cell, the set of its distinct events, ``(cited, journal, citing_id)``:
    the cell and those three fields are every field of an event, and every
    count the matrix and its augmentations take is of one cell's distinct
    events or journals. There is no set of every row. After the pass each
    cell's set is popped as it is tallied into its count and its journals.

    The same result as :func:`parse_citations`,
    :func:`normalize_journal_names`, :func:`deduplicate_events` and
    :func:`backdated_records` in sequence, which remain the reference it is
    tested against. Every check and
    message is theirs, in the same order: a row whose journal name
    normalizes to empty is reported only after the whole file has parsed.
    """
    overrides = _normalize_alias_table(alias_table) if alias_table else {}
    journal_ids: dict[str, int] = {}  # canonical name -> interned id
    spellings: dict[str, int] = {}  # raw spelling -> interned id
    # Each cell's distinct events, (cited, journal, citing_id).
    cells: dict[tuple[int, int], set[tuple[str, int, str | None]]] = {}
    backdated: list[int] = []
    rows = 0
    empty_line = None
    for line, cited, pub_year, raw, cite_year, citing_id in _citation_rows(stream):
        rows += 1
        if cite_year < pub_year:
            backdated.append(line)
        journal = spellings.get(raw)
        if journal is None:
            base = normalize_journal_name(raw)
            canonical = overrides.get(base, base)
            if not canonical:
                if empty_line is None:
                    empty_line = line
                continue
            journal = spellings[raw] = journal_ids.setdefault(canonical, len(journal_ids))
        cell = (cite_year, pub_year)
        events = cells.get(cell)
        if events is None:
            cells[cell] = {(cited, journal, citing_id)}
        else:
            events.add((cited, journal, citing_id))
    if empty_line is not None:
        raise ParseError(
            "journal name is empty after normalization", line=empty_line, column="citing_journal"
        )
    counts: dict[tuple[int, int], int] = {}
    journals: dict[tuple[int, int], set[int]] = {}
    for cell in list(cells):
        events = cells.pop(cell)  # freed as the tallies grow
        counts[cell] = len(events)
        journals[cell] = set(map(itemgetter(1), events))
    return CitationIndex(
        rows=rows,
        duplicates=rows - sum(counts.values()),
        backdated_lines=backdated,
        cite_years=(min(counts)[0], max(counts)[0]) if counts else None,
        cell_counts=counts,
        cell_journals=journals,
    )
