"""Shared builders and independent rendering helpers for the test suite.

The rendering helpers go through the decimal module on purpose: the package
renders with integer arithmetic, so agreement between the two is itself a
check that neither side smuggles in binary floating point.
"""

from __future__ import annotations

import random
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal, localcontext

from hypothesis import strategies as st

from citemetrics.errors import UndefinedMetricError
from citemetrics.ingest import MAX_COUNT, CitationEvent, JournalId, PublicationLedger
from citemetrics.matrix import (
    ROW,
    augment_diachronous,
    augment_synchronous,
    build_pc_matrix,
)
from citemetrics.metrics import _line_windows


def journal(name: str) -> JournalId:
    return JournalId(name)


def ev(journal_name, citing_year, pub_year, cid=None, cited="art"):
    """Terse event constructor for literal test data."""
    return CitationEvent(
        cited_article_id=cited,
        cited_pub_year=pub_year,
        citing_journal=JournalId(journal_name),
        citing_year=citing_year,
        citing_article_id=cid,
    )


def build_all(events, ledger, pub_span, cite_span):
    matrix = build_pc_matrix(events, ledger, pub_span, cite_span)
    return matrix, augment_synchronous(matrix, events), augment_diachronous(matrix, events)


def line_window(matrix, axis, line, start, window, clip):
    """The window ``_line_windows`` reads over ``matrix``'s span of the years
    read for one line, with its refusal raised."""
    span = matrix.pub_years if axis == ROW else matrix.cite_years
    (cells,) = _line_windows(axis, span, [line], [start], window, clip)
    if isinstance(cells, UndefinedMetricError):
        raise cells
    return cells


def random_corpus(rng: random.Random, big: bool = False):
    """A randomized event set with its ledger and spans.

    Bounds: at most 50 journals, 8 distinct years, 2000 events (250 unless
    ``big``). Event years deliberately spill one year past the spans so that
    clipping and backdated cells both occur.
    """
    base = 2000
    span = rng.randint(1, 8)
    pub_lo, pub_hi = sorted((rng.randrange(base, base + span), rng.randrange(base, base + span)))
    cite_lo, cite_hi = sorted((rng.randrange(base, base + span), rng.randrange(base, base + span)))
    journals = [JournalId(f"j{i:02d}") for i in range(rng.randint(1, 50))]
    events = []
    for idx in range(rng.randint(0, 2000 if big else 250)):
        pub_year = rng.randint(pub_lo - 1, pub_hi + 1)
        citing_year = rng.randint(cite_lo - 1, cite_hi + 1)
        events.append(
            CitationEvent(
                cited_article_id=f"a{pub_year}",
                cited_pub_year=pub_year,
                citing_journal=rng.choice(journals),
                citing_year=citing_year,
                citing_article_id=f"c{idx}",
            )
        )
    ledger = PublicationLedger({y: rng.randint(0, 40) for y in range(pub_lo, pub_hi + 1)})
    return events, ledger, (pub_lo, pub_hi), (cite_lo, cite_hi)


@st.composite
def augmented_matrices(draw):
    """A matrix and both augmentations over a corpus ``random_corpus`` makes
    from a drawn seed, with up to three publication years drawn to hold no
    articles."""
    events, ledger, pub_span, cite_span = random_corpus(random.Random(draw(st.integers(0, 2**32 - 1))))
    counts = dict(ledger.counts)
    for year in draw(st.lists(st.sampled_from(sorted(counts)), max_size=3)):
        counts[year] = 0
    return build_all(events, PublicationLedger(counts), pub_span, cite_span)


@st.composite
def loadable_documents(draw, years=st.integers(-99_999, 99_999)):
    """Fixture documents that ``load_document`` accepts, their first
    publication year drawn from ``years``: triples inside the spans, one per
    cell, counts up to 10**18, and unique-new entries that are not backdated
    and at most the citations at their cell."""
    pub_lo = draw(years)
    pub_years = [pub_lo, pub_lo + draw(st.integers(0, 3))]
    cite_lo = pub_lo + draw(st.integers(-2, 2))
    cite_years = [cite_lo, cite_lo + draw(st.integers(0, 3))]
    count = st.integers(0, MAX_COUNT)
    pubs = range(pub_years[0], pub_years[1] + 1)
    cells = [(k, i) for k in range(cite_years[0], cite_years[1] + 1) for i in pubs]
    citations = draw(st.dictionaries(st.sampled_from(cells), count, max_size=len(cells)))
    doc = {
        "pub_years": pub_years,
        "cite_years": cite_years,
        "publications": {str(y): draw(count) for y in pubs},
        "citations": [[k, i, n] for (k, i), n in citations.items()],
    }
    forward = [(k, i) for k, i in cells if k >= i]
    for name in ("unique_new_sync", "unique_new_diach"):
        if forward and draw(st.booleans()):
            chosen = draw(st.lists(st.sampled_from(forward), unique=True))
            doc[name] = [[k, i, draw(st.integers(0, citations.get((k, i), 0)))] for k, i in chosen]
    return doc


def column_events(pub_year, rows):
    """Events for a single publication-year column with prescribed counts.

    ``rows`` lists (citing_year, citations, first_appearances) going forward
    in time; repeats beyond the first appearances are assigned to an
    already-introduced journal, so the diachronous scan reproduces the
    prescription exactly.
    """
    events = []
    introduced: list[JournalId] = []
    serial = 0
    for citing_year, total, new in rows:
        assert 0 <= new <= total, "cannot have more first appearances than citations"
        fresh = [JournalId(f"q{citing_year}n{i}") for i in range(new)]
        for j in fresh:
            events.append(CitationEvent("art", pub_year, j, citing_year, f"s{serial}"))
            serial += 1
        if total > new:
            pool = introduced + fresh
            assert pool, "repeat citations need at least one journal introduced"
            for _ in range(total - new):
                events.append(CitationEvent("art", pub_year, pool[0], citing_year, f"s{serial}"))
                serial += 1
        introduced.extend(fresh)
    return events


def runs_text(years) -> str:
    """Distinct years as sorted runs of consecutive years, ``"2002–2003,
    2011"``, found by a linear scan: the reference for ``YearRuns`` text."""
    runs = []
    for year in sorted(years):
        if runs and year == runs[-1][1] + 1:
            runs[-1][1] = year
        else:
            runs.append([year, year])
    return ", ".join(str(lo) if lo == hi else f"{lo}–{hi}" for lo, hi in runs)


def decimal_text(numerator: int, denominator: int, places: int, rounding) -> str:
    with localcontext() as ctx:
        ctx.prec = 60
        quotient = Decimal(numerator) / Decimal(denominator)
        return str(quotient.quantize(Decimal(1).scaleb(-places), rounding=rounding))


def matches_printed(numerator: int, denominator: int, printed: str) -> bool:
    """True when the fraction reproduces the printed digits under half-up
    rounding or plain truncation at the printed precision (reference values
    demonstrably mix the two)."""
    places = len(printed.partition(".")[2])
    return printed in {
        decimal_text(numerator, denominator, places, ROUND_HALF_UP),
        decimal_text(numerator, denominator, places, ROUND_DOWN),
    }
