"""Seeded synthetic corpora with their ground truth.

A corpus is the three CSV files ``citemetrics ingest`` reads (publications,
citations in the 5-column layout, alias table) plus what the benchmark needs
to check the program without trusting it: the true journal of every row and
the planted duplicate, backdated and out-of-span counts.

Every journal has a title-case spelling, an upper-case spelling with a
trailing "." (the program's normalization must fold it back), and a few have
an abbreviation that only the alias table resolves. Planted rows:

* duplicates: copies of earlier rows, often under another spelling of the
  same journal, so deduplication only works after normalization;
* backdated: citing year one or two years before the cited publication year;
* out of span: cited publication year before the ledger's first year, so the
  program clips them.

Stray publication years (say a lone ``9999`` row) are never generated: they
re-size the dense grid into a different workload altogether.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

_PREFIXES = ("Journal of", "Annals of", "Review of", "Acta", "Bulletin of", "Letters in")
_ABBREVIATIONS = ("J.", "Ann.", "Rev.", "Act.", "Bull.", "Lett.")
_TOPICS = (
    "Chemistry", "Physics", "Biology", "Ecology", "Economics", "Medicine",
    "Geology", "Statistics", "Informetrics", "Linguistics", "Optics", "Botany",
    "Zoology", "Genetics", "Robotics", "Acoustics", "Hydrology", "Topology",
    "Virology", "Archaeology", "Astronomy", "Logic", "Mechanics", "Nutrition",
)
ALIAS_SHARE = 0.3  # share of an aliased journal's rows written under its abbreviation
ALIASED_JOURNALS = 40  # drawn from the first 400 journals, the most cited under Zipf
UNUSED_ALIASES = 8  # alias rows whose spelling never occurs
VARIANT_SHARE = 0.10  # rows spelled upper-case with a trailing "."
ANONYMOUS_SHARE = 0.05  # rows with an empty citing_article_id
DUPLICATE_SHARE = 0.01
BACKDATED_SHARE = 0.005
OUT_OF_SPAN_SHARE = 0.005


@dataclass(frozen=True)
class Shape:
    """Size and distribution of one corpus."""

    rows: int  # citation data rows, planted rows included
    journals: int
    pub_years: tuple[int, int]
    last_cite_year: int
    articles: tuple[int, int]  # per-year article count range
    zipf: float | None  # journal popularity exponent; None draws journals uniformly
    cell_uniform: bool  # draw the (citing, published) cell uniformly instead of by lag
    zero_pub_years: int = 0  # years inside the span with no articles


@dataclass
class Truth:
    """What the corpus contains, independent of the program."""

    pubs: dict[int, int]
    # (cited_article_id, cited_pub_year, true journal index, citing_year, citing_article_id or None)
    rows: list[tuple[str, int, int, int, str | None]]
    duplicates: int
    backdated: int
    out_of_span: int


def _journal_spellings(index: int) -> tuple[str, str, str]:
    prefix = index % len(_PREFIXES)
    topic = _TOPICS[(index // len(_PREFIXES)) % len(_TOPICS)]
    title = f"{_PREFIXES[prefix]} {topic} {index}"
    abbreviation = f"{_ABBREVIATIONS[prefix]} {topic[:5]}. {index}"
    return title, title.upper() + ".", abbreviation


def generate(shape: Shape, seed: int, out_dir: Path) -> Truth:
    """Write pubs.csv, cites.csv and aliases.csv into ``out_dir``."""
    rng = random.Random(seed)
    first, last = shape.pub_years
    years = list(range(first, last + 1))
    pubs = {y: rng.randint(*shape.articles) for y in years}
    inner = years[1:-1]
    for y in rng.sample(inner, min(shape.zero_pub_years, len(inner))):
        pubs[y] = 0
    cited_years = [y for y in years if pubs[y]]

    n_dup = int(shape.rows * DUPLICATE_SHARE)
    n_back = int(shape.rows * BACKDATED_SHARE)
    n_out = int(shape.rows * OUT_OF_SPAN_SHARE)
    n_normal = shape.rows - n_dup - n_back - n_out

    if shape.zipf is None:
        journals = [rng.randrange(shape.journals) for _ in range(n_normal + n_back + n_out)]
    else:
        acc, cum = 0.0, []
        for j in range(shape.journals):
            acc += 1.0 / (j + 1) ** shape.zipf
            cum.append(acc)
        journals = rng.choices(range(shape.journals), cum_weights=cum, k=n_normal + n_back + n_out)

    if shape.cell_uniform:
        cells = [(k, i) for i in cited_years for k in range(i, shape.last_cite_year + 1)]
        normal_cells = rng.choices(cells, k=n_normal)
    else:
        pub_draw = rng.choices(cited_years, weights=[pubs[y] for y in cited_years], k=n_normal)
        normal_cells = [
            (min(i + int(rng.expovariate(0.35)), shape.last_cite_year), i) for i in pub_draw
        ]

    rows: list[tuple[str, int, int, int, str | None]] = []
    seen_anonymous: set[tuple] = set()
    serial = 0

    def add(i: int, k: int, journal: int, anonymous: bool) -> None:
        nonlocal serial
        serial += 1
        while True:
            article = f"a{i}-{rng.randrange(max(pubs.get(i, 0), 50))}"
            if not anonymous:
                rows.append((article, i, journal, k, f"c{serial}"))
                return
            key = (article, i, journal, k)
            if key not in seen_anonymous:
                seen_anonymous.add(key)
                rows.append((article, i, journal, k, None))
                return

    draws = iter(journals)
    for k, i in normal_cells:
        add(i, k, next(draws), rng.random() < ANONYMOUS_SHARE)
    backdatable = [y for y in cited_years if y - 2 >= first]
    for _ in range(n_back):
        i = rng.choice(backdatable)
        add(i, i - rng.randint(1, 2), next(draws), False)
    for _ in range(n_out):
        add(first - rng.randint(1, 5), rng.randint(first, shape.last_cite_year), next(draws), False)
    rows.extend(rows[s] for s in rng.sample(range(n_normal), n_dup))
    rng.shuffle(rows)

    aliased = set(rng.sample(range(min(shape.journals, 400)), min(ALIASED_JOURNALS, shape.journals)))
    spelled = []
    for article, i, journal, k, cid in rows:
        title, upper, abbreviation = _journal_spellings(journal)
        r = rng.random()
        if r < VARIANT_SHARE:
            name = upper
        elif journal in aliased and r < VARIANT_SHARE + ALIAS_SHARE:
            name = abbreviation
        else:
            name = title
        spelled.append(f"{article},{i},{name},{k},{cid or ''}\n")

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "pubs.csv").write_text(
        "year,count\n" + "".join(f"{y},{pubs[y]}\n" for y in years), encoding="utf-8"
    )
    (out_dir / "cites.csv").write_text(
        "cited_article_id,cited_pub_year,citing_journal,citing_year,citing_article_id\n"
        + "".join(spelled),
        encoding="utf-8",
    )
    alias_lines = ["raw,canonical\n"]
    for journal in sorted(aliased):
        title, _, abbreviation = _journal_spellings(journal)
        alias_lines.append(f"{abbreviation},{title}\n")
    for n in range(UNUSED_ALIASES):
        alias_lines.append(f"Unused Abbrev. {n},Never Cited Journal {n}\n")
    (out_dir / "aliases.csv").write_text("".join(alias_lines), encoding="utf-8")

    return Truth(
        pubs=pubs,
        rows=rows,
        duplicates=n_dup,
        backdated=n_back,
        out_of_span=n_out,
    )
