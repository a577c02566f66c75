"""The benchmark's workloads: corpus shapes, time split and request mix.

Every workload runs one client in a closed loop (the next call starts when
the previous one returns), first an ingest phase and then a query phase,
each for its share of the run. So every end-to-end metric is measured on
every workload, while the share tells which layers the workload stresses:

* ingest_bulk: the ROADMAP corpus (200k rows, 30 publication years, ~5k
  journals with Zipf-distributed citing frequency, 10% spelling variants).
  Parse, normalize, dedup and the two augmentation scans do nearly all the
  work; few spellings over many rows is where a normalize memo or a single
  pass would show. Queries run on the fixture it writes.
* query_narrow: a 30-year fixture. Per-request fixed costs dominate
  (argparse, JSON parse, validation, rendering) and the grid is small, so a
  sparse-grid change should barely move it.
* query_wide: a 150-year fixture with few citations per cell and ~50k
  evenly cited journals. Dense zero-fill in load_fixture and the
  O(years^2) report dominate; this is where sparse cells would show.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gen import Shape
from oracle import KINDS

HUGE_WINDOW = 10**5  # exposes O(window) list building without risking memory
HUGE_WINDOW_KINDS = ("sync_if", "diach_if", "diach_jdf")
REPORT_SHARE = 0.3  # share of query-phase requests that are reports


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    ingest_share: float  # share of the run spent in the ingest phase
    # Percentiles reported as metric_tail_ms and report_tail_ms: each leaves
    # at least 20 samples beyond it in a slow run, so the percentile itself
    # does not change with machine speed, and none sits on the knee where a
    # rarer, slower population (10^5-year windows, collector passes) begins.
    metric_tail: float
    report_tail: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest_bulk",
            "200k-row ROADMAP corpus: parse, normalize, dedup and the augmentation scans dominate",
            Shape(rows=200_000, journals=5_000, pub_years=(1990, 2019), last_cite_year=2021,
                  articles=(400, 1200), zipf=1.0, cell_uniform=False),
            ingest_share=0.7, metric_tail=90, report_tail=90,
        ),
        Workload(
            "query_narrow",
            "30-year fixture: per-request fixed costs (argparse, JSON, validation, rendering) dominate",
            Shape(rows=20_000, journals=2_000, pub_years=(1990, 2019), last_cite_year=2021,
                  articles=(40, 300), zipf=1.0, cell_uniform=False, zero_pub_years=1),
            ingest_share=0.15, metric_tail=99, report_tail=90,
        ),
        Workload(
            "query_wide",
            "150-year sparse fixture: dense zero-fill in load_fixture and the O(years^2) report dominate",
            Shape(rows=60_000, journals=50_000, pub_years=(1870, 2019), last_cite_year=2021,
                  articles=(40, 120), zipf=None, cell_uniform=True, zero_pub_years=1),
            ingest_share=0.25, metric_tail=90, report_tail=75,
        ),
    )
}


def scaled(workload: Workload, scale: float) -> Shape:
    """The workload's corpus shape with its row and journal counts scaled."""
    s = workload.shape
    return Shape(**{**s.__dict__, "rows": max(200, int(s.rows * scale)),
                    "journals": max(20, int(s.journals * scale))})


def query_schedule(seed: int, pubs: dict[int, int], cite_span: tuple[int, int]):
    """Distinct requests and the seeded order the closed loop cycles through.

    A request is a dict the runner turns into CLI arguments; the order is a
    list of request indices. The mix covers all seven kinds, years inside and
    just outside the spans, windows 1, 2, 5, max, span+10 and (rarely) 10^5,
    clipping on and off, text and structured metric output, and csv, table
    and structured reports. Reports are spread evenly through the order, so
    a run that ends part-way through it still has the intended mix.
    """
    rng = random.Random(seed)
    lo, hi = min(min(pubs), cite_span[0]), max(max(pubs), cite_span[1])
    span = hi - lo + 1
    requests = []
    for kind in KINDS:
        for window in (1, 2, 5, None, span + 10):
            for clip in (True, False):
                for structured in (False, True):
                    requests.append(_metric(rng, kind, window, clip, structured, lo, hi))
    # The 10^5-year windows all take the same (slowest) path, so they form
    # one population at the top of the latency distribution: a year with
    # articles inside both spans, clipping off, so the window is built and
    # then rejected.
    inside = [y for y, n in pubs.items() if n and cite_span[0] <= y <= cite_span[1]]
    for kind in HUGE_WINDOW_KINDS:
        requests.append({**_metric(rng, kind, HUGE_WINDOW, False, False, lo, hi), "year": rng.choice(inside)})
    n_metric = len(requests)
    for fmt in ("csv", "table", "structured"):
        requests.append({"op": "report", "format": fmt})
    metric_order = list(range(n_metric))
    rng.shuffle(metric_order)
    per_metric = REPORT_SHARE / (1 - REPORT_SHARE)
    order = []
    for n, index in enumerate(metric_order):
        order.append(index)
        if int((n + 1) * per_metric) > int(n * per_metric):
            order.append(n_metric + int(n * per_metric) % 3)
    return requests, order


def _metric(rng, kind, window, clip, structured, lo, hi):
    year = rng.randint(lo, hi) if rng.random() < 0.85 else rng.choice((lo - 2, lo - 1, hi + 1, hi + 3))
    return {
        "op": "metric",
        "kind": kind,
        "year": year,
        "window": window,
        "shift": rng.choice((0, 1, 2)) if kind == "diach_if" else 1,
        "clip": clip,
        "precision": rng.choice((2, 2, 3, 0)),
        "structured": structured,
    }
