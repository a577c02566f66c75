"""Independent oracle: expected fixtures, summaries and query answers.

Everything here is computed from the generator's ground truth and imports
nothing from ``citemetrics``. Where the program scans (newest-first rows,
earliest-first columns), the oracle instead records, per journal, the one
cell where it first appears, so the two sides share no algorithm.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from decimal import ROUND_HALF_UP, Decimal, localcontext

from gen import Truth

KINDS = ("garfield_if", "sync_if", "diach_if", "sync_jdf", "diach_jdf", "sync_rdf", "diach_rdf")
REPORT_COLUMNS = (
    # name, kind, window, shift, clip, precision
    ("garfield_if", "garfield_if", None, 1, True, 2),
    ("sync_if2", "sync_if", 2, 1, False, 2),
    ("diach_if2s1", "diach_if", 2, 1, True, 2),
    ("sync_rdf_max", "sync_rdf", None, 1, True, 2),
    ("diach_rdf_max", "diach_rdf", None, 1, True, 2),
    ("sync_jdf_max", "sync_jdf", None, 1, True, 3),
    ("diach_jdf_max", "diach_jdf", None, 1, True, 2),
)
SUMMARY_BACKDATED_LINES = 20


def half_up(numerator: int, denominator: int, precision: int) -> str:
    with localcontext() as ctx:
        ctx.prec = 80
        quantum = Decimal(1).scaleb(-precision)
        return f"{(Decimal(numerator) / Decimal(denominator)).quantize(quantum, rounding=ROUND_HALF_UP):f}"


class Expected:
    """The matrix, both augmentations and the ingest summary a corpus must yield."""

    def __init__(self, truth: Truth):
        self.pubs = dict(truth.pubs)
        self.pub_span = (min(self.pubs), max(self.pubs))
        self.rows = len(truth.rows)
        events = set(truth.rows)
        self.duplicates = len(truth.rows) - len(events)
        self.backdated_lines = [n + 2 for n, row in enumerate(truth.rows) if row[3] < row[1]]
        citing = [row[3] for row in events]
        self.cite_span = (min(citing), max(citing)) if citing else self.pub_span
        self.cit: dict[tuple[int, int], int] = defaultdict(int)
        newest_cited: dict[tuple[int, int], int] = {}  # (citing year, journal) -> newest pub year
        earliest_citing: dict[tuple[int, int], int] = {}  # (pub year, journal) -> earliest citing year
        self.clipped = 0
        pub_lo, pub_hi = self.pub_span
        for _, i, journal, k, _ in events:
            if not pub_lo <= i <= pub_hi:
                self.clipped += 1
                continue
            self.cit[(k, i)] += 1
            if k >= i:
                newest_cited[(k, journal)] = max(i, newest_cited.get((k, journal), i))
                earliest_citing[(i, journal)] = min(k, earliest_citing.get((i, journal), k))
        self.usync: dict[tuple[int, int], int] = defaultdict(int)
        for (k, _), i in newest_cited.items():
            self.usync[(k, i)] += 1
        self.udiach: dict[tuple[int, int], int] = defaultdict(int)
        for (i, _), k in earliest_citing.items():
            self.udiach[(k, i)] += 1
        self.row_journals = defaultdict(int)  # distinct journals over each scanned row
        for k, _ in newest_cited:
            self.row_journals[k] += 1
        self.column_journals = defaultdict(int)  # distinct journals over each scanned column
        for i, _ in earliest_citing:
            self.column_journals[i] += 1

    # -- ingest -----------------------------------------------------------------

    def summary_lines(self, matrix_path: str) -> list[str]:
        """Lines ``citemetrics ingest`` must print (later lines may be added)."""
        backdated = f"citations dated before publication (kept): {len(self.backdated_lines)}"
        if self.backdated_lines:
            shown = ", ".join(str(n) for n in self.backdated_lines[:SUMMARY_BACKDATED_LINES])
            more = " ..." if len(self.backdated_lines) > SUMMARY_BACKDATED_LINES else ""
            backdated += f" [lines {shown}{more}]"
        return [
            f"wrote {matrix_path}",
            f"citation rows parsed: {self.rows}",
            f"duplicate rows removed: {self.duplicates}",
            f"events outside the matrix years (clipped): {self.clipped}",
            backdated,
        ]

    def fixture_errors(self, text: str) -> list[str]:
        """Differences between a written fixture and the expected matrices."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return [f"fixture is not JSON: {exc}"]
        errors = []
        if doc.get("pub_years") != list(self.pub_span):
            errors.append(f"pub_years {doc.get('pub_years')} != {list(self.pub_span)}")
        if doc.get("cite_years") != list(self.cite_span):
            errors.append(f"cite_years {doc.get('cite_years')} != {list(self.cite_span)}")
        if doc.get("publications") != {str(y): n for y, n in self.pubs.items()}:
            errors.append("publications differ")
        for field, expected in (
            ("citations", self.cit),
            ("unique_new_sync", self.usync),
            ("unique_new_diach", self.udiach),
        ):
            got = _cells(doc.get(field))
            if got is None:
                errors.append(f"{field} is missing or has repeated cells")
                continue
            want = {cell: n for cell, n in expected.items() if n}
            wrong = sorted(set(got) ^ set(want) | {c for c in got.keys() & want.keys() if got[c] != want[c]})
            if wrong:
                k, i = wrong[0]
                errors.append(
                    f"{field}: {len(wrong)} wrong cells, first ({k}, {i}): "
                    f"{got.get((k, i), 0)} != {want.get((k, i), 0)}"
                )
        # Acceptance criterion 3: each scanned line of a written block sums to
        # the brute-force distinct-journal count over that line's cells.
        for field, key, brute in (
            ("unique_new_sync", 0, self.row_journals),
            ("unique_new_diach", 1, self.column_journals),
        ):
            got = _cells(doc.get(field)) or {}
            sums = defaultdict(int)
            for cell, n in got.items():
                sums[cell[key]] += n
            if {y: n for y, n in sums.items() if n} != {y: n for y, n in brute.items() if n}:
                errors.append(f"{field} line sums differ from the distinct-journal counts")
        return errors

    # -- queries ----------------------------------------------------------------

    def _backward(self, newest: int, window: int | None, clip: bool) -> list[int] | None:
        lo, hi = self.pub_span
        if window is None:
            return None if newest < lo else list(range(min(newest, hi), lo - 1, -1))
        oldest = newest - window + 1
        if clip:
            top, bottom = min(newest, hi), max(oldest, lo)
            return None if top < bottom else list(range(top, bottom - 1, -1))
        return None if oldest < lo or newest > hi else list(range(newest, oldest - 1, -1))

    def _forward(self, first: int, window: int | None, clip: bool) -> list[int] | None:
        lo, hi = self.cite_span
        if window is None:
            return None if first > hi else list(range(max(first, lo), hi + 1))
        last = first + window - 1
        if clip:
            bottom, top = max(first, lo), min(last, hi)
            return None if bottom > top else list(range(bottom, top + 1))
        return None if first < lo or last > hi else list(range(first, last + 1))

    def answer(self, kind: str, year: int, window: int | None, shift: int, clip: bool):
        """(numerator, denominator, cells) of one indicator, or None when undefined."""
        pub_lo, pub_hi = self.pub_span
        in_pubs = pub_lo <= year <= pub_hi
        in_cites = self.cite_span[0] <= year <= self.cite_span[1]
        pub = self.pubs.get
        if kind == "garfield_if":
            if not in_cites or not (pub_lo <= year - 2 and year - 1 <= pub_hi):
                return None
            cells = [(year, year - 1), (year, year - 2)]
            den = pub(year - 1) + pub(year - 2)
            num = sum(self.cit.get(c, 0) for c in cells)
            return (num, den, cells) if den else None
        if kind.startswith("sync"):
            if not in_cites:
                return None
            years = self._backward(year - (kind == "sync_if"), window, clip)
            if years is None:
                return None
            cells = [(year, i) for i in years]
            top = self.usync if kind != "sync_if" else self.cit
            den = sum(self.cit.get(c, 0) for c in cells) if kind == "sync_rdf" else sum(pub(i) for i in years)
        else:
            if not in_pubs or (kind != "diach_rdf" and pub(year) == 0):
                return None
            years = self._forward(year + (shift if kind == "diach_if" else 0), window, clip)
            if years is None:
                return None
            cells = [(k, year) for k in years]
            top = self.udiach if kind != "diach_if" else self.cit
            den = sum(self.cit.get(c, 0) for c in cells) if kind == "diach_rdf" else pub(year)
        if not den:
            return None
        return sum(top.get(c, 0) for c in cells), den, cells

    def metric_output(self, kind, year, window, shift, clip, precision, structured):
        """Expected (exit code, stdout) of one ``citemetrics metric`` call."""
        got = self.answer(kind, year, window, shift, clip)
        if got is None:
            return 2, ""
        num, den, cells = got
        value = half_up(num, den, precision)
        if not structured:
            return 0, f"{value} (exact {num}/{den})\n"
        return 0, {
            "kind": kind,
            "year": year,
            "window": "max" if window is None else window,
            "shift": shift,
            "clip": clip,
            "value": value,
            "numerator": num,
            "denominator": den,
            "cells": [list(c) for c in cells],
        }

    def report_rows(self) -> list[tuple[int, list]]:
        years = sorted(set(range(self.pub_span[0], self.pub_span[1] + 1))
                       | set(range(self.cite_span[0], self.cite_span[1] + 1)))
        return [
            (year, [self.answer(kind, year, window, shift, clip)
                    for _, kind, window, shift, clip, _ in REPORT_COLUMNS])
            for year in years
        ]

    def report_output(self, fmt: str):
        """Expected stdout of ``citemetrics report`` (a parsed object when structured)."""
        header = ["year"] + [c[0] for c in REPORT_COLUMNS]
        rows = self.report_rows()
        if fmt == "structured":
            out = []
            for year, answers in rows:
                cells = {"year": year}
                for column, got in zip(REPORT_COLUMNS, answers):
                    cells[column[0]] = None if got is None else {
                        "value": half_up(got[0], got[1], column[5]),
                        "numerator": got[0],
                        "denominator": got[1],
                    }
                out.append(cells)
            return {"columns": header, "rows": out}
        grid = [header] + [
            [str(year)] + ["x" if got is None else half_up(got[0], got[1], column[5])
                           for column, got in zip(REPORT_COLUMNS, answers)]
            for year, answers in rows
        ]
        if fmt == "csv":
            return "".join(",".join(line) + "\n" for line in grid)
        widths = [max(len(line[c]) for line in grid) for c in range(len(header))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in grid]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"

    def diffusion_series(self) -> tuple[list[int], list[int], list[float]]:
        """Column totals against the diachronous RDF at the largest window
        (acceptance criterion 5), over the years where the RDF is defined."""
        column_totals = defaultdict(int)
        for (_, i), n in self.cit.items():
            column_totals[i] += n
        labels, totals, rdfs = [], [], []
        for year in range(self.pub_span[0], self.pub_span[1] + 1):
            got = self.answer("diach_rdf", year, None, 0, True)
            if got is not None:
                labels.append(year)
                totals.append(column_totals[year])
                rdfs.append(got[0] / got[1])
        return labels, totals, rdfs


def _cells(triples) -> dict[tuple[int, int], int] | None:
    if not isinstance(triples, list):
        return None
    out = {}
    for entry in triples:
        if not (isinstance(entry, list) and len(entry) == 3) or tuple(entry[:2]) in out:
            return None
        k, i, n = entry
        if n:
            out[(k, i)] = n
    return out


def spearman(x: list, y: list) -> float:
    """Spearman's rho with average ranks for ties."""

    def ranks(values):
        ordered = sorted(values)
        first = {}
        last = {}
        for pos, v in enumerate(ordered, start=1):
            first.setdefault(v, pos)
            last[v] = pos
        return [(first[v] + last[v]) / 2 for v in values]

    rx, ry = ranks(x), ranks(y)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return cov / math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
