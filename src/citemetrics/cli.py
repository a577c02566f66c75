"""Command line interface.

Three subcommands: ``ingest`` turns raw CSVs into a matrix fixture,
``metric`` evaluates one indicator against a fixture, ``report`` renders the
seven-column table. Exit codes: 0 success, 1 usage or input parse problems,
2 requested metric undefined, 3 fixture failed validation.

Each command runs with the cyclic garbage collector paused (see
``_collector_paused``); library callers keep their own collector settings.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import contextmanager

from .errors import FixtureError, ParseError, UndefinedMetricError
from .fixture import _UNIQUE_BLOCKS, load_fixture, save_fixture
from .matrix import DIACHRONOUS, SYNCHRONOUS, augment, matrix_from_counts
from .metrics import INDICATORS, REQUEST_KINDS, MetricRequest, evaluate
from .report import format_ratio, render_csv, render_structured, render_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEFINED = 2
EXIT_FIXTURE = 3

# Decimal places a rendering may ask for. The rendering scales by
# 10**precision and prints every digit, so an unbounded value would hang on
# the power or hit Python's limit on int-to-str digits.
MAX_PRECISION = 1000
# Years a report lists, and cells a structured metric lists, one by one.
MAX_LISTED = 10**4


def _integer(text: str) -> int:
    """An optional ``-`` and ASCII digits only: ``int()`` alone would also
    take ``2_009``, ``+2009``, ``' 2009'`` and ``٢٠٠٩``."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


_integer.__name__ = "int"  # argparse names the type in its refusal: "invalid int value: '2_009'"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for
    # undefined metrics, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="citemetrics", description="journal impact and diffusion indicators")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="parse CSVs into a matrix fixture")
    ingest.add_argument("--pubs", required=True, help="publications CSV: year,count or article_id,year")
    ingest.add_argument("--cites", required=True, help="citations CSV")
    ingest.add_argument("--aliases", help="journal alias CSV: raw,canonical")
    ingest.add_argument("--matrix", required=True, help="fixture file to write")

    metric = sub.add_parser("metric", help="evaluate one indicator")
    metric.add_argument("--matrix", required=True, help="fixture file to read")
    metric.add_argument("--kind", required=True, choices=REQUEST_KINDS)
    metric.add_argument("--year", required=True, type=_integer)
    metric.add_argument("--window", help="window length in years, or 'max'")
    metric.add_argument("--shift", type=_integer, default=1, help="first citing year offset (diach_if only)")
    metric.add_argument(
        "--no-clip",
        action="store_true",
        help="treat windows reaching past the matrix bounds as undefined instead of truncating",
    )
    metric.add_argument(
        "--precision", type=_integer, default=2, help=f"decimal places in the rendering (0 to {MAX_PRECISION})"
    )
    metric.add_argument("--format", choices=("text", "structured"), default="text")

    report = sub.add_parser("report", help="render the seven-column indicator report")
    report.add_argument("--matrix", required=True, help="fixture file to read")
    report.add_argument("--format", choices=("table", "csv", "structured"), default="table")

    return parser


def _fault_line(path: str) -> str:
    """``"line N: "`` for the first line of a CSV file that is not UTF-8;
    ``""`` if there is none."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")  # undecodable bytes came back as surrogates
            except UnicodeEncodeError:
                return f"line {number}: "
    return ""


def _read_csv(path: str, parse):
    """Run one ingest parser over a CSV file. Its refusals, bytes that are
    not UTF-8 included, name the file, and the line where one is known."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return parse(fh)
        except ParseError as exc:
            raise type(exc)(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {_fault_line(path)}not valid UTF-8 ({exc.reason})") from None


def cmd_ingest(args) -> int:
    # Imported here, so that the other commands never load the CSV side.
    from .ingest import index_citations, load_alias_table, parse_publications

    ledger = _read_csv(args.pubs, parse_publications)
    alias_table = _read_csv(args.aliases, load_alias_table) if args.aliases else None
    index = _read_csv(args.cites, lambda fh: index_citations(fh, alias_table))

    if ledger.years is None:
        raise ParseError(f"{args.pubs}: publications file contains no data rows")
    pub_span = ledger.years
    cite_span = index.cite_years or pub_span

    matrix = matrix_from_counts(index.cell_counts, ledger, pub_span, cite_span)
    sync = augment(matrix, index.cell_journals, SYNCHRONOUS)
    diach = augment(matrix, index.cell_journals, DIACHRONOUS)
    save_fixture(args.matrix, matrix, sync, diach)

    backdated = index.backdated_lines
    print(f"wrote {args.matrix}")
    print(f"citation rows parsed: {index.rows}")
    print(f"duplicate rows removed: {index.duplicates}")
    clipped = sum(index.cell_counts.values()) - sum(matrix.citations.values())
    print(f"events outside the matrix years (clipped): {clipped}")
    note = f"citations dated before publication (kept): {len(backdated)}"
    if backdated:
        lines = ", ".join(map(str, backdated[:20]))
        more = " ..." if len(backdated) > 20 else ""
        note += f" [lines {lines}{more}]"
    print(note)
    return EXIT_OK


def _parse_window(text: str | None) -> int | None:
    if text is None or text == "max":
        return None
    try:
        window = _integer(text)
    except ValueError:
        raise ParseError(f"--window must be a positive integer or 'max', got {text!r}") from None
    if window < 1:
        raise ParseError(f"--window must be a positive integer or 'max', got {text!r}")
    return window


def cmd_metric(args) -> int:
    if args.kind != "garfield_if" and args.window is None:
        raise ParseError(f"--window is required for {args.kind} (an integer or 'max')")
    window = _parse_window(args.window)
    if args.precision < 0:
        raise ParseError("--precision must be non-negative")
    if args.precision > MAX_PRECISION:
        raise ParseError(f"--precision must be at most {MAX_PRECISION}, got {args.precision}")
    if args.shift < 0:
        raise ParseError(f"--shift must be non-negative, got {args.shift}")
    fixture = load_fixture(args.matrix)
    variant = INDICATORS[args.kind].variant if args.kind in INDICATORS else None
    if variant is not None and {SYNCHRONOUS: fixture.sync, DIACHRONOUS: fixture.diach}[variant] is None:
        block = _UNIQUE_BLOCKS[variant]
        raise FixtureError(f"{args.matrix} has no {block} block; regenerate it with 'citemetrics ingest'")
    request = MetricRequest(
        kind=args.kind,
        year=args.year,
        window=window,
        shift=args.shift,
        clip=not args.no_clip,
    )
    value = evaluate(request, fixture.matrix, fixture.sync, fixture.diach)
    rendered = format_ratio(value.numerator, value.denominator, args.precision)
    if args.format == "structured":
        if value.effective_window[MAX_LISTED:]:
            raise ParseError(f"--format structured lists every cell, and this window has more than {MAX_LISTED}")
        print(
            json.dumps(
                {
                    "kind": request.kind,
                    "year": request.year,
                    "window": "max" if request.window is None else request.window,
                    "shift": request.shift,
                    "clip": request.clip,
                    "value": rendered,
                    "numerator": value.numerator,
                    "denominator": value.denominator,
                    "cells": [list(cell) for cell in value.effective_window],
                }
            )
        )
    else:
        print(f"{rendered} (exact {value.numerator}/{value.denominator})")
    return EXIT_OK


def cmd_report(args) -> int:
    fixture = load_fixture(args.matrix)
    if fixture.sync is None or fixture.diach is None:
        raise FixtureError(
            f"{args.matrix} lacks the {'/'.join(_UNIQUE_BLOCKS.values())} blocks the report needs; "
            "regenerate it with 'citemetrics ingest'"
        )
    (pub_lo, pub_hi), (cite_lo, cite_hi) = fixture.matrix.pub_years, fixture.matrix.cite_years
    if max(pub_hi, cite_hi) - min(pub_lo, cite_lo) >= MAX_LISTED:
        raise ParseError(f"a report lists each of its years, at most {MAX_LISTED}; this fixture spans more")
    # Read only after both refusals, so a fixture they refuse builds no rows.
    rows = fixture.report
    if args.format == "csv":
        sys.stdout.write(render_csv(rows))
    elif args.format == "structured":
        print(json.dumps(render_structured(rows)))
    else:
        print(render_table(rows))
    return EXIT_OK


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for one command, then restore the
    state the caller had.

    A command builds only acyclic data (decoded JSON lists, tuple keys, sets
    of ints, frozen dataclasses), which reference counting frees as before.
    Its cyclic garbage is a fixed handful of objects whatever the input's
    size. An ingest builds a dedup key per row and a journal set per cell,
    and the collector passes they trigger traverse them and find nothing:
    on a 60,000-row corpus of 50,000 journals they made the ingest 5-10%
    slower. A ``metric`` or ``report`` decodes its fixture once and gains
    1-2%.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    with _collector_paused():
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            # Looked up at call time: a handler replaced on this module takes effect.
            return globals()[f"cmd_{args.command}"](args)
        except (ParseError, OSError) as exc:
            print(f"citemetrics: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except UndefinedMetricError as exc:
            print(f"citemetrics: undefined: {exc}", file=sys.stderr)
            return EXIT_UNDEFINED
        except FixtureError as exc:
            print(f"citemetrics: bad fixture: {exc}", file=sys.stderr)
            return EXIT_FIXTURE


if __name__ == "__main__":
    sys.exit(main())
