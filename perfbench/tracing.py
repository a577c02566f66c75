"""Spans recorded from outside the program, and the per-layer metrics.

The tracer replaces public functions where their callers look them up:
the names ``citemetrics.cli`` imports (and its own ``cmd_*`` handlers, which
``build_parser`` reads on every call), and the indicator functions in the
``citemetrics.metrics`` namespace, which both ``metrics.evaluate`` and
``report.build_report`` resolve there. A function that a later version stops
calling simply loses its span, and its metrics read 0. Spans (name, parent,
start, end, operation) stay in memory and are written out when the run ends.

A span's self time is its duration minus the time of the first descendants
that belong to another layer (module), so ``cli.main`` on a ``metric``
request counts argparse, window parsing, JSON dumps and printing, but not
``fixture.load_fixture`` or ``metrics.evaluate``.
"""

from __future__ import annotations

import functools
import resource
import statistics
import time

# name in citemetrics.cli -> span name
CLI_NAMES = {
    "parse_publications": "ingest.parse_publications",
    "parse_citations": "ingest.parse_citations",
    "load_alias_table": "ingest.load_alias_table",
    "normalize_journal_names": "ingest.normalize_journal_names",
    "deduplicate_events": "ingest.deduplicate_events",
    "backdated_records": "ingest.backdated_records",
    "build_pc_matrix": "matrix.build_pc_matrix",
    "augment_synchronous": "matrix.augment_synchronous",
    "augment_diachronous": "matrix.augment_diachronous",
    "save_fixture": "fixture.save_fixture",
    "load_fixture": "fixture.load_fixture",
    "evaluate": "metrics.evaluate",
    "build_report": "report.build_report",
    "format_ratio": "report.format_ratio",
    "render_csv": "report.render_csv",
    "render_table": "report.render_table",
    "render_structured": "report.render_structured",
    "cmd_ingest": "cli.cmd_ingest",
    "cmd_metric": "cli.cmd_metric",
    "cmd_report": "cli.cmd_report",
}
METRICS_NAMES = ("garfield_if", "sync_if", "diach_if", "sync_jdf", "sync_rdf", "diach_jdf", "diach_rdf")
RSS_STAGES = (
    "ingest.parse_citations",
    "ingest.normalize_journal_names",
    "ingest.deduplicate_events",
    "ingest.backdated_records",
    "matrix.build_pc_matrix",
    "matrix.augment_synchronous",
    "matrix.augment_diachronous",
    "fixture.save_fixture",
)
INGEST_STAGES = (
    "ingest.parse_publications",
    "ingest.parse_citations",
    "ingest.load_alias_table",
    "ingest.normalize_journal_names",
    "ingest.deduplicate_events",
    "ingest.backdated_records",
    "matrix.build_pc_matrix",
    "matrix.augment_synchronous",
    "matrix.augment_diachronous",
    "fixture.save_fixture",
    "cli.cmd_ingest",
)

# (name, unit) of every per-layer metric, in output order.
PER_LAYER = (
    [(f"{stage}.self_s", "s") for stage in INGEST_STAGES]
    + [(f"ingest.rss_hwm_mb.{stage.split('.')[1]}", "MB") for stage in RSS_STAGES]
    + [
        ("ingest.rows", "count"),
        ("ingest.duplicates", "count"),
        ("ingest.backdated", "count"),
        ("ingest.distinct_spellings", "count"),
        ("ingest.distinct_journals", "count"),
        ("ingest.spelling_reuse", "ratio"),
        ("matrix.grid_cells", "count"),
        ("matrix.nonzero_cells", "count"),
        ("matrix.clipped", "count"),
        ("matrix.fill", "ratio"),
        ("fixture.bytes", "bytes"),
        ("fixture.load_fixture.self_ms", "ms"),
        ("metrics.evaluate.self_us", "us"),
        ("metrics.cells_summed", "count"),
        ("report.build_report.self_ms", "ms"),
        ("metrics.in_report.self_ms", "ms"),
        ("report.render_csv.self_ms", "ms"),
        ("report.render_table.self_ms", "ms"),
        ("report.render_structured.self_ms", "ms"),
        ("report.undefined_cells", "ratio"),
        ("cli.main.self_ms", "ms"),
        ("stats.spearman.self_us", "us"),
        ("trace.ingest_accounted", "ratio"),
        ("trace.overhead", "ratio"),
    ]
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Collects spans and first-call counts while the child runs."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start ns, end ns, operation]
        self.values: dict[str, float] = {}
        self.cells_summed: list[int] = []
        self.op = -1
        self._stack: list[int] = []

    def install(self, cli, metrics) -> None:
        for attr, name in CLI_NAMES.items():
            if hasattr(cli, attr):
                self._wrap(cli, attr, name)
        for attr in METRICS_NAMES:
            if hasattr(metrics, attr):
                self._wrap(metrics, attr, f"metrics.{attr}")

    def _wrap(self, namespace, attr, name) -> None:
        original = getattr(namespace, attr)
        observe = _OBSERVERS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, observe=observe, **kwargs)

        setattr(namespace, attr, traced)

    def call(self, name, fn, *args, observe=None, **kwargs):
        record = [name, self._stack[-1] if self._stack else -1, 0, 0, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()
        if observe is not None:
            # Counting runs in a span of its own layer, so no program span's
            # self time includes it. A changed return type loses the count
            # (it reads 0), never the call.
            try:
                self.call(f"trace.{name}", observe, self, name, result)
            except Exception:
                pass
        return result


def _first(metric, count):
    def observe(tracer, name, result):
        if name in RSS_STAGES and f"ingest.rss_hwm_mb.{name.split('.')[1]}" not in tracer.values:
            tracer.values[f"ingest.rss_hwm_mb.{name.split('.')[1]}"] = _maxrss_mb()
        if metric is not None and metric not in tracer.values:
            tracer.values.update(count(result))

    return observe


def _grid(fixture):
    matrix = fixture.matrix
    cells = (matrix.cite_years[1] - matrix.cite_years[0] + 1) * (matrix.pub_years[1] - matrix.pub_years[0] + 1)
    return {"matrix.grid_cells": cells, "matrix.nonzero_cells": sum(1 for n in matrix.citations.values() if n)}


def _undefined(rows):
    cells = [v for row in rows for k, v in (row.items() if isinstance(row, dict) else vars(row).items()) if k != "year"]
    return {"report.undefined_cells": sum(v is None for v in cells) / len(cells)}


def _evaluated(tracer, name, value):
    tracer.cells_summed.append(len(value.effective_window))


_OBSERVERS = {
    "ingest.parse_citations": _first("ingest.rows", lambda records: {
        "ingest.rows": len(records),
        "ingest.distinct_spellings": len({r.citing_journal_raw for r in records}),
    }),
    "ingest.normalize_journal_names": _first("ingest.distinct_journals", lambda r: {"ingest.distinct_journals": len(r[0])}),
    "ingest.deduplicate_events": _first("ingest.duplicates", lambda r: {"ingest.duplicates": r[1]}),
    "ingest.backdated_records": _first("ingest.backdated", lambda r: {"ingest.backdated": len(r)}),
    "matrix.build_pc_matrix": _first("matrix.clipped", lambda m: {"matrix.clipped": m.n_clipped}),
    "matrix.augment_synchronous": _first(None, None),
    "matrix.augment_diachronous": _first(None, None),
    "fixture.save_fixture": _first(None, None),
    "fixture.load_fixture": _first("matrix.grid_cells", _grid),
    "report.build_report": _first("report.undefined_cells", _undefined),
    "metrics.evaluate": _evaluated,
}


def per_layer(doc: dict) -> dict[str, float]:
    """Per-layer metrics from a traced child's spans, values and operations."""
    spans = doc["spans"]
    ops = doc["ops"]
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(index)

    def layer(index):
        return spans[index][0].split(".", 1)[0]

    def other_layer_ns(index):
        own = layer(index)
        return sum(
            spans[c][3] - spans[c][2] if layer(c) != own else other_layer_ns(c) for c in children[index]
        )

    self_ns = [end - start - other_layer_ns(i) for i, (_, _, start, end, _) in enumerate(spans)]
    by_name: dict[str, list[int]] = {}
    by_op: dict[int, list[int]] = {}
    for index, (name, _, _, _, op) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        by_op.setdefault(op, []).append(index)

    def median(name, scale, where=None):
        values = [self_ns[i] for i in by_name.get(name, ()) if where is None or ops[spans[i][4]] == where]
        return statistics.median(values) / scale if values else 0.0

    out = {f"{stage}.self_s": median(stage, 1e9) for stage in INGEST_STAGES}
    out.update(doc["values"])
    out["fixture.load_fixture.self_ms"] = median("fixture.load_fixture", 1e6)
    out["metrics.evaluate.self_us"] = median("metrics.evaluate", 1e3)
    out["metrics.cells_summed"] = statistics.fmean(doc["cells_summed"]) if doc["cells_summed"] else 0.0
    for name in ("build_report", "render_csv", "render_table", "render_structured"):
        out[f"report.{name}.self_ms"] = median(f"report.{name}", 1e6)
    in_report = [
        sum(self_ns[c] for c in children[i] if layer(c) == "metrics") for i in by_name.get("report.build_report", ())
    ]
    out["metrics.in_report.self_ms"] = statistics.median(in_report) / 1e6 if in_report else 0.0
    out["cli.main.self_ms"] = median("cli.main", 1e6, where="metric")
    out["stats.spearman.self_us"] = median("stats.spearman", 1e3)
    rows = out.get("ingest.rows", 0)
    out["ingest.spelling_reuse"] = 1 - out.get("ingest.distinct_spellings", 0) / rows if rows else 0.0
    grid = out.get("matrix.grid_cells", 0)
    out["matrix.fill"] = out.get("matrix.nonzero_cells", 0) / grid if grid else 0.0

    accounted = []
    for op, indices in by_op.items():
        if op < 0 or ops[op] != "ingest":
            continue
        main = [i for i in indices if spans[i][0] == "cli.main"]
        stages = [i for i in indices if spans[i][0] in INGEST_STAGES]
        if main:
            wall = spans[main[0]][3] - spans[main[0]][2]
            accounted.append(sum(self_ns[i] for i in stages) / wall)
    out["trace.ingest_accounted"] = statistics.median(accounted) if accounted else 0.0
    return {name: float(out.get(name, 0.0)) for name, _ in PER_LAYER if name != "trace.overhead"}
