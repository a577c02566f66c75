"""The measuring process: one closed-loop client calling ``citemetrics.cli.main``.

Run as ``python3 child.py PLAN.json``. The plan names the program's source
directory, the ingest arguments and the query requests; each phase runs
either until its deadline or for a given number of operations (the traced
replay of an untraced run). Only the ``main`` call is timed; capturing and
hashing its output happens outside that interval, and checking it against
the oracle is left to the parent. Between operations, at most every
``CALIBRATE_EVERY_S``, the reference workload is timed, so the parent can
scale each operation to nominal machine speed. The result, including this
process's peak RSS, is written to the path the plan gives.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import reference

CALIBRATE_EVERY_S = 0.5


class Client:
    def __init__(self, plan: dict):
        src = Path(plan["src"]).resolve()
        sys.path.insert(0, str(src))
        import citemetrics.cli as cli
        import citemetrics.metrics as metrics
        import citemetrics.stats as stats

        if src not in Path(cli.__file__).resolve().parents:
            raise SystemExit(f"citemetrics was imported from {cli.__file__}, not from {src}")
        self.cli, self.stats = cli, stats
        self.tracer = None
        if plan["trace"]:
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install(cli, metrics)
        self.ops: list[str] = []
        self.outputs: dict[str, int] = {}
        self.errors: list[str] = []
        self.refs: list[list] = []  # [perf_counter_ns when measured, reference seconds]
        self.calibrate()

    def calibrate(self) -> None:
        seconds = reference.measure()
        self.refs.append([time.perf_counter_ns(), seconds])

    def call(self, kind: str, argv: list[str]):
        """Run one CLI call; returns (exit code, output id, start ns, latency ns)."""
        if time.perf_counter_ns() - self.refs[-1][0] >= CALIBRATE_EVERY_S * 1e9:
            self.calibrate()
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        self.ops.append(kind)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = self.tracer.call("cli.main", self.cli.main, argv)
            except (Exception, SystemExit) as exc:  # every input must end in an exit code
                code = f"raised {exc!r}"
            end = time.perf_counter_ns()
        if not isinstance(code, int) and len(self.errors) < 5:
            self.errors.append(f"{argv}: {code}\n{err.getvalue()[-2000:]}")
        return code, self.outputs.setdefault(out.getvalue(), len(self.outputs)), start, end - start


def loop(limit: dict, step) -> None:
    """Call ``step(n)`` for a fixed count, or until the deadline (at least once)."""
    if limit["count"] is not None:
        for n in range(limit["count"]):
            step(n)
        return
    deadline = time.perf_counter() + limit["seconds"]
    n = 0
    while True:
        step(n)
        n += 1
        if time.perf_counter() >= deadline:
            return


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    client = Client(plan)
    ingest, query = plan["ingest"], plan["query"]
    fixture = Path(ingest["fixture"])
    ingests, queries = [], []

    def ingest_step(n):
        code, out, start, ns = client.call("ingest", ingest["argv"])
        digest = hashlib.sha256(fixture.read_bytes()).hexdigest() if fixture.exists() else None
        ingests.append([start, ns, code, out, digest])

    def query_step(n):
        index = query["order"][n % len(query["order"])]
        code, out, start, ns = client.call(query["kinds"][index], query["argvs"][index])
        queries.append([index, start, ns, code, out])

    loop(ingest, ingest_step)
    fixture_bytes = fixture.stat().st_size if fixture.exists() else 0
    loop(query, query_step)
    client.calibrate()

    series = plan["spearman"]
    client.ops.append("stats")
    x = client.stats.Series(series["labels"], series["x"])
    y = client.stats.Series(series["labels"], series["y"])
    try:
        if client.tracer is None:
            rho = client.stats.spearman(x, y)
        else:
            client.tracer.op = len(client.ops) - 1
            rho = client.tracer.call("stats.spearman", client.stats.spearman, x, y)
    except Exception as exc:
        rho = None
        client.errors.append(f"spearman raised {exc!r}")

    result = {
        "ingests": ingests,
        "queries": queries,
        "outputs": sorted(client.outputs, key=client.outputs.get),
        "spearman": rho,
        "refs": client.refs,
        "errors": client.errors,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if client.tracer is not None:
        client.tracer.values["fixture.bytes"] = fixture_bytes
        result["trace"] = {
            "spans": client.tracer.spans,
            "values": client.tracer.values,
            "cells_summed": client.tracer.cells_summed,
            "ops": client.ops,
        }
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
