"""Run one benchmark workload against citemetrics and print its metrics.

    python3 perfbench/run.py --workload ingest_bulk --seed 1 --seconds 20 --trace 0

Run it from a source checkout: the program is imported from ``src/``, which
is never built or installed. Setup generates the workload's corpus from the
seed and precomputes the oracle's answers (repeated, and reported as the
median ``setup_s``). A fresh child process then drives
``citemetrics.cli.main`` in a closed loop: an ingest phase, then a query
phase. After it exits, every output is checked against the oracle.

Every reported time is at nominal machine speed: the measured wall time
scaled by ``reference.NOMINAL_S`` over the reference workload's time
measured around it (see ``reference.py``). The raw wall-clock figures and
the measured speed are printed as ``#`` lines next to the result.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` an untraced child runs for half the time, a traced child
replays the same operations, and the last line holds the per-layer metrics
plus the tracing overhead. Generated files live under ``.perfbench_work/``
and are removed on exit.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from gen import generate  # noqa: E402
from oracle import Expected, spearman  # noqa: E402
from tracing import PER_LAYER, per_layer  # noqa: E402
from workloads import WORKLOADS, query_schedule, scaled  # noqa: E402

SETUP_REPEATS = 3
SETUP_REFERENCES = 5  # reference runs before and after each setup
SPEED_WINDOW_S = 2.5  # reference times this close to an operation set its speed
RUN_LIMIT_S = 170  # the whole run, setup included, stays below this
END_TO_END = (
    ("ingest_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("metric_p50_ms", "ms"),
    ("metric_tail_ms", "ms"),
    ("report_p50_ms", "ms"),
    ("report_tail_ms", "ms"),
    ("setup_s", "s"),
)


class Setup:
    """One workload's generated inputs, CLI arguments and expected outputs."""

    def __init__(self, workload, seed: int, scale: float, work: Path):
        self.workload = workload
        self.shape = scaled(workload, scale)
        self.expected = Expected(generate(self.shape, seed, work))
        self.fixture = work / "fixture.json"
        self.ingest_argv = [
            "ingest", "--pubs", str(work / "pubs.csv"), "--cites", str(work / "cites.csv"),
            "--aliases", str(work / "aliases.csv"), "--matrix", str(self.fixture),
        ]
        requests, self.order = query_schedule(seed, self.expected.pubs, self.expected.cite_span)
        self.kinds = [r["op"] for r in requests]
        self.argvs = [self._argv(r) for r in requests]
        self.wants = [self._want(r) for r in requests]
        self.series = self.expected.diffusion_series()

    def _argv(self, r: dict) -> list[str]:
        if r["op"] == "report":
            return ["report", "--matrix", str(self.fixture), "--format", r["format"]]
        argv = [
            "metric", "--matrix", str(self.fixture), "--kind", r["kind"], "--year", str(r["year"]),
            "--window", "max" if r["window"] is None else str(r["window"]), "--shift", str(r["shift"]),
            "--precision", str(r["precision"]), "--format", "structured" if r["structured"] else "text",
        ]
        return argv if r["clip"] else argv + ["--no-clip"]

    def _want(self, r: dict):
        """(exit code, stdout, whether stdout is JSON) the oracle expects."""
        if r["op"] == "report":
            return 0, self.expected.report_output(r["format"]), r["format"] == "structured"
        code, out = self.expected.metric_output(
            r["kind"], r["year"], r["window"], r["shift"], r["clip"], r["precision"], r["structured"]
        )
        return code, out, r["structured"] and code == 0

    def plan(self, result: Path, trace: bool, seconds: float | None, counts: tuple[int, int] | None) -> dict:
        share = self.workload.ingest_share
        return {
            "src": str(SRC),
            "trace": trace,
            "result": str(result),
            "ingest": {"argv": self.ingest_argv, "fixture": str(self.fixture),
                       "seconds": seconds and seconds * share, "count": counts and counts[0]},
            "query": {"argvs": self.argvs, "kinds": self.kinds, "order": self.order,
                      "seconds": seconds and seconds * (1 - share), "count": counts and counts[1]},
            "spearman": dict(zip(("labels", "x", "y"), self.series)),
        }

    def check(self, result: dict) -> tuple[int, list[str]]:
        """Failed operations in a child's result, and why (first few)."""
        outputs = result["outputs"]
        failures: list[str] = list(result["errors"])
        failed = 0
        written = self.fixture.read_bytes() if self.fixture.exists() else b""
        fixture_errors = self.expected.fixture_errors(written.decode("utf-8", "replace"))
        failures += fixture_errors[:3]
        digest = hashlib.sha256(written).hexdigest()
        summary = self.expected.summary_lines(str(self.fixture))
        for _, _, code, out, op_digest in result["ingests"]:
            lines = outputs[out].splitlines()
            missing = [line for line in summary if line not in lines]
            if code != 0 or missing or op_digest != digest or fixture_errors:
                failed += 1
                failures.append(f"ingest: exit {code}, summary lines missing {missing[:2]}")
        verdicts: dict[tuple, bool] = {}
        for index, _, _, code, out in result["queries"]:
            key = (index, code, out)
            if key not in verdicts:
                want_code, want_out, is_json = self.wants[index]
                got = outputs[out]
                if is_json and code == want_code:
                    try:
                        got = json.loads(got)
                    except ValueError:
                        pass
                verdicts[key] = code == want_code and got == want_out
                if not verdicts[key]:
                    failures.append(f"{' '.join(self.argvs[index])}: exit {code} (want {want_code}), "
                                    f"stdout {outputs[out][:200]!r}")
            failed += not verdicts[key]
        labels, x, y = self.series
        rho = result["spearman"]
        if rho is None or not math.isclose(rho, spearman(x, y), abs_tol=1e-9):
            failed += 1
            failures.append(f"spearman {rho} != {spearman(x, y)}")
        return failed, failures


def percentile(values: list[float], pct: float) -> tuple[float, float, int]:
    """Nearest-rank percentile, lowered when needed so that at least ten
    samples lie beyond it (never below the median).
    Returns (value, percentile used, samples beyond it)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(pct / 100 * n))
    if n - rank < 10:
        rank = max(math.ceil(n / 2), n - 10, 1)
    return ordered[rank - 1], min(pct, 100 * rank / n), n - rank


def spawn(plan: dict, work: Path, name: str, deadline: float) -> dict:
    plan_path = work / f"{name}.plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(plan_path)],
        cwd=ROOT, env=env, timeout=max(timeout, 1), check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measuring child exited with {proc.returncode}")
    return json.loads(Path(plan["result"]).read_text(encoding="utf-8"))


def to_nominal(result: dict):
    """A function giving an operation's duration at nominal speed: scaled by
    the median reference time the child measured from ``SPEED_WINDOW_S``
    before the operation to as long after it."""
    refs = result["refs"]
    times = [t for t, _ in refs]
    window = SPEED_WINDOW_S * 1e9

    def nominal_ns(start_ns: int, ns: int) -> float:
        lo = bisect.bisect_left(times, start_ns - window)
        hi = bisect.bisect_right(times, start_ns + ns + window)
        around = [seconds for _, seconds in refs[lo:hi]] or [refs[min(lo, len(refs) - 1)][1]]
        return ns * reference.NOMINAL_S / statistics.median(around)

    return nominal_ns


def nominal_total_ns(result: dict) -> float:
    nominal_ns = to_nominal(result)
    return sum(nominal_ns(start, ns) for start, ns, *_ in result["ingests"]) + sum(
        nominal_ns(start, ns) for _, start, ns, *_ in result["queries"]
    )


def reference_s() -> float:
    return statistics.median(reference.measure() for _ in range(SETUP_REFERENCES))


def end_to_end(setup: Setup, result: dict, setup_times: list[float]) -> tuple[dict, list[str]]:
    w = setup.workload
    nominal_ns = to_nominal(result)
    ingest = [(nominal_ns(start, ns), ns) for start, ns, *_ in result["ingests"]]
    latency = {"metric": [], "report": []}
    for index, start, ns, _, _ in result["queries"]:
        latency[setup.kinds[index]].append((nominal_ns(start, ns) / 1e6, ns / 1e6))
    speeds = [reference.NOMINAL_S / seconds for _, seconds in result["refs"]]
    values = {
        "ingest_rows_per_s": setup.shape.rows / (statistics.median(n for n, _ in ingest) / 1e9),
        "peak_rss_mb": result["maxrss_mb"],
        "setup_s": statistics.median(setup_times),
    }
    notes = [
        f"machine speed vs nominal: median {statistics.median(speeds):.3f}, "
        f"range {min(speeds):.3f}-{max(speeds):.3f} over {len(speeds)} reference runs",
        f"ingest: {len(ingest)} runs of {setup.shape.rows} rows; "
        f"wall-clock rows/s {setup.shape.rows / (statistics.median(ns for _, ns in ingest) / 1e9):.6g}",
    ]
    for op, tail in (("metric", w.metric_tail), ("report", w.report_tail)):
        samples = latency[op] or [(float("nan"), float("nan"))]
        values[f"{op}_p50_ms"] = percentile([n for n, _ in samples], 50)[0]
        values[f"{op}_tail_ms"], used, beyond = percentile([n for n, _ in samples], tail)
        notes.append(
            f"{op}: {len(latency[op])} samples, {op}_tail_ms is p{used:.4g} ({beyond} beyond it); "
            f"wall-clock p50 {percentile([r for _, r in samples], 50)[0]:.6g} ms, "
            f"p{used:.4g} {percentile([r for _, r in samples], used)[0]:.6g} ms"
        )
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor; the benchmark's own tests use small values")
    args = parser.parse_args(argv)
    if not (SRC / "citemetrics" / "cli.py").is_file():
        print(f"perfbench: no citemetrics sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup, setup_times, setup_walls = None, [], []
        for _ in range(SETUP_REPEATS):
            setup = None  # let the previous corpus be freed first
            before = reference_s()
            start = time.perf_counter()
            setup = Setup(workload, args.seed, args.scale, work)
            setup_walls.append(time.perf_counter() - start)
            setup_times.append(setup_walls[-1] * reference.NOMINAL_S / statistics.fmean((before, reference_s())))

        if args.trace:
            plain = spawn(setup.plan(work / "plain.json", False, args.seconds / 2, None), work, "plain", deadline)
            counts = (len(plain["ingests"]), len(plain["queries"]))
            traced = spawn(setup.plan(work / "traced.json", True, None, counts), work, "traced", deadline)
            results = [plain, traced]
            metrics = per_layer(traced["trace"])
            metrics["trace.overhead"] = nominal_total_ns(traced) / nominal_total_ns(plain) - 1
            units = dict(PER_LAYER)
            notes = [f"traced replay of {counts[0]} ingests and {counts[1]} queries"]
        else:
            results = [spawn(setup.plan(work / "plain.json", False, args.seconds, None), work, "plain", deadline)]
            metrics, notes = end_to_end(setup, results[0], setup_times)
            notes.append(f"setup: wall-clock median {statistics.median(setup_walls):.6g} s")
            units = dict(END_TO_END)

        attempted = failed = 0
        for result in results:
            n_failed, why = setup.check(result)
            attempted += len(result["ingests"]) + len(result["queries"]) + 1
            failed += n_failed
            for line in why[:10]:
                print(f"perfbench: FAILED {line}", file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    for note in notes:
        print(f"# {note}")
    print(f"# failed_ratio {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
