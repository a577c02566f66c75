"""The benchmark's own tests: small runs, the oracle's teeth, the failure exit.

    python3 -m pytest perfbench/tests -q

Nothing here gates on wall-clock time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_run_reports_every_metric_and_no_failure(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    declared = BENCHMARK["end_to_end"] if trace == "0" else BENCHMARK["per_layer"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [name for name, _ in run.END_TO_END]


def test_oracle_counts_a_wrong_cell_and_a_wrong_answer(tmp_path):
    setup = run.Setup(WORKLOADS["query_narrow"], 9, 0.02, tmp_path)
    plan = setup.plan(tmp_path / "result.json", False, None, (1, 30))
    result = run.spawn(plan, tmp_path, "plain", deadline=run.time.monotonic() + 120)
    assert setup.check(result) == (0, [])

    # One fixture cell off by one: the ingest that wrote it fails.
    doc = json.loads(setup.fixture.read_text(encoding="utf-8"))
    doc["citations"][0][2] += 1
    good_fixture = setup.fixture.read_text(encoding="utf-8")
    setup.fixture.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    failed, why = setup.check(result)
    assert failed == 1 and any("citations: 1 wrong cells" in line for line in why)
    setup.fixture.write_text(good_fixture, encoding="utf-8")

    # One answered metric with a wrong digit: every query that printed it fails.
    out = next(q[4] for q in result["queries"] if q[3] == 0 and setup.kinds[q[0]] == "metric")
    text = result["outputs"][out]
    if text.startswith("{"):
        answer = json.loads(text)
        answer["numerator"] += 1
        result["outputs"][out] = json.dumps(answer) + "\n"
    else:
        result["outputs"][out] = "9" + text
    assert setup.check(result)[0] == sum(1 for q in result["queries"] if q[4] == out) >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "query_narrow", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(n) for n in range(1, 201)]
    assert run.percentile(samples, 99) == (190.0, 95, 10)
    assert run.percentile(samples, 90) == (180.0, 90, 20)
    assert run.percentile(samples[:15], 99) == (8.0, 100 * 8 / 15, 7)
