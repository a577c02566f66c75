"""Inputs whose windows reach far past their data, run under resource limits.

Each case runs the command line in a child process whose address space and
CPU time are capped by ``resource.setrlimit`` in that child alone. A window
or a missing-year list that is listed year by year exhausts the cap within
seconds, so a regression fails fast instead of hanging the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citemetrics

from conftest import DATA

resource = pytest.importorskip("resource")

SRC = Path(citemetrics.__file__).resolve().parent.parent
ADDRESS_SPACE = 512 * 2**20
CPU_SECONDS = 10

# Runs the CLI, then reports the child's own peak resident set from
# /proc/self/status (VmHWM starts afresh at exec; ru_maxrss does not).
CHILD = """
import os, sys
from citemetrics.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                sys.stderr.write("peak_kb " + line.split()[1] + "\\n")
sys.exit(code)
"""


def _limits():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_limited(*argv, cwd=None):
    """``(exit code, stdout, stderr lines, peak resident kB or None)``."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=_limits,
        capture_output=True,
        text=True,
        timeout=6 * CPU_SECONDS,
    )
    err = proc.stderr.splitlines()
    peak = None
    if err and err[-1].startswith("peak_kb "):
        peak = int(err.pop().split()[1])
    return proc.returncode, proc.stdout, err, peak


PUBS_CSV = "year,count\n2004,3\n2005,2\n2006,1\n9999,1\n"
CITES_CSV = (
    "cited_article_id,cited_pub_year,citing_journal,citing_year,citing_article_id\n"
    "a1,2004,Lancet,2005,c1\n"
    "a2,2005,Gut,2006,c2\n"
    "a3,2006,Lancet,2006,c3\n"
    "z1,9999,Gut,9999,c4\n"
)

# One cited cell, and citation years running to 10^11: 201 bytes of JSON.
HUGE_SPAN_FIXTURE = {
    "pub_years": [2004, 2004],
    "cite_years": [2004, 10**11],
    "publications": {"2004": 1},
    "citations": [[2004, 2004, 1]],
    "unique_new_sync": [[2004, 2004, 1]],
    "unique_new_diach": [[2004, 2004, 1]],
}


def test_a_stray_year_report_costs_its_rows_not_their_windows(tmp_path):
    """A lone 9999 row stretches both spans to about 8,000 years: about 8,000
    report rows, each with windows of up to 8,000 cells over a handful of
    stored cells."""
    pubs, cites, fx = tmp_path / "pubs.csv", tmp_path / "cites.csv", tmp_path / "fx.json"
    pubs.write_text(PUBS_CSV)
    cites.write_text(CITES_CSV)
    code, _, err, _ = run_limited("ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(fx))
    assert (code, err) == (0, [])
    code, out, err, peak = run_limited("report", "--matrix", str(fx), "--format", "csv")
    assert (code, err) == (0, [])
    lines = out.splitlines()
    assert len(lines) == 1 + (9999 - 2004 + 1)
    assert lines[0] == "year,garfield_if,sync_if2,diach_if2s1,sync_rdf_max,diach_rdf_max,sync_jdf_max,diach_jdf_max"
    assert lines[1:6] == [
        "2004,x,x,0.33,x,1.00,x,0.33",
        "2005,x,x,0.50,1.00,1.00,0.200,0.50",
        "2006,0.20,0.20,0.00,1.00,1.00,0.333,1.00",
        "2007,0.00,0.00,x,x,x,0.000,x",
        "2008,0.00,0.00,x,x,x,0.000,x",
    ]
    assert set(lines[6:-2]) == {f"{year},x,x,x,x,x,0.000,x" for year in range(2009, 9998)}
    assert lines[-2:] == ["9998,x,x,x,x,x,0.000,x", "9999,x,x,x,1.00,1.00,0.143,1.00"]
    if peak is not None:
        assert peak < 100 * 1024


def test_a_max_window_over_1e11_citation_years_answers(tmp_path):
    fx = tmp_path / "huge.json"
    fx.write_text(json.dumps(HUGE_SPAN_FIXTURE))
    assert fx.stat().st_size == 201
    argv = ["metric", "--matrix", str(fx), "--kind", "diach_rdf", "--year", "2004", "--window", "max"]
    assert run_limited(*argv)[:3] == (0, "1.00 (exact 1/1)\n", [])
    # The structured cell list is as long as the window, so only a short
    # window is asked for there.
    argv[-1] = "3"
    code, out, err, _ = run_limited(*argv, "--format", "structured")
    assert (code, err) == (0, [])
    assert json.loads(out)["cells"] == [[2004, 2004], [2005, 2004], [2006, 2004]]


@pytest.mark.parametrize(
    ("kind", "message"),
    [
        ("sync_if", "publication years -99999997991–2003 are outside 2004-2008 and clipping is off"),
        ("diach_if", "citation years 2011–100000002006 are outside 2004-2010 and clipping is off"),
    ],
)
def test_an_unclipped_window_of_1e11_years_is_undefined_in_one_line(kind, message):
    year = "2009" if kind == "sync_if" else "2006"
    argv = ["metric", "--matrix", str(DATA / "mjm_fixture.json"), "--kind", kind, "--year", year]
    argv += ["--window", "100000000000", "--no-clip"]
    assert run_limited(*argv)[:3] == (2, "", [f"citemetrics: undefined: {message}"])


def test_a_publication_span_of_1e11_years_is_rejected_in_one_line(tmp_path):
    """Coverage of the publication span is checked from its ends, not by
    listing its years."""
    fx = tmp_path / "pubspan.json"
    doc = {"pub_years": [0, 10**11], "cite_years": [0, 0], "publications": {"0": 1}, "citations": []}
    fx.write_text(json.dumps(doc) + "\n")
    assert fx.stat().st_size == 98
    for argv in (["metric", "--kind", "garfield_if", "--year", "0"], ["report"]):
        code, out, err, peak = run_limited(*argv, "--matrix", str(fx))
        assert (code, out) == (3, "")
        assert err == [f"citemetrics: bad fixture: {fx}: publications must cover exactly the pub_years span"]
        if peak is not None:
            assert peak < 100 * 1024


def test_a_report_over_1e11_years_is_refused_in_one_line(tmp_path):
    """A report lists every year of its span; at most 10^4 are listed."""
    fx = tmp_path / "huge.json"
    fx.write_text(json.dumps(HUGE_SPAN_FIXTURE))
    for fmt in ("table", "csv", "structured"):
        code, out, err, peak = run_limited("report", "--matrix", str(fx), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == ["citemetrics: error: a report lists each of its years, at most 10000; this fixture spans more"]
        if peak is not None:
            assert peak < 100 * 1024


def test_a_structured_cell_list_over_1e4_cells_is_refused_in_one_line(tmp_path):
    """The structured output lists every cell of the window; at most 10^4 are
    listed. The text output of the same request still answers."""
    fx = tmp_path / "huge.json"
    fx.write_text(json.dumps(HUGE_SPAN_FIXTURE))
    argv = ["metric", "--matrix", str(fx), "--kind", "diach_rdf", "--year", "2004", "--format", "structured"]
    for window in ("max", "10001", "100000000000"):
        code, out, err, peak = run_limited(*argv, "--window", window)
        assert (code, out) == (1, "")
        assert err == ["citemetrics: error: --format structured lists every cell, and this window has more than 10000"]
        if peak is not None:
            assert peak < 100 * 1024
    code, out, err, _ = run_limited(*argv, "--window", "10000")
    assert (code, err) == (0, [])
    assert len(json.loads(out)["cells"]) == 10000
