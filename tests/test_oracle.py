"""The commands against the benchmark's independent oracle, over random
corpus shapes.

``perfbench/oracle.py`` imports nothing from citemetrics: from the
generator's ground truth it computes the ingest summary, the fixture's
cells, every metric answer and all three reports. The benchmark checks the
program against it on three fixed shapes only. Here hypothesis draws the
shape and the seed, and ``perfbench/run.Setup`` turns them into the corpus,
the command lines and the answers they must give, so this file maps no
request to arguments of its own.

Each example runs ``cli.main`` in this process: one ingest, the three
reports and the first ``METRIC_REQUESTS`` metric requests of the run's
seeded order. Five examples run by default and 500 with
``--hypothesis-profile=fuzz``.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from citemetrics import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from gen import Shape  # noqa: E402
from workloads import Workload  # noqa: E402

METRIC_REQUESTS = 40
EXAMPLES = settings(max_examples=max(5, settings.default.max_examples // 20), deadline=None)


@st.composite
def shapes(draw) -> Shape:
    """Publication spans of 3 to 40 years with up to 2 zero years inside,
    citations up to 5 years past the span, Zipf or uniform journals, and
    cells drawn by lag or uniformly. ``run.Setup`` keeps at least 200 rows
    and 20 journals whatever the scale, so the counts are drawn from there.
    ``gen.generate`` cannot plant its backdated rows in a span of 1 or 2
    years, so those spans are not drawn."""
    first = draw(st.integers(1900, 2000))
    last = first + draw(st.integers(2, 39))
    fewest = draw(st.integers(1, 50))
    return Shape(
        rows=draw(st.integers(200, 1500)),
        journals=draw(st.integers(20, 400)),
        pub_years=(first, last),
        last_cite_year=last + draw(st.integers(0, 5)),
        articles=(fewest, fewest + draw(st.integers(0, 200))),
        zipf=draw(st.none() | st.floats(0.5, 1.5)),
        cell_uniform=draw(st.booleans()),
        zero_pub_years=draw(st.integers(0, 2)),
    )


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@EXAMPLES
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1))
def test_the_commands_give_the_oracles_answers(shape, seed):
    workload = Workload("random", "a drawn shape", shape, ingest_share=0.5, metric_tail=90, report_tail=90)
    with tempfile.TemporaryDirectory() as work:
        setup = run.Setup(workload, seed, 1.0, Path(work))
        code, out, err = _main(setup.ingest_argv)
        assert code == 0, err
        lines = out.splitlines()
        assert [line for line in setup.expected.summary_lines(str(setup.fixture)) if line not in lines] == []
        assert setup.expected.fixture_errors(setup.fixture.read_text(encoding="utf-8")) == []

        reports = [index for index, kind in enumerate(setup.kinds) if kind == "report"]
        metrics = list(dict.fromkeys(index for index in setup.order if setup.kinds[index] == "metric"))
        for index in reports + metrics[:METRIC_REQUESTS]:
            want_code, want_out, is_json = setup.wants[index]
            code, out, err = _main(setup.argvs[index])
            got = json.loads(out) if is_json and code == want_code else out
            assert (code, got) == (want_code, want_out), (setup.argvs[index], err)
