"""A fixed reference workload that tracks how fast the machine runs right now.

On a shared host the same operation can take 1.6x longer for seconds to
minutes at a time, for every process alike, because of load that the
benchmark cannot see or control. The benchmark therefore times this
workload between operations and scales each measured time by
``NOMINAL_S`` over the median reference time of the surrounding seconds:
a time "at nominal speed". The reference
does the same kinds of work as citemetrics (JSON parsing, CSV parsing,
string normalization, dict, set and tuple building, sorting, JSON dumping)
but none of the program's code, so a change to the program cannot move it.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import time

# Reference time on the machine the bounds were set on (a quiet 2-core
# 2.1 GHz Xeon VM, Python 3.11), so nominal times there read as wall times.
NOMINAL_S = 0.02

# Sized (about 1 MB of live data) so that, like the program, it feels the
# memory contention of a busy host and not only the CPU's.
_DOC = json.dumps(
    {"citations": [[1900 + n % 150, 1900 + n % 97, n % 13] for n in range(6000)]}, indent=2
)
_CSV = "".join(
    f"a{n % 700}-{n},{1990 + n % 30},Journal Of Topic {n % 400}.,{1990 + n % 32},c{n}\n" for n in range(3000)
)


def _work() -> int:
    cells = {(k, i): n for k, i, n in json.loads(_DOC)["citations"]}
    seen = set()
    for row in csv.reader(io.StringIO(_CSV)):
        name = " ".join(row[2].casefold().split()).rstrip(".")
        seen.add((row[0], int(row[1]), name, int(row[3]), row[4] or None))
    rows = sorted(cells.items())
    return len(json.dumps([[k, i, n] for (k, i), n in rows])) + len(seen)


def measure() -> float:
    """Seconds one run of the reference takes now, with the garbage
    collector off so that the caller's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
