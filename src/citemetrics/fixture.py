"""Matrix fixture files.

A fixture is a JSON object with exactly these fields, read in this order:

* ``pub_years``, ``cite_years``: inclusive ``[first, last]`` spans;
* ``publications``: per-year counts from 0 to 10**18 covering the
  publication span exactly, each keyed by its year written and read as
  ``str(year)``: ``"2004"``, never ``"+2004"``, ``" 2004"`` or ``"02004"``;
* ``citations``: ``[citation_year, pub_year, count]`` triples, one per
  non-zero cell (a triple with count 0 is accepted and ignored), with years
  in their spans and counts from 0 to 10**18;
* ``unique_new_sync`` / ``unique_new_diach`` (optional): triples of
  first-appearance journal counts for each augmentation variant, under the
  citations rules, but never backdated (citation year before publication
  year) and never above the citations at their cell.

Each entry is checked against every rule of its block when it is read, so
the first bad entry of a block names the refusal.

Unknown fields are rejected rather than ignored, so a typo in a hand-edited
fixture fails loudly instead of silently dropping data.

:func:`load_fixture` decodes and checks a file's bytes once per process:
while they stay the same, it returns the fixture it built from them, and
with it the report rows that fixture built the first time it was asked.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import starmap
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

from .errors import FixtureError
from .matrix import (
    DIACHRONOUS,
    MAX_COUNT,
    SYNCHRONOUS,
    AugmentedMatrix,
    Cell,
    PubCitMatrix,
    PublicationLedger,
    YearSpan,
    year_range,
)
from .metrics import _source_matrix

if TYPE_CHECKING:
    from .report import ReportRow

# The field that holds each augmentation variant's unique-new block, in the
# order a fixture lists them.
_UNIQUE_BLOCKS = {SYNCHRONOUS: "unique_new_sync", DIACHRONOUS: "unique_new_diach"}
_REQUIRED = ("pub_years", "cite_years", "publications", "citations")
_FIELDS = {*_REQUIRED, *_UNIQUE_BLOCKS.values()}
_TRIPLE_BLOCKS = ("citations", *_UNIQUE_BLOCKS.values())
# One triple as json.dumps(indent=2) lays it out inside a top-level list.
_TRIPLE = "    [\n      {},\n      {},\n      {}\n    ]"


@dataclass(frozen=True)
class MatrixFixture:
    matrix: PubCitMatrix
    sync: AugmentedMatrix | None = None
    diach: AugmentedMatrix | None = None

    @cached_property
    def report(self) -> tuple[ReportRow, ...]:
        """The rows :func:`~citemetrics.report.build_report` gives for this
        fixture, built the first time they are read and then kept with it
        (a refusal is raised again on the next read, never kept). So the
        maps must not change after that first read, as after a first window
        sum."""
        # Imported here, so that loading a fixture alone never loads the report.
        from .report import build_report

        return tuple(build_report(self.matrix, self.sync, self.diach))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _span(value: Any, name: str) -> YearSpan:
    if not (isinstance(value, list) and len(value) == 2 and all(_is_int(v) for v in value)):
        raise FixtureError(f"{name} must be a [first, last] pair of integers")
    lo, hi = value
    if lo > hi:
        raise FixtureError(f"{name} span [{lo}, {hi}] is empty")
    return (lo, hi)


def _triples(
    value: Any,
    name: str,
    cite_years: YearSpan,
    pub_years: YearSpan,
    *,
    citations: Mapping[Cell, int] | None = None,
) -> dict[Cell, int]:
    """Read a triple block into a map of its non-zero cells. ``citations``
    is None for the citations block; for a unique-new block it holds the
    citation cells, and each entry is checked against them."""
    if not isinstance(value, list):
        raise FixtureError(f"{name} must be a list of [citation_year, pub_year, count] triples")
    # One tight pass, since a fixture holds a triple per non-zero cell and
    # this loop is most of the time spent loading a wide one: `type(v) is
    # int` settles the usual case in one call and also excludes bool;
    # _is_int runs only for other int subclasses. A zero count passes every
    # check, a duplicate cell included, but is dropped at the end: the cell
    # maps hold non-zero cells only.
    cite_lo, cite_hi = cite_years
    pub_lo, pub_hi = pub_years
    out: dict[Cell, int] = {}
    zeros = False
    for entry in value:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FixtureError(f"{name} entry {entry!r} is not an integer triple")
        k, i, count = entry
        if not (type(k) is int and type(i) is int and type(count) is int) and not (
            _is_int(k) and _is_int(i) and _is_int(count)
        ):
            raise FixtureError(f"{name} entry {entry!r} is not an integer triple")
        if not cite_lo <= k <= cite_hi:
            raise FixtureError(f"{name} entry {entry!r}: citation year {k} outside {cite_years}")
        if not pub_lo <= i <= pub_hi:
            raise FixtureError(f"{name} entry {entry!r}: publication year {i} outside {pub_years}")
        if count < 1:
            if count < 0:
                raise FixtureError(f"{name} entry {entry!r}: negative count")
            zeros = True
        if k < i and citations is not None:
            raise FixtureError(f"{name} entry {entry!r}: citation year precedes publication year")
        cell = (k, i)
        if cell in out:
            raise FixtureError(f"{name} has two entries for cell ({k}, {i})")
        if citations is None:
            if count > MAX_COUNT:
                raise FixtureError(f"{name} count at {cell} is above the limit of 10**18")
        elif count > (cited := citations.get(cell, 0)):
            raise FixtureError(f"{name} cell {list(cell)}: unique count {count} exceeds {cited} citations")
        out[cell] = count
    if zeros:
        return {cell: count for cell, count in out.items() if count}
    return out


def load_document(doc: Any) -> MatrixFixture:
    """Validate a parsed JSON document and build the matrices it describes.

    The matrices store the non-zero cells only, so two documents that differ
    only in zero-count triples load equal. Their maps, the citations, the
    unique-new counts and the ledger's counts, are read-only views: writing
    to one raises TypeError.
    """
    if not isinstance(doc, dict):
        raise FixtureError("fixture must be a JSON object")
    unknown = set(doc) - _FIELDS
    if unknown:
        raise FixtureError(f"unknown fixture fields: {', '.join(sorted(unknown))}")
    for name in _REQUIRED:
        if name not in doc:
            raise FixtureError(f"missing required field {name!r}")

    pub_years = _span(doc["pub_years"], "pub_years")
    cite_years = _span(doc["cite_years"], "cite_years")

    raw_pubs = doc["publications"]
    if not isinstance(raw_pubs, dict):
        raise FixtureError("publications must be an object of year -> count")
    counts: dict[int, int] = {}
    for key, value in raw_pubs.items():
        try:
            year = int(key)
        except (TypeError, ValueError):
            year = None
        if year is None or str(year) != key:  # only the key ingest writes for the year
            raise FixtureError(f"publications key {key!r} is not a year")
        if not _is_int(value) or value < 0:
            raise FixtureError(f"publications[{key}] must be a non-negative integer")
        if value > MAX_COUNT:
            raise FixtureError(f"publications count at {year} is above the limit of 10**18")
        counts[year] = value
    # Checked from the span's ends, so a span of 10^11 years costs no more
    # than the keys the document holds.
    pub_lo, pub_hi = pub_years
    if len(counts) != pub_hi - pub_lo + 1 or not all(pub_lo <= year <= pub_hi for year in counts):
        raise FixtureError("publications must cover exactly the pub_years span")

    cells = _triples(doc["citations"], "citations", cite_years, pub_years)
    ledger = PublicationLedger(MappingProxyType(counts))
    matrix = PubCitMatrix(pub_years, cite_years, ledger, MappingProxyType(cells))

    def augmented(variant: str) -> AugmentedMatrix | None:
        field = _UNIQUE_BLOCKS[variant]
        if field not in doc:
            return None
        unique = _triples(doc[field], field, cite_years, pub_years, citations=cells)
        return AugmentedMatrix(variant, MappingProxyType(unique), matrix)

    return MatrixFixture(
        matrix=matrix,
        sync=augmented(SYNCHRONOUS),
        diach=augmented(DIACHRONOUS),
    )


def _triple_list(cells: Mapping[Cell, int]) -> list[list[int]]:
    return [[k, i, n] for (k, i), n in sorted(cells.items()) if n]


def to_document(
    matrix: PubCitMatrix,
    sync: AugmentedMatrix | None = None,
    diach: AugmentedMatrix | None = None,
) -> dict:
    """Serialize matrices into the fixture document shape. ``matrix`` must
    be a citation matrix and ``sync`` and ``diach``, when given, the
    augmentations of their variants built from it: anything else raises a
    one-line ValueError."""
    _source_matrix("to_document", None, matrix)
    doc: dict[str, Any] = {
        "pub_years": list(matrix.pub_years),
        "cite_years": list(matrix.cite_years),
        "publications": {str(y): matrix.pub(y) for y in year_range(matrix.pub_years)},
        "citations": _triple_list(matrix.citations),
    }
    for variant, augmented in ((SYNCHRONOUS, sync), (DIACHRONOUS, diach)):
        if augmented is not None:
            field = _UNIQUE_BLOCKS[variant]
            if isinstance(augmented, AugmentedMatrix) and augmented.variant != variant:
                argument = field.removeprefix("unique_new_")
                raise ValueError(f"{argument} argument must carry the {variant} variant")
            _source_matrix("to_document", variant, augmented)
            doc[field] = _triple_list(augmented.unique_new)
    for augmented in filter(None, (sync, diach)):
        _source_matrix("to_document", augmented.variant, augmented, matrix)
    return doc


def _object_without_duplicates(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FixtureError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


# The bytes of the last successful load_fixture and the fixture it built.
_last: tuple[bytes, MatrixFixture] | None = None


def load_fixture(path: str | Path) -> MatrixFixture:
    """Read and validate a fixture file.

    Beyond :func:`load_document`'s checks, a key repeated within one JSON
    object is rejected rather than letting the last value win. Every
    :class:`FixtureError` it raises starts with ``path``.

    The last fixture loaded is kept with the file's bytes, and a later call
    that reads the same bytes, from any path, returns that same object
    without decoding them again. Callers share it, so its maps are
    read-only (see :func:`load_document`).
    """
    global _last
    with open(path, "rb") as fh:  # open(), so an OSError names the path as given
        data = fh.read()
    last = _last  # one read, so another thread's load cannot empty it midway
    if last is not None and last[0] == data:
        return last[1]
    _last = last = None  # free the previous fixture before building the next
    try:
        # A text wrapper, as open() in text mode gives, so line endings and
        # error positions read as they would from the file itself.
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
            try:
                doc = json.load(fh, object_pairs_hook=_object_without_duplicates)
            # ValueError covers JSONDecodeError, UnicodeDecodeError and an
            # integer literal past Python's int-to-str digit limit.
            except (ValueError, RecursionError) as exc:
                raise FixtureError(f"not valid JSON ({exc})") from None
        fixture = load_document(doc)
    except FixtureError as exc:
        raise FixtureError(f"{path}: {exc}") from None
    _last = (data, fixture)
    return fixture


def _write_document(fh, doc: dict) -> None:
    """Write ``doc`` exactly as ``json.dumps(doc, indent=2)`` renders it,
    plus a newline.

    ``json.dump`` with an indent always runs the pure-Python encoder, and a
    wide fixture holds tens of thousands of triples. So only the head of the
    document goes through ``json.dumps``; each triple comes from one format
    string. The triple blocks must come after the other fields, of which
    there must be at least one, as in every document :func:`to_document`
    returns.
    """
    head = {key: value for key, value in doc.items() if key not in _TRIPLE_BLOCKS}
    fh.write(json.dumps(head, indent=2)[:-2])  # reopen the object: drop "\n}"
    for name, triples in doc.items():
        if name in _TRIPLE_BLOCKS:
            fh.write(f',\n  "{name}": ')
            if triples:
                fh.write("[\n" + ",\n".join(starmap(_TRIPLE.format, triples)) + "\n  ]")
            else:
                fh.write("[]")
    fh.write("\n}\n")


def save_fixture(
    path: str | Path,
    matrix: PubCitMatrix,
    sync: AugmentedMatrix | None = None,
    diach: AugmentedMatrix | None = None,
) -> None:
    """Write a fixture file.

    The document goes to a new temporary file beside ``path``, which then
    replaces ``path`` in one rename, so a write that fails part way leaves
    any previous fixture as it was. An OSError names ``path``, never that file.
    """
    doc = to_document(matrix, sync, diach)
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        # Mode 0o666 leaves the permissions to the umask, as open(path, "w") does.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                _write_document(fh, doc)
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
