import errno
import io
import json
import os
import stat
import subprocess
import sys
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citemetrics import fixture
from citemetrics.errors import FixtureError
from citemetrics.fixture import load_document, load_fixture, save_fixture, to_document
from citemetrics.ingest import MAX_COUNT, PublicationLedger
from citemetrics.matrix import COLUMN, ROW, Window

from conftest import DATA
from helpers import build_all, ev, loadable_documents


def _small_doc():
    return {
        "pub_years": [2004, 2005],
        "cite_years": [2004, 2006],
        "publications": {"2004": 3, "2005": 2},
        "citations": [[2005, 2004, 2], [2006, 2005, 1]],
        "unique_new_sync": [[2005, 2004, 1], [2006, 2005, 1]],
        "unique_new_diach": [[2005, 2004, 1], [2006, 2005, 1]],
    }


def test_load_document_builds_matrices():
    fx = load_document(_small_doc())
    assert fx.matrix.pub_years == (2004, 2005)
    assert fx.matrix.cit(2005, 2004) == 2
    assert fx.matrix.cit(2004, 2004) == 0  # zero-filled
    assert fx.sync.unique(2005, 2004) == 1
    assert fx.diach.unique(2006, 2005) == 1


def test_unique_blocks_are_optional():
    doc = _small_doc()
    del doc["unique_new_sync"]
    del doc["unique_new_diach"]
    fx = load_document(doc)
    assert fx.sync is None and fx.diach is None


def test_round_trip_through_document(tmp_path):
    events = [
        ev("a", 2005, 2004, "c1"),
        ev("b", 2005, 2004, "c2"),
        ev("a", 2006, 2005, "c3"),
    ]
    matrix, sync, diach = build_all(
        events, PublicationLedger({2004: 4, 2005: 6}), (2004, 2005), (2004, 2006)
    )
    path = tmp_path / "fx.json"
    save_fixture(path, matrix, sync, diach)
    loaded = load_fixture(path)
    assert loaded.matrix == matrix
    assert loaded.sync.unique_new == sync.unique_new
    assert loaded.diach.unique_new == diach.unique_new



def test_save_writes_the_indented_document_and_no_stray_file(tmp_path, mjm):
    path = tmp_path / "fx.json"
    save_fixture(path, mjm.matrix, mjm.sync, mjm.diach)
    doc = to_document(mjm.matrix, mjm.sync, mjm.diach)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"
    assert os.listdir(tmp_path) == ["fx.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_failed_save_keeps_the_previous_fixture(tmp_path, mjm, monkeypatch):
    path = tmp_path / "fx.json"
    path.write_text("previous fixture")

    def write_then_fail(fh, doc):
        fh.write('{\n  "pub_years": [')
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(fixture, "_write_document", write_then_fail)
    with pytest.raises(OSError, match="No space left"):
        save_fixture(path, mjm.matrix, mjm.sync, mjm.diach)
    assert path.read_text() == "previous fixture"
    assert os.listdir(tmp_path) == ["fx.json"]


def test_saving_the_bundled_fixture_gives_back_its_bytes(tmp_path, mjm):
    path = tmp_path / "fx.json"
    save_fixture(path, mjm.matrix, mjm.sync, mjm.diach)
    assert path.read_bytes() == (DATA / "mjm_fixture.json").read_bytes()


@st.composite
def _documents(draw):
    """Fixture-shaped documents as to_document lays them out. The values
    need not pass load_document: the writer only has to render them."""
    year = st.integers(-99_999, 99_999)
    first = draw(year)
    pub_years = [first, first + draw(st.integers(0, 3))]
    first = draw(year)
    cite_years = [first, first + draw(st.integers(0, 3))]
    count = st.integers(0, 10**30)
    doc = {
        "pub_years": pub_years,
        "cite_years": cite_years,
        "publications": {str(y): draw(count) for y in range(pub_years[0], pub_years[1] + 1)},
    }
    triples = st.lists(st.lists(st.one_of(year, count), min_size=3, max_size=3), max_size=6)
    doc["citations"] = draw(triples)
    for name in ("unique_new_sync", "unique_new_diach"):
        if draw(st.booleans()):
            doc[name] = draw(triples)
    return doc


@given(_documents())
def test_writer_matches_json_dumps_byte_for_byte(doc):
    fh = io.StringIO()
    fixture._write_document(fh, doc)
    assert fh.getvalue() == json.dumps(doc, indent=2) + "\n"


@given(loadable_documents())
def test_a_loadable_document_loads_round_trips_and_is_written_as_json_dumps_renders_it(doc):
    fx = load_document(doc)
    assert fx.matrix.citations == {(k, i): n for k, i, n in doc["citations"] if n}
    assert load_document(to_document(fx.matrix, fx.sync, fx.diach)) == fx
    fh = io.StringIO()
    fixture._write_document(fh, doc)
    assert fh.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_save_onto_a_directory_fails_without_a_stray_file(tmp_path, mjm):
    (tmp_path / "fx.json").mkdir()
    with pytest.raises(OSError):
        save_fixture(tmp_path / "fx.json", mjm.matrix)
    assert os.listdir(tmp_path) == ["fx.json"]


def test_a_failed_save_names_the_path_as_given(tmp_path, mjm, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    with pytest.raises(FileNotFoundError) as missing:
        save_fixture("nodir/out.json", mjm.matrix)
    with pytest.raises(IsADirectoryError) as directory:
        save_fixture(tmp_path / "outdir", mjm.matrix)
    assert str(missing.value) == f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'nodir/out.json'"
    assert str(directory.value) == f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path / 'outdir'}'"
    assert os.listdir(tmp_path) == ["outdir"]
    assert os.listdir(tmp_path / "outdir") == []


def test_importing_the_commands_loads_no_secrets_module():
    """save_fixture names its temporary file from os.urandom, so a command
    pays for no secrets module and what it imports."""
    code = "import sys, citemetrics.cli; print('secrets' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fixture.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_importing_the_commands_loads_no_ingest_side():
    """The ledger lives in the matrix module, ingest imports it from there,
    and the package exports load lazily: a metric or report command pays for
    no CSV parsing, no ingest module and no statistics."""
    code = (
        "import sys, citemetrics.cli; "
        "print(sorted(m for m in ('csv', 'string', 'citemetrics.ingest', 'citemetrics.stats') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fixture.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_a_loaded_fixture_is_read_only(tmp_path):
    """Every load of the same bytes shares one fixture, so a write to any of
    its maps is refused rather than seen by every later load. Matrices built
    from events keep plain dicts."""
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(_small_doc()))
    for loaded in (load_document(_small_doc()), load_fixture(path)):
        maps = (
            loaded.matrix.citations,
            loaded.sync.unique_new,
            loaded.diach.unique_new,
            loaded.matrix.publications.counts,
        )
        for cells in maps:
            key = next(iter(cells))
            with pytest.raises(TypeError):
                cells[key] = 1
            with pytest.raises(TypeError):
                del cells[key]
        assert loaded == load_document(_small_doc())
    events = [ev("Gut", 2005, 2004)]
    matrix, sync, diach = build_all(events, PublicationLedger({2004: 1}), (2004, 2004), (2004, 2005))
    for cells in (matrix.citations, sync.unique_new, diach.unique_new):
        assert type(cells) is dict


def test_to_document_drops_zero_cells():
    matrix, sync, diach = build_all([], PublicationLedger({2004: 1}), (2004, 2004), (2004, 2004))
    doc = to_document(matrix, sync, diach)
    assert doc["citations"] == []
    assert doc["unique_new_sync"] == []


def test_to_document_checks_variants():
    matrix, sync, diach = build_all([], PublicationLedger({2004: 1}), (2004, 2004), (2004, 2004))
    with pytest.raises(ValueError):
        to_document(matrix, sync=diach)
    with pytest.raises(ValueError):
        to_document(matrix, diach=sync)


@pytest.mark.parametrize("missing", ["pub_years", "cite_years", "publications", "citations"])
def test_missing_required_field(missing):
    doc = _small_doc()
    del doc[missing]
    with pytest.raises(FixtureError, match=missing):
        load_document(doc)


def test_unknown_field_rejected():
    doc = _small_doc()
    doc["notes"] = "hello"
    with pytest.raises(FixtureError, match="unknown"):
        load_document(doc)


def test_non_object_rejected():
    with pytest.raises(FixtureError):
        load_document([1, 2, 3])


def test_empty_span_rejected():
    doc = _small_doc()
    doc["pub_years"] = [2008, 2004]
    with pytest.raises(FixtureError, match="empty"):
        load_document(doc)


def test_malformed_span_rejected():
    doc = _small_doc()
    doc["cite_years"] = [2004]
    with pytest.raises(FixtureError):
        load_document(doc)


def test_duplicate_cell_rejected():
    doc = _small_doc()
    doc["citations"].append([2005, 2004, 9])
    with pytest.raises(FixtureError, match="two entries"):
        load_document(doc)


def test_citation_year_out_of_span_rejected():
    doc = _small_doc()
    doc["citations"].append([2007, 2004, 1])
    with pytest.raises(FixtureError, match="outside"):
        load_document(doc)


def test_pub_year_out_of_span_rejected():
    doc = _small_doc()
    doc["citations"].append([2005, 2003, 1])
    with pytest.raises(FixtureError, match="outside"):
        load_document(doc)


def test_negative_count_rejected():
    doc = _small_doc()
    doc["citations"][0][2] = -1
    with pytest.raises(FixtureError, match="negative"):
        load_document(doc)


def test_bool_is_not_a_count():
    doc = _small_doc()
    doc["citations"][0][2] = True
    with pytest.raises(FixtureError):
        load_document(doc)


def test_backdated_citations_allowed_but_backdated_uniques_rejected():
    doc = _small_doc()
    doc["citations"].append([2004, 2005, 1])  # fine: flagged data still gets stored
    load_document(doc)
    doc["unique_new_sync"].append([2004, 2005, 1])
    with pytest.raises(FixtureError, match="precedes"):
        load_document(doc)


def test_unique_cannot_exceed_citations():
    doc = _small_doc()
    doc["unique_new_sync"][0] = [2005, 2004, 3]  # cell only has 2 citations
    with pytest.raises(FixtureError, match="exceeds"):
        load_document(doc)


def test_publications_must_cover_span_exactly():
    doc = _small_doc()
    del doc["publications"]["2005"]
    with pytest.raises(FixtureError, match="cover"):
        load_document(doc)
    doc = _small_doc()
    doc["publications"]["2006"] = 1
    with pytest.raises(FixtureError, match="cover"):
        load_document(doc)


def test_publications_key_must_be_a_year():
    doc = _small_doc()
    doc["publications"]["soon"] = 1
    with pytest.raises(FixtureError, match="year"):
        load_document(doc)


def test_load_fixture_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FixtureError, match="JSON"):
        load_fixture(path)


@pytest.mark.parametrize(
    ("data", "reason"),
    [
        # Read as text: the error position counts each CRLF as one character.
        (
            b'{\r\n  "pub_years": [2004, 2005],\r\n  "cite_years": [2004]"citations": []\r\n}\r\n',
            "Expecting ',' delimiter: line 3 column 23 (char 53)",
        ),
        (b'{"pub_years": [2004, \xff2005]}', "'utf-8' codec can't decode byte 0xff in position 21: invalid start byte"),
        (b'\xef\xbb\xbf{"pub_years": [2004, 2005]}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ],
    ids=["crlf", "not utf-8", "byte-order mark"],
)
def test_an_undecodable_file_is_refused_with_its_text(tmp_path, data, reason):
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    with pytest.raises(FixtureError) as err:
        load_fixture(path)
    assert str(err.value) == f"{path}: not valid JSON ({reason})"


def test_unchanged_bytes_are_decoded_once(tmp_path, decodes):
    text = json.dumps(_small_doc())
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(text)
    second.write_text(text)
    loaded = load_fixture(first)
    assert load_fixture(first) is loaded
    assert load_fixture(second) is loaded  # the bytes decide, not the path
    assert len(decodes) == 1
    assert loaded == load_document(_small_doc())
    second.write_text(text + " ")
    assert load_fixture(second) is not loaded
    assert len(decodes) == 2


def test_the_old_fixture_is_freed_before_the_next_is_decoded(tmp_path, decodes, monkeypatch):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps(_small_doc()))
    second.write_text(json.dumps(_small_doc()) + " ")
    loaded = load_fixture(first)
    old, row = weakref.ref(loaded), weakref.ref(loaded.report[-1])
    del loaded
    counting = json.load

    def checking(*args, **kwargs):
        assert old() is None, "the previous fixture is still held"
        assert row() is None, "the previous fixture's report rows are still held"
        return counting(*args, **kwargs)

    monkeypatch.setattr(json, "load", checking)
    assert load_fixture(second) == load_document(_small_doc())
    assert len(decodes) == 2


def test_a_shared_report_row_cannot_be_rewritten(tmp_path, decodes):
    """A loaded fixture's report rows are handed to every caller that loads
    the same bytes, so no caller may change what the next one reads."""
    path = tmp_path / "mjm.json"
    path.write_bytes((DATA / "mjm_fixture.json").read_bytes())
    first = load_fixture(path)
    value = first.report[3].sync_rdf_max
    cells = tuple(value.effective_window)
    with pytest.raises(AttributeError):
        value.effective_window.line = 1900
    with pytest.raises(AttributeError):
        del value.effective_window.years
    second = load_fixture(path)
    assert second is first and len(decodes) == 1
    assert second.report[3].sync_rdf_max is value
    assert tuple(value.effective_window) == cells and cells[0] == (2007, 2007)


@pytest.mark.parametrize(
    "bad",
    [
        b"{not json",
        b"",
        b'{"pub_years": "\xe9"}',
        json.dumps(_small_doc()).replace('"2004": 3', '"2004": 9, "2004": 3').encode(),
        json.dumps({**_small_doc(), "surprise": 1}).encode(),
        json.dumps({**_small_doc(), "citations": [[2005, 2004, -2]]}).encode(),
    ],
    ids=["syntax", "empty", "not utf-8", "duplicate key", "unknown field", "negative count"],
)
def test_a_failed_load_is_never_kept(tmp_path, decodes, bad):
    good, broken = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text(json.dumps(_small_doc()))
    broken.write_bytes(bad)
    first = load_fixture(good)
    messages = set()
    for _ in range(2):
        with pytest.raises(FixtureError) as err:
            load_fixture(broken)
        messages.add(str(err.value))
    assert len(messages) == 1
    again = load_fixture(good)
    assert again == load_document(_small_doc())
    assert again is not first
    assert len(decodes) == 4  # the good file, the bad one twice, the good one again


@pytest.mark.parametrize(
    "doc",
    [
        {**_small_doc(), "surprise": 1},
        {**_small_doc(), "publications": {"+2004": 3, "2005": 2}},
        {**_small_doc(), "citations": [[2005, 2004, 10**18 + 1]]},
        {**_small_doc(), "unique_new_sync": [[2005, 2004, 3]]},
        {**_small_doc(), "pub_years": [0, 10**11]},
    ],
    ids=["unknown field", "publications key", "count limit", "unique exceeds", "span coverage"],
)
def test_every_refusal_names_the_file(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FixtureError) as expected:
        load_document(doc)
    with pytest.raises(FixtureError) as err:
        load_fixture(path)
    assert str(err.value) == f"{path}: {expected.value}"


def test_a_value_error_while_validating_is_not_a_json_error(tmp_path, monkeypatch):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(_small_doc()))

    def failing(doc):
        raise ValueError("not from the decoder")

    monkeypatch.setattr(fixture, "_last", None)
    monkeypatch.setattr(fixture, "load_document", failing)
    with pytest.raises(ValueError, match="^not from the decoder$"):
        load_fixture(path)


def test_bundled_dataset_loads(mjm):
    assert mjm.matrix.pub_years == (2004, 2008)
    assert mjm.matrix.cite_years == (2004, 2010)
    assert mjm.matrix.pub(2008) == 135
    assert mjm.matrix.cit(2004, 2004) == 8
    assert mjm.matrix.cit(2009, 2006) == 87
    assert mjm.sync.unique(2009, 2006) == 77
    assert mjm.diach.unique(2010, 2004) == 11
    assert mjm.matrix.window_sum(Window(COLUMN, 2004, range(2004, 2011))) == 409
    assert mjm.matrix.window_sum(Window(ROW, 2009, range(2004, 2009))) == 310


@pytest.mark.parametrize(
    "entry",
    [
        [2005, 2004, 1.0],  # float count
        "abc",  # a 3-character string unpacks into three items
        (2005, 2004, 1),  # tuple, not a JSON array
        [2005, 2004],
        [2005, 2004, 1, 1],
        None,
        [2005, [2004], 1],
        [2005, 2004, False],
    ],
)
def test_citation_entry_must_be_an_integer_triple(entry):
    doc = _small_doc()
    doc["citations"].append(entry)
    with pytest.raises(FixtureError, match="is not an integer triple"):
        load_document(doc)


@pytest.mark.parametrize("entry", ["abc", (2005, 2004, 1), [2005, 2004, 1.0], None])
def test_unique_entry_must_be_an_integer_triple(entry):
    doc = _small_doc()
    doc["unique_new_diach"].append(entry)
    with pytest.raises(FixtureError, match="unique_new_diach entry .* is not an integer triple"):
        load_document(doc)


def test_int_subclasses_other_than_bool_are_counts():
    class Count(int):
        pass

    doc = _small_doc()
    doc["citations"][0] = [Count(2005), 2004, Count(2)]
    assert load_document(doc).matrix.cit(2005, 2004) == 2


def test_list_subclass_entries_are_triples():
    class Entry(list):
        pass

    doc = _small_doc()
    doc["citations"][0] = Entry([2005, 2004, 2])
    assert load_document(doc).matrix.cit(2005, 2004) == 2


def test_backdated_diachronous_unique_rejected():
    doc = _small_doc()
    doc["citations"].append([2004, 2005, 1])
    doc["unique_new_diach"].append([2004, 2005, 1])
    with pytest.raises(FixtureError, match="unique_new_diach entry .*precedes"):
        load_document(doc)


def test_diachronous_unique_cannot_exceed_citations():
    doc = _small_doc()
    doc["unique_new_diach"][1] = [2006, 2005, 2]  # cell only has 1 citation
    with pytest.raises(FixtureError, match=r"unique_new_diach cell \[2006, 2005\]: unique count 2 exceeds 1"):
        load_document(doc)


def test_unique_cell_without_citations_rejected():
    doc = _small_doc()
    doc["unique_new_sync"].append([2004, 2004, 1])  # zero-filled cell
    with pytest.raises(FixtureError, match="exceeds 0 citations"):
        load_document(doc)


def test_first_bad_entry_decides_the_message():
    doc = _small_doc()
    doc["citations"] += [[2005, 2004, 9], [2005, 2004, -1]]
    with pytest.raises(FixtureError, match="two entries for cell"):
        load_document(doc)


_MJM = (DATA / "mjm_fixture.json").read_text()
# The faults each block can hold, by the rule an entry breaks.
_FAULTS = {
    "citations": ("type", "bool", "span", "negative", "duplicate", "bound"),
    "unique_new_sync": ("type", "bool", "span", "negative", "duplicate", "backdated", "bound"),
    "unique_new_diach": ("type", "bool", "span", "negative", "duplicate", "backdated", "bound"),
}


def _bad_entry(doc, field, position, fault, source, form):
    """Entry ``position`` of block ``field`` with ``fault`` put in it. A
    duplicate repeats the cell of entry ``source``; ``form`` picks one of
    the wrong types."""
    k, i, n = doc[field][position]
    if fault == "type":
        return ([k, i, float(n)], [k, i, str(n)], [k, i], None, (k, i, n))[form]
    if fault == "bool":
        return [k, i, True]
    if fault == "span":
        return [doc["cite_years"][1] + 1, i, n]
    if fault == "negative":
        return [k, i, -1 - n]
    if fault == "duplicate":
        return [*doc[field][source][:2], n]
    if fault == "backdated":
        return [doc["pub_years"][0], doc["pub_years"][0] + 1, n]
    if field == "citations":  # bound
        return [k, i, MAX_COUNT + 1]
    cited = {(k, i): n for k, i, n in doc["citations"]}
    return [k, i, cited.get((k, i), 0) + 1]


@given(st.data())
def test_the_first_bad_entry_of_a_block_names_the_refusal(data):
    """Two different faults in one block, at entries j < m: the refusal is
    the one the fault at j gives alone, whichever rule each breaks."""
    field = data.draw(st.sampled_from(sorted(_FAULTS)))
    size = len(json.loads(_MJM)[field])
    j = data.draw(st.integers(0, size - 2))
    m = data.draw(st.integers(j + 1, size - 1))
    # A duplicate repeats an entry before it that neither fault touches.
    menu = [fault for fault in _FAULTS[field] if fault != "duplicate" or j > 0]
    first = data.draw(st.sampled_from(menu))
    menu = [fault for fault in _FAULTS[field] if fault != first and (fault != "duplicate" or m > 1)]
    second = data.draw(st.sampled_from(menu))
    form = data.draw(st.integers(0, 4))

    def refusal(*faults):
        doc = json.loads(_MJM)
        for position, fault in faults:
            source = min(q for q in range(position) if q != j) if fault == "duplicate" else None
            doc[field][position] = _bad_entry(doc, field, position, fault, source, form)
        with pytest.raises(FixtureError) as err:
            load_document(doc)
        return str(err.value)

    refusal((m, second))  # the fault at m is a refusal on its own
    assert refusal((j, first), (m, second)) == refusal((j, first))


@pytest.mark.parametrize(
    ("edits", "message"),
    [
        pytest.param(
            [("citations", 0, [2004, 2004, 10**18 + 1]), ("citations", None, [2005, 2004, 37])],
            "citations count at (2004, 2004) is above the limit of 10**18",
            id="over-limit-then-duplicate",
        ),
        pytest.param(
            [("citations", 0, [2004, 2004, 10**18 + 1]), ("citations", 3, [2006, 2004, 10**19])],
            "citations count at (2004, 2004) is above the limit of 10**18",
            id="two-over-limit",
        ),
        pytest.param(
            [("unique_new_sync", 0, [2004, 2004, 10**6]), ("unique_new_sync", None, [2010, 2008, -1])],
            "unique_new_sync cell [2004, 2004]: unique count 1000000 exceeds 8 citations",
            id="exceeds-then-negative",
        ),
        pytest.param(
            [("publications", "2004", 10**18 + 1), ("publications", "+2009", 1)],
            "publications count at 2004 is above the limit of 10**18",
            id="publication-over-limit-then-bad-key",
        ),
    ],
)
def test_of_several_faults_the_first_bad_entry_is_named(mjm_doc, edits, message):
    for field, key, value in edits:
        if key is None:
            mjm_doc[field].append(value)
        else:
            mjm_doc[field][key] = value
    with pytest.raises(FixtureError) as err:
        load_document(mjm_doc)
    assert str(err.value) == message


# Values of a type that most places in a fixture refuse.
_JUNK = st.one_of(
    st.booleans(),
    st.floats(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _slots(value):
    """Each (container, key) pair inside a JSON-shaped value."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield value, key
            yield from _slots(item)


@given(_documents(), st.lists(_JUNK, max_size=2), st.data())
def test_any_document_loads_or_is_refused(doc, junk, data):
    """load_document returns or raises FixtureError, never anything else,
    even for values of the wrong type; what it returns round-trips."""
    for value in junk:
        container, key = data.draw(st.sampled_from(list(_slots(doc))))
        container[key] = value
    try:
        fx = load_document(doc)
    except FixtureError:
        return
    assert load_document(to_document(fx.matrix, fx.sync, fx.diach)) == fx


def test_zero_count_triples_are_accepted_and_ignored():
    doc = _small_doc()
    doc["citations"] += [[2004, 2004, 0], [2006, 2004, 0]]
    doc["unique_new_sync"].append([2006, 2004, 0])
    doc["unique_new_diach"].insert(0, [2004, 2004, 0])
    fx = load_document(doc)
    assert fx == load_document(_small_doc())
    assert fx.matrix.citations == {(2005, 2004): 2, (2006, 2005): 1}
    assert fx.matrix.cit(2004, 2004) == 0
    # a zero triple still counts as the cell's entry
    doc["citations"].append([2004, 2004, 5])
    with pytest.raises(FixtureError, match=r"two entries for cell \(2004, 2004\)"):
        load_document(doc)


def test_zero_filled_grids_are_independent():
    fx = load_document(_small_doc())
    assert fx.matrix.citations is not fx.sync.unique_new
    assert fx.sync.unique_new is not fx.diach.unique_new
    assert set(fx.sync.unique_new) == set(fx.matrix.citations) == set(fx.diach.unique_new)
    assert fx.sync.unique(2004, 2005) == 0


def test_load_fixture_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "dup.json"
    text = json.dumps(_small_doc()).replace('"2004": 3', '"2004": 99, "2004": 3')
    path.write_text(text)
    with pytest.raises(FixtureError, match="duplicate key '2004'"):
        load_fixture(path)
    path.write_text('{"citations": [], ' + json.dumps(_small_doc())[1:])
    with pytest.raises(FixtureError, match="duplicate key 'citations'"):
        load_fixture(path)


def test_load_fixture_rejects_undecodable_and_deeply_nested_files(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"pub_years": "\xe9"}')
    with pytest.raises(FixtureError, match="not valid JSON"):
        load_fixture(path)
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(FixtureError, match="not valid JSON"):
        load_fixture(path)


@pytest.mark.parametrize(
    ("pub_years", "publications", "covers"),
    [
        ([2004, 2004], {"2004": 2}, True),
        ([2004, 2005], {"2004": 2, "2005": 3}, True),
        ([2004, 2006], {"2004": 1, "2005": 3}, False),
        ([2004, 2005], {"2004": 1, "2006": 2}, False),
        ([2004, 2005], {"2004": 1, "2005": 2, "2003": 2}, False),
        ([2004, 2005], {"2004": 1, "2005": 2, "2006": 2}, False),
    ],
)
def test_publications_cover_the_span_by_distinct_years(pub_years, publications, covers):
    """Every year of the span has its key, and no key lies outside it."""
    doc = {"pub_years": pub_years, "cite_years": [0, 0], "publications": publications, "citations": []}
    if covers:
        assert load_document(doc).matrix.pub(2004) == 2
    else:
        with pytest.raises(FixtureError, match="^publications must cover exactly the pub_years span$"):
            load_document(doc)


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("citations", {}, "citations must be a list of [citation_year, pub_year, count] triples"),
        ("publications", [[2004, 3]], "publications must be an object of year -> count"),
        ("publications", {"2004": -1, "2005": 2}, "publications[2004] must be a non-negative integer"),
        ("publications", {"2004": True, "2005": 2}, "publications[2004] must be a non-negative integer"),
        ("publications", {"2004": 1.5, "2005": 2}, "publications[2004] must be a non-negative integer"),
        # A key is read only in the form ingest writes it, str(year).
        ("publications", {"2_004": 3, "2005": 2}, "publications key '2_004' is not a year"),
        ("publications", {"+2004": 3, "2005": 2}, "publications key '+2004' is not a year"),
        ("publications", {" 2004 ": 3, "2005": 2}, "publications key ' 2004 ' is not a year"),
        ("publications", {"٢٠٠٤": 3, "2005": 2}, "publications key '٢٠٠٤' is not a year"),
        ("publications", {"02004": 3, "2005": 2}, "publications key '02004' is not a year"),
        ("publications", {"2004": 1, " 2004": 2, "2005": 3}, "publications key ' 2004' is not a year"),
        ("publications", {"2004": 1, "+2005": 2}, "publications key '+2005' is not a year"),
        ("publications", {2004: 3, "2005": 2}, "publications key 2004 is not a year"),
    ],
)
def test_a_malformed_block_is_refused_with_its_text(field, value, message):
    doc = _small_doc()
    doc[field] = value
    with pytest.raises(FixtureError) as err:
        load_document(doc)
    assert str(err.value) == message
