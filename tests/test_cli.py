import errno
import json
import os
import tracemalloc

import pytest

from citemetrics import fixture
from citemetrics.cli import build_parser, main
from citemetrics.fixture import load_document, load_fixture
from citemetrics.metrics import REQUEST_KINDS, Indicator

from conftest import DATA

MJM = str(DATA / "mjm_fixture.json")

PUBS_CSV = "year,count\n2004,3\n2005,2\n"
CITES_CSV = (
    "cited_article_id,cited_pub_year,citing_journal,citing_year,citing_article_id\n"
    "a1,2004,Lancet,2005,c1\n"
    "a1,2004,LANCET.,2005,c2\n"
    "a2,2005,Lancet,2005,c3\n"
    "a1,2004,Med J Malaysia,2006,c4\n"
    "a2,2005,lancet,2006,c5\n"
    "a1,2004,Lancet,2005,c1\n"     # exact duplicate of the first row
    "a9,2003,Gut,2005,c6\n"        # publication year outside the ledger
    "b1,2006,BMJ,2004,c7\n"        # backdated and outside the ledger
)

# Derived by hand from the rows above: c1/c2 hit (2005, 2004), c3 (2005, 2005),
# c4 (2006, 2004), c5 (2006, 2005); the duplicate goes away, c6/c7 get clipped.
EXPECTED_INGEST_DOC = {
    "pub_years": [2004, 2005],
    "cite_years": [2004, 2006],
    "publications": {"2004": 3, "2005": 2},
    "citations": [[2005, 2004, 2], [2005, 2005, 1], [2006, 2004, 1], [2006, 2005, 1]],
    "unique_new_sync": [[2005, 2005, 1], [2006, 2004, 1], [2006, 2005, 1]],
    "unique_new_diach": [[2005, 2004, 1], [2005, 2005, 1], [2006, 2004, 1]],
}


@pytest.fixture()
def corpus(tmp_path):
    pubs = tmp_path / "pubs.csv"
    cites = tmp_path / "cites.csv"
    pubs.write_text(PUBS_CSV)
    cites.write_text(CITES_CSV)
    return pubs, cites, tmp_path / "fx.json"


class TestIngest:
    def test_writes_the_expected_fixture(self, corpus, capsys):
        pubs, cites, out = corpus
        code = main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == EXPECTED_INGEST_DOC
        stdout = capsys.readouterr().out
        assert "duplicate rows removed: 1" in stdout
        assert "clipped): 2" in stdout
        assert "before publication (kept): 1" in stdout

    def test_alias_table_merges_spellings(self, corpus, capsys):
        pubs, cites, out = corpus
        aliases = pubs.parent / "aliases.csv"
        aliases.write_text("raw,canonical\nmed j malaysia,lancet\n")
        code = main(
            ["ingest", "--pubs", str(pubs), "--cites", str(cites), "--aliases", str(aliases), "--matrix", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # with everything collapsing into one journal, the 2006 row scan
        # credits only the newer publication year
        assert doc["unique_new_sync"] == [[2005, 2005, 1], [2006, 2005, 1]]

    def test_empty_citations_file_yields_zero_matrix(self, tmp_path, capsys):
        pubs = tmp_path / "pubs.csv"
        cites = tmp_path / "cites.csv"
        out = tmp_path / "fx.json"
        pubs.write_text("year,count\n2004,139\n")
        cites.write_text("cited_article_id,cited_pub_year,citing_journal,citing_year\n")
        assert main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["publications"] == {"2004": 139}
        assert doc["citations"] == []
        assert doc["cite_years"] == [2004, 2004]

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "fx.json"
        code = main(["ingest", "--pubs", str(tmp_path / "nope.csv"), "--cites", str(tmp_path / "c.csv"), "--matrix", str(out)])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_a_missing_publications_file_is_one_error_line(self, corpus, monkeypatch, capsys):
        _, cites, out = corpus
        monkeypatch.chdir(cites.parent)
        assert main(["ingest", "--pubs", "nope.csv", "--cites", str(cites), "--matrix", str(out)]) == 1
        assert capsys.readouterr().err == "citemetrics: error: [Errno 2] No such file or directory: 'nope.csv'\n"

    @pytest.mark.parametrize(
        ("matrix", "code"),
        [("nodir/out.json", errno.ENOENT), ("outdir", errno.EISDIR)],
    )
    def test_a_failed_fixture_write_names_the_matrix_path(self, corpus, monkeypatch, capsys, matrix, code):
        pubs, cites, _ = corpus
        monkeypatch.chdir(pubs.parent)
        (pubs.parent / "outdir").mkdir()
        before = sorted(os.listdir())
        assert main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", matrix]) == 1
        assert capsys.readouterr().err == f"citemetrics: error: [Errno {code}] {os.strerror(code)}: '{matrix}'\n"
        assert sorted(os.listdir()) == before
        assert os.listdir("outdir") == []

    def test_empty_publications_file_names_its_file(self, corpus, capsys):
        pubs, cites, out = corpus
        pubs.write_text("year,count\n")
        assert main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)]) == 1
        assert capsys.readouterr().err == f"citemetrics: error: {pubs}: publications file contains no data rows\n"
        assert not out.exists()

    def test_a_malformed_citations_file_outranks_empty_publications(self, corpus, capsys):
        pubs, cites, out = corpus
        pubs.write_text("year,count\n")
        cites.write_text("cited_article_id,cited_pub_year,citing_journal,citing_year\na1,2004,Lancet\n")
        assert main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)]) == 1
        assert capsys.readouterr().err == f"citemetrics: error: {cites}: line 2: expected 4 fields, got 3\n"

    def test_a_repeated_article_id_exits_1_naming_file_line_and_column(self, corpus, capsys):
        pubs, cites, out = corpus
        pubs.write_text("article_id,year\np1,2004\np1,2004\np2,2005\np1,2005\n")
        assert main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"citemetrics: error: {pubs}: line 3, column 'article_id': duplicate article_id 'p1'\n"
        )
        assert not out.exists()

    def test_malformed_row_exits_1_with_line(self, corpus, capsys):
        pubs, cites, out = corpus
        cites.write_text(
            "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
            "a1,2004,Lancet,2005\n"
            "a1,2004,Lancet,soon\n"
        )
        code = main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_non_utf8_citations_exit_1_with_file_and_line(self, corpus, capsys):
        pubs, cites, out = corpus
        header = b"cited_article_id,cited_pub_year,citing_journal,citing_year\n"
        for body in (
            b"a1,2004,Lancet,2005\na1,2004,Lanc\xe9t,2005\n",
            # The decoder reads ahead, so the undecodable byte stops the read
            # before the csv module refuses the oversized field on line 2.
            b'a1,2004,"' + b"x" * 140_000 + b'",2005\na1,2004,Lancet,2005\xff\n',
        ):
            cites.write_bytes(header + body)
            code = main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"citemetrics: error: {cites}: line 3: not valid UTF-8")
            assert "Traceback" not in err and err.count("\n") == 1
            assert not out.exists()

    def test_non_utf8_publications_exit_1(self, corpus, capsys):
        pubs, cites, out = corpus
        pubs.write_bytes(b"year,count\n2004,3\xff\n")
        assert main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)]) == 1
        assert f"{pubs}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_oversized_field_exits_1_with_file_and_line(self, corpus, capsys):
        pubs, cites, out = corpus
        cites.write_text(
            "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
            "a1,2004,Lancet,2005\n"
            f'a1,2004,"{"x" * 140_000}",2005\n'
        )
        code = main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"citemetrics: error: {cites}: line 3: field larger than field limit (131072)\n"
        assert not out.exists()

    def test_oversized_alias_field_exits_1(self, corpus, capsys):
        pubs, cites, out = corpus
        aliases = pubs.parent / "aliases.csv"
        aliases.write_text(f'raw,canonical\n"{"y" * 140_000}",lancet\n')
        argv = ["ingest", "--pubs", str(pubs), "--cites", str(cites), "--aliases", str(aliases), "--matrix", str(out)]
        assert main(argv) == 1
        assert f"{aliases}: line 2: field larger" in capsys.readouterr().err


    def test_a_later_malformed_row_outranks_an_empty_journal_name(self, corpus, capsys):
        pubs, cites, out = corpus
        cites.write_text(
            "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
            "a1,2004,Lancet,2005\n"
            'a1,2004,"...",2005\n'
            "a1,2004,Lancet,2005\n"
            "a1,2004,Lancet,soon\n"
        )
        code = main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"citemetrics: error: {cites}: line 5, column 'citing_year': expected a 4-digit year, got 'soon'\n"
        )
        assert not out.exists()

    def test_empty_journal_name_reports_its_first_line(self, corpus, capsys):
        pubs, cites, out = corpus
        cites.write_text(
            "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
            "a1,2004,Lancet,2005\n"
            'a1,2004,"...",2005\n'
            "a1,2004,Lancet,2006\n"
            'a2,2004," ; ",2005\n'
        )
        code = main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"citemetrics: error: {cites}: line 3, column 'citing_journal': "
            "journal name is empty after normalization\n"
        )
        assert not out.exists()

    def test_alias_file_is_read_before_the_citations(self, corpus, capsys):
        pubs, cites, out = corpus
        cites.write_text(
            "cited_article_id,cited_pub_year,citing_journal,citing_year\n"
            "a1,2004,Lancet,soon\n"
        )
        aliases = pubs.parent / "aliases.csv"
        aliases.write_text("raw,canonical\nmjm,alpha\nMJM.,beta\n")
        argv = ["ingest", "--pubs", str(pubs), "--cites", str(cites), "--aliases", str(aliases), "--matrix", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"citemetrics: error: {aliases}: line 3: alias 'mjm' maps to both 'alpha' and 'beta'\n"
        )
        assert not out.exists()


class TestMetric:
    def test_text_output_carries_the_exact_fraction(self, capsys):
        code = main(["metric", "--matrix", MJM, "--kind", "diach_rdf", "--year", "2006", "--window", "5"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.81 (exact 206/253)"

    def test_max_window_and_precision(self, capsys):
        code = main(
            ["metric", "--matrix", MJM, "--kind", "sync_jdf", "--year", "2005", "--window", "max", "--precision", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.141 (exact 34/241)"

    def test_garfield_needs_no_window(self, capsys):
        assert main(["metric", "--matrix", MJM, "--kind", "garfield_if", "--year", "2009"]) == 0
        assert capsys.readouterr().out.strip() == "0.37 (exact 87/235)"

    def test_structured_output(self, capsys):
        code = main(
            ["metric", "--matrix", MJM, "--kind", "sync_if", "--year", "2009", "--window", "3", "--format", "structured"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["numerator"] == 174
        assert doc["denominator"] == 339
        assert doc["value"] == "0.51"
        assert doc["cells"] == [[2009, 2008], [2009, 2007], [2009, 2006]]

    def test_undefined_metric_exits_2(self, capsys):
        code = main(["metric", "--matrix", MJM, "--kind", "garfield_if", "--year", "2004"])
        assert code == 2
        err = capsys.readouterr().err
        assert "undefined" in err
        assert "2003" in err and "2002" in err

    def test_no_clip_turns_short_windows_undefined(self, capsys):
        argv = ["metric", "--matrix", MJM, "--kind", "sync_if", "--year", "2005", "--window", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "0.27 (exact 37/139)"
        assert main(argv + ["--no-clip"]) == 2

    def test_missing_window_is_a_usage_error(self, capsys):
        assert main(["metric", "--matrix", MJM, "--kind", "sync_if", "--year", "2009"]) == 1
        assert "--window" in capsys.readouterr().err

    def test_bad_window_string_is_a_usage_error(self, capsys):
        code = main(["metric", "--matrix", MJM, "--kind", "sync_if", "--year", "2009", "--window", "several"])
        assert code == 1

    def test_unknown_kind_is_a_usage_error(self, capsys):
        code = main(["metric", "--matrix", MJM, "--kind", "h_index", "--year", "2009", "--window", "2"])
        assert code == 1

    def test_fixture_without_unique_blocks_exits_3(self, tmp_path, mjm_doc, capsys):
        del mjm_doc["unique_new_sync"]
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps(mjm_doc))
        code = main(["metric", "--matrix", str(stripped), "--kind", "sync_rdf", "--year", "2006", "--window", "3"])
        assert code == 3
        assert "unique_new_sync" in capsys.readouterr().err

    def test_invalid_fixture_exits_3(self, tmp_path, mjm_doc, capsys):
        mjm_doc["surprise"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mjm_doc))
        code = main(["metric", "--matrix", str(bad), "--kind", "sync_if", "--year", "2009", "--window", "2"])
        assert code == 3
        assert "bad fixture" in capsys.readouterr().err

    def test_long_missing_year_list_renders_as_runs(self, capsys):
        argv = ["metric", "--matrix", MJM, "--kind", "diach_if", "--year", "2006", "--window", "100000", "--no-clip"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "citemetrics: undefined: citation years 2011–102006 are outside 2004-2010 "
            "and clipping is off\n"
        )

    def test_clipped_window_of_1e11_years_matches_max(self, capsys):
        argv = ["metric", "--matrix", MJM, "--kind", "diach_if", "--year", "2004", "--window"]
        assert main(argv + ["max"]) == 0
        expected = capsys.readouterr().out
        assert main(argv + ["100000000000"]) == 0
        assert capsys.readouterr().out == expected

    def test_duplicate_key_in_fixture_exits_3(self, tmp_path, capsys):
        text = (DATA / "mjm_fixture.json").read_text()
        assert '"2004": 139' in text
        dup = tmp_path / "dup.json"
        dup.write_text(text.replace('"2004": 139', '"2004": 99, "2004": 139', 1))
        code = main(["metric", "--matrix", str(dup), "--kind", "sync_if", "--year", "2009", "--window", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"citemetrics: bad fixture: {dup}: duplicate key '2004' in a JSON object\n"

    def test_non_utf8_fixture_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"pub_years": "\xff"}')
        assert main(["report", "--matrix", str(bad)]) == 3
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_fixture_file_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for path in ("none.json", "./none.json", ".//none.json"):  # named exactly as given
            code = main(["metric", "--matrix", path, "--kind", "sync_if", "--year", "2009", "--window", "2"])
            assert code == 1
            assert capsys.readouterr().err == f"citemetrics: error: [Errno 2] No such file or directory: '{path}'\n"


class TestReport:
    def test_csv_format_matches_the_golden_file(self, capsys, golden_report_csv):
        assert main(["report", "--matrix", MJM, "--format", "csv"]) == 0
        assert capsys.readouterr().out == golden_report_csv

    def test_structured_format_matches_the_golden_file(self, capsys, golden_report_json):
        assert main(["report", "--matrix", MJM, "--format", "structured"]) == 0
        assert capsys.readouterr().out == golden_report_json

    def test_table_format_has_header_and_rows(self, capsys):
        assert main(["report", "--matrix", MJM]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split() == list(
            ("year", "garfield_if", "sync_if2", "diach_if2s1", "sync_rdf_max", "diach_rdf_max", "sync_jdf_max", "diach_jdf_max")
        )
        assert len(lines) == 9  # header + rule + 7 years

    def test_structured_format(self, capsys):
        assert main(["report", "--matrix", MJM, "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["year"] for row in doc["rows"]] == list(range(2004, 2011))
        assert doc["rows"][0]["garfield_if"] is None

    def test_fixture_without_blocks_exits_3(self, tmp_path, mjm_doc, capsys):
        del mjm_doc["unique_new_diach"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(mjm_doc))
        assert main(["report", "--matrix", str(path)]) == 3
        assert "ingest" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["unique_new_sync", "unique_new_diach"])
    def test_a_fixture_without_one_block_exits_3_in_one_line(self, tmp_path, mjm_doc, capsys, block):
        del mjm_doc[block]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(mjm_doc))
        assert main(["report", "--matrix", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"citemetrics: bad fixture: {path} lacks the unique_new_sync/unique_new_diach blocks "
            "the report needs; regenerate it with 'citemetrics ingest'\n"
        )

    def test_a_report_of_bytes_already_reported_computes_no_column(
        self, tmp_path, decodes, monkeypatch, capsys, golden_report_csv
    ):
        """The rows are built once per loaded fixture: a later report of the
        same bytes, in any format and from any path, renders them again
        without a column call, and prints what an emptied slot prints."""
        text = (DATA / "mjm_fixture.json").read_text()
        path, same = tmp_path / "fx.json", tmp_path / "same.json"
        path.write_text(text)
        same.write_text(text)
        calls = []
        real = Indicator.column

        def column(self, *args, **kwargs):
            calls.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Indicator, "column", column)

        def report(where, form):
            calls.clear()
            assert main(["report", "--matrix", str(where), "--format", form]) == 0
            return capsys.readouterr().out

        def emptied(where, form):
            monkeypatch.setattr(fixture, "_last", None)
            out = report(where, form)
            assert len(calls) == 6
            return out

        expected = {form: emptied(path, form) for form in ("table", "structured", "csv")}
        assert expected["csv"] == golden_report_csv
        for where in (path, same):
            for form, out in expected.items():
                assert report(where, form) == out
                assert calls == []
        assert len(decodes) == 3  # once per emptied slot

        path.write_text(text.replace('"2008": 135', '"2008": 153'))
        changed = report(path, "csv")
        assert len(calls) == 6
        assert changed.splitlines()[6].startswith("2009,0.34,0.34,")
        assert changed == emptied(path, "csv")


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "ingest" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--pubs", "p.csv", "--cites", "c.csv", "--matrix", "m.json"],
            ["metric", "--matrix", "m.json", "--kind", "sync_if", "--year", "2006"],
            ["report", "--matrix", "m.json"],
        ],
    )
    def test_a_parsed_command_carries_its_name_and_no_handler(self, argv):
        """``main`` finds the handler by the command's name when it runs."""
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]
        assert "func" not in vars(args)

    @pytest.mark.parametrize("command", ["metric", "report"])
    def test_a_command_help_exits_0(self, command, capsys):
        assert main([command, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: citemetrics {command} [-h] --matrix MATRIX")
        assert captured.err == ""

    def test_a_missing_required_option_exits_1_with_the_usage(self, capsys):
        assert main(["report"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: citemetrics report [-h] --matrix MATRIX")
        assert captured.err.endswith("\ncitemetrics report: error: the following arguments are required: --matrix\n")


def test_round_trip_ingest_then_report(corpus, capsys):
    pubs, cites, out = corpus
    assert main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--matrix", str(out), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].startswith("2004,x,x,1.00,x,0.67,0.000,0.67")
    fx = load_fixture(out)
    assert fx.matrix.cit(2005, 2004) == 2


def test_a_stray_year_costs_its_non_zero_cells_not_the_grid(tmp_path, capsys):
    """A lone 9999 publication row and a citation dated 9999 stretch both
    spans to about 8,000 years, a grid of some 64M cells; the fixture and
    the loaded matrices hold only the cells that were cited."""
    pubs, cites, out = tmp_path / "pubs.csv", tmp_path / "cites.csv", tmp_path / "fx.json"
    pubs.write_text(PUBS_CSV + "9999,1\n")
    cites.write_text(CITES_CSV + "z1,9999,Gut,9999,c8\n")
    tracemalloc.start()
    try:
        assert main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)]) == 0
        assert main(["metric", "--matrix", str(out), "--kind", "diach_if", "--year", "2004", "--window", "max"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # about 2.5 MB; the dense grid alone needed GBs
    assert capsys.readouterr().out.splitlines()[-1] == "1.00 (exact 3/3)"
    fx = load_fixture(out)
    assert fx.matrix.pub_years == (2004, 9999) and fx.matrix.cite_years == (2004, 9999)
    nonzero = {(2004, 2006): 1, (2005, 2004): 2, (2005, 2005): 1, (2006, 2004): 1, (2006, 2005): 1, (9999, 9999): 1}
    assert fx.matrix.citations == nonzero
    assert len(fx.matrix.citations) == len(nonzero)
    assert fx.matrix.cit(5000, 5000) == 0
    assert len(fx.sync.unique_new) <= len(nonzero) and len(fx.diach.unique_new) <= len(nonzero)


class TestPrecisionLimit:
    ARGV = ["metric", "--matrix", MJM, "--kind", "diach_rdf", "--year", "2006", "--window", "5"]

    def test_the_limit_itself_renders_every_digit(self, capsys):
        assert main(self.ARGV + ["--precision", "1000"]) == 0
        rendered, exact = capsys.readouterr().out.strip().split(" ", 1)
        whole, digits = rendered.split(".")
        assert (whole, len(digits), exact) == ("0", 1000, "(exact 206/253)")
        assert digits.startswith("8142292490")

    @pytest.mark.parametrize("precision", ["1001", "100000000"])
    def test_above_the_limit_is_a_one_line_usage_error(self, precision, capsys):
        assert main(self.ARGV + ["--precision", precision]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"citemetrics: error: --precision must be at most 1000, got {precision}\n"


class TestShift:
    @pytest.mark.parametrize("kind", ["diach_if", "sync_if"])
    def test_a_negative_shift_is_a_one_line_usage_error(self, kind, tmp_path, capsys):
        missing = str(tmp_path / "never-read.json")  # the check comes before the fixture loads
        argv = ["metric", "--matrix", missing, "--kind", kind, "--year", "2006", "--window", "2", "--shift", "-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "citemetrics: error: --shift must be non-negative, got -1\n"

    def test_shift_zero_is_accepted(self, capsys):
        argv = ["metric", "--matrix", MJM, "--kind", "diach_if", "--year", "2006", "--window", "2", "--shift", "0"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "0.63 (exact 65/104)\n"


class TestRequestChecks:
    @pytest.mark.parametrize(
        ("options", "message"),
        [
            (["--window", "0"], "--window must be a positive integer or 'max', got '0'"),
            (["--window", "-3"], "--window must be a positive integer or 'max', got '-3'"),
            (["--window", "2", "--precision", "-1"], "--precision must be non-negative"),
            (["--window", "1_0"], "--window must be a positive integer or 'max', got '1_0'"),
            (["--window", "+3"], "--window must be a positive integer or 'max', got '+3'"),
            (["--window", " ٣ "], "--window must be a positive integer or 'max', got ' ٣ '"),
            (["--window", " MAX "], "--window must be a positive integer or 'max', got ' MAX '"),
            (["--window", "MAX"], "--window must be a positive integer or 'max', got 'MAX'"),
            (["--window", "max "], "--window must be a positive integer or 'max', got 'max '"),
        ],
    )
    def test_a_bad_option_is_a_one_line_usage_error(self, options, message, tmp_path, capsys):
        missing = str(tmp_path / "never-read.json")  # the checks come before the fixture loads
        argv = ["metric", "--matrix", missing, "--kind", "sync_if", "--year", "2009"]
        assert main(argv + options) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"citemetrics: error: {message}\n"

    @pytest.mark.parametrize(
        ("option", "value"),
        [
            ("--year", "2_009"),
            ("--year", "+2009"),
            ("--year", "٢٠٠٩"),
            ("--year", " 2009"),
            ("--year", "2009 "),
            ("--year", "-"),
            ("--shift", "+1"),
            ("--precision", "1_0"),
        ],
    )
    def test_an_integer_option_takes_a_sign_and_ascii_digits_only(self, option, value, tmp_path, capsys):
        missing = str(tmp_path / "never-read.json")
        argv = ["metric", "--matrix", missing, "--kind", "diach_if", "--year", "2009", "--window", "2"]
        assert main(argv + [option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"citemetrics metric: error: argument {option}: invalid int value: {value!r}"
        )
        assert captured.err.count("invalid int value") == 1

    @pytest.mark.parametrize(
        ("options", "code", "out", "err"),
        [
            (["--year", "-5"], 2, "", "citemetrics: undefined: -5 is outside the publication years 2004-2008\n"),
            (["--year", "02006"], 0, "1.13 (exact 118/104)\n", ""),
            (["--year", "2006", "--shift", "-1"], 1, "", "citemetrics: error: --shift must be non-negative, got -1\n"),
        ],
    )
    def test_a_minus_sign_and_leading_zeros_read_as_before(self, options, code, out, err, capsys):
        assert main(["metric", "--matrix", MJM, "--kind", "diach_if", "--window", "2"] + options) == code
        assert capsys.readouterr() == (out, err)


class TestFixtureReuse:
    """A process reads a fixture once while its bytes stay the same, and
    never serves a stale or changed one."""

    def test_a_same_size_rewrite_under_the_old_mtime_is_read_again(self, tmp_path, decodes, capsys):
        text = (DATA / "mjm_fixture.json").read_text()
        path = tmp_path / "fx.json"
        path.write_text(text)
        argv = ["metric", "--matrix", str(path), "--kind", "garfield_if", "--year", "2009"]
        assert main(argv) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out == "0.37 (exact 87/235)\n" * 2
        assert len(decodes) == 1
        before = path.stat()
        path.write_text(text.replace('"2008": 135', '"2008": 153'))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns, after.st_ino) == (before.st_size, before.st_mtime_ns, before.st_ino)
        assert main(argv) == 0
        assert capsys.readouterr().out == "0.34 (exact 87/253)\n"
        assert len(decodes) == 2

    def test_no_command_changes_the_fixture_it_shares(self, tmp_path, decodes, capsys):
        text = (DATA / "mjm_fixture.json").read_text()
        path = tmp_path / "fx.json"
        path.write_text(text)
        metric = ["metric", "--matrix", str(path)]
        for kind in REQUEST_KINDS:
            windows = [[]] if kind == "garfield_if" else [["--window", "1"], ["--window", "3"], ["--window", "max"]]
            for year in ("2004", "2006", "2009"):
                for window in windows:
                    for extra in ([], ["--no-clip"], ["--format", "structured"]):
                        assert main(metric + ["--kind", kind, "--year", year] + window + extra) in (0, 2)
        for form in ("table", "csv", "structured"):
            assert main(["report", "--matrix", str(path), "--format", form]) == 0
        capsys.readouterr()
        assert len(decodes) == 1
        assert load_fixture(path) == load_document(json.loads(text))
        assert len(decodes) == 1


class TestCountLimit:
    """Counts above 10^18, and integer literals too long for Python to read,
    are refused as bad fixtures before anything renders them."""

    def _write(self, tmp_path, text):
        fx = tmp_path / "fx.json"
        fx.write_text(text)
        return str(fx)

    def test_a_3500_digit_citation_count_exits_3(self, tmp_path, mjm_doc, capsys):
        mjm_doc["citations"][0][2] = 10**3500
        fx = self._write(tmp_path, json.dumps(mjm_doc))
        for argv in (["metric", "--kind", "sync_if", "--year", "2009", "--window", "3", "--precision", "1000"], ["report"]):
            assert main(argv + ["--matrix", fx]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            cell = tuple(mjm_doc["citations"][0][:2])
            assert captured.err == f"citemetrics: bad fixture: {fx}: citations count at {cell} is above the limit of 10**18\n"

    def test_a_publication_count_above_1e18_exits_3(self, tmp_path, mjm_doc, capsys):
        mjm_doc["publications"]["2005"] = 10**18 + 1
        fx = self._write(tmp_path, json.dumps(mjm_doc))
        assert main(["report", "--matrix", fx]) == 3
        assert capsys.readouterr().err == (
            f"citemetrics: bad fixture: {fx}: publications count at 2005 is above the limit of 10**18\n"
        )

    def test_counts_of_1e18_load_and_render(self, tmp_path, mjm_doc, capsys):
        mjm_doc["publications"]["2008"] = 10**18
        mjm_doc["citations"] = [[k, i, 10**18] for k, i, _ in mjm_doc["citations"]]
        del mjm_doc["unique_new_sync"], mjm_doc["unique_new_diach"]
        fx = self._write(tmp_path, json.dumps(mjm_doc))
        argv = ["metric", "--matrix", fx, "--kind", "sync_if", "--year", "2010", "--window", "max"]
        assert main(argv + ["--precision", "1000"]) == 0
        assert capsys.readouterr().err == ""

    def test_ingest_refuses_a_count_the_loader_would_refuse(self, corpus, capsys):
        pubs, cites, out = corpus
        pubs.write_text("year,count\n2004,3\n2005,5000000000000000000000\n")
        assert main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"citemetrics: error: {pubs}: line 3, column 'count': count is above the limit of 10**18\n"
        )
        assert not out.exists()

    def test_ingest_writes_a_count_of_1e18_that_report_reads(self, corpus, capsys):
        pubs, cites, out = corpus
        pubs.write_text("year,count\n2004,3\n2005,1000000000000000000\n")
        assert main(["ingest", "--pubs", str(pubs), "--cites", str(cites), "--matrix", str(out)]) == 0
        assert main(["report", "--matrix", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_an_integer_literal_past_the_digit_limit_exits_3(self, tmp_path, mjm_doc, capsys):
        text = json.dumps(mjm_doc).replace('"citations": [[', '"citations": [[' + "9" * 5000 + ", ", 1)
        fx = self._write(tmp_path, text)
        assert main(["metric", "--matrix", fx, "--kind", "garfield_if", "--year", "2009"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"citemetrics: bad fixture: {fx}: not valid JSON (Exceeds the limit")
        assert captured.err.count("\n") == 1
