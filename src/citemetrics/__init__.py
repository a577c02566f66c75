"""Journal impact and diffusion indicators from publication-citation data.

Each public name is imported from its module the first time it is asked
for, so a program loads only the modules whose names it uses: the
``metric`` and ``report`` commands never load the CSV side (``ingest``) or
``stats``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    "AliasTableError": "errors",
    "AugmentedMatrix": "matrix",
    "CitationEvent": "ingest",
    "CiteMetricsError": "errors",
    "DIACHRONOUS": "matrix",
    "FixtureError": "errors",
    "JournalId": "ingest",
    "KINDS": "metrics",
    "MatrixFixture": "fixture",
    "MetricRequest": "metrics",
    "MetricValue": "metrics",
    "ParseError": "errors",
    "PubCitMatrix": "matrix",
    "PublicationLedger": "matrix",
    "RawCitationRecord": "ingest",
    "ReportRow": "report",
    "SYNCHRONOUS": "matrix",
    "Series": "stats",
    "UndefinedCorrelationError": "errors",
    "UndefinedMetricError": "errors",
    "augment_diachronous": "matrix",
    "augment_synchronous": "matrix",
    "average_ranks": "stats",
    "backdated_records": "ingest",
    "build_pc_matrix": "matrix",
    "build_report": "report",
    "deduplicate_events": "ingest",
    "diach_if": "metrics",
    "diach_jdf": "metrics",
    "diach_rdf": "metrics",
    "distinct_journals_block": "matrix",
    "evaluate": "metrics",
    "format_ratio": "report",
    "garfield_if": "metrics",
    "load_alias_table": "ingest",
    "load_document": "fixture",
    "load_fixture": "fixture",
    "normalize_journal_name": "ingest",
    "normalize_journal_names": "ingest",
    "parse_citations": "ingest",
    "parse_publications": "ingest",
    "pearson": "stats",
    "render_csv": "report",
    "render_structured": "report",
    "render_table": "report",
    "rowlands_jdf": "metrics",
    "save_fixture": "fixture",
    "spearman": "stats",
    "sync_if": "metrics",
    "sync_jdf": "metrics",
    "sync_rdf": "metrics",
    "to_document": "fixture",
    "year_range": "matrix",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import a public name from its module and keep it here (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
