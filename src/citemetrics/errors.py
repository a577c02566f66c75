"""Exception types shared across the package."""

from __future__ import annotations

from collections.abc import Sequence


class CiteMetricsError(Exception):
    """Base class for every error raised by this package."""


class ParseError(CiteMetricsError):
    """Malformed input data. Carries file-position context when known."""

    def __init__(self, message: str, *, line: int | None = None, column: str | None = None):
        self.line = line
        self.column = column
        prefix = ""
        if line is not None:
            prefix = f"line {line}"
            if column is not None:
                prefix += f", column {column!r}"
            prefix += ": "
        super().__init__(prefix + message)


class AliasTableError(ParseError):
    """The journal alias table is inconsistent (e.g. one alias, two targets).

    A ``ParseError``, with ``.line`` set when the table was read from a file."""


class FixtureError(CiteMetricsError):
    """A matrix fixture file failed structural validation."""


class UndefinedMetricError(CiteMetricsError):
    """The requested indicator is undefined for this matrix.

    ``missing_years`` holds the years whose absence (or emptiness) caused it,
    when that is the reason: a tuple, or a ``matrix.YearRuns``, which holds
    the years as runs of consecutive years, compares and hashes equal to the
    tuple of its years, and is kept as it is, since a window can miss more
    years than fit in memory.
    """

    def __init__(self, message: str, missing_years: Sequence[int] = ()):
        self.missing_years = missing_years
        super().__init__(message)


class UndefinedCorrelationError(CiteMetricsError):
    """Correlation is undefined, e.g. because one series is constant."""
