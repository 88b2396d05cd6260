"""Exception types shared across the library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class _SourceError(ReproError):
    """A frontend error at a source position (``line`` 0: unknown)."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.message = message
        self.line = line
        self.column = column
        where = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{where}")


class ParseError(_SourceError):
    """Raised by the frontend on malformed source."""


class NormalizationError(_SourceError):
    """Raised when source uses a construct outside the supported subset."""


class AnalysisBudgetExceeded(ReproError):
    """An analysis exceeded its step budget or deadline.

    The Table 1 harness converts this into the paper's ``> 15min``
    timeout markers for the unclustered baseline.
    """

    def __init__(self, analysis: str, steps: int) -> None:
        self.analysis = analysis
        self.steps = steps
        super().__init__(f"{analysis} exceeded its budget after {steps} steps")
