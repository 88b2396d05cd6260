"""Error types and small odds and ends."""

import pytest

from repro.errors import (
    AnalysisBudgetExceeded,
    NormalizationError,
    ParseError,
    ReproError,
)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ParseError, ReproError)
        assert issubclass(NormalizationError, ReproError)
        assert issubclass(AnalysisBudgetExceeded, ReproError)

    def test_parse_error_location_in_message(self):
        err = ParseError("boom", line=3, column=7)
        assert "3:7" in str(err)
        assert err.line == 3 and err.column == 7

    def test_parse_error_without_location(self):
        err = ParseError("boom")
        assert str(err) == "boom"

    def test_budget_error_carries_stats(self):
        err = AnalysisBudgetExceeded("engine", 1234)
        assert err.analysis == "engine"
        assert err.steps == 1234
        assert "1234" in str(err)


class TestPackageSurface:
    def test_version(self):
        import repro
        assert repro.__version__

    def test_all_exports_resolve(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_analysis_exports_resolve(self):
        from repro import analysis
        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_ir_exports_resolve(self):
        from repro import ir
        for name in ir.__all__:
            assert hasattr(ir, name), name

    def test_core_exports_resolve(self):
        from repro import core
        for name in core.__all__:
            assert hasattr(core, name), name
