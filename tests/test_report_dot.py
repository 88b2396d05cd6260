"""DOT exports and the analysis report generator."""

import json

import pytest

from repro import parse_program
from repro.analysis import Andersen, Steensgaard
from repro.cli import main
from repro.core import BootstrapAnalyzer, cascade_summary, render_report
from repro.ir import andersen_dot, callgraph_dot, steensgaard_dot

from .helpers import figure2_program, figure5_program

SRC = """
int a, b;
int *p, *q;
void helper(void) { q = p; }
int main() { p = &a; helper(); q = &b; return 0; }
"""


class TestDot:
    def test_steensgaard_dot(self):
        prog = figure2_program()
        text = steensgaard_dot(Steensgaard(prog).run())
        assert text.startswith("digraph steensgaard")
        assert "->" in text
        assert "main::p" in text and "main::a" in text

    def test_steensgaard_out_degree_one(self):
        prog = figure2_program()
        text = steensgaard_dot(Steensgaard(prog).run())
        edges = [l for l in text.splitlines() if "->" in l]
        sources = [e.split("->")[0].strip() for e in edges]
        assert len(sources) == len(set(sources))

    def test_andersen_dot(self):
        prog = figure2_program()
        text = andersen_dot(Andersen(prog).run())
        assert text.startswith("digraph andersen")
        # q points to three objects: three edges from q.
        q_edges = [l for l in text.splitlines()
                   if l.strip().startswith('"main::q" ->')]
        assert len(q_edges) == 3

    def test_callgraph_dot_marks_indirect(self):
        prog = parse_program("""
            int g;
            int *fa(void) { return &g; }
            int main() {
                int *(*fp)(void) = fa;
                int *r = fp();
                return 0;
            }
        """)
        text = callgraph_dot(prog)
        assert '"main" -> "fa" [style=dashed]' in text

    def test_quote_escaping(self):
        prog = figure5_program()
        text = steensgaard_dot(Steensgaard(prog).run())
        assert '"' in text  # labels quoted


class TestReport:
    def test_summary_shape(self):
        prog = parse_program(SRC)
        result = BootstrapAnalyzer(prog).run()
        summary = cascade_summary(result)
        assert summary["program"]["functions"] == 2
        assert summary["clusters"]["count"] >= 1
        assert summary["clusters"]["max_size"] >= 2
        json.dumps(summary)  # must be JSON-serializable

    def test_render_report(self):
        prog = parse_program(SRC)
        result = BootstrapAnalyzer(prog).run()
        text = render_report(result)
        assert "## Bootstrapped alias analysis report" in text
        assert "Largest" in text
        assert "| size" in text

    def test_histogram_consistent(self):
        prog = parse_program(SRC)
        result = BootstrapAnalyzer(prog).run()
        summary = cascade_summary(result)
        hist = summary["clusters"]["size_histogram"]
        assert sum(hist.values()) == summary["clusters"]["count"]


class TestCliIntegration:
    @pytest.fixture()
    def src_file(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(SRC)
        return str(path)

    def test_report_flag(self, src_file, capsys):
        assert main(["analyze", src_file, "--report"]) == 0
        assert "alias analysis report" in capsys.readouterr().out

    def test_json_flag_parses(self, src_file, capsys):
        main(["analyze", src_file, "--json"])
        out = capsys.readouterr().out
        start = out.index("{")
        data = json.loads(out[start:])
        assert data["program"]["functions"] == 2

    def test_dot_flag(self, src_file, capsys):
        assert main(["analyze", src_file, "--dot", "steensgaard"]) == 0
        assert "digraph steensgaard" in capsys.readouterr().out

    def test_dot_callgraph(self, src_file, capsys):
        assert main(["analyze", src_file, "--dot", "callgraph"]) == 0
        assert '"main" -> "helper"' in capsys.readouterr().out
