"""Memory-safety checkers: null-deref, use-after-free, double-free.

Each checker gets true-positive and true-negative fixtures, plus the
cross-cutting machinery: inline suppression, demand-driven cluster
skipping, SARIF shape, the ``repro check`` CLI, and the accounting that
``run_checkers`` shares with the dedicated demand-verb runners.
"""

import json
from pathlib import Path

import pytest

from repro import parse_program
from repro.checkers import (
    CHECKER_REGISTRY,
    run_checkers,
    run_deadlocks,
    run_leaks,
    run_races,
    run_taint,
)
from repro.cli import main
from repro.core import BootstrapAnalyzer, diagnostics_to_sarif

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
#: ``examples/leak_demo.c`` with its one leaked allocation silenced.
LEAK_IGNORED = "leak_demo.c+ignore"

BUGGY = """
int main() {
    int *p, *q, *d;
    p = 0;
    *p = 1;
    q = malloc(4);
    d = q;
    free(q);
    *d = 2;
    free(d);
    return 0;
}
"""

CLEAN = """
int *chain;
int slot;

void link(void) {
    chain = &slot;
}

int main() {
    int *h;
    link();
    *chain = 1;
    h = malloc(4);
    if (h) {
        *h = 5;
    }
    free(h);
    h = 0;
    return 0;
}
"""


def check(source, names=None):
    return run_checkers(parse_program(source), names=names)


def rules(report):
    return [d.rule_id for d in report.diagnostics]


class TestRegistry:
    def test_all_three_registered(self):
        assert {"null-deref", "use-after-free", "double-free"} \
            <= set(CHECKER_REGISTRY)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown checker"):
            check(CLEAN, names=["nope"])


class TestNullDeref:
    def test_must_null_is_error(self):
        report = check("""
            int main() {
                int *p;
                p = 0;
                *p = 1;
                return 0;
            }
        """, names=["null-deref"])
        (d,) = report.diagnostics
        assert d.severity == "error"
        assert "NULL" in d.message and d.subject == "p"
        assert d.span is not None and d.span.line == 5

    def test_guarded_deref_is_clean(self):
        report = check("""
            int main() {
                int *p;
                int x;
                p = 0;
                if (p) {
                    *p = 1;
                }
                p = &x;
                *p = 2;
                return 0;
            }
        """, names=["null-deref"])
        assert report.diagnostics == []

    def test_trace_points_at_null_assignment(self):
        report = check(BUGGY, names=["null-deref"])
        (d,) = report.diagnostics
        assert any("NULL" in step.note for step in d.trace)

    def test_freed_pointer_left_to_uaf_checker(self):
        # free() nulls its operand under the hood; that must not read
        # as a null-deref — the use-after-free checker owns it.
        src = """
            int main() {
                int *p;
                p = malloc(4);
                free(p);
                *p = 1;
                return 0;
            }
        """
        assert rules(check(src, names=["null-deref"])) == []
        assert rules(check(src, names=["use-after-free"])) \
            == ["repro-use-after-free"]


class TestUseAfterFree:
    def test_aliased_deref_after_free(self):
        report = check(BUGGY, names=["use-after-free"])
        (d,) = report.diagnostics
        assert d.severity == "error"
        assert "freed" in d.message and d.subject == "d"
        assert d.span is not None and d.span.line == 9

    def test_realloc_clears_the_fact(self):
        report = check("""
            int main() {
                int *p;
                p = malloc(4);
                free(p);
                p = malloc(4);
                *p = 1;
                return 0;
            }
        """, names=["use-after-free"])
        assert report.diagnostics == []

    def test_escaping_local_address(self):
        report = check("""
            int *leak(void) {
                int x;
                return &x;
            }
            int main() {
                int *p;
                p = leak();
                return 0;
            }
        """, names=["use-after-free"])
        assert any("escapes" in d.message and d.subject == "x"
                   for d in report.diagnostics)


class TestDoubleFree:
    def test_direct_double_free(self):
        report = check("""
            int main() {
                int *p;
                p = malloc(4);
                free(p);
                free(p);
                return 0;
            }
        """, names=["double-free"])
        (d,) = report.diagnostics
        assert d.severity == "error" and "double free" in d.message

    def test_aliased_double_free(self):
        report = check(BUGGY, names=["double-free"])
        (d,) = report.diagnostics
        assert "alloc@" in d.message and d.span.line == 10

    def test_single_free_is_clean(self):
        assert check(CLEAN, names=["double-free"]).diagnostics == []


class TestInterprocedural:
    SRC = """
        void sink(int *p) {
            *p = 1;
        }
        int main() {
            int y;
            sink(0);
            sink(&y);
            return 0;
        }
    """

    def test_null_flows_through_parameter(self):
        report = check(self.SRC, names=["null-deref"])
        (d,) = report.diagnostics
        # &y also reaches the parameter, so it is may- not must-null.
        assert d.severity == "warning"
        assert d.loc.function == "sink" and d.span.line == 3

    def test_only_null_callsite_is_must(self):
        report = check("""
            void sink(int *p) {
                *p = 1;
            }
            int main() {
                sink(0);
                return 0;
            }
        """, names=["null-deref"])
        (d,) = report.diagnostics
        assert d.severity == "error"

    def test_free_in_callee_seen_at_caller(self):
        report = check("""
            void release(int *p) {
                free(p);
            }
            int main() {
                int *q;
                q = malloc(4);
                release(q);
                *q = 1;
                return 0;
            }
        """, names=["use-after-free"])
        assert any(d.rule_id == "repro-use-after-free" and
                   d.loc.function == "main"
                   for d in report.diagnostics)


class TestSuppression:
    def test_ignore_marker_drops_finding(self):
        report = check("""
            int main() {
                int *p;
                p = 0;
                *p = 1;  // repro:ignore -- intentional for the test
                return 0;
            }
        """, names=["null-deref"])
        assert report.diagnostics == []
        (st,) = report.stats
        assert st.suppressed == 1 and st.findings == 0

    def test_comment_only_line_suppresses_next(self):
        report = check("""
            int main() {
                int *p;
                p = 0;
                // repro:ignore -- the next line is under test
                *p = 1;
                return 0;
            }
        """, names=["null-deref"])
        assert report.diagnostics == []

    def test_marker_elsewhere_changes_nothing(self):
        report = check("""
            int main() {
                int *p;
                p = 0;  // repro:ignore suppresses *this* line only
                *p = 1;
                return 0;
            }
        """, names=["null-deref"])
        assert len(report.diagnostics) == 1

    def test_rule_scoped_marker_suppresses_that_rule(self):
        report = check("""
            int main() {
                int *p;
                p = 0;
                *p = 1;  // repro:ignore[null-deref]
                return 0;
            }
        """, names=["null-deref"])
        assert report.diagnostics == []
        (st,) = report.stats
        assert st.suppressed == 1

    def test_rule_scoped_marker_keeps_other_rules(self):
        report = check("""
            int main() {
                int *p;
                p = 0;
                *p = 1;  // repro:ignore[use-after-free]
                return 0;
            }
        """, names=["null-deref"])
        assert rules(report) == ["repro-null-deref"]

    def test_scoped_marker_on_multi_rule_line(self):
        # Line 6 carries both a double free and a use after free; the
        # scoped marker silences only the named rule.
        report = check("""
            int main() {
                int *p;
                p = malloc(4);
                free(p);
                free(p); *p = 1;  // repro:ignore[double-free]
                return 0;
            }
        """, names=["double-free", "use-after-free"])
        assert rules(report) == ["repro-use-after-free"]

    def test_comma_list_and_comment_only_scoping(self):
        report = check("""
            int main() {
                int *p;
                p = malloc(4);
                free(p);
                // repro:ignore[double-free,use-after-free]
                free(p); *p = 1;
                return 0;
            }
        """, names=["double-free", "use-after-free"])
        assert report.diagnostics == []


class TestDemandDrivenStats:
    def test_clean_program_skips_clusters(self):
        report = check(CLEAN)
        assert len(report.stats) == 7
        for st in report.stats:
            assert st.clusters_skipped >= 1
            assert st.clusters_selected < st.clusters_total
            assert st.pointers_selected < st.pointers_total

    def test_no_frees_means_no_clusters_for_double_free(self):
        report = check("""
            int main() {
                int *p;
                int x;
                p = &x;
                *p = 1;
                return 0;
            }
        """, names=["double-free"])
        (st,) = report.stats
        assert st.clusters_selected == 0 and st.findings == 0


class TestSarif:
    @pytest.fixture(scope="class")
    def sarif(self):
        report = run_checkers(parse_program(BUGGY))
        return diagnostics_to_sarif(report.diagnostics)

    def test_top_level_shape(self, sarif):
        assert sarif["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in sarif["$schema"]

    def test_tool_driver(self, sarif):
        driver = sarif["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro"
        assert {r["id"] for r in driver["rules"]} == {
            "repro-null-deref", "repro-use-after-free",
            "repro-double-free"}

    def test_results(self, sarif):
        results = sarif["runs"][0]["results"]
        assert len(results) == 3
        for r in results:
            assert r["level"] == "error"
            assert r["message"]["text"]
            region = r["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] > 0

    def test_round_trips_through_json(self, sarif):
        assert json.loads(json.dumps(sarif)) == sarif


class TestCheckCLI:
    @pytest.fixture()
    def buggy_file(self, tmp_path):
        path = tmp_path / "buggy.c"
        path.write_text(BUGGY)
        return str(path)

    @pytest.fixture()
    def clean_file(self, tmp_path):
        path = tmp_path / "clean.c"
        path.write_text(CLEAN)
        return str(path)

    def test_text_report(self, buggy_file, capsys):
        assert main(["check", buggy_file]) == 0
        out = capsys.readouterr().out
        assert "3 finding(s)" in out
        assert "repro-null-deref" in out
        assert "skipped" in out

    def test_fail_on_finding(self, buggy_file, clean_file):
        assert main(["check", buggy_file, "--fail-on-finding"]) == 1
        assert main(["check", clean_file, "--fail-on-finding"]) == 0

    def test_filename_and_line_in_output(self, buggy_file, capsys):
        main(["check", buggy_file])
        out = capsys.readouterr().out
        # `*p = 1;` anchors at its left operand, the `*`.
        assert f"{buggy_file}:5:5: error" in out

    def test_checker_subset(self, buggy_file, capsys):
        assert main(["check", buggy_file, "--checkers",
                     "double-free"]) == 0
        out = capsys.readouterr().out
        assert "1 finding(s)" in out and "null-deref" not in out

    def test_unknown_checker_rejected(self, buggy_file):
        with pytest.raises(SystemExit, match="unknown checker"):
            main(["check", buggy_file, "--checkers", "nope"])

    def test_json_output(self, buggy_file, capsys):
        assert main(["check", buggy_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {d["rule"] for d in data} == {
            "repro-null-deref", "repro-use-after-free",
            "repro-double-free"}

    def test_sarif_file(self, buggy_file, tmp_path, capsys):
        out_path = tmp_path / "out.sarif"
        assert main(["check", buggy_file, "--sarif", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["version"] == "2.1.0"
        assert len(data["runs"][0]["results"]) == 3

    def test_races_json(self, tmp_path, capsys):
        path = tmp_path / "race.c"
        path.write_text("""
            int g;
            void t1(void) { g = g + 1; }
            void t2(void) { g = g + 2; }
            int main() { t1(); t2(); return 0; }
        """)
        assert main(["races", str(path), "--threads", "t1,t2",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data and all(d["rule"] == "repro-data-race" for d in data)


#: A race on ``b = b + 1;`` and a NULL store ``*p = q;``.
RACY_ASSIGN = """int b;
void t1(void) {
    b = b + 1;
}
void t2(void) {
    b = b + 2;
}
int main() { t1(); t2(); return 0; }
"""
NULL_STORE = """int x;
int main() {
    int *p, *q;
    p = 0;
    q = &x;
    *p = q;
    return 0;
}
"""

#: A leaked allocation and a NULL pointer, each from a declaration's
#: initializer.
LEAK_INIT = """int main() {
    int *p = malloc(4);
    p = 0;
    return 0;
}
"""
NULL_INIT = """int x;
int main() {
    int *p = 0;
    x = *p;
    return 0;
}
"""


class TestAssignmentSpans:
    """An assignment's write is placed at its left operand, and a
    declaration initializer's at the declared name, not at the last
    operand of the right-hand side."""

    #: case -> (source, verb and flags, (line, column) of the finding)
    CASES = {
        "race": (RACY_ASSIGN, ["races", "--threads", "t1,t2"], (3, 5)),
        "null-store": (NULL_STORE, ["check", "--checkers", "null-deref"],
                       (6, 5)),
        "leak-init": (LEAK_INIT, ["check", "--checkers", "leak"], (2, 10)),
    }

    def test_race_demo(self, capsys):
        main(["races", str(EXAMPLES / "race_demo.c")])
        out = capsys.readouterr().out
        assert "race_demo.c:24:5: warning" in out
        assert "(at 32:5)" in out

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
    def test_left_operand(self, case, fmt, tmp_path, capsys):
        source, (verb, *flags), (line, column) = self.CASES[case]
        path = tmp_path / "assign.c"
        path.write_text(source)
        args = [verb, str(path)] + flags
        if fmt == "text":
            main(args)
            assert f"{path}:{line}:{column}: " in capsys.readouterr().out
        elif fmt == "json":
            main(args + ["--json"])
            (finding,) = json.loads(capsys.readouterr().out)
            assert (finding["line"], finding["column"]) == (line, column)
        else:
            sarif = tmp_path / "out.sarif"
            main(args + ["--sarif", str(sarif)])
            (result,) = json.loads(sarif.read_text())["runs"][0]["results"]
            region = result["locations"][0]["physicalLocation"]["region"]
            assert (region["startLine"], region["startColumn"]) \
                == (line, column)

    @pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
    def test_declared_name(self, fmt, tmp_path, capsys):
        """The note that sets ``p`` to NULL in ``int *p = 0;`` points
        at ``p`` (3:10), not at the ``0``."""
        path = tmp_path / "init.c"
        path.write_text(NULL_INIT)
        args = ["check", str(path), "--checkers", "null-deref"]
        if fmt == "text":
            main(args)
            assert "p set to NULL here (at 3:10)" in capsys.readouterr().out
        elif fmt == "json":
            main(args + ["--json"])
            (finding,) = json.loads(capsys.readouterr().out)
            (step,) = finding["trace"]
            assert (step["note"], step["line"], step["column"]) \
                == ("p set to NULL here", 3, 10)
        else:
            sarif = tmp_path / "out.sarif"
            main(args + ["--sarif", str(sarif)])
            (result,) = json.loads(sarif.read_text())["runs"][0]["results"]
            (flow,) = result["codeFlows"]
            first = flow["threadFlows"][0]["locations"][0]["location"]
            assert first["message"]["text"] == "p set to NULL here"
            region = first["physicalLocation"]["region"]
            assert (region["startLine"], region["startColumn"]) == (3, 10)


def _example(case):
    if case != LEAK_IGNORED:
        return parse_program((EXAMPLES / case).read_text())
    source = (EXAMPLES / "leak_demo.c").read_text()
    marked = source.replace("p = malloc(4);",
                            "p = malloc(4); // repro:ignore", 1)
    assert marked != source
    return parse_program(marked)


class TestOneRunnerAccounting:
    """``repro check`` and the dedicated verbs run a checker through the
    same runner, so they report the same clusters, pointers, findings
    and suppressions for it."""

    RUNNERS = {"deadlock": run_deadlocks, "leak": run_leaks,
               "races": run_races, "taint": run_taint}

    @pytest.mark.parametrize("name", sorted(RUNNERS))
    @pytest.mark.parametrize(
        "case", sorted(p.name for p in EXAMPLES.glob("*.c"))
        + [LEAK_IGNORED])
    def test_check_stats_equal_dedicated_runner(self, case, name):
        program = _example(case)
        result = BootstrapAnalyzer(program).run()
        (via_check,) = run_checkers(program, names=[name],
                                    result=result).stats
        dedicated = self.RUNNERS[name](program, result=result).stats
        assert via_check == dedicated
        if case == LEAK_IGNORED and name == "leak":
            assert via_check.suppressed == 1
