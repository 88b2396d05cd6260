"""The benchmark substrate: generator determinism, corpus, harnesses."""

import os
import subprocess
import sys

import pytest

from repro.analysis import Steensgaard
from repro.bench import (
    PAPER_BY_NAME,
    PAPER_TABLE1,
    SynthConfig,
    build,
    corpus_configs,
    generate,
    generate_source,
)
from repro.bench.figure1 import compute_figure1, run_figure1
from repro.bench.metrics import (
    TIMEOUT,
    ascii_histogram,
    format_csv,
    format_table,
    ratio,
    timed,
    timed_with_budget,
)
from repro.bench.table1 import measure_program, shape_report
from repro.core import CascadeConfig, run_cascade
from repro.ir import format_program


SMALL = SynthConfig(name="unit", pointers=80, functions=6, seed=11,
                    hub_fractions=(0.3,), overlap=0.3, lock_count=1)


class TestSynth:
    def test_deterministic(self):
        p1 = generate(SMALL)
        p2 = generate(SMALL)
        assert format_program(p1.program) == format_program(p2.program)

    def test_seed_changes_program(self):
        other = SynthConfig(**{**SMALL.__dict__, "seed": 12})
        p1 = generate(SMALL)
        p2 = generate(other)
        assert format_program(p1.program) != format_program(p2.program)

    def test_pointer_budget_roughly_met(self):
        sp = generate(SMALL)
        n = len(sp.program.pointers)
        assert 0.5 * SMALL.pointers <= n <= 2.5 * SMALL.pointers

    def test_hub_produces_large_partition(self):
        sp = generate(SMALL)
        st = Steensgaard(sp.program).run()
        assert st.max_partition_size() >= 0.5 * max(sp.hub_sizes)

    def test_overlap_controls_refinement(self):
        low = generate(SynthConfig(name="lo", pointers=300, functions=8,
                                   hub_fractions=(0.5,), overlap=0.1,
                                   seed=3))
        high = generate(SynthConfig(name="hi", pointers=300, functions=8,
                                    hub_fractions=(0.5,), overlap=0.95,
                                    seed=3))
        def shrink(sp):
            cascade = run_cascade(sp.program,
                                  CascadeConfig(andersen_threshold=10))
            st = Steensgaard(sp.program).run()
            return cascade.max_cluster_size() / st.max_partition_size()
        assert shrink(low) < shrink(high)

    def test_program_is_analyzable(self):
        sp = generate(SMALL)
        sp.program.counts()
        st = Steensgaard(sp.program).run()
        assert st.partitions()

    def test_lock_vars_recorded(self):
        sp = generate(SMALL)
        assert len(sp.lock_vars) == 1

    def test_fp_sites(self):
        from repro.ir import CallStmt
        cfg = SynthConfig(name="fp", pointers=60, functions=5, fp_sites=2,
                          seed=5)
        sp = generate(cfg)
        indirect = [s for _, s in sp.program.statements()
                    if isinstance(s, CallStmt) and s.is_indirect]
        assert len(indirect) == 2
        assert all(s.targets for s in indirect)

    def test_generate_source_parses(self):
        from repro import parse_program
        src = generate_source(SynthConfig(name="src", pointers=60, seed=8))
        prog = parse_program(src)
        assert len(prog.functions) > 2


class TestCorpus:
    def test_all_rows_have_configs(self):
        configs = corpus_configs(scale=0.02)
        assert len(configs) == len(PAPER_TABLE1)

    def test_subset_selection(self):
        configs = corpus_configs(scale=0.02, names=["sock", "sendmail"])
        assert [c.name for c in configs] == ["sock", "sendmail"]

    def test_scale_controls_size(self):
        small = build("autofs", scale=0.02)
        large = build("autofs", scale=0.06)
        assert len(large.program.pointers) > len(small.program.pointers)

    def test_paper_reference_data_shape(self):
        row = PAPER_BY_NAME["sendmail"]
        assert row.pointers == 65134
        assert row.steens_max == 596 and row.andersen_max == 193

    def test_timeout_rows_marked(self):
        assert PAPER_BY_NAME["pico"].time_nocluster is None


class TestTable1Harness:
    def test_measure_program_row(self):
        sp = build("sock", scale=0.03)
        row = measure_program(sp.program, "sock", 0.9,
                              andersen_threshold=6,
                              nocluster_budget=200_000, parts=5)
        assert row.pointers > 0
        assert row.steens_clusters > 0
        assert row.t_steens >= 0
        assert len(row.cells()) == 12

    def test_shape_report_renders(self):
        sp = build("sock", scale=0.03)
        row = measure_program(sp.program, "sock", 0.9,
                              andersen_threshold=6, run_nocluster=False)
        text = shape_report([row])
        assert "sock" in text

    def test_budget_produces_timeout_marker(self):
        sp = build("autofs", scale=0.05)
        row = measure_program(sp.program, "autofs", 8.3,
                              andersen_threshold=6,
                              nocluster_budget=50, parts=5)
        assert row.t_nocluster is None
        assert TIMEOUT in row.cells()


class TestFigure1Harness:
    def test_series_shapes(self):
        data = run_figure1("autofs", scale=0.08)
        # Observation (i): both series dense at small sizes.
        sd, ad = data.small_density(cutoff=8)
        assert sd > 0.7 and ad > 0.7
        # Observation (ii): Andersen's max is no larger than Steensgaard's.
        assert data.andersen_max <= data.steens_max

    def test_compute_on_custom_program(self):
        sp = generate(SMALL)
        data = compute_figure1(sp.program, andersen_threshold=6)
        assert sum(data.steensgaard.values()) > 0


class TestMetrics:
    def test_timed(self):
        t = timed(lambda: 42)
        assert t.value == 42 and t.seconds >= 0 and not t.timed_out

    def test_timed_with_budget_catches(self):
        from repro.errors import AnalysisBudgetExceeded
        def boom():
            raise AnalysisBudgetExceeded("x", 1)
        t = timed_with_budget(boom)
        assert t.timed_out and t.fmt() == TIMEOUT

    def test_format_table(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                            title="T")
        assert "### T" in text and "| 333" in text

    def test_format_csv(self):
        assert format_csv(["a", "b"], [["1", "2"]]) == "a,b\n1,2"

    def test_ascii_histogram(self):
        text = ascii_histogram({"s": {1: 5, 3: 1}, "a": {1: 2}})
        assert "frequency" in text

    def test_ratio(self):
        assert ratio(4.0, 2.0) == "2.00x"
        assert ratio(None, 2.0) == "-"
        assert ratio(1.0, 0.0) == "-"


class TestTaintBench:
    def test_smoke(self):
        from repro.bench.taint import render, run_taint_bench
        data = run_taint_bench(pointers=60, taint_webs=3, seed=7,
                               repeats=1)
        assert data["flows_identical"]
        gt = data["ground_truth"]
        assert gt["missed"] == []
        assert gt["sanitized_leaks"] == []
        assert gt["detected"] == gt["expected"] > 0
        # Demand selection must actually prune the cluster set.
        assert 0 < data["demand"]["clusters_selected"] \
            < data["whole"]["clusters_selected"] \
            == data["demand"]["clusters_total"]
        text = render(data)
        assert "Taint" in text and str(gt["expected"]) in text


class TestHarnessEntryPoints:
    """``python -m repro.bench.<harness>`` runs the harness as
    ``__main__``; the package must not have imported it already, or
    runpy warns that the module is in ``sys.modules``."""

    @pytest.mark.parametrize("harness", [
        "cascade", "demand", "figure1", "parallel", "profile_solvers",
        "resilience", "table1", "taint"])
    def test_help_runs_without_runpy_warning(self, harness):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             f"repro.bench.{harness}", "--help"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


@st.composite
def synth_configs(draw):
    return SynthConfig(
        name="prop",
        pointers=draw(st.integers(30, 200)),
        functions=draw(st.integers(1, 12)),
        hub_fractions=(draw(st.floats(0.05, 0.5)),),
        overlap=draw(st.floats(0.05, 1.0)),
        lock_count=draw(st.integers(0, 2)),
        fp_sites=draw(st.integers(0, 2)),
        recursion=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 20)),
    )


class TestSynthProperties:
    @given(synth_configs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_generated_programs_are_valid(self, config):
        sp = generate(config)
        program = sp.program
        for fn in program.functions.values():
            fn.cfg.validate()
        assert program.entry == "main"
        assert len(program.pointers) > 0

    @given(synth_configs())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_generated_programs_are_analyzable(self, config):
        from repro.core import run_cascade
        sp = generate(config)
        result = run_cascade(sp.program)
        covered = set()
        for c in result.clusters:
            covered |= c.members
        assert covered >= sp.program.pointers

    @given(synth_configs())
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_generated_source_parses_and_matches_dialect(self, config):
        from repro import parse_program
        src = generate_source(config)
        prog = parse_program(src)
        assert len(prog.functions) >= 2
