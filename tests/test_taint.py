"""Taint analysis: spec, engine, demand loop, oracle soundness, SARIF."""

import json
import os

import pytest

from repro.analysis import execute_taint
from repro.analysis.taint import (
    SinkRule,
    SourceRule,
    TaintEngine,
    TaintSpec,
    source_argument_pointers,
)
from repro.bench import SynthConfig, generate
from repro.checkers import run_taint
from repro.core import diagnostics_to_sarif
from repro.frontend import parse_program
from repro.ir import Loc, ProgramBuilder
from repro.ir.serialize import program_from_dict, program_to_dict


def _no_alias_resolver(loc, ptr):
    return None


def flow_keys(flows):
    return {(f.source_fn, f.source_loc, f.sink_fn, f.sink_loc, f.sink_arg)
            for f in flows}


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------
class TestTaintSpec:
    def test_default_covers_toy_corpus(self):
        spec = TaintSpec.default()
        assert "input" in spec.sources
        assert "system" in spec.sinks
        assert "sanitize" in spec.sanitizers
        assert spec.sinks["printf"].severity == "warning"

    def test_round_trip(self):
        spec = TaintSpec.default()
        again = TaintSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        assert again.digest() == spec.digest()

    def test_digest_changes_with_rules(self):
        spec = TaintSpec.default()
        other = TaintSpec.from_dict(
            {"sources": {"my_src": {"taints": ["return"]}},
             "sinks": {"my_sink": {"args": [0]}}})
        assert other.digest() != spec.digest()

    def test_arg_effect_spellings(self):
        spec = TaintSpec.from_dict(
            {"sources": {"s": {"taints": ["arg:1", 0]}}})
        assert spec.sources["s"].taints == (1, 0)

    def test_bad_effect_rejected(self):
        with pytest.raises(ValueError):
            TaintSpec.from_dict({"sources": {"s": {"taints": ["argh"]}}})

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError):
            TaintSpec.from_dict(
                {"sinks": {"s": {"severity": "fatal"}}})


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------
def _engine_flows(program, spec=None):
    spec = spec or TaintSpec.default()
    engine = TaintEngine(program, spec, _no_alias_resolver)
    return engine.run().flows


class TestEngineBasics:
    def test_direct_source_to_sink(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("input", [], ret="x")
            f.extern_call("system", ["x"])
        flows = _engine_flows(b.build())
        assert len(flows) == 1
        assert flows[0].source_fn == "input"
        assert flows[0].sink_fn == "system"
        assert flows[0].severity == "error"

    def test_copy_chain_propagates(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("input", [], ret="x")
            f.copy("y", "x")
            f.copy("z", "y")
            f.extern_call("system", ["z"])
        assert len(_engine_flows(b.build())) == 1

    def test_untainted_is_silent(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.copy("y", "x")
            f.extern_call("system", ["y"])
        assert _engine_flows(b.build()) == []

    def test_sanitizer_clears_return(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("input", [], ret="x")
            f.extern_call("sanitize", ["x"], ret="clean")
            f.extern_call("system", ["clean"])
        assert _engine_flows(b.build()) == []

    def test_sink_severity_from_rule(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("input", [], ret="x")
            f.extern_call("printf", ["x", "y"])
        flows = _engine_flows(b.build())
        assert [f.severity for f in flows] == ["warning"]

    def test_sink_checked_before_sanitize_of_same_call(self):
        # system() is not a sanitizer, but a call that is BOTH sink and
        # source must check the sink on the pre-call state.
        spec = TaintSpec(
            sources={"both": SourceRule("both")},
            sinks={"both": SinkRule("both")},
            sanitizers={})
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("both", [], ret="x")
            f.extern_call("both", ["x"], ret="y")
        flows = _engine_flows(b.build(), spec)
        assert len(flows) == 1

    def test_interprocedural_summary_flow(self):
        b = ProgramBuilder()
        for g in ("g1", "g2"):
            b.global_var(g)
        with b.function("produce") as f:
            f.extern_call("getenv", [], ret="raw")
            f.copy("g1", "raw")
        with b.function("relay") as f:
            f.copy("g2", "g1")
        with b.function("consume") as f:
            f.extern_call("exec", ["g2"])
        with b.function("main") as f:
            f.call("produce")
            f.call("relay")
            f.call("consume")
        flows = _engine_flows(b.build())
        assert len(flows) == 1
        flow = flows[0]
        assert flow.source_loc.function == "produce"
        assert flow.sink_loc.function == "consume"
        # The witness walks through the relay call.
        notes = [note for _, note in flow.steps]
        assert any("call" in n for n in notes)

    def test_trace_starts_at_source(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("input", [], ret="x")
            f.copy("y", "x")
            f.extern_call("system", ["y"])
        flow = _engine_flows(b.build())[0]
        assert flow.steps
        first_loc, first_note = flow.steps[0]
        assert first_loc == flow.source_loc
        assert "input" in first_note

    def test_memory_hops_recorded_in_trace(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("input", [], ret="x")
            f.addr("p", "cell")
            f.store("p", "x")
            f.load("y", "p")
            f.extern_call("system", ["y"])
        flow = run_taint(b.build()).value.flows[0]
        notes = [note for _, note in flow.steps]
        assert any("stored" in n for n in notes)
        assert any("loaded" in n for n in notes)


class TestMemoryFlows:
    def _memory_program(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("input", [], ret="x")
            f.addr("p", "cell")
            f.store("p", "x")
            f.load("y", "p")
            f.extern_call("system", ["y"])
        return b.build()

    def test_resolver_none_demands_pointer(self):
        program = self._memory_program()
        engine = TaintEngine(program, TaintSpec.default(),
                             _no_alias_resolver)
        report = engine.run()
        assert any(v.name == "p" for v in report.demanded)

    def test_demand_loop_resolves_memory_hop(self):
        run = run_taint(self._memory_program())
        assert len(run.value.flows) == 1
        # The sink-argument pointer seeds the demand; its alias-closed
        # cluster already covers p, so one round suffices.
        assert run.rounds >= 1
        assert run.demanded

    def test_pointer_argument_sink(self):
        # The sink argument itself is a pointer to a tainted cell.
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("input", [], ret="x")
            f.addr("p", "cell")
            f.store("p", "x")
            f.extern_call("system", ["p"])
        run = run_taint(b.build())
        assert len(run.value.flows) == 1

    def test_arg_taints_pointee(self):
        # recv(fd, buf_ptr) taints what the second argument points to.
        b = ProgramBuilder()
        with b.function("main") as f:
            f.addr("p", "buf")
            f.extern_call("recv", ["fd", "p"], ret="n")
            f.load("y", "p")
            f.extern_call("system", ["y"])
        run = run_taint(b.build())
        assert len(run.value.flows) == 1
        assert run.value.flows[0].source_fn == "recv"


class TestDemandSelection:
    def test_selects_fraction_of_clusters(self):
        sp = generate(SynthConfig(name="t", pointers=200, taint_webs=6,
                                  seed=5))
        run = run_taint(sp.program)
        stats = run.stats
        assert 0 < stats.clusters_selected < stats.clusters_total

    def test_source_argument_pointers_seed(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.addr("p", "buf")
            f.extern_call("recv", ["fd", "p"], ret="n")
        seeds = source_argument_pointers(b.build(), TaintSpec.default())
        assert any(v.name == "p" for v in seeds)


# ---------------------------------------------------------------------------
# ground truth on the synthetic corpus
# ---------------------------------------------------------------------------
class TestSynthGroundTruth:
    @pytest.mark.parametrize("seed", [7, 42])
    def test_all_webs_detected_no_sanitized_leaks(self, seed):
        sp = generate(SynthConfig(name="t", pointers=200, taint_webs=9,
                                  seed=seed))
        expected = {t["sink_function"] for t in sp.taint_truth
                    if not t["sanitized"]}
        sanitized = {t["sink_function"] for t in sp.taint_truth
                     if t["sanitized"]}
        run = run_taint(sp.program)
        found = {f.sink_loc.function for f in run.value.flows}
        assert expected <= found
        assert not (found & sanitized)

    def test_demand_equals_whole_program(self):
        from repro.bench.taint import _whole_program_run
        from repro.core import BootstrapAnalyzer
        sp = generate(SynthConfig(name="t", pointers=160, taint_webs=6,
                                  seed=13))
        result = BootstrapAnalyzer(sp.program).run()
        spec = TaintSpec.default()
        demand = run_taint(sp.program, spec=spec, result=result)
        whole, _ = _whole_program_run(sp.program, spec, result)
        assert sorted(f.key() for f in demand.value.flows) \
            == sorted(f.key() for f in whole.flows)


# ---------------------------------------------------------------------------
# concrete oracle: realized flows must be reported
# ---------------------------------------------------------------------------
class TestOracleSoundness:
    def assert_sound(self, program, **oracle_kw):
        _, realized = execute_taint(program, **oracle_kw)
        reported = flow_keys(run_taint(program).value.flows)
        missed = realized - reported
        assert not missed, f"concrete flows missed: {missed}"
        return realized

    def test_example_file(self):
        here = os.path.dirname(__file__)
        path = os.path.join(here, os.pardir, "examples", "taint_demo.c")
        program = parse_program(open(path).read(), entry="main")
        realized = self.assert_sound(program)
        assert len(realized) == 2  # and the sanitized path stays silent

    def test_branchy_program(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("input", [], ret="x")
            with f.branch() as br:
                with br.then():
                    f.copy("y", "x")
                with br.otherwise():
                    f.copy("y", "safe")
            f.extern_call("system", ["y"])
        realized = self.assert_sound(b.build())
        assert len(realized) == 1

    @pytest.mark.parametrize("seed", [3, 21])
    def test_synth_webs(self, seed):
        # Keep the non-web scaffolding tiny (no hub web, two worker
        # functions, no recursion) so the oracle's bounded DFS reaches
        # the seeded webs at the end of main within its path budget.
        sp = generate(SynthConfig(name="t", pointers=24, functions=2,
                                  hub_fractions=(), taint_webs=4,
                                  recursion=False, seed=seed))
        realized = self.assert_sound(sp.program, max_steps=900,
                                     max_paths=3000)
        assert realized  # the oracle actually reached some seeded web


# ---------------------------------------------------------------------------
# serialization and SARIF
# ---------------------------------------------------------------------------
class TestExternCallSerialize:
    def test_round_trip_preserves_taint_flows(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.extern_call("input", [], ret="x")
            f.extern_call("sanitize", ["x"], ret="clean")
            f.extern_call("system", ["x"])
        program = b.build()
        again = program_from_dict(program_to_dict(program))
        assert flow_keys(_engine_flows(again)) \
            == flow_keys(_engine_flows(program))


class TestSarifCodeFlows:
    def test_witness_round_trips_through_codeflows(self):
        src = """
        int getenv(int x);
        int system(int c);
        int main() {
            int v;
            int w;
            v = getenv(1);
            w = v;
            system(w);
            return 0;
        }
        """
        program = parse_program(src, entry="main")
        run = run_taint(program)
        assert len(run.diagnostics) == 1
        diag = run.diagnostics[0]
        assert len(diag.trace) >= 1
        sarif = diagnostics_to_sarif(run.diagnostics)
        json.dumps(sarif)  # must be JSON-serializable
        results = sarif["runs"][0]["results"]
        taint = [r for r in results if r["ruleId"] == "taint-flow"]
        assert len(taint) == 1
        flows = taint[0]["codeFlows"]
        locations = flows[0]["threadFlows"][0]["locations"]
        # every trace step plus the summary location at the sink
        assert len(locations) == len(diag.trace) + 1
        lines = [loc["location"]["physicalLocation"].get(
            "region", {}).get("startLine") for loc in locations]
        # first step is the source call, last is the sink line
        assert lines[0] < lines[-1]
        notes = [loc["location"].get("message", {}).get("text", "")
                 for loc in locations]
        assert any("getenv" in n for n in notes)
