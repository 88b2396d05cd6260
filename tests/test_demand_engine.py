"""The shared demand-driven query engine and its leak/deadlock clients.

Covers the engine contract (widening, budgets, deepening levels, FSCI
caching), a differential test pinning the taint checker to the legacy
inline widening loop it replaced, the new checkers against hand-built
programs and synth ground truth, concrete-oracle agreement, the CLI
verbs, hash-seed determinism, and the daemon methods with per-query
cache invalidation.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import parse_program
from repro.analysis.demand_engine import DemandEngine
from repro.bench.synth import SynthConfig, generate
from repro.checkers import run_deadlocks, run_leaks, run_taint
from repro.checkers.base import CheckerContext
from repro.cli import EXIT_BUDGET, main
from repro.core import BootstrapAnalyzer
from repro.errors import AnalysisBudgetExceeded
from repro.ir import Var

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples")

#: Three disjoint pointer webs: a staged client can widen across them
#: one cluster per round, which pins the engine's widening, budget and
#: deepening mechanics without depending on any checker's demand shape.
CHAIN_SOURCE = """
int a, b, c;
int *p1, *p2, *p3;

void w1(void) { p1 = &a; }
void w2(void) { p2 = &b; }
void w3(void) { p3 = &c; }

int main() {
    w1();
    w2();
    w3();
    return 0;
}
"""

#: Taint reaches the sink through an indirect store; the demand loop
#: must deliver the alias facts that resolve it (here in one round:
#: clusters are alias-closed, so the sink-argument seed's cluster
#: already carries the store pointer).
WIDENING_SOURCE = """
int getenv(int x);
int system(int cmd);

int slot;
int *ptr;

void setup(void) {
    ptr = &slot;
}

int main() {
    int raw;
    setup();
    raw = getenv(1);
    *ptr = raw;
    system(slot);
    return 0;
}
"""

LEAK_SOURCE = """
int *keep;

void lost(void) {
    int *p;
    p = malloc(4);
}

void tidy(void) {
    int *q;
    q = malloc(4);
    free(q);
}

void publish(void) {
    int *r;
    r = malloc(4);
    keep = r;
}

int main() {
    lost();
    tidy();
    publish();
    return 0;
}
"""

DEADLOCK_SOURCE = """
int obj_a;
int obj_b;
int *pa;
int *pb;

void lock(int *l) { }
void unlock(int *l) { }

void t1(void) {
    lock(pa);
    lock(pb);
    unlock(pb);
    unlock(pa);
}

void t2(void) {
    lock(pb);
    lock(pa);
    unlock(pa);
    unlock(pb);
}

int main() {
    pa = &obj_a;
    pb = &obj_b;
    spawn(t1);
    spawn(t2);
    t1();
    t2();
    return 0;
}
"""

#: Same two threads, same two locks, agreeing acquisition order.
ORDERED_SOURCE = DEADLOCK_SOURCE.replace(
    """void t2(void) {
    lock(pb);
    lock(pa);
    unlock(pa);
    unlock(pb);
}""",
    """void t2(void) {
    lock(pa);
    lock(pb);
    unlock(pb);
    unlock(pa);
}""")


def bootstrap(source):
    program = parse_program(source)
    return program, BootstrapAnalyzer(program).run()


# ----------------------------------------------------------------------
def staged_client(order):
    """A client that widens one pointer per round: it demands the first
    pointer from ``order`` not yet tracked, and returns the tracked
    names as its value."""
    def client(view):
        tracked = {str(v) for v in view.tracked}
        want = [Var(name) for name in order if name not in tracked][:1]
        return sorted(tracked), want
    return client


class TestEngineCore:
    def test_staged_widening_counts_rounds_and_clusters(self):
        program, result = bootstrap(CHAIN_SOURCE)
        engine = DemandEngine(program, result)
        outcome = engine.run([Var("p1")],
                             staged_client(["p2", "p3"]))
        assert outcome.rounds == 3
        assert {Var("p1"), Var("p2"), Var("p3")} <= outcome.demanded
        assert "p3" in outcome.value
        stats = outcome.stats
        assert stats.rounds == 3
        assert stats.fsci_runs == 3  # every widened key ran fresh
        assert stats.clusters_touched == 3
        assert stats.summary_bytes > 0

    def test_taint_converges_with_engine_stats(self):
        program, result = bootstrap(WIDENING_SOURCE)
        run = run_taint(program, result=result)
        assert run.rounds == 1
        assert [d.rule_id for d in run.diagnostics] == ["taint-flow"]
        assert run.engine is not None
        assert run.engine.rounds == run.rounds
        assert run.engine.fsci_runs == 1
        assert run.engine.summary_bytes > 0

    def test_taint_matches_legacy_inline_loop(self):
        """Differential: the engine-backed run_taint must be
        bit-identical to the widening loop it replaced (the pre-engine
        code, reproduced inline)."""
        from repro.analysis.taint import (
            TaintEngine,
            TaintSpec,
            source_argument_pointers,
        )
        from repro.checkers.taint import _make_resolver

        program, result = bootstrap(WIDENING_SOURCE)
        spec = TaintSpec.default()
        ctx = CheckerContext(program, result)
        demanded = set(source_argument_pointers(program, spec))
        rounds = 0
        while True:
            rounds += 1
            fsci, selection = ctx.engine.sliced_fsci(frozenset(demanded))
            tracked = set(demanded)
            for cluster in selection.selected:
                tracked |= cluster.slice.vp
            engine = TaintEngine(program, spec,
                                 _make_resolver(fsci, tracked),
                                 callgraph=result.callgraph)
            report = engine.run()
            fresh = {v for v in report.demanded
                     if v in program.pointers} - demanded
            if not fresh or rounds >= 10:
                break
            demanded |= fresh

        run = run_taint(program, result=result)
        assert run.rounds == rounds
        assert run.demanded == frozenset(demanded)
        assert sorted(f.key() for f in run.value.flows) \
            == sorted(f.key() for f in report.flows)
        assert run.stats.clusters_selected == len(selection.selected)

    def test_budget_exhausted_mid_widening(self):
        # Round 1 charges 1 cluster (within budget); round 2 widens to
        # a cumulative 3 and must trip mid-loop, not at the start.
        program, result = bootstrap(CHAIN_SOURCE)
        engine = DemandEngine(program, result)
        with pytest.raises(AnalysisBudgetExceeded):
            engine.run([Var("p1")], staged_client(["p2", "p3"]),
                       budget=2)

    def test_budget_covers_full_run(self):
        program, result = bootstrap(CHAIN_SOURCE)
        engine = DemandEngine(program, result)
        outcome = engine.run([Var("p1")], staged_client(["p2", "p3"]),
                             budget=6)
        assert outcome.rounds == 3

    def test_checker_budget_surfaces_as_analysis_budget(self):
        program, result = bootstrap(WIDENING_SOURCE)
        with pytest.raises(AnalysisBudgetExceeded):
            run_taint(program, result=result, budget=0)
        with pytest.raises(AnalysisBudgetExceeded):
            run_leaks(parse_program(LEAK_SOURCE), budget=0)

    def test_deepening_levels_monotone(self):
        program, result = bootstrap(CHAIN_SOURCE)
        tracked = {}
        for level in (1, 2, 3):
            engine = DemandEngine(program, result)
            outcome = engine.run([Var("p1")],
                                 staged_client(["p2", "p3"]),
                                 max_rounds=level)
            assert outcome.rounds == level
            tracked[level] = set(outcome.value)
        assert tracked[1] < tracked[2] < tracked[3]
        # Taint deepening over the same levels is monotone too.
        program, result = bootstrap(WIDENING_SOURCE)
        flows = {}
        for level in (1, 2, 3):
            run = run_taint(program, result=result, max_rounds=level)
            flows[level] = {f.key() for f in run.value.flows}
        assert flows[1] <= flows[2] <= flows[3]
        assert flows[3]

    def test_fsci_cache_makes_repeat_queries_free(self):
        program, result = bootstrap(WIDENING_SOURCE)
        ctx = CheckerContext(program, result)
        first = run_taint(program, ctx=ctx)
        again = run_taint(program, ctx=ctx)
        assert first.engine.fsci_runs == 1
        assert again.engine.fsci_runs == 0  # every round hit the cache
        # Cached rounds charge nothing, so even a zero budget passes.
        free = run_taint(program, ctx=ctx, budget=0)
        assert [d.message for d in free.diagnostics] \
            == [d.message for d in first.diagnostics]

    def test_engine_is_shared_across_checkers(self):
        program, result = bootstrap(LEAK_SOURCE)
        ctx = CheckerContext(program, result)
        assert isinstance(ctx.engine, DemandEngine)
        run_leaks(program, ctx=ctx)
        # The leak query's sliced FSCI stays cached on the shared
        # engine: re-running is free.
        again = run_leaks(program, ctx=ctx)
        assert again.engine.fsci_runs == 0


# ----------------------------------------------------------------------
class TestLeakChecker:
    def test_lost_allocation_flagged(self):
        program, result = bootstrap(LEAK_SOURCE)
        run = run_leaks(program, result=result)
        (site,) = run.value
        assert str(site).startswith("alloc@lost:")
        (d,) = run.diagnostics
        assert d.rule_id == "repro-memory-leak"
        assert d.severity == "error"
        assert "never freed" in d.message
        assert len(d.trace) == 2

    def test_freed_and_escaped_stay_silent(self):
        program, result = bootstrap(LEAK_SOURCE)
        run = run_leaks(program, result=result)
        reported = {str(s) for s in run.value}
        assert not any("tidy" in s or "publish" in s for s in reported)

    def test_demand_selection_skips_unrelated_clusters(self):
        program, result = bootstrap(LEAK_SOURCE)
        run = run_leaks(program, result=result)
        assert run.stats.clusters_selected < run.stats.clusters_total

    def test_whole_program_parity(self):
        program, result = bootstrap(LEAK_SOURCE)
        demand = run_leaks(program, result=result)
        whole = run_leaks(program, result=result, whole_program=True)
        assert [d.message for d in demand.diagnostics] \
            == [d.message for d in whole.diagnostics]
        assert whole.stats.clusters_selected \
            > demand.stats.clusters_selected

    def test_conditional_free_is_not_a_must_leak(self):
        program, result = bootstrap("""
            int main() {
                int *p;
                int c;
                p = malloc(4);
                if (c) {
                    free(p);
                }
                return 0;
            }
        """)
        run = run_leaks(program, result=result)
        assert run.diagnostics == []

    def test_registered_with_run_checkers(self):
        from repro.checkers import run_checkers
        program = parse_program(LEAK_SOURCE)
        report = run_checkers(program, names=["leak"])
        assert [d.rule_id for d in report.diagnostics] \
            == ["repro-memory-leak"]


# ----------------------------------------------------------------------
class TestDeadlockChecker:
    def test_abba_cycle_found_with_witness(self):
        program, result = bootstrap(DEADLOCK_SOURCE)
        run = run_deadlocks(program, result=result)
        (d,) = run.diagnostics
        assert d.rule_id == "repro-deadlock"
        assert d.severity == "warning"
        assert "obj_a" in d.message and "obj_b" in d.message
        assert "t1" in d.message and "t2" in d.message
        assert len(d.trace) == 2

    def test_spawn_entries_detected(self):
        program, result = bootstrap(DEADLOCK_SOURCE)
        run = run_deadlocks(program, result=result)
        assert run.value.thread_entries == ["t1", "t2"]

    def test_consistent_order_is_silent(self):
        program, result = bootstrap(ORDERED_SOURCE)
        run = run_deadlocks(program, result=result)
        assert run.diagnostics == []

    def test_single_thread_cannot_deadlock(self):
        program, result = bootstrap(DEADLOCK_SOURCE)
        run = run_deadlocks(program, result=result,
                            thread_entries=["t1"])
        assert run.diagnostics == []

    def test_whole_program_parity(self):
        program, result = bootstrap(DEADLOCK_SOURCE)
        demand = run_deadlocks(program, result=result)
        whole = run_deadlocks(program, result=result,
                              whole_program=True)
        assert [d.message for d in demand.diagnostics] \
            == [d.message for d in whole.diagnostics]

    def test_registered_with_run_checkers(self):
        from repro.checkers import run_checkers
        program = parse_program(DEADLOCK_SOURCE)
        report = run_checkers(program, names=["deadlock"])
        assert [d.rule_id for d in report.diagnostics] \
            == ["repro-deadlock"]


# ----------------------------------------------------------------------
def _witness(lock_a, lock_b, t1, t2):
    return (f"{lock_a}->{lock_b}->{lock_a} ({t1} holds {lock_a} and waits "
            f"for {lock_b}; {t2} holds {lock_b} and waits for {lock_a})")


def _synth_pairs(*pairs):
    return [_witness(f"dl{n}obja", f"dl{n}objb", f"dl{n}t1", f"dl{n}t2")
            for n in pairs]


#: Every deadlock of ``bench.demand``'s lock-pair stand-ins and two
#: examples, as the checker reported them when its client still
#: widened the demand with lock pointers outside ``view.tracked``.
DEADLOCK_INPUTS = {
    "deadlock_demo.c": [
        _witness("obj_a", "obj_b", "t1", "t2"),
        _witness("obj_a", "obj_b", "t3", "t2")],
    "race_demo.c": [],
    "savings": _synth_pairs(10, 12),
    "oracle-11": _synth_pairs(7, 9),
    "oracle-13": _synth_pairs(7, 9),
    "oracle-2008": _synth_pairs(7, 9),
}


def _deadlock_input(name):
    """``(program, thread entries)`` as ``bench.demand`` builds them."""
    if name.endswith(".c"):
        path = os.path.join(os.path.dirname(__file__), "..", "examples",
                            name)
        with open(path) as handle:
            return parse_program(handle.read()), None
    if name == "savings":
        sp = generate(SynthConfig(name="demand-bench", pointers=240,
                                  leak_webs=9, deadlock_pairs=4, seed=2008))
    else:
        seed = int(name.split("-")[1])
        sp = generate(SynthConfig(
            name=f"demand-oracle-{seed}", pointers=20, functions=4,
            leak_webs=6, deadlock_pairs=3, hub_fractions=(),
            recursion=False, seed=seed))
    return sp.program, list(sp.thread_entries)


class TestDeadlockOneRound:
    """The lock pointers are the seeds, so every lock site resolves in
    the first round: the client demands nothing and the engine stops
    after one round, with the cycles it always found."""

    def test_oracle_seeds_are_the_benchs(self):
        from repro.bench.demand import ORACLE_SEEDS
        assert {f"oracle-{s}" for s in ORACLE_SEEDS} \
            <= set(DEADLOCK_INPUTS)

    @pytest.mark.parametrize("name", sorted(DEADLOCK_INPUTS))
    def test_one_round_same_cycles(self, name):
        program, threads = _deadlock_input(name)
        result = BootstrapAnalyzer(program).run()
        prefix = "potential deadlock: lock-order cycle "
        for whole in (False, True):
            run = run_deadlocks(program, result=result,
                                thread_entries=threads,
                                whole_program=whole)
            assert run.rounds == 1, whole
            assert [d.message[len(prefix):] for d in run.diagnostics] \
                == DEADLOCK_INPUTS[name], whole
            assert [c.key for c in run.value.cycles] == \
                [w.split(" ")[0] for w in DEADLOCK_INPUTS[name]]


# ----------------------------------------------------------------------
class TestSynthGroundTruth:
    @pytest.fixture(scope="class")
    def synth(self):
        sp = generate(SynthConfig(name="truth", pointers=60, leak_webs=6,
                                  deadlock_pairs=4, seed=7))
        return sp, BootstrapAnalyzer(sp.program).run()

    def test_leak_findings_match_truth_exactly(self, synth):
        sp, result = synth
        run = run_leaks(sp.program, result=result)
        expected = {f"alloc@{t['site']}" for t in sp.leak_truth
                    if t["leaked"]}
        assert {str(s) for s in run.value} == expected

    def test_deadlock_cycles_match_truth_exactly(self, synth):
        sp, result = synth
        run = run_deadlocks(sp.program, result=result,
                            thread_entries=list(sp.thread_entries))
        expected = {frozenset(t["locks"]) for t in sp.deadlock_truth
                    if t["cycle"]}
        assert {frozenset(str(n) for n in c.nodes)
                for c in run.value.cycles} == expected

    def test_spawned_entries_recovered_from_program(self, synth):
        sp, result = synth
        run = run_deadlocks(sp.program, result=result)
        assert run.value.thread_entries == sorted(sp.thread_entries)


# ----------------------------------------------------------------------
class TestConcreteOracles:
    """The static clients against exhaustive concrete execution: the
    oracle's must-facts are ground truth the checkers must cover."""

    @pytest.fixture(scope="class")
    def corpus_program(self):
        # Seed chosen so bounded DFS completes without truncation.
        sp = generate(SynthConfig(
            name="oracle", pointers=20, functions=4, leak_webs=6,
            deadlock_pairs=3, hub_fractions=(), recursion=False,
            seed=13))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, 60000))
        yield sp, BootstrapAnalyzer(sp.program).run()
        sys.setrecursionlimit(old)

    def test_heap_oracle_agrees_with_static_leaks(self, corpus_program):
        from repro.analysis.oracle import execute_heap
        sp, result = corpus_program
        facts, executor = execute_heap(sp.program, max_steps=1500,
                                       max_paths=500)
        assert not facts.truncated
        static = {str(s) for s in
                  run_leaks(sp.program, result=result).value}
        oracle = {str(s) for s in executor.must_leaked}
        assert oracle == static  # 0 false negatives, 0 spurious

    def test_lock_oracle_agrees_with_static_cycles(self, corpus_program):
        from repro.analysis.oracle import execute_lock_orders
        sp, result = corpus_program
        _, cycles = execute_lock_orders(sp.program,
                                        list(sp.thread_entries),
                                        max_steps=1500, max_paths=500)
        run = run_deadlocks(sp.program, result=result,
                            thread_entries=list(sp.thread_entries))
        static = {frozenset(str(n) for n in c.nodes)
                  for c in run.value.cycles}
        oracle = {frozenset(str(o) for o in c) for c in cycles}
        assert oracle == static


# ----------------------------------------------------------------------
class TestLeaksCLI:
    @pytest.fixture()
    def leak_file(self, tmp_path):
        path = tmp_path / "leak.c"
        path.write_text(LEAK_SOURCE)
        return str(path)

    def test_text_report(self, leak_file, capsys):
        assert main(["leaks", leak_file]) == 0
        out = capsys.readouterr().out
        assert "repro-memory-leak" in out
        assert "demand loop" in out

    def test_fail_on_severity(self, leak_file):
        assert main(["leaks", leak_file, "--fail-on", "error"]) == 1
        assert main(["leaks", leak_file, "--fail-on-finding"]) == 1

    def test_json_output(self, leak_file, capsys):
        assert main(["leaks", leak_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [d["rule"] for d in data] == ["repro-memory-leak"]
        assert data[0]["severity"] == "error"

    def test_sarif_file(self, leak_file, tmp_path):
        out_path = tmp_path / "leaks.sarif"
        assert main(["leaks", leak_file, "--sarif", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["version"] == "2.1.0"
        assert len(data["runs"][0]["results"]) == 1

    def test_budget_exit_code(self, leak_file, capsys):
        assert main(["leaks", leak_file, "--budget", "0"]) == EXIT_BUDGET


class TestDeadlocksCLI:
    @pytest.fixture()
    def dl_file(self, tmp_path):
        path = tmp_path / "dl.c"
        path.write_text(DEADLOCK_SOURCE)
        return str(path)

    def test_text_report_with_auto_threads(self, dl_file, capsys):
        assert main(["deadlocks", dl_file]) == 0
        out = capsys.readouterr().out
        assert "repro-deadlock" in out
        assert "thread entries: t1, t2" in out

    def test_fail_on_severity(self, dl_file):
        assert main(["deadlocks", dl_file, "--fail-on", "warning"]) == 1
        # Cycles are warnings, not errors.
        assert main(["deadlocks", dl_file, "--fail-on", "error"]) == 0

    def test_explicit_threads_json(self, dl_file, capsys):
        assert main(["deadlocks", dl_file, "--threads", "t1,t2",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [d["rule"] for d in data] == ["repro-deadlock"]

    def test_unknown_thread_rejected(self, dl_file):
        with pytest.raises(SystemExit, match="unknown thread"):
            main(["deadlocks", dl_file, "--threads", "nope"])

    def test_sarif_file(self, dl_file, tmp_path):
        out_path = tmp_path / "dl.sarif"
        assert main(["deadlocks", dl_file, "--sarif",
                     str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert len(data["runs"][0]["results"]) == 1


class TestRacesCLIParity:
    RACY = """
        int g;
        void t1(void) { g = g + 1; }
        void t2(void) { g = g + 2; }
        int main() { t1(); t2(); return 0; }
    """

    @pytest.fixture()
    def racy_file(self, tmp_path):
        path = tmp_path / "racy.c"
        path.write_text(self.RACY)
        return str(path)

    def test_fail_on_thresholds(self, racy_file, capsys):
        args = ["races", racy_file, "--threads", "t1,t2"]
        assert main(args) == 0
        assert main(args + ["--fail-on", "warning"]) == 1
        # Races are warnings: an error threshold does not trip.
        assert main(args + ["--fail-on", "error"]) == 0
        # The legacy flag still means "fail on any warning".
        assert main(args + ["--fail-on-race"]) == 1
        capsys.readouterr()

    def test_unknown_thread_rejected(self, racy_file):
        with pytest.raises(SystemExit, match="unknown thread"):
            main(["races", racy_file, "--threads", "nope,t2"])

    def test_ignore_comment_suppresses_race(self, tmp_path, capsys):
        path = tmp_path / "ignored.c"
        path.write_text(self.RACY.replace(
            "g = g + 1; }", "g = g + 1; } // repro:ignore[data-race]"))
        assert main(["races", str(path), "--threads", "t1,t2",
                     "--fail-on", "warning"]) == 0
        out = capsys.readouterr().out
        assert "0 race warning(s)" in out and "1 suppressed" in out

    def test_sarif_output(self, racy_file, tmp_path, capsys):
        out_path = tmp_path / "races.sarif"
        assert main(["races", racy_file, "--threads", "t1,t2",
                     "--sarif", str(out_path)]) == 0
        assert "SARIF written" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        assert data["version"] == "2.1.0"
        results = data["runs"][0]["results"]
        assert results
        assert all(r["ruleId"] == "repro-data-race" for r in results)


# ----------------------------------------------------------------------
def _run_cli(args, seed, cwd):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    proc = subprocess.run([sys.executable, "-m", "repro"] + args,
                          capture_output=True, text=True, env=env,
                          cwd=cwd)
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout


class TestHashSeedDeterminism:
    """Both new checkers must be independent of dict/set iteration
    order, like every other emitter in the suite."""

    def test_leaks_stable_across_hash_seeds(self, tmp_path):
        src = tmp_path / "leak.c"
        src.write_text(LEAK_SOURCE)
        args = ["leaks", str(src), "--json"]
        outs = {_run_cli(args, seed, str(tmp_path))
                for seed in (0, 31337)}
        assert len(outs) == 1
        assert json.loads(outs.pop())

    def test_deadlocks_stable_across_hash_seeds(self, tmp_path):
        src = tmp_path / "dl.c"
        src.write_text(DEADLOCK_SOURCE)
        args = ["deadlocks", str(src), "--json"]
        outs = {_run_cli(args, seed, str(tmp_path))
                for seed in (0, 24601)}
        assert len(outs) == 1
        assert json.loads(outs.pop())


# ----------------------------------------------------------------------
#: The leak program padded with the daemon suite's independent pointer
#: webs, so a one-web edit must leave the leak/deadlock answers
#: bit-identical while the cluster store reuses unchanged fingerprints.
DAEMON_SOURCE = LEAK_SOURCE + """
int c, d;
int *r, *s;
int *t, *u;

void bind_rs(void) { r = &c; s = r; }
void bind_tu(void) { t = &d; u = t; }
"""
DAEMON_SOURCE = DAEMON_SOURCE.replace(
    "    lost();", "    bind_rs();\n    bind_tu();\n    lost();")
DAEMON_EDITED = DAEMON_SOURCE.replace("t = &d;", "t = &c;")


class TestDaemonMethods:
    @pytest.fixture()
    def server(self):
        from repro.server import AliasServer, ServerConfig
        return AliasServer(ServerConfig())

    @pytest.fixture()
    def leak_file(self, tmp_path):
        path = tmp_path / "daemon_leak.c"
        path.write_text(DAEMON_SOURCE)
        return str(path)

    @pytest.fixture()
    def dl_file(self, tmp_path):
        path = tmp_path / "daemon_dl.c"
        path.write_text(DEADLOCK_SOURCE)
        return str(path)

    def _result(self, server, method, **params):
        response = server.handle_request(
            {"id": 1, "method": method, "params": params})
        assert "error" not in response, response
        return response["result"]

    def _error(self, server, method, **params):
        response = server.handle_request(
            {"id": 1, "method": method, "params": params})
        assert "result" not in response, response
        return response["error"]

    def test_leaks_matches_one_shot(self, server, leak_file):
        from repro.core import diagnostics_to_dict
        result = self._result(server, "leaks", file=leak_file)
        from repro.frontend import parse_program as parse_file
        program = parse_file(open(leak_file).read(), entry="main",
                             path=leak_file)
        run = run_leaks(program)
        assert result["diagnostics"] == diagnostics_to_dict(
            run.diagnostics)
        assert result["leaked"] == sorted(str(s) for s in run.value)
        assert result["engine"]["rounds"] == run.engine.rounds

    def test_deadlocks_matches_one_shot(self, server, dl_file):
        from repro.core import diagnostics_to_dict
        result = self._result(server, "deadlocks", file=dl_file,
                              threads=["t1", "t2"])
        from repro.frontend import parse_program as parse_file
        program = parse_file(open(dl_file).read(), entry="main",
                             path=dl_file)
        run = run_deadlocks(program, thread_entries=["t1", "t2"])
        assert result["diagnostics"] == diagnostics_to_dict(
            run.diagnostics)
        assert result["cycles"] == [c.key for c in run.value.cycles]

    def test_deadlocks_default_entries(self, server, dl_file):
        result = self._result(server, "deadlocks", file=dl_file)
        assert result["thread_entries"] == ["t1", "t2"]
        assert result["cycles"]

    def test_queries_cached_per_shape(self, server, dl_file):
        from repro.server import protocol
        first = self._result(server, "deadlocks", file=dl_file)
        again = self._result(server, "deadlocks", file=dl_file)
        assert first == again
        error = self._error(server, "deadlocks", file=dl_file,
                            threads=["nope"])
        assert error["code"] == protocol.INVALID_PARAMS
        error = self._error(server, "deadlocks", file=dl_file,
                            threads="t1")
        assert error["code"] == protocol.INVALID_PARAMS

    def test_one_function_edit_invalidates_and_reuses(
            self, server, leak_file):
        before = self._result(server, "leaks", file=leak_file)
        with open(leak_file, "w") as handle:
            handle.write(DAEMON_EDITED)
        self._result(server, "invalidate", file=leak_file)
        after = self._result(server, "leaks", file=leak_file)
        # Editing the unrelated t/u web must not change the leak
        # verdicts, and the reload reuses every unchanged cluster.
        assert after["diagnostics"] == before["diagnostics"]
        assert after["leaked"] == before["leaked"]
        refresh = after["refresh"]
        assert 0 < refresh["reanalyzed"] < refresh["clusters"]
        assert refresh["reused"] \
            == refresh["clusters"] - refresh["reanalyzed"]


# ----------------------------------------------------------------------
class TestDemandBench:
    def test_small_run_meets_acceptance(self, tmp_path):
        from repro.bench.demand import (
            render,
            run_oracle_corpus,
            run_savings,
            violations,
        )
        data = {
            "savings": run_savings(pointers=60, leak_webs=6,
                                   deadlock_pairs=2, seed=7, repeats=1),
            "oracle": run_oracle_corpus(seeds=(13,), max_steps=1500,
                                        max_paths=500),
        }
        assert violations(data) == []
        text = render(data)
        assert "Demand engine" in text
        assert "0 leak FN, 0 deadlock FN" in text
