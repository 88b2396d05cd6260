"""The summary engine: Definitions 3-8, Algorithms 4 and 5."""

import pytest

from repro.analysis import (
    FSCI,
    AddrTerm,
    ClusterFSCS,
    DerefTerm,
    NullTerm,
    ObjTerm,
    Steensgaard,
    SummaryEngine,
    format_constraint,
)
from repro.bench import sources
from repro.core import (
    BootstrapAnalyzer,
    BootstrapConfig,
    CascadeConfig,
    relevant_statements,
)
from repro.errors import AnalysisBudgetExceeded
from repro.frontend import parse_program
from repro.ir import Loc, ProgramBuilder, Var

from .helpers import figure4_program, figure5_program, v


def summary_strs(entries):
    return sorted(f"{t} | {format_constraint(c)}" for t, c in entries)


class TestFigure5:
    def setup_method(self):
        self.prog = figure5_program()
        self.steens = Steensgaard(self.prog).run()
        p1 = self.steens.partition_of(Var("x"))
        self.slice = relevant_statements(self.prog, self.steens, p1)
        self.analysis = ClusterFSCS(
            self.prog, cluster=[m for m in p1 if isinstance(m, Var)],
            tracked=self.slice.vp, relevant=self.slice.statements)

    def test_sum_foo_is_x_from_w(self):
        """The paper's tuple (x, 3b, w, true)."""
        tuples = self.analysis.summary_tuples("foo")
        assert [str(t) for t in tuples] == ["(x, foo:4, w, true)"]

    def test_bar_is_transparent_for_p1(self):
        assert self.analysis.engine.is_transparent("bar")

    def test_sum_main_z_from_u(self):
        """The paper's tuple (z, 6a, u, true)."""
        entries = self.analysis.engine.exit_summary("main", ObjTerm(Var("z")))
        assert summary_strs(entries) == ["u | true"]

    def test_transparent_function_identity_summary(self):
        entries = self.analysis.engine.exit_summary("bar", ObjTerm(Var("z")))
        assert entries == frozenset({(ObjTerm(Var("z")), frozenset())})

    def test_terminal_term_summary(self):
        t = AddrTerm(Var("c", "main"))
        assert self.analysis.engine.exit_summary("foo", t) == \
            frozenset({(t, frozenset())})


class TestFigure4:
    """Complete vs maximally complete update sequences: at 4a, *x is
    semantically a, and the maximal completion of [4a] is [1a, 4a] — so
    a's value at the end comes from c."""

    def test_a_sources_from_c(self):
        prog = figure4_program()
        steens = Steensgaard(prog).run()
        a = v("a", "main")
        part = steens.partition_of(a)
        slice_ = relevant_statements(prog, steens, part)
        analysis = ClusterFSCS(prog,
                               cluster=[m for m in part
                                        if isinstance(m, Var)],
                               tracked=slice_.vp,
                               relevant=slice_.statements)
        exit_loc = Loc("main", prog.cfg_of("main").exit)
        origins = analysis.origins(a, exit_loc)
        names = sorted(str(t) for t, _ in origins)
        assert names == ["main::c"]


class TestConstraintGeneration:
    """Algorithm 4's case split on ambiguous stores."""

    def _ambiguous_store_program(self):
        b = ProgramBuilder()
        b.global_var("x")
        b.global_var("d")
        with b.function("main") as f:
            with f.branch() as br:
                with br.then():
                    f.addr("x", "bb")
                with br.otherwise():
                    f.addr("x", "cc")
            f.store("x", "d")
            f.copy("aa", "bb")
        return b.build()

    def test_both_branches_generated(self):
        prog = self._ambiguous_store_program()
        steens = Steensgaard(prog).run()
        aa = v("aa", "main")
        part = steens.partition_of(aa)
        slice_ = relevant_statements(prog, steens, part)
        analysis = ClusterFSCS(prog,
                               cluster=[m for m in part
                                        if isinstance(m, Var)],
                               tracked=slice_.vp,
                               relevant=slice_.statements)
        entries = analysis.engine.exit_summary("main", ObjTerm(aa))
        strs = summary_strs(entries)
        assert any("d |" in s and "-> main::bb" in s for s in strs), strs
        assert any("bb |" in s and "-/-> main::bb" in s for s in strs), strs

    def test_unambiguous_store_no_branching(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.addr("x", "bb")
            f.store("x", "d")
            f.copy("aa", "bb")
        prog = b.build()
        engine = SummaryEngine(prog, fsci=FSCI(prog).run())
        entries = engine.exit_summary("main", ObjTerm(v("aa", "main")))
        # x must point to bb, so the not-overwritten branch (aa from bb)
        # is pruned as unsatisfiable; only the d tuple survives.
        names = {str(t) for t, _ in entries}
        assert names == {"main::d"}

    def test_without_fsci_branches_on_syntax(self):
        """No oracle: the paper's 'in isolation' scenario generates both
        constrained tuples."""
        prog = self._ambiguous_store_program()
        engine = SummaryEngine(prog, fsci=None)
        entries = engine.exit_summary("main", ObjTerm(v("aa", "main")))
        assert len(entries) >= 2


class TestInverseTransfer:
    def _engine(self, build):
        b = ProgramBuilder()
        with b.function("main") as f:
            build(f)
        prog = b.build()
        return prog, SummaryEngine(prog, fsci=FSCI(prog).run())

    def test_addrof_terminates_tracking(self):
        prog, eng = self._engine(lambda f: f.addr("p", "a"))
        entries = eng.exit_summary("main", ObjTerm(v("p", "main")))
        assert summary_strs(entries) == ["&main::a | true"]

    def test_null_terminates_tracking(self):
        prog, eng = self._engine(lambda f: f.null("p"))
        entries = eng.exit_summary("main", ObjTerm(v("p", "main")))
        assert summary_strs(entries) == ["NULL | true"]

    def test_copy_renames(self):
        prog, eng = self._engine(lambda f: f.copy("p", "q"))
        entries = eng.exit_summary("main", ObjTerm(v("p", "main")))
        assert summary_strs(entries) == ["main::q | true"]

    def test_load_becomes_deref(self):
        prog, eng = self._engine(lambda f: f.load("p", "q"))
        entries = eng.exit_summary("main", ObjTerm(v("p", "main")))
        assert summary_strs(entries) == ["*main::q | true"]

    def test_untouched_var_identity(self):
        prog, eng = self._engine(lambda f: f.copy("p", "q"))
        entries = eng.exit_summary("main", ObjTerm(v("z", "main")))
        assert summary_strs(entries) == ["main::z | true"]

    def test_deref_through_resolved_store(self):
        def build(f):
            f.addr("q", "cell")
            f.addr("t", "a")
            f.store("q", "t")   # cell = &a
            f.load("p", "q")    # p = *q
        prog, eng = self._engine(build)
        entries = eng.exit_summary("main", ObjTerm(v("p", "main")))
        assert summary_strs(entries) == ["&main::a | true"]

    def test_deref_identity_change_resolved_via_fsci(self):
        """Tracking *s across an assignment to s re-targets the cell."""
        def build(f):
            f.addr("s", "c1")
            f.addr("t", "a")
            f.store("s", "t")    # c1 = &a
            f.addr("s", "c2")    # s re-pointed; *s now c2
            f.load("p", "s")     # p = *s  (== c2's content: nothing)
        prog, eng = self._engine(build)
        entries = eng.exit_summary("main", ObjTerm(v("p", "main")))
        # p's value is c2's (uninitialized) content.
        assert summary_strs(entries) == ["main::c2 | true"]


class TestRecursion:
    def test_recursive_summary_fixpoint(self):
        b = ProgramBuilder()
        b.global_var("g")
        with b.function("rec") as f:
            f.copy("g", "h")
            with f.branch() as br:
                with br.then():
                    f.call("rec")
                with br.otherwise():
                    f.skip()
        with b.function("main") as f:
            f.call("rec")
        prog = b.build()
        eng = SummaryEngine(prog, fsci=FSCI(prog).run())
        entries = eng.exit_summary("main", ObjTerm(Var("g")))
        # g comes from h (one or more recursive rounds) — never from g.
        assert summary_strs(entries) == ["rec::h | true"]

    def test_nonterminating_recursion_has_empty_summary(self):
        """A function that always recurses never reaches its exit: the
        empty summary is precise, not a bug."""
        b = ProgramBuilder()
        b.global_var("g")
        with b.function("spin") as f:
            f.copy("g", "h")
            f.call("spin")
        with b.function("main") as f:
            f.call("spin")
        prog = b.build()
        eng = SummaryEngine(prog, fsci=FSCI(prog).run())
        assert eng.exit_summary("main", ObjTerm(Var("g"))) == frozenset()

    def test_mutual_recursion(self):
        b = ProgramBuilder()
        b.global_var("g")
        with b.function("even") as f:
            f.copy("g", "ge")
            with f.branch() as br:
                with br.then():
                    f.call("odd")
                with br.otherwise():
                    f.skip()
        with b.function("odd") as f:
            f.copy("g", "go")
            with f.branch() as br:
                with br.then():
                    f.call("even")
                with br.otherwise():
                    f.skip()
        with b.function("main") as f:
            f.call("even")
        prog = b.build()
        eng = SummaryEngine(prog, fsci=FSCI(prog).run())
        entries = eng.exit_summary("main", ObjTerm(Var("g")))
        names = {str(t) for t, _ in entries}
        assert names == {"even::ge", "odd::go"}

    def test_self_recursive_rotation(self):
        """f rotates a := b, b := c each call; at any depth a's exit value
        is b's or c's entry value (never a's)."""
        b = ProgramBuilder()
        for g in "abc":
            b.global_var(g)
        with b.function("f") as fb:
            fb.copy("a", "b")
            fb.copy("b", "c")
            with fb.branch() as br:
                with br.then():
                    fb.call("f")
                with br.otherwise():
                    fb.skip()
        with b.function("main") as fb:
            fb.call("f")
        prog = b.build()
        eng = SummaryEngine(prog, fsci=FSCI(prog).run())
        entries = eng.exit_summary("main", ObjTerm(Var("a")))
        names = {str(t) for t, _ in entries}
        assert names == {"b", "c"}


class TestBudget:
    def test_budget_exceeded_raises(self):
        prog = figure5_program()
        eng = SummaryEngine(prog, fsci=None, budget=3)
        with pytest.raises(AnalysisBudgetExceeded):
            eng.exit_summary("main", ObjTerm(Var("z")))

    def test_steps_counted(self):
        prog = figure5_program()
        eng = SummaryEngine(prog, fsci=None)
        eng.exit_summary("main", ObjTerm(Var("z")))
        assert eng.steps > 0

    @pytest.mark.parametrize("limit", ["budget", "deadline"])
    def test_no_partial_summary_survives_a_raise(self, limit):
        """A solve that trips its budget or deadline keeps none of its
        open keys: once the limit is lifted, asking again gives a fresh
        engine's answer for every (function, cluster pointer) exit
        summary of the hand-written sources."""
        tripped = 0
        for name in sources.names():
            program = parse_program(sources.source(name))
            boot = BootstrapAnalyzer(program, BootstrapConfig(
                cascade=CascadeConfig(andersen_threshold=6))).run()
            for cluster in boot.clusters:
                base = boot.analysis_for(cluster)
                options = {"fsci": base.fsci, "relevant": base.relevant,
                           "callgraph": base.callgraph}
                fresh = SummaryEngine(program, **options)
                keys = [(func, ObjTerm(p))
                        for func in sorted(program.functions)
                        for p in sorted(base.cluster, key=str)]
                answers = [fresh.exit_summary(*key) for key in keys]
                if limit == "budget" and fresh.steps >= 2:
                    options["budget"] = fresh.steps // 2
                elif limit == "deadline" and fresh.steps >= 256:
                    options["deadline"] = 0.0  # long past: trips at 256
                else:
                    continue
                engine = SummaryEngine(program, **options)
                with pytest.raises(AnalysisBudgetExceeded):
                    for key in keys:
                        engine.exit_summary(*key)
                tripped += 1
                engine.budget = engine.deadline = None
                assert [engine.exit_summary(*key) for key in keys] \
                    == answers, (name, sorted(map(str, base.cluster)))
        assert tripped > 0


class TestBackwardFrom:
    def test_interior_location(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.addr("p", "a")
            mid = f.copy("q", "p")
            f.addr("p", "b")
        prog = b.build()
        eng = SummaryEngine(prog, fsci=FSCI(prog).run())
        entries = eng.backward_from(Loc("main", mid), ObjTerm(v("q", "main")))
        assert summary_strs(entries) == ["&main::a | true"]

    def test_after_false_excludes_statement(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.addr("q", "a")
            n = f.addr("q", "b")
        prog = b.build()
        eng = SummaryEngine(prog, fsci=FSCI(prog).run())
        before = eng.backward_from(Loc("main", n), ObjTerm(v("q", "main")),
                                   after=False)
        assert summary_strs(before) == ["&main::a | true"]


class TestDeepCallChain:
    def test_chain_of_3000_calls(self):
        """``f0 -> ... -> f2999``, where only the last function writes
        ``p``: the driver keeps one walk per open key on an explicit
        stack, so a chain far deeper than the recursion limit solves."""
        depth = 3000
        b = ProgramBuilder()
        b.global_var("p")
        b.global_var("g")
        with b.function("main") as f:
            f.call("f0")
        for i in range(depth - 1):
            with b.function(f"f{i}") as f:
                f.call(f"f{i + 1}")
        with b.function(f"f{depth - 1}") as f:
            f.addr("p", "g")
        prog = b.build()
        boot = BootstrapAnalyzer(prog).run()
        report = boot.analyze_all()
        answers = [out["points_to"]["p"] for out in report.results
                   if "p" in out["points_to"]]
        assert answers == [["g"]]
