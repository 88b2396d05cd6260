"""Tests for the IR layer: statements, CFG, builder, program indexes."""

import pytest

from repro.ir import (
    CFG,
    AddrOf,
    AllocSite,
    CallStmt,
    Copy,
    Load,
    Loc,
    NullAssign,
    Program,
    ProgramBuilder,
    ReturnStmt,
    Skip,
    Store,
    Var,
    format_cfg,
    format_program,
    is_canonical,
    param_var,
    retval_var,
)

from .helpers import figure2_program


def straight_line(function, stmts):
    """A sealed CFG running ``stmts`` in order."""
    cfg = CFG(function)
    prev = cfg.entry
    for stmt in stmts:
        node = cfg.add_node(stmt)
        cfg.add_edge(prev, node)
        prev = node
    cfg.seal()
    return cfg


class TestStatements:
    def test_copy_roles(self):
        s = Copy(Var("x"), Var("y"))
        assert s.defined_var() == Var("x")
        assert s.used_vars() == (Var("y"),)
        assert is_canonical(s)

    def test_addrof_variable_target(self):
        s = AddrOf(Var("x"), Var("y"))
        assert s.defined_var() == Var("x")
        assert s.used_vars() == ()

    def test_addrof_alloc_target(self):
        site = AllocSite("main:3")
        s = AddrOf(Var("p"), site)
        assert str(site) == "alloc@main:3"
        assert s.target is site

    def test_store_defines_nothing(self):
        s = Store(Var("x"), Var("y"))
        assert s.defined_var() is None
        assert set(s.used_vars()) == {Var("x"), Var("y")}

    def test_load_uses_pointer(self):
        s = Load(Var("x"), Var("y"))
        assert s.used_vars() == (Var("y"),)

    def test_null_assign_is_canonical(self):
        assert is_canonical(NullAssign(Var("p")))

    def test_call_requires_exactly_one_target_kind(self):
        with pytest.raises(ValueError):
            CallStmt()
        with pytest.raises(ValueError):
            CallStmt(callee="f", fp=Var("fp"))

    def test_direct_call_targets(self):
        c = CallStmt(callee="f")
        assert c.targets == ("f",)
        assert not c.is_indirect

    def test_indirect_call(self):
        c = CallStmt(fp=Var("fp"))
        assert c.is_indirect
        assert c.targets == ()

    def test_skip_and_return_not_canonical(self):
        assert not is_canonical(Skip())
        assert not is_canonical(ReturnStmt())

    def test_var_qualified_names(self):
        assert Var("x").qualified == "x"
        assert Var("x", "f").qualified == "f::x"

    def test_statement_str_forms(self):
        assert str(Copy(Var("a"), Var("b"))) == "a = b"
        assert str(Load(Var("a"), Var("b"))) == "a = *b"
        assert str(Store(Var("a"), Var("b"))) == "*a = b"
        assert str(AddrOf(Var("a"), Var("b"))) == "a = &b"
        assert str(NullAssign(Var("a"))) == "a = NULL"


class TestCFG:
    def test_straight_line_structure(self):
        cfg = straight_line("f", [Copy(Var("a"), Var("b")),
                                  Copy(Var("c"), Var("a"))])
        cfg.validate()
        assert len(cfg) == 4  # entry + 2 + exit
        assert cfg.successors(cfg.entry) == (1,)
        assert cfg.successors(2) == (cfg.exit,)

    def test_seal_routes_dangling_to_exit(self):
        cfg = CFG("f")
        n = cfg.add_node(Skip("a"))
        cfg.add_edge(cfg.entry, n)
        cfg.seal()
        assert cfg.exit in cfg.successors(n)

    def test_reverse_postorder_starts_at_entry(self):
        cfg = straight_line("f", [Skip(), Skip()])
        order = cfg.reverse_postorder()
        assert order[0] == cfg.entry
        assert order[-1] == cfg.exit

    def test_reverse_postorder_handles_loops(self):
        cfg = CFG("f")
        a = cfg.add_node(Skip("a"))
        b = cfg.add_node(Skip("b"))
        cfg.add_edge(cfg.entry, a)
        cfg.add_edge(a, b)
        cfg.add_edge(b, a)  # loop
        cfg.seal()
        order = cfg.reverse_postorder()
        assert set(order) >= {cfg.entry, a, b}

    def test_deep_cfg_no_recursion_error(self):
        cfg = straight_line("f", [Skip() for _ in range(5000)])
        assert len(cfg.reverse_postorder()) == 5002

    def test_validate_rejects_exit_successors(self):
        cfg = straight_line("f", [Skip()])
        cfg._succs[cfg.exit].append(cfg.entry)
        cfg._preds[cfg.entry].append(cfg.exit)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_loc_ordering(self):
        assert Loc("a", 1) < Loc("a", 2) < Loc("b", 0)


class TestBuilder:
    def test_figure2_shape(self):
        prog = figure2_program()
        assert set(prog.functions) == {"main"}
        stmts = [s for _, s in prog.statements() if is_canonical(s)]
        assert len(stmts) == 5

    def test_branch_creates_two_paths(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            with f.branch() as br:
                with br.then():
                    f.addr("p", "a")
                with br.otherwise():
                    f.addr("p", "b")
            f.copy("q", "p")
        prog = b.build()
        cfg = prog.cfg_of("main")
        # The branch skip node has two successors.
        branch_nodes = [i for i in cfg.nodes()
                        if isinstance(cfg.stmt(i), Skip)
                        and cfg.stmt(i).note == "branch"]
        assert len(branch_nodes) == 1
        assert len(cfg.successors(branch_nodes[0])) == 2

    def test_if_without_else_falls_through(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            with f.branch() as br:
                with br.then():
                    f.addr("p", "a")
            f.copy("q", "p")
        prog = b.build()
        cfg = prog.cfg_of("main")
        copy_nodes = [i for i in cfg.nodes()
                      if isinstance(cfg.stmt(i), Copy)]
        assert len(cfg.predecessors(copy_nodes[0])) == 2

    def test_loop_back_edge(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            with f.loop():
                f.addr("p", "a")
        prog = b.build()
        cfg = prog.cfg_of("main")
        addr_nodes = [i for i in cfg.nodes()
                      if isinstance(cfg.stmt(i), AddrOf)]
        (succ,) = cfg.successors(addr_nodes[0])
        assert isinstance(cfg.stmt(succ), Skip)  # back to loop head

    def test_call_emits_conduit_copies(self):
        b = ProgramBuilder()
        with b.function("callee", params=("x",)) as f:
            f.ret("x")
        with b.function("main") as f:
            f.addr("p", "a")
            f.call("callee", ["p"], ret="q")
        prog = b.build()
        stmts = [s for _, s in prog.statements()]
        assert Copy(param_var("callee", 0), Var("p", "main")) in stmts
        assert Copy(Var("q", "main"), retval_var("callee")) in stmts

    def test_ret_copies_to_retval(self):
        b = ProgramBuilder()
        with b.function("f", params=("x",)) as fb:
            fb.ret("x")
        prog = b.build(entry="f")
        stmts = [s for _, s in prog.statements()]
        assert Copy(retval_var("f"), Var("x", "f")) in stmts

    def test_duplicate_function_rejected(self):
        b = ProgramBuilder()
        with b.function("f") as fb:
            fb.skip()
        with pytest.raises(ValueError):
            with b.function("f") as fb:
                pass

    def test_globals_resolve_before_locals(self):
        b = ProgramBuilder()
        b.global_var("g")
        with b.function("main") as f:
            f.addr("g", "a")
        prog = b.build()
        assert Var("g") in prog.pointers
        assert Var("g", "main") not in prog.pointers

    def test_alloc_creates_site(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.alloc("p", "site1")
        prog = b.build()
        assert AllocSite("site1") in prog.alloc_sites


class TestProgram:
    def test_entry_defaults_to_main(self):
        prog = figure2_program()
        assert prog.entry == "main"

    def test_missing_entry_raises(self):
        b = ProgramBuilder()
        with b.function("helper") as f:
            f.skip()
        with pytest.raises(ValueError):
            b.build(entry="nonexistent")

    def test_pointers_cover_all_roles(self):
        prog = figure2_program()
        names = {p.qualified for p in prog.pointers}
        assert {"main::p", "main::q", "main::r",
                "main::a", "main::b", "main::c"} <= names

    def test_objects_include_alloc_sites(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.alloc("p", "s")
        prog = b.build()
        assert AllocSite("s") in prog.objects

    def test_assignments_to(self):
        prog = figure2_program()
        q = Var("q", "main")
        locs = prog.assignments_to(q)
        assert len(locs) == 3  # q=&b, q=p, q=r

    def test_counts(self):
        prog = figure2_program()
        counts = prog.counts()
        assert counts["functions"] == 1
        assert counts["pointer_assignments"] == 5

    def test_stmt_at(self):
        prog = figure2_program()
        loc = Loc("main", 1)
        assert isinstance(prog.stmt_at(loc), AddrOf)

    def test_format_program_smoke(self):
        text = format_program(figure2_program())
        assert "main" in text and "= &" in text

    def test_format_cfg_marks_entry_exit(self):
        text = format_cfg(figure2_program().cfg_of("main"))
        assert "<entry>" in text and "<exit>" in text
