"""Algorithm 1: relevant pointers and statements (slicing)."""

import pytest

from repro.analysis import FSCI, Steensgaard, execute
from repro.core import relevant_statements
from repro.ir import Copy, Load, Loc, ProgramBuilder, Store, Var

from .helpers import figure3_program, figure5_program, v


def stmt_strs(prog, slice_):
    return sorted(str(prog.stmt_at(loc)) for loc in slice_.statements)


class TestFigure3:
    """The paper's worked slicing example."""

    def setup_method(self):
        self.prog = figure3_program()
        self.steens = Steensgaard(self.prog).run()
        self.a, self.b = v("a", "main"), v("b", "main")
        self.slice = relevant_statements(self.prog, self.steens,
                                         {self.a, self.b})

    def test_p_x_copy_excluded(self):
        """3a (p = x) does not affect aliases of a, b."""
        assert "main::p = main::x" not in stmt_strs(self.prog, self.slice)

    def test_addr_statements_included(self):
        strs = stmt_strs(self.prog, self.slice)
        assert "main::x = &main::a" in strs
        assert "main::y = &main::b" in strs

    def test_store_and_load_included(self):
        strs = stmt_strs(self.prog, self.slice)
        assert "*main::x = main::t" in strs
        assert "main::t = *main::y" in strs

    def test_vp_contents(self):
        names = {str(m) for m in self.slice.vp}
        assert {"main::a", "main::b", "main::x", "main::y",
                "main::t"} <= names
        assert "main::p" not in names

    def test_slice_size(self):
        assert self.slice.size == 4


class TestFigure5:
    def test_bar_has_no_relevant_statements_for_p1(self):
        prog = figure5_program()
        steens = Steensgaard(prog).run()
        p1 = steens.partition_of(Var("x"))
        slice_ = relevant_statements(prog, steens, p1)
        assert slice_.functions() == frozenset({"main", "foo"})

    def test_p2_includes_stores_through_x(self):
        prog = figure5_program()
        steens = Steensgaard(prog).run()
        p2 = steens.partition_of(Var("d"))
        slice_ = relevant_statements(prog, steens, p2)
        assert "bar" in slice_.functions()  # *x = d in bar matters for P2


class TestClosureProperties:
    def test_cluster_always_in_vp(self):
        prog = figure5_program()
        steens = Steensgaard(prog).run()
        for part in steens.partitions():
            slice_ = relevant_statements(prog, steens, part)
            assert part <= slice_.vp

    def test_copy_closure(self):
        """If a statement p = q is in St_P then q is in V_P."""
        prog = figure5_program()
        steens = Steensgaard(prog).run()
        for part in steens.partitions():
            slice_ = relevant_statements(prog, steens, part)
            for loc in slice_.statements:
                stmt = prog.stmt_at(loc)
                if isinstance(stmt, Copy):
                    assert stmt.rhs in slice_.vp

    def test_store_closure(self):
        prog = figure5_program()
        steens = Steensgaard(prog).run()
        for part in steens.partitions():
            slice_ = relevant_statements(prog, steens, part)
            for loc in slice_.statements:
                stmt = prog.stmt_at(loc)
                if isinstance(stmt, Store):
                    assert stmt.lhs in slice_.vp
                    assert stmt.rhs in slice_.vp

    def test_monotone_in_cluster(self):
        """Bigger clusters produce bigger (or equal) slices."""
        prog = figure5_program()
        steens = Steensgaard(prog).run()
        x, z = Var("x"), Var("z")
        s1 = relevant_statements(prog, steens, {x})
        s2 = relevant_statements(prog, steens, {x, z})
        assert s1.statements <= s2.statements
        assert s1.vp <= s2.vp

    def test_empty_cluster(self):
        prog = figure3_program()
        steens = Steensgaard(prog).run()
        slice_ = relevant_statements(prog, steens, set())
        assert slice_.statements == frozenset()

    def test_deep_hierarchy_transitive(self):
        """Stores through higher-level pointers are pulled in across
        multiple depth levels (q > p over 2 levels)."""
        b = ProgramBuilder()
        with b.function("main") as f:
            f.addr("pp", "p")    # pp -> p
            f.addr("p", "a")     # p -> a
            f.addr("t", "b")
            f.store("pp", "t")   # may change p
            f.load("u", "p")     # reads a's level
        prog = b.build()
        steens = Steensgaard(prog).run()
        a = v("a", "main")
        slice_ = relevant_statements(prog, steens,
                                     steens.partition_of(a))
        strs = stmt_strs(prog, slice_)
        # The store through pp changes p, which changes what *p denotes:
        # p's own assignments must be tracked.
        assert "main::p = &main::a" in strs
        assert "*main::pp = main::t" in strs


class TestSliceEquivalence:
    """The theorem-6 style guarantee, checked dynamically: analyzing the
    sliced program gives the same facts for cluster members as analyzing
    the full program."""

    @pytest.mark.parametrize("make", [figure3_program, figure5_program])
    def test_fsci_on_slice_matches_full(self, make):
        prog = make()
        steens = Steensgaard(prog).run()
        full = FSCI(prog).run()
        for part in steens.partitions():
            members = [m for m in part if isinstance(m, Var)]
            if not members:
                continue
            slice_ = relevant_statements(prog, steens, part)
            sliced = FSCI(prog, tracked=slice_.vp,
                          relevant=slice_.statements).run()
            for m in members:
                assert full.points_to(m) == sliced.points_to(m), str(m)

    def test_oracle_on_reduced_program(self):
        """Concrete executions of the reduced program preserve cluster
        facts: replace non-relevant statements by skips and compare."""
        from repro.ir import Skip
        prog = figure3_program()
        steens = Steensgaard(prog).run()
        a, b = v("a", "main"), v("b", "main")
        slice_ = relevant_statements(prog, steens, {a, b})
        full = execute(prog)
        # Build the reduced program in place on a fresh copy.
        reduced = figure3_program()
        for loc, stmt in list(reduced.statements()):
            if stmt.is_pointer_assign and loc not in slice_.statements:
                reduced.functions[loc.function].cfg.set_stmt(
                    loc.index, Skip("sliced"))
        reduced.invalidate_caches()
        red = execute(reduced)
        for m in (a, b):
            assert full.points_to(m) == red.points_to(m)

