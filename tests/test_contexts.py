"""Per-context queries through the bootstrapped result's facade."""

from repro.core import BootstrapAnalyzer
from repro.ir import Loc, ProgramBuilder, Var

from .helpers import call_chain_program


def diamond_calls_program():
    """main calls a and b; both call shared: two contexts for shared."""
    b = ProgramBuilder()
    b.global_var("out")
    with b.function("shared", params=("sp",)) as f:
        f.copy("out", "sp")
    with b.function("a") as f:
        f.addr("ap", "oa")
        f.call("shared", ["ap"])
    with b.function("b") as f:
        f.addr("bp", "ob")
        f.call("shared", ["bp"])
    with b.function("main") as f:
        f.call("a")
        f.call("b")
    return b.build()


class TestPerContextQueries:
    def test_contexts_distinguish_values(self):
        prog = diamond_calls_program()
        boot = BootstrapAnalyzer(prog).run()
        loc = Loc("shared", prog.cfg_of("shared").exit)
        out = Var("out")
        # Each calling context sees one object; the context-insensitive
        # union has both.
        assert boot.points_to(out, loc, context=["main", "a", "shared"]) \
            == frozenset({Var("oa", "a")})
        assert boot.points_to(out, loc, context=["main", "b", "shared"]) \
            == frozenset({Var("ob", "b")})
        assert boot.points_to(out, loc) == \
            frozenset({Var("oa", "a"), Var("ob", "b")})

    def test_gain_zero_when_contexts_agree(self):
        prog = call_chain_program()
        boot = BootstrapAnalyzer(prog).run()
        loc = Loc("leaf", prog.cfg_of("leaf").exit)
        lp = Var("lp", "leaf")
        # The only context of leaf answers exactly what the
        # context-insensitive query does.
        assert boot.points_to(lp, loc, context=["main", "mid", "leaf"]) \
            == boot.points_to(lp, loc) == frozenset({Var("obj", "main")})
