"""The embedded realistic mini-C corpus, end to end."""

import pytest

from repro.analysis import Andersen, Steensgaard, execute, whole_program_fscs
from repro.applications import lock_pointers
from repro.bench import sources
from repro.checkers import run_races
from repro.core import BootstrapAnalyzer, run_cascade
from repro.ir import AllocSite, Loc, Var


@pytest.fixture(scope="module")
def programs():
    return {name: sources.load(name) for name in sources.names()}


class TestParsing:
    def test_all_sources_parse(self, programs):
        assert set(programs) == set(sources.names())
        for name, prog in programs.items():
            assert prog.counts()["pointer_assignments"] > 5, name

    @pytest.mark.parametrize("name", sources.names())
    def test_cascade_runs(self, programs, name):
        result = run_cascade(programs[name])
        covered = set()
        for c in result.clusters:
            covered |= c.members
        assert covered >= programs[name].pointers

    @pytest.mark.parametrize("name", sources.names())
    def test_oracle_soundness(self, programs, name):
        prog = programs[name]
        orc = execute(prog, max_steps=600, max_paths=1500)
        an = Andersen(prog).run()
        for p in prog.pointers:
            assert orc.points_to(p) <= an.points_to(p), f"{name}: {p}"


class TestCharDevice:
    def test_buffers_are_distinct_allocations(self, programs):
        an = Andersen(programs["char_device"]).run()
        rx = an.points_to(Var("cdev__rx_buf"))
        tx = an.points_to(Var("cdev__tx_buf"))
        assert rx and tx and not (rx & tx)

    def test_lock_is_definite(self, programs):
        an = Andersen(programs["char_device"]).run()
        assert an.points_to(Var("cdev__lock")) == \
            frozenset({Var("cdev_lock_obj")})

    def test_race_free_under_lock(self, programs):
        warnings = run_races(programs["char_device"],
                             thread_entries=["cdev_read",
                                             "cdev_write"]).value
        assert not any("open_count" in str(w) for w in warnings)


class TestFopsDispatch:
    def test_indirect_calls_resolved(self, programs):
        from repro.ir import CallStmt
        prog = programs["fops_dispatch"]
        indirect = [s for _, s in prog.statements()
                    if isinstance(s, CallStmt) and s.is_indirect]
        assert indirect
        opens = [s for s in indirect
                 if set(s.targets) >= {"mem_open", "null_open"}]
        assert opens

    def test_private_data_smears_over_table(self, programs):
        an = Andersen(programs["fops_dispatch"]).run()
        out = an.points_to(Var("data", "mem_read"))
        assert Var("storage_a") in out


class TestSlabCache:
    def test_free_list_holds_heap_nodes(self, programs):
        an = Andersen(programs["slab_cache"]).run()
        pts = an.points_to(Var("free_list"))
        assert pts and all(isinstance(o, AllocSite) for o in pts)

    def test_payload_reaches_main(self, programs):
        an = Andersen(programs["slab_cache"]).run()
        data = an.points_to(Var("data", "main"))
        assert data and all(isinstance(o, AllocSite) for o in data)


class TestEventQueue:
    def test_deliberate_race_found(self, programs):
        warnings = run_races(programs["event_queue"],
                             thread_entries=["producer",
                                             "consumer"]).value
        assert any("processed_count" in str(w) for w in warnings)

    def test_locked_counter_clean(self, programs):
        warnings = run_races(programs["event_queue"],
                             thread_entries=["producer",
                                             "consumer"]).value
        assert not any("pending_count" in str(w) for w in warnings)

    def test_arg_points_to_payload(self, programs):
        an = Andersen(programs["event_queue"]).run()
        assert Var("payload_cell") in an.points_to(Var("arg", "consumer"))


class TestStringTable:
    def test_interned_key_flows_back(self, programs):
        prog = programs["string_table"]
        an = Andersen(prog).run()
        pts = an.points_to(Var("k", "main"))
        assert Var("key_a") in pts

    def test_fscs_query(self, programs):
        prog = programs["string_table"]
        boot = BootstrapAnalyzer(prog).run()
        end = Loc("main", prog.cfg_of("main").exit)
        pts = boot.points_to(Var("k", "main"), end)
        assert Var("key_a") in pts


class TestRingBuffer:
    def test_popped_items_cover_pushes(self, programs):
        an = Andersen(programs["ring_buffer"]).run()
        assert an.points_to(Var("first", "main")) == \
            frozenset({Var("item_a"), Var("item_b")})

    def test_drained_pop_may_be_null(self, programs):
        """The NULL path: assume `drained != NULL` guards the store."""
        from repro.analysis import execute
        prog = programs["ring_buffer"]
        orc = execute(prog, max_steps=800, max_paths=3000)
        an = Andersen(prog).run()
        for p in prog.pointers:
            assert orc.points_to(p) <= an.points_to(p), str(p)

    def test_watermark_callbacks_resolved(self, programs):
        from repro.ir import CallStmt
        prog = programs["ring_buffer"]
        indirect = [s for _, s in prog.statements()
                    if isinstance(s, CallStmt) and s.is_indirect]
        targets = {t for s in indirect for t in s.targets}
        assert {"note_full", "note_empty"} <= targets


class TestProtoFsm:
    def test_handler_table_resolved(self, programs):
        from repro.ir import CallStmt
        prog = programs["proto_fsm"]
        indirect = [s for _, s in prog.statements()
                    if isinstance(s, CallStmt) and s.is_indirect]
        targets = {t for s in indirect for t in s.targets}
        assert {"h_idle", "h_open", "h_closed"} <= targets

    def test_error_objects_flow_out(self, programs):
        an = Andersen(programs["proto_fsm"]).run()
        errs = an.points_to(Var("e3", "main"))
        assert Var("err_closed") in errs

    def test_rx_points_to_inbox(self, programs):
        an = Andersen(programs["proto_fsm"]).run()
        # rx is set through the conn pointer in h_idle.
        summary = an.points_to(Var("$fld$conn$rx"))
        rx_targets = set()
        for cell in summary:
            rx_targets |= set(an.points_to_obj(cell))
        direct = an.points_to(Var("c__rx", "main"))
        assert Var("inbox") in (rx_targets | set(direct))
