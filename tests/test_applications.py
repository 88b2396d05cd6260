"""Lockset computation and race detection."""

import dataclasses
from pathlib import Path

import pytest

from repro import parse_program
from repro.analysis import FSCI
from repro.applications import (
    LocksetAnalysis,
    find_lock_sites,
    find_races,
    lock_pointers,
    thread_assignment,
)
from repro.bench import sources
from repro.bench.corpus import corpus_configs
from repro.bench.synth import generate
from repro.checkers import run_races, spawn_entries
from repro.ir import CallGraph, Var

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

DRIVER = r"""
int lock_obj_a, lock_obj_b;
int counter_safe, counter_racy, counter_wronglock;
int *lock_a, *lock_b;

void lock(int *l) { }
void unlock(int *l) { }

void thread1(void) {
    lock(lock_a);
    counter_safe = counter_safe + 1;
    unlock(lock_a);
    lock(lock_a);
    counter_wronglock = counter_wronglock + 1;
    unlock(lock_a);
    counter_racy = counter_racy + 1;
}

void thread2(void) {
    lock(lock_a);
    counter_safe = counter_safe + 1;
    unlock(lock_a);
    lock(lock_b);
    counter_wronglock = counter_wronglock + 1;
    unlock(lock_b);
    lock(lock_a);
    counter_racy = counter_racy + 1;
    unlock(lock_a);
}

int main() {
    lock_a = &lock_obj_a;
    lock_b = &lock_obj_b;
    thread1();
    thread2();
    return 0;
}
"""


@pytest.fixture(scope="module")
def driver():
    return parse_program(DRIVER)


#: A helper reached from both threads races with itself.
SHARED_HELPER = r"""
    int g;
    void helper(void) { g = g + 1; }
    void t1(void) { helper(); }
    void t2(void) { helper(); }
    int main() { t1(); t2(); return 0; }
"""

#: Two threads write one heap object through a global pointer.
SHARED_HEAP = r"""
    int *shared;
    void lock(int *l) { }
    void unlock(int *l) { }
    void t1(void) { *shared = 1; }
    void t2(void) { *shared = 2; }
    int main() {
        shared = malloc(4);
        t1(); t2();
        return 0;
    }
"""


@pytest.fixture(scope="module")
def warnings(driver):
    return run_races(driver, thread_entries=["thread1", "thread2"]).value


class TestLockSites:
    def test_all_sites_found(self, driver):
        sites = find_lock_sites(driver)
        assert len(sites) == 10
        assert sum(1 for s in sites if s.is_lock) == 5

    def test_lock_pointers(self, driver):
        assert lock_pointers(driver) == \
            frozenset({Var("lock_a"), Var("lock_b")})

    def test_site_pointer_resolution(self, driver):
        sites = find_lock_sites(driver)
        assert all(s.pointer in (Var("lock_a"), Var("lock_b"))
                   for s in sites)


class TestLocksets:
    def test_lock_held_after_acquire(self, driver):
        result = LocksetAnalysis(driver, FSCI(driver).run()).run()
        first_lock = next(s for s in result.sites
                          if s.is_lock and s.loc.function == "thread1")
        assert Var("lock_obj_a") in result.held_after(first_lock.loc)

    def test_released_after_unlock(self, driver):
        result = LocksetAnalysis(driver, FSCI(driver).run()).run()
        first_unlock = next(s for s in result.sites
                            if not s.is_lock
                            and s.loc.function == "thread1")
        assert result.held_after(first_unlock.loc) == frozenset()

    def test_resolution_is_singleton(self, driver):
        result = LocksetAnalysis(driver, FSCI(driver).run()).run()
        for site, objs in result.resolution.items():
            assert len(objs) <= 1


class TestRaces:
    def test_unprotected_counter_flagged(self, warnings):
        assert any("counter_racy" in str(w) for w in warnings)

    def test_protected_counter_clean(self, warnings):
        assert not any("counter_safe" in str(w) for w in warnings)

    def test_different_locks_still_race(self, warnings):
        """Both threads hold a lock around counter_wronglock, but not
        the same one."""
        assert any("counter_wronglock" in str(w) for w in warnings)

    def test_warnings_cross_threads(self, warnings):
        for w in warnings:
            assert len(w.first.threads | w.second.threads) > 1

    def test_at_least_one_write_involved(self, warnings):
        for w in warnings:
            assert w.first.is_write or w.second.is_write


class TestThreadAssignment:
    def test_reachability_based(self, driver):
        threads = thread_assignment(driver, ["thread1", "thread2"])
        assert threads["thread1"] == frozenset({"thread1"})
        assert threads["thread2"] == frozenset({"thread2"})

    def test_shared_callee_tagged_with_both(self):
        prog = parse_program(SHARED_HELPER)
        threads = thread_assignment(prog, ["t1", "t2"])
        assert "t1" in threads["helper"] and "t2" in threads["helper"]

    def test_shared_helper_races_with_itself(self):
        prog = parse_program(SHARED_HELPER)
        warnings = run_races(prog, thread_entries=["t1", "t2"]).value
        # The helper runs in both threads, so its unlocked increment of
        # the shared global races with itself — the thread *sets* make
        # this visible (a merged "t1+t2" label used to hide it).
        assert any(str(w.first.obj) == "g" for w in warnings)


class TestHeapRaces:
    def test_shared_heap_object(self):
        prog = parse_program(SHARED_HEAP)
        warnings = run_races(prog, thread_entries=["t1", "t2"]).value
        assert any("alloc@" in str(w) for w in warnings)


class TestRaceDiagnostics:
    def test_races_sharing_first_access_stay_apart(self):
        """t1's access races with t2's and with t3's: two findings at
        one line, told apart by the conflicting access in the subject
        so deduplication keeps both."""
        prog = parse_program(r"""
            int g;
            void t1(void) { g = g + 1; }
            void t2(void) { g = g + 2; }
            void t3(void) { g = g + 3; }
            int main() { t1(); t2(); t3(); return 0; }
        """)
        run = run_races(prog, thread_entries=["t1", "t2", "t3"])
        assert len(run.value) == 3
        assert [(d.loc.function, d.subject) for d in run.diagnostics] == [
            ("t1", "g vs t2:4"), ("t1", "g vs t3:5"), ("t2", "g vs t3:5")]


def _first_reached(program, limit=4):
    """The first ``limit`` functions the entry reaches, breadth first
    (many stand-ins call a single function from ``main``)."""
    callgraph = CallGraph(program)
    order, queue = [program.entry], [program.entry]
    while queue and len(order) <= limit:
        for callee in sorted(callgraph.callees(queue.pop(0))):
            if callee not in order:
                order.append(callee)
                queue.append(callee)
    return order[1:limit + 1]


def _source(name):
    program = sources.load(name)
    return program, sorted(f for f in program.functions
                           if f != program.entry)


def _corpus(name, spawned):
    (config,) = corpus_configs(0.005, [name])
    if spawned:
        synth = generate(dataclasses.replace(config, deadlock_pairs=2))
        return synth.program, list(synth.thread_entries)
    program = generate(config).program
    return program, _first_reached(program)


def _example(name):
    program = parse_program((EXAMPLES / name).read_text())
    return program, spawn_entries(program)


#: (program, thread entries) makers for the differential below: the
#: unit programs, the hand-written sources with every non-entry function
#: as a thread, the spawning examples, and the Table-1 stand-ins with
#: the first functions main reaches or their spawned lock-pair threads
#: as threads.
RACE_INPUTS = {
    "driver": lambda: (parse_program(DRIVER), ["thread1", "thread2"]),
    "shared-helper": lambda: (parse_program(SHARED_HELPER), ["t1", "t2"]),
    "shared-heap": lambda: (parse_program(SHARED_HEAP), ["t1", "t2"]),
}
for _name in sources.names():
    RACE_INPUTS[f"source:{_name}"] = lambda n=_name: _source(n)
for _name in ("deadlock_demo.c", "race_demo.c"):
    RACE_INPUTS[f"example:{_name}"] = lambda n=_name: _example(n)
for _config in corpus_configs(0.005):
    for _spawned in (False, True):
        RACE_INPUTS[f"corpus:{_config.name}:"
                    f"{'spawn' if _spawned else 'reached'}"] = \
            lambda n=_config.name, s=_spawned: _corpus(n, s)


class TestRaceDifferential:
    """Theorem 6 for the race client: the checker's sliced FSCI over
    only the lock pointers' and thread dereferences' clusters finds
    exactly the races a whole-program FSCI finds."""

    @pytest.mark.parametrize("case", sorted(RACE_INPUTS))
    def test_sliced_equals_whole_program(self, case):
        program, entries = RACE_INPUTS[case]()
        assert len(entries) >= 2, entries
        run = run_races(program, thread_entries=entries)
        whole = find_races(program, FSCI(program).run(),
                           thread_assignment(program, entries))
        assert run.value == whole
        assert run.stats.clusters_selected < run.stats.clusters_total
