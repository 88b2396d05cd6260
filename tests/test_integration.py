"""End-to-end integration tests on realistic mini-C programs."""

import pytest

from repro import BootstrapAnalyzer, parse_program
from repro.analysis import Andersen, Steensgaard, execute, whole_program_fscs
from repro.checkers import run_races
from repro.core import BootstrapConfig, CascadeConfig, select_clusters
from repro.ir import Loc, Var


DEVICE_DRIVER = r"""
/* A miniature character-device driver. */
struct device {
    int *lock;
    int *buffer;
    int open_count;
};

int global_lock_obj;
struct device dev;

void lock(int *l) { }
void unlock(int *l) { }

void dev_init(void) {
    dev.lock = &global_lock_obj;
    dev.buffer = malloc(64);
    dev.open_count = 0;
}

int dev_open(void) {
    lock(dev.lock);
    dev.open_count = dev.open_count + 1;
    unlock(dev.lock);
    return 0;
}

void dev_write(int *data) {
    lock(dev.lock);
    *dev.buffer = *data;
    unlock(dev.lock);
}

int main() {
    int payload;
    dev_init();
    dev_open();
    dev_write(&payload);
    return 0;
}
"""


class TestDeviceDriver:
    @pytest.fixture(scope="class")
    def program(self):
        return parse_program(DEVICE_DRIVER)

    def test_parses_and_normalizes(self, program):
        counts = program.counts()
        assert counts["functions"] == 6
        assert counts["pointer_assignments"] > 10

    def test_buffer_points_to_heap(self, program):
        an = Andersen(program).run()
        pts = an.points_to(Var("dev__buffer"))
        assert len(pts) == 1
        assert "alloc@" in str(next(iter(pts)))

    def test_lock_points_to_lock_obj(self, program):
        an = Andersen(program).run()
        assert an.points_to(Var("dev__lock")) == \
            frozenset({Var("global_lock_obj")})

    def test_bootstrap_queries(self, program):
        boot = BootstrapAnalyzer(program).run()
        end = Loc("main", program.cfg_of("main").exit)
        pts = boot.points_to(Var("dev__lock"), end)
        assert pts == frozenset({Var("global_lock_obj")})

    def test_demand_driven_lock_cluster(self, program):
        boot = BootstrapAnalyzer(program).run()
        sel = select_clusters(boot, [Var("dev__lock")])
        assert sel.selected
        assert sel.pointer_fraction < 1.0

    def test_race_detector_runs_clean(self, program):
        warnings = run_races(program,
                             thread_entries=["dev_open", "dev_write"]).value
        # open_count is touched only under the lock from both entries.
        assert not any("open_count" in str(w) for w in warnings)


FUNCTION_TABLE = r"""
/* Dispatch through a function-pointer table, driver-style fops. */
struct fops {
    int *(*get)(void);
    void (*put)(int *p);
};

int slot_a, slot_b;
int *stash;

int *get_a(void) { return &slot_a; }
int *get_b(void) { return &slot_b; }
void put_any(int *p) { stash = p; }

int main() {
    struct fops table;
    if (slot_a) {
        table.get = get_a;
    } else {
        table.get = &get_b;
    }
    table.put = put_any;
    int *v = table.get();
    table.put(v);
    return 0;
}
"""


class TestFunctionTable:
    @pytest.fixture(scope="class")
    def program(self):
        return parse_program(FUNCTION_TABLE)

    def test_indirect_call_resolved(self, program):
        from repro.ir import CallStmt
        indirect = [s for _, s in program.statements()
                    if isinstance(s, CallStmt) and s.is_indirect]
        assert indirect
        gets = [s for s in indirect if set(s.targets) >= {"get_a", "get_b"}]
        assert gets

    def test_value_flows_through_table(self, program):
        an = Andersen(program).run()
        assert an.points_to(Var("v", "main")) == \
            frozenset({Var("slot_a"), Var("slot_b")})

    def test_put_captures_into_stash(self, program):
        an = Andersen(program).run()
        assert an.points_to(Var("stash")) == \
            frozenset({Var("slot_a"), Var("slot_b")})

    def test_oracle_agrees(self, program):
        orc = execute(program)
        assert orc.points_to(Var("stash")) == \
            frozenset({Var("slot_a"), Var("slot_b")})


RECURSIVE_LIST = r"""
struct node { struct node *next; int *payload; };
int datum;

struct node *cons(struct node *tail) {
    struct node *n = (struct node *)malloc(16);
    n->next = tail;
    n->payload = &datum;
    return n;
}

int length(struct node *n) {
    if (n == 0) return 0;
    return 1 + length(n->next);
}

int main() {
    struct node *list = 0;
    int i;
    for (i = 0; i < 4; i++) {
        list = cons(list);
    }
    int len = length(list);
    int *p = list->payload;
    return 0;
}
"""


class TestRecursiveList:
    @pytest.fixture(scope="class")
    def program(self):
        return parse_program(RECURSIVE_LIST)

    def test_recursion_in_callgraph(self, program):
        from repro.ir import CallGraph
        cg = CallGraph(program)
        assert cg.is_recursive("length")

    def test_payload_flows(self, program):
        an = Andersen(program).run()
        assert Var("datum") in an.points_to(Var("p", "main"))

    def test_fscs_handles_recursion(self, program):
        ca = whole_program_fscs(program, budget=500_000)
        end = Loc("main", program.cfg_of("main").exit)
        assert Var("datum") in ca.points_to(Var("p", "main"), end)

    def test_oracle_soundness(self, program):
        orc = execute(program, max_steps=400, max_paths=2000)
        an = Andersen(program).run()
        for p in program.pointers:
            assert orc.points_to(p) <= an.points_to(p), str(p)


MULTI_LEVEL = r"""
/* Three levels of indirection and swapping, exercising the hierarchy. */
int obj1, obj2;
int *l1a, *l1b;
int **l2a, **l2b;
int ***l3;

void rotate(void) {
    int **tmp = l2a;
    l2a = l2b;
    l2b = tmp;
}

int main() {
    l1a = &obj1;
    l1b = &obj2;
    l2a = &l1a;
    l2b = &l1b;
    l3 = &l2a;
    rotate();
    **l3 = 0;        /* clears obj1 or obj2's slot... */
    *l2a = &obj2;    /* l1a or l1b points to obj2 */
    return 0;
}
"""


class TestMultiLevel:
    @pytest.fixture(scope="class")
    def program(self):
        return parse_program(MULTI_LEVEL)

    def test_hierarchy_depths(self, program):
        st = Steensgaard(program).run()
        assert st.depth_of(Var("obj1")) > st.depth_of(Var("l1a"))
        assert st.depth_of(Var("l1a")) > st.depth_of(Var("l2a"))
        assert st.depth_of(Var("l2a")) > st.depth_of(Var("l3"))

    def test_rotation_smears_level2(self, program):
        an = Andersen(program).run()
        assert an.points_to(Var("l2a")) >= \
            frozenset({Var("l1a"), Var("l1b")})

    def test_cascade_and_queries(self, program):
        boot = BootstrapAnalyzer(program).run()
        end = Loc("main", program.cfg_of("main").exit)
        pts = boot.points_to(Var("l1a"), end)
        assert Var("obj2") in pts or Var("obj1") in pts

    def test_oracle_soundness_all_analyses(self, program):
        from repro.analysis import FSCI, OneFlow
        orc = execute(program, max_steps=300, max_paths=1000)
        for analysis in (Steensgaard(program), Andersen(program),
                         OneFlow(program), FSCI(program)):
            result = analysis.run()
            for p in program.pointers:
                assert orc.points_to(p) <= result.points_to(p), \
                    f"{analysis.name}: {p}"


class TestSyntheticEndToEnd:
    def test_synth_program_full_pipeline(self):
        from repro.bench import SynthConfig, generate
        sp = generate(SynthConfig(name="e2e", pointers=120, functions=8,
                                  lock_count=2, fp_sites=1, seed=21))
        boot = BootstrapAnalyzer(
            sp.program,
            BootstrapConfig(cascade=CascadeConfig(andersen_threshold=8),
                            fscs_budget=500_000)).run()
        report = boot.analyze_all()
        assert report.max_part_time >= 0
        assert all(isinstance(r, dict) for r in report.results)

    def test_synth_oracle_soundness(self):
        from repro.bench import SynthConfig, generate
        sp = generate(SynthConfig(name="sound", pointers=60, functions=4,
                                  seed=33, recursion=False))
        orc = execute(sp.program, max_steps=300, max_paths=500)
        an = Andersen(sp.program).run()
        for p in sp.program.pointers:
            assert orc.points_to(p) <= an.points_to(p), str(p)
