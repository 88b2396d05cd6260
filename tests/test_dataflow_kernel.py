"""Differential suite: the sparse dense-id dataflow engine against its
oracle.

:class:`~repro.analysis.dataflow.ForwardDataflow` solves over dense node
ids with node-indexed state lists, visiting only anchors (the entry and
the nodes with a transfer) and rebuilding a skip node's state on query;
FSCI compiles its transfers into a node-indexed table.
:class:`~repro.analysis.reference.ReferenceDataflow` is the Loc-keyed
engine that visits every node, kept verbatim behind
:class:`~repro.analysis.reference.ReferenceFSCI`.  For FSCI the two must
agree on

* the decoded state before and after every location of every included
  function, skip nodes included (cell -> objects, UNINIT, NULL),
* ``reached_before`` and ``cells_after`` at every such location, and
* ``points_to`` of every pointer,

for the whole program, for each cluster's slice and for each parent
slice, on the Table-1 corpus stand-ins, the hand-written sources, the
examples and random programs.  Their iteration counts differ by design:
an FSCI iteration is one anchor visit, so a run of skip nodes costs
none.  The supergraphs must agree location by location, and
:class:`~repro.analysis.mustalias.MustAlias`,
:class:`~repro.applications.lockset.LocksetAnalysis` and
:class:`~repro.checkers.heapfacts.FreeFacts`, whose callable transfers
make every node an anchor, must compute the same states in the same
number of iterations on either engine.  ``max_iterations`` bounds anchor
visits, and an expired deadline is seen at the 256th.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import fsci as fsci_module
from repro.analysis import reference
from repro.analysis.dataflow import ForwardDataflow, Supergraph
from repro.analysis.fsci import (
    FSCI,
    NULL_BIT,
    UNINIT_BIT,
    FSCIResult,
    slice_functions,
)
from repro.analysis.kernel import NodeTable
from repro.analysis.mustalias import MustAlias
from repro.analysis.reference import (
    NULL_VALUE,
    UNINIT,
    ReferenceDataflow,
    ReferenceFSCI,
    ReferenceSupergraph,
)
from repro.applications.lockset import LocksetAnalysis
from repro.bench import corpus_configs, generate, sources
from repro.checkers.heapfacts import FreeFacts
from repro.core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig
from repro.frontend import parse_program
from repro.ir import Loc, Program

from .test_properties import programs

#: The benchmark's corpus size and Andersen threshold.
SCALE = 0.005
THRESHOLD = 6

CORPUS_NAMES = [cfg.name for cfg in corpus_configs(scale=SCALE)]

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = sorted(f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".c"))

#: FSCI keyword arguments of one configuration.
Config = Dict[str, Any]


def fsci_configs(program: Program) -> List[Tuple[str, Config]]:
    """The whole program, every cluster's slice and every parent slice,
    each on the functions ``ClusterFSCS.fsci`` restricts it to."""
    boot = BootstrapAnalyzer(program, BootstrapConfig(
        cascade=CascadeConfig(andersen_threshold=THRESHOLD))).run()
    callgraph = boot.callgraph

    def sliced(vp, statements) -> Config:
        return {"tracked": vp, "relevant": statements,
                "functions": slice_functions(program, callgraph, statements),
                "callgraph": callgraph}

    out: List[Tuple[str, Config]] = [("whole", {})]
    parents = []
    for i, cluster in enumerate(boot.clusters):
        out.append((f"cluster {i}", sliced(cluster.slice.vp,
                                           cluster.slice.statements)))
        parent = cluster.parent_slice
        if parent is not None and all(parent is not p for p in parents):
            parents.append(parent)
            out.append((f"parent of cluster {i}",
                        sliced(parent.vp, parent.statements)))
    return out


def _kernel_state(result: FSCIResult, state: Optional[Dict[int, int]]
                  ) -> Optional[Dict[Any, Tuple]]:
    if state is None:
        return None
    table = result._table
    return {table.obj_of(k): (table.objects_of(v), bool(v & UNINIT_BIT),
                              bool(v & NULL_BIT))
            for k, v in state.items()}


def _reference_state(state: Optional[Dict[Any, frozenset]]
                     ) -> Optional[Dict[Any, Tuple]]:
    if state is None:
        return None
    return {k: (reference._strip(v), UNINIT in v, NULL_VALUE in v)
            for k, v in state.items()}


def observe(program: Program, config: Config) -> Dict[Any, Any]:
    """Everything both FSCI engines must agree on for one solve."""
    kernel = FSCI(program, **config).run()
    ref = ReferenceFSCI(program, **config).run()
    functions = config.get("functions", program.functions)
    out: Dict[Any, Any] = {}
    for side, result, decode in (
            ("kernel", kernel, lambda s: _kernel_state(kernel, s)),
            ("reference", ref, _reference_state)):
        seen: Dict[Any, Any] = {}
        for name in sorted(functions):
            for idx in program.cfg_of(name).nodes():
                loc = Loc(name, idx)
                seen["before", loc] = decode(
                    result._engine.state_before(loc))
                seen["after", loc] = decode(result._engine.state_after(loc))
                seen["reached", loc] = result.reached_before(loc)
                seen["cells", loc] = result.cells_after(loc)
        for p in program.pointers:
            seen["points_to", p] = result.points_to(p)
        out[side] = seen
    return out


def assert_agree(program: Program, label: str) -> None:
    for name, config in fsci_configs(program):
        seen = observe(program, config)
        kernel, ref = seen["kernel"], seen["reference"]
        if kernel != ref:
            diff = sorted(str(k) for k in kernel.keys() | ref.keys()
                          if kernel.get(k) != ref.get(k))
            pytest.fail(f"{label} [{name}]: {len(diff)} answers differ, "
                        f"e.g. {diff[:3]}")


def corpus_program(name: str) -> Program:
    return generate(next(c for c in corpus_configs(scale=SCALE)
                         if c.name == name)).program


def example_program(name: str) -> Program:
    with open(os.path.join(EXAMPLES_DIR, name)) as handle:
        return parse_program(handle.read())


class TestCorpus:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_program(self, name):
        assert_agree(corpus_program(name), name)

    @pytest.mark.parametrize("name", sources.names())
    def test_hand_written_source(self, name):
        assert_agree(parse_program(sources.source(name)), name)

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_example(self, name):
        assert_agree(example_program(name), name)


class TestRandomPrograms:
    @given(programs())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_programs(self, program):
        assert_agree(program, "random")


# ----------------------------------------------------------------------
# The supergraph at the Loc boundary
# ----------------------------------------------------------------------
def assert_same_graph(program: Program, functions=None) -> None:
    dense = Supergraph(program, functions=functions)
    keyed = ReferenceSupergraph(program, functions=functions)
    assert dense.entry == keyed.entry
    assert dense.names == keyed.names
    assert set(dense.nodes()) == set(keyed.nodes())
    for loc in keyed.nodes():
        assert dense.successors(loc) == keyed.successors(loc), loc
        assert sorted(dense.predecessors(loc)) == \
            sorted(keyed.predecessors(loc)), loc


class TestSupergraph:
    @pytest.mark.parametrize("name", sources.names())
    def test_hand_written_source(self, name):
        program = parse_program(sources.source(name))
        assert_same_graph(program)
        for _, config in fsci_configs(program)[1:]:
            assert_same_graph(program, config["functions"])

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_example(self, name):
        assert_same_graph(example_program(name))

    @given(programs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_programs(self, program):
        assert_same_graph(program)
        helpers = sorted(set(program.functions) - {program.entry})
        assert_same_graph(program, {program.entry} | set(helpers[:1]))

    def test_excluded_entry_is_visited_once(self):
        program = example_program("deadlock_demo.c")
        others = set(program.functions) - {program.entry}
        kernel = FSCI(program, functions=others).run()
        ref = ReferenceFSCI(program, functions=others).run()
        assert kernel.iterations == ref.iterations == 1
        entry = Supergraph(program, functions=others).entry
        assert kernel.reached_before(entry) and ref.reached_before(entry)
        assert kernel.cells_after(entry) == ref.cells_after(entry) == {}


# ----------------------------------------------------------------------
# The other clients of the engine
# ----------------------------------------------------------------------
@contextlib.contextmanager
def reference_engine(module: Any) -> Iterator[None]:
    """Run ``module``'s dataflow client on the Loc-keyed engine."""
    with mock.patch.object(module, "Supergraph", ReferenceSupergraph), \
            mock.patch.object(module, "ForwardDataflow", ReferenceDataflow):
        yield


def engine_states(engine: Any, program: Program) -> Dict[Any, Any]:
    out: Dict[Any, Any] = {"iterations": engine.iterations}
    for loc, _ in program.statements():
        out["before", loc] = engine.state_before(loc)
        out["after", loc] = engine.state_after(loc)
    return out


def assert_clients_agree(program: Program) -> None:
    from repro.analysis import mustalias
    from repro.applications import lockset
    from repro.checkers import heapfacts

    fsci = FSCI(program).run()
    runs = {
        "must-alias": (mustalias, lambda: MustAlias(program).run()),
        "lockset": (lockset,
                    lambda: LocksetAnalysis(program, fsci=fsci).run()),
        "free-facts": (heapfacts, lambda: FreeFacts(program, fsci)),
    }
    for name, (module, run) in runs.items():
        dense = engine_states(run()._engine, program)
        with reference_engine(module):
            keyed_result = run()
        assert isinstance(keyed_result._engine, ReferenceDataflow)
        keyed = engine_states(keyed_result._engine, program)
        assert dense == keyed, name


class TestClients:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_example(self, name):
        assert_clients_agree(example_program(name))

    @pytest.mark.parametrize("name", sources.names())
    def test_hand_written_source(self, name):
        assert_clients_agree(parse_program(sources.source(name)))

    @pytest.mark.parametrize("name", CORPUS_NAMES[:5])
    def test_corpus_program(self, name):
        assert_clients_agree(corpus_program(name))

    @given(programs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_programs(self, program):
        assert_clients_agree(program)


# ----------------------------------------------------------------------
# Skip runs cost nothing
# ----------------------------------------------------------------------
def gap_program(gap: int) -> Program:
    """Two pointer assignments with ``gap`` extern calls, statements
    that touch no pointer, between them."""
    return parse_program(
        "int *p; int *q; int a;\nvoid tick(void);\nint main() {\n"
        "  p = &a;\n" + "  tick();\n" * gap + "  q = p;\n"
        "  return 0;\n}\n")


class TestSparseSolve:
    def test_skip_runs_take_no_iterations(self):
        iterations = []
        for gap in (10, 2000):
            program = gap_program(gap)
            iterations.append(FSCI(program).run().iterations)
            seen = observe(program, {})
            assert seen["kernel"] == seen["reference"], gap
        assert iterations[0] == iterations[1]


def decoded_states(result: Any, decode: Any, program: Program,
                   functions: Any) -> Dict[Any, Any]:
    """The decoded state before and after every location of
    ``functions``."""
    engine = result._engine
    return {(side, Loc(name, idx)): decode(getter(Loc(name, idx)))
            for name in sorted(functions)
            for idx in program.cfg_of(name).nodes()
            for side, getter in (("before", engine.state_before),
                                 ("after", engine.state_after))}


class TestThreads:
    def test_racing_solves_and_rebuilds_match_the_reference(self):
        """The daemon's threads share a program's cached supergraphs
        (with their lazily built predecessor lists) and, through one
        result, its skip-state rebuilds: racing on both must leave
        every state equal to the reference's."""
        program = corpus_program("clamd")
        configs = [config for _, config in fsci_configs(program)[:12]]
        functions = [config.get("functions", program.functions)
                     for config in configs]
        expected = [decoded_states(ReferenceFSCI(program, **config).run(),
                                   _reference_state, program, fns)
                    for config, fns in zip(configs, functions)]
        shared = FSCI(program, **configs[0]).run()
        failures: List[str] = []

        def solve(offset: int) -> None:
            try:
                state = decoded_states(
                    shared, lambda s: _kernel_state(shared, s), program,
                    functions[0])
                if state != expected[0]:
                    failures.append(f"shared result, thread {offset}")
                for k in range(len(configs)):
                    i = (k + offset) % len(configs)
                    result = FSCI(program, **configs[i]).run()
                    state = decoded_states(
                        result, lambda s: _kernel_state(result, s),
                        program, functions[i])
                    if state != expected[i]:
                        failures.append(f"config {i}, thread {offset}")
            except Exception as exc:  # reported below
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=solve, args=(k * 3,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


# ----------------------------------------------------------------------
# Stopping early
# ----------------------------------------------------------------------
def unsolved_engine(program: Program) -> ForwardDataflow:
    """The engine of a whole-program FSCI, wired as ``run`` wires it but
    not yet run."""
    kernel = FSCI(program)
    graph = Supergraph(program)
    return ForwardDataflow(
        graph, kernel._compile_kernel(
            graph, NodeTable(reserved=fsci_module._RESERVED)),
        fsci_module._join_kernel, initial={}, bottom=None)


class TestStopping:
    @pytest.fixture(scope="class")
    def program(self) -> Program:
        return corpus_program("freshclam")

    def test_max_iterations_bounds_anchor_visits(self, program):
        full = FSCI(program).run().iterations
        for limit in (0, 1, 255, full // 2, full - 1):
            engine = unsolved_engine(program)
            with pytest.raises(TimeoutError, match="iterations"):
                engine.run(max_iterations=limit)
            assert engine.iterations == limit + 1
            with pytest.raises(TimeoutError):
                FSCI(program, max_iterations=limit).run()
        assert FSCI(program, max_iterations=full).run().iterations == full

    def test_expired_deadline_is_seen_at_the_256th_visit(self, program):
        assert FSCI(program).run().iterations > 256
        engine = unsolved_engine(program)
        with pytest.raises(TimeoutError, match="deadline"):
            engine.run(deadline=time.monotonic() - 1.0)
        assert engine.iterations == 256
        with pytest.raises(TimeoutError, match="deadline"):
            FSCI(program, deadline=time.monotonic() - 1.0).run()

    def test_short_solve_ignores_an_expired_deadline(self):
        program = example_program("deadlock_demo.c")
        for cls in (FSCI, ReferenceFSCI):
            result = cls(program, deadline=time.monotonic() - 1.0).run()
            assert result.iterations < 256


class TestNoEngineSwitch:
    def test_production_modules_never_import_the_reference(self):
        src = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
        offenders = []
        for root, _, files in os.walk(src):
            for fname in files:
                path = os.path.join(root, fname)
                if not fname.endswith(".py") or "bench" in root.split(os.sep) \
                        or path.endswith(os.path.join("analysis",
                                                      "reference.py")):
                    continue
                with open(path) as handle:
                    text = handle.read()
                if "reference import" in text or "import reference" in text:
                    offenders.append(os.path.relpath(path, src))
        assert offenders == []
