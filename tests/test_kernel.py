"""Property and differential tests for the bitmask solver kernels.

The kernels (:mod:`repro.analysis.kernel`) are pure representation: an
int bitmask stands in for a frozenset of interned symbols.  These tests
pin that claim three ways — random operation sequences against a plain
``set`` reference model (hypothesis), kernel-vs-reference differentials
over the Andersen and FSCI solvers on both hand-built and random
programs, and hash-seed determinism for cluster emission.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Set

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import FSCI, Andersen
from repro.analysis.kernel import BitSet, IntUnionFind, NodeTable, iter_bits, popcount
from repro.analysis.reference import ReferenceAndersen, ReferenceFSCI
from repro.bench.profile_solvers import check_gate, render, run_kernel_bench
from repro.ir import AllocSite, Loc, Var

from .helpers import (
    call_chain_program,
    diamond_program,
    figure2_program,
    figure3_program,
    figure4_program,
    figure5_program,
    recursive_program,
)
from .test_properties import programs

#: Crosses the 64-bit machine-word boundary so multi-word masks are
#: exercised, not just the fast single-word path.
UNIVERSE = 70

_elements = st.integers(0, UNIVERSE - 1)

#: Initial contents, weighted toward the edge cases the issue calls out:
#: empty, singleton, and full universe.
_initial = st.one_of(
    st.just(frozenset()),
    st.builds(lambda i: frozenset({i}), _elements),
    st.just(frozenset(range(UNIVERSE))),
    st.frozensets(_elements),
)

_masks = st.frozensets(_elements).map(
    lambda s: sum(1 << i for i in s))

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _elements),
        st.tuples(st.just("discard"), _elements),
        st.tuples(st.just("or_into"), _masks),
        st.tuples(st.just("difference_mask"), _masks),
    ),
    max_size=30,
)


def _mask_of(model: Set[int]) -> int:
    return sum(1 << i for i in model)


class TestBitSetModel:
    @given(initial=_initial, ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_operation_sequences_match_set_model(self, initial, ops):
        bs = BitSet()
        model: Set[int] = set()
        delta = bs.or_into(_mask_of(initial))
        assert delta == _mask_of(initial)
        model |= initial
        for op, arg in ops:
            if op == "add":
                bs.add(arg)
                model.add(arg)
            elif op == "discard":
                bs.discard(arg)
                model.discard(arg)
            elif op == "or_into":
                delta = bs.or_into(arg)
                new = {i for i in range(UNIVERSE) if arg >> i & 1} - model
                assert delta == _mask_of(new)
                model |= new
            else:
                assert bs.difference_mask(arg) == \
                    _mask_of(model - {i for i in range(UNIVERSE)
                                      if arg >> i & 1})
            # Full invariant sweep after every operation.
            assert bs.bits == _mask_of(model)
            assert len(bs) == len(model)
            assert bool(bs) == bool(model)
            assert sorted(bs) == sorted(model)
            assert all((i in bs) == (i in model)
                       for i in range(UNIVERSE))

    @given(a=_initial, b=_initial)
    @settings(max_examples=100, deadline=None)
    def test_pairwise_semantics(self, a, b):
        ba, bb = BitSet(), BitSet()
        ba.or_into(_mask_of(a))
        bb.or_into(_mask_of(b))
        assert ba.isdisjoint(bb.bits) == a.isdisjoint(b)
        assert (ba == bb) == (a == b)
        if a == b:
            assert hash(ba) == hash(bb)
        # or_into reports exactly the new bits, and is idempotent.
        cp = ba.copy()
        delta = cp.or_into(bb.bits)
        assert delta == _mask_of(b - a)
        assert cp.bits == _mask_of(a | b)
        assert cp.or_into(bb.bits) == 0
        # copy() is independent of the original.
        assert ba.bits == _mask_of(a)

    @given(mask=st.integers(min_value=0, max_value=(1 << 130) - 1))
    @settings(max_examples=200, deadline=None)
    def test_popcount_and_iter_bits(self, mask):
        positions = list(iter_bits(mask))
        assert positions == [i for i in range(mask.bit_length())
                             if mask >> i & 1]
        assert popcount(mask) == len(positions)

    def test_word_boundary_edges(self):
        for mask in (0, 1, 1 << 63, 1 << 64, (1 << 64) - 1, (1 << 127) | 1):
            assert popcount(mask) == bin(mask).count("1")
            assert list(iter_bits(mask)) == \
                [i for i in range(130) if mask >> i & 1]


class TestNodeTable:
    def test_intern_round_trip_with_reserved_bits(self):
        table = NodeTable(reserved=2)
        objs = [Var("p", None), Var("q", "f"), AllocSite("h1"),
                Var("p", "f")]
        ids = [table.intern(o) for o in objs]
        assert ids == [0, 1, 2, 3]
        assert [table.intern(o) for o in objs] == ids  # stable
        assert [table.obj_of(i) for i in ids] == objs
        assert [table.id_of(o) for o in objs] == ids
        # bit/mask_of respect the reserved low bits.
        assert table.bit(objs[0]) == 1 << 2
        mask = table.mask_of([objs[0], objs[2]])
        assert mask == (1 << 2) | (1 << 4)
        # objects_of ignores the reserved sentinel bits.
        assert table.objects_of(mask | 0b11) == frozenset({objs[0], objs[2]})
        assert table.objects_of(0b11) == frozenset()

    @given(subset=st.frozensets(st.integers(0, 19)))
    @settings(max_examples=100, deadline=None)
    def test_objects_of_inverts_mask_of(self, subset):
        table = NodeTable(reserved=2)
        objs = [AllocSite(f"o{i}") for i in range(20)]
        for o in objs:
            table.intern(o)
        chosen = frozenset(objs[i] for i in subset)
        assert table.objects_of(table.mask_of(chosen)) == chosen


class TestIntUnionFind:
    @given(unions=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_partition_model(self, unions):
        uf = IntUnionFind(16)
        groups: List[Set[int]] = [{i} for i in range(16)]
        member: Dict[int, int] = {i: i for i in range(16)}
        for a, b in unions:
            uf.union(a, b)
            ga, gb = member[a], member[b]
            if ga != gb:
                groups[ga] |= groups[gb]
                for x in groups[gb]:
                    member[x] = ga
                groups[gb] = set()
        for i in range(16):
            for j in range(16):
                assert (uf.find(i) == uf.find(j)) == \
                    (member[i] == member[j])


ZOO = [figure2_program, figure3_program, figure4_program,
       figure5_program, diamond_program, recursive_program,
       call_chain_program]


def _andersen_state(program, solver=Andersen, **kw):
    result = solver(program, **kw).run()
    return ({p: result.points_to(p) for p in program.pointers},
            result.clusters(include_singletons=True))


class TestAndersenDifferential:
    @pytest.mark.parametrize("factory", ZOO,
                             ids=[f.__name__ for f in ZOO])
    def test_zoo_bit_identical(self, factory):
        program = factory()
        assert _andersen_state(program) == \
            _andersen_state(program, ReferenceAndersen)
        # Cycle elimination off exercises the no-collapse code path.
        assert _andersen_state(program, cycle_elimination=False) == \
            _andersen_state(program, ReferenceAndersen,
                            cycle_elimination=False)

    @given(program=programs())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_programs_bit_identical(self, program):
        assert _andersen_state(program) == \
            _andersen_state(program, ReferenceAndersen)


def _fsci_state(program, solver):
    result = solver(program).run()
    state = {"iterations": result.iterations,
             "summary": {p: result.points_to(p)
                         for p in program.pointers}}
    for fname, fn in program.functions.items():
        for idx in fn.cfg.nodes():
            loc = Loc(fname, idx)
            for p in program.pointers:
                key = (fname, idx, p)
                state[key] = (
                    result.pts_before(loc, p),
                    result.pts_after(loc, p),
                    result.maybe_uninit_before(loc, p),
                    result.may_null_before(loc, p),
                    result.must_null_before(loc, p),
                    result.explicit_null_before(loc, p),
                    result.maybe_uninit_only_before(loc, p),
                )
    return state


class TestFSCIDifferential:
    @pytest.mark.parametrize("factory", ZOO,
                             ids=[f.__name__ for f in ZOO])
    def test_zoo_bit_identical(self, factory):
        program = factory()
        assert _fsci_state(program, FSCI) == \
            _fsci_state(program, ReferenceFSCI)

    @pytest.mark.parametrize("factory", ZOO[:3],
                             ids=[f.__name__ for f in ZOO[:3]])
    def test_pairwise_accessors_agree(self, factory):
        program = factory()
        kern = FSCI(program).run()
        ref = ReferenceFSCI(program).run()
        ptrs = sorted(program.pointers, key=str)
        for fname, fn in program.functions.items():
            for idx in fn.cfg.nodes():
                loc = Loc(fname, idx)
                for p in ptrs:
                    for obj in sorted(program.objects, key=str):
                        assert kern.must_point_to(p, obj, loc) == \
                            ref.must_point_to(p, obj, loc), (loc, p, obj)
                    for q in ptrs:
                        assert kern.may_values_equal(p, q, loc) == \
                            ref.may_values_equal(p, q, loc), (loc, p, q)
                        assert kern.must_values_equal(p, q, loc) == \
                            ref.must_values_equal(p, q, loc), (loc, p, q)

    @given(program=programs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_programs_bit_identical(self, program):
        assert _fsci_state(program, FSCI) == \
            _fsci_state(program, ReferenceFSCI)


_CLUSTER_SCRIPT = """
import json, sys
from repro.bench import corpus_configs, generate
from repro.analysis import Andersen

cfg = next(c for c in corpus_configs(scale=0.004) if c.name == "ctrace")
program = generate(cfg).program
result = Andersen(program).run()
clusters = result.clusters(include_singletons=True)
print(json.dumps([sorted(map(str, c)) for c in clusters]))
"""


class TestClusterDeterminism:
    """Satellite 4: ``clusters(include_singletons=True)`` iterates in a
    deterministic (interned-id) order, never raw set order."""

    def test_stable_across_hash_seeds(self, tmp_path):
        outs = set()
        for seed in (0, 12345):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.path.join(
                           os.path.dirname(__file__), "..", "src"))
            proc = subprocess.run(
                [sys.executable, "-c", _CLUSTER_SCRIPT],
                capture_output=True, text=True, env=env,
                cwd=str(tmp_path))
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1
        assert json.loads(outs.pop())  # non-trivial cluster list

    def test_kernel_and_reference_emit_same_clusters(self):
        program = figure5_program()
        kern = Andersen(program).run()
        ref = ReferenceAndersen(program).run()
        assert kern.clusters(include_singletons=True) == \
            ref.clusters(include_singletons=True)
        assert kern.clusters(include_singletons=False) == \
            ref.clusters(include_singletons=False)


class TestBenchHarness:
    def test_smoke_records_identical_stages(self):
        data = run_kernel_bench(name="ctrace", scale=0.004)
        assert data["stages"]["andersen"]["identical"]
        assert data["stages"]["fsci"]["identical"]
        summaries = data["stages"]["summaries"]
        assert summaries["identical"] and summaries["clusters"] > 0
        assert summaries["kernel_time"] > 0
        sliced = data["stages"]["sliced_fsci"]
        assert sliced["identical"]
        assert sliced["clusters"] == summaries["clusters"]
        assert sliced["iterations"] > 0
        cold = data["cold"]
        assert cold["kernel_time"] > 0
        # The cold ratio is the median of interleaved repeats, and the
        # stages report that same repeat.
        assert cold["repeats"] == len(cold["speedups"]) == 3
        assert cold["speedup"] == sorted(cold["speedups"])[1]
        assert cold["kernel_time"] == pytest.approx(
            data["stages"]["andersen"]["kernel_time"]
            + data["stages"]["fsci"]["kernel_time"])
        assert "payload" not in data
        assert render(data)

    def _result(self, kernel, reference):
        return {
            "stages": {
                "andersen": {"identical": True},
                "fsci": {"identical": True},
                "summaries": {"identical": True},
                "sliced_fsci": {"identical": True},
            },
            "cold": {"kernel_time": kernel, "reference_time": reference,
                     "speedup": reference / kernel},
        }

    def test_gate_passes_within_tolerance(self):
        base = self._result(1.0, 6.0)
        cur = self._result(1.1, 6.0)  # ratio +10% < 20% tolerance
        assert not check_gate(cur, base)

    def test_gate_fails_on_ratio_regression(self):
        base = self._result(1.0, 6.0)
        cur = self._result(1.6, 6.0)  # ratio +60%, speedup still < floor
        failures = check_gate(cur, base)
        assert any("regressed" in f for f in failures)

    def test_gate_fails_below_speedup_floor(self):
        base = self._result(1.0, 6.0)
        cur = self._result(1.5, 6.0)  # 4x < 5x floor, ratio within 2x...
        failures = check_gate(cur, base, tolerance=0.6)
        assert any("below" in f for f in failures)

    def test_gate_fails_on_divergence(self):
        base = self._result(1.0, 6.0)
        cur = self._result(1.0, 6.0)
        cur["stages"]["fsci"]["identical"] = False
        assert any("differ" in f for f in check_gate(cur, base))

    def test_gate_fails_on_summaries_divergence(self):
        base = self._result(1.0, 6.0)
        cur = self._result(1.0, 6.0)
        cur["stages"]["summaries"]["identical"] = False
        assert check_gate(cur, base) == [
            "summaries: kernel and reference results differ"]

    def test_gate_fails_on_sliced_fsci_divergence(self):
        base = self._result(1.0, 6.0)
        cur = self._result(1.0, 6.0)
        cur["stages"]["sliced_fsci"]["identical"] = False
        assert check_gate(cur, base) == [
            "sliced_fsci: kernel and reference results differ"]
