"""The greedy/LPT parallel schedules and runner."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BootstrapAnalyzer,
    Cluster,
    ParallelRunner,
    RelevantSlice,
    cluster_cost,
    greedy_parts,
    lpt_parts,
    schedule_indices,
)
from repro.core.parallel import (
    BACKENDS,
    greedy_index_parts,
    lpt_index_parts,
)
from repro.ir import Var

from .helpers import figure5_program


def make_clusters(sizes):
    out = []
    for i, s in enumerate(sizes):
        members = frozenset(Var(f"c{i}v{j}") for j in range(s))
        sl = RelevantSlice(cluster=members, vp=members,
                           statements=frozenset())
        out.append(Cluster(members=members, slice=sl,
                           origin="steensgaard", parent_size=s))
    return out


class TestGreedyParts:
    def test_every_cluster_scheduled_once(self):
        clusters = make_clusters([5, 3, 8, 1, 1, 4, 2])
        parts = greedy_parts(clusters, 3)
        flat = [c for p in parts for c in p]
        assert len(flat) == len(clusters)
        assert {id(c) for c in flat} == {id(c) for c in clusters}

    def test_at_most_requested_parts(self):
        clusters = make_clusters([1] * 20)
        assert len(greedy_parts(clusters, 5)) <= 5

    def test_single_part(self):
        clusters = make_clusters([3, 3, 3])
        parts = greedy_parts(clusters, 1)
        assert len(parts) == 1

    def test_part_closes_when_target_exceeded(self):
        """The paper's rule: close the part as soon as the accumulated
        pointer count strictly exceeds total/k."""
        clusters = make_clusters([7, 7, 7, 7])  # total 28, target 7
        parts = greedy_parts(clusters, 4)
        target = 28 / 4
        for part in parts[:-1]:
            acc = sum(c.size for c in part)
            assert acc > target                       # it closed because...
            assert acc - part[-1].size <= target      # ...of its last cluster

    def test_empty_cluster_list(self):
        assert greedy_parts([], 5) == [[]]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            greedy_parts(make_clusters([1]), 0)

    def test_more_parts_than_clusters(self):
        clusters = make_clusters([2, 2])
        parts = greedy_parts(clusters, 10)
        assert sum(len(p) for p in parts) == 2


class TestLptParts:
    def test_every_cluster_scheduled_once(self):
        clusters = make_clusters([5, 3, 8, 1, 1, 4, 2])
        parts = lpt_parts(clusters, 3)
        flat = [c for p in parts for c in p]
        assert len(flat) == len(clusters)
        assert {id(c) for c in flat} == {id(c) for c in clusters}

    def test_at_most_requested_parts(self):
        clusters = make_clusters([1] * 20)
        assert len(lpt_parts(clusters, 5)) <= 5

    def test_empty_cluster_list(self):
        assert lpt_parts([], 5) == [[]]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            lpt_parts(make_clusters([1]), 0)

    def test_balances_adversarial_input(self):
        """[5, 5, 4, 3, 3] on 2 parts separates the schedulers: the
        paper's sweep closes {5,5,4}=14, LPT lands at {5,4}/{5,3,3}=11."""
        costs = [5, 5, 4, 3, 3]
        greedy = greedy_index_parts(costs, 2)
        lpt = lpt_index_parts(costs, 2)

        def max_cost(schedule):
            return max(sum(costs[i] for i in p) for p in schedule)

        assert max_cost(greedy) == 14
        assert max_cost(lpt) == 11

    def test_cluster_cost_floors_at_one(self):
        (c,) = make_clusters([0])
        assert c.slice.size == 0
        assert cluster_cost(c) == 1

    def test_schedule_indices_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError):
            schedule_indices(make_clusters([1]), 2, scheduler="fifo")


class TestLptProperties:
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=40),
           st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_schedule_invariants(self, costs, parts):
        schedule = lpt_index_parts(costs, parts)
        flat = sorted(i for p in schedule for i in p)
        # Coverage without drop or duplication, within the part cap.
        assert flat == list(range(len(costs)))
        assert 1 <= len(schedule) <= parts

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=40),
           st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_never_worse_than_greedy(self, costs, parts):
        """The portfolio guarantee: LPT's max part cost never exceeds
        the paper's greedy sweep on the same costs."""
        def max_cost(schedule):
            return max((sum(costs[i] for i in p) for p in schedule),
                       default=0.0)

        lpt = max_cost(lpt_index_parts(costs, parts))
        greedy = max_cost(greedy_index_parts(costs, parts))
        assert lpt <= greedy


def outcome_of(cluster, tag):
    """A valid cluster outcome that carries ``tag`` in its stats."""
    return {"stats": {"tag": tag},
            "points_to": {str(p): [] for p in cluster.pointer_members}}


def never_degrade(index, error, attempts):
    raise AssertionError(f"cluster {index} degraded: {error}")


class TestParallelRunner:
    """``ParallelRunner.run`` takes index tasks, and both backends keep
    the same slots."""

    def test_simulated_run(self):
        clusters = make_clusters([2, 3, 4])
        for backend in BACKENDS:
            runner = ParallelRunner(parts=2, backend=backend)
            report = runner.run(
                clusters, lambda i: outcome_of(clusters[i], clusters[i].size),
                never_degrade)
            assert [r["stats"]["tag"] for r in report.results] == [2, 3, 4]
            assert sorted(report.cluster_times) == [0, 1, 2]
            assert report.attempts == {0: 1, 1: 1, 2: 1}
            assert report.max_part_time <= report.total_time + 1e-9
            assert report.backend == backend

    def test_results_order_matches_clusters(self):
        clusters = make_clusters([1, 2, 3])
        for backend in BACKENDS:
            runner = ParallelRunner(parts=3, backend=backend)
            report = runner.run(clusters,
                                lambda i: outcome_of(clusters[i], i),
                                never_degrade)
            assert [r["stats"]["tag"] for r in report.results] == [0, 1, 2]

    def test_duplicate_clusters_keep_distinct_slots(self):
        """Regression: results/cluster_times were once keyed by
        ``id(cluster)``, so the same cluster listed twice collapsed to a
        single slot.  Index keying must run the task once per listing."""
        (c,) = make_clusters([3])
        for backend in BACKENDS:
            calls = []

            def task(i):
                calls.append(i)
                return outcome_of(c, i)

            runner = ParallelRunner(parts=2, backend=backend)
            report = runner.run([c, c], task, never_degrade)
            assert [r["stats"]["tag"] for r in report.results] == [0, 1]
            assert sorted(report.cluster_times) == [0, 1]
            assert sorted(i for p in report.schedule for i in p) == [0, 1]
            # Forked workers call the task in their own memory.
            assert calls == ([0, 1] if backend == "simulate" else [])

    def test_lpt_runner_restores_input_order(self):
        """LPT visits clusters largest-first, but results still line up
        with the input sequence."""
        clusters = make_clusters([1, 5, 2, 4, 3])
        for backend in BACKENDS:
            runner = ParallelRunner(parts=2, backend=backend,
                                    scheduler="lpt")
            report = runner.run(
                clusters, lambda i: outcome_of(clusters[i], clusters[i].size),
                never_degrade)
            assert [r["stats"]["tag"] for r in report.results] \
                == [1, 5, 2, 4, 3]
            assert report.scheduler == "lpt"

    def test_unknown_backend(self):
        for backend in ("mpi", "threads"):
            with pytest.raises(ValueError):
                ParallelRunner(backend=backend)

    def test_integration_with_bootstrap(self):
        prog = figure5_program()
        boot = BootstrapAnalyzer(prog).run()
        report = boot.analyze_all()
        assert all(isinstance(r, dict) for r in report.results)


class TestGreedyProperties:
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=40),
           st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_schedule_invariants(self, sizes, parts):
        clusters = make_clusters(sizes)
        schedule = greedy_parts(clusters, parts)
        # Order-preserving coverage, no duplication, part-count cap.
        flat = [c for p in schedule for c in p]
        assert [id(c) for c in flat] == [id(c) for c in clusters]
        assert 1 <= len(schedule) <= parts
        # The paper's closing rule: every non-final part exceeded the
        # target only because of its last cluster.
        target = sum(sizes) / parts
        for part in schedule[:-1]:
            acc = sum(c.size for c in part)
            assert acc - part[-1].size <= target


class TestParallelBenchGate:
    """``repro.bench.parallel --gate``: the schedule's balance and the
    warm-cache skip ratio against a committed baseline."""

    def test_gate_passes_against_itself_and_catches_a_better_baseline(self):
        from repro.bench.parallel import check_gate, run_parallel_bench
        data = run_parallel_bench(name="autofs", scale=0.02,
                                  jobs_list=(2,))
        assert check_gate(data, data) == []
        better = json.loads(json.dumps(data))
        for run in better["runs"]:
            run["machine_speedup"] *= 2.0
        failures = check_gate(data, better)
        assert failures and "machine_speedup at jobs=2" in failures[0]
