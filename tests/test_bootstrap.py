"""The top-level BootstrapAnalyzer facade and demand-driven queries."""

import pytest

from repro.analysis import execute, whole_program_fscs
from repro.core import (
    BootstrapAnalyzer,
    BootstrapConfig,
    CascadeConfig,
    select_clusters,
)
from repro.ir import ProgramBuilder, Var

from .helpers import exit_loc, figure2_program, figure5_program, v


class TestQueries:
    def test_points_to_matches_whole_program(self):
        prog = figure2_program()
        boot = BootstrapAnalyzer(prog).run()
        whole = whole_program_fscs(prog)
        end = exit_loc(prog)
        for p in prog.pointers:
            assert boot.points_to(p, end) == whole.points_to(p, end), str(p)

    def test_partition_fast_path_rejects(self):
        prog = figure2_program()
        boot = BootstrapAnalyzer(prog).run()
        end = exit_loc(prog)
        # p and a are in different partitions: constant-time False.
        assert not boot.may_alias(v("p", "main"), v("a", "main"), end)
        assert boot.analyzed_cluster_count == 0  # no cluster touched

    def test_may_alias_within_cluster(self):
        prog = figure2_program()
        boot = BootstrapAnalyzer(prog).run()
        end = exit_loc(prog)
        assert boot.may_alias(v("q", "main"), v("r", "main"), end)
        assert not boot.may_alias(v("q", "main"), v("p", "main"), end)

    def test_alias_set(self):
        prog = figure2_program()
        boot = BootstrapAnalyzer(prog).run()
        end = exit_loc(prog)
        aliases = boot.alias_set(v("q", "main"), end)
        assert v("r", "main") in aliases

    def test_self_alias(self):
        prog = figure2_program()
        boot = BootstrapAnalyzer(prog).run()
        end = exit_loc(prog)
        assert boot.may_alias(v("p", "main"), v("p", "main"), end)

    def test_lazy_cluster_analysis(self):
        prog = figure5_program()
        boot = BootstrapAnalyzer(prog).run()
        assert boot.analyzed_cluster_count == 0
        end = exit_loc(prog)
        boot.points_to(Var("z"), end)
        assert 0 < boot.analyzed_cluster_count < len(boot.clusters)

    def test_soundness_vs_oracle(self):
        prog = figure5_program()
        boot = BootstrapAnalyzer(prog).run()
        orc = execute(prog)
        from repro.ir import Loc
        cfg = prog.cfg_of("main")
        end = exit_loc(prog)
        for p in prog.pointers:
            concrete = orc.pts_after(Loc("main", cfg.exit), p)
            assert concrete <= boot.points_to(p, end), str(p)


class TestAnalyzeAll:
    def test_parallel_report(self):
        prog = figure5_program()
        boot = BootstrapAnalyzer(prog, BootstrapConfig(parts=3)).run()
        report = boot.analyze_all()
        assert len(report.part_times) <= 3
        assert report.max_part_time <= report.total_time + 1e-9
        assert len(report.results) == len(boot.clusters)

    def test_subset_analysis(self):
        prog = figure5_program()
        boot = BootstrapAnalyzer(prog).run()
        subset = boot.cascade.clusters_containing([Var("x")])
        report = boot.analyze_all(clusters=subset)
        assert len(report.results) == len(subset)

    def test_no_cache_report_is_keyed_by_target_index(self):
        """Without a cache every per-cluster field of the report is
        keyed by the cluster's index in ``clusters``, makes no
        fingerprint and counts no cache traffic."""
        from repro.core import cluster_outcome, schedule_indices
        from .test_cascade import big_partition_program
        prog = big_partition_program(n_chains=6, chain_len=6)
        config = BootstrapConfig(
            cascade=CascadeConfig(andersen_threshold=5))
        boot = BootstrapAnalyzer(prog, config).run()
        order = list(range(len(boot.clusters)))[::-2]
        targets = [boot.clusters[i] for i in order]
        assert len(targets) >= 3
        report = boot.analyze_all(clusters=targets, scheduler="lpt")
        fresh = BootstrapAnalyzer(prog, config).run()
        assert report.results == [
            cluster_outcome(fresh.analysis_for(fresh.clusters[i]))
            for i in order]
        assert report.schedule == schedule_indices(
            targets, config.parts, "lpt")
        assert sorted(report.cluster_times) == list(range(len(targets)))
        assert report.part_times == [
            sum(report.cluster_times[i] for i in part)
            for part in report.schedule]
        assert report.attempts == {i: 1 for i in range(len(targets))}
        assert report.fingerprints is None
        assert report.cache_hits == report.cache_misses == 0
        assert (report.backend, report.scheduler) == ("simulate", "lpt")

    def test_fsci_shared_between_siblings(self):
        from .test_cascade import big_partition_program
        prog = big_partition_program(n_chains=6, chain_len=6)
        boot = BootstrapAnalyzer(
            prog,
            BootstrapConfig(cascade=CascadeConfig(andersen_threshold=5))).run()
        siblings = [c for c in boot.clusters if c.origin == "andersen"]
        assert len(siblings) >= 2
        a1 = boot.analysis_for(siblings[0])
        a2 = boot.analysis_for(siblings[1])
        assert a1.fsci is a2.fsci


class TestDemandSelection:
    def test_select_clusters(self):
        prog = figure5_program()
        boot = BootstrapAnalyzer(prog).run()
        sel = select_clusters(boot, [Var("x")])
        assert sel.selected
        assert all(Var("x") in c.members for c in sel.selected)
        assert 0 < sel.cluster_fraction <= 1
        assert 0 < sel.pointer_fraction <= 1

    def test_pure_selection(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.addr("lock1", "lobj1")
            f.addr("lock2", "lobj2")
            f.copy("lock1", "lock2")
            f.addr("other", "x")
        prog = b.build()
        boot = BootstrapAnalyzer(prog).run()
        locks = [v("lock1", "main"), v("lock2", "main")]
        sel = select_clusters(boot, locks, pure=True)
        for c in sel.selected:
            assert c.pointer_members <= set(locks)

    def test_empty_selection(self):
        prog = figure2_program()
        boot = BootstrapAnalyzer(prog).run()
        sel = select_clusters(boot, [Var("nonexistent")])
        assert sel.selected == []
        assert sel.cluster_fraction == 0 or sel.selected == []
