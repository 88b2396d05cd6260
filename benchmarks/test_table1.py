"""Table 1 benchmarks (experiment E1, plus E7/E8 narratives).

Each benchmark regenerates one configuration of the paper's headline
table on scaled-down corpus programs:

* FSCS with no clustering (the baseline that stops scaling),
* FSCS on Steensgaard partitions (columns 7-9),
* FSCS on Andersen clusters (columns 10-12),

and asserts the paper's qualitative claims: clustering beats
no-clustering; on sendmail-shaped programs Andersen clustering shrinks
the max cluster sharply, on mt-daapd-shaped ones it cannot.

Full-table CLI: ``python -m repro.bench.table1``.
"""

import pytest

from repro.analysis import Steensgaard, whole_program_fscs
from repro.bench import build
from repro.bench.table1 import measure_program
from repro.core import BootstrapConfig, BootstrapResult, CascadeConfig, \
    run_cascade
from repro.errors import AnalysisBudgetExceeded


def fscs_clustered(program, *, andersen: bool, threshold: int = 6,
                   parts: int = 5) -> float:
    config = CascadeConfig(andersen_threshold=threshold) if andersen \
        else CascadeConfig(refine_with_andersen=False)
    cascade = run_cascade(program, config)
    result = BootstrapResult(program, cascade,
                             BootstrapConfig(parts=parts))
    return result.analyze_all().max_part_time


class TestColumnConfigurations:
    def test_bench_partitioning(self, benchmark, autofs_small):
        """Column 4: Steensgaard partitioning time."""
        result = benchmark(lambda: Steensgaard(autofs_small.program).run())
        assert result.partitions()

    def test_bench_clustering(self, benchmark, autofs_small):
        """Column 5: Andersen clustering of large partitions."""
        out = benchmark(lambda: run_cascade(
            autofs_small.program, CascadeConfig(andersen_threshold=6)))
        assert out.clusters

    def test_bench_nocluster_fscs(self, benchmark, autofs_small):
        """Column 6 on a small program (it still finishes here)."""
        def run():
            return whole_program_fscs(autofs_small.program,
                                      budget=2_000_000).analyze()
        stats = benchmark.pedantic(run, rounds=1, iterations=1)
        assert stats["engine_steps"] > 0

    def test_bench_steensgaard_clustered_fscs(self, benchmark, autofs_small):
        t = benchmark.pedantic(
            lambda: fscs_clustered(autofs_small.program, andersen=False),
            rounds=1, iterations=1)
        assert t >= 0

    def test_bench_andersen_clustered_fscs(self, benchmark, autofs_small):
        t = benchmark.pedantic(
            lambda: fscs_clustered(autofs_small.program, andersen=True),
            rounds=1, iterations=1)
        assert t >= 0


class TestPaperShapeClaims:
    def test_clustering_beats_nocluster(self, autofs_small):
        """The central Table 1 comparison (cols 6 vs 9/12)."""
        row = measure_program(autofs_small.program, "autofs", 8.3,
                              andersen_threshold=6,
                              nocluster_budget=2_000_000)
        assert row.t_nocluster is None or \
            row.t_nocluster > row.t_steens, \
            f"no-clustering {row.t_nocluster} vs clustered {row.t_steens}"

    def test_nocluster_times_out_on_large(self, sendmail_tiny):
        """The paper's '> 15min' rows: the unclustered baseline exhausts
        its budget on sendmail-shaped input while clustered FSCS (same
        budget per cluster) completes."""
        with pytest.raises(AnalysisBudgetExceeded):
            whole_program_fscs(sendmail_tiny.program,
                               budget=100_000,
                               max_fsci_iterations=100_000).analyze()
        t = fscs_clustered(sendmail_tiny.program, andersen=True)
        assert t >= 0  # completed

    def test_sendmail_andersen_shrinks_max_cluster(self, sendmail_tiny):
        """E7: 596 -> 193 in the paper; the ratio (~1/3) is the claim."""
        program = sendmail_tiny.program
        steens_max = run_cascade(
            program,
            CascadeConfig(refine_with_andersen=False)).max_cluster_size()
        andersen_max = run_cascade(
            program, CascadeConfig(andersen_threshold=6)).max_cluster_size()
        assert andersen_max < 0.6 * steens_max

    def test_mtdaapd_andersen_cannot_refine(self, mtdaapd_small):
        """E8: 89 -> 83 in the paper; refinement is marginal, so Andersen
        clustering is pure overhead on this shape."""
        program = mtdaapd_small.program
        steens_max = run_cascade(
            program,
            CascadeConfig(refine_with_andersen=False)).max_cluster_size()
        andersen_max = run_cascade(
            program, CascadeConfig(andersen_threshold=6)).max_cluster_size()
        assert andersen_max > 0.75 * steens_max
