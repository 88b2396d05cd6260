"""Figure 1 benchmark (experiment E2): cluster-size frequency series.

Regenerates both series for the autofs-calibrated program and asserts the
paper's two observations; the benchmark measures the cost of producing
the figure's data.  CLI: ``python -m repro.bench.figure1``.
"""

import pytest

from repro.bench.figure1 import compute_figure1, run_figure1


class TestFigure1:
    def test_bench_series_computation(self, benchmark, autofs_small):
        data = benchmark.pedantic(
            lambda: compute_figure1(autofs_small.program,
                                    andersen_threshold=6),
            rounds=1, iterations=1)
        assert data.steensgaard and data.andersen

    def test_observation_small_size_density(self, autofs_small):
        """Paper: 'high density of both white and black squares for low
        values of cluster size'."""
        data = compute_figure1(autofs_small.program, andersen_threshold=6)
        sd, ad = data.small_density(cutoff=8)
        assert sd > 0.7
        assert ad > 0.7

    def test_observation_max_partition_gap(self, autofs_small):
        """Paper: 'stark difference in maximum size of Steensgaard
        partitions (isolated white square to the far right) and Andersen
        clusters'."""
        data = compute_figure1(autofs_small.program, andersen_threshold=6)
        assert data.andersen_max < data.steens_max

    def test_cli_entry_point(self):
        data = run_figure1("autofs", scale=0.04)
        assert data.program == "autofs"
