"""Benchmark workloads and harnesses for the paper's tables and figures."""

from .cascade import run_cascade_bench
from .corpus import (
    HIGHLIGHTS,
    PAPER_BY_NAME,
    PAPER_TABLE1,
    PaperRow,
    build,
    corpus_configs,
    fp_heavy,
    fp_heavy_config,
)
from .demand import run_demand_bench
from .figure1 import Figure1Data, compute_figure1, run_figure1
from .parallel import run_parallel_bench
from .profile_solvers import run_kernel_bench
from .resilience import run_resilience_bench
from .metrics import (
    TIMEOUT,
    Timed,
    ascii_histogram,
    format_csv,
    format_table,
    ratio,
    timed,
    timed_with_budget,
)
from .synth import SynthConfig, SynthProgram, generate, generate_source
from .table1 import Table1Row, measure_program, run_table1, shape_report
from .taint import run_taint_bench

__all__ = [
    "HIGHLIGHTS", "PAPER_BY_NAME", "PAPER_TABLE1", "PaperRow", "TIMEOUT",
    "Table1Row", "Timed", "Figure1Data", "SynthConfig", "SynthProgram",
    "ascii_histogram", "build", "compute_figure1",
    "corpus_configs", "format_csv", "format_table", "fp_heavy",
    "fp_heavy_config", "generate",
    "generate_source", "measure_program", "ratio", "run_cascade_bench",
    "run_demand_bench",
    "run_figure1", "run_kernel_bench",
    "run_parallel_bench", "run_resilience_bench", "run_table1",
    "run_taint_bench",
    "shape_report", "timed",
    "timed_with_budget",
]
