"""Benchmark workloads and harnesses for the paper's tables and figures.

The package exports the corpus, the program generator and the timing
helpers.  Each harness is a submodule run with ``python -m
repro.bench.<name>`` (cascade, demand, figure1, parallel,
profile_solvers, resilience, table1, taint, ...); import its functions
from that submodule, so that running it as ``__main__`` does not find
it imported already.
"""

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

__all__ = [
    "HIGHLIGHTS", "PAPER_BY_NAME", "PAPER_TABLE1", "PaperRow", "TIMEOUT",
    "Timed", "SynthConfig", "SynthProgram",
    "ascii_histogram", "build",
    "corpus_configs", "format_csv", "format_table", "fp_heavy",
    "fp_heavy_config", "generate",
    "generate_source", "ratio", "timed",
    "timed_with_budget",
]
