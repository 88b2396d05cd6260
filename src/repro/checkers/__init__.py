"""Static-analysis checkers driven by the bootstrapped cascade.

Each checker is a demand-driven client of :class:`~repro.core.bootstrap.
BootstrapAnalyzer`: it declares which pointers it cares about, the
framework selects only the clusters containing them (the paper's
flexibility pitch), runs a sliced FSCI over the union of their slices
(widening round by round when the checker demands more), and
:func:`run_checker` finishes the findings through the shared
:class:`~repro.core.report.Diagnostic` pipeline (text / JSON / SARIF).

The registry holds the memory-safety checkers (null-deref,
use-after-free, double-free), the leak, taint and deadlock clients, and
the paper's own motivating client, lockset race detection.
"""

from .base import (
    CHECKER_REGISTRY,
    Checker,
    CheckerContext,
    CheckerRun,
    CheckerStats,
    CheckReport,
    register_checker,
    run_checker,
    run_checkers,
)
from .deadlock import (
    DeadlockChecker,
    LockOrderReport,
    run_deadlocks,
    spawn_entries,
)
from .doublefree import DoubleFreeChecker
from .heapfacts import FreeFacts
from .leak import LeakChecker, run_leaks
from .nullderef import NullDerefChecker
from .races import RaceChecker, run_races
from .taint import TaintChecker, run_taint
from .useafterfree import UseAfterFreeChecker

__all__ = [
    "CHECKER_REGISTRY", "CheckReport", "Checker", "CheckerContext",
    "CheckerRun", "CheckerStats", "DeadlockChecker", "DoubleFreeChecker",
    "FreeFacts", "LeakChecker", "LockOrderReport", "NullDerefChecker",
    "RaceChecker", "TaintChecker", "UseAfterFreeChecker",
    "register_checker", "run_checker", "run_checkers", "run_deadlocks",
    "run_leaks", "run_races", "run_taint", "spawn_entries",
]
