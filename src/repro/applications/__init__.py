"""The paper's motivating application: locksets and data races.

:mod:`.lockset` computes must-held locks from the lock pointers'
singleton points-to sets; :mod:`.races` pairs conflicting shared
accesses from different threads with no common lock.  Both run over the
FSCI they are handed: the race and deadlock checkers
(:mod:`repro.checkers`) pass the demand engine's sliced FSCI.
"""

from .lockset import (
    LOCK_FUNCTIONS,
    UNLOCK_FUNCTIONS,
    LockSite,
    LocksetAnalysis,
    LocksetResult,
    find_lock_sites,
    lock_pointers,
)
from .races import (
    RACE_RULE_ID,
    Access,
    RaceWarning,
    collect_accesses,
    find_races,
    race_diagnostics,
    thread_assignment,
)

__all__ = [
    "Access", "LOCK_FUNCTIONS", "LockSite", "LocksetAnalysis",
    "LocksetResult", "RACE_RULE_ID", "RaceWarning",
    "UNLOCK_FUNCTIONS", "collect_accesses", "find_lock_sites", "find_races",
    "lock_pointers", "race_diagnostics", "thread_assignment",
]
