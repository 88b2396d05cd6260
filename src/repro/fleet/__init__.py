"""Fleet mode: one coordinator, N alias-daemon workers, one protocol.

``repro fleet serve`` starts an asyncio front door that speaks the
PR-3 JSON-lines protocol and consistent-hash-routes each query — keyed
by cluster content key — to the worker daemon whose caches are
warm for it.  See :mod:`repro.fleet.coordinator` for the full design:
routing, admission control, shard-level circuit breakers, rerouting
with tagged envelopes, and healing through the shared disk cache.
"""

from .admission import AdmissionController, AdmissionError
from .coordinator import FleetConfig, FleetCoordinator, RoutingState
from .journal import CoordinatorJournal
from .respawn import RespawnGovernor
from .ring import DEFAULT_REPLICAS, HashRing
from .worker import (
    LocalWorker,
    WorkerError,
    WorkerLink,
    WorkerTimeout,
    parse_worker_addr,
)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "CoordinatorJournal",
    "DEFAULT_REPLICAS",
    "FleetConfig",
    "FleetCoordinator",
    "HashRing",
    "RespawnGovernor",
    "LocalWorker",
    "RoutingState",
    "WorkerError",
    "WorkerLink",
    "WorkerTimeout",
    "parse_worker_addr",
]
