"""Persistent alias-analysis query daemon.

The paper decomposes FSCS alias analysis into small independent clusters
— which also makes clusters the natural unit of *incrementality* and
*demand*: an edit invalidates only the clusters whose sliced
sub-programs (and hence content keys) changed, and a client
query needs only the clusters containing its pointers.  This package
turns that observation into a long-running server:

* :mod:`~repro.server.protocol` — the JSON-lines request/response
  protocol and its error codes;
* :mod:`~repro.server.store` — the in-memory LRU cluster-outcome store
  (keyed by each cluster's content key,
  :func:`~repro.core.shipping.cluster_fingerprints`, optionally backed
  by the on-disk :class:`~repro.core.summary_cache.SummaryCache`)
  and the per-file analysis state with incremental invalidation;
* :mod:`~repro.server.daemon` — the threaded Unix-socket/TCP server
  (``repro serve``) with graceful SIGTERM draining;
* :mod:`~repro.server.client` — the Python client API behind
  ``repro query``.
"""

from .client import ConnectError, ServerClient, wait_for_server
from .daemon import AliasServer
from .protocol import PROTOCOL_VERSION, RequestError, ServerError
from .store import ClusterStore, FileStore, RefreshStats, ServerConfig

__all__ = [
    "AliasServer", "ClusterStore", "ConnectError", "FileStore",
    "PROTOCOL_VERSION", "RefreshStats", "RequestError", "ServerClient",
    "ServerConfig", "ServerError", "wait_for_server",
]
