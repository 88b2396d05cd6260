"""Consistent-hash ring: cluster content keys to worker shards.

The shard key is the cluster's content key
(:func:`~repro.core.shipping.payload_fingerprint`) — content-addressed,
stable across runs and across hosts, and exactly the identity the
summary cache stores outcomes under, so "the worker that owns a key"
and "the worker whose caches are warm for that key" are the same
worker.

Standard construction: every node is hashed onto the unit circle at
``replicas`` points (virtual nodes smooth the key distribution), a key
routes to the first node point clockwise from the key's own hash, and
:meth:`preference` walks on around the circle — the hash-ring
successors that take over a tripped shard's key range.  Adding or
removing one node moves only the keys in its arcs (the minimal
disruption the fleet needs so a healed worker re-warms from the shared
disk cache instead of triggering a full reshuffle).

Hashing is SHA-1-free and deterministic: :func:`_point` uses SHA-256,
so every coordinator in every process agrees on the mapping with no
seed to coordinate.

:meth:`HashRing.assign` layers *bounded loads* on top (the standard
CHWBL refinement): given per-key weights it computes a placement in
which no node carries more than ``(1 + epsilon)`` times its fair share,
displacing overflow keys along the same successor order reroutes use.
The coordinator feeds it each file's cluster weights so the busiest
shard stays near 1/N even when arc variance or key-sampling noise
would skew a pure-hash placement.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

#: Virtual-node count per worker.  Higher = smoother key distribution
#: (the fleet bench's throughput-scaling gate needs the busiest worker
#: to carry close to 1/N of the keys).  At 128 the arc-length variance
#: alone pushes the busiest of 4 shards to ~35% of the keyspace; 1024
#: brings it under ~28% while a 4-node ring is still only 4096 points
#: (~64 KiB) built once at startup with O(log n) lookups.
DEFAULT_REPLICAS = 1024


def _point(data: str) -> int:
    """Position of ``data`` on the ring (first 8 bytes of SHA-256)."""
    return int.from_bytes(
        hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring over named nodes."""

    def __init__(self, nodes: Iterable[str] = (),
                 replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []
        self._keys: List[int] = []
        self._nodes: Dict[str, List[int]] = {}
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def add(self, node: str) -> None:
        """Place ``node`` on the ring (idempotent)."""
        if node in self._nodes:
            return
        points = [_point(f"{node}#{i}") for i in range(self.replicas)]
        self._nodes[node] = points
        for p in points:
            idx = bisect.bisect(self._keys, p)
            self._keys.insert(idx, p)
            self._points.insert(idx, (p, node))

    def remove(self, node: str) -> None:
        """Take ``node`` off the ring (idempotent)."""
        points = self._nodes.pop(node, None)
        if points is None:
            return
        remaining = [(p, n) for p, n in self._points if n != node]
        self._points = remaining
        self._keys = [p for p, _ in remaining]

    # ------------------------------------------------------------------
    def node_for(self, key: str) -> Optional[str]:
        """The home node of ``key``: first node point clockwise from the
        key's hash.  ``None`` on an empty ring."""
        if not self._points:
            return None
        idx = bisect.bisect(self._keys, _point(key)) % len(self._points)
        return self._points[idx][1]

    def preference(self, key: str) -> List[str]:
        """All distinct nodes in ring order starting at the key's home —
        the reroute order when breakers are open: ``preference(k)[0]``
        is the home shard, ``[1]`` its first hash-ring successor, and so
        on.  Deterministic per key, so rerouted traffic for one key
        always lands on the same successor (cache locality survives the
        fault)."""
        if not self._points:
            return []
        start = bisect.bisect(self._keys, _point(key))
        seen: Dict[str, None] = {}
        n = len(self._points)
        for i in range(n):
            node = self._points[(start + i) % n][1]
            if node not in seen:
                seen[node] = None
                if len(seen) == len(self._nodes):
                    break
        return list(seen)

    def assign(self, weights: Dict[str, float],
               epsilon: float = 0.05) -> Dict[str, str]:
        """Bounded-load placement (consistent hashing with bounded
        loads): every key goes to the *first node in its*
        :meth:`preference` *order* whose accumulated weight stays within
        ``(1 + epsilon)`` times its fair share of the total; a key no
        node can take within the bound lands on the least-loaded node
        in its preference order.

        Pure arc-based homes leave the busiest of N shards well above
        1/N of the load (ring-arc variance plus key-sampling noise —
        with a few hundred cluster keys the busiest of 4 shards draws
        ~28% of the keyspace even at 1024 virtual nodes), which caps
        fleet throughput scaling at the busiest shard.  The bound trims
        exactly that tail while keeping the ring in charge: most keys
        stay on their arc home, displaced keys walk the same successor
        order reroutes use, and the placement is deterministic — keys
        are placed heaviest-first with the key itself as tie-break, no
        RNG — so every rebuild of the same file lands every cluster on
        the same worker.
        """
        if not self._nodes:
            return {}
        total = sum(weights.values())
        cap = (1.0 + epsilon) * total / len(self._nodes)
        load = {node: 0.0 for node in self._nodes}
        homes: Dict[str, str] = {}
        for key in sorted(weights, key=lambda k: (-weights[k], k)):
            w = weights[key]
            pref = self.preference(key)
            node = next(
                (n for n in pref if load[n] + w <= cap), None)
            if node is None:
                # min() is stable: ties resolve to the earliest node in
                # preference order, keeping the fallback deterministic.
                node = min(pref, key=lambda n: load[n])
            homes[key] = node
            load[node] += w
        return homes

    def shares(self, keys: Iterable[str]) -> Dict[str, int]:
        """How many of ``keys`` each node is home to (diagnostics; the
        fleet status report surfaces it per file)."""
        out = {node: 0 for node in self._nodes}
        for key in keys:
            node = self.node_for(key)
            if node is not None:
                out[node] += 1
        return out
