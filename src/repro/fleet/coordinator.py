"""The fleet coordinator: one asyncio front door, N worker daemons.

The PR-3 daemon already scales *within* one process: per-file locks,
an LRU of file states, a fingerprint-keyed cluster store.  The fleet
scales *across* processes with the same protocol end to end — a client
cannot tell a coordinator from a single daemon except by asking
(``ping`` answers ``role: coordinator``), and a healthy response is the
worker's bytes forwarded verbatim, which is how the fleet bench checks
bit-identity against a lone daemon.

Routing is by **cluster payload fingerprint**
(:func:`~repro.core.shipping.cluster_fingerprints`): the coordinator
parses and bootstraps each served file once — partitioning and
clustering only, never the expensive per-cluster FSCS — and maps every
pointer to the fingerprint of its primary cluster.  A ``points_to p``
lands on the consistent-hash home of *p's cluster key*, which is also
the worker whose summary cache is warm for that cluster, because the
fingerprint **is** the cache key.  Homes are refined per file with
bounded loads (:meth:`HashRing.assign`, weights = pointers per
cluster): no shard carries more than ``(1 + balance_epsilon)`` times
its fair share of a file's query traffic, so warm throughput scales
with the fleet instead of with the luckiest arc.  Whole-file queries
(diagnostics,
taint, leaks, deadlocks) route by a digest over all of the file's
fingerprints, so one worker owns each file's full-program passes.

Every worker is an *unmodified* daemon holding complete per-file state;
routing buys cache locality, not correctness, so any worker can answer
any query and rerouting is always sound.  The failure path:

* a worker failure (connect error, dropped connection, timeout) is
  recorded on that shard's :class:`~repro.core.resilience.CircuitBreaker`
  — the PR-5 pool-level fuse promoted to shard level with a
  ``reset_timeout`` so it can heal;
* while a breaker is open the shard's whole key range reroutes along
  the hash ring's successor order (``preference(key)[1:]``), and every
  rerouted answer is tagged with a ``fleet`` envelope
  (``rerouted: true``, the home shard it was moved off).  Tagged
  answers follow the resilience ladder's tagged-never-cached
  discipline: the envelope is attached on the way out and stored
  nowhere;
* the probe loop respawns dead spawned workers and sends one ping per
  ``reset_timeout`` window through half-open breakers; a success closes
  the breaker and the shard's key range snaps home, where the worker
  re-warms from the shared on-disk summary cache instead of recomputing
  the world.

Back-pressure is explicit: admission control
(:class:`~repro.fleet.admission.AdmissionController`) bounds global and
per-shard in-flight counts and rejects the excess with structured
``OVERLOADED`` errors — the front door never queues unboundedly and
never stalls a client silently.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import threading
import time
from collections import ChainMap, OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core import BootstrapAnalyzer, CircuitBreaker, cluster_fingerprints
from ..core.queries import resolve_pointer
from ..errors import ReproError
from ..server import protocol
from ..server.protocol import PROTOCOL_VERSION, RequestError
from ..server.store import ServerConfig
from .admission import AdmissionController, AdmissionError
from .journal import CoordinatorJournal
from .respawn import RespawnGovernor
from .ring import DEFAULT_REPLICAS, HashRing
from .worker import LocalWorker, WorkerError, WorkerLink, parse_worker_addr

#: Methods the coordinator answers itself (no worker round-trip).
_LOCAL_METHODS = frozenset({"ping", "stats", "fleet_status", "shutdown"})

#: Which request parameter names the routing pointer per method; methods
#: absent here route by the whole file's key.
_POINTER_PARAM = {"points_to": "ptr", "alias": "p", "must_alias": "p"}


@dataclass
class FleetConfig:
    """Fleet-level knobs; ``server`` carries the per-worker analysis
    knobs (spawned workers are started with matching ``repro serve``
    flags, so every shard computes identical answers)."""

    #: How many local workers to spawn (ignored when ``worker_addrs``
    #: names externally managed daemons).
    workers: int = 2
    #: Externally managed workers as ``host:port`` strings.
    worker_addrs: List[str] = field(default_factory=list)
    replicas: int = DEFAULT_REPLICAS
    #: Bounded-load slack for :meth:`HashRing.assign`: no shard's
    #: cluster-weight share of a file exceeds ``(1 + epsilon) / N``.
    balance_epsilon: float = 0.05
    conns_per_worker: int = 2
    max_inflight: int = 1024
    max_per_shard: int = 256
    #: Shard breaker: consecutive failures to trip, seconds until the
    #: open breaker turns half-open and admits a heal probe.
    breaker_threshold: int = 3
    breaker_reset: float = 2.0
    worker_timeout: float = 300.0
    probe_interval: float = 0.25
    #: Respawn dead spawned workers (healing); addressed workers are
    #: never respawned, only probed.
    respawn: bool = True
    #: Respawn pacing: consecutive deaths back off exponentially from
    #: ``respawn_backoff`` up to ``respawn_max_backoff``; a worker that
    #: dies ``crash_loop_threshold`` times inside ``crash_loop_window``
    #: seconds is parked (never respawned again) with its shards
    #: rerouted, instead of fork/exec-ing in a hot loop.
    respawn_backoff: float = 0.5
    respawn_max_backoff: float = 30.0
    crash_loop_threshold: int = 5
    crash_loop_window: float = 30.0
    #: Hedged queries: when the home shard sits on a warm query past
    #: the p95-derived hedge delay, duplicate it to the ring successor
    #: — first answer wins, the loser is cancelled, and the winner is
    #: tagged ``hedged`` in the envelope.  Hedges are rate-capped to
    #: ``hedge_max_fraction`` of hedge-eligible traffic; the delay is
    #: the p95 of the last ``hedge_window`` primary latencies (at least
    #: ``hedge_min_delay``) once ``hedge_min_observations`` are in.
    hedge: bool = False
    hedge_max_fraction: float = 0.05
    hedge_min_delay: float = 0.05
    hedge_window: int = 128
    hedge_min_observations: int = 20
    #: Crash-safe coordinator state: a directory for the checksummed
    #: journal + snapshot (``None`` keeps the coordinator memory-only).
    #: Served files and observed per-key query weights survive a
    #: coordinator kill, so a restart rebuilds its routing warm.
    journal_dir: Optional[str] = None
    journal_compact_every: int = 256
    #: Journal the observed weights of a file every this many queries.
    weights_flush_every: int = 32
    #: Attach the fleet envelope to every response, not only rerouted
    #: ones (diagnostics; defeats the verbatim-forward fast path).
    envelope_all: bool = False
    spawn_timeout: float = 60.0
    drain_grace: float = 10.0
    server: ServerConfig = field(default_factory=ServerConfig)

    def serve_args(self) -> List[str]:
        """``repro serve`` flags reproducing ``self.server`` in a
        spawned worker."""
        cfg = self.server
        args = ["--entry", cfg.entry, "--threshold", str(cfg.threshold),
                "--clustering", cfg.clustering,
                "--sharing-bound", str(cfg.sharing_bound),
                "--parts", str(cfg.parts), "--backend", cfg.backend,
                "--scheduler", cfg.scheduler,
                "--max-files", str(cfg.max_files),
                "--max-clusters", str(cfg.max_clusters),
                "--max-request-bytes", str(cfg.max_request_bytes),
                "--retries", str(cfg.retries)]
        if cfg.oneflow:
            args.append("--oneflow")
        if cfg.cutshortcut:
            args.append("--cutshortcut")
        if cfg.jobs is not None:
            args += ["--jobs", str(cfg.jobs)]
        if cfg.cache_dir is not None:
            args += ["--cache", cfg.cache_dir]
        if cfg.fscs_budget is not None:
            args += ["--fscs-budget", str(cfg.fscs_budget)]
        if cfg.cluster_timeout is not None:
            args += ["--cluster-timeout", str(cfg.cluster_timeout)]
        if cfg.degrade:
            args.append("--degrade")
        if not cfg.watch:
            args.append("--no-watch")
        return args


class _Shard:
    """One worker as the coordinator sees it: link + breaker (+ the
    subprocess handle when the coordinator spawned it)."""

    def __init__(self, name: str, link: WorkerLink,
                 breaker: CircuitBreaker,
                 local: Optional[LocalWorker] = None) -> None:
        self.name = name
        self.link = link
        self.breaker = breaker
        self.local = local
        self.rerouted_in = 0   # answers served here for other shards
        self.rerouted_out = 0  # home traffic served elsewhere
        self.heals = 0

    def status(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "state": self.breaker.state(),
            "trips": self.breaker.trips,
            "heals": self.heals,
            "rerouted_in": self.rerouted_in,
            "rerouted_out": self.rerouted_out,
            "link": self.link.stats(),
        }
        if self.local is not None:
            out["spawned"] = True
            out["pid"] = self.local.pid
            out["alive"] = self.local.alive
            out["spawns"] = self.local.spawns
        else:
            out["spawned"] = False
        return out


class RoutingState:
    """Per-file shard keys: the cheap front half of the bootstrap.

    Parsing + Steensgaard + Andersen clustering cost a small fraction
    of the per-cluster FSCS the workers run, and yield exactly the
    payload fingerprints ``analyze_all`` would compute — so the
    coordinator knows every cluster's cache identity without ever
    paying for its analysis, and the first query for a cluster pays the
    FSCS once, on the key's home worker.
    """

    def __init__(self, path: str, stat: os.stat_result, program: Any,
                 fingerprints: List[str],
                 pointer_key: Dict[str, str],
                 content_keys: Dict[str, str]) -> None:
        self.path = path
        self.mtime_ns = stat.st_mtime_ns
        self.size = stat.st_size
        self.program = program
        self.fingerprints = fingerprints
        self.pointer_key = pointer_key
        #: Content key -> fingerprint for this file's clusters: the
        #: ``known`` map the next build for this path starts from, so a
        #: rebuild after an edit encodes only the clusters it changed.
        self.content_keys = content_keys
        self.file_key = "file:" + hashlib.sha256(
            "\n".join(fingerprints).encode("utf-8")).hexdigest()
        #: key → home worker, filled in by :meth:`assign_homes` once
        #: the coordinator's ring is known; empty means pure ring homes.
        self.homes: Dict[str, str] = {}

    @classmethod
    def build(cls, path: str, config: ServerConfig,
              previous: Optional["RoutingState"] = None) -> "RoutingState":
        """Parse and cluster ``path``.  ``previous`` is the state this
        one replaces: clusters whose content keys it knows take their
        fingerprints from it instead of encoding a payload.  The new
        state keeps only its own clusters' keys, so the map stays
        bounded by the file's cluster count."""
        from ..frontend import parse_program
        st = os.stat(path)
        with open(path, "r") as handle:
            source = handle.read()
        program = parse_program(source, entry=config.entry, path=path)
        result = BootstrapAnalyzer(program,
                                   config.bootstrap_config()).run()
        content_keys: Dict[str, str] = {}
        fps = cluster_fingerprints(
            program, result.clusters, result.callgraph,
            max_cond_atoms=config.max_cond_atoms,
            budget=config.fscs_budget,
            known=ChainMap(content_keys, previous.content_keys
                           if previous is not None else {}))
        pointer_key: Dict[str, str] = {}
        for cluster, fp in zip(result.clusters, fps):
            for var in cluster.members:
                pointer_key.setdefault(str(var), fp)
        return cls(path, st, program, fps, pointer_key, content_keys)

    def assign_homes(self, ring: HashRing, epsilon: float,
                     observed: Optional[Dict[str, int]] = None) -> None:
        """Balance this file's cluster keys over ``ring`` with bounded
        loads.  A key's weight is how many of the file's pointers route
        through it — exactly the per-key query load — plus any
        ``observed`` per-key query counts (live counters, or the
        journal's recovered weights after a coordinator restart), which
        refine the static estimate with how traffic actually skews.
        Deterministic: rebuilding the same file with the same observed
        counts recreates the same placement."""
        weights: Dict[str, float] = {fp: 0.0 for fp in self.fingerprints}
        for fp in self.pointer_key.values():
            weights[fp] = weights.get(fp, 0.0) + 1.0
        if observed:
            for fp, count in observed.items():
                if fp in weights:
                    weights[fp] += float(count)
        self.homes = ring.assign(weights, epsilon=epsilon)
        self.homes.setdefault(self.file_key,
                              ring.node_for(self.file_key) or "")

    def stale(self) -> bool:
        try:
            st = os.stat(self.path)
        except OSError:
            return True
        return (st.st_mtime_ns != self.mtime_ns
                or st.st_size != self.size)

    def key_for_pointer(self, name: str) -> Optional[str]:
        try:
            var = resolve_pointer(self.program, name)
        except LookupError:
            return None
        return self.pointer_key.get(str(var))


class FleetCoordinator:
    """Route fleet traffic; own the local workers' lifecycle."""

    def __init__(self, config: Optional[FleetConfig] = None,
                 host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 socket_path: Optional[str] = None) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("pass exactly one of socket_path or port")
        self.config = config or FleetConfig()
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.ring = HashRing(replicas=self.config.replicas)
        self.shards: Dict[str, _Shard] = {}
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_per_shard=self.config.max_per_shard)
        self.started = time.time()
        self.reroutes = 0
        self.respawns = 0
        self.deadline_sheds = 0
        self.hedges = 0
        self.hedges_won = 0
        self._hedge_eligible = 0
        self._latencies: Deque[float] = deque(
            maxlen=self.config.hedge_window)
        self.governor = RespawnGovernor(
            backoff=self.config.respawn_backoff,
            max_backoff=self.config.respawn_max_backoff,
            window=self.config.crash_loop_window,
            threshold=self.config.crash_loop_threshold)
        self.journal: Optional[CoordinatorJournal] = None
        if self.config.journal_dir is not None:
            self.journal = CoordinatorJournal(
                self.config.journal_dir,
                compact_every=self.config.journal_compact_every)
        self.recovered: Dict[str, Any] = {}
        self._errors = 0
        self._method_count: Dict[str, int] = {}
        self._routing: "OrderedDict[str, RoutingState]" = OrderedDict()
        self._routing_locks: Dict[str, asyncio.Lock] = {}
        #: path -> cluster key -> queries observed (journaled so a
        #: restarted coordinator re-places keys by real traffic).
        self._query_counts: Dict[str, Dict[str, int]] = {}
        self._weight_dirty: Dict[str, int] = {}
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"

    def serve_forever(self, install_signal_handlers: bool = True,
                      ready: Optional[threading.Event] = None) -> None:
        """Spawn the workers, serve until shut down, then drain.

        ``ready`` (for in-process embedding: tests, the bench) is set
        once the front door is bound — ``self.port`` resolves the
        kernel-chosen port first.
        """
        asyncio.run(self._main(install_signal_handlers, ready))

    def request_shutdown(self) -> None:
        """Stop and drain; safe from any thread or a signal handler."""
        self._draining = True
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def _main(self, install_signal_handlers: bool,
                    ready: Optional[threading.Event]) -> None:
        self._loop = asyncio.get_event_loop()
        self._stop = asyncio.Event()
        if install_signal_handlers:
            import signal
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(
                        sig, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    break
        await self._start_workers()
        await self._recover_from_journal()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path)
        else:
            server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port)
            self.port = server.sockets[0].getsockname()[1]
        probe_task = self._loop.create_task(self._probe_loop())
        try:
            if ready is not None:
                ready.set()
            await self._stop.wait()
        finally:
            self._draining = True
            server.close()
            await server.wait_closed()
            await self._wait_for_drain()
            probe_task.cancel()
            try:
                await probe_task
            except asyncio.CancelledError:
                pass
            await self._stop_workers()
            if self.socket_path is not None:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass

    async def _recover_from_journal(self) -> None:
        """Warm restart: replay the journal's served files and observed
        weights, then rebuild each file's routing state (best effort —
        a file deleted while the coordinator was down just drops out)
        before the front door opens, so the first post-crash query
        routes exactly where the pre-crash coordinator would have sent
        it."""
        if self.journal is None:
            return
        t0 = time.perf_counter()
        files, weights = self.journal.load()
        self._query_counts = {path: dict(counts)
                              for path, counts in weights.items()}
        rebuilt = 0
        for path in files:
            if await self._routing_state(path) is not None:
                rebuilt += 1
        self.recovered = {
            "files": len(files),
            "rebuilt": rebuilt,
            "weighted_keys": sum(len(c) for c in weights.values()),
            "seconds": time.perf_counter() - t0,
        }

    async def _wait_for_drain(self) -> None:
        deadline = time.monotonic() + self.config.drain_grace
        while self.admission.inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)

    async def _start_workers(self) -> None:
        conf = self.config
        if conf.worker_addrs:
            for i, arg in enumerate(conf.worker_addrs):
                host, port = parse_worker_addr(arg)
                self._add_shard(f"w{i}", host, port, local=None)
            return
        if conf.workers < 1:
            raise ValueError("a fleet needs at least one worker")
        locals_ = [LocalWorker(f"w{i}", serve_args=conf.serve_args(),
                               spawn_timeout=conf.spawn_timeout)
                   for i in range(conf.workers)]
        loop = asyncio.get_event_loop()
        addrs = await asyncio.gather(*[
            loop.run_in_executor(None, w.spawn) for w in locals_])
        for worker, (host, port) in zip(locals_, addrs):
            self._add_shard(worker.name, host, port, local=worker)

    def _add_shard(self, name: str, host: str, port: int,
                   local: Optional[LocalWorker]) -> None:
        link = WorkerLink(name, host, port,
                          conns=self.config.conns_per_worker,
                          timeout=self.config.worker_timeout)
        breaker = CircuitBreaker(self.config.breaker_threshold,
                                 reset_timeout=self.config.breaker_reset)
        self.shards[name] = _Shard(name, link, breaker, local=local)
        self.ring.add(name)

    async def _stop_workers(self) -> None:
        loop = asyncio.get_event_loop()
        for shard in self.shards.values():
            await shard.link.close()
        await asyncio.gather(*[
            loop.run_in_executor(None, shard.local.terminate)
            for shard in self.shards.values() if shard.local is not None])

    # ------------------------------------------------------------------
    # healing
    # ------------------------------------------------------------------
    async def _probe_loop(self) -> None:
        """Respawn dead spawned workers — paced by the
        :class:`RespawnGovernor`'s backoff and crash-loop breaker — and
        ping through half-open breakers.  A probe success closes the
        breaker: the shard's key range snaps back home and re-warms
        from the shared disk cache.  A parked worker is neither
        respawned nor probed; its keys stay rerouted."""
        ping = protocol.encode({"id": "fleet-probe", "method": "ping",
                                "v": PROTOCOL_VERSION})
        loop = asyncio.get_event_loop()
        while True:
            await asyncio.sleep(self.config.probe_interval)
            for shard in self.shards.values():
                local = shard.local
                if local is not None and not local.alive:
                    self.governor.note_death(shard.name, local.spawns)
                if not shard.breaker.is_open:
                    continue
                if self.governor.is_parked(shard.name):
                    continue
                if local is not None and not local.alive \
                        and self.config.respawn:
                    if not self.governor.may_respawn(shard.name):
                        continue
                    try:
                        host, port = await loop.run_in_executor(
                            None, local.spawn)
                    except WorkerError:
                        shard.breaker.record_failure()
                        continue
                    shard.link.set_address(host, port)
                    self.respawns += 1
                if not shard.breaker.allow_probe():
                    continue
                try:
                    await shard.link.call_raw(ping, timeout=5.0)
                except WorkerError:
                    shard.breaker.record_failure()
                else:
                    shard.breaker.record_success()
                    shard.heals += 1
                    self.governor.note_settled(shard.name)

    # ------------------------------------------------------------------
    # front door
    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """One client connection: the daemon's line loop, async.

        Requests on one connection are handled in order (same semantics
        as the daemon's per-connection thread); concurrency comes from
        concurrent connections.  Oversized lines get a structured error
        and the stream resyncs at the next newline, exactly like the
        threaded daemon.

        Dispatch races against the connection itself: the handler keeps
        one read pending while a request is in flight, so a client that
        disconnects mid-request *cancels* the dispatch — its admission
        token is released in ``_route``'s ``finally`` and any in-flight
        worker future is abandoned (the link's FIFO guard discards the
        late response) — instead of the abandoned query holding fleet
        capacity until a timeout.
        """
        max_bytes = self.config.server.max_request_bytes
        buf = b""
        discarding = False
        too_large = protocol.encode(protocol.err(
            None, protocol.REQUEST_TOO_LARGE,
            f"request line exceeds {max_bytes} bytes",
            {"max_request_bytes": max_bytes}))
        read_task: Optional[asyncio.Task] = None
        dispatch_task: Optional[asyncio.Task] = None
        try:
            while True:
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if discarding:
                        discarding = False
                        continue
                    if not line.strip():
                        continue
                    if len(line) > max_bytes:
                        writer.write(too_large)
                        await writer.drain()
                        continue
                    dispatch_task = asyncio.ensure_future(
                        self.dispatch_line(line))
                    while not dispatch_task.done():
                        # Read-ahead doubles as disconnect detection,
                        # but stops once the buffer is oversized — the
                        # flood waits (backpressure) for the in-flight
                        # response rather than growing memory.
                        if read_task is None and len(buf) <= max_bytes:
                            read_task = asyncio.ensure_future(
                                reader.read(65536))
                        waiting = {dispatch_task}
                        if read_task is not None:
                            waiting.add(read_task)
                        await asyncio.wait(
                            waiting,
                            return_when=asyncio.FIRST_COMPLETED)
                        if read_task is not None and read_task.done():
                            chunk = read_task.result()
                            read_task = None
                            if not chunk:
                                # Client gone mid-request: abandon the
                                # dispatch; nobody is owed the answer.
                                dispatch_task.cancel()
                                try:
                                    await dispatch_task
                                except asyncio.CancelledError:
                                    pass
                                dispatch_task = None
                                return
                            buf += chunk
                    response = dispatch_task.result()
                    dispatch_task = None
                    writer.write(response)
                    await writer.drain()
                if not discarding and len(buf) > max_bytes:
                    writer.write(too_large)
                    await writer.drain()
                    buf = b""
                    discarding = True
                if read_task is None:
                    read_task = asyncio.ensure_future(
                        reader.read(65536))
                chunk = await read_task
                read_task = None
                if not chunk:
                    return
                buf += chunk
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        except asyncio.CancelledError:
            # Loop teardown mid-connection (shutdown path): end the
            # handler quietly, the front server is already closed.
            return
        finally:
            for task in (read_task, dispatch_task):
                if task is not None and not task.done():
                    task.cancel()
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    async def dispatch_line(self, line: bytes) -> bytes:
        """One wire frame in, one wire frame out (the coordinator's
        analogue of ``AliasServer.handle_line``)."""
        request_id: Any = None
        try:
            request = protocol.decode(line)
            request_id = request.get("id")
            request_id, method, params = \
                protocol.validate_request(request)
            deadline = protocol.request_deadline(request)
        except RequestError as exc:
            self._errors += 1
            return protocol.encode(protocol.err(
                request_id, exc.code, str(exc), exc.data))
        self._method_count[method] = \
            self._method_count.get(method, 0) + 1
        budget = protocol.remaining(deadline)
        if budget is not None and budget <= 0:
            # Expired before routing even starts: shed, don't route.
            return self._shed(request_id, deadline)
        if self._draining and method not in ("stats", "fleet_status"):
            self._errors += 1
            return protocol.encode(protocol.err(
                request_id, protocol.SHUTTING_DOWN,
                "coordinator is shutting down"))
        if method in _LOCAL_METHODS:
            return await self._handle_local(request_id, method)
        return await self._route(request, request_id, method, params,
                                 deadline=deadline)

    def _shed(self, request_id: Any, deadline: float) -> bytes:
        self._errors += 1
        self.deadline_sheds += 1
        return protocol.encode(protocol.deadline_err(
            request_id, deadline, "coordinator"))

    # ------------------------------------------------------------------
    # local methods
    # ------------------------------------------------------------------
    async def _handle_local(self, request_id: Any, method: str) -> bytes:
        if method == "ping":
            result: Any = {"pong": True, "role": "coordinator",
                           "protocol": PROTOCOL_VERSION,
                           "pid": os.getpid(),
                           "workers": len(self.shards)}
        elif method == "fleet_status":
            result = self.fleet_status()
        elif method == "stats":
            result = await self._aggregate_stats()
        else:  # shutdown
            self.request_shutdown()
            result = {"shutting_down": True}
        return protocol.encode(protocol.ok(request_id, result))

    def fleet_status(self) -> Dict[str, Any]:
        files = {}
        for path, rs in self._routing.items():
            shares = {node: 0 for node in self.ring.nodes()}
            for fp in rs.fingerprints:
                node = rs.homes.get(fp) or self.ring.node_for(fp)
                if node:
                    shares[node] += 1
            files[path] = {
                "clusters": len(rs.fingerprints),
                "file_key_home": rs.homes.get(rs.file_key)
                or self.ring.node_for(rs.file_key),
                "shares": shares,
            }
        workers = {}
        for name, shard in sorted(self.shards.items()):
            status = shard.status()
            status["respawn"] = self.governor.status(name)
            workers[name] = status
        out = {
            "role": "coordinator",
            "protocol": PROTOCOL_VERSION,
            "address": self.address,
            "draining": self._draining,
            "uptime_seconds": time.time() - self.started,
            "ring": {"nodes": self.ring.nodes(),
                     "replicas": self.ring.replicas},
            "workers": workers,
            "admission": self.admission.stats(),
            "requests": dict(sorted(self._method_count.items())),
            "errors": self._errors,
            "reroutes": self.reroutes,
            "respawns": self.respawns,
            "deadline_sheds": self.deadline_sheds,
            "hedging": {
                "enabled": self.config.hedge,
                "issued": self.hedges,
                "won": self.hedges_won,
                "eligible": self._hedge_eligible,
                "rate": (self.hedges / self._hedge_eligible
                         if self._hedge_eligible else 0.0),
                "delay": self._hedge_delay(),
            },
            "files": files,
        }
        if self.journal is not None:
            journal = self.journal.stats()
            if self.recovered:
                journal["recovered"] = self.recovered
            out["journal"] = journal
        return out

    async def _aggregate_stats(self) -> Dict[str, Any]:
        async def one(shard: _Shard) -> Tuple[str, Any]:
            frame = protocol.encode({"id": "fleet-stats",
                                     "method": "stats",
                                     "v": PROTOCOL_VERSION})
            try:
                raw = await shard.link.call_raw(frame, timeout=30.0)
                return shard.name, protocol.decode(raw).get("result")
            except (WorkerError, RequestError) as exc:
                return shard.name, {"error": str(exc)}

        pairs = await asyncio.gather(
            *[one(s) for s in self.shards.values()])
        return {
            "role": "coordinator",
            "protocol": PROTOCOL_VERSION,
            "coordinator": {
                "uptime_seconds": time.time() - self.started,
                "requests": dict(sorted(self._method_count.items())),
                "errors": self._errors,
                "reroutes": self.reroutes,
                "respawns": self.respawns,
                "admission": self.admission.stats(),
            },
            "workers": dict(sorted(pairs)),
        }

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _routing_state(self, path: str, rebuild: bool = False
                             ) -> Optional[RoutingState]:
        """The (possibly rebuilt) routing state for ``path``; ``None``
        when the file cannot be parsed — the request still routes (by a
        path-derived key) so the *worker* produces the same structured
        error a single daemon would.  ``rebuild`` forces a rebuild even
        when the file looks unchanged (``invalidate``)."""
        lock = self._routing_locks.setdefault(path, asyncio.Lock())
        async with lock:
            previous = self._routing.get(path)
            if previous is not None and not rebuild \
                    and not previous.stale():
                self._routing.move_to_end(path)
                return previous
            loop = asyncio.get_event_loop()
            try:
                rs = await loop.run_in_executor(
                    None, RoutingState.build, path,
                    self.config.server, previous)
            except (ReproError, OSError, RequestError):
                self._routing.pop(path, None)
                return None
            rs.assign_homes(self.ring, self.config.balance_epsilon,
                            observed=self._query_counts.get(path))
            if self.journal is not None:
                self.journal.record_file(path)
            self._routing[path] = rs
            self._routing.move_to_end(path)
            while len(self._routing) > self.config.server.max_files:
                dropped, _ = self._routing.popitem(last=False)
                self._routing_locks.pop(dropped, None)
            return rs

    async def _shard_key(self, method: str,
                         params: Dict[str, Any]) -> Tuple[str,
                                                          Optional[str]]:
        """``(key, home)`` for a request: ``home`` is the bounded-load
        placement's pick when the key belongs to a routed file, ``None``
        when only the pure ring home applies (fileless or unparseable
        requests)."""
        file_param = params.get("file")
        if not isinstance(file_param, str) or not file_param:
            # Fileless or malformed: deterministic key so the worker's
            # own validation error is served consistently.
            return f"method:{method}", None
        path = os.path.abspath(file_param)
        rebuild = method == "invalidate"
        if rebuild:
            # Rebuild our map too — the file's cluster keys are about to
            # change.  The journal forgets the weights with the keys
            # (they name fingerprints that no longer exist).
            self._query_counts.pop(path, None)
            self._weight_dirty.pop(path, None)
            if self.journal is not None:
                self.journal.forget_file(path)
        rs = await self._routing_state(path, rebuild=rebuild)
        if rs is None:
            return "path:" + path, None
        pointer_param = _POINTER_PARAM.get(method)
        if pointer_param is not None:
            name = params.get(pointer_param)
            if isinstance(name, str) and name:
                key = rs.key_for_pointer(name)
                if key is not None:
                    self._note_query(path, key)
                    return key, rs.homes.get(key)
        self._note_query(path, rs.file_key)
        return rs.file_key, rs.homes.get(rs.file_key)

    def _note_query(self, path: str, key: str) -> None:
        """Count one query against ``path``'s ``key``; journal the
        file's counts every ``weights_flush_every`` hits so a restarted
        coordinator re-places keys by observed traffic."""
        counts = self._query_counts.setdefault(path, {})
        counts[key] = counts.get(key, 0) + 1
        if self.journal is None:
            return
        dirty = self._weight_dirty.get(path, 0) + 1
        if dirty >= self.config.weights_flush_every:
            self._weight_dirty[path] = 0
            self.journal.record_weights(path, counts)
        else:
            self._weight_dirty[path] = dirty

    def _call_timeout(self, budget: Optional[float]) -> float:
        """The worker-call timeout: the configured bound, tightened to
        the request's remaining budget (plus a small grace so the
        worker's own deadline shed — a valid, structured answer —
        normally wins the race against our timer)."""
        timeout = self.config.worker_timeout
        if budget is not None:
            timeout = min(timeout, budget + 0.05)
        return timeout

    def _hedge_delay(self) -> Optional[float]:
        """How long a warm query may sit on its home shard before a
        hedge fires: the p95 of recent primary latencies, floored at
        ``hedge_min_delay``; ``None`` until enough observations."""
        lat = sorted(self._latencies)
        if len(lat) < self.config.hedge_min_observations:
            return None
        p95 = lat[min(len(lat) - 1, int(0.95 * len(lat)))]
        return max(self.config.hedge_min_delay, p95)

    def _hedge_allowed(self) -> bool:
        """Rate cap: hedges issued stay within ``hedge_max_fraction``
        of hedge-eligible traffic."""
        return (self.hedges + 1) <= (self.config.hedge_max_fraction
                                     * self._hedge_eligible)

    async def _call_hedged(self, primary: "_Shard", pref: List[str],
                           frame: bytes, timeout: float,
                           request_id: Any
                           ) -> Tuple[bytes, str, bool]:
        """One primary call with tail hedging: if the primary sits past
        the hedge delay, duplicate the frame to the first healthy ring
        successor; first answer wins and the loser is cancelled (safe —
        the link's FIFO guard discards an abandoned future's late
        response without misaligning the connection).

        Returns ``(raw, winner_name, hedged_won)``.  Raises
        :class:`WorkerError` only when every issued call failed;
        breaker accounting for *failed* calls happens here (a merely
        slow, cancelled loser is not a failure).
        """
        self._hedge_eligible += 1
        task = asyncio.ensure_future(
            primary.link.call_raw(frame, timeout=timeout,
                                  expect_id=request_id))
        delay = self._hedge_delay()
        t0 = time.monotonic()
        if delay is not None:
            try:
                raw = await asyncio.wait_for(asyncio.shield(task), delay)
                self._latencies.append(time.monotonic() - t0)
                return raw, primary.name, False
            except asyncio.TimeoutError:
                pass
            except asyncio.CancelledError:
                # The caller (a disconnected client) is gone: the
                # shield kept the task alive through wait_for, so
                # cancel it explicitly before propagating.
                task.cancel()
                raise
            except WorkerError:
                primary.breaker.record_failure()
                raise
        else:
            # Not enough latency history yet: plain call, observe it.
            try:
                raw = await task
            except WorkerError:
                primary.breaker.record_failure()
                raise
            self._latencies.append(time.monotonic() - t0)
            return raw, primary.name, False
        hedge_shard = None
        if self._hedge_allowed():
            for name in pref[1:]:
                candidate = self.shards.get(name)
                if candidate is not None \
                        and not candidate.breaker.is_open:
                    hedge_shard = candidate
                    break
        if hedge_shard is None:
            # Capped out (or nowhere to hedge): ride the primary.
            try:
                raw = await task
            except WorkerError:
                primary.breaker.record_failure()
                raise
            self._latencies.append(time.monotonic() - t0)
            return raw, primary.name, False
        self.hedges += 1
        hedge_task = asyncio.ensure_future(
            hedge_shard.link.call_raw(frame, timeout=timeout,
                                      expect_id=request_id))
        tasks = {task: primary, hedge_task: hedge_shard}
        pending = set(tasks)
        last_error: Optional[WorkerError] = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED)
                for finished in done:
                    shard = tasks[finished]
                    try:
                        raw = finished.result()
                    except WorkerError as exc:
                        shard.breaker.record_failure()
                        last_error = exc
                        continue
                    if finished is task:
                        self._latencies.append(time.monotonic() - t0)
                        return raw, primary.name, False
                    self.hedges_won += 1
                    return raw, hedge_shard.name, True
            raise last_error or WorkerError("hedged call failed")
        finally:
            for leftover in pending:
                leftover.cancel()

    async def _route(self, request: Dict[str, Any], request_id: Any,
                     method: str, params: Dict[str, Any],
                     deadline: Optional[float] = None) -> bytes:
        key, placed = await self._shard_key(method, params)
        budget = protocol.remaining(deadline)
        if budget is not None and budget <= 0:
            # Expired while the routing state was (re)built — the
            # coordinator's queue time — so shed before touching a
            # worker.
            return self._shed(request_id, deadline)
        pref = self.ring.preference(key)
        if placed is not None and placed in self.shards \
                and pref and pref[0] != placed:
            # Bounded-load placement moved this key off its arc home;
            # reroutes still walk the ring's successor order.
            pref = [placed] + [n for n in pref if n != placed]
        home = pref[0]
        try:
            self.admission.admit(home)
        except AdmissionError as exc:
            self._errors += 1
            return protocol.encode(protocol.err(
                request_id, exc.code, str(exc), exc.data))
        stamped = dict(request)
        stamped["v"] = PROTOCOL_VERSION
        frame = protocol.encode(stamped)
        last_error: Optional[Exception] = None
        try:
            for i, name in enumerate(pref):
                shard = self.shards[name]
                if shard.breaker.is_open:
                    last_error = last_error or WorkerError(
                        f"shard {name} circuit breaker is open")
                    continue
                budget = protocol.remaining(deadline)
                if budget is not None and budget <= 0:
                    return self._shed(request_id, deadline)
                timeout = self._call_timeout(budget)
                hedged = False
                try:
                    if i == 0 and self.config.hedge:
                        raw, winner, hedged = await self._call_hedged(
                            shard, pref, frame, timeout, request_id)
                    else:
                        raw = await shard.link.call_raw(
                            frame, timeout=timeout,
                            expect_id=request_id)
                        winner = name
                except WorkerError as exc:
                    if protocol.remaining(deadline) is not None \
                            and protocol.remaining(deadline) <= 0:
                        # The budget elapsed, not the worker's fault:
                        # shed without blaming the shard's breaker
                        # (``_call_hedged`` records real failures
                        # itself before raising).
                        return self._shed(request_id, deadline)
                    if not (i == 0 and self.config.hedge):
                        shard.breaker.record_failure()
                    last_error = exc
                    continue
                self.shards[winner].breaker.record_success()
                if i == 0 and not hedged \
                        and not self.config.envelope_all:
                    # Fast path: the worker's bytes, verbatim.
                    return raw
                if i > 0:
                    self.reroutes += 1
                    self.shards[winner].rerouted_in += 1
                    self.shards[home].rerouted_out += 1
                env = protocol.envelope(
                    winner, key=key, rerouted=i > 0,
                    home=home if (i > 0 or hedged) else None,
                    hedged=hedged)
                response = protocol.decode(raw)
                return protocol.encode(
                    protocol.with_envelope(response, env))
            self._errors += 1
            return protocol.encode(protocol.err(
                request_id, protocol.SHARD_UNAVAILABLE,
                f"no worker can serve shard key {key[:16]}…: "
                f"{last_error}",
                {"key": key, "tried": pref,
                 "last_error": str(last_error)}))
        finally:
            self.admission.release(home)
