"""Deterministic fault injection for the cluster execution path.

The resilience layer (:mod:`repro.core.resilience`) promises that a
cluster whose analysis crashes, hangs or returns garbage degrades to a
sound coarser outcome instead of failing the run.  That promise is only
testable if faults can be produced *on demand and deterministically*, so
this module injects them:

* a :class:`FaultSpec` names a fault kind and selects clusters by
  content key (a prefix of
  :func:`~repro.core.shipping.cluster_fingerprints`), by cluster index
  (``#3``) or unconditionally (``*``);
* :func:`attach_faults` maps each matching cluster index to a *stamp*
  (its faults and its fingerprint), made in the parent before the run;
  forked workers inherit the stamps with the rest of the run's task;
* :func:`fire_faults` executes a stamp's faults at the start of a
  cluster's attempt, in a worker (real ``os._exit`` crashes, real
  sleeps) or in process (both map to raised exceptions, since a hard
  crash would take the test runner down with it).

Fault kinds
-----------

``crash``
    The worker process dies immediately (``os._exit``); in process, a
    ``RuntimeError`` is raised instead.
``hang``
    The worker sleeps for ``duration`` seconds — long enough to trip any
    realistic per-cluster timeout, bounded so an abandoned worker still
    exits on its own; in process, a ``RuntimeError`` is raised.
``corrupt``
    The analysis runs normally but its outcome is replaced with garbage
    that fails :func:`repro.core.resilience.validate_outcome`.
``flaky-once``
    Fails (``RuntimeError``) the first time each fingerprint is seen and
    succeeds afterwards — the retry path's happy case.  Cross-process
    attempt memory is a marker file under ``token_dir``, so the fault
    stays deterministic across forked workers.

Stamps live beside the clusters' keys, never inside them, so injecting
a fault never changes a cluster's cache identity.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The supported fault kinds.
FAULT_KINDS = ("crash", "hang", "corrupt", "flaky-once")

#: Exit status of a worker killed by a ``crash`` fault (the parent
#: reports it in the failed cluster's error).
CRASH_EXIT_CODE = 113


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what goes wrong, and for which clusters.

    ``match`` selects clusters: ``"*"`` matches every cluster, ``"#N"``
    matches the cluster at index ``N`` of the analyzed list, anything
    else matches fingerprints by prefix.  ``duration`` only matters for
    ``hang``; ``token_dir`` only for ``flaky-once`` (defaults to the
    system temp dir).
    """

    kind: str
    match: str = "*"
    duration: float = 30.0
    token_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(have: {', '.join(FAULT_KINDS)})")

    def matches(self, fingerprint: str, index: int) -> bool:
        if self.match == "*":
            return True
        if self.match.startswith("#"):
            try:
                return int(self.match[1:]) == index
            except ValueError:
                return False
        return fingerprint.startswith(self.match)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "match": self.match,
                               "duration": self.duration}
        if self.token_dir is not None:
            out["token_dir"] = self.token_dir
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        return cls(kind=data["kind"], match=data.get("match", "*"),
                   duration=float(data.get("duration", 30.0)),
                   token_dir=data.get("token_dir"))


def parse_fault_arg(text: str) -> FaultSpec:
    """``KIND[:SELECTOR[:DURATION]]`` from the CLI, e.g. ``crash:#3`` or
    ``hang:a1b2:5``."""
    parts = text.split(":")
    kind = parts[0]
    match = parts[1] if len(parts) > 1 and parts[1] else "*"
    duration = 30.0
    if len(parts) > 2 and parts[2]:
        try:
            duration = float(parts[2])
        except ValueError:
            raise ValueError(f"bad fault duration in {text!r}")
    if len(parts) > 3:
        raise ValueError(f"bad fault spec {text!r} "
                         "(KIND[:SELECTOR[:DURATION]])")
    return FaultSpec(kind=kind, match=match, duration=duration)


def attach_faults(fingerprints: Sequence[str],
                  specs: Iterable[FaultSpec]) -> Dict[int, Dict[str, Any]]:
    """The stamp of every cluster (by index) that a spec selects: its
    faults as JSON-safe dicts and the fingerprint they matched against
    (the ``flaky-once`` token is named after it)."""
    stamps: Dict[int, Dict[str, Any]] = {}
    specs = list(specs)
    for i, fp in enumerate(fingerprints):
        matched = [s.to_dict() for s in specs if s.matches(fp, i)]
        if matched:
            stamps[i] = {"faults": matched, "fingerprint": fp}
    return stamps


def _flaky_token(spec: Dict[str, Any], fingerprint: str) -> str:
    import tempfile
    root = spec.get("token_dir") or tempfile.gettempdir()
    return os.path.join(root, f"repro-flaky-{fingerprint[:32]}.token")


def fire_faults(stamp: Dict[str, Any], in_process: bool = False) -> bool:
    """Execute the faults of one cluster's ``stamp`` (no-op when none).

    Returns ``True`` when the cluster's outcome should be corrupted
    after the analysis runs (the ``corrupt`` kind); raises, sleeps or
    kills the process for the other kinds.  ``in_process`` softens
    ``crash`` and ``hang`` into exceptions so in-process backends can
    exercise the same recovery path without killing the host.
    """
    corrupt = False
    fingerprint = stamp.get("fingerprint", "")
    for spec in stamp.get("faults", ()):
        kind = spec.get("kind")
        if kind == "corrupt":
            corrupt = True
        elif kind == "crash":
            if in_process:
                raise RuntimeError("injected fault: crash")
            os._exit(CRASH_EXIT_CODE)
        elif kind == "hang":
            if in_process:
                raise RuntimeError("injected fault: hang")
            deadline = time.monotonic() + float(spec.get("duration", 30.0))
            while time.monotonic() < deadline:
                time.sleep(0.05)
            raise RuntimeError("injected fault: hang (slept out)")
        elif kind == "flaky-once":
            token = _flaky_token(spec, fingerprint)
            if not os.path.exists(token):
                try:
                    with open(token, "x"):
                        pass
                except OSError:
                    pass  # lost the race: someone else failed first
                else:
                    raise RuntimeError("injected fault: flaky-once")
    return corrupt


def corrupt_outcome() -> Dict[str, Any]:
    """The garbage a ``corrupt`` fault returns in place of a real
    outcome — shaped wrongly on purpose so validation rejects it."""
    return {"points_to": "0xdeadbeef", "stats": None,
            "corrupted": True}


# ----------------------------------------------------------------------
# connection-level faults (the chaos harness's network layer)
# ----------------------------------------------------------------------

#: The supported network fault kinds, injected by :class:`ChaosProxy`
#: between the coordinator and a worker:
#:
#: ``delay``
#:     every chunk waits ``duration`` seconds before forwarding — a
#:     congested or GC-pausing link (what hedging exists to beat);
#: ``blackhole``
#:     bytes are swallowed in both directions while the fault is set —
#:     a partition: the connection looks alive but nothing flows, so
#:     only a timeout can detect it;
#: ``drop``
#:     the response direction forwards ``after_bytes`` bytes and then
#:     both sides are torn down — a worker dying mid-response;
#: ``garble``
#:     response bytes are deterministically scrambled (newlines kept,
#:     so frames still terminate) — corruption on the wire that must be
#:     *detected*, never forwarded to a client as an answer.
NET_FAULT_KINDS = ("delay", "blackhole", "drop", "garble")


@dataclass(frozen=True)
class NetFault:
    """One connection-level fault for :class:`ChaosProxy`."""

    kind: str
    duration: float = 0.1    # delay per chunk (``delay`` only)
    after_bytes: int = 0     # response bytes let through (``drop``)

    def __post_init__(self) -> None:
        if self.kind not in NET_FAULT_KINDS:
            raise ValueError(f"unknown net fault kind {self.kind!r} "
                             f"(have: {', '.join(NET_FAULT_KINDS)})")


def garble_bytes(data: bytes) -> bytes:
    """Deterministically scramble ``data`` while keeping newlines, so a
    line-framed reader still terminates the frame and the corruption is
    observed as a parse failure rather than a hang."""
    return bytes(b if b == 0x0A else 0x7F for b in data)


class ChaosProxy:
    """A socket-level fault injector between two protocol peers.

    The proxy listens on an ephemeral localhost port and forwards every
    connection to the upstream address, consulting the *currently set*
    fault once per chunk — so a deterministic schedule (the chaos
    harness's) can switch faults on and off mid-connection and the
    change takes effect immediately, no reconnect needed.  With no
    fault set the proxy is a transparent byte pump.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 host: str = "127.0.0.1") -> None:
        import socket
        import threading
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self._fault: Optional[NetFault] = None
        self._closed = False
        self._lock = threading.Lock()
        self._conns: List[Any] = []
        self.stats: Dict[str, int] = {
            "connections": 0, "delayed_chunks": 0, "dropped_conns": 0,
            "garbled_chunks": 0, "blackholed_chunks": 0}
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    # ------------------------------------------------------------------
    def set_fault(self, fault: Optional[NetFault]) -> None:
        """Install ``fault`` for all current and future traffic
        (``None`` heals the link)."""
        self._fault = fault

    def clear_fault(self) -> None:
        self.set_fault(None)

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        import socket
        import threading
        while not self._closed:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            try:
                upstream = socket.create_connection(
                    (self.upstream_host, self.upstream_port),
                    timeout=10.0)
                upstream.settimeout(None)
            except OSError:
                client.close()
                continue
            with self._lock:
                self.stats["connections"] += 1
                self._conns += [client, upstream]
            pair = [client, upstream]
            threading.Thread(target=self._pump,
                             args=(client, upstream, "up", pair),
                             daemon=True).start()
            threading.Thread(target=self._pump,
                             args=(upstream, client, "down", pair),
                             daemon=True).start()

    def _pump(self, src: Any, dst: Any, direction: str,
              pair: List[Any]) -> None:
        forwarded = 0
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    return
                fault = self._fault
                if fault is not None:
                    if fault.kind == "blackhole":
                        # Swallow silently; the link looks alive.
                        with self._lock:
                            self.stats["blackholed_chunks"] += 1
                        continue
                    if fault.kind == "delay":
                        with self._lock:
                            self.stats["delayed_chunks"] += 1
                        time.sleep(fault.duration)
                    elif direction == "down":
                        if fault.kind == "drop":
                            allowed = max(0,
                                          fault.after_bytes - forwarded)
                            if allowed:
                                dst.sendall(data[:allowed])
                            with self._lock:
                                self.stats["dropped_conns"] += 1
                            return  # finally tears both sockets down
                        if fault.kind == "garble":
                            with self._lock:
                                self.stats["garbled_chunks"] += 1
                            data = garble_bytes(data)
                dst.sendall(data)
                forwarded += len(data)
        except OSError:
            return
        finally:
            for sock in pair:
                # shutdown() before close(): the peer must see FIN even
                # while the opposite pump thread is still blocked in
                # recv() on the same socket object.
                try:
                    sock.shutdown(2)  # SHUT_RDWR
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns, self._conns = self._conns, []
        for sock in conns:
            try:
                sock.close()
            except OSError:
                pass
