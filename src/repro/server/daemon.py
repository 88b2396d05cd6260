"""The alias query daemon: a threaded socket server over the stores.

:class:`AliasServer` separates protocol handling (``handle_line`` /
``handle_request`` — pure request-dict to response-dict, unit-testable
without sockets) from transport (``serve_forever`` over a Unix socket or
TCP).  Each client connection gets a thread; per-file locks in the
:class:`~repro.server.store.FileStore` serialize reloads of one file
while queries on other files proceed concurrently.

Shutdown is graceful: a ``shutdown`` request, SIGTERM or SIGINT stops
the accept loop and drains in-flight requests (``block_on_close`` joins
the per-connection threads) before the socket is removed.
"""

from __future__ import annotations

import os
import signal
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Dict, Optional

from ..errors import AnalysisBudgetExceeded, ReproError
from . import protocol
from .protocol import PROTOCOL_VERSION, RequestError
from .store import FileStore, ServerConfig


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:
        from .. import __version__
        return __version__


class AliasServer:
    """Dispatch alias/diagnostic queries against the file store."""

    def __init__(self, config: Optional[ServerConfig] = None,
                 socket_path: Optional[str] = None,
                 host: str = "127.0.0.1",
                 port: Optional[int] = None) -> None:
        if socket_path is not None and port is not None:
            raise ValueError("pass either socket_path or port, not both")
        self.config = config or ServerConfig()
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.files = FileStore(self.config)
        self._monotonic0 = time.perf_counter()
        self._stats_lock = threading.Lock()
        self._tls = threading.local()
        self._method_count: Dict[str, int] = {}
        self._method_seconds: Dict[str, float] = {}
        self._errors = 0
        self._draining = False
        self._server: Optional[socketserver.BaseServer] = None
        self._methods: Dict[str, Callable[[Dict[str, Any]], Any]] = {
            "ping": self._m_ping,
            "points_to": self._m_points_to,
            "alias": self._m_alias,
            "must_alias": self._m_must_alias,
            "diagnostics": self._m_diagnostics,
            "taint": self._m_taint,
            "leaks": self._m_leaks,
            "deadlocks": self._m_deadlocks,
            "invalidate": self._m_invalidate,
            "stats": self._m_stats,
            "shutdown": self._m_shutdown,
        }

    # ------------------------------------------------------------------
    # request handling (transport-independent)
    # ------------------------------------------------------------------
    def handle_line(self, line: bytes) -> bytes:
        """One wire frame in, one wire frame out."""
        try:
            request = protocol.decode(line)
        except RequestError as exc:
            return protocol.encode(
                protocol.err(None, exc.code, str(exc), exc.data))
        return protocol.encode(self.handle_request(request))

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request object to a response object."""
        request_id = request.get("id") if isinstance(request, dict) else None
        t0 = time.perf_counter()
        method = "?"
        deadline: Optional[float] = None
        try:
            request_id, method, params = protocol.validate_request(request)
            deadline = protocol.request_deadline(request)
            if self._draining and method != "stats":
                raise RequestError(protocol.SHUTTING_DOWN,
                                   "server is shutting down")
            handler = self._methods.get(method)
            if handler is None:
                raise RequestError(
                    protocol.METHOD_NOT_FOUND,
                    f"unknown method {method!r} "
                    f"(have: {', '.join(sorted(self._methods))})")
            budget = protocol.remaining(deadline)
            if budget is not None and budget <= 0:
                # Expired in the queue: shed before any analysis runs.
                error = protocol.deadline_err(
                    request_id, deadline, "worker")["error"]
                raise RequestError(error["code"], error["message"],
                                   error.get("data"))
            self._tls.deadline = deadline
            try:
                result = handler(params)
            finally:
                self._tls.deadline = None
            response = protocol.ok(request_id, result)
        except RequestError as exc:
            self._count_error()
            response = protocol.err(request_id, exc.code, str(exc), exc.data)
        except AnalysisBudgetExceeded as exc:
            self._count_error()
            response = protocol.err(
                request_id, protocol.BUDGET_EXCEEDED, str(exc),
                {"analysis": exc.analysis, "steps": exc.steps})
        except ReproError as exc:
            self._count_error()
            response = protocol.err(
                request_id, protocol.ANALYSIS_ERROR, str(exc))
        except Exception as exc:  # noqa: BLE001 - the daemon must not die
            self._count_error()
            response = protocol.err(
                request_id, protocol.INTERNAL_ERROR,
                f"{type(exc).__name__}: {exc}")
        budget = protocol.remaining(deadline)
        if budget is not None and budget <= 0:
            # Expired mid-solve: the caller stopped waiting, so a late
            # answer (or a late error from the aborted solve) becomes
            # the same structured shed every other hop produces — never
            # a partial or untagged result.
            if "error" not in response:
                self._count_error()
            response = protocol.deadline_err(request_id, deadline,
                                             "worker")
        with self._stats_lock:
            self._method_count[method] = \
                self._method_count.get(method, 0) + 1
            self._method_seconds[method] = \
                self._method_seconds.get(method, 0.0) \
                + (time.perf_counter() - t0)
        return response

    def _count_error(self) -> None:
        with self._stats_lock:
            self._errors += 1

    # ------------------------------------------------------------------
    # methods
    # ------------------------------------------------------------------
    @staticmethod
    def _param(params: Dict[str, Any], name: str) -> str:
        value = params.get(name)
        if not isinstance(value, str) or not value:
            raise RequestError(protocol.INVALID_PARAMS,
                               f"missing string param {name!r}")
        return value

    def _state(self, params: Dict[str, Any]) -> Any:
        """The file state for ``params["file"]``, loaded under the
        current request's deadline (if any) so an in-flight solve
        aborts when its caller's budget runs out."""
        return self.files.get(self._param(params, "file"),
                              deadline=getattr(self._tls, "deadline",
                                               None))

    def _m_ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "protocol": PROTOCOL_VERSION,
                "version": _package_version(), "pid": os.getpid()}

    def _m_points_to(self, params: Dict[str, Any]) -> Dict[str, Any]:
        state = self._state(params)
        state.queries += 1
        return state.points_to(self._param(params, "ptr"))

    def _m_alias(self, params: Dict[str, Any]) -> Dict[str, Any]:
        state = self._state(params)
        state.queries += 1
        return state.may_alias(self._param(params, "p"),
                               self._param(params, "q"))

    def _m_must_alias(self, params: Dict[str, Any]) -> Dict[str, Any]:
        state = self._state(params)
        state.queries += 1
        return state.must_alias(self._param(params, "p"),
                                self._param(params, "q"))

    def _m_diagnostics(self, params: Dict[str, Any]) -> Dict[str, Any]:
        state = self._state(params)
        state.queries += 1
        checkers = params.get("checkers")
        if checkers is not None and (
                not isinstance(checkers, list)
                or not all(isinstance(c, str) for c in checkers)):
            raise RequestError(protocol.INVALID_PARAMS,
                               "checkers must be a list of names")
        return state.diagnostics(checkers)

    def _m_taint(self, params: Dict[str, Any]) -> Dict[str, Any]:
        state = self._state(params)
        state.queries += 1
        spec = params.get("spec")
        if spec is not None and not isinstance(spec, dict):
            raise RequestError(protocol.INVALID_PARAMS,
                               "spec must be a JSON object "
                               "(sources/sinks/sanitizers)")
        return state.taint(spec)

    def _m_leaks(self, params: Dict[str, Any]) -> Dict[str, Any]:
        state = self._state(params)
        state.queries += 1
        return state.leaks()

    def _m_deadlocks(self, params: Dict[str, Any]) -> Dict[str, Any]:
        state = self._state(params)
        state.queries += 1
        threads = params.get("threads")
        if threads is not None and (
                not isinstance(threads, list)
                or not all(isinstance(t, str) for t in threads)):
            raise RequestError(protocol.INVALID_PARAMS,
                               "threads must be a list of function names")
        return state.deadlocks(threads)

    def _m_invalidate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        state = self.files.invalidate(self._param(params, "file"))
        out = state.refresh.to_dict()
        out["file"] = state.path
        return out

    def _m_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        with self._stats_lock:
            requests = {
                method: {
                    "count": count,
                    "seconds": self._method_seconds.get(method, 0.0),
                    "avg_ms": 1000.0 * self._method_seconds.get(method, 0.0)
                    / count,
                }
                for method, count in sorted(self._method_count.items())
            }
            errors = self._errors
        return {
            "protocol": PROTOCOL_VERSION,
            "version": _package_version(),
            "uptime_seconds": time.perf_counter() - self._monotonic0,
            "draining": self._draining,
            "requests": requests,
            "errors": errors,
            "files": {
                "loaded": len(self.files.paths()),
                "max": self.config.max_files,
                "loads": self.files.loads,
                "invalidations": self.files.invalidations,
                "detail": [s.summary() for s in self.files.states()],
            },
            "clusters": self.files.clusters.stats(),
        }

    def _m_shutdown(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self._draining = True
        self.request_shutdown()
        return {"shutting_down": True}

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"

    def _make_server(self) -> socketserver.BaseServer:
        alias_server = self

        class Handler(socketserver.BaseRequestHandler):
            # A manual line loop (instead of StreamRequestHandler's
            # rfile iteration) so idle connections notice draining: the
            # short recv timeout is a drain poll, not a client deadline.
            # Malformed or oversized lines get structured error
            # responses — the connection thread survives both.
            def handle(self) -> None:
                self.request.settimeout(0.2)
                max_bytes = alias_server.config.max_request_bytes
                buf = b""
                discarding = False  # inside an oversized line
                while True:
                    try:
                        chunk = self.request.recv(65536)
                    except socket.timeout:
                        if alias_server._draining:
                            return
                        continue
                    except OSError:
                        return
                    if not chunk:
                        return
                    buf += chunk
                    while b"\n" in buf:
                        line, buf = buf.split(b"\n", 1)
                        if discarding:
                            # The tail of a line already rejected as too
                            # large; resync at its newline.
                            discarding = False
                            continue
                        if not line.strip():
                            continue
                        if len(line) > max_bytes:
                            # A complete oversized line that fit in one
                            # recv chunk (limits below the chunk size
                            # would otherwise slip through the
                            # buffer-growth check below).
                            try:
                                self.request.sendall(protocol.encode(
                                    protocol.err(
                                        None, protocol.REQUEST_TOO_LARGE,
                                        "request line exceeds "
                                        f"{max_bytes} bytes",
                                        {"max_request_bytes": max_bytes})))
                            except OSError:
                                return
                            continue
                        try:
                            response = alias_server.handle_line(line)
                        except Exception as exc:  # noqa: BLE001
                            response = protocol.encode(protocol.err(
                                None, protocol.INTERNAL_ERROR,
                                f"{type(exc).__name__}: {exc}"))
                        try:
                            self.request.sendall(response)
                        except OSError:
                            return
                    if not discarding and len(buf) > max_bytes:
                        try:
                            self.request.sendall(protocol.encode(
                                protocol.err(
                                    None, protocol.REQUEST_TOO_LARGE,
                                    "request line exceeds "
                                    f"{max_bytes} bytes",
                                    {"max_request_bytes": max_bytes})))
                        except OSError:
                            return
                        buf = b""
                        discarding = True

        if self.socket_path is not None:
            base = getattr(socketserver, "UnixStreamServer", None)
            if base is None:
                raise RuntimeError(
                    "Unix sockets are unavailable on this platform; "
                    "serve on TCP with --port instead")

            class UnixServer(socketserver.ThreadingMixIn, base):
                daemon_threads = False
                block_on_close = True

            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            return UnixServer(self.socket_path, Handler)
        if self.port is None:
            raise ValueError("serve needs a socket path or a TCP port")

        class TCPServer(socketserver.ThreadingMixIn,
                        socketserver.TCPServer):
            daemon_threads = False
            block_on_close = True
            allow_reuse_address = True

        return TCPServer((self.host, self.port), Handler)

    def bind(self) -> str:
        """Create and bind the listening socket (idempotent); returns
        the bound address — for TCP port 0 this resolves the
        kernel-chosen ephemeral port."""
        if self._server is None:
            self._server = self._make_server()
            if self.port == 0:
                self.port = self._server.server_address[1]
        return self.address

    def serve_forever(self, install_signal_handlers: bool = True,
                      ready: Optional[threading.Event] = None) -> None:
        """Bind (if needed), serve until shut down, then drain and clean
        up.

        ``ready`` (for in-process embedding: tests, the bench) is set
        once the socket is bound and the accept loop is about to start.
        """
        self.bind()
        if install_signal_handlers:
            self._install_signal_handlers()
        try:
            if ready is not None:
                ready.set()
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._server.server_close()
            self._server = None
            if self.socket_path is not None:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass

    def request_shutdown(self) -> None:
        """Stop accepting and drain; safe from handler threads and
        signal handlers (the blocking ``shutdown`` runs off-thread)."""
        self._draining = True
        server = self._server
        if server is not None:
            threading.Thread(target=server.shutdown, daemon=True).start()

    def _install_signal_handlers(self) -> None:
        def handler(signum: int, frame: Any) -> None:
            self.request_shutdown()

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(sig, handler)
            except ValueError:
                # Not the main thread (in-process embedding); the caller
                # controls shutdown instead.
                return
