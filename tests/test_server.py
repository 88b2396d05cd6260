"""Alias query daemon: protocol, stores, incrementality, transport."""

import json
import os
import socket
import tempfile
import threading
import time

import pytest

from repro.core import (
    BootstrapAnalyzer,
    FaultSpec,
    build_payload,
    payload_fingerprint,
    resolve_pointer,
)
from repro.frontend import parse_program
from repro.ir import Loc
from repro.server import (
    AliasServer,
    ClusterStore,
    ServerClient,
    ServerConfig,
    wait_for_server,
)
from repro.server import protocol
from repro.server.protocol import ServerError
from repro.server.store import FileStore

#: Four independent pointer webs, one per function: a one-function edit
#: must leave the other webs' cluster fingerprints untouched.
DEMO = """
int a, b, c, d, e;
int *p, *q;
int *r, *s;
int *t, *u;
int *v, *w;

void bind_rs(void) { r = &c; s = r; }
void bind_tu(void) { t = &d; u = t; }
void bind_vw(void) { v = &e; w = v; }

int main() {
    p = &a;
    q = p;
    bind_rs();
    bind_tu();
    bind_vw();
    return 0;
}
"""

#: The same program with one function body edited (t rebound to b).
DEMO_EDITED = DEMO.replace("t = &d;", "t = &b;")


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


@pytest.fixture()
def server():
    return AliasServer(ServerConfig())


def call(server, method, **params):
    """Dispatch one request and return the raw response dict."""
    return server.handle_request(
        {"id": 1, "method": method, "params": params})


def result_of(server, method, **params):
    response = call(server, method, **params)
    assert "error" not in response, response
    return response["result"]


def error_of(server, method, **params):
    response = call(server, method, **params)
    assert "result" not in response, response
    return response["error"]


def fresh_points_to(source, name):
    """What a one-shot run answers for ``name`` at the entry's exit."""
    program = parse_program(source, entry="main")
    result = BootstrapAnalyzer(program).run()
    p = resolve_pointer(program, name)
    loc = Loc(program.entry, program.cfg_of(program.entry).exit)
    return sorted(str(o) for o in result.points_to(p, loc))


def fingerprints_of(source):
    """Every cluster's content key, cluster order."""
    program = parse_program(source, entry="main")
    result = BootstrapAnalyzer(program).run()
    return [payload_fingerprint(build_payload(program, c, result.callgraph))
            for c in result.clusters]


# ----------------------------------------------------------------------
class TestClusterStore:
    def test_put_get_and_counters(self):
        store = ClusterStore(max_entries=8)
        assert store.get("k1") is None
        store.put("k1", {"points_to": {}})
        assert store.get("k1") == {"points_to": {}}
        assert store.hits == 1 and store.misses == 1
        assert "k1" in store and len(store) == 1

    def test_lru_eviction(self):
        store = ClusterStore(max_entries=2)
        store.put("a", {"n": 1})
        store.put("b", {"n": 2})
        store.get("a")                       # refresh a; b is now oldest
        store.put("c", {"n": 3})
        assert store.get("b") is None        # evicted
        assert store.get("a") is not None
        assert store.evictions == 1

    def test_disk_fallthrough_and_promotion(self, tmp_path):
        disk = str(tmp_path / "cache")
        first = ClusterStore(max_entries=8, disk=disk)
        first.put("k", {"n": 1})
        # A fresh store (daemon restart) warm-starts from disk.
        second = ClusterStore(max_entries=8, disk=disk)
        assert len(second) == 0
        assert second.get("k") == {"n": 1}
        assert second.hits == 1
        assert len(second) == 1              # promoted into memory

    def test_analyze_all_compatible(self, demo_file):
        store = ClusterStore(max_entries=64)
        program = parse_program(open(demo_file).read(), entry="main")
        result = BootstrapAnalyzer(program).run()
        cold = result.analyze_all(cache=store)
        assert cold.cache_misses == len(result.clusters)
        assert cold.fingerprints and len(cold.fingerprints) == \
            len(result.clusters)
        warm = BootstrapAnalyzer(program).run().analyze_all(cache=store)
        assert warm.cache_hits == len(result.clusters)
        assert warm.cache_misses == 0


# ----------------------------------------------------------------------
class TestProtocol:
    def test_ping(self, server):
        result = result_of(server, "ping")
        assert result["pong"] is True
        assert result["protocol"] == protocol.PROTOCOL_VERSION

    def test_unknown_method(self, server):
        error = error_of(server, "nope")
        assert error["code"] == protocol.METHOD_NOT_FOUND

    def test_missing_method(self, server):
        response = server.handle_request({"id": 7, "params": {}})
        assert response["error"]["code"] == protocol.INVALID_REQUEST
        assert response["id"] == 7

    def test_bad_json_line(self, server):
        response = json.loads(server.handle_line(b"{not json\n"))
        assert response["error"]["code"] == protocol.PARSE_ERROR

    def test_non_object_request(self, server):
        response = json.loads(server.handle_line(b"[1,2]\n"))
        assert response["error"]["code"] == protocol.INVALID_REQUEST

    def test_missing_param(self, server, demo_file):
        error = error_of(server, "points_to", file=demo_file)
        assert error["code"] == protocol.INVALID_PARAMS

    def test_unknown_pointer(self, server, demo_file):
        error = error_of(server, "points_to", file=demo_file, ptr="zz")
        assert error["code"] == protocol.INVALID_PARAMS
        assert "zz" in error["message"]

    def test_missing_file(self, server, tmp_path):
        error = error_of(server, "points_to",
                         file=str(tmp_path / "gone.c"), ptr="p")
        assert error["code"] == protocol.FILE_ERROR

    def test_unparsable_file(self, server, tmp_path):
        path = tmp_path / "broken.c"
        path.write_text("int main( {")
        error = error_of(server, "points_to", file=str(path), ptr="p")
        assert error["code"] == protocol.ANALYSIS_ERROR

    def test_budget_exceeded_is_structured(self, tmp_path):
        server = AliasServer(ServerConfig(fscs_budget=1))
        path = tmp_path / "demo.c"
        path.write_text(DEMO)
        error = error_of(server, "points_to", file=str(path), ptr="q")
        assert error["code"] == protocol.BUDGET_EXCEEDED
        assert error["data"]["analysis"] == "summary-engine"
        assert error["data"]["steps"] > 1

    def test_draining_rejects_new_queries(self, server, demo_file):
        result_of(server, "shutdown")
        error = error_of(server, "points_to", file=demo_file, ptr="q")
        assert error["code"] == protocol.SHUTTING_DOWN
        # stats stays reachable for observability while draining
        assert result_of(server, "stats")["draining"] is True


# ----------------------------------------------------------------------
class TestQueries:
    def test_points_to_matches_one_shot(self, server, demo_file):
        for name in ("p", "q", "r", "s", "t", "u", "v", "w"):
            result = result_of(server, "points_to", file=demo_file,
                               ptr=name)
            assert result["objects"] == fresh_points_to(DEMO, name), name

    def test_alias(self, server, demo_file):
        assert result_of(server, "alias", file=demo_file,
                         p="p", q="q")["may_alias"] is True
        assert result_of(server, "alias", file=demo_file,
                         p="p", q="t")["may_alias"] is False

    def test_must_alias(self, server, demo_file):
        assert result_of(server, "must_alias", file=demo_file,
                         p="r", q="s")["must_alias"] is True
        assert result_of(server, "must_alias", file=demo_file,
                         p="r", q="t")["must_alias"] is False

    def test_demand_selection_reported(self, server, demo_file):
        result = result_of(server, "points_to", file=demo_file, ptr="t")
        assert result["clusters"]["selected"] < result["clusters"]["total"]

    def test_diagnostics_match_one_shot(self, server):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "memsafe_buggy.c")
        result = result_of(server, "diagnostics", file=path)
        from repro.checkers import run_checkers
        from repro.core import diagnostics_to_dict
        program = parse_program(open(os.path.abspath(path)).read(),
                                entry="main", path=os.path.abspath(path))
        report = run_checkers(program)
        assert result["diagnostics"] == diagnostics_to_dict(
            report.diagnostics)
        assert {c["checker"] for c in result["checkers"]} \
            == {st.checker for st in report.stats}

    def test_race_diagnostics_match_repro_check(self, server, capsys):
        path = os.path.abspath(os.path.join(
            os.path.dirname(__file__), os.pardir, "examples",
            "race_demo.c"))
        result = result_of(server, "diagnostics", file=path,
                           checkers=["races"])
        from repro.cli import main
        assert main(["check", path, "--checkers", "races",
                     "--json"]) == 0
        one_shot = json.loads(capsys.readouterr().out)
        assert one_shot  # the demo's seeded race
        assert result["diagnostics"] == one_shot
        assert [c["checker"] for c in result["checkers"]] == ["races"]

    def test_diagnostics_unknown_checker(self, server, demo_file):
        error = error_of(server, "diagnostics", file=demo_file,
                         checkers=["nope"])
        assert error["code"] == protocol.INVALID_PARAMS

    def test_stats_counts_requests(self, server, demo_file):
        result_of(server, "points_to", file=demo_file, ptr="q")
        result_of(server, "points_to", file=demo_file, ptr="t")
        stats = result_of(server, "stats")
        assert stats["requests"]["points_to"]["count"] == 2
        assert stats["files"]["loaded"] == 1
        assert stats["clusters"]["entries"] > 0


#: The four pointer webs of DEMO plus a seeded taint flow: a one-web
#: edit must leave the taint diagnostics bit-identical while the
#: cluster store reuses every unchanged fingerprint.
TAINT_DEMO = DEMO.replace(
    "int main() {",
    """int getenv(int x);
int system(int cmd);

int slot;

void fill(int *out) {
    int raw;
    raw = getenv(1);
    *out = raw;
}

void drain(int cmd) {
    system(cmd);
}

int main() {
    fill(&slot);
    drain(slot);""")

TAINT_DEMO_EDITED = TAINT_DEMO.replace("t = &d;", "t = &b;")


@pytest.fixture()
def taint_file(tmp_path):
    path = tmp_path / "tainted.c"
    path.write_text(TAINT_DEMO)
    return str(path)


class TestTaintMethod:
    def test_matches_one_shot(self, server, taint_file):
        from repro.checkers import run_taint
        from repro.core import diagnostics_to_dict
        result = result_of(server, "taint", file=taint_file)
        program = parse_program(open(taint_file).read(), entry="main",
                                path=taint_file)
        run = run_taint(program)
        assert result["diagnostics"] == diagnostics_to_dict(
            run.diagnostics)
        assert result["diagnostics"]  # the getenv -> system flow
        assert result["rounds"] == run.rounds
        assert result["demanded"] == sorted(str(v) for v in run.demanded)

    def test_cached_by_spec_digest(self, server, taint_file):
        first = result_of(server, "taint", file=taint_file)
        second = result_of(server, "taint", file=taint_file)
        assert first == second
        from repro.analysis.taint import TaintSpec
        assert first["spec_digest"] == TaintSpec.default().digest()

    def test_custom_spec(self, server, taint_file):
        # A spec with no rules for this program's externs: no findings,
        # and a different digest (a separate cache slot).
        spec = {"sources": {"other_src": {"taints": ["return"]}},
                "sinks": {"other_sink": {"args": [0]}}}
        result = result_of(server, "taint", file=taint_file, spec=spec)
        assert result["diagnostics"] == []
        default = result_of(server, "taint", file=taint_file)
        assert result["spec_digest"] != default["spec_digest"]
        assert default["diagnostics"]

    def test_bad_spec_rejected(self, server, taint_file):
        error = error_of(server, "taint", file=taint_file, spec="nope")
        assert error["code"] == protocol.INVALID_PARAMS
        error = error_of(server, "taint", file=taint_file,
                         spec={"sinks": {"s": {"severity": "fatal"}}})
        assert error["code"] == protocol.INVALID_PARAMS

    def test_edit_reuses_unchanged_clusters(self, server, taint_file):
        before = result_of(server, "taint", file=taint_file)
        with open(taint_file, "w") as handle:
            handle.write(TAINT_DEMO_EDITED)
        result_of(server, "invalidate", file=taint_file)
        after = result_of(server, "taint", file=taint_file)
        # The one-web edit does not touch the taint chain: findings are
        # bit-identical, and the reload reused every cluster whose
        # payload fingerprint survived the edit.
        assert after["diagnostics"] == before["diagnostics"]
        refresh = after["refresh"]
        assert 0 < refresh["reanalyzed"] < refresh["clusters"]
        assert refresh["reused"] == refresh["clusters"] \
            - refresh["reanalyzed"]


# ----------------------------------------------------------------------
class TestIncrementality:
    def test_noop_invalidate_reuses_everything(self, server, demo_file):
        result_of(server, "points_to", file=demo_file, ptr="q")
        refresh = result_of(server, "invalidate", file=demo_file)
        assert refresh["reanalyzed"] == 0
        assert refresh["reused"] == refresh["clusters"]

    def test_one_function_edit_reanalyzes_only_changed_fingerprints(
            self, server, demo_file):
        result_of(server, "points_to", file=demo_file, ptr="u")
        with open(demo_file, "w") as handle:
            handle.write(DEMO_EDITED)
        refresh = result_of(server, "invalidate", file=demo_file)
        # Independently computed ground truth: the clusters whose
        # content keys changed between the two programs.
        changed = set(fingerprints_of(DEMO_EDITED)) \
            - set(fingerprints_of(DEMO))
        assert refresh["reanalyzed"] == len(changed)
        assert 0 < refresh["reanalyzed"] < refresh["clusters"]
        assert refresh["reused"] == refresh["clusters"] \
            - refresh["reanalyzed"]

    def test_answers_after_invalidate_match_fresh_run(self, server,
                                                      demo_file):
        assert result_of(server, "points_to", file=demo_file,
                         ptr="u")["objects"] == ["d"]
        with open(demo_file, "w") as handle:
            handle.write(DEMO_EDITED)
        result_of(server, "invalidate", file=demo_file)
        for name in ("p", "q", "r", "s", "t", "u", "v", "w"):
            server_objs = result_of(server, "points_to", file=demo_file,
                                    ptr=name)["objects"]
            assert server_objs == fresh_points_to(DEMO_EDITED, name)

    def test_watch_reloads_changed_file(self, server, demo_file):
        result_of(server, "points_to", file=demo_file, ptr="u")
        with open(demo_file, "w") as handle:
            handle.write(DEMO_EDITED)
        # Guarantee an observable stat change even on coarse mtime.
        future = time.time() + 10
        os.utime(demo_file, (future, future))
        result = result_of(server, "points_to", file=demo_file, ptr="t")
        assert result["objects"] == ["b"]

    def test_no_watch_keeps_stale_answers_until_invalidate(self,
                                                           demo_file):
        server = AliasServer(ServerConfig(watch=False))
        result_of(server, "points_to", file=demo_file, ptr="t")
        with open(demo_file, "w") as handle:
            handle.write(DEMO_EDITED)
        future = time.time() + 10
        os.utime(demo_file, (future, future))
        assert result_of(server, "points_to", file=demo_file,
                         ptr="t")["objects"] == ["d"]
        result_of(server, "invalidate", file=demo_file)
        assert result_of(server, "points_to", file=demo_file,
                         ptr="t")["objects"] == ["b"]

    def test_file_lru_eviction(self, tmp_path):
        server = AliasServer(ServerConfig(max_files=1))
        one = tmp_path / "one.c"
        two = tmp_path / "two.c"
        one.write_text(DEMO)
        two.write_text(DEMO_EDITED)
        result_of(server, "points_to", file=str(one), ptr="q")
        result_of(server, "points_to", file=str(two), ptr="q")
        assert server.files.paths() == [str(two)]
        # The evicted file still answers (reload), and its unchanged
        # clusters come back from the shared cluster store.
        result = result_of(server, "points_to", file=str(one), ptr="t")
        assert result["objects"] == ["d"]

    def test_restart_warm_starts_from_disk_cache(self, tmp_path,
                                                 demo_file):
        cache_dir = str(tmp_path / "cache")
        first = AliasServer(ServerConfig(cache_dir=cache_dir))
        result_of(first, "points_to", file=demo_file, ptr="q")
        # A brand-new daemon (fresh memory) over the same disk cache.
        second = AliasServer(ServerConfig(cache_dir=cache_dir))
        result_of(second, "points_to", file=demo_file, ptr="q")
        state = second.files.states()[0]
        assert state.refresh.reanalyzed == 0
        assert state.refresh.reused == state.refresh.clusters


def test_invalidate_respects_max_files(tmp_path):
    """``invalidate`` inserts through the same bounded LRU as ``get``."""
    files = FileStore(ServerConfig(max_files=1))
    paths = []
    for name in ("one", "two", "three"):
        path = tmp_path / f"{name}.c"
        path.write_text(DEMO)
        paths.append(str(path))
        files.invalidate(str(path))
    assert files.paths() == [paths[-1]]


class TestReloadEncoding:
    """A reload keys every cluster and re-solves only new content."""

    def test_noop_invalidate_reanalyzes_nothing(self, server, demo_file):
        cold = result_of(server, "points_to", file=demo_file, ptr="q")
        refresh = result_of(server, "invalidate", file=demo_file)
        assert refresh["reanalyzed"] == 0
        assert refresh["reused"] == refresh["clusters"]
        assert "encoded" not in refresh
        assert result_of(server, "points_to", file=demo_file,
                         ptr="q") == cold

    def test_edit_answers_equal_a_fresh_daemons(self, server, demo_file):
        result_of(server, "points_to", file=demo_file, ptr="u")
        with open(demo_file, "w") as handle:
            handle.write(DEMO_EDITED)
        refresh = result_of(server, "invalidate", file=demo_file)
        assert 0 < refresh["reanalyzed"] < refresh["clusters"]
        fresh = AliasServer(ServerConfig())
        program = parse_program(DEMO_EDITED, entry="main")
        for p in sorted(program.pointers, key=str):
            assert result_of(server, "points_to", file=demo_file,
                             ptr=str(p)) == \
                result_of(fresh, "points_to", file=demo_file, ptr=str(p))

    def test_evicted_outcome_is_resolved_identically(self, demo_file):
        server = AliasServer(ServerConfig(max_clusters=64))
        program = parse_program(DEMO, entry="main")
        before = {str(p): result_of(server, "points_to", file=demo_file,
                                    ptr=str(p))
                  for p in program.pointers}
        store = server.files.clusters
        clusters = server.files.states()[0].refresh.clusters
        for i in range(64):                  # push every outcome out
            store.put(f"filler-{i}", {"points_to": {}})
        refresh = result_of(server, "invalidate", file=demo_file)
        assert refresh["reanalyzed"] == clusters
        after = {str(p): result_of(server, "points_to", file=demo_file,
                                   ptr=str(p))
                 for p in program.pointers}
        assert after == before


# ----------------------------------------------------------------------
def _serve_in_thread(server):
    ready = threading.Event()
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"install_signal_handlers": False, "ready": ready},
        daemon=True)
    thread.start()
    assert ready.wait(30.0)
    return thread


@pytest.fixture()
def unix_daemon(demo_file):
    tmp = tempfile.mkdtemp(prefix="repro-srv-")
    sock = os.path.join(tmp, "repro.sock")
    server = AliasServer(ServerConfig(), socket_path=sock)
    thread = _serve_in_thread(server)
    yield server, sock
    server.request_shutdown()
    thread.join(30.0)
    assert not thread.is_alive()


class TestTransport:
    def test_unix_socket_round_trip(self, unix_daemon, demo_file):
        _server, sock = unix_daemon
        with ServerClient(socket_path=sock) as client:
            assert client.ping()["pong"] is True
            result = client.points_to(demo_file, "q")
            assert result["objects"] == ["a"]
            assert client.alias(demo_file, "p", "q")["may_alias"] is True

    def test_multiple_requests_per_connection(self, unix_daemon,
                                              demo_file):
        _server, sock = unix_daemon
        with ServerClient(socket_path=sock) as client:
            for _ in range(5):
                assert client.points_to(demo_file, "q")["objects"] == ["a"]

    def test_error_surfaces_as_server_error(self, unix_daemon, demo_file):
        _server, sock = unix_daemon
        with ServerClient(socket_path=sock) as client:
            with pytest.raises(ServerError) as exc:
                client.points_to(demo_file, "zz")
            assert exc.value.code == protocol.INVALID_PARAMS

    def test_concurrent_clients(self, unix_daemon, demo_file):
        _server, sock = unix_daemon
        answers, errors = [], []

        def worker(name):
            try:
                with ServerClient(socket_path=sock) as client:
                    for _ in range(3):
                        answers.append(
                            tuple(client.points_to(demo_file,
                                                   name)["objects"]))
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in ("q", "s", "u", "w")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        assert len(answers) == 12
        assert set(answers) == {("a",), ("c",), ("d",), ("e",)}

    def test_shutdown_request_stops_server(self, demo_file):
        tmp = tempfile.mkdtemp(prefix="repro-srv-")
        sock = os.path.join(tmp, "repro.sock")
        server = AliasServer(ServerConfig(), socket_path=sock)
        thread = _serve_in_thread(server)
        with ServerClient(socket_path=sock) as client:
            assert client.shutdown()["shutting_down"] is True
        thread.join(30.0)
        assert not thread.is_alive()
        assert not os.path.exists(sock)

    def test_tcp_round_trip(self, demo_file):
        server = AliasServer(ServerConfig(), port=0)
        server.bind()                       # resolves the ephemeral port
        thread = _serve_in_thread(server)
        try:
            wait_for_server(port=server.port, timeout=30.0)
            with ServerClient(port=server.port) as client:
                assert client.points_to(demo_file, "q")["objects"] == ["a"]
        finally:
            server.request_shutdown()
            thread.join(30.0)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
def _read_response(sock_obj):
    """One newline-framed response off a raw socket."""
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock_obj.recv(65536)
        assert chunk, "connection closed mid-response"
        buf += chunk
    return json.loads(buf)


class TestConnectionRobustness:
    """A hostile or buggy client must not take its connection (let alone
    the daemon) down: malformed and oversized lines get structured
    errors, and the same connection keeps answering afterwards."""

    def test_malformed_line_then_normal_request(self, unix_daemon,
                                                demo_file):
        _server, sock = unix_daemon
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(sock)
            s.settimeout(30.0)
            s.sendall(b"{this is not json\n")
            err = _read_response(s)
            assert err["error"]["code"] == protocol.PARSE_ERROR
            s.sendall(protocol.encode(
                {"id": 7, "method": "ping", "params": {}}))
            assert _read_response(s)["result"]["pong"] is True

    def test_oversized_line_rejected_and_resynced(self, unix_daemon,
                                                  demo_file):
        _server, sock = unix_daemon
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(sock)
            s.settimeout(60.0)
            s.sendall(b"x" * (protocol.MAX_REQUEST_BYTES + 64))
            err = _read_response(s)
            assert err["error"]["code"] == protocol.REQUEST_TOO_LARGE
            # Finish the monster line; the daemon resyncs at its newline
            # and the connection answers normal requests again.
            s.sendall(b"yyy\n")
            s.sendall(protocol.encode(
                {"id": 8, "method": "ping", "params": {}}))
            assert _read_response(s)["result"]["pong"] is True


class TestRequestSizeLimit:
    """The oversized-request limit is per-daemon configuration, not a
    protocol constant: a small limit must reject lines the default
    accepts, and a raised limit must accept lines the default rejects —
    both on a live transport, where the enforcement lives."""

    @pytest.fixture()
    def tiny_limit_daemon(self):
        tmp = tempfile.mkdtemp(prefix="repro-srv-")
        sock = os.path.join(tmp, "repro.sock")
        server = AliasServer(ServerConfig(max_request_bytes=256),
                             socket_path=sock)
        thread = _serve_in_thread(server)
        yield sock
        server.request_shutdown()
        thread.join(30.0)

    def test_small_limit_rejects_below_default(self, tiny_limit_daemon):
        # 4 KiB is far under the 4 MiB default and under one recv chunk;
        # only the configured limit can reject it.
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(tiny_limit_daemon)
            s.settimeout(30.0)
            s.sendall(b"x" * 4096 + b"\n")
            err = _read_response(s)
            assert err["error"]["code"] == protocol.REQUEST_TOO_LARGE
            # The connection resyncs and keeps serving.
            s.sendall(protocol.encode(
                {"id": 2, "method": "ping", "params": {}}))
            assert _read_response(s)["result"]["pong"] is True

    def test_small_limit_still_accepts_normal_requests(
            self, tiny_limit_daemon):
        with ServerClient(socket_path=tiny_limit_daemon) as client:
            assert client.ping()["pong"] is True

    def test_raised_limit_accepts_above_default(self):
        tmp = tempfile.mkdtemp(prefix="repro-srv-")
        sock = os.path.join(tmp, "repro.sock")
        big = 16 * 1024 * 1024
        server = AliasServer(ServerConfig(max_request_bytes=big),
                             socket_path=sock)
        thread = _serve_in_thread(server)
        try:
            # A valid request bigger than the 4 MiB default: only the
            # raised per-daemon limit lets it through.
            pad = "x" * (protocol.MAX_REQUEST_BYTES + 1024)
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as s:
                s.connect(sock)
                s.settimeout(60.0)
                s.sendall(protocol.encode(
                    {"id": 3, "method": "ping",
                     "params": {"pad": pad}}))
                assert _read_response(s)["result"]["pong"] is True
        finally:
            server.request_shutdown()
            thread.join(30.0)

    def test_cli_flag_reaches_server_config(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--port", "1", "--max-request-bytes", "512"])
        assert args.max_request_bytes == 512
        args = build_parser().parse_args(["serve", "--port", "1"])
        assert args.max_request_bytes == protocol.MAX_REQUEST_BYTES


class TestGracefulSigterm:
    def test_sigterm_drains_inflight_concurrent_queries(self, tmp_path):
        """SIGTERM mid-flight: every already-accepted query must still
        get its full answer, and the daemon must exit cleanly (code 0)
        rather than dropping connections on the floor."""
        from repro.fleet.worker import LocalWorker

        path = tmp_path / "demo.c"
        path.write_text(DEMO)
        worker = LocalWorker("drain-test")
        worker.spawn()
        try:
            wait_for_server(port=worker.port, timeout=60.0)
            # One ping round-trip per connection first: a bare connect
            # can still be sitting in the TCP backlog when SIGTERM
            # stops the accept loop (a dropped connection, not an
            # in-flight query); an answered ping proves a handler
            # thread owns the connection.
            conns = []
            for _ in range(4):
                s = socket.create_connection(
                    ("127.0.0.1", worker.port), timeout=60.0)
                s.sendall(protocol.encode({"id": 0, "method": "ping"}))
                assert _read_response(s)["result"]["pong"] is True
                conns.append(s)
            # The file is cold: the first query analyzes it under the
            # per-file lock and the other three block inside their
            # handlers, so the queries are genuinely in flight when
            # the signal lands.
            for s, name in zip(conns, ("q", "s", "u", "w")):
                s.sendall(protocol.encode(
                    {"id": 1, "method": "points_to",
                     "params": {"file": str(path), "ptr": name}}))
            time.sleep(0.15)                     # handlers enter handle_line
            worker.proc.terminate()              # SIGTERM

            answers, errors = [], []

            def read_answer(s):
                try:
                    answers.append(
                        _read_response(s)["result"]["objects"])
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=read_answer, args=(s,))
                       for s in conns]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            for s in conns:
                s.close()
            assert not errors
            assert sorted(answers) == [["a"], ["c"], ["d"], ["e"]]
            assert worker.proc.wait(60.0) == 0   # clean drain
        finally:
            worker.terminate()


class TestClientReconnect:
    def test_reconnects_after_daemon_restart(self, demo_file):
        tmp = tempfile.mkdtemp(prefix="repro-srv-")
        sock = os.path.join(tmp, "repro.sock")
        first = AliasServer(ServerConfig(), socket_path=sock)
        thread = _serve_in_thread(first)
        client = ServerClient(socket_path=sock,
                              reconnect_backoff=0.05)
        try:
            assert client.points_to(demo_file, "q")["objects"] == ["a"]
            first.request_shutdown()
            thread.join(30.0)
            second = AliasServer(ServerConfig(), socket_path=sock)
            thread = _serve_in_thread(second)
            try:
                # Same client object: the dead connection is replaced
                # transparently and the query is resent.
                assert client.points_to(demo_file,
                                        "q")["objects"] == ["a"]
                assert client.reconnects >= 1
            finally:
                second.request_shutdown()
                thread.join(30.0)
        finally:
            client.close()

    def test_initial_connect_retries_with_backoff(self, demo_file):
        tmp = tempfile.mkdtemp(prefix="repro-srv-")
        sock = os.path.join(tmp, "repro.sock")
        server = AliasServer(ServerConfig(), socket_path=sock)
        holder = {}

        def late_start():
            time.sleep(0.3)
            holder["thread"] = _serve_in_thread(server)

        starter = threading.Thread(target=late_start)
        starter.start()
        try:
            # The daemon does not exist yet; the constructor's bounded
            # backoff must ride out the gap.
            with ServerClient(socket_path=sock, reconnect_attempts=20,
                              reconnect_backoff=0.05) as client:
                assert client.ping()["pong"] is True
        finally:
            starter.join(30.0)
            server.request_shutdown()
            holder["thread"].join(30.0)

    def test_no_retry_without_attempts(self, tmp_path):
        sock = str(tmp_path / "absent.sock")
        with pytest.raises(ServerError):
            ServerClient(socket_path=sock, reconnect_attempts=0)

    def test_timeout_is_never_retried(self):
        # A listener that accepts and never replies: the read times out
        # however fast the host would have answered a real query.
        sock_path = os.path.join(tempfile.mkdtemp(prefix="repro-srv-"),
                                 "silent.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(sock_path)
        listener.listen(4)
        listener.settimeout(30.0)
        accepted = []

        def accept_silently():
            try:
                accepted.append(listener.accept()[0])
            except OSError:
                pass

        acceptor = threading.Thread(target=accept_silently)
        acceptor.start()
        client = ServerClient(socket_path=sock_path, timeout=0.05)
        try:
            with pytest.raises(socket.timeout):
                client.points_to("demo.c", "p")
            assert client.reconnects == 0            # no resend
        finally:
            client.close()
            acceptor.join(30.0)
            assert not acceptor.is_alive()
            for conn in accepted:
                conn.close()
            listener.close()


class TestDegradedAnswers:
    """With faults injected and degradation on, the daemon returns
    partial (sound, coarser) results plus structured warnings instead of
    erroring out."""

    @pytest.fixture()
    def degraded_server(self):
        return AliasServer(ServerConfig(
            degrade=True, retries=0,
            inject_faults=[FaultSpec(kind="crash", match="*")]))

    def test_points_to_carries_warnings(self, degraded_server, demo_file):
        result = result_of(degraded_server, "points_to",
                           file=demo_file, ptr="q")
        warnings = result.get("warnings")
        assert warnings, result
        assert all(w["code"] == "degraded-precision" for w in warnings)
        assert all(w["precision"] in ("fsci", "andersen", "steensgaard")
                   for w in warnings)
        # Sound: the degraded answer covers the clean one.
        assert set(result["objects"]) >= set(
            fresh_points_to(DEMO, "q"))

    def test_summary_counts_degraded_clusters(self, degraded_server,
                                              demo_file):
        refresh = result_of(degraded_server, "invalidate", file=demo_file)
        assert refresh["degraded"] == refresh["clusters"] > 0
        summary = degraded_server.files.get(demo_file).summary()
        assert summary["degraded"] == summary["clusters"]
        assert summary["last_refresh"]["degraded"] == summary["clusters"]

    def test_clean_server_has_no_warnings(self, server, demo_file):
        result = result_of(server, "points_to", file=demo_file, ptr="q")
        assert "warnings" not in result

    def test_invalidate_after_edit_with_policy_no_faults(self, demo_file):
        """A policy-armed but healthy server must survive the partial
        reanalysis an edit + invalidate triggers (regression: the
        attempt-count remap used to IndexError whenever the pending
        clusters were a non-prefix subset)."""
        armed = AliasServer(ServerConfig(degrade=True, retries=0))
        result_of(armed, "points_to", file=demo_file, ptr="q")
        with open(demo_file, "w") as handle:
            handle.write(DEMO_EDITED)
        refresh = result_of(armed, "invalidate", file=demo_file)
        assert 0 < refresh["reanalyzed"] < refresh["clusters"]
        assert refresh["degraded"] == 0
        edited = result_of(armed, "points_to", file=demo_file, ptr="u")
        assert "warnings" not in edited
        assert edited["objects"] == fresh_points_to(DEMO_EDITED, "u")

    def test_healthy_reload_clears_warnings(self, demo_file):
        flaky = AliasServer(ServerConfig(
            degrade=True, retries=0,
            inject_faults=[FaultSpec(kind="crash", match="*")]))
        degraded = result_of(flaky, "points_to", file=demo_file, ptr="q")
        assert degraded.get("warnings")
        # Same store, faults gone: invalidate forces a clean reanalysis.
        flaky.files.config.inject_faults = None
        result_of(flaky, "invalidate", file=demo_file)
        clean = result_of(flaky, "points_to", file=demo_file, ptr="q")
        assert "warnings" not in clean
        assert clean["objects"] == fresh_points_to(DEMO, "q")


# ----------------------------------------------------------------------
class TestDeadlineProtocol:
    def test_request_deadline_parses_numbers(self):
        now = time.time()
        assert protocol.request_deadline({"deadline": now}) == now
        assert protocol.request_deadline({"deadline": 7}) == 7.0
        assert protocol.request_deadline({}) is None

    def test_request_deadline_rejects_garbage(self):
        for bad in (True, False, "soon", [1], {}):
            with pytest.raises(protocol.RequestError) as exc:
                protocol.request_deadline({"deadline": bad})
            assert exc.value.code == protocol.INVALID_REQUEST

    def test_remaining(self):
        assert protocol.remaining(None) is None
        assert protocol.remaining(time.time() + 100.0) > 99.0
        assert protocol.remaining(time.time() - 1.0) < 0

    def test_deadline_err_names_the_hop(self):
        response = protocol.deadline_err(7, time.time() - 2.0, "worker")
        error = response["error"]
        assert response["id"] == 7
        assert error["code"] == protocol.DEADLINE_EXCEEDED
        assert error["data"]["where"] == "worker"
        assert error["data"]["overdue_seconds"] > 1.0


class TestDeadlineAtWorker:
    """The daemon hop: expired requests shed before dispatch, and a
    request that expires mid-solve never gets a partial answer."""

    def _call(self, server, method, deadline, **params):
        return server.handle_request({"id": 1, "method": method,
                                      "params": params,
                                      "deadline": deadline})

    def test_expired_request_is_shed_before_dispatch(self, server,
                                                     demo_file):
        response = self._call(server, "points_to", time.time() - 1.0,
                              file=demo_file, ptr="q")
        assert response["error"]["code"] == protocol.DEADLINE_EXCEEDED
        assert response["error"]["data"]["where"] == "worker"
        # Shed before touching the store: nothing was loaded.
        assert server.files.states() == []

    def test_expiry_mid_solve_never_leaks_a_partial_answer(
            self, server, demo_file, monkeypatch):
        real_get = server.files.get

        def slow_get(path, deadline=None):
            state = real_get(path, deadline=deadline)
            time.sleep(0.15)          # the budget dies while we work
            return state

        monkeypatch.setattr(server.files, "get", slow_get)
        response = self._call(server, "points_to", time.time() + 0.05,
                              file=demo_file, ptr="q")
        assert "result" not in response
        assert response["error"]["code"] == protocol.DEADLINE_EXCEEDED
        assert response["error"]["data"]["where"] == "worker"

    def test_unexpired_deadline_is_transparent(self, server, demo_file):
        response = self._call(server, "points_to", time.time() + 60.0,
                              file=demo_file, ptr="q")
        assert response["result"]["objects"] == ["a"]

    def test_malformed_deadline_rejected(self, server, demo_file):
        response = self._call(server, "points_to", "yesterday",
                              file=demo_file, ptr="q")
        assert response["error"]["code"] == protocol.INVALID_REQUEST

    def test_deadline_clamps_run_policy(self, server, demo_file):
        state = server.files.get(demo_file, deadline=time.time() + 30.0)
        assert state.deadline_clamped is True
        # Un-deadlined load of the same (cached) file is not clamped.
        fresh = AliasServer(ServerConfig())
        assert fresh.files.get(demo_file).deadline_clamped is False

    def test_clamped_degraded_state_is_not_cached(self, demo_file):
        """A load whose precision was sacrificed to somebody's deadline
        must not be served to later unconstrained queries."""
        flaky = AliasServer(ServerConfig(
            degrade=True, retries=0,
            inject_faults=[FaultSpec(kind="crash", match="*")]))
        state = flaky.files.get(demo_file, deadline=time.time() + 30.0)
        assert state.deadline_clamped and state.refresh.degraded
        # The degraded-under-deadline state was served once, not kept.
        assert flaky.files.states() == []


class TestDeadlineAtClient:
    def test_expired_deadline_sheds_without_touching_the_wire(
            self, unix_daemon):
        server, sock = unix_daemon
        with ServerClient(socket_path=sock) as client:
            with pytest.raises(ServerError) as exc:
                client.call("ping", deadline=time.time() - 1.0)
        assert exc.value.code == protocol.DEADLINE_EXCEEDED
        assert exc.value.data["where"] == "client"
        with server._stats_lock:
            assert "ping" not in server._method_count

    def test_client_wide_deadline_applies_per_call(self, unix_daemon,
                                                   demo_file):
        _server, sock = unix_daemon
        with ServerClient(socket_path=sock, deadline=30.0) as client:
            # Generous budget: calls just work, each under its own
            # fresh 30s deadline.
            assert client.ping()["pong"] is True
            assert client.points_to(demo_file, "q")["objects"] == ["a"]

    def test_deadline_travels_to_the_daemon(self, unix_daemon,
                                            demo_file):
        server, sock = unix_daemon
        seen = {}
        real = server.files.get

        def spy(path, deadline=None):
            seen["deadline"] = deadline
            return real(path, deadline=deadline)

        server.files.get = spy
        try:
            with ServerClient(socket_path=sock) as client:
                client.call("points_to", deadline=time.time() + 45.0,
                            file=demo_file, ptr="q")
        finally:
            server.files.get = real
        assert seen["deadline"] is not None
        assert seen["deadline"] - time.time() > 30.0
