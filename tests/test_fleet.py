"""Fleet mode: hash ring, admission control, coordinator end to end."""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.core import BootstrapAnalyzer, build_payload, payload_fingerprint
from repro.frontend import parse_program
from repro.fleet import (
    AdmissionController,
    AdmissionError,
    FleetConfig,
    FleetCoordinator,
    HashRing,
    RoutingState,
    parse_worker_addr,
)
from repro.server import AliasServer, ServerClient, ServerConfig, protocol
from repro.server import wait_for_server
from repro.server.protocol import ServerError

from .test_server import DEMO, DEMO_EDITED, count_payloads, result_of


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_and_stable(self):
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])      # insertion order irrelevant
        keys = [f"key-{i}" for i in range(200)]
        assert [a.node_for(k) for k in keys] == \
            [b.node_for(k) for k in keys]

    def test_every_key_lands_on_a_member(self):
        ring = HashRing(["w0", "w1"])
        for i in range(100):
            assert ring.node_for(f"k{i}") in ("w0", "w1")

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.node_for("k") is None
        assert ring.preference("k") == []
        assert len(ring) == 0

    def test_preference_starts_at_home_and_covers_all(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        for i in range(50):
            pref = ring.preference(f"k{i}")
            assert pref[0] == ring.node_for(f"k{i}")
            assert sorted(pref) == ["w0", "w1", "w2", "w3"]

    def test_remove_moves_only_the_removed_nodes_keys(self):
        ring = HashRing(["w0", "w1", "w2"])
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.node_for(k) for k in keys}
        ring.remove("w1")
        for k in keys:
            after = ring.node_for(k)
            if before[k] != "w1":
                assert after == before[k]     # untouched arcs stay put
            else:
                assert after != "w1"

    def test_removed_keys_go_to_the_old_successor(self):
        # The reroute invariant: when a node dies, its keys land exactly
        # where preference() said they would.
        ring = HashRing(["w0", "w1", "w2"])
        keys = [f"key-{i}" for i in range(200)]
        succ = {k: ring.preference(k) for k in keys}
        ring.remove("w0")
        for k in keys:
            if succ[k][0] == "w0":
                assert ring.node_for(k) == succ[k][1]

    def test_add_is_idempotent_and_restores_mapping(self):
        ring = HashRing(["w0", "w1"])
        keys = [f"key-{i}" for i in range(200)]
        before = {k: ring.node_for(k) for k in keys}
        ring.add("w0")                        # no-op
        assert {k: ring.node_for(k) for k in keys} == before
        ring.remove("w0")
        ring.add("w0")                        # heal: mapping snaps home
        assert {k: ring.node_for(k) for k in keys} == before

    def test_shares_cover_all_keys(self):
        ring = HashRing(["w0", "w1", "w2"])
        keys = [f"key-{i}" for i in range(300)]
        shares = ring.shares(keys)
        assert sum(shares.values()) == len(keys)
        # Virtual nodes keep the distribution roughly even.
        assert max(shares.values()) < 2 * min(shares.values())

    def test_bad_replicas(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)

    def test_assign_bounds_the_busiest_node(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        weights = {f"key-{i}": 1.0 + (i % 5) for i in range(300)}
        homes = ring.assign(weights, epsilon=0.05)
        assert set(homes) == set(weights)
        load = {n: 0.0 for n in ring.nodes()}
        for key, node in homes.items():
            load[node] += weights[key]
        total = sum(weights.values())
        # The bound: no node beyond (1+eps)/N of the total (plus one
        # key of slack for the fallback path).
        cap = 1.05 * total / 4 + max(weights.values())
        assert max(load.values()) <= cap

    def test_assign_is_deterministic_and_ring_aligned(self):
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w1", "w0"])
        weights = {f"key-{i}": float(1 + i % 7) for i in range(200)}
        homes = a.assign(weights, epsilon=0.05)
        assert homes == b.assign(weights, epsilon=0.05)
        # A displaced key still lands on a node from its own preference
        # list (reroutes walk the same successor order).
        for key, node in homes.items():
            assert node in a.preference(key)

    def test_assign_with_big_slack_is_pure_consistent_hashing(self):
        ring = HashRing(["w0", "w1", "w2"])
        weights = {f"key-{i}": 1.0 for i in range(100)}
        homes = ring.assign(weights, epsilon=100.0)
        assert homes == {k: ring.node_for(k) for k in weights}

    def test_assign_empty(self):
        assert HashRing().assign({"k": 1.0}) == {}
        assert HashRing(["w0"]).assign({}) == {}


# ----------------------------------------------------------------------
class TestAdmission:
    def test_global_bound(self):
        ctl = AdmissionController(max_inflight=2, max_per_shard=10)
        ctl.admit("w0")
        ctl.admit("w1")
        with pytest.raises(AdmissionError) as exc:
            ctl.admit("w0")
        assert exc.value.code == protocol.OVERLOADED
        ctl.release("w1")
        ctl.admit("w0")                       # freed slot readmits

    def test_per_shard_bound(self):
        ctl = AdmissionController(max_inflight=100, max_per_shard=1)
        ctl.admit("w0")
        with pytest.raises(AdmissionError):
            ctl.admit("w0")
        ctl.admit("w1")                       # other shards unaffected

    def test_stats(self):
        ctl = AdmissionController(max_inflight=2, max_per_shard=2)
        ctl.admit("w0")
        ctl.admit("w0")
        try:
            ctl.admit("w0")
        except AdmissionError:
            pass
        ctl.release("w0")
        stats = ctl.stats()
        assert stats["inflight"] == 1
        assert stats["peak_inflight"] == 2
        assert stats["admitted"] == 2
        assert stats["rejected"] == 1


# ----------------------------------------------------------------------
class TestWorkerAddr:
    def test_host_port(self):
        assert parse_worker_addr("10.0.0.5:7401") == ("10.0.0.5", 7401)

    def test_bare_port(self):
        assert parse_worker_addr("7401") == ("127.0.0.1", 7401)

    def test_bad(self):
        with pytest.raises(ValueError):
            parse_worker_addr("nope")


# ----------------------------------------------------------------------
class TestRoutingState:
    def test_keys_are_payload_fingerprints(self, demo_file):
        """The cache-locality invariant: the coordinator's routing keys
        must be exactly the fingerprints the workers' cluster stores key
        their entries by."""
        rs = RoutingState.build(demo_file, ServerConfig())
        program = parse_program(DEMO, entry="main")
        result = BootstrapAnalyzer(program).run()
        expected = {payload_fingerprint(
            build_payload(program, c, result.callgraph))
            for c in result.clusters}
        assert set(rs.fingerprints) == expected

    def test_rebuild_after_edit_encodes_only_changed_clusters(
            self, demo_file, monkeypatch):
        first = RoutingState.build(demo_file, ServerConfig())
        assert set(first.content_keys.values()) == set(first.fingerprints)
        with open(demo_file, "w") as handle:
            handle.write(DEMO_EDITED)
        encodes = count_payloads(monkeypatch)
        second = RoutingState.build(demo_file, ServerConfig(),
                                    previous=first)
        changed = set(second.fingerprints) - set(first.fingerprints)
        assert 0 < len(encodes) == len(changed) < len(second.fingerprints)
        # Same keys as a cold build, and only this file's clusters kept.
        assert second.fingerprints == \
            RoutingState.build(demo_file, ServerConfig()).fingerprints
        assert set(second.content_keys.values()) == set(second.fingerprints)

    def test_pointers_of_one_web_share_a_key(self, demo_file):
        rs = RoutingState.build(demo_file, ServerConfig())
        assert rs.key_for_pointer("p") == rs.key_for_pointer("q")
        assert rs.key_for_pointer("t") == rs.key_for_pointer("u")
        assert rs.key_for_pointer("p") != rs.key_for_pointer("t")

    def test_stale_tracks_edits(self, demo_file):
        rs = RoutingState.build(demo_file, ServerConfig())
        assert not rs.stale()
        with open(demo_file, "w") as handle:
            handle.write(DEMO_EDITED)
        future = time.time() + 10
        os.utime(demo_file, (future, future))
        assert rs.stale()

    def test_serve_args_reproduce_server_config(self):
        config = FleetConfig(server=ServerConfig(
            max_request_bytes=123456, fscs_budget=77, watch=False))
        args = config.serve_args()
        assert "--max-request-bytes" in args
        assert args[args.index("--max-request-bytes") + 1] == "123456"
        assert args[args.index("--fscs-budget") + 1] == "77"
        assert "--no-watch" in args

    def test_serve_args_round_trip_through_serve_parser(self, tmp_path):
        """Spawned workers must analyze exactly as the coordinator
        routes: every ServerConfig field ``repro serve`` has a flag for
        survives serve_args() -> the serve subparser -> _server_config."""
        import argparse

        from repro.cli import _server_config, build_parser
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        serve = subparsers.choices["serve"]
        # Bind address and positional files are not analysis config.
        renamed = {"cache": "cache_dir", "no_watch": "watch"}
        flagged = {renamed.get(a.dest, a.dest) for a in serve._actions
                   if a.dest not in ("help", "socket", "host", "port",
                                     "files")}
        server = ServerConfig(
            entry="start", threshold=9, oneflow=True,
            clustering="steensgaard_fs", sharing_bound=4, cutshortcut=True,
            parts=3, backend="processes", jobs=2, scheduler="lpt",
            fscs_budget=77, max_clusters=99, max_files=5,
            cache_dir=str(tmp_path), watch=False, max_request_bytes=123456,
            cluster_timeout=1.5, retries=2, degrade=True)
        default = ServerConfig()
        # Every flag is exercised with a non-default value.
        assert {f for f in flagged
                if getattr(server, f) == getattr(default, f)} == set()
        parsed = parser.parse_args(
            ["serve", "--socket", "w.sock"]
            + FleetConfig(server=server).serve_args())
        rebuilt = _server_config(parsed)
        assert {f: getattr(rebuilt, f) for f in flagged} == \
            {f: getattr(server, f) for f in flagged}


# ----------------------------------------------------------------------
def _stop_process(pid, timeout=10.0):
    """SIGSTOP ``pid`` and wait until every one of its threads has
    entered the stop.  SIGSTOP reaches a multi-threaded daemon through
    one thread; until that thread runs, another one can still answer a
    request that arrives in the gap."""
    os.kill(pid, signal.SIGSTOP)
    tasks = f"/proc/{pid}/task"
    if not os.path.isdir(tasks):  # no procfs: nothing to wait on
        return
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        states = []
        for tid in os.listdir(tasks):
            try:
                with open(f"{tasks}/{tid}/stat") as handle:
                    # state follows the parenthesized command name
                    states.append(handle.read().rsplit(")", 1)[1].split()[0])
            except OSError:
                pass  # the thread exited meanwhile
        if states and all(state in ("T", "t") for state in states):
            return
        time.sleep(0.005)
    raise AssertionError(f"process {pid} did not stop within {timeout}s")


def _start_coordinator(config):
    coordinator = FleetCoordinator(config, port=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=coordinator.serve_forever,
        kwargs={"install_signal_handlers": False, "ready": ready},
        daemon=True)
    thread.start()
    assert ready.wait(120.0), "coordinator did not come up"
    return coordinator, thread


def _stop_coordinator(coordinator, thread):
    coordinator.request_shutdown()
    thread.join(60.0)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def fleet():
    """One coordinator + two spawned workers, shared by the read-only
    routing tests (worker spawns dominate the suite's cost)."""
    config = FleetConfig(workers=2, probe_interval=0.1,
                        breaker_reset=0.5)
    coordinator, thread = _start_coordinator(config)
    yield coordinator
    _stop_coordinator(coordinator, thread)


@pytest.fixture(scope="module")
def fleet_demo(tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet") / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestCoordinatorRouting:
    def test_ping_identifies_coordinator(self, fleet):
        with ServerClient(port=fleet.port) as client:
            result = client.ping()
        assert result["pong"] is True
        assert result["role"] == "coordinator"
        assert result["workers"] == 2

    def test_answers_match_single_daemon(self, fleet, fleet_demo):
        single = AliasServer(ServerConfig())
        with ServerClient(port=fleet.port) as client:
            for name in ("p", "q", "r", "s", "t", "u", "v", "w"):
                routed = client.points_to(fleet_demo, name)
                direct = result_of(single, "points_to", file=fleet_demo,
                                   ptr=name)
                # Healthy answers are verbatim worker bytes: no fleet
                # envelope, and identical content to a lone daemon.
                assert "fleet" not in routed
                assert routed == direct, name

    def test_alias_and_whole_file_methods_route(self, fleet, fleet_demo):
        with ServerClient(port=fleet.port) as client:
            assert client.alias(fleet_demo, "p", "q")["may_alias"] is True
            assert client.call("leaks",
                               file=fleet_demo)["diagnostics"] == []

    def test_clusters_spread_across_workers(self, fleet, fleet_demo):
        with ServerClient(port=fleet.port) as client:
            client.points_to(fleet_demo, "p")
            status = client.fleet_status()
        shares = status["files"][fleet_demo]["shares"]
        assert sum(shares.values()) == \
            status["files"][fleet_demo]["clusters"]
        # DEMO's webs land on both workers (seed-stable split).
        assert all(n > 0 for n in shares.values()), shares

    def test_stats_aggregates_workers(self, fleet):
        with ServerClient(port=fleet.port) as client:
            stats = client.stats()
        assert set(stats["workers"]) == {"w0", "w1"}
        for worker_stats in stats["workers"].values():
            assert "requests" in worker_stats

    def test_version_mismatch_rejected(self, fleet):
        with socket.create_connection(("127.0.0.1", fleet.port)) as s:
            s.settimeout(30.0)
            s.sendall(protocol.encode(
                {"id": 1, "method": "ping", "params": {}, "v": 99}))
            buf = b""
            while not buf.endswith(b"\n"):
                buf += s.recv(65536)
        response = json.loads(buf)
        assert response["error"]["code"] == protocol.VERSION_MISMATCH
        assert response["error"]["data"]["expected"] == \
            protocol.PROTOCOL_VERSION

    def test_unknown_pointer_error_passes_through(self, fleet,
                                                  fleet_demo):
        with ServerClient(port=fleet.port) as client:
            with pytest.raises(ServerError) as exc:
                client.points_to(fleet_demo, "zz")
        assert exc.value.code == protocol.INVALID_PARAMS

    def test_envelope_names_worker_and_key(self, fleet_demo):
        config = FleetConfig(workers=1, envelope_all=True)
        coordinator, thread = _start_coordinator(config)
        try:
            with ServerClient(port=coordinator.port) as client:
                result = client.points_to(fleet_demo, "p")
            fleet_tag = result["fleet"]
            assert fleet_tag["worker"] == "w0"
            assert fleet_tag["rerouted"] is False
            assert fleet_tag["key"]
        finally:
            _stop_coordinator(coordinator, thread)


class TestCoordinatorBackpressure:
    def test_overloaded_is_structured(self, fleet_demo):
        config = FleetConfig(workers=1, max_inflight=0)
        coordinator, thread = _start_coordinator(config)
        try:
            with ServerClient(port=coordinator.port) as client:
                assert client.ping()["pong"] is True   # local: no admit
                with pytest.raises(ServerError) as exc:
                    client.points_to(fleet_demo, "p")
            assert exc.value.code == protocol.OVERLOADED
            assert coordinator.admission.stats()["rejected"] == 1
        finally:
            _stop_coordinator(coordinator, thread)


class TestCoordinatorFaults:
    def test_kill_reroute_heal(self, fleet_demo):
        """The full failure story on live processes: SIGKILL a worker,
        watch its key range reroute with tagged answers, then watch the
        probe loop respawn it and the tags disappear."""
        config = FleetConfig(workers=2, probe_interval=0.1,
                             breaker_threshold=1, breaker_reset=0.2)
        coordinator, thread = _start_coordinator(config)
        try:
            names = ("p", "q", "r", "s", "t", "u", "v", "w")
            with ServerClient(port=coordinator.port,
                              timeout=120.0) as client:
                baseline = {n: client.points_to(fleet_demo, n)
                            for n in names}
                assert all("fleet" not in r for r in baseline.values())

                status = client.fleet_status()
                victim = "w0"
                os.kill(status["workers"][victim]["pid"], signal.SIGKILL)

                rerouted = 0
                for name in names:
                    result = client.points_to(fleet_demo, name)
                    tag = result.pop("fleet", None)
                    assert result == baseline[name], name  # identical
                    if tag is not None:
                        assert tag["rerouted"] is True
                        assert tag["home"] == victim
                        assert tag["worker"] != victim
                        rerouted += 1
                assert rerouted > 0            # victim owned some keys

                deadline = time.monotonic() + 30.0
                healed = False
                while time.monotonic() < deadline and not healed:
                    time.sleep(0.2)
                    status = client.fleet_status()
                    healed = status["workers"][victim]["alive"] and \
                        status["workers"][victim]["state"] == "closed"
                assert healed, status["workers"][victim]

                after = {n: client.points_to(fleet_demo, n)
                         for n in names}
                assert all("fleet" not in r for r in after.values())
                assert after == baseline
                assert status["workers"][victim]["spawns"] >= 2
        finally:
            _stop_coordinator(coordinator, thread)

    def test_all_workers_down_is_shard_unavailable(self, fleet_demo):
        config = FleetConfig(workers=1, respawn=False,
                             breaker_threshold=1, breaker_reset=3600.0,
                             probe_interval=60.0)
        coordinator, thread = _start_coordinator(config)
        try:
            with ServerClient(port=coordinator.port) as client:
                client.points_to(fleet_demo, "p")      # warm + alive
                status = client.fleet_status()
                os.kill(status["workers"]["w0"]["pid"], signal.SIGKILL)
                time.sleep(0.2)
                with pytest.raises(ServerError) as exc:
                    client.points_to(fleet_demo, "p")
            assert exc.value.code == protocol.SHARD_UNAVAILABLE
            assert exc.value.data["tried"] == ["w0"]
        finally:
            _stop_coordinator(coordinator, thread)

    def test_draining_coordinator_rejects_queries(self, fleet_demo):
        config = FleetConfig(workers=1)
        coordinator, thread = _start_coordinator(config)
        port = coordinator.port
        _stop_coordinator(coordinator, thread)
        # After drain the socket is gone entirely.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=5.0)


class TestFleetCLI:
    def test_fleet_serve_and_status_subprocess(self, fleet_demo):
        """`repro fleet serve` + `repro fleet status` end to end."""
        import re
        import subprocess
        import sys
        env = dict(os.environ)
        src_root = os.path.join(os.path.dirname(__file__), os.pardir,
                                "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src_root)]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
               if p])
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "fleet", "serve",
             "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True)
        try:
            line = ""
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "listening on tcp:" in line or not line:
                    break
            match = re.search(r"tcp:[0-9.]+:(\d+)", line)
            assert match, f"no listen line: {line!r}"
            port = int(match.group(1))
            wait_for_server(port=port, timeout=60.0)
            status = subprocess.run(
                [sys.executable, "-m", "repro", "fleet", "status",
                 "--port", str(port)],
                env=env, capture_output=True, text=True, timeout=60.0)
            assert status.returncode == 0, status.stderr
            payload = json.loads(status.stdout)
            assert payload["role"] == "coordinator"
            assert list(payload["workers"]) == ["w0"]
            with ServerClient(port=port) as client:
                client.shutdown()
            assert proc.wait(60.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30.0)


# ----------------------------------------------------------------------
class TestRespawnGovernor:
    def _governor(self, **kwargs):
        from repro.fleet.respawn import RespawnGovernor
        clock = {"now": 0.0}
        kwargs.setdefault("clock", lambda: clock["now"])
        return RespawnGovernor(**kwargs), clock

    def test_first_death_backs_off_then_allows(self):
        gov, clock = self._governor(backoff=0.5)
        assert gov.may_respawn("w0")            # never died: immediate
        gov.note_death("w0", generation=1)
        assert not gov.may_respawn("w0")
        clock["now"] = 0.5
        assert gov.may_respawn("w0")

    def test_backoff_doubles_per_consecutive_death(self):
        gov, clock = self._governor(backoff=0.5, factor=2.0,
                                    threshold=100)  # never parks
        for generation, expected in ((1, 0.5), (2, 1.0), (3, 2.0)):
            gov.note_death("w0", generation)
            status = gov.status("w0")
            assert status["next_respawn_in"] == pytest.approx(
                expected, abs=1e-6)

    def test_backoff_is_capped(self):
        gov, _clock = self._governor(backoff=0.5, factor=2.0,
                                     max_backoff=3.0, threshold=100)
        for generation in range(1, 10):
            gov.note_death("w0", generation)
        assert gov.status("w0")["next_respawn_in"] <= 3.0

    def test_note_death_is_idempotent_per_generation(self):
        gov, _clock = self._governor()
        assert gov.note_death("w0", generation=1) is True
        assert gov.note_death("w0", generation=1) is False
        assert gov.status("w0")["deaths"] == 1

    def test_settled_resets_the_streak(self):
        gov, clock = self._governor(backoff=0.5, factor=2.0,
                                    threshold=100)
        gov.note_death("w0", 1)
        gov.note_death("w0", 2)
        gov.note_settled("w0")
        clock["now"] = 100.0
        gov.note_death("w0", 3)
        # Streak restarted: back to the base backoff, not 2.0s.
        assert gov.status("w0")["next_respawn_in"] == pytest.approx(0.5)

    def test_crash_loop_parks_the_worker(self):
        gov, clock = self._governor(threshold=3, window=30.0)
        for generation in (1, 2, 3):
            clock["now"] += 1.0
            gov.note_death("w0", generation)
        assert gov.is_parked("w0")
        assert not gov.may_respawn("w0")
        status = gov.status("w0")
        assert status["parked"] is True
        assert "3 deaths" in status["parked_reason"]
        # Parking is forever this run; settling does not unpark.
        gov.note_settled("w0")
        assert gov.is_parked("w0")

    def test_slow_deaths_outside_window_never_park(self):
        gov, clock = self._governor(threshold=3, window=5.0,
                                    backoff=0.1)
        for generation in (1, 2, 3, 4, 5, 6):
            clock["now"] += 10.0                 # well spread out
            gov.note_death("w0", generation)
        assert not gov.is_parked("w0")

    def test_workers_are_independent(self):
        gov, _clock = self._governor(threshold=1)
        gov.note_death("w0", 1)
        assert gov.is_parked("w0")
        assert gov.may_respawn("w1")
        assert not gov.is_parked("w1")


# ----------------------------------------------------------------------
class TestCoordinatorDeadlines:
    def _raw(self, port, request):
        with socket.create_connection(("127.0.0.1", port)) as s:
            s.settimeout(60.0)
            s.sendall(protocol.encode(request))
            buf = b""
            while not buf.endswith(b"\n"):
                buf += s.recv(65536)
        return json.loads(buf)

    def test_expired_request_shed_at_coordinator(self, fleet,
                                                 fleet_demo):
        before = fleet.deadline_sheds
        response = self._raw(fleet.port, {
            "id": 9, "method": "points_to",
            "params": {"file": fleet_demo, "ptr": "p"},
            "deadline": time.time() - 1.0})
        error = response["error"]
        assert error["code"] == protocol.DEADLINE_EXCEEDED
        assert error["data"]["where"] == "coordinator"
        assert fleet.deadline_sheds == before + 1

    def test_generous_deadline_passes_through(self, fleet, fleet_demo):
        response = self._raw(fleet.port, {
            "id": 10, "method": "points_to",
            "params": {"file": fleet_demo, "ptr": "p"},
            "deadline": time.time() + 120.0})
        assert "error" not in response
        assert response["result"]["objects"]

    def test_malformed_deadline_rejected(self, fleet):
        response = self._raw(fleet.port, {
            "id": 11, "method": "ping", "params": {},
            "deadline": "tomorrow"})
        assert response["error"]["code"] == protocol.INVALID_REQUEST

    def test_sheds_show_in_fleet_status(self, fleet):
        self._raw(fleet.port, {
            "id": 12, "method": "ping", "params": {},
            "deadline": time.time() - 5.0})
        with ServerClient(port=fleet.port) as client:
            status = client.fleet_status()
        assert status["deadline_sheds"] >= 1


class TestHedgedQueries:
    def test_hedge_rescues_a_stalled_worker(self, fleet_demo):
        """SIGSTOP the home worker: the hedge fires after the p95
        delay, the ring successor answers, the envelope says hedged,
        and the answer is bit-identical to the healthy one."""
        config = FleetConfig(workers=2, envelope_all=True,
                             hedge=True, hedge_max_fraction=1.0,
                             hedge_min_delay=0.05,
                             hedge_min_observations=1,
                             probe_interval=60.0)
        coordinator, thread = _start_coordinator(config)
        stopped = None
        try:
            names = ("p", "q", "r", "s", "t", "u", "v", "w")
            with ServerClient(port=coordinator.port,
                              timeout=120.0) as client:
                warm = {n: client.points_to(fleet_demo, n)
                        for n in names}
                # Pick any pointer and stall its home worker.
                victim_name = "p"
                home = warm[victim_name]["fleet"]["worker"]
                status = client.fleet_status()
                stopped = status["workers"][home]["pid"]
                _stop_process(stopped)

                hedged = client.points_to(fleet_demo, victim_name)
                tag = hedged.pop("fleet")
                reference = dict(warm[victim_name])
                reference.pop("fleet")
                assert hedged == reference       # bit-identical content
                assert tag["hedged"] is True
                assert tag["worker"] != home
                assert tag["home"] == home

                status = client.fleet_status()
                assert status["hedging"]["issued"] >= 1
                assert status["hedging"]["won"] >= 1
        finally:
            if stopped is not None:
                os.kill(stopped, signal.SIGCONT)
            _stop_coordinator(coordinator, thread)

    def test_no_hedge_before_enough_observations(self, fleet_demo):
        config = FleetConfig(workers=1, hedge=True,
                             hedge_min_observations=10_000)
        coordinator, thread = _start_coordinator(config)
        try:
            with ServerClient(port=coordinator.port) as client:
                client.points_to(fleet_demo, "p")
                status = client.fleet_status()
            assert status["hedging"]["issued"] == 0
            assert status["hedging"]["delay"] is None
        finally:
            _stop_coordinator(coordinator, thread)

    def test_hedge_rate_is_capped(self, fleet_demo):
        """With a zero budget, eligible traffic never hedges even when
        the delay knob would fire instantly."""
        config = FleetConfig(workers=2, hedge=True,
                             hedge_max_fraction=0.0,
                             hedge_min_delay=0.0,
                             hedge_min_observations=1)
        coordinator, thread = _start_coordinator(config)
        try:
            with ServerClient(port=coordinator.port,
                              timeout=120.0) as client:
                for name in ("p", "q", "r", "s"):
                    client.points_to(fleet_demo, name)
                status = client.fleet_status()
            assert status["hedging"]["eligible"] >= 4
            assert status["hedging"]["issued"] == 0
        finally:
            _stop_coordinator(coordinator, thread)


class TestCoordinatorJournalRecovery:
    def test_warm_restart_recovers_files_and_weights(self, fleet_demo,
                                                     tmp_path):
        journal_dir = str(tmp_path / "journal")
        config = FleetConfig(workers=1, journal_dir=journal_dir,
                             weights_flush_every=8)
        first, thread = _start_coordinator(config)
        try:
            with ServerClient(port=first.port, timeout=120.0) as client:
                for _ in range(3):
                    for name in ("p", "q", "r", "s", "t", "u"):
                        baseline = client.points_to(fleet_demo, name)
                status = client.fleet_status()
            assert status["journal"]["files"] == 1
            assert status["journal"]["records"] >= 1
        finally:
            _stop_coordinator(first, thread)

        second, thread = _start_coordinator(config)
        try:
            # The restarted coordinator rebuilt its routing state from
            # the journal before opening the front door.
            assert second.recovered["files"] == 1
            assert second.recovered["rebuilt"] == 1
            assert second.recovered["weighted_keys"] >= 1
            assert fleet_demo in second._query_counts
            with ServerClient(port=second.port,
                              timeout=120.0) as client:
                after = client.points_to(fleet_demo, "u")
                status = client.fleet_status()
            assert after == baseline
            assert "fleet" not in after
            assert status["journal"]["recovered"]["files"] == 1
        finally:
            _stop_coordinator(second, thread)

    def test_no_journal_config_keeps_memory_only(self, fleet):
        with ServerClient(port=fleet.port) as client:
            status = client.fleet_status()
        assert "journal" not in status


class TestDisconnectReleasesAdmission:
    def test_client_vanishing_mid_request_frees_the_slot(self,
                                                         fleet_demo):
        config = FleetConfig(workers=1, max_inflight=1)
        coordinator, thread = _start_coordinator(config)
        try:
            with ServerClient(port=coordinator.port,
                              timeout=120.0) as client:
                # A first query builds the coordinator's routing state
                # for the file, so each query below is admitted in the
                # same step that counts it.
                client.points_to(fleet_demo, "p")
                # Connect, fire a query, vanish immediately: the
                # dispatch is cancelled and its admission token MUST
                # come back (a leak would wedge this 1-slot
                # coordinator).  One at a time, since two overlapping
                # queries would rightly be refused by the one slot:
                # wait until the coordinator has counted the query and
                # its token is back (fleet_status bypasses admission).
                for sent in range(2, 5):
                    s = socket.create_connection(
                        ("127.0.0.1", coordinator.port))
                    s.sendall(protocol.encode({
                        "id": 1, "method": "points_to",
                        "params": {"file": fleet_demo, "ptr": "p"}}))
                    s.close()
                    deadline = time.monotonic() + 30.0
                    while time.monotonic() < deadline:
                        seen = client.fleet_status()
                        if seen["requests"].get("points_to", 0) >= sent \
                                and seen["admission"]["inflight"] == 0:
                            break
                        time.sleep(0.05)
                assert coordinator.admission.stats()["inflight"] == 0
                assert client.points_to(fleet_demo, "p")["objects"]
            assert coordinator.admission.stats()["rejected"] == 0
        finally:
            _stop_coordinator(coordinator, thread)
