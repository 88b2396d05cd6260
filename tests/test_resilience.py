"""Fault-tolerant execution and graceful degradation.

The resilience contract: any per-cluster failure — worker crash, hang,
corrupted result, blown budget — is isolated to that cluster and, under
a degrading :class:`RunPolicy`, converted into a *sound* coarser outcome
from further down the bootstrap cascade (FSCI -> Andersen -> Steensgaard)
tagged with the precision level actually achieved.  The differential
classes pin the soundness half: for every corpus program, every degraded
points-to set is a superset of the clean run's set for the same cluster.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.bench import corpus_configs, generate
from repro.core import (
    BootstrapAnalyzer,
    BootstrapConfig,
    CascadeConfig,
    CircuitBreaker,
    ClusterExecutionError,
    FaultSpec,
    RunPolicy,
    SummaryCache,
    coarsest,
    degrade_ladder,
    degraded_outcome,
    is_degraded,
    parse_fault_arg,
    validate_outcome,
)
from repro.core.faults import corrupt_outcome
from repro.core.parallel import BACKENDS
from repro.core.resilience import (
    DEFAULT_POLICY,
    error_marker,
    is_error_marker,
    raise_marker,
)
from repro.errors import AnalysisBudgetExceeded

from .helpers import figure5_program

#: Small enough that corpus-wide degradation stays CI-friendly.
SCALE = 0.004

CORPUS_NAMES = [cfg.name for cfg in corpus_configs(scale=SCALE)]

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def _fresh(program, **kw):
    config = BootstrapConfig(
        cascade=CascadeConfig(andersen_threshold=6), **kw)
    return BootstrapAnalyzer(program, config).run()


def _assert_superset(clean_outcome, degraded_outcome_):
    clean_pts = clean_outcome["points_to"]
    degr_pts = degraded_outcome_["points_to"]
    assert set(degr_pts) == set(clean_pts)
    for name, objs in clean_pts.items():
        assert set(objs) <= set(degr_pts[name]), name


def _count_sleeps(monkeypatch):
    """Record (and still take) every ``time.sleep`` of the run."""
    sleeps = []
    real_sleep = time.sleep

    def counting_sleep(seconds):
        sleeps.append(seconds)
        real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", counting_sleep)
    return sleeps


# ----------------------------------------------------------------------
# policy mechanics
# ----------------------------------------------------------------------

class TestRunPolicy:
    def test_delay_grows_and_caps(self):
        pol = RunPolicy(backoff=0.1, backoff_factor=2.0, max_backoff=0.5)
        assert pol.delay(2) == pytest.approx(0.1)
        assert pol.delay(3) == pytest.approx(0.2)
        assert pol.delay(10) == pytest.approx(0.5)  # capped

    def test_future_timeout_backstop(self):
        pol = RunPolicy(cluster_timeout=None, hard_timeout=123.0)
        assert pol.future_timeout() == 123.0

    def test_future_timeout_is_one_cluster_timeout(self):
        pol = RunPolicy(cluster_timeout=2.0, grace=1.0)
        assert pol.future_timeout() == pytest.approx(3.0)

    def test_default_policy_never_degrades(self):
        assert DEFAULT_POLICY.degrade is False
        assert DEFAULT_POLICY.cluster_timeout is None
        assert DEFAULT_POLICY.retries == 1

    def test_deadline_starts_now(self):
        assert RunPolicy().deadline() is None
        before = time.monotonic()
        deadline = RunPolicy(cluster_timeout=1.5).deadline()
        assert before + 1.5 <= deadline <= time.monotonic() + 1.5


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(3)
        for _ in range(3):
            assert not breaker.is_open
            breaker.record_failure()
        assert breaker.is_open
        assert breaker.trips == 1

    def test_success_resets(self):
        breaker = CircuitBreaker(2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.is_open


class TestOutcomeValidation:
    def test_accepts_clean_outcome(self):
        outcome = {"stats": {"engine_steps": 1},
                   "points_to": {"p": ["a"], "q": []}}
        assert validate_outcome(outcome, ["p", "q"])

    def test_rejects_corrupt_shapes(self):
        assert not validate_outcome(corrupt_outcome(), ["p"])
        assert not validate_outcome(None, [])
        assert not validate_outcome({"points_to": {}}, [])
        assert not validate_outcome(
            {"stats": {}, "points_to": {"p": [1, 2]}}, ["p"])
        assert not validate_outcome(
            {"stats": {}, "points_to": {}}, ["missing"])


class TestErrorMarkers:
    def test_generic_marker_is_retryable(self):
        marker = error_marker(RuntimeError("boom"))
        assert is_error_marker(marker)
        assert marker["retryable"]
        with pytest.raises(ClusterExecutionError, match="cluster 3"):
            raise_marker(marker, 3)

    def test_budget_marker_reraises_original_type(self):
        marker = error_marker(AnalysisBudgetExceeded("summary-engine", 42))
        assert not marker["retryable"]
        with pytest.raises(AnalysisBudgetExceeded) as exc:
            raise_marker(marker, 0)
        assert exc.value.steps == 42

    def test_marker_survives_json(self):
        marker = error_marker(ValueError("x"))
        assert is_error_marker(json.loads(json.dumps(marker)))


class TestFaultSpecs:
    def test_parse_fault_arg(self):
        spec = parse_fault_arg("hang:#3:1.5")
        assert (spec.kind, spec.match, spec.duration) == ("hang", "#3", 1.5)
        assert parse_fault_arg("crash").match == "*"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fault_arg("meltdown")
        with pytest.raises(ValueError):
            parse_fault_arg("hang:*:soon")

    def test_selectors(self):
        assert FaultSpec(kind="crash", match="#2").matches("abc", 2)
        assert not FaultSpec(kind="crash", match="#2").matches("abc", 1)
        assert FaultSpec(kind="crash", match="ab").matches("abc", 9)
        assert FaultSpec(kind="crash").matches("anything", 0)

    def test_coarsest(self):
        assert coarsest(["fscs", "fsci"]) == "fsci"
        assert coarsest(["andersen", "fsci", "steensgaard"]) \
            == "steensgaard"


# ----------------------------------------------------------------------
# the ladder is sound, rung by rung
# ----------------------------------------------------------------------

class TestLadderSoundness:
    def test_every_rung_covers_clean_fscs(self):
        program = figure5_program()
        result = _fresh(program)
        clean = result.analyze_all(backend="simulate").results
        for cluster, clean_outcome in zip(result.clusters, clean):
            for level in ("fsci", "andersen", "steensgaard"):
                degr = degraded_outcome(
                    program, cluster, level,
                    steens=result.cascade.steensgaard,
                    callgraph=result.callgraph, error="test", attempts=2)
                assert is_degraded(degr)
                assert degr["precision"] == level
                assert degr["attempts"] == 2
                _assert_superset(clean_outcome, degr)

    def test_ladder_prefers_fsci(self):
        program = figure5_program()
        result = _fresh(program)
        degr = degrade_ladder(program, result.clusters[0],
                              callgraph=result.callgraph)
        assert degr["precision"] == "fsci"

    def test_degraded_outcome_rejects_fscs(self):
        program = figure5_program()
        result = _fresh(program)
        with pytest.raises(ValueError):
            degraded_outcome(program, result.clusters[0], "fscs")


# ----------------------------------------------------------------------
# in-process resilience (simulate backend)
# ----------------------------------------------------------------------

class TestInProcessResilience:
    def test_crash_degrades_exactly_faulted_cluster(self):
        result = _fresh(figure5_program())
        report = result.analyze_all(
            backend="simulate", policy=RunPolicy(retries=1, degrade=True),
            faults=[FaultSpec(kind="crash", match="#1")])
        assert report.degraded == {1: "fsci"}
        assert result.degraded_clusters == {1: "fsci"}
        assert result.degraded_precision_of([result.clusters[1]]) == "fsci"
        assert result.degraded_precision_of([result.clusters[0]]) is None
        assert report.attempts[1] == 2  # initial try + one retry

    def test_crash_without_degrade_raises(self):
        result = _fresh(figure5_program())
        with pytest.raises(ClusterExecutionError, match="cluster 0"):
            result.analyze_all(
                backend="simulate",
                policy=RunPolicy(retries=1, degrade=False),
                faults=[FaultSpec(kind="crash", match="#0")])

    def test_corrupt_outcome_is_caught_and_degraded(self):
        result = _fresh(figure5_program())
        report = result.analyze_all(
            backend="simulate", policy=RunPolicy(retries=1, degrade=True),
            faults=[FaultSpec(kind="corrupt", match="#0")])
        assert 0 in report.degraded
        assert validate_outcome(report.results[0],
                                [str(p) for p in
                                 result.clusters[0].pointer_members])

    def test_flaky_once_recovers_on_retry(self, tmp_path):
        result = _fresh(figure5_program())
        report = result.analyze_all(
            backend="simulate", policy=RunPolicy(retries=2, degrade=True),
            faults=[FaultSpec(kind="flaky-once", match="*",
                              token_dir=str(tmp_path))])
        assert report.degraded == {}
        assert result.degraded_clusters == {}
        assert all(n == 2 for n in report.attempts.values())

    def test_degraded_outcomes_never_cached(self, tmp_path):
        result = _fresh(figure5_program())
        cache = SummaryCache(str(tmp_path))
        report = result.analyze_all(
            backend="simulate", cache=cache,
            policy=RunPolicy(retries=0, degrade=True),
            faults=[FaultSpec(kind="crash", match="#0")])
        assert 0 in report.degraded
        # Only the healthy clusters were stored.
        assert len(cache) == len(result.clusters) - 1
        assert cache.get(report.fingerprints[0]) is None
        # A later healthy run recomputes cluster 0 at full precision and
        # backfills the cache.
        clean = _fresh(figure5_program()).analyze_all(
            backend="simulate", cache=cache)
        assert clean.degraded == {}
        assert clean.cache_hits == len(result.clusters) - 1
        assert len(cache) == len(result.clusters)

    def test_partial_cache_run_with_policy(self, tmp_path):
        """A policy-armed run over a *partially* warm cache: the pending
        clusters are a non-prefix subset of the targets, so attempt
        counts must be remapped from batch positions back to input
        order (regression: this used to IndexError on every daemon
        ``invalidate`` with a policy armed)."""
        result = _fresh(figure5_program())
        cache = SummaryCache(str(tmp_path))
        first = result.analyze_all(backend="simulate", cache=cache)
        n = len(result.clusters)
        assert n >= 2
        # Evict the LAST cluster's entry so pending == [n - 1].
        os.remove(cache._path(first.fingerprints[n - 1]))
        again = _fresh(figure5_program()).analyze_all(
            backend="simulate", cache=cache,
            policy=RunPolicy(retries=0, degrade=True))
        assert again.cache_hits == n - 1
        assert again.degraded == {}
        assert again.attempts == {n - 1: 1}
        assert [r["points_to"] for r in again.results] == \
            [r["points_to"] for r in first.results]

    def test_budget_exceeded_still_raises_without_policy(self):
        result = _fresh(figure5_program(), fscs_budget=1)
        with pytest.raises(AnalysisBudgetExceeded):
            result.analyze_all(backend="simulate")

    def test_budget_exceeded_degrades_with_policy(self):
        result = _fresh(figure5_program(), fscs_budget=1)
        report = result.analyze_all(
            backend="simulate", policy=RunPolicy(degrade=True))
        assert len(report.degraded) == len(result.clusters)
        assert all(is_degraded(r) for r in report.results)


# ----------------------------------------------------------------------
# a partly warm cache: every reported index is a target index
# ----------------------------------------------------------------------

class TestTargetIndices:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failure_names_the_target_index(self, backend, tmp_path):
        """With the cache holding all but the last two clusters, a crash
        in the last one names it by its index in the analyzed list (not
        by its place among the clusters left to solve), and so do the
        attempts, the schedule and the degraded map."""
        cache = SummaryCache(str(tmp_path))
        first = _fresh(figure5_program()).analyze_all(backend="simulate",
                                                      cache=cache)
        n = len(first.results)
        assert n >= 3
        evicted = {first.fingerprints[n - 2], first.fingerprints[n - 1]}
        for fp in evicted:
            os.remove(cache._path(fp))
        pending = [i for i, fp in enumerate(first.fingerprints)
                   if fp in evicted]
        crash = [FaultSpec(kind="crash", match=f"#{n - 1}")]
        with pytest.raises(ClusterExecutionError,
                           match=f"^cluster {n - 1} failed") as exc:
            _fresh(figure5_program()).analyze_all(
                backend=backend, jobs=2, cache=cache, faults=crash)
        assert exc.value.index == n - 1
        report = _fresh(figure5_program()).analyze_all(
            backend=backend, jobs=2, cache=cache, faults=crash,
            policy=RunPolicy(retries=1, degrade=True))
        assert report.cache_hits == n - len(pending)
        assert list(report.degraded) == [n - 1]
        assert report.attempts == {i: 2 if i == n - 1 else 1
                                   for i in pending}
        assert sorted(i for part in report.schedule for i in part) \
            == pending


# ----------------------------------------------------------------------
# the per-cluster timeout reaches the solver on both backends
# ----------------------------------------------------------------------

class TestClusterTimeout:
    @pytest.mark.parametrize("name", ["sendmail", "httpd"])
    def test_expired_deadline_degrades_alike_on_both_backends(self, name):
        """An already-expired deadline fails every solve that reaches a
        deadline check (every 256 FSCI iterations or engine steps), so
        it degrades a fixed set of clusters: the same ones, to the same
        levels, on either backend."""
        cfg = next(c for c in corpus_configs(scale=SCALE)
                   if c.name == name)
        program = generate(cfg).program
        policy = RunPolicy(cluster_timeout=0.0, retries=0, degrade=True)
        sim = _fresh(program).analyze_all(backend="simulate",
                                          policy=policy)
        prc = _fresh(program).analyze_all(backend="processes", jobs=2,
                                          policy=policy)
        assert 0 < len(sim.degraded) < len(sim.results)
        assert sim.degraded == prc.degraded
        clean = _fresh(program).analyze_all(backend="simulate").results
        for i, clean_outcome in enumerate(clean):
            if i in sim.degraded:
                _assert_superset(clean_outcome, sim.results[i])
            else:
                assert sim.results[i] == prc.results[i] == clean_outcome

    def test_deadline_is_lifted_once_the_load_is_done(self):
        """Analyses a deadline-bound load memoizes answer later queries
        (which extend their summaries lazily) long after it expired."""
        cfg = next(c for c in corpus_configs(scale=SCALE)
                   if c.name == "sendmail")
        program = generate(cfg).program
        timeout = 1.0
        result = _fresh(program)
        report = result.analyze_all(
            backend="simulate",
            policy=RunPolicy(cluster_timeout=timeout, retries=0,
                             degrade=True))
        assert report.degraded == {}
        time.sleep(timeout + 0.05)  # every solve's deadline has passed
        reference = _fresh(program)
        exit_index = program.cfg_of(program.entry).exit
        queried = 0
        for cluster in result.clusters:
            for loc in sorted(cluster.slice.statements, key=str):
                if loc.function == program.entry and loc.index == exit_index:
                    continue
                for p in sorted(cluster.pointer_members, key=str):
                    assert result.points_to(p, loc) == \
                        reference.points_to(p, loc), (p, loc)
                    queried += 1
        assert queried


# ----------------------------------------------------------------------
# processes backend: the real fault matrix
# ----------------------------------------------------------------------

class TestProcessesFaultMatrix:
    def _clean(self, result):
        return _fresh(figure5_program()).analyze_all(
            backend="simulate").results

    @pytest.mark.parametrize("kind", ["crash", "corrupt"])
    def test_fault_degrades_only_faulted_cluster(self, kind):
        result = _fresh(figure5_program())
        clean = self._clean(result)
        report = result.analyze_all(
            backend="processes", jobs=2,
            policy=RunPolicy(cluster_timeout=30.0, retries=1,
                             degrade=True),
            faults=[FaultSpec(kind=kind, match="#0")])
        assert list(report.degraded) == [0]
        _assert_superset(clean[0], report.results[0])
        for i, outcome in enumerate(report.results):
            if i != 0:
                assert outcome["points_to"] == clean[i]["points_to"]

    def test_hang_trips_timeout_and_degrades(self):
        result = _fresh(figure5_program())
        clean = self._clean(result)
        report = result.analyze_all(
            backend="processes", jobs=2,
            policy=RunPolicy(cluster_timeout=0.5, retries=0, grace=1.0,
                             degrade=True),
            faults=[FaultSpec(kind="hang", match="#0", duration=15.0)])
        assert 0 in report.degraded
        _assert_superset(clean[0], report.results[0])

    def test_hung_worker_is_killed_after_one_cluster_timeout(self):
        """A worker silent for ``cluster_timeout + grace`` is killed
        then, not one more ``cluster_timeout`` later."""
        result = _fresh(figure5_program())
        t0 = time.monotonic()
        report = result.analyze_all(
            backend="processes", jobs=2,
            policy=RunPolicy(cluster_timeout=0.5, retries=0, grace=1.0,
                             degrade=True),
            faults=[FaultSpec(kind="hang", match="#0", duration=15.0)])
        assert time.monotonic() - t0 <= 1.8
        assert "no result within 1.5s; worker killed" \
            in report.results[0]["error"]

    def test_flaky_once_recovers_across_processes(self, tmp_path):
        result = _fresh(figure5_program())
        clean = self._clean(result)
        report = result.analyze_all(
            backend="processes", jobs=2,
            policy=RunPolicy(retries=2, degrade=True),
            faults=[FaultSpec(kind="flaky-once", match="#0",
                              token_dir=str(tmp_path))])
        assert report.degraded == {}
        assert report.results[0]["points_to"] == clean[0]["points_to"]

    def test_crash_without_policy_is_structured_error(self):
        result = _fresh(figure5_program())
        with pytest.raises(ClusterExecutionError):
            result.analyze_all(
                backend="processes", jobs=2,
                faults=[FaultSpec(kind="crash", match="#0")])

    def test_crash_costs_only_its_cluster(self):
        """The crashed cluster takes a second attempt; every other
        cluster, its part-mates included, finishes on its first — on
        either backend."""
        cfg = next(c for c in corpus_configs(scale=SCALE)
                   if c.name == "sendmail")
        program = generate(cfg).program
        clean = _fresh(program).analyze_all(backend="simulate").results
        for backend in BACKENDS:
            report = _fresh(program).analyze_all(
                backend=backend, jobs=2,
                policy=RunPolicy(cluster_timeout=30.0, retries=1,
                                 degrade=True),
                faults=[FaultSpec(kind="crash", match="#0")])
            assert len(report.results) > 100
            assert list(report.degraded) == [0], backend
            assert report.attempts[0] == 2
            assert {i: n for i, n in report.attempts.items() if i != 0} \
                == {i: 1 for i in range(1, len(report.results))}
            for i in range(1, len(report.results)):
                assert report.results[i] == clean[i]

    def test_retries_sleep_one_backoff_per_round(self, tmp_path,
                                                 monkeypatch):
        """Every cluster fails once: the one retry round sleeps one
        backoff for all of them, not one per cluster — on either
        backend."""
        sleeps = _count_sleeps(monkeypatch)
        policy = RunPolicy(retries=1, degrade=True)
        clean = _fresh(figure5_program()).analyze_all(
            backend="simulate").results
        for backend in BACKENDS:
            result = _fresh(figure5_program())
            assert len(result.clusters) >= 3
            token_dir = tmp_path / backend
            token_dir.mkdir()
            sleeps.clear()
            report = result.analyze_all(
                backend=backend, jobs=2, policy=policy,
                faults=[FaultSpec(kind="flaky-once", match="*",
                                  token_dir=str(token_dir))])
            assert report.degraded == {}
            assert max(report.attempts.values()) == 2
            assert [r["points_to"] for r in report.results] == \
                [r["points_to"] for r in clean]
            assert sleeps == [policy.delay(2)], backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_breaker_ends_the_rounds(self, backend, monkeypatch):
        """Every cluster crashes on every attempt, with three retries
        allowed and a breaker of two: the first retry round trips the
        breaker, so each cluster runs twice and the run sleeps once."""
        sleeps = _count_sleeps(monkeypatch)
        policy = RunPolicy(retries=3, max_consecutive_failures=2,
                           degrade=True)
        result = _fresh(figure5_program())
        clean = self._clean(result)
        report = result.analyze_all(
            backend=backend, jobs=2, policy=policy,
            faults=[FaultSpec(kind="crash", match="*")])
        n = len(report.results)
        assert n >= 3
        assert report.attempts == {i: 2 for i in range(n)}
        assert sleeps == [policy.delay(2)]
        assert sorted(report.degraded) == list(range(n))
        for i in range(n):
            assert report.results[i]["attempts"] == 2
            _assert_superset(clean[i], report.results[i])

    @pytest.mark.parametrize("scenario",
                             ["clean", "crash", "hang-kill", "error"])
    def test_no_worker_outlives_analyze_all(self, scenario, monkeypatch):
        """Every forked worker is reaped before ``analyze_all`` returns
        or raises: waiting for it afterwards finds no such child."""
        pids = []
        real_fork = os.fork

        def recording_fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        result = _fresh(figure5_program())
        kw = {
            "clean": {},
            "crash": dict(policy=RunPolicy(cluster_timeout=30.0, retries=1,
                                           degrade=True),
                          faults=[FaultSpec(kind="crash", match="#0")]),
            "hang-kill": dict(policy=RunPolicy(cluster_timeout=0.5,
                                               retries=0, grace=1.0,
                                               degrade=True),
                              faults=[FaultSpec(kind="hang", match="#0",
                                                duration=15.0)]),
            "error": dict(faults=[FaultSpec(kind="crash", match="#0")]),
        }[scenario]
        t0 = time.monotonic()
        if scenario == "error":
            with pytest.raises(ClusterExecutionError):
                result.analyze_all(backend="processes", jobs=2, **kw)
        else:
            report = result.analyze_all(backend="processes", jobs=2, **kw)
            assert sorted(report.degraded) == \
                ([] if scenario == "clean" else [0])
        if scenario == "hang-kill":
            assert "worker killed" in report.results[0]["error"]
            assert time.monotonic() - t0 < 10.0
        assert pids
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_three_fault_kinds_at_once(self):
        """The acceptance scenario: crash + hang + corrupt in one run."""
        result = _fresh(figure5_program())
        assert len(result.clusters) >= 3
        clean = self._clean(result)
        report = result.analyze_all(
            backend="processes", jobs=2,
            policy=RunPolicy(cluster_timeout=1.0, retries=1, grace=1.0,
                             degrade=True),
            faults=[FaultSpec(kind="crash", match="#0"),
                    FaultSpec(kind="hang", match="#1", duration=3.0),
                    FaultSpec(kind="corrupt", match="#2")])
        assert sorted(report.degraded) == [0, 1, 2]
        assert set(report.degraded.values()) <= {"fsci", "cutshortcut",
                                                 "andersen",
                                                 "steensgaard_fs",
                                                 "steensgaard"}
        for i in (0, 1, 2):
            _assert_superset(clean[i], report.results[i])
        for i in range(3, len(report.results)):
            assert i not in report.degraded
            assert report.results[i]["points_to"] == clean[i]["points_to"]


# ----------------------------------------------------------------------
# corpus-wide differential: degraded ⊇ clean, program by program
# ----------------------------------------------------------------------

class TestCorpusDegradationDifferential:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_degraded_covers_clean(self, name):
        cfg = next(c for c in corpus_configs(scale=SCALE)
                   if c.name == name)
        program = generate(cfg).program
        clean = _fresh(program).analyze_all(backend="simulate")
        degraded = _fresh(program).analyze_all(
            backend="simulate", policy=RunPolicy(retries=0, degrade=True),
            faults=[FaultSpec(kind="crash", match="*")])
        n = len(clean.results)
        assert len(degraded.results) == n
        assert len(degraded.degraded) == n  # every cluster fell
        for clean_outcome, degr_outcome in zip(clean.results,
                                               degraded.results):
            assert is_degraded(degr_outcome)
            _assert_superset(clean_outcome, degr_outcome)


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------

def _run_cli(args, cwd):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    return subprocess.run([sys.executable, "-m", "repro"] + args,
                          capture_output=True, text=True, env=env,
                          cwd=cwd)


class TestCLIResilience:
    def test_analyze_degrades_faulted_clusters(self, tmp_path):
        example = os.path.abspath(
            os.path.join(EXAMPLES_DIR, "server_demo.c"))
        proc = _run_cli(
            ["analyze", example, "--backend", "processes", "--jobs", "2",
             "--degrade", "--cluster-timeout", "30",
             "--inject-fault", "crash:#0", "--inject-fault", "corrupt:#1"],
            str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "degraded clusters: 2" in proc.stdout
        assert "#0: fsci" in proc.stdout

    def test_analyze_without_degrade_fails_cleanly(self, tmp_path):
        example = os.path.abspath(
            os.path.join(EXAMPLES_DIR, "server_demo.c"))
        proc = _run_cli(
            ["analyze", example, "--backend", "processes", "--jobs", "2",
             "--inject-fault", "crash:#0"], str(tmp_path))
        assert proc.returncode == 1
        assert "cluster 0 failed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_analyze_rejects_bad_fault_spec(self, tmp_path):
        example = os.path.abspath(
            os.path.join(EXAMPLES_DIR, "server_demo.c"))
        proc = _run_cli(["analyze", example, "--inject-fault", "meltdown"],
                        str(tmp_path))
        assert proc.returncode != 0
        assert "unknown fault kind" in proc.stderr


class TestNetFaults:
    """Connection-level chaos: the :class:`ChaosProxy` socket shim that
    bench.chaos points at fleet workers."""

    @pytest.fixture()
    def echo(self):
        """A TCP echo server plus a ChaosProxy in front of it; yields
        (proxy, call) where call(data, timeout) round-trips through the
        proxy and returns whatever came back (b"" on silence)."""
        import socket
        import threading

        from repro.core.faults import ChaosProxy

        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(8)
        alive = True

        def serve():
            while alive:
                try:
                    conn, _ = server.accept()
                except OSError:
                    return
                data = conn.recv(4096)
                if data:
                    conn.sendall(data)
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        proxy = ChaosProxy("127.0.0.1", server.getsockname()[1])

        def call(data, timeout=2.0):
            sock = socket.create_connection(("127.0.0.1", proxy.port),
                                            timeout=timeout)
            try:
                sock.sendall(data)
                sock.settimeout(timeout)
                chunks = []
                while True:
                    try:
                        chunk = sock.recv(4096)
                    except socket.timeout:
                        break
                    if not chunk:
                        break
                    chunks.append(chunk)
                return b"".join(chunks)
            finally:
                sock.close()

        yield proxy, call
        alive = False
        proxy.close()
        server.close()

    def test_transparent_without_fault(self, echo):
        proxy, call = echo
        assert call(b"hello\n") == b"hello\n"
        assert proxy.stats["connections"] == 1

    def test_delay_adds_latency_then_heals(self, echo):
        import time

        from repro.core.faults import NetFault

        proxy, call = echo
        proxy.set_fault(NetFault("delay", duration=0.3))
        t0 = time.monotonic()
        assert call(b"slow\n") == b"slow\n"
        assert time.monotonic() - t0 >= 0.3
        assert proxy.stats["delayed_chunks"] >= 1
        proxy.clear_fault()
        t0 = time.monotonic()
        assert call(b"fast\n") == b"fast\n"
        assert time.monotonic() - t0 < 0.3

    def test_blackhole_swallows_silently(self, echo):
        from repro.core.faults import NetFault

        proxy, call = echo
        proxy.set_fault(NetFault("blackhole"))
        assert call(b"void\n", timeout=0.5) == b""
        assert proxy.stats["blackholed_chunks"] >= 1

    def test_drop_truncates_the_response_promptly(self, echo):
        import time

        from repro.core.faults import NetFault

        proxy, call = echo
        proxy.set_fault(NetFault("drop", after_bytes=3))
        t0 = time.monotonic()
        got = call(b"echoes\n", timeout=5.0)
        # A prefix arrives, then the connection tears down with a FIN —
        # the client sees truncation, not a hang.
        assert got == b"ech"
        assert time.monotonic() - t0 < 2.0
        assert proxy.stats["dropped_conns"] >= 1

    def test_garble_flips_bytes_but_keeps_newlines(self, echo):
        from repro.core.faults import NetFault, garble_bytes

        proxy, call = echo
        proxy.set_fault(NetFault("garble"))
        got = call(b"ab\ncd\n")
        assert got == b"\x7f\x7f\n\x7f\x7f\n"
        assert proxy.stats["garbled_chunks"] >= 1
        # The pure helper matches what went over the wire.
        assert garble_bytes(b"ab\ncd\n") == b"\x7f\x7f\n\x7f\x7f\n"

    def test_unknown_fault_kind_rejected(self):
        from repro.core.faults import NetFault

        with pytest.raises(ValueError, match="unknown net fault"):
            NetFault("meltdown")
