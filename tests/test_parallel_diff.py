"""Cross-backend differential suite.

The processes backend forks workers that inherit the analyzed program
and solve their clusters there, so a result that depends on the process
it was computed in (state lost or corrupted across the fork, results
mis-assigned to cluster indices on the way back) shows up as a
points-to difference against the in-process simulate backend.  These
tests pin the contract: for every corpus program and example, both
backends produce bit-identical per-cluster points-to sets, every
cluster solved on its reduced program alone equals its whole-program
solve (Theorem 6 — the equality the content key's role as the
summary-cache, daemon-store and fleet routing key rests on, since the
key hashes exactly that reduced program), the bitmask solver kernels
agree with the frozenset reference solvers end to end, the corpus, its
cluster keys and the diagnostic commands are deterministic across hash
seeds, and the report covers every cluster exactly once.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.reference import (
    ReferenceAndersen,
    ReferenceFSCI,
    ReferenceFSCIResult,
)
from repro.analysis.fscs import ClusterFSCS
from repro.bench import corpus_configs, generate
from repro.frontend import parse_program
from repro.core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig
from repro.core.shipping import cluster_outcome, cluster_subprogram
from repro.ir import CallGraph, Loc

#: Small enough that all twenty corpus programs stay CI-friendly.
SCALE = 0.004

CORPUS_NAMES = [cfg.name for cfg in corpus_configs(scale=SCALE)]

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = sorted(f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".c"))

RACY_SOURCE = """
int a, b;
int lock_obj;
int *the_lock;

void lock(int *l) { }
void unlock(int *l) { }

void t1(void) {
    lock(the_lock);
    a = a + 1;
    unlock(the_lock);
    b = b + 1;
}

void t2(void) {
    lock(the_lock);
    a = a + 1;
    unlock(the_lock);
    b = b + 2;
}

int main() {
    the_lock = &lock_obj;
    t1();
    t2();
    return 0;
}
"""

#: Two taint flows routed through memory and a call, plus a sanitized
#: path — exercises the demand-driven resolver end to end.
TAINTED_SOURCE = """
int getenv(int x);
int input(void);
int system(int cmd);
int exec(int cmd);
int sanitize(int v);

int slot_a, slot_b;

void fill(int *out) {
    int v;
    v = getenv(1);
    *out = v;
}

void drain(int c) {
    system(c);
}

int main() {
    int raw;
    int clean;
    fill(&slot_a);
    drain(slot_a);

    slot_b = input();
    exec(slot_b);

    clean = sanitize(getenv(2));
    system(clean);
    return 0;
}
"""


def _fresh(program):
    config = BootstrapConfig(cascade=CascadeConfig(andersen_threshold=6))
    return BootstrapAnalyzer(program, config).run()


def _outcomes(program, backend, **kw):
    """Per-cluster outcomes from a fresh analysis under one backend."""
    return _fresh(program).analyze_all(backend=backend, **kw)


def _points_to(report):
    return [r["points_to"] for r in report.results]


def _without_fsci_iterations(stats):
    return {k: v for k, v in stats.items() if k != "fsci_iterations"}


def _assert_full_coverage(report, n_clusters):
    """Satellite contract: every cluster exactly once, by stable index."""
    assert len(report.results) == n_clusters
    assert all(r is not None for r in report.results)
    assert sorted(report.cluster_times) == list(range(n_clusters))
    flat = sorted(i for part in report.schedule for i in part)
    assert flat == list(range(n_clusters))


class TestCorpusDifferential:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_backends_agree(self, name):
        cfg = next(c for c in corpus_configs(scale=SCALE)
                   if c.name == name)
        program = generate(cfg).program
        sim = _outcomes(program, "simulate")
        boot = _fresh(program)
        prc = boot.analyze_all(backend="processes", jobs=2, scheduler="lpt")
        assert _points_to(sim) == _points_to(prc)
        # Siblings that share one FSCI pass run in one worker.
        part_of = {i: k for k, part in enumerate(prc.schedule)
                   for i in part}
        parts_of_group = {}
        for i, cluster in enumerate(boot.clusters):
            if cluster.fsci_key is not None:
                parts_of_group.setdefault(cluster.fsci_key,
                                          set()).add(part_of[i])
        assert all(len(parts) == 1 for parts in parts_of_group.values())
        # Every stat must agree too: the workers run the same summary
        # construction on the same (inherited) program.
        assert [r["stats"] for r in sim.results] == \
            [r["stats"] for r in prc.results]
        n = len(sim.results)
        for report in (sim, prc):
            _assert_full_coverage(report, n)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_kernel_on_off_agree(self, name, monkeypatch):
        """The bitmask kernels are pure representation: swapping the
        frozenset reference solvers in at every binding the cascade and
        the cluster analyses solve through must not change any cluster
        or any outcome."""
        cfg = next(c for c in corpus_configs(scale=SCALE)
                   if c.name == name)
        program = generate(cfg).program
        kernel = _fresh(program)
        on = kernel.analyze_all()
        monkeypatch.setattr("repro.core.clusters.Andersen",
                            ReferenceAndersen)
        monkeypatch.setattr("repro.analysis.fscs.FSCI", ReferenceFSCI)
        reference = _fresh(program)
        off = reference.analyze_all()
        assert isinstance(reference.analysis_for(reference.clusters[0]).fsci,
                          ReferenceFSCIResult)
        assert [c.members for c in kernel.clusters] == \
            [c.members for c in reference.clusters]
        assert _points_to(on) == _points_to(off)
        # FSCI iterations differ by design: the kernel visits only
        # anchors, the reference every supergraph node.
        assert [_without_fsci_iterations(r["stats"]) for r in on.results] \
            == [_without_fsci_iterations(r["stats"]) for r in off.results]


    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_outcome_reads_the_entry_summaries(self, name):
        """``cluster_outcome`` reads each pointer's set off the entry's
        exit summaries; a backward walk from the entry's exit
        (``ClusterFSCS.points_to``) must find the same set."""
        cfg = next(c for c in corpus_configs(scale=SCALE)
                   if c.name == name)
        program = generate(cfg).program
        exit_loc = Loc(program.entry, program.cfg_of(program.entry).exit)
        boot = _fresh(program)
        for i, cluster in enumerate(boot.clusters):
            analysis = boot.analysis_for(cluster)
            outcome = cluster_outcome(analysis)
            walked = {str(p): sorted(str(o) for o in
                                     analysis.points_to(p, exit_loc))
                      for p in analysis.cluster}
            assert outcome["points_to"] == walked, i


def _subprogram_outcomes(boot):
    """Every cluster solved on its reduced program ``Prog_P`` alone
    (:func:`cluster_subprogram`, the program its content key hashes),
    with one FSCI run per base slice shared by the siblings that carry
    the same sub-program, as a whole-program run shares it.  Siblings'
    sub-programs differ at most in the globals their members keep."""
    shared = {}
    outcomes = []
    for cluster in boot.clusters:
        program = cluster_subprogram(boot.program, cluster, boot.callgraph)
        base = cluster.parent_slice if cluster.parent_slice is not None \
            else cluster.slice
        key = (id(base), frozenset(program.globals))
        if key not in shared:
            callgraph = CallGraph(program)
            probe = ClusterFSCS(program, cluster=(), tracked=base.vp,
                                relevant=base.statements,
                                callgraph=callgraph)
            shared[key] = (program, callgraph, probe.fsci)
        program, callgraph, fsci = shared[key]
        outcomes.append(cluster_outcome(ClusterFSCS(
            program, cluster=cluster.pointer_members,
            tracked=cluster.slice.vp, relevant=cluster.slice.statements,
            callgraph=callgraph, fsci=fsci,
            max_cond_atoms=boot.config.max_cond_atoms,
            budget=boot.config.fscs_budget)))
    return outcomes


def _assert_payload_solves_agree(program):
    boot = _fresh(program)
    reduced = _subprogram_outcomes(boot)
    whole = boot.analyze_all()
    assert [r["points_to"] for r in reduced] == _points_to(whole)
    key = "summarized_functions"
    assert [r["stats"][key] for r in reduced] == \
        [r["stats"][key] for r in whole.results]


class TestPayloadSolveDifferential:
    """Theorem 6 end to end: a cluster's reduced program ``Prog_P``
    computes exactly what the whole program computes for it."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus(self, name):
        cfg = next(c for c in corpus_configs(scale=SCALE)
                   if c.name == name)
        _assert_payload_solves_agree(generate(cfg).program)

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_examples(self, example):
        with open(os.path.join(EXAMPLES_DIR, example)) as handle:
            _assert_payload_solves_agree(
                parse_program(handle.read(), path=example))


class TestExamplesDifferential:
    @pytest.mark.parametrize("example", EXAMPLES)
    def test_backends_agree(self, example):
        with open(os.path.join(EXAMPLES_DIR, example)) as handle:
            program = parse_program(handle.read(), path=example)
        sim = _outcomes(program, "simulate")
        prc = _outcomes(program, "processes", jobs=2)
        assert _points_to(sim) == _points_to(prc)
        _assert_full_coverage(prc, len(sim.results))

    def test_schedulers_agree(self):
        """LPT reorders execution but must not change any outcome."""
        with open(os.path.join(EXAMPLES_DIR, EXAMPLES[0])) as handle:
            program = parse_program(handle.read(), path=EXAMPLES[0])
        greedy = _outcomes(program, "simulate", scheduler="greedy")
        lpt = _outcomes(program, "simulate", scheduler="lpt")
        assert _points_to(greedy) == _points_to(lpt)


#: Runs the whole corpus through the kernel solvers and digests every
#: cluster's content key and every per-cluster points-to set; both
#: backends on one representative program pin the worker path.  The
#: keys name on-disk cache entries and are made by coordinator and
#: workers in different processes, so they must not depend on the hash
#: seed.  Forked workers keep their parent's hash secret, so it is the
#: several PYTHONHASHSEED values the test runs this script under that
#: cover hash-order independence.
_CORPUS_DIGEST_SCRIPT = """
import hashlib, json, sys
from repro.bench import corpus_configs, generate
from repro.core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig
from repro.core import cluster_fingerprints

digest = hashlib.sha256()
for cfg in corpus_configs(scale=%r):
    program = generate(cfg).program
    config = BootstrapConfig(cascade=CascadeConfig(andersen_threshold=6))
    boot = BootstrapAnalyzer(program, config).run()
    keys = cluster_fingerprints(program, boot.clusters, boot.callgraph)
    digest.update(json.dumps(keys).encode())
    backends = (("simulate", {}), ("processes", {"jobs": 2})) \
        if cfg.name == "ctrace" else (("simulate", {}),)
    for backend, kw in backends:
        report = boot.analyze_all(backend=backend, **kw)
        blob = json.dumps([r["points_to"] for r in report.results],
                          sort_keys=True)
        digest.update(cfg.name.encode())
        digest.update(backend.encode())
        digest.update(blob.encode())
print(digest.hexdigest())
""" % SCALE


class TestCorpusHashSeedDeterminism:
    """The twenty-program corpus through the kernel solvers produces
    one bit-identical digest of cluster keys and outcomes under
    different PYTHONHASHSEED values."""

    def test_corpus_digest_stable_across_hash_seeds(self, tmp_path):
        outs = set()
        for seed in (0, 12345):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.path.join(
                           os.path.dirname(__file__), "..", "src"))
            proc = subprocess.run(
                [sys.executable, "-c", _CORPUS_DIGEST_SCRIPT],
                capture_output=True, text=True, env=env,
                cwd=str(tmp_path))
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout.strip())
        assert len(outs) == 1 and outs.pop()


def _run_cli(args, seed, cwd):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    proc = subprocess.run([sys.executable, "-m", "repro"] + args,
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout


class TestDiagnosticsDeterministic:
    """`repro races` / `repro check` / `repro taint` must not depend on
    hash order: the same source gives bit-identical diagnostics in any
    interpreter, whatever its PYTHONHASHSEED."""

    def test_races_stable_across_hash_seeds(self, tmp_path):
        src = tmp_path / "racy.c"
        src.write_text(RACY_SOURCE)
        args = ["races", str(src), "--threads", "t1,t2", "--json"]
        outs = {_run_cli(args, seed, str(tmp_path)) for seed in (0, 12345)}
        assert len(outs) == 1
        diags = json.loads(outs.pop())
        assert diags  # the unlocked counter b does race

    def test_check_stable_across_hash_seeds(self, tmp_path):
        example = os.path.abspath(
            os.path.join(EXAMPLES_DIR, "memsafe_buggy.c"))
        args = ["check", example, "--json"]
        outs = {_run_cli(args, seed, str(tmp_path)) for seed in (0, 98765)}
        assert len(outs) == 1
        assert json.loads(outs.pop())

    def test_taint_stable_across_hash_seeds(self, tmp_path):
        example = os.path.abspath(
            os.path.join(EXAMPLES_DIR, "taint_demo.c"))
        args = ["taint", example, "--json"]
        outs = {_run_cli(args, seed, str(tmp_path)) for seed in (0, 54321)}
        assert len(outs) == 1
        diags = json.loads(outs.pop())
        assert any(d["rule"] == "taint-flow" for d in diags)

    def test_taint_memory_flow_stable_across_hash_seeds(self, tmp_path):
        src = tmp_path / "taint_mem.c"
        src.write_text(TAINTED_SOURCE)
        args = ["taint", str(src), "--json"]
        outs = {_run_cli(args, seed, str(tmp_path))
                for seed in (0, 31337, 424242)}
        assert len(outs) == 1
        diags = json.loads(outs.pop())
        # Both seeded flows survive, with their full witness traces.
        assert len([d for d in diags if d["rule"] == "taint-flow"]) == 2
        assert all(d.get("trace") for d in diags)
