"""Differential suite for the two new cascade stages.

Field-sensitive Steensgaard and the cut-shortcut rewrite enter the
pipeline in three places — the :class:`CascadeConfig` clustering knobs,
the Andersen refinement stage, and two new resilience-ladder rungs.
These tests pin the contracts corpus-wide:

* the field-sensitive partitioning *refines* the classic one (every FS
  class sits inside exactly one classic class, over the same universe),
  so clusters built from it still form a valid disjoint cover;
* both new ladder rungs produce sound outcomes — for every corpus
  program and cluster, the degraded points-to set covers the clean
  FSCS one;
* the cut-shortcut rewrite is bracketed by the concrete oracle below
  and baseline Andersen above (oracle ⊆ cut-shortcut ⊆ Andersen), on
  the corpus and on hypothesis-generated adversarial programs;
* per-pointer results are invariant across cascade configurations:
  merging the per-cluster FSCS outcomes by pointer gives bit-identical
  sets whether clustering is classic or field-sensitive with the
  rewrite on (the paper's slice-equivalence theorem, now for the new
  stages);
* the fp-heavy workload resolves every seeded indirect call site to
  exactly the generator's ground truth;
* digests are stable across ``PYTHONHASHSEED`` values and backends.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

from repro.analysis import (
    Andersen,
    CutShortcut,
    CutShortcutTransform,
    Steensgaard,
    SteensgaardFS,
    SteensgaardFSResult,
    execute,
)
from repro.bench import corpus_configs, generate
from repro.bench.corpus import fp_heavy
from repro.core import (
    BootstrapAnalyzer,
    BootstrapConfig,
    CascadeConfig,
    cascade_summary,
    degraded_outcome,
    is_degraded,
    percentile,
    run_cascade,
    size_summary,
    validate_outcome,
)
from repro.ir import ProgramBuilder, Var
from repro.ir.dot import cutshortcut_dot, steensgaard_dot

from .helpers import figure5_program
from .test_properties import COMMON, programs

#: Small enough that the twenty-program corpus stays CI-friendly.
SCALE = 0.004

CORPUS_NAMES = [cfg.name for cfg in corpus_configs(scale=SCALE)]

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

NEW_LEVELS = ("cutshortcut", "steensgaard_fs")


def _program(name):
    cfg = next(c for c in corpus_configs(scale=SCALE) if c.name == name)
    return generate(cfg).program


def _fresh(program, **cascade_kw):
    config = BootstrapConfig(
        cascade=CascadeConfig(andersen_threshold=6, **cascade_kw))
    return BootstrapAnalyzer(program, config).run()


def _assert_superset(clean_outcome, degraded):
    clean_pts = clean_outcome["points_to"]
    degr_pts = degraded["points_to"]
    assert set(degr_pts) == set(clean_pts)
    for name, objs in clean_pts.items():
        assert set(objs) <= set(degr_pts[name]), name


def _merged_points_to(program, **cascade_kw):
    """Per-pointer union of the per-cluster FSCS outcomes."""
    report = _fresh(program, **cascade_kw).analyze_all(backend="simulate")
    merged = {}
    for outcome in report.results:
        for name, objs in outcome["points_to"].items():
            merged.setdefault(name, set()).update(objs)
    return merged


# ----------------------------------------------------------------------
# field-sensitive partitioning refines the classic one
# ----------------------------------------------------------------------

class TestFieldSensitiveRefinesClassic:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_refinement_and_cover(self, name):
        program = _program(name)
        classic = Steensgaard(program).run().partitions()
        fs = SteensgaardFS(program).run().partitions()
        owner = {}
        for i, part in enumerate(classic):
            for member in part:
                owner[member] = i
        for part in fs:
            owners = {owner[m] for m in part if m in owner}
            assert len(owners) <= 1, \
                f"FS class spans classic classes: {sorted(map(str, part))}"
        classic_universe = set().union(*classic) if classic else set()
        fs_universe = set().union(*fs) if fs else set()
        assert classic_universe == fs_universe
        # Refinement means at least as many classes, never fewer.
        assert len(fs) >= len(classic)


# ----------------------------------------------------------------------
# the two new ladder rungs are sound, corpus-wide
# ----------------------------------------------------------------------

class TestNewRungsCoverClean:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_rungs_cover_clean_fscs(self, name):
        program = _program(name)
        result = _fresh(program)
        clean = result.analyze_all(backend="simulate").results
        for cluster, clean_outcome in zip(result.clusters, clean):
            names = sorted(clean_outcome["points_to"])
            for level in NEW_LEVELS:
                degr = degraded_outcome(
                    program, cluster, level,
                    steens=result.cascade.steensgaard,
                    callgraph=result.callgraph, error="test", attempts=1)
                assert is_degraded(degr)
                assert degr["precision"] == level
                assert validate_outcome(degr, names)
                _assert_superset(clean_outcome, degr)


class TestNewRungsOnExamples:
    EXAMPLES = sorted(f for f in os.listdir(EXAMPLES_DIR)
                      if f.endswith(".c"))

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_rungs_and_configs_cover_clean(self, example):
        from repro.frontend import parse_program
        with open(os.path.join(EXAMPLES_DIR, example)) as handle:
            program = parse_program(handle.read(), path=example)
        result = _fresh(program)
        clean = result.analyze_all(backend="simulate").results
        for cluster, clean_outcome in zip(result.clusters, clean):
            for level in NEW_LEVELS:
                degr = degraded_outcome(
                    program, cluster, level,
                    steens=result.cascade.steensgaard,
                    callgraph=result.callgraph, error="test", attempts=1)
                _assert_superset(clean_outcome, degr)
        assert _merged_points_to(program) == _merged_points_to(
            program, clustering="steensgaard_fs", cutshortcut=True)


# ----------------------------------------------------------------------
# cut-shortcut is bracketed: oracle ⊆ cut-shortcut ⊆ Andersen
# ----------------------------------------------------------------------

class TestCutShortcutSoundness:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_bracketed(self, name):
        program = _program(name)
        orc = execute(program, max_steps=200, max_paths=600)
        an = Andersen(program).run()
        cs = CutShortcut(program).run()
        for p in program.pointers:
            assert orc.points_to(p) <= cs.points_to(p), str(p)
            assert cs.points_to(p) <= an.points_to(p), str(p)

    @given(programs())
    @settings(**COMMON)
    def test_generated_bracketed(self, prog):
        orc = execute(prog, max_steps=200, max_paths=600)
        an = Andersen(prog).run()
        cs = CutShortcut(prog).run()
        for p in prog.pointers:
            assert orc.points_to(p) <= cs.points_to(p), str(p)
            assert cs.points_to(p) <= an.points_to(p), str(p)

    def test_transform_is_cached_per_program(self):
        program = _program("ctrace")
        first = CutShortcutTransform.of(program)
        assert CutShortcutTransform.of(program) is first

    def test_transform_cached_per_bound(self):
        """Alternating callers with different bounds (cascade vs. the
        resilience rung's default) each keep their own cache entry
        instead of rebuilding the whole-program transform per call."""
        program = _program("ctrace")
        default = CutShortcutTransform.of(program)
        narrow = CutShortcutTransform.of(program, source_bound=1)
        assert narrow is not default
        assert CutShortcutTransform.of(program) is default
        assert CutShortcutTransform.of(program, source_bound=1) is narrow


class TestSiteAssociationConservatism:
    """Hand-built IR outside the lowering shape must degrade to plain
    Andersen flow instead of losing it (the module's own contract)."""

    def _identity_program(self):
        from repro.ir import Copy
        from repro.ir.program import retval_var
        b = ProgramBuilder()
        with b.function("g", params=("gp",)) as f:
            f.ret("gp")
        with b.function("main") as f:
            f.addr("pa", "oa")
            f.addr("pb", "ob")
            f.call("g", ["pa"], ret="x")
            f.call("g", ["pb"], ret="y")
            f.skip()
            # Stray return copy, value-equal to the first (cut) site's
            # copy but NOT in a recognized call-site shape: it reads the
            # shared conduit, which holds {oa, ob}.
            f.emit(Copy(f.var("x"), retval_var("g")))
        return b.build()

    def test_stray_return_copy_keeps_conduit_flow(self):
        program = self._identity_program()
        transform = CutShortcutTransform.of(program)
        # Both real sites are cut; the stray site is not.
        assert len(transform.cut_edges) == 2
        an = Andersen(program).run()
        cs = CutShortcut(program).run()
        x = Var("x", "main")
        # The stray copy must keep the full conduit flow even though it
        # is value-equal to a cut statement at another location.
        assert cs.points_to(x) == an.points_to(x)
        assert len(an.points_to(x)) == 2
        # Precision at the genuinely cut second site is retained.
        assert len(cs.points_to(Var("y", "main"))) == 1

    def test_stray_param_copy_disables_other_callee(self):
        from repro.ir import Copy
        from repro.ir.program import param_var
        b = ProgramBuilder()
        with b.function("g", params=("gp",)) as f:
            f.ret("gp")
        with b.function("h", params=("hp",)) as f:
            f.ret("hp")
        with b.function("main") as f:
            f.addr("pa", "oa")
            f.addr("pb", "ob")
            # Stray copy binding h's parameter, sitting inside g's
            # param-copy chain: association for h is unreliable here.
            f.emit(Copy(param_var("h", 0), f.var("pb")))
            f.call("g", ["pa"], ret="x")
            f.call("h", ["pa"], ret="y")
        program = b.build()
        transform = CutShortcutTransform.of(program)
        cut_callees = {g for _, _, g in transform.cut_edges}
        assert "g" in cut_callees
        assert "h" not in cut_callees
        an = Andersen(program).run()
        cs = CutShortcut(program).run()
        y = Var("y", "main")
        assert cs.points_to(y) == an.points_to(y)
        assert len(an.points_to(y)) == 2


# ----------------------------------------------------------------------
# cascade configurations agree pointer by pointer
# ----------------------------------------------------------------------

class TestConfigDifferential:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_merged_outcomes_identical(self, name):
        """Different clusterings slice differently, but the per-pointer
        union of cluster outcomes must be bit-identical — the sliced
        FSCS equals the whole-program one regardless of the cover."""
        program = _program(name)
        classic = _merged_points_to(program)
        fs = _merged_points_to(program, clustering="steensgaard_fs",
                               cutshortcut=True)
        assert classic == fs

    def test_unknown_clustering_rejected(self):
        program = figure5_program()
        with pytest.raises(ValueError):
            run_cascade(program,
                        CascadeConfig(clustering="flow-sensitive"))

    def test_fs_clustering_uses_fs_solver(self):
        program = figure5_program()
        cascade = run_cascade(
            program, CascadeConfig(clustering="steensgaard_fs"))
        assert isinstance(cascade.steensgaard, SteensgaardFSResult)


# ----------------------------------------------------------------------
# fp-heavy ground truth: every seeded site resolves exactly
# ----------------------------------------------------------------------

class TestFpResolution:
    @pytest.fixture(scope="class")
    def workload(self):
        return fp_heavy(scale=0.05)

    @pytest.mark.parametrize("analysis", [Andersen, CutShortcut])
    def test_sites_resolve_exactly(self, workload, analysis):
        assert workload.fp_truth, "generator seeded no fp sites"
        result = analysis(workload.program).run()
        for entry in workload.fp_truth:
            fp = Var(str(entry["site"]))
            resolved = {o.name for o in result.points_to(fp)
                        if isinstance(o, Var)}
            assert resolved == set(entry["targets"]), entry["site"]

    def test_cutshortcut_tightens_somewhere(self, workload):
        program = workload.program
        an = Andersen(program).run()
        cs = CutShortcut(program).run()
        shrunk = sum(1 for p in program.pointers
                     if cs.points_to(p) < an.points_to(p))
        assert shrunk >= 1


# ----------------------------------------------------------------------
# reporting: percentile summaries and the analyze --json payload
# ----------------------------------------------------------------------

class TestSizeSummaries:
    def test_percentile_nearest_rank(self):
        values = [1, 2, 3, 4, 10]
        assert percentile(values, 0.5) == 3
        assert percentile(values, 0.95) == 10
        assert percentile([7], 0.5) == 7
        assert percentile([], 0.5) == 0

    def test_size_summary_keys(self):
        summary = size_summary([3, 1, 2])
        assert summary == {"p50": 2, "p95": 3, "max": 3}

    def test_cascade_summary_has_distributions(self):
        result = _fresh(figure5_program())
        data = cascade_summary(result)
        clusters = data["clusters"]
        assert clusters["member_counts"] == \
            sorted(clusters["member_counts"], reverse=True)
        assert sum(clusters["member_counts"]) >= clusters["count"]
        assert set(clusters["size_summary"]) == {"p50", "p95", "max"}
        parts = data["partitions"]
        assert parts["count"] >= clusters["count"] or parts["count"] > 0
        assert set(parts["size_summary"]) == {"p50", "p95", "max"}
        json.dumps(data)  # stays serializable for analyze --json


# ----------------------------------------------------------------------
# dot exports for the new stages
# ----------------------------------------------------------------------

class TestDotExports:
    def test_cutshortcut_dot_draws_cut_and_shortcut_edges(self):
        program = fp_heavy(scale=0.05).program
        result = CutShortcut(program).run()
        assert result.transform.cut_edges, "workload produced no cuts"
        dot = cutshortcut_dot(result)
        assert dot.startswith("digraph cutshortcut {")
        assert "cut @" in dot and "shortcut" in dot

    def test_cutshortcut_dot_accepts_bare_transform(self):
        program = fp_heavy(scale=0.05).program
        transform = CutShortcutTransform.of(program)
        assert cutshortcut_dot(transform).startswith(
            "digraph cutshortcut {")

    def test_steensgaard_dot_renders_fs_result(self):
        dot = steensgaard_dot(SteensgaardFS(figure5_program()).run())
        assert dot.startswith("digraph steensgaard {")


# ----------------------------------------------------------------------
# CLI: new flags, dot choices, and the --json distributions
# ----------------------------------------------------------------------

def _run_cli(args, cwd, seed=0):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    proc = subprocess.run([sys.executable, "-m", "repro"] + args,
                          capture_output=True, text=True, env=env,
                          cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestCli:
    def test_analyze_json_reports_distributions(self, tmp_path):
        example = os.path.abspath(
            os.path.join(EXAMPLES_DIR, "server_demo.c"))
        out = _run_cli(["analyze", example, "--json",
                        "--clustering", "steensgaard_fs",
                        "--cutshortcut"], str(tmp_path))
        data = json.loads(out[out.index("{"):])
        assert data["clusters"]["member_counts"]
        assert set(data["clusters"]["size_summary"]) == \
            {"p50", "p95", "max"}
        assert data["partitions"]["count"] > 0
        assert set(data["partitions"]["size_summary"]) == \
            {"p50", "p95", "max"}

    @pytest.mark.parametrize("choice,header", [
        ("steensgaard-fs", "digraph steensgaard {"),
        ("cutshortcut", "digraph cutshortcut {"),
    ])
    def test_dot_choices(self, tmp_path, choice, header):
        example = os.path.abspath(
            os.path.join(EXAMPLES_DIR, "server_demo.c"))
        out = _run_cli(["analyze", example, "--dot", choice],
                       str(tmp_path))
        assert header in out


# ----------------------------------------------------------------------
# determinism: one digest across hash seeds and backends
# ----------------------------------------------------------------------

_DIGEST_SCRIPT = """
import hashlib, json
from repro.bench import corpus_configs, generate
from repro.core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig

digest = hashlib.sha256()
for cfg in corpus_configs(scale=%r):
    program = generate(cfg).program
    config = BootstrapConfig(cascade=CascadeConfig(
        andersen_threshold=6, clustering="steensgaard_fs",
        cutshortcut=True))
    boot = BootstrapAnalyzer(program, config).run()
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


class TestHashSeedDeterminism:
    def test_fs_cutshortcut_digest_stable(self, tmp_path):
        outs = set()
        for seed in (0, 12345):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.path.join(
                           os.path.dirname(__file__), "..", "src"))
            proc = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                capture_output=True, text=True, env=env,
                cwd=str(tmp_path))
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout.strip())
        assert len(outs) == 1 and outs.pop()
