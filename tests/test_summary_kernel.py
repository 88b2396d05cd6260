"""Differential suite: the summary kernel against its frozenset oracle.

:class:`~repro.analysis.summaries.SummaryEngine` solves Algorithms 4
and 5 over interned term and constraint ids;
:class:`~repro.analysis.reference.ReferenceSummaryEngine` is the same
algorithm over ``Term`` objects and constraint frozensets.  On shared
FSCI results the two must agree on

* every (function, cluster pointer) exit summary,
* every ``function_summary``,
* ``backward_from(after=False)`` at every call site, for every cluster
  pointer,
* the ``ClusterFSCS.analyze`` statistics other than ``engine_steps``
  (the engines walk in different orders), and
* ``ClusterFSCS.points_to`` of every cluster pointer at the entry's exit,

on every cluster of the Table-1 corpus stand-ins, the hand-written
sources, the examples and random programs, under every engine
configuration in :data:`CONFIGS`.  A step budget that trips must trip
both engines.  The step count of the kernel repeats under every
``PYTHONHASHSEED``, and so do its summaries.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, Iterable, List

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.fscs import ClusterFSCS
from repro.analysis.reference import ReferenceSummaryEngine
from repro.analysis.summaries import ObjTerm, SummaryEngine
from repro.bench import corpus_configs, generate, sources
from repro.core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig
from repro.errors import AnalysisBudgetExceeded
from repro.frontend import parse_program
from repro.ir import CallStmt, Loc, Program

from .test_properties import programs

#: The benchmark's corpus size and Andersen threshold.
SCALE = 0.005
THRESHOLD = 6

CORPUS_NAMES = [cfg.name for cfg in corpus_configs(scale=SCALE)]

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = sorted(f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".c"))

#: Engine configurations: keyword overrides of the cluster's defaults.
#: ``max_cond_atoms=1`` hits the constraint cap on almost every merge.
CONFIGS: Dict[str, Dict[str, Any]] = {
    "default": {},
    "no_fsci": {"fsci": None},
    "path_insensitive": {"path_sensitive": False},
    "cap_1": {"max_cond_atoms": 1},
}


class _Pinned(ClusterFSCS):
    """A cluster analysis answering through a given engine."""

    def __init__(self, base: ClusterFSCS, engine: Any) -> None:
        super().__init__(base.program, base.cluster, tracked=base.tracked,
                         relevant=base.relevant, callgraph=base.callgraph,
                         fsci=base.fsci)
        self._pinned = engine

    @property
    def engine(self) -> Any:
        return self._pinned


def _engine(cls: type, base: ClusterFSCS, config: Dict[str, Any]) -> Any:
    options = {"fsci": base.fsci, "relevant": base.relevant,
               "callgraph": base.callgraph}
    options.update(config)
    return cls(base.program, **options)


def _bases(program: Program) -> List[ClusterFSCS]:
    """Every cluster of the default cascade, FSCI solved once and shared
    by both engines."""
    boot = BootstrapAnalyzer(program, BootstrapConfig(
        cascade=CascadeConfig(andersen_threshold=THRESHOLD))).run()
    return [boot.analysis_for(c) for c in boot.clusters]


def _whole(program: Program) -> ClusterFSCS:
    """The unclustered baseline: every statement relevant."""
    return ClusterFSCS(program, cluster=program.pointers)


def observe(cls: type, base: ClusterFSCS,
            config: Dict[str, Any]) -> Dict[Any, Any]:
    """Everything the engine answers about one cluster."""
    engine = _engine(cls, base, config)
    fscs = _Pinned(base, engine)
    program = base.program
    stats = fscs.analyze()
    del stats["engine_steps"]
    out: Dict[Any, Any] = {"stats": stats}
    pointers = sorted(base.cluster, key=str)
    for func in sorted(program.functions):
        if engine.is_transparent(func):
            continue
        for p in pointers:
            out["exit", func, p] = engine.exit_summary(func, ObjTerm(p))
        out["summary", func] = frozenset(
            engine.function_summary(func, pointers))
        for idx, stmt in program.cfg_of(func).statements():
            if not isinstance(stmt, CallStmt):
                continue
            site = Loc(func, idx)
            for p in pointers:
                out["site", site, p] = engine.backward_from(
                    site, ObjTerm(p), after=False)
    exit_loc = Loc(program.entry, program.cfg_of(program.entry).exit)
    for p in pointers:
        out["points_to", p] = fscs.points_to(p, exit_loc)
    return out


def assert_agree(bases: List[ClusterFSCS], label: str,
                 configs: Iterable[str] = tuple(CONFIGS)) -> None:
    for config_name in configs:
        config = CONFIGS[config_name]
        for i, base in enumerate(bases):
            kernel = observe(SummaryEngine, base, config)
            reference = observe(ReferenceSummaryEngine, base, config)
            if kernel != reference:
                diff = sorted(str(k) for k in kernel.keys() | reference.keys()
                              if kernel.get(k) != reference.get(k))
                pytest.fail(f"{label} cluster {i} [{config_name}]: "
                            f"{len(diff)} answers differ, e.g. {diff[:3]}")


class TestCorpus:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_program(self, name):
        program = generate(next(c for c in corpus_configs(scale=SCALE)
                                if c.name == name)).program
        assert_agree(_bases(program), name)

    @pytest.mark.parametrize("name", sources.names())
    def test_hand_written_source(self, name):
        # Without FSCI every store splits on satisfiable atoms: one
        # string_table cluster grows 98,321 summary entries, which take
        # the reference a minute.  So no ``no_fsci`` here, and no
        # unclustered baseline.
        program = parse_program(sources.source(name))
        assert_agree(_bases(program), name,
                     [c for c in CONFIGS if c != "no_fsci"])

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_example(self, name):
        with open(os.path.join(EXAMPLES_DIR, name)) as handle:
            program = parse_program(handle.read())
        assert_agree(_bases(program) + [_whole(program)], name)


class TestRandomPrograms:
    @given(programs())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_programs(self, program):
        assert_agree(_bases(program) + [_whole(program)], "random")


class TestBudget:
    @pytest.mark.parametrize("name", ["event_queue", "fops_dispatch"])
    def test_tripped_budget_trips_both_engines(self, name):
        program = parse_program(sources.source(name))
        bases = _bases(program)
        steps = []
        for base in bases:
            engine = _engine(SummaryEngine, base, {})
            _Pinned(base, engine).analyze()
            steps.append(engine.steps)
        base = bases[steps.index(max(steps))]
        budget = {"budget": max(steps) // 2}
        for cls in (SummaryEngine, ReferenceSummaryEngine):
            with pytest.raises(AnalysisBudgetExceeded) as exc:
                _Pinned(base, _engine(cls, base, budget)).analyze()
            assert exc.value.analysis == "summary-engine"


_SEED_SCRIPT = """
import hashlib, json
from repro.analysis.summaries import ObjTerm
from repro.bench import sources
from repro.core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig
from repro.frontend import parse_program

out = {}
for name in ("fops_dispatch", "string_table"):
    program = parse_program(sources.source(name))
    boot = BootstrapAnalyzer(program, BootstrapConfig(
        cascade=CascadeConfig(andersen_threshold=6))).run()
    rows, steps = [], 0
    for cluster in boot.clusters:
        engine = boot.analysis_for(cluster).engine
        for func in sorted(program.functions):
            for p in sorted(cluster.pointer_members, key=str):
                entries = engine.exit_summary(func, ObjTerm(p))
                rows.append([func, str(p), sorted(
                    [str(t), sorted(map(repr, c))] for t, c in entries)])
        steps += engine.steps
    blob = json.dumps(rows, sort_keys=True).encode()
    out[name] = [hashlib.sha256(blob).hexdigest(), steps]
print(json.dumps(out, sort_keys=True))
"""


class TestHashSeeds:
    def test_summaries_and_steps_repeat_across_hash_seeds(self, tmp_path):
        """Exit summaries and engine steps of two hand-written sources
        whose summary conditions hit the constraint cap in merges."""
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.join(
                           os.path.dirname(__file__), "..", "src"))
            proc = subprocess.run(
                [sys.executable, "-c", _SEED_SCRIPT], capture_output=True,
                text=True, env=env, cwd=str(tmp_path))
            assert proc.returncode == 0, proc.stderr
            outs.append(json.loads(proc.stdout))
        assert outs[0] == outs[1]
        assert all(steps > 0 for _, steps in outs[0].values())
