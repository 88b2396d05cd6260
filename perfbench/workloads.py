"""The benchmark's inputs, passes and answer checks.

Two families share one shape -- build inputs, run passes, check every
answer against ``expected.json``:

* ``Corpus``: the 20 Table-1 stand-ins plus the 7 hand-written mini-C
  sources, each analyzed from scratch (cascade, then every cluster's
  summaries) in-process or on worker processes;
* ``Daemon``: an in-process ``AliasServer`` on a Unix socket serving
  the hand-written sources and two generated multi-web files, driven
  by one closed-loop ``ServerClient`` with a stream of never-repeating
  one-function edits.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import re
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.oracle import execute
from repro.bench import sources
from repro.bench.corpus import corpus_configs
from repro.bench.synth import SynthConfig, generate, generate_source
from repro.core.bootstrap import BootstrapConfig, BootstrapResult
from repro.core.cascade import CascadeConfig, run_cascade
from repro.frontend import parse_program
from repro.ir import Loc, Program
from repro.ir.serialize import program_to_dict
from repro.server import AliasServer, ServerConfig
from repro.server.client import ServerClient

#: Corpus size as a fraction of the paper's pointer counts.  Small
#: enough that one pass (dominated by FSCI and summary construction)
#: fits several times into one run.
SCALE = 0.005
PARTS = 5
#: bench/table1.py's Andersen threshold, scaled with the programs.
ANDERSEN_THRESHOLD = max(6, int(60 * SCALE))
#: Concrete-oracle searches per run: ``(max_steps, max_paths, last
#: branch first)``.  The oracle searches depth first and takes each
#: branch's first successor first; in the generated stand-ins that is
#: mostly a recursive call, so the first search seldom returns to
#: ``main``'s exit within its budget.  The second, deeper search takes
#: the last successor first and leaves the recursion early.
#: ``expected.json`` records the facts each program yields here.
ORACLE_BUDGETS = ((300, 64, False), (3000, 8, True))
#: Generated daemon files (``generate_source`` pointer budgets).  The
#: generator seed is fixed: two files with equal pointer counts from
#: different seeds still differed by half in edit cost, which would
#: make the metrics measure the workload seed.
GEN_POINTERS = (64, 400)
GEN_SEED = 5
EDITS_PER_PASS = 4
#: Names the generated edits introduce; answers are digested with the
#: number masked, so one digest covers every fresh name.
_FRESH = re.compile(r"fresh\d+")

Op = Callable[[], Tuple[float, bool]]


def digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(_FRESH.sub("fresh#", blob).encode()).hexdigest()[:16]


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _request(tracer: Any, rid: Any) -> Any:
    return tracer.request(rid) if tracer is not None \
        else contextlib.nullcontext()


# ----------------------------------------------------------------------
# corpus workloads
# ----------------------------------------------------------------------
class Corpus:
    """The Table-1 corpus, analyzed program by program in one pass."""

    def __init__(self, backend: str, tiny: bool) -> None:
        self.backend = backend
        self.configs = corpus_configs(scale=SCALE)
        self.source_names = sources.names()
        if tiny:
            self.configs = self.configs[:3]
            self.source_names = self.source_names[:2]
        self.jobs = nproc()

    @property
    def size(self) -> int:
        return len(self.configs) + len(self.source_names)

    def build_inputs(self) -> List[Tuple[str, Program]]:
        """Fresh ``Program`` objects for the generated stand-ins (the
        hand-written sources are parsed inside each pass)."""
        return [(cfg.name, generate(cfg).program) for cfg in self.configs]

    def input_digests(self, programs: List[Tuple[str, Program]]
                      ) -> Dict[str, str]:
        out = {name: digest(program_to_dict(p)) for name, p in programs}
        for name in self.source_names:
            out[name] = digest(sources.source(name))
        return out

    def analyze(self, program: Program) -> Any:
        cascade = run_cascade(
            program, CascadeConfig(andersen_threshold=ANDERSEN_THRESHOLD))
        result = BootstrapResult(program, cascade,
                                 BootstrapConfig(parts=PARTS))
        if self.backend == "processes":
            return result.analyze_all(backend="processes", jobs=self.jobs,
                                      scheduler="lpt")
        return result.analyze_all()

    def run_pass(self, programs: List[Tuple[str, Program]],
                 tracer: Any = None) -> Tuple[float, List[Tuple]]:
        """One timed pass; returns its wall time and, per program,
        ``(name, program, report)``."""
        out = []
        t0 = time.perf_counter()
        for name, program in programs:
            with _request(tracer, name):
                out.append((name, program, self.analyze(program)))
        for name in self.source_names:
            with _request(tracer, name):
                program = parse_program(sources.source(name))
                out.append((name, program, self.analyze(program)))
        return time.perf_counter() - t0, out

    @staticmethod
    def answer(report: Any) -> str:
        """Digest of every cluster's points-to outcome at the entry
        exit, in cluster order."""
        return digest([outcome["points_to"] for outcome in report.results])

    @staticmethod
    def oracle_check(program: Program, report: Any,
                     budgets: Tuple = ORACLE_BUDGETS) -> Tuple[int, int]:
        """Concrete runs must stay inside the static answer at the
        entry's exit: returns ``(pointers violating, facts checked)``."""
        static: Dict[str, set] = {}
        for outcome in report.results:
            for ptr, objs in outcome["points_to"].items():
                static.setdefault(ptr, set()).update(objs)
        exit_loc = Loc(program.entry, program.cfg_of(program.entry).exit)
        seen: Dict[str, set] = {str(ptr): set() for ptr in program.pointers}
        limit = sys.getrecursionlimit()
        for steps, paths, last_first in budgets:
            view = _LastBranchFirst(program) if last_first else program
            # The search recurses about once per step.
            sys.setrecursionlimit(max(limit, 2 * steps))
            try:
                concrete = execute(view, max_steps=steps, max_paths=paths)
            finally:
                sys.setrecursionlimit(limit)
            for ptr in program.pointers:
                seen[str(ptr)].update(
                    str(o) for o in concrete.pts_after(exit_loc, ptr))
        violations = sum(not objs <= static.get(ptr, set())
                         for ptr, objs in seen.items())
        return violations, sum(len(objs) for objs in seen.values())


class _LastBranchFirst:
    """``program`` with every node's successors listed last first, for
    the oracle's depth-first search.  It still explores only paths of
    the program."""

    def __init__(self, program: Program) -> None:
        self._program = program

    def cfg_of(self, func: str) -> Any:
        return _ReversedSuccessors(self._program.cfg_of(func))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._program, name)


class _ReversedSuccessors:
    def __init__(self, cfg: Any) -> None:
        self._cfg = cfg

    def successors(self, node: int) -> Tuple[int, ...]:
        return tuple(reversed(self._cfg.successors(node)))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cfg, name)


# ----------------------------------------------------------------------
# daemon workloads
# ----------------------------------------------------------------------
def served_files(tiny: bool) -> Dict[str, str]:
    """The daemon's files: the hand-written sources, then the generated
    multi-web files, smallest first."""
    names = sources.names()[:2] if tiny else sources.names()
    texts = {n: sources.source(n) for n in names}
    for n in GEN_POINTERS[:1] if tiny else GEN_POINTERS:
        texts[f"gen{n}"] = generate_source(
            SynthConfig(name=f"gen{n}", pointers=n, seed=GEN_SEED))
    return texts


def web_functions(text: str) -> List[int]:
    return sorted(int(w) for w in re.findall(r"void web(\d+)\(void\)", text))


def edit_source(text: str, web: int, fresh: int) -> str:
    """Rewrite ``web<web>`` so its first pointer ends on a fresh local:
    content no earlier op produced, in one non-entry function."""
    head = f"void web{web}(void) {{\n"
    start = text.index(head) + len(head)
    end = text.index("\n}", start)
    return (text[:start] + f"    int fresh{fresh};\n" + text[start:end]
            + f"\n    w{web}p0 = &fresh{fresh};" + text[end:])


def leaks_answer(result: Dict[str, Any]) -> Dict[str, Any]:
    """A leaks answer without its refresh timing."""
    return {k: v for k, v in result.items() if k != "refresh"}


class Daemon:
    """One in-process daemon, its served files and its edit stream."""

    def __init__(self, seed: int, tiny: bool, expected: Dict[str, Any],
                 workdir: str) -> None:
        self.expected = expected["daemon"]
        self.texts = served_files(tiny)
        self.paths = {k: os.path.abspath(os.path.join(workdir, k + ".c"))
                      for k in self.texts}
        # Short and relative: Unix socket paths are capped near 100
        # bytes, and the checkout may sit anywhere.
        self.socket = os.path.relpath(os.path.join(workdir, "d.sock"))
        self.edit_key = [k for k in self.texts if k.startswith("gen")][-1]
        # The seed orders the edited functions; every op does the same
        # kind of work whatever the order.
        self.webs = web_functions(self.texts[self.edit_key])
        random.Random(seed).shuffle(self.webs)
        self.next_edit = 0
        self.reanalyzed: List[int] = []
        self.server: Optional[AliasServer] = None
        self.thread: Optional[threading.Thread] = None
        self.client: Optional[ServerClient] = None
        self._mtime = 0

    # ------------------------------------------------------------------
    def write(self, key: str, text: str) -> None:
        path = self.paths[key]
        with open(path, "w") as handle:
            handle.write(text)
        # Watch mode keys on (mtime, size); make every write visible
        # even on file systems with coarse timestamps.
        self._mtime = max(self._mtime + 1_000_000, time.time_ns())
        os.utime(path, ns=(self._mtime, self._mtime))

    def start(self) -> Dict[str, Any]:
        """Write the inputs, start the daemon and cold-load every file
        with a ``leaks`` query; returns the answers by file."""
        for key, text in self.texts.items():
            self.write(key, text)
        self.server = AliasServer(ServerConfig(), socket_path=self.socket)
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"install_signal_handlers": False, "ready": ready})
        self.thread.start()
        if not ready.wait(60.0):
            raise RuntimeError("daemon did not start")
        self.client = ServerClient(socket_path=self.socket)
        return {key: self.client.call("leaks", file=self.paths[key])
                for key in self.texts}

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.request_shutdown()
            self.thread.join(60.0)
            self.server = None

    def check_start(self, answers: Dict[str, Any]) -> int:
        """Check the served texts and the cold-load answers against the
        committed digests; returns the mismatches."""
        return sum(digest(self.texts[key]) != self.expected[key]["source"]
                   or digest(leaks_answer(answer))
                   != self.expected[key]["leaks"]
                   for key, answer in answers.items())

    # ------------------------------------------------------------------
    def edit_op(self) -> Op:
        """The next edit: restore the last edited function, rewrite the
        next one, then ask for one of its pointers (triggering the
        watch-mode reload) and for the file's leaks."""
        k = self.next_edit
        self.next_edit += 1
        web = self.webs[k % len(self.webs)]
        key = self.edit_key
        text = edit_source(self.texts[key], web, k)
        expected = self.expected[key]

        def op() -> Tuple[float, bool]:
            t0 = time.perf_counter()
            self.write(key, text)
            pts = self.client.points_to(self.paths[key], f"w{web}p0")
            leaks = self.client.call("leaks", file=self.paths[key])
            elapsed = time.perf_counter() - t0
            reanalyzed = leaks["refresh"]["reanalyzed"]
            self.reanalyzed.append(reanalyzed)
            ok = (digest(pts) == expected["edit"][str(web)]
                  and digest(leaks_answer(leaks)) == expected["edit_leaks"]
                  and reanalyzed >= 1)
            return elapsed, ok
        return op

    def ops(self) -> List[Op]:
        return [self.edit_op() for _ in range(EDITS_PER_PASS)]


def run_ops(ops: List[Op]) -> Tuple[float, List[float], int]:
    """Run one pass of daemon ops back to back: ``(wall, latencies,
    failed)``; an exception fails its op."""
    gc.collect()
    latencies: List[float] = []
    failed = 0
    t0 = time.perf_counter()
    for op in ops:
        t1 = time.perf_counter()
        try:
            elapsed, ok = op()
        except Exception:  # noqa: BLE001 - a failed op is a result
            elapsed, ok = time.perf_counter() - t1, False
        latencies.append(elapsed)
        failed += not ok
    return time.perf_counter() - t0, latencies, failed
