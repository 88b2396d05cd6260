"""Command-line driver: analyze mini-C files with the bootstrapped
cascade.

Examples::

    python -m repro analyze driver.c                 # cascade report
    python -m repro analyze driver.c --aliases p q   # alias query
    python -m repro analyze driver.c --backend processes --jobs 4 \
        --cache .repro-cache                         # real parallel run
    python -m repro partitions driver.c              # Steensgaard view
    python -m repro races driver.c --threads t1,t2   # race detection
    python -m repro check driver.c --sarif out.sarif # memory-safety scan
    python -m repro taint driver.c --fail-on error   # source->sink flows
    python -m repro demand driver.c --points-to p q  # demand Andersen
    python -m repro serve --socket /tmp/repro.sock   # query daemon
    python -m repro query --socket /tmp/repro.sock \
        points-to driver.c p                         # ask the daemon
    python -m repro fleet serve --port 7400 --workers 4 \
        --cache .repro-cache                         # sharded fleet
    python -m repro fleet status --port 7400         # ring + breakers
    python -m repro cache stats .repro-cache         # summary-cache peek
    python -m repro table1 --scale 0.02              # the paper's table
    python -m repro figure1                          # the paper's figure

Exit codes: 0 success, 1 findings/races with the ``--fail-on-*`` flags,
a cluster that failed past its retry budget without ``--degrade``, or
input that cannot be used (an unreadable file, C source the frontend
rejects, an unknown ``--entry`` or ``--threads`` name), 2 bad flags,
3 an analysis budget was exceeded (clean message on stderr, never a
traceback).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import List, Optional, Sequence

from .analysis import Andersen, Steensgaard
from .core import (
    BootstrapAnalyzer,
    BootstrapConfig,
    CascadeConfig,
    ClusterExecutionError,
    RunPolicy,
    parse_fault_arg,
    resolve_pointer,
)
from .errors import AnalysisBudgetExceeded, ReproError
from .ir import Loc, Program, Var

#: Exit code for a clean :class:`AnalysisBudgetExceeded` failure.
EXIT_BUDGET = 3


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:
        from . import __version__
        return __version__


def _load(path: str, entry: str) -> Program:
    from .frontend import parse_program
    try:
        with open(path, "r") as handle:
            source = handle.read()
    except OSError as exc:
        raise SystemExit(f"repro: cannot read {path}: {exc.strerror}")
    try:
        return parse_program(source, entry=entry, path=path)
    except ReproError as exc:
        # Source the frontend rejects (with its line and column) or an
        # undefined --entry: one line on stderr, never a traceback.
        raise SystemExit(f"repro: {path}: {exc}")


def _find_var(program: Program, name: str) -> Var:
    """Resolve ``name`` or ``func::name`` against the program."""
    try:
        return resolve_pointer(program, name)
    except LookupError as exc:
        raise SystemExit(str(exc))


def _severity_fails(diags, fail_on: Optional[str]) -> bool:
    """True when any finding is at least as severe as ``fail_on``."""
    if fail_on is None:
        return False
    from .core.report import SEVERITY_ORDER
    limit = SEVERITY_ORDER[fail_on]
    return any(SEVERITY_ORDER.get(d.severity, 3) <= limit for d in diags)


def cmd_analyze(args: argparse.Namespace) -> int:
    program = _load(args.file, args.entry)
    config = BootstrapConfig(
        cascade=CascadeConfig(andersen_threshold=args.threshold,
                              use_oneflow=args.oneflow,
                              clustering=args.clustering,
                              sharing_bound=args.sharing_bound,
                              cutshortcut=args.cutshortcut),
        parts=args.parts,
        fscs_budget=args.fscs_budget)
    result = BootstrapAnalyzer(program, config).run()
    counts = program.counts()
    print(f"{args.file}: {counts['functions']} functions, "
          f"{counts['pointers']} pointers, "
          f"{counts['pointer_assignments']} pointer assignments")
    cascade = result.cascade
    print(f"cascade: {len(cascade.clusters)} clusters "
          f"(max {cascade.max_cluster_size()}, "
          f"{cascade.refined_partitions} partitions Andersen-refined) "
          f"in {cascade.partition_time + cascade.clustering_time:.3f}s")
    if args.aliases:
        p, q = (_find_var(program, n) for n in args.aliases)
        loc = Loc(program.entry, program.cfg_of(program.entry).exit)
        verdict = result.may_alias(p, q, loc)
        print(f"may_alias({p}, {q}) at end of {program.entry}: {verdict}")
        print(f"(analyzed {result.analyzed_cluster_count} of "
              f"{len(result.clusters)} clusters)")
    if args.points_to:
        p = _find_var(program, args.points_to)
        loc = Loc(program.entry, program.cfg_of(program.entry).exit)
        objs = sorted(str(o) for o in result.points_to(p, loc))
        print(f"points_to({p}) at end of {program.entry}: {objs}")
    policy = None
    if (args.cluster_timeout is not None or args.retries != 1
            or args.degrade):
        policy = RunPolicy(cluster_timeout=args.cluster_timeout,
                           retries=args.retries, degrade=args.degrade)
    faults = None
    if args.inject_fault:
        try:
            faults = [parse_fault_arg(arg) for arg in args.inject_fault]
        except ValueError as exc:
            raise SystemExit(f"repro analyze: {exc}")
    backend_requested = (args.backend != "simulate" or args.cache
                         or args.jobs is not None or policy is not None
                         or faults is not None)
    if args.summaries or backend_requested:
        report = result.analyze_all(backend=args.backend, jobs=args.jobs,
                                    scheduler=args.scheduler,
                                    cache=args.cache, policy=policy,
                                    faults=faults)
        if report.backend == "simulate":
            print(f"summaries built for all clusters: "
                  f"max part time {report.max_part_time:.3f}s over "
                  f"{args.parts} simulated machines")
        else:
            jobs = args.jobs if args.jobs is not None else args.parts
            print(f"summaries built for all clusters: "
                  f"{report.wall_time:.3f}s wall "
                  f"(max part {report.max_part_time:.3f}s) on "
                  f"{jobs} {report.backend} worker(s), "
                  f"{args.scheduler} schedule")
        if args.cache:
            print(f"summary cache: {report.cache_hits} hit(s), "
                  f"{report.cache_misses} miss(es) in {args.cache}")
        degraded = report.degraded
        if degraded:
            levels = ", ".join(f"#{i}: {lvl}" for i, lvl in
                               sorted(degraded.items()))
            print(f"degraded clusters: {len(degraded)} of "
                  f"{len(report.results)} fell back down the cascade "
                  f"({levels})")
        elif policy is not None or faults is not None:
            print(f"degraded clusters: none "
                  f"(all {len(report.results)} at full FSCS precision)")
    if args.report:
        from .core import render_report
        print()
        print(render_report(result))
    if args.json:
        import json
        from .core import cascade_summary
        print(json.dumps(cascade_summary(result), indent=2, sort_keys=True))
    if args.dot:
        from .analysis import Andersen, CutShortcut, Steensgaard, SteensgaardFS
        from .ir import andersen_dot, callgraph_dot, steensgaard_dot
        from .ir.dot import cutshortcut_dot
        if args.dot == "steensgaard":
            print(steensgaard_dot(Steensgaard(program).run()))
        elif args.dot == "steensgaard-fs":
            print(steensgaard_dot(
                SteensgaardFS(program,
                              sharing_bound=args.sharing_bound).run()))
        elif args.dot == "andersen":
            print(andersen_dot(Andersen(program).run()))
        elif args.dot == "cutshortcut":
            print(cutshortcut_dot(CutShortcut(program).run()))
        else:
            print(callgraph_dot(program))
    return 0


def cmd_partitions(args: argparse.Namespace) -> int:
    program = _load(args.file, args.entry)
    steens = Steensgaard(program).run()
    parts = steens.partitions()
    print(f"{len(parts)} Steensgaard partitions "
          f"(max size {steens.max_partition_size()})")
    shown = 0
    for part in parts:
        if len(part) < args.min_size:
            continue
        print(f"  [{len(part)}] " + ", ".join(sorted(map(str, part))[:12])
              + (" ..." if len(part) > 12 else ""))
        shown += 1
        if shown >= args.limit:
            print(f"  ... ({len(parts) - shown} more)")
            break
    if args.andersen:
        andersen = Andersen(program).run()
        clusters = andersen.clusters()
        print(f"{len(clusters)} Andersen clusters "
              f"(max size {andersen.max_cluster_size()})")
    return 0


def _write_sarif(path: str, diags) -> None:
    import json

    from .core import diagnostics_to_sarif
    try:
        with open(path, "w") as handle:
            json.dump(diagnostics_to_sarif(diags), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise SystemExit(f"repro: cannot write {path}: {exc.strerror}")


def _emit_findings(args: argparse.Namespace, diags, noun: str,
                   details: Sequence[str]) -> int:
    """Emit one findings verb's diagnostics: SARIF to ``--sarif``, JSON
    with ``--json``, else text with a ``FILE: N <noun>`` summary and the
    verb's ``details`` lines.  Returns the ``--fail-on`` exit status."""
    import json

    from .core import diagnostics_to_dict, render_diagnostics_text
    if args.sarif:
        _write_sarif(args.sarif, diags)
    if args.json:
        print(json.dumps(diagnostics_to_dict(diags), indent=2,
                         sort_keys=True))
    else:
        if diags:
            print(render_diagnostics_text(diags))
        counts = Counter(d.severity for d in diags)
        summary = ", ".join(f"{counts[s]} {s}(s)" for s in
                            ("error", "warning", "note") if s in counts)
        print(f"{args.file}: {len(diags)} {noun}"
              + (f" ({summary})" if summary else ""))
        for line in details:
            print(line)
        if args.sarif:
            print(f"SARIF written to {args.sarif}")
    return 1 if _severity_fails(diags, args.fail_on or args.fail_alias) \
        else 0


def _analyzed(st) -> str:
    """How much of the program a checker's demand loop analyzed."""
    return (f"analyzed {st.clusters_selected}/{st.clusters_total} "
            f"clusters ({st.clusters_skipped} skipped), "
            f"{st.pointers_selected}/{st.pointers_total} pointers")


def _demand_loop(run) -> str:
    """The details line of one demand-driven checker run."""
    return (f"  demand loop: {run.rounds} round(s), "
            f"{len(run.demanded)} pointer(s) demanded; "
            f"{_analyzed(run.stats)}; {run.stats.suppressed} suppressed")


def cmd_check(args: argparse.Namespace) -> int:
    from .checkers import CHECKER_REGISTRY, run_checkers
    names = list(dict.fromkeys(args.checkers)) if args.checkers else None
    if names:
        unknown = [n for n in names if n not in CHECKER_REGISTRY]
        if unknown:
            raise SystemExit(
                f"unknown checker(s): {', '.join(unknown)} "
                f"(have: {', '.join(sorted(CHECKER_REGISTRY))})")
    program = _load(args.file, args.entry)
    report = run_checkers(program, names=names)
    return _emit_findings(args, report.diagnostics, "finding(s)", [
        f"  {st.checker}: {st.findings} finding(s), {st.suppressed} "
        f"suppressed; {_analyzed(st)}" for st in report.stats])


def cmd_taint(args: argparse.Namespace) -> int:
    from .analysis.taint import TaintSpec
    from .checkers import run_taint
    spec = None
    if args.taint_spec:
        try:
            spec = TaintSpec.load(args.taint_spec)
        except OSError as exc:
            raise SystemExit(
                f"repro taint: cannot read {args.taint_spec}: "
                f"{exc.strerror}")
        except (ValueError, TypeError, KeyError) as exc:
            raise SystemExit(
                f"repro taint: bad spec {args.taint_spec}: {exc}")
    program = _load(args.file, args.entry)
    run = run_taint(program, spec=spec)
    return _emit_findings(args, run.diagnostics, "taint flow(s)",
                          [_demand_loop(run)])


def cmd_leaks(args: argparse.Namespace) -> int:
    from .checkers import run_leaks
    program = _load(args.file, args.entry)
    run = run_leaks(program, budget=args.budget)
    return _emit_findings(args, run.diagnostics, "leaked allocation(s)",
                          [_demand_loop(run)])


def _thread_entries(args: argparse.Namespace,
                    program: Program) -> List[str]:
    """``--threads`` as a sorted entry list, defaulting to the functions
    passed to spawn-like primitives; unknown names are rejected."""
    from .checkers import spawn_entries
    threads = sorted({t for t in (args.threads or "").split(",") if t})
    if not threads:
        return spawn_entries(program)
    unknown = [t for t in threads if t not in program.functions]
    if unknown:
        raise SystemExit(
            f"repro {args.command}: unknown thread entr"
            f"{'y' if len(unknown) == 1 else 'ies'}: {', '.join(unknown)}")
    return threads


def _threads_line(entries: Sequence[str]) -> str:
    return f"  thread entries: {', '.join(entries) or 'none found'}"


def cmd_races(args: argparse.Namespace) -> int:
    from .checkers import run_races
    program = _load(args.file, args.entry)
    entries = _thread_entries(args, program)
    run = run_races(program, thread_entries=entries)
    return _emit_findings(args, run.diagnostics, "race warning(s)",
                          [_threads_line(entries), _demand_loop(run)])


def cmd_deadlocks(args: argparse.Namespace) -> int:
    from .checkers import run_deadlocks
    program = _load(args.file, args.entry)
    entries = _thread_entries(args, program)
    run = run_deadlocks(program, thread_entries=entries,
                        budget=args.budget)
    return _emit_findings(args, run.diagnostics, "lock-order cycle(s)",
                          [_threads_line(entries), _demand_loop(run)])


def cmd_demand(args: argparse.Namespace) -> int:
    import json

    from .analysis.demand import DemandAndersen
    program = _load(args.file, args.entry)
    engine = DemandAndersen(program, budget=args.budget)
    pointers = [_find_var(program, name) for name in args.points_to]
    sets = {str(p): sorted(str(o) for o in engine.points_to(p))
            for p in pointers}
    if args.json:
        print(json.dumps({"points_to": sets,
                          "nodes_touched": engine.queries_touched(),
                          "steps": engine.steps},
                         indent=2, sort_keys=True))
        return 0
    for name, objs in sets.items():
        print(f"points_to({name}): {objs}")
    print(f"demand-driven: touched {engine.queries_touched()} graph "
          f"node(s) in {engine.steps} step(s)")
    return 0


def _server_config(args: argparse.Namespace) -> "ServerConfig":
    """The :class:`ServerConfig` shared by ``serve`` and ``fleet
    serve`` (both parsers carry the same analysis flags)."""
    from .server import ServerConfig
    return ServerConfig(
        entry=args.entry, threshold=args.threshold, oneflow=args.oneflow,
        clustering=args.clustering, sharing_bound=args.sharing_bound,
        cutshortcut=args.cutshortcut,
        parts=args.parts, backend=args.backend, jobs=args.jobs,
        scheduler=args.scheduler, fscs_budget=args.fscs_budget,
        max_clusters=args.max_clusters, max_files=args.max_files,
        cache_dir=args.cache, watch=not args.no_watch,
        max_request_bytes=args.max_request_bytes,
        cluster_timeout=args.cluster_timeout, retries=args.retries,
        degrade=args.degrade)


def cmd_serve(args: argparse.Namespace) -> int:
    from .server import AliasServer
    if (args.socket is None) == (args.port is None):
        raise SystemExit(
            "repro serve: pass exactly one of --socket PATH or --port N")
    config = _server_config(args)
    from .server.protocol import RequestError
    server = AliasServer(config, socket_path=args.socket,
                         host=args.host, port=args.port)
    for path in args.files:
        try:
            summary = server.files.get(os.path.abspath(path)).summary()
        except RequestError as exc:
            raise SystemExit(f"repro serve: {exc}")
        print(f"preloaded {summary['path']}: "
              f"{summary['clusters']} clusters, "
              f"{summary['pointers']} pointers "
              f"({summary['last_refresh']['seconds']:.3f}s)", flush=True)
    print(f"repro serve: listening on {server.bind()}", flush=True)
    server.serve_forever()
    print("repro serve: drained, shut down cleanly")
    return 0


#: ``repro query`` positional-argument shapes per method.  ``*name``
#: swallows the remaining operands; ``?name`` is optional.  The ``spec``
#: slot is a path to a taint-spec JSON file, parsed client-side and sent
#: as the structured ``spec`` parameter; the ``threads`` slot is a
#: comma-separated list of thread entry functions, split client-side.
_QUERY_SPECS = {
    "ping": (),
    "stats": (),
    "shutdown": (),
    "invalidate": ("file",),
    "points-to": ("file", "ptr"),
    "alias": ("file", "p", "q"),
    "must-alias": ("file", "p", "q"),
    "diagnostics": ("file", "*checkers"),
    "taint": ("file", "?spec"),
    "leaks": ("file",),
    "deadlocks": ("file", "?threads"),
}


def cmd_query(args: argparse.Namespace) -> int:
    import json

    from .server import protocol
    from .server.client import ConnectError, ServerClient, ServerError
    if (args.socket is None) == (args.port is None):
        raise SystemExit(
            "repro query: pass exactly one of --socket PATH or --port N")
    spec = _QUERY_SPECS.get(args.method)
    if spec is None:
        raise SystemExit(
            f"repro query: unknown method {args.method!r} "
            f"(have: {', '.join(sorted(_QUERY_SPECS))})")
    params = {}
    operands = list(args.args)
    for slot in spec:
        if slot.startswith("*"):
            if operands:
                params[slot[1:]] = operands
                operands = []
            break
        optional = slot.startswith("?")
        if optional:
            slot = slot[1:]
            if not operands:
                continue
        if not operands:
            raise SystemExit(
                f"repro query {args.method}: missing "
                f"{' '.join(s.upper().lstrip('*?') for s in spec)}")
        value = operands.pop(0)
        if slot == "file":
            value = os.path.abspath(value)
        elif slot == "spec":
            try:
                with open(value, "r") as handle:
                    value = json.load(handle)
            except OSError as exc:
                raise SystemExit(
                    f"repro query taint: cannot read {value}: "
                    f"{exc.strerror}")
            except ValueError as exc:
                raise SystemExit(
                    f"repro query taint: bad spec JSON: {exc}")
        elif slot == "threads":
            value = [t for t in value.split(",") if t]
        params[slot] = value
    if operands:
        raise SystemExit(
            f"repro query {args.method}: unexpected extra arguments "
            f"{operands}")
    try:
        with ServerClient(socket_path=args.socket, host=args.host,
                          port=args.port, timeout=args.timeout,
                          deadline=args.deadline) as client:
            result = client.call(args.method.replace("-", "_"), **params)
    except ConnectError as exc:
        raise SystemExit(f"repro query: cannot reach the daemon: {exc}")
    except ServerError as exc:
        print(f"repro query: {exc}", file=sys.stderr)
        # A blown end-to-end deadline is a budget overrun in time
        # rather than steps: same distinct exit code.
        budget_codes = (protocol.BUDGET_EXCEEDED,
                        protocol.DEADLINE_EXCEEDED)
        return EXIT_BUDGET if exc.code in budget_codes else 1
    except OSError as exc:
        raise SystemExit(f"repro query: cannot reach the daemon: {exc}")
    try:
        print(json.dumps(result, indent=2, sort_keys=True))
    except BrokenPipeError:
        # Downstream (e.g. ``| grep -q``) closed the pipe early; the
        # query itself succeeded.  Point stdout at devnull so the
        # interpreter's shutdown flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_fleet_serve(args: argparse.Namespace) -> int:
    import threading

    from .fleet import DEFAULT_REPLICAS, FleetConfig, FleetCoordinator
    if (args.socket is None) == (args.port is None):
        raise SystemExit(
            "repro fleet serve: pass exactly one of --socket PATH "
            "or --port N")
    if not args.worker and args.workers < 1:
        raise SystemExit("repro fleet serve: --workers must be >= 1")
    config = FleetConfig(
        workers=args.workers, worker_addrs=args.worker or [],
        replicas=args.replicas if args.replicas is not None
        else DEFAULT_REPLICAS,
        balance_epsilon=args.balance_epsilon,
        conns_per_worker=args.conns_per_worker,
        max_inflight=args.max_inflight, max_per_shard=args.max_per_shard,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        worker_timeout=args.worker_timeout,
        probe_interval=args.probe_interval,
        respawn=not args.no_respawn,
        respawn_backoff=args.respawn_backoff,
        crash_loop_threshold=args.crash_loop_threshold,
        crash_loop_window=args.crash_loop_window,
        hedge=args.hedge,
        hedge_max_fraction=args.hedge_max_fraction,
        hedge_min_delay=args.hedge_min_delay,
        journal_dir=args.journal,
        envelope_all=args.envelope_all,
        server=_server_config(args))
    coordinator = FleetCoordinator(config, host=args.host,
                                   port=args.port,
                                   socket_path=args.socket)
    # The front door binds inside the event loop; announce the resolved
    # address (workers included) the moment it is ready.
    ready = threading.Event()

    def announce() -> None:
        ready.wait()
        workers = ", ".join(
            f"{name}={shard.link.host}:{shard.link.port}"
            for name, shard in sorted(coordinator.shards.items()))
        print(f"repro fleet: listening on {coordinator.address} "
              f"({len(coordinator.shards)} worker(s): {workers})",
              flush=True)

    threading.Thread(target=announce, daemon=True).start()
    coordinator.serve_forever(ready=ready)
    print("repro fleet: drained, shut down cleanly")
    return 0


def cmd_fleet_status(args: argparse.Namespace) -> int:
    import json

    from .server.client import ServerClient, ServerError
    if (args.socket is None) == (args.port is None):
        raise SystemExit(
            "repro fleet status: pass exactly one of --socket PATH "
            "or --port N")
    try:
        with ServerClient(socket_path=args.socket, host=args.host,
                          port=args.port,
                          timeout=args.timeout) as client:
            status = client.fleet_status()
    except ServerError as exc:
        print(f"repro fleet status: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        raise SystemExit(
            f"repro fleet status: cannot reach the coordinator: {exc}")
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .core import SummaryCache
    if not os.path.isdir(args.dir):
        raise SystemExit(f"repro cache: no cache directory at {args.dir}")
    cache = SummaryCache(args.dir)
    if args.cache_command == "stats":
        print(json.dumps(cache.stats(), indent=2, sort_keys=True))
        return 0
    removed = cache.prune(args.max_age_days)
    print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} older "
          f"than {args.max_age_days:g} day(s) from {args.dir}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .bench.table1 import main as table1_main
    argv: List[str] = ["--scale", str(args.scale)]
    if args.programs:
        argv += ["--programs", args.programs]
    if args.skip_nocluster:
        argv.append("--skip-nocluster")
    if args.csv:
        argv.append("--csv")
    return table1_main(argv)


def cmd_figure1(args: argparse.Namespace) -> int:
    from .bench.figure1 import main as figure1_main
    argv = ["--program", args.program, "--scale", str(args.scale)]
    if args.csv:
        argv.append("--csv")
    return figure1_main(argv)


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    """The cascade and execution knobs shared by ``analyze``, ``serve``
    and ``fleet serve`` (one run, one daemon, or every spawned
    worker)."""
    p.add_argument("--threshold", type=int, default=60,
                   help="Andersen threshold (paper: 60)")
    p.add_argument("--oneflow", action="store_true",
                   help="insert the One-Flow cascade stage")
    p.add_argument("--clustering",
                   choices=["steensgaard", "steensgaard_fs"],
                   default="steensgaard",
                   help="first-stage unification: classic Steensgaard "
                        "or the field-sensitive variant (finer "
                        "partitions at the same cost regime)")
    p.add_argument("--sharing-bound", type=int, default=8, metavar="N",
                   help="field slots per class before steensgaard_fs "
                        "collapses to classic behaviour (default 8)")
    p.add_argument("--cutshortcut", action="store_true",
                   help="apply the cut-shortcut transformation to the "
                        "Andersen stage (cheap context sensitivity "
                        "for return-value flow)")
    p.add_argument("--parts", type=int, default=5)
    p.add_argument("--backend",
                   choices=["simulate", "processes"],
                   default="simulate",
                   help="how to execute the per-cluster analyses "
                        "(default: simulate, the paper's accounting)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker count for the processes backend "
                        "(default: --parts)")
    p.add_argument("--scheduler", choices=["greedy", "lpt"],
                   default="greedy",
                   help="cluster-to-part assignment (default: the "
                        "paper's greedy sweep)")
    p.add_argument("--cache", metavar="DIR",
                   help="on-disk summary cache; unchanged clusters are "
                        "skipped on repeat runs and daemon restarts "
                        "(fleet workers share it)")
    p.add_argument("--fscs-budget", type=int, default=None, metavar="N",
                   help="per-cluster FSCS step budget; exceeding it is "
                        f"a budget error (exit code {EXIT_BUDGET}, or "
                        "BUDGET_EXCEEDED from the daemon)")
    p.add_argument("--cluster-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock deadline per cluster analysis; "
                        "overruns are retried, then degraded or failed")
    p.add_argument("--retries", type=int, default=1, metavar="N",
                   help="retry rounds after the first attempt, on either "
                        "backend: each round re-runs every failed "
                        "cluster after one backoff sleep (default: 1)")
    p.add_argument("--degrade", action="store_true",
                   help="turn cluster failures into sound coarser "
                        "results (FSCI -> Andersen -> Steensgaard), "
                        "marked with degraded-precision warnings, "
                        "instead of failing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bootstrapped flow/context-sensitive pointer alias "
                    "analysis (Kahlon, PLDI 2008)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full cascade on a file")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    _add_analysis_flags(p)
    p.add_argument("--aliases", nargs=2, metavar=("P", "Q"),
                   help="query may-alias of two pointers")
    p.add_argument("--points-to", metavar="P",
                   help="query the points-to set of a pointer")
    p.add_argument("--summaries", action="store_true",
                   help="precompute summaries for every cluster")
    p.add_argument("--inject-fault", action="append", metavar="SPEC",
                   help="inject a deterministic fault for resilience "
                        "testing: KIND[:SELECTOR[:DURATION]] with KIND "
                        "one of crash/hang/corrupt/flaky-once and "
                        "SELECTOR '*', '#IDX', or a fingerprint prefix "
                        "(repeatable)")
    p.add_argument("--report", action="store_true",
                   help="print a markdown analysis report")
    p.add_argument("--json", action="store_true",
                   help="print the analysis summary as JSON")
    p.add_argument("--dot",
                   choices=["steensgaard", "steensgaard-fs", "andersen",
                            "cutshortcut", "callgraph"],
                   help="emit a Graphviz view of the chosen structure")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("partitions", help="show Steensgaard partitions")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--limit", type=int, default=25)
    p.add_argument("--andersen", action="store_true")
    p.set_defaults(func=cmd_partitions)

    def findings_parser(name: str, summary: str, func,
                        alias: str = "--fail-on-finding",
                        alias_level: str = "note"
                        ) -> argparse.ArgumentParser:
        """A verb that reports findings on FILE, with the entry,
        emitter and exit-status flags every such verb shares; ``alias``
        is the verb's shorthand for ``--fail-on alias_level``."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("file")
        p.add_argument("--entry", default="main")
        p.add_argument("--sarif", metavar="OUT",
                       help="write findings as SARIF 2.1.0 to OUT")
        p.add_argument("--json", action="store_true",
                       help="print findings as JSON instead of text")
        p.add_argument("--fail-on", choices=["note", "warning", "error"],
                       default=None,
                       help="exit 1 when any finding at or above this "
                            "severity remains")
        p.add_argument(alias, dest="fail_alias", action="store_const",
                       const=alias_level,
                       help=f"alias for --fail-on {alias_level}")
        return p

    threads_help = ("comma-separated thread entries (default: "
                    "functions passed to spawn-like primitives)")
    p = findings_parser("races", "lockset-based race detection on a file",
                        cmd_races, alias="--fail-on-race",
                        alias_level="warning")
    p.add_argument("--threads", help=threads_help)

    budget_help = ("cluster budget for the demand loop; exceeding it "
                   f"exits with code {EXIT_BUDGET}")
    p = findings_parser("check", "run the memory-safety checkers on a file",
                        cmd_check)
    p.add_argument("--checkers", nargs="+", metavar="NAME",
                   help="subset of checkers to run (default: all)")

    p = findings_parser("taint", "source-to-sink taint analysis on a file",
                        cmd_taint)
    p.add_argument("--taint-spec", metavar="JSON",
                   help="sources/sinks/sanitizers spec file "
                        "(default: the built-in toy-C rules)")

    p = findings_parser("leaks",
                        "demand-driven memory-leak analysis on a file",
                        cmd_leaks)
    p.add_argument("--budget", type=int, default=None, metavar="N",
                   help=budget_help)

    p = findings_parser("deadlocks",
                        "lock-order-cycle (deadlock) analysis on a file",
                        cmd_deadlocks)
    p.add_argument("--threads", help=threads_help)
    p.add_argument("--budget", type=int, default=None, metavar="N",
                   help=budget_help)

    p = sub.add_parser(
        "demand", help="demand-driven Andersen points-to queries")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    p.add_argument("--points-to", nargs="+", required=True, metavar="P",
                   help="pointers to query (name or func::name)")
    p.add_argument("--budget", type=int, default=None, metavar="N",
                   help="fixpoint step budget; exceeding it exits with "
                        f"code {EXIT_BUDGET}")
    p.add_argument("--json", action="store_true",
                   help="print the answers as JSON")
    p.set_defaults(func=cmd_demand)

    def add_daemon_flags(p: argparse.ArgumentParser) -> None:
        """Bind address + analysis knobs shared by ``serve`` and
        ``fleet serve`` (one daemon or every spawned worker)."""
        p.add_argument("--socket", metavar="PATH",
                       help="serve on a Unix domain socket at PATH")
        p.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
        p.add_argument("--port", type=int, default=None,
                       help="serve on TCP PORT (0 picks a free port)")
        p.add_argument("--entry", default="main")
        _add_analysis_flags(p)
        p.add_argument("--max-files", type=int, default=16,
                       help="resident per-file analysis states (LRU)")
        p.add_argument("--max-clusters", type=int, default=4096,
                       help="resident per-cluster outcomes (LRU)")
        p.add_argument("--max-request-bytes", type=int,
                       default=4 * 1024 * 1024, metavar="N",
                       help="reject request lines longer than N bytes "
                            "with a structured REQUEST_TOO_LARGE error "
                            "(default 4 MiB)")
        p.add_argument("--no-watch", action="store_true",
                       help="do not auto-reload files whose content "
                            "changed (clients must send invalidate)")

    p = sub.add_parser(
        "serve", help="run the persistent alias query daemon")
    p.add_argument("files", nargs="*", metavar="FILE",
                   help="source files to analyze before accepting "
                        "connections")
    add_daemon_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="coordinate a fleet of alias daemons behind one front door")
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)
    pf = fleet_sub.add_parser(
        "serve",
        help="run the coordinator (spawns workers unless --worker "
             "names external ones)")
    add_daemon_flags(pf)
    pf.add_argument("--workers", type=int, default=2, metavar="N",
                    help="local worker daemons to spawn (default 2)")
    pf.add_argument("--worker", action="append", metavar="HOST:PORT",
                    help="externally managed worker daemon "
                         "(repeatable; disables spawning)")
    pf.add_argument("--replicas", type=int, default=None, metavar="N",
                    help="virtual nodes per worker on the hash ring "
                         "(default 1024)")
    pf.add_argument("--balance-epsilon", type=float, default=0.05,
                    metavar="E",
                    help="bounded-load slack: no shard takes more than "
                         "(1+E)/N of a file's cluster traffic "
                         "(default 0.05)")
    pf.add_argument("--conns-per-worker", type=int, default=2,
                    metavar="N",
                    help="pipelined connections per worker (default 2)")
    pf.add_argument("--max-inflight", type=int, default=1024,
                    metavar="N",
                    help="admission control: global in-flight bound; "
                         "excess gets a structured OVERLOADED error")
    pf.add_argument("--max-per-shard", type=int, default=256,
                    metavar="N",
                    help="admission control: per-shard in-flight bound")
    pf.add_argument("--breaker-threshold", type=int, default=3,
                    metavar="N",
                    help="consecutive failures that trip a shard's "
                         "circuit breaker (default 3)")
    pf.add_argument("--breaker-reset", type=float, default=2.0,
                    metavar="SECONDS",
                    help="seconds until an open breaker turns "
                         "half-open and admits a heal probe")
    pf.add_argument("--worker-timeout", type=float, default=300.0,
                    metavar="SECONDS",
                    help="per-request deadline on a worker")
    pf.add_argument("--probe-interval", type=float, default=0.25,
                    metavar="SECONDS",
                    help="how often the heal loop checks sick shards")
    pf.add_argument("--no-respawn", action="store_true",
                    help="do not respawn dead spawned workers")
    pf.add_argument("--respawn-backoff", type=float, default=0.5,
                    metavar="SECONDS",
                    help="initial delay before respawning a dead "
                         "worker; doubles per consecutive death")
    pf.add_argument("--crash-loop-threshold", type=int, default=5,
                    metavar="N",
                    help="deaths inside the crash-loop window that "
                         "park a worker for good (shards reroute)")
    pf.add_argument("--crash-loop-window", type=float, default=30.0,
                    metavar="SECONDS",
                    help="sliding window for the crash-loop breaker")
    pf.add_argument("--hedge", action="store_true",
                    help="hedge slow warm queries: duplicate to the "
                         "ring successor past the p95 delay, first "
                         "answer wins (tagged 'hedged')")
    pf.add_argument("--hedge-max-fraction", type=float, default=0.05,
                    metavar="F",
                    help="cap hedges at this fraction of eligible "
                         "traffic")
    pf.add_argument("--hedge-min-delay", type=float, default=0.05,
                    metavar="SECONDS",
                    help="floor for the p95-derived hedge delay")
    pf.add_argument("--journal", metavar="DIR", default=None,
                    help="journal served files and observed query "
                         "weights to DIR (checksummed JSONL + atomic "
                         "snapshot) so a killed coordinator restarts "
                         "with warm routing state")
    pf.add_argument("--envelope-all", action="store_true",
                    help="attach the fleet envelope to every response, "
                         "not only rerouted ones")
    pf.set_defaults(func=cmd_fleet_serve)
    pf = fleet_sub.add_parser(
        "status", help="query a coordinator's fleet_status (JSON)")
    pf.add_argument("--socket", metavar="PATH")
    pf.add_argument("--host", default="127.0.0.1")
    pf.add_argument("--port", type=int, default=None)
    pf.add_argument("--timeout", type=float, default=30.0)
    pf.set_defaults(func=cmd_fleet_status)

    p = sub.add_parser(
        "query", help="query a running daemon (JSON to stdout)")
    p.add_argument("method",
                   help="one of: " + ", ".join(sorted(_QUERY_SPECS)))
    p.add_argument("args", nargs="*",
                   help="method operands, e.g. FILE PTR for points-to")
    p.add_argument("--socket", metavar="PATH")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="end-to-end budget for the query, propagated "
                        "to every hop (coordinator, worker, solver); "
                        "on expiry the query fails with "
                        f"DEADLINE_EXCEEDED and exit code {EXIT_BUDGET}")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "cache", help="inspect or prune an on-disk summary cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pc = cache_sub.add_parser("stats", help="entry count, bytes, ages")
    pc.add_argument("dir", metavar="DIR")
    pc.set_defaults(func=cmd_cache)
    pc = cache_sub.add_parser(
        "prune", help="delete entries older than --max-age-days")
    pc.add_argument("dir", metavar="DIR")
    pc.add_argument("--max-age-days", type=float, required=True,
                    metavar="N")
    pc.set_defaults(func=cmd_cache)

    p = sub.add_parser("table1", help="regenerate the paper's Table 1")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--programs")
    p.add_argument("--skip-nocluster", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("figure1", help="regenerate the paper's Figure 1")
    p.add_argument("--program", default="autofs")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_figure1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AnalysisBudgetExceeded as exc:
        # A budget overrun is an expected outcome, not a crash: one
        # clean line on stderr and a distinct exit code.
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ClusterExecutionError as exc:
        # A cluster failed past its retry budget with --degrade off:
        # clean message, ordinary failure code (pass --degrade to turn
        # this into a sound coarser answer instead).
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream (e.g. ``| head``) closed the pipe early; the run
        # itself succeeded.  Point stdout at devnull so the
        # interpreter's shutdown flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
