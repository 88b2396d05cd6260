"""Human-readable analysis reports and the shared diagnostic pipeline.

The cascade produces a lot of structure (partitions, slices, clusters,
summaries, timings); this module renders it as the markdown report the
CLI's ``analyze --report`` emits, and as a JSON-serializable dict for
tooling.

It also owns the :class:`Diagnostic` model every analysis client (the
memory-safety checkers, the race detector) reports through, plus the
text / JSON / SARIF 2.1.0 emitters.  Keeping the model here rather than
in :mod:`repro.checkers` avoids an import cycle: checkers depend on
core, never the other way around.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..bench.metrics import format_table
from ..ir import Loc, Program, Span, Var
from .bootstrap import BootstrapResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: Severity ranking used when deduplication keeps the worst finding.
SEVERITY_ORDER = {"error": 0, "warning": 1, "note": 2}


@dataclass(frozen=True)
class TraceStep:
    """One hop of a diagnostic's witness trace (e.g. the ``free`` that
    made a later dereference dangle)."""

    loc: Loc
    span: Optional[Span]
    note: str


@dataclass(frozen=True)
class Diagnostic:
    """One finding, carrying everything every emitter needs.

    ``subject`` names what the finding is about (the root pointer or
    allocation site) and doubles as the deduplication key component that
    collapses shadow-variable duplicates (``p`` vs ``p__next``).
    """

    rule_id: str
    severity: str  # "error" | "warning" | "note"
    message: str
    loc: Optional[Loc] = None
    span: Optional[Span] = None
    file: Optional[str] = None
    checker: str = ""
    subject: str = ""
    trace: Tuple[TraceStep, ...] = ()
    #: Precision of the alias facts this finding rests on: ``"fscs"``
    #: normally, or the cascade level a supporting cluster degraded to
    #: (``"fsci"``/``"andersen"``/``"steensgaard"``).  Degraded-precision
    #: findings are still sound may-facts, just coarser — emitters mark
    #: them so consumers can triage accordingly.
    precision: str = "fscs"

    @property
    def line(self) -> Optional[int]:
        return self.span.line if self.span is not None else None

    @property
    def degraded(self) -> bool:
        return self.precision != "fscs"

    def position(self) -> str:
        """``file:line:col`` (best effort) for text output."""
        parts: List[str] = []
        if self.file:
            parts.append(self.file)
        if self.span is not None:
            parts.append(str(self.span))
        elif self.loc is not None:
            parts.append(f"{self.loc.function}:{self.loc.index}")
        return ":".join(parts) if parts else "<unknown>"


def dedup_diagnostics(diags: List[Diagnostic]) -> List[Diagnostic]:
    """Collapse findings that restate each other.

    Two diagnostics merge when they share (rule, function, line,
    subject) — e.g. the shadow-field free mirrored next to the real one,
    or the load the normalizer emits besides a store on the same
    expression.  The highest-severity representative survives.
    """
    best: Dict[tuple, Diagnostic] = {}
    order: List[tuple] = []
    for d in diags:
        key = (d.rule_id,
               d.loc.function if d.loc is not None else None,
               d.span.line if d.span is not None
               else (d.loc.index if d.loc is not None else None),
               d.subject)
        prev = best.get(key)
        if prev is None:
            best[key] = d
            order.append(key)
        elif SEVERITY_ORDER.get(d.severity, 3) < \
                SEVERITY_ORDER.get(prev.severity, 3):
            best[key] = d
    out = [best[k] for k in order]
    out.sort(key=lambda d: (d.file or "", d.span.line if d.span else 0,
                            d.span.column if d.span else 0, d.rule_id))
    return out


def suppress_diagnostics(diags: List[Diagnostic], program: Program
                         ) -> Tuple[List[Diagnostic], int]:
    """Drop findings on ``// repro:ignore`` lines; returns (kept, #dropped).

    ``program.suppressed_lines`` maps line numbers to ``None`` (blanket:
    every rule suppressed) or a frozenset of rule ids (only those rules
    suppressed, from ``repro:ignore[rule-id,...]``).  A legacy plain set
    of line numbers is also accepted and treated as blanket.
    """
    suppressed = program.suppressed_lines
    if not suppressed:
        return list(diags), 0

    def is_suppressed(d: Diagnostic) -> bool:
        if d.span is None or d.span.line not in suppressed:
            return False
        if not isinstance(suppressed, dict):
            return True  # legacy: a bare set of lines means blanket
        rules = suppressed[d.span.line]
        if rules is None:
            return True
        # Accept ids with or without the tool prefix: both
        # ``repro:ignore[repro-null-deref]`` and
        # ``repro:ignore[null-deref]`` silence repro-null-deref.
        return (d.rule_id in rules or
                (d.rule_id.startswith("repro-") and
                 d.rule_id[len("repro-"):] in rules))

    kept = [d for d in diags if not is_suppressed(d)]
    return kept, len(diags) - len(kept)


def render_diagnostics_text(diags: List[Diagnostic],
                            verbose_trace: bool = True) -> str:
    """Compiler-style one-line-per-finding text rendering."""
    lines: List[str] = []
    for d in diags:
        marker = f" [degraded-precision: {d.precision}]" if d.degraded else ""
        lines.append(f"{d.position()}: {d.severity}: {d.message} "
                     f"[{d.rule_id}]{marker}")
        if verbose_trace:
            for step in d.trace:
                pos = (str(step.span) if step.span is not None
                       else f"{step.loc.function}:{step.loc.index}")
                lines.append(f"    note: {step.note} (at {pos})")
    return "\n".join(lines)


def diagnostics_to_dict(diags: List[Diagnostic]) -> List[Dict[str, Any]]:
    """JSON-friendly list of findings (the ``--json`` CLI surface)."""
    out: List[Dict[str, Any]] = []
    for d in diags:
        entry: Dict[str, Any] = {
            "rule": d.rule_id,
            "severity": d.severity,
            "message": d.message,
            "checker": d.checker,
            "subject": d.subject,
        }
        if d.degraded:
            entry["precision"] = d.precision
            entry["degraded"] = True
        if d.file:
            entry["file"] = d.file
        if d.span is not None:
            entry["line"] = d.span.line
            entry["column"] = d.span.column
        if d.loc is not None:
            entry["function"] = d.loc.function
            entry["location"] = [d.loc.function, d.loc.index]
        if d.trace:
            entry["trace"] = [
                {"note": s.note,
                 "function": s.loc.function,
                 "line": s.span.line if s.span is not None else None,
                 "column": s.span.column if s.span is not None else None}
                for s in d.trace]
        out.append(entry)
    return out


def _sarif_location(file: Optional[str], span: Optional[Span],
                    message: Optional[str] = None) -> Dict[str, Any]:
    physical: Dict[str, Any] = {
        "artifactLocation": {"uri": file or "<unknown>"},
    }
    if span is not None:
        region: Dict[str, Any] = {"startLine": span.line}
        if span.column:
            region["startColumn"] = span.column
        physical["region"] = region
    loc: Dict[str, Any] = {"physicalLocation": physical}
    if message:
        loc["message"] = {"text": message}
    return loc


def diagnostics_to_sarif(diags: List[Diagnostic],
                         tool_name: str = "repro",
                         tool_version: str = "0.1.0") -> Dict[str, Any]:
    """A SARIF 2.1.0 log with one run covering all findings.

    Rules are collected from the findings themselves; traces become
    ``codeFlows`` so SARIF viewers can step through the witness.
    """
    rules: Dict[str, Dict[str, Any]] = {}
    results: List[Dict[str, Any]] = []
    for d in diags:
        rules.setdefault(d.rule_id, {
            "id": d.rule_id,
            "name": d.checker or d.rule_id,
            "shortDescription": {"text": d.checker or d.rule_id},
        })
        result: Dict[str, Any] = {
            "ruleId": d.rule_id,
            "level": d.severity if d.severity in ("error", "warning",
                                                  "note") else "warning",
            "message": {"text": d.message},
            "locations": [_sarif_location(d.file, d.span)],
        }
        if d.degraded:
            result["properties"] = {"degraded-precision": d.precision}
        if d.trace:
            flow_locs = [
                {"location": _sarif_location(d.file, s.span, s.note)}
                for s in d.trace]
            flow_locs.append(
                {"location": _sarif_location(d.file, d.span, d.message)})
            result["codeFlows"] = [
                {"threadFlows": [{"locations": flow_locs}]}]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "version": tool_version,
                "informationUri":
                    "https://github.com/example/repro-bootstrap",
                "rules": sorted(rules.values(), key=lambda r: r["id"]),
            }},
            "results": results,
        }],
    }


def percentile(values: List[int], q: float) -> int:
    """Nearest-rank percentile of ``values`` (0 on empty input)."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def size_summary(values: List[int]) -> Dict[str, int]:
    """The p50/p95/max shape Table 1 discussions use for cluster and
    partition size distributions."""
    return {
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "max": max(values, default=0),
    }


def cascade_summary(result: BootstrapResult) -> Dict[str, Any]:
    """A JSON-friendly summary of one bootstrapped analysis."""
    cascade = result.cascade
    program = result.program
    sizes = [c.size for c in cascade.clusters]
    partition_sizes = [len(p) for p in cascade.steensgaard.partitions()]
    by_origin = Counter(c.origin for c in cascade.clusters)
    slice_sizes = [c.slice.size for c in cascade.clusters]
    functions_touched = [len(c.slice.functions()) for c in cascade.clusters]
    counts = program.counts()
    return {
        "program": {
            "functions": counts["functions"],
            "locations": counts["locations"],
            "pointers": counts["pointers"],
            "pointer_assignments": counts["pointer_assignments"],
            "alloc_sites": counts["alloc_sites"],
        },
        "timings": {
            "partitioning_seconds": cascade.partition_time,
            "clustering_seconds": cascade.clustering_time,
        },
        "clusters": {
            "count": len(sizes),
            "max_size": max(sizes, default=0),
            "mean_size": (sum(sizes) / len(sizes)) if sizes else 0.0,
            "by_origin": dict(by_origin),
            "refined_partitions": cascade.refined_partitions,
            "size_histogram": dict(sorted(Counter(sizes).items())),
            # Clusters are sorted largest-first, so this doubles as the
            # per-cluster member-count table of the JSON report.
            "member_counts": sizes,
            "size_summary": size_summary(sizes),
        },
        "partitions": {
            "count": len(partition_sizes),
            "size_summary": size_summary(partition_sizes),
        },
        "slices": {
            "max_statements": max(slice_sizes, default=0),
            "mean_statements": (sum(slice_sizes) / len(slice_sizes))
            if slice_sizes else 0.0,
            "max_functions": max(functions_touched, default=0),
        },
        "analyzed_clusters": result.analyzed_cluster_count,
    }


def render_report(result: BootstrapResult,
                  top: int = 10) -> str:
    """Markdown report: headline numbers + the largest clusters."""
    summary = cascade_summary(result)
    prog = summary["program"]
    cl = summary["clusters"]
    lines: List[str] = []
    lines.append("## Bootstrapped alias analysis report")
    lines.append("")
    lines.append(f"* program: {prog['functions']} functions, "
                 f"{prog['pointers']} pointers, "
                 f"{prog['pointer_assignments']} pointer assignments, "
                 f"{prog['alloc_sites']} allocation sites")
    lines.append(f"* cascade: {cl['count']} clusters "
                 f"(max {cl['max_size']}, mean {cl['mean_size']:.1f}); "
                 f"{cl['refined_partitions']} partitions Andersen-refined; "
                 f"origins {cl['by_origin']}")
    lines.append(f"* timings: partitioning "
                 f"{summary['timings']['partitioning_seconds']:.3f}s, "
                 f"clustering "
                 f"{summary['timings']['clustering_seconds']:.3f}s")
    lines.append(f"* slices: largest St_P has "
                 f"{summary['slices']['max_statements']} statements "
                 f"across ≤ {summary['slices']['max_functions']} functions")
    lines.append("")
    rows = []
    for cluster in result.clusters[:top]:
        members = sorted(str(m) for m in cluster.members)
        preview = ", ".join(members[:5]) + (" ..." if len(members) > 5 else "")
        rows.append([str(cluster.size), cluster.origin,
                     str(cluster.slice.size),
                     str(len(cluster.slice.functions())), preview])
    lines.append(format_table(
        ["size", "origin", "|St_P|", "funcs", "members"], rows,
        title=f"Largest {min(top, len(result.clusters))} clusters"))
    return "\n".join(lines)
