"""Bootstrapping core: partitions, slices, clusters, cascade, queries."""

from .bootstrap import BootstrapAnalyzer, BootstrapConfig, BootstrapResult
from .cascade import CascadeConfig, CascadeResult, run_cascade
from .contexts import (
    context_count,
    context_sensitivity_gain,
    enumerate_contexts,
    points_to_by_context,
)
from .clusters import (
    DEFAULT_ANDERSEN_THRESHOLD,
    Cluster,
    andersen_refine,
    oneflow_refine,
)
from .parallel import (
    ParallelReport,
    ParallelRunner,
    cluster_cost,
    greedy_parts,
    lpt_parts,
    schedule_indices,
)
from .partitions import Partitioning, PartitionStats
from .faults import (
    FAULT_KINDS,
    NET_FAULT_KINDS,
    ChaosProxy,
    FaultSpec,
    NetFault,
    attach_faults,
    garble_bytes,
    parse_fault_arg,
)
from .resilience import (
    PRECISION_LEVELS,
    CircuitBreaker,
    ClusterExecutionError,
    RunPolicy,
    coarsest,
    degrade_ladder,
    degraded_outcome,
    is_degraded,
    validate_outcome,
)
from .shipping import (
    analyze_payload,
    build_payload,
    cluster_fingerprints,
    cluster_outcome,
    cluster_subprogram,
    payload_fingerprint,
)
from .summary_cache import SummaryCache
from .queries import (
    DemandSelection,
    demand_alias_sets,
    resolve_pointer,
    select_clusters,
)
from .report import (
    Diagnostic,
    TraceStep,
    cascade_summary,
    dedup_diagnostics,
    diagnostics_to_dict,
    diagnostics_to_sarif,
    percentile,
    render_diagnostics_text,
    render_report,
    size_summary,
    suppress_diagnostics,
)
from .relevant import RelevantSlice, dovetail_schedule, relevant_statements

__all__ = [
    "BootstrapAnalyzer", "BootstrapConfig", "BootstrapResult",
    "CascadeConfig", "CascadeResult", "CircuitBreaker", "Cluster",
    "ClusterExecutionError",
    "DEFAULT_ANDERSEN_THRESHOLD", "DemandSelection", "Diagnostic",
    "ChaosProxy",
    "FAULT_KINDS", "FaultSpec", "NET_FAULT_KINDS", "NetFault",
    "PRECISION_LEVELS", "ParallelReport",
    "RunPolicy", "attach_faults", "coarsest", "degrade_ladder",
    "degraded_outcome", "garble_bytes", "is_degraded", "parse_fault_arg",
    "validate_outcome",
    "ParallelRunner", "Partitioning", "PartitionStats", "RelevantSlice",
    "SummaryCache",
    "TraceStep", "analyze_payload",
    "andersen_refine", "build_payload", "cluster_cost",
    "cluster_fingerprints", "cluster_outcome",
    "cluster_subprogram", "demand_alias_sets", "greedy_parts", "lpt_parts",
    "payload_fingerprint", "resolve_pointer", "schedule_indices",
    "cascade_summary", "context_count", "dedup_diagnostics",
    "diagnostics_to_dict", "diagnostics_to_sarif", "dovetail_schedule", "context_sensitivity_gain", "enumerate_contexts", "oneflow_refine", "points_to_by_context", "relevant_statements", "percentile", "render_diagnostics_text", "render_report", "run_cascade", "size_summary",
    "select_clusters", "suppress_diagnostics",
]
