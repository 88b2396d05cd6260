"""IR JSON round-tripping, and the wire encoding content keys hash."""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro import parse_program
from repro.analysis import Andersen, execute
from repro.bench import sources
from repro.core import BootstrapAnalyzer, Cluster, RelevantSlice
from repro.ir import (
    cluster_to_wire,
    format_program,
    program_from_dict,
    program_to_dict,
)
from repro.ir.cfg import Loc
from repro.ir.statements import AllocSite, Var

from .helpers import (
    call_chain_program,
    diamond_program,
    figure2_program,
    figure5_program,
    recursive_program,
)
from .test_properties import programs


ALL = [figure2_program, figure5_program, diamond_program,
       call_chain_program, recursive_program]


class TestRoundTrip:
    @pytest.mark.parametrize("make", ALL)
    def test_text_identical(self, make):
        prog = make()
        again = program_from_dict(program_to_dict(prog))
        assert format_program(again) == format_program(prog)

    @pytest.mark.parametrize("make", ALL)
    def test_analysis_identical(self, make):
        prog = make()
        again = program_from_dict(program_to_dict(prog))
        a1, a2 = Andersen(prog).run(), Andersen(again).run()
        for p in prog.pointers:
            assert a1.points_to(p) == a2.points_to(p), str(p)

    def test_json_serializable(self):
        data = program_to_dict(figure5_program())
        json.loads(json.dumps(data))

    def test_frontend_program_round_trips(self):
        prog = sources.load("char_device")
        again = program_from_dict(program_to_dict(prog))
        assert format_program(again) == format_program(prog)

    def test_indirect_targets_preserved(self):
        prog = sources.load("fops_dispatch")
        again = program_from_dict(program_to_dict(prog))
        from repro.ir import CallStmt
        t1 = sorted(tuple(s.targets) for _, s in prog.statements()
                    if isinstance(s, CallStmt))
        t2 = sorted(tuple(s.targets) for _, s in again.statements()
                    if isinstance(s, CallStmt))
        assert t1 == t2

    def test_version_checked(self):
        data = program_to_dict(figure2_program())
        data["version"] = 999
        with pytest.raises(ValueError):
            program_from_dict(data)

    @given(programs())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_random_programs_round_trip(self, prog):
        again = program_from_dict(program_to_dict(prog))
        assert format_program(again) == format_program(prog)
        orc1 = execute(prog, max_steps=150, max_paths=200)
        orc2 = execute(again, max_steps=150, max_paths=200)
        for p in prog.pointers:
            assert orc1.points_to(p) == orc2.points_to(p)


SPAN_SOURCE = """
int x;
int *p;

int main() {
    p = &x;
    return 0;
}
"""


class TestSpanRoundTrip:
    def test_frontend_spans_survive(self):
        """Spans (format version 2+): parsed programs carry source spans
        and a dict round-trip preserves every one, position for
        position."""
        prog = parse_program(SPAN_SOURCE)
        data = program_to_dict(prog)
        assert data["version"] == 3
        assert any("spans" in fd for fd in data["functions"].values())
        again = program_from_dict(data)
        for name, fn in prog.functions.items():
            cfg, cfg2 = fn.cfg, again.functions[name].cfg
            for idx in cfg.nodes():
                assert cfg2.span(idx) == cfg.span(idx)

    def test_span_encoding_shape(self):
        prog = parse_program(SPAN_SOURCE)
        data = program_to_dict(prog)
        for fd in data["functions"].values():
            for span in fd.get("spans", []):
                if span is not None:
                    assert len(span) == 4  # line, col, end_line, end_col
                    assert all(isinstance(n, int) for n in span[:2])
                    assert all(n is None or isinstance(n, int)
                               for n in span[2:])

    def test_version1_dump_without_spans_loads(self):
        data = program_to_dict(parse_program(SPAN_SOURCE))
        for fd in data["functions"].values():
            fd.pop("spans", None)
        data["version"] = 1
        again = program_from_dict(data)
        assert all(again.cfg_of(f).span(i) is None
                   for f in again.functions
                   for i in again.cfg_of(f).nodes())


def _sample_slice(reverse=False):
    """One slice built from differently-ordered collections, to pin the
    canonical-order guarantee."""
    members = [Var("p"), Var("q", "f"), AllocSite("A1")]
    locs = [Loc("main", 2), Loc("f", 0), Loc("main", 1)]
    if reverse:
        members = list(reversed(members))
        locs = list(reversed(locs))
    return RelevantSlice(cluster=frozenset(members),
                         vp=frozenset(members + [Var("r")]),
                         statements=frozenset(locs))


class TestWireFormat:
    """The one-way wire encoding that cluster content keys hash."""

    def test_equal_values_serialize_byte_identically(self):
        """The content key hashes these encodings: set-iteration order
        must never leak into the JSON."""
        a, b = _sample_slice(), _sample_slice(reverse=True)
        assert a == b
        blobs = {json.dumps(cluster_to_wire(
            Cluster(members=sl.cluster, slice=sl, origin="andersen",
                    parent_size=4, parent_slice=sl)), sort_keys=True)
            for sl in (a, b)}
        assert len(blobs) == 1

    def test_payloads_hash_the_cluster_subprogram(self):
        """A cluster's identity record digests exactly the program
        ``cluster_subprogram`` builds (the program the Theorem 6
        differential solves), function by function, beside the
        cluster's own encoding and the knobs."""
        from repro.bench import build
        from repro.core import BootstrapConfig, CascadeConfig
        from repro.core.shipping import (
            PAYLOAD_VERSION,
            build_payload,
            cluster_subprogram,
        )
        from repro.ir import CallGraph
        from repro.ir.serialize import function_to_wire, symbols_to_wire

        def digest(data):
            blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()

        program = build("sendmail", scale=0.004).program
        config = BootstrapConfig(
            cascade=CascadeConfig(andersen_threshold=6))
        boot = BootstrapAnalyzer(program, config).run()
        callgraph = CallGraph(program)
        memo = {}
        assert boot.clusters
        for i, cluster in enumerate(boot.clusters):
            record = build_payload(program, cluster, callgraph=callgraph,
                                   subprogram_cache=memo)
            assert json.loads(json.dumps(record)) == record, i
            sub = cluster_subprogram(program, cluster, callgraph)
            functions = [(name, digest(function_to_wire(fn)))
                         for name, fn in sub.functions.items()]
            assert record == [
                PAYLOAD_VERSION,
                {"max_cond_atoms": config.max_cond_atoms,
                 "budget": config.fscs_budget},
                digest([sub.entry, functions,
                        symbols_to_wire(sub.globals)]),
                cluster_to_wire(cluster)], i
