"""Content keys are exact: equal keys iff equal payload fingerprints.

A daemon reload takes an unchanged cluster's fingerprint from the
content key it remembers instead of encoding the payload
(:func:`repro.core.shipping.cluster_fingerprints` with ``known``).
That is only sound if no two clusters with different payloads share a
key, and only pays if clusters with equal payloads do share one.  The
property is checked over every cluster of the corpus, the hand-written
sources, the examples and a stream of one-function edits, under four
cascade configurations; the mutation cases pin which edits move a key.
"""

import glob
import os
import re
from collections import defaultdict
from dataclasses import replace

import pytest

from repro.bench import corpus, sources
from repro.bench.corpus import PAPER_TABLE1
from repro.bench.synth import SynthConfig, generate_source
from repro.core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig
from repro.core import shipping
from repro.core.shipping import (
    build_payload,
    cluster_content_keys,
    cluster_fingerprints,
    payload_fingerprint,
)
from repro.frontend import parse_program
from repro.ir import AddrOf, CallGraph, Var

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

CONFIGS = {
    "default": CascadeConfig(),
    "andersen6": CascadeConfig(andersen_threshold=6),
    "fs_cutshortcut": CascadeConfig(clustering="steensgaard_fs",
                                    cutshortcut=True),
    "oneflow": CascadeConfig(use_oneflow=True),
}


def edit_web(text, web, fresh):
    """Rewrite ``web<web>`` of a generated source so its first pointer
    ends on a new local — a one-function edit no earlier one made."""
    head = f"void web{web}(void) {{\n"
    start = text.index(head) + len(head)
    end = text.index("\n}", start)
    return (text[:start] + f"    int fresh{fresh};\n" + text[start:end]
            + f"\n    w{web}p0 = &fresh{fresh};" + text[end:])


def edited_sources(pointers, edits=12):
    text = generate_source(SynthConfig(name=f"gen{pointers}",
                                       pointers=pointers, seed=5))
    webs = sorted(int(w) for w in re.findall(r"void web(\d+)\(void\)",
                                             text))
    yield f"gen{pointers}", text
    for k in range(edits):
        yield f"gen{pointers}/{k}", edit_web(text, webs[k * 5 % len(webs)],
                                             k)


def programs():
    for row in PAPER_TABLE1:
        yield row.name, corpus.build(row.name, scale=0.005).program
    for name in sources.names():
        yield name, parse_program(sources.source(name), entry="main")
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.c"))):
        with open(path) as handle:
            yield os.path.basename(path), parse_program(handle.read(),
                                                        entry="main")
    for pointers in (64, 400):
        for name, text in edited_sources(pointers):
            yield name, parse_program(text, entry="main")


@pytest.fixture(scope="module")
def keyed():
    """``(program, config, content key, fingerprint)`` per cluster."""
    rows = []
    for name, program in programs():
        for config_name, config in CONFIGS.items():
            result = BootstrapAnalyzer(
                program, BootstrapConfig(cascade=config)).run()
            keys = cluster_content_keys(program, result.clusters,
                                        result.callgraph)
            fps = cluster_fingerprints(program, result.clusters,
                                       result.callgraph)
            rows.extend((name, config_name, k, fp)
                        for k, fp in zip(keys, fps))
    return rows


def test_keys_and_fingerprints_are_in_bijection(keyed):
    fp_of = defaultdict(set)
    key_of = defaultdict(set)
    for _, _, key, fp in keyed:
        fp_of[key].add(fp)
        key_of[fp].add(key)
    assert all(len(fps) == 1 for fps in fp_of.values()), \
        "one content key named two different payloads"
    assert all(len(keys) == 1 for keys in key_of.values()), \
        "one payload got two content keys"
    assert len(fp_of) == len(key_of)
    # Sharing is real: the edit stream and the configurations repeat
    # most clusters, so far fewer keys than clusters.
    assert len(fp_of) < len(keyed) / 2


def test_every_source_group_is_covered(keyed):
    names = {name.split("/")[0] for name, _, _, _ in keyed}
    assert {row.name for row in PAPER_TABLE1} <= names
    assert set(sources.names()) <= names
    assert {os.path.basename(p) for p in
            glob.glob(os.path.join(EXAMPLES, "*.c"))} <= names
    assert {"gen64", "gen400"} <= names
    assert {c for _, c, _, _ in keyed} == set(CONFIGS)


def test_remembered_fingerprints_are_the_built_ones():
    """Through a ``known`` map, a second batch builds nothing and still
    returns the built fingerprints, byte for byte."""
    text = generate_source(SynthConfig(name="gen64", pointers=64, seed=5))
    program = parse_program(text, entry="main")
    result = BootstrapAnalyzer(program).run()
    known = {}
    encoded = []
    first = cluster_fingerprints(program, result.clusters,
                                 result.callgraph, known=known,
                                 encoded=encoded)
    assert first == [payload_fingerprint(build_payload(
        program, c, result.callgraph)) for c in result.clusters]
    assert len(encoded) == len(set(first))
    again = []
    assert cluster_fingerprints(program, result.clusters,
                                result.callgraph, known=known,
                                encoded=again) == first
    assert again == []


# ----------------------------------------------------------------------
# mutations: which edits move a cluster's key
# ----------------------------------------------------------------------
BASE = """
int a, b, c, d;
int *p, *q;
int *t, *u;

void other(void) { q = p; }
void bind_tu(void) { t = &d; u = t; }

int main() {
    p = &a;
    other();
    bind_tu();
    return 0;
}
"""

#: ``main`` calls through ``fp``; ``aim`` (a stub for the {t, u}
#: cluster) decides what ``fp`` may reach.
INDIRECT = """
int a, d;
int *p, *q;
int *t, *u;
void (*fp)(void);

void other(void) { q = p; }
void extra(void) { }
void bind_tu(void) { t = &d; u = t; }
void aim(void) { fp = &other; }

int main() {
    p = &a;
    aim();
    fp();
    bind_tu();
    return 0;
}
"""


def parse(source):
    return parse_program(source, entry="main")


def cluster_of(program, pointer="t"):
    result = BootstrapAnalyzer(program).run()
    [cluster] = [c for c in result.clusters if Var(pointer) in c.members]
    return cluster


def key_and_fingerprint(program, cluster, **knobs):
    callgraph = CallGraph(program)
    [key] = cluster_content_keys(program, [cluster], callgraph, **knobs)
    return key, payload_fingerprint(build_payload(program, cluster,
                                                  callgraph, **knobs))


def test_sliced_assignment_edit_moves_nothing():
    """``p = &a`` sits in ``main``, which the {t, u} cluster keeps, but
    it is no part of that slice: it ships as a skip either way."""
    before, after = (parse(BASE), parse(BASE.replace("p = &a;", "p = &b;")))
    assert key_and_fingerprint(after, cluster_of(after)) == \
        key_and_fingerprint(before, cluster_of(before))


def test_new_call_target_moves_both():
    """The indirect call in ``main`` gains the target ``extra``: no
    node of a kept function changes, only the call's targets (which
    statement equality ignores) and the stub set."""
    before = parse(INDIRECT)
    after = parse(INDIRECT.replace("fp = &other; }",
                                   "fp = &other; fp = &extra; }"))
    old_key, old_fp = key_and_fingerprint(before, cluster_of(before))
    new_key, new_fp = key_and_fingerprint(after, cluster_of(after))
    assert new_key != old_key and new_fp != old_fp


#: In-place changes to BASE's program, one payload part each, seen
#: from the {t, u} cluster: ``bind_tu`` and ``main`` are kept and
#: ``other`` is a stub.
PROGRAM_CHANGES = {
    "kept statement": lambda p: p.functions["bind_tu"].cfg.set_stmt(
        1, AddrOf(Var("t"), Var("a"))),
    "kept params": lambda p: p.functions["bind_tu"].params.append(
        Var("$param0", "bind_tu")),
    "kept locals": lambda p: p.functions["bind_tu"].locals.add(
        Var("tmp", "bind_tu")),
    "kept successors": lambda p: p.functions["bind_tu"].cfg.add_edge(0, 3),
    "kept entry": lambda p: setattr(p.functions["bind_tu"].cfg, "entry", 1),
    "stub params": lambda p: p.functions["other"].params.append(
        Var("$param0", "other")),
    "globals used": lambda p: p.globals.discard(Var("d")),
}

#: Changes to the cluster itself.
CLUSTER_CHANGES = {
    # ``d`` is already in the sub-program: only the members change.
    "members": lambda c: replace(c, members=c.members | {Var("d")}),
    "slice": lambda c: replace(c, slice=replace(
        c.slice, statements=frozenset(sorted(c.slice.statements,
                                             key=str)[1:]))),
    "parent slice": lambda c: replace(c, parent_slice=replace(
        c.parent_slice, cluster=c.parent_slice.cluster | {Var("q")})),
    "origin": lambda c: replace(c, origin="oneflow"),
    "parent size": lambda c: replace(c, parent_size=c.parent_size + 1),
}

KNOB_CHANGES = {"max_cond_atoms": {"max_cond_atoms": 5},
                "budget": {"budget": 1000}}


@pytest.mark.parametrize("change", [*PROGRAM_CHANGES, *CLUSTER_CHANGES,
                                    *KNOB_CHANGES, "version"])
def test_each_payload_part_moves_both(change, monkeypatch):
    """Whatever one part of the payload changes, key and fingerprint
    both move: the key covers every part, not only the parts that real
    edits happen to change together."""
    program = parse(BASE)
    cluster = cluster_of(program)
    old_key, old_fp = key_and_fingerprint(program, cluster)
    if change in PROGRAM_CHANGES:
        PROGRAM_CHANGES[change](program)
    elif change in CLUSTER_CHANGES:
        cluster = CLUSTER_CHANGES[change](cluster)
    elif change == "version":
        monkeypatch.setattr(shipping, "PAYLOAD_VERSION",
                            shipping.PAYLOAD_VERSION + 1)
    new_key, new_fp = key_and_fingerprint(program, cluster,
                                          **KNOB_CHANGES.get(change, {}))
    assert new_key != old_key and new_fp != old_fp
