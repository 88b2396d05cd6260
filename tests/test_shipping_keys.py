"""Content keys are exact: clusters with equal keys have equal outcomes,
and every part of a cluster's reduced program moves its key.

A cluster's content key (:func:`repro.core.shipping.cluster_fingerprints`)
names its outcome in the summary cache, the daemon's store and the
fleet's routing.  That is only sound if two clusters with the same key
compute the same outcome, and only pays if clusters with equal content
do share one.  The first property is checked over every cluster of the
corpus, the hand-written sources, the examples and a stream of
one-function edits, under four cascade configurations: for every key
held by clusters of two different (program, configuration) pairs, one
member of each is solved and the outcomes compared.  The mutation cases
pin that each part of the key's record moves it.
"""

import glob
import os
import re
from dataclasses import replace

import pytest

from repro.bench import corpus, sources
from repro.bench.corpus import PAPER_TABLE1
from repro.bench.synth import SynthConfig, generate_source
from repro.core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig
from repro.core import shipping
from repro.core.shipping import (
    build_payload,
    cluster_fingerprints,
    cluster_outcome,
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
    """Every cluster's key, with the (program, configuration) pair it
    came from, and each pair's bootstrap result by that pair."""
    rows = []
    results = {}
    for name, program in programs():
        for config_name, config in CONFIGS.items():
            result = BootstrapAnalyzer(
                program, BootstrapConfig(cascade=config)).run()
            results[name, config_name] = result
            keys = cluster_fingerprints(program, result.clusters,
                                        result.callgraph)
            rows.extend(((name, config_name), i, key)
                        for i, key in enumerate(keys))
    return rows, results


def test_equal_keys_give_equal_outcomes(keyed):
    rows, results = keyed
    members = {}
    for pair, i, key in rows:
        members.setdefault(key, {}).setdefault(pair, i)
    shared = 0
    for key, by_pair in members.items():
        if len(by_pair) < 2:
            continue
        shared += 1
        (pair_a, i), (pair_b, j) = list(by_pair.items())[:2]
        a, b = results[pair_a], results[pair_b]
        outcome_a = cluster_outcome(a.analysis_for(a.clusters[i]))
        outcome_b = cluster_outcome(b.analysis_for(b.clusters[j]))
        assert outcome_a["points_to"] == outcome_b["points_to"], \
            (key, pair_a, pair_b)
        assert outcome_a["stats"] == outcome_b["stats"], \
            (key, pair_a, pair_b)
    # Sharing is real: the edit stream and the configurations repeat
    # most clusters, so far fewer keys than clusters, and many keys
    # span two pairs.
    assert len(members) < len(rows) / 2
    assert shared > len(members) / 4


def test_remembered_fingerprints_are_the_built_ones():
    """The batch memo of :func:`cluster_fingerprints` remembers sliced
    bodies, function digests and base-slice entries; the fingerprints
    it returns are the ones each cluster's record gives built alone."""
    text = generate_source(SynthConfig(name="gen64", pointers=64, seed=5))
    program = parse_program(text, entry="main")
    result = BootstrapAnalyzer(program).run()
    batch = cluster_fingerprints(program, result.clusters,
                                 result.callgraph)
    assert batch == [payload_fingerprint(build_payload(
        program, c, CallGraph(program))) for c in result.clusters]
    assert len(set(batch)) > 1


def test_every_source_group_is_covered(keyed):
    rows, _ = keyed
    names = {name.split("/")[0] for (name, _), _, _ in rows}
    assert {row.name for row in PAPER_TABLE1} <= names
    assert set(sources.names()) <= names
    assert {os.path.basename(p) for p in
            glob.glob(os.path.join(EXAMPLES, "*.c"))} <= names
    assert {"gen64", "gen400"} <= names
    assert {c for (_, c), _, _ in rows} == set(CONFIGS)


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


def key_of(program, cluster, **knobs):
    [key] = cluster_fingerprints(program, [cluster], CallGraph(program),
                                 **knobs)
    return key


def test_sliced_assignment_edit_moves_nothing():
    """``p = &a`` sits in ``main``, which the {t, u} cluster keeps, but
    it is no part of that slice: it is sliced to a skip either way."""
    before, after = (parse(BASE), parse(BASE.replace("p = &a;", "p = &b;")))
    assert key_of(after, cluster_of(after)) == \
        key_of(before, cluster_of(before))


def test_new_call_target_moves_both():
    """The indirect call in ``main`` gains the target ``extra``: no
    node of a kept function changes, only the call's targets (which
    statement equality ignores) and the stub set: both move the key."""
    before = parse(INDIRECT)
    after = parse(INDIRECT.replace("fp = &other; }",
                                   "fp = &other; fp = &extra; }"))
    assert key_of(after, cluster_of(after)) != \
        key_of(before, cluster_of(before))


#: In-place changes to BASE's program, one record part each, seen
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
    """Whatever one part of the identity record changes, the key moves:
    it covers every part of the reduced program, the cluster and the
    knobs, not only the parts that real edits happen to change
    together."""
    program = parse(BASE)
    cluster = cluster_of(program)
    old_key = key_of(program, cluster)
    if change in PROGRAM_CHANGES:
        PROGRAM_CHANGES[change](program)
    elif change in CLUSTER_CHANGES:
        cluster = CLUSTER_CHANGES[change](cluster)
    elif change == "version":
        monkeypatch.setattr(shipping, "PAYLOAD_VERSION",
                            shipping.PAYLOAD_VERSION + 1)
    assert key_of(program, cluster,
                  **KNOB_CHANGES.get(change, {})) != old_key
