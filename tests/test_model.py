import copy
import gc
import json
import sys
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from argus import model
from argus.deps import DependencyRecord, Ecosystem, find_usages
from argus.errors import GraphIntegrityError, GraphParseError
from argus.model import (
    AccessPathEdge,
    ContentNode,
    DataFlow,
    EdgeKind,
    FlowTriple,
    FunctionDecl,
    NodeKind,
    ProgramGraph,
    TaintRole,
    graph_from_dict,
    graph_to_dict,
    load_program_graph,
    validate_flow,
)
from argus.poc import _match_label
from argus.synthetic import hidden_chain_graph, random_graph
from tests.conftest import fixture_path

MINIMAL = {
    "format_version": "1",
    "functions": [{"id": "f1", "name": "main", "is_entry_point": True}],
    "nodes": [
        {"id": "a", "kind": "variable", "function_id": "f1", "label": "a"},
        {"id": "b", "kind": "variable", "function_id": "f1", "label": "b"},
    ],
    "edges": [{"id": "e1", "from": "a", "to": "b", "kind": "assign"}],
}


def make_graph(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return graph_from_dict(doc)


def test_minimal_document_loads(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(MINIMAL))
    graph = load_program_graph(path)
    assert len(graph.nodes) == 2
    assert len(graph.edges) == 1


def test_dangling_edge_target_names_offending_id():
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["to"] = "missing"
    with pytest.raises(GraphIntegrityError) as exc:
        graph_from_dict(doc)
    assert exc.value.offending_id == "missing"


def test_duplicate_node_id_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"].append(dict(doc["nodes"][0]))
    with pytest.raises(GraphIntegrityError):
        graph_from_dict(doc)


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GraphParseError):
        load_program_graph(path)


def test_missing_format_version_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["format_version"]
    with pytest.raises(GraphParseError):
        graph_from_dict(doc)


@pytest.mark.parametrize("section", [
    None, "nodes", "edges", "functions", "call_edges", "anchors",
], ids=["document", "node", "edge", "function", "call-edge", "anchor"])
def test_unknown_field_is_rejected(tmp_path, section):
    # The same parse error, naming the field, from a dict, a whole file load
    # and a sliced one.
    doc = copy.deepcopy(_FULL)
    (doc[section][0] if section else doc)["mystery"] = 1
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    want = _outcome(lambda: graph_from_dict(copy.deepcopy(doc)))
    assert want[0] is GraphParseError
    assert "unknown field(s) ['mystery']" in want[1]
    assert _outcome(lambda: load_program_graph(path)) == want
    assert _sliced_outcome(path, 64) == want


def test_there_is_no_lenient_mode(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(MINIMAL))
    assert len(load_program_graph(path, strict=True).nodes) == 2
    for kwargs in ({"strict": False}, {"strict": 0}, {"warnings": []}):
        with pytest.raises(TypeError):
            load_program_graph(path, **kwargs)
        with pytest.raises(TypeError):
            graph_from_dict(json.loads(json.dumps(MINIMAL)), **kwargs)


def test_no_functions_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["functions"] = []
    doc["nodes"] = []
    doc["edges"] = []
    with pytest.raises(GraphIntegrityError):
        graph_from_dict(doc)


F1 = MINIMAL["functions"][0]
PARAM = {"id": "p", "kind": "parameter", "function_id": "f1", "label": "p"}


def _call(caller="f1", callee="f1", site="a"):
    return [{"caller": caller, "callee": callee, "call_site_node": site}]


@pytest.mark.parametrize("overrides, offending, message", [
    ({"functions": [], "nodes": [], "edges": []}, "<functions>", "graph declares no functions"),
    ({"nodes": [dict(MINIMAL["nodes"][0], function_id="ghost"), MINIMAL["nodes"][1]]},
     "ghost", "node 'a' references unknown function 'ghost'"),
    ({"functions": [dict(F1, parameters=["ghost"])]},
     "ghost", "function 'f1' references unknown parameter 'ghost'"),
    ({"functions": [dict(F1, parameters=["p"]), {"id": "f2", "name": "g"}],
      "nodes": MINIMAL["nodes"] + [dict(PARAM, function_id="f2")]},
     "p", "function 'f1': node 'p' is not a parameter it owns"),
    ({"functions": [dict(F1, parameters=["p", "p"])], "nodes": MINIMAL["nodes"] + [PARAM]},
     "p", "function 'f1': duplicate parameter 'p'"),
    ({"functions": [dict(F1, return_node="ghost")]},
     "ghost", "function 'f1' references unknown return node"),
    ({"call_edges": _call(caller="ghost")}, "ghost", "call edge caller 'ghost' unknown"),
    ({"call_edges": _call(callee="ghost")}, "ghost", "call edge callee 'ghost' unknown"),
    ({"call_edges": _call(site="ghost")}, "ghost", "call edge site 'ghost' unknown"),
    ({"call_edges": _call()}, "a", "call site 'a' must be a call-argument or call-return node"),
])
def test_integrity_errors_name_the_offending_id(overrides, offending, message):
    with pytest.raises(GraphIntegrityError) as exc:
        make_graph(**overrides)
    assert exc.value.offending_id == offending
    assert str(exc.value) == message


def test_sanitizer_with_sink_kind_rejected():
    with pytest.raises(GraphIntegrityError):
        ContentNode(id="x", kind=NodeKind.VARIABLE, label="x",
                    taint_role=TaintRole.SANITIZER, sink_kind="command-exec")


def test_self_loop_only_for_assign():
    AccessPathEdge(id="ok", src="a", dst="a", kind=EdgeKind.ASSIGN)
    with pytest.raises(GraphIntegrityError):
        AccessPathEdge(id="bad", src="a", dst="a", kind=EdgeKind.CALL_PASS)


def test_round_trip_is_semantically_identical():
    for name in ("datagear_mini", "publiccms_mini"):
        path = fixture_path(name, "graph.json")
        graph = load_program_graph(path)
        doc = graph_to_dict(graph)
        reloaded = graph_from_dict(doc)
        assert graph_to_dict(reloaded) == doc


def test_case2_fixture_has_backward_chain():
    graph = load_program_graph(fixture_path("publiccms_mini", "graph.json"))
    names = {f.name for f in graph.functions.values()}
    assert "com.publiccms.common.tools.DocToHtmlUtils.excelToHtml" in names
    callees = {(c.caller, c.callee) for c in graph.call_edges}
    assert ("fx", "fp") in callees
    assert graph.nodes["n_newinst"].label.endswith("DocumentBuilderFactory.newInstance")


# --- validate_flow -----------------------------------------------------------


def flow_graph():
    nodes = [
        ContentNode("s", NodeKind.VARIABLE, "s", "f1", TaintRole.SOURCE, "http-param"),
        ContentNode("m", NodeKind.VARIABLE, "m", "f1"),
        ContentNode("t", NodeKind.CALL_ARGUMENT, "t", "f1", TaintRole.SINK,
                    sink_kind="command-exec"),
    ]
    edges = [
        AccessPathEdge("e1", "s", "m", EdgeKind.ASSIGN),
        AccessPathEdge("e2", "m", "t", EdgeKind.CALL_PASS),
        AccessPathEdge("e3", "s", "t", EdgeKind.CALL_PASS),
    ]
    return ProgramGraph(nodes, edges, [FunctionDecl("f1", "f1")])


def test_empty_flow_rejected():
    g = flow_graph()
    flow = DataFlow(triples=())
    verdict = validate_flow(flow, g)
    assert not verdict.ok


def test_single_triple_flow_accepted():
    g = flow_graph()
    flow = DataFlow(triples=(FlowTriple("s", g.edges["e3"], "t"),))
    assert validate_flow(flow, g).ok


def test_continuity_violation_cites_position():
    g = flow_graph()
    triples = (
        FlowTriple("s", g.edges["e1"], "m"),
        FlowTriple("m", g.edges["e2"], "t"),
        FlowTriple("s", g.edges["e3"], "t"),  # from != previous to
    )
    verdict = validate_flow(flow := DataFlow(triples=triples), g)
    assert not verdict.ok
    assert any("triple 3" in v and "continuity" in v for v in verdict.violations)


def test_length_bound_enforced():
    g = flow_graph()
    triples = (
        FlowTriple("s", g.edges["e1"], "m"),
        FlowTriple("m", g.edges["e2"], "t"),
    )
    flow = DataFlow(triples=triples, max_length_bound=2)
    verdict = validate_flow(flow, g)
    assert not verdict.ok
    assert any("bound" in v for v in verdict.violations)


def test_foreign_edge_rejected():
    g = flow_graph()
    foreign = AccessPathEdge("zz", "s", "t", EdgeKind.CALL_PASS)
    flow = DataFlow(triples=(FlowTriple("s", foreign, "t"),))
    verdict = validate_flow(flow, g)
    assert not verdict.ok
    assert any("'zz'" in v for v in verdict.violations)


def _bridge(src, dst):
    return AccessPathEdge(f"bridge::{src}->{dst}", src, dst, EdgeKind.CALL_PASS,
                          visible_to_forward=False, bridged=True)


# (name, triples of flow_graph() as (from, edge, to) with an edge id or
# edge, length bound, allow_bridged, the one violation)
_VIOLATIONS = [
    ("empty", [], 64, False, "flow has no triples (length must be >= 1)"),
    ("bound", [("s", "e3", "t")], 1, False, "flow length 1 violates bound 1 (need n < bound)"),
    ("bridged", [("s", _bridge("s", "t"), "t")], 64, False,
     "triple 1: bridged edge 'bridge::s->t' not permitted"),
    ("foreign edge", [("s", AccessPathEdge("zz", "s", "t", EdgeKind.ASSIGN), "t")], 64, False,
     "triple 1: edge 'zz' not in graph"),
    ("endpoints", [("s", AccessPathEdge("e1", "s", "t", EdgeKind.ASSIGN), "t")], 64, False,
     "triple 1: edge 'e1' endpoints ('s'->'m') do not match triple"),
    ("edge disagrees", [("s", _bridge("m", "t"), "t")], 64, True,
     "triple 1: triple endpoints disagree with its edge"),
    ("unknown from", [("x", _bridge("x", "t"), "t")], 64, True, "triple 1: unknown node 'x'"),
    ("unknown to", [("s", _bridge("s", "y"), "y")], 64, True, "triple 1: unknown node 'y'"),
    ("continuity", [("s", "e1", "m"), ("s", "e3", "t")], 64, False,
     "triple 2: continuity broken ('m' != 's')"),
    ("not a source", [("m", "e2", "t")], 64, False, "first node 'm' is not a source"),
    ("not a sink", [("s", "e1", "m")], 64, False, "last node 'm' is not a sink"),
]


@pytest.mark.parametrize("triples, bound, allow_bridged, violation",
                         [case[1:] for case in _VIOLATIONS], ids=[case[0] for case in _VIOLATIONS])
def test_validate_flow_names_each_violation(triples, bound, allow_bridged, violation):
    g = flow_graph()
    flow = DataFlow(
        triples=tuple(FlowTriple(a, g.edges[e] if isinstance(e, str) else e, b)
                      for a, e, b in triples),
        max_length_bound=bound,
    )
    verdict = validate_flow(flow, g, allow_bridged=allow_bridged)
    assert not verdict.ok
    assert verdict.violations == [violation]


# --- label index and with_sinks overlay ---------------------------------------

# Label segments, so that joined labels include "", "..", a trailing ".",
# and the neighbours of "." in code-point order ("-" before it, "/" after).
_SEGMENT = st.sampled_from(["", "a", "b", "ab", "a-b", "-", "/", "x/y", "é", "z"])
_LABEL = st.lists(_SEGMENT, max_size=4).map(".".join)


def _naive_usages(graph, prefix):
    end = len(prefix)
    return sorted(
        n.id for n in graph.nodes.values()
        if n.label.startswith(prefix) and n.label[end:end + 1] in ("", ".")
    )


def _naive_match(graph, name):
    exact = sorted(n.id for n in graph.nodes.values() if n.label == name)
    if exact:
        return tuple(exact)
    dotted = "." + name
    return tuple(sorted(n.id for n in graph.nodes.values() if n.label.endswith(dotted)))


@settings(max_examples=300, deadline=None)
@given(
    labels=st.lists(_LABEL, max_size=25),
    queries=st.lists(_LABEL, min_size=1, max_size=10),
    marked=st.sets(st.integers(0, 30), max_size=8),
)
def test_label_index_matches_naive_scans(labels, queries, marked):
    # Ids that sort apart from their position ("n10" < "n2"), with
    # duplicate labels, so sorting by id is checked too.
    graph = ProgramGraph(
        [ContentNode(f"n{i}", NodeKind.VARIABLE, label, "f") for i, label in enumerate(labels)],
        [],
        [FunctionDecl("f", "f")],
    )
    overlay = graph.with_sinks({f"n{i}": "k" for i in marked})
    for g in (overlay, graph):
        for q in queries:
            dep = DependencyRecord(Ecosystem.GENERIC, q + ":artifact", "1")
            assert find_usages(g, dep).node_ids == _naive_usages(g, q)
            assert _match_label(g, q) == _naive_match(g, q)


# Few segments, so that many labels share their last segment and a suffix
# name of several segments matches some labels and not others.
_SHARED_SEGMENT = st.sampled_from(["", "a", "b", "ab", "-", "/"])
_SHARED_LABEL = st.lists(_SHARED_SEGMENT, min_size=1, max_size=5).map(".".join)


@settings(max_examples=300, deadline=None)
@given(
    base=st.lists(_SHARED_LABEL, min_size=1, max_size=30),
    data=st.data(),
)
def test_label_index_shared_last_segments_match_naive_scans(base, data):
    # Repeated labels, with ids drawn in shuffled order, so that the ids of
    # equal labels sort apart from the nodes' order in the graph.
    labels = base + data.draw(st.lists(st.sampled_from(base), max_size=10))
    order = data.draw(st.permutations(range(len(labels))))
    graph = ProgramGraph(
        [ContentNode(f"n{order[i]}", NodeKind.VARIABLE, label, "f")
         for i, label in enumerate(labels)],
        [],
        [FunctionDecl("f", "f")],
    )
    # Each label's suffixes of one or more segments, and drawn names.
    queries = {".".join(label.split(".")[k:]) for label in labels
               for k in range(label.count(".") + 1)}
    queries.update(data.draw(st.lists(_SHARED_LABEL, max_size=5)))
    index = graph.label_index()
    for q in sorted(queries):
        assert index.exact(q) == sorted(n.id for n in graph.nodes.values() if n.label == q)
        assert index.ending(q) == sorted(
            n.id for n in graph.nodes.values() if n.label.endswith("." + q)
        )
        dep = DependencyRecord(Ecosystem.GENERIC, q + ":artifact", "1")
        assert find_usages(graph, dep).node_ids == _naive_usages(graph, q)
        assert _match_label(graph, q) == _naive_match(graph, q)


def _incoming_graphs():
    for seed in range(3):
        yield random_graph(seed, n_nodes=40, n_edges=120, hidden_edge_fraction=0.2)
        yield hidden_chain_graph(seed, depth=3).graph


def test_incoming_matches_a_scan_of_the_edges():
    for graph in _incoming_graphs():
        marked = {node_id: "k" for node_id in list(graph.nodes)[::3]}
        # One overlay made before its parent builds the index, one after.
        fresh = graph.with_sinks(marked)
        for g in (fresh, graph, graph.with_sinks(marked)):
            for node_id in g.nodes:
                assert g.incoming(node_id) == tuple(
                    e for e in g.edges.values() if e.dst == node_id
                )
                # The index holds tuples, so no caller can change it.
                assert g.incoming(node_id) is g.incoming(node_id)
        assert graph.incoming("no-such-node") == ()


def test_callers_match_a_scan_of_the_call_edges():
    for seed in range(3):
        graph = hidden_chain_graph(seed, depth=3).graph
        # One overlay made before its parent builds the index, one after.
        fresh = graph.with_sinks({})
        for g in (fresh, graph, graph.with_sinks({})):
            for function_id in g.functions:
                assert g.callers(function_id) == tuple(sorted(
                    (ce.caller, ce.call_site_node)
                    for ce in g.call_edges if ce.callee == function_id
                ))
                assert g.callers(function_id) is g.callers(function_id)
        assert any(graph.callers(f) for f in graph.functions)
        assert graph.callers("no-such-function") == ()


def overlay_graph():
    nodes = [
        ContentNode("src", NodeKind.PARAMETER, "p", "f1", TaintRole.SOURCE, "http-param"),
        ContentNode("m", NodeKind.VARIABLE, "m", "f1"),
        ContentNode("san", NodeKind.VARIABLE, "clean", "f1", TaintRole.SANITIZER),
        ContentNode("a", NodeKind.CALL_ARGUMENT, "Runtime.exec", "f1"),
        ContentNode("old", NodeKind.CALL_ARGUMENT, "old", "f1", TaintRole.SINK,
                    sink_kind="sql"),
    ]
    edges = [
        AccessPathEdge("e1", "src", "m", EdgeKind.ASSIGN),
        AccessPathEdge("e2", "m", "san", EdgeKind.ASSIGN),
        AccessPathEdge("e3", "m", "a", EdgeKind.CALL_PASS),
        AccessPathEdge("e4", "san", "old", EdgeKind.CALL_PASS),
    ]
    return ProgramGraph(nodes, edges, [FunctionDecl("f1", "f1", ("src",))])


def test_with_sinks_overlay_marks_only_unmarked_nodes():
    graph = overlay_graph()
    roles_before = {n.id: (n.taint_role, n.sink_kind) for n in graph.nodes.values()}
    # Fill the parent's role lists first: the overlay must not inherit them.
    assert [n.id for n in graph.nodes_by_role(TaintRole.SINK)] == ["old"]
    # Build the parent's indexes first, as a scan does: the overlay must
    # not inherit them, so they die with the parent.
    labels = graph.label_index()
    graph.incoming("m")
    graph.callers("f1")
    overlay = graph.with_sinks(
        {"a": "command-exec", "src": "x", "san": "x", "old": "x", "ghost": "x"}
    )
    assert overlay._incoming is None and overlay._labels is None
    assert overlay._callers is None

    assert {n.id: (n.taint_role, n.sink_kind) for n in graph.nodes.values()} == roles_before
    assert list(overlay.nodes) == list(graph.nodes)
    assert "ghost" not in overlay.nodes
    assert overlay.nodes["a"].taint_role == TaintRole.SINK
    assert overlay.nodes["a"].sink_kind == "command-exec"
    assert overlay.nodes["src"] is graph.nodes["src"]
    assert overlay.nodes["san"] is graph.nodes["san"]
    assert overlay.nodes["old"] is graph.nodes["old"]
    for node_id in graph.nodes:
        assert overlay.outgoing(node_id) == graph.outgoing(node_id)
        assert overlay.incoming(node_id) == graph.incoming(node_id)
    assert overlay.edges is graph.edges
    own = overlay.label_index()
    assert own is not labels
    for name in ("p", "m", "clean", "Runtime.exec", "exec", "Runtime", "old", "x"):
        assert own.exact(name) == labels.exact(name)
        assert own.under(name) == labels.under(name)
        assert own.ending(name) == labels.ending(name)

    assert [n.id for n in overlay.nodes_by_role(TaintRole.SINK)] == ["a", "old"]
    assert [n.id for n in graph.nodes_by_role(TaintRole.SINK)] == ["old"]
    overlay.nodes_by_role(TaintRole.SINK).clear()
    assert [n.id for n in overlay.nodes_by_role(TaintRole.SINK)] == ["a", "old"]


# --- loader: enum lookups, GC state, the graph it builds ------------------------


@pytest.mark.parametrize("mutate, value, enum", [
    (lambda d: d["nodes"][0].update(kind="bogus"), "'bogus'", "NodeKind"),
    (lambda d: d["nodes"][0].update(taint_role="bogus"), "'bogus'", "TaintRole"),
    (lambda d: d["edges"][0].update(kind="bogus"), "'bogus'", "EdgeKind"),
    (lambda d: d["nodes"][0].update(kind=["variable"]), "['variable']", "NodeKind"),
    (lambda d: d["edges"][0].update(kind=7), "7", "EdgeKind"),
])
def test_unknown_enum_value_is_named(mutate, value, enum):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(GraphParseError) as exc:
        graph_from_dict(doc)
    assert str(exc.value) == f"invalid enum or numeric value: {value} is not a valid {enum}"


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_load_restores_the_callers_gc_state(tmp_path, caller_enabled):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MINIMAL))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    bad_kind = tmp_path / "kind.json"
    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"][0]["kind"] = "bogus"
    bad_kind.write_text(json.dumps(doc))
    was_enabled = gc.isenabled()
    try:
        gc.enable() if caller_enabled else gc.disable()
        assert len(load_program_graph(good).nodes) == 2
        assert gc.isenabled() is caller_enabled
        for path in (bad_json, bad_kind):
            with pytest.raises(GraphParseError):
                load_program_graph(path)
            assert gc.isenabled() is caller_enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def _plain_graph(doc):
    """The nodes, edges, functions and outgoing lists of ``doc``, built with
    enum calls, one frozenset per edge and a sort per source node."""
    nodes = {
        n["id"]: ContentNode(n["id"], NodeKind(n["kind"]), n["label"], n["function_id"],
                             TaintRole(n["taint_role"]), n["source_kind"], n["sink_kind"])
        for n in doc["nodes"]
    }
    edges = {
        e["id"]: AccessPathEdge(e["id"], e["from"], e["to"], EdgeKind(e["kind"]),
                                e["visible_to_forward"], frozenset(e["guard_tags"]))
        for e in doc["edges"]
    }
    functions = {
        f["id"]: FunctionDecl(f["id"], f["name"], tuple(f["parameters"]), f["return_node"],
                              f["is_entry_point"])
        for f in doc["functions"]
    }
    outgoing = {
        node_id: tuple(sorted((e for e in edges.values() if e.src == node_id),
                              key=lambda e: e.id))
        for node_id in nodes
    }
    return nodes, edges, functions, outgoing


@pytest.mark.parametrize("make", [
    lambda: hidden_chain_graph(3, depth=3).graph,
    lambda: random_graph(5, n_nodes=40, n_edges=120, hidden_edge_fraction=0.2),
])
def test_loader_builds_the_plain_graph(make, tmp_path):
    doc = graph_to_dict(make())
    # Tagged edges among untagged ones; the edge ids sort apart from their
    # order in the document, so the outgoing order is checked too.
    doc["edges"][0]["guard_tags"] = ["validated", "encoded"]
    doc["edges"][-1]["guard_tags"] = ["caught"]
    doc["edges"].reverse()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    graph = load_program_graph(path)

    nodes, edges, functions, outgoing = _plain_graph(doc)
    assert graph.nodes == nodes
    assert graph.edges == edges
    assert graph.functions == functions
    for node_id in nodes:
        assert graph.outgoing(node_id) == outgoing[node_id]
    assert graph_to_dict(graph_from_dict(graph_to_dict(graph))) == graph_to_dict(graph)

    assert graph.edges[doc["edges"][-1]["id"]].guard_tags == {"validated", "encoded"}
    assert graph.edges[doc["edges"][0]["id"]].guard_tags == {"caught"}
    untagged = [e.guard_tags for e in graph.edges.values() if not e.guard_tags]
    assert untagged and all(tags == frozenset() for tags in untagged)
    assert len({id(tags) for tags in untagged}) == 1


@pytest.mark.parametrize("key, entry", [
    ("nodes", lambda i: {"id": i, "kind": "variable", "function_id": "f1", "label": i}),
    ("edges", lambda i: {"id": i, "from": "a", "to": "b", "kind": "assign"}),
    ("functions", lambda i: {"id": i, "name": i}),
])
def test_duplicate_id_error_names_the_first_repeat(key, entry):
    doc = json.loads(json.dumps(MINIMAL))
    # "y" is the first id seen twice, "x" the first id that has a twin.
    doc[key].extend(entry(i) for i in ("x", "y", "y", "x"))
    with pytest.raises(GraphIntegrityError) as exc:
        graph_from_dict(doc)
    assert exc.value.offending_id == "y"
    assert str(exc.value) == f"duplicate {key[:-1]} id 'y'"


def test_graph_elements_are_slotted_and_replaceable():
    graph = make_graph(functions=[{"id": "f1", "name": "main", "parameters": ["p"],
                                   "return_node": "b"}],
                       nodes=MINIMAL["nodes"] + [{"id": "p", "kind": "parameter",
                                                  "function_id": "f1", "label": "p"}])
    node, edge, func = graph.nodes["a"], graph.edges["e1"], graph.functions["f1"]
    for obj in (node, edge, func):
        assert not hasattr(obj, "__dict__")
    assert replace(func, parameters=(), return_node=None) == FunctionDecl("f1", "main")
    assert replace(edge, guard_tags=frozenset({"t"})).guard_tags == {"t"}
    overlay = graph.with_sinks({"b": "sql"})
    assert overlay.nodes["b"].taint_role == TaintRole.SINK
    assert overlay.nodes["b"].sink_kind == "sql"
    assert graph.nodes["b"].taint_role == TaintRole.NONE


# --- loader: element checks, immutability, malformed documents -----------------


@pytest.mark.parametrize("key, entry, direct, offending, message", [
    ("nodes",
     {"id": "s", "kind": "variable", "function_id": "f1", "label": "s",
      "taint_role": "sanitizer", "source_kind": "http-param"},
     lambda: ContentNode("s", NodeKind.VARIABLE, "s", "f1", TaintRole.SANITIZER,
                         source_kind="http-param"),
     "s", "sanitizer node 's' must not carry source_kind/sink_kind"),
    ("edges",
     {"id": "loop", "from": "a", "to": "a", "kind": "call-pass"},
     lambda: AccessPathEdge("loop", "a", "a", EdgeKind.CALL_PASS),
     "loop", "edge 'loop': self-loop only permitted for assign edges"),
])
def test_element_checks_run_on_load_and_on_construction(key, entry, direct, offending,
                                                        message):
    doc = json.loads(json.dumps(MINIMAL))
    doc[key].append(entry)
    for build in (lambda: graph_from_dict(doc), direct):
        with pytest.raises(GraphIntegrityError) as exc:
            build()
        assert exc.value.offending_id == offending
        assert str(exc.value) == message


def test_loaded_elements_are_frozen_twins_of_constructed_ones():
    graph = make_graph(
        nodes=[
            {"id": "a", "kind": "parameter", "function_id": "f1", "label": "a",
             "taint_role": "source", "source_kind": "http-param"},
            {"id": "b", "kind": "call-argument", "function_id": None, "label": "b.exec",
             "taint_role": "sink", "sink_kind": "command-exec"},
            {"id": "c", "kind": "variable", "label": "c"},
        ],
        edges=[
            {"id": "e1", "from": "a", "to": "b", "kind": "call-pass",
             "visible_to_forward": False, "guard_tags": ["validated"]},
            {"id": "e2", "from": "c", "to": "c", "kind": "assign"},
        ],
    )
    twins = [
        ContentNode("a", NodeKind.PARAMETER, "a", "f1", TaintRole.SOURCE, "http-param"),
        ContentNode("b", NodeKind.CALL_ARGUMENT, "b.exec", None, TaintRole.SINK,
                    sink_kind="command-exec"),
        ContentNode("c", NodeKind.VARIABLE, "c"),
        AccessPathEdge("e1", "a", "b", EdgeKind.CALL_PASS, False, frozenset({"validated"})),
        AccessPathEdge("e2", "c", "c", EdgeKind.ASSIGN),
    ]
    for twin in twins:
        table = graph.nodes if isinstance(twin, ContentNode) else graph.edges
        loaded = table[twin.id]
        assert type(loaded) is type(twin)
        assert loaded == twin
        assert hash(loaded) == hash(twin)
        assert repr(loaded) == repr(twin)
        for f in fields(loaded):
            with pytest.raises(FrozenInstanceError):
                setattr(loaded, f.name, getattr(loaded, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(loaded, f.name)
    assert [e.bridged for e in graph.edges.values()] == [False, False]


# A small valid document that uses every section and every field.
_FULL = {
    "format_version": "1",
    "source_files": ["Main.java"],
    "functions": [
        {"id": "f1", "name": "main", "parameters": ["p"], "return_node": "r",
         "is_entry_point": True},
        {"id": "f2", "name": "helper", "parameters": [], "return_node": None,
         "is_entry_point": False},
    ],
    "nodes": [
        {"id": "p", "kind": "parameter", "function_id": "f1", "label": "p",
         "taint_role": "source", "source_kind": "http-param", "sink_kind": None},
        {"id": "r", "kind": "variable", "function_id": "f1", "label": "r",
         "taint_role": "sanitizer", "source_kind": None, "sink_kind": None},
        {"id": "s", "kind": "call-argument", "function_id": "f2", "label": "exec",
         "taint_role": "sink", "source_kind": None, "sink_kind": "command-exec"},
    ],
    "edges": [
        {"id": "e1", "from": "p", "to": "r", "kind": "assign",
         "visible_to_forward": True, "guard_tags": []},
        {"id": "e2", "from": "r", "to": "s", "kind": "call-pass",
         "visible_to_forward": False, "guard_tags": ["validated"]},
    ],
    "call_edges": [{"caller": "f1", "callee": "f2", "call_site_node": "s"}],
    "anchors": [{"file": "Main.java", "start_line": 3, "end_line": 4, "node_id": "s"}],
}

# One value of each JSON type, keyed by the type's name.
_JSON_VALUES = {
    "null": None, "boolean": True, "integer": 7, "number": 1.5, "string": "x",
    "array": ["x"], "object": {"x": 1},
}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    for name, example in _JSON_VALUES.items():
        if name != "null" and type(value) is type(example):
            return name
    raise AssertionError(f"not a JSON value: {value!r}")


def _strings_in(value) -> set[str]:
    if isinstance(value, str):
        return {value}
    if isinstance(value, dict):
        value = [*value, *value.values()]
    if isinstance(value, list):
        return set().union(*map(_strings_in, value))
    return set()


@st.composite
def _mutated_documents(draw):
    """``_FULL`` after one to three mutations, each at the document or at one
    entry of one of its arrays: a field's value swapped for a value of
    another JSON type, a key dropped, an unknown key added, or an entry
    swapped for a non-object."""
    doc = copy.deepcopy(_FULL)
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(
            [None, "functions", "nodes", "edges", "call_edges", "anchors"]))
        entries = doc.get(section) if section else None
        if section and not (isinstance(entries, list) and entries):
            continue
        pos = draw(st.integers(0, len(entries) - 1)) if section else None
        target = entries[pos] if section else doc
        if not isinstance(target, dict):
            continue
        op = draw(st.sampled_from(["swap-type", "drop-key", "add-key", "non-object"]))
        if op == "non-object" and section:
            entries[pos] = draw(st.sampled_from(
                [v for v in _JSON_VALUES.values() if not isinstance(v, dict)]))
        elif op == "add-key":
            target[draw(st.sampled_from(["mystery", "bridged", "id"]))] = draw(
                st.sampled_from(list(_JSON_VALUES.values())))
        elif target:
            key = draw(st.sampled_from(sorted(target)))
            if op == "drop-key":
                del target[key]
            else:
                current = _json_type(target[key])
                target[key] = draw(st.sampled_from(
                    [v for name, v in _JSON_VALUES.items() if name != current]))
    return doc


def test_full_document_loads():
    graph = graph_from_dict(copy.deepcopy(_FULL))
    assert graph_to_dict(graph) == _FULL


@settings(max_examples=300, deadline=None)
@given(doc=_mutated_documents())
def test_malformed_documents_raise_only_graph_errors(doc):
    try:
        graph = graph_from_dict(doc)
    except (GraphParseError, GraphIntegrityError):
        return
    assert isinstance(graph, ProgramGraph)
    # Every string field holds a str taken from the document (or the empty
    # default label), never one made by coercing a value of another type.
    strings = [*graph.source_files]
    optional = []
    for n in graph.nodes.values():
        strings += [n.id, n.label]
        optional += [n.function_id, n.source_kind, n.sink_kind]
    for e in graph.edges.values():
        strings += [e.id, e.src, e.dst, *e.guard_tags]
    for f in graph.functions.values():
        strings += [f.id, f.name, *f.parameters]
        optional.append(f.return_node)
    for c in graph.call_edges:
        strings += [c.caller, c.callee, c.call_site_node]
    for a in graph.anchors:
        strings += [a.file, a.node_id]
    assert all(type(v) is str for v in strings)
    assert all(v is None or type(v) is str for v in optional)
    assert {*strings, *optional} <= _strings_in(doc) | {"", None}


def _outcome(load):
    """What a load gives: the graph's tables in order, or the error's class
    and message."""
    try:
        graph = load()
    except (GraphParseError, GraphIntegrityError) as exc:
        return type(exc), str(exc)
    return (list(graph.nodes.items()), list(graph.edges.items()),
            list(graph.functions.items()), graph.call_edges, graph.source_files,
            graph.anchors)


@settings(max_examples=300, deadline=None)
@given(doc=_mutated_documents())
def test_file_load_equals_dict_load(tmp_path_factory, doc):
    # The loader builds nodes and edges while the file is decoded; what it
    # gives must not depend on that.
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    from_file = _outcome(lambda: load_program_graph(path))
    assert from_file == _outcome(lambda: graph_from_dict(copy.deepcopy(doc)))


_NODE_OBJECT = {"id": "x", "kind": "variable", "function_id": "f1", "label": "x"}
_EDGE_OBJECT = {"id": "ex", "from": "a", "to": "b", "kind": "assign"}


@pytest.mark.parametrize("misplace", [
    lambda doc: doc["nodes"].append(_EDGE_OBJECT),
    lambda doc: doc["functions"].append(_NODE_OBJECT),
    lambda doc: doc.update(functions=[{"id": "f1", "kind": "variable"}]),
    lambda doc: doc["nodes"][0].update(label=_NODE_OBJECT),
    lambda doc: doc["edges"].append(_NODE_OBJECT),
], ids=["edge-in-nodes", "node-in-functions", "function-with-a-kind", "node-as-label",
        "node-in-edges"])
def test_well_formed_element_in_the_wrong_place_loads_as_from_a_dict(tmp_path, misplace):
    # An object is built by the rules of the place it is in, whatever keys
    # it has: a file load, whole or sliced, gives what graph_from_dict
    # gives, and each is a parse error.
    doc = json.loads(json.dumps(MINIMAL))
    misplace(doc)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    want = _outcome(lambda: graph_from_dict(copy.deepcopy(doc)))
    assert want[0] is GraphParseError
    assert _outcome(lambda: load_program_graph(path)) == want
    assert _sliced_outcome(path, 64) == want


def test_load_peak_memory_is_close_to_what_it_keeps(tmp_path):
    # Nodes and edges are built a slice at a time, so the raw objects of the
    # whole document never exist at once: the peak is a few slices plus the
    # graph, not the decoded document plus the graph. What the load frees
    # again is bounded by the file's size, not by the graph's, so a smaller
    # graph does not tighten the bound. On Python 3.11 it is 0.28x the
    # file's size; decoding the whole document first takes 4.2x.
    path = tmp_path / "g.json"
    doc = graph_to_dict(random_graph(3, n_nodes=3000, n_edges=6000, n_sources=3,
                                     n_sinks=3, n_sanitizers=2))
    path.write_text(json.dumps(doc))
    del doc
    size = path.stat().st_size
    tracemalloc.start()
    try:
        graph = load_program_graph(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph.nodes) == 3000
    assert peak - kept <= 1.5 * size


def _sliced_outcome(path, size):
    """What a load of ``path`` gives with slices of ``size`` bytes."""
    with mock.patch.object(model, "_SLICE", size):
        return _outcome(lambda: load_program_graph(path))


def _no_whole_decode():
    """A context in which a load that decodes its file whole fails."""
    return mock.patch.object(model, "read_json", side_effect=AssertionError("decoded whole"))


# Slice sizes of a few hundred bytes or less, so that the small documents
# below are decoded in slices, and most arrays in more than one.
_SIZES = (64, 100, 173, 257, 300)


# Compact, default and indented text: objects meet at "},{", at "}, {" and
# at "}," and "{" on two lines.
_LAYOUTS = ({"separators": (",", ":")}, {}, {"indent": 4})


@settings(max_examples=150, deadline=None)
@given(doc=_mutated_documents(), layout=st.sampled_from(_LAYOUTS))
def test_sliced_load_equals_whole_load(tmp_path_factory, doc, layout):
    # Whatever the layout, the tables or error message are those of a
    # whole decode (the file is smaller than a default slice).
    path = tmp_path_factory.getbasetemp() / "sliced.json"
    path.write_text(json.dumps(doc, **layout))
    whole = _outcome(lambda: load_program_graph(path))
    for size in _SIZES[::2]:
        assert _sliced_outcome(path, size) == whole


def _labelled(labels: list[str]) -> dict:
    doc = copy.deepcopy(_FULL)
    for node, label in zip(doc["nodes"], labels):
        node["label"] = label
    return doc


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("size", _SIZES)
def test_sliced_load_reads_multibyte_text_across_slices(tmp_path, layout, size):
    # 1,800 bytes of two-, three- and four-byte characters in one label, so
    # reads of a few hundred bytes end inside a character. The sliced
    # decode needs no whole decode to read them.
    doc = _labelled(["p", "é€😀" * 200, "exec"])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc, ensure_ascii=False, **layout), encoding="utf-8")
    with _no_whole_decode():
        graph = _sliced_outcome(path, size)
    assert graph == _outcome(lambda: graph_from_dict(copy.deepcopy(doc)))


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("size", _SIZES)
def test_sliced_load_of_labels_that_look_like_cuts(tmp_path, layout, size):
    # A slice cut inside a string fails to decode, and its entries are
    # decoded one at a time: the file is not decoded whole.
    doc = _labelled(["a}, {b", "},{", "}\n  ,\t{"])
    doc["functions"][1]["name"] = "}, {"
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc, **layout))
    with _no_whole_decode():
        got = _sliced_outcome(path, size)
    assert got == _outcome(lambda: graph_from_dict(copy.deepcopy(doc)))
    assert graph_to_dict(load_program_graph(path)) == graph_to_dict(graph_from_dict(doc))


def _malformed_texts():
    text = json.dumps(_FULL, indent=4).encode()
    yield "bom", b"\xef\xbb\xbf" + text
    yield "bad-utf8", text[:700] + b"\xff" + text[700:]
    yield "cut-character", text + "€".encode()[:2]
    yield "extra-data", text + b" {}"
    yield "top-level-array", b"[" + text + b"]"
    yield "repeated-key", b'{"nodes": [],' + text[1:]
    yield "missing-comma", text.replace(b"},", b"}", 1)
    yield "trailing-comma", text.replace(b"}\n    ]", b"},\n    ]", 1)
    # An edge object, not a graph document.
    yield "edge-document", json.dumps({
        "id": "e", "from": "a", "to": "b", "kind": "assign",
        "guard_tags": [f"tag{i}" for i in range(40)],
    }).encode()
    for end in range(0, len(text), 29):
        yield f"truncated-{end}", text[:end]


_MALFORMED = dict(_malformed_texts())


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_sliced_load_of_malformed_text_is_a_whole_load(tmp_path, name):
    path = tmp_path / "g.json"
    path.write_bytes(_MALFORMED[name])
    whole = _outcome(lambda: load_program_graph(path))
    for size in (64, 300):
        assert _sliced_outcome(path, size) == whole


def test_sliced_load_peak_is_a_small_part_of_the_file(tmp_path, monkeypatch):
    # Decoded in slices, the load never holds the file's text: what it
    # frees again is a few slices of text, one slice's raw objects, the
    # lists of built nodes and edges and the id table. On Python 3.10-3.13
    # it is 0.28x the file's size with slices of 300 bytes to 64 KiB; with
    # slices of 1 MiB this file took 4.0x to 4.6x.
    monkeypatch.setattr(model, "_SLICE", 4096)
    path = tmp_path / "g.json"
    doc = graph_to_dict(random_graph(3, n_nodes=3000, n_edges=6000, n_sources=3,
                                     n_sinks=3, n_sanitizers=2))
    path.write_text(json.dumps(doc))
    del doc
    size = path.stat().st_size
    tracemalloc.start()
    try:
        graph = load_program_graph(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph.nodes) == 3000
    assert peak - kept <= 0.3 * size


@pytest.mark.parametrize("label_last", [False, True])
def test_sliced_load_of_cut_like_labels_at_the_default_slice(tmp_path, label_last):
    # Many default-sized slices end inside a label. With the label as each
    # node's last field nearly every cut in the nodes array lies inside one,
    # so a slice extended to later cuts would reach the end of the array.
    # Such a slice is decoded one entry at a time: the load decodes nothing
    # whole, and its peak stays within the bound of the test above.
    path = tmp_path / "g.json"
    doc = graph_to_dict(random_graph(3, n_nodes=3000, n_edges=6000, n_sources=3,
                                     n_sinks=3, n_sanitizers=2))
    for node in doc["nodes"]:
        label = node.pop("label") if label_last else node["label"]
        node["label"] = label + "}, {"
    path.write_text(json.dumps(doc))
    want = _outcome(lambda: graph_from_dict(doc))
    del doc
    size = path.stat().st_size
    assert size > model._SLICE
    with _no_whole_decode():
        tracemalloc.start()
        try:
            graph = load_program_graph(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak - kept <= 0.3 * size
    assert _outcome(lambda: graph) == want


def test_sliced_decode_work_is_linear_in_the_file(tmp_path):
    # One label of 100,000 cuts: a slice that fails to decode is decoded
    # again one entry at a time, so the text decoded stays a small multiple
    # of the file. Extending a slice one cut at a time would decode tens of
    # gigabytes; the count stops such a load at the bound.
    path = tmp_path / "g.json"
    doc = graph_to_dict(random_graph(3, n_nodes=800, n_edges=1600, n_sources=3,
                                     n_sinks=3, n_sanitizers=2))
    doc["nodes"][400]["label"] = "}, {" * 100_000
    path.write_text(json.dumps(doc))
    size = path.stat().st_size
    decoded = [0]
    raw_decode = json.JSONDecoder.raw_decode

    def counted(self, s, idx=0):
        # What a decode reads: up to the end of its value, or at most the
        # rest of the text when it fails.
        end = len(s)
        try:
            value, end = raw_decode(self, s, idx)
            return value, end
        finally:
            decoded[0] += end - idx
            assert decoded[0] <= 4 * size, "stopped"

    with _no_whole_decode(), mock.patch.object(json.JSONDecoder, "raw_decode", counted):
        try:
            graph = load_program_graph(path)
        finally:
            assert decoded[0] <= 4 * size, f"decoded {decoded[0] / size:.1f}x the file"
    assert graph.nodes[doc["nodes"][400]["id"]].label == "}, {" * 100_000
    assert _outcome(lambda: graph) == _outcome(lambda: graph_from_dict(doc))


# Every id is longer than one character: CPython keeps a single object for
# each one-character string, which would make the identities below hold
# without any sharing.
_REFERENCES = {
    "format_version": "1",
    "functions": [
        {"id": "fn_main", "name": "main", "parameters": ["n_param"], "return_node": "n_ret",
         "is_entry_point": True},
        {"id": "fn_help", "name": "helper", "parameters": ["n_arg"], "return_node": None},
    ],
    "nodes": [
        {"id": "n_param", "kind": "parameter", "function_id": "fn_main", "label": "main.p",
         "taint_role": "source", "source_kind": "http-param"},
        {"id": "n_site", "kind": "call-argument", "function_id": "fn_main", "label": "main.c"},
        {"id": "n_ret", "kind": "variable", "function_id": "fn_main", "label": "main.r"},
        {"id": "n_arg", "kind": "parameter", "function_id": "fn_help", "label": "helper.a"},
        {"id": "n_exec", "kind": "call-argument", "function_id": "fn_help", "label": "os.exec"},
        {"id": "n_free", "kind": "variable", "label": "free"},
    ],
    "edges": [
        {"id": "e_1", "from": "n_param", "to": "n_site", "kind": "call-pass"},
        {"id": "e_2", "from": "n_site", "to": "n_arg", "kind": "call-pass",
         "visible_to_forward": False},
        {"id": "e_3", "from": "n_arg", "to": "n_exec", "kind": "assign"},
        {"id": "e_4", "from": "n_param", "to": "n_ret", "kind": "assign"},
        {"id": "e_5", "from": "n_free", "to": "n_free", "kind": "assign"},
    ],
    "call_edges": [{"caller": "fn_main", "callee": "fn_help", "call_site_node": "n_site"}],
    "anchors": [
        {"file": "Main.java", "start_line": 3, "end_line": 4, "node_id": "n_exec"},
        {"file": "Main.java", "start_line": 1, "end_line": 9, "node_id": "n_param"},
    ],
}


def _assert_ids_shared(graph: ProgramGraph) -> None:
    """Every id reference of ``graph`` is the object held as that node's or
    function's id."""
    nodes, functions = graph.nodes, graph.functions
    for key, n in nodes.items():
        assert key is n.id
        assert n.function_id is None or n.function_id is functions[n.function_id].id
    for key, f in functions.items():
        assert key is f.id
        assert all(p is nodes[p].id for p in f.parameters)
        assert f.return_node is None or f.return_node is nodes[f.return_node].id
    for e in graph.edges.values():
        assert e.src is nodes[e.src].id and e.dst is nodes[e.dst].id
    for ce in graph.call_edges:
        assert ce.caller is functions[ce.caller].id
        assert ce.callee is functions[ce.callee].id
        assert ce.call_site_node is nodes[ce.call_site_node].id
    for a in graph.anchors:
        assert a.node_id is nodes[a.node_id].id


@pytest.mark.parametrize("references_first", [False, True])
@pytest.mark.parametrize("from_file", [False, True])
def test_each_id_is_one_string_object(tmp_path, from_file, references_first):
    doc = _REFERENCES
    if references_first:
        # Anchors, call edges and edges before the nodes and functions.
        doc = {key: doc[key] for key in reversed(doc)}
    text = json.dumps(doc)
    if from_file:
        path = tmp_path / "g.json"
        path.write_text(text)
        graph = load_program_graph(path)
    else:
        # Decoded without the loader, so that every string is its own object.
        graph = graph_from_dict(json.loads(text))
    assert len(graph.nodes) == 6 and len(graph.anchors) == 2
    _assert_ids_shared(graph)
    overlay = graph.with_sinks(json.loads('{"n_exec": "command-exec", "n_ret": "sql"}'))
    assert overlay.nodes["n_exec"].taint_role == TaintRole.SINK
    _assert_ids_shared(overlay)


def test_loads_in_threads_each_share_their_own_ids(tmp_path):
    # Each load has an id table of its own, so no load reads another's: if
    # two shared one, a graph would hold both loads' objects.
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_REFERENCES))
    want = graph_to_dict(graph_from_dict(copy.deepcopy(_REFERENCES)))
    failures = []

    def load_many():
        try:
            for _ in range(200):
                graph = load_program_graph(path)
                _assert_ids_shared(graph)
                assert graph_to_dict(graph) == want
        except AssertionError as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load_many) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
