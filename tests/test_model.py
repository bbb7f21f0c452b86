import gc
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

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
from argus.poc import MatchConfidence, _match_label
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


def test_unknown_field_strict_vs_lenient():
    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"][0]["mystery"] = 1
    with pytest.raises(GraphParseError):
        graph_from_dict(doc, strict=True)
    warnings = []
    graph_from_dict(doc, strict=False, warnings=warnings)
    assert any("mystery" in w for w in warnings)


def test_no_functions_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["functions"] = []
    doc["nodes"] = []
    doc["edges"] = []
    with pytest.raises(GraphIntegrityError):
        graph_from_dict(doc)


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
        return MatchConfidence.EXACT, tuple(exact)
    dotted = "." + name
    return MatchConfidence.FUZZY, tuple(
        sorted(n.id for n in graph.nodes.values() if n.label.endswith(dotted))
    )


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
    overlay = graph.with_sinks(
        {"a": "command-exec", "src": "x", "san": "x", "old": "x", "ghost": "x"}
    )

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
    assert overlay.label_index() is graph.label_index()

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
