import dataclasses
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from argus.agent import Role, ScriptedStubBackend
from argus.engine import FlowQuery, forward_search
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
    load_program_graph,
)
from argus.pipeline import write_report_json
from argus.recursion import backward_expand, stitch
from argus.review import (
    FinalStatus,
    HopAssessment,
    Neutralization,
    ReviewMode,
    review_flow,
)
from argus.synthetic import random_graph
from tests.conftest import fixture_path


def build(guard_tags=(), bridged=False):
    nodes = [
        ContentNode("s", NodeKind.PARAMETER, "req.input", "f1",
                    TaintRole.SOURCE, "http-param"),
        ContentNode("m", NodeKind.VARIABLE, "tmp", "f1"),
        ContentNode("t", NodeKind.CALL_ARGUMENT, "runtime.exec", "f1",
                    TaintRole.SINK, sink_kind="command-exec"),
    ]
    e1 = AccessPathEdge("e1", "s", "m", EdgeKind.ASSIGN,
                        guard_tags=tuple(guard_tags))
    e2 = AccessPathEdge("e2", "m", "t", EdgeKind.CALL_PASS,
                        visible_to_forward=not bridged, bridged=bridged)
    graph_edges = [e1] + ([] if bridged else [e2])
    graph = ProgramGraph(nodes, graph_edges or [e1], [FunctionDecl("f1", "f1")])
    flow = DataFlow(triples=(FlowTriple("s", e1, "m"), FlowTriple("m", e2, "t")))
    return graph, flow


def test_clean_flow_confirmed():
    graph, flow = build()
    verdict = review_flow(flow, graph)
    assert verdict.reachable
    assert verdict.interrupting_constructs == []
    assert all(h.neutralization == Neutralization.NONE for h in verdict.hops)
    assert verdict.final_status == FinalStatus.CONFIRMED


def test_validated_tag_refutes():
    graph, flow = build(guard_tags=("validated",))
    verdict = review_flow(flow, graph)
    assert not verdict.reachable
    assert any("validation" in c for c in verdict.interrupting_constructs)
    assert verdict.final_status == FinalStatus.REFUTED


def test_sanitized_tag_refutes_via_neutralization():
    graph, flow = build(guard_tags=("sanitized",))
    verdict = review_flow(flow, graph)
    assert verdict.reachable  # "sanitized" is not an interrupting tag
    assert verdict.hops[0].neutralization == Neutralization.SANITIZATION
    assert verdict.final_status == FinalStatus.REFUTED


def test_encoded_tag_downgrades_to_needs_human():
    graph, flow = build(guard_tags=("encoded",))
    verdict = review_flow(flow, graph)
    assert verdict.hops[0].neutralization == Neutralization.ENCODING
    assert verdict.final_status == FinalStatus.NEEDS_HUMAN


def test_caught_tag_flagged_but_not_fatal():
    graph, flow = build(guard_tags=("caught",))
    verdict = review_flow(flow, graph)
    assert verdict.reachable
    assert any("exception handler" in c for c in verdict.interrupting_constructs)


def test_bridged_flow_never_auto_confirms():
    graph, flow = build(bridged=True)
    verdict = review_flow(flow, graph)
    assert verdict.reachable
    assert verdict.final_status == FinalStatus.NEEDS_HUMAN


def test_sanitizer_adjacent_node_neutralizes():
    nodes = [
        ContentNode("s", NodeKind.VARIABLE, "s", "f1", TaintRole.SOURCE, "x"),
        ContentNode("san", NodeKind.VARIABLE, "clean", "f1", TaintRole.SANITIZER),
        ContentNode("t", NodeKind.VARIABLE, "t", "f1", TaintRole.SINK,
                    sink_kind="command-exec"),
    ]
    e1 = AccessPathEdge("e1", "s", "san", EdgeKind.ASSIGN)
    e2 = AccessPathEdge("e2", "san", "t", EdgeKind.ASSIGN)
    graph = ProgramGraph(nodes, [e1, e2], [FunctionDecl("f1", "f1")])
    flow = DataFlow(triples=(FlowTriple("s", e1, "san"), FlowTriple("san", e2, "t")))
    hops = review_flow(flow, graph).hops
    assert hops[0].neutralization == Neutralization.SANITIZATION
    assert "sanitizer" in hops[0].justification


def test_hop_assessment_invariant():
    with pytest.raises(ValueError):
        HopAssessment("e", "c", Neutralization.VALIDATION, justification="")


def test_hop_descriptions_mention_bridged_gap():
    graph, flow = build(bridged=True)
    hops = review_flow(flow, graph).hops
    assert "bridged gap" in hops[1].entry_description


# --- llm mode ----------------------------------------------------------------


def llm_rows(n, neutralization="none", justification=""):
    return [{
        "position": i,
        "entry_description": f"hop {i}",
        "content_and_path": "a -> b",
        "neutralization": neutralization if i == 1 else "none",
        "justification": justification if i == 1 else "",
    } for i in range(1, n + 1)]


def final_block(rows):
    return "```final\n" + json.dumps(rows) + "\n```"


def llm_payload(n, neutralization="none", justification=""):
    return final_block(llm_rows(n, neutralization, justification))


def test_llm_mode_uses_backend_assessments():
    graph, flow = build()
    backend = ScriptedStubBackend([
        llm_payload(2, "encoding", "output encoded before use"),
    ])
    verdict = review_flow(flow, graph, backend=backend)
    assert not verdict.fell_back_to_rule
    assert verdict.hops[0].neutralization == Neutralization.ENCODING
    assert verdict.final_status == FinalStatus.NEEDS_HUMAN
    assert verdict.transcript is not None


def test_llm_schema_failure_falls_back_to_rule():
    graph, flow = build()
    backend = ScriptedStubBackend(["```final\nnot a json array\n```"])
    verdict = review_flow(flow, graph, backend=backend)
    assert verdict.fell_back_to_rule
    assert verdict.final_status == FinalStatus.CONFIRMED  # rule mode sees clean flow


def test_llm_deeply_nested_answer_falls_back_to_rule():
    graph, flow = build()
    backend = ScriptedStubBackend(["```final\n" + "[" * 100_000 + "\n```"])
    verdict = review_flow(flow, graph, backend=backend)
    assert verdict.fell_back_to_rule
    assert verdict.hops == review_flow(flow, graph).hops
    assert verdict.final_status == FinalStatus.CONFIRMED


def test_llm_wrong_hop_count_falls_back():
    graph, flow = build()
    backend = ScriptedStubBackend([llm_payload(1)])
    verdict = review_flow(flow, graph, backend=backend)
    assert verdict.fell_back_to_rule


@pytest.mark.parametrize("field, value", [
    ("position", True),
    ("position", 1.0),
    ("neutralization", []),
    ("entry_description", [1]),
    ("content_and_path", 5),
    ("justification", None),
    ("justification", ""),  # a neutralization needs one
], ids=["position-bool", "position-float", "neutralization-list", "entry-list",
        "content-int", "justification-null", "justification-empty"])
def test_llm_mistyped_field_falls_back(field, value):
    graph, flow = build()
    rows = llm_rows(2, "sanitization", "escaped before use")
    rows[0][field] = value
    verdict = review_flow(flow, graph, backend=ScriptedStubBackend([final_block(rows)]))
    assert verdict.fell_back_to_rule
    assert verdict.hops == review_flow(flow, graph).hops
    assert verdict.final_status == FinalStatus.CONFIRMED


def test_llm_hop_that_is_not_an_object_falls_back():
    graph, flow = build()
    rows = [llm_rows(2)[0], "hop 2"]
    verdict = review_flow(flow, graph, backend=ScriptedStubBackend([final_block(rows)]))
    assert verdict.fell_back_to_rule
    assert verdict.hops == review_flow(flow, graph).hops


def test_llm_absent_text_fields_are_empty():
    graph, flow = build()
    rows = llm_rows(2)
    for field in ("entry_description", "content_and_path", "justification"):
        del rows[1][field]
    verdict = review_flow(flow, graph, backend=ScriptedStubBackend([final_block(rows)]))
    assert not verdict.fell_back_to_rule
    assert verdict.hops[1] == HopAssessment("", "")


def test_an_answer_repeating_a_hop_holds_one_hop_object_at_two_positions():
    graph, flow = build()
    row = {"entry_description": "taint enters", "content_and_path": "a -> b",
           "neutralization": "none", "justification": ""}
    answer = final_block([{"position": i, **row} for i in (1, 2)])
    verdict = review_flow(flow, graph, backend=ScriptedStubBackend([answer]))
    assert not verdict.fell_back_to_rule
    assert verdict.hops[0] is verdict.hops[1]
    doc = verdict.to_dict({})
    assert doc["hops"] == [{"position": i, **row} for i in (1, 2)]
    text = io.StringIO()
    write_report_json(doc, text)
    assert text.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_llm_missing_backend_is_rule_mode():
    graph, flow = build()
    verdict = review_flow(flow, graph, backend=None)
    assert not verdict.fell_back_to_rule
    assert verdict.transcript is None


def test_verdict_serializes():
    graph, flow = build(guard_tags=("encoded",))
    doc = review_flow(flow, graph).to_dict()
    assert doc["final_status"] == "needs-human"
    assert doc["hops"][0]["neutralization"] == "encoding"
    json.dumps(doc)  # must be JSON-serializable


def review_cases():
    """(graph, flows) pairs: ten random graphs whose edges draw their guard
    tags, and the publiccms_mini flow stitched over a ``bridge::`` edge."""
    tag_sets = [(), (), ("validated",), ("sanitized",), ("encoded",), ("caught",), ("cast",)]
    for seed in range(10):
        rng = random.Random(seed)
        base = random_graph(seed, n_nodes=12, n_edges=30)
        edges = [dataclasses.replace(e, guard_tags=frozenset(rng.choice(tag_sets)))
                 for e in base.edges.values()]
        graph = ProgramGraph(base.nodes.values(), edges, base.functions.values())
        sinks = tuple(n.id for n in graph.nodes_by_role(TaintRole.SINK))
        yield graph, forward_search(graph, FlowQuery(sinks, max_length=6, max_flows_per_sink=8))
    graph = load_program_graph(fixture_path("publiccms_mini", "graph.json"))
    tree = backward_expand(graph, "n_newinst")
    flows = forward_search(graph, FlowQuery(sinks=("n_xarg",)))
    yield graph, flows + stitch(flows, tree, graph).flows


def user_turns(verdict):
    return [t.content for t in verdict.transcript.turns if t.role == Role.USER]


def test_llm_fallback_is_the_rule_review():
    """An answer that fails the schema leaves the rule review as it is, only
    marked as an LLM review that fell back to it. Reviewing a graph's flows
    a second time through one shared table gives the same reviews."""
    statuses = set()
    bridged = 0
    for graph, flows in review_cases():
        unshared = []
        for flow in flows:
            rule = review_flow(flow, graph)
            llm = review_flow(flow, graph, backend=ScriptedStubBackend(["```final\n[]\n```"]))
            assert llm.reachable == rule.reachable
            assert llm.interrupting_constructs == rule.interrupting_constructs
            assert llm.hops == rule.hops
            assert llm.final_status == rule.final_status
            assert llm.mode == ReviewMode.LLM
            assert llm.fell_back_to_rule
            assert llm.transcript is not None
            statuses.add(rule.final_status)
            bridged += flow.triples[-1].edge.id.startswith("bridge::")
            unshared.append((rule, llm))
        shared = {}
        for flow, (rule, llm) in zip(flows, unshared):
            again = review_flow(flow, graph, shared=shared)
            llm_again = review_flow(flow, graph, shared=shared,
                                    backend=ScriptedStubBackend(["```final\n[]\n```"]))
            for first, second in ((rule, again), (llm, llm_again)):
                assert second.to_dict() == first.to_dict()
                assert second.interrupting_constructs == first.interrupting_constructs
                assert second.final_status == first.final_status
            assert user_turns(llm_again) == user_turns(llm)
    assert statuses == set(FinalStatus)
    assert bridged == 1


def test_flows_sharing_a_step_share_its_hop_assessment():
    nodes = [
        ContentNode("s", NodeKind.PARAMETER, "req.input", "f1", TaintRole.SOURCE, "x"),
        ContentNode("m", NodeKind.VARIABLE, "tmp", "f1"),
        ContentNode("t", NodeKind.CALL_ARGUMENT, "exec", "f1", TaintRole.SINK,
                    sink_kind="command-exec"),
        ContentNode("u", NodeKind.CALL_ARGUMENT, "eval", "f1", TaintRole.SINK,
                    sink_kind="code-eval"),
    ]
    e1 = AccessPathEdge("e1", "s", "m", EdgeKind.ASSIGN, guard_tags=("encoded",))
    e2 = AccessPathEdge("e2", "m", "t", EdgeKind.CALL_PASS)
    e3 = AccessPathEdge("e3", "m", "u", EdgeKind.CALL_PASS)
    graph = ProgramGraph(nodes, [e1, e2, e3], [FunctionDecl("f1", "f1")])
    to_t = DataFlow(triples=(FlowTriple("s", e1, "m"), FlowTriple("m", e2, "t")))
    to_u = DataFlow(triples=(FlowTriple("s", e1, "m"), FlowTriple("m", e3, "u")))
    shared = {}
    first = review_flow(to_t, graph, shared=shared)
    second = review_flow(to_u, graph, shared=shared,
                         backend=ScriptedStubBackend(["```final\n[]\n```"]))
    assert second.hops[0] is first.hops[0]
    assert second.hops[1] is not first.hops[1]
    assert review_flow(to_u, graph).hops[0] is not first.hops[0]


GUARD_TAGS = ("validated", "guarded", "caught", "sanitized", "encoded", "cast", "logged")


@st.composite
def tagged_flows(draw):
    """A chain flow of one to five steps whose edges draw guard tags and a
    bridged flag, and whose nodes may be sanitizers, with its graph."""
    n = draw(st.integers(min_value=1, max_value=5))
    roles = draw(st.lists(st.sampled_from((TaintRole.NONE, TaintRole.SANITIZER)),
                          min_size=n + 1, max_size=n + 1))
    nodes = [ContentNode(f"v{i}", NodeKind.VARIABLE, f"x{i}", "f1", role)
             for i, role in enumerate(roles)]
    edges = [AccessPathEdge(f"e{i}", f"v{i}", f"v{i + 1}", EdgeKind.ASSIGN,
                            guard_tags=frozenset(draw(st.sets(st.sampled_from(GUARD_TAGS),
                                                              max_size=3))),
                            bridged=draw(st.booleans()))
             for i in range(n)]
    graph = ProgramGraph(nodes, edges, [FunctionDecl("f1", "f1")])
    return graph, DataFlow(triples=tuple(FlowTriple(e.src, e, e.dst) for e in edges))


def hop_rule(verdict, flow):
    """The verdict the fatality policy gives for the verdict's own hops."""
    fatal = {Neutralization.VALIDATION, Neutralization.SANITIZATION}
    if not verdict.reachable or any(h.neutralization in fatal for h in verdict.hops):
        return FinalStatus.REFUTED
    if not flow.has_bridged_edge and all(
            h.neutralization == Neutralization.NONE for h in verdict.hops):
        return FinalStatus.CONFIRMED
    return FinalStatus.NEEDS_HUMAN


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=tagged_flows())
def test_verdicts_follow_the_hop_rule(case):
    """A rule or fallback verdict is the one the policy gives for its hops;
    so is an LLM verdict whose answer restates those hops."""
    graph, flow = case
    rule = review_flow(flow, graph)
    tags = [t for e in flow.triples for t in e.edge.guard_tags]
    assert rule.reachable == ("validated" not in tags and "guarded" not in tags)
    assert rule.final_status == hop_rule(rule, flow)
    fallback = review_flow(flow, graph, shared={},
                           backend=ScriptedStubBackend(["```final\n[]\n```"]))
    assert fallback.fell_back_to_rule
    assert fallback.final_status == rule.final_status
    restated = final_block(rule.to_dict()["hops"])
    llm = review_flow(flow, graph, backend=ScriptedStubBackend([restated]))
    assert not llm.fell_back_to_rule
    assert llm.hops == rule.hops
    assert llm.final_status == rule.final_status


def test_equal_llm_hops_give_equal_documents():
    """LLM hops equal by value but parsed through two review tables are
    distinct objects, each with a dict of its own in a shared report table,
    and the documents are equal. Through one review table they are one
    object with one dict, as rule hops are."""
    graph, flow = build(guard_tags=("encoded",))
    answer = llm_payload(2, "encoding", "output encoded before use")
    first, second = (review_flow(flow, graph, backend=ScriptedStubBackend([answer]))
                     for _ in range(2))
    assert first.hops == second.hops
    assert first.hops[0] is not second.hops[0]
    shared = {}
    one, two = first.to_dict(shared), second.to_dict(shared)
    assert one["hops"][0] is not two["hops"][0]
    assert one == two == first.to_dict()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    for backend in (lambda: ScriptedStubBackend([answer]), lambda: None):
        steps, shared = {}, {}
        one, two = (review_flow(flow, graph, shared=steps, backend=backend()).to_dict(shared)
                    for _ in range(2))
        assert one["hops"][0] is two["hops"][0]
        assert one == two
