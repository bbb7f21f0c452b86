import functools

import pytest

from argus import recursion
from argus.engine import FlowQuery, forward_search
from argus.errors import SurrogateMismatchError, UnknownSinkError
from argus.model import (
    DEFAULT_MAX_FLOW_LENGTH,
    CallEdge,
    ContentNode,
    FlowOrigin,
    NodeKind,
    ProgramGraph,
    TaintRole,
    load_program_graph,
    validate_flow,
)
from argus.pipeline import PipelineConfig, recover_flows
from argus.recursion import (
    _reachable_ignoring_visibility,
    backward_expand,
    promote_surrogates,
    stitch,
)
from argus.synthetic import hidden_chain_graph
from tests.conftest import fixture_path
from tests.oracles import brute_force_all


@pytest.fixture
def case2_graph():
    return load_program_graph(fixture_path("publiccms_mini", "graph.json"))


def leaves(tree):
    return [tree.nodes[i] for i in tree.leaf_indices]


def test_depth0_tree_is_identity(case2_graph):
    # sink inside an entry-point function with no callers
    g = hidden_chain_graph(0, depth=0).graph
    sink = "f0_nsink"
    tree = backward_expand(g, sink)
    assert len(tree.nodes) == 1
    assert tree.leaf_indices == [0]
    assert promote_surrogates(tree) == (sink,)


def test_case2_tree_reaches_entry_function(case2_graph):
    tree = backward_expand(case2_graph, "n_newinst")
    leaf_fns = {leaf.function_id for leaf in leaves(tree)}
    assert "fx" in leaf_fns
    assert "n_xarg" in promote_surrogates(tree)


def test_unknown_sink_raises(case2_graph):
    with pytest.raises(UnknownSinkError):
        backward_expand(case2_graph, "nope")


def test_sink_of_no_function_has_no_tree_and_no_recovery(case2_graph):
    sink = ContentNode("orphan", NodeKind.VARIABLE, "orphan", None, TaintRole.SINK,
                       sink_kind="sql")
    g = ProgramGraph([*case2_graph.nodes.values(), sink], case2_graph.edges.values(),
                     case2_graph.functions.values(), case2_graph.call_edges)
    with pytest.raises(UnknownSinkError):
        backward_expand(g, "orphan")
    result = recover_flows(g, "orphan", PipelineConfig(graph_path=""))
    assert result.flows == []
    assert result.dropped == [
        "sink 'orphan' belongs to no function; backward recovery skipped"
    ]


def test_mutual_recursion_terminates():
    fix = hidden_chain_graph(3, depth=2)
    g = fix.graph
    # add a back edge making f0 and f1 mutually recursive
    call_edges = list(g.call_edges) + [
        CallEdge(caller="f1", callee="f0", call_site_node="f1_nsite"),
    ]
    from argus.model import ProgramGraph

    g2 = ProgramGraph(list(g.nodes.values()), list(g.edges.values()),
                      list(g.functions.values()), call_edges)
    tree = backward_expand(g2, fix.sink_id)
    fns = [n.function_id for n in tree.nodes]
    assert len(fns) == len(set(fns))  # each function visited once


def test_depth_bound_truncates():
    fix = hidden_chain_graph(5, depth=4)
    tree = backward_expand(fix.graph, fix.sink_id, max_depth=2)
    assert max(n.depth for n in tree.nodes) == 2
    # the depth-2 frontier is a leaf even though callers exist beyond it
    assert any(n.depth == 2 for n in leaves(tree))


def test_promotion_order_is_deterministic():
    fix = hidden_chain_graph(1, depth=1)
    g = fix.graph
    # add two extra sibling callers of f1 in reverse name order
    from argus.model import (
        AccessPathEdge,
        ContentNode,
        EdgeKind,
        FunctionDecl,
        NodeKind,
        ProgramGraph,
    )

    nodes = list(g.nodes.values())
    edges = list(g.edges.values())
    functions = list(g.functions.values())
    call_edges = list(g.call_edges)
    for name in ("zeta", "alpha"):
        fid = f"f_{name}"
        site = f"{fid}_site"
        nodes.append(ContentNode(id=site, kind=NodeKind.CALL_ARGUMENT,
                                 label=f"{fid}.call", function_id=fid))
        functions.append(FunctionDecl(id=fid, name=f"pkg.{name}"))
        call_edges.append(CallEdge(caller=fid, callee="f1", call_site_node=site))
    g2 = ProgramGraph(nodes, edges, functions, call_edges)
    tree = backward_expand(g2, fix.sink_id)
    leaf_fns = [leaf.function_id for leaf in leaves(tree)]
    assert leaf_fns == sorted(leaf_fns)
    assert promote_surrogates(tree) == tuple(leaf.call_site_node for leaf in leaves(tree))


# --- stitching ---------------------------------------------------------------


def surrogate_flows(graph, tree):
    query = FlowQuery(sinks=promote_surrogates(tree), max_flows_per_sink=1000)
    return forward_search(graph, query)


def test_identity_stitch_preserves_flow():
    g = hidden_chain_graph(0, depth=0).graph
    tree = backward_expand(g, "f0_nsink")
    flows = surrogate_flows(g, tree)
    assert flows
    result = stitch(flows, tree, g)
    assert not result.dropped
    assert len(result.flows) == len(flows)
    for stitched, flow in zip(result.flows, flows):
        assert stitched is flow
        assert stitched.origin == FlowOrigin.FORWARD
        assert not stitched.has_bridged_edge


def test_hidden_chain_recovery():
    fix = hidden_chain_graph(11, depth=2)
    g = fix.graph
    # forward search alone finds nothing
    assert forward_search(g, FlowQuery(sinks=(fix.sink_id,))) == []
    tree = backward_expand(g, fix.sink_id)
    flows = surrogate_flows(g, tree)
    assert flows
    result = stitch(flows, tree, g)
    assert len(result.flows) >= 1
    assert not result.dropped
    for flow in result.flows:
        assert flow.origin == FlowOrigin.STITCHED
        assert flow.sink == fix.sink_id
        assert validate_flow(flow, g, allow_bridged=True).ok


def test_stitch_matches_visibility_off_oracle():
    # every stitched connection corresponds to connectivity that a
    # visibility-ignoring forward search can also find
    for seed in range(5):
        fix = hidden_chain_graph(seed, depth=2)
        g = fix.graph
        off = brute_force_all(g, (fix.sink_id,), DEFAULT_MAX_FLOW_LENGTH,
                              respect_visibility=False)[fix.sink_id]
        tree = backward_expand(g, fix.sink_id)
        result = stitch(surrogate_flows(g, tree), tree, g)
        assert (len(off) > 0) == (len(result.flows) > 0)


def test_no_ground_truth_means_no_stitches():
    for seed in range(10):
        fix = hidden_chain_graph(seed, depth=2, plant_ground_truth=False)
        g = fix.graph
        tree = backward_expand(g, fix.sink_id)
        flows = surrogate_flows(g, tree)
        result = stitch(flows, tree, g)
        assert result.flows == []


def test_foreign_flow_raises_mismatch(case2_graph):
    tree = backward_expand(case2_graph, "n_newinst")
    flows = forward_search(case2_graph, FlowQuery(sinks=("n_wb",)))
    assert flows
    with pytest.raises(SurrogateMismatchError):
        stitch(flows, tree, case2_graph)


def test_case2_stitch_produces_bridged_flow(case2_graph):
    tree = backward_expand(case2_graph, "n_newinst")
    flows = forward_search(case2_graph, FlowQuery(sinks=("n_xarg",)))
    result = stitch(flows, tree, case2_graph)
    assert len(result.flows) == 1
    combined = result.flows[0]
    assert combined.has_bridged_edge
    assert combined.sink == "n_newinst"
    assert combined.triples[:-1] == flows[0].triples
    assert combined.triples[-1].edge.id == "bridge::n_xarg->n_newinst"


def test_stitch_over_the_length_bound_is_dropped_with_a_reason(case2_graph):
    tree = backward_expand(case2_graph, "n_newinst")
    flows = forward_search(case2_graph, FlowQuery(sinks=("n_xarg",), max_length=3))
    assert [flow.edge_ids for flow in flows] == [("e1", "e2")]
    result = stitch(flows, tree, case2_graph)
    assert result.flows == []
    assert result.dropped == [
        "stitch dropped for flow ('e1', 'e2'): combined length 3 breaks bound 3"
    ]


def test_two_forward_flows_share_backward_part():
    fix = hidden_chain_graph(2, depth=1, intra_hops=1)
    g = fix.graph
    # add a parallel route inside f0 to its call site
    from argus.model import AccessPathEdge, EdgeKind, ProgramGraph

    edges = list(g.edges.values())
    edges.append(AccessPathEdge(id="alt", src=fix.source_id, dst="f0_nsite",
                                kind=EdgeKind.CALL_PASS))
    g2 = ProgramGraph(list(g.nodes.values()), edges,
                      list(g.functions.values()), list(g.call_edges))
    tree = backward_expand(g2, fix.sink_id)
    flows = surrogate_flows(g2, tree)
    result = stitch(flows, tree, g2)
    assert len(result.flows) == 2
    # Both get the same bridge down the tree after their own forward part.
    suffixes = {
        stitched.triples[len(flow.triples):]
        for stitched, flow in zip(result.flows, flows)
    }
    assert len(suffixes) == 1


# --- soundness of bridges ----------------------------------------------------


def sanitized_boundary_graph():
    """src -> site0 (visible) -> san (sanitizer, hidden) -> sink (hidden),
    with f0 calling f1 at site0."""
    from argus.model import (
        AccessPathEdge,
        ContentNode,
        EdgeKind,
        FunctionDecl,
        NodeKind,
        ProgramGraph,
        TaintRole,
    )

    nodes = [
        ContentNode("src", NodeKind.PARAMETER, "f0.input", "f0", TaintRole.SOURCE),
        ContentNode("site0", NodeKind.CALL_ARGUMENT, "f0.call", "f0"),
        ContentNode("san", NodeKind.VARIABLE, "f1.clean", "f1", TaintRole.SANITIZER),
        ContentNode("sink", NodeKind.CALL_ARGUMENT, "f1.exec", "f1", TaintRole.SINK,
                    sink_kind="command-exec"),
    ]
    edges = [
        AccessPathEdge("e1", "src", "site0", EdgeKind.ASSIGN),
        AccessPathEdge("e2", "site0", "san", EdgeKind.CALL_PASS, visible_to_forward=False),
        AccessPathEdge("e3", "san", "sink", EdgeKind.ASSIGN, visible_to_forward=False),
    ]
    functions = [FunctionDecl("f0", "pkg.f0", is_entry_point=True), FunctionDecl("f1", "pkg.f1")]
    return ProgramGraph(nodes, edges, functions, [CallEdge("f0", "f1", "site0")])


def test_no_bridge_through_a_sanitizer():
    g = sanitized_boundary_graph()
    off = brute_force_all(g, ("sink",), DEFAULT_MAX_FLOW_LENGTH, respect_visibility=False)
    assert off == {"sink": set()}
    result = recover_flows(g, "sink", PipelineConfig(graph_path=""))
    assert result.flows == []
    assert len(result.dropped) == 1
    assert "no connectivity between 'site0' and 'sink'" in result.dropped[0]


def test_stitch_reuses_a_real_edge_between_call_sites():
    # src -> site0 (visible) -> sink (hidden), with f0 calling f1 at site0:
    # the gap from site0 to the sink is a real edge, so no bridge is made.
    from argus.model import AccessPathEdge, EdgeKind, FunctionDecl

    nodes = [
        ContentNode("src", NodeKind.PARAMETER, "f0.input", "f0", TaintRole.SOURCE),
        ContentNode("site0", NodeKind.CALL_ARGUMENT, "f0.call", "f0"),
        ContentNode("sink", NodeKind.CALL_ARGUMENT, "f1.exec", "f1", TaintRole.SINK,
                    sink_kind="command-exec"),
    ]
    edges = [
        AccessPathEdge("e1", "src", "site0", EdgeKind.ASSIGN),
        AccessPathEdge("e2", "site0", "sink", EdgeKind.CALL_PASS, visible_to_forward=False),
    ]
    functions = [FunctionDecl("f0", "pkg.f0", is_entry_point=True), FunctionDecl("f1", "pkg.f1")]
    g = ProgramGraph(nodes, edges, functions, [CallEdge("f0", "f1", "site0")])
    assert forward_search(g, FlowQuery(sinks=("sink",))) == []
    result = recover_flows(g, "sink", PipelineConfig(graph_path=""))
    assert result.dropped == []
    [flow] = result.flows
    assert flow.edge_ids == ("e1", "e2")
    assert flow.origin == FlowOrigin.STITCHED
    assert not flow.has_bridged_edge
    assert validate_flow(flow, g).ok


def test_expansion_cap_drops_as_undecided(monkeypatch):
    fix = hidden_chain_graph(3, depth=1)
    g = fix.graph
    assert _reachable_ignoring_visibility(g, "f0_nsite", fix.sink_id) is True
    assert _reachable_ignoring_visibility(g, "f0_nsite", fix.sink_id, limit=1) is None
    monkeypatch.setattr(recursion, "_reachable_ignoring_visibility",
                        functools.partial(_reachable_ignoring_visibility, limit=1))
    result = recover_flows(g, fix.sink_id, PipelineConfig(graph_path=""))
    assert result.flows == []
    assert result.dropped
    for msg in result.dropped:
        assert "connectivity between 'f0_nsite' and 'f1_nsink' undecided " \
               "after the expansion cap" in msg


def test_backward_expand_reads_the_call_edges_once_per_graph():
    fix = hidden_chain_graph(2, depth=3)
    g = fix.graph
    reads = []

    class Counted(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    g.call_edges = Counted(g.call_edges)
    first = backward_expand(g, fix.sink_id)
    second = backward_expand(g, fix.sink_id)
    assert len(reads) == 1
    assert first.nodes == second.nodes and len(first.nodes) > 1
    assert first.leaf_indices == second.leaf_indices
    # An overlay builds its own index from the same call edges.
    overlay = g.with_sinks({})
    assert overlay._callers is None
    assert backward_expand(overlay, fix.sink_id).nodes == first.nodes
    assert len(reads) == 2
