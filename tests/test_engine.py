from dataclasses import replace

import pytest

from argus.engine import (
    DEFAULT_MAX_FLOWS_PER_SINK,
    FlowQuery,
    forward_search,
)
from argus.errors import UnknownSinkError
from argus.model import (
    DEFAULT_MAX_FLOW_LENGTH,
    AccessPathEdge,
    ContentNode,
    EdgeKind,
    FunctionDecl,
    NodeKind,
    ProgramGraph,
    TaintRole,
    validate_flow,
)
from tests.oracles import brute_force_all


def linear_graph(sanitize_middle=False):
    middle_role = TaintRole.SANITIZER if sanitize_middle else TaintRole.NONE
    nodes = [
        ContentNode("src", NodeKind.PARAMETER, "req.param", "f1",
                    TaintRole.SOURCE, "http-param"),
        ContentNode("mid", NodeKind.VARIABLE, "formatted", "f1", middle_role),
        ContentNode("snk", NodeKind.CALL_ARGUMENT, "runtime.exec", "f1",
                    TaintRole.SINK, sink_kind="command-exec"),
    ]
    edges = [
        AccessPathEdge("e1", "src", "mid", EdgeKind.ASSIGN),
        AccessPathEdge("e2", "mid", "snk", EdgeKind.CALL_PASS),
    ]
    return ProgramGraph(nodes, edges, [FunctionDecl("f1", "handler")])


def test_linear_topology_single_flow():
    g = linear_graph()
    flows = forward_search(g, FlowQuery(sinks=("snk",)))
    assert len(flows) == 1
    assert flows[0].edge_ids == ("e1", "e2")
    assert flows[0].source == "src"
    assert flows[0].sink == "snk"


def test_chain_longer_than_the_recursion_limit():
    # 1,499 edges in a row: the search keeps its own stack, so a flow far
    # longer than Python's recursion limit is found whole.
    n = 1500
    nodes = [ContentNode(f"n{i}", NodeKind.VARIABLE, f"v{i}", "f1") for i in range(n)]
    nodes[0] = replace(nodes[0], taint_role=TaintRole.SOURCE, source_kind="http-param")
    nodes[-1] = replace(nodes[-1], taint_role=TaintRole.SINK, sink_kind="command-exec")
    edges = [AccessPathEdge(f"e{i:04d}", f"n{i}", f"n{i + 1}", EdgeKind.ASSIGN)
             for i in range(n - 1)]
    g = ProgramGraph(nodes, edges, [FunctionDecl("f1", "main")])
    flows = forward_search(g, FlowQuery(sinks=(f"n{n - 1}",), max_length=3000))
    assert len(flows) == 1
    assert flows[0].edge_ids == tuple(e.id for e in edges)
    assert len(flows[0].triples) == 1499
    assert validate_flow(flows[0], g).ok
    assert forward_search(g, FlowQuery(sinks=(f"n{n - 1}",), max_length=1499)) == []


def test_bound_of_one_admits_no_flow():
    # A flow has fewer triples than its bound, so even a source wired
    # straight to the sink has no flow at max_length=1.
    g = ProgramGraph(
        [ContentNode("src", NodeKind.PARAMETER, "p", "f1", TaintRole.SOURCE, "http-param"),
         ContentNode("snk", NodeKind.CALL_ARGUMENT, "exec", "f1", TaintRole.SINK,
                     sink_kind="command-exec")],
        [AccessPathEdge("e1", "src", "snk", EdgeKind.CALL_PASS)],
        [FunctionDecl("f1", "main")],
    )
    assert forward_search(g, FlowQuery(sinks=("snk",), max_length=1)) == []
    assert [f.edge_ids for f in forward_search(g, FlowQuery(sinks=("snk",), max_length=2))] == [
        ("e1",)]


def test_sanitizer_interposed_blocks_flow():
    g = linear_graph(sanitize_middle=True)
    assert forward_search(g, FlowQuery(sinks=("snk",))) == []


def test_unknown_sink_raises():
    g = linear_graph()
    with pytest.raises(UnknownSinkError) as exc:
        forward_search(g, FlowQuery(sinks=("nope",)))
    assert exc.value.sink_id == "nope"


def test_flows_validate():
    g = linear_graph()
    for flow in forward_search(g, FlowQuery(sinks=("snk",))):
        assert validate_flow(flow, g).ok


# --- randomized oracle equivalence -------------------------------------------


def search_sets(graph, sinks, max_length):
    query = FlowQuery(sinks=tuple(sinks), max_length=max_length,
                      max_flows_per_sink=10_000)
    flows = forward_search(graph, query)
    by_sink = {s: set() for s in sinks}
    for f in flows:
        by_sink[f.sink].add(f.edge_ids)
    return by_sink


def sink_ids(graph):
    return sorted(n.id for n in graph.nodes_by_role(TaintRole.SINK))


def test_random_graphs_match_brute_force():
    """Each sink's flows are the first ``cap`` of the oracle's sorted set.

    Besides the graph's sinks, one source and one sanitizer are queried as
    sinks: forward search starts at every source but the sink, and a
    sanitizer sink is entered although sanitizers are not.
    """
    from argus.synthetic import random_graph

    cases = [(seed, dict(n_nodes=12, n_edges=24), (8,)) for seed in range(40)]
    cases += [(seed, dict(n_nodes=14, n_edges=34, n_sinks=3, hidden_edge_fraction=0.3),
               (3, 5, 8)) for seed in range(12)]
    for seed, shape, bounds in cases:
        graph = random_graph(seed, **shape)
        sinks = sink_ids(graph) + [
            min(n.id for n in graph.nodes_by_role(role))
            for role in (TaintRole.SOURCE, TaintRole.SANITIZER)
        ]
        for bound in bounds:
            want = brute_force_all(graph, sinks, bound)
            for cap in (1, 3, 32, 10_000):
                query = FlowQuery(sinks=tuple(sinks), max_length=bound,
                                  max_flows_per_sink=cap)
                got = {s: [] for s in sinks}
                for f in forward_search(graph, query):
                    got[f.sink].append(f.edge_ids)
                for s in sinks:
                    assert got[s] == sorted(want[s])[:cap], (seed, bound, cap, s)


def test_visibility_off_is_superset():
    """Hidden edges only ever cut flows: every flow forward search finds is
    also found by the oracle when it ignores visibility."""
    from argus.synthetic import random_graph

    for seed in range(20):
        graph = random_graph(seed, n_nodes=12, n_edges=30, hidden_edge_fraction=0.3)
        sinks = sink_ids(graph)
        on = search_sets(graph, sinks, 8)
        off = brute_force_all(graph, sinks, 8, respect_visibility=False)
        for s in sinks:
            assert on[s] <= off[s]


def test_max_length_monotone():
    from argus.synthetic import random_graph

    for seed in range(10):
        graph = random_graph(seed, n_nodes=10, n_edges=20)
        sinks = sink_ids(graph)
        prev = None
        for n in (2, 4, 6, 8):
            cur = search_sets(graph, sinks, n)
            if prev is not None:
                for s in sinks:
                    assert prev[s] <= cur[s]
            prev = cur


def test_deterministic_ordering():
    from argus.synthetic import random_graph

    graph = random_graph(7, n_nodes=14, n_edges=30)
    sinks = sink_ids(graph)
    q = FlowQuery(sinks=tuple(sinks), max_length=8)
    a = [f.edge_ids for f in forward_search(graph, q)]
    b = [f.edge_ids for f in forward_search(graph, q)]
    assert a == b
    # sorted lexicographically per sink
    per_sink = {}
    for f in forward_search(graph, q):
        per_sink.setdefault(f.sink, []).append(f.edge_ids)
    for ids in per_sink.values():
        assert ids == sorted(ids)


def test_cap_limits_per_sink():
    # diamond fan-out: many parallel 2-hop paths
    nodes = [ContentNode("s", NodeKind.VARIABLE, "s", "f1", TaintRole.SOURCE, "x")]
    edges = []
    for i in range(8):
        nodes.append(ContentNode(f"m{i}", NodeKind.VARIABLE, f"m{i}", "f1"))
        edges.append(AccessPathEdge(f"a{i}", "s", f"m{i}", EdgeKind.ASSIGN))
        edges.append(AccessPathEdge(f"b{i}", f"m{i}", "t", EdgeKind.ASSIGN))
    nodes.append(ContentNode("t", NodeKind.VARIABLE, "t", "f1", TaintRole.SINK,
                             sink_kind="command-exec"))
    g = ProgramGraph(nodes, edges, [FunctionDecl("f1", "f1")])
    capped = forward_search(g, FlowQuery(sinks=("t",), max_flows_per_sink=3))
    assert len(capped) == 3
    full = forward_search(g, FlowQuery(sinks=("t",)))
    assert len(full) == 8
    assert [f.edge_ids for f in capped] == [f.edge_ids for f in full][:3]


def test_query_rejects_bad_bounds():
    with pytest.raises(ValueError):
        FlowQuery(sinks=("x",), max_length=0)
    with pytest.raises(ValueError):
        FlowQuery(sinks=("x",), max_flows_per_sink=0)


def test_default_bound_stops_at_the_cap(monkeypatch):
    from argus.synthetic import random_graph

    graph = random_graph(1, n_nodes=60, n_edges=150, n_sources=2, n_sinks=3,
                         n_sanitizers=2)
    expansions = 0
    outgoing = ProgramGraph.outgoing

    def counting(self, node_id):
        nonlocal expansions
        expansions += 1
        return outgoing(self, node_id)

    monkeypatch.setattr(ProgramGraph, "outgoing", counting)
    sinks = sink_ids(graph)
    flows = forward_search(graph, FlowQuery(sinks=tuple(sinks)))
    for s in sinks:
        ids = [f.edge_ids for f in flows if f.sink == s]
        assert len(ids) == DEFAULT_MAX_FLOWS_PER_SINK
        assert ids == sorted(ids)
    assert all(validate_flow(f, graph).ok for f in flows)
    # Listing every simple path at this bound does not finish in minutes.
    assert expansions <= 50_000


def test_duplicate_sinks_report_each_flow_once():
    g = ProgramGraph(
        [
            ContentNode("s", NodeKind.VARIABLE, "s", "f1", TaintRole.SOURCE, "x"),
            ContentNode("m", NodeKind.VARIABLE, "m", "f1"),
            ContentNode("t", NodeKind.VARIABLE, "t", "f1", TaintRole.SINK,
                        sink_kind="command-exec"),
        ],
        [
            AccessPathEdge("a", "s", "t", EdgeKind.ASSIGN),
            AccessPathEdge("b", "s", "m", EdgeKind.ASSIGN),
            AccessPathEdge("c", "m", "t", EdgeKind.ASSIGN),
        ],
        [FunctionDecl("f1", "f1")],
    )
    flows = forward_search(g, FlowQuery(sinks=("t", "t")))
    assert [f.edge_ids for f in flows] == [("a",), ("b", "c")]


def dense_graph():
    from argus.synthetic import random_graph

    return random_graph(2, n_nodes=160, n_edges=480, n_sources=4, n_sinks=4,
                        n_sanitizers=2, hidden_edge_fraction=0.2)


def test_dense_graph_at_the_default_bound_enters_only_nodes_that_lead_to_a_flow(
        monkeypatch):
    """A node is entered only when the sink can still be reached from it, so
    the search enters at most ``bound`` nodes per flow it yields. A search
    that enters nodes with no way left to the sink is not done here in 25 s."""
    import argus.engine

    graph = dense_graph()
    most = 96 * DEFAULT_MAX_FLOW_LENGTH
    entered = 0
    reaches = argus.engine._reaches

    def counting(*args):
        nonlocal entered
        found = reaches(*args)
        entered += found
        # Fail at once past the bound, rather than search on.
        assert entered <= most
        return found

    monkeypatch.setattr(argus.engine, "_reaches", counting)
    flows = forward_search(graph, FlowQuery(sinks=tuple(sink_ids(graph))))
    assert len(flows) == 96
    assert 0 < entered <= len(flows) * DEFAULT_MAX_FLOW_LENGTH
    assert all(validate_flow(f, graph).ok for f in flows)


@pytest.mark.parametrize("bound, digest", [
    (16, "2d31725f2e6529e81f0d9d797a615234abb47742cae7b93f54aa73de38d01cc2"),
    (40, "18b727d2c6e1768221d5a19b7804e7fbb431459c924ba391f5a3994f2b6c72fa"),
])
def test_dense_graph_flows_are_those_of_the_unchecked_search(bound, digest):
    """The flows, in order, that the search gave before it checked that an
    entered node still reaches the sink: the check only skips dead ends."""
    import hashlib

    graph = dense_graph()
    flows = forward_search(graph, FlowQuery(sinks=tuple(sink_ids(graph)), max_length=bound))
    assert len(flows) == 96
    edge_ids = repr([f.edge_ids for f in flows]).encode()
    assert hashlib.sha256(edge_ids).hexdigest() == digest


def test_flows_to_one_sink_share_each_step():
    """Within one search of one sink, every flow that takes an edge holds the
    same :class:`FlowTriple` for it, and the flows and their order are still
    the oracle's."""
    from argus.synthetic import random_graph

    reused = 0
    for seed in range(10):
        graph = random_graph(seed, n_nodes=14, n_edges=34)
        for sink in sink_ids(graph):
            query = FlowQuery(sinks=(sink,), max_length=8, max_flows_per_sink=10_000)
            flows = forward_search(graph, query)
            assert [f.edge_ids for f in flows] == sorted(brute_force_all(graph, [sink], 8)[sink])
            steps = {}
            for flow in flows:
                for triple in flow.triples:
                    assert steps.setdefault(triple.edge.id, triple) is triple, (seed, sink)
            # Every use of an edge after its first held the first one's step.
            reused += sum(len(f.triples) for f in flows) - len(steps)
    assert reused > 100
