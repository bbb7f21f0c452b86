"""Synthetic program-graph builders.

Stands in for a language frontend: produces random graphs for
oracle-equivalence testing and parametric hidden-chain graphs where the
only source-to-sink connection crosses call boundaries over edges that
forward search cannot see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from argus.model import (
    AccessPathEdge,
    CallEdge,
    ContentNode,
    EdgeKind,
    FunctionDecl,
    NodeKind,
    ProgramGraph,
    TaintRole,
)


def random_graph(
    seed: int,
    *,
    n_nodes: int = 30,
    n_edges: int = 60,
    n_sources: int = 2,
    n_sinks: int = 2,
    n_sanitizers: int = 1,
    hidden_edge_fraction: float = 0.0,
) -> ProgramGraph:
    """A single-function random graph with roles assigned to distinct nodes."""
    rng = random.Random(seed)
    node_ids = [f"n{i:03d}" for i in range(n_nodes)]
    roles: dict[str, TaintRole] = {nid: TaintRole.NONE for nid in node_ids}
    special = rng.sample(node_ids, min(n_sources + n_sinks + n_sanitizers, n_nodes))
    for nid in special[:n_sources]:
        roles[nid] = TaintRole.SOURCE
    for nid in special[n_sources:n_sources + n_sinks]:
        roles[nid] = TaintRole.SINK
    for nid in special[n_sources + n_sinks:]:
        roles[nid] = TaintRole.SANITIZER

    nodes = [
        ContentNode(
            id=nid,
            kind=NodeKind.VARIABLE,
            label=f"var.{nid}",
            function_id="f0",
            taint_role=roles[nid],
            sink_kind="command-exec" if roles[nid] == TaintRole.SINK else None,
            source_kind="http-param" if roles[nid] == TaintRole.SOURCE else None,
        )
        for nid in node_ids
    ]
    edges = []
    seen_pairs: set[tuple[str, str]] = set()
    attempts = 0
    while len(edges) < n_edges and attempts < n_edges * 20:
        attempts += 1
        a, b = rng.sample(node_ids, 2)
        # allow multi-edges occasionally, mostly unique pairs
        if (a, b) in seen_pairs and rng.random() < 0.8:
            continue
        seen_pairs.add((a, b))
        edges.append(AccessPathEdge(
            id=f"e{len(edges):03d}",
            src=a,
            dst=b,
            kind=EdgeKind.ASSIGN,
            visible_to_forward=rng.random() >= hidden_edge_fraction,
        ))
    functions = [FunctionDecl(id="f0", name="f0", is_entry_point=True)]
    return ProgramGraph(nodes, edges, functions)


@dataclass
class HiddenChainFixture:
    graph: ProgramGraph
    source_id: str
    sink_id: str


def hidden_chain_graph(
    seed: int,
    *,
    depth: int = 2,
    intra_hops: int = 2,
    plant_ground_truth: bool = True,
    decoy_nodes: int = 4,
) -> HiddenChainFixture:
    """A caller chain f0 -> f1 -> ... -> f{depth} with the sink at the end.

    Within each function taint moves over visible edges from the entry
    node to the call-argument node for the next call; the hop into the
    next function's parameter is a hidden edge. With
    ``plant_ground_truth`` false the first hidden boundary edge is
    omitted, so no source-to-sink flow exists even ignoring visibility.
    """
    rng = random.Random(seed)
    nodes: list[ContentNode] = []
    edges: list[AccessPathEdge] = []
    functions: list[FunctionDecl] = []
    call_edges: list[CallEdge] = []

    def nid(f: int, i) -> str:
        return f"f{f}_n{i}"

    entry_nodes: dict[int, str] = {}
    site_nodes: dict[int, str] = {}
    e = 0

    for f in range(depth + 1):
        fid = f"f{f}"
        last_in_chain = f == depth
        entry = nid(f, "entry")
        entry_nodes[f] = entry
        if f == 0:
            nodes.append(ContentNode(
                id=entry, kind=NodeKind.PARAMETER, label=f"{fid}.input",
                function_id=fid, taint_role=TaintRole.SOURCE, source_kind="http-param",
            ))
        else:
            nodes.append(ContentNode(
                id=entry, kind=NodeKind.PARAMETER, label=f"{fid}.arg",
                function_id=fid,
            ))
        functions.append(FunctionDecl(id=fid, name=f"pkg.mod.{fid}",
                                      parameters=(entry,), is_entry_point=(f == 0)))
        prev = entry
        for hop in range(intra_hops):
            mid = nid(f, f"v{hop}")
            nodes.append(ContentNode(id=mid, kind=NodeKind.VARIABLE,
                                     label=f"{fid}.v{hop}", function_id=fid))
            edges.append(AccessPathEdge(id=f"e{e:03d}", src=prev, dst=mid,
                                        kind=EdgeKind.ASSIGN))
            e += 1
            prev = mid
        if last_in_chain:
            sink = nid(f, "sink")
            nodes.append(ContentNode(
                id=sink, kind=NodeKind.CALL_ARGUMENT, label=f"danger.exec.{fid}",
                function_id=fid, taint_role=TaintRole.SINK, sink_kind="command-exec",
            ))
            edges.append(AccessPathEdge(id=f"e{e:03d}", src=prev, dst=sink,
                                        kind=EdgeKind.CALL_PASS))
            e += 1
        else:
            site = nid(f, "site")
            site_nodes[f] = site
            nodes.append(ContentNode(id=site, kind=NodeKind.CALL_ARGUMENT,
                                     label=f"{fid}.call_next", function_id=fid))
            edges.append(AccessPathEdge(id=f"e{e:03d}", src=prev, dst=site,
                                        kind=EdgeKind.CALL_PASS))
            e += 1

    for f in range(depth):
        call_edges.append(CallEdge(caller=f"f{f}", callee=f"f{f+1}",
                                   call_site_node=site_nodes[f]))
        omit = (not plant_ground_truth) and f == 0
        if not omit:
            edges.append(AccessPathEdge(
                id=f"e{e:03d}", src=site_nodes[f], dst=entry_nodes[f + 1],
                kind=EdgeKind.CALL_PASS, visible_to_forward=False,
            ))
            e += 1

    # decoy nodes loosely attached to random spots, never creating new
    # source-to-sink connectivity (edges point away from the chain only)
    chain_ids = [n.id for n in nodes]
    for d in range(decoy_nodes):
        did = f"decoy_{d}"
        nodes.append(ContentNode(id=did, kind=NodeKind.VARIABLE,
                                 label=f"noise.{did}", function_id="f0"))
        src = rng.choice(chain_ids)
        edges.append(AccessPathEdge(id=f"e{e:03d}", src=src, dst=did,
                                    kind=EdgeKind.ASSIGN))
        e += 1

    graph = ProgramGraph(nodes, edges, functions, call_edges)
    return HiddenChainFixture(
        graph=graph,
        source_id=entry_nodes[0],
        sink_id=nid(depth, "sink"),
    )
