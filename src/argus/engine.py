"""Forward taint search and SARIF import.

The built-in engine enumerates simple paths (no repeated node) from
source nodes to target sinks over visible edges, pruning at sanitizer
nodes. Output order is deterministic: flows sort lexicographically by
their edge-id tuple, capped per sink. The search is goal-directed: it
stops at the per-sink cap, and a breadth-first search back from the sink
first finds how far each node is from it and its next hop on a shortest
path there. The depth-first search then enters a node only if the sink
can still be reached from it within the bound without reusing a node of
the prefix (Read and Tarjan's backtracking, as refined by Birmelé et
al.), so every node it enters leads to a flow: it enters at most bound
nodes per flow it yields, and the flows come with polynomial delay.

External analyzers integrate through SARIF 2.1.0 code flows; thread-flow
locations are resolved to content nodes via the graph's anchor table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional

from argus.errors import SarifError, UnknownSinkError, read_json
from argus.model import (
    DEFAULT_MAX_FLOW_LENGTH,
    AccessPathEdge,
    DataFlow,
    FlowOrigin,
    FlowTriple,
    ProgramGraph,
    TaintRole,
    validate_flow,
)

DEFAULT_MAX_FLOWS_PER_SINK = 32


@dataclass(frozen=True)
class FlowQuery:
    sinks: tuple[str, ...]
    max_length: int = DEFAULT_MAX_FLOW_LENGTH
    max_flows_per_sink: int = DEFAULT_MAX_FLOWS_PER_SINK

    def __post_init__(self):
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.max_flows_per_sink < 1:
            raise ValueError("max_flows_per_sink must be >= 1")


def forward_search(graph: ProgramGraph, query: FlowQuery) -> list[DataFlow]:
    """Enumerate taint flows from source nodes to each queried sink.

    Raises :class:`UnknownSinkError` for sink ids absent from the graph.
    Flows never pass through sanitizer nodes, use only forward-visible
    edges, and have fewer than ``max_length`` triples. Each distinct sink
    gets the first ``max_flows_per_sink`` flows in edge-id tuple order.
    """
    for sink in query.sinks:
        if sink not in graph.nodes:
            raise UnknownSinkError(sink)
    sources = [n.id for n in graph.nodes_by_role(TaintRole.SOURCE)]
    limit = query.max_length - 1
    cap = query.max_flows_per_sink
    out: list[DataFlow] = []
    for sink in sorted(set(query.sinks)):
        dist, hop = _distances_to(graph, sink, limit)
        # Out-edges are sorted by id and a sink always ends its path, so no
        # flow's edge-id tuple is a prefix of another's: depth-first order
        # over id-ordered edges is the sorted order, and the first flows
        # found are the ones to keep. Each start edge has its own source.
        starts = sorted(
            (e for s in sources if s != sink for e in graph.outgoing(s)),
            key=lambda e: e.id,
        )
        paths: list[tuple[FlowTriple, ...]] = []
        triples: dict[str, FlowTriple] = {}  # edge id -> its step, shared by the flows
        for edge in starts:
            paths += islice(_extend_paths(graph, edge, sink, limit, dist, hop, triples),
                            cap - len(paths))
            if len(paths) >= cap:
                break
        for p in paths:
            out.append(DataFlow(triples=p, origin=FlowOrigin.FORWARD,
                                max_length_bound=query.max_length))
    return out


def _distances_to(
    graph: ProgramGraph, sink: str, limit: int
) -> tuple[dict[str, int], dict[str, str]]:
    """Fewest edges from each node to ``sink`` over the edges forward search
    may take, for nodes within ``limit`` edges of it, and each such node's
    next hop on a shortest path there.

    A breadth-first search over visible incoming edges. Sanitizers get no
    distance: forward search never enters one, so no flow passes through it.
    """
    dist = {sink: 0}
    hop: dict[str, str] = {}
    frontier = [sink]
    for depth in range(1, limit + 1):
        reached = []
        for node in frontier:
            for edge in graph.incoming(node):
                if not edge.visible_to_forward:
                    continue
                prev = edge.src
                if prev in dist or graph.nodes[prev].taint_role == TaintRole.SANITIZER:
                    continue
                dist[prev] = depth
                hop[prev] = node
                reached.append(prev)
        if not reached:
            break
        frontier = reached
    return dist, hop


def _reaches(
    graph: ProgramGraph,
    node: str,
    sink: str,
    budget: int,
    dist: dict[str, int],
    hop: dict[str, str],
    visited: set[str],
) -> bool:
    """Whether a path of at most ``budget`` edges leads from ``node``, which
    is outside ``visited`` and within ``budget`` of the sink, to ``sink``
    through no node of ``visited`` and no sanitizer.

    A breadth-first search from ``node`` that stays among the nodes with a
    distance, avoids ``visited`` and drops a node from which the sink is
    out of reach within the budget. It stops at the first node whose walk
    along next hops meets no node of ``visited``: that walk ends a path to
    the sink that fits the budget (a path with a repeated node has a
    shorter one through a subset of its nodes), and it is usually the
    node itself."""
    if _clear(node, sink, hop, visited):
        return True
    seen = {node}
    frontier = [node]
    for depth in range(1, budget + 1):
        reached = []
        for cur in frontier:
            for edge in graph.outgoing(cur):
                if not edge.visible_to_forward:
                    continue
                nxt = edge.dst
                if nxt in seen or nxt in visited:
                    continue
                d = dist.get(nxt)
                if d is None or depth + d > budget:
                    continue
                if _clear(nxt, sink, hop, visited):
                    return True
                seen.add(nxt)
                reached.append(nxt)
        if not reached:
            break
        frontier = reached
    return False


def _clear(node: str, sink: str, hop: dict[str, str], visited: set[str]) -> bool:
    """Whether the walk along next hops from ``node`` to ``sink``, a shortest
    path, meets no node of ``visited``."""
    while node != sink:
        node = hop[node]
        if node in visited:
            return False
    return True


def _extend_paths(
    graph: ProgramGraph,
    start: AccessPathEdge,
    sink: str,
    limit: int,
    dist: dict[str, int],
    hop: dict[str, str],
    triples: dict[str, FlowTriple],
) -> Iterator[tuple[FlowTriple, ...]]:
    """The flows of at most ``limit`` edges that begin with ``start``, in
    depth-first order over id-ordered edges, sharing one step per edge in ``triples``.

    The search keeps its own stack of out-edge iterators, one per node on
    the prefix, so a long flow needs no Python recursion. A node is entered
    only if :func:`_reaches` finds a way from it to the sink that fits the
    bound and avoids the prefix, so every node entered yields a flow: the
    search enters at most ``limit`` nodes per flow and the delay between
    two flows is polynomial in the graph's size. The check is exact, so
    the flows and their order are those of a search that enters every node
    it may."""
    if limit < 1:
        return
    prefix: list[FlowTriple] = []
    visited = {start.src}
    stack = [iter((start,))]
    while stack:
        for edge in stack[-1]:
            if not edge.visible_to_forward:
                continue
            nxt = edge.dst
            if nxt in visited:
                continue
            if nxt != sink:
                budget = limit - len(prefix) - 1
                if (nxt not in dist or dist[nxt] > budget
                        or not _reaches(graph, nxt, sink, budget, dist, hop, visited)):
                    continue
            triple = triples.get(edge.id)
            if triple is None:
                triple = triples[edge.id] = FlowTriple(edge.src, edge, nxt)
            if nxt == sink:
                yield (*prefix, triple)
                continue
            visited.add(nxt)
            prefix.append(triple)
            stack.append(iter(graph.outgoing(nxt)))
            break
        else:
            stack.pop()
            if prefix:
                visited.remove(prefix.pop().to_node)


# ---------------------------------------------------------------------------
# SARIF import


@dataclass
class SarifImportResult:
    flows: list[DataFlow] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


def import_sarif(
    path: str,
    graph: ProgramGraph,
    *,
    max_length: int = DEFAULT_MAX_FLOW_LENGTH,
) -> SarifImportResult:
    """Map SARIF thread flows onto graph nodes via the anchor table.

    Each location must resolve through a (file, line-range) anchor and
    consecutive nodes must be joined by a graph edge; otherwise the whole
    flow is skipped with a diagnostic, never emitted partially.
    """
    doc = read_json(path, SarifError, f"{path}: cannot parse SARIF")
    if not isinstance(doc, dict):
        raise SarifError(f"{path}: SARIF document must be a JSON object")
    version = doc.get("version")
    if version != "2.1.0":
        raise SarifError(f"{path}: unsupported SARIF version {version!r}")

    result = SarifImportResult()
    for run in _objects(doc, "runs", path):
        for res in _objects(run, "results", path):
            for code_flow in _objects(res, "codeFlows", path):
                for thread_flow in _objects(code_flow, "threadFlows", path):
                    locations = _objects(thread_flow, "locations", path)
                    _import_thread_flow(locations, graph, max_length, result)
    return result


def _objects(parent: dict, key: str, path: str) -> list[dict]:
    """``parent[key]``, an array of objects; an absent key is an empty one."""
    items = parent.get(key, [])
    if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
        raise SarifError(f"{path}: {key} must be an array of objects")
    return items


def _member(obj, key: str):
    """``obj[key]`` when ``obj`` is an object holding ``key``, else None."""
    return obj.get(key) if isinstance(obj, dict) else None


def _resolve_anchor(graph: ProgramGraph, uri: str, line: int) -> Optional[str]:
    """The node of the narrowest anchor in ``uri`` whose lines hold ``line``,
    and of equally narrow ones the smallest node id, so that nested ranges
    (a call argument inside its statement) resolve the same in any order."""
    best = min(
        ((a.end_line - a.start_line, a.node_id) for a in graph.anchors
         if a.file == uri and a.start_line <= line <= a.end_line),
        default=None,
    )
    return None if best is None else best[1]


def _import_thread_flow(
    locations: list[dict],
    graph: ProgramGraph,
    max_length: int,
    result: SarifImportResult,
) -> None:
    node_ids: list[str] = []
    for loc in locations:
        phys = _member(_member(loc, "location"), "physicalLocation")
        uri = _member(_member(phys, "artifactLocation"), "uri")
        line = _member(_member(phys, "region"), "startLine")
        if uri is None or line is None:
            result.skipped.append("thread flow skipped: location lacks uri/startLine")
            return
        # Only a JSON integer is a line: not a bool, a float or a digit string.
        if not isinstance(line, int) or isinstance(line, bool):
            result.skipped.append(
                f"thread flow skipped: startLine {line!r} is not an integer"
            )
            return
        node_id = _resolve_anchor(graph, uri, line)
        if node_id is None:
            result.skipped.append(
                f"thread flow skipped: no anchor for {uri}:{line}"
            )
            return
        node_ids.append(node_id)
    if len(node_ids) < 2:
        if node_ids:
            result.skipped.append("thread flow skipped: fewer than two resolvable steps")
        return
    triples: list[FlowTriple] = []
    for a, b in zip(node_ids, node_ids[1:]):
        edges = [e for e in graph.outgoing(a) if e.dst == b]
        if not edges:
            result.skipped.append(
                f"thread flow skipped: no edge between {a!r} and {b!r}"
            )
            return
        triples.append(FlowTriple(a, edges[0], b))
    flow = DataFlow(triples=tuple(triples), origin=FlowOrigin.FORWARD,
                    max_length_bound=max_length)
    verdict = validate_flow(flow, graph)
    if not verdict.ok:
        result.skipped.append(
            "thread flow skipped: imported flow fails validation: "
            + "; ".join(verdict.violations)
        )
        return
    result.flows.append(flow)
