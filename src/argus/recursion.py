"""Backward caller-tree expansion, surrogate promotion, and stitching.

When forward search cannot reach a sink (propagation hidden behind
reflection, threading, or aliasing), a caller tree is grown from the
sink's owning function over reversed call edges. Its leaves become
surrogate targets for a fresh forward search; flows reaching a surrogate
are then stitched back down the tree path onto the original sink. Gaps
without a real connecting edge get a synthesized ``bridged`` pseudo-edge,
flagged so review can never auto-confirm them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from argus.errors import SurrogateMismatchError, UnknownSinkError
from argus.model import (
    AccessPathEdge,
    DataFlow,
    EdgeKind,
    FlowOrigin,
    FlowTriple,
    ProgramGraph,
    TaintRole,
)

DEFAULT_MAX_DEPTH = 10


@dataclass(frozen=True)
class TreeNode:
    function_id: str
    call_site_node: str
    depth: int
    parent: Optional[int]  # index into BackwardTree.nodes


@dataclass
class BackwardTree:
    sink: str
    nodes: list[TreeNode] = field(default_factory=list)
    leaf_indices: list[int] = field(default_factory=list)

    def path_to_root(self, leaf_index: int) -> list[TreeNode]:
        """Tree nodes from the given leaf down to the root (inclusive)."""
        path = []
        idx: Optional[int] = leaf_index
        while idx is not None:
            node = self.nodes[idx]
            path.append(node)
            idx = node.parent
        return path


def backward_expand(graph: ProgramGraph, sink: str, max_depth: int = DEFAULT_MAX_DEPTH) -> BackwardTree:
    """Grow the caller tree rooted at the sink's owning function.

    Breadth-first over reversed call edges (:meth:`ProgramGraph.callers`,
    built once per graph); each function is visited once per root so
    caller cycles terminate. Leaves are functions with no
    unvisited callers or at the depth bound, in deterministic order.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    sink_node = graph.nodes.get(sink)
    if sink_node is None:
        raise UnknownSinkError(sink)
    if sink_node.function_id is None:
        raise UnknownSinkError(sink)

    tree = BackwardTree(sink=sink)
    tree.nodes.append(TreeNode(sink_node.function_id, sink, 0, None))
    visited = {sink_node.function_id}
    children_count = [0]
    queue = deque([0])
    while queue:
        idx = queue.popleft()
        node = tree.nodes[idx]
        if node.depth >= max_depth:
            continue
        for caller_fn, site in graph.callers(node.function_id):
            if caller_fn in visited:
                continue
            visited.add(caller_fn)
            child = TreeNode(caller_fn, site, node.depth + 1, idx)
            tree.nodes.append(child)
            children_count.append(0)
            children_count[idx] += 1
            queue.append(len(tree.nodes) - 1)
    tree.leaf_indices = [i for i, c in enumerate(children_count) if c == 0]
    tree.leaf_indices.sort(key=lambda i: tree.nodes[i].function_id)
    return tree


def promote_surrogates(tree: BackwardTree) -> tuple[str, ...]:
    """The leaves' call-site node ids, in leaf order: taint must enter the
    chain through that argument. A depth-0 tree promotes the original sink.
    """
    return tuple(tree.nodes[idx].call_site_node for idx in tree.leaf_indices)


@dataclass
class StitchResult:
    flows: list[DataFlow] = field(default_factory=list)
    dropped: list[str] = field(default_factory=list)


def _reachable_ignoring_visibility(graph: ProgramGraph, start: str, goal: str,
                                   limit: int = 10_000) -> Optional[bool]:
    """BFS over all edges (hidden included), never entering a sanitizer
    node, as forward search does. ``None`` when ``limit`` node expansions
    end the search undecided.
    """
    if start == goal:
        return True
    seen = {start}
    queue = deque([start])
    expansions = 0
    while queue:
        if expansions >= limit:
            return None
        expansions += 1
        for edge in graph.outgoing(queue.popleft()):
            if edge.dst == goal:
                return True
            if edge.dst not in seen:
                seen.add(edge.dst)
                if graph.nodes[edge.dst].taint_role != TaintRole.SANITIZER:
                    queue.append(edge.dst)
    return False


def stitch(
    forward_flows: list[DataFlow],
    tree: BackwardTree,
    graph: ProgramGraph,
) -> StitchResult:
    """Connect flows ending at a surrogate back down the tree to the root.

    For each consecutive call-site pair on the leaf-to-root path a real
    edge is reused when one exists; otherwise a ``bridged`` pseudo-edge is
    synthesized, provided the gap corresponds to actual (visibility
    ignored, sanitizers never entered) graph connectivity. Candidates
    whose gap has no such connectivity, or cannot be decided within the
    expansion cap, or whose combined length breaks the bound, are dropped
    with a diagnostic.
    """
    leaf_by_site: dict[str, int] = {}
    for idx in tree.leaf_indices:
        leaf_by_site.setdefault(tree.nodes[idx].call_site_node, idx)

    result = StitchResult()
    for flow in forward_flows:
        leaf_idx = leaf_by_site.get(flow.sink)
        if leaf_idx is None:
            raise SurrogateMismatchError(
                f"forward flow ends at {flow.sink!r}, which is not a leaf "
                f"surrogate of the tree rooted at {tree.sink!r}"
            )
        chain = [n.call_site_node for n in tree.path_to_root(leaf_idx)]
        bridging: list[FlowTriple] = []
        ok = True
        for a, b in zip(chain, chain[1:]):
            if a == b:
                continue
            real = [e for e in graph.outgoing(a) if e.dst == b]
            if real:
                bridging.append(FlowTriple(a, real[0], b))
                continue
            reachable = _reachable_ignoring_visibility(graph, a, b)
            if not reachable:
                reason = (
                    f"no connectivity between {a!r} and {b!r} even ignoring visibility"
                    if reachable is False else
                    f"connectivity between {a!r} and {b!r} undecided after the expansion cap"
                )
                result.dropped.append(f"stitch dropped for flow {flow.edge_ids}: {reason}")
                ok = False
                break
            pseudo = AccessPathEdge(
                id=f"bridge::{a}->{b}",
                src=a,
                dst=b,
                kind=EdgeKind.CALL_PASS,
                visible_to_forward=False,
                bridged=True,
            )
            bridging.append(FlowTriple(a, pseudo, b))
        if not ok:
            continue
        combined_triples = flow.triples + tuple(bridging)
        if len(combined_triples) >= flow.max_length_bound:
            result.dropped.append(
                f"stitch dropped for flow {flow.edge_ids}: combined length "
                f"{len(combined_triples)} breaks bound {flow.max_length_bound}"
            )
            continue
        if len(chain) == 1:
            # Leaf is the root itself: identity stitch.
            result.flows.append(flow)
        else:
            result.flows.append(DataFlow(
                triples=combined_triples,
                origin=FlowOrigin.STITCHED,
                max_length_bound=flow.max_length_bound,
            ))
    return result
