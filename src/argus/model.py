"""Program-graph data model and the data-flow type.

The graph is a language-neutral description of a codebase: content nodes
(variables, parameters, fields, collection slots, call arguments/returns),
access-path edges recording how content propagates between them, function
declarations, and call edges. A data flow is an ordered list of
(from_node, edge, to_node) triples whose consecutive endpoints chain
together; the flow length is strictly bounded by the configured maximum.

Graphs are immutable after load. The incoming-edge, callers and label
indexes are built on first use; an overlay from
:meth:`ProgramGraph.with_sinks` starts with none of them and builds its
own, so a parent's indexes die with it. The element classes are frozen,
slotted dataclasses; the loader builds nodes and edges without their
``__init__`` but runs the same checks, so they are equal to, hash like and
are as immutable as those built through it.

:func:`load_program_graph` returns the graph :func:`graph_from_dict` gives
for the file's decoded document, and raises what it raises:
:class:`GraphParseError` for a file that cannot be read or decoded and for
a malformed document, an unknown field among them, and
:class:`GraphIntegrityError`, naming the offending id, for a dangling or
duplicate reference. A file larger than one slice (64 KiB) is decoded a
slice at a time and its nodes and edges are built as their slices are
decoded, so a load's peak memory is the graph plus a few slices of text.
Only a malformed file, or one with an entry that does not build, is
decoded whole, so that its error is :func:`graph_from_dict`'s. A loaded
graph holds one string object per distinct id, which every reference to it
shares. Cyclic garbage collection is paused (:class:`gc_paused`) for a
load, and for a whole scan and export in ``argus.pipeline``: none of them
makes garbage cycles. CHANGES.md holds the measurements behind these
choices.
"""

from __future__ import annotations

import codecs
import copy
import gc
import json
import os
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

from argus.errors import (
    GraphIntegrityError,
    GraphParseError,
    parse_json,
    read_json,
)

FORMAT_VERSION = "1"

DEFAULT_MAX_FLOW_LENGTH = 64


# Shared by every edge without guard tags, so none of them holds its own.
_NO_TAGS: frozenset[str] = frozenset()


class NodeKind(str, Enum):
    VARIABLE = "variable"
    PARAMETER = "parameter"
    FIELD = "field"
    COLLECTION_ELEMENT = "collection-element"
    CALL_ARGUMENT = "call-argument"
    CALL_RETURN = "call-return"


class TaintRole(str, Enum):
    NONE = "none"
    SOURCE = "source"
    SINK = "sink"
    SANITIZER = "sanitizer"


class EdgeKind(str, Enum):
    ASSIGN = "assign"
    CALL_PASS = "call-pass"
    RETURN = "return"
    FIELD_WRITE = "field-write"
    FIELD_READ = "field-read"
    COLLECTION_PUT = "collection-put"
    COLLECTION_GET = "collection-get"


@dataclass(frozen=True, slots=True)
class ContentNode:
    id: str
    kind: NodeKind
    label: str
    function_id: Optional[str] = None
    taint_role: TaintRole = TaintRole.NONE
    source_kind: Optional[str] = None
    sink_kind: Optional[str] = None

    def __post_init__(self):
        _check_node(self)


@dataclass(frozen=True, slots=True)
class AccessPathEdge:
    id: str
    src: str
    dst: str
    kind: EdgeKind
    visible_to_forward: bool = True
    guard_tags: frozenset[str] = _NO_TAGS
    # Synthesized edges bridging a caller-tree gap; never present in graph
    # documents, only in stitched flows and reports.
    bridged: bool = False

    def __post_init__(self):
        _check_edge(self)


def _check_node(node: ContentNode) -> None:
    """A sanitizer carries no source or sink kind."""
    if node.taint_role == TaintRole.SANITIZER and (node.source_kind or node.sink_kind):
        raise GraphIntegrityError(
            f"sanitizer node {node.id!r} must not carry source_kind/sink_kind",
            node.id,
        )


def _check_edge(edge: AccessPathEdge) -> None:
    """Only an assign edge may be a self-loop."""
    if edge.src == edge.dst and edge.kind != EdgeKind.ASSIGN:
        raise GraphIntegrityError(
            f"edge {edge.id!r}: self-loop only permitted for assign edges",
            edge.id,
        )


@dataclass(frozen=True, slots=True)
class FunctionDecl:
    id: str
    name: str
    parameters: tuple[str, ...] = ()
    return_node: Optional[str] = None
    is_entry_point: bool = False


@dataclass(frozen=True, slots=True)
class CallEdge:
    caller: str
    callee: str
    call_site_node: str


@dataclass(frozen=True, slots=True)
class Anchor:
    """Maps a (file, line range) region onto a content node.

    Used to resolve SARIF locations back into the graph.
    """

    file: str
    start_line: int
    end_line: int
    node_id: str


def _by_id(items: Iterable, what: str) -> dict:
    """``items`` keyed by id, in order. On a repeated id the error names the
    first one repeated, found by a second, slower pass. A list is read as
    given, not copied."""
    if not isinstance(items, list):
        items = list(items)
    table = {x.id: x for x in items}
    if len(table) != len(items):
        seen: set[str] = set()
        for x in items:
            if x.id in seen:
                raise GraphIntegrityError(f"duplicate {what} id {x.id!r}", x.id)
            seen.add(x.id)
    return table


class LabelIndex:
    """Node ids by label, for exact, dotted-prefix and dotted-suffix lookups.

    Holds the nodes' labels in one stable sort by label, with their ids as a
    parallel column, and a dict from each label's last dot-segment to its
    positions in those columns. An exact or prefix lookup is one or two
    bisect ranges over the labels; the prefix ranges use that ``"/"`` is the
    code point right after ``"."``: a label starts with ``p + "."`` iff it
    lies in ``[p + ".", p + "/")``. A suffix lookup reads only the labels
    that share the name's last segment. Every lookup returns sorted ids.
    """

    def __init__(self, nodes: Iterable[ContentNode]):
        ordered = sorted(nodes, key=attrgetter("label"))
        self._labels = labels = [n.label for n in ordered]
        self._ids = [n.id for n in ordered]
        by_last: dict[str, list[int]] = {}
        for pos, label in enumerate(labels):
            by_last.setdefault(label.rpartition(".")[2], []).append(pos)
        self._by_last = by_last

    def exact(self, name: str) -> list[str]:
        """Ids of the nodes labelled ``name``."""
        labels = self._labels
        lo = bisect_left(labels, name)
        if lo == len(labels) or labels[lo] != name:
            return []
        hi = bisect_right(labels, name, lo)
        ids = self._ids[lo:hi]
        if hi - lo > 1:
            ids.sort()
        return ids

    def under(self, prefix: str) -> list[str]:
        """Ids of the nodes labelled ``prefix`` or ``prefix`` + ``"."`` + anything."""
        labels = self._labels
        dotted = self._ids[bisect_left(labels, prefix + "."):bisect_left(labels, prefix + "/")]
        return sorted(self.exact(prefix) + dotted)

    def ending(self, name: str) -> list[str]:
        """Ids of the nodes whose label ends in ``"."`` + ``name``."""
        positions = self._by_last.get(name.rpartition(".")[2])
        if positions is None:
            return []
        dotted, labels, ids = "." + name, self._labels, self._ids
        found = [ids[p] for p in positions if labels[p].endswith(dotted)]
        if len(found) > 1:
            found.sort()
        return found


class ProgramGraph:
    """Immutable program graph with id-indexed lookups.

    Its nodes, edges, functions, call edges and anchors are instances of
    frozen, slotted dataclasses. A graph the loader builds holds one string
    object per id, which every reference to that id shares (see the module
    docstring); a graph built here holds the objects it is given. The
    outgoing-edge index is built at load:
    edges are bucketed by source in document order, and each bucket of
    more than one edge is then sorted by edge id. The incoming-edge index,
    the callers index, the label index and the per-role node lists are
    built on first use, so load pays for none of them. The incoming-edge
    index keeps one tuple of edges per target, in document order, which
    :meth:`incoming` returns as stored. Each bucket of either index is gathered in a list and
    replaced by its tuple in place, one at a time, so the lists of all
    buckets and their tuples never exist at once.
    :meth:`with_sinks` returns an overlay with its own node table that
    shares every other table with its parent, and none of the indexes
    built on first use.
    """

    def __init__(
        self,
        nodes: Iterable[ContentNode],
        edges: Iterable[AccessPathEdge],
        functions: Iterable[FunctionDecl],
        call_edges: Iterable[CallEdge] = (),
        source_files: Sequence[str] = (),
        anchors: Iterable[Anchor] = (),
    ):
        self.nodes: dict[str, ContentNode] = _by_id(nodes, "node")
        self.edges: dict[str, AccessPathEdge] = _by_id(edges, "edge")
        self.functions: dict[str, FunctionDecl] = _by_id(functions, "function")
        self.call_edges: tuple[CallEdge, ...] = tuple(call_edges)
        self.source_files: tuple[str, ...] = tuple(source_files)
        self.anchors: tuple[Anchor, ...] = tuple(anchors)
        self._check_integrity()
        # Outgoing edges per node, ordered by edge id for determinism.
        by_src: dict = {}
        for e in self.edges.values():
            by_src.setdefault(e.src, []).append(e)
        # Each bucket is sorted in place: sorting into new lists raised the
        # peak resident size of a scan by up to 0.8 MB.
        by_id = attrgetter("id")
        for src, es in by_src.items():
            if len(es) > 1:
                es.sort(key=by_id)
            by_src[src] = tuple(es)
        self._out: dict[str, tuple[AccessPathEdge, ...]] = by_src
        # Built on first use; an overlay starts without them.
        self._incoming: Optional[dict[str, tuple[AccessPathEdge, ...]]] = None
        self._callers: Optional[dict[str, tuple[tuple[str, str], ...]]] = None
        self._labels: Optional[LabelIndex] = None
        # Roles change in an overlay, so these lists are never shared.
        self._by_role: dict[TaintRole, tuple[ContentNode, ...]] = {}

    def _check_integrity(self):
        if not self.functions:
            raise GraphIntegrityError("graph declares no functions", "<functions>")
        functions = self.functions
        for n in self.nodes.values():
            if n.function_id is not None and n.function_id not in functions:
                raise GraphIntegrityError(
                    f"node {n.id!r} references unknown function {n.function_id!r}",
                    n.function_id,
                )
        nodes = self.nodes
        for e in self.edges.values():
            if e.src not in nodes or e.dst not in nodes:
                endpoint = e.src if e.src not in nodes else e.dst
                raise GraphIntegrityError(
                    f"edge {e.id!r} references unknown node {endpoint!r}", endpoint
                )
        for f in self.functions.values():
            seen: set[str] = set()
            for pid in f.parameters:
                node = self.nodes.get(pid)
                if node is None:
                    raise GraphIntegrityError(
                        f"function {f.id!r} references unknown parameter {pid!r}", pid
                    )
                if node.kind != NodeKind.PARAMETER or node.function_id != f.id:
                    raise GraphIntegrityError(
                        f"function {f.id!r}: node {pid!r} is not a parameter it owns", pid
                    )
                if pid in seen:
                    raise GraphIntegrityError(
                        f"function {f.id!r}: duplicate parameter {pid!r}", pid
                    )
                seen.add(pid)
            if f.return_node is not None and f.return_node not in self.nodes:
                raise GraphIntegrityError(
                    f"function {f.id!r} references unknown return node", f.return_node
                )
        for ce in self.call_edges:
            if ce.caller not in self.functions:
                raise GraphIntegrityError(f"call edge caller {ce.caller!r} unknown", ce.caller)
            if ce.callee not in self.functions:
                raise GraphIntegrityError(f"call edge callee {ce.callee!r} unknown", ce.callee)
            site = self.nodes.get(ce.call_site_node)
            if site is None:
                raise GraphIntegrityError(
                    f"call edge site {ce.call_site_node!r} unknown", ce.call_site_node
                )
            if site.kind not in (NodeKind.CALL_ARGUMENT, NodeKind.CALL_RETURN):
                raise GraphIntegrityError(
                    f"call site {ce.call_site_node!r} must be a call-argument or "
                    "call-return node",
                    ce.call_site_node,
                )

    def outgoing(self, node_id: str) -> tuple[AccessPathEdge, ...]:
        return self._out.get(node_id, ())

    def incoming(self, node_id: str) -> tuple[AccessPathEdge, ...]:
        """Edges into ``node_id``, in document order, as the tuple the index
        holds. The index is built on the first call, so graphs no search
        walks backwards never pay for it."""
        if self._incoming is None:
            by_dst: dict = {}
            for e in self.edges.values():
                by_dst.setdefault(e.dst, []).append(e)
            for dst, es in by_dst.items():
                by_dst[dst] = tuple(es)
            self._incoming = by_dst
        return self._incoming.get(node_id, ())

    def callers(self, function_id: str) -> tuple[tuple[str, str], ...]:
        """The ``(caller, call site node)`` pairs of the call edges into
        ``function_id``, sorted. The index is built from the call edges on
        the first call, so every caller-tree expansion on this graph after
        it reads only its own buckets."""
        if self._callers is None:
            by_callee: dict = {}
            for ce in self.call_edges:
                by_callee.setdefault(ce.callee, []).append((ce.caller, ce.call_site_node))
            for callee, pairs in by_callee.items():
                pairs.sort()
                by_callee[callee] = tuple(pairs)
            self._callers = by_callee
        return self._callers.get(function_id, ())

    def label_index(self) -> LabelIndex:
        """The label index, built on the first call."""
        if self._labels is None:
            self._labels = LabelIndex(self.nodes.values())
        return self._labels

    def nodes_by_role(self, role: TaintRole) -> list[ContentNode]:
        """The nodes with ``role`` in id order, as a new list; the first call
        for a role scans the nodes and keeps the result."""
        found = self._by_role.get(role)
        if found is None:
            found = self._by_role[role] = tuple(sorted(
                (n for n in self.nodes.values() if n.taint_role == role),
                key=lambda n: n.id,
            ))
        return list(found)

    def with_sinks(self, sink_kinds: Mapping[str, str]) -> "ProgramGraph":
        """Return an overlay with the given node ids marked as sinks.

        ``sink_kinds`` maps node id -> sink category tag. Only nodes with
        role ``NONE`` are marked: nodes already marked, sources and
        sanitizers keep their role. Unknown ids are ignored. The overlay
        gets its own node table, in the same order, and shares every other
        table with this graph, which is left unchanged; marking a sink
        changes no label and no edge, so nothing is checked again. The
        overlay inherits none of the indexes built on first use: a scan
        drops the graph for its overlay, and the label index of the stages
        before sink assembly then dies with the graph instead of living
        through search and review.
        """
        overlay = copy.copy(self)
        overlay.nodes = nodes = dict(self.nodes)
        for node_id, kind in sink_kinds.items():
            n = nodes.get(node_id)
            if n is not None and n.taint_role == TaintRole.NONE:
                nodes[node_id] = replace(n, taint_role=TaintRole.SINK, sink_kind=kind)
        overlay._incoming = None
        overlay._callers = None
        overlay._labels = None
        overlay._by_role = {}
        return overlay


class SharedDict(dict):
    """A dict that a report holds at more than one place. Report builders
    mark each dict they share this way, and the report writer renders its
    text once per indent; it adds nothing to ``dict``."""

    __slots__ = ()


@dataclass(frozen=True)
class FlowTriple:
    from_node: str
    edge: AccessPathEdge
    to_node: str


class FlowOrigin(str, Enum):
    FORWARD = "forward"
    STITCHED = "stitched"


@dataclass(frozen=True)
class DataFlow:
    triples: tuple[FlowTriple, ...]
    origin: FlowOrigin = FlowOrigin.FORWARD
    max_length_bound: int = DEFAULT_MAX_FLOW_LENGTH

    @property
    def source(self) -> str:
        return self.triples[0].from_node

    @property
    def sink(self) -> str:
        return self.triples[-1].to_node

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(t.edge.id for t in self.triples)

    @property
    def has_bridged_edge(self) -> bool:
        return any(t.edge.bridged for t in self.triples)

    def to_dict(self, shared: Optional[dict] = None) -> dict:
        """The flow as report JSON. Each triple's dict is a
        :class:`SharedDict` built once per ``shared`` table, keyed by its
        endpoints and its edge object, and every flow with that triple holds
        the same dict; the caller keeps the edges alive while the table
        lives. Without a table, the flow uses a table of its own."""
        if shared is None:
            shared = {}
        triples = []
        for t in self.triples:
            key = (t.from_node, id(t.edge), t.to_node)
            d = shared.get(key)
            if d is None:
                d = shared[key] = _triple_to_dict(t)
            triples.append(d)
        return {
            "origin": self.origin.value,
            "max_length_bound": self.max_length_bound,
            "triples": triples,
        }


def _triple_to_dict(t: FlowTriple) -> SharedDict:
    return SharedDict({
        "from": t.from_node,
        "edge": _edge_to_dict(t.edge, include_bridged=True),
        "to": t.to_node,
    })


@dataclass
class FlowValidation:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_flow(
    flow: DataFlow,
    graph: ProgramGraph,
    *,
    allow_bridged: bool = False,
) -> FlowValidation:
    """Check a flow against its graph.

    Accepts iff every triple's edge exists in the graph with matching
    endpoints, consecutive triples chain together, the length is strictly
    below the flow's bound, and the endpoints carry source/sink roles.
    With ``allow_bridged`` synthesized bridge edges are exempt from the
    existence check (their continuity still counts).
    """
    violations: list[str] = []
    n = len(flow.triples)
    if n == 0:
        return FlowValidation(False, ["flow has no triples (length must be >= 1)"])
    if n >= flow.max_length_bound:
        violations.append(
            f"flow length {n} violates bound {flow.max_length_bound} (need n < bound)"
        )
    for pos, t in enumerate(flow.triples, start=1):
        if t.edge.bridged:
            if not allow_bridged:
                violations.append(f"triple {pos}: bridged edge {t.edge.id!r} not permitted")
        else:
            known = graph.edges.get(t.edge.id)
            if known is None:
                violations.append(f"triple {pos}: edge {t.edge.id!r} not in graph")
            elif (known.src, known.dst) != (t.from_node, t.to_node):
                violations.append(
                    f"triple {pos}: edge {t.edge.id!r} endpoints "
                    f"({known.src!r}->{known.dst!r}) do not match triple"
                )
        if (t.edge.src, t.edge.dst) != (t.from_node, t.to_node):
            violations.append(f"triple {pos}: triple endpoints disagree with its edge")
        if t.from_node not in graph.nodes:
            violations.append(f"triple {pos}: unknown node {t.from_node!r}")
        if t.to_node not in graph.nodes:
            violations.append(f"triple {pos}: unknown node {t.to_node!r}")
        if pos >= 2 and flow.triples[pos - 2].to_node != t.from_node:
            violations.append(
                f"triple {pos}: continuity broken "
                f"({flow.triples[pos - 2].to_node!r} != {t.from_node!r})"
            )
    src = graph.nodes.get(flow.source)
    if src is not None and src.taint_role != TaintRole.SOURCE:
        violations.append(f"first node {flow.source!r} is not a source")
    dst = graph.nodes.get(flow.sink)
    if dst is not None and dst.taint_role != TaintRole.SINK:
        violations.append(f"last node {flow.sink!r} is not a sink")
    return FlowValidation(not violations, violations)


# ---------------------------------------------------------------------------
# Interchange format


_NODE_FIELDS = {"id", "kind", "function_id", "label", "taint_role", "source_kind", "sink_kind"}
_EDGE_FIELDS = {"id", "from", "to", "kind", "visible_to_forward", "guard_tags"}
_FUNCTION_FIELDS = {"id", "name", "parameters", "return_node", "is_entry_point"}
_CALL_EDGE_FIELDS = {"caller", "callee", "call_site_node"}
_TOP_FIELDS = {"format_version", "functions", "nodes", "edges", "call_edges", "source_files", "anchors"}
_ANCHOR_FIELDS = {"file", "start_line", "end_line", "node_id"}

# Enum members by value: a dict lookup costs a fraction of an enum call. On a
# miss the loader calls the enum, which raises its own ``ValueError`` naming
# the value.
_NODE_KINDS = {k.value: k for k in NodeKind}
_TAINT_ROLES = {r.value: r for r in TaintRole}
_EDGE_KINDS = {k.value: k for k in EdgeKind}


def _unknown_fields(obj: dict, allowed: set[str], what: str):
    """Reject the fields of ``obj`` outside ``allowed``. Callers test first
    that ``allowed`` holds every key of ``obj``, so the label ``what`` is
    only formatted for an object that has an unknown field."""
    raise GraphParseError(f"{what}: unknown field(s) {sorted(set(obj) - allowed)}")


def _objects(doc: dict, key: str, built: type = dict) -> list:
    """The entries of the array ``doc[key]``, each checked to be an object
    or an element of type ``built``."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise GraphParseError(f"{key} must be a JSON array")
    for pos, raw in enumerate(entries):
        if type(raw) is not built and not isinstance(raw, dict):
            raise GraphParseError(f"{key}[{pos}] must be a JSON object")
    return entries


def _elements(doc: dict, key: str, cls: type, build, share) -> list:
    """The nodes or edges (``cls``) of ``doc[key]``: the entries already
    built, and each object, built here by ``build`` in order. When every
    entry is built (as :class:`_Slices` leaves them), that is the
    document's list itself."""
    entries = _objects(doc, key, cls)
    if all(type(raw) is cls for raw in entries):
        return entries
    return [raw if type(raw) is cls else build(raw, share)
            for raw in entries]


def _all_strings(values: list) -> bool:
    return all(isinstance(v, str) for v in values)


def _string(raw: dict, key: str, what: str) -> str:
    value = raw[key]
    if not isinstance(value, str):
        raise GraphParseError(f"{what}: {key} must be a string, got {value!r}")
    return value


def _optional_str(raw: dict, key: str, what: str) -> Optional[str]:
    value = raw.get(key)
    if value is not None and not isinstance(value, str):
        raise GraphParseError(f"{what} {raw.get('id')!r}: {key} must be a string or null")
    return value


def _flag(raw: dict, key: str, default: bool, what: str) -> bool:
    value = raw.get(key, default)
    if value is not True and value is not False:
        raise GraphParseError(f"{what} {raw.get('id')!r}: {key} must be true or false")
    return value


def _anchor_line(raw: dict, key: str) -> int:
    line = raw[key]
    if not isinstance(line, int) or isinstance(line, bool):
        raise GraphParseError(f"anchor {key} must be an integer, got {line!r}")
    return line


def _slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each slot of the frozen, slotted dataclass ``cls``,
    in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


_new = object.__new__

# The loader builds nodes and edges with ``object.__new__`` and sets their
# slots through these member descriptors, then runs the ``__post_init__``
# check itself where it can fail (a node with a source or sink kind, a
# self-loop edge): a frozen dataclass's ``__init__`` goes through
# ``object.__setattr__`` once per field, which takes about three times as
# long. Each tuple is unpacked into a fixed count, so a field added to or
# removed from either class fails here, at import.
(_set_node_id, _set_node_kind, _set_node_label, _set_node_function, _set_node_role,
 _set_node_source, _set_node_sink) = _slot_setters(ContentNode)
(_set_edge_id, _set_edge_src, _set_edge_dst, _set_edge_kind, _set_edge_visible,
 _set_edge_tags, _set_edge_bridged) = _slot_setters(AccessPathEdge)


def _node(raw: dict, share) -> ContentNode:
    """The checked node of the object ``raw``. Each field's common case is
    tested inline; any other value goes to the helper or enum call that
    checks it, so each error message is made in one place. Its id and
    function id are passed through ``share``, the ``setdefault`` of the
    load's id table (see :func:`graph_from_dict`)."""
    if not _NODE_FIELDS.issuperset(raw):
        _unknown_fields(raw, _NODE_FIELDS, f"node {raw.get('id')!r}")
    node_id = raw["id"]
    if type(node_id) is not str:
        node_id = _string(raw, "id", "node")
    node_id = share(node_id, node_id)
    kind = raw["kind"]
    try:
        kind = _NODE_KINDS[kind]
    except (KeyError, TypeError):
        kind = NodeKind(kind)
    label = raw.get("label", "")
    if type(label) is not str:
        label = _string(raw, "label", f"node {node_id!r}")
    function_id = raw.get("function_id")
    if function_id is not None:
        if type(function_id) is not str:
            function_id = _optional_str(raw, "function_id", "node")
        function_id = share(function_id, function_id)
    role = raw.get("taint_role", "none")
    try:
        role = _TAINT_ROLES[role]
    except (KeyError, TypeError):
        role = TaintRole(role)
    source_kind = raw.get("source_kind")
    if source_kind is not None and type(source_kind) is not str:
        source_kind = _optional_str(raw, "source_kind", "node")
    sink_kind = raw.get("sink_kind")
    if sink_kind is not None and type(sink_kind) is not str:
        sink_kind = _optional_str(raw, "sink_kind", "node")
    node = _new(ContentNode)
    _set_node_id(node, node_id)
    _set_node_kind(node, kind)
    _set_node_label(node, label)
    _set_node_function(node, function_id)
    _set_node_role(node, role)
    _set_node_source(node, source_kind)
    _set_node_sink(node, sink_kind)
    if source_kind or sink_kind:
        _check_node(node)
    return node


def _edge(raw: dict, share) -> AccessPathEdge:
    """The checked edge of the object ``raw``, built as :func:`_node` builds
    a node; its endpoints are passed through ``share``."""
    if not _EDGE_FIELDS.issuperset(raw):
        _unknown_fields(raw, _EDGE_FIELDS, f"edge {raw.get('id')!r}")
    guard_tags = raw.get("guard_tags", [])
    # Most edges carry no tags: skip the element check for those.
    if not isinstance(guard_tags, list) or (guard_tags and not _all_strings(guard_tags)):
        raise GraphParseError(
            f"edge {raw.get('id')!r}: guard_tags must be a JSON array of strings"
        )
    edge_id = raw["id"]
    if type(edge_id) is not str:
        edge_id = _string(raw, "id", "edge")
    src = raw["from"]
    if type(src) is not str:
        src = _string(raw, "from", f"edge {edge_id!r}")
    src = share(src, src)
    dst = raw["to"]
    if type(dst) is not str:
        dst = _string(raw, "to", f"edge {edge_id!r}")
    dst = share(dst, dst)
    kind = raw["kind"]
    try:
        kind = _EDGE_KINDS[kind]
    except (KeyError, TypeError):
        kind = EdgeKind(kind)
    visible = raw.get("visible_to_forward", True)
    if visible is not True and visible is not False:
        visible = _flag(raw, "visible_to_forward", True, "edge")
    edge = _new(AccessPathEdge)
    _set_edge_id(edge, edge_id)
    _set_edge_src(edge, src)
    _set_edge_dst(edge, dst)
    _set_edge_kind(edge, kind)
    _set_edge_visible(edge, visible)
    _set_edge_tags(edge, frozenset(guard_tags) if guard_tags else _NO_TAGS)
    _set_edge_bridged(edge, False)
    if src == dst:
        _check_edge(edge)
    return edge


class gc_paused:
    """A context in which cyclic garbage collection is off.

    On exit the caller's setting is restored, on return and on error alike,
    and a caller that had collection off keeps it off. It is a class, not a
    generator, so that nothing is allocated once collection is back on: a
    generator's exit raises and catches ``StopIteration``, and that
    allocation could start a collection before the paused call returns.
    """

    __slots__ = ("_enabled",)

    def __enter__(self) -> None:
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._enabled:
            gc.enable()


# A graph file larger than this many bytes is decoded in slices of about this
# many characters; a smaller one is decoded whole. A load holds a few slices
# of text and one slice's raw objects at once, so a larger slice only adds to
# its peak.
_SLICE = 1 << 16

_WHITESPACE = re.compile(r"[ \t\n\r]*")
# Where one object of an array may end and the next begin; a match can also
# lie inside a string.
_CUT = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")


# What the sliced decode builds each entry of these arrays with.
_BUILDERS = {"nodes": _node, "edges": _edge}


class _Slices:
    """The graph document of an open binary file, decoded a slice at a time.

    :meth:`document` walks the top-level object and decodes each array in
    slices of about ``_SLICE`` characters, cut where one object seems to end
    and the next to begin (``}``, ``,``, ``{`` with optional whitespace),
    each as ``"[" + slice + "]"``; a decode that stops before the end of its
    slice found the end of the array. A slice cut inside a string is
    decoded one entry at a time instead (:meth:`_entries`). Each entry of
    ``nodes`` and ``edges`` is built, with the load's id table, as its slice
    is decoded, so the raw objects of at most one slice exist at a time;
    every other value is decoded whole. Anything else raises (malformed
    text, a byte-order mark or bad UTF-8, a top level that is not an
    object, a builder's error, a failed read, a value nested too deep), and
    the caller decodes the whole file. The text read and not yet decoded is
    ``text[pos:]``; a read drops what is before it and adds its length to
    ``offset``, so ``offset + pos`` is the position in the whole text.
    """

    def __init__(self, fh, share):
        self._fh = fh
        self._share = share
        self._raw_decode = json.JSONDecoder().raw_decode
        self._utf8 = codecs.getincrementaldecoder("utf-8")()
        self.text = ""
        self.pos = 0
        self.offset = 0
        self._eof = False

    def _more(self) -> bool:
        """Append more of the file to the text; false when the whole file is
        read already. It reads ``_SLICE`` bytes, or as many as are read and
        not yet decoded if that is more: a value that needs many reads
        doubles the text each time, so decoding it again after each read
        costs time linear in its size."""
        if self._eof:
            return False
        size = max(_SLICE, len(self.text) - self.pos)
        data = self._fh.read(size)
        self._eof = len(data) < size
        self.text = self.text[self.pos:] + self._utf8.decode(data, self._eof)
        self.offset += self.pos
        self.pos = 0
        return True

    def _next(self) -> str:
        """Skip whitespace: the next character, or "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos:self.pos + 1]

    def _expect(self, char: str) -> None:
        if self._next() != char:
            raise ValueError(f"expected {char!r}")
        self.pos += 1

    def _value(self):
        """The value at ``pos``, decoded whole. A value that fails to decode,
        or ends the text read so far, may be cut short: it is decoded again
        with more of the file."""
        while True:
            try:
                value, end = self._raw_decode(self.text, self.pos)
            except ValueError:
                if self._more():
                    continue
                raise
            if end < len(self.text) or not self._more():
                self.pos = end
                return value

    def _array(self, key: str) -> list:
        """The array at ``pos``, the value of ``key``, decoded in slices; an
        entry of ``nodes`` or ``edges`` is built as its slice is decoded."""
        build = _BUILDERS.get(key)
        share = self._share
        self.pos += 1
        items = []
        while True:
            found = _CUT.search(self.text, self.pos + _SLICE)
            if found is None and self._more():
                continue
            cut = len(self.text) if found is None else found.start() + 1
            text = f"[{self.text[self.pos:cut]}]"
            try:
                part, end = self._raw_decode(text)
            except ValueError:
                if found is None:
                    raise
                part, closed = self._entries(cut)
            else:
                closed = end < len(text)
                if closed:
                    self.pos += end - 1
                elif found is None:
                    raise ValueError("array not closed")
                else:
                    self.pos = found.end() - 1
            if build is not None:
                part = [build(raw, share) for raw in part]
            items += part
            if closed:
                return items

    def _entries(self, cut: int) -> tuple[list, bool]:
        """The entries of the array from ``pos``, each decoded whole, up to
        the first that ends past ``text[cut]``, and whether the array ended
        first. A slice cut inside a string is decoded this way, so the text
        decoded stays linear in the file's size and no slice grows:
        extending the slice to a later cut instead could take it to the end
        of the array, where every cut lies inside a string."""
        stop = self.offset + cut
        entries = []
        while self.offset + self.pos < stop:
            self._next()
            entries.append(self._value())
            if self._next() == "]":
                self.pos += 1
                return entries, True
            self._expect(",")
        return entries, False

    def document(self) -> dict:
        """The decoded document, with its nodes and edges built."""
        self._expect("{")
        doc = {}
        if self._next() == "}":
            self.pos += 1
        else:
            while True:
                if self._next() != '"':
                    raise ValueError("expected a key")
                key = self._value()
                self._expect(":")
                doc[key] = self._array(key) if self._next() == "[" else self._value()
                if self._next() == "}":
                    self.pos += 1
                    break
                self._expect(",")
        if self._next():
            raise ValueError("extra data")
        return doc


def _read_graph(path, ids: dict, prefix: str):
    """The graph document of ``path``, its nodes and edges built if
    :class:`_Slices` decoded it, with ``ids`` the load's id table.

    A file of at most ``_SLICE`` bytes is read and decoded whole, as
    :func:`read_json` decodes it; a longer one is decoded by
    :class:`_Slices`. A file that cannot be read, is not UTF-8, is
    malformed, or holds an entry that :class:`_Slices` cannot build is
    decoded by :func:`read_json`, so its error is ``read_json``'s, with the
    table emptied, as :func:`graph_from_dict` starts with an empty one.
    That runs after the failed decode's exception, and with it every
    element it built, is freed."""
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size > _SLICE:
                return _Slices(fh, ids.setdefault).document()
            text = fh.read().decode("utf-8")
    # Whatever went wrong, a builder's error on a value of any JSON type
    # among them, the whole decode and build below report it as they would.
    except Exception:
        pass
    else:
        return parse_json(text, GraphParseError, prefix)
    ids.clear()
    return read_json(path, GraphParseError, prefix)


def load_program_graph(path, *, strict: bool = True) -> ProgramGraph:
    """Load and validate a program-graph JSON document: the graph, or the
    error, that :func:`graph_from_dict` gives for its decoded document.

    A file larger than ``_SLICE`` bytes is decoded in slices by
    :class:`_Slices`, so a load's peak memory is about the graph plus a few
    slices of text; only a malformed file, or one with an entry that does
    not build, is decoded whole, to report its error. Raises
    :class:`GraphParseError` for a malformed document, an unknown field
    among them, and :class:`GraphIntegrityError` (naming the offending id)
    for a dangling or duplicate reference. Every load is strict: ``strict``
    is accepted only as ``True``, and any other value is a ``TypeError``.

    Cyclic garbage collection is paused while the document is parsed and
    the graph is built: every container the load allocates is either kept
    by the graph or freed by reference counting, so a collection there
    would only walk live objects. The caller's setting is restored on
    return and on error, and a caller that had collection off keeps it off.
    """
    if strict is not True:
        raise TypeError(f"load_program_graph: strict must be True, got {strict!r}")
    with gc_paused():
        ids: dict = {}
        doc = _read_graph(path, ids, f"{path}: cannot read graph")
        return _graph(doc, ids)


def graph_from_dict(doc: dict) -> ProgramGraph:
    """The graph of the decoded document ``doc``.

    Every id reference of the graph is the one string object first read for
    that id: node ids and function ids, edge endpoints, function parameters
    and return nodes, call edges and anchors. A table of this one load,
    dropped when it returns, maps each id to that object, so the graph
    keeps none of the document's other copies. The table is not
    ``sys.intern``: interned strings are immortal from Python 3.12, so a
    process that loads many graphs would keep every id it ever read."""
    return _graph(doc, {})


def _graph(doc: dict, ids: dict) -> ProgramGraph:
    """:func:`graph_from_dict`, given the load's id table ``ids``. The
    entries of ``nodes`` and ``edges`` may already be built (as
    :class:`_Slices` leaves them, with the same table); every entry that is
    still an object is built and checked here, in order. The table is
    emptied once every element is built, before the graph's own tables
    are."""
    share = ids.setdefault
    if not isinstance(doc, dict):
        raise GraphParseError("graph document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise GraphParseError(
            f"unsupported or missing format_version (expected {FORMAT_VERSION!r})"
        )
    if not doc.keys() <= _TOP_FIELDS:
        _unknown_fields(doc, _TOP_FIELDS, "document")
    try:
        nodes = _elements(doc, "nodes", ContentNode, _node, share)
        edges = _elements(doc, "edges", AccessPathEdge, _edge, share)
        functions = []
        for raw in _objects(doc, "functions"):
            if not raw.keys() <= _FUNCTION_FIELDS:
                _unknown_fields(raw, _FUNCTION_FIELDS, f"function {raw.get('id')!r}")
            parameters = raw.get("parameters", [])
            if not isinstance(parameters, list) or not _all_strings(parameters):
                raise GraphParseError(
                    f"function {raw.get('id')!r}: parameters must be a JSON array of strings"
                )
            function_id = _string(raw, "id", "function")
            function_id = share(function_id, function_id)
            name = (_string(raw, "name", f"function {function_id!r}")
                    if "name" in raw else function_id)
            return_node = _optional_str(raw, "return_node", "function")
            if return_node is not None:
                return_node = share(return_node, return_node)
            functions.append(
                FunctionDecl(
                    id=function_id,
                    name=name,
                    parameters=tuple(map(share, parameters, parameters)),
                    return_node=return_node,
                    is_entry_point=_flag(raw, "is_entry_point", False, "function"),
                )
            )
        call_edges = []
        for raw in _objects(doc, "call_edges"):
            if not raw.keys() <= _CALL_EDGE_FIELDS:
                _unknown_fields(raw, _CALL_EDGE_FIELDS, "call edge")
            caller = _string(raw, "caller", "call edge")
            callee = _string(raw, "callee", "call edge")
            site = _string(raw, "call_site_node", "call edge")
            call_edges.append(
                CallEdge(share(caller, caller), share(callee, callee), share(site, site))
            )
        anchors = []
        for raw in _objects(doc, "anchors"):
            if not raw.keys() <= _ANCHOR_FIELDS:
                _unknown_fields(raw, _ANCHOR_FIELDS, "anchor")
            file = _string(raw, "file", "anchor")
            start_line = _anchor_line(raw, "start_line")
            end_line = _anchor_line(raw, "end_line")
            node_id = _string(raw, "node_id", "anchor")
            anchors.append(Anchor(file, start_line, end_line, share(node_id, node_id)))
    except KeyError as exc:
        raise GraphParseError(f"missing required field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise GraphParseError(f"invalid enum or numeric value: {exc}") from exc
    source_files = doc.get("source_files", [])
    if not isinstance(source_files, list) or not _all_strings(source_files):
        raise GraphParseError("source_files must be a JSON array of strings")
    ids.clear()
    return ProgramGraph(
        nodes,
        edges,
        functions,
        call_edges,
        source_files=source_files,
        anchors=anchors,
    )


def _edge_to_dict(e: AccessPathEdge, *, include_bridged: bool = False) -> dict:
    out = {
        "id": e.id,
        "from": e.src,
        "to": e.dst,
        "kind": e.kind.value,
        "visible_to_forward": e.visible_to_forward,
        "guard_tags": sorted(e.guard_tags),
    }
    if include_bridged and e.bridged:
        out["bridged"] = True
    return out


def graph_to_dict(graph: ProgramGraph) -> dict:
    """Serialize back to the interchange format (lexicographic id order)."""
    return {
        "format_version": FORMAT_VERSION,
        "source_files": list(graph.source_files),
        "functions": [
            {
                "id": f.id,
                "name": f.name,
                "parameters": list(f.parameters),
                "return_node": f.return_node,
                "is_entry_point": f.is_entry_point,
            }
            for f in sorted(graph.functions.values(), key=lambda f: f.id)
        ],
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind.value,
                "function_id": n.function_id,
                "label": n.label,
                "taint_role": n.taint_role.value,
                "source_kind": n.source_kind,
                "sink_kind": n.sink_kind,
            }
            for n in sorted(graph.nodes.values(), key=lambda n: n.id)
        ],
        "edges": [
            _edge_to_dict(e)
            for e in sorted(graph.edges.values(), key=lambda e: e.id)
        ],
        "call_edges": [
            {"caller": c.caller, "callee": c.callee, "call_site_node": c.call_site_node}
            for c in sorted(
                graph.call_edges, key=lambda c: (c.caller, c.callee, c.call_site_node)
            )
        ],
        "anchors": [
            {
                "file": a.file,
                "start_line": a.start_line,
                "end_line": a.end_line,
                "node_id": a.node_id,
            }
            for a in sorted(graph.anchors, key=lambda a: (a.file, a.start_line, a.node_id))
        ],
    }
