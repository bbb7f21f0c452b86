"""Program-graph data model and the data-flow type.

The graph is a language-neutral description of a codebase: content nodes
(variables, parameters, fields, collection slots, call arguments/returns),
access-path edges recording how content propagates between them, function
declarations, and call edges. A data flow is an ordered list of
(from_node, edge, to_node) triples whose consecutive endpoints chain
together; the flow length is strictly bounded by the configured maximum.

Graphs are immutable after load and safe for concurrent reads: the lazily
built indexes are pure functions of the graph, so a build that two threads
race on yields equal tables.

The graph's element classes are frozen, slotted dataclasses, and every edge
without guard tags shares one empty frozenset, so a loaded graph leaves few
objects for the cyclic garbage collector to walk. :func:`load_program_graph`
pauses that collector while it parses and builds, since the load makes no
garbage cycles for it to find, and restores the caller's setting after.
"""

from __future__ import annotations

import copy
import gc
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

from argus.errors import GraphIntegrityError, GraphParseError

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
        if self.taint_role == TaintRole.SANITIZER and (self.source_kind or self.sink_kind):
            raise GraphIntegrityError(
                f"sanitizer node {self.id!r} must not carry source_kind/sink_kind",
                self.id,
            )


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
        if self.src == self.dst and self.kind != EdgeKind.ASSIGN:
            raise GraphIntegrityError(
                f"edge {self.id!r}: self-loop only permitted for assign edges",
                self.id,
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
    first one repeated, found by a second, slower pass."""
    items = list(items)
    table = {x.id: x for x in items}
    if len(table) != len(items):
        seen: set[str] = set()
        for x in items:
            if x.id in seen:
                raise GraphIntegrityError(f"duplicate {what} id {x.id!r}", x.id)
            seen.add(x.id)
    return table


def _columns(pairs: list[tuple[str, str]]) -> tuple[list[str], list[str]]:
    return [a for a, _ in pairs], [b for _, b in pairs]


class LabelIndex:
    """Node ids by label, for exact, dotted-prefix and dotted-suffix lookups.

    Holds the (label, id) pairs sorted by label, then id, and the same pairs
    with each label reversed, sorted the same way, each as two parallel
    columns. Every lookup is one or two bisect ranges and returns sorted ids.
    The ranges use that ``"/"`` is the code point right after ``"."``: a
    label starts with ``p + "."`` iff it lies in ``[p + ".", p + "/")``.
    """

    def __init__(self, nodes: Iterable[ContentNode]):
        pairs = sorted((n.label, n.id) for n in nodes)
        self._labels, self._ids = _columns(pairs)
        self._reversed, self._reversed_ids = _columns(
            sorted((label[::-1], node_id) for label, node_id in pairs)
        )

    def exact(self, name: str) -> list[str]:
        """Ids of the nodes labelled ``name``."""
        labels = self._labels
        return self._ids[bisect_left(labels, name):bisect_right(labels, name)]

    def under(self, prefix: str) -> list[str]:
        """Ids of the nodes labelled ``prefix`` or ``prefix`` + ``"."`` + anything."""
        labels = self._labels
        dotted = self._ids[bisect_left(labels, prefix + "."):bisect_left(labels, prefix + "/")]
        return sorted(self.exact(prefix) + dotted)

    def ending(self, name: str) -> list[str]:
        """Ids of the nodes whose label ends in ``"."`` + ``name``."""
        rev, labels = name[::-1], self._reversed
        return sorted(
            self._reversed_ids[bisect_left(labels, rev + "."):bisect_left(labels, rev + "/")]
        )


class _SharedIndexes:
    """Indexes built on first use from edges and labels alone, so a graph and
    its :meth:`ProgramGraph.with_sinks` overlays can share them."""

    __slots__ = ("incoming", "labels")

    def __init__(self):
        self.incoming: Optional[dict[str, tuple[AccessPathEdge, ...]]] = None
        self.labels: Optional[LabelIndex] = None


class ProgramGraph:
    """Immutable program graph with id-indexed lookups.

    Its nodes, edges, functions, call edges and anchors are instances of
    frozen, slotted dataclasses. The outgoing-edge index is built at load.
    The incoming-edge index, the label index and the per-role node lists
    are built on first use, so load pays for none of them. :meth:`with_sinks` returns an overlay with its
    own node table that shares every other table and index with its parent.
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
        # Outgoing edges per node, ordered by edge id for determinism: one
        # sort of all edges, then each bucket fills in that order.
        by_src: dict[str, list[AccessPathEdge]] = {}
        for e in sorted(self.edges.values(), key=attrgetter("id")):
            by_src.setdefault(e.src, []).append(e)
        self._out: dict[str, tuple[AccessPathEdge, ...]] = {
            src: tuple(es) for src, es in by_src.items()
        }
        self._shared = _SharedIndexes()
        # Roles change in an overlay, so these lists are never shared.
        self._by_role: dict[TaintRole, tuple[ContentNode, ...]] = {}

    def _check_integrity(self):
        if not self.functions:
            raise GraphIntegrityError("graph declares no functions", "<functions>")
        for n in self.nodes.values():
            if n.function_id is not None and n.function_id not in self.functions:
                raise GraphIntegrityError(
                    f"node {n.id!r} references unknown function {n.function_id!r}",
                    n.function_id,
                )
        for e in self.edges.values():
            for endpoint in (e.src, e.dst):
                if endpoint not in self.nodes:
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
        """Edges into ``node_id``. The index is built on the first call, so
        graphs no search walks backwards never pay for it."""
        shared = self._shared
        if shared.incoming is None:
            by_dst: dict[str, list[AccessPathEdge]] = {}
            for e in self.edges.values():
                by_dst.setdefault(e.dst, []).append(e)
            shared.incoming = {dst: tuple(es) for dst, es in by_dst.items()}
        return shared.incoming.get(node_id, ())

    def label_index(self) -> LabelIndex:
        """The label index, built on the first call."""
        shared = self._shared
        if shared.labels is None:
            shared.labels = LabelIndex(self.nodes.values())
        return shared.labels

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
        table and index with this graph, which is left unchanged; marking
        a sink changes no label and no edge, so nothing is checked again.
        """
        overlay = copy.copy(self)
        overlay.nodes = nodes = dict(self.nodes)
        for node_id, kind in sink_kinds.items():
            n = nodes.get(node_id)
            if n is not None and n.taint_role == TaintRole.NONE:
                nodes[node_id] = replace(n, taint_role=TaintRole.SINK, sink_kind=kind)
        overlay._by_role = {}
        return overlay


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

    def to_dict(self) -> dict:
        return {
            "origin": self.origin.value,
            "max_length_bound": self.max_length_bound,
            "triples": [
                {
                    "from": t.from_node,
                    "edge": _edge_to_dict(t.edge, include_bridged=True),
                    "to": t.to_node,
                }
                for t in self.triples
            ],
        }


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

# Enum members by value: a dict lookup costs a fraction of an enum call.
_NODE_KINDS = {k.value: k for k in NodeKind}
_TAINT_ROLES = {r.value: r for r in TaintRole}
_EDGE_KINDS = {k.value: k for k in EdgeKind}


def _member(members: dict, enum: type[Enum], value):
    """The member of ``enum`` whose value is ``value``. On a miss the enum
    is called, which raises its own ``ValueError`` naming the value."""
    try:
        return members[value]
    except (KeyError, TypeError):
        return enum(value)


def _unknown_fields(obj: dict, allowed: set[str], what: str, strict: bool, warnings: list[str]):
    """Reject or record the fields of ``obj`` outside ``allowed``. Callers
    test ``obj.keys() <= allowed`` first, so the label ``what`` is only
    formatted for an object that has an unknown field."""
    msg = f"{what}: unknown field(s) {sorted(set(obj) - allowed)}"
    if strict:
        raise GraphParseError(msg)
    warnings.append(msg)


def _objects(doc: dict, key: str) -> list[dict]:
    """The entries of the array ``doc[key]``, each checked to be an object."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise GraphParseError(f"{key} must be a JSON array")
    for pos, raw in enumerate(entries):
        if not isinstance(raw, dict):
            raise GraphParseError(f"{key}[{pos}] must be a JSON object")
    return entries


def _all_strings(values: list) -> bool:
    return all(isinstance(v, str) for v in values)


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


def load_program_graph(path, *, strict: bool = True, warnings: Optional[list[str]] = None) -> ProgramGraph:
    """Load and validate a program-graph JSON document.

    Raises :class:`GraphParseError` for malformed documents and
    :class:`GraphIntegrityError` (naming the offending id) for dangling or
    duplicate references. In lenient mode unknown fields are appended to
    ``warnings`` instead of rejected.

    Cyclic garbage collection is paused while the document is parsed and
    the graph is built: every container the load allocates is either kept
    by the graph or freed by reference counting, so a collection there
    would only walk live objects. The caller's setting is restored on
    return and on error, and a caller that had collection off keeps it off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise GraphParseError(f"{path}: not valid JSON: {exc}") from exc
        return graph_from_dict(doc, strict=strict, warnings=warnings)
    finally:
        if enabled:
            gc.enable()


def graph_from_dict(doc: dict, *, strict: bool = True, warnings: Optional[list[str]] = None) -> ProgramGraph:
    if warnings is None:
        warnings = []
    if not isinstance(doc, dict):
        raise GraphParseError("graph document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise GraphParseError(
            f"unsupported or missing format_version (expected {FORMAT_VERSION!r})"
        )
    if not doc.keys() <= _TOP_FIELDS:
        _unknown_fields(doc, _TOP_FIELDS, "document", strict, warnings)
    try:
        nodes = []
        for raw in _objects(doc, "nodes"):
            if not raw.keys() <= _NODE_FIELDS:
                _unknown_fields(raw, _NODE_FIELDS, f"node {raw.get('id')!r}", strict, warnings)
            nodes.append(
                ContentNode(
                    id=str(raw["id"]),
                    kind=_member(_NODE_KINDS, NodeKind, raw["kind"]),
                    label=str(raw.get("label", "")),
                    function_id=_optional_str(raw, "function_id", "node"),
                    taint_role=_member(_TAINT_ROLES, TaintRole, raw.get("taint_role", "none")),
                    source_kind=_optional_str(raw, "source_kind", "node"),
                    sink_kind=_optional_str(raw, "sink_kind", "node"),
                )
            )
        edges = []
        for raw in _objects(doc, "edges"):
            if not raw.keys() <= _EDGE_FIELDS:
                _unknown_fields(raw, _EDGE_FIELDS, f"edge {raw.get('id')!r}", strict, warnings)
            guard_tags = raw.get("guard_tags", [])
            # Most edges carry no tags: skip the element check for those.
            if not isinstance(guard_tags, list) or (guard_tags and not _all_strings(guard_tags)):
                raise GraphParseError(
                    f"edge {raw.get('id')!r}: guard_tags must be a JSON array of strings"
                )
            edges.append(
                AccessPathEdge(
                    id=str(raw["id"]),
                    src=str(raw["from"]),
                    dst=str(raw["to"]),
                    kind=_member(_EDGE_KINDS, EdgeKind, raw["kind"]),
                    visible_to_forward=_flag(raw, "visible_to_forward", True, "edge"),
                    guard_tags=frozenset(guard_tags) if guard_tags else _NO_TAGS,
                )
            )
        functions = []
        for raw in _objects(doc, "functions"):
            if not raw.keys() <= _FUNCTION_FIELDS:
                _unknown_fields(raw, _FUNCTION_FIELDS, f"function {raw.get('id')!r}", strict,
                                warnings)
            parameters = raw.get("parameters", [])
            if not isinstance(parameters, list) or not _all_strings(parameters):
                raise GraphParseError(
                    f"function {raw.get('id')!r}: parameters must be a JSON array of strings"
                )
            functions.append(
                FunctionDecl(
                    id=str(raw["id"]),
                    name=str(raw.get("name", raw["id"])),
                    parameters=tuple(parameters),
                    return_node=_optional_str(raw, "return_node", "function"),
                    is_entry_point=_flag(raw, "is_entry_point", False, "function"),
                )
            )
        call_edges = []
        for raw in _objects(doc, "call_edges"):
            if not raw.keys() <= _CALL_EDGE_FIELDS:
                _unknown_fields(raw, _CALL_EDGE_FIELDS, "call edge", strict, warnings)
            call_edges.append(
                CallEdge(
                    caller=str(raw["caller"]),
                    callee=str(raw["callee"]),
                    call_site_node=str(raw["call_site_node"]),
                )
            )
        anchors = []
        for raw in _objects(doc, "anchors"):
            if not raw.keys() <= _ANCHOR_FIELDS:
                _unknown_fields(raw, _ANCHOR_FIELDS, "anchor", strict, warnings)
            anchors.append(
                Anchor(
                    file=str(raw["file"]),
                    start_line=_anchor_line(raw, "start_line"),
                    end_line=_anchor_line(raw, "end_line"),
                    node_id=str(raw["node_id"]),
                )
            )
    except KeyError as exc:
        raise GraphParseError(f"missing required field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise GraphParseError(f"invalid enum or numeric value: {exc}") from exc
    except TypeError as exc:
        raise GraphParseError(f"invalid value type: {exc}") from exc
    source_files = doc.get("source_files", [])
    if not isinstance(source_files, list) or not _all_strings(source_files):
        raise GraphParseError("source_files must be a JSON array of strings")
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
