"""Candidate-flow review: reachability, hop-by-hop audit, verdict.

:func:`review_flow` is the one entry point. It flags the interrupting
constructs on the flow's edges, assesses each hop, and adjudicates a
verdict under a fixed fatality policy. Rule mode is fully deterministic:
edge guard tags are checked against an interrupting-construct lexicon
and a neutralization mapping. LLM mode runs when an agent backend is
passed in: it requests the hop breakdown from the backend and falls back
to the rules (recording the fallback) whenever the payload does not
match the expected schema.

Each distinct flow step ``(from, edge, to)`` is described and
rule-assessed once per scan (one ``shared`` table), and flows that share
a step share its hop assessment. The LLM conversation stays per flow,
and equal hops parsed from the answers are built once per table.

Stitched flows carrying synthesized bridge edges can never be
auto-confirmed; they always require human sign-off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from argus.agent import LLMBackend, Transcript, run_react_loop
from argus.model import DataFlow, FlowTriple, ProgramGraph, SharedDict, TaintRole


class Neutralization(str, Enum):
    NONE = "none"
    VALIDATION = "validation"
    SANITIZATION = "sanitization"
    ENCODING = "encoding"
    TYPE_CAST = "type-cast"


# guard tag -> interrupting construct name
INTERRUPTING_LEXICON = {
    "validated": "validation",
    "guarded": "control-flow guard",
    "caught": "exception handler",
}

# Which interrupting constructs kill reachability outright. Exception
# handlers may rethrow, so they are flagged but non-fatal by default.
DEFAULT_FATAL_TAGS = frozenset({"validated", "guarded"})

# guard tag -> hop neutralization
NEUTRALIZING_TAGS = {
    "validated": Neutralization.VALIDATION,
    "sanitized": Neutralization.SANITIZATION,
    "encoded": Neutralization.ENCODING,
    "cast": Neutralization.TYPE_CAST,
}

# Neutralizations that refute a flow on their own; encoding and casts
# downgrade to needs-human instead.
DEFAULT_FATAL_NEUTRALIZATIONS = frozenset(
    {Neutralization.VALIDATION, Neutralization.SANITIZATION}
)


class ReviewMode(str, Enum):
    RULE = "rule"
    LLM = "llm"


class FinalStatus(str, Enum):
    CONFIRMED = "confirmed"
    REFUTED = "refuted"
    NEEDS_HUMAN = "needs-human"


@dataclass(frozen=True)
class HopAssessment:
    position: int  # 1-based triple index
    entry_description: str
    content_and_path: str
    neutralization: Neutralization = Neutralization.NONE
    justification: str = ""

    def __post_init__(self):
        if self.neutralization != Neutralization.NONE and not self.justification:
            raise ValueError("non-none neutralization requires a justification")

    def to_dict(self) -> dict:
        return {
            "position": self.position,
            "entry_description": self.entry_description,
            "content_and_path": self.content_and_path,
            "neutralization": self.neutralization.value,
            "justification": self.justification,
        }


@dataclass
class ReviewVerdict:
    reachable: bool
    interrupting_constructs: list[str]
    hops: list[HopAssessment]
    final_status: FinalStatus
    mode: ReviewMode = ReviewMode.RULE
    fell_back_to_rule: bool = False
    transcript: Optional[Transcript] = None

    def to_dict(self, shared: Optional[dict] = None) -> dict:
        """The verdict as report JSON. Each hop object's dict is a
        :class:`~argus.model.SharedDict` built once per ``shared`` table, keyed
        by ``id`` (the caller keeps the hops alive), and every verdict holding
        the hop holds the same dict. Without a table, the verdict uses its own."""
        if shared is None:
            shared = {}
        hops = []
        for h in self.hops:
            d = shared.get(id(h))
            if d is None:
                d = shared[id(h)] = SharedDict(h.to_dict())
            hops.append(d)
        return {
            "reachable": self.reachable,
            "interrupting_constructs": list(self.interrupting_constructs),
            "hops": hops,
            "final_status": self.final_status.value,
            "mode": self.mode.value,
            "fell_back_to_rule": self.fell_back_to_rule,
        }


class _Step:
    """What review reads of one flow step ``(from, edge, to)``: its hop
    texts, its prompt line, its rule neutralization and its interrupting
    constructs, plus the rule :class:`HopAssessment` of each position it
    takes. It depends only on the step and the graph, so :func:`_steps`
    builds it once per table and flows that share the step share it."""

    __slots__ = ("edge", "entry", "content", "prompt", "neutralization",
                 "justification", "constructs", "fatal", "hops")

    def __init__(self, t: FlowTriple, graph: ProgramGraph):
        edge = self.edge = t.edge  # held, so the id in the step's key stays its own
        from_label = graph.nodes[t.from_node].label if t.from_node in graph.nodes else t.from_node
        to_label = graph.nodes[t.to_node].label if t.to_node in graph.nodes else t.to_node
        kind = edge.kind.value
        self.entry = (
            f"taint enters via {kind} edge {edge.id}"
            + (" (bridged gap)" if edge.bridged else "")
        )
        self.content = f"{from_label or t.from_node} -> {to_label or t.to_node}"
        tags = sorted(edge.guard_tags)
        self.prompt = f"{self.content} via {kind} [tags: {','.join(tags) or '-'}]"
        # Every guard tag in the lexicon is flagged; a fatal one kills
        # reachability.
        self.constructs = [
            f"{INTERRUPTING_LEXICON[tag]} (edge {edge.id})"
            for tag in tags if tag in INTERRUPTING_LEXICON
        ]
        self.fatal = not DEFAULT_FATAL_TAGS.isdisjoint(tags)
        # The first neutralizing tag, else a sanitizer endpoint.
        self.neutralization = Neutralization.NONE
        self.justification = ""
        for tag in tags:
            mapped = NEUTRALIZING_TAGS.get(tag)
            if mapped is not None:
                self.neutralization = mapped
                self.justification = f"edge {edge.id} tagged {tag!r}"
                break
        else:
            for endpoint in (t.from_node, t.to_node):
                node = graph.nodes.get(endpoint)
                if node is not None and node.taint_role == TaintRole.SANITIZER:
                    self.neutralization = Neutralization.SANITIZATION
                    self.justification = f"node {endpoint} is a sanitizer"
                    break
        self.hops: dict[int, HopAssessment] = {}

    def hop(self, position: int) -> HopAssessment:
        h = self.hops.get(position)
        if h is None:
            h = self.hops[position] = HopAssessment(
                position, self.entry, self.content, self.neutralization, self.justification
            )
        return h


def _steps(flow: DataFlow, graph: ProgramGraph, shared: dict) -> list[_Step]:
    """The flow's steps, each built once per ``shared`` table, keyed like
    :meth:`DataFlow.to_dict` by its endpoints and its edge object."""
    steps = []
    for t in flow.triples:
        key = (t.from_node, id(t.edge), t.to_node)
        step = shared.get(key)
        if step is None:
            step = shared[key] = _Step(t, graph)
        steps.append(step)
    return steps


REVIEW_SYSTEM_PROMPT = (
    "You audit candidate taint flows hop by hop. For each hop report how "
    "taint enters, the content and path involved, and whether validation, "
    "sanitization, encoding, or a type cast neutralizes it. Answer with a "
    "final block containing a JSON array, one object per hop, with keys: "
    "position, entry_description, content_and_path, neutralization, "
    "justification."
)

_NEUTRALIZATIONS = {n.value: n for n in Neutralization}
_TEXT_FIELDS = ("entry_description", "content_and_path", "justification")


def _parse_llm_hops(payload: str, n_triples: int, table: dict) -> Optional[list[HopAssessment]]:
    """The answer's hops, or None when it does not fit the schema: an array
    of one object per hop, whose ``position`` is the hop's integer index and
    whose text fields are strings when present. Equal hops are built once per ``table``."""
    try:
        doc = json.loads(payload)
    except (json.JSONDecodeError, RecursionError):  # not JSON, or nested too deep
        return None
    if not isinstance(doc, list) or len(doc) != n_triples:
        return None
    hops = []
    for i, raw in enumerate(doc, start=1):
        if not isinstance(raw, dict):
            return None
        position = raw.get("position")
        if type(position) is not int or position != i:
            return None
        value = raw.get("neutralization", "none")
        neut = _NEUTRALIZATIONS.get(value) if isinstance(value, str) else None
        if neut is None:
            return None
        texts = [raw.get(k, "") for k in _TEXT_FIELDS]
        if not all(isinstance(text, str) for text in texts):
            return None
        key = ("hop", i, value, *texts)
        hop = table.get(key)
        if hop is None:
            entry, content, justification = texts
            try:
                hop = table[key] = HopAssessment(i, entry, content, neut, justification)
            except ValueError:
                return None
        hops.append(hop)
    return hops


def review_flow(
    flow: DataFlow,
    graph: ProgramGraph,
    *,
    backend: Optional[LLMBackend] = None,
    shared: Optional[dict] = None,
) -> ReviewVerdict:
    """Review one candidate flow: its reachability, one assessment per hop,
    and a three-way verdict.

    The hops come from ``backend`` when one is given and its answer fits
    the schema, else from the rules: one assessment per step, from its
    edge's guard tags and its sanitizer endpoints (recorded as
    ``fell_back_to_rule`` when a backend was given). The verdict is
    refuted when a fatal construct or fatal neutralization exists;
    confirmed when the flow is reachable, every hop is clean and no edge
    is bridged; needs-human otherwise.

    Each distinct step of the flow is described and rule-assessed once per
    ``shared`` table, which must serve one graph; flows reviewed through
    one table share their steps' hop assessments, and equal LLM hops.
    Without a table, the call uses a table of its own.
    """
    shared = {} if shared is None else shared
    steps = _steps(flow, graph, shared)
    reachable = not any(s.fatal for s in steps)
    constructs = [c for s in steps for c in s.constructs]
    hops = transcript = None
    if backend is not None:
        task = "\n".join(
            ["Candidate flow:"] + [f"{i}. {s.prompt}" for i, s in enumerate(steps, start=1)]
        )
        outcome = run_react_loop(REVIEW_SYSTEM_PROMPT, task, {}, backend)
        transcript = outcome.transcript
        hops = _parse_llm_hops(outcome.final_payload, len(steps), shared)
    fell_back = backend is not None and hops is None
    if hops is None:
        hops = [s.hop(i) for i, s in enumerate(steps, start=1)]
    found = {h.neutralization for h in hops}
    if not reachable or not found.isdisjoint(DEFAULT_FATAL_NEUTRALIZATIONS):
        status = FinalStatus.REFUTED
    elif not flow.has_bridged_edge and found <= {Neutralization.NONE}:
        status = FinalStatus.CONFIRMED
    else:
        status = FinalStatus.NEEDS_HUMAN
    return ReviewVerdict(
        reachable=reachable,
        interrupting_constructs=constructs,
        hops=hops,
        final_status=status,
        mode=ReviewMode.RULE if backend is None else ReviewMode.LLM,
        fell_back_to_rule=fell_back,
        transcript=transcript,
    )
