"""Candidate-flow review: reachability, hop-by-hop audit, verdict.

Rule mode is fully deterministic: edge guard tags are checked against an
interrupting-construct lexicon and a neutralization mapping, with a
fixed fatality policy. LLM mode runs when an agent backend is passed in:
it requests the hop breakdown from the backend and falls back to rule
mode (recording the fallback) whenever the payload does not match the
expected schema.

Stitched flows carrying synthesized bridge edges can never be
auto-confirmed; they always require human sign-off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from argus.agent import LLMBackend, Transcript, run_react_loop
from argus.model import DataFlow, FlowTriple, ProgramGraph, TaintRole


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


@dataclass
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
class ReachabilityFinding:
    reachable: bool
    interrupting_constructs: list[str] = field(default_factory=list)


@dataclass
class ReviewVerdict:
    flow: DataFlow
    reachable: bool
    interrupting_constructs: list[str]
    hops: list[HopAssessment]
    final_status: FinalStatus
    mode: ReviewMode = ReviewMode.RULE
    fell_back_to_rule: bool = False
    transcript: Optional[Transcript] = None

    def to_dict(self, shared: Optional[dict] = None) -> dict:
        """The verdict as report JSON. Each distinct hop assessment's dict is
        built once per ``shared`` table, and every verdict with an equal hop
        holds the same dict. Without a table, the verdict uses a table of its
        own."""
        if shared is None:
            shared = {}
        hops = []
        for h in self.hops:
            key = (
                h.position,
                h.entry_description,
                h.content_and_path,
                h.neutralization,
                h.justification,
            )
            d = shared.get(key)
            if d is None:
                d = shared[key] = h.to_dict()
            hops.append(d)
        return {
            "reachable": self.reachable,
            "interrupting_constructs": list(self.interrupting_constructs),
            "hops": hops,
            "final_status": self.final_status.value,
            "mode": self.mode.value,
            "fell_back_to_rule": self.fell_back_to_rule,
        }


def review_end_to_end(flow: DataFlow, graph: ProgramGraph) -> ReachabilityFinding:
    """Flag interrupting constructs along the flow; fatal ones kill
    reachability per the policy table."""
    constructs: list[str] = []
    fatal = False
    for t in flow.triples:
        for tag in sorted(t.edge.guard_tags):
            construct = INTERRUPTING_LEXICON.get(tag)
            if construct is None:
                continue
            constructs.append(f"{construct} (edge {t.edge.id})")
            if tag in DEFAULT_FATAL_TAGS:
                fatal = True
    return ReachabilityFinding(reachable=not fatal, interrupting_constructs=constructs)


def _describe_hop(t: FlowTriple, graph: ProgramGraph, position: int) -> tuple[str, str]:
    from_label = graph.nodes[t.from_node].label if t.from_node in graph.nodes else t.from_node
    to_label = graph.nodes[t.to_node].label if t.to_node in graph.nodes else t.to_node
    entry = (
        f"taint enters via {t.edge.kind.value} edge {t.edge.id}"
        + (" (bridged gap)" if t.edge.bridged else "")
    )
    content = f"{from_label or t.from_node} -> {to_label or t.to_node}"
    return entry, content


def rule_hop_assessments(flow: DataFlow, graph: ProgramGraph) -> list[HopAssessment]:
    """One assessment per triple, derived from guard tags and
    sanitizer-adjacent nodes."""
    hops: list[HopAssessment] = []
    for i, t in enumerate(flow.triples, start=1):
        entry, content = _describe_hop(t, graph, i)
        neutralization = Neutralization.NONE
        justification = ""
        for tag in sorted(t.edge.guard_tags):
            mapped = NEUTRALIZING_TAGS.get(tag)
            if mapped is not None:
                neutralization = mapped
                justification = f"edge {t.edge.id} tagged {tag!r}"
                break
        if neutralization == Neutralization.NONE:
            for endpoint in (t.from_node, t.to_node):
                node = graph.nodes.get(endpoint)
                if node is not None and node.taint_role == TaintRole.SANITIZER:
                    neutralization = Neutralization.SANITIZATION
                    justification = f"node {endpoint} is a sanitizer"
                    break
        hops.append(HopAssessment(i, entry, content, neutralization, justification))
    return hops


REVIEW_SYSTEM_PROMPT = (
    "You audit candidate taint flows hop by hop. For each hop report how "
    "taint enters, the content and path involved, and whether validation, "
    "sanitization, encoding, or a type cast neutralizes it. Answer with a "
    "final block containing a JSON array, one object per hop, with keys: "
    "position, entry_description, content_and_path, neutralization, "
    "justification."
)

_VALID_NEUTRALIZATIONS = {n.value for n in Neutralization}


def _parse_llm_hops(payload: str, n_triples: int) -> Optional[list[HopAssessment]]:
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, list) or len(doc) != n_triples:
        return None
    hops = []
    for i, raw in enumerate(doc, start=1):
        if not isinstance(raw, dict):
            return None
        if raw.get("position") != i:
            return None
        neut = raw.get("neutralization", "none")
        if neut not in _VALID_NEUTRALIZATIONS:
            return None
        try:
            hops.append(HopAssessment(
                position=i,
                entry_description=str(raw.get("entry_description", "")),
                content_and_path=str(raw.get("content_and_path", "")),
                neutralization=Neutralization(neut),
                justification=str(raw.get("justification", "")),
            ))
        except ValueError:
            return None
    return hops


def review_hop_by_hop(
    flow: DataFlow,
    graph: ProgramGraph,
    *,
    backend: Optional[LLMBackend] = None,
) -> tuple[list[HopAssessment], bool, Optional[Transcript]]:
    """Return (assessments, fell_back_to_rule, transcript). The hops come
    from ``backend`` when one is given, else from the rules."""
    if backend is None:
        return rule_hop_assessments(flow, graph), False, None
    task_lines = ["Candidate flow:"]
    for i, t in enumerate(flow.triples, start=1):
        entry, content = _describe_hop(t, graph, i)
        tags = ",".join(sorted(t.edge.guard_tags)) or "-"
        task_lines.append(f"{i}. {content} via {t.edge.kind.value} [tags: {tags}]")
    outcome = run_react_loop(REVIEW_SYSTEM_PROMPT, "\n".join(task_lines), {}, backend)
    hops = _parse_llm_hops(outcome.final_payload, len(flow.triples))
    if hops is None:
        return rule_hop_assessments(flow, graph), True, outcome.transcript
    return hops, False, outcome.transcript


def finalize_verdict(
    flow: DataFlow,
    finding: ReachabilityFinding,
    hops: list[HopAssessment],
    *,
    mode: ReviewMode = ReviewMode.RULE,
    fell_back_to_rule: bool = False,
    transcript: Optional[Transcript] = None,
    auto_confirm_forward_flows: bool = True,
) -> ReviewVerdict:
    """Three-way adjudication.

    confirmed: reachable, every hop clean, no bridged edge (and
    auto-confirmation enabled); refuted: a fatal construct or fatal
    neutralization exists; needs-human: everything else.
    """
    bridged = flow.has_bridged_edge
    fatal_neut = any(h.neutralization in DEFAULT_FATAL_NEUTRALIZATIONS for h in hops)
    all_clean = all(h.neutralization == Neutralization.NONE for h in hops)
    if not finding.reachable or fatal_neut:
        status = FinalStatus.REFUTED
    elif finding.reachable and all_clean and not bridged and auto_confirm_forward_flows:
        status = FinalStatus.CONFIRMED
    else:
        status = FinalStatus.NEEDS_HUMAN
    return ReviewVerdict(
        flow=flow,
        reachable=finding.reachable,
        interrupting_constructs=finding.interrupting_constructs,
        hops=hops,
        final_status=status,
        mode=mode,
        fell_back_to_rule=fell_back_to_rule,
        transcript=transcript,
    )


def review_flow(
    flow: DataFlow,
    graph: ProgramGraph,
    *,
    backend: Optional[LLMBackend] = None,
    auto_confirm_forward_flows: bool = True,
) -> ReviewVerdict:
    """Full review of one candidate flow: by LLM when ``backend`` is
    given, else by rules."""
    finding = review_end_to_end(flow, graph)
    hops, fell_back, transcript = review_hop_by_hop(flow, graph, backend=backend)
    return finalize_verdict(
        flow,
        finding,
        hops,
        mode=ReviewMode.RULE if backend is None else ReviewMode.LLM,
        fell_back_to_rule=fell_back,
        transcript=transcript,
        auto_confirm_forward_flows=auto_confirm_forward_flows,
    )
