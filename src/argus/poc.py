"""Proof-of-concept generation and sink-candidate derivation.

For each gated advisory an agent loop restates the vulnerability, reasons
about root cause / code pattern / attack scenario, and emits trigger code
plus a patch as a JSON payload. Candidate sink callables are then
extracted from the artifact text and bound to program-graph nodes by
exact or dotted-suffix label match, both looked up in the graph's label
index. A built-in registry of well-known dangerous callables provides the
non-agentic baseline candidates, so reports can split findings by sink
origin.

Trigger code is never executed; "verified" means the payload is
schema-complete.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Optional

from argus.advisories import AdvisoryRecord
from argus.agent import LLMBackend, Transcript, run_react_loop
from argus.errors import ConfigError
from argus.model import ProgramGraph

_IDENTIFIER = re.compile(
    r"\b[A-Za-z_][A-Za-z0-9_$]*(?:\.[A-Za-z_][A-Za-z0-9_$]*)+\b"
)

POC_SYSTEM_PROMPT = (
    "You are a security analyst. Re-describe the reported vulnerability, "
    "reason about its root cause, the affected code pattern, and a realistic "
    "attack scenario, then produce trigger code and a patch. Answer with a "
    "single final block containing a JSON object with keys: "
    "restated_description, root_cause, code_pattern, attack_scenario, "
    "trigger_code, patch, explanation."
)

_POC_FIELDS = (
    "restated_description",
    "root_cause",
    "code_pattern",
    "attack_scenario",
    "trigger_code",
    "patch",
    "explanation",
)


class PoCStatus(str, Enum):
    VERIFIED = "verified"
    PLAUSIBLE = "plausible"
    REJECTED = "rejected"


@dataclass
class PoCArtifact:
    advisory: AdvisoryRecord
    restated_description: str = ""
    root_cause: str = ""
    code_pattern: str = ""
    attack_scenario: str = ""
    trigger_code: str = ""
    patch: str = ""
    explanation: str = ""
    status: PoCStatus = PoCStatus.REJECTED
    raw_payload: str = ""
    transcript: Optional[Transcript] = None

    def __post_init__(self):
        if self.status == PoCStatus.VERIFIED and not (self.trigger_code and self.patch):
            raise ValueError("verified artifacts require trigger_code and patch")

    def to_dict(self) -> dict:
        return {
            "advisory": self.advisory.identifier,
            "restated_description": self.restated_description,
            "root_cause": self.root_cause,
            "code_pattern": self.code_pattern,
            "attack_scenario": self.attack_scenario,
            "trigger_code": self.trigger_code,
            "patch": self.patch,
            "explanation": self.explanation,
            "status": self.status.value,
        }


class CandidateOrigin(str, Enum):
    ADVISORY_POC = "advisory_poc"
    STATIC_REGISTRY = "static_registry"


class MatchConfidence(str, Enum):
    EXACT = "exact"
    FUZZY = "fuzzy"


@dataclass(frozen=True)
class SinkCandidate:
    callable_name: str
    matched_node_ids: tuple[str, ...]
    origin: CandidateOrigin
    confidence: MatchConfidence
    sink_kind: str = "unknown"


def generate_poc(
    advisory: AdvisoryRecord,
    context: str,
    backend: LLMBackend,
) -> PoCArtifact:
    """Run the agent workflow for one advisory and parse its payload.

    Schema-invalid payloads yield a rejected artifact with the raw payload
    preserved for audit; they never abort the pipeline.
    """
    task = (
        f"Advisory {advisory.identifier} ({advisory.source}) affecting "
        f"{advisory.dependency} {advisory.affected_versions}:\n"
        f"{advisory.description}\n\nUsage context:\n{context}"
    )
    outcome = run_react_loop(POC_SYSTEM_PROMPT, task, {}, backend)
    artifact = parse_poc_payload(advisory, outcome.final_payload)
    artifact.transcript = outcome.transcript
    return artifact


def parse_poc_payload(advisory: AdvisoryRecord, payload: str) -> PoCArtifact:
    try:
        doc = json.loads(payload)
        if not isinstance(doc, dict):
            raise ValueError("payload is not a JSON object")
        fields = {k: str(doc.get(k, "")) for k in _POC_FIELDS}
    except (json.JSONDecodeError, ValueError):
        return PoCArtifact(advisory=advisory, status=PoCStatus.REJECTED, raw_payload=payload)
    if not any(fields.values()):
        return PoCArtifact(advisory=advisory, status=PoCStatus.REJECTED, raw_payload=payload)
    complete = all(fields[k] for k in _POC_FIELDS)
    status = PoCStatus.VERIFIED if complete else PoCStatus.PLAUSIBLE
    return PoCArtifact(advisory=advisory, status=status, raw_payload=payload, **fields)


def extract_callable_names(*texts: str) -> list[str]:
    """Dotted identifiers of >= 2 segments, deduplicated, sorted."""
    names: set[str] = set()
    for text in texts:
        names.update(_IDENTIFIER.findall(text))
    return sorted(names)


def _match_label(graph: ProgramGraph, name: str) -> tuple[MatchConfidence, tuple[str, ...]]:
    """Sorted ids of the nodes labelled exactly ``name``; failing those,
    of the nodes whose label ends in the dot-segments of ``name``."""
    labels = graph.label_index()
    exact_ids = labels.exact(name)
    if exact_ids:
        return MatchConfidence.EXACT, tuple(exact_ids)
    return MatchConfidence.FUZZY, tuple(labels.ending(name))


def derive_sink_candidates(poc: PoCArtifact, graph: ProgramGraph) -> list[SinkCandidate]:
    """Bind callable names mentioned by a PoC to graph nodes.

    Exact label matches come first, then suffix (fuzzy) matches; names
    with no match are retained with an empty node list so they can still
    seed downstream registry matching.
    """
    exact: list[SinkCandidate] = []
    fuzzy: list[SinkCandidate] = []
    for name in extract_callable_names(poc.trigger_code, poc.code_pattern):
        confidence, node_ids = _match_label(graph, name)
        (exact if confidence == MatchConfidence.EXACT else fuzzy).append(SinkCandidate(
            callable_name=name,
            matched_node_ids=node_ids,
            origin=CandidateOrigin.ADVISORY_POC,
            confidence=confidence,
        ))
    return exact + fuzzy


def load_sink_registry(path: Optional[str] = None) -> dict[str, list[str]]:
    """Load the bundled (or a user-supplied) registry of dangerous callables:
    a JSON object mapping each sink kind to a list of callable names.

    Raises :class:`ConfigError` naming ``path`` when that file cannot be read
    as JSON or does not have that shape.
    """
    if path is None:
        with resources.files("argus").joinpath("data/sink_registry.json").open(
            "r", encoding="utf-8"
        ) as fh:
            return json.load(fh)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            registry = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read sink registry {path}: {exc}") from exc
    if not isinstance(registry, dict) or not all(
        isinstance(names, list) and all(isinstance(n, str) for n in names)
        for names in registry.values()
    ):
        raise ConfigError(
            f"sink registry {path} must be a JSON object mapping each sink kind "
            "to a list of strings"
        )
    return registry


def registry_sink_candidates(
    graph: ProgramGraph, registry: Optional[dict[str, list[str]]] = None
) -> list[SinkCandidate]:
    """Match registry callables against graph labels (exact or suffix)."""
    if registry is None:
        registry = load_sink_registry()
    out: list[SinkCandidate] = []
    for sink_kind in sorted(registry):
        for name in sorted(registry[sink_kind]):
            confidence, node_ids = _match_label(graph, name)
            if node_ids:
                out.append(SinkCandidate(
                    callable_name=name,
                    matched_node_ids=node_ids,
                    origin=CandidateOrigin.STATIC_REGISTRY,
                    confidence=confidence,
                    sink_kind=sink_kind,
                ))
    return out
