"""End-to-end pipeline wiring and report generation.

Stages: dependency scan -> advisory retrieval and gating -> PoC
generation -> sink assembly -> forward flow search (with backward
recovery for unreached sinks) -> review -> export. Non-fatal stage
errors are recorded in the report and the pipeline continues.

Given offline fixtures and replay backends the whole run is
deterministic: two runs with the same config digest produce
byte-identical report.json.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, TextIO

from argus import __version__
from argus.advisories import (
    AdvisoryRecord,
    OfflineFixtureTransport,
    check_gate_weights,
    gate_finding,
    query_authoritative,
    retrieve_community,
)
from argus.agent import (
    LiveHttpBackend,
    LLMBackend,
    ReplayBackend,
    ScriptedStubBackend,
    Transcript,
    load_transcript,
    meter_tokens,
)
from argus.deps import find_usages, parse_manifest
from argus.engine import (
    DEFAULT_MAX_FLOWS_PER_SINK,
    FlowQuery,
    forward_search,
    import_sarif,
)
from argus.errors import ArgusError, ConfigError, InvalidWeightsError, ManifestError
from argus.model import (
    DEFAULT_MAX_FLOW_LENGTH,
    DataFlow,
    ProgramGraph,
    TaintRole,
    load_program_graph,
    validate_flow,
)
from argus.poc import (
    CandidateOrigin,
    PoCArtifact,
    SinkCandidate,
    derive_sink_candidates,
    generate_poc,
    load_sink_registry,
    registry_sink_candidates,
)
from argus.recursion import (
    DEFAULT_MAX_DEPTH,
    StitchResult,
    backward_expand,
    promote_surrogates,
    stitch,
)
from argus.review import FinalStatus, ReviewVerdict, review_flow

REPORT_VERSION = "1"


@dataclass
class PipelineConfig:
    graph_path: str
    manifest_paths: list[str] = field(default_factory=list)
    fixtures_dir: Optional[str] = None  # offline retrieval; None disables retrieval
    llm: str = "stub"  # "stub" | "replay:<dir>" | "live"
    analysis_backend: str = "builtin"  # "builtin" | "sarif:<path>"
    gate_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    gate_threshold: float = 0.5
    max_flow_length: int = DEFAULT_MAX_FLOW_LENGTH
    max_flows_per_sink: int = DEFAULT_MAX_FLOWS_PER_SINK
    max_depth: int = DEFAULT_MAX_DEPTH
    out_dir: Optional[str] = None
    auto_confirm_forward_flows: bool = True
    review_mode: str = "rule"  # "rule" | "llm"
    scan_unused_dependencies: bool = True
    sink_registry_path: Optional[str] = None
    live_llm_endpoint: Optional[str] = None
    live_llm_model: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "graph_path": self.graph_path,
            "manifest_paths": list(self.manifest_paths),
            "fixtures_dir": self.fixtures_dir,
            "llm": self.llm,
            "analysis_backend": self.analysis_backend,
            "gate_weights": list(self.gate_weights),
            "gate_threshold": self.gate_threshold,
            "max_flow_length": self.max_flow_length,
            "max_flows_per_sink": self.max_flows_per_sink,
            "max_depth": self.max_depth,
            "auto_confirm_forward_flows": self.auto_confirm_forward_flows,
            "review_mode": self.review_mode,
            "scan_unused_dependencies": self.scan_unused_dependencies,
        }

    def digest(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()

    def validate(self) -> None:
        for name in ("graph_path", "llm", "analysis_backend"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("out_dir", "sink_registry_path", "live_llm_endpoint", "live_llm_model"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a string or null, got {getattr(self, name)!r}")
        self.validate_retrieval()
        if not os.path.exists(self.graph_path):
            raise ConfigError(f"graph file not found: {self.graph_path}")
        if self.llm.startswith("replay:"):
            replay_dir = self.llm.split(":", 1)[1]
            if not os.path.isdir(replay_dir):
                raise ConfigError(f"replay transcript directory not found: {replay_dir}")
        elif self.llm == "live":
            if not (self.live_llm_endpoint and self.live_llm_model):
                raise ConfigError("llm 'live' requires live_llm_endpoint and live_llm_model")
        elif self.llm != "stub":
            raise ConfigError(f"unknown llm backend spec: {self.llm!r}")
        if self.review_mode not in ("rule", "llm"):
            raise ConfigError(f"review_mode must be 'rule' or 'llm', got {self.review_mode!r}")
        for name in ("auto_confirm_forward_flows", "scan_unused_dependencies"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.analysis_backend.startswith("sarif:"):
            sarif_path = self.analysis_backend.split(":", 1)[1]
            if not os.path.exists(sarif_path):
                raise ConfigError(f"SARIF result file not found: {sarif_path}")
        elif self.analysis_backend != "builtin":
            raise ConfigError(f"unknown analysis backend: {self.analysis_backend!r}")
        self.validate_search_bounds()

    def validate_manifests(self) -> None:
        """Check the manifest paths, the only setting `argus deps` reads."""
        paths = self.manifest_paths
        if not isinstance(paths, list) or not all(isinstance(m, str) for m in paths):
            raise ConfigError(f"manifest_paths must be a list of strings, got {paths!r}")
        for m in paths:
            if not os.path.exists(m):
                raise ConfigError(f"manifest not found: {m}")

    def validate_retrieval(self) -> None:
        """Check the manifest paths, the fixture directory and the gate, the
        only settings `argus advisories` reads."""
        self.validate_manifests()
        fixtures = self.fixtures_dir
        if not isinstance(fixtures, (str, type(None))):
            raise ConfigError(f"fixtures_dir must be a string or null, got {fixtures!r}")
        if fixtures is not None and not os.path.isdir(fixtures):
            raise ConfigError(f"fixture directory not found: {fixtures}")
        threshold = self.gate_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise ConfigError(f"gate_threshold must be a number, got {threshold!r}")
        try:
            check_gate_weights(self.gate_weights)
        except InvalidWeightsError as exc:
            raise ConfigError(str(exc)) from exc

    def validate_search_bounds(self) -> None:
        """Check the bounds of forward search and backward recovery, the
        only settings `argus flows` reads besides the graph path."""
        for name in ("max_flow_length", "max_flows_per_sink", "max_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class Finding:
    sink_id: str
    sink_label: str
    sink_origin: CandidateOrigin
    flow: DataFlow
    verdict: ReviewVerdict
    advisory_id: Optional[str] = None
    poc: Optional[PoCArtifact] = None

    def to_dict(self) -> dict:
        return {
            "sink": {
                "node_id": self.sink_id,
                "label": self.sink_label,
                "origin": self.sink_origin.value,
            },
            "advisory": self.advisory_id,
            "poc_status": self.poc.status.value if self.poc else None,
            "flow": self.flow.to_dict(),
            "verdict": self.verdict.to_dict(),
        }


@dataclass
class VulnerabilityReport:
    config: PipelineConfig
    findings: list[Finding] = field(default_factory=list)
    sinks: list[dict] = field(default_factory=list)
    advisories: list[dict] = field(default_factory=list)
    poc_artifacts: list[dict] = field(default_factory=list)
    token_usage: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    stage_errors: list[str] = field(default_factory=list)

    @property
    def confirmed_count(self) -> int:
        return sum(
            1 for f in self.findings if f.verdict.final_status == FinalStatus.CONFIRMED
        )

    def summary(self) -> dict:
        sinks_by_origin: dict[str, int] = {}
        for s in self.sinks:
            sinks_by_origin[s["origin"]] = sinks_by_origin.get(s["origin"], 0) + 1
        verdicts: dict[str, int] = {}
        vulns_by_origin: dict[str, int] = {}
        for f in self.findings:
            status = f.verdict.final_status.value
            verdicts[status] = verdicts.get(status, 0) + 1
            if f.verdict.final_status != FinalStatus.REFUTED:
                origin = f.sink_origin.value
                vulns_by_origin[origin] = vulns_by_origin.get(origin, 0) + 1
        return {
            "candidate_sinks": len(self.sinks),
            "sinks_by_origin": dict(sorted(sinks_by_origin.items())),
            "flows_total": len(self.findings),
            "verdicts": dict(sorted(verdicts.items())),
            "vulnerabilities_by_sink_origin": dict(sorted(vulns_by_origin.items())),
            "confirmed": self.confirmed_count,
        }

    def to_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "tool_version": __version__,
            "config": self.config.to_dict(),
            "config_digest": self.config.digest(),
            "summary": self.summary(),
            "sinks": self.sinks,
            "advisories": self.advisories,
            "poc_artifacts": self.poc_artifacts,
            "findings": [f.to_dict() for f in self.findings],
            "token_usage": self.token_usage,
            "warnings": sorted(self.warnings),
            "stage_errors": sorted(self.stage_errors),
        }


# ---------------------------------------------------------------------------
# Backends


# What the stub backend answers at each stage: an empty artifact for a
# PoC, an empty hop list for a review (which then falls back to rules).
_STUB_ANSWERS = {"poc": "{}", "review": "[]"}


def _make_backend(config: PipelineConfig, stage: str, key: str) -> Optional[LLMBackend]:
    """The backend of one agent run at ``stage`` ("poc" or "review") for
    ``key``. Replay reads ``<stage>__<key>.jsonl`` and gives ``None`` when
    that file is missing. ``config`` must have passed ``validate``."""
    if config.llm == "stub":
        return ScriptedStubBackend([f"```final\n{_STUB_ANSWERS[stage]}\n```"])
    if config.llm == "live":
        return LiveHttpBackend(config.live_llm_endpoint, config.live_llm_model)
    replay_dir = config.llm.split(":", 1)[1]
    path = os.path.join(replay_dir, f"{stage}__{_safe_name(key)}.jsonl")
    if not os.path.exists(path):
        return None
    return ReplayBackend(load_transcript(path))


def _safe_name(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in text)


# ---------------------------------------------------------------------------
# Pipeline


def recover_flows(graph: ProgramGraph, sink_id: str, config: PipelineConfig) -> StitchResult:
    """Backward recovery for a sink forward search cannot reach: grow the
    sink's caller tree, search forward to the call sites at its leaves and
    stitch the flows found there back onto the sink."""
    tree = backward_expand(graph, sink_id, config.max_depth)
    targets = tuple(site for site in promote_surrogates(tree) if site != sink_id)
    if not targets:
        return StitchResult()
    query = FlowQuery(
        sinks=targets,
        max_length=config.max_flow_length,
        max_flows_per_sink=config.max_flows_per_sink,
    )
    return stitch(forward_search(graph, query), tree, graph)


def run_pipeline(config: PipelineConfig) -> VulnerabilityReport:
    config.validate()
    # Read before any stage runs, so a malformed registry file fails the
    # scan before an agent spends tokens.
    registry = load_sink_registry(config.sink_registry_path)
    report = VulnerabilityReport(config=config)
    graph = load_program_graph(config.graph_path, strict=True)

    # Stage 1: dependency scan.
    deps = []
    for manifest in config.manifest_paths:
        try:
            deps.extend(parse_manifest(manifest))
        except ManifestError as exc:
            report.stage_errors.append(f"dependency_scan: {exc}")
    usages = {dep.name: find_usages(graph, dep) for dep in deps}

    # Stage 2: advisory retrieval and community gating.
    advisories: list[AdvisoryRecord] = []
    if config.fixtures_dir is not None and deps:
        transport = OfflineFixtureTransport(config.fixtures_dir)
        for dep in deps:
            if not config.scan_unused_dependencies and not usages[dep.name].used:
                continue
            advisories.extend(
                query_authoritative(dep, transport, warnings=report.warnings)
            )
            for issue in retrieve_community(dep, transport, warnings=report.warnings):
                finding = gate_finding(issue, config.gate_weights, config.gate_threshold)
                report.advisories.append({
                    "source": "community",
                    "identifier": issue.url or issue.title,
                    "dependency": dep.name,
                    "scores": {
                        "relevance": finding.relevance,
                        "credibility": finding.credibility,
                        "quality": finding.quality,
                        "aggregate": finding.aggregate,
                    },
                    "passed_gate": finding.passed_gate,
                })
                if finding.passed_gate:
                    advisories.append(AdvisoryRecord(
                        source="community",
                        identifier=issue.url or issue.title,
                        description=f"{issue.title}\n{issue.body}",
                        dependency=dep.name,
                    ))
    advisories.sort(key=lambda a: a.identifier)
    for adv in advisories:
        report.advisories.append({
            "source": adv.source,
            "identifier": adv.identifier,
            "severity": adv.severity.value,
            "cve_id": adv.cve_id,
            "dependency": adv.dependency,
        })

    # Stage 3: PoC generation per advisory.
    poc_transcripts: list[Transcript] = []
    pocs: dict[str, PoCArtifact] = {}
    for adv in advisories:
        backend = _make_backend(config, "poc", adv.identifier)
        if backend is None:
            report.warnings.append(
                f"poc: no replay transcript for advisory {adv.identifier}; skipped"
            )
            continue
        usage = usages.get(adv.dependency)
        context = (
            f"dependency {adv.dependency} used at nodes: "
            + (", ".join(usage.node_ids) if usage and usage.used else "(no usages found)")
        )
        try:
            artifact = generate_poc(adv, context, backend)
        except ArgusError as exc:
            report.stage_errors.append(f"poc {adv.identifier}: {exc}")
            continue
        pocs[adv.identifier] = artifact
        if artifact.transcript is not None:
            poc_transcripts.append(artifact.transcript)
        report.poc_artifacts.append(artifact.to_dict())

    # Stage 4: sink assembly.
    candidates: list[SinkCandidate] = list(registry_sink_candidates(graph, registry))
    candidate_advisory: dict[str, str] = {}
    for adv_id in sorted(pocs):
        for cand in derive_sink_candidates(pocs[adv_id], graph):
            candidates.append(cand)
            for node_id in cand.matched_node_ids:
                candidate_advisory.setdefault(node_id, adv_id)

    # A node claimed by both origins is attributed to the static registry:
    # the agentic path only gets credit for sinks static tooling lacks.
    sink_origin: dict[str, CandidateOrigin] = {}
    sink_kind: dict[str, str] = {}
    for cand in candidates:
        for node_id in cand.matched_node_ids:
            if cand.origin == CandidateOrigin.STATIC_REGISTRY:
                sink_origin[node_id] = CandidateOrigin.STATIC_REGISTRY
                sink_kind[node_id] = cand.sink_kind
            elif node_id not in sink_origin:
                sink_origin[node_id] = cand.origin
                sink_kind[node_id] = cand.sink_kind
    # Sinks already marked in the graph count as statically known.
    for node in graph.nodes_by_role(TaintRole.SINK):
        sink_origin.setdefault(node.id, CandidateOrigin.STATIC_REGISTRY)
        sink_kind.setdefault(node.id, node.sink_kind or "unknown")

    graph = graph.with_sinks(sink_kind)
    for node_id in sorted(sink_origin):
        report.sinks.append({
            "node_id": node_id,
            "label": graph.nodes[node_id].label,
            "origin": sink_origin[node_id].value,
            "sink_kind": sink_kind[node_id],
            "advisory": candidate_advisory.get(node_id),
        })

    # Stage 5+6: flow search with backward recovery, then review.
    sarif_flows: list[DataFlow] = []
    if config.analysis_backend.startswith("sarif:"):
        sarif_path = config.analysis_backend.split(":", 1)[1]
        sarif_result = import_sarif(sarif_path, graph, max_length=config.max_flow_length)
        sarif_flows = sarif_result.flows
        report.warnings.extend(sarif_result.skipped)

    review_transcripts: list[Transcript] = []
    for sink_id in sorted(sink_origin):
        if config.analysis_backend.startswith("sarif:"):
            flows = [f for f in sarif_flows if f.sink == sink_id]
        else:
            query = FlowQuery(
                sinks=(sink_id,),
                max_length=config.max_flow_length,
                max_flows_per_sink=config.max_flows_per_sink,
            )
            flows = forward_search(graph, query)

        if not flows:
            recovered = recover_flows(graph, sink_id, config)
            report.warnings.extend(recovered.dropped)
            flows = [s.combined for s in recovered.flows]

        for i, flow in enumerate(flows):
            # Validate first, so a flow that is dropped is never reviewed
            # and its review tokens are never metered.
            check = validate_flow(flow, graph, allow_bridged=True)
            if not check.ok:
                report.stage_errors.append(
                    f"flow to {sink_id} failed validation: " + "; ".join(check.violations)
                )
                continue
            review_backend = (
                _make_backend(config, "review", f"{sink_id}__{i}")
                if config.review_mode == "llm" else None
            )
            verdict = review_flow(
                flow,
                graph,
                backend=review_backend,
                auto_confirm_forward_flows=config.auto_confirm_forward_flows,
            )
            if verdict.transcript is not None:
                review_transcripts.append(verdict.transcript)
            advisory_id = candidate_advisory.get(sink_id)
            report.findings.append(Finding(
                sink_id=sink_id,
                sink_label=graph.nodes[sink_id].label,
                sink_origin=sink_origin[sink_id],
                flow=flow,
                verdict=verdict,
                advisory_id=advisory_id,
                poc=pocs.get(advisory_id) if advisory_id else None,
            ))

    report.findings.sort(key=lambda f: (f.sink_id, f.flow.edge_ids))
    report.token_usage = meter_tokens(
        {"poc": poc_transcripts, "review": review_transcripts}
    ).to_dict()
    return report


# ---------------------------------------------------------------------------
# Export


def export_report(report: VulnerabilityReport, out_dir: str) -> dict[str, str]:
    """Write report.json and report.md; byte-stable for identical reports.

    Each file is written whole or not at all: a scan killed mid-write
    leaves the previous report in place, never a truncated one.
    """
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    md_path = os.path.join(out_dir, "report.md")
    doc = report.to_dict()
    with _replacing(json_path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with _replacing(md_path) as fh:
        fh.write(render_markdown(report))
    return {"json": json_path, "markdown": md_path}


@contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A temporary file beside ``path`` to write to, renamed over ``path``
    when the block ends without error and removed when it raises. Taking a
    file, not a string, lets ``json.dump`` stream the report instead of
    holding its whole text in memory."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_markdown(report: VulnerabilityReport) -> str:
    summary = report.summary()
    lines = [
        "# Vulnerability Report",
        "",
        f"Tool version: {__version__}  ",
        f"Config digest: `{report.config.digest()}`",
        "",
        "## Summary",
        "",
        f"- Candidate sinks: {summary['candidate_sinks']}",
        f"- Sinks by origin: {summary['sinks_by_origin']}",
        f"- Flows analyzed: {summary['flows_total']}",
        f"- Verdicts: {summary['verdicts']}",
        f"- Vulnerabilities by sink origin: {summary['vulnerabilities_by_sink_origin']}",
        "",
        "## Token usage",
        "",
        f"```\n{json.dumps(report.token_usage, indent=2, sort_keys=True)}\n```",
        "",
        "## Findings",
        "",
    ]
    if not report.findings:
        lines.append("No candidate flows.")
    for i, f in enumerate(report.findings, start=1):
        lines.append(f"### Finding {i}: {f.sink_label or f.sink_id}")
        lines.append("")
        lines.append(f"- Sink node: `{f.sink_id}` (origin: {f.sink_origin.value})")
        if f.advisory_id:
            lines.append(f"- Advisory: {f.advisory_id}")
        lines.append(f"- Flow origin: {f.flow.origin.value}, length {len(f.flow.triples)}")
        lines.append(f"- Status: **{f.verdict.final_status.value}**")
        if f.verdict.interrupting_constructs:
            lines.append(f"- Interrupting constructs: {f.verdict.interrupting_constructs}")
        lines.append("")
        lines.append("| hop | path | via | neutralization |")
        lines.append("|-----|------|-----|----------------|")
        for hop, t in zip(f.verdict.hops, f.flow.triples):
            bridged = " (bridged)" if t.edge.bridged else ""
            lines.append(
                f"| {hop.position} | {hop.content_and_path} | "
                f"{t.edge.kind.value}{bridged} | {hop.neutralization.value} |"
            )
        lines.append("")
    return "\n".join(lines) + "\n"
