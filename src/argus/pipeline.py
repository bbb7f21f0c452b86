"""End-to-end pipeline wiring and report generation.

Stages: dependency scan -> advisory retrieval and gating -> PoC
generation, whose prompt lists the graph nodes that use the advisory's
dependency -> sink assembly -> forward flow search (with backward
recovery for unreached sinks) -> review -> export. Non-fatal stage
errors are recorded in the report and the pipeline continues.

Given offline fixtures and replay backends the whole run is
deterministic: two runs with the same config digest produce
byte-identical report.json.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Optional, TextIO

from argus import __version__
from argus.advisories import (
    DEFAULT_GATE_THRESHOLD,
    DEFAULT_GATE_WEIGHTS,
    AdvisoryRecord,
    check_gate_weights,
    gate_finding,
    is_finite_number,
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
from argus.deps import DependencyRecord, find_usages, parse_manifest
from argus.engine import (
    DEFAULT_MAX_FLOWS_PER_SINK,
    FlowQuery,
    forward_search,
    import_sarif,
)
from argus.errors import ArgusError, ConfigError, ManifestError
from argus.model import (
    DEFAULT_MAX_FLOW_LENGTH,
    DataFlow,
    ProgramGraph,
    SharedDict,
    TaintRole,
    gc_paused,
    load_program_graph,
    validate_flow,  # noqa: F401 - perfbench/spans.py patches it here by name
)
from argus.poc import (
    CandidateOrigin,
    PoCArtifact,
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

# CPython's built-in SHA-256, so a scan does not import ``hashlib``, which
# maps OpenSSL into the process (3.6 MB resident) to hash one config.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # before 3.12
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

REPORT_VERSION = "1"


@dataclass(frozen=True)
class PipelineConfig:
    graph_path: Optional[str] = None  # required by scan and flows
    manifest_paths: tuple[str, ...] = ()  # a list is accepted and stored as a tuple
    fixtures_dir: Optional[str] = None  # offline retrieval; None disables retrieval
    llm: str = "stub"  # "stub" | "replay:<dir>" | "live"
    analysis_backend: str = "builtin"  # "builtin" | "sarif:<path>"
    gate_weights: tuple[float, float, float] = DEFAULT_GATE_WEIGHTS  # a list too
    gate_threshold: float = DEFAULT_GATE_THRESHOLD
    max_flow_length: int = DEFAULT_MAX_FLOW_LENGTH
    max_flows_per_sink: int = DEFAULT_MAX_FLOWS_PER_SINK
    max_depth: int = DEFAULT_MAX_DEPTH
    out_dir: Optional[str] = None
    review_mode: str = "rule"  # "rule" | "llm"
    sink_registry_path: Optional[str] = None
    live_llm_endpoint: Optional[str] = None
    live_llm_model: Optional[str] = None

    def __post_init__(self) -> None:
        """Check every field's type and value, so that no invalid config
        exists; whether its input paths exist is :meth:`check_paths`'s.
        ``manifest_paths`` and ``gate_weights`` are stored as tuples, so
        that nothing can change a checked config and a config can be
        hashed."""
        if not isinstance(self.graph_path, (str, type(None))):
            raise ConfigError(f"graph_path must be a string, got {self.graph_path!r}")
        for name in ("fixtures_dir", "out_dir", "sink_registry_path",
                     "live_llm_endpoint", "live_llm_model"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a string or null, got {getattr(self, name)!r}")
        # os.makedirs raises ValueError, not OSError, for such a name.
        if self.out_dir is not None and not _is_file_name(self.out_dir):
            raise ConfigError(f"out_dir cannot name a directory: {self.out_dir!r}")
        paths = self.manifest_paths
        if not isinstance(paths, (list, tuple)) or not all(isinstance(m, str) for m in paths):
            raise ConfigError(f"manifest_paths must be a list of strings, got {paths!r}")
        object.__setattr__(self, "manifest_paths", tuple(paths))
        for name in ("llm", "analysis_backend"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.llm == "live":
            if not (self.live_llm_endpoint and self.live_llm_model):
                raise ConfigError("llm 'live' requires live_llm_endpoint and live_llm_model")
        elif self.llm != "stub" and not self.llm.startswith("replay:"):
            raise ConfigError(f"unknown llm backend spec: {self.llm!r}")
        if self.analysis_backend != "builtin" and not self.analysis_backend.startswith("sarif:"):
            raise ConfigError(f"unknown analysis backend: {self.analysis_backend!r}")
        if self.review_mode not in ("rule", "llm"):
            raise ConfigError(f"review_mode must be 'rule' or 'llm', got {self.review_mode!r}")
        threshold = self.gate_threshold
        if not is_finite_number(threshold):
            raise ConfigError(f"gate_threshold must be a finite number, got {threshold!r}")
        check_gate_weights(self.gate_weights)
        object.__setattr__(self, "gate_weights", tuple(self.gate_weights))
        for name in ("max_flow_length", "max_flows_per_sink", "max_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")

    def to_dict(self) -> dict:
        """The report's ``config`` block, which :meth:`digest` hashes: every
        field but ``out_dir``, ``live_llm_endpoint`` and ``live_llm_model``,
        so a new field is in the digest unless it is named here. The tuple
        fields are given as lists."""
        return {
            f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
            for f in fields(self)
            if f.name not in ("out_dir", "live_llm_endpoint", "live_llm_model")
        }

    def digest(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return sha256(canon.encode()).hexdigest()

    def check_paths(self, *names: str) -> None:
        """Check that the input paths of the fields ``names`` exist: each
        command names the fields it reads. ``llm`` gives a path only as
        ``replay:<dir>`` and ``analysis_backend`` only as ``sarif:<path>``."""
        if "graph_path" in names:
            if not self.graph_path:
                raise ConfigError("--graph (or graph_path in the config file) is required")
            if not os.path.exists(self.graph_path):
                raise ConfigError(f"graph file not found: {self.graph_path}")
        if "manifest_paths" in names:
            for m in self.manifest_paths:
                if not os.path.exists(m):
                    raise ConfigError(f"manifest not found: {m}")
        fixtures = self.fixtures_dir
        if "fixtures_dir" in names and fixtures is not None and not os.path.isdir(fixtures):
            raise ConfigError(f"fixture directory not found: {fixtures}")
        kind, _, path = self.llm.partition(":")
        if "llm" in names and kind == "replay" and not os.path.isdir(path):
            raise ConfigError(f"replay transcript directory not found: {path}")
        kind, _, path = self.analysis_backend.partition(":")
        if "analysis_backend" in names and kind == "sarif" and not os.path.exists(path):
            raise ConfigError(f"SARIF result file not found: {path}")


def _is_file_name(path: str) -> bool:
    """Whether ``path`` holds no NUL and encodes in the file system's encoding."""
    try:
        return b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:
        return False


@dataclass
class Finding:
    sink_id: str
    sink_label: str
    sink_origin: CandidateOrigin
    flow: DataFlow
    verdict: ReviewVerdict
    advisory_id: Optional[str] = None
    poc: Optional[PoCArtifact] = None

    def to_dict(self, shared: Optional[dict] = None) -> dict:
        """The finding as report JSON; ``shared`` is passed on to
        :meth:`DataFlow.to_dict` and :meth:`ReviewVerdict.to_dict`, and
        holds one ``sink`` :class:`SharedDict` per sink for the findings
        that share it. Without a table, the finding uses a table of its own."""
        if shared is None:
            shared = {}
        key = ("sink", self.sink_id, self.sink_label, self.sink_origin)
        sink = shared.get(key)
        if sink is None:
            sink = shared[key] = SharedDict({
                "node_id": self.sink_id,
                "label": self.sink_label,
                "origin": self.sink_origin.value,
            })
        return {
            "sink": sink,
            "advisory": self.advisory_id,
            "poc_status": self.poc.status.value if self.poc else None,
            "flow": self.flow.to_dict(shared),
            "verdict": self.verdict.to_dict(shared),
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
        """The report as JSON values. Findings share one
        :class:`SharedDict` per sink, per distinct flow triple and per
        distinct hop assessment, so a record that many findings repeat is
        built once (and :func:`write_report_json` renders its text once per
        indent); the document equals one built without sharing."""
        shared: dict = {}
        return {
            "report_version": REPORT_VERSION,
            "tool_version": __version__,
            "config": self.config.to_dict(),
            "config_digest": self.config.digest(),
            "summary": self.summary(),
            "sinks": self.sinks,
            "advisories": self.advisories,
            "poc_artifacts": self.poc_artifacts,
            "findings": [f.to_dict(shared) for f in self.findings],
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
    that file is missing. ``config`` must have passed ``check_paths("llm")``."""
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
    stitch the flows found there back onto the sink. A sink that belongs
    to no function has no caller tree: its recovery is skipped, with that
    reason."""
    sink = graph.nodes.get(sink_id)
    if sink is not None and sink.function_id is None:
        return StitchResult(
            dropped=[f"sink {sink_id!r} belongs to no function; backward recovery skipped"]
        )
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


def find_flows(
    graph: ProgramGraph,
    sink_id: str,
    config: PipelineConfig,
    sarif_flows: Optional[list[DataFlow]] = None,
) -> tuple[list[DataFlow], list[str]]:
    """The flows to one sink, and why backward recovery dropped others.

    The flows are forward search's or, given ``sarif_flows``, those of
    them that end at the sink. Only when there are none does backward
    recovery run, and then its stitched flows and drop reasons are given.
    """
    if sarif_flows is None:
        query = FlowQuery(
            sinks=(sink_id,),
            max_length=config.max_flow_length,
            max_flows_per_sink=config.max_flows_per_sink,
        )
        flows = forward_search(graph, query)
    else:
        flows = [f for f in sarif_flows if f.sink == sink_id]
    if flows:
        return flows, []
    recovered = recover_flows(graph, sink_id, config)
    return recovered.flows, recovered.dropped


def retrieve_advisories(
    config: PipelineConfig, deps: list[DependencyRecord], warnings: list[str]
) -> tuple[list[AdvisoryRecord], list[dict]]:
    """Stage 2: the advisories of ``deps`` in ``config.fixtures_dir``, and
    the report's ``advisories`` entries; both are empty without a fixture
    directory. ``config`` must have passed
    ``check_paths("manifest_paths", "fixtures_dir")``.

    The advisories are each dependency's authoritative records and the
    community issues that pass the gate, in identifier order. The entries
    are every scored community issue, in retrieval order, then one per
    advisory. Skipped fixture entries are appended to ``warnings``.
    """
    advisories: list[AdvisoryRecord] = []
    entries: list[dict] = []
    if config.fixtures_dir is None:
        return advisories, entries
    for dep in deps:
        advisories.extend(query_authoritative(dep, config.fixtures_dir, warnings))
        for issue in retrieve_community(dep, config.fixtures_dir, warnings):
            finding = gate_finding(issue, config.gate_weights, config.gate_threshold)
            identifier = issue.url or issue.title
            entries.append({
                "source": "community",
                "identifier": identifier,
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
                    identifier=identifier,
                    description=f"{issue.title}\n{issue.body}",
                    dependency=dep.name,
                ))
    advisories.sort(key=lambda a: a.identifier)
    entries.extend({
        "source": adv.source,
        "identifier": adv.identifier,
        "severity": adv.severity.value,
        "cve_id": adv.cve_id,
        "dependency": adv.dependency,
    } for adv in advisories)
    return advisories, entries


def run_pipeline(config: PipelineConfig) -> VulnerabilityReport:
    """Check that ``config``'s input paths exist and scan: every stage from
    dependency scan to review, in one report. Raises :class:`ConfigError`
    for a missing input path or a bad sink registry and the graph loader's
    errors for a bad graph; a failure inside a stage is recorded in
    ``report.stage_errors`` and the scan goes on.

    Cyclic garbage collection is paused for the whole scan (see
    :class:`argus.model.gc_paused`). It is turned back on only after the
    scan's frame, which holds the graph and its overlay, is gone, so the
    first collection after it does not walk the graph.
    """
    with gc_paused():
        return _scan(config)


def _scan(config: PipelineConfig) -> VulnerabilityReport:
    config.check_paths("graph_path", "manifest_paths", "fixtures_dir", "llm", "analysis_backend")
    # Read before any stage runs, so a malformed registry file fails the
    # scan before an agent spends tokens.
    registry = load_sink_registry(config.sink_registry_path)
    report = VulnerabilityReport(config=config)
    graph = load_program_graph(config.graph_path)

    # Stage 1: dependency scan.
    deps = []
    for manifest in config.manifest_paths:
        try:
            deps.extend(parse_manifest(manifest))
        except ManifestError as exc:
            report.stage_errors.append(f"dependency_scan: {exc}")

    # Stage 2: advisory retrieval and community gating.
    advisories, report.advisories = retrieve_advisories(config, deps, report.warnings)

    # Stage 3: PoC generation per advisory. Its prompt alone reads where
    # the graph uses a dependency, so usage is looked up here, per PoC.
    poc_transcripts: list[Transcript] = []
    pocs: dict[str, PoCArtifact] = {}
    for adv in advisories:
        backend = _make_backend(config, "poc", adv.identifier)
        if backend is None:
            report.warnings.append(
                f"poc: no replay transcript for advisory {adv.identifier}; skipped"
            )
            continue
        usage = find_usages(graph, next(d for d in deps if d.name == adv.dependency))
        context = (
            f"dependency {adv.dependency} used at nodes: "
            + (", ".join(usage.node_ids) if usage.used else "(no usages found)")
        )
        try:
            artifact = generate_poc(adv, context, backend)
        except ArgusError as exc:
            report.stage_errors.append(f"poc {adv.identifier}: {exc}")
            if exc.transcript is not None:
                poc_transcripts.append(exc.transcript)
            continue
        pocs[adv.identifier] = artifact
        if artifact.transcript is not None:
            poc_transcripts.append(artifact.transcript)
        report.poc_artifacts.append(artifact.to_dict())

    # Stage 4: sink assembly. A node claimed by both origins is attributed
    # to the static registry: the agentic path only gets credit for sinks
    # static tooling lacks. A node's advisory is the first, in id order,
    # whose PoC names it.
    sink_origin: dict[str, CandidateOrigin] = {}
    sink_kind: dict[str, str] = {}
    for cand in registry_sink_candidates(graph, registry):
        for node_id in cand.matched_node_ids:
            sink_origin[node_id] = cand.origin
            sink_kind[node_id] = cand.sink_kind
    candidate_advisory: dict[str, str] = {}
    for adv_id in sorted(pocs):
        for cand in derive_sink_candidates(pocs[adv_id], graph):
            for node_id in cand.matched_node_ids:
                candidate_advisory.setdefault(node_id, adv_id)
                if node_id not in sink_origin:
                    sink_origin[node_id] = cand.origin
                    sink_kind[node_id] = cand.sink_kind
    # Sinks already marked in the graph count as statically known.
    for node in graph.nodes_by_role(TaintRole.SINK):
        sink_origin.setdefault(node.id, CandidateOrigin.STATIC_REGISTRY)
        sink_kind.setdefault(node.id, node.sink_kind or "unknown")

    # A candidate that keeps a source or sanitizer role is reported, but
    # it is not a sink, so it is not searched.
    graph = graph.with_sinks(sink_kind)
    sink_ids: list[str] = []
    for node_id in sorted(sink_origin):
        node = graph.nodes[node_id]
        entry = {
            "node_id": node_id,
            "label": node.label,
            "origin": sink_origin[node_id].value,
            "sink_kind": sink_kind[node_id],
            "advisory": candidate_advisory.get(node_id),
        }
        if node.taint_role == TaintRole.SINK:
            sink_ids.append(node_id)
        else:
            entry["kept_role"] = node.taint_role.value
            report.warnings.append(
                f"sinks: {node_id} keeps role {node.taint_role.value}; not searched"
            )
        report.sinks.append(entry)

    # Stage 5+6: flow search with backward recovery, then review.
    sarif_flows: Optional[list[DataFlow]] = None
    if config.analysis_backend.startswith("sarif:"):
        sarif_path = config.analysis_backend.split(":", 1)[1]
        sarif_result = import_sarif(sarif_path, graph, max_length=config.max_flow_length)
        sarif_flows = sarif_result.flows
        report.warnings.extend(sarif_result.skipped)

    review_transcripts: list[Transcript] = []
    review_steps: dict = {}  # flow step -> its review, shared by every flow
    for sink_id in sink_ids:
        flows, dropped = find_flows(graph, sink_id, config, sarif_flows)
        report.warnings.extend(dropped)
        for i, flow in enumerate(flows):
            review_backend = None
            if config.review_mode == "llm":
                review_backend = _make_backend(config, "review", f"{sink_id}__{i}")
                if review_backend is None:
                    report.warnings.append(
                        f"review: no replay transcript for {sink_id}__{i}; reviewed by rules"
                    )
            try:
                verdict = review_flow(flow, graph, backend=review_backend, shared=review_steps)
            except ArgusError as exc:
                # A failing review backend costs the flow its LLM review,
                # never its finding: it is reviewed by rules instead.
                report.stage_errors.append(f"review {sink_id}: {exc}")
                if exc.transcript is not None:
                    review_transcripts.append(exc.transcript)
                verdict = review_flow(flow, graph, shared=review_steps)
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
    report.token_usage = meter_tokens({"poc": poc_transcripts, "review": review_transcripts})
    return report


# ---------------------------------------------------------------------------
# Export


def export_report(report: VulnerabilityReport, out_dir: str) -> dict[str, str]:
    """Write report.json and report.md; byte-stable for identical reports.

    Each file is written whole or not at all: a scan killed mid-write
    leaves the previous report in place, never a truncated one. Cyclic
    garbage collection is paused while the report is built and written,
    as in :func:`run_pipeline`.
    """
    with gc_paused():
        return _export(report, out_dir)


def _export(report: VulnerabilityReport, out_dir: str) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    md_path = os.path.join(out_dir, "report.md")
    with _replacing(json_path) as fh:
        write_report_json(report.to_dict(), fh)
    with _replacing(md_path) as fh:
        fh.write(render_markdown(report))
    return {"json": json_path, "markdown": md_path}


@contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A temporary file beside ``path`` to write to, renamed over ``path``
    when the block ends without error and removed when it raises. Taking a
    file, not a string, lets :func:`write_report_json` stream the report
    instead of holding its whole text in memory."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Pieces of JSON text held before they are written out: few enough that the
# held text stays small, enough that each write is worth its call.
_FLUSH_PIECES = 256


def write_report_json(doc: Any, fh: TextIO) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` to ``fh``.

    The output is byte for byte that of :mod:`json`, but in one recursive
    pass: ``json``'s C encoder cannot indent, so ``json`` runs an indented
    dump through its pure-Python generator encoder, which takes about twice
    as long as this function on a report. Types are tested in ``json``'s
    order, so ``str`` and ``int`` enum members encode as their values. A
    dict key that is not a ``str``, and a value of any type ``json`` would
    not encode without a ``default``, raise ``TypeError``.

    The report's builder marks each dict that findings share as a
    :class:`SharedDict` (:meth:`VulnerabilityReport.to_dict`). A non-empty
    one is rendered aside the first time it is met at an indent, and that
    text is pasted wherever it recurs at the same indent. Every other dict
    is written in place and never recorded, and the ``str``, ``None``,
    ``bool`` and ``int`` values of a dict are written without a recursive
    call. The output is written in pieces of a few kilobytes, and nothing
    here makes garbage cycles.
    """
    out: list[str] = []
    _write_value(doc, "\n", out, fh, {})
    out.append("\n")
    fh.write("".join(out))


def _write_value(
    o: Any, newline: str, out: list[str], fh: Optional[TextIO], seen: dict
) -> None:
    """Append the JSON text of ``o`` to ``out``. ``newline`` is the line
    break and indent of ``o``'s own level; full pieces go to ``fh`` unless
    it is ``None``. ``seen`` maps an indent to the text of each non-empty
    :class:`SharedDict` rendered at it so far, by the dict's ``id``."""
    if type(o) is SharedDict and o:
        memo = seen.setdefault(len(newline), {})
        text = memo.get(id(o))
        if text is None:
            side: list[str] = []
            _write_dict(o, newline, side, None, seen)
            text = memo[id(o)] = "".join(side)
        out.append(text)
    elif isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(json.dumps(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        memo = seen.setdefault(len(inner), {})
        piece, comma = "[" + inner, "," + inner
        for item in o:
            text = memo.get(id(item)) if type(item) is SharedDict else None
            if text is None:
                out.append(piece)
                _write_value(item, inner, out, fh, seen)
            else:
                out.append(piece + text)
            piece = comma
            if len(out) >= _FLUSH_PIECES and fh is not None:
                fh.write("".join(out))
                out.clear()
        out.append(newline + "]")
    elif isinstance(o, dict):
        if o:
            _write_dict(o, newline, out, fh, seen)
        else:
            out.append("{}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_dict(
    o: dict, newline: str, out: list[str], fh: Optional[TextIO], seen: dict
) -> None:
    """Append the JSON text of the non-empty dict ``o``, as :func:`_write_value`."""
    inner = newline + "  "
    piece, comma = "{" + inner, "," + inner
    for key, value in sorted(o.items()):
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        head = piece + encode_basestring_ascii(key) + ": "
        piece = comma
        kind = type(value)
        if kind is str:
            out.append(head + encode_basestring_ascii(value))
        elif value is None:
            out.append(head + "null")
        elif kind is bool:
            out.append(head + ("true" if value else "false"))
        elif kind is int:
            out.append(head + int.__repr__(value))
        else:
            out.append(head)
            _write_value(value, inner, out, fh, seen)
        if len(out) >= _FLUSH_PIECES and fh is not None:
            fh.write("".join(out))
            out.clear()
    out.append(newline + "}")


def render_markdown(report: VulnerabilityReport) -> str:
    summary = report.summary()
    token_usage = io.StringIO()
    write_report_json(report.token_usage, token_usage)
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
        f"```\n{token_usage.getvalue()}```",
        "",
        "## Findings",
        "",
    ]
    if not report.findings:
        lines.append("No candidate flows.")
    # One row per distinct (hop, edge) pair: flows that share a step
    # share its hop and edge objects, which the report keeps alive.
    rows: dict[tuple[int, int], str] = {}
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
            edge = t.edge
            key = (id(hop), id(edge))
            row = rows.get(key)
            if row is None:
                bridged = " (bridged)" if edge.bridged else ""
                row = rows[key] = (
                    f"| {hop.position} | {hop.content_and_path} | "
                    f"{edge.kind.value}{bridged} | {hop.neutralization.value} |"
                )
            lines.append(row)
        lines.append("")
    return "\n".join(lines) + "\n"
