"""Command-line surface.

Subcommands mirror the pipeline stages so each is independently
scriptable: ``scan`` (full pipeline), ``deps``, ``advisories``,
``flows``, and ``replay-verify``. Exit codes are a stable CI contract:
0 = ran with no confirmed findings, 1 = confirmed findings exist,
2 = configuration, input or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import fields
from typing import Optional

from argus.advisories import OfflineFixtureTransport, gate_finding, query_authoritative, retrieve_community
from argus.agent import ReplayBackend, load_transcript, run_react_loop
from argus.deps import parse_manifest
from argus.engine import FlowQuery, forward_search
from argus.errors import ArgusError, ConfigError
from argus.model import load_program_graph
from argus.pipeline import PipelineConfig, export_report, recover_flows, run_pipeline

EXIT_OK = 0
EXIT_CONFIRMED = 1
EXIT_CONFIG_ERROR = 2


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    # Each flag's dest is the PipelineConfig field it sets.
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--graph", dest="graph_path", help="program graph JSON document")
    p.add_argument("--manifest", dest="manifest_paths", action="append", default=None,
                   help="dependency manifest (repeatable)")
    p.add_argument("--fixtures", dest="fixtures_dir", help="offline advisory fixture directory")
    p.add_argument("--llm", help="llm backend: stub | replay:<dir> | live")
    p.add_argument("--backend", dest="analysis_backend",
                   help="analysis backend: builtin | sarif:<path>")
    p.add_argument("--out", dest="out_dir", help="output directory for report files")
    p.add_argument("--nf", dest="max_flow_length", type=int, help="maximum flow length bound")
    p.add_argument("--max-depth", type=int, help="backward tree depth bound")
    p.add_argument("--gate-threshold", type=float, help="community gate threshold")
    p.add_argument("--auto-confirm-forward-flows", action=argparse.BooleanOptionalAction,
                   default=None, help="let clean forward flows auto-confirm")


_CONFIG_KEYS = tuple(f.name for f in fields(PipelineConfig))


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file's PipelineConfig keys, with the given flags laid over
    them; every default lives in PipelineConfig. Unknown keys are ignored."""
    raw = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {args.config} must be a JSON object")
    values = {key: raw[key] for key in _CONFIG_KEYS if key in raw}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if not values.get("graph_path"):
        raise ConfigError("--graph (or graph_path in the config file) is required")
    return PipelineConfig(**values)


def _cmd_scan(args: argparse.Namespace) -> int:
    config = _build_config(args)
    report = run_pipeline(config)
    if config.out_dir:
        paths = export_report(report, config.out_dir)
        print(f"report written to {paths['json']} and {paths['markdown']}")
    else:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    summary = report.summary()
    print(
        f"sinks={summary['candidate_sinks']} flows={summary['flows_total']} "
        f"confirmed={summary['confirmed']}",
        file=sys.stderr,
    )
    return EXIT_CONFIRMED if report.confirmed_count else EXIT_OK


def _cmd_deps(args: argparse.Namespace) -> int:
    config = _build_config(args)
    config.validate_manifests()
    records = []
    for manifest in config.manifest_paths:
        for dep in parse_manifest(manifest):
            records.append({
                "ecosystem": dep.ecosystem.value,
                "name": dep.name,
                "version": dep.version,
                "scope": dep.scope.value,
                "manifest_path": dep.manifest_path,
            })
    print(json.dumps(records, indent=2))
    return EXIT_OK


def _cmd_advisories(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if config.fixtures_dir is None:
        raise ConfigError("advisories requires --fixtures (offline retrieval directory)")
    config.validate_retrieval()
    transport = OfflineFixtureTransport(config.fixtures_dir)
    warnings: list[str] = []
    out = []
    for manifest in config.manifest_paths:
        for dep in parse_manifest(manifest):
            records = query_authoritative(dep, transport, warnings=warnings)
            scored = [
                {
                    "url": f.issue.url,
                    "relevance": f.relevance,
                    "credibility": f.credibility,
                    "quality": f.quality,
                    "aggregate": f.aggregate,
                    "passed_gate": f.passed_gate,
                }
                for f in (
                    gate_finding(i, config.gate_weights, config.gate_threshold)
                    for i in retrieve_community(dep, transport, warnings=warnings)
                )
            ]
            out.append({
                "dependency": dep.name,
                "authoritative": [
                    {
                        "source": r.source,
                        "identifier": r.identifier,
                        "severity": r.severity.value,
                        "cve_id": r.cve_id,
                    }
                    for r in records
                ],
                "community": scored,
            })
    print(json.dumps({"dependencies": out, "warnings": warnings}, indent=2))
    return EXIT_OK


def _cmd_flows(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if not args.sink:
        raise ConfigError("flows requires at least one --sink node id")
    config.validate_search_bounds()
    graph = load_program_graph(config.graph_path)
    query = FlowQuery(
        sinks=tuple(args.sink),
        max_length=config.max_flow_length,
        max_flows_per_sink=config.max_flows_per_sink,
    )
    flows = forward_search(graph, query)
    stitched_payload = []
    for sink in args.sink:
        if any(f.sink == sink for f in flows):
            continue
        result = recover_flows(graph, sink, config)
        stitched_payload.extend(s.combined.to_dict() for s in result.flows)
    print(json.dumps({
        "forward": [f.to_dict() for f in flows],
        "stitched": stitched_payload,
    }, indent=2))
    return EXIT_OK


def _cmd_replay_verify(args: argparse.Namespace) -> int:
    transcript_path = args.transcript
    recorded = load_transcript(transcript_path)
    payloads = []
    for _ in range(2):
        backend = ReplayBackend(load_transcript(transcript_path))
        system = next((t.content for t in recorded.turns if t.role.value == "system"), "")
        user = next((t.content for t in recorded.turns if t.role.value == "user"), "")
        outcome = run_react_loop(system, user, {}, backend)
        payloads.append(outcome.final_payload)
    if payloads[0] != payloads[1]:
        print("replay NOT deterministic", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"replay deterministic: {len(recorded.turns)} turns, payload {len(payloads[0])} bytes")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="argus",
        description="Supply-chain-aware static taint analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="run the full pipeline and export a report")
    _add_common_flags(p_scan)
    p_scan.set_defaults(fn=_cmd_scan)

    p_deps = sub.add_parser("deps", help="parse dependency manifests")
    _add_common_flags(p_deps)
    p_deps.set_defaults(fn=_cmd_deps)

    p_adv = sub.add_parser("advisories", help="retrieve and score advisories")
    _add_common_flags(p_adv)
    p_adv.set_defaults(fn=_cmd_advisories)

    p_flows = sub.add_parser("flows", help="data-flow search for explicit sinks")
    _add_common_flags(p_flows)
    p_flows.add_argument("--sink", action="append", default=[],
                         help="target sink node id (repeatable)")
    p_flows.set_defaults(fn=_cmd_flows)

    p_replay = sub.add_parser("replay-verify",
                              help="check a recorded transcript replays deterministically")
    p_replay.add_argument("transcript", help="transcript JSONL file")
    p_replay.set_defaults(fn=_cmd_replay_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ArgusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:  # exit 1 means findings, so never let a crash end with it
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
    return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
