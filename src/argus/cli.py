"""Command-line surface.

Subcommands mirror the pipeline stages so each is independently
scriptable: ``scan`` (full pipeline), ``deps``, ``advisories`` and
``flows``. Exit codes are a stable CI contract:
0 = ran with no confirmed findings, 1 = confirmed findings exist,
2 = configuration, input or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict, fields
from typing import Optional

from argus.deps import parse_manifest
from argus.errors import ArgusError, ConfigError, read_json
from argus.model import load_program_graph
from argus.pipeline import (
    PipelineConfig,
    export_report,
    find_flows,
    retrieve_advisories,
    run_pipeline,
    write_report_json,
)

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


_CONFIG_KEYS = tuple(f.name for f in fields(PipelineConfig))


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file's PipelineConfig keys, with the given flags laid over
    them; every default lives in PipelineConfig. Unknown keys are ignored.
    The config checks every value; each command checks its input paths."""
    raw = {}
    if args.config:
        raw = read_json(args.config, ConfigError, f"cannot read config {args.config}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config {args.config} must be a JSON object")
    values = {key: raw[key] for key in _CONFIG_KEYS if key in raw}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return PipelineConfig(**values)


def _cmd_scan(args: argparse.Namespace) -> int:
    config = _build_config(args)
    report = run_pipeline(config)
    if config.out_dir:
        paths = export_report(report, config.out_dir)
        print(f"report written to {paths['json']} and {paths['markdown']}")
    else:
        write_report_json(report.to_dict(), sys.stdout)
    summary = report.summary()
    print(
        f"sinks={summary['candidate_sinks']} flows={summary['flows_total']} "
        f"confirmed={summary['confirmed']}",
        file=sys.stderr,
    )
    return EXIT_CONFIRMED if report.confirmed_count else EXIT_OK


def _cmd_deps(args: argparse.Namespace) -> int:
    config = _build_config(args)
    config.check_paths("manifest_paths")
    records = [
        asdict(dep) for manifest in config.manifest_paths for dep in parse_manifest(manifest)
    ]
    print(json.dumps(records, indent=2))
    return EXIT_OK


def _cmd_advisories(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if config.fixtures_dir is None:
        raise ConfigError("advisories requires --fixtures (offline retrieval directory)")
    config.check_paths("manifest_paths", "fixtures_dir")
    deps = [dep for manifest in config.manifest_paths for dep in parse_manifest(manifest)]
    warnings: list[str] = []
    _, entries = retrieve_advisories(config, deps, warnings)
    print(json.dumps({"advisories": entries, "warnings": warnings}, indent=2))
    return EXIT_OK


def _cmd_flows(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if not args.sink:
        raise ConfigError("flows requires at least one --sink node id")
    config.check_paths("graph_path")
    graph = load_program_graph(config.graph_path)
    payload: dict[str, list] = {"forward": [], "stitched": []}
    for sink in sorted(set(args.sink)):
        flows, dropped = find_flows(graph, sink, config)
        for flow in flows:
            payload[flow.origin.value].append(flow.to_dict())
        for reason in dropped:
            print(f"warning: {reason}", file=sys.stderr)
    print(json.dumps(payload, indent=2))
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
