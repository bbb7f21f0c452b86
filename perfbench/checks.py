"""Output checks for one scan's report.json.

Each check compares the exported report against a computation made apart
from the pipeline (the brute-force path oracle in ``tests/oracles.py``, a
breadth-first reachability search written here, independent token sums
over the transcript files) or against what the input generator planted.
A check returns a list of failure messages; an empty list means the
report passed.
"""

from __future__ import annotations

import copy
import glob
import json
import os
from collections import deque
from dataclasses import replace

from argus.model import (
    DEFAULT_MAX_FLOW_LENGTH,
    AccessPathEdge,
    DataFlow,
    EdgeKind,
    FlowOrigin,
    FlowTriple,
    ProgramGraph,
    graph_from_dict,
    validate_flow,
)
from tests.oracles import brute_force_all, sum_transcript_tokens

# The visibility-off oracle of acceptance criterion d searches up to the
# model's default flow bound.
ORACLE_BOUND = DEFAULT_MAX_FLOW_LENGTH


def load_graph_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def assembled_graph(graph_doc: dict, report: dict):
    """The graph as sink assembly leaves it: every reported sink whose node
    has no role takes the sink role; source, sanitizer and sink roles stay."""
    doc = copy.deepcopy(graph_doc)
    kinds = {s["node_id"]: s["sink_kind"] for s in report["sinks"]}
    for node in doc["nodes"]:
        if node["id"] in kinds and node.get("taint_role", "none") == "none":
            node["taint_role"] = "sink"
            node["sink_kind"] = kinds[node["id"]]
    return graph_from_dict(doc)


def _flow(raw: dict) -> DataFlow:
    triples = []
    for t in raw["triples"]:
        e = t["edge"]
        edge = AccessPathEdge(id=e["id"], src=e["from"], dst=e["to"],
                              kind=EdgeKind(e["kind"]),
                              visible_to_forward=e["visible_to_forward"],
                              guard_tags=frozenset(e["guard_tags"]),
                              bridged=e.get("bridged", False))
        triples.append(FlowTriple(t["from"], edge, t["to"]))
    return DataFlow(tuple(triples), FlowOrigin(raw["origin"]), raw["max_length_bound"])


def _edge_ids(finding: dict) -> tuple[str, ...]:
    return tuple(t["edge"]["id"] for t in finding["flow"]["triples"])


def connected_ignoring_visibility(graph, source: str, sink: str,
                                  bound: int = ORACLE_BOUND) -> bool:
    """True when a path of fewer than ``bound`` edges leads from source to
    sink over all edges, hidden ones included, never entering a sanitizer.

    Breadth-first over the raw edge table, so the first time the sink is
    seen is over a shortest, hence simple, path."""
    out: dict[str, list[str]] = {}
    for e in graph.edges.values():
        out.setdefault(e.src, []).append(e.dst)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if dist[node] + 1 >= bound:
            continue
        for nxt in out.get(node, ()):
            if nxt == sink:
                return True
            if nxt in dist or graph.nodes[nxt].taint_role.value == "sanitizer":
                continue
            dist[nxt] = dist[node] + 1
            queue.append(nxt)
    return False


def cone(graph, sink: str, bound: int) -> ProgramGraph:
    """The part of the graph a flow into ``sink`` of fewer than ``bound``
    edges can use: nodes with a visible, sanitizer-free path of at most
    ``bound - 1`` edges to the sink. Running the brute-force oracle on it
    gives the same paths as on the whole graph, without walking the whole
    graph once per (source, sink) pair."""
    into: dict[str, list[str]] = {}
    for e in graph.edges.values():
        if e.visible_to_forward:
            into.setdefault(e.dst, []).append(e.src)
    dist = {sink: 0}
    queue = deque([sink])
    while queue:
        node = queue.popleft()
        if dist[node] + 1 > bound - 1:
            continue
        for prev in into.get(node, ()):
            if prev in dist or graph.nodes[prev].taint_role.value == "sanitizer":
                continue
            dist[prev] = dist[node] + 1
            queue.append(prev)
    return ProgramGraph([graph.nodes[n] for n in dist],
                        [e for e in graph.edges.values() if e.src in dist and e.dst in dist],
                        [replace(f, parameters=(), return_node=None)
                         for f in graph.functions.values()])


# ---------------------------------------------------------------------------
# Checks common to every workload


def check_forward(report: dict, graph) -> list[str]:
    """Forward findings of every sink-role sink are exactly the first
    ``max_flows_per_sink`` oracle paths in edge-id tuple order; a reported
    sink whose node kept a source or sanitizer role has no findings."""
    cfg = report["config"]
    findings: dict[str, list] = {}
    for f in report["findings"]:
        findings.setdefault(f["sink"]["node_id"], []).append(f)
    sinks = [s["node_id"] for s in report["sinks"]]
    bound = cfg["max_flow_length"]
    oracle = {s: brute_force_all(cone(graph, s, bound), [s], bound)[s]
              for s in sinks if graph.nodes[s].taint_role.value == "sink"}
    errors = []
    for s in sinks:
        if s not in oracle:
            if findings.get(s):
                errors.append(f"sink {s} keeps role "
                              f"{graph.nodes[s].taint_role.value} but has findings")
            continue
        got = [_edge_ids(f) for f in findings.get(s, [])
               if f["flow"]["origin"] == "forward"]
        want = sorted(oracle[s])[: cfg["max_flows_per_sink"]]
        if got != want:
            errors.append(f"sink {s}: forward findings differ from the oracle "
                          f"({len(got)} reported, {len(want)} expected)")
    return errors


def check_stitched(report: dict, graph, planted_chains=(), control_chain=None) -> list[str]:
    """Every stitched finding has a bridged edge, is not confirmed, and joins
    a (source, sink) pair the visibility-off oracle connects. Every planted
    chain is recovered; the control chain yields nothing."""
    errors = []
    pairs = set()
    for f in report["findings"]:
        flow = f["flow"]
        if flow["origin"] != "stitched":
            continue
        src, dst = flow["triples"][0]["from"], flow["triples"][-1]["to"]
        pairs.add((src, dst))
        if not any(t["edge"].get("bridged") for t in flow["triples"]):
            errors.append(f"stitched flow {_edge_ids(f)} has no bridged edge")
        if f["verdict"]["final_status"] == "confirmed":
            errors.append(f"stitched flow {_edge_ids(f)} is confirmed")
        if not connected_ignoring_visibility(graph, src, dst):
            errors.append(f"stitched flow {src} -> {dst} has no visibility-off path")
    for src, dst in planted_chains:
        if (src, dst) not in pairs:
            errors.append(f"planted chain {src} -> {dst} not recovered")
    if control_chain is not None and any(
            f["sink"]["node_id"] == control_chain[1] for f in report["findings"]):
        errors.append(f"control chain sink {control_chain[1]} has findings")
    return errors


def check_validate(report: dict, graph) -> list[str]:
    errors = []
    for f in report["findings"]:
        result = validate_flow(_flow(f["flow"]), graph, allow_bridged=True)
        if not result.ok:
            errors.append(f"finding {_edge_ids(f)} fails validate_flow: "
                          + "; ".join(result.violations))
    return errors


def check_token_sums(report: dict) -> list[str]:
    usage = report["token_usage"]
    stages = usage["per_stage"].values()
    prompt = sum(s["prompt"] for s in stages)
    completion = sum(s["completion"] for s in stages)
    if (usage["total_prompt"], usage["total_completion"]) != (prompt, completion) \
            or usage["grand_total"] != prompt + completion:
        return [f"token totals {usage['total_prompt']}/{usage['total_completion']}/"
                f"{usage['grand_total']} are not the per-stage sums {prompt}/{completion}"]
    return []


def check_gate(report: dict, comments: dict, gated: list) -> list[str]:
    """Community scores follow the published formulas, and exactly the
    generator's gated advisories reach PoC generation."""
    cfg = report["config"]
    weights, threshold = cfg["gate_weights"], cfg["gate_threshold"]
    errors = []
    sides = set()
    for adv in report["advisories"]:
        if "scores" not in adv:
            continue
        s = adv["scores"]
        ident = adv["identifier"]
        want_cred = 0.3 + min(0.05 * comments[ident], 0.3)
        agg = weights[0] * s["relevance"] + weights[1] * s["credibility"] \
            + weights[2] * s["quality"]
        if abs(s["credibility"] - want_cred) > 1e-12:
            errors.append(f"{ident}: credibility {s['credibility']} != {want_cred}")
        if abs(s["aggregate"] - agg) > 1e-12:
            errors.append(f"{ident}: aggregate {s['aggregate']} != weighted sum {agg}")
        if adv["passed_gate"] != (s["aggregate"] >= threshold):
            errors.append(f"{ident}: passed_gate disagrees with the threshold")
        sides.add(adv["passed_gate"])
    if comments and sides != {True, False}:
        errors.append("community issues do not fall on both sides of the gate")
    got = sorted(p["advisory"] for p in report["poc_artifacts"])
    if got != sorted(gated):
        errors.append(f"PoC artifacts for {got}, expected {sorted(gated)}")
    return errors


# ---------------------------------------------------------------------------
# Workload-specific checks


def check_mini(report: dict, planted: dict) -> list[str]:
    """Summary counts equal expected.json, the origin partition equals the
    hand labels, and token totals equal the transcript sums."""
    want = planted["expected"]
    summary = report["summary"]
    stitched = sum(1 for f in report["findings"] if f["flow"]["origin"] == "stitched")
    got = {
        "rag_sinks": summary["sinks_by_origin"].get("advisory_poc", 0),
        "static_sinks": summary["sinks_by_origin"].get("static_registry", 0),
        "flows": summary["flows_total"],
        "stitched_flows": stitched,
        "confirmed": summary["confirmed"],
        "poc_prompt_tokens": report["token_usage"]["per_stage"]["poc"]["prompt"],
        "poc_completion_tokens": report["token_usage"]["per_stage"]["poc"]["completion"],
    }
    errors = [f"{k}: {got[k]} != expected {want[k]}" for k in want if got.get(k) != want[k]]
    if summary["vulnerabilities_by_sink_origin"] != planted["origin_labels"]:
        errors.append(f"origin partition {summary['vulnerabilities_by_sink_origin']} "
                      f"!= hand labels {planted['origin_labels']}")
    prompt = completion = 0
    for path in sorted(glob.glob(os.path.join(planted["replay_dir"], "*.jsonl"))):
        p, c = sum_transcript_tokens(path)
        prompt += p
        completion += c
    usage = report["token_usage"]
    if (usage["total_prompt"], usage["total_completion"]) != (prompt, completion):
        errors.append(f"token totals {usage['total_prompt']}/{usage['total_completion']} "
                      f"!= transcript sums {prompt}/{completion}")
    return errors


def _transcript_sums(paths) -> tuple[int, int]:
    prompt = completion = 0
    for path in paths:
        p, c = sum_transcript_tokens(path)
        prompt += p
        completion += c
    return prompt, completion


def check_large(report: dict, planted: dict) -> list[str]:
    """Sink origins equal the planted sets; PoC tokens equal the sums over
    the PoC transcripts. Review tokens lie between the sums over the
    transcripts of the flows that became findings and over every planted
    review transcript: flows that end with no finding (decoy sinks) may be
    reviewed, but need not be."""
    errors = []
    for origin, key in (("advisory_poc", "advisory_sinks"),
                        ("static_registry", "registry_sinks")):
        got = sorted(s["node_id"] for s in report["sinks"] if s["origin"] == origin)
        if got != planted[key]:
            errors.append(f"{origin} sinks {got} != planted {planted[key]}")
    stages = report["token_usage"]["per_stage"]
    poc = _transcript_sums(planted["poc_transcripts"].values())
    got = (stages["poc"]["prompt"], stages["poc"]["completion"])
    if got != poc:
        errors.append(f"poc tokens {got} != transcript sums {poc}")
    per_sink: dict[str, int] = {}
    for f in report["findings"]:
        per_sink[f["sink"]["node_id"]] = per_sink.get(f["sink"]["node_id"], 0) + 1
    reviews = planted["review_transcripts"]
    if any(n > len(reviews.get(s, ())) for s, n in per_sink.items()):
        errors.append("a sink has more findings than planted review transcripts")
    low = _transcript_sums(p for s, n in per_sink.items() for p in reviews.get(s, ())[:n])
    high = _transcript_sums(p for paths in reviews.values() for p in paths)
    got = (stages["review"]["prompt"], stages["review"]["completion"])
    if not (low[0] <= got[0] <= high[0] and low[1] <= got[1] <= high[1]):
        errors.append(f"review tokens {got} outside the transcript sums of the findings "
                      f"{low} and of every planted flow {high}")
    return errors


def check_scan(workload: str, report: dict, graph_doc: dict, planted: dict) -> list[str]:
    """All checks that apply to one scan of the named workload."""
    graph = assembled_graph(graph_doc, report)
    errors = check_forward(report, graph)
    errors += check_stitched(report, graph, [tuple(c) for c in planted.get("chains", [])],
                             planted.get("control_chain"))
    errors += check_validate(report, graph)
    errors += check_token_sums(report)
    if workload == "mini-repos":
        errors += check_mini(report, planted)
    else:
        errors += check_gate(report, planted["community_comments"], planted["gated"])
    if workload == "large-graph":
        errors += check_large(report, planted)
    return errors
