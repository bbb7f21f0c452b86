"""Acceptance gate: each test exercises one release criterion end to end
and prints a single PASS line (visible with ``pytest -s`` or in captured
output). A failing criterion fails its test."""

import json
import time

from argus.cli import EXIT_CONFIG_ERROR, EXIT_CONFIRMED, EXIT_OK, main
from argus.advisories import CommunityIssue, credibility_score, relevance_score
from argus.engine import FlowQuery, forward_search
from argus.model import (
    DEFAULT_MAX_FLOW_LENGTH,
    FlowOrigin,
    TaintRole,
    load_program_graph,
    validate_flow,
)
from argus.pipeline import PipelineConfig, export_report, recover_flows, run_pipeline
from argus.review import FinalStatus, review_flow
from argus.synthetic import hidden_chain_graph, random_graph
from tests.conftest import fixture_path
from tests.oracles import brute_force_all, sum_transcript_tokens


def _issue(body="", comments=0, cve=False):
    return CommunityIssue(title="", body=body, comment_count=comments,
                          cve_linked=cve, repo="primary", url="")


def _sinks(graph):
    return sorted(n.id for n in graph.nodes_by_role(TaintRole.SINK))


def _report(line):
    print(f"PASS: {line}")


def _recover(graph, sink_id):
    """Backward recovery for one sink at the default settings, as a scan
    runs it."""
    return recover_flows(graph, sink_id, PipelineConfig(graph_path=""))


def test_a_scoring_exactness():
    start = time.monotonic()
    for n in range(201):
        want = 0.3 + min(n * 0.05, 0.3)
        got = credibility_score(_issue(comments=n))
        assert abs(got - want) < 1e-12, f"credibility mismatch at N_c={n}"
    # worked relevance examples: speculative+security, cve-linked, neutral
    assert relevance_score(_issue("potential vulnerability here")) == 1.0
    assert relevance_score(_issue("crash on load", cve=True)) == 0.4
    assert relevance_score(_issue("something odd")) == 0.5
    # monotonicity and cap across the whole range
    prev = -1.0
    for n in range(0, 301):
        cur = credibility_score(_issue(comments=n))
        assert cur >= prev
        assert cur <= 0.6 + 1e-12
        prev = cur
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"scoring checks took {elapsed:.2f}s"
    _report(f"scoring exactness (alpha_c over 0..200 within 1e-12, "
            f"relevance examples exact) in {elapsed:.2f}s")


def test_b_flow_model_invariants():
    start = time.monotonic()
    checked = 0
    for seed in range(1000):
        n_nodes = 5 + (seed % 46)  # 5..50
        graph = random_graph(seed, n_nodes=n_nodes, n_edges=2 * n_nodes,
                             hidden_edge_fraction=0.1 if seed % 3 == 0 else 0.0)
        sinks = _sinks(graph)
        if not sinks:
            continue
        flows = forward_search(graph, FlowQuery(sinks=tuple(sinks), max_length=6))
        for flow in flows:
            verdict = validate_flow(flow, graph)
            assert verdict.ok, f"seed {seed}: {verdict.violations}"
            checked += 1
    # stitched flows must validate too (with bridges allowed)
    for seed in range(20):
        fix = hidden_chain_graph(seed, depth=2)
        for flow in _recover(fix.graph, fix.sink_id).flows:
            verdict = validate_flow(flow, fix.graph, allow_bridged=True)
            assert verdict.ok, f"stitched seed {seed}: {verdict.violations}"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"invariant sweep took {elapsed:.1f}s"
    _report(f"flow-model invariants: {checked} flows over 1000+ random graphs "
            f"all pass validate_flow in {elapsed:.1f}s")


def test_c_forward_engine_oracle_equivalence():
    start = time.monotonic()
    graphs = 0
    for seed in range(200):
        n_nodes = 20 + (seed % 10) * 20  # 20..200
        n_edges = min(3 * n_nodes, 600)
        hidden = 0.2 if seed % 2 else 0.0
        graph = random_graph(seed, n_nodes=n_nodes, n_edges=n_edges,
                             n_sanitizers=2, hidden_edge_fraction=hidden)
        sinks = _sinks(graph)
        max_length = 6
        query = FlowQuery(sinks=tuple(sinks), max_length=max_length,
                          max_flows_per_sink=1_000_000)
        got = {s: set() for s in sinks}
        for f in forward_search(graph, query):
            got[f.sink].add(f.edge_ids)
        want = brute_force_all(graph, sinks, max_length)
        assert got == want, f"seed {seed}: engine/oracle divergence"
        graphs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"oracle sweep took {elapsed:.1f}s"
    _report(f"forward-engine oracle equivalence on {graphs} random graphs "
            f"(<=200 nodes, <=600 edges) in {elapsed:.1f}s")


def _assert_recovers(graph, sink_id):
    """Forward-only finds nothing; backward recovery finds flows whose
    endpoints agree with the visibility-off oracle; all flagged needs-human."""
    assert forward_search(graph, FlowQuery(sinks=(sink_id,))) == []
    off = brute_force_all(graph, (sink_id,), DEFAULT_MAX_FLOW_LENGTH,
                          respect_visibility=False)[sink_id]
    oracle_sources = {graph.edges[ids[0]].src for ids in off}
    assert oracle_sources, "fixture has no ground truth to recover"
    result = _recover(graph, sink_id)
    assert result.flows, "backward recovery found nothing"
    assert {f.sink for f in result.flows} == {sink_id}
    assert {f.source for f in result.flows} <= oracle_sources
    for flow in result.flows:
        verdict = review_flow(flow, graph)
        assert verdict.final_status == FinalStatus.NEEDS_HUMAN


def test_d_backward_recovery_and_no_false_stitches():
    # ten parametric hidden-chain fixtures of varying shape
    fixture_count = 0
    for seed, depth, hops in [(0, 1, 1), (1, 1, 3), (2, 2, 1), (3, 2, 2),
                              (4, 2, 4), (5, 3, 2), (6, 3, 3), (7, 4, 2),
                              (8, 5, 1)]:
        fix = hidden_chain_graph(seed, depth=depth, intra_hops=hops)
        _assert_recovers(fix.graph, fix.sink_id)
        fixture_count += 1

    # the fixed-vulnerability pattern: the historically known route is
    # sanitized, a new route hides behind a call boundary
    from argus.model import (
        AccessPathEdge,
        ContentNode,
        EdgeKind,
        NodeKind,
        ProgramGraph,
    )

    fix = hidden_chain_graph(9, depth=2)
    nodes = list(fix.graph.nodes.values())
    edges = list(fix.graph.edges.values())
    nodes.append(ContentNode(id="old_clean", kind=NodeKind.VARIABLE,
                             label="legacy.sanitize", function_id="f0",
                             taint_role=TaintRole.SANITIZER))
    edges.append(AccessPathEdge(id="old1", src=fix.source_id, dst="old_clean",
                                kind=EdgeKind.ASSIGN))
    edges.append(AccessPathEdge(id="old2", src="old_clean", dst=fix.sink_id,
                                kind=EdgeKind.CALL_PASS))
    patched = ProgramGraph(nodes, edges, list(fix.graph.functions.values()),
                           list(fix.graph.call_edges))
    _assert_recovers(patched, fix.sink_id)
    fixture_count += 1

    # the reflective XML-factory chain mirror from the bundled mini repo
    g2 = load_program_graph(fixture_path("publiccms_mini", "graph.json"))
    assert forward_search(g2, FlowQuery(sinks=("n_newinst",))) == []
    result = _recover(g2, "n_newinst")
    assert len(result.flows) == 1
    assert result.flows[0].origin == FlowOrigin.STITCHED
    assert review_flow(result.flows[0], g2).final_status == \
        FinalStatus.NEEDS_HUMAN
    fixture_count += 1
    assert fixture_count >= 10

    # controls: no planted ground truth, zero stitched flows allowed
    for seed in range(50):
        fix = hidden_chain_graph(seed, depth=2, plant_ground_truth=False,
                                 decoy_nodes=6)
        result = _recover(fix.graph, fix.sink_id)
        assert result.flows == [], f"false stitch on control seed {seed}"
    _report(f"recovery on {fixture_count} hidden-edge fixtures "
            "(forward=0, every recovered flow needs-human); "
            "zero false stitches on 50 controls")


def _mini_config(name, manifest, out_dir):
    return PipelineConfig(
        graph_path=fixture_path(name, "graph.json"),
        manifest_paths=[fixture_path(name, manifest)],
        fixtures_dir=fixture_path(name, "advisories"),
        llm="replay:" + fixture_path(name, "replay"),
        out_dir=str(out_dir),
    )


def test_e_end_to_end_determinism(tmp_path):
    for name, manifest in (("datagear_mini", "deps.json"),
                           ("publiccms_mini", "pom.xml")):
        with open(fixture_path(name, "expected.json")) as fh:
            want = json.load(fh)
        blobs = []
        for i in range(3):
            start = time.monotonic()
            out = tmp_path / f"{name}_{i}"
            report = run_pipeline(_mini_config(name, manifest, out))
            paths = export_report(report, str(out))
            assert time.monotonic() - start < 60.0
            with open(paths["json"], "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1] == blobs[2], f"{name}: report.json not byte-stable"
        summary = report.summary()
        assert summary["sinks_by_origin"].get("advisory_poc", 0) == want["rag_sinks"]
        assert summary["sinks_by_origin"].get("static_registry", 0) == want["static_sinks"]
        assert summary["flows_total"] == want["flows"]
        stitched = sum(1 for f in report.findings
                       if f.flow.origin == FlowOrigin.STITCHED)
        assert stitched == want["stitched_flows"]
        assert summary["confirmed"] == want["confirmed"]
    _report("end-to-end determinism: byte-identical report.json across 3 runs "
            "on both mini repos, summary counts match fixture manifests")


def test_f_token_conservation(tmp_path):
    import glob

    for name, manifest in (("datagear_mini", "deps.json"),
                           ("publiccms_mini", "pom.xml")):
        report = run_pipeline(_mini_config(name, manifest, tmp_path))
        usage = report.token_usage
        # per-stage totals sum to the pipeline totals
        assert usage["total_prompt"] == sum(
            s["prompt"] for s in usage["per_stage"].values())
        assert usage["total_completion"] == sum(
            s["completion"] for s in usage["per_stage"].values())
        assert usage["grand_total"] == usage["total_prompt"] + usage["total_completion"]
        # exact match with the independent summation over every transcript
        oracle_prompt = oracle_completion = 0
        for path in glob.glob(fixture_path(name, "replay", "*.jsonl")):
            p, c = sum_transcript_tokens(path)
            oracle_prompt += p
            oracle_completion += c
        assert usage["total_prompt"] == oracle_prompt
        assert usage["total_completion"] == oracle_completion
    _report("token conservation: metered totals equal independent transcript "
            "summation exactly on both mini repos")


def test_g_origin_partition(tmp_path):
    labels = {
        "datagear_mini": ("deps.json", {"advisory_poc": 2}),
        "publiccms_mini": ("pom.xml", {"static_registry": 1}),
    }
    for name, (manifest, want_vulns) in labels.items():
        report = run_pipeline(_mini_config(name, manifest, tmp_path))
        summary = report.summary()
        assert summary["vulnerabilities_by_sink_origin"] == want_vulns, name
    _report("sink-origin partition (static_registry vs advisory_poc) matches "
            "hand-labeled fixtures")


def test_h_exit_code_contract(tmp_path, capsys):
    clean_graph = {
        "format_version": "1",
        "functions": [{"id": "f1", "name": "noop", "is_entry_point": True}],
        "nodes": [{"id": "a", "kind": "variable", "function_id": "f1", "label": "a"}],
        "edges": [],
    }
    gpath = tmp_path / "clean.json"
    gpath.write_text(json.dumps(clean_graph))
    assert main(["scan", "--graph", str(gpath)]) == EXIT_OK
    assert main([
        "scan",
        "--graph", fixture_path("datagear_mini", "graph.json"),
        "--manifest", fixture_path("datagear_mini", "deps.json"),
        "--fixtures", fixture_path("datagear_mini", "advisories"),
        "--llm", "replay:" + fixture_path("datagear_mini", "replay"),
        "--out", str(tmp_path / "out"),
    ]) == EXIT_CONFIRMED
    assert main(["scan", "--graph", "/no/such/graph.json"]) == EXIT_CONFIG_ERROR
    capsys.readouterr()
    _report("exit codes: 0 clean repo, 1 confirmed finding, 2 missing graph")
