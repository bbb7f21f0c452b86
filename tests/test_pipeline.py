import json

import pytest

from argus.cli import EXIT_CONFIG_ERROR, main
from argus.errors import BackendError, ConfigError
from argus.model import FlowOrigin
from argus.pipeline import PipelineConfig, export_report, run_pipeline
from argus.review import ReviewMode
from tests.conftest import fixture_path
from tests.oracles import sum_transcript_tokens


def datagear_config(**overrides):
    cfg = PipelineConfig(
        graph_path=fixture_path("datagear_mini", "graph.json"),
        manifest_paths=[fixture_path("datagear_mini", "deps.json")],
        fixtures_dir=fixture_path("datagear_mini", "advisories"),
        llm="replay:" + fixture_path("datagear_mini", "replay"),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def publiccms_config(**overrides):
    cfg = PipelineConfig(
        graph_path=fixture_path("publiccms_mini", "graph.json"),
        manifest_paths=[fixture_path("publiccms_mini", "pom.xml")],
        fixtures_dir=fixture_path("publiccms_mini", "advisories"),
        llm="replay:" + fixture_path("publiccms_mini", "replay"),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def expected(name):
    with open(fixture_path(name, "expected.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_datagear_end_to_end():
    want = expected("datagear_mini")
    report = run_pipeline(datagear_config())
    summary = report.summary()
    assert summary["sinks_by_origin"].get("advisory_poc", 0) == want["rag_sinks"]
    assert summary["sinks_by_origin"].get("static_registry", 0) == want["static_sinks"]
    assert summary["flows_total"] == want["flows"]
    stitched = sum(
        1 for f in report.findings if f.flow.origin == FlowOrigin.STITCHED
    )
    assert stitched == want["stitched_flows"]
    assert summary["confirmed"] == want["confirmed"]


def test_datagear_token_conservation():
    want = expected("datagear_mini")
    report = run_pipeline(datagear_config())
    poc = report.token_usage["per_stage"]["poc"]
    assert poc["prompt"] == want["poc_prompt_tokens"]
    assert poc["completion"] == want["poc_completion_tokens"]
    oracle = sum_transcript_tokens(
        fixture_path("datagear_mini", "replay", "poc__CVE-2024-37759.jsonl")
    )
    assert (poc["prompt"], poc["completion"]) == oracle


def test_publiccms_end_to_end():
    want = expected("publiccms_mini")
    report = run_pipeline(publiccms_config())
    summary = report.summary()
    assert summary["sinks_by_origin"].get("advisory_poc", 0) == want["rag_sinks"]
    assert summary["sinks_by_origin"].get("static_registry", 0) == want["static_sinks"]
    assert summary["flows_total"] == want["flows"]
    stitched = [f for f in report.findings if f.flow.origin == FlowOrigin.STITCHED]
    assert len(stitched) == want["stitched_flows"]
    assert summary["confirmed"] == want["confirmed"]
    # the stitched flow carries a synthesized bridge and needs human review
    assert stitched[0].flow.has_bridged_edge
    assert stitched[0].verdict.final_status.value == "needs-human"


def test_publiccms_token_conservation():
    want = expected("publiccms_mini")
    report = run_pipeline(publiccms_config())
    poc = report.token_usage["per_stage"]["poc"]
    oracle = sum_transcript_tokens(
        fixture_path("publiccms_mini", "replay", "poc__CVE-2025-31672.jsonl")
    )
    assert (poc["prompt"], poc["completion"]) == oracle
    assert (poc["prompt"], poc["completion"]) == (
        want["poc_prompt_tokens"], want["poc_completion_tokens"],
    )


def test_report_export_deterministic(tmp_path):
    contents = []
    for i in range(3):
        out = tmp_path / f"run{i}"
        report = run_pipeline(datagear_config())
        paths = export_report(report, str(out))
        with open(paths["json"], "rb") as fh:
            contents.append(fh.read())
    assert contents[0] == contents[1] == contents[2]


def test_export_replaces_reports_whole(tmp_path):
    report = run_pipeline(datagear_config())
    paths = export_report(report, str(tmp_path))
    first = {name: (tmp_path / name).read_bytes() for name in ("report.json", "report.md")}
    assert export_report(report, str(tmp_path)) == paths
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.md"]
    assert {name: (tmp_path / name).read_bytes() for name in first} == first
    # A report that fails to serialize part-way leaves the previous one whole.
    report.advisories.append({"identifier": object()})
    with pytest.raises(TypeError):
        export_report(report, str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.md"]
    assert (tmp_path / "report.json").read_bytes() == first["report.json"]


def test_report_json_round_trips(tmp_path):
    report = run_pipeline(publiccms_config())
    paths = export_report(report, str(tmp_path))
    with open(paths["json"], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["report_version"] == "1"
    assert doc["summary"] == report.summary()
    assert doc["config_digest"] == report.config.digest()


def test_markdown_has_finding_sections(tmp_path):
    report = run_pipeline(datagear_config())
    paths = export_report(report, str(tmp_path))
    with open(paths["markdown"], "r", encoding="utf-8") as fh:
        md = fh.read()
    assert md.count("### Finding ") == len(report.findings)
    for f in report.findings:
        # one hop table row per triple
        assert len(f.verdict.hops) == len(f.flow.triples)


def test_missing_replay_transcript_warns_and_skips(tmp_path):
    # replay dir without the expected transcript file
    cfg = datagear_config(llm=f"replay:{tmp_path}")
    report = run_pipeline(cfg)
    assert any("no replay transcript" in w for w in report.warnings)
    assert report.summary()["sinks_by_origin"].get("advisory_poc", 0) == 0


def test_stub_backend_runs_without_fixtures():
    cfg = datagear_config(llm="stub")
    report = run_pipeline(cfg)
    # stub emits an empty payload: rejected PoC, no derived sinks
    assert all(p["status"] == "rejected" for p in report.poc_artifacts)


def test_validate_rejects_missing_graph():
    cfg = datagear_config(graph_path="/nonexistent/graph.json")
    with pytest.raises(ConfigError):
        run_pipeline(cfg)


def test_validate_rejects_unknown_backends():
    with pytest.raises(ConfigError):
        run_pipeline(datagear_config(llm="quantum"))
    with pytest.raises(ConfigError):
        run_pipeline(datagear_config(analysis_backend="magic"))


@pytest.mark.parametrize("override", [
    {"max_flow_length": 0},
    {"max_flows_per_sink": 0},
    {"max_depth": 0},
    {"max_depth": "3"},
    {"gate_threshold": "high"},
    {"gate_weights": (0.5, 0.5, 0.5)},
    {"gate_weights": (0.5, 0.5)},
    {"gate_weights": 5},
    {"review_mode": "LLMX"},
    {"auto_confirm_forward_flows": "false"},
    {"scan_unused_dependencies": "false"},
    {"manifest_paths": None},
    {"manifest_paths": [None]},
    {"llm": None},
    {"out_dir": 5},
    {"llm": "live"},
    {"llm": "live", "live_llm_endpoint": "http://localhost:9"},
    {"max_flow_length": True},
    {"gate_threshold": True},
])
def test_validate_rejects_bad_numeric_fields(override):
    with pytest.raises(ConfigError):
        datagear_config(**override).validate()


def test_llm_review_runs_on_every_llm_backend(tmp_path, capsys, monkeypatch):
    # The datagear graph marks no sink, so without a replayed PoC its scan
    # has no flow to review; publiccms has a registry sink.
    report = run_pipeline(publiccms_config(llm="stub", review_mode="llm"))
    assert report.findings
    assert all(f.verdict.mode == ReviewMode.LLM for f in report.findings)
    review = report.token_usage["per_stage"]["review"]
    assert review["prompt"] + review["completion"] > 0

    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"llm": "live", "review_mode": "llm"}))
    code = main(["scan", "--config", str(cpath),
                 "--graph", fixture_path("publiccms_mini", "graph.json")])
    assert code == EXIT_CONFIG_ERROR
    assert "live_llm_endpoint" in capsys.readouterr().err

    # The live backend reviews too: without an API key its first call
    # fails, before any request is sent.
    monkeypatch.delenv("ARGUS_API_KEY", raising=False)
    live = publiccms_config(llm="live", review_mode="llm", manifest_paths=[],
                            live_llm_endpoint="http://localhost:9", live_llm_model="m")
    with pytest.raises(BackendError, match="ARGUS_API_KEY"):
        run_pipeline(live)


def test_config_digest_stable_and_sensitive():
    a, b = datagear_config(), datagear_config()
    assert a.digest() == b.digest()
    assert a.digest() != datagear_config(gate_threshold=0.6).digest()


def test_sarif_backend_integration(tmp_path):
    cfg = PipelineConfig(
        graph_path=fixture_path("sarif", "graph.json"),
        analysis_backend="sarif:" + fixture_path("sarif", "results.sarif"),
    )
    report = run_pipeline(cfg)
    assert report.summary()["flows_total"] == 1
    assert report.findings[0].flow.edge_ids == ("e1", "e2")
    assert any("app/other.py" in w for w in report.warnings)


def test_malformed_sink_registry_fails_before_any_agent_runs(tmp_path, monkeypatch):
    registry = tmp_path / "registry.json"
    registry.write_text("{not json")

    def no_agent(*args, **kwargs):
        raise AssertionError("an agent ran before the registry was read")

    monkeypatch.setattr("argus.pipeline.generate_poc", no_agent)
    with pytest.raises(ConfigError, match="cannot read sink registry"):
        run_pipeline(datagear_config(sink_registry_path=str(registry)))
