import dataclasses
import enum
import gc
import hashlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import weakref
from collections import Counter, OrderedDict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from argus import __version__
from argus.agent import ChatTurn, LLMBackend, Role
from argus.cli import EXIT_CONFIG_ERROR, main
from argus.deps import find_usages
from argus.engine import FlowQuery, forward_search, import_sarif
from argus.errors import BackendError, ConfigError
from argus.model import (
    AccessPathEdge,
    ContentNode,
    EdgeKind,
    FlowOrigin,
    FunctionDecl,
    NodeKind,
    ProgramGraph,
    SharedDict,
    TaintRole,
    graph_from_dict,
    graph_to_dict,
    validate_flow,
)
from argus.pipeline import (
    PipelineConfig,
    export_report,
    find_flows,
    run_pipeline,
    write_report_json,
)
from argus.poc import generate_poc
from argus.review import FinalStatus, ReviewMode
from argus.synthetic import hidden_chain_graph, random_graph
from tests.conftest import fixture_path
from tests.oracles import sum_transcript_tokens


def datagear_config(**overrides):
    return PipelineConfig(**{
        "graph_path": fixture_path("datagear_mini", "graph.json"),
        "manifest_paths": [fixture_path("datagear_mini", "deps.json")],
        "fixtures_dir": fixture_path("datagear_mini", "advisories"),
        "llm": "replay:" + fixture_path("datagear_mini", "replay"),
        **overrides,
    })


def publiccms_config(**overrides):
    return PipelineConfig(**{
        "graph_path": fixture_path("publiccms_mini", "graph.json"),
        "manifest_paths": [fixture_path("publiccms_mini", "pom.xml")],
        "fixtures_dir": fixture_path("publiccms_mini", "advisories"),
        "llm": "replay:" + fixture_path("publiccms_mini", "replay"),
        **overrides,
    })


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



class _Level(int, enum.Enum):
    LOW = 1
    HIGH = 2


# Text that json escapes: quotes, backslashes, control characters,
# non-ASCII and astral characters, and lone surrogates.
_text = st.text(st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u4e2d",
                     "\U0001f600", "\ud800", "\udfff"]),
), max_size=8)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**40, -(10**40), -1, 0]),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300]),
    _text,
    st.sampled_from([*FinalStatus, *NodeKind, *_Level]),
)
_keys = st.one_of(_text, st.sampled_from([*FinalStatus, *NodeKind]))
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        # A dict subclass other than SharedDict is written as any dict.
        st.dictionaries(_keys, inner, max_size=4).map(OrderedDict),
    ),
    max_leaves=24,
)


def _written(doc):
    fh = io.StringIO()
    write_report_json(doc, fh)
    return fh.getvalue()


@settings(max_examples=400, deadline=None)
@given(doc=_json_values)
def test_report_writer_matches_indented_json_dumps(doc):
    assert _written(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def _docs_sharing_dicts(draw):
    """A document that holds the same dict objects several times, at the
    same indent and at different ones: two :class:`SharedDict` objects,
    ``outer`` holding ``shared``, an empty one, and a plain dict."""
    shared = SharedDict(draw(st.dictionaries(_keys, _json_values, min_size=1, max_size=3)))
    outer = SharedDict({"k": shared, "j": [shared]})
    plain = {"p": shared, "q": [1, "x"]}
    leaves = st.one_of(st.sampled_from([shared, outer, SharedDict(), plain]), _scalars)
    return draw(st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(_keys, inner, max_size=4),
        ),
        max_leaves=16,
    ))


def _shared_indents(o, depth=0, found=None):
    """``id`` of each non-empty SharedDict in ``o`` -> the depths it is met at."""
    found = {} if found is None else found
    if isinstance(o, dict):
        if type(o) is SharedDict and o:
            found.setdefault(id(o), set()).add(depth)
        for value in o.values():
            _shared_indents(value, depth + 1, found)
    elif isinstance(o, (list, tuple)):
        for item in o:
            _shared_indents(item, depth + 1, found)
    return found


_d = SharedDict({"b": [1, {"c": None}], "a": "x"})


@settings(max_examples=200, deadline=None)
@given(doc=_docs_sharing_dicts())
@example(doc=[_d, _d, {"k": _d, "j": [_d]}])
@example(doc={"k": _d, "j": [_d, _d, _d], "i": [[_d]]})
def test_report_writer_reuses_the_text_of_a_repeated_dict_only_at_its_indent(doc):
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    calls = Counter()

    def items(self):
        calls[id(self)] += 1
        return dict.items(self)

    with mock.patch.object(SharedDict, "items", items):
        got = _written(doc)
    assert got == want
    assert calls == Counter({k: len(v) for k, v in _shared_indents(doc).items()})


def test_report_writer_flushes_in_pieces_and_rejects_what_json_rejects():
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    doc = {"rows": [{"id": i, "tags": [str(i), None, i / 3]} for i in range(500)]}
    fh = Recording()
    write_report_json(doc, fh)
    assert len(writes) > 1
    assert fh.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for bad in ({1: "a"}, {"a": {(1, 2): "b"}}, object(), ["a", object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            _written(bad)

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


def test_missing_review_transcript_warns_and_reviews_by_rules():
    # The fixture's replay directory holds only its PoC transcript.
    report = run_pipeline(publiccms_config(review_mode="llm"))
    assert report.findings
    assert all(f.verdict.mode == ReviewMode.RULE for f in report.findings)
    sinks = [f.sink_id for f in report.findings]
    want = [f"review: no replay transcript for {sink}__{i}; reviewed by rules"
            for sink in sorted(set(sinks)) for i in range(sinks.count(sink))]
    assert sorted(w for w in report.warnings if w.startswith("review:")) == sorted(want)
    assert report.token_usage["per_stage"]["review"] == {"prompt": 0, "completion": 0}


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
    {"manifest_paths": None},
    {"manifest_paths": [None]},
    {"llm": None},
    {"out_dir": 5},
    {"llm": "live"},
    {"llm": "live", "live_llm_endpoint": "http://localhost:9"},
    {"max_flow_length": True},
    {"gate_threshold": True},
    {"gate_threshold": float("nan")},
    {"gate_threshold": float("inf")},
    {"gate_weights": (float("nan"), 0.5, 0.5)},
    {"gate_weights": (float("inf"), -float("inf"), 1.0)},
    {"gate_weights": (10 ** 400, -10 ** 400, 1)},
    {"gate_weights": (True, False, False)},
    {"graph_path": 5},
    {"sink_registry_path": 5},
    {"analysis_backend": None},
])
def test_validate_rejects_bad_numeric_fields(override):
    # A config is checked when it is built, so an invalid one never exists.
    with pytest.raises(ConfigError):
        datagear_config(**override)


def test_replacing_a_field_checks_the_new_value():
    cfg = datagear_config()
    with pytest.raises(ConfigError, match="max_depth must be an integer >= 1"):
        dataclasses.replace(cfg, max_depth=0)


def test_config_sequences_are_stored_as_tuples():
    # A frozen config holds no list, so no caller can change it once it is
    # checked, and it can be hashed; its report form still has lists.
    manifest = fixture_path("datagear_mini", "deps.json")
    cfg = datagear_config(gate_weights=[0.5, 0.3, 0.2])
    assert cfg.manifest_paths == (manifest,)
    assert cfg.gate_weights == (0.5, 0.3, 0.2)
    with pytest.raises(AttributeError):
        cfg.manifest_paths.append(5)
    assert hash(cfg) == hash(datagear_config(manifest_paths=(manifest,),
                                             gate_weights=(0.5, 0.3, 0.2)))
    replaced = dataclasses.replace(cfg, manifest_paths=[manifest, manifest])
    assert replaced.manifest_paths == (manifest, manifest)
    assert cfg.to_dict()["manifest_paths"] == [manifest]
    assert cfg.to_dict()["gate_weights"] == [0.5, 0.3, 0.2]


def test_digest_is_the_sha256_of_the_canonical_config():
    for cfg in (PipelineConfig(), datagear_config(), publiccms_config(review_mode="llm"),
                datagear_config(gate_weights=[0.2, 0.3, 0.5], max_depth=3,
                                graph_path="gräph/ünïcode.json")):
        canon = json.dumps(cfg.to_dict(), sort_keys=True)
        assert cfg.digest() == hashlib.sha256(canon.encode()).hexdigest()


_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.skipif(
    importlib.util.find_spec("_sha2") is None and importlib.util.find_spec("_sha256") is None,
    reason="this interpreter has no built-in SHA-256 module",
)
@pytest.mark.parametrize("name, manifest", [("datagear_mini", "deps.json"),
                                            ("publiccms_mini", "pom.xml")])
def test_scan_process_does_not_load_openssl(tmp_path, name, manifest):
    # hashlib maps OpenSSL into the process (3.6 MB resident) through
    # _hashlib; a scan hashes one config and needs none of it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "argus.cli", "scan",
         "--graph", fixture_path(name, "graph.json"),
         "--manifest", fixture_path(name, manifest),
         "--fixtures", fixture_path(name, "advisories"),
         "--llm", "replay:" + fixture_path(name, "replay"),
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode in (0, 1), proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "argus.pipeline" in imported
    assert "_hashlib" not in imported


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
    # fails, before any request is sent. The failure is recorded per flow
    # and each flow is reviewed by rules, so the scan still reports it.
    monkeypatch.delenv("ARGUS_API_KEY", raising=False)
    live = publiccms_config(llm="live", review_mode="llm", manifest_paths=[],
                            live_llm_endpoint="http://localhost:9", live_llm_model="m")
    report = run_pipeline(live)
    assert report.findings
    assert all(f.verdict.mode == ReviewMode.RULE for f in report.findings)
    assert len(report.stage_errors) == len(report.findings)
    for f, error in zip(report.findings, sorted(report.stage_errors)):
        assert error.startswith(f"review {f.sink_id}: ")
        assert "ARGUS_API_KEY" in error
    assert report.token_usage["per_stage"]["review"] == {"prompt": 0, "completion": 0}


def test_malformed_live_review_answer_costs_only_the_llm_review(monkeypatch):
    # The endpoint answers with a null content: each flow's review call
    # fails as a backend error, and the flow is reviewed by rules.
    def urlopen(request, timeout):
        return io.BytesIO(b'{"choices": [{"message": {"content": null}}]}')

    monkeypatch.setenv("ARGUS_API_KEY", "k123")
    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    live = publiccms_config(llm="live", review_mode="llm", manifest_paths=[],
                            live_llm_endpoint="http://localhost:9", live_llm_model="m")
    report = run_pipeline(live)
    assert report.findings
    assert all(f.verdict.mode == ReviewMode.RULE for f in report.findings)
    assert len(report.stage_errors) == len(report.findings)
    for f, error in zip(report.findings, sorted(report.stage_errors)):
        assert error.startswith(f"review {f.sink_id}: ")
        assert "not a string" in error


def test_config_digest_stable_and_sensitive():
    a, b = datagear_config(), datagear_config()
    assert a.digest() == b.digest()
    # Every field changes the digest but the three that name where the
    # report goes and which live model answers. A valid value of each
    # field, other than datagear_config()'s:
    other_values = {
        "graph_path": "other.json",
        "manifest_paths": (),
        "fixtures_dir": None,
        "llm": "stub",
        "analysis_backend": "sarif:results.sarif",
        "gate_weights": (0.5, 0.3, 0.2),
        "gate_threshold": 0.6,
        "max_flow_length": 5,
        "max_flows_per_sink": 5,
        "max_depth": 3,
        "out_dir": "out",
        "review_mode": "llm",
        "sink_registry_path": "registry.json",
        "live_llm_endpoint": "http://localhost:9",
        "live_llm_model": "m",
    }
    assert set(other_values) == {f.name for f in dataclasses.fields(PipelineConfig)}
    for name, value in other_values.items():
        changed = dataclasses.replace(a, **{name: value})
        assert getattr(changed, name) != getattr(a, name)
        undigested = name in ("out_dir", "live_llm_endpoint", "live_llm_model")
        assert (changed.digest() == a.digest()) == undigested, name


def test_a_failing_backend_meters_the_turns_it_exchanged(monkeypatch):
    # Each conversation gets one 50-token answer with no final block; the
    # next call fails. The failure is a stage error as before, and the
    # turns exchanged until then are metered.
    sent = {"poc": [], "review": []}

    class AnswersOnce(LLMBackend):
        def __init__(self, stage):
            self.stage = stage

        def complete(self, turns):
            if turns[-1].role == Role.ASSISTANT:
                raise BackendError("connection reset")
            sent[self.stage].append(sum(t.token_count for t in turns))
            return ChatTurn(Role.ASSISTANT, "Reading the advisory first.", token_count=50)

    rules = run_pipeline(publiccms_config(llm="stub"))
    monkeypatch.setattr("argus.pipeline._make_backend",
                        lambda config, stage, key: AnswersOnce(stage))
    report = run_pipeline(publiccms_config(review_mode="llm"))
    assert [(f.sink_id, f.verdict.to_dict()) for f in report.findings] == [
        (f.sink_id, f.verdict.to_dict()) for f in rules.findings
    ]
    assert sorted(report.stage_errors) == [
        "poc CVE-2025-31672: connection reset", "review n_newinst: connection reset"
    ]
    assert report.poc_artifacts == []
    assert [len(prompts) for prompts in sent.values()] == [1, 1]
    assert report.token_usage["per_stage"] == {
        stage: {"prompt": prompts[0], "completion": 50} for stage, prompts in sent.items()
    }


def test_sarif_backend_integration(tmp_path):
    cfg = PipelineConfig(
        graph_path=fixture_path("sarif", "graph.json"),
        analysis_backend="sarif:" + fixture_path("sarif", "results.sarif"),
    )
    report = run_pipeline(cfg)
    assert report.summary()["flows_total"] == 1
    assert report.findings[0].flow.edge_ids == ("e1", "e2")
    assert any("app/other.py" in w for w in report.warnings)


def test_registry_match_on_a_source_keeps_its_role_and_is_not_searched(tmp_path, monkeypatch):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({
        "sql": ["com.publiccms.common.tools.DocToHtmlUtils.excelToHtml.doc"],
        "xml-parse": ["javax.xml.parsers.DocumentBuilderFactory.newInstance"],
    }))
    searched = []

    def recording_find_flows(graph, sink_id, *args):
        searched.append(sink_id)
        return find_flows(graph, sink_id, *args)

    monkeypatch.setattr("argus.pipeline.find_flows", recording_find_flows)
    report = run_pipeline(publiccms_config(sink_registry_path=str(registry)))
    assert [s["node_id"] for s in report.sinks] == ["n_doc", "n_newinst"]
    assert report.sinks[0]["kept_role"] == "source"
    assert report.sinks[0]["sink_kind"] == "sql"
    assert "kept_role" not in report.sinks[1]
    assert "sinks: n_doc keeps role source; not searched" in report.warnings
    assert searched == ["n_newinst"]
    assert [f.sink_id for f in report.findings] == ["n_newinst"]


def test_diverging_poc_replay_is_a_stage_error_and_the_scan_goes_on(tmp_path):
    replay = tmp_path / "replay"
    replay.mkdir()
    [recorded] = Path(fixture_path("publiccms_mini", "replay")).glob("poc__*.jsonl")
    lines = recorded.read_text().splitlines(keepends=True)
    # One more recorded user turn before the answer than the live loop sends.
    extra = json.dumps({"role": "user", "content": "more", "tool_name": None, "token_count": 1})
    (replay / recorded.name).write_text("".join(lines[:3]) + extra + "\n" + "".join(lines[3:]))
    golden = run_pipeline(publiccms_config())
    report = run_pipeline(publiccms_config(llm=f"replay:{replay}"))
    assert report.stage_errors == [
        "poc CVE-2025-31672: replay divergence before assistant turn 0: "
        "conversation shape differs from recording"
    ]
    assert report.poc_artifacts == []
    # The registry sink is still searched and reviewed, now with no advisory.
    assert [f.flow for f in report.findings] == [f.flow for f in golden.findings]
    assert [f.advisory_id for f in report.findings] == [None]
    assert report.summary() == golden.summary()


def test_malformed_sink_registry_fails_before_any_agent_runs(tmp_path, monkeypatch):
    registry = tmp_path / "registry.json"
    registry.write_text("{not json")

    def no_agent(*args, **kwargs):
        raise AssertionError("an agent ran before the registry was read")

    monkeypatch.setattr("argus.pipeline.generate_poc", no_agent)
    with pytest.raises(ConfigError, match="cannot read sink registry"):
        run_pipeline(datagear_config(sink_registry_path=str(registry)))


def synthetic_config(graph, path):
    path.write_text(json.dumps(graph_to_dict(graph)))
    return PipelineConfig(graph_path=str(path), max_flow_length=8)


@pytest.mark.parametrize("enabled", [True, False])
def test_scan_and_export_restore_the_callers_gc_setting(tmp_path, enabled):
    registry = tmp_path / "registry.json"
    registry.write_text("{not json")
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the output directory should be")
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        report = run_pipeline(publiccms_config())
        assert gc.isenabled() is enabled
        export_report(report, str(tmp_path / "out"))
        assert gc.isenabled() is enabled
        with pytest.raises(ConfigError, match="graph file not found"):
            run_pipeline(publiccms_config(graph_path=str(tmp_path / "missing.json")))
        assert gc.isenabled() is enabled
        with pytest.raises(ConfigError, match="cannot read sink registry"):
            run_pipeline(publiccms_config(sink_registry_path=str(registry)))
        assert gc.isenabled() is enabled
        with pytest.raises(OSError):
            export_report(report, str(blocked))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_no_collection_starts_inside_a_scan(tmp_path):
    config = synthetic_config(hidden_chain_graph(3).graph, tmp_path / "graph.json")
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    threshold = gc.get_threshold()
    gc.callbacks.append(record)
    try:
        # A collection every 10 allocations: an unpaused scan starts many.
        gc.set_threshold(10)
        gc.collect()
        starts.clear()
        report = run_pipeline(config)
        assert starts == []
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(record)
    assert report.findings


def diamond_chain_graph(diamonds):
    """``m0`` (a source) to ``m<diamonds>`` (a sink) through ``diamonds``
    diamonds ``m<i> -> a<i> | b<i> -> m<i+1>``: 2**diamonds flows, which
    share their prefixes and suffixes."""
    ids = [f"m{i}" for i in range(diamonds + 1)]
    ids += [f"{side}{i}" for i in range(diamonds) for side in "ab"]
    roles = {"m0": TaintRole.SOURCE, f"m{diamonds}": TaintRole.SINK}
    nodes = [
        ContentNode(
            id=nid, kind=NodeKind.VARIABLE, label=f"var.{nid}", function_id="f0",
            taint_role=roles.get(nid, TaintRole.NONE),
            source_kind="http-param" if nid == "m0" else None,
            sink_kind="command-exec" if nid == f"m{diamonds}" else None,
        )
        for nid in ids
    ]
    edges = [
        AccessPathEdge(id=f"e{i}{side}{half}", src=src, dst=dst, kind=EdgeKind.ASSIGN)
        for i in range(diamonds)
        for side in "ab"
        for half, (src, dst) in enumerate(
            [(f"m{i}", f"{side}{i}"), (f"{side}{i}", f"m{i + 1}")])
    ]
    return ProgramGraph(nodes, edges, [FunctionDecl(id="f0", name="f0", is_entry_point=True)])


def test_report_builds_each_distinct_triple_and_hop_once(tmp_path):
    report = run_pipeline(synthetic_config(diamond_chain_graph(3), tmp_path / "g.json"))
    assert len(report.findings) == 8
    doc = report.to_dict()
    for part, key in (("flow", "triples"), ("verdict", "hops")):
        steps = [step for f in doc["findings"] for step in f[part][key]]
        distinct = {json.dumps(step, sort_keys=True) for step in steps}
        assert len(steps) == 8 * 6 and len(distinct) < len(steps)
        assert len({id(step) for step in steps}) == len(distinct)
        assert all(type(step) is SharedDict for step in steps)
    # The findings of one sink hold one sink dict.
    sinks = [f["sink"] for f in doc["findings"]]
    assert type(sinks[0]) is SharedDict and all(s is sinks[0] for s in sinks)
    # Interned across the report or per finding, the document is the same.
    assert doc["findings"] == [f.to_dict() for f in report.findings]
    assert json.loads(json.dumps(doc)) == doc
    assert _written(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


_CAUGHT_REPORT_MD = """\
# Vulnerability Report

Tool version: <version>
Config digest: `<digest>`

## Summary

- Candidate sinks: 1
- Sinks by origin: {'static_registry': 1}
- Flows analyzed: 2
- Verdicts: {'confirmed': 2}
- Vulnerabilities by sink origin: {'static_registry': 2}

## Token usage

```
{
  "grand_total": 0,
  "per_stage": {
    "poc": {
      "completion": 0,
      "prompt": 0
    },
    "review": {
      "completion": 0,
      "prompt": 0
    }
  },
  "total_completion": 0,
  "total_prompt": 0
}
```

## Findings

### Finding 1: Runtime.exec

- Sink node: `snk` (origin: static_registry)
- Flow origin: forward, length 2
- Status: **confirmed**
- Interrupting constructs: ['exception handler (edge e1)']

| hop | path | via | neutralization |
|-----|------|-----|----------------|
| 1 | req.getParameter -> cmd | assign | none |
| 2 | cmd -> Runtime.exec | call-pass | none |

### Finding 2: Runtime.exec

- Sink node: `snk` (origin: static_registry)
- Flow origin: forward, length 3
- Status: **confirmed**
- Interrupting constructs: ['exception handler (edge e1)']

| hop | path | via | neutralization |
|-----|------|-----|----------------|
| 1 | req.getParameter -> cmd | assign | none |
| 2 | cmd -> copy | assign | none |
| 3 | copy -> Runtime.exec | call-pass | none |

"""


def test_markdown_lists_interrupting_constructs_and_repeats_shared_rows(tmp_path):
    # Two flows to one sink share their first step, whose edge is caught.
    nodes = [
        ContentNode("src", NodeKind.PARAMETER, "req.getParameter", "f0", TaintRole.SOURCE,
                    "http-param"),
        ContentNode("m", NodeKind.VARIABLE, "cmd", "f0"),
        ContentNode("x", NodeKind.VARIABLE, "copy", "f0"),
        ContentNode("snk", NodeKind.CALL_ARGUMENT, "Runtime.exec", "f0", TaintRole.SINK,
                    sink_kind="command-exec"),
    ]
    edges = [
        AccessPathEdge("e1", "src", "m", EdgeKind.ASSIGN, guard_tags=frozenset({"caught"})),
        AccessPathEdge("e2", "m", "snk", EdgeKind.CALL_PASS),
        AccessPathEdge("e3", "m", "x", EdgeKind.ASSIGN),
        AccessPathEdge("e4", "x", "snk", EdgeKind.CALL_PASS),
    ]
    graph = ProgramGraph(nodes, edges,
                         [FunctionDecl("f0", "f0", ("src",), is_entry_point=True)])
    report = run_pipeline(synthetic_config(graph, tmp_path / "g.json"))
    first, second = report.findings
    assert first.verdict.hops[0] is second.verdict.hops[0]
    paths = export_report(report, str(tmp_path / "out"))
    with open(paths["markdown"], encoding="utf-8") as fh:
        text = fh.read()
    assert text.count("- Interrupting constructs: ['exception handler (edge e1)']") == 2
    rows = text.splitlines()
    assert rows.count("| 1 | req.getParameter -> cmd | assign | none |") == 2
    # The rendering of the same report before rows were cached; the version
    # line ends in a Markdown line break.
    want = _CAUGHT_REPORT_MD.replace("<version>", __version__ + "  ")
    assert text == want.replace("<digest>", report.config.digest())


def test_cyclic_garbage_of_a_scan_does_not_grow_with_the_graph(tmp_path):
    def garbage_after_scan(graph, name):
        config = synthetic_config(graph, tmp_path / f"{name}.json")
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            report = run_pipeline(config)
            export_report(report, str(tmp_path / name))
            return gc.collect(), len(report.findings)
        finally:
            if was_enabled:
                gc.enable()

    small = hidden_chain_graph(3).graph
    large = random_graph(1, n_nodes=10 * len(small.nodes), n_edges=20 * len(small.nodes),
                         n_sources=4, n_sinks=4, n_sanitizers=2, hidden_edge_fraction=0.2)
    small_garbage, small_findings = garbage_after_scan(small, "small")
    large_garbage, large_findings = garbage_after_scan(large, "large")
    assert small_findings and large_findings > small_findings
    # Every container of a scan and its export is freed by reference
    # counting, so the collector finds nothing, whatever the graph's size.
    assert small_garbage == large_garbage == 0


def test_the_graphs_label_index_is_gone_before_the_first_search(monkeypatch):
    # Stages 1-4 look labels up on the loaded graph. The scan then swaps in
    # the sink overlay, which inherits no index, so the label index dies
    # with the loaded graph instead of living through search and review.
    labels = []
    gone_at_search = []
    with_sinks = ProgramGraph.with_sinks

    def recording_with_sinks(graph, sink_kinds):
        assert graph._labels is not None
        labels.append(weakref.ref(graph._labels))
        return with_sinks(graph, sink_kinds)

    def checking_forward_search(graph, query):
        gone_at_search.append(labels[0]() is None)
        return forward_search(graph, query)

    monkeypatch.setattr(ProgramGraph, "with_sinks", recording_with_sinks)
    monkeypatch.setattr("argus.pipeline.forward_search", checking_forward_search)
    report = run_pipeline(publiccms_config())
    assert report.findings
    assert len(labels) == 1
    assert gone_at_search and gone_at_search[0]


def _flow_graphs():
    random_graphs = st.builds(
        lambda seed, hidden: random_graph(seed, n_nodes=14, n_edges=34, n_sinks=3,
                                          hidden_edge_fraction=hidden),
        st.integers(0, 10_000), st.sampled_from([0.0, 0.3]),
    )
    chains = st.builds(
        lambda seed, depth, hops, planted: hidden_chain_graph(
            seed, depth=depth, intra_hops=hops, plant_ground_truth=planted).graph,
        st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3), st.booleans(),
    )
    return st.one_of(random_graphs, chains)


@settings(max_examples=150, deadline=None)
@given(
    graph=_flow_graphs(),
    marked=st.sets(st.integers(0, 40), max_size=4),
    bound=st.sampled_from([2, 4, 8, 16, 64]),
    cap=st.sampled_from([1, 3, 32]),
)
def test_every_flow_find_flows_returns_passes_validation(graph, marked, bound, cap):
    """Forward and stitched flows alike pass ``validate_flow`` on the sink
    overlay the scan searches, so a scan need not check them again."""
    node_ids = sorted(graph.nodes)
    overlay = graph.with_sinks({node_ids[i % len(node_ids)]: "k" for i in marked})
    config = PipelineConfig(max_flow_length=bound, max_flows_per_sink=cap)
    for sink in overlay.nodes_by_role(TaintRole.SINK):
        flows, _ = find_flows(overlay, sink.id, config)
        assert len(flows) <= cap
        for flow in flows:
            assert flow.sink == sink.id
            check = validate_flow(flow, overlay, allow_bridged=True)
            assert check.ok, check.violations


def _anchored(graph):
    """``graph`` with one anchor per node: the ``i``-th node in id order is
    line ``i + 1`` of ``app/main.py``."""
    doc = graph_to_dict(graph)
    doc["anchors"] = [{"file": "app/main.py", "start_line": i + 1, "end_line": i + 1,
                       "node_id": node_id} for i, node_id in enumerate(sorted(graph.nodes))]
    return graph_from_dict(doc)


def _walk(graph, start, choices):
    """The path from ``start`` that takes, at each step, the out-edge the
    next choice picks, up to the first node with none."""
    path = [start]
    for k in choices:
        out = graph.outgoing(path[-1])
        if not out:
            break
        path.append(out[k % len(out)].dst)
    return path


def _sarif(paths, line):
    """A SARIF document with one thread flow per path; a node id is located
    at its line, and ``None`` at a line no anchor holds."""
    def location(node_id):
        return {"location": {"physicalLocation": {
            "artifactLocation": {"uri": "app/main.py"},
            "region": {"startLine": line.get(node_id, len(line) + 1)},
        }}}

    return {"version": "2.1.0", "runs": [{"results": [{"codeFlows": [{"threadFlows": [
        {"locations": [location(n) for n in path]} for path in paths
    ]}]}]}]}


@settings(max_examples=150, deadline=None)
@given(
    graph=_flow_graphs(),
    marked=st.sets(st.integers(0, 40), max_size=3),
    bound=st.sampled_from([2, 4, 8, 16]),
    data=st.data(),
)
def test_every_flow_a_sarif_scan_finds_passes_validation(tmp_path_factory, graph, marked,
                                                         bound, data):
    """SARIF-imported flows need no check in a scan either. On the sink
    overlay the scan imports them against, a thread flow is imported
    exactly when it is a real source-to-sink path under the bound, and
    every flow ``find_flows`` returns from the import, or stitches where
    none ends at the sink, passes ``validate_flow``."""
    graph = _anchored(graph)
    node_ids = sorted(graph.nodes)
    overlay = graph.with_sinks({node_ids[i % len(node_ids)]: "k" for i in marked})
    sinks = tuple(n.id for n in overlay.nodes_by_role(TaintRole.SINK))
    # Real source-to-sink paths; those of length bound and bound + 1 are over it.
    real = [[f.source, *(t.to_node for t in f.triples)]
            for f in forward_search(overlay, FlowQuery(sinks=sinks, max_length=bound + 2))]
    walks = st.builds(lambda start, choices: _walk(overlay, start, choices),
                      st.sampled_from(node_ids), st.lists(st.integers(0, 99), max_size=bound + 2))
    broken = st.lists(st.sampled_from(node_ids), min_size=1, max_size=5)
    paths = st.one_of(*([st.sampled_from(real)] if real else []), walks, broken)
    # An unanchored line replaces the node at one position, if the path has it.
    holed = st.builds(lambda path, hole: [None if i == hole else n for i, n in enumerate(path)],
                      paths, st.integers(0, 12))
    thread_flows = [*real[:3], *data.draw(st.lists(holed, max_size=5))]

    sarif = tmp_path_factory.mktemp("sarif") / "results.sarif"
    sarif.write_text(json.dumps(_sarif(thread_flows, {n: i + 1 for i, n in enumerate(node_ids)})))
    result = import_sarif(str(sarif), overlay, max_length=bound)

    edges = {(e.src, e.dst) for e in overlay.edges.values()}

    def real_under_bound(p):
        return (None not in p and 2 <= len(p) <= bound
                and all(step in edges for step in zip(p, p[1:]))
                and overlay.nodes[p[0]].taint_role == TaintRole.SOURCE
                and overlay.nodes[p[-1]].taint_role == TaintRole.SINK)

    imported = [[f.source, *(t.to_node for t in f.triples)] for f in result.flows]
    assert imported == [p for p in thread_flows if real_under_bound(p)]
    assert len(result.skipped) == len(thread_flows) - len(imported)
    config = PipelineConfig(max_flow_length=bound)
    for sink in sinks:
        flows, _ = find_flows(overlay, sink, config, result.flows)
        for flow in flows:
            assert flow.sink == sink
            check = validate_flow(flow, overlay, allow_bridged=True)
            assert check.ok, check.violations


@pytest.mark.parametrize("config", [datagear_config, publiccms_config])
def test_poc_context_gives_the_usages_of_the_advisorys_own_dependency(tmp_path, monkeypatch,
                                                                      config):
    """A scan looks up usage once per PoC that runs, for the advisory's own
    dependency, and the prompt lists what it finds; a dependency with no
    advisory is never looked up."""
    base = config()
    advisories = tmp_path / "advisories"
    shutil.copytree(base.fixtures_dir, advisories)
    (advisories / "NVD__org.ghost__ghost-core.json").write_text(json.dumps([{
        "identifier": "CVE-0000-0001",
        "description": "A dependency no graph node uses.",
        "severity": "low",
        "affected_versions": "*",
    }]))
    replay = tmp_path / "replay"
    shutil.copytree(base.llm.split(":", 1)[1], replay)
    [recorded] = replay.glob("poc__*.jsonl")
    shutil.copy(recorded, replay / "poc__CVE-0000-0001.jsonl")
    manifest = tmp_path / "deps.json"
    manifest.write_text(json.dumps({"format_version": "1", "dependencies": [
        {"ecosystem": "maven", "name": "com.example:no-advisory", "version": "1.0"},
        {"ecosystem": "maven", "name": "org.ghost:ghost-core", "version": "1.0"},
    ]}))
    prompts, lookups = [], []

    def recording_generate_poc(advisory, context, backend):
        prompts.append((advisory.dependency, context))
        return generate_poc(advisory, context, backend)

    def recording_find_usages(graph, dep):
        usage = find_usages(graph, dep)
        lookups.append((dep.name, usage.node_ids))
        return usage

    monkeypatch.setattr("argus.pipeline.generate_poc", recording_generate_poc)
    monkeypatch.setattr("argus.pipeline.find_usages", recording_find_usages)
    report = run_pipeline(config(
        manifest_paths=[*base.manifest_paths, str(manifest)],
        fixtures_dir=str(advisories),
        llm=f"replay:{replay}",
    ))
    assert not report.stage_errors
    assert len(lookups) == len(prompts) == 2
    for (dependency, context), (name, node_ids) in zip(prompts, lookups):
        assert name == dependency
        assert context == (f"dependency {name} used at nodes: "
                           + (", ".join(node_ids) or "(no usages found)"))
    assert [bool(node_ids) for _, node_ids in lookups] == [
        name != "org.ghost:ghost-core" for name, _ in lookups]
