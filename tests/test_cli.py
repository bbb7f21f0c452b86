import contextlib
import dataclasses
import io
import json
import os
import runpy
import shutil
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from argus.cli import EXIT_CONFIG_ERROR, EXIT_CONFIRMED, EXIT_OK, main
from argus.model import graph_to_dict
from argus.pipeline import PipelineConfig
from argus.synthetic import hidden_chain_graph
from tests.conftest import fixture_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(PipelineConfig))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deps_subcommand(capsys):
    # deps reads no graph, so it needs no --graph. Each record holds the
    # fields of a DependencyRecord, its enums as their values.
    pom = fixture_path("publiccms_mini", "pom.xml")
    deps_json = fixture_path("datagear_mini", "deps.json")
    code, out, _ = run_cli(capsys, "deps", "--manifest", pom, "--manifest", deps_json)
    assert code == EXIT_OK
    assert json.loads(out) == [
        {"ecosystem": "maven", "name": "org.apache.poi:poi-ooxml", "version": "5.2.0",
         "scope": "compile", "manifest_path": pom},
        {"ecosystem": "maven", "name": "org.datagear:datagear-analysis", "version": "4.6.0",
         "scope": "compile", "manifest_path": deps_json},
    ]


def test_advisories_subcommand(capsys):
    # advisories reads no graph, so it needs no --graph
    code, out, _ = run_cli(
        capsys, "advisories",
        "--manifest", fixture_path("publiccms_mini", "pom.xml"),
        "--fixtures", fixture_path("publiccms_mini", "advisories"),
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert sorted(doc) == ["advisories", "warnings"]
    assert [(a["source"], a["identifier"], a["dependency"]) for a in doc["advisories"]] == [
        ("NVD", "CVE-2025-31672", "org.apache.poi:poi-ooxml")
    ]
    assert doc["warnings"] == []


def _with_community_fixture(tmp_path):
    """A copy of datagear_mini's advisory fixtures plus the community issues
    of its dependency; returns the copy's path."""
    fixtures = tmp_path / "advisories"
    shutil.copytree(fixture_path("datagear_mini", "advisories"), fixtures)
    shutil.copy(fixture_path("community", COMMUNITY_FIXTURE), fixtures)
    return str(fixtures)


@pytest.mark.parametrize("name, manifest, community", [
    ("datagear_mini", "deps.json", False),
    ("publiccms_mini", "pom.xml", False),
    ("datagear_mini", "deps.json", True),
])
def test_advisories_prints_the_advisories_a_scan_reports(capsys, tmp_path, name, manifest,
                                                         community):
    fixtures = (_with_community_fixture(tmp_path) if community
                else fixture_path(name, "advisories"))
    argv = ("--graph", fixture_path(name, "graph.json"),
            "--manifest", fixture_path(name, manifest), "--fixtures", fixtures)
    code, out, _ = run_cli(capsys, "advisories", *argv)
    assert code == EXIT_OK
    printed = json.loads(out)["advisories"]
    run_cli(capsys, "scan", *argv, "--llm", "replay:" + fixture_path(name, "replay"),
            "--out", str(tmp_path / "out"))
    assert printed == _report(tmp_path)["advisories"]
    sources = [a["source"] for a in printed]
    if community:
        # Both community issues are scored; one passes the gate and is
        # listed again as an advisory.
        assert sources.count("community") == 3
        assert sum(a.get("passed_gate", False) for a in printed) == 1
    else:
        assert sources == ["NVD"]


def test_advisories_requires_fixtures(capsys):
    code, _, err = run_cli(
        capsys, "advisories",
        "--graph", fixture_path("publiccms_mini", "graph.json"),
        "--manifest", fixture_path("publiccms_mini", "pom.xml"),
    )
    assert code == EXIT_CONFIG_ERROR
    assert "error" in err


def test_flows_subcommand_forward_and_stitched(capsys):
    code, out, _ = run_cli(
        capsys, "flows",
        "--graph", fixture_path("publiccms_mini", "graph.json"),
        "--sink", "n_newinst",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["forward"] == []
    assert len(doc["stitched"]) == 1
    edge_ids = [t["edge"]["id"] for t in doc["stitched"][0]["triples"]]
    assert any(e.startswith("bridge::") for e in edge_ids)


def test_flows_repeated_sink_listed_once(capsys):
    argv = ("flows", "--graph", fixture_path("sarif", "graph.json"))
    code, once, _ = run_cli(capsys, *argv, "--sink", "s3")
    assert code == EXIT_OK
    assert len(json.loads(once)["forward"]) == 1
    code, twice, _ = run_cli(capsys, *argv, "--sink", "s3", "--sink", "s3")
    assert code == EXIT_OK
    assert twice == once


def test_flows_lists_sinks_in_sorted_order(capsys, tmp_path):
    fix = hidden_chain_graph(4, depth=2)
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph_to_dict(fix.graph)))
    argv = ("flows", "--graph", str(gpath))
    sinks = ("f1_nsite", fix.sink_id)
    code, forward, _ = run_cli(capsys, *argv, "--sink", sinks[0], "--sink", sinks[1])
    assert code == EXIT_OK
    code, backward, _ = run_cli(capsys, *argv, "--sink", sinks[1], "--sink", sinks[0])
    assert code == EXIT_OK
    assert forward == backward
    sinks_printed = [flow["triples"][-1]["to"] for flow in json.loads(forward)["stitched"]]
    assert sinks_printed == sorted(sinks_printed)
    assert set(sinks_printed) == set(sinks)


def test_flows_requires_sink(capsys):
    code, _, err = run_cli(
        capsys, "flows",
        "--graph", fixture_path("publiccms_mini", "graph.json"),
    )
    assert code == EXIT_CONFIG_ERROR


def test_scan_confirmed_findings_exit_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "scan",
        "--graph", fixture_path("datagear_mini", "graph.json"),
        "--manifest", fixture_path("datagear_mini", "deps.json"),
        "--fixtures", fixture_path("datagear_mini", "advisories"),
        "--llm", "replay:" + fixture_path("datagear_mini", "replay"),
        "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIRMED
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.md").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["summary"]["confirmed"] == 2
    assert "confirmed=2" in err


def test_internal_error_exits_2_not_1(capsys, monkeypatch, tmp_path):
    # Exit 1 means confirmed findings, so a crash must not end with it.
    def crash(config):
        raise RuntimeError("boom")

    monkeypatch.setattr("argus.cli.run_pipeline", crash)
    code, _, err = run_cli(capsys, "scan", "--graph", fixture_path("datagear_mini", "graph.json"),
                           "--out", str(tmp_path))
    assert code == EXIT_CONFIG_ERROR
    assert "error: internal error: RuntimeError: boom" in err


def test_module_run_as_a_script_exits_with_main_code(capsys, monkeypatch):
    pom = fixture_path("publiccms_mini", "pom.xml")
    monkeypatch.setattr(sys, "argv", ["argus", "deps", "--manifest", pom])
    # A fresh copy of the module runs as __main__, as under `python -m`.
    monkeypatch.delitem(sys.modules, "argus.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("argus.cli", run_name="__main__")
    assert exc.value.code == EXIT_OK
    assert [d["name"] for d in json.loads(capsys.readouterr().out)] == ["org.apache.poi:poi-ooxml"]


def test_scan_needs_human_only_exit_0(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "scan",
        "--graph", fixture_path("publiccms_mini", "graph.json"),
        "--manifest", fixture_path("publiccms_mini", "pom.xml"),
        "--fixtures", fixture_path("publiccms_mini", "advisories"),
        "--llm", "replay:" + fixture_path("publiccms_mini", "replay"),
        "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["summary"]["verdicts"] == {"needs-human": 1}


def test_scan_prints_the_bytes_of_report_json(capsys, tmp_path):
    argv = (
        "scan",
        "--graph", fixture_path("datagear_mini", "graph.json"),
        "--manifest", fixture_path("datagear_mini", "deps.json"),
        "--fixtures", fixture_path("datagear_mini", "advisories"),
        "--llm", "replay:" + fixture_path("datagear_mini", "replay"),
    )
    code, printed, _ = run_cli(capsys, *argv)
    assert code == EXIT_CONFIRMED
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == EXIT_CONFIRMED
    assert printed.encode("utf-8") == (tmp_path / "report.json").read_bytes()


def test_scan_empty_repo_exit_0(capsys, tmp_path):
    graph = {
        "format_version": "1",
        "functions": [{"id": "f1", "name": "noop", "is_entry_point": True}],
        "nodes": [{"id": "a", "kind": "variable", "function_id": "f1", "label": "a"}],
        "edges": [],
    }
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph))
    code, out, _ = run_cli(capsys, "scan", "--graph", str(gpath))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"]["candidate_sinks"] == 0
    assert doc["summary"]["flows_total"] == 0
    assert doc["summary"]["confirmed"] == 0


def test_scan_missing_graph_exit_2(capsys):
    code, _, err = run_cli(capsys, "scan", "--graph", "/no/such/graph.json")
    assert code == EXIT_CONFIG_ERROR
    assert "error" in err


def test_scan_missing_graph_flag_exit_2(capsys):
    code, _, err = run_cli(capsys, "scan")
    assert code == EXIT_CONFIG_ERROR
    assert "--graph (or graph_path in the config file) is required" in err


def test_flows_missing_graph_flag_exit_2(capsys):
    code, _, err = run_cli(capsys, "flows", "--sink", "n_newinst")
    assert code == EXIT_CONFIG_ERROR
    assert "--graph (or graph_path in the config file) is required" in err


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = {
        "graph_path": fixture_path("datagear_mini", "graph.json"),
        "manifest_paths": [fixture_path("datagear_mini", "deps.json")],
        "fixtures_dir": fixture_path("datagear_mini", "advisories"),
        "llm": "replay:" + fixture_path("datagear_mini", "replay"),
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "scan", "--config", str(cpath))
    assert code == EXIT_CONFIRMED
    # flag overrides the file: stub llm yields no PoC sinks, no flows
    code2, out2, _ = run_cli(capsys, "scan", "--config", str(cpath), "--llm", "stub")
    assert code2 == EXIT_OK


def test_malformed_config_exit_2(capsys, tmp_path):
    cpath = tmp_path / "config.json"
    for text in (
        b"{broken",
        b"\xff\xfe{}",
        b"[1, 2]",
        b'{"review_mode": "LLMX"}',
        b'{"gate_weights": [NaN, 0.5, 0.5], "gate_threshold": NaN}',
        b'{"manifest_paths": [null]}',
        b'{"llm": "live", "review_mode": "llm"}',
    ):
        cpath.write_bytes(text)
        code, _, err = run_cli(capsys, "scan", "--config", str(cpath),
                               "--graph", fixture_path("publiccms_mini", "graph.json"))
        assert code == EXIT_CONFIG_ERROR, text
        assert "internal error" not in err, text


def test_config_file_keys_reach_the_config(capsys, tmp_path):
    graph = fixture_path("publiccms_mini", "graph.json")
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"graph_path": graph, "max_flows_per_sink": 1}))
    code, _, _ = run_cli(capsys, "scan", "--config", str(cpath), "--out", str(tmp_path / "out"))
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["config"]["max_flows_per_sink"] == 1

    cpath.write_text(json.dumps({"graph_path": graph, "gate_weights": [0.5, 0.5]}))
    code, _, err = run_cli(capsys, "scan", "--config", str(cpath))
    assert code == EXIT_CONFIG_ERROR
    assert "gate weights" in err


def test_config_file_with_removed_keys_still_scans(capsys, tmp_path):
    # Keys that are not PipelineConfig fields, such as the retired
    # auto_confirm_forward_flows and scan_unused_dependencies, are ignored.
    cfg = {
        "graph_path": fixture_path("datagear_mini", "graph.json"),
        "manifest_paths": [fixture_path("datagear_mini", "deps.json")],
        "fixtures_dir": fixture_path("datagear_mini", "advisories"),
        "llm": "replay:" + fixture_path("datagear_mini", "replay"),
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(cfg))
    code, want, _ = run_cli(capsys, "scan", "--config", str(cpath))
    assert code == EXIT_CONFIRMED
    cpath.write_text(json.dumps(
        {**cfg, "auto_confirm_forward_flows": False, "scan_unused_dependencies": False}
    ))
    code, out, _ = run_cli(capsys, "scan", "--config", str(cpath))
    assert code == EXIT_CONFIRMED
    assert out == want
    assert "auto_confirm_forward_flows" not in json.loads(out)["config"]


def test_flows_prints_the_stitched_flows_scan_reports(capsys, tmp_path):
    fix = hidden_chain_graph(4, depth=2)
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph_to_dict(fix.graph)))
    code, out, _ = run_cli(capsys, "flows", "--graph", str(gpath), "--sink", fix.sink_id)
    assert code == EXIT_OK
    printed = json.loads(out)["stitched"]
    assert printed
    code, _, _ = run_cli(capsys, "scan", "--graph", str(gpath), "--out", str(tmp_path / "out"))
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    reported = [
        f["flow"] for f in doc["findings"]
        if f["sink"]["node_id"] == fix.sink_id and f["flow"]["origin"] == "stitched"
    ]
    assert reported == printed


def test_flows_prints_recovery_drop_reasons_on_stderr(capsys, tmp_path):
    from tests.test_recursion import sanitized_boundary_graph

    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph_to_dict(sanitized_boundary_graph())))
    code, out, err = run_cli(capsys, "flows", "--graph", str(gpath), "--sink", "sink")
    assert code == EXIT_OK
    assert json.loads(out) == {"forward": [], "stitched": []}
    assert err.splitlines() == [
        "warning: stitch dropped for flow ('e1',): no connectivity between 'site0' "
        "and 'sink' even ignoring visibility"
    ]


@pytest.mark.parametrize("graph_path", [5, ["a"], {"a": 1}, True, 1.5, -1],
                         ids=["int", "array", "object", "bool", "float", "negative"])
def test_flows_non_string_graph_path_exit_2(capsys, tmp_path, graph_path):
    # A number used to reach open() as a file descriptor, an array a TypeError.
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"graph_path": graph_path}))
    code, out, err = run_cli(capsys, "flows", "--config", str(cpath), "--sink", "x")
    assert code == EXIT_CONFIG_ERROR
    assert out == ""
    assert err == f"error: graph_path must be a string, got {graph_path!r}\n"


def test_non_object_graph_entry_exit_2(capsys, tmp_path):
    gpath = tmp_path / "graph.json"
    gpath.write_text('{"format_version":"1","functions":[{"id":"f"}],"nodes":[1]}')
    code, _, err = run_cli(capsys, "scan", "--graph", str(gpath))
    assert code == EXIT_CONFIG_ERROR
    assert "nodes[0] must be a JSON object" in err


def test_malformed_replay_transcript_exit_2(capsys, tmp_path):
    replay = tmp_path / "replay"
    shutil.copytree(fixture_path("datagear_mini", "replay"), replay)
    victim = sorted(replay.glob("poc__*.jsonl"))[0]
    victim.write_text(victim.read_text() + "{not json\n")
    code, _, err = run_cli(
        capsys, "scan",
        "--graph", fixture_path("datagear_mini", "graph.json"),
        "--manifest", fixture_path("datagear_mini", "deps.json"),
        "--fixtures", fixture_path("datagear_mini", "advisories"),
        "--llm", f"replay:{replay}",
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith(f"error: {victim}: line ")
    assert ": not valid JSON: " in err


def test_deeply_nested_poc_answer_is_a_rejected_artifact(capsys, tmp_path):
    replay = tmp_path / "replay"
    shutil.copytree(fixture_path("datagear_mini", "replay"), replay)
    victim = sorted(replay.glob("poc__*.jsonl"))[0]
    rows = [json.loads(line) for line in victim.read_text().splitlines()]
    for row in rows:
        if row.get("role") == "assistant":
            row["content"] = "```final\n" + "[" * 100_000 + "\n```"
    victim.write_text("".join(json.dumps(row) + "\n" for row in rows))
    code, _, err = run_cli(
        capsys, "scan",
        "--graph", fixture_path("datagear_mini", "graph.json"),
        "--manifest", fixture_path("datagear_mini", "deps.json"),
        "--fixtures", fixture_path("datagear_mini", "advisories"),
        "--llm", f"replay:{replay}",
        "--out", str(tmp_path / "out"),
    )
    # The PoC named the only sink, so without it nothing is confirmed.
    assert code == EXIT_OK
    assert err.endswith("sinks=0 flows=0 confirmed=0\n")
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(p["advisory"], p["status"]) for p in doc["poc_artifacts"]] == [
        ("CVE-2024-37759", "rejected")
    ]
    assert doc["stage_errors"] == []


def _with_orphan_sink(tmp_path):
    """publiccms_mini's graph plus one sink node that belongs to no function
    and has no flow into it; returns the new graph's path."""
    with open(fixture_path("publiccms_mini", "graph.json")) as fh:
        doc = json.load(fh)
    doc["nodes"].append({
        "id": "n_orphan_sink", "kind": "variable", "function_id": None,
        "label": "orphan", "taint_role": "sink", "sink_kind": "sql",
    })
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    return str(path)


ORPHAN_WARNING = "sink 'n_orphan_sink' belongs to no function; backward recovery skipped"


def test_sink_of_no_function_is_skipped_with_a_warning(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "scan",
        "--graph", _with_orphan_sink(tmp_path),
        "--manifest", fixture_path("publiccms_mini", "pom.xml"),
        "--fixtures", fixture_path("publiccms_mini", "advisories"),
        "--llm", "replay:" + fixture_path("publiccms_mini", "replay"),
        "--out", str(tmp_path / "out"),
    )
    with open(os.path.join(GOLDEN, "publiccms_mini", "report.json")) as fh:
        golden = json.load(fh)
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["findings"] == golden["findings"]
    assert doc["warnings"] == golden["warnings"] + [ORPHAN_WARNING]
    assert doc["stage_errors"] == golden["stage_errors"]

    code, out, err = run_cli(
        capsys, "flows", "--graph", str(tmp_path / "graph.json"), "--sink", "n_orphan_sink"
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"forward": [], "stitched": []}
    assert err.splitlines() == [f"warning: {ORPHAN_WARNING}"]


def test_non_utf8_replay_transcript_exit_2(capsys, tmp_path):
    replay = tmp_path / "replay"
    shutil.copytree(fixture_path("datagear_mini", "replay"), replay)
    victim = sorted(replay.glob("poc__*.jsonl"))[0]
    victim.write_bytes(b"\xff{}")
    code, _, err = run_cli(
        capsys, "scan",
        "--graph", fixture_path("datagear_mini", "graph.json"),
        "--manifest", fixture_path("datagear_mini", "deps.json"),
        "--fixtures", fixture_path("datagear_mini", "advisories"),
        "--llm", f"replay:{replay}",
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith(f"error: {victim}: not UTF-8 text: ")
    assert "internal error" not in err


def _empty_transcript(tmp_path):
    replay = tmp_path / "replay"
    replay.mkdir()
    path = replay / "poc__CVE-2024-37759.jsonl"
    path.write_text("")
    return ("--llm", f"replay:{replay}"), path, "empty transcript file"


@pytest.mark.parametrize("inputs", [
    lambda tmp: (("--fixtures", str(tmp / "missing")), tmp / "missing",
                 "fixture directory not found"),
    lambda tmp: (("--llm", f"replay:{tmp / 'missing'}"), tmp / "missing",
                 "replay transcript directory not found"),
    lambda tmp: (("--backend", f"sarif:{tmp / 'missing.sarif'}"), tmp / "missing.sarif",
                 "SARIF result file not found"),
    _empty_transcript,
], ids=["fixtures", "replay", "sarif", "empty-transcript"])
def test_missing_input_path_exit_2_names_the_path(capsys, tmp_path, inputs):
    argv, path, message = inputs(tmp_path)
    code, _, err = run_cli(
        capsys, "scan",
        "--graph", fixture_path("datagear_mini", "graph.json"),
        "--manifest", fixture_path("datagear_mini", "deps.json"),
        "--fixtures", fixture_path("datagear_mini", "advisories"),
        *argv,
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG_ERROR
    assert message in err
    assert str(path) in err
    assert "internal error" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ("scan", "--max-depth", "0"),
    ("scan", "--nf", "0"),
    ("flows", "--sink", "n_newinst", "--max-depth", "0"),
    ("flows", "--sink", "n_newinst", "--nf", "0"),
])
def test_bound_below_one_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--graph", fixture_path("publiccms_mini", "graph.json"))
    assert code == EXIT_CONFIG_ERROR
    assert "must be an integer >= 1" in err
    assert "internal error" not in err


def test_flows_ignores_settings_only_scan_reads(capsys, tmp_path):
    argv = ("flows", "--graph", fixture_path("publiccms_mini", "graph.json"),
            "--sink", "n_newinst")
    code, want, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    code, out, _ = run_cli(
        capsys, *argv,
        "--backend", "sarif:" + str(tmp_path / "missing.sarif"),
        "--fixtures", str(tmp_path / "missing"),
        "--llm", "replay:" + str(tmp_path / "missing"),
    )
    assert code == EXIT_OK
    assert out == want


def test_non_array_guard_tags_exit_2(capsys, tmp_path):
    doc = graph_to_dict(hidden_chain_graph(4, depth=1).graph)
    doc["edges"][0]["guard_tags"] = 5
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "scan", "--graph", str(gpath))
    assert code == EXIT_CONFIG_ERROR
    assert "guard_tags must be a JSON array" in err
    assert "internal error" not in err


def _set_anchor_start(doc, line):
    doc["anchors"] = [{"file": "A.java", "start_line": line, "end_line": 3,
                       "node_id": doc["nodes"][0]["id"]}]


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["edges"][0].update(guard_tags=[[1]]), "guard_tags must be a JSON array of strings"),
    (lambda d: d["edges"][0].update(guard_tags=[1, "a"]), "guard_tags must be a JSON array of strings"),
    (lambda d: d["functions"][0].update(parameters=5), "parameters must be a JSON array of strings"),
    (lambda d: _set_anchor_start(d, [1]), "anchor start_line must be an integer"),
    (lambda d: d["nodes"][0].update(function_id=[1]), "function_id must be a string or null"),
    (lambda d: d.update(source_files=5), "source_files must be a JSON array of strings"),
    (lambda d: d["edges"][0].update(visible_to_forward="no"), "visible_to_forward must be true or false"),
    (lambda d: d["functions"][0].update(is_entry_point=1), "is_entry_point must be true or false"),
    (lambda d: d["nodes"][0].update(source_kind=[1]), "source_kind must be a string or null"),
    (lambda d: d["nodes"][0].update(sink_kind=5), "sink_kind must be a string or null"),
    (lambda d: d["edges"][0].update(to=5), "to must be a string, got 5"),
])
def test_malformed_graph_element_exit_2(capsys, tmp_path, mutate, message):
    doc = graph_to_dict(hidden_chain_graph(4, depth=1).graph)
    mutate(doc)
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "scan", "--graph", str(gpath), "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG_ERROR
    assert message in err
    assert "internal error" not in err


@pytest.mark.parametrize("text, message", [
    ("{not json", "cannot read sink registry"),
    ('{"sql": "java.sql.Statement.execute"}', "must be a JSON object mapping"),
    ('[["Runtime.exec"]]', "must be a JSON object mapping"),
])
def test_malformed_sink_registry_exit_2(capsys, tmp_path, text, message):
    registry = tmp_path / "registry.json"
    registry.write_text(text)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"sink_registry_path": str(registry)}))
    code, _, err = run_cli(capsys, "scan", "--config", str(cpath),
                           "--graph", fixture_path("publiccms_mini", "graph.json"))
    assert code == EXIT_CONFIG_ERROR
    assert str(registry) in err
    assert message in err
    assert "internal error" not in err


@pytest.mark.parametrize("command, config, message", [
    ("deps", {"manifest_paths": "tests/fixtures/publiccms_mini/pom.xml"},
     "manifest_paths must be a list of strings"),
    ("deps", {"manifest_paths": ["no/such/pom.xml"]}, "manifest not found"),
    ("advisories", {"manifest_paths": "tests/fixtures/publiccms_mini/pom.xml"},
     "manifest_paths must be a list of strings"),
    ("advisories", {"gate_threshold": "high"}, "gate_threshold must be a finite number"),
    ("advisories", {"gate_weights": [1, 0]}, "gate weights must be 3 values"),
    ("advisories", {"fixtures_dir": 5}, "fixtures_dir must be a string or null"),
    ("advisories", {"gate_threshold": float("nan")}, "gate_threshold must be a finite number"),
    ("advisories", {"gate_threshold": float("inf")}, "gate_threshold must be a finite number"),
    ("advisories", {"gate_weights": [float("nan"), 0.5, 0.5]}, "gate weights must be 3 values"),
    ("advisories", {"gate_weights": [float("inf"), -float("inf"), 1]},
     "gate weights must be 3 values"),
    ("advisories", {"gate_weights": [True, False, False]}, "gate weights must be 3 values"),
    # An invalid config is invalid for every command, also in a key only scan reads.
    ("deps", {"review_mode": "LLMX"}, "review_mode must be 'rule' or 'llm'"),
    ("advisories", {"review_mode": "LLMX"}, "review_mode must be 'rule' or 'llm'"),
    ("deps", {"max_depth": 0}, "max_depth must be an integer >= 1"),
    ("advisories", {"max_depth": 0}, "max_depth must be an integer >= 1"),
    ("deps", {"sink_registry_path": 5}, "sink_registry_path must be a string or null"),
    ("advisories", {"sink_registry_path": 5}, "sink_registry_path must be a string or null"),
])
def test_deps_and_advisories_check_the_settings_they_read(capsys, tmp_path, command, config,
                                                          message):
    values = {"manifest_paths": [fixture_path("publiccms_mini", "pom.xml")],
              "fixtures_dir": fixture_path("publiccms_mini", "advisories")}
    values.update(config)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(values))
    code, _, err = run_cli(capsys, command, "--config", str(cpath),
                           "--graph", fixture_path("publiccms_mini", "graph.json"))
    assert code == EXIT_CONFIG_ERROR
    assert message in err
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["deps", "advisories"])
def test_deps_and_advisories_ignore_settings_only_scan_reads(capsys, tmp_path, command):
    # A missing path that only scan reads is not checked; a bad value is
    # (test_deps_and_advisories_check_the_settings_they_read).
    argv = (command, "--graph", fixture_path("publiccms_mini", "graph.json"),
            "--manifest", fixture_path("publiccms_mini", "pom.xml"),
            "--fixtures", fixture_path("publiccms_mini", "advisories"))
    code, want, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, *argv,
                           "--llm", "replay:" + str(tmp_path / "missing"),
                           "--backend", "sarif:" + str(tmp_path / "missing.sarif"))
    assert code == EXIT_OK
    assert out == want


def test_malformed_deps_json_is_an_input_error(capsys, tmp_path):
    manifest = tmp_path / "deps.json"
    manifest.write_text(json.dumps({"format_version": "1", "dependencies": 5}))
    graph = fixture_path("datagear_mini", "graph.json")
    code, _, err = run_cli(capsys, "deps", "--graph", graph, "--manifest", str(manifest))
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith(f"error: {manifest}: dependencies must be an array")
    assert "internal error" not in err
    code, _, err = run_cli(capsys, "scan", "--graph", graph, "--manifest", str(manifest),
                           "--out", str(tmp_path / "out"))
    assert code != EXIT_CONFIG_ERROR
    assert "internal error" not in err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["stage_errors"] == [
        f"dependency_scan: {manifest}: dependencies must be an array, got 5"
    ]


def test_non_utf8_deps_json_is_an_input_error(capsys, tmp_path):
    manifest = tmp_path / "deps.json"
    manifest.write_bytes(b"\xff{}")
    graph = fixture_path("datagear_mini", "graph.json")
    code, _, err = run_cli(capsys, "deps", "--graph", graph, "--manifest", str(manifest))
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith(f"error: {manifest}: malformed JSON: ")
    assert "internal error" not in err
    code, _, err = run_cli(capsys, "scan", "--graph", graph, "--manifest", str(manifest),
                           "--out", str(tmp_path / "out"))
    assert code != EXIT_CONFIG_ERROR
    assert "internal error" not in err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    [stage_error] = report["stage_errors"]
    assert stage_error.startswith(f"dependency_scan: {manifest}: malformed JSON: ")


def test_malformed_sarif_is_an_input_error(capsys, tmp_path):
    sarif = tmp_path / "bad.sarif"
    sarif.write_text("[]")
    argv = ("scan", "--graph", fixture_path("sarif", "graph.json"), "--out", str(tmp_path / "out"))
    code, _, err = run_cli(capsys, *argv, "--backend", f"sarif:{sarif}")
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith(f"error: {sarif}: SARIF document must be a JSON object")
    assert "internal error" not in err


def test_non_utf8_sarif_is_an_input_error(capsys, tmp_path):
    sarif = tmp_path / "bad.sarif"
    sarif.write_bytes(b"\xff{}")
    argv = ("scan", "--graph", fixture_path("sarif", "graph.json"), "--out", str(tmp_path / "out"))
    code, _, err = run_cli(capsys, *argv, "--backend", f"sarif:{sarif}")
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith(f"error: {sarif}: cannot parse SARIF: ")
    assert "internal error" not in err


def test_non_integer_sarif_start_line_is_a_warning(capsys, tmp_path):
    with open(fixture_path("sarif", "results.sarif")) as fh:
        doc = json.load(fh)
    loc = doc["runs"][0]["results"][0]["codeFlows"][0]["threadFlows"][0]["locations"][0]
    loc["location"]["physicalLocation"]["region"]["startLine"] = "abc"
    sarif = tmp_path / "bad.sarif"
    sarif.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "scan", "--graph", fixture_path("sarif", "graph.json"),
                           "--backend", f"sarif:{sarif}", "--out", str(tmp_path / "out"))
    assert code != EXIT_CONFIG_ERROR
    assert "internal error" not in err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "thread flow skipped: startLine 'abc' is not an integer" in report["warnings"]


DEEP_JSON = "[" * 100_000

# (fixture directory, file of a scan of a copy of it) of every JSON input kind
JSON_INPUTS = {
    "graph": ("datagear_mini", "graph.json"),
    "config": ("datagear_mini", "config.json"),
    "registry": ("datagear_mini", "registry.json"),
    "sarif": ("sarif", "results.sarif"),
    "transcript": ("datagear_mini", "replay/poc__CVE-2024-37759.jsonl"),
    "deps": ("datagear_mini", "deps.json"),
    "fixture": ("datagear_mini", "advisories/NVD__org.datagear__datagear-analysis.json"),
}


def _report(root):
    return json.loads((root / "out" / "report.json").read_text())


@pytest.mark.parametrize("kind", sorted(JSON_INPUTS))
def test_deeply_nested_json_input_is_an_input_error(capsys, tmp_path, kind):
    name, relpath = JSON_INPUTS[kind]
    config = _scan_inputs(str(tmp_path), name)
    path = str(tmp_path / relpath)
    if kind == "registry":
        with open(config) as fh:
            values = json.load(fh)
        with open(config, "w") as fh:
            json.dump(dict(values, sink_registry_path=path), fh)
    with open(path, "w") as fh:
        fh.write(DEEP_JSON)
    code, _, err = run_cli(capsys, "scan", "--config", config, "--out", str(tmp_path / "out"))
    assert "internal error" not in err
    if kind == "deps":
        assert code != EXIT_CONFIG_ERROR
        [stage_error] = _report(tmp_path)["stage_errors"]
        assert stage_error.startswith(f"dependency_scan: {path}: malformed JSON: ")
    elif kind == "fixture":
        assert code != EXIT_CONFIG_ERROR
        assert any(w.startswith(f"NVD: {path}: malformed fixture: ")
                   for w in _report(tmp_path)["warnings"])
    else:
        assert code == EXIT_CONFIG_ERROR
        assert path in err


def test_advisory_fixture_that_is_a_directory_is_a_warning(capsys, tmp_path):
    config = _scan_inputs(str(tmp_path), "datagear_mini")
    path = tmp_path / "advisories" / "OSV__org.datagear__datagear-analysis.json"
    path.mkdir()
    code, _, err = run_cli(capsys, "scan", "--config", config, "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIRMED  # the NVD fixture still yields its findings
    assert "internal error" not in err
    assert any(w.startswith(f"OSV: {path}: malformed fixture: ")
               for w in _report(tmp_path)["warnings"])


@pytest.mark.parametrize("name, message", [("deps.json", "malformed JSON"),
                                           ("pom.xml", "malformed XML")])
def test_manifest_that_is_a_directory_is_a_stage_error(capsys, tmp_path, name, message):
    manifest = tmp_path / name
    manifest.mkdir()
    code, _, err = run_cli(capsys, "scan", "--graph", fixture_path("datagear_mini", "graph.json"),
                           "--manifest", str(manifest), "--out", str(tmp_path / "out"))
    assert code != EXIT_CONFIG_ERROR
    assert "internal error" not in err
    [stage_error] = _report(tmp_path)["stage_errors"]
    assert stage_error.startswith(f"dependency_scan: {manifest}: {message}: ")



# --- exit-code contract under mutated inputs ------------------------------------


COMMUNITY_FIXTURE = "community__org.datagear__datagear-analysis.json"

# (fixture directory, document in a copy of it) of every document mutated
FUZZED_DOCUMENTS = (
    ("datagear_mini", "advisories/NVD__org.datagear__datagear-analysis.json"),
    ("datagear_mini", "advisories/" + COMMUNITY_FIXTURE),
    ("datagear_mini", "replay/poc__CVE-2024-37759.jsonl"),
    ("datagear_mini", "deps.json"),
    ("datagear_mini", "config.json"),
    ("datagear_mini", "graph.json"),
    ("sarif", "results.sarif"),
    ("sarif", "graph.json"),
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=4,
)

# Keys a mutation may add to an object: the config's and the fixture entries'.
ADDED_KEYS = tuple(f.name for f in dataclasses.fields(PipelineConfig)) + (
    "identifier", "cvss_score", "severity", "cve_id", "comment_count", "cve_linked", "title", "url",
)


def _scan_inputs(root, name):
    """Copy fixture directory ``name`` to ``root`` and write there the config
    of a scan of it; return the config's path."""
    shutil.copytree(fixture_path(name), root, dirs_exist_ok=True)
    config = {"graph_path": os.path.join(root, "graph.json")}
    if name == "sarif":
        config["analysis_backend"] = "sarif:" + os.path.join(root, "results.sarif")
    else:
        shutil.copy(fixture_path("community", COMMUNITY_FIXTURE), os.path.join(root, "advisories"))
        config.update(
            manifest_paths=[os.path.join(root, "deps.json")],
            fixtures_dir=os.path.join(root, "advisories"),
            llm="replay:" + os.path.join(root, "replay"),
        )
    path = os.path.join(root, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def _slots(doc):
    """(container, key) of every value nested in ``doc``, outermost first."""
    slots = []
    containers = [doc]
    while containers:
        value = containers.pop(0)
        if isinstance(value, dict):
            items = list(value.items())
        elif isinstance(value, list):
            items = list(enumerate(value))
        else:
            continue
        for key, child in items:
            slots.append((value, key))
            containers.append(child)
    return slots


def _mutate(data, doc):
    """``doc`` with one nested value replaced or dropped, one key added to an
    object, or the whole document replaced, as ``data`` draws."""
    slots = _slots(doc)
    objects = [v for v in [doc] + [c[k] for c, k in slots] if isinstance(v, dict)]
    action = data.draw(st.sampled_from(("replace", "drop", "add")))
    if action == "add" and objects:
        obj = data.draw(st.sampled_from(objects))
        obj[data.draw(st.sampled_from(ADDED_KEYS))] = data.draw(JSON_VALUES)
        return doc
    container, key = data.draw(st.sampled_from([(None, None)] + slots))
    if container is None:
        return data.draw(JSON_VALUES)
    if action == "drop":
        del container[key]
    else:
        container[key] = data.draw(JSON_VALUES)
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(document=st.sampled_from(FUZZED_DOCUMENTS), data=st.data())
def test_scan_exit_code_contract_holds_for_mutated_inputs(document, data):
    name, relpath = document
    lines = relpath.endswith(".jsonl")
    with tempfile.TemporaryDirectory() as root:
        config = _scan_inputs(root, name)
        path = os.path.join(root, relpath)
        with open(path) as fh:
            doc = [json.loads(line) for line in fh] if lines else json.load(fh)
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(data, doc)
        if lines and isinstance(doc, list):
            text = "".join(json.dumps(line) + "\n" for line in doc)
        else:
            text = json.dumps(doc)
        if data.draw(st.booleans()):  # nest the text too deep to decode from some offset
            offset = data.draw(st.integers(0, len(text)))
            text = text[:offset] + DEEP_JSON + text[offset:]
        with open(path, "w") as fh:
            fh.write(text)
        out = os.path.join(root, "out")
        err = io.StringIO()
        # no live backend can be reached without its key
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            os.environ.pop("ARGUS_API_KEY", None)
            code = main(["scan", "--config", config, "--out", out])
        assert code in (EXIT_OK, EXIT_CONFIRMED, EXIT_CONFIG_ERROR), err.getvalue()
        assert "internal error" not in err.getvalue()
        if code != EXIT_CONFIG_ERROR:
            with open(os.path.join(out, "report.json")) as fh:
                confirmed = json.load(fh)["summary"]["confirmed"]
            assert (code == EXIT_CONFIRMED) == (confirmed > 0)


# Drawn strings hold no "/", so a drawn out_dir names a directory in the
# working directory or its parent; the samples reach the backend specs and
# the strings no file name can hold.
CONFIG_STRINGS = st.text(st.characters(blacklist_characters="/"), max_size=6) | st.sampled_from(
    ("", ".", "..", "stub", "live", "replay:", "replay:.", "builtin", "sarif:", "sarif:.",
     "rule", "llm", "a\x00b", "\ud800"))

CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from((10 ** 400, -10 ** 400))
    | st.floats() | CONFIG_STRINGS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=4,
)

_SUBCOMMANDS = (("scan",), ("deps",), ("advisories",), ("flows", "--sink", "n_eval"))


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(_CONFIG_KEYS), value=CONFIG_VALUES)
@example(key="out_dir", value="a\x00b")
@example(key="out_dir", value="\ud800")
def test_any_config_value_keeps_the_exit_code_contract(tmp_path, monkeypatch, key, value):
    # One key per example: "live" never gets an endpoint, so no request is sent.
    monkeypatch.delenv("ARGUS_API_KEY", raising=False)
    config = {
        "graph_path": fixture_path("datagear_mini", "graph.json"),
        "manifest_paths": [fixture_path("datagear_mini", "deps.json")],
        "fixtures_dir": fixture_path("datagear_mini", "advisories"),
        "llm": "replay:" + fixture_path("datagear_mini", "replay"),
        key: value,
    }
    non_paths = []
    real_open = open

    def checked_open(file, *args, **kwargs):
        if not isinstance(file, (str, bytes, os.PathLike)):
            non_paths.append(file)
            raise AssertionError(f"open() given {file!r}")
        return real_open(file, *args, **kwargs)

    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        cwd = os.path.join(root, "cwd")
        os.mkdir(cwd)
        monkeypatch.chdir(cwd)
        cpath = os.path.join(root, "config.json")
        with open(cpath, "w") as fh:
            json.dump(config, fh)
        for argv in _SUBCOMMANDS:
            err = io.StringIO()
            with mock.patch("builtins.open", checked_open), \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--config", cpath])
            context = f"{argv[0]} with {key}={value!r}: exit {code}\n{err.getvalue()}"
            assert code in (EXIT_OK, EXIT_CONFIRMED, EXIT_CONFIG_ERROR), context
            assert "internal error" not in err.getvalue(), context
            assert "Traceback" not in err.getvalue(), context
            assert not non_paths, context
