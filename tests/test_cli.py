import json
import shutil

import pytest

from argus.agent import ScriptedStubBackend, run_react_loop, save_transcript
from argus.cli import EXIT_CONFIG_ERROR, EXIT_CONFIRMED, EXIT_OK, main
from argus.model import graph_to_dict
from argus.synthetic import hidden_chain_graph
from tests.conftest import fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deps_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "deps",
        "--graph", fixture_path("datagear_mini", "graph.json"),
        "--manifest", fixture_path("publiccms_mini", "pom.xml"),
    )
    assert code == EXIT_OK
    records = json.loads(out)
    assert records[0]["name"] == "org.apache.poi:poi-ooxml"
    assert records[0]["version"] == "5.2.0"


def test_advisories_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "advisories",
        "--graph", fixture_path("publiccms_mini", "graph.json"),
        "--manifest", fixture_path("publiccms_mini", "pom.xml"),
        "--fixtures", fixture_path("publiccms_mini", "advisories"),
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    auth = doc["dependencies"][0]["authoritative"]
    assert [r["identifier"] for r in auth] == ["CVE-2025-31672"]


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
    assert "required" in err


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
        b'{"auto_confirm_forward_flows": "false"}',
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


def test_replay_verify_subcommand(capsys, tmp_path):
    outcome = run_react_loop(
        "sys", "task", {},
        ScriptedStubBackend(["```final\nanswer\n```"]),
    )
    path = tmp_path / "t.jsonl"
    save_transcript(outcome.transcript, path)
    code, out, _ = run_cli(capsys, "replay-verify", str(path))
    assert code == EXIT_OK
    assert "deterministic" in out


def test_replay_verify_missing_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "replay-verify", "/no/such.jsonl")
    assert code == EXIT_CONFIG_ERROR


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
    ("advisories", {"gate_threshold": "high"}, "gate_threshold must be a number"),
    ("advisories", {"gate_weights": [1, 0]}, "gate weights must be 3 values"),
    ("advisories", {"fixtures_dir": 5}, "fixtures_dir must be a string or null"),
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
    argv = (command, "--graph", fixture_path("publiccms_mini", "graph.json"),
            "--manifest", fixture_path("publiccms_mini", "pom.xml"),
            "--fixtures", fixture_path("publiccms_mini", "advisories"))
    code, want, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"review_mode": "LLMX", "max_depth": 0,
                                 "sink_registry_path": 5}))
    code, out, _ = run_cli(capsys, *argv, "--config", str(cpath),
                           "--llm", "replay:" + str(tmp_path / "missing"))
    assert code == EXIT_OK
    assert out == want
