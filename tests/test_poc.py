import json

import pytest
from hypothesis import given, settings, strategies as st

from argus import poc
from argus.advisories import AdvisoryRecord, Severity
from argus.agent import ScriptedStubBackend
from argus.errors import ConfigError
from argus.model import load_program_graph
from argus.poc import (
    CandidateOrigin,
    PoCArtifact,
    PoCStatus,
    derive_sink_candidates,
    extract_callable_names,
    generate_poc,
    load_sink_registry,
    parse_poc_payload,
    registry_sink_candidates,
)
from tests.conftest import fixture_path


def advisory():
    return AdvisoryRecord(
        identifier="CVE-2024-37759",
        source="NVD",
        dependency="org.datagear:datagear-analysis",
        affected_versions="<5.0.0",
        description="expression injection",
        severity=Severity.HIGH,
    )


FULL_PAYLOAD = {
    "restated_description": "d",
    "root_cause": "r",
    "code_pattern": "Converter.evaluateVariableExpression",
    "attack_scenario": "a",
    "trigger_code": "x = evil.expr.parse(input)",
    "patch": "p",
    "explanation": "e",
}


def test_complete_payload_is_verified():
    art = parse_poc_payload(advisory(), json.dumps(FULL_PAYLOAD))
    assert art.status == PoCStatus.VERIFIED
    assert art.trigger_code == FULL_PAYLOAD["trigger_code"]


def test_partial_payload_is_plausible():
    doc = dict(FULL_PAYLOAD)
    doc["patch"] = ""
    art = parse_poc_payload(advisory(), json.dumps(doc))
    assert art.status == PoCStatus.PLAUSIBLE


def test_non_json_payload_rejected_with_raw_preserved():
    art = parse_poc_payload(advisory(), "this is not json")
    assert art.status == PoCStatus.REJECTED
    assert art.raw_payload == "this is not json"


def test_deeply_nested_payload_rejected_with_raw_preserved():
    payload = "[" * 100_000
    art = parse_poc_payload(advisory(), payload)
    assert art.status == PoCStatus.REJECTED
    assert art.raw_payload == payload


def test_empty_object_payload_rejected():
    art = parse_poc_payload(advisory(), "{}")
    assert art.status == PoCStatus.REJECTED


@pytest.mark.parametrize("field, value", [
    ("patch", None),
    ("trigger_code", ["com.x.Y.run"]),
    ("root_cause", 5),
    ("explanation", {"why": "e"}),
])
def test_non_string_field_rejected_with_raw_preserved(field, value):
    payload = json.dumps({**FULL_PAYLOAD, field: value})
    art = parse_poc_payload(advisory(), payload)
    assert art.status == PoCStatus.REJECTED
    assert art.raw_payload == payload
    assert (art.trigger_code, art.patch) == ("", "")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fields=st.fixed_dictionaries({k: st.text(max_size=2) for k in FULL_PAYLOAD}))
def test_status_follows_the_fields(fields):
    """Verified iff all seven fields are set, plausible iff some are,
    rejected iff none is; an answer of those fields gives that status."""
    art = PoCArtifact(advisory=advisory(), **fields)
    filled = [bool(v) for v in fields.values()]
    assert (art.status == PoCStatus.VERIFIED) == all(filled)
    assert (art.status == PoCStatus.PLAUSIBLE) == (any(filled) and not all(filled))
    assert (art.status == PoCStatus.REJECTED) == (not any(filled))
    assert parse_poc_payload(advisory(), json.dumps(fields)).status == art.status


def test_generate_poc_end_to_end_with_stub():
    response = "```final\n" + json.dumps(FULL_PAYLOAD) + "\n```"
    art = generate_poc(advisory(), "ctx", ScriptedStubBackend([response]))
    assert art.status == PoCStatus.VERIFIED
    assert art.transcript is not None
    roles = [t.role.value for t in art.transcript.turns]
    assert roles == ["system", "user", "assistant"]


# --- name extraction / candidate derivation ----------------------------------


def test_extract_callable_names():
    names = extract_callable_names(
        "calls a.b.c and x.y; ignores plain word and single.x",
        "also a.b.c again",
    )
    assert names == ["a.b.c", "single.x", "x.y"]


def test_extract_requires_dotted():
    assert extract_callable_names("exec eval parse") == []


def poc_with(trigger="", pattern=""):
    return PoCArtifact(advisory=advisory(), trigger_code=trigger, code_pattern=pattern)


def test_derive_exact_match():
    graph = load_program_graph(fixture_path("publiccms_mini", "graph.json"))
    poc = poc_with(pattern="javax.xml.parsers.DocumentBuilderFactory.newInstance")
    cands = derive_sink_candidates(poc, graph)
    assert len(cands) == 1
    assert cands[0].matched_node_ids == ("n_newinst",)
    assert cands[0].origin == CandidateOrigin.ADVISORY_POC


def test_derive_fuzzy_suffix_match():
    graph = load_program_graph(fixture_path("datagear_mini", "graph.json"))
    poc = poc_with(pattern="DefaultDataSetParamValueConverter.evaluateVariableExpression")
    cands = derive_sink_candidates(poc, graph)
    fuzzy = [c for c in cands if c.matched_node_ids]
    assert len(fuzzy) == 1
    assert fuzzy[0].matched_node_ids == ("n_eval",)


def test_derive_unmatched_name_retained_empty():
    graph = load_program_graph(fixture_path("datagear_mini", "graph.json"))
    poc = poc_with(trigger="com.absent.Thing.doIt(x)")
    cands = derive_sink_candidates(poc, graph)
    assert any(c.callable_name == "com.absent.Thing.doIt" and not c.matched_node_ids
               for c in cands)


def test_derive_empty_poc_yields_nothing():
    graph = load_program_graph(fixture_path("datagear_mini", "graph.json"))
    assert derive_sink_candidates(poc_with(), graph) == []


def test_suffix_does_not_match_mid_label():
    graph = load_program_graph(fixture_path("publiccms_mini", "graph.json"))
    # "parsers.DocumentBuilderFactory" is a prefix-interior fragment, the
    # label continues with ".newInstance", so it must not suffix-match.
    poc = poc_with(pattern="parsers.DocumentBuilderFactory")
    cands = derive_sink_candidates(poc, graph)
    assert all(not c.matched_node_ids for c in cands)


# --- registry ----------------------------------------------------------------


def test_bundled_registry_loads():
    # The bundled file is read and checked as a user's registry is.
    registry = load_sink_registry()
    assert "xml-parse" in registry
    assert any(name.endswith("DocumentBuilderFactory.newInstance")
               for name in registry["xml-parse"])
    with open(poc._BUNDLED_REGISTRY, encoding="utf-8") as fh:
        assert registry == json.load(fh)


def test_bundled_registry_is_checked(tmp_path, monkeypatch):
    bundled = tmp_path / "sink_registry.json"
    bundled.write_text(json.dumps({"xml-parse": "not a list"}))
    monkeypatch.setattr(poc, "_BUNDLED_REGISTRY", str(bundled))
    with pytest.raises(ConfigError, match="must be a JSON object mapping"):
        load_sink_registry()


def test_registry_candidates_on_case2_graph():
    graph = load_program_graph(fixture_path("publiccms_mini", "graph.json"))
    cands = registry_sink_candidates(graph, load_sink_registry())
    hits = [c for c in cands if c.matched_node_ids]
    assert len(hits) == 1
    assert hits[0].origin == CandidateOrigin.STATIC_REGISTRY
    assert hits[0].sink_kind == "xml-parse"
    assert hits[0].matched_node_ids == ("n_newinst",)


def test_registry_candidates_none_on_case1_graph():
    graph = load_program_graph(fixture_path("datagear_mini", "graph.json"))
    cands = registry_sink_candidates(graph, load_sink_registry())
    assert all(not c.matched_node_ids for c in cands)


def test_user_registry_override(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"custom": ["my.pkg.danger"]}))
    assert load_sink_registry(str(path)) == {"custom": ["my.pkg.danger"]}
