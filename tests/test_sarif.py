import json
import re

import pytest

from argus.engine import import_sarif
from argus.errors import SarifError
from argus.model import load_program_graph, validate_flow
from tests.conftest import fixture_path


@pytest.fixture
def graph():
    return load_program_graph(fixture_path("sarif", "graph.json"))


def test_three_step_thread_flow_maps_to_one_flow(graph):
    result = import_sarif(fixture_path("sarif", "results.sarif"), graph)
    assert len(result.flows) == 1
    flow = result.flows[0]
    assert flow.edge_ids == ("e1", "e2")
    assert flow.source == "s1"
    assert flow.sink == "s3"
    assert validate_flow(flow, graph).ok


def test_unmappable_location_skips_whole_flow(graph):
    result = import_sarif(fixture_path("sarif", "results.sarif"), graph)
    assert len(result.skipped) == 1
    assert "app/other.py" in result.skipped[0]


def test_empty_sarif_yields_nothing(graph):
    result = import_sarif(fixture_path("sarif", "empty.sarif"), graph)
    assert result.flows == []
    assert result.skipped == []


def test_unsupported_version_raises(graph, tmp_path):
    path = tmp_path / "old.sarif"
    path.write_text(json.dumps({"version": "2.0.0", "runs": []}))
    with pytest.raises(SarifError):
        import_sarif(str(path), graph)


def test_malformed_sarif_raises(graph, tmp_path):
    path = tmp_path / "bad.sarif"
    path.write_text("{")
    with pytest.raises(SarifError):
        import_sarif(str(path), graph)


def test_missing_region_skips_with_diagnostic(graph, tmp_path):
    doc = {
        "version": "2.1.0",
        "runs": [{"results": [{"codeFlows": [{"threadFlows": [{
            "locations": [
                {"location": {"physicalLocation": {
                    "artifactLocation": {"uri": "app/handler.py"}}}},
            ]}]}]}]}],
    }
    path = tmp_path / "r.sarif"
    path.write_text(json.dumps(doc))
    result = import_sarif(str(path), graph)
    assert result.flows == []
    assert any("uri/startLine" in s for s in result.skipped)


def test_adjacent_nodes_without_edge_skip(graph, tmp_path):
    # s1 -> s3 directly: both anchors resolve but no graph edge joins them
    def loc(line):
        return {"location": {"physicalLocation": {
            "artifactLocation": {"uri": "app/handler.py"},
            "region": {"startLine": line}}}}

    doc = {
        "version": "2.1.0",
        "runs": [{"results": [{"codeFlows": [{"threadFlows": [{
            "locations": [loc(11), loc(31)]}]}]}]}],
    }
    path = tmp_path / "r.sarif"
    path.write_text(json.dumps(doc))
    result = import_sarif(str(path), graph)
    assert result.flows == []
    assert any("no edge" in s for s in result.skipped)


@pytest.mark.parametrize("extra", [
    # A wider range around s2's: the narrower anchor wins.
    {"file": "app/handler.py", "start_line": 19, "end_line": 25, "node_id": "s3"},
    # As narrow as s2's: the smaller node id wins.
    {"file": "app/handler.py", "start_line": 20, "end_line": 22, "node_id": "s3"},
])
@pytest.mark.parametrize("first", [True, False])
def test_overlapping_anchors_resolve_alike_in_either_order(tmp_path, extra, first):
    with open(fixture_path("sarif", "graph.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["anchors"] = [extra, *doc["anchors"]] if first else [*doc["anchors"], extra]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    result = import_sarif(fixture_path("sarif", "results.sarif"), load_program_graph(path))
    assert [flow.edge_ids for flow in result.flows] == [("e1", "e2")]
    assert result.skipped == ["thread flow skipped: no anchor for app/other.py:5"]


def _thread_flow_doc(*locations):
    return {"version": "2.1.0",
            "runs": [{"results": [{"codeFlows": [{"threadFlows": [{
                "locations": list(locations)}]}]}]}]}


@pytest.mark.parametrize("doc, message", [
    ([], "SARIF document must be a JSON object"),
    ({"version": "2.1.0", "runs": {}}, "runs must be an array of objects"),
    ({"version": "2.1.0", "runs": [1]}, "runs must be an array of objects"),
    ({"version": "2.1.0", "runs": [{"results": "x"}]}, "results must be an array of objects"),
    ({"version": "2.1.0", "runs": [{"results": [{"codeFlows": [None]}]}]},
     "codeFlows must be an array of objects"),
    ({"version": "2.1.0", "runs": [{"results": [{"codeFlows": [{"threadFlows": 3}]}]}]},
     "threadFlows must be an array of objects"),
    (_thread_flow_doc("loc"), "locations must be an array of objects"),
])
def test_non_object_structure_raises_naming_the_file(graph, tmp_path, doc, message):
    path = tmp_path / "bad.sarif"
    path.write_text(json.dumps(doc))
    with pytest.raises(SarifError, match=f"{re.escape(str(path))}: {message}"):
        import_sarif(str(path), graph)


@pytest.mark.parametrize("line", ["abc", [11], {"n": 11}, True, 11.9, "11"])
def test_non_integer_start_line_skips_with_diagnostic(graph, tmp_path, line):
    doc = _thread_flow_doc({"location": {"physicalLocation": {
        "artifactLocation": {"uri": "app/handler.py"},
        "region": {"startLine": line}}}})
    path = tmp_path / "r.sarif"
    path.write_text(json.dumps(doc))
    result = import_sarif(str(path), graph)
    assert result.flows == []
    assert result.skipped == [f"thread flow skipped: startLine {line!r} is not an integer"]


def test_non_object_location_skips_with_diagnostic(graph, tmp_path):
    doc = _thread_flow_doc({"location": {"physicalLocation": "app/handler.py:11"}})
    path = tmp_path / "r.sarif"
    path.write_text(json.dumps(doc))
    result = import_sarif(str(path), graph)
    assert result.flows == []
    assert any("uri/startLine" in s for s in result.skipped)


@pytest.mark.parametrize("lines, max_length, violation", [
    ((21, 31), 64, "first node 's2' is not a source"),
    ((11, 21), 64, "last node 's2' is not a sink"),
    ((11, 21, 31), 2, "flow length 2 violates bound 2 (need n < bound)"),
])
def test_thread_flow_failing_validation_skips_with_its_violation(graph, tmp_path, lines,
                                                                 max_length, violation):
    doc = _thread_flow_doc(*({"location": {"physicalLocation": {
        "artifactLocation": {"uri": "app/handler.py"},
        "region": {"startLine": line}}}} for line in lines))
    path = tmp_path / "r.sarif"
    path.write_text(json.dumps(doc))
    result = import_sarif(str(path), graph, max_length=max_length)
    assert result.flows == []
    assert result.skipped == [
        f"thread flow skipped: imported flow fails validation: {violation}"
    ]
