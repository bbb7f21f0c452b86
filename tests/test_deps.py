import json

import pytest

from argus.deps import (
    DependencyRecord,
    Ecosystem,
    Scope,
    UNRESOLVED,
    find_usages,
    parse_manifest,
)
from argus.errors import ManifestError
from argus.model import ContentNode, FunctionDecl, NodeKind, ProgramGraph, load_program_graph
from tests.conftest import fixture_path

POM = """<?xml version="1.0"?>
<project xmlns="http://maven.apache.org/POM/4.0.0">
  <properties>
    <poi.version>5.2.0</poi.version>
  </properties>
  <dependencies>
    <dependency>
      <groupId>org.apache.poi</groupId>
      <artifactId>poi-ooxml</artifactId>
      <version>5.2.0</version>
      <scope>compile</scope>
    </dependency>
  </dependencies>
</project>
"""


def write_pom(tmp_path, body):
    path = tmp_path / "pom.xml"
    path.write_text(body)
    return str(path)


def test_pom_basic(tmp_path):
    records = parse_manifest(write_pom(tmp_path, POM))
    assert len(records) == 1
    rec = records[0]
    assert rec.ecosystem == Ecosystem.MAVEN
    assert rec.name == "org.apache.poi:poi-ooxml"
    assert rec.version == "5.2.0"
    assert rec.scope == Scope.COMPILE


def test_pom_duplicate_blocks_deduplicated(tmp_path):
    body = POM.replace(
        "</dependencies>",
        """<dependency>
      <groupId>org.apache.poi</groupId>
      <artifactId>poi-ooxml</artifactId>
      <version>5.2.0</version>
    </dependency>
  </dependencies>""",
    )
    records = parse_manifest(write_pom(tmp_path, body))
    assert len(records) == 1


def test_pom_property_interpolation(tmp_path):
    body = POM.replace("<version>5.2.0</version>", "<version>${poi.version}</version>")
    records = parse_manifest(write_pom(tmp_path, body))
    assert records[0].version == "5.2.0"


def test_pom_unknown_property_unresolved(tmp_path):
    body = POM.replace("<version>5.2.0</version>", "<version>${nope}</version>")
    records = parse_manifest(write_pom(tmp_path, body))
    assert records[0].version == UNRESOLVED


def test_pom_malformed_raises(tmp_path):
    with pytest.raises(ManifestError):
        parse_manifest(write_pom(tmp_path, "<project><dependencies>"))


def test_pom_missing_coordinates_raises(tmp_path):
    body = """<project><dependencies><dependency>
      <artifactId>poi-ooxml</artifactId>
    </dependency></dependencies></project>"""
    with pytest.raises(ManifestError):
        parse_manifest(write_pom(tmp_path, body))


def test_pom_root_must_be_project(tmp_path):
    with pytest.raises(ManifestError, match="root element is <settings>, expected <project>"):
        parse_manifest(write_pom(tmp_path, "<settings/>"))


def test_pom_skips_other_elements_and_keeps_an_unknown_scope(tmp_path):
    body = (POM.replace("<scope>compile</scope>", "<scope>sometimes</scope>")
            .replace("<dependencies>", "<dependencies>\n    <exclusions/>"))
    records = parse_manifest(write_pom(tmp_path, body))
    assert [(r.name, r.scope) for r in records] == [("org.apache.poi:poi-ooxml", Scope.UNKNOWN)]


def test_record_needs_a_name_and_a_version():
    with pytest.raises(ManifestError, match="dependency name must be non-empty"):
        DependencyRecord(Ecosystem.MAVEN, "", "1.0")
    with pytest.raises(ManifestError, match="dependency 'a:b': version must be non-empty"):
        DependencyRecord(Ecosystem.MAVEN, "a:b", "")


def test_deps_json_duplicates_merge_and_unknown_enums_fall_back(tmp_path):
    path = tmp_path / "deps.json"
    path.write_text(json.dumps({"format_version": "1", "dependencies": [
        {"name": "x", "version": "1", "ecosystem": "cobol", "scope": "sometimes"},
        {"name": "x", "version": "1", "ecosystem": "maven", "scope": "test"},
    ]}))
    records = parse_manifest(str(path))
    assert [(r.name, r.ecosystem, r.scope) for r in records] == [
        ("x", Ecosystem.GENERIC, Scope.UNKNOWN)
    ]


def test_deps_json_empty(tmp_path):
    path = tmp_path / "deps.json"
    path.write_text(json.dumps({"format_version": "1", "dependencies": []}))
    assert parse_manifest(str(path)) == []


def test_deps_json_fixture():
    records = parse_manifest(fixture_path("datagear_mini", "deps.json"))
    assert [r.name for r in records] == ["org.datagear:datagear-analysis"]


@pytest.mark.parametrize("dependencies, message", [
    (5, "dependencies must be an array, got 5"),
    (None, "dependencies must be an array, got None"),
    (["x"], "dependency #0 must be an object, got 'x'"),
    ([{"version": "1"}], "dependency #0 name must be a string, got None"),
    ([{"name": 5, "version": "1"}], "dependency #0 name must be a string, got 5"),
    ([{"name": ["a"], "version": "1"}], "dependency #0 name must be a string, got ['a']"),
    ([{"name": "x", "version": "1"}, {"name": "y", "version": 7}],
     "dependency #1 version must be a string or null, got 7"),
])
def test_deps_json_malformed_entry_raises(tmp_path, dependencies, message):
    path = tmp_path / "deps.json"
    path.write_text(json.dumps({"format_version": "1", "dependencies": dependencies}))
    with pytest.raises(ManifestError) as info:
        parse_manifest(str(path))
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("entry", [{"name": "x"}, {"name": "x", "version": None}])
def test_deps_json_version_may_be_absent_or_null(tmp_path, entry):
    path = tmp_path / "deps.json"
    path.write_text(json.dumps({"format_version": "1", "dependencies": [entry]}))
    assert [(r.name, r.version) for r in parse_manifest(str(path))] == [("x", UNRESOLVED)]


def test_unsupported_manifest(tmp_path):
    path = tmp_path / "requirements.txt"
    path.write_text("requests==2.0\n")
    with pytest.raises(ManifestError):
        parse_manifest(str(path))


def test_parse_is_idempotent(tmp_path):
    path = write_pom(tmp_path, POM)
    assert parse_manifest(path) == parse_manifest(path)


# --- usage lookup ------------------------------------------------------------


def brute_usage(graph, prefix):
    return sorted(n.id for n in graph.nodes.values() if n.label.startswith(prefix))


def test_find_usages_prefix_match():
    graph = load_program_graph(fixture_path("publiccms_mini", "graph.json"))
    dep = DependencyRecord(Ecosystem.MAVEN, "org.apache.poi:poi-ooxml", "5.2.0")
    usage = find_usages(graph, dep)
    assert usage.used
    assert usage.node_ids == brute_usage(graph, "org.apache.poi")
    assert "n_wb" in usage.node_ids


def test_find_usages_absent_dep():
    graph = load_program_graph(fixture_path("publiccms_mini", "graph.json"))
    dep = DependencyRecord(Ecosystem.MAVEN, "com.absent:lib", "1.0")
    usage = find_usages(graph, dep)
    assert not usage.used
    assert usage.node_ids == []


def test_find_usages_name_without_separator():
    graph = load_program_graph(fixture_path("publiccms_mini", "graph.json"))
    dep = DependencyRecord(Ecosystem.GENERIC, "org.apache.poi.xssf", "1.0")
    usage = find_usages(graph, dep)
    assert usage.node_ids == brute_usage(graph, "org.apache.poi.xssf")
    assert usage.used


def test_usage_subset_of_graph_nodes():
    graph = load_program_graph(fixture_path("datagear_mini", "graph.json"))
    dep = DependencyRecord(Ecosystem.MAVEN, "org.datagear:datagear-analysis", "4.6.0")
    usage = find_usages(graph, dep)
    assert set(usage.node_ids) <= set(graph.nodes)


def test_find_usages_stops_at_dotted_boundary():
    graph = ProgramGraph(
        [
            ContentNode("n_poi", NodeKind.VARIABLE, "org.apache.poi.Workbook", "f"),
            ContentNode("n_fake", NodeKind.VARIABLE, "org.apache.poifake.Other", "f"),
        ],
        [],
        [FunctionDecl("f", "f")],
        [],
    )
    dep = DependencyRecord(Ecosystem.MAVEN, "org.apache.poi:poi-ooxml", "5.2.0")
    assert find_usages(graph, dep).node_ids == ["n_poi"]
