import json

import pytest
from hypothesis import given, strategies as st

from argus.advisories import (
    CommunityIssue,
    Severity,
    aggregate_score,
    credibility_score,
    gate_finding,
    quality_score,
    query_authoritative,
    relevance_score,
    retrieve_community,
    severity_from_cvss,
    version_in_range,
)
from argus.deps import DependencyRecord, Ecosystem
from argus.errors import ConfigError
from tests.conftest import fixture_path


def issue(body="", title="", comments=0, cve=False, repo="primary", url=""):
    return CommunityIssue(title=title, body=body, comment_count=comments,
                          cve_linked=cve, repo=repo, url=url)


# --- relevance ---------------------------------------------------------------


def test_relevance_speculative_plus_security():
    assert relevance_score(issue("potential vulnerability in XML parser")) == 1.0


def test_relevance_cve_linked_penalty():
    assert relevance_score(issue("crash when loading file", cve=True)) == pytest.approx(0.4)


def test_relevance_empty_body_is_initial():
    assert relevance_score(issue("")) == 0.5


def test_relevance_whole_word_matching():
    # "potentially" must not trigger the whole-word "potential" rule
    assert relevance_score(issue("potentially broken parser")) == 0.5


def test_relevance_clamped_to_unit_interval():
    low = relevance_score(issue("", cve=True))
    assert 0.0 <= low <= 1.0


# --- credibility -------------------------------------------------------------


def test_credibility_zero_comments():
    assert credibility_score(issue(comments=0)) == pytest.approx(0.3)


def test_credibility_six_comments_hits_cap():
    assert credibility_score(issue(comments=6)) == pytest.approx(0.6)


def test_credibility_hundred_comments_capped():
    assert credibility_score(issue(comments=100)) == pytest.approx(0.6)


def test_credibility_exact_formula_range():
    for n in range(201):
        expected = 0.3 + min(n * 0.05, 0.3)
        assert abs(credibility_score(issue(comments=n)) - expected) < 1e-12


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_credibility_monotone(a, b):
    ca, cb = credibility_score(issue(comments=a)), credibility_score(issue(comments=b))
    if a <= b:
        assert ca <= cb
    if a >= 6 and b >= 6:
        assert ca == cb == pytest.approx(0.6)


# --- quality -----------------------------------------------------------------


def test_quality_empty_body_zero():
    assert quality_score(issue("")) == 0.0


def test_quality_full_marks():
    body = (
        "A crafted payload reaches the parser and causes remote code execution. "
        "The injection path is clear from the stack trace. "
        + "x" * 420
        + "\n```java\nparser.parse(input);\n```\nProposed fix: validate the input."
    )
    assert len(body) >= 500
    assert quality_score(issue(body)) == pytest.approx(1.0)


def test_quality_prose_fixture_scores_04():
    with open(fixture_path("issue_prose.json"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    prose = CommunityIssue(**raw)
    assert quality_score(prose) == pytest.approx(0.4)


def test_quality_in_unit_interval():
    for body in ("", "short", "payload " * 100, "```\ncode\n```"):
        assert 0.0 <= quality_score(issue(body)) <= 1.0


# --- gate --------------------------------------------------------------------


def test_aggregate_worked_example():
    agg = aggregate_score(1.0, 0.6, 1.0)
    assert agg == pytest.approx(0.8667, abs=1e-4)
    assert agg >= 0.5


def test_aggregate_floor_from_credibility_alone():
    assert aggregate_score(0.0, 0.3, 0.0) == pytest.approx(0.1)


def test_gate_threshold_zero_passes_everything():
    finding = gate_finding(issue(""), threshold=0.0)
    assert finding.passed_gate


def test_gate_invalid_weights():
    with pytest.raises(ConfigError):
        aggregate_score(0.5, 0.5, 0.5, weights=(0.5, 0.5, 0.5))


def test_gate_scores_are_deterministic():
    i = issue("potential vulnerability payload injection", comments=3)
    assert gate_finding(i) == gate_finding(i)


# --- severity / versions -----------------------------------------------------


def test_severity_normalization_thresholds():
    assert severity_from_cvss(9.8) == Severity.CRITICAL
    assert severity_from_cvss(7.0) == Severity.HIGH
    assert severity_from_cvss(5.0) == Severity.MEDIUM
    assert severity_from_cvss(1.2) == Severity.LOW
    assert severity_from_cvss(None) == Severity.UNKNOWN


def test_version_range_checks():
    assert version_in_range("5.2.0", "<5.2.1") is True
    assert version_in_range("5.2.1", "<5.2.1") is False
    assert version_in_range("2.0", ">=1.0,<3.0") is True
    assert version_in_range("5.2.0", "*") is True
    assert version_in_range("not-a-version", "<1.0") is None


# --- retrieval ---------------------------------------------------------------


def poi_dep():
    return DependencyRecord(Ecosystem.MAVEN, "org.apache.poi:poi-ooxml", "5.2.0")


def test_offline_fixture_hit():
    fixtures = fixture_path("publiccms_mini", "advisories")
    records = query_authoritative(poi_dep(), fixtures, [])
    assert [r.cve_id for r in records] == ["CVE-2025-31672"]
    assert records[0].severity == Severity.HIGH


def test_offline_fixture_miss_is_empty():
    fixtures = fixture_path("publiccms_mini", "advisories")
    dep = DependencyRecord(Ecosystem.MAVEN, "com.absent:lib", "1.0")
    assert query_authoritative(dep, fixtures, []) == []


def test_version_filter_excludes_unaffected():
    fixtures = fixture_path("publiccms_mini", "advisories")
    dep = DependencyRecord(Ecosystem.MAVEN, "org.apache.poi:poi-ooxml", "5.2.1")
    assert query_authoritative(dep, fixtures, []) == []


def test_duplicate_identifiers_merge(tmp_path):
    record = {"identifier": "GHSA-xxxx", "description": "d", "severity": "high"}
    for source in ("NVD", "GHSA"):
        (tmp_path / f"{source}__a__b.json").write_text(json.dumps([record]))
    fixtures = str(tmp_path)
    dep = DependencyRecord(Ecosystem.MAVEN, "a:b", "1.0")
    warnings = []
    records = query_authoritative(dep, fixtures, warnings)
    assert len(records) == 1
    assert warnings == []


def test_merge_order_independent(tmp_path):
    # same records scattered across sources in different files: output sorted
    (tmp_path / "NVD__a__b.json").write_text(json.dumps([
        {"identifier": "CVE-2", "severity": "low"},
        {"identifier": "CVE-1", "severity": "critical"},
    ]))
    (tmp_path / "OSV__a__b.json").write_text(json.dumps([
        {"identifier": "CVE-3", "severity": "high"},
    ]))
    fixtures = str(tmp_path)
    dep = DependencyRecord(Ecosystem.MAVEN, "a:b", "1.0")
    ids = [r.identifier for r in query_authoritative(dep, fixtures, [])]
    assert ids == ["CVE-1", "CVE-3", "CVE-2"]


def test_community_hierarchical_order():
    fixtures = fixture_path("community")
    dep = DependencyRecord(Ecosystem.MAVEN, "org.datagear:datagear-analysis", "4.6.0")
    issues = retrieve_community(dep, fixtures, [])
    assert [i.repo for i in issues] == ["primary", "fork/acme"]


def test_community_cve_linked_first_within_repo(tmp_path):
    rows = [
        {"title": "a", "body": "", "repo": "primary", "cve_linked": False,
         "url": "u1", "comment_count": 0},
        {"title": "b", "body": "", "repo": "primary", "cve_linked": True,
         "url": "u2", "comment_count": 0},
    ]
    (tmp_path / "community__a__b.json").write_text(json.dumps(rows))
    fixtures = str(tmp_path)
    dep = DependencyRecord(Ecosystem.MAVEN, "a:b", "1.0")
    issues = retrieve_community(dep, fixtures, [])
    assert [i.url for i in issues] == ["u2", "u1"]


# --- malformed fixture entries -----------------------------------------------


GOOD_ADVISORY = {"identifier": "CVE-GOOD", "severity": "high"}


@pytest.mark.parametrize("entry, message", [
    (5, "entry must be an object, got 5"),
    ({"identifier": 5}, "identifier must be str, got 5"),
    ({"identifier": "X", "description": 5}, "description must be str, got 5"),
    ({"identifier": "X", "affected_versions": ["*"]},
     "affected_versions must be str, got ['*']"),
    ({"identifier": "X", "cve_id": [1]}, "cve_id must be str or null, got [1]"),
    ({"identifier": "X", "severity": True},
     "severity must be str or int or float or null, got True"),
    ({"identifier": "X", "cvss_score": "high"},
     "cvss_score must be int or float or null, got 'high'"),
    ({"identifier": "X", "cvss_score": False},
     "cvss_score must be int or float or null, got False"),
], ids=["not-object", "identifier", "description", "affected_versions", "cve_id",
        "severity-bool", "cvss_score-str", "cvss_score-bool"])
def test_malformed_advisory_entry_is_skipped(tmp_path, entry, message):
    (tmp_path / "NVD__a__b.json").write_text(json.dumps([entry, GOOD_ADVISORY]))
    dep = DependencyRecord(Ecosystem.MAVEN, "a:b", "1.0")
    warnings = []
    records = query_authoritative(dep, str(tmp_path), warnings)
    assert [r.identifier for r in records] == ["CVE-GOOD"]
    assert warnings == [f"NVD: skipped malformed advisory: {message}"]


def test_numeric_severity_and_cvss_score_are_kept(tmp_path):
    (tmp_path / "OSV__a__b.json").write_text(json.dumps([
        {"identifier": "A", "severity": 9.8},
        {"identifier": "B", "severity": None, "cvss_score": 5},
        {"identifier": "C", "cve_id": None, "description": "d", "affected_versions": "*"},
    ]))
    dep = DependencyRecord(Ecosystem.MAVEN, "a:b", "1.0")
    warnings = []
    records = query_authoritative(dep, str(tmp_path), warnings)
    assert [(r.identifier, r.severity) for r in records] == [
        ("A", Severity.CRITICAL), ("B", Severity.MEDIUM), ("C", Severity.UNKNOWN),
    ]
    assert warnings == []


def test_non_utf8_fixture_is_a_source_warning(tmp_path):
    path = tmp_path / "NVD__a__b.json"
    path.write_bytes(b"\xff\xfe[]")
    (tmp_path / "OSV__a__b.json").write_text(json.dumps([GOOD_ADVISORY]))
    dep = DependencyRecord(Ecosystem.MAVEN, "a:b", "1.0")
    warnings = []
    records = query_authoritative(dep, str(tmp_path), warnings)
    assert [r.identifier for r in records] == ["CVE-GOOD"]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"NVD: {path}: malformed fixture: ")


GOOD_ISSUE = {"title": "t", "body": "b", "comment_count": 1, "cve_linked": False,
              "repo": "primary", "url": "u-good"}


@pytest.mark.parametrize("entry, message", [
    (5, "entry must be an object, got 5"),
    (dict(GOOD_ISSUE, title=5), "title must be str, got 5"),
    (dict(GOOD_ISSUE, body=None), "body must be str, got None"),
    (dict(GOOD_ISSUE, repo=["primary"]), "repo must be str, got ['primary']"),
    (dict(GOOD_ISSUE, url=7), "url must be str, got 7"),
    (dict(GOOD_ISSUE, comment_count="3"), "comment_count must be int, got '3'"),
    (dict(GOOD_ISSUE, comment_count=2.5), "comment_count must be int, got 2.5"),
    (dict(GOOD_ISSUE, comment_count=True), "comment_count must be int, got True"),
    (dict(GOOD_ISSUE, cve_linked="no"), "cve_linked must be bool, got 'no'"),
], ids=["not-object", "title", "body", "repo", "url", "comment_count-str",
        "comment_count-float", "comment_count-bool", "cve_linked-str"])
def test_malformed_community_entry_is_skipped(tmp_path, entry, message):
    (tmp_path / "community__a__b.json").write_text(json.dumps([entry, GOOD_ISSUE]))
    dep = DependencyRecord(Ecosystem.MAVEN, "a:b", "1.0")
    warnings = []
    issues = retrieve_community(dep, str(tmp_path), warnings)
    assert [i.url for i in issues] == ["u-good"]
    assert warnings == [f"community: skipped malformed issue: {message}"]


def test_community_entry_without_url_or_title_is_skipped(tmp_path):
    # it would pass the gate, but names no advisory
    unnamed = {"body": "potential vulnerability: a crafted payload", "comment_count": 6}
    (tmp_path / "community__a__b.json").write_text(json.dumps([unnamed, GOOD_ISSUE]))
    dep = DependencyRecord(Ecosystem.MAVEN, "a:b", "1.0")
    warnings = []
    issues = retrieve_community(dep, str(tmp_path), warnings)
    assert [i.url for i in issues] == ["u-good"]
    assert warnings == ["community: skipped malformed issue: issue has neither a url nor a title"]
