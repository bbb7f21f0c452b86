"""Advisory retrieval, normalization, and community-finding scoring.

Authoritative sources (NVD, OSV, GHSA, Snyk) and community issues are
read per dependency from an offline fixture directory, one JSON array
per source, named ``<source>__<name-with-colons-as-double-underscore>.json``,
so every run is deterministic. A missing file is an empty result; an
unreadable one, or an entry of the wrong shape, is skipped with a
warning. Authoritative results are merged, deduplicated by identifier
and sorted by severity, then identifier.

Community issues are scored by three deterministic text indicators
(relevance, credibility, content quality) and gated on their weighted
aggregate.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from argus.errors import ConfigError, TransportError, read_json
from argus.deps import DependencyRecord

AUTHORITATIVE_SOURCES = ("NVD", "OSV", "GHSA", "Snyk")

DEFAULT_GATE_THRESHOLD = 0.5
DEFAULT_GATE_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)

# Relevance keyword sets (case-insensitive whole words).
SPECULATIVE_KEYWORDS = frozenset({"potential", "early"})
SECURITY_KEYWORDS = frozenset({"vulnerability"})

# Content-quality lexicons.
TECHNICAL_TOKENS = frozenset(
    {
        "stack trace",
        "payload",
        "sink",
        "injection",
        "deserialization",
        "overflow",
        "traversal",
        "bytecode",
        "sandbox",
        "exploit",
        "xxe",
        "ssrf",
    }
)
IMPACT_PHRASES = frozenset(
    {
        "rce",
        "remote code execution",
        "xss",
        "cross-site scripting",
        "sql injection",
        "data loss",
        "denial of service",
        "privilege escalation",
        "information disclosure",
        "arbitrary file",
    }
)
SOLUTION_PHRASES = frozenset({"fix", "patch", "upgrade", "workaround", "mitigation"})


class Severity(str, Enum):
    """Declared from most to least severe, the order advisories sort in."""

    CRITICAL = "critical"
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"
    UNKNOWN = "unknown"


_SEVERITY_RANK = {severity: rank for rank, severity in enumerate(Severity)}


def severity_from_cvss(score: Optional[float]) -> Severity:
    if score is None:
        return Severity.UNKNOWN
    if score >= 9:
        return Severity.CRITICAL
    if score >= 7:
        return Severity.HIGH
    if score >= 4:
        return Severity.MEDIUM
    return Severity.LOW


@dataclass(frozen=True)
class AdvisoryRecord:
    source: str  # NVD | OSV | GHSA | Snyk | community
    identifier: str
    description: str
    severity: Severity = Severity.UNKNOWN
    affected_versions: str = "*"
    cve_id: Optional[str] = None
    dependency: str = ""

    def __post_init__(self):
        if not self.identifier:
            raise ValueError("advisory identifier must be non-empty")


@dataclass(frozen=True)
class CommunityIssue:
    title: str = ""
    body: str = ""
    comment_count: int = 0
    cve_linked: bool = False
    repo: str = "primary"  # "primary" or a fork slug
    url: str = ""

    def __post_init__(self):
        if self.comment_count < 0:
            raise ValueError("comment_count must be >= 0")


@dataclass(frozen=True)
class ScoredFinding:
    relevance: float
    credibility: float
    quality: float
    aggregate: float
    passed_gate: bool


# ---------------------------------------------------------------------------
# Scoring


def _contains_word(text: str, word: str) -> bool:
    if " " in word:
        return word in text
    return re.search(rf"\b{re.escape(word)}\b", text) is not None


def relevance_score(issue: CommunityIssue) -> float:
    """Rule-based relevance in [0, 1].

    Starts at 0.5; +0.4 for speculative keywords, +0.1 for explicit
    security terms, -0.1 when the issue already carries a CVE link. The
    raw sum can leave [0, 1], so the result is clamped.
    """
    text = f"{issue.title}\n{issue.body}".lower()
    score = 0.5
    if any(_contains_word(text, w) for w in SPECULATIVE_KEYWORDS):
        score += 0.4
    if any(_contains_word(text, w) for w in SECURITY_KEYWORDS):
        score += 0.1
    if issue.cve_linked:
        score -= 0.1
    return min(1.0, max(0.0, score))


def credibility_score(issue: CommunityIssue) -> float:
    """0.3 + min(comment_count * 0.05, 0.3); saturates at six comments."""
    return 0.3 + min(issue.comment_count * 0.05, 0.3)


_CODE_FENCE = re.compile(r"```")
_INDENTED_CODE = re.compile(r"^(?:    |\t)\S", re.MULTILINE)


def quality_score(issue: CommunityIssue) -> float:
    """Content quality in [0, 1]: mean of five {0, 0.5, 1} components.

    Components: body length bucket, technical depth (distinct lexicon
    hits), concreteness of stated impact, presence of a code example, and
    a proposed fix.
    """
    body = issue.body
    text = f"{issue.title}\n{body}".lower()

    if len(body) < 100:
        length = 0.0
    elif len(body) < 500:
        length = 0.5
    else:
        length = 1.0

    tech_hits = sum(1 for tok in TECHNICAL_TOKENS if _contains_word(text, tok))
    depth = 1.0 if tech_hits >= 2 else (0.5 if tech_hits == 1 else 0.0)

    impact = 1.0 if any(_contains_word(text, p) for p in IMPACT_PHRASES) else 0.0
    code = 1.0 if (_CODE_FENCE.search(body) or _INDENTED_CODE.search(body)) else 0.0
    solution = 1.0 if any(_contains_word(text, p) for p in SOLUTION_PHRASES) else 0.0

    return 0.2 * (length + depth + impact + code + solution)


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or float, not a bool, in the range of
    finite floats (so not NaN, an infinity or a too-large int)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def check_gate_weights(weights: Sequence[float]) -> None:
    if (
        not isinstance(weights, (list, tuple))
        or len(weights) != 3
        or not all(is_finite_number(w) for w in weights)
        or abs(sum(weights) - 1.0) > 1e-9
    ):
        raise ConfigError(f"gate weights must be 3 values summing to 1, got {weights}")


def aggregate_score(relevance: float, credibility: float, quality: float,
                    weights: Sequence[float] = DEFAULT_GATE_WEIGHTS) -> float:
    check_gate_weights(weights)
    return weights[0] * relevance + weights[1] * credibility + weights[2] * quality


def gate_finding(issue: CommunityIssue,
                 weights: Sequence[float] = DEFAULT_GATE_WEIGHTS,
                 threshold: float = DEFAULT_GATE_THRESHOLD) -> ScoredFinding:
    r = relevance_score(issue)
    c = credibility_score(issue)
    q = quality_score(issue)
    agg = aggregate_score(r, c, q, weights)
    return ScoredFinding(
        relevance=r,
        credibility=c,
        quality=q,
        aggregate=agg,
        passed_gate=agg >= threshold,
    )


# ---------------------------------------------------------------------------
# Version-range filtering (best effort; unresolvable ranges are kept)


_VERSION_RE = re.compile(r"^\d+(\.\d+)*$")
_CONSTRAINT_RE = re.compile(r"^(<=|>=|<|>|==|=)?\s*(\d+(?:\.\d+)*)$")


def _parse_version(text: str) -> Optional[tuple[int, ...]]:
    text = text.strip()
    if not _VERSION_RE.match(text):
        return None
    return tuple(int(p) for p in text.split("."))


def version_in_range(version: str, range_spec: str) -> Optional[bool]:
    """Check a version against a simple comma-conjoined constraint spec.

    Supports ``*``, exact versions, and <, <=, >, >=, == comparators.
    Returns None when either side cannot be parsed (caller keeps the
    advisory in that case).
    """
    range_spec = range_spec.strip()
    if range_spec in ("", "*"):
        return True
    v = _parse_version(version)
    if v is None:
        return None
    for part in range_spec.split(","):
        m = _CONSTRAINT_RE.match(part.strip())
        if not m:
            return None
        op = m.group(1) or "=="
        bound = _parse_version(m.group(2))
        if bound is None:
            return None
        if op in ("==", "=") and v != bound:
            return False
        if op == "<" and not v < bound:
            return False
        if op == "<=" and not v <= bound:
            return False
        if op == ">" and not v > bound:
            return False
        if op == ">=" and not v >= bound:
            return False
    return True


# ---------------------------------------------------------------------------
# Retrieval


def _read_fixture(fixtures_dir: str, filename: str) -> list:
    """The JSON array in ``fixtures_dir/filename``; empty when the file is
    missing. An unreadable file, or one that holds no array, raises
    :class:`TransportError`."""
    path = os.path.join(fixtures_dir, filename)
    if not os.path.exists(path):
        return []
    doc = read_json(path, TransportError, f"{path}: malformed fixture")
    if not isinstance(doc, list):
        raise TransportError(f"{path}: fixture must be a JSON array")
    return doc


def _fixture_name(source: str, dep: DependencyRecord) -> str:
    return f"{source}__{dep.name.replace(':', '__')}.json"


# key -> the JSON types its value may have, where a fixture entry holds it
_NULL = type(None)
_ADVISORY_TYPES = {
    "identifier": (str,),
    "description": (str,),
    "affected_versions": (str,),
    "cve_id": (str, _NULL),
    "severity": (str, int, float, _NULL),
    "cvss_score": (int, float, _NULL),
}
_COMMUNITY_TYPES = {
    "title": (str,), "body": (str,), "repo": (str,), "url": (str,),
    "comment_count": (int,), "cve_linked": (bool,),
}


def _check_entry(raw, types: dict) -> None:
    """Raise ValueError unless ``raw`` is an object whose keys in ``types``
    hold values of their types (a bool only where ``bool`` is named)."""
    if not isinstance(raw, dict):
        raise ValueError(f"entry must be an object, got {raw!r}")
    for key, allowed in types.items():
        value = raw.get(key)
        if key in raw and (not isinstance(value, allowed)
                           or isinstance(value, bool) and bool not in allowed):
            names = " or ".join("null" if t is _NULL else t.__name__ for t in allowed)
            raise ValueError(f"{key} must be {names}, got {value!r}")


def _record_from_raw(raw, source: str, dep: DependencyRecord) -> AdvisoryRecord:
    _check_entry(raw, _ADVISORY_TYPES)
    sev_raw = raw.get("severity")
    if isinstance(sev_raw, (int, float)):
        severity = severity_from_cvss(sev_raw)
    elif isinstance(sev_raw, str):
        try:
            severity = Severity(sev_raw.lower())
        except ValueError:
            severity = Severity.UNKNOWN
    else:
        severity = severity_from_cvss(raw.get("cvss_score"))
    return AdvisoryRecord(
        source=source,
        identifier=raw["identifier"],
        description=raw.get("description", ""),
        severity=severity,
        affected_versions=raw.get("affected_versions", "*"),
        cve_id=raw.get("cve_id"),
        dependency=dep.name,
    )


def query_authoritative(
    dep: DependencyRecord, fixtures_dir: str, warnings: list[str]
) -> list[AdvisoryRecord]:
    """Read every authoritative source's fixture in ``fixtures_dir`` and
    merge the results.

    A source whose file cannot be read is skipped: the other sources'
    results are returned and a warning is appended to ``warnings``, as for
    an entry of the wrong shape. Records are deduplicated by identifier
    (first source in canonical order wins), filtered to the dependency's
    version when the range is resolvable, and sorted by (severity desc,
    identifier).
    """
    merged: dict[str, AdvisoryRecord] = {}
    for source in AUTHORITATIVE_SOURCES:
        try:
            raws = _read_fixture(fixtures_dir, _fixture_name(source, dep))
        except TransportError as exc:
            warnings.append(f"{source}: {exc}")
            continue
        for raw in raws:
            try:
                record = _record_from_raw(raw, source, dep)
            except (KeyError, ValueError) as exc:
                warnings.append(f"{source}: skipped malformed advisory: {exc}")
                continue
            affected = version_in_range(dep.version, record.affected_versions)
            if affected is False:
                continue
            merged.setdefault(record.identifier, record)
    return sorted(merged.values(), key=lambda r: (_SEVERITY_RANK[r.severity], r.identifier))


def retrieve_community(
    dep: DependencyRecord, fixtures_dir: str, warnings: list[str]
) -> list[CommunityIssue]:
    """Read the community issues in ``fixtures_dir``, in hierarchical
    priority order.

    Primary-repository issues come before fork issues, and CVE/GHSA-linked
    issues before unlinked ones; ties break on URL for determinism. An
    entry of the wrong shape, or with neither a url nor a title, is skipped
    with a warning, as is the whole file when it cannot be read.
    """
    try:
        raws = _read_fixture(fixtures_dir, _fixture_name("community", dep))
    except TransportError as exc:
        warnings.append(f"community: {exc}")
        return []
    issues: list[CommunityIssue] = []
    for raw in raws:
        try:
            _check_entry(raw, _COMMUNITY_TYPES)
            if not (raw.get("url") or raw.get("title")):
                # the url, else the title, names a gated issue as an advisory
                raise ValueError("issue has neither a url nor a title")
            issues.append(CommunityIssue(**{k: raw[k] for k in _COMMUNITY_TYPES if k in raw}))
        except ValueError as exc:
            warnings.append(f"community: skipped malformed issue: {exc}")
    issues.sort(key=lambda i: (i.repo != "primary", not i.cve_linked, i.url))
    return issues
