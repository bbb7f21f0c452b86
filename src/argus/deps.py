"""Dependency manifest parsing and usage lookup.

Supports a pom.xml subset (groupId/artifactId/version/scope with
``${...}`` interpolation from <properties>) and a canonical ``deps.json``
for non-Java fixtures. Usage lookup is one range query on the program
graph's label index: the nodes labelled with the dependency's package
prefix or with a name under it.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum

from argus.errors import ManifestError, read_json
from argus.model import ProgramGraph

UNRESOLVED = "unresolved"


class Ecosystem(str, Enum):
    MAVEN = "maven"
    GENERIC = "generic"


class Scope(str, Enum):
    COMPILE = "compile"
    RUNTIME = "runtime"
    TEST = "test"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class DependencyRecord:
    ecosystem: Ecosystem
    name: str
    version: str
    scope: Scope = Scope.UNKNOWN
    manifest_path: str = ""

    def __post_init__(self):
        if not self.name:
            raise ManifestError("dependency name must be non-empty")
        if not self.version:
            raise ManifestError(f"dependency {self.name!r}: version must be non-empty")

    @property
    def package_prefix(self) -> str:
        """Code namespace prefix used for usage lookup.

        For ``group:artifact`` coordinates this is the group id; names
        without a separator match as-is.
        """
        return self.name.split(":", 1)[0]


@dataclass
class UsageRecord:
    node_ids: list[str] = field(default_factory=list)

    @property
    def used(self) -> bool:
        return bool(self.node_ids)


def parse_manifest(path: str) -> list[DependencyRecord]:
    """Parse a supported manifest into dependency records.

    Records are deduplicated by (name, version), the first of each kept,
    and returned in manifest order. Raises :class:`ManifestError` for
    unsupported or malformed files.
    """
    base = os.path.basename(path)
    if base == "pom.xml" or base.endswith(".pom.xml") or path.endswith(".pom"):
        records = _parse_pom(path)
    elif base == "deps.json" or base.endswith(".deps.json"):
        records = _parse_deps_json(path)
    else:
        raise ManifestError(f"unsupported manifest: {path} (expected pom.xml or deps.json)")
    first: dict[tuple[str, str], DependencyRecord] = {}
    for record in records:
        first.setdefault((record.name, record.version), record)
    return list(first.values())


def _strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _parse_pom(path: str) -> list[DependencyRecord]:
    try:
        tree = ET.parse(path)
    except (OSError, ET.ParseError) as exc:
        raise ManifestError(f"{path}: malformed XML: {exc}") from exc
    root = tree.getroot()
    if _strip_ns(root.tag) != "project":
        raise ManifestError(f"{path}: root element is <{_strip_ns(root.tag)}>, expected <project>")

    properties: dict[str, str] = {}
    for child in root:
        if _strip_ns(child.tag) == "properties":
            for prop in child:
                properties[_strip_ns(prop.tag)] = (prop.text or "").strip()

    def interpolate(value: str) -> str:
        if value.startswith("${") and value.endswith("}"):
            return properties.get(value[2:-1], UNRESOLVED)
        return value

    records: list[DependencyRecord] = []
    for deps_el in root.iter():
        if _strip_ns(deps_el.tag) != "dependencies":
            continue
        for dep_el in deps_el:
            if _strip_ns(dep_el.tag) != "dependency":
                continue
            fields = {_strip_ns(c.tag): (c.text or "").strip() for c in dep_el}
            group = fields.get("groupId")
            artifact = fields.get("artifactId")
            if not group or not artifact:
                raise ManifestError(
                    f"{path}: <dependency> missing groupId/artifactId "
                    f"(saw {sorted(fields)})"
                )
            version = interpolate(fields.get("version", "")) or UNRESOLVED
            scope_text = fields.get("scope", "")
            try:
                scope = Scope(scope_text) if scope_text else Scope.COMPILE
            except ValueError:
                scope = Scope.UNKNOWN
            records.append(
                DependencyRecord(
                    ecosystem=Ecosystem.MAVEN,
                    name=f"{group}:{artifact}",
                    version=version,
                    scope=scope,
                    manifest_path=str(path),
                )
            )
    return records


def _parse_deps_json(path: str) -> list[DependencyRecord]:
    doc = read_json(path, ManifestError, f"{path}: malformed JSON")
    if not isinstance(doc, dict) or doc.get("format_version") != "1":
        raise ManifestError(f"{path}: missing format_version '1'")
    records: list[DependencyRecord] = []
    entries = doc.get("dependencies", [])
    if not isinstance(entries, list):
        raise ManifestError(f"{path}: dependencies must be an array, got {entries!r}")
    for i, raw in enumerate(entries):
        if not isinstance(raw, dict):
            raise ManifestError(f"{path}: dependency #{i} must be an object, got {raw!r}")
        name = raw.get("name")
        if not isinstance(name, str):
            raise ManifestError(f"{path}: dependency #{i} name must be a string, got {name!r}")
        if not name:
            raise ManifestError(f"{path}: dependency #{i} name must be non-empty")
        version = raw.get("version")
        if not isinstance(version, (str, type(None))):
            raise ManifestError(
                f"{path}: dependency #{i} version must be a string or null, got {version!r}"
            )
        try:
            ecosystem = Ecosystem(raw.get("ecosystem", "generic"))
        except ValueError:
            ecosystem = Ecosystem.GENERIC
        try:
            scope = Scope(raw.get("scope", "unknown"))
        except ValueError:
            scope = Scope.UNKNOWN
        records.append(
            DependencyRecord(
                ecosystem=ecosystem,
                name=name,
                version=version or UNRESOLVED,
                scope=scope,
                manifest_path=str(path),
            )
        )
    return records


def find_usages(graph: ProgramGraph, dep: DependencyRecord) -> UsageRecord:
    """Collect all content nodes whose label is the dependency's package
    prefix or lies under it (the prefix followed by ``.``), in
    lexicographic id order."""
    return UsageRecord(graph.label_index().under(dep.package_prefix))
