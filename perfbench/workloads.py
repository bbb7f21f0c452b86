"""Seeded input generators for the benchmark workloads.

Each builder writes one workload's inputs under a work directory and
returns the scans to run: the ``PipelineConfig`` keyword arguments of each
input, plus what the generator planted in it, which the output checks
compare the reports against. The program only ever sees the written files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from argus.engine import DEFAULT_MAX_FLOWS_PER_SINK
from argus.model import graph_to_dict
from argus.poc import load_sink_registry
from argus.synthetic import hidden_chain_graph, random_graph

FIXTURES = os.path.join("tests", "fixtures")

# The bundled mini repos and the hand labels of acceptance criterion g
# (vulnerabilities by sink origin), restated here because the tests keep
# them in code rather than in a fixture file.
MINI_REPOS = (
    ("datagear_mini", "deps.json", {"advisory_poc": 2}),
    ("publiccms_mini", "pom.xml", {"static_registry": 1}),
)

# random_graph structure seeds of the deep-paths graphs. The run seed
# relabels node and edge ids, which changes which 32 paths each sink
# reports but not how many simple paths exist, so the enumeration work
# (and with it the run-to-run spread) does not depend on the seed.
DEEP_BASES = (1, 3, 7)
DEEP_FLOW_BOUND = 16

LARGE_FLOW_BOUND = 8
# Seed of the large graph's structure: its edges, roles and hidden edges.
# The run seed draws ids, labels, the dependencies and the advisories, so
# like deep-paths it moves which flows fill each sink's cap but not how
# much search a scan does.
LARGE_BASE = 1

# Recorded token counts of the generated transcripts. They do not depend
# on the seed, so llm_tokens only moves when the program meters more or
# fewer turns.
POC_TOKENS = (40, 120, 260)  # system, user, assistant
REVIEW_TOKENS = (60, 90, 45)


@dataclass
class ScanInput:
    name: str
    config: dict  # PipelineConfig keyword arguments
    planted: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    inputs: list[ScanInput]


def safe_name(text: str) -> str:
    """File-name form of an advisory or sink key, as the pipeline builds it."""
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in text)


def _write_json(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _write_transcript(path: str, turns: list[tuple[str, str, int]]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format_version": "1", "model_tag": "replay-bench"}) + "\n")
        for role, content, tokens in turns:
            fh.write(json.dumps({"role": role, "content": content,
                                 "tool_name": None, "token_count": tokens}) + "\n")


# ---------------------------------------------------------------------------
# mini-repos


def mini_repos(seed: int, work: str) -> Workload:
    """The two bundled fixtures, configured as acceptance criteria e-g.

    Their inputs are hand-labelled files, so the seed does not change them.
    """
    inputs = []
    for name, manifest, origin_labels in MINI_REPOS:
        base = os.path.join(FIXTURES, name)
        with open(os.path.join(base, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        replay = os.path.join(base, "replay")
        inputs.append(ScanInput(name, {
            "graph_path": os.path.join(base, "graph.json"),
            "manifest_paths": [os.path.join(base, manifest)],
            "fixtures_dir": os.path.join(base, "advisories"),
            "llm": "replay:" + replay,
            "out_dir": os.path.join(work, name),
        }, {
            "expected": expected,
            "origin_labels": origin_labels,
            "replay_dir": replay,
        }))
    return Workload("mini-repos", inputs)


# ---------------------------------------------------------------------------
# Graph document builder with seeded ids


class _GraphDoc:
    """Accumulates a graph document; ids are drawn at random from the seed,
    so edge-id order (and with it which flows fill a sink's cap) moves with
    the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.nodes: list[dict] = []
        self.edges: list[dict] = []
        self.functions: list[dict] = []
        self.call_edges: list[dict] = []
        self._used: set[str] = set()
        self._pairs: set[tuple[str, str]] = set()

    def _fresh(self, prefix: str) -> str:
        while True:
            key = f"{prefix}{self.rng.randrange(16 ** 7):07x}"
            if key not in self._used:
                self._used.add(key)
                return key

    def function(self, name: str, *, entry: bool = False) -> dict:
        fn = {"id": self._fresh("f"), "name": name, "parameters": [],
              "return_node": None, "is_entry_point": entry}
        self.functions.append(fn)
        return fn

    def node(self, fn: dict, kind: str, label: str, role: str = "none",
             source_kind: str | None = None) -> str:
        nid = self._fresh("n")
        self.nodes.append({"id": nid, "kind": kind, "function_id": fn["id"],
                           "label": label, "taint_role": role,
                           "source_kind": source_kind, "sink_kind": None})
        if kind == "parameter":
            fn["parameters"].append(nid)
        return nid

    def edge(self, a: str, b: str, kind: str = "assign", visible: bool = True) -> bool:
        if (a, b) in self._pairs:
            return False
        self._pairs.add((a, b))
        self.edges.append({"id": self._fresh("e"), "from": a, "to": b, "kind": kind,
                           "visible_to_forward": visible, "guard_tags": []})
        return True

    def call(self, caller: dict, callee: dict, site: str) -> None:
        self.call_edges.append({"caller": caller["id"], "callee": callee["id"],
                                "call_site_node": site})

    def to_dict(self) -> dict:
        return {"format_version": "1", "source_files": [], "functions": self.functions,
                "nodes": self.nodes, "edges": self.edges,
                "call_edges": self.call_edges, "anchors": []}


# ---------------------------------------------------------------------------
# Supply-chain inputs: manifest, advisory fixtures, community issues


_PASS_BODY = (
    "There is a potential vulnerability in {where}: attacker-controlled input "
    "reaches the evaluator without any restriction, so a crafted payload "
    "(expression injection) leads to remote code execution on the server. "
    "The stack trace below shows the sink being reached from the request "
    "handler, and the same pattern appears in the batch importer as well. "
    "We reproduced it on the current release with a two-line proof of "
    "concept and confirmed that no input filter applies on this route. "
    "Suggested fix: validate the grammar before evaluation, or upgrade once "
    "a patched release is out; as a workaround disable the endpoint.\n\n"
    "```java\nhandler.process(userInput);\n```\n"
)


def _supply_chain(rng: random.Random, root: str, *, n_deps: int, used_deps: int,
                  n_authoritative: int, community_deps: int,
                  passing_per_dep: int, failing_per_dep: int) -> dict:
    """Write a pom.xml with many dependencies plus advisory fixtures.

    Returns the manifest path, the fixture directory, the advisories that
    survive retrieval and gating (in the pipeline's identifier order), and
    the comment count of every community issue by identifier.
    """
    fixtures = os.path.join(root, "advisories")
    os.makedirs(fixtures, exist_ok=True)
    dep_lines, props = [], []
    for d in range(n_deps):
        version = f"2.{rng.randrange(10)}.{rng.randrange(10)}"
        if d % 3 == 0:
            props.append(f"    <dep{d:03d}.version>{version}</dep{d:03d}.version>")
            version = "${" + f"dep{d:03d}.version" + "}"
        dep_lines.append(
            "    <dependency>\n"
            f"      <groupId>com.acme.dep{d:03d}</groupId>\n"
            f"      <artifactId>dep{d:03d}-core</artifactId>\n"
            f"      <version>{version}</version>\n"
            "    </dependency>")
    manifest = os.path.join(root, "pom.xml")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n'
                 '<project xmlns="http://maven.apache.org/POM/4.0.0">\n'
                 "  <modelVersion>4.0.0</modelVersion>\n"
                 "  <groupId>com.acme</groupId>\n  <artifactId>bench-app</artifactId>\n"
                 "  <version>1.0.0</version>\n"
                 "  <properties>\n" + "\n".join(props) + "\n  </properties>\n"
                 "  <dependencies>\n" + "\n".join(dep_lines) + "\n  </dependencies>\n"
                 "</project>\n")

    def fixture_name(d: int) -> str:
        return f"com.acme.dep{d:03d}__dep{d:03d}-core.json"

    salt = rng.randrange(100, 1000)
    surviving: list[str] = []
    files: dict[str, list[dict]] = {}
    adv_deps = rng.sample(range(used_deps), n_authoritative + community_deps)
    for k, d in enumerate(adv_deps[:n_authoritative]):
        ident = f"CVE-2026-{salt}{k:02d}"
        record = {"identifier": ident, "cve_id": ident, "severity": "high",
                  "affected_versions": "<3.0.0",
                  "description": f"Unsafe evaluation in dep{d:03d} lets crafted input execute."}
        source = ("NVD", "OSV", "GHSA")[k % 3]
        files.setdefault(f"{source}__{fixture_name(d)}", []).append(record)
        if k % 3 == 1:
            # the same record under a second source: deduplicated on retrieval
            files.setdefault(f"Snyk__{fixture_name(d)}", []).append(dict(record))
        if k % 4 == 2:
            # a record whose range excludes the manifest version: filtered out
            files[f"{source}__{fixture_name(d)}"].append(dict(
                record, identifier=f"CVE-2025-{salt}{k:02d}", cve_id=None,
                affected_versions=">=9.0.0"))
        surviving.append(ident)

    comments: dict[str, int] = {}
    for k, d in enumerate(adv_deps[n_authoritative:]):
        issues = []
        for i in range(passing_per_dep + failing_per_dep):
            url = f"https://issues.example.org/dep{d:03d}/{salt}{k}{i}"
            if i < passing_per_dep:
                count = rng.randrange(3, 9)
                issues.append({"title": f"Potential vulnerability in dep{d:03d} evaluator",
                               "body": _PASS_BODY.format(where=f"dep{d:03d}"),
                               "comment_count": count, "cve_linked": False,
                               "repo": "primary", "url": url})
                surviving.append(url)
            else:
                count = rng.randrange(0, 3)
                issues.append({"title": f"Crash when loading dep{d:03d} settings",
                               "body": "It fails after the last upgrade.",
                               "comment_count": count, "cve_linked": i % 2 == 0,
                               "repo": "fork/acme" if i % 2 else "primary", "url": url})
            comments[url] = count
        files[f"community__{fixture_name(d)}"] = issues
    for name, doc in files.items():
        _write_json(os.path.join(fixtures, name), doc)
    surviving.sort()
    return {"manifest": manifest, "fixtures": fixtures, "surviving": surviving,
            "comments": comments}


def _poc_turns(advisory: str, pattern: str, trigger: str, complete: bool):
    payload = {
        "restated_description": f"Input reaches a dangerous callable ({advisory}).",
        "root_cause": "Attacker input is passed on without validation.",
        "code_pattern": pattern,
        "attack_scenario": "A crafted request reaches the callable.",
        "trigger_code": trigger,
        "patch": "Validate input before the call." if complete else "",
        "explanation": "The vulnerable route is still reachable.",
    }
    return [("system", "security analyst poc workflow", POC_TOKENS[0]),
            ("user", f"analyze {advisory}", POC_TOKENS[1]),
            ("assistant", "```final\n" + json.dumps(payload) + "\n```", POC_TOKENS[2])]


def _review_turns(sink: str, hops: int):
    payload = [{"position": i, "entry_description": "taint enters",
                "content_and_path": f"hop {i}", "neutralization": "none",
                "justification": ""} for i in range(1, hops + 1)]
    return [("system", "hop-by-hop flow audit", REVIEW_TOKENS[0]),
            ("user", f"review flow to {sink}", REVIEW_TOKENS[1]),
            ("assistant", "```final\n" + json.dumps(payload) + "\n```", REVIEW_TOKENS[2])]


# ---------------------------------------------------------------------------
# large-graph


@dataclass(frozen=True)
class LargeShape:
    trees: int = 40  # call trees; each root's parameter is a source
    funcs_per_tree: int = 62  # 12 content nodes per function
    n_deps: int = 150
    used_deps: int = 120  # deps whose package prefix labels graph nodes


TINY_LARGE = LargeShape(trees=4, funcs_per_tree=6, n_deps=20, used_deps=16)

INTRA_EDGES = 23  # access-path edges inside one filler function

# Lattice behind every sink unit: 3 layers of 3 nodes, so each of the two
# calling roots reaches the unit's sink by 27 paths of 6 edges, and the
# per-sink cap of 32 flows always applies.
UNIT_WIDTH = 3
UNIT_LAYERS = 3
UNIT_FLOW_LENGTH = UNIT_LAYERS + 3
CHAIN_DEPTHS = (1, 2, 3)  # planted hidden call chains; one more control chain


def large_graph(seed: int, work: str, shape: LargeShape = LargeShape()) -> Workload:
    """A seeded multi-function graph of >= 30k nodes and >= 60k edges.

    Filler call trees give forward search and graph load their bulk. Sinks
    sit behind small lattices hung off the tree roots, so every sink has a
    known number of flows; hidden call chains in their own functions give
    backward recovery known answers. Registry labels also fall on two
    source nodes and one sanitizer, which reach sink assembly but must end
    with no findings.
    """
    rng = random.Random(seed)
    srng = random.Random(LARGE_BASE)
    g = _GraphDoc(rng)
    supply = _supply_chain(rng, work, n_deps=shape.n_deps, used_deps=shape.used_deps,
                          n_authoritative=8, community_deps=2,
                          passing_per_dep=1, failing_per_dep=3)

    roots: list[tuple[dict, str, str]] = []  # (function, source node, package)
    for t in range(shape.trees):
        funcs = []
        for j in range(shape.funcs_per_tree):
            pkg = f"com.acme.dep{rng.randrange(shape.used_deps):03d}.svc{t}_{j}"
            fn = g.function(f"{pkg}.handle", entry=j == 0)
            p = g.node(fn, "parameter", f"{pkg}.input",
                       "source" if j == 0 else "none", "http-param" if j == 0 else None)
            vs = [g.node(fn, "variable", f"{pkg}.v{k}",
                         "sanitizer" if k == 3 and srng.random() < 0.05 else "none")
                  for k in range(7)]
            x = g.node(fn, "field", f"{pkg}.state")
            s0 = g.node(fn, "call-argument", f"{pkg}.call0")
            s1 = g.node(fn, "call-argument", f"{pkg}.call1")
            r = g.node(fn, "call-return", f"{pkg}.result")
            fn["return_node"] = r
            order = [p, *vs, x, s0, s1, r]

            def kind(a, b):
                if b == x:
                    return "field-write"
                if a == x:
                    return "field-read"
                if b in (s0, s1):
                    return "call-pass"
                return "assign"

            count = 0
            for i in range(1, len(order)):
                a = order[srng.randrange(i)]
                count += g.edge(a, order[i], kind(a, order[i]))
            while count < INTRA_EDGES:
                i, k = sorted(srng.sample(range(len(order)), 2))
                count += g.edge(order[i], order[k], kind(order[i], order[k]))
            funcs.append((fn, p, vs, (s0, s1), r))
            if j == 0:
                roots.append((fn, p, pkg))
        for j, (fn, _, vs, sites, _) in enumerate(funcs):
            for c in (0, 1):
                child = 2 * j + 1 + c
                if child >= len(funcs):
                    continue
                cfn, cp, _, _, cr = funcs[child]
                g.edge(sites[c], cp, "call-pass", visible=srng.random() >= 0.1)
                g.call(fn, cfn, sites[c])
                g.edge(cr, srng.choice(vs), "return")

    names = sorted(n for group in load_sink_registry().values() for n in group)
    rng.shuffle(names)
    main_registry, decoy_names = names[:10], names[10:13]
    chain_registry = names[13:15]
    salt = rng.randrange(100, 1000)
    registry_sinks: set[str] = set()
    advisory_sinks: set[str] = set()
    review_plan: dict[str, int] = {}  # sink node -> flows reviewed
    review_hops: dict[str, int] = {}  # sink node -> triples per reviewed flow
    poc_names: list[str] = []

    def unit(k: int, label: str, role: str = "none",
             source_kind: str | None = None) -> str:
        pkg = f"com.acme.dep{rng.randrange(shape.used_deps):03d}.unit{k}"
        fn = g.function(f"{pkg}.apply")
        up = g.node(fn, "parameter", f"{pkg}.arg")
        prev = [up]
        for layer in range(UNIT_LAYERS):
            cur = [g.node(fn, "variable", f"{pkg}.l{layer}{w}") for w in range(UNIT_WIDTH)]
            for a in prev:
                for b in cur:
                    g.edge(a, b)
            prev = cur
        sink = g.node(fn, "call-argument", label, role, source_kind)
        for a in prev:
            g.edge(a, sink, "call-pass")
        for root, src, rpkg in srng.sample(roots, 2):
            site = g.node(root, "call-argument", f"{rpkg}.unit{k}")
            g.edge(src, site, "call-pass")
            g.edge(site, up, "call-pass")
            g.call(root, fn, site)
        review_plan[sink] = DEFAULT_MAX_FLOWS_PER_SINK
        review_hops[sink] = UNIT_FLOW_LENGTH
        return sink

    k = 0
    overlap_name = None
    for name in main_registry:
        exact = rng.random() < 0.5
        label = name if exact else f"com.acme.vendor{salt}.u{k}.{name}"
        registry_sinks.add(unit(k, label))
        if exact and overlap_name is None:
            overlap_name = name  # also named by a PoC: origin stays static
        k += 1
    for i, name in enumerate(decoy_names):
        if i < 2:
            registry_sinks.add(unit(k, name, "source", "deserialized-input"))
        else:
            registry_sinks.add(unit(k, name, "sanitizer"))
        k += 1
    for i in range(3):
        advisory_sinks.add(unit(k, f"com.acme.tmpl{salt}.Template{i}.render"))
        poc_names.append(f"com.acme.tmpl{salt}.Template{i}.render")
        k += 1
    for i in range(3):
        advisory_sinks.add(unit(k, f"com.acme.expr{salt}.Eval{i}x{salt}.evaluate"))
        poc_names.append(f"Eval{i}x{salt}.evaluate")
        k += 1

    chains = []

    def hidden_chain(c: int, depth: int, label: str, planted: bool) -> tuple[str, str]:
        fns, params, sites = [], [], []
        for f in range(depth + 1):
            pkg = f"com.acme.hc{salt}.chain{c}.f{f}"
            fn = g.function(f"{pkg}.run", entry=f == 0)
            p = g.node(fn, "parameter", f"{pkg}.input",
                       "source" if f == 0 else "none", "http-param" if f == 0 else None)
            v = g.node(fn, "variable", f"{pkg}.v")
            g.edge(p, v)
            end = g.node(fn, "call-argument", label if f == depth else f"{pkg}.next")
            g.edge(v, end, "call-pass")
            fns.append(fn)
            params.append(p)
            sites.append(end)
        for f in range(depth):
            g.call(fns[f], fns[f + 1], sites[f])
            if planted or f > 0:
                g.edge(sites[f], params[f + 1], "call-pass", visible=False)
        return params[0], sites[depth]

    chain_labels = [chain_registry[0], f"com.acme.tmpl{salt}.Loader.fetch",
                    f"com.acme.io{salt}.Store{salt}.write"]
    for c, depth in enumerate(CHAIN_DEPTHS):
        src, sink = hidden_chain(c, depth, chain_labels[c], True)
        chains.append([src, sink])
        (registry_sinks if c == 0 else advisory_sinks).add(sink)
        review_plan[sink] = 1
        review_hops[sink] = 2 + depth
    poc_names += [chain_labels[1], f"Store{salt}.write"]
    control = hidden_chain(len(CHAIN_DEPTHS), 2, chain_registry[1], False)
    registry_sinks.add(control[1])
    poc_names.append(overlap_name or main_registry[0])
    poc_names.append(None)  # a PoC whose callable is not in the graph

    graph_path = os.path.join(work, "graph.json")
    _write_json(graph_path, g.to_dict())

    replay = os.path.join(work, "replay")
    poc_paths = {}
    surviving = supply["surviving"]
    if len(surviving) != len(poc_names):
        raise AssertionError("every gated advisory must name one planted callable")
    for i, ident in enumerate(surviving):
        name = poc_names[i]
        call = f"{name}(payload)" if name else "handler(payload)"
        path = os.path.join(replay, f"poc__{safe_name(ident)}.jsonl")
        _write_transcript(path, _poc_turns(ident, f"value = input; {call};",
                                           call, complete=i % 3 != 2))
        poc_paths[ident] = path
    review_paths: dict[str, list[str]] = {}  # sink node -> transcript of its i-th flow
    for sink, n in review_plan.items():
        for i in range(n):
            path = os.path.join(replay, f"review__{safe_name(f'{sink}__{i}')}.jsonl")
            _write_transcript(path, _review_turns(sink, review_hops[sink]))
            review_paths.setdefault(sink, []).append(path)

    config = {
        "graph_path": graph_path,
        "manifest_paths": [supply["manifest"]],
        "fixtures_dir": supply["fixtures"],
        "llm": "replay:" + replay,
        "max_flow_length": LARGE_FLOW_BOUND,
        "review_mode": "llm",
        "out_dir": os.path.join(work, "out"),
    }
    planted = {
        "registry_sinks": sorted(registry_sinks),
        "advisory_sinks": sorted(advisory_sinks),
        "chains": chains,
        "control_chain": list(control),
        "poc_transcripts": poc_paths,
        "review_transcripts": review_paths,
        "community_comments": supply["comments"],
        "gated": surviving,
    }
    return Workload("large-graph", [ScanInput("large-graph", config, planted)])


# ---------------------------------------------------------------------------
# deep-paths


def _relabel(doc: dict, rng: random.Random) -> dict:
    """Permute node and edge ids (and the labels that spell them)."""
    node_ids = [n["id"] for n in doc["nodes"]]
    edge_ids = [e["id"] for e in doc["edges"]]
    nmap = dict(zip(node_ids, rng.sample(node_ids, len(node_ids))))
    emap = dict(zip(edge_ids, rng.sample(edge_ids, len(edge_ids))))
    for n in doc["nodes"]:
        n["id"] = nmap[n["id"]]
        n["label"] = f"var.{n['id']}"
    for e in doc["edges"]:
        e["id"] = emap[e["id"]]
        e["from"], e["to"] = nmap[e["from"]], nmap[e["to"]]
    return doc


def _prefixed(doc: dict, prefix: str) -> dict:
    """Prefix every id of a graph document so it can be merged into another."""
    def p(x):
        return None if x is None else prefix + x
    for f in doc["functions"]:
        f["id"] = p(f["id"])
        f["parameters"] = [p(x) for x in f["parameters"]]
        f["return_node"] = p(f["return_node"])
    for n in doc["nodes"]:
        n["id"], n["function_id"] = p(n["id"]), p(n["function_id"])
    for e in doc["edges"]:
        e["id"], e["from"], e["to"] = p(e["id"]), p(e["from"]), p(e["to"])
    for c in doc["call_edges"]:
        c["caller"], c["callee"] = p(c["caller"]), p(c["callee"])
        c["call_site_node"] = p(c["call_site_node"])
    return doc


def deep_paths(seed: int, work: str, bases=DEEP_BASES,
               flow_bound: int = DEEP_FLOW_BOUND) -> Workload:
    """Dense random graphs scanned at a long flow bound.

    Each graph also carries one small hidden call chain, so backward
    recovery and stitching run, and the scans share a small manifest with
    advisories, so every stage runs at least once.
    """
    rng = random.Random(seed)
    supply = _supply_chain(rng, work, n_deps=6, used_deps=6, n_authoritative=1,
                          community_deps=1, passing_per_dep=1, failing_per_dep=1)
    inputs = []
    for i, base in enumerate(bases):
        doc = _relabel(graph_to_dict(random_graph(
            base, n_nodes=60, n_edges=150, n_sources=2, n_sinks=3, n_sanitizers=2)), rng)
        fix = hidden_chain_graph(rng.randrange(1 << 30), depth=2)
        extra = _prefixed(graph_to_dict(fix.graph), "hc_")
        for key in ("functions", "nodes", "edges", "call_edges"):
            doc[key] += extra[key]
        graph_path = os.path.join(work, f"graph{i}.json")
        _write_json(graph_path, doc)
        inputs.append(ScanInput(f"graph{i}", {
            "graph_path": graph_path,
            "manifest_paths": [supply["manifest"]],
            "fixtures_dir": supply["fixtures"],
            "llm": "stub",
            "max_flow_length": flow_bound,
            "review_mode": "llm",
            "out_dir": os.path.join(work, f"out{i}"),
        }, {
            "chains": [["hc_" + fix.source_id, "hc_" + fix.sink_id]],
            "community_comments": supply["comments"],
            "gated": supply["surviving"],
        }))
    return Workload("deep-paths", inputs)


BUILDERS = {
    "mini-repos": mini_repos,
    "large-graph": large_graph,
    "deep-paths": deep_paths,
}
