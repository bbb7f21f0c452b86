"""Byte-stability of ``report.json``: neither the order of the elements of a
graph document nor the hash seed of the process changes a report.

The loader keeps the first string object it decodes for each id, so which
object a graph holds depends on document order; these tests pin that the
report does not.
"""

import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from argus.model import graph_to_dict
from argus.pipeline import PipelineConfig, export_report, run_pipeline
from argus.synthetic import hidden_chain_graph, random_graph
from tests.conftest import fixture_path
from tests.test_golden import MINI_REPOS, REPO_ROOT, scan_argv

_ARRAYS = ("nodes", "edges", "functions", "call_edges", "anchors")


def _fixture_doc(name: str) -> dict:
    with open(fixture_path(name, "graph.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _sarif_doc() -> dict:
    # An anchor around s2's: line 21 must still resolve to s2, the narrower.
    doc = _fixture_doc("sarif")
    doc["anchors"].append(
        {"file": "app/handler.py", "start_line": 19, "end_line": 25, "node_id": "s3"})
    return doc


def _mini_config(name: str, manifest: str) -> dict:
    return {"manifest_paths": [fixture_path(name, manifest)],
            "fixtures_dir": fixture_path(name, "advisories"),
            "llm": "replay:" + fixture_path(name, "replay")}


# (name, graph document, PipelineConfig keywords other than the paths).
INPUTS = [
    *((name, _fixture_doc(name), _mini_config(name, manifest))
      for name, manifest in MINI_REPOS),
    ("random", graph_to_dict(random_graph(5, n_nodes=40, n_edges=100,
                                          hidden_edge_fraction=0.2)), {}),
    ("hidden-chain", graph_to_dict(hidden_chain_graph(3, depth=3).graph), {}),
    ("sarif", _sarif_doc(),
     {"analysis_backend": "sarif:" + fixture_path("sarif", "results.sarif")}),
]


def _reordered(doc: dict, rng: random.Random) -> dict:
    """``doc`` with its element arrays and its keys in ``rng``'s order."""
    out = {key: list(value) if key in _ARRAYS else value for key, value in doc.items()}
    for key in _ARRAYS:
        rng.shuffle(out[key])
    keys = list(out)
    rng.shuffle(keys)
    return {key: out[key] for key in keys}


def _reversed(doc: dict) -> dict:
    """``doc`` with every element array and its keys in reverse order, so
    that edges come before nodes and anchors before everything."""
    return {key: doc[key][::-1] if key in _ARRAYS else doc[key] for key in reversed(doc)}


def _reports(config: dict, *docs: dict) -> list[bytes]:
    """The ``report.json`` of a scan of each of ``docs``, each written in
    turn to the same graph path, since the report names that path."""
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "graph.json")
        out_dir = os.path.join(tmp, "out")
        for doc in docs:
            with open(graph_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            export_report(run_pipeline(PipelineConfig(graph_path=graph_path, **config)),
                          out_dir)
            with open(os.path.join(out_dir, "report.json"), "rb") as fh:
                reports.append(fh.read())
    return reports


def test_inputs_are_not_trivial():
    for name, doc, config in INPUTS:
        [report] = _reports(config, doc)
        assert json.loads(report)["findings"], name


@pytest.mark.parametrize("name, doc, config", INPUTS, ids=[i[0] for i in INPUTS])
def test_reversed_document_gives_the_same_report(name, doc, config):
    want, got = _reports(config, doc, _reversed(doc))
    assert got == want


@pytest.mark.parametrize("name, doc, config", INPUTS, ids=[i[0] for i in INPUTS])
@settings(max_examples=8, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_shuffled_document_gives_the_same_report(name, doc, config, rng):
    want, got = _reports(config, doc, _reordered(doc, rng))
    assert got == want


@pytest.mark.parametrize("name, manifest", MINI_REPOS)
def test_report_does_not_depend_on_the_hash_seed(tmp_path, name, manifest):
    src = os.path.join(REPO_ROOT, "src")
    reports = []
    for seed in ("0", "1"):
        out_dir = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "argus.cli",
                               *scan_argv(name, manifest, str(out_dir))],
                              cwd=REPO_ROOT, env=env, capture_output=True, text=True)
        assert done.returncode in (0, 1), done.stderr
        reports.append((out_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]
