"""Golden reports: scanning each mini repo with paths relative to the
repository root reproduces the committed ``tests/golden/<repo>/report.json``
and ``report.md`` byte for byte, and ``argus flows`` to the publiccms_mini
sink prints ``tests/golden/publiccms_mini/flows.json``, a stitched flow
with a bridge edge.

After an intended change to the reports, regenerate the golden files from
the repository root with::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import os

import pytest

from argus.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MINI_REPOS = (("datagear_mini", "deps.json"), ("publiccms_mini", "pom.xml"))
FLOWS_ARGV = ["flows", "--graph", os.path.join("tests", "fixtures", "publiccms_mini", "graph.json"),
              "--sink", "n_newinst"]
FLOWS_GOLDEN = os.path.join("tests", "golden", "publiccms_mini", "flows.json")


def scan_argv(name: str, manifest: str, out_dir: str) -> list[str]:
    fixtures = os.path.join("tests", "fixtures", name)
    return [
        "scan",
        "--graph", os.path.join(fixtures, "graph.json"),
        "--manifest", os.path.join(fixtures, manifest),
        "--fixtures", os.path.join(fixtures, "advisories"),
        "--llm", "replay:" + os.path.join(fixtures, "replay"),
        "--out", out_dir,
    ]


@pytest.mark.parametrize("name, manifest", MINI_REPOS)
def test_mini_repo_reports_match_golden(monkeypatch, capsys, tmp_path, name, manifest):
    monkeypatch.chdir(REPO_ROOT)
    main(scan_argv(name, manifest, str(tmp_path)))
    capsys.readouterr()
    for filename in ("report.json", "report.md"):
        with open(os.path.join("tests", "golden", name, filename), "rb") as fh:
            want = fh.read()
        got = (tmp_path / filename).read_bytes()
        assert got == want, f"{name}/{filename} differs from its golden file"


def test_flows_output_matches_golden(monkeypatch, capsysbinary):
    monkeypatch.chdir(REPO_ROOT)
    assert main(FLOWS_ARGV) == 0
    with open(FLOWS_GOLDEN, "rb") as fh:
        assert capsysbinary.readouterr().out == fh.read()


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    for name, manifest in MINI_REPOS:
        main(scan_argv(name, manifest, os.path.join("tests", "golden", name)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(FLOWS_ARGV)
    with open(FLOWS_GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(out.getvalue())
