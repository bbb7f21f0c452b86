"""Self-test of the benchmark's output checks.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs one scan of each workload at a tiny size and requires every check to
pass on the real outputs. Then it plants one wrong answer at a time in a
copy of a report and requires the matching check to reject it:

- one oracle path removed from a sink's forward findings;
- a stitched flow whose source and sink have no visibility-off connection;
- token totals off by one;
- an advisory-origin sink that the generator never planted.

Exits 0 when all of that holds, 1 otherwise. Takes a few seconds.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import time

from run import Bench, _require_checkout


def _bridge(src: str, dst: str) -> dict:
    return {"id": f"bridge::{src}->{dst}", "from": src, "to": dst, "kind": "call-pass",
            "visible_to_forward": False, "guard_tags": [], "bridged": True}


def main() -> int:
    _require_checkout()
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import checks
    import workloads

    work = os.path.join("perfbench", "work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    built = {
        "mini-repos": workloads.mini_repos(0, os.path.join(work, "mini")),
        "large-graph": workloads.large_graph(0, os.path.join(work, "large"),
                                             workloads.TINY_LARGE),
        "deep-paths": workloads.deep_paths(0, os.path.join(work, "deep"),
                                           bases=(1,), flow_bound=8),
    }
    failures = []
    reports = {}
    for name, wl in built.items():
        bench = Bench(wl)
        bench.round()
        bench.round()
        if bench.failed:
            failures.append(f"{name}: real outputs rejected: {bench.errors}")
        print(f"accepted: {name}: {bench.attempted} scans, {bench.failed} failed")
        inp = wl.inputs[0]
        reports[name] = (bench.reports[inp.name], checks.load_graph_doc(
            inp.config["graph_path"]), inp.planted)

    def planted_error(what, workload, mutate, check, expect=""):
        report, graph_doc, planted = copy.deepcopy(reports[workload])
        mutate(report, planted)
        graph = checks.assembled_graph(graph_doc, report)
        errors = [e for e in check(report, graph, planted) if expect in e]
        total = checks.check_scan(workload, report, graph_doc, planted)
        if errors and total:
            print(f"rejected: {what} ({workload}): {errors[0]}")
        else:
            failures.append(f"{what} ({workload}) was not rejected")

    def drop_oracle_path(report, planted):
        forward = [i for i, f in enumerate(report["findings"])
                   if f["flow"]["origin"] == "forward"]
        del report["findings"][forward[len(forward) // 2]]

    def false_stitch(report, planted):
        # the source of one planted chain and the sink of another: their
        # functions share no edge, hidden or not
        src, sink = planted["chains"][0][0], planted["chains"][1][1]
        finding = copy.deepcopy(next(f for f in report["findings"]
                                     if f["flow"]["origin"] == "stitched"))
        finding["sink"]["node_id"] = sink
        finding["flow"]["triples"] = [{"from": src, "edge": _bridge(src, sink), "to": sink}]
        report["findings"].append(finding)

    def tokens_off_by_one(report, planted):
        report["token_usage"]["grand_total"] += 1

    def unplanted_advisory_sink(report, planted):
        taken = {s["node_id"] for s in report["sinks"]}
        node = next(f["flow"]["triples"][0]["to"] for f in report["findings"]
                    if f["flow"]["triples"][0]["to"] not in taken)
        report["sinks"].append({"node_id": node, "label": "", "origin": "advisory_poc",
                                "sink_kind": "unknown", "advisory": None})

    for workload in ("large-graph", "deep-paths", "mini-repos"):
        planted_error("one oracle path removed", workload, drop_oracle_path,
                      lambda r, g, p: checks.check_forward(r, g))
    planted_error("stitched flow with no visibility-off connection", "large-graph",
                  false_stitch, lambda r, g, p: checks.check_stitched(r, g),
                  expect="has no visibility-off path")
    for workload in ("large-graph", "deep-paths", "mini-repos"):
        planted_error("token totals off by one", workload, tokens_off_by_one,
                      lambda r, g, p: checks.check_token_sums(r))
    planted_error("advisory-origin sink never planted", "large-graph",
                  unplanted_advisory_sink, lambda r, g, p: checks.check_large(r, p))

    print(f"self-test took {time.perf_counter() - start:.1f} s")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
