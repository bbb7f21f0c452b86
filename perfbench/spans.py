"""In-memory span tracing around the layer calls of ``run_pipeline``.

The tracer wraps, for the duration of a ``with tracer.installed():``
block, the public functions as ``argus.pipeline`` calls them (plus
``ProgramGraph.with_sinks`` and the agent loop as ``argus.poc`` and
``argus.review`` call it), recording one span per call: name, start, end,
parent and the scan it belongs to. It also counts work at the same
boundaries. Nothing in the program changes; the originals are restored
when the block ends.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import argus.pipeline
import argus.poc
import argus.review
from argus.model import ProgramGraph
from argus.poc import PoCStatus


def _tokens(transcript) -> int:
    if transcript is None:
        return 0
    return transcript.total_prompt_tokens + transcript.total_completion_tokens


def _count_usages(c, args, result):
    c["deps.usage_nodes"] += len(result.node_ids)


def _count_records(c, args, result):
    c["advisories.records"] += len(result)


def _count_gate(c, args, result):
    c["advisories.community_scored"] += 1
    c["advisories.community_passed"] += result.passed_gate


def _count_poc(c, args, result):
    c["poc.artifacts"] += 1
    c["poc.verified"] += result.status == PoCStatus.VERIFIED
    c["agent.tokens_poc"] += _tokens(result.transcript)


def _count_candidates(c, args, result):
    c["poc.sink_candidates"] += len(result)


def _count_forward(c, args, result):
    c["engine.forward_calls"] += 1
    c["engine.sinks_queried"] += len(args[1].sinks)
    c["engine.flows_returned"] += len(result)


def _count_tree(c, args, result):
    c["recursion.tree_nodes"] += len(result.nodes)


def _count_stitch(c, args, result):
    c["recursion.stitched"] += len(result.flows)
    c["recursion.dropped"] += len(result.dropped)


def _count_review(c, args, result):
    c["review.flows_reviewed"] += 1
    c["review.fallbacks"] += result.fell_back_to_rule
    c["agent.tokens_review"] += _tokens(result.transcript)


# (attribute, span name, counter) for every layer call of
# run_pipeline, wrapped where argus.pipeline looks it up.
PIPELINE_CALLS = (
    ("load_program_graph", "model.load_program_graph", None),
    ("validate_flow", "model.validate_flow", None),
    ("parse_manifest", "deps.parse_manifest", None),
    ("find_usages", "deps.find_usages", _count_usages),
    ("query_authoritative", "advisories.retrieve", _count_records),
    ("retrieve_community", "advisories.retrieve", None),
    ("gate_finding", "advisories.gate", _count_gate),
    ("generate_poc", "poc.generate_poc", _count_poc),
    ("registry_sink_candidates", "poc.registry_sink_candidates", _count_candidates),
    ("derive_sink_candidates", "poc.derive_sink_candidates", _count_candidates),
    ("forward_search", "engine.forward_search", _count_forward),
    ("backward_expand", "recursion.backward_expand", _count_tree),
    ("promote_surrogates", "recursion.promote_surrogates", None),
    ("stitch", "recursion.stitch", _count_stitch),
    ("review_flow", "review.review_flow", _count_review),
)

FORWARD = "engine.forward_search"


class Tracer:
    """Spans and counters of traced scans, kept in memory until written."""

    def __init__(self):
        # [scan, name, start, end, parent index]
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.scan = 0
        self._scan_start = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            rec = [tracer.scan, name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts[tracer.scan], args, result)
            return result

        return traced

    def _counting_outgoing(self, fn):
        tracer = self
        spans = self.spans

        def outgoing(graph, node_id):
            c = tracer.counts[tracer.scan]
            c["model.outgoing_calls"] += 1
            stack = tracer._stack
            if stack and spans[stack[-1]][1] == FORWARD:
                c["engine.outgoing_in_forward"] += 1
            return fn(graph, node_id)

        return outgoing

    @contextmanager
    def installed(self):
        patches = [(argus.pipeline, attr, self.wrap(name, getattr(argus.pipeline, attr), count))
                   for attr, name, count in PIPELINE_CALLS]
        patches += [
            (ProgramGraph, "with_sinks", self.wrap("model.with_sinks", ProgramGraph.with_sinks)),
            (ProgramGraph, "outgoing", self._counting_outgoing(ProgramGraph.outgoing)),
            (argus.poc, "run_react_loop",
             self.wrap("agent.react_loop", argus.poc.run_react_loop)),
            (argus.review, "run_react_loop",
             self.wrap("agent.react_loop", argus.review.run_react_loop)),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def begin_scan(self) -> None:
        self.scan += 1
        self.counts[self.scan] = Counter()
        self._scan_start = len(self.spans)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name in the current scan: each span's duration
        minus the part of it its child spans cover."""
        spans = [(i, self.spans[i]) for i in range(self._scan_start, len(self.spans))]
        children: dict[int, list] = {}
        for i, s in spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append((s[2], s[3]))
        out: dict[str, float] = {}
        for i, (_, name, start, end, _) in spans:
            covered, last = 0.0, start
            for a, b in sorted(children.get(i, ())):
                a = max(a, last)
                if b > a:
                    covered += b - a
                    last = b
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for scan, name, start, end, parent in self.spans:
                fh.write(json.dumps({"scan": scan, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
