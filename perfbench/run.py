"""Seeded scan benchmark for argus.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs a closed loop with
one client: one scan at a time, each a public ``run_pipeline`` followed by
``export_report``. The first scan of every input is checked against the
oracles in ``checks.py``; every later scan must write a byte-identical
``report.json``. With ``--trace 0`` it prints the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones from a traced run.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join("perfbench", "results")

BLOCK_S = 2.0  # shortest block of rounds between two reference samples
SETUP_SHARE = 0.2  # share of the rounds' time spent timing set-up
SETUP_SAMPLE_S = 0.05  # shortest set-up sample; short loads are repeated
LOW_QUANTILE = 0.1  # the quantile of a traced run's scan times it compares
RSS_PROBE_TIMEOUT = 150


def _require_checkout() -> None:
    """Import argus and the test oracles from this checkout, nowhere else."""
    for rel in (("src", "argus", "__init__.py"), ("tests", "oracles.py"), ("BENCHMARK.json",)):
        if not os.path.isfile(os.path.join(ROOT, *rel)):
            sys.exit(f"perfbench: {os.path.join(*rel)} not found; "
                     "run from the root of a full checkout")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def environment() -> dict:
    """Where a result came from: interpreter, cores, and the code measured."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


class Bench:
    """Runs and checks the scans of one workload."""

    def __init__(self, workload):
        from argus.pipeline import PipelineConfig, export_report, run_pipeline

        self.workload = workload
        self.inputs = workload.inputs
        self._config = PipelineConfig
        self._run, self._export = run_pipeline, export_report
        self.reference: dict[str, bytes] = {}
        self.reports: dict[str, dict] = {}
        self.written: dict[str, dict] = {}  # the report files of each input's last scan
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, inp, messages) -> None:
        self.failed += 1
        for m in messages[:5]:
            self.errors.append(f"{inp.name}: {m}")
            print(f"check failed: {inp.name}: {m}", file=sys.stderr)

    def scan(self, inp, run=None, export=None) -> float:
        """One checked scan of one input; returns its wall time in seconds.

        The previous scan's report files are deleted first, untimed. On
        ext4, rewriting a file in place starts its writeback on close, and
        rewriting it again while that is in flight waits for the disk: back
        to back, each in-place rewrite took about 0.3 ms against 0.05 ms for
        a new file, and mini-repos scan times followed the host's disk load.
        A user's next scan comes long after the last one has been written."""
        run, export = run or self._run, export or self._export
        for path in self.written.pop(inp.name, {}).values():
            os.remove(path)
        self.attempted += 1
        start = time.perf_counter()
        try:
            report = run(self._config(**inp.config))
            paths = export(report, inp.config["out_dir"])
        except Exception as exc:  # a scan that raises counts as failed
            elapsed = time.perf_counter() - start
            self._fail(inp, [f"scan raised {type(exc).__name__}: {exc}"])
            return elapsed
        elapsed = time.perf_counter() - start
        self.written[inp.name] = paths
        with open(paths["json"], "rb") as fh:
            blob = fh.read()
        if inp.name not in self.reference:
            try:
                self._check_first(inp, blob)
            except Exception as exc:  # a check that cannot run fails the scan
                self._fail(inp, [f"checks raised {type(exc).__name__}: {exc}"])
        elif blob != self.reference[inp.name]:
            self._fail(inp, ["report.json differs from the first scan of the same inputs"])
        return elapsed

    def _check_first(self, inp, blob: bytes) -> None:
        import checks

        self.reference[inp.name] = blob
        report = json.loads(blob)
        self.reports[inp.name] = report
        graph_doc = checks.load_graph_doc(inp.config["graph_path"])
        errors = checks.check_scan(self.workload.name, report, graph_doc, inp.planted)
        if errors:
            self._fail(inp, errors)

    def round(self, **kw) -> list[float]:
        """Scan every input once; returns the wall time of each scan."""
        return [self.scan(inp, **kw) for inp in self.inputs]

    def setup_time(self, reps: int = 1) -> float:
        """Wall time to load and validate all of the workload's graphs,
        averaged over ``reps`` repetitions."""
        from argus.model import load_program_graph

        start = time.perf_counter()
        for _ in range(reps):
            for inp in self.inputs:
                load_program_graph(inp.config["graph_path"], strict=True)
        return (time.perf_counter() - start) / reps


def low(samples: list[float]) -> float:
    """The LOW_QUANTILE of the samples, by nearest rank (the minimum when
    there are fewer than 1 / LOW_QUANTILE of them)."""
    return sorted(samples)[int(LOW_QUANTILE * len(samples))]


class RssProbe:
    """A fresh process for the peak-RSS measurement (``rss_probe.py``).

    On Linux ``ru_maxrss`` keeps, across ``exec``, the resident size the
    process had when it was forked, which is the parent's. So the probe is
    started while this process is still small, before any input exists,
    and waits on its standard input for the scans to run. It scans during
    the untimed warm-up, into output directories of its own, and is done
    before any timing starts."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "rss_probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def start(self, bench: Bench, spec_path: str) -> None:
        """Send the probe its scans: each input once."""
        configs = [dict(inp.config, out_dir=inp.config["out_dir"] + "-rss")
                   for inp in bench.inputs]
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(configs, fh)
        self.proc.stdin.write(spec_path + "\n")
        self.proc.stdin.flush()

    def peak_rss_mb(self) -> float:
        """Waits for the probe; its peak RSS after the scans."""
        out, _ = self.proc.communicate(timeout=RSS_PROBE_TIMEOUT)
        if self.proc.returncode != 0:
            raise RuntimeError(f"rss_probe.py exited with {self.proc.returncode}")
        return float(out.strip().splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(bench: Bench, seconds: float, work: str, probe: RssProbe) -> tuple[dict, dict]:
    """End-to-end metrics, from untraced scans only.

    The run is a sequence of blocks: whole rounds lasting at least
    BLOCK_S, then set-up samples for about SETUP_SHARE of the rounds'
    time, then one reference sample (``reference.py``). Each block's mean
    scan time and each set-up sample is divided by the mean of the
    reference samples on either side of the block, and ``scan_s`` and
    ``setup_s`` are the medians of these ratios times REF_SECONDS. The
    host's speed moves between states up to 2x apart that can last a whole
    run; the ratio cancels the share of that which the scans and the
    reference have in common."""
    from reference import REF_SECONDS, Reference

    probe.start(bench, os.path.join(work, "rss_probe.json"))
    bench.round()  # warm-up: fills caches and checks every input's outputs
    ref = Reference()
    reps = 1
    while bench.setup_time(reps) * reps < SETUP_SAMPLE_S:
        reps *= 2
    peak_rss_mb = probe.peak_rss_mb()
    scans: list[float] = []  # mean scan time of each block
    setups: list[list[float]] = []  # the set-up samples of each block
    owed = 0.0
    ref.sample()
    deadline = time.perf_counter() + seconds
    block = 0.0  # length of the last block; one starts if half of it fits
    while not scans or time.perf_counter() + block / 2 < deadline:
        start = time.perf_counter()
        times = bench.round()
        while time.perf_counter() - start < BLOCK_S:
            times += bench.round()
        scans.append(statistics.fmean(times))
        owed += SETUP_SHARE * sum(times)
        setups.append([])
        while owed > 0:
            setups[-1].append(bench.setup_time(reps))
            owed -= setups[-1][-1] * reps
        ref.sample()
        block = time.perf_counter() - start
    speed = [(a + b) / 2 for a, b in zip(ref.samples[1:], ref.samples[2:])]
    tokens = [r["token_usage"]["grand_total"] for r in bench.reports.values()]
    values = {
        "scan_s": REF_SECONDS * statistics.median(t / v for t, v in zip(scans, speed)),
        "setup_s": REF_SECONDS * statistics.median(
            t / v for ts, v in zip(setups, speed) for t in ts),
        "peak_rss_mb": peak_rss_mb,
        "llm_tokens": sum(tokens) / len(bench.inputs) if tokens else 0,
    }
    return values, {"scan_s": scans, "setup_s": setups, "reference_s": ref.samples[1:],
                    "setup_reps": reps,
                    "scan_wall_median_s": statistics.median(scans)}


SPAN_METRICS = {"pipeline.run_pipeline": "pipeline.run_pipeline_self_s"}


def _traced_round(bench: Bench, tracer, run, export) -> tuple[float, dict]:
    """One traced round: mean scan time and per-scan layer metrics."""
    per_round: dict[str, float] = {}
    total = 0.0
    for inp in bench.inputs:
        tracer.begin_scan()
        total += bench.scan(inp, run=run, export=export)
        # later scans are byte-identical to the checked first one
        report = bench.reports.get(inp.name, {})
        counts = tracer.counts[tracer.scan]
        counts["pipeline.findings"] += len(report.get("findings", ()))
        counts["pipeline.stage_errors"] += len(report.get("stage_errors", ()))
        for name, value in tracer.self_times().items():
            key = SPAN_METRICS.get(name, name + "_s")
            per_round[key] = per_round.get(key, 0.0) + value
        for name, value in counts.items():
            per_round[name] = per_round.get(name, 0) + value
    n = len(bench.inputs)
    per_round = {k: v / n for k, v in per_round.items()}
    per_round["engine.expansions_per_flow"] = (
        per_round.get("engine.outgoing_in_forward", 0)
        / max(per_round.get("engine.flows_returned", 0), 1))
    per_round["review.useful_share"] = (
        per_round.get("pipeline.findings", 0) / max(per_round.get("review.flows_reviewed", 0), 1))
    return total / n, per_round


def measure_traced(bench: Bench, seconds: float, spans_path: str) -> tuple[dict, dict]:
    """Per-layer metrics from traced scans. Untraced and traced rounds
    alternate, so the difference of their low quantiles is the tracing
    overhead."""
    from spans import Tracer

    bench.round()  # warm-up and checks, untraced
    tracer = Tracer()
    run = tracer.wrap("pipeline.run_pipeline", bench._run)
    export = tracer.wrap("pipeline.export_report", bench._export)
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(statistics.fmean(bench.round()))
        with tracer.installed():
            mean, per_round = _traced_round(bench, tracer, run, export)
        traced.append(mean)
        layers.append(per_round)
    tracer.write(spans_path)
    names = set().union(*layers)
    values = {k: statistics.median(r.get(k, 0.0) for r in layers) for k in names}
    values["trace.overhead_s"] = low(traced) - low(untraced)
    values["trace.overhead_share"] = low(traced) / low(untraced) - 1
    return values, {"scan_s_traced": traced, "scan_s_untraced": untraced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_checkout()
    os.chdir(ROOT)
    probe = None if args.trace else RssProbe()
    try:
        import workloads

        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        if args.workload not in workloads.BUILDERS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.BUILDERS)}")
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

        work = os.path.join("perfbench", "work", args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        os.makedirs(RESULTS, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        bench = Bench(workloads.BUILDERS[args.workload](args.seed, work))
        if args.trace:
            values, samples = measure_traced(
                bench, args.seconds, os.path.join(RESULTS, f"spans-{tag}.jsonl"))
        else:
            values, samples = measure(bench, args.seconds, work, probe)
    finally:
        if probe is not None:
            probe.close()

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    env = environment()
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, **result, "samples": samples,
                   "errors": bench.errors}, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={env['python']} "
          f"nproc={env['nproc']} git={env['git_sha'] or 'none'} "
          f"src={env['source_sha256'][:12]}")
    for name, m in metrics.items():
        print(f"# {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
