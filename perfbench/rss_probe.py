"""Peak resident memory of one scan of each input, in a fresh process.

Usage: python3 perfbench/rss_probe.py, then write the path of a JSON file
to its standard input. The file holds a list of ``PipelineConfig`` keyword
arguments, as ``run.py`` writes it after generating the inputs, so the
generator's memory is not counted. Prints this process's peak RSS in MB,
read with ``resource.getrusage`` on this process only.
"""

import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from argus.pipeline import PipelineConfig, export_report, run_pipeline  # noqa: E402


def main() -> None:
    path = sys.stdin.readline().strip()
    if not path:
        return  # the caller went away before sending the scans
    with open(path, "r", encoding="utf-8") as fh:
        configs = json.load(fh)
    for kwargs in configs:
        export_report(run_pipeline(PipelineConfig(**kwargs)), kwargs["out_dir"])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


if __name__ == "__main__":
    main()
