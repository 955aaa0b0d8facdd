"""Smoke test of the benchmark itself: every workload at a tiny size,
plain and traced, in well under a minute.

    python3 bench/smoke.py

It is not part of the repository's test suite. It fails (exit code 1)
if a run does not finish, an operation fails, an output check fails, or
a metric is missing or not a number.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")


def main() -> int:
    sys.path.insert(0, BENCH)
    from run import WORKLOADS
    from tracing import METRICS, OVERHEAD

    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=os.path.dirname(BENCH), stdout=subprocess.PIPE, text=True, timeout=170,
            )
            name = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{name}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = set(METRICS) | {OVERHEAD} if trace else set(END_TO_END)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name}: correct={result['correct']} failed={result['failed']}")
            if set(result["metrics"]) != expected:
                problems.append(f"{name}: metrics differ from {sorted(expected)}")
            for metric, entry in result["metrics"].items():
                if not math.isfinite(entry["value"]):
                    problems.append(f"{name}: {metric} = {entry['value']}")
            print(f"{name}: ok, {result['attempted']} operations")
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
