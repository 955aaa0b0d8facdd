"""thermocone benchmark: one command, three seeded workloads.

    python3 bench/run.py --workload queries --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports thermocone from
``src/`` there and nowhere else, and fails (exit code 2) without it.
Each workload runs in fresh worker processes with BLAS and OpenMP pinned
to one thread. With ``--trace 0`` the last line of standard output
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

A fuller record of the run is written to ``bench/out/``. See
bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("queries", "combinatorics", "cli")
SETUP_PROBES = 4  # extra fresh processes that only measure set-up
DEADLINE_S = 170.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    # the program's own default (serial) is what is measured
    env.pop("THERMOCONE_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *args],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, timeout),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few operations per workload (smoke test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "thermocone", "__init__.py")):
        sys.stderr.write(f"no thermocone sources under {os.path.join(ROOT, 'src')}\n")
        return 2

    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker([*common, "--setup-only"], 60.0)["setup_s"])
        remaining = DEADLINE_S - (time.perf_counter() - started)
        report = run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], remaining)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    if args.trace:
        metrics = report["per_layer"]
        if report["absent"]:
            sys.stderr.write(f"absent per-layer metrics (layer function not found): {', '.join(report['absent'])}\n")
    else:
        setups.append(report["setup_s"])
        report["setup_samples_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(report["round_wall_s"]), "unit": "s"},
            "op_p50_ms": {"value": report["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": report["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }

    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    for problem in report["problems"][:20]:
        print(f"FAILED {problem}")
    print(
        f"{args.workload} seed={args.seed} rounds={report['rounds']} ops/round={report['ops_per_round']} "
        f"attempted={report['attempted']} failed={report['failed']} correct={report['correct']}"
    )
    if not args.trace:
        print(
            f"samples: wall_s={len(report['round_wall_s'])} op_p50_ms=op_p90_ms={report['latency_samples']} "
            f"setup_s={len(setups)} peak_rss_mb=1"
        )
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
