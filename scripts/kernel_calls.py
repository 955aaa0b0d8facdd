"""Scalar thermal-kernel calls in one round of a benchmark workload.

Builds the workload's operation list with ``bench/workloads.py``, runs
one warm-up round, then counts the calls of ``thermal._shifted_weights``
(every scalar kernel evaluation) and of ``thermal._moments`` (the
inverse solvers' share of them) over one more round. Only ``thermal``
looks these names up, so patching that module counts every call. Prints
one JSON line.

Usage, from the root of a checkout: python scripts/kernel_calls.py WORKLOAD [SEED]
"""

import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from thermocone import thermal  # noqa: E402

import workloads  # noqa: E402

NAMES = ("_shifted_weights", "_moments")


def run_round(ops) -> int:
    """Run every operation once; a failing one fails in both rounds alike."""
    failed = 0
    for op in ops:
        try:
            op.run()
        except (Exception, SystemExit):
            failed += 1
    return failed


def main(argv) -> int:
    if not 1 <= len(argv) <= 2 or argv[0] not in workloads.BUILDERS:
        sys.stderr.write(f"usage: kernel_calls.py {{{','.join(workloads.BUILDERS)}}} [SEED]\n")
        return 2
    workload, seed = argv[0], int(argv[1]) if len(argv) > 1 else 1
    ops = workloads.BUILDERS[workload](seed, False).ops
    run_round(ops)
    calls = Counter()
    originals = {name: getattr(thermal, name) for name in NAMES}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name, fn in originals.items():
        setattr(thermal, name, counting(name, fn))
    try:
        failed = run_round(ops)
    finally:
        for name, fn in originals.items():
            setattr(thermal, name, fn)
    print(json.dumps({"workload": workload, "seed": seed, "ops": len(ops), "failed": failed,
                      **{name.lstrip("_"): calls[name] for name in NAMES}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
