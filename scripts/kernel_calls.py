"""Scalar thermal-kernel calls in one round of a benchmark workload.

Builds the workload's operation list with ``bench/workloads.py``, runs
one warm-up round, then counts the calls of ``thermal._shifted_weights``
(every scalar kernel evaluation) and of its two entry points,
``thermal._moments`` (the inverse solvers) and ``thermal._unit_point``
(one thermal point; on the plateau it sums no weights), over one more
round. Each name is replaced in every thermocone module that holds it,
so calls from other modules are counted too. Prints one JSON line.

Usage, from the root of a checkout: python scripts/kernel_calls.py WORKLOAD [SEED]
"""

import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import thermocone  # noqa: E402
from thermocone import thermal  # noqa: E402

import workloads  # noqa: E402

NAMES = ("_shifted_weights", "_moments", "_unit_point")


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

    holders = [(module, name, fn) for module in list(sys.modules.values())
               if getattr(module, "__name__", "").startswith(thermocone.__name__)
               for name, fn in originals.items() if getattr(module, name, None) is fn]
    for module, name, fn in holders:
        setattr(module, name, counting(name, fn))
    try:
        failed = run_round(ops)
    finally:
        for module, name, fn in holders:
            setattr(module, name, fn)
    print(json.dumps({"workload": workload, "seed": seed, "ops": len(ops), "failed": failed,
                      **{name.lstrip("_"): calls[name] for name in NAMES}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
