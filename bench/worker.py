"""One workload in one fresh process: set-up, timed rounds, checks.

Run by ``run.py``; prints one JSON object as its last line. With
``--setup-only`` it measures set-up and stops. Set-up is the import of
thermocone and thermocone.cli plus one untimed warm-up operation of
each kind; generating the inputs is not part of it.

A round runs the whole fixed operation list once, one operation after
another (a closed loop with one caller). Rounds repeat while the next
one is expected to end within ``--seconds``. With ``--trace 1`` rounds
alternate between plain and traced, and the per-layer metrics come from
the traced ones.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def _percentile(xs, q):
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, min(len(xs) - 1, int(-(-q * len(xs) // 100)) - 1))]


def set_up(workload: str) -> float:
    t0 = time.perf_counter()
    import thermocone  # noqa: F401
    import thermocone.cli  # noqa: F401

    imported = time.perf_counter() - t0
    if not os.path.abspath(thermocone.__file__).startswith(SRC + os.sep):
        raise ImportError(f"thermocone was imported from {thermocone.__file__}, not from {SRC}")
    import workloads

    warmup = workloads.WARMUPS[workload]()
    t1 = time.perf_counter()
    for op in warmup:
        try:
            op.run()
        except Exception as exc:  # the same operation fails in the timed list and is counted there
            sys.stderr.write(f"warm-up {op.kind} failed: {type(exc).__name__}: {exc}\n")
    return imported + time.perf_counter() - t1


def run_round(ops):
    latencies = [0.0] * len(ops)
    results = [None] * len(ops)
    errors = [None] * len(ops)
    now = time.perf_counter
    start = now()
    for i, op in enumerate(ops):
        t0 = now()
        try:
            results[i] = op.run()
        except (Exception, SystemExit) as exc:
            errors[i] = f"{op.kind} raised {type(exc).__name__}: {exc}"
        latencies[i] = now() - t0
    return now() - start, latencies, results, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import json

    setup_s = set_up(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource

    import tracing
    import workloads

    wl = workloads.BUILDERS[args.workload](args.seed, args.tiny)
    ops = wl.ops
    tracer = tracing.Tracer() if args.trace else None
    plain_walls, traced_walls, layer_rounds = [], [], []
    latencies: list[float] = []
    first = None
    raised: dict[int, str] = {}
    drifted: dict[int, int] = {}
    rounds = 0

    gc.collect()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, lat, results, errors = run_round(ops)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        if traced:
            traced_walls.append(wall)
            layer_rounds.append(tracer.metrics())
        else:
            plain_walls.append(wall)
            latencies.extend(lat)
        for i, err in enumerate(errors):
            if err is not None:
                raised.setdefault(i, err)
        if first is None:
            first = results
        else:
            for i, (a, b) in enumerate(zip(first, results)):
                if errors[i] is None and a != b:
                    drifted[i] = drifted.get(i, 0) + 1
        results = None
        gc.collect()
        elapsed = time.perf_counter() - start
        walls = plain_walls + traced_walls
        if elapsed + statistics.median(walls) > args.seconds and (tracer is None or traced_walls):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    failures: dict[int, list[str]] = {}
    for i, op in enumerate(ops):
        if i not in raised and op.check:
            found = getattr(checks, op.check)(op.data, first[i])
            if found:
                failures[i] = found
    for name, idx in wl.groups:
        if not any(i in raised for i in idx):
            found = getattr(checks, name)([ops[i].data for i in idx], [first[i] for i in idx])
            if found:
                failures.setdefault(idx[-1], []).extend(found)

    bad = set(raised) | set(failures)
    failed = rounds * len(bad) + sum(n for i, n in drifted.items() if i not in bad)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": rounds * len(ops),
        "failed": failed,
        "correct": not raised and not failures and not drifted,
        "problems": [raised[i] for i in sorted(raised)]
        + [f"op {i} ({ops[i].kind}): {msg}" for i in sorted(failures) for msg in failures[i]]
        + [f"op {i} ({ops[i].kind}): output differs between rounds" for i in sorted(drifted)],
        "setup_s": setup_s,
        "round_wall_s": plain_walls,
        "traced_round_wall_s": traced_walls,
        "peak_rss_mb": peak_rss_mb,
        "latency_samples": len(latencies),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_p90_ms": 1000.0 * _percentile(latencies, 90),
    }
    if tracer is not None:
        layers = {}
        for name in layer_rounds[0]:
            layers[name] = (statistics.median([r[name][0] for r in layer_rounds]), layer_rounds[0][name][1])
        layers[tracing.OVERHEAD] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["absent"] = sorted(set(tracing.METRICS) - set(layers))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
