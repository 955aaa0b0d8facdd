"""Per-layer counters and timings, installed from outside the program.

``Tracer.install`` replaces each public function listed in ``WRAPPED``
by a timing wrapper at every place a thermocone module (or the package
itself) binds it, which is where its callers look it up. Nested calls
of one layer key are passed straight through, so a layer's time is
counted once. A span's self time is its duration minus the spans of
wrapped calls made inside it.

A function missing from a later version of the program is skipped and
the metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_now = time.perf_counter


def _count_calls(tracer, counter):
    """on_call hook: wrap the callable passed first, counting its evaluations."""

    def hook(args):
        if not args or not callable(args[0]):
            return args
        f = args[0]

        def counted(x):
            tracer.totals[counter] += 1
            return f(x)

        return (counted, *args[1:])

    return hook


def _add(tracer, counter, measure):
    """on_result hook: add ``measure(result)`` to a counter taken from a report."""

    def hook(result):
        try:
            tracer.totals[counter] += measure(result)
        except (AttributeError, TypeError):
            tracer.broken.add(counter)

    return hook


# (module, function, layer key, on_call hook factory, on_result hook factory)
WRAPPED = [
    ("numerics", "eigvals_hermitian", "numerics.eig", None, None),
    ("numerics", "solve_root_bracketed", "numerics.root", lambda t: _count_calls(t, "numerics.root_evals"), None),
    ("numerics", "minimize_scalar", "numerics.minimize", lambda t: _count_calls(t, "numerics.minimize_evals"), None),
    ("system", "validate_state", "system.validate", None, None),
    ("thermal", "thermal_point", "thermal.point", None, None),
    ("thermal", "log_partition", "thermal.log_partition", None, None),
    ("thermal", "beta_from_energy", "thermal.inverse", None, None),
    ("thermal", "beta_from_entropy", "thermal.inverse", None, None),
    ("diagram", "diagram_contains", "diagram.contains", None, None),
    ("diagram", "w_max", "diagram.wmax", None, None),
    ("cone", "r_max", "cone.rmax", None, None),
    ("cone", "cone_contains", "cone.contains", None, None),
    ("exchange", "work_heat", "exchange", None, None),
    ("exchange", "engine_efficiencies", "exchange", None, None),
    ("protocol", "run_entropy_protocol", "protocol.run", None,
     lambda t: _add(t, "protocol.enumerated_items", lambda r: r.enumerated_items)),
    ("protocol", "typical_set", "protocol.typical", None,
     lambda t: _add(t, "protocol.type_classes", lambda r: len(r.type_classes))),
    ("protocol", "build_coarse_graining", "protocol.coarse", None, None),
    ("sumsets", "minkowski_sum", "sumsets.sum", None, lambda t: _add(t, "sumsets.levels_out", len)),
    ("sumsets", "minkowski_diff", "sumsets.sum", None, lambda t: _add(t, "sumsets.levels_out", len)),
    ("sumsets", "find_doubling_k", "sumsets.doubling", None, None),
    ("dilation", "build_energy_preserving_dilation", "dilation", None,
     lambda t: _add(t, "dilation.joint_dim", lambda r: r.total_dimension)),
    ("cli", "main", "cli", None, None),
    ("cli", "emit", "cli.emit", None, lambda t: _add(t, "cli.bytes_out", len)),
]


def _calls(key):
    return lambda t: t[key + ".calls"]


def _ms(key, part="s"):
    return lambda t: 1000.0 * t[f"{key}.{part}"]


def _items_per_s(t):
    greedy_s = t["protocol.run.self_s"]
    return t["protocol.enumerated_items"] / greedy_s if greedy_s > 0 else 0.0


# metric name -> (unit, layer keys it needs, value from the totals)
METRICS = {
    "numerics.eig_calls": ("count", ["numerics.eig"], _calls("numerics.eig")),
    "numerics.eig_ms": ("ms", ["numerics.eig"], _ms("numerics.eig")),
    "numerics.root_solves": ("count", ["numerics.root"], _calls("numerics.root")),
    "numerics.root_evals": ("count", ["numerics.root"], lambda t: t["numerics.root_evals"]),
    "numerics.root_ms": ("ms", ["numerics.root"], _ms("numerics.root")),
    "numerics.minimize_evals": ("count", ["numerics.minimize"], lambda t: t["numerics.minimize_evals"]),
    "numerics.minimize_ms": ("ms", ["numerics.minimize"], _ms("numerics.minimize")),
    "thermal.inverse_calls": ("count", ["thermal.inverse"], _calls("thermal.inverse")),
    "thermal.inverse_ms": ("ms", ["thermal.inverse"], _ms("thermal.inverse")),
    "thermal.point_calls": ("count", ["thermal.point"], _calls("thermal.point")),
    "thermal.point_ms": ("ms", ["thermal.point"], _ms("thermal.point")),
    "thermal.log_partition_calls": ("count", ["thermal.log_partition"], _calls("thermal.log_partition")),
    "thermal.log_partition_ms": ("ms", ["thermal.log_partition"], _ms("thermal.log_partition")),
    "system.validate_calls": ("count", ["system.validate"], _calls("system.validate")),
    "system.validate_ms": ("ms", ["system.validate"], _ms("system.validate")),
    "diagram.contains_calls": ("count", ["diagram.contains"], _calls("diagram.contains")),
    "diagram.contains_ms": ("ms", ["diagram.contains"], _ms("diagram.contains")),
    "diagram.wmax_ms": ("ms", ["diagram.wmax"], _ms("diagram.wmax")),
    "cone.rmax_calls": ("count", ["cone.rmax"], _calls("cone.rmax")),
    "cone.rmax_ms": ("ms", ["cone.rmax"], _ms("cone.rmax")),
    "cone.rmax_self_ms": ("ms", ["cone.rmax"], _ms("cone.rmax", "self_s")),
    "cone.contains_calls": ("count", ["cone.contains"], _calls("cone.contains")),
    "exchange.calls": ("count", ["exchange"], _calls("exchange")),
    "exchange.ms": ("ms", ["exchange"], _ms("exchange")),
    "protocol.runs": ("count", ["protocol.run"], _calls("protocol.run")),
    "protocol.run_ms": ("ms", ["protocol.run"], _ms("protocol.run")),
    "protocol.typical_ms": ("ms", ["protocol.typical"], _ms("protocol.typical")),
    # run_ms minus the wrapped calls inside it (typical_set)
    "protocol.greedy_ms": ("ms", ["protocol.run", "protocol.typical"], _ms("protocol.run", "self_s")),
    "protocol.type_classes": ("count", ["protocol.typical"], lambda t: t["protocol.type_classes"]),
    "protocol.enumerated_items": ("count", ["protocol.run"], lambda t: t["protocol.enumerated_items"]),
    "protocol.items_per_s": ("1/s", ["protocol.run", "protocol.typical"], _items_per_s),
    "protocol.coarse_ms": ("ms", ["protocol.coarse"], _ms("protocol.coarse")),
    "sumsets.sum_calls": ("count", ["sumsets.sum"], _calls("sumsets.sum")),
    "sumsets.sum_ms": ("ms", ["sumsets.sum"], _ms("sumsets.sum")),
    "sumsets.levels_out": ("count", ["sumsets.sum"], lambda t: t["sumsets.levels_out"]),
    "sumsets.doubling_ms": ("ms", ["sumsets.doubling"], _ms("sumsets.doubling")),
    "dilation.calls": ("count", ["dilation"], _calls("dilation")),
    "dilation.ms": ("ms", ["dilation"], _ms("dilation")),
    "dilation.joint_dim": ("count", ["dilation"], lambda t: t["dilation.joint_dim"]),
    "cli.calls": ("count", ["cli"], _calls("cli")),
    # main minus the wrapped calls inside it: argparse, JSON decoding, glue
    "cli.self_ms": ("ms", ["cli"], _ms("cli", "self_s")),
    "cli.emit_ms": ("ms", ["cli.emit"], _ms("cli.emit")),
    "cli.bytes_out": ("bytes", ["cli.emit"], lambda t: t["cli.bytes_out"]),
}
OVERHEAD = "trace.overhead_s"


class Tracer:
    def __init__(self):
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self.broken: set[str] = set()
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [key, seconds spent in wrapped children]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.totals.clear()

    def _wrap(self, fn, key, on_call, on_result):
        totals, depth, stack = self.totals, self._depth, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[key]:
                return fn(*args, **kwargs)
            if on_call is not None:
                args = on_call(args)
            frame = [key, 0.0]
            stack.append(frame)
            depth[key] += 1
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                depth[key] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                totals[key + ".calls"] += 1
                totals[key + ".s"] += dt
                totals[key + ".self_s"] += dt - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "thermocone" or name.startswith("thermocone.")]
        for module_name, attr, key, on_call, on_result in WRAPPED:
            owner = sys.modules.get("thermocone." + module_name)
            original = getattr(owner, attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(
                original, key, on_call(self) if on_call else None, on_result(self) if on_result else None
            )
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)
            self.present.add(key)

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every metric whose layer functions were found, from the totals
        since the last reset."""
        out = {}
        for name, (unit, keys, value) in METRICS.items():
            if all(k in self.present for k in keys) and name not in self.broken:
                out[name] = (float(value(self.totals)), unit)
        return out
