"""Command-line front end.

One binary, subcommand style; all physical quantities are unit-agnostic
(energies in user units, beta in inverse user units, entropy in nats
except the protocol family, which reports bits). Inputs are JSON (inline
or a file path), outputs are JSON or CSV. Each float is rounded to 12
significant digits and printed as the shortest text that reads back as
the rounded value (``repr`` of it); non-finite values print as ``+inf``,
``-inf`` and ``nan`` (strings in JSON). Repeat runs are byte-identical.

Exit codes: 0 success, 1 domain error, 2 validation error / bad usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from typing import Mapping, Optional, Sequence

import numpy as np

from . import cone, diagram, exchange, protocol, sumsets, thermal
from .dilation import build_energy_preserving_dilation
from .errors import ThermoconeError, ValidationError
from .system import Macrostate, as_number, cone_point_of, hamiltonian_from_json, state_from_json

__all__ = ["main", "emit"]


_POSITIONAL_EXPONENTS = ("e+12", "e+13", "e+14", "e+15")
_NON_FINITE = {"inf": "+inf", "-inf": "-inf", "nan": "nan"}
_MIN_NORMAL = sys.float_info.min


def _numbers(values: Sequence[float], quote) -> list[str]:
    """Floats to 12 significant digits, each laid out as ``repr`` lays out
    the rounded float; a non-finite value gives ``quote`` of ``+inf``,
    ``-inf`` or ``nan``.
    """
    block = "%.12g\n" * len(values) % tuple(values)
    texts = block.split("\n")
    texts.pop()
    if "e" in block or block.count(".") < len(texts):
        for i, text in enumerate(texts):
            if "e" in text:
                # repr prints exponents 12 to 15 in place, and a subnormal
                # needs fewer than 12 digits to round-trip
                if text[-4:] in _POSITIONAL_EXPONENTS or abs(values[i]) < _MIN_NORMAL:
                    texts[i] = repr(float(text))
            elif "." not in text:
                texts[i] = quote(_NON_FINITE[text]) if text in _NON_FINITE else text + ".0"
    return texts


def _json_values(values: Sequence, indent: str) -> list[str]:
    """Each value in ``json.dumps(..., indent=2)`` layout, nested at ``indent``."""
    if all(map(isinstance, values, itertools.repeat(float))):
        return _numbers(values, json.dumps)
    return [_json_value(v, indent) for v in values]


def _json_value(value, indent: str) -> str:
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return "[\n" + ",\n".join(inner + text for text in _json_values(value, inner)) + "\n" + indent + "]"
    if isinstance(value, float):
        return _numbers((value,), json.dumps)[0]
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):  # json.dumps takes its slow path for numbers
        return int.__repr__(value)
    return "null" if value is None else json.dumps(value)


def _csv_values(values: Sequence, quote=str) -> list[str]:
    """Each value as ``str`` prints it, list items as ``repr`` does."""
    if all(map(isinstance, values, itertools.repeat(float))):
        return _numbers(values, quote)
    return [_csv_value(v, quote) for v in values]


def _csv_value(value, quote) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_csv_values(value, repr)) + "]"
    if isinstance(value, float):
        return _numbers((value,), quote)[0]
    return quote(value)


def emit(table: Mapping[str, Sequence], fmt: str, path: Optional[str], columns: Optional[Sequence[str]] = None) -> str:
    """Serialize a table, given as equal-length columns by key.

    JSON: keys sorted, two-space indent; a one-row table prints as one
    object, any other as an array of objects. CSV: a header row of
    ``columns`` (sorted keys by default), then one line per row. Each
    float is printed once, to 12 significant digits (see ``_numbers``).
    Returns the text; writes it to ``path`` when given, stdout otherwise.
    """
    if fmt not in ("json", "csv"):
        raise ValidationError("bad-format", f"unknown output format {fmt!r}")
    rows = len(next(iter(table.values()), ()))
    keys = list(columns) if fmt == "csv" and columns else sorted(table)
    # every cell in row order; the rows then fill one %s template
    cells = list(itertools.chain.from_iterable(zip(*(table[k] for k in keys))))
    if fmt == "json":
        indent = "" if rows == 1 else "  "
        fields = ",\n".join(f"{indent}  {json.dumps(k).replace('%', '%%')}: %s" for k in keys)
        body = ",\n".join([f"{indent}{{\n{fields}\n{indent}}}"] * rows) % tuple(_json_values(cells, indent + "  "))
        text = body if rows == 1 else f"[\n{body}\n]" if rows else "[]"
    else:
        body = "\n".join([",".join(["%s"] * len(keys))] * rows) % tuple(_csv_values(cells))
        text = ",".join(keys) + ("\n" + body if rows else "")
    text += "\n"
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError("bad-output", f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return text


def _load_json_arg(value: str):
    text = value.strip()
    if text.startswith("{") or text.startswith("["):
        source = text
    else:
        try:
            with open(value) as fh:
                source = fh.read()
        except OSError as exc:
            raise ValidationError("missing-file", f"cannot read {value}: {exc}") from exc
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise ValidationError("malformed-json", f"invalid JSON in {value!r}: {exc}") from exc


def _hamiltonian(args):
    return hamiltonian_from_json(_load_json_arg(args.hamiltonian))


def _macro(value: str) -> Macrostate:
    data = _load_json_arg(value)
    try:
        return Macrostate(as_number(data["E"], "E"), as_number(data["S"], "S"))
    except (KeyError, TypeError) as exc:
        raise ValidationError("bad-macro-json", f"macrostate needs E and S: {exc}") from exc


def _distribution(value: str) -> protocol.Distribution:
    data = _load_json_arg(value)
    if not isinstance(data, list):
        raise ValidationError("bad-distribution-json", "distribution must be a JSON array")
    return protocol.Distribution(tuple(as_number(x, "distribution entry") for x in data))


def _complex_matrix(data) -> np.ndarray:
    try:
        return np.array([[complex(c[0], c[1]) for c in row] for row in data])
    except (TypeError, IndexError) as exc:
        raise ValidationError("bad-matrix-json", f"matrix entries must be [re, im] pairs: {exc}") from exc


def _level_set(value: str) -> sumsets.LevelSet:
    data = _load_json_arg(value)
    if not isinstance(data, list):
        raise ValidationError("bad-levels-json", "levels must be a JSON array")
    return sumsets.LevelSet(data)


_CURVE_COLUMNS = ("beta", "logZ", "E", "S")
# output keys that differ from the field names of the result dataclasses
_RENAMES = {"work": "W", "heat": "Q", "q_hot": "Q_hot", "q_cold": "Q_cold"}


def _row(record: dict) -> dict[str, list]:
    """One output record as a one-row table."""
    return {k: [v] for k, v in record.items()}


def _record(result) -> dict[str, list]:
    """A result dataclass as a one-row table."""
    return _row({_RENAMES.get(k, k): v for k, v in dataclasses.asdict(result).items()})


def _cmd_curve(args) -> dict[str, list]:
    h = _hamiltonian(args)
    if args.samples < 2:
        raise ValidationError("bad-samples", "need at least 2 samples")
    points = thermal.thermal_points(h, np.linspace(args.beta_min, args.beta_max, args.samples))
    return {key: column.tolist() for key, column in zip(_CURVE_COLUMNS, points)}


def _cmd_member(args) -> dict[str, list]:
    h = _hamiltonian(args)
    verdict = diagram.diagram_contains(h, _macro(args.macro), tol=args.tol)
    return _row({"member": verdict.is_member, "verdict": verdict.value})


def _cmd_wmax(args) -> dict[str, list]:
    h = _hamiltonian(args)
    state = state_from_json(_load_json_arg(args.rho))
    return _row({"w_max": diagram.w_max(h, state)})


def _cmd_exchange(args) -> dict[str, list]:
    h = _hamiltonian(args)
    spec = exchange.ExchangeSpec(
        hamiltonian=h,
        rho=state_from_json(_load_json_arg(args.rho)),
        sigma=state_from_json(_load_json_arg(args.sigma)),
        beta1=args.beta1,
        beta2=args.beta2,
    )
    return _record(exchange.work_heat(spec))


def _cmd_engine(args) -> dict[str, list]:
    h = _hamiltonian(args)
    res = exchange.engine_efficiencies(h, args.beta_cold, args.beta_less_cold, args.beta_less_hot, args.beta_hot)
    return _record(res)


def _cmd_rate(args) -> dict[str, list]:
    h = _hamiltonian(args)
    y_rho = cone_point_of(state_from_json(_load_json_arg(args.rho)), h)
    y_sigma = cone_point_of(state_from_json(_load_json_arg(args.sigma)), h)
    return _record(cone.r_max(h, y_rho, y_sigma, tol=args.tol))


def _cmd_decompose(args) -> dict[str, list]:
    h = _hamiltonian(args)
    return _record(diagram.decompose(h, _macro(args.macro), args.beta))


def _cmd_protocol(args) -> dict[str, list]:
    report = protocol.run_entropy_protocol(
        _distribution(args.p),
        _distribution(args.q),
        args.n,
        ancilla_bits=args.ancilla_bits,
        outcome_cap=args.cap,
    )
    return _row(report.to_json())


def _cmd_coarse(args) -> dict[str, list]:
    result = protocol.build_coarse_graining(_distribution(args.p), _distribution(args.q))
    return {**_record(result), "max_fiber": [max(result.fiber_sizes)]}


def _cmd_sumset(args) -> dict[str, list]:
    return _record(sumsets.find_doubling_k(_level_set(args.levels), args.delta, args.k_max)[2])


def _cmd_dilate(args) -> dict[str, list]:
    h = _hamiltonian(args)
    report = build_energy_preserving_dilation(
        h,
        _complex_matrix(_load_json_arg(args.unitary)),
        state_from_json(_load_json_arg(args.rho)),
        state_from_json(_load_json_arg(args.sigma)),
        _level_set(args.m_levels),
        args.delta,
    )
    return _record(report)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thermocone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, hamiltonian=True):
        p = sub.add_parser(name, help=summary)
        if hamiltonian:
            p.add_argument("--hamiltonian", required=True, help="Hamiltonian JSON (inline or file)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.set_defaults(func=func, columns=None)
        return p

    p = command("curve", _cmd_curve, "sample the thermal curve")
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--samples", type=int, default=101)
    p.set_defaults(columns=_CURVE_COLUMNS)

    p = command("member", _cmd_member, "energy-entropy diagram membership")
    p.add_argument("--macro", required=True, help='macrostate JSON {"E":..,"S":..}')
    p.add_argument("--tol", type=float, default=diagram.DEFAULT_BOUNDARY_TOL,
                   help="boundary tolerance: a fraction of the span E_max - E_min on energy, nats on entropy")

    p = command("wmax", _cmd_wmax, "maximal extractable work per copy")
    p.add_argument("--rho", required=True, help="state JSON")

    p = command("exchange", _cmd_exchange, "finite-reservoir work and heat")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--beta1", type=float, required=True)
    p.add_argument("--beta2", type=float, required=True)

    p = command("engine", _cmd_engine, "finite-reservoir engine efficiencies")
    p.add_argument("--beta-cold", type=float, required=True)
    p.add_argument("--beta-less-cold", type=float, required=True)
    p.add_argument("--beta-less-hot", type=float, required=True)
    p.add_argument("--beta-hot", type=float, required=True)

    p = command("rate", _cmd_rate, "maximal conversion rate, both algorithms")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="relative stopping width of the boundary Newton solve (rate_bisect); rates are unit-free")

    p = command("decompose", _cmd_decompose, "split a macrostate over {thermal, ground, top}")
    p.add_argument("--macro", required=True)
    p.add_argument("--beta", type=float, required=True)

    p = command("protocol", _cmd_protocol, "run the classical entropy-conversion protocol", hamiltonian=False)
    p.add_argument("--p", required=True, help="source distribution JSON array")
    p.add_argument("--q", required=True, help="target distribution JSON array")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ancilla-bits", type=int, default=None)
    p.add_argument("--cap", type=int, default=protocol.DEFAULT_OUTCOME_CAP)

    p = command("coarse", _cmd_coarse, "greedy coarse-graining map with bounds", hamiltonian=False)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = command("sumset", _cmd_sumset, "find k with slow sumset growth", hamiltonian=False)
    p.add_argument("--levels", required=True, help='JSON array (numbers or "a/b" strings)')
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k-max", type=int, default=128)

    p = command("dilate", _cmd_dilate, "energy-preserving dilation of a unitary")
    p.add_argument("--unitary", required=True, help="matrix JSON of [re, im] pairs")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--m-levels", required=True, help="ancilla base level set JSON array")
    p.add_argument("--delta", type=float, required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        emit(args.func(args), args.format, args.out, columns=args.columns)
    except ThermoconeError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": exc.message}) + "\n")
        return 2 if isinstance(exc, ValidationError) else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
