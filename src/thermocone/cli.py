"""Command-line front end.

One binary, subcommand style; all physical quantities are unit-agnostic
(energies in user units, beta in inverse user units, entropy in nats
except the protocol family, which reports bits). Inputs are JSON (inline
or a file path), decoded and checked while the command line is parsed,
in command-line order, so the first bad one is the one reported.
Outputs are JSON or CSV. Each float is rounded to 12 significant digits
and printed as the shortest text that reads back as the rounded value
(``repr`` of it); non-finite values print as ``+inf``, ``-inf`` and
``nan`` (strings in JSON). A key that compares two computed quantities
(``rate``'s ``agreement_gap``, ``dilate``'s ``output_distance``) prints
as 0.0 below 64 units of roundoff at the scale of what it compares (the
larger of 1 and the two rates; the trace norm 1), where its digits are
rounding noise; the library's results keep the raw floats. Repeat runs
are byte-identical. A sweep's
float64 columns go through an array kernel that prints every value as
the scalar formatter does, byte for byte, and passes it the values it
cannot settle.

Exit codes: 0 success, 1 domain error, 2 validation error / bad usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import cone, diagram, exchange, protocol, sumsets, thermal
from .dilation import build_energy_preserving_dilation
from .errors import ThermoconeError, ValidationError
from .system import Macrostate, as_number, complex_matrix, cone_point_of, hamiltonian_from_json, state_from_json

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


# The array kernel of ``_numbers``, for float64 columns. A value x with
# decimal exponent e in [-4, 11] has y = |x| * 10**(11 - e) in [1e11, 1e12);
# 10**(11 - e) is an exact float, so y is the exact product rounded once,
# by at most 2**-14 (y < 2**40); that cannot carry y across a half-integer,
# only onto one, so rint(y) is the 12-digit mantissa M that %.12g prints
# (Clinger's fast path). Values with y within 1e-3 of a half-integer, a
# wide margin around those ties, go to the scalar path.
#
# A cell holds one value's text in _CELL_WIDTH bytes, NUL where no
# character goes; the NULs are dropped when the rows are joined. It is
# made of little-endian 8-byte words: a prefix (the sign, and "0." and up
# to three zeros when e < 0), then M's three groups of four digits, each
# digit followed by a slot, and one byte more. The digit words drop M's
# trailing zeros. The exponent words put the point in the slot after digit
# e, and a "0" on each digit up to the one after the point, which print
# even when they are dropped zeros ("0" | c == c for every digit c); for
# e = 11 that last "0" falls on the extra byte, the end of "123456789012.0".
_CELL_WIDTH = 33
# rows the kernel lays out at a time, about 0.4 KB of temporaries a row:
# whole 8192-row chunks raised the cli workload's peak RSS by 4 MB
_ROW_BLOCK = 2048
_POW10 = np.array([float(10**k) for k in range(16)])


def _digit_words() -> np.ndarray:
    """Word v + 10**4 * full, for v < 10**4: v's four digits, each followed
    by an empty slot; unless ``full``, without v's trailing zeros."""
    full = 48 + np.arange(10, dtype=np.uint64)
    stripped = np.where(full > 48, full, 0)
    for shift in (16, 32):  # v's digits, then as many more on the bytes after them
        later_nonzero = np.arange(len(full)) != 0
        full, stripped = ((full[:, None] | full << shift).ravel(),
                          np.where(later_nonzero, full[:, None] | stripped << shift, stripped[:, None]).ravel())
    return np.concatenate([stripped, full]).astype("<u8")


def _exponent_words() -> np.ndarray:
    """Row i, column e + 4: word i of a cell, as the exponent e alone sets it."""
    cells = np.zeros((16, 40), np.uint8)
    for e in range(-4, 0):
        cells[e + 4, 1:2 - e] = np.frombuffer(b"0." + b"0" * (-1 - e), np.uint8)
    for e in range(12):
        cells[e + 4, 8:10 + 2 * e:2] = ord("0")
        cells[e + 4, 9 + 2 * e:11 + 2 * e] = np.frombuffer(b".0", np.uint8)
    return np.ascontiguousarray(cells.view("<u8").T)


_DIGIT_WORDS = _digit_words()
_EXPONENT_WORDS = _exponent_words()


def _float_cells(x: np.ndarray, quote) -> np.ndarray:
    """``_numbers`` of a float64 array, as an (n, _CELL_WIDTH) uint8 array
    of NUL-padded texts. Values the fast path cannot settle (a near-tie,
    e outside [-4, 11], a mantissa that rounds to 10**12, subnormal and
    non-finite values) are passed to ``_numbers``."""
    a = np.abs(x)
    zero = a == 0.0
    with np.errstate(invalid="ignore"):  # inf - inf
        # an exponent out of range, or a wrong estimate of it, leaves y out of
        # [1e11, 1e12); a zero takes e = 0 and M = 0, which print as 0.0
        e = np.fmin(np.fmax(np.floor(np.log10(a, out=np.zeros_like(a), where=~zero)), -4.0), 11.0).astype(np.intp)
        y = a * _POW10[11 - e]
        m = np.rint(y)
        settled = zero | (y >= 1e11) & (m < 1e12) & (np.abs(y - m) < 0.499)
    mantissa = np.where(settled, m, 1e11).astype(np.int64)
    high = mantissa // 10**8
    low = mantissa - high * 10**8
    middle = low // 10**4
    low -= middle * 10**4
    e += 4
    words = np.empty((len(x), 5), "<u8")
    words[:, 0] = _EXPONENT_WORDS[0][e] | np.signbit(x) * np.uint64(ord("-"))
    # a group keeps its trailing zeros when a later group is not zero
    words[:, 1] = _DIGIT_WORDS[high + 10**4 * ((middle | low) != 0)] | _EXPONENT_WORDS[1][e]
    words[:, 2] = _DIGIT_WORDS[middle + 10**4 * (low != 0)] | _EXPONENT_WORDS[2][e]
    words[:, 3] = _DIGIT_WORDS[low] | _EXPONENT_WORDS[3][e]
    words[:, 4] = _EXPONENT_WORDS[4][e]
    cells = words.view(np.uint8)[:, :_CELL_WIDTH]
    unsettled = np.flatnonzero(~settled)
    if unsettled.size:
        # the longest such text, a subnormal's repr, takes 24 bytes
        texts = _numbers(x[unsettled].tolist(), quote)
        cells[unsettled] = np.array(texts, dtype=f"S{_CELL_WIDTH}").view(np.uint8).reshape(-1, _CELL_WIDTH)
    return cells


def _float_rows(columns: Sequence[np.ndarray], parts: Sequence[str], quote) -> str:
    """The rows of float64 columns as one text, each row laid out as
    ``parts[0]``, its first cell, ``parts[1]``, ..., its last cell,
    ``parts[-1]``; each cell as ``_numbers`` prints it."""
    n = len(columns[0])
    cells = _float_cells(np.concatenate(columns), quote).reshape(len(columns), n, _CELL_WIDTH)
    literals = [np.frombuffer(part.encode(), np.uint8) for part in parts]
    out = np.empty((n, sum(map(len, literals)) + len(columns) * _CELL_WIDTH), np.uint8)
    pos = 0
    for literal, cell in zip(literals, cells):
        out[:, pos:pos + len(literal)] = literal
        pos += len(literal)
        out[:, pos:pos + _CELL_WIDTH] = cell
        pos += _CELL_WIDTH
    out[:, pos:] = literals[-1]
    return out.tobytes().translate(None, b"\0").decode()


def _is_float_array(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.float64 and column.ndim == 1


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


def _row_count(table: Mapping[str, Sequence]) -> int:
    return len(next(iter(table.values()), ()))


def _rows(tables, keys: Sequence[str], parts: Sequence[str], values, quote):
    """Each table's rows as text, each row laid out as ``parts[0]``, its
    first value, ``parts[1]``, ..., ``parts[-1]``, column by column: by the
    array kernel, ``_ROW_BLOCK`` rows at a time, when every column is a
    float64 ndarray (non-finite values in ``quote``), else with ``values``
    formatting each column."""
    template = "%s".join(part.replace("%", "%%") for part in parts)
    for table in tables:
        columns = [table[k] for k in keys]
        if all(map(_is_float_array, columns)):
            for i in range(0, len(columns[0]), _ROW_BLOCK):
                yield _float_rows([column[i:i + _ROW_BLOCK] for column in columns], parts, quote)
        else:
            yield "".join(map(template.__mod__, zip(*map(values, columns))))


def _pieces(tables, fmt: str, keys: Sequence[str], rows: int):
    """The output text in pieces, each table's rows laid out column by
    column; ``rows`` need only tell no row, one row and more."""
    if fmt == "csv":
        yield ",".join(keys)
        yield from _rows(tables, keys, ["\n", *[","] * (len(keys) - 1), ""], _csv_values, str)
        yield "\n"
        return
    if not rows:
        yield "[]\n"
        return
    indent, lead, tail = ("", "", "\n") if rows == 1 else ("  ", "[\n", "\n]\n")
    fields = [f"{indent}  {json.dumps(k)}: " for k in keys]
    # every row follows a ",\n"; the first one gives way to ``lead``
    parts = [f",\n{indent}{{\n{fields[0]}", *(",\n" + field for field in fields[1:]), f"\n{indent}}}"]
    pieces = _rows(tables, keys, parts, functools.partial(_json_values, indent=indent + "  "), json.dumps)
    yield lead + next(pieces)[2:]
    yield from pieces
    yield tail


def _write(write, pieces) -> str:
    """Write each piece as soon as it is made; return them as one text."""
    texts = []
    for piece in pieces:
        write(piece)
        texts.append(piece)
    return "".join(texts)


def emit(
    tables: Mapping[str, Sequence] | Iterable[Mapping[str, Sequence]],
    fmt: str,
    path: Optional[str],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Serialize one table, given as equal-length columns by key, or an
    iterable of such tables with the same keys: the chunks of one table,
    in row order.

    JSON: keys sorted, two-space indent; an output of exactly one row
    prints as one object, any other as an array of objects. CSV: a header
    row of ``columns`` (sorted keys by default), then one line per row.
    Each float is printed once, to 12 significant digits (see
    ``_numbers``); a chunk whose columns are all float64 ndarrays goes
    through the array kernel (``_float_rows``) instead, with the same
    text. Each chunk is formatted column by column and written,
    to ``path`` when given and to stdout otherwise, before the next chunk
    is read. Returns the whole text.
    """
    if fmt not in ("json", "csv"):
        raise ValidationError("bad-format", f"unknown output format {fmt!r}")
    chunks = iter((tables,) if isinstance(tables, Mapping) else tables)
    # read ahead to the second row: JSON prints a lone row as an object
    head, rows = [], 0
    for table in chunks:
        head.append(table)
        rows += _row_count(table)
        if rows > 1:
            break
    keys = list(columns) if fmt == "csv" and columns else sorted(head[0]) if head else []
    pieces = _pieces(filter(_row_count, itertools.chain(head, chunks)), fmt, keys, rows)
    if not path:
        return _write(sys.stdout.write, pieces)
    try:
        with open(path, "w") as fh:
            return _write(fh.write, pieces)
    except OSError as exc:
        raise ValidationError("bad-output", f"cannot write {path}: {exc}") from exc


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
        data = json.loads(source)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting past the interpreter's depth
        raise ValidationError("malformed-json", f"invalid JSON in {value!r}: {exc}") from exc
    if isinstance(data, str):  # no option takes one, and a decoder would read its text as JSON again
        raise ValidationError("malformed-json", f"{value!r} holds a JSON string, not an object or array")
    return data


def _json(decode):
    """An argparse ``type``: the option's JSON (inline or a file path), decoded by ``decode``.
    A decoder must raise only ``ValidationError``, which argparse passes on to ``main``."""
    return lambda value: decode(_load_json_arg(value))


def _macro(data) -> Macrostate:
    try:
        return Macrostate(as_number(data["E"], "E"), as_number(data["S"], "S"))
    except (KeyError, TypeError) as exc:
        raise ValidationError("bad-macro-json", f"macrostate needs E and S: {exc}") from exc


def _distribution(data) -> protocol.Distribution:
    if not isinstance(data, list):
        raise ValidationError("bad-distribution-json", "distribution must be a JSON array")
    return protocol.Distribution(tuple(as_number(x, "distribution entry") for x in data))


def _level_set(data) -> sumsets.LevelSet:
    if not isinstance(data, list):
        raise ValidationError("bad-levels-json", "levels must be a JSON array")
    return sumsets.LevelSet(data)


_CURVE_COLUMNS = ("beta", "logZ", "E", "S")
_CHUNK = 8192  # curve rows computed, formatted and written at a time
_MAX_SAMPLES = 10**7  # curve's --samples bound; a sample prints as about 60 bytes of CSV or 110 of JSON
# output keys that differ from the field names of the result dataclasses
_RENAMES = {"work": "W", "heat": "Q", "q_hot": "Q_hot", "q_cold": "Q_cold"}
# the print rule for keys that compare two computed quantities: each
# key's scale, in the units of roundoff of ``_ROUNDOFF``
_ROUNDOFF = 64.0 * sys.float_info.epsilon
_GAP_SCALES = {
    "agreement_gap": lambda r: max(1.0, abs(r["rate_bisect"]), abs(r["rate_monotone"])),
    "output_distance": lambda r: 1.0,
}


def _row(record: dict) -> dict[str, list]:
    """One output record as a one-row table."""
    return {k: [v] for k, v in record.items()}


def _record(result) -> dict[str, list]:
    """A result dataclass as a one-row table, with the print rule for gaps applied."""
    record = {_RENAMES.get(k, k): v for k, v in dataclasses.asdict(result).items()}
    for key, scale in _GAP_SCALES.items():
        if key in record and abs(record[key]) < _ROUNDOFF * scale(record):
            record[key] = 0.0
    return _row(record)


def _cmd_curve(args):
    """Check every argument, then return the sweep as a lazy stream of
    tables of at most ``_CHUNK`` rows; the betas are spaced once, so no
    row depends on the chunk size."""
    if not 2 <= args.samples <= _MAX_SAMPLES:
        raise ValidationError("bad-samples", f"need 2 to {_MAX_SAMPLES} samples")
    lo, hi = args.beta_min, args.beta_max
    if not np.isfinite((lo, hi, hi - lo)).all():
        raise ValidationError("bad-beta", "--beta-min, --beta-max and their difference must be finite")
    betas = np.linspace(lo, hi, args.samples)
    chunks = (thermal.thermal_points(args.hamiltonian, betas[i:i + _CHUNK]) for i in range(0, args.samples, _CHUNK))
    return (dict(zip(_CURVE_COLUMNS, points)) for points in chunks)


def _cmd_member(args) -> dict[str, list]:
    verdict = diagram.diagram_contains(args.hamiltonian, args.macro, tol=args.tol)
    return _row({"member": verdict.is_member, "verdict": verdict.value})


def _cmd_rate(args) -> dict[str, list]:
    h = args.hamiltonian
    return _record(cone.r_max(h, cone_point_of(args.rho, h), cone_point_of(args.sigma, h), tol=args.tol))


def _cmd_coarse(args) -> dict[str, list]:
    result = protocol.build_coarse_graining(args.p, args.q)
    return {**_record(result), "max_fiber": [max(result.fiber_sizes)]}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thermocone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    state, macro = _json(state_from_json), _json(_macro)
    distribution, level_set = _json(_distribution), _json(_level_set)
    unitary = _json(functools.partial(complex_matrix, code="bad-matrix-json"))

    def command(name, summary, func, hamiltonian=True):
        """A subcommand whose ``func`` maps the parsed arguments, JSON already decoded, to its output table."""
        p = sub.add_parser(name, help=summary)
        if hamiltonian:
            p.add_argument("--hamiltonian", required=True, type=_json(hamiltonian_from_json),
                           help="Hamiltonian JSON (inline or file)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.set_defaults(func=func, columns=None)
        return p

    p = command("curve", "sample the thermal curve", _cmd_curve)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--samples", type=int, default=101, help=f"2 to {_MAX_SAMPLES} (default 101)")
    p.set_defaults(columns=_CURVE_COLUMNS)

    p = command("member", "energy-entropy diagram membership", _cmd_member)
    p.add_argument("--macro", required=True, type=macro, help='macrostate JSON {"E":..,"S":..}')
    p.add_argument("--tol", type=float, default=diagram.DEFAULT_BOUNDARY_TOL,
                   help="boundary tolerance: a fraction of the span E_max - E_min on energy, nats on entropy")

    p = command("wmax", "maximal extractable work per copy",
                lambda a: _row({"w_max": diagram.w_max(a.hamiltonian, a.rho)}))
    p.add_argument("--rho", required=True, type=state, help="state JSON")

    p = command("exchange", "finite-reservoir work and heat", lambda a: _record(
        exchange.work_heat(exchange.ExchangeSpec(a.hamiltonian, a.rho, a.sigma, a.beta1, a.beta2))))
    p.add_argument("--rho", required=True, type=state)
    p.add_argument("--sigma", required=True, type=state)
    p.add_argument("--beta1", type=float, required=True)
    p.add_argument("--beta2", type=float, required=True)

    p = command("engine", "finite-reservoir engine efficiencies", lambda a: _record(
        exchange.engine_efficiencies(a.hamiltonian, a.beta_cold, a.beta_less_cold, a.beta_less_hot, a.beta_hot)))
    p.add_argument("--beta-cold", type=float, required=True)
    p.add_argument("--beta-less-cold", type=float, required=True)
    p.add_argument("--beta-less-hot", type=float, required=True)
    p.add_argument("--beta-hot", type=float, required=True)

    p = command("rate", "maximal conversion rate, both algorithms", _cmd_rate)
    p.add_argument("--rho", required=True, type=state)
    p.add_argument("--sigma", required=True, type=state)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="relative stopping width of the boundary Newton solve (rate_bisect); rates are unit-free")

    p = command("decompose", "split a macrostate over {thermal, ground, top}",
                lambda a: _record(diagram.decompose(a.hamiltonian, a.macro, a.beta)))
    p.add_argument("--macro", required=True, type=macro)
    p.add_argument("--beta", type=float, required=True)

    p = command("protocol", "run the classical entropy-conversion protocol", lambda a: _row(
        protocol.run_entropy_protocol(a.p, a.q, a.n, a.ancilla_bits, outcome_cap=a.cap).to_json()), hamiltonian=False)
    p.add_argument("--p", required=True, type=distribution, help="source distribution JSON array")
    p.add_argument("--q", required=True, type=distribution, help="target distribution JSON array")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ancilla-bits", type=int, default=None)
    p.add_argument("--cap", type=int, default=protocol.DEFAULT_OUTCOME_CAP)

    p = command("coarse", "greedy coarse-graining map with bounds", _cmd_coarse, hamiltonian=False)
    p.add_argument("--p", required=True, type=distribution)
    p.add_argument("--q", required=True, type=distribution)

    p = command("sumset", "find k with slow sumset growth",
                lambda a: _record(sumsets.find_doubling_k(a.levels, a.delta, a.k_max)[2]), hamiltonian=False)
    p.add_argument("--levels", required=True, type=level_set, help='JSON array (numbers or "a/b" strings)')
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k-max", type=int, default=128)

    p = command("dilate", "energy-preserving dilation of a unitary", lambda a: _record(
        build_energy_preserving_dilation(a.hamiltonian, a.unitary, a.rho, a.sigma, a.m_levels, a.delta)))
    p.add_argument("--unitary", required=True, type=unitary, help="matrix JSON of [re, im] pairs")
    p.add_argument("--rho", required=True, type=state)
    p.add_argument("--sigma", required=True, type=state)
    p.add_argument("--m-levels", required=True, type=level_set, help="ancilla base level set JSON array")
    p.add_argument("--delta", type=float, required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        emit(args.func(args), args.format, args.out, columns=args.columns)
    except ThermoconeError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": exc.message}) + "\n")
        return 2 if isinstance(exc, ValidationError) else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
