"""Byte-for-byte parity of the CLI's two float formatters.

``curve`` prints its float64 columns through an array kernel
(``cli._float_cells``) that must give every value the text the scalar
``cli._numbers`` gives it. This script checks that on random doubles and on
whole ``curve`` outputs:

- N random bit patterns in each of the 2048 binary-exponent bands (zeros,
  subnormals, every normal exponent, inf and nan), both signs;
- N values within an ulp of a 12-digit rounding tie, d.ddddddddddd5e<k>,
  for each decimal exponent k that prints in place (-4 to 11);
- every power of ten that is a normal double, with its neighbours;
- ``curve`` through ``cli.main`` against ``emit`` of the same sweep as
  lists, which takes the scalar path, as CSV and JSON, on sweeps that
  cross ``beta_cap`` and the 8192-row chunks.

Each check runs with both quotings of non-finite values (CSV's bare
``+inf``, JSON's ``"+inf"``). Exits 1 on the first mismatch.

Usage: python scripts/format_parity.py N [SEED]
"""

import contextlib
import io
import json
import os
import sys

import numpy as np

from thermocone import beta_cap, cli, hamiltonian_from_json, thermal_points

HAMILTONIANS = [
    '{"levels":[{"energy":0},{"energy":1}]}',
    '{"levels":[{"energy":-0.5,"degeneracy":2},{"energy":0.25},{"energy":1.5,"degeneracy":3}]}',
    '{"levels":[{"energy":-3e-7,"degeneracy":3},{"energy":0},{"energy":2e-7},{"energy":9e-7,"degeneracy":2}]}',
    '{"levels":[{"energy":1e5},{"energy":123456.789,"degeneracy":4}]}',
]


def compare(values: np.ndarray, label: str) -> int:
    """Check the kernel against ``_numbers`` on ``values``; the count checked."""
    for quote in (str, json.dumps):
        want = cli._numbers(values.tolist(), quote)
        cells = cli._float_cells(values, quote)
        for value, cell, text in zip(values.tolist(), cells, want):
            got = cell.tobytes().replace(b"\0", b"").decode()
            if got != text:
                sys.exit(f"{label}: {value!r} printed {got!r}, the scalar path {text!r}")
    return values.size


def random_bands(rng, n: int) -> int:
    checked = 0
    for first in range(0, 2048, 64):  # 64 bands at a time keeps memory small
        mantissas = rng.integers(0, 2**52, (64, n), dtype=np.uint64)
        signs = rng.integers(0, 2, (64, n), dtype=np.uint64) << np.uint64(63)
        exponents = np.arange(first, first + 64, dtype=np.uint64)[:, None] << np.uint64(52)
        checked += compare((signs | exponents | mantissas).view(np.float64).ravel(), "bit patterns")
    return checked


def near_ties(rng, n: int) -> int:
    checked = 0
    for k in range(-4, 12):
        digits = rng.integers(0, 10, (n, 12))
        digits[:, 0] = np.maximum(digits[:, 0], 1)
        ties = np.array([float(f"{d[0]}.{''.join(map(str, d[1:]))}5e{k}") for d in digits])
        values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
        checked += compare(np.concatenate([values, -values]), f"near ties at 1e{k}")
    return checked


def decades() -> int:
    powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return compare(np.concatenate([values, -values]), "powers of ten")


def curves() -> int:
    checked = 0
    for hamiltonian in HAMILTONIANS:
        cap = beta_cap(hamiltonian_from_json(hamiltonian))
        for lo, hi, samples in ((-2 * cap, 2 * cap, 20001), (0.5 * cap, 3 * cap, 8193), (-3 * cap, -0.9 * cap, 777),
                                (-4.0 / cap, 1.0 / cap, 2)):
            points = thermal_points(hamiltonian_from_json(hamiltonian), np.linspace(lo, hi, samples))
            table = {key: column.tolist() for key, column in zip(cli._CURVE_COLUMNS, points)}
            for fmt in ("csv", "json"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["curve", "--hamiltonian", hamiltonian, f"--beta-min={lo!r}", f"--beta-max={hi!r}",
                                     "--samples", str(samples), "--format", fmt])
                if code != 0 or out.getvalue() != cli.emit(table, fmt, os.devnull, columns=cli._CURVE_COLUMNS):
                    sys.exit(f"curve {hamiltonian} [{lo!r}, {hi!r}] x {samples} ({fmt}): the array path differs")
                checked += 1
    return checked


def main() -> int:
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__.split("Usage: ")[1])
    n = int(sys.argv[1])
    rng = np.random.default_rng(int(sys.argv[2]) if len(sys.argv) == 3 else 0)
    print(f"random bit patterns: {random_bands(rng, n)} values agree")
    print(f"near rounding ties: {near_ties(rng, n)} values agree")
    print(f"powers of ten and their neighbours: {decades()} values agree")
    print(f"curve outputs: {curves()} agree byte for byte")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
