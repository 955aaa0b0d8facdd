import argparse
import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hamiltonian
from thermocone import ValidationError, beta_cap, cli, hamiltonian_from_json, thermal_point, thermal_points
from thermocone.cone import RateResult
from thermocone.dilation import build_energy_preserving_dilation
from thermocone.cli import main

QUBIT = '{"levels":[{"energy":0.0,"degeneracy":1},{"energy":1.0,"degeneracy":1}]}'
SAME_STATE = '{"spectrum":[0.75,0.25],"energy":0.25}'


@pytest.fixture
def qubit_file(tmp_path):
    path = tmp_path / "qubit.json"
    path.write_text(QUBIT)
    return str(path)


def _dilate(rho: str) -> list[str]:
    """A qubit ``dilate`` call that swaps the levels of ``rho``."""
    return ["dilate", "--hamiltonian", QUBIT, "--unitary", "[[[0,0],[1,0]],[[1,0],[0,0]]]", "--rho", rho,
            "--sigma", '{"matrix":[[[1,0],[0,0]],[[0,0],[0,0]]]}', "--m-levels", "[-3,-2,-1,0,1,2,3]",
            "--delta", "0.143"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMember:
    def test_outside_point(self, capsys, qubit_file):
        code, out, _ = run_cli(capsys, "member", "--hamiltonian", qubit_file, "--macro", '{"E":0.5,"S":0.8}')
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is False

    def test_inline_hamiltonian(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--hamiltonian", QUBIT, "--macro", '{"E":0.5,"S":0.2}')
        assert code == 0
        assert json.loads(out)["member"] is True


class TestCurve:
    def test_row_count_and_peak(self, capsys, qubit_file, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys,
            "curve",
            "--hamiltonian",
            qubit_file,
            "--beta-min",
            "-5",
            "--beta-max",
            "5",
            "--samples",
            "101",
            "--format",
            "csv",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 102
        assert lines[0] == "beta,logZ,E,S"
        rows = [line.split(",") for line in lines[1:]]
        entropies = [float(r[3]) for r in rows]
        betas = [float(r[0]) for r in rows]
        assert betas[entropies.index(max(entropies))] == 0.0
        assert max(entropies) == pytest.approx(math.log(2), abs=1e-12)

    def test_repeat_runs_byte_identical(self, capsys, qubit_file):
        cases = [
            ("curve", "--hamiltonian", qubit_file, "--beta-min", "-2", "--beta-max", "2", "--samples", "11"),
            (
                "rate",
                "--hamiltonian",
                qubit_file,
                "--rho",
                '{"macro":{"E":0.5,"S":0.2},"n":1}',
                "--sigma",
                '{"macro":{"E":0.5,"S":0},"n":1}',
            ),
            (
                "exchange",
                "--hamiltonian",
                qubit_file,
                "--rho",
                '{"spectrum":[0.75,0.25],"energy":0.25}',
                "--sigma",
                '{"spectrum":[0.5,0.5],"energy":0.5}',
                "--beta1",
                "1",
                "--beta2",
                "2",
            ),
            ("protocol", "--p", "[0.7,0.3]", "--q", "[0.3,0.7]", "--n", "6", "--ancilla-bits", "6"),
        ]
        for args in cases:
            _, first, _ = run_cli(capsys, *args)
            _, second, _ = run_cli(capsys, *args)
            assert first == second, args[0]

    def test_rows_match_scalar_kernel(self):
        # curve rows come from the array kernel; each row must match the
        # scalar kernel to 4 ulp of its scale (z >= 1, so log z and S carry
        # absolute rounding; E = ref + rel carries that of the energies)
        rng = np.random.default_rng(11)
        for n_levels in range(2, 13):
            h = random_hamiltonian(rng, d_min=n_levels, d_max=n_levels, degenerate=True)
            cap = beta_cap(h)
            beyond = [1.5 * cap, -1.5 * cap, math.inf, -math.inf]
            betas = [0.0, -0.0, 0.9 * cap, -0.9 * cap, *beyond, *rng.uniform(-20.0, 20.0, 8) / (h.e_max - h.e_min)]
            rows = thermal_points(h, betas)
            e_scale = max(abs(h.e_min), abs(h.e_max), h.e_max - h.e_min)
            for k, beta in enumerate(betas):
                tp = thermal_point(h, beta)
                assert rows[0][k] == beta
                if beta in beyond:
                    assert (rows[1][k], rows[2][k], rows[3][k]) == (tp.log_z, tp.energy, tp.entropy)
                    continue
                for got, want, scale in (
                    (rows[1][k], tp.log_z, max(1.0, abs(beta) * e_scale)),
                    (rows[2][k], tp.energy, e_scale),
                    (rows[3][k], tp.entropy, 1.0),
                ):
                    assert abs(got - want) <= 4 * np.spacing(max(abs(want), scale)), (n_levels, beta)

    def test_nan_beta_exits_2(self, capsys, qubit_file):
        code, out, err = run_cli(
            capsys, "curve", "--hamiltonian", qubit_file, "--beta-min", "nan", "--beta-max", "1", "--samples", "5"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "bad-beta"

    def test_unwritable_out_exits_2(self, capsys, qubit_file, tmp_path):
        out_path = tmp_path / "no_such_dir" / "curve.csv"
        code, out, err = run_cli(
            capsys, "curve", "--hamiltonian", qubit_file, "--beta-min", "-1", "--beta-max", "1", "--out", str(out_path)
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "bad-output"

    @pytest.mark.parametrize(
        "beta_min, beta_max",
        [("-1.7e308", "1.7e308"), ("-inf", "inf"), ("-inf", "0"), ("1", "inf"), ("inf", "inf")],
    )
    def test_non_finite_beta_range_exits_2(self, capsys, qubit_file, beta_min, beta_max):
        # refused before the betas are spaced: numpy would warn on the overflow first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "curve", "--hamiltonian", qubit_file, f"--beta-min={beta_min}",
                                     f"--beta-max={beta_max}", "--samples", "3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"] == "bad-beta"

    @pytest.mark.parametrize("samples", [-1, 1, cli._MAX_SAMPLES + 1, 10**15])
    def test_sample_count_out_of_range_exits_2(self, capsys, qubit_file, samples):
        code, out, err = run_cli(
            capsys, "curve", "--hamiltonian", qubit_file, "--beta-min", "-1", "--beta-max", "1", "--samples", str(samples)
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"] == "bad-samples"

    @pytest.mark.parametrize(
        "argv, error",
        [(["--samples", "1"], "bad-samples"), (["--samples", str(10**15)], "bad-samples"),
         (["--beta-min=-inf", "--samples", "3"], "bad-beta"), (["--beta-min", "nan"], "bad-beta")],
    )
    def test_refused_curve_writes_nothing(self, capsys, qubit_file, tmp_path, argv, error):
        # every argument is checked before --out is opened
        for out_path in (tmp_path / "curve.csv", tmp_path / "no_such_dir" / "curve.csv"):
            code, out, err = run_cli(capsys, "curve", "--hamiltonian", qubit_file, "--beta-min", "-1",
                                     "--beta-max", "1", *argv, "--out", str(out_path))
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == error
            assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("extra", [-1, 0, 1, cli._CHUNK + 1], ids=["chunk-1", "chunk", "chunk+1", "2chunk+1"])
    def test_chunked_sweep_matches_unsplit_table(self, capsys, fmt, extra):
        # both ends lie past H3's beta_cap (375), so chunks hold plateau rows too
        samples = cli._CHUNK + extra
        argv = ["curve", "--hamiltonian", H3, "--beta-min", "-410.7", "--beta-max", "390.1", "--samples", str(samples)]
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        points = thermal_points(hamiltonian_from_json(H3), np.linspace(-410.7, 390.1, samples))
        table = {key: column.tolist() for key, column in zip(cli._CURVE_COLUMNS, points)}
        # the chunks hold the unsplit rows bit for bit, not just to the printed digits
        args = cli._build_parser().parse_args(argv)
        chunks = list(args.func(args))
        assert [len(chunk["beta"]) for chunk in chunks[:-1]] == [cli._CHUNK] * (len(chunks) - 1)
        for key, column in zip(cli._CURVE_COLUMNS, points):
            assert np.array([x for chunk in chunks for x in chunk[key]]).tobytes() == column.tobytes()
        records = [dict(zip(table, row)) for row in zip(*table.values())]
        assert out == _oracle_emit(records, fmt, cli._CURVE_COLUMNS)
        assert cli.emit(table, fmt, os.devnull, columns=cli._CURVE_COLUMNS) == out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_follows_output_text(self, monkeypatch, fmt):
        # written chunk by chunk, a sweep holds its text (twice, for emit's
        # return) and one chunk at a time, not every row in several forms
        lengths = []
        emit = cli.emit
        monkeypatch.setattr(cli, "emit", lambda *args, **kwargs: lengths.append(len(emit(*args, **kwargs))))
        tracemalloc.start()
        try:
            code = main(["curve", "--hamiltonian", H3, "--beta-min", "-4", "--beta-max", "4", "--samples", "65536",
                         "--format", fmt, "--out", os.devnull])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * lengths[0], peak / lengths[0]

    def test_single_point_json_has_four_keys(self, capsys, qubit_file):
        code, out, _ = run_cli(
            capsys, "curve", "--hamiltonian", qubit_file, "--beta-min", "1", "--beta-max", "2", "--samples", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload[0]) == ["E", "S", "beta", "logZ"]


class TestRate:
    def test_qubit_example(self, capsys, qubit_file):
        code, out, _ = run_cli(
            capsys,
            "rate",
            "--hamiltonian",
            qubit_file,
            "--rho",
            '{"macro":{"E":0.5,"S":0.2},"n":1}',
            "--sigma",
            '{"macro":{"E":0.5,"S":0},"n":1}',
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rate_bisect"] == pytest.approx(1 - 0.2 / math.log(2), abs=1e-6)
        assert payload["agreement_gap"] < 1e-6


class TestOtherSubcommands:
    def test_wmax(self, capsys, qubit_file):
        code, out, _ = run_cli(
            capsys, "wmax", "--hamiltonian", qubit_file, "--rho", '{"spectrum":[0.25,0.75],"energy":0.75}'
        )
        assert code == 0
        assert json.loads(out)["w_max"] == pytest.approx(0.5, abs=1e-8)

    def test_exchange(self, capsys, qubit_file):
        code, out, _ = run_cli(
            capsys,
            "exchange",
            "--hamiltonian",
            qubit_file,
            "--rho",
            '{"spectrum":[0.75,0.25],"energy":0.25}',
            "--sigma",
            '{"spectrum":[0.5,0.5],"energy":0.5}',
            "--beta1",
            "1",
            "--beta2",
            "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["Q"] - payload["W"] == pytest.approx(0.25, abs=1e-10)

    def test_engine(self, capsys, qubit_file):
        code, out, _ = run_cli(
            capsys,
            "engine",
            "--hamiltonian",
            qubit_file,
            "--beta-cold",
            "2",
            "--beta-less-cold",
            "1.5",
            "--beta-less-hot",
            "1.0",
            "--beta-hot",
            "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eta_engine"] == pytest.approx(0.5721002726, abs=1e-9)

    def test_decompose(self, capsys, qubit_file):
        code, out, _ = run_cli(
            capsys, "decompose", "--hamiltonian", qubit_file, "--macro", '{"E":0.5,"S":0.4}', "--beta", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["c_beta"] == pytest.approx(0.4 / math.log(2), abs=1e-9)

    def test_protocol(self, capsys):
        code, out, _ = run_cli(
            capsys, "protocol", "--p", "[0.5, 0.5]", "--q", "[0.5, 0.5]", "--n", "6", "--ancilla-bits", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"n", "ancilla_bits", "P_typ_source", "distance", "l1_bound"}

    def test_coarse(self, capsys):
        code, out, _ = run_cli(capsys, "coarse", "--p", "[0.25,0.25,0.25,0.25]", "--q", "[0.5,0.5]")
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] == 0.0
        assert payload["fiber_sizes"] == [2, 2]

    def test_sumset(self, capsys):
        code, out, _ = run_cli(capsys, "sumset", "--levels", "[0, 1]", "--delta", "0.5", "--k-max", "10")
        assert code == 0
        assert json.loads(out)["k"] == 1

    def test_sumset_rational_strings(self, capsys):
        code, out, _ = run_cli(capsys, "sumset", "--levels", '["0", "1", "5/2"]', "--delta", "0.5", "--k-max", "16")
        assert code == 0

    def test_dilate(self, capsys, qubit_file):
        code, out, _ = run_cli(
            capsys,
            "dilate",
            "--hamiltonian",
            qubit_file,
            "--unitary",
            "[[[0,0],[1,0]],[[1,0],[0,0]]]",
            "--rho",
            '{"matrix":[[[0,0],[0,0]],[[0,0],[1,0]]]}',
            "--sigma",
            '{"matrix":[[[1,0],[0,0]],[[0,0],[0,0]]]}',
            "--m-levels",
            "[-3,-2,-1,0,1,2,3]",
            "--delta",
            "0.143",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["commutation_residual"] == 0.0
        assert payload["output_distance"] <= 2 * 0.143


# 3 levels, degenerate ground and top, E_min < 0 < E_max
H3 = '{"levels":[{"energy":-0.5,"degeneracy":2},{"energy":0.25,"degeneracy":1},{"energy":1.5,"degeneracy":3}]}'

# the README examples (the Hamiltonian inline, curve to stdout) plus the
# thermal subcommands on H3; outputs frozen in cli_golden.json
GOLDEN_CASES = {
    "curve": ["curve", "--hamiltonian", QUBIT, "--beta-min", "-5", "--beta-max", "5", "--samples", "101",
              "--format", "csv"],
    "member": ["member", "--hamiltonian", QUBIT, "--macro", '{"E":0.5,"S":0.8}'],
    "wmax": ["wmax", "--hamiltonian", QUBIT, "--rho", '{"spectrum":[0.25,0.75],"energy":0.75}'],
    "rate": ["rate", "--hamiltonian", QUBIT, "--rho", '{"macro":{"E":0.5,"S":0.2},"n":1}',
             "--sigma", '{"macro":{"E":0.5,"S":0},"n":1}'],
    "exchange": ["exchange", "--hamiltonian", QUBIT, "--rho", '{"spectrum":[0.75,0.25],"energy":0.25}',
                 "--sigma", '{"spectrum":[0.5,0.5],"energy":0.5}', "--beta1", "1", "--beta2", "2"],
    "engine": ["engine", "--hamiltonian", QUBIT, "--beta-cold", "2", "--beta-less-cold", "1.5",
               "--beta-less-hot", "1.0", "--beta-hot", "0.5"],
    "decompose": ["decompose", "--hamiltonian", QUBIT, "--macro", '{"E":0.5,"S":0.4}', "--beta", "0"],
    "protocol": ["protocol", "--p", "[0.7,0.3]", "--q", "[0.3,0.7]", "--n", "10", "--ancilla-bits", "10"],
    "coarse": ["coarse", "--p", "[0.25,0.25,0.25,0.25]", "--q", "[0.5,0.5]"],
    "sumset": ["sumset", "--levels", '[0,1,"5/2"]', "--delta", "0.2", "--k-max", "64"],
    "dilate": ["dilate", "--hamiltonian", QUBIT, "--unitary", "[[[0,0],[1,0]],[[1,0],[0,0]]]",
               "--rho", '{"matrix":[[[0,0],[0,0]],[[0,0],[1,0]]]}',
               "--sigma", '{"matrix":[[[1,0],[0,0]],[[0,0],[0,0]]]}',
               "--m-levels", "[-3,-2,-1,0,1,2,3]", "--delta", "0.143"],
    "h3_curve": ["curve", "--hamiltonian", H3, "--beta-min", "-4", "--beta-max", "4", "--samples", "41"],
    "h3_curve_plateau": ["curve", "--hamiltonian", H3, "--beta-min", "-800", "--beta-max", "800", "--samples", "17",
                         "--format", "csv"],
    "h3_wmax": ["wmax", "--hamiltonian", H3, "--rho", '{"spectrum":[0.4,0.2,0.15,0.1,0.1,0.05],"energy":0.1}'],
    "h3_rate": ["rate", "--hamiltonian", H3, "--rho", '{"macro":{"E":0.3,"S":1.2},"n":1}',
                "--sigma", '{"macro":{"E":0.0,"S":0.5},"n":1}'],
    "h3_exchange": ["exchange", "--hamiltonian", H3, "--rho", '{"spectrum":[0.5,0.3,0.1,0.05,0.05,0.0],"energy":-0.2}',
                    "--sigma", '{"spectrum":[0.3,0.2,0.2,0.1,0.1,0.1],"energy":0.4}', "--beta1", "1", "--beta2", "2"],
    "h3_engine": ["engine", "--hamiltonian", H3, "--beta-cold", "2", "--beta-less-cold", "1.5",
                  "--beta-less-hot", "1.0", "--beta-hot", "0.5"],
    "h3_decompose": ["decompose", "--hamiltonian", H3, "--macro", '{"E":0.4,"S":0.9}', "--beta", "0.5"],
}
THERMAL_SUBCOMMANDS = {"curve", "wmax", "rate", "exchange", "engine", "decompose"}
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@pytest.fixture(scope="module")
def golden():
    return json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _within_one_unit_of_12th_digit(got: str, want: str) -> bool:
    a, b = Decimal(got), Decimal(want)
    return abs(a - b) <= Decimal(1).scaleb(max(a.adjusted(), b.adjusted()) - 11)


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_output_matches_golden(self, capsys, golden, name):
        argv = GOLDEN_CASES[name]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        want = golden[name]
        if argv[0] not in THERMAL_SUBCOMMANDS:
            assert out == want
            return
        # thermal results may move in the last printed digit: same text and
        # keys, each number within one unit of its 12th significant digit
        if argv[0] == "rate":
            out, want = self._split_ill_conditioned(json.loads(out), json.loads(want))
        assert NUMBER.sub("#", out) == NUMBER.sub("#", want)
        for got, expected in zip(NUMBER.findall(out), NUMBER.findall(want)):
            assert _within_one_unit_of_12th_digit(got, expected), (name, got, expected)

    @staticmethod
    def _split_ill_conditioned(got: dict, want: dict) -> tuple[str, str]:
        """Check the rate output whose printed digits exceed its
        conditioning, and return the rest as text for the digit check:
        ``argmin_beta`` minimises a ratio that is flat at its minimum, so a
        last-bit change in log Z moves it near sqrt(eps) (seen: 1e-7
        relative). ``agreement_gap`` prints as 0.0 at roundoff size
        (``TestGapPrintRule``), so it takes the digit check."""
        assert got.keys() == want.keys()
        assert got.pop("argmin_beta") == pytest.approx(want.pop("argmin_beta"), rel=1e-6)
        return json.dumps(got, sort_keys=True), json.dumps(want, sort_keys=True)


class TestGapPrintRule:
    """A key comparing two computed quantities prints as 0.0 below 64
    units of roundoff at its scale; the library keeps the raw float."""

    @pytest.mark.parametrize(
        "rates, gap, printed",
        [((0.5, 0.5), 1.11e-16, 0.0), ((0.5, 0.5), 1.5e-14, 1.5e-14), ((1e3, 1e3), 1e-12, 0.0),
         ((1e3, 1e3), 2e-11, 2e-11), ((0.5, 0.5), math.nan, math.nan)],
    )
    def test_agreement_gap(self, rates, gap, printed):
        got = cli._record(RateResult(*rates, None, gap))["agreement_gap"][0]
        assert got == printed or math.isnan(got) and math.isnan(printed)

    def test_exact_dilation_prints_zero_distance(self, capsys):
        rho = '{"matrix":[[[0.7110714825438748,0],[0,0]],[[0,0],[0.2889285174561253,0]]]}'
        argv = ["dilate", "--hamiltonian", QUBIT, "--unitary", "[[[1,0],[0,0]],[[0,0],[1,0]]]", "--rho", rho,
                "--sigma", rho, "--m-levels", "[-3,-2,-1,0,1,2,3]", "--delta", "0.1428571438571428"]
        a = cli._build_parser().parse_args(argv)
        report = build_energy_preserving_dilation(a.hamiltonian, a.unitary, a.rho, a.sigma, a.m_levels, a.delta)
        assert 0.0 < report.output_distance < 1e-15
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["output_distance"] == 0.0


def _oracle_fmt(value):
    """Each float through float(f"{v:.12g}"), as emit printed it before."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "+inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [_oracle_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _oracle_fmt(v) for k, v in value.items()}
    return value


def _oracle_emit(records, fmt, columns=None) -> str:
    """The text emit wrote for a list of records before it laid out the
    text itself: json.dumps(sort_keys=True, indent=2), or str() per CSV cell."""
    records = [_oracle_fmt(dict(r)) for r in records]
    if fmt == "json":
        return json.dumps(records[0] if len(records) == 1 else records, sort_keys=True, indent=2) + "\n"
    cols = list(columns) if columns else sorted(records[0]) if records else []
    return "\n".join([",".join(cols), *(",".join(str(rec[c]) for c in cols) for rec in records)]) + "\n"


def _table(records, columns=None) -> dict:
    """The records as emit's columns; with no records only ``columns`` are known."""
    return {k: [r[k] for r in records] for k in (records[0] if records else columns or ())}


EDGE_FLOATS = [1e11, 1e12, 1.5e12, 123456789012345.0, 1e15, 1e16, 1e-4, 1e-5, 5e-324,
               0.0, math.inf, math.nan, 2.2250738585072014e-308, 1.7976931348623157e308, 999999999999.5]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS + [-x for x in EDGE_FLOATS])
SCALARS = FLOATS | FLOATS.map(np.float64) | st.integers() | st.booleans() | st.none() | st.text(max_size=6)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
                      max_leaves=10)


@st.composite
def record_lists(draw, values, max_records):
    keys = draw(st.lists(st.text(max_size=5), min_size=1, max_size=5, unique=True))
    count = draw(st.sampled_from([0, 1, max_records]) | st.integers(0, max_records))
    records = [{k: draw(values) for k in keys} for _ in range(count)]
    columns = draw(st.none() | st.permutations(keys))
    return records, columns


class TestEmit:
    """emit against the float-round-trip and json.dumps encoder it replaced."""

    @staticmethod
    def check(records, fmt, columns=None):
        text = cli.emit(_table(records, columns), fmt, os.devnull, columns=columns)
        assert text == _oracle_emit(records, fmt, columns)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value", EDGE_FLOATS + [-x for x in EDGE_FLOATS], ids=repr)
    def test_edge_floats(self, fmt, value):
        for records in ([{"x": value}], [{"x": value, "y": [value, "s"]}] * 2):
            self.check(records, fmt)

    @settings(max_examples=200, deadline=None)
    @given(record_lists(VALUES, 6), st.sampled_from(["json", "csv"]))
    def test_matches_oracle(self, case, fmt):
        self.check(case[0], fmt, case[1])

    @settings(max_examples=100, deadline=None)
    @given(record_lists(FLOATS, 40), st.sampled_from(["json", "csv"]))
    def test_float_columns_match_oracle(self, case, fmt):
        self.check(case[0], fmt, case[1])

    @settings(max_examples=100, deadline=None)
    @given(record_lists(VALUES, 6) | record_lists(FLOATS, 6), st.sampled_from(["json", "csv"]),
           st.lists(st.integers(0, 6), max_size=4), st.booleans())
    def test_chunks_match_oracle(self, case, fmt, cuts, arrays):
        # the records split into chunks at ``cuts``, some of them empty; a
        # lone row in any chunk still prints as one JSON object. With
        # ``arrays``, float columns come as float64 ndarrays: a chunk made
        # of them only goes through the array kernel
        records, columns = case
        keys = list(records[0]) if records else columns
        bounds = [0, *sorted(cuts), len(records)]
        chunks = (_table(records[a:b], keys) for a, b in zip(bounds, bounds[1:]))
        if arrays:
            chunks = map(_float_arrays, chunks)
        assert cli.emit(chunks, fmt, os.devnull, columns=columns) == _oracle_emit(records, fmt, columns)


def _float_arrays(table: dict) -> dict:
    """The table with each column of floats as a float64 ndarray."""
    return {k: np.array(v, dtype=np.float64) if all(isinstance(x, float) for x in v) else v for k, v in table.items()}


def _kernel_texts(values, quote) -> list[str]:
    """The array kernel's text of each value, its NUL padding dropped."""
    cells = cli._float_cells(np.array(values, dtype=np.float64), quote)
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in cells]


@st.composite
def positional_doubles(draw):
    """Doubles from raw bit patterns with binary exponents -17 to 43 (7.6e-6 to 1.8e13 in
    magnitude): the band the kernel settles, and its edges."""
    sign = draw(st.integers(0, 1))
    exponent = draw(st.integers(1023 - 17, 1023 + 43))
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | exponent << 52 | draw(st.integers(0, 2**52 - 1))))[0]


class TestFloatKernel:
    """The array kernel (``_float_cells``) against the scalar ``_numbers``,
    value by value, with both quotings."""

    @staticmethod
    def check(values):
        for quote in (str, json.dumps):
            assert _kernel_texts(values, quote) == cli._numbers(list(values), quote)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_bit_patterns(self, bits):
        self.check(np.array(bits, dtype=np.uint64).view(np.float64).tolist())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(positional_doubles(), min_size=1, max_size=64))
    def test_positional_bit_patterns(self, values):
        self.check(values)

    @pytest.mark.parametrize("k", range(-4, 12))
    def test_near_ties(self, k):
        # d.ddddddddddd5e<k>, read to the nearest double, lies within half
        # an ulp of a 12-digit rounding tie, as do its neighbours
        rng = np.random.default_rng(k + 100)
        values = []
        for digits in rng.integers(0, 10, (40, 12)):
            digits[0] = max(digits[0], 1)
            tie = float(f"{digits[0]}.{''.join(map(str, digits[1:]))}5e{k}")
            values += [tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf), -tie]
        self.check(values)

    def test_edge_floats_and_decades(self):
        decades = [10.0**k for k in range(-6, 18)]
        near = [math.nextafter(d, t) for d in decades for t in (0.0, math.inf)]
        values = EDGE_FLOATS + decades + near
        self.check(values + [-x for x in values])

    def test_zeros_are_settled_in_the_kernel(self, monkeypatch):
        # a plateau sweep is mostly zeros: they print without the scalar path
        monkeypatch.setattr(cli, "_numbers", lambda values, quote: pytest.fail(f"_numbers({values!r})"))
        for quote in (str, json.dumps):
            assert _kernel_texts([0.0, -0.0, 0.0, 1.5, -0.0], quote) == ["0.0", "-0.0", "0.0", "1.5", "-0.0"]


# curve's beta ends: past float max's half, non-finite, subnormal and zero,
# ordinary, and both sides of the caps of QUBIT (750) and H3 (375)
CURVE_BETAS = (st.sampled_from([1.7e308, -1.7e308, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                                2.2250738585072014e-308, 0.0, -0.0])
               | st.floats(-10.0, 10.0) | st.floats(300.0, 1e9) | st.floats(-1e9, -300.0))


class TestCurveFuzz:
    @settings(max_examples=100, deadline=2000)
    @given(st.sampled_from([QUBIT, H3]), CURVE_BETAS, CURVE_BETAS, st.integers(-2, 3000), st.sampled_from(["json", "csv"]))
    def test_exit_code_and_text(self, hamiltonian, beta_min, beta_max, samples, fmt):
        # exit 0 with the scalar path's text, or exit 2 with one JSON error; never a traceback
        argv = ["curve", "--hamiltonian", hamiltonian, f"--beta-min={beta_min!r}", f"--beta-max={beta_max!r}",
                "--samples", str(samples), "--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2) and "Traceback" not in err
        if code == 2:
            assert out == "" and err.count("\n") == 1
            assert json.loads(err)["error"] in ("bad-beta", "bad-samples")
            return
        points = thermal_points(hamiltonian_from_json(hamiltonian), np.linspace(beta_min, beta_max, samples))
        table = {key: column.tolist() for key, column in zip(cli._CURVE_COLUMNS, points)}
        assert out == cli.emit(table, fmt, os.devnull, columns=cli._CURVE_COLUMNS)


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        built = []

        def counting_parser(*args, **kwargs):
            built.append(1)
            return argparse.ArgumentParser(*args, **kwargs)

        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=counting_parser))
        cli._build_parser.cache_clear()
        for _ in range(2):
            code, _, _ = run_cli(capsys, "member", "--hamiltonian", QUBIT, "--macro", '{"E":0.5,"S":0.2}')
            assert code == 0
        assert len(built) == 1

    def test_grid_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--hamiltonian", QUBIT, "--rho", '{"macro":{"E":0.5,"S":0.2}}',
                  "--sigma", '{"macro":{"E":0.5,"S":0}}', "--grid", "-5"])
        assert exc.value.code == 2


class TestErrorMapping:
    def test_malformed_json_exits_2(self, capsys, qubit_file):
        code, _, err = run_cli(capsys, "member", "--hamiltonian", qubit_file, "--macro", "{not json")
        assert code == 2
        assert json.loads(err)["error"] == "malformed-json"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "member", "--hamiltonian", "no_such_file.json", "--macro", '{"E":0,"S":0}')
        assert code == 2
        assert json.loads(err)["error"] == "missing-file"

    def test_domain_error_exits_1(self, capsys, qubit_file):
        code, _, err = run_cli(
            capsys, "decompose", "--hamiltonian", qubit_file, "--macro", '{"E":0.5,"S":0.4}', "--beta", "3"
        )
        assert code == 1
        assert json.loads(err)["error"] == "infeasible-decomposition"

    def test_validation_error_exits_2(self, capsys, qubit_file):
        code, _, err = run_cli(
            capsys, "wmax", "--hamiltonian", qubit_file, "--rho", '{"spectrum":[0.7,0.7],"energy":0.5}'
        )
        assert code == 2
        assert json.loads(err)["error"] == "bad-trace"

    def test_nan_tolerance_exits_2(self, capsys, qubit_file):
        code, out, err = run_cli(
            capsys, "member", "--hamiltonian", qubit_file, "--macro", '{"E":0.5,"S":5}', "--tol", "nan"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "bad-tolerance"

    @pytest.mark.parametrize(
        "argv",
        [
            ["member", "--macro", '{"E":"x","S":0.1}'],
            ["wmax", "--rho", '{"spectrum":[0.5,0.5],"energy":0.5,"n":"abc"}'],
        ],
    )
    def test_non_numeric_json_field_exits_2(self, capsys, qubit_file, argv):
        code, out, err = run_cli(capsys, argv[0], "--hamiltonian", qubit_file, *argv[1:])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "bad-number"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["wmax", "--rho", '{"matrix":[[[0.5,0],[NaN,0]],[[NaN,0],[0.5,0]]]}'], "non-finite-entry"),
            (["wmax", "--rho", '{"spectrum":[NaN,0.5],"energy":0.5}'], "non-finite-eigenvalue"),
            (["wmax", "--rho", '{"matrix":[[[0.5,0],[Infinity,0]],[[Infinity,0],[0.5,0]]]}'], "non-finite-entry"),
            (
                [
                    "dilate",
                    "--unitary",
                    "[[[NaN,0],[0,0]],[[0,0],[1,0]]]",
                    "--rho",
                    '{"matrix":[[[0,0],[0,0]],[[0,0],[1,0]]]}',
                    "--sigma",
                    '{"matrix":[[[1,0],[0,0]],[[0,0],[0,0]]]}',
                    "--m-levels",
                    "[-3,-2,-1,0,1,2,3]",
                    "--delta",
                    "0.143",
                ],
                "not-unitary",
            ),
        ],
        ids=["nan-matrix", "nan-spectrum", "infinite-matrix", "nan-unitary"],
    )
    def test_non_finite_entry_exits_2(self, capsys, recwarn, qubit_file, argv, error):
        code, out, err = run_cli(capsys, argv[0], "--hamiltonian", qubit_file, *argv[1:])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == error
        assert not [str(w.message) for w in recwarn]

    @pytest.mark.parametrize(
        "levels",
        ["[NaN]", "[Infinity]", '["1/0"]', '["abc"]', "[[1]]"],
        ids=["nan", "inf", "zero-denominator", "text", "nested"],
    )
    def test_bad_level_exits_2(self, capsys, levels):
        code, out, err = run_cli(capsys, "sumset", "--levels", levels, "--delta", "0.5")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "bad-level"

    def test_bad_ancilla_level_exits_2(self, capsys, qubit_file):
        code, out, err = run_cli(
            capsys,
            "dilate",
            "--hamiltonian",
            qubit_file,
            "--unitary",
            "[[[1,0],[0,0]],[[0,0],[1,0]]]",
            "--rho",
            '{"matrix":[[[1,0],[0,0]],[[0,0],[0,0]]]}',
            "--sigma",
            '{"matrix":[[[1,0],[0,0]],[[0,0],[0,0]]]}',
            "--m-levels",
            '[0, "1/0"]',
            "--delta",
            "0.5",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "bad-level"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["sumset", "--levels", "[true, false]", "--delta", "0.5"], "bad-level"),
            (["coarse", "--p", "[true, false]", "--q", "[0.5,0.5]"], "bad-number"),
            (["member", "--hamiltonian", '{"levels":[{"energy":0,"degeneracy":true},{"energy":1,"degeneracy":1}]}',
              "--macro", '{"E":0.5,"S":0.1}'], "bad-number"),
            (["curve", "--hamiltonian", '{"levels":[{"energy":0,"degeneracy":1e20},{"energy":1,"degeneracy":1}]}',
              "--beta-min", "0", "--beta-max", "1", "--samples", "2"], "bad-level"),
            (["curve", "--hamiltonian",
              '{"levels":[{"energy":0,"degeneracy":9007199254740993},{"energy":1,"degeneracy":1}]}',
              "--beta-min", "0", "--beta-max", "1", "--samples", "2"], "bad-level"),
            (["protocol", "--p", "[0.7,0.3]", "--q", "[0.3,0.7]", "--n", "10", "--ancilla-bits", "20000"],
             "bad-ancilla-bits"),
            (["protocol", "--p", "[0.7,0.3]", "--q", "[0.3,0.7]", "--n", "10", "--ancilla-bits", "60",
              "--cap", str(10**400)], "bad-outcome-cap"),
            (["protocol", "--p", "[0.7,0.3]", "--q", "[0.3,0.7]", "--n", "10", "--cap=-1"], "bad-outcome-cap"),
            (["protocol", "--p", "[0.7,0.3]", "--q", "[0.3,0.7]", "--n", "10", "--cap=0"], "bad-outcome-cap"),
            (_dilate('{"matrix":[[[0.6,0],[0,0]],[[0,0],[0.6,0]]]}'), "bad-trace"),
            (_dilate('{"matrix":[[[-0.5,0],[0,0]],[[0,0],[1.5,0]]]}'), "negative-eigenvalue"),
            (_dilate('{"matrix":[[[0.5,0],[0.5,0]],[[0,0],[0.5,0]]]}'), "not-hermitian"),
            (["wmax", "--hamiltonian", QUBIT, "--rho", '{"matrix":[[[1,0]],[[0,0],[1,0]]]}'], "bad-state-json"),
            (["dilate", "--hamiltonian", QUBIT, "--unitary", "[[[1,0]],[[0,0],[1,0]]]", *_dilate("{}")[5:]],
             "bad-matrix-json"),
            (["dilate", "--hamiltonian", QUBIT, "--unitary", "[[{}]]", *_dilate("{}")[5:]], "bad-matrix-json"),
            (["member", "--hamiltonian", QUBIT, "--macro", "[" * 5000], "malformed-json"),
            (["coarse", "--p", "[%d]" % 10**400, "--q", "[1]"], "bad-number"),
        ],
        ids=["levels", "distribution", "degeneracy", "huge-degeneracy", "degeneracy-2**53+1", "huge-ancilla-bits",
             "huge-cap", "negative-cap", "zero-cap", "dilate-bad-trace", "dilate-negative-rho", "dilate-non-hermitian", "ragged-matrix",
             "ragged-unitary", "object-entry-unitary", "deep-nesting", "huge-integer"],
    )
    def test_refused_input_exits_2(self, capsys, argv, error):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["engine", "--beta-cold", "1000", "--beta-less-cold", "800", "--beta-less-hot", "1", "--beta-hot", "0.5"],
             "flat-curve"),
            (["exchange", "--rho", SAME_STATE, "--sigma", SAME_STATE, "--beta1", "0", "--beta2", "0"],
             "infinite-temperature"),
            (["exchange", "--rho", SAME_STATE, "--sigma", SAME_STATE, "--beta1", "750", "--beta2", "800"], "flat-curve"),
        ],
        ids=["engine-on-the-ground-plateau", "exchange-at-beta-zero", "exchange-on-the-ground-plateau"],
    )
    def test_reservoir_without_chord_exits_1(self, capsys, argv, error):
        code, out, err = run_cli(capsys, argv[0], "--hamiltonian", QUBIT, *argv[1:])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"] == error

    def test_huge_decimal_exponent_exits_2_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sumset", "--levels", '["1e-2000000"]', "--delta", "0.5")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "bad-level"

    def test_protocol_outcome_overflow_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "protocol", "--p", "[0.7,0.3]", "--q", "[0.3,0.7]", "--n", "1200")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "outcome-overflow"

    def test_probability_above_one_exits_2(self, capsys):
        # the entries would overflow the normalization sum
        code, out, err = run_cli(capsys, "coarse", "--p", "[1e308,1e308]", "--q", "[0.5,0.5]")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "bad-probability"

    def test_overflowing_span_exits_2(self, capsys):
        hamiltonian = '{"levels":[{"energy":-1e308},{"energy":1e308}]}'
        code, out, err = run_cli(capsys, "member", "--hamiltonian", hamiltonian, "--macro", '{"E":0,"S":0.1}')
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "bad-level"

    @pytest.mark.parametrize("energy, code", [("5e307", 0), ("0.5", 1)])
    def test_wmax_near_float_max_span(self, capsys, energy, code):
        hamiltonian = '{"levels":[{"energy":0},{"energy":1e308}]}'
        rho = '{"spectrum":[0.5,0.5],"energy":%s}' % energy
        got, out, err = run_cli(capsys, "wmax", "--hamiltonian", hamiltonian, "--rho", rho)
        assert got == code
        if code == 0:
            assert json.loads(out) == {"w_max": 0.0}
        else:
            assert out == "" and json.loads(err)["error"] == "negative-work"

    def test_non_numeric_distribution_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "coarse", "--p", '[0.5,"half"]', "--q", "[0.5,0.5]")
        assert code == 2
        assert json.loads(err)["error"] == "bad-number"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# one valid call per subcommand; every JSON option is replaced in turn below
VALID_CALLS = {
    "curve": ["--hamiltonian", QUBIT, "--beta-min", "0", "--beta-max", "1", "--samples", "2"],
    "member": ["--hamiltonian", QUBIT, "--macro", '{"E":0.5,"S":0.2}'],
    "wmax": ["--hamiltonian", QUBIT, "--rho", '{"spectrum":[0.25,0.75],"energy":0.75}'],
    "exchange": ["--hamiltonian", QUBIT, "--rho", '{"spectrum":[0.75,0.25],"energy":0.25}',
                 "--sigma", '{"spectrum":[0.5,0.5],"energy":0.5}', "--beta1", "1", "--beta2", "2"],
    "engine": ["--hamiltonian", QUBIT, "--beta-cold", "2", "--beta-less-cold", "1.5", "--beta-less-hot", "1",
               "--beta-hot", "0.5"],
    "rate": ["--hamiltonian", QUBIT, "--rho", '{"macro":{"E":0.5,"S":0.2}}', "--sigma", '{"macro":{"E":0.5,"S":0}}'],
    "decompose": ["--hamiltonian", QUBIT, "--macro", '{"E":0.5,"S":0.4}', "--beta", "0"],
    "protocol": ["--p", "[0.7,0.3]", "--q", "[0.3,0.7]", "--n", "4", "--ancilla-bits", "2"],
    "coarse": ["--p", "[0.25,0.25,0.25,0.25]", "--q", "[0.5,0.5]"],
    "sumset": ["--levels", '[0,1,"5/2"]', "--delta", "0.2", "--k-max", "64"],
    "dilate": _dilate('{"matrix":[[[0,0],[0,0]],[[0,0],[1,0]]]}')[1:],
}
# a well-formed JSON value of the wrong shape for each option, and its error code
WRONG_SHAPE = {
    "--hamiltonian": ("[]", "bad-hamiltonian-json"),
    "--rho": ("[]", "bad-state-json"),
    "--sigma": ("[]", "bad-state-json"),
    "--macro": ("[]", "bad-macro-json"),
    "--p": ("{}", "bad-distribution-json"),
    "--q": ("{}", "bad-distribution-json"),
    "--levels": ("{}", "bad-levels-json"),
    "--m-levels": ("{}", "bad-levels-json"),
    "--unitary": ("[[1]]", "bad-matrix-json"),
}
JSON_OPTIONS = [(cmd, opt) for cmd, argv in VALID_CALLS.items() for opt in argv if opt in WRONG_SHAPE]


class TestJsonOptions:
    def expect_error(self, capsys, argv, error):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == error

    def test_every_option_is_covered(self):
        assert {opt for _, opt in JSON_OPTIONS} == set(WRONG_SHAPE)
        assert len(JSON_OPTIONS) == 24

    @pytest.mark.parametrize("cmd", VALID_CALLS)
    def test_valid_calls_exit_0(self, capsys, cmd):
        code, out, err = run_cli(capsys, cmd, *VALID_CALLS[cmd])
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("cmd, option", JSON_OPTIONS, ids=[f"{c}{o}" for c, o in JSON_OPTIONS])
    @pytest.mark.parametrize("bad", ["malformed", "wrong-shape", "string"])
    def test_malformed_value_exits_2(self, capsys, tmp_path, cmd, option, bad):
        argv = [cmd, *VALID_CALLS[cmd]]
        i = argv.index(option) + 1
        if bad == "string":
            # a file holding the option's valid JSON text as one JSON string
            path = tmp_path / "string.json"
            path.write_text(json.dumps(argv[i]))
            value, error = str(path), "malformed-json"
        else:
            value, error = ("{not json", "malformed-json") if bad == "malformed" else WRONG_SHAPE[option]
        argv[i] = value
        self.expect_error(capsys, argv, error)

    def test_json_string_in_a_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "text.json"
        path.write_text('"abc"')
        self.expect_error(capsys, ["wmax", "--hamiltonian", str(path), "--rho", '{"macro":{"E":0.5,"S":0.2}}'],
                          "malformed-json")

    def test_first_bad_option_on_the_command_line_is_reported(self, capsys):
        rho, hamiltonian = ("--rho", "{not json"), ("--hamiltonian", "[]")
        self.expect_error(capsys, ["wmax", *rho, *hamiltonian], "malformed-json")
        self.expect_error(capsys, ["wmax", *hamiltonian, *rho], "bad-hamiltonian-json")
        # a bad JSON value comes before a missing required option
        self.expect_error(capsys, ["wmax", *rho], "malformed-json")


class TestConsoleEntryPoint:
    def test_module_invocation(self, qubit_file):
        proc = subprocess.run(
            [sys.executable, "-m", "thermocone.cli", "member", "--hamiltonian", qubit_file, "--macro", '{"E":0.5,"S":0.2}'],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["member"] is True


@pytest.mark.parametrize("fmt", ["xml", "JSON", ""])
def test_emit_unknown_format_refused(fmt):
    with pytest.raises(ValidationError) as err:
        cli.emit({"a": [1.0]}, fmt, None)
    assert err.value.code == "bad-format"
