import json
import math
import subprocess
import sys

import pytest

from thermocone.cli import main

QUBIT = '{"levels":[{"energy":0.0,"degeneracy":1},{"energy":1.0,"degeneracy":1}]}'


@pytest.fixture
def qubit_file(tmp_path):
    path = tmp_path / "qubit.json"
    path.write_text(QUBIT)
    return str(path)


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

    def test_thread_count_does_not_change_output(self, capsys, qubit_file, monkeypatch):
        args = ("curve", "--hamiltonian", qubit_file, "--beta-min", "-2", "--beta-max", "2", "--samples", "21")
        _, serial, _ = run_cli(capsys, *args)
        monkeypatch.setenv("THERMOCONE_THREADS", "4")
        _, threaded, _ = run_cli(capsys, *args)
        assert serial == threaded

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

    def test_non_numeric_distribution_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "coarse", "--p", '[0.5,"half"]', "--q", "[0.5,0.5]")
        assert code == 2
        assert json.loads(err)["error"] == "bad-number"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestConsoleEntryPoint:
    def test_module_invocation(self, qubit_file):
        proc = subprocess.run(
            [sys.executable, "-m", "thermocone.cli", "member", "--hamiltonian", qubit_file, "--macro", '{"E":0.5,"S":0.2}'],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["member"] is True
