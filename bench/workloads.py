"""Seeded operation lists for the three benchmark workloads.

Each workload is a fixed list of operations generated from the seed.
An operation is one user question answered in full through thermocone's
public API (``queries``, ``combinatorics``) or its command line
(``cli``). Operations carry the generated inputs in ``data``; the worker
checks each result against ``checks.<check>(data, result)`` after the
timed rounds.

Every call goes through a module attribute (``tc.r_max``,
``cli.main``) so that the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import thermocone as tc
import thermocone.cli as cli

import reference as ref
from run import WORKLOADS

SHAPE_SEED = 1607_01302


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: str
    data: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    # (check name, op indices): checks that compare several operations;
    # a failure is charged to the last operation of the group
    groups: list[tuple[str, list[int]]] = field(default_factory=list)


def rng_for(name: str, seed: int) -> np.random.Generator:
    """Draws the values of the inputs."""
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def shape_rng_for(name: str) -> np.random.Generator:
    """Draws the shape of each operation (sizes, symbol counts, level-set
    structure). It does not depend on the seed, so every seed gets the
    same mix of operation sizes and the seed moves values only."""
    return np.random.default_rng([SHAPE_SEED, WORKLOADS.index(name)])


# ---------------------------------------------------------------------------
# Shared input generators
# ---------------------------------------------------------------------------


def random_levels(rng, n_levels: int, n_double: int) -> list[tuple[float, int]]:
    """Ascending energies with gaps in [0.2, 1.5]; ``n_double`` levels
    chosen at random get degeneracy 2, the rest 1."""
    gaps = rng.uniform(0.2, 1.5, size=n_levels - 1)
    energies = rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(gaps)])
    degs = [1] * n_levels
    for i in rng.choice(n_levels, size=n_double, replace=False):
        degs[int(i)] = 2
    return [(float(e), g) for e, g in zip(energies, degs)]


def expanded(levels) -> np.ndarray:
    return np.repeat([e for e, _ in levels], [g for _, g in levels])


def dimension(levels) -> int:
    return sum(g for _, g in levels)


def random_state(rng, d: int) -> np.ndarray:
    lam = rng.dirichlet(np.ones(d))
    u = ref.random_unitary(rng, d)
    rho = u @ np.diag(lam) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def balanced_qubit_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    """A qubit state with diagonal (1/2, 1/2) and a pure state of the same
    energy: r_max between them is 1 - S/ln 2."""
    c = rng.uniform(0.05, 0.45) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rho = np.array([[0.5, c], [np.conj(c), 0.5]])
    psi = np.array([1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))]) / math.sqrt(2.0)
    return rho, np.outer(psi, psi.conj())


def spaced_betas(rng, count: int, lo: float, hi: float, gap: float) -> list[float]:
    """``count`` distinct values in [lo, hi], descending, at least ``gap`` apart."""
    while True:
        b = sorted(rng.uniform(lo, hi, size=count), reverse=True)
        if all(x - y >= gap for x, y in zip(b, b[1:])):
            return [float(x) for x in b]


def reservoir_betas(rng, span: float, s_rho: float, s_sigma: float) -> tuple[float, float]:
    """Positive (beta1, beta2) ordered so the reservoir's entropy moves
    the same way as the system's."""
    b_hi, b_lo = spaced_betas(rng, 2, 0.1 / span, 3.0 / span, 0.2 / span)
    return (b_lo, b_hi) if s_sigma > s_rho else (b_hi, b_lo)


def random_point(rng, levels) -> tuple[float, float]:
    e_min, e_max = levels[0][0], levels[-1][0]
    span = e_max - e_min
    log_d = math.log(dimension(levels))
    return float(rng.uniform(e_min - 0.05 * span, e_max + 0.05 * span)), float(rng.uniform(-0.02, 1.05 * log_d))


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def question(q: dict) -> dict:
    h = tc.HamiltonianSpec(tuple(q["levels"]))
    rho = tc.QuantumState.from_matrix(q["rho"])
    sigma = tc.QuantumState.from_matrix(q["sigma"])
    x_rho = tc.macrostate_of(rho, h)
    x_sigma = tc.macrostate_of(sigma, h)
    points = [x_rho, x_sigma] + [tc.Macrostate(e, s) for e, s in q["points"]]
    verdicts = tuple(tc.diagram_contains(h, x).value for x in points)
    wmax = (tc.w_max(h, rho), tc.w_max(h, sigma))
    rate = tc.r_max(h, tc.cone_point_of(rho, h), tc.cone_point_of(sigma, h))
    ex = tc.work_heat(tc.ExchangeSpec(h, rho, sigma, q["beta1"], q["beta2"]))
    eng = tc.engine_efficiencies(h, *q["engine"])
    return {
        "x_rho": (x_rho.energy, x_rho.entropy),
        "x_sigma": (x_sigma.energy, x_sigma.entropy),
        "verdicts": verdicts,
        "w_max": wmax,
        "rate": (rate.rate_bisect, rate.rate_monotone, rate.agreement_gap),
        "exchange": (ex.work, ex.heat, ex.beta_eff, ex.m_over_n, ex.battery_reversed),
        "engine": (eng.eta_engine, eng.eta_refrigerator),
    }


def make_question(rng, n_levels: int, n_double: int) -> dict:
    levels = random_levels(rng, n_levels, n_double)
    d = dimension(levels)
    span = levels[-1][0] - levels[0][0]
    balanced = d == 2
    if balanced:
        rho, sigma = balanced_qubit_pair(rng)
    else:
        rho = random_state(rng, d)
        sigma = random_state(rng, d)
    e_full = expanded(levels)
    s_rho = ref.macrostate(rho, e_full)[1]
    s_sigma = ref.macrostate(sigma, e_full)[1]
    while abs(s_sigma - s_rho) < 1e-3:
        sigma = random_state(rng, d)
        s_sigma = ref.macrostate(sigma, e_full)[1]
    beta1, beta2 = reservoir_betas(rng, span, s_rho, s_sigma)
    return {
        "levels": levels,
        "rho": rho,
        "sigma": sigma,
        "balanced_qubit": balanced,
        "points": [random_point(rng, levels) for _ in range(4)],
        "beta1": beta1,
        "beta2": beta2,
        "engine": spaced_betas(rng, 4, 0.05 / span, 4.0 / span, 0.05 / span),
    }


def build_queries(seed: int, tiny: bool) -> Workload:
    rng = rng_for("queries", seed)
    ops = []
    # level count cycles 2..6 and the number of doubly degenerate levels
    # cycles 0..n, so the list's mix of dimensions is the same for every
    # seed; the seed draws energies, states, points and temperatures
    for i in range(10 if tiny else 150):
        n_levels = 2 + i % 5
        n_double = (i // 5) % (n_levels + 1)
        q = make_question(rng, n_levels, n_double)
        ops.append(Op("question", lambda q=q: question(q), "question", q))
    return Workload(ops)


def warmup_queries() -> list[Op]:
    rng = np.random.default_rng(0)
    q = make_question(rng, 2, 0)
    return [Op("question", lambda: question(q), "question", q)]


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------


def protocol_op(p, q, n: int, k: int) -> Op:
    data = {"p": tuple(p), "q": tuple(q), "n": n, "k": k}

    def run():
        report = tc.run_entropy_protocol(tc.Distribution(data["p"]), tc.Distribution(data["q"]), n, ancilla_bits=k)
        return report.to_json()

    return Op("protocol", run, "protocol", data)


def doubling_op(levels, delta: float, k_max: int = 128) -> Op:
    data = {"levels": tuple(levels), "delta": delta, "k_max": k_max}

    def run():
        k, ratio, report = tc.find_doubling_k(tc.LevelSet(data["levels"]), delta, k_max)
        return {"k": k, "ratio": ratio, "sizes": tuple(report.sizes), "growth_exponent": report.growth_exponent}

    return Op("doubling", run, "doubling", data)


def dilation_inputs(rng, d: int, top: int, half_width: int, case: str) -> dict:
    """A qubit or qutrit with integer levels topping out at ``top``, an
    ancilla base set {-K..K}, and the smallest delta the sumset
    condition allows."""
    energies = [0, top] if d == 2 else [0, 1, top]
    m_levels = list(range(-half_width, half_width + 1))
    base = np.array(m_levels)
    levels = np.array(energies)
    grown = max(np.unique(np.add.outer(base, levels)).size, np.unique(np.subtract.outer(base, levels)).size)
    delta = grown / base.size - 1.0 + 1e-9
    lam = rng.dirichlet(np.ones(d))
    if case == "incoherent-target":
        u = np.eye(d)[rng.permutation(d)].astype(complex)
        rho = np.diag(lam).astype(complex)
    elif case == "incoherent-source":
        u = ref.random_unitary(rng, d)
        rho = np.diag(lam).astype(complex)
    else:
        v = ref.random_unitary(rng, d)
        rho = v @ np.diag(lam) @ v.conj().T
        u = ref.random_unitary(rng, d)
    sigma = u @ rho @ u.conj().T
    return {
        "energies": energies,
        "u": u,
        "rho": rho,
        "sigma": sigma,
        "m_levels": m_levels,
        "delta": delta,
        "case": case,
    }


def dilation_op(data: dict) -> Op:
    def run():
        h = tc.HamiltonianSpec(tuple((float(e), 1) for e in data["energies"]))
        report = tc.build_energy_preserving_dilation(
            h,
            data["u"],
            tc.QuantumState.from_matrix(data["rho"]),
            tc.QuantumState.from_matrix(data["sigma"]),
            tc.LevelSet(tuple(Fraction(v) for v in data["m_levels"])),
            data["delta"],
        )
        return {
            "total_dimension": report.total_dimension,
            "commutation_residual": report.commutation_residual,
            "output_distance": report.output_distance,
            "case": report.case,
            "deficit_factors": tuple(report.deficit_factors),
        }

    return Op("dilation", run, "dilation", data)


def permutation_shape(shape_rng, m: int, min_items: int, max_items: int):
    """(p0, perm, n, k): a base distribution on m symbols, a nontrivial
    permutation, and (n, k) with a nonempty typical set and
    outcomes * 2^k enumerated items inside [min_items, max_items]."""
    while True:
        p0 = shape_rng.dirichlet(np.ones(m))
        perm = shape_rng.permutation(m)
        n = int(shape_rng.integers(4, 9))
        k = int(shape_rng.integers(2, 7))
        if (perm == np.arange(m)).all():
            continue
        outcomes, _ = ref.typical_recount(tuple(float(x) for x in p0), n)
        if min_items <= outcomes << k <= max_items:
            return p0, perm, n, k


def equal_entropy_permutation(rng, shape):
    """(p, q, n, k): p is the shape's base distribution moved by a seeded
    zero-sum jitter that keeps every count window, q = p permuted, so
    both have the same entropy and typical-set structure."""
    p0, perm, n, k = shape
    windows = ref.count_windows(p0, n)
    while True:
        v = rng.normal(size=p0.size)
        p = p0 + 0.02 * float(p0.min()) * (v - v.mean())
        p = p / p.sum()
        if ref.count_windows(p, n) == windows:
            return tuple(float(x) for x in p), tuple(float(x) for x in p[perm]), n, k


def level_set_shape(shape_rng, n_energies: int, delta: float, work_band: tuple[int, int]) -> list[Fraction]:
    """A window-combination level set whose doubling search does an
    amount of work (pairwise sums) inside ``work_band``."""
    while True:
        levels = ref.window_level_set(shape_rng, n_energies)
        _sizes, k, _ratio, work = ref.doubling_profile(levels, delta, 128)
        if k is not None and work_band[0] <= work <= work_band[1]:
            return levels


def rescaled_levels(rng, shape: list[Fraction]) -> list[Fraction]:
    """c * L + b for seeded integers c >= 1 and b: every sumset size, and
    so the doubling k, is that of the shape, and so are the denominators
    the exact arithmetic works with."""
    c = int(rng.integers(1, 10))
    b = int(rng.integers(-20, 21))
    return [c * v + b for v in shape]


DILATION_CASES = ("incoherent-target", "incoherent-source", "composed")


def build_combinatorics(seed: int, tiny: bool) -> Workload:
    rng = rng_for("combinatorics", seed)
    shapes = shape_rng_for("combinatorics")
    ops: list[Op] = []
    groups = []
    # fixed series: the binary convergence series and the 3-symbol
    # permutation, whose n = 10 case runs the greedy's plateau path
    binary_ns = (4, 6) if tiny else (4, 6, 8, 10)
    series = []
    for n in binary_ns:
        series.append(len(ops))
        ops.append(protocol_op((0.7, 0.3), (0.3, 0.7), n, 10))
    groups.append(("protocol_convergence", series))
    for n in (7, 8) if tiny else (7, 8, 9, 10):
        ops.append(protocol_op((0.6, 0.3, 0.1), (0.1, 0.6, 0.3), n, 6))
    # equal-entropy permutations of 2-4 symbols, kept small
    for i in range(3 if tiny else 18):
        shape = permutation_shape(shapes, 2 + i % 3, 512, 2048)
        ops.append(protocol_op(*equal_entropy_permutation(rng, shape)))
    # doubling searches: 9-level sets at delta 0.3, 27-level sets at 0.5
    for n_energies, delta, band, count in ((2, 0.3, (3_000, 4_000), 24), (3, 0.5, (14_000, 16_000), 16)):
        for _ in range(1 if tiny else count):
            shape = level_set_shape(shapes, n_energies, delta, band)
            ops.append(doubling_op(rescaled_levels(rng, shape), delta))
    # dilations: qubits and qutrits, two level spacings, all three cases,
    # ancilla {-6..6}; the most numerous and most uniform operations, so
    # the list's median falls among them
    for i in range(3 if tiny else 72):
        d = 2 + i % 2
        top = d - 1 + (i // 2) % 2
        ops.append(dilation_op(dilation_inputs(rng, d, top, 6, DILATION_CASES[(i // 4) % 3])))
    return Workload(ops, groups)


def warmup_combinatorics() -> list[Op]:
    rng = np.random.default_rng(0)
    return [
        protocol_op((0.7, 0.3), (0.3, 0.7), 4, 2),
        doubling_op([Fraction(0), Fraction(1), Fraction(5, 2)], 0.5, 16),
        dilation_op(dilation_inputs(rng, 2, 1, 3, "composed")),
    ]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def cli_call(argv: list[str]) -> str:
    """Run ``thermocone`` in-process; stdout is the result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return out.getvalue()


def cli_op(kind: str, argv: list[str], data: dict) -> Op:
    data = dict(data, argv=argv)
    return Op("cli:" + kind, lambda: cli_call(argv), "cli_" + kind, data)


def ham_json(levels) -> str:
    return json.dumps({"levels": [{"energy": e, "degeneracy": g} for e, g in levels]})


def matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def state_json(form: str, rho: np.ndarray, levels, n: float = 1.0) -> str:
    if form == "matrix":
        obj = {"matrix": matrix_json(rho)}
    else:
        energy, entropy = ref.macrostate(rho, expanded(levels))
        lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        lam = lam / lam.sum()
        obj = {"spectrum": [float(x) for x in lam], "energy": energy} if form == "spectrum" else {"macro": {"E": energy, "S": entropy}}
    obj["n"] = n
    return json.dumps(obj)


FORMS = ("matrix", "spectrum", "macro")


def build_cli(seed: int, tiny: bool) -> Workload:
    rng = rng_for("cli", seed)
    shapes = shape_rng_for("cli")
    scale = 0.25 if tiny else 1.0
    ops: list[Op] = []
    shape_index = itertools.count()

    def count(n):
        return max(1, round(n * scale))

    def hamiltonian():
        # level count and degeneracies cycle with the call's position
        j = next(shape_index)
        n_levels = 2 + j % 5
        levels = random_levels(rng, n_levels, (j // 5) % (n_levels + 1))
        return levels, ["--hamiltonian", ham_json(levels)]

    # curve sweeps: a few small ones and 10^4..10^5 samples in bulk
    sweeps = [(101, "json"), (101, "csv"), (301, "json"), (301, "csv"), (2001, "json"), (2001, "csv")]
    sweeps += [(300, "json"), (300, "csv")] if tiny else [(10_000, "json"), (20_000, "csv"), (30_000, "json"), (100_000, "csv")]
    for samples, fmt in sweeps:
        levels, h = hamiltonian()
        span = levels[-1][0] - levels[0][0]
        b = float(rng.uniform(2.0, 6.0)) / span
        argv = ["curve", *h, "--beta-min", repr(-b), "--beta-max", repr(b), "--samples", str(samples), "--format", fmt]
        ops.append(cli_op("curve", argv, {"levels": levels, "beta_min": -b, "beta_max": b, "samples": samples, "format": fmt}))
    for i in range(count(24)):
        levels, h = hamiltonian()
        e, s = random_point(rng, levels)
        argv = ["member", *h, "--macro", json.dumps({"E": e, "S": s}), "--format", ("json", "csv")[i % 2]]
        ops.append(cli_op("member", argv, {"levels": levels, "E": e, "S": s, "format": ("json", "csv")[i % 2]}))
    for i in range(count(12)):
        levels, h = hamiltonian()
        rho = random_state(rng, dimension(levels))
        n = float(rng.uniform(0.5, 3.0))
        argv = ["wmax", *h, "--rho", state_json(FORMS[i % 3], rho, levels, n)]
        ops.append(cli_op("wmax", argv, {"levels": levels, "rho": rho}))
    # rate is the costliest small call; its 24 calls hold the 90th percentile
    for i in range(count(24)):
        levels, h = hamiltonian()
        form = FORMS[i % 3]
        d = dimension(levels)
        if form == "macro":
            # (E_mix, S) -> (E_mix, 0): the rate is 1 - S / log d
            e_mix = float(np.mean(expanded(levels)))
            s = float(rng.uniform(0.1, 0.9)) * math.log(d)
            rho_arg = json.dumps({"macro": {"E": e_mix, "S": s}})
            sigma_arg = json.dumps({"macro": {"E": e_mix, "S": 0.0}})
            data = {"levels": levels, "midpoint_entropy": s}
        else:
            rho, sigma = random_state(rng, d), random_state(rng, d)
            rho_arg, sigma_arg = state_json(form, rho, levels), state_json(form, sigma, levels)
            data = {"levels": levels, "midpoint_entropy": None, "rho": rho, "sigma": sigma}
        ops.append(cli_op("rate", ["rate", *h, "--rho", rho_arg, "--sigma", sigma_arg], data))
    for i in range(count(12)):
        levels, h = hamiltonian()
        d = dimension(levels)
        span = levels[-1][0] - levels[0][0]
        rho, sigma = random_state(rng, d), random_state(rng, d)
        e_full = expanded(levels)
        s_rho, s_sigma = ref.macrostate(rho, e_full)[1], ref.macrostate(sigma, e_full)[1]
        while abs(s_sigma - s_rho) < 1e-3:
            sigma = random_state(rng, d)
            s_sigma = ref.macrostate(sigma, e_full)[1]
        beta1, beta2 = reservoir_betas(rng, span, s_rho, s_sigma)
        form = FORMS[i % 3]
        argv = ["exchange", *h, "--rho", state_json(form, rho, levels), "--sigma", state_json(form, sigma, levels),
                "--beta1", repr(beta1), "--beta2", repr(beta2)]
        ops.append(cli_op("exchange", argv, {"levels": levels, "rho": rho, "sigma": sigma, "beta1": beta1, "beta2": beta2}))
    for _ in range(count(10)):
        levels, h = hamiltonian()
        span = levels[-1][0] - levels[0][0]
        betas = spaced_betas(rng, 4, 0.05 / span, 4.0 / span, 0.05 / span)
        argv = ["engine", *h]
        for flag, b in zip(("--beta-cold", "--beta-less-cold", "--beta-less-hot", "--beta-hot"), betas):
            argv += [flag, repr(b)]
        ops.append(cli_op("engine", argv, {"levels": levels, "betas": betas}))
    for _ in range(count(10)):
        levels, h = hamiltonian()
        span = levels[-1][0] - levels[0][0]
        beta = float(rng.uniform(-3.0, 3.0)) / span
        weights = 0.05 + 0.85 * rng.dirichlet(np.ones(3))
        weights = weights / weights.sum()
        _log_z, e_beta, s_beta = ref.thermal1([e for e, _ in levels], [g for _, g in levels], beta)
        e = float(weights[0] * e_beta + weights[1] * levels[0][0] + weights[2] * levels[-1][0])
        s = float(weights[0] * s_beta)
        argv = ["decompose", *h, "--macro", json.dumps({"E": e, "S": s}), "--beta", repr(beta)]
        ops.append(cli_op("decompose", argv, {"levels": levels, "E": e, "S": s, "beta": beta, "weights": tuple(weights)}))
    for i in range(count(6)):
        p, q, n, k = equal_entropy_permutation(rng, permutation_shape(shapes, 2 + i % 3, 256, 4096))
        argv = ["protocol", "--p", json.dumps(list(p)), "--q", json.dumps(list(q)), "--n", str(n), "--ancilla-bits", str(k)]
        ops.append(cli_op("protocol", argv, {"p": p, "q": q, "n": n, "k": k}))
    for _ in range(count(8)):
        p = rng.dirichlet(np.ones(int(shapes.integers(4, 13))))
        q = rng.dirichlet(np.ones(int(shapes.integers(2, 5))))
        argv = ["coarse", "--p", json.dumps([float(x) for x in p]), "--q", json.dumps([float(x) for x in q])]
        ops.append(cli_op("coarse", argv, {"p": tuple(float(x) for x in p), "q": tuple(float(x) for x in q)}))
    for _ in range(count(6)):
        levels = rescaled_levels(rng, level_set_shape(shapes, 2, 0.5, (200, 1_500)))
        argv = ["sumset", "--levels", json.dumps([str(v) for v in levels]), "--delta", "0.5", "--k-max", "64"]
        ops.append(cli_op("sumset", argv, {"levels": tuple(levels), "delta": 0.5, "k_max": 64}))
    for i in range(count(6)):
        d = 2 + i % 2
        data = dilation_inputs(rng, d, d - 1 + (i // 2) % 2, 3, DILATION_CASES[i % 3])
        energies = data["energies"]
        argv = ["dilate", "--hamiltonian", ham_json([(float(e), 1) for e in energies]),
                "--unitary", json.dumps(matrix_json(data["u"])),
                "--rho", json.dumps({"matrix": matrix_json(data["rho"])}),
                "--sigma", json.dumps({"matrix": matrix_json(data["sigma"])}),
                "--m-levels", json.dumps(data["m_levels"]), "--delta", repr(data["delta"])]
        ops.append(cli_op("dilate", argv, data))
    # the first member call again: its output must repeat byte for byte
    first_member = next(i for i, op in enumerate(ops) if op.kind == "cli:member")
    ops.append(cli_op("member", ops[first_member].data["argv"], ops[first_member].data))
    return Workload(ops, [("byte_identical", [first_member, len(ops) - 1])])


def warmup_cli() -> list[Op]:
    """One small call of every subcommand, on fixed inputs."""
    qubit = ham_json([(0.0, 1), (1.0, 1)])
    h = ["--hamiltonian", qubit]
    diag = '{"matrix":[[[0.25,0],[0,0]],[[0,0],[0.75,0]]]}'
    calls = [
        ["curve", *h, "--beta-min", "-2", "--beta-max", "2", "--samples", "11"],
        ["member", *h, "--macro", '{"E":0.5,"S":0.4}'],
        ["wmax", *h, "--rho", diag],
        ["rate", *h, "--rho", '{"macro":{"E":0.5,"S":0.2}}', "--sigma", '{"macro":{"E":0.5,"S":0}}'],
        ["exchange", *h, "--rho", '{"spectrum":[0.75,0.25],"energy":0.25}',
         "--sigma", '{"spectrum":[0.5,0.5],"energy":0.5}', "--beta1", "1", "--beta2", "2"],
        ["engine", *h, "--beta-cold", "2", "--beta-less-cold", "1.5", "--beta-less-hot", "1", "--beta-hot", "0.5"],
        ["decompose", *h, "--macro", '{"E":0.5,"S":0.4}', "--beta", "0"],
        ["protocol", "--p", "[0.7,0.3]", "--q", "[0.3,0.7]", "--n", "4", "--ancilla-bits", "2"],
        ["coarse", "--p", "[0.25,0.25,0.25,0.25]", "--q", "[0.5,0.5]"],
        ["sumset", "--levels", '[0,1,"5/2"]', "--delta", "0.5", "--k-max", "16"],
        ["dilate", *h, "--unitary", "[[[0,0],[1,0]],[[1,0],[0,0]]]",
         "--rho", '{"matrix":[[[0,0],[0,0]],[[0,0],[1,0]]]}', "--sigma", '{"matrix":[[[1,0],[0,0]],[[0,0],[0,0]]]}',
         "--m-levels", "[-3,-2,-1,0,1,2,3]", "--delta", "0.143"],
    ]
    return [Op("cli:" + argv[0], lambda argv=argv: cli_call(argv), "", {}) for argv in calls]


BUILDERS = {"queries": build_queries, "combinatorics": build_combinatorics, "cli": build_cli}
WARMUPS = {"queries": warmup_queries, "combinatorics": warmup_combinatorics, "cli": warmup_cli}
