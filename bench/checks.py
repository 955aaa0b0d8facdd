"""Output checks against computations made apart from thermocone.

Each public check takes an operation's generated inputs and its result
and returns a list of failures, each naming the check that failed. The
worker imports this module only after the timed rounds and after it has
read its peak memory, because scipy is large.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import brentq, minimize_scalar

import reference as ref

EDGE_MARGIN = 1e-6  # membership points this close to an edge are not judged
RATE_GAP = 1e-6
PRINTED = 1e-10  # relative error allowed on values printed to 12 digits
_RTOL = 4 * np.finfo(float).eps


class Levels:
    def __init__(self, levels):
        self.e = np.array([e for e, _ in levels], dtype=float)
        self.g = np.array([g for _, g in levels], dtype=float)
        self.e_min, self.e_max = float(self.e[0]), float(self.e[-1])
        self.span = self.e_max - self.e_min
        self.log_d = math.log(float(self.g.sum()))
        self.log_g_ground = math.log(float(self.g[0]))
        self.expanded = np.repeat(self.e, self.g.astype(int))

    def point(self, beta: float) -> tuple[float, float, float]:
        return ref.thermal1(self.e, self.g, beta)

    def energy(self, beta: float) -> float:
        return self.point(beta)[1]

    def entropy(self, beta: float) -> float:
        return self.point(beta)[2]


def _root_on_side(f, sign: float, scale: float) -> float:
    """Root of a decreasing-in-|beta| function on one side of 0, f(0) > 0."""
    far = scale
    while f(sign * far) > 0.0:
        far *= 2.0
        if far > 1e8 * scale:
            raise ArithmeticError("no sign change")
    lo, hi = sorted((0.0, sign * far))
    return brentq(f, lo, hi, xtol=1e-15, rtol=_RTOL, maxiter=500)


def ref_s_max(lv: Levels, energy: float) -> float:
    """Upper boundary: thermal entropy at this energy (E(beta) inverted by brentq)."""
    f0 = lv.energy(0.0) - energy
    if f0 == 0.0:
        return lv.log_d
    sign = 1.0 if f0 > 0.0 else -1.0
    beta = _root_on_side(lambda b: sign * (lv.energy(b) - energy), sign, 1.0 / lv.span)
    return lv.entropy(beta)


def ref_w_max(lv: Levels, energy: float, entropy: float) -> float:
    """E minus the lowest energy with the same entropy; below the
    ground-degeneracy plateau that floor is E_min."""
    if entropy <= lv.log_g_ground:
        return energy - lv.e_min
    if entropy >= lv.log_d:
        return energy - lv.energy(0.0)
    beta = _root_on_side(lambda b: lv.entropy(b) - entropy, 1.0, 1.0 / lv.span)
    return energy - lv.energy(beta)


def ref_verdict(lv: Levels, energy: float, entropy: float):
    """'inside' / 'outside', or None within EDGE_MARGIN of an edge."""
    m = EDGE_MARGIN
    if energy < lv.e_min - m or energy > lv.e_max + m:
        return "outside"
    if min(abs(energy - lv.e_min), abs(energy - lv.e_max)) <= m:
        return None
    if entropy < -m:
        return "outside"
    if abs(entropy) <= m:
        return None
    s_max = ref_s_max(lv, energy)
    if abs(entropy - s_max) <= m:
        return None
    return "outside" if entropy > s_max else "inside"


def ref_beta_eff(lv: Levels, b1: float, b2: float) -> float:
    _, e1, s1 = lv.point(b1)
    _, e2, s2 = lv.point(b2)
    return (s1 - s2) / (e1 - e2)


def ref_rate(lv: Levels, y_rho, y_sigma, grid: int = 20_000) -> float:
    """Largest r with y_rho - r y_sigma in the cone, for extensive points
    y = (n, E, S): the least ratio M(rho) / M(sigma) over the cone's
    monotones with M(sigma) > 0. These are the entropy, the two edge
    monotones and the athermalities A_b(y) = b E - S + n log Z_b, whose
    minimum over b is taken on a dense beta = tan(theta) grid and then
    refined with scipy's bounded Brent search."""
    (n_r, e_r, s_r), (n_s, e_s, s_s) = y_rho, y_sigma
    floor = 1e-12 * max(1.0, abs(n_r), abs(n_s))
    pairs = [(s_r, s_s), (e_r - n_r * lv.e_min, e_s - n_s * lv.e_min), (n_r * lv.e_max - e_r, n_s * lv.e_max - e_s)]
    rates = [max(a, 0.0) / b for a, b in pairs if b > floor * (1.0 + lv.span)]

    def ratios(betas):
        log_z = ref.thermal(lv.e, lv.g, betas)[0]
        num = betas * e_r - s_r + n_r * log_z
        den = betas * e_s - s_s + n_s * log_z
        return np.where(den > floor, np.maximum(num, 0.0) / np.where(den > floor, den, 1.0), np.inf)

    betas = np.tan(np.linspace(-0.5 * math.pi, 0.5 * math.pi, grid + 1)[1:-1]) / lv.span
    on_grid = ratios(betas)
    i = int(np.argmin(on_grid))
    if math.isfinite(on_grid[i]):
        lo, hi = betas[max(0, i - 1)], betas[min(betas.size - 1, i + 1)]
        best = minimize_scalar(lambda b: float(ratios(np.array([b]))[0]), bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-12 * max(1.0, abs(lo), abs(hi))})
        rates.append(min(float(on_grid[i]), float(best.fun)))
    return min(rates)


def _rate(failures, lv, y_rho, y_sigma, bisect):
    want = ref_rate(lv, y_rho, y_sigma)
    _close(failures, "r_max.reference", bisect, want, RATE_GAP * max(1.0, want))


def _close(failures, name, got, want, tol):
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        failures.append(f"{name}: got {got!r}, reference {want!r}, tolerance {tol:.3g}")


def _rel(want: float, rel: float, floor: float = 1.0) -> float:
    return rel * max(floor, abs(want))


# ---------------------------------------------------------------------------
# Shared physics checks
# ---------------------------------------------------------------------------


def _exchange(failures, lv, x_rho, x_sigma, beta1, beta2, work, heat, beta_eff, m_over_n, reversed_, rel):
    b = ref_beta_eff(lv, beta1, beta2)
    _close(failures, "exchange.beta_eff", beta_eff, b, _rel(b, rel))
    # athermality form: W = (A_b(rho) - A_b(sigma)) / b with A_b(x) = b E - S + log Z_b
    log_z = lv.point(b)[0]
    a_rho = b * x_rho[0] - x_rho[1] + log_z
    a_sigma = b * x_sigma[0] - x_sigma[1] + log_z
    w_ref = (a_rho - a_sigma) / b
    _close(failures, "exchange.work", work, w_ref, _rel(w_ref, rel, lv.span))
    _close(failures, "exchange.first_law", heat - work, x_sigma[0] - x_rho[0], 1e-10 * max(1.0, abs(work), abs(heat)))
    ds_res = lv.entropy(beta1) - lv.entropy(beta2)
    m_ref = (x_sigma[1] - x_rho[1]) / ds_res
    _close(failures, "exchange.m_over_n", m_over_n, m_ref, _rel(m_ref, rel))
    if reversed_ != (work < 0):
        failures.append(f"exchange.battery_reversed: {reversed_!r} with W = {work!r}")


def _engine(failures, lv, betas, eta_engine, eta_refrigerator, rel):
    b_cold, b_less_cold, b_less_hot, b_hot = betas
    b_c = ref_beta_eff(lv, b_cold, b_less_cold)
    b_h = ref_beta_eff(lv, b_hot, b_less_hot)
    _close(failures, "engine.eta_engine", eta_engine, 1.0 - b_h / b_c, _rel(1.0, rel))
    _close(failures, "engine.eta_refrigerator", eta_refrigerator, 1.0 / (b_c / b_h - 1.0), _rel(1.0 / (b_c / b_h - 1.0), rel))
    if not 0.0 < eta_engine < 1.0 - b_hot / b_cold:
        failures.append(f"engine.carnot: eta_engine {eta_engine!r} not in (0, {1.0 - b_hot / b_cold!r})")


def _protocol(failures, d, r):
    n, k = d["n"], d["k"]
    src_outcomes, p_src = ref.typical_recount(d["p"], n)
    tgt_outcomes, p_tgt = ref.typical_recount(d["q"], n)
    for key, want in (("source_outcomes", src_outcomes), ("target_outcomes", tgt_outcomes),
                      ("enumerated_items", src_outcomes << k), ("n", n), ("ancilla_bits", k)):
        if r[key] != want:
            failures.append(f"protocol.{key}: got {r[key]!r}, recount {want!r}")
    _close(failures, "protocol.P_typ_source", r["P_typ_source"], p_src, 1e-10)
    _close(failures, "protocol.P_typ_target", r["P_typ_target"], p_tgt, 1e-10)
    if not r["map_distance"] <= r["l1_bound"] * (1 + PRINTED) + 1e-12:
        failures.append(f"protocol.l1_bound: map_distance {r['map_distance']!r} > {r['l1_bound']!r}")
    if not r["max_fiber"] <= r["fibre_size_bound"] * (1 + PRINTED):
        failures.append(f"protocol.fibre_bound: max_fiber {r['max_fiber']!r} > {r['fibre_size_bound']!r}")
    lo = 0.5 * (1.0 - p_tgt) - 1e-10
    hi = min(1.0, r["map_distance"] + (1.0 - p_src) + (1.0 - p_tgt)) + 1e-10
    if not lo <= r["distance"] <= hi:
        failures.append(f"protocol.distance_bounds: {r['distance']!r} not in [{lo!r}, {hi!r}]")


def _doubling(failures, d, k, ratio, sizes, exponent, rel):
    want_sizes, want_k, want_ratio, _ = ref.doubling_profile(d["levels"], d["delta"], d["k_max"])
    if want_k is None:
        failures.append("doubling.k: reference finds no k, program returned one")
        return
    if k != want_k or list(sizes) != want_sizes:
        failures.append(f"doubling.sizes: got k={k!r} sizes={list(sizes)!r}, reference k={want_k} sizes={want_sizes}")
    _close(failures, "doubling.ratio", ratio, want_ratio, _rel(want_ratio, rel, 0.0))
    if len(want_sizes) >= 2 and want_sizes[-1] > want_sizes[0]:
        x = np.log(np.arange(1, len(want_sizes) + 1, dtype=float))
        want_exp = float(np.polyfit(x, np.log(np.asarray(want_sizes, dtype=float)), 1)[0])
    else:
        want_exp = 0.0
    _close(failures, "doubling.growth_exponent", exponent, want_exp, 1e-9)


def _dilation(failures, d, r):
    base = np.array(d["m_levels"])
    levels = np.array(d["energies"])
    minus = np.unique(np.subtract.outer(base, levels)).size
    plus = np.unique(np.add.outer(base, levels)).size
    dim = len(levels)
    want_dim = {"incoherent-target": dim * minus, "incoherent-source": dim * plus,
                "composed": dim * max(minus, plus)}[d["case"]]
    if r["case"] != d["case"]:
        failures.append(f"dilation.case: got {r['case']!r}, inputs make it {d['case']!r}")
    if r["total_dimension"] != want_dim:
        failures.append(f"dilation.total_dimension: got {r['total_dimension']!r}, expected {want_dim}")
    if not r["commutation_residual"] <= 1e-10:
        failures.append(f"dilation.commutation_residual: {r['commutation_residual']!r} > 1e-10")
    bound = (4.0 if d["case"] == "composed" else 2.0) * d["delta"]
    if not r["output_distance"] <= bound * (1 + PRINTED):
        failures.append(f"dilation.output_distance: {r['output_distance']!r} > {bound!r}")
    if not all(0.0 < f <= 1.0 + 1e-12 for f in r["deficit_factors"]):
        failures.append(f"dilation.deficit_factors: {r['deficit_factors']!r} outside (0, 1]")


def _verdict(failures, lv, energy, entropy, got):
    want = ref_verdict(lv, energy, entropy)
    if want is not None and got != want:
        failures.append(f"membership: ({energy!r}, {entropy!r}) got {got!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------


def question(q, r) -> list[str]:
    failures: list[str] = []
    lv = Levels(q["levels"])
    x = {}
    for name in ("rho", "sigma"):
        x[name] = ref.macrostate(q[name], lv.expanded)
        got = r["x_" + name]
        _close(failures, f"macrostate.{name}.E", got[0], x[name][0], 1e-12 * max(1.0, float(np.abs(lv.e).max())))
        _close(failures, f"macrostate.{name}.S", got[1], x[name][1], 1e-11)
    points = [x["rho"], x["sigma"]] + [tuple(p) for p in q["points"]]
    for (energy, entropy), got in zip(points, r["verdicts"]):
        _verdict(failures, lv, energy, entropy, got)
    for name, got in zip(("rho", "sigma"), r["w_max"]):
        want = ref_w_max(lv, *x[name])
        _close(failures, f"w_max.{name}", got, want, 1e-9 * max(1.0, lv.span))
    bisect, monotone, gap = r["rate"]
    if not (gap <= RATE_GAP and abs(bisect - monotone) <= RATE_GAP):
        failures.append(f"r_max.agreement_gap: {gap!r} (bisect {bisect!r}, monotone {monotone!r})")
    _rate(failures, lv, (1.0, *x["rho"]), (1.0, *x["sigma"]), bisect)
    if q["balanced_qubit"]:
        _close(failures, "r_max.qubit_closed_form", bisect, 1.0 - x["rho"][1] / math.log(2.0), RATE_GAP)
    _exchange(failures, lv, x["rho"], x["sigma"], q["beta1"], q["beta2"], *r["exchange"], rel=1e-8)
    _engine(failures, lv, q["engine"], *r["engine"], rel=1e-8)
    return failures


def protocol(d, r) -> list[str]:
    failures: list[str] = []
    _protocol(failures, d, r)
    return failures


def protocol_convergence(datas, results) -> list[str]:
    first, last = results[0]["distance"], results[-1]["distance"]
    if not last < first:
        return [f"protocol.convergence: distance at n={datas[-1]['n']} ({last!r}) not below n={datas[0]['n']} ({first!r})"]
    return []


def doubling(d, r) -> list[str]:
    failures: list[str] = []
    _doubling(failures, d, r["k"], r["ratio"], r["sizes"], r["growth_exponent"], rel=0.0)
    return failures


def dilation(d, r) -> list[str]:
    failures: list[str] = []
    _dilation(failures, d, r)
    return failures


# ---------------------------------------------------------------------------
# cli workload: outputs re-derived within the print precision
# ---------------------------------------------------------------------------


def _parse(text: str, fmt: str = "json"):
    if fmt == "json":
        return json.loads(text)
    header, *rows = text.strip().split("\n")
    cols = header.split(",")
    return [dict(zip(cols, row.split(","))) for row in rows]


def cli_curve(d, text) -> list[str]:
    rows = _parse(text, d["format"])
    lv = Levels(d["levels"])
    betas = np.linspace(d["beta_min"], d["beta_max"], d["samples"])
    if len(rows) != betas.size:
        return [f"curve.samples: got {len(rows)} rows, expected {betas.size}"]
    log_z, energy, entropy = ref.thermal(lv.e, lv.g, betas)
    failures = []
    for col, want in (("beta", betas), ("logZ", log_z), ("E", energy), ("S", entropy)):
        got = np.array([float(row[col]) for row in rows])
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        worst = int(np.argmax(err))
        if err[worst] > PRINTED:
            failures.append(f"curve.{col}: row {worst} got {got[worst]!r}, reference {want[worst]!r}")
    return failures


def cli_member(d, text) -> list[str]:
    out = _parse(text, d["format"])
    out = out if isinstance(out, dict) else out[0]
    verdict = out["verdict"]
    member = out["member"] in (True, "True")
    failures: list[str] = []
    if member != (verdict != "outside"):
        failures.append(f"member.flag: member={out['member']!r} with verdict {verdict!r}")
    _verdict(failures, Levels(d["levels"]), d["E"], d["S"], verdict)
    return failures


def cli_wmax(d, text) -> list[str]:
    lv = Levels(d["levels"])
    want = ref_w_max(lv, *ref.macrostate(d["rho"], lv.expanded))
    failures: list[str] = []
    _close(failures, "w_max", _parse(text)["w_max"], want, 1e-9 * max(1.0, lv.span))
    return failures


def cli_rate(d, text) -> list[str]:
    out = _parse(text)
    failures: list[str] = []
    if not out["agreement_gap"] <= RATE_GAP:
        failures.append(f"r_max.agreement_gap: {out['agreement_gap']!r}")
    lv = Levels(d["levels"])
    if d["midpoint_entropy"] is not None:
        want = 1.0 - d["midpoint_entropy"] / lv.log_d
        _close(failures, "r_max.midpoint_closed_form", out["rate_bisect"], want, RATE_GAP)
        e_mix = float(np.mean(lv.expanded))
        _rate(failures, lv, (1.0, e_mix, d["midpoint_entropy"]), (1.0, e_mix, 0.0), out["rate_bisect"])
    else:
        x_rho = ref.macrostate(d["rho"], lv.expanded)
        x_sigma = ref.macrostate(d["sigma"], lv.expanded)
        _rate(failures, lv, (1.0, *x_rho), (1.0, *x_sigma), out["rate_bisect"])
    return failures


def cli_exchange(d, text) -> list[str]:
    out = _parse(text)
    lv = Levels(d["levels"])
    x_rho = ref.macrostate(d["rho"], lv.expanded)
    x_sigma = ref.macrostate(d["sigma"], lv.expanded)
    failures: list[str] = []
    _exchange(failures, lv, x_rho, x_sigma, d["beta1"], d["beta2"], out["W"], out["Q"], out["beta_eff"],
              out["m_over_n"], out["battery_reversed"], rel=1e-8)
    return failures


def cli_engine(d, text) -> list[str]:
    out = _parse(text)
    lv = Levels(d["levels"])
    failures: list[str] = []
    _engine(failures, lv, d["betas"], out["eta_engine"], out["eta_refrigerator"], rel=1e-8)
    q_cold = lv.energy(d["betas"][1]) - lv.energy(d["betas"][0])
    _close(failures, "engine.Q_cold", out["Q_cold"], q_cold, _rel(q_cold, PRINTED, lv.span))
    return failures


def cli_decompose(d, text) -> list[str]:
    out = _parse(text)
    lv = Levels(d["levels"])
    failures: list[str] = []
    for key, want in zip(("c_beta", "c_min", "c_max"), d["weights"]):
        _close(failures, f"decompose.{key}", out[key], want, 1e-9)
    _, e_beta, s_beta = lv.point(d["beta"])
    energy = out["c_beta"] * e_beta + out["c_min"] * lv.e_min + out["c_max"] * lv.e_max
    _close(failures, "decompose.energy", energy, d["E"], 1e-9 * max(1.0, lv.span))
    _close(failures, "decompose.entropy", out["c_beta"] * s_beta, d["S"], 1e-9)
    return failures


def cli_protocol(d, text) -> list[str]:
    failures: list[str] = []
    _protocol(failures, d, _parse(text))
    return failures


def cli_coarse(d, text) -> list[str]:
    out = _parse(text)
    p, q = np.array(d["p"]), np.array(d["q"])
    assignment = np.array(out["assignment"])
    failures: list[str] = []
    if assignment.size != p.size or assignment.min() < 0 or assignment.max() >= q.size:
        return [f"coarse.assignment: {out['assignment']!r} is not a map onto {q.size} targets"]
    push = np.bincount(assignment, weights=p, minlength=q.size)
    fibers = np.bincount(assignment, minlength=q.size)
    if list(fibers) != out["fiber_sizes"] or int(fibers.max()) != out["max_fiber"]:
        failures.append(f"coarse.fiber_sizes: got {out['fiber_sizes']!r}, recomputed {fibers.tolist()!r}")
    got_push = np.array(out["pushforward"])
    if not np.all(np.abs(got_push - push) <= PRINTED * np.maximum(1.0, push)):
        failures.append(f"coarse.pushforward: got {out['pushforward']!r}, recomputed {push.tolist()!r}")
    distance = 0.5 * float(np.abs(push - q).sum())
    _close(failures, "coarse.distance", out["distance"], distance, 1e-10)
    l1_bound = q.size * float(p.max())
    fibre_bound = (float(q.max()) + float(p.max())) / float(p[p > 0].min())
    _close(failures, "coarse.l1_bound", out["l1_bound"], l1_bound, _rel(l1_bound, PRINTED))
    _close(failures, "coarse.fibre_size_bound", out["fibre_size_bound"], fibre_bound, _rel(fibre_bound, PRINTED))
    if not distance <= l1_bound * (1 + PRINTED):
        failures.append(f"coarse.l1_bound: distance {distance!r} > {l1_bound!r}")
    if not int(fibers.max()) <= fibre_bound * (1 + PRINTED):
        failures.append(f"coarse.fibre_bound: max fiber {int(fibers.max())} > {fibre_bound!r}")
    return failures


def cli_sumset(d, text) -> list[str]:
    out = _parse(text)
    failures: list[str] = []
    _doubling(failures, d, out["k"], out["ratio"], out["sizes"], out["growth_exponent"], rel=PRINTED)
    return failures


def cli_dilate(d, text) -> list[str]:
    out = _parse(text)
    failures: list[str] = []
    _dilation(failures, d, out)
    return failures


def byte_identical(datas, results) -> list[str]:
    if results[0] != results[-1]:
        return [f"cli.byte_identical: repeated call printed different output ({datas[0]['argv'][0]})"]
    return []
