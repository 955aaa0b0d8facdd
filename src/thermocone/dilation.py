"""Energy-preserving dilation of an arbitrary unitary at small scale.

A unitary that moves a state between energy levels cannot itself commute
with the Hamiltonian, but padding the system with an ancilla that is
wide enough in energy (its levels carry a sumset M -/+ L of the system's
level set L) and starts in a uniform superposition psi makes an
energy-preserving partial isometry act like the original unitary up to a
deficit factor |M| / |M -/+ L|:

  incoherent target:  V = sum_{h in M} P_a U P_b (x) |h - a><h - b|
  incoherent source:  V = sum_{h in M} P_a U P_b (x) |h + b><h + a|

Every energy is an exact integer over one shared denominator. V is
written by one indexed assignment from a d x |M| table of the ancilla
indices of h -/+ e_l; a zero of U leaves +0.0 in V. V is completed to a
genuine unitary block by block in exact total energy (the polar factor
of each block, one batched SVD per block size), so the resulting channel
is trace preserving and exactly energy preserving. As psi is uniform,
the output needs only each column's sum over the input ancilla, and one
einsum takes the partial trace. When neither endpoint is free
of energy coherences, the map is composed through an energy-diagonal
intermediate carrying the source spectrum, doubling the deficit budget.
Distances here are trace distances (half the trace norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .sumsets import LevelSet, minkowski_diff, minkowski_sum
from .system import HamiltonianSpec, QuantumState

__all__ = ["DilationReport", "build_energy_preserving_dilation"]

MAX_JOINT_DIMENSION = 256
_OFFBLOCK_TOL = 1e-12


@dataclass(frozen=True)
class DilationReport:
    """What the constructed dilation actually achieved.

    ``commutation_residual`` is the largest matrix element of the partial
    isometry connecting joint basis states of different total energy
    (exact rational bookkeeping, so structurally zero).
    ``output_distance`` is the trace distance between the channel output
    and the target state; ``deficit_factors`` are the per-step weights
    |M| / |M -/+ L| that passed through the isometry itself.
    """

    total_dimension: int
    commutation_residual: float
    output_distance: float
    delta: float
    case: str
    deficit_factors: tuple[float, ...]


def _trace_distance(x: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (x + x.conj().T))).sum())


def _density_matrix(state: QuantumState, h: HamiltonianSpec, name: str) -> np.ndarray:
    """``state``'s density matrix, which its construction checked; only the dimension is left."""
    if state.matrix is None:
        raise ValidationError("need-matrix-form", f"{name} must be given as a density matrix")
    if state.matrix.shape[0] != h.dim:
        raise ValidationError("dimension-mismatch", f"{name} dimension {state.matrix.shape[0]} != {h.dim}")
    return state.matrix


def _is_energy_incoherent(a: np.ndarray, level_of: np.ndarray) -> bool:
    offblock = np.not_equal.outer(level_of, level_of)
    return float(np.abs(a[offblock]).max(initial=0.0)) <= _OFFBLOCK_TOL


def _apply_case(
    u: np.ndarray, state: np.ndarray, energies: np.ndarray, anc: LevelSet, m_levels: LevelSet, case: str
) -> tuple[np.ndarray, float, float]:
    """Run one single-case step.

    Returns (channel output through the completed unitary, off-block
    residual of the isometry, weight that passed through the isometry).
    """
    d = u.shape[0]
    a_dim = len(anc)
    # system levels, ancilla and M as integers over one shared denominator
    ratios = [e.as_integer_ratio() for e in energies.tolist()]
    den = math.lcm(anc.den, m_levels.den, *(q for _, q in ratios))
    levels = [p * (den // q) for p, q in ratios]
    anc_values = [n * (den // anc.den) for n in anc.nums]
    anc_index = {v: i for i, v in enumerate(anc_values)}
    # table[l, h]: the ancilla index of h - e_l (target) or h + e_l (source), h in M. U's entry (a, b)
    # goes to V at row (a, table[a, h]), column (b, table[b, h]) (target), or (a, table[b, h]), (b, table[a, h])
    sign = -1 if case == "incoherent-target" else 1
    table = np.array([[anc_index[n * (den // m_levels.den) + sign * e] for n in m_levels.nums] for e in levels])
    out_anc, in_anc = (table[:, None], table[None]) if sign < 0 else (table[None], table[:, None])
    base = np.arange(d) * a_dim
    vt = np.zeros((d * a_dim, d * a_dim), dtype=complex)
    # a zero of U, signed or not, leaves +0.0 in V: a rank-deficient block's completion follows its zeros' signs
    vt[base[:, None, None] + out_anc, base[None, :, None] + in_anc] = np.where(u == 0, 0, u)[..., None]

    # exact total-energy blocks, then residual and blockwise completion
    blocks: dict[int, list[int]] = {}
    for k, total in enumerate(e + v for e in levels for v in anc_values):
        blocks.setdefault(total, []).append(k)
    ut = np.zeros_like(vt)
    offblock = vt.copy()
    for size in {len(b) for b in blocks.values()}:
        idx = np.array([b for b in blocks.values() if len(b) == size])
        rows, cols = idx[:, :, None], idx[:, None, :]
        ub, _s, vhb = np.linalg.svd(vt[rows, cols])
        ut[rows, cols] = ub @ vhb
        offblock[rows, cols] = 0.0
    residual = float(np.abs(offblock).max(initial=0.0))

    # psi is uniform, so X(|j> (x) psi) = W[..., j] = psi_a * sum_a X[:, (j, a)]
    psi_a = 1.0 / math.sqrt(a_dim)
    w_ut, w_vt = (x.reshape(d, a_dim, d, a_dim).sum(3) * psi_a for x in (ut, vt))
    output = np.einsum("ibj,jl,kbl->ik", w_ut, state, w_ut.conj())
    passed = float(np.vdot(w_vt, w_vt @ state).real)
    return output, residual, passed


def build_energy_preserving_dilation(
    h: HamiltonianSpec,
    unitary,
    rho: QuantumState,
    sigma: QuantumState,
    m_levels: LevelSet,
    delta: float,
) -> DilationReport:
    """Replace ``unitary`` (which must carry rho to within ``delta`` of
    sigma in trace distance) by an energy-preserving unitary on system
    plus ancilla, and measure what the resulting channel does.

    The level sets must satisfy |M + L| <= (1+delta)|M|,
    |M - L| <= (1+delta)|M| and max|L| <= max|M|; the achieved output
    distance is then at most 2*delta for a single-case run and 4*delta
    for the composed general case.
    """
    if not 0.0 < delta < 1.0:
        raise ValidationError("bad-delta", f"delta must be in (0, 1), got {delta}")
    u = np.asarray(unitary, dtype=complex)
    d = h.dim
    if u.shape != (d, d):
        raise ValidationError("dimension-mismatch", f"unitary shape {u.shape} != ({d}, {d})")
    # NaN fails the comparison, so test finiteness first and require <=
    if not (np.isfinite(u).all() and float(np.abs(u.conj().T @ u - np.eye(d)).max()) <= 1e-10):
        raise ValidationError("not-unitary", "unitary fails U^dag U = 1")

    rho_m = _density_matrix(rho, h, "rho")
    sigma_m = _density_matrix(sigma, h, "sigma")
    mapped = u @ rho_m @ u.conj().T
    err = _trace_distance(mapped - sigma_m)
    if err > delta + 1e-12:
        raise DomainError(
            "precondition-distance",
            f"U rho U^dag is {err:.3g} from sigma in trace distance, above delta = {delta}",
        )

    level_set = LevelSet(e for e, _ in h.levels)
    if level_set.magnitude() > m_levels.magnitude():
        raise DomainError("level-magnitude", "need max|L| <= max|M|")
    m_plus = minkowski_sum(m_levels, level_set)
    m_minus = minkowski_diff(m_levels, level_set)
    for name, grown in (("M+L", m_plus), ("M-L", m_minus)):
        if len(grown) > (1.0 + delta) * len(m_levels):
            raise DomainError(
                "sumset-growth",
                f"|{name}| = {len(grown)} exceeds (1+delta)|M| = {(1 + delta) * len(m_levels):.6g}",
            )
    for anc in (m_plus, m_minus):
        if d * len(anc) > MAX_JOINT_DIMENSION:
            raise DomainError(
                "dimension-cap", f"joint dimension {d * len(anc)} exceeds {MAX_JOINT_DIMENSION}"
            )

    levels = h.expanded_energies()
    if _is_energy_incoherent(sigma_m, levels):
        out, residual, passed = _apply_case(u, rho_m, levels, m_minus, m_levels, "incoherent-target")
        case, factors = "incoherent-target", (passed,)
        dims = d * len(m_minus)
    elif _is_energy_incoherent(rho_m, levels):
        out, residual, passed = _apply_case(u, rho_m, levels, m_plus, m_levels, "incoherent-source")
        case, factors = "incoherent-source", (passed,)
        dims = d * len(m_plus)
    else:
        # route through an energy-diagonal intermediate with rho's spectrum
        w, v = np.linalg.eigh(rho_m)
        mid, res1, f1 = _apply_case(v.conj().T, rho_m, levels, m_minus, m_levels, "incoherent-target")
        out, res2, f2 = _apply_case(u @ v, mid, levels, m_plus, m_levels, "incoherent-source")
        residual = max(res1, res2)
        case, factors = "composed", (f1, f2)
        dims = d * max(len(m_minus), len(m_plus))

    return DilationReport(
        total_dimension=dims,
        commutation_residual=residual,
        output_distance=_trace_distance(out - sigma_m),
        delta=delta,
        case=case,
        deficit_factors=factors,
    )
