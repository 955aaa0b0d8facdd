"""Reference computations made apart from thermocone.

Input generation and the output checks both use these. They rely on
numpy and the standard library only (no scipy, so that generating inputs
does not inflate the worker's peak memory), and they never import
thermocone: every value here is derived from the definitions in the
paper, not from the program's code paths.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Thermal curve
# ---------------------------------------------------------------------------


def log_sum_exp(w: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(w, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(w - m), axis=axis))


def thermal(energies, degeneracies, betas):
    """(log Z, E, S) of the thermal state at each beta, by log-sum-exp.

    Entropy uses the identity S = log Z + beta E rather than a sum over
    probabilities, so it shares no formula with the program.
    """
    e = np.asarray(energies, dtype=float)
    g = np.asarray(degeneracies, dtype=float)
    b = np.atleast_1d(np.asarray(betas, dtype=float))
    w = -np.outer(b, e) + np.log(g)
    log_z = log_sum_exp(w, axis=1)
    p = np.exp(w - log_z[:, None])
    energy = p @ e
    return log_z, energy, log_z + b * energy


def thermal1(energies, degeneracies, beta: float) -> tuple[float, float, float]:
    log_z, energy, entropy = thermal(energies, degeneracies, [beta])
    return float(log_z[0]), float(energy[0]), float(entropy[0])


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def macrostate(rho: np.ndarray, expanded_energies) -> tuple[float, float]:
    """(tr(rho H), von Neumann entropy in nats) from numpy's eigvalsh."""
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-300]
    entropy = float(-np.sum(lam * np.log(lam)))
    energy = float(np.real(np.trace(rho @ np.diag(expanded_energies))))
    return energy, max(entropy, 0.0)


# ---------------------------------------------------------------------------
# Typical sets
# ---------------------------------------------------------------------------


def count_windows(probs, n: int) -> list[range]:
    """Admissible counts per symbol: |c - n p| <= sqrt(n ln n) p."""
    half = math.sqrt(n * math.log(n)) if n > 1 else 0.0
    out = []
    for p in probs:
        lo = max(0, math.ceil((n - half) * p - 1e-9))
        hi = min(n, math.floor((n + half) * p + 1e-9))
        out.append(range(lo, hi + 1))
    return out


def typical_recount(probs, n: int) -> tuple[int, float]:
    """(number of typical outcomes, their total probability) by brute
    force over the product of the count windows."""
    outcomes = 0
    masses = []
    for counts in itertools.product(*count_windows(probs, n)):
        if sum(counts) != n:
            continue
        mult = math.factorial(n)
        for c in counts:
            mult //= math.factorial(c)
        outcomes += mult
        masses.append(mult * math.prod(p**c for p, c in zip(probs, counts)))
    return outcomes, math.fsum(masses)


# ---------------------------------------------------------------------------
# Sumsets
# ---------------------------------------------------------------------------


def integer_levels(values) -> np.ndarray:
    """Rescale rationals by the lcm of their denominators to int64."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return np.unique(np.array([int(f * den) for f in fracs], dtype=np.int64))


def doubling_profile(values, delta: float, k_max: int):
    """Sizes |kL| up to the first k with max(|kL+L|, |kL-L|) <= (1+delta)|kL|.

    Returns (sizes, k, ratio, work) with k = None when no k <= k_max
    qualifies; ``work`` counts the pairwise sums a direct evaluation does,
    a size proxy for the operation.
    """
    base = integer_levels(values)
    current = base
    sizes: list[int] = []
    work = 0
    for k in range(1, k_max + 1):
        sizes.append(int(current.size))
        plus = np.unique(np.add.outer(current, base))
        minus = np.unique(np.subtract.outer(current, base))
        work += 2 * current.size * base.size
        ratio = max(plus.size, minus.size) / current.size
        if ratio <= 1.0 + delta:
            return sizes, k, ratio, work
        work += current.size * base.size
        current = plus
    return sizes, None, None, work


def window_level_set(rng: np.random.Generator, n_energies: int) -> list[Fraction]:
    """Level set built like typical energy windows: sums c_i e_i with each
    count c_i in a window of three around a small center."""
    energies = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5))) for _ in range(n_energies)]
    centers = [int(c) for c in rng.integers(2, 5, size=n_energies)]
    windows = [range(c - 1, c + 2) for c in centers]
    return sorted({sum(c * e for c, e in zip(cs, energies)) for cs in itertools.product(*windows)})
