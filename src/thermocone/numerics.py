"""Self-contained numerical kernels: Hermitian eigenvalues, bracketed
root finding, and 1-D minimization.

Everything here is a pure function of its inputs; the kernels are sized
for small dense problems (matrix dimension <= 64, scalar solves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError

_EPS = np.finfo(float).eps
_SQRT_EPS = math.sqrt(_EPS)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

__all__ = [
    "Bracket",
    "as_hermitian_matrix",
    "eigvals_hermitian",
    "solve_root_bracketed",
    "minimize_scalar",
]


def as_hermitian_matrix(m, tol: float = 1e-12) -> np.ndarray:
    """Validate and return ``m`` as a square complex Hermitian ndarray.

    Accepts anything ``np.asarray`` understands (including the wire format
    of nested ``[re, im]`` pairs, which callers decode to complex first).
    Raises ``ValidationError`` naming the first offending entry.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("matrix-shape", f"expected a square matrix, got shape {a.shape}")
    a = a.astype(complex)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    resid = a - a.conj().T
    bad = np.argwhere(np.abs(resid) > tol * scale)
    if bad.size:
        i, j = map(int, bad[0])
        raise ValidationError(
            "not-hermitian",
            f"entry ({i},{j})={a[i, j]:.6g} is not the conjugate of ({j},{i})={a[j, i]:.6g}",
        )
    return 0.5 * (a + a.conj().T)


def eigvals_hermitian(m) -> list[float]:
    """Eigenvalues of a Hermitian matrix, ascending (LAPACK ``eigvalsh``)."""
    return [float(x) for x in np.linalg.eigvalsh(as_hermitian_matrix(m))]


@dataclass(frozen=True)
class Bracket:
    """Closed interval known (or required) to straddle a root."""

    lo: float
    hi: float
    tolerance: float = 1e-13

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError("bad-bracket", "bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise ValidationError("bad-bracket", f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not self.tolerance > 0:
            raise ValidationError("bad-bracket", "tolerance must be positive")


def solve_root_bracketed(
    f: Callable, bracket: Bracket, derivative: bool = False, x0: Optional[float] = None
) -> float:
    """Root of ``f`` inside ``bracket``.

    Requires a sign change (or an exact zero) on the endpoints. By default
    ``f`` returns f(x) and the solver bisects with secant acceleration:
    the secant step is taken whenever it lands strictly inside the current
    interval; otherwise the interval is bisected, so the 200-iteration cap
    is never binding in practice.

    With ``derivative=True``, ``f`` returns (f(x), f'(x)) and the solver
    takes Newton steps from ``x0``, clamped to the bracket (default: the
    endpoint with the smaller |f|). A step that leaves the bracket, or follows one that failed to
    halve |f|, becomes a bisection; one that follows a same-sign step that
    cut |f| less than tenfold is doubled. It stops at a step below the
    tolerance, or when a rounding-size step fails to halve |f|.
    """
    a, b = bracket.lo, bracket.hi
    ya, yb = f(a), f(b)
    fa, fb = (float(ya[0]), float(yb[0])) if derivative else (float(ya), float(yb))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise DomainError("bad-bracket-signs", f"f({a})={fa:.6g} and f({b})={fb:.6g} have the same sign")
    tol = max(bracket.tolerance, 4.0 * _EPS * max(1.0, abs(a), abs(b)))
    if derivative:
        x0 = (a if abs(fa) <= abs(fb) else b) if x0 is None else min(max(x0, a), b)
        y0 = ya if x0 == a else yb if x0 == b else f(x0)
        return _newton(f, (a, b) if fa < 0 else (b, a), x0, y0, tol)

    widths = [b - a, b - a]
    for _ in range(200):
        width = b - a
        if width <= tol:
            break
        # secant step, but force a bisection whenever the bracket failed
        # to halve over the last two steps; plain secant can stagnate on
        # plateaus
        x_sec = None
        if width <= 0.5 * widths[0] and fb != fa:
            cand = b - fb * (b - a) / (fb - fa)
            if a + 0.01 * width < cand < b - 0.01 * width:
                x_sec = cand
        widths = [widths[1], width]
        x = x_sec if x_sec is not None else 0.5 * (a + b)
        fx = float(f(x))
        if fx == 0.0:
            return x
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return a if abs(fa) <= abs(fb) else b


def _newton(f, signs: tuple[float, float], x: float, y, tol: float) -> float:
    """Safeguarded Newton iteration from ``x`` with (f, f') = ``y``;
    ``signs`` holds the bracket ends where f < 0 and f > 0, in that order."""
    neg, pos = signs
    fx, dfx = map(float, y)
    # f where the last Newton step began (nan after a bisection), and its length
    f_from, step = math.nan, math.inf
    for _ in range(200):
        lo, hi = sorted((neg, pos))
        newton = math.isfinite(fx) and math.isfinite(dfx) and dfx != 0.0
        if newton and abs(fx) > 0.5 * abs(f_from):
            if step <= _SQRT_EPS * max(1.0, abs(x)):
                break  # a rounding-size step left |f| where it was: noise floor
            newton = False
        if newton:
            dx = -fx / dfx
            if fx * f_from > 0.0 and abs(fx) > 0.1 * abs(f_from) and lo <= x + 2.0 * dx <= hi:
                dx *= 2.0  # Newton is creeping along a bending curve
            newton = lo <= x + dx <= hi
        if newton:
            x, step, f_from = x + dx, abs(dx), fx
        else:
            x, step, f_from = 0.5 * (lo + hi), 0.5 * (hi - lo), math.nan
        if step <= tol:
            break
        fx, dfx = map(float, f(x))
        if fx == 0.0:
            break
        if fx < 0.0:
            neg = x
        else:
            pos = x
    return x


def minimize_scalar(
    f: Callable[[float], float],
    grid: Sequence[float],
    refine_tol: float = 1e-10,
) -> tuple[float, float]:
    """Minimize ``f``: coarse scan over ``grid``, then golden-section
    refinement inside the best grid cell.

    The grid guards against local minima of non-convex objectives; the
    returned minimum never exceeds any grid sample. Returns
    ``(argmin, minimum)``.
    """
    xs = sorted(float(x) for x in grid)
    if len(xs) < 3 or xs[0] == xs[-1]:
        raise ValidationError("bad-grid", "need at least 3 distinct grid points")
    ys = [float(f(x)) for x in xs]
    i = int(np.argmin(ys))
    best_x, best_y = xs[i], ys[i]

    lo = xs[max(0, i - 1)]
    hi = xs[min(len(xs) - 1, i + 1)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = float(f(x1)), float(f(x2))
    while hi - lo > refine_tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = float(f(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = float(f(x2))
    for x, y in ((x1, f1), (x2, f2)):
        if y < best_y:
            best_x, best_y = x, y
    return best_x, best_y
