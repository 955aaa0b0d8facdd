"""Self-contained numerical kernels: Hermitian eigenvalues, and one
iteration, a safeguarded Newton step, serving both bracketed root finding
and 1-D minimization (grid scan plus Newton on the slope).

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
    if not np.isfinite(a).all():
        i, j = map(int, np.argwhere(~np.isfinite(a))[0])
        raise ValidationError("non-finite-entry", f"entry ({i},{j})={a[i, j]} is not finite")
    scale = float(np.abs(a).max(initial=1.0))
    bad = np.abs(a - a.conj().T) > tol * scale
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
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


def solve_root_bracketed(f: Callable, bracket: Bracket, x0: Optional[float] = None) -> float:
    """Root of ``f`` inside ``bracket`` by safeguarded Newton steps.

    ``f`` returns (f(x), f'(x)). Requires a sign change (or an exact zero)
    on the endpoints. Steps start from ``x0``, clamped to the bracket
    (default: the endpoint with the smaller |f|). A step that leaves the
    bracket, or follows one that failed to halve |f|, becomes a bisection;
    one that follows a same-sign step that cut |f| less than tenfold is
    doubled. It stops at a step below the tolerance, or when a
    rounding-size step fails to halve |f|.
    """
    a, b = bracket.lo, bracket.hi
    ya, yb = f(a), f(b)
    fa, fb = float(ya[0]), float(yb[0])
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise DomainError("bad-bracket-signs", f"f({a})={fa:.6g} and f({b})={fb:.6g} have the same sign")
    tol = max(bracket.tolerance, 4.0 * _EPS * max(1.0, abs(a), abs(b)))
    x0 = (a if abs(fa) <= abs(fb) else b) if x0 is None else min(max(x0, a), b)
    y0 = ya if x0 == a else yb if x0 == b else f(x0)
    return _newton(f, (a, b) if fa < 0 else (b, a), x0, y0, tol)


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
    f: Callable[[float], tuple[float, float, float]],
    grid: Sequence[float],
    refine_tol: float = 1e-10,
) -> tuple[float, float]:
    """Minimize ``f``, which returns (f(x), f'(x), f''(x)): coarse scan
    over ``grid``, then a Newton root of f' inside the best grid cell.

    The cell runs from the best sample towards the neighbour whose slope
    has the opposite sign; without one (the best sample is stationary, at
    a grid end sloping outwards, or flanked by a slope of the same sign)
    the sample is returned as it is. The grid guards against local minima
    of non-convex objectives; the returned minimum never exceeds any grid
    sample. Returns ``(argmin, minimum)``.
    """
    xs = sorted(float(x) for x in grid)
    if len(xs) < 3 or xs[0] == xs[-1]:
        raise ValidationError("bad-grid", "need at least 3 distinct grid points")
    ys = [tuple(map(float, f(x))) for x in xs]
    i = int(np.argmin([y[0] for y in ys]))
    best_x, (best_y, slope, _) = xs[i], ys[i]

    j = i + 1 if slope < 0.0 else i - 1 if slope > 0.0 else -1
    if not (0 <= j < len(xs) and ys[j][1] * slope < 0.0):
        return best_x, best_y
    tol = max(refine_tol, 4.0 * _EPS * max(1.0, abs(best_x), abs(xs[j])))
    signs = (best_x, xs[j]) if slope < 0.0 else (xs[j], best_x)
    x = _newton(lambda t: f(t)[1:], signs, best_x, ys[i][1:], tol)
    y = float(f(x)[0])
    return (x, y) if y <= best_y else (best_x, best_y)
