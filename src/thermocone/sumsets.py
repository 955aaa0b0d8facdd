"""Exact-rational energy-level sets and their Minkowski sumset
arithmetic.

Sumset growth controls how large an energy-absorbing ancilla must be:
an ancilla carrying the k-fold sumset of the level set can absorb any
level difference as soon as one more summand barely grows the set, and
for level sets built from typical energy windows the growth is
polynomial in k, so a suitable k always exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "LevelSet",
    "minkowski_sum",
    "minkowski_diff",
    "k_fold",
    "SumsetGrowthReport",
    "find_doubling_k",
]


@dataclass(frozen=True)
class LevelSet:
    """A finite set of exact rational energies, deduplicated and sorted."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(sorted(set(Fraction(v) for v in self.values)))
        if not vals:
            raise ValidationError("empty-level-set", "need at least one level")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_energies(cls, energies: Iterable) -> "LevelSet":
        """Build from numbers; floats convert to their exact binary value."""
        return cls(tuple(Fraction(e) for e in energies))

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value) -> bool:
        return Fraction(value) in set(self.values)

    def magnitude(self) -> Fraction:
        """max |value|; the operator-norm analogue for a diagonal set."""
        return max(abs(v) for v in self.values)

    def negated(self) -> "LevelSet":
        return LevelSet(tuple(-v for v in self.values))

    def symmetrized(self) -> "LevelSet":
        """values, their negatives, and zero."""
        return LevelSet(self.values + tuple(-v for v in self.values) + (Fraction(0),))


def minkowski_sum(a: LevelSet, b: LevelSet) -> LevelSet:
    """{x + y}; at most |a|*|b| values after deduplication."""
    return LevelSet(tuple(x + y for x in a.values for y in b.values))


def minkowski_diff(a: LevelSet, b: LevelSet) -> LevelSet:
    """{x - y}."""
    return LevelSet(tuple(x - y for x in a.values for y in b.values))


def k_fold(l: LevelSet, k: int) -> LevelSet:
    """The k-fold sumset l + ... + l, deduplicating at every step."""
    if k < 1:
        raise ValidationError("bad-k", "k must be >= 1")
    out = l
    for _ in range(k - 1):
        out = minkowski_sum(out, l)
    return out


@dataclass(frozen=True)
class SumsetGrowthReport:
    """Sizes |kL| for k = 1..k_max, the fitted log-log growth exponent,
    and the chosen k with its achieved growth ratio."""

    sizes: tuple[int, ...]
    growth_exponent: float
    k: int
    ratio: float


def find_doubling_k(l: LevelSet, delta: float, k_max: int) -> tuple[int, float, SumsetGrowthReport]:
    """Smallest k <= k_max with |kL + L| <= (1+delta)|kL| and
    |kL - L| <= (1+delta)|kL|.

    Polynomial sumset growth guarantees such a k exists once k_max is
    large enough; the report carries all intermediate sizes and the
    fitted growth exponent as evidence.
    """
    if not 0.0 < delta < 1.0:
        raise ValidationError("bad-delta", f"delta must be in (0, 1), got {delta}")
    if k_max < 1:
        raise ValidationError("bad-k", "k_max must be >= 1")
    sizes: list[int] = []
    found: tuple[int, float] | None = None
    current = l
    for k in range(1, k_max + 1):
        sizes.append(len(current))
        plus = minkowski_sum(current, l)
        minus = minkowski_diff(current, l)
        ratio = max(len(plus), len(minus)) / len(current)
        if ratio <= 1.0 + delta:
            found = (k, ratio)
            break
        current = plus

    ks = np.arange(1, len(sizes) + 1, dtype=float)
    if len(sizes) >= 2 and sizes[-1] > sizes[0]:
        exponent = float(np.polyfit(np.log(ks), np.log(np.asarray(sizes, dtype=float)), 1)[0])
    else:
        exponent = 0.0
    report = SumsetGrowthReport(
        sizes=tuple(sizes),
        growth_exponent=exponent,
        k=found[0] if found else 0,
        ratio=found[1] if found else math.inf,
    )
    if found is None:
        raise DomainError(
            "no-doubling-k",
            f"no k <= {k_max} satisfies the (1+{delta}) growth condition; sizes = {sizes}",
        )
    return found[0], found[1], report
