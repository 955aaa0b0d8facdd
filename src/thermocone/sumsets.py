"""Energy-level sets of exact rationals held as integer numerators over
one shared denominator, and their Minkowski sumset arithmetic on those
integers.

Sumset growth controls how large an energy-absorbing ancilla must be:
an ancilla carrying the k-fold sumset of the level set can absorb any
level difference as soon as one more summand barely grows the set, and
for level sets built from typical energy windows the growth is
polynomial in k, so a suitable k always exists.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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


# admits the exact decimal value of every double, down to 2**-1074
_MAX_DECIMAL_EXPONENT = 1100


def _level(value) -> int | Fraction:
    """``value`` itself if it is an ``int`` or ``Fraction`` (exact type), else
    ``Fraction(value)``, refusing booleans and decimal exponents past
    ``_MAX_DECIMAL_EXPONENT`` (``Fraction`` would build 10**exponent)."""
    if type(value) in (int, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"a boolean is not a level: {value!r}")
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        if e and abs(int(exponent)) > _MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent of {value!r} exceeds {_MAX_DECIMAL_EXPONENT}")
    return Fraction(value)


@dataclass(frozen=True, init=False)
class LevelSet:
    """A finite set of exact rational energies, deduplicated and sorted; a
    float is taken at its exact binary value.

    Held as sorted distinct integers ``nums`` over one shared denominator
    ``den`` in lowest terms, so equal sets compare and hash equal.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, values: Iterable):
        try:
            fracs = [_level(v) for v in values]
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ValidationError("bad-level", f"levels must be finite rationals: {exc!r}") from exc
        if not fracs:
            raise ValidationError("empty-level-set", "need at least one level")
        den = math.lcm(*(f.denominator for f in fracs))
        self._assign({f.numerator * (den // f.denominator) for f in fracs}, den)

    def _assign(self, nums: set[int], den: int) -> "LevelSet":
        g = math.gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(sorted(n // g for n in nums)))
        object.__setattr__(self, "den", den // g)
        return self

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __contains__(self, value) -> bool:
        n, d = (Fraction(value) * self.den).as_integer_ratio()
        i = bisect.bisect_left(self.nums, n)
        return d == 1 and self.nums[i : i + 1] == (n,)

    def magnitude(self) -> Fraction:
        """max |value|; the operator-norm analogue for a diagonal set."""
        return Fraction(max(-self.nums[0], self.nums[-1]), self.den)


def _combine(op, a: LevelSet, b: LevelSet) -> LevelSet:
    """{op(x, y) : x in a, y in b}, over the denominator lcm(a.den, b.den)."""
    den = math.lcm(a.den, b.den)
    xs, ys = ([n * (den // l.den) for n in l.nums] for l in (a, b))
    return object.__new__(LevelSet)._assign(set(itertools.starmap(op, itertools.product(xs, ys))), den)


def minkowski_sum(a: LevelSet, b: LevelSet) -> LevelSet:
    """{x + y}; at most |a|*|b| values after deduplication."""
    return _combine(operator.add, a, b)


def minkowski_diff(a: LevelSet, b: LevelSet) -> LevelSet:
    """{x - y}."""
    return _combine(operator.sub, a, b)


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
    current = l
    for k in range(1, k_max + 1):
        sizes.append(len(current))
        plus = minkowski_sum(current, l)
        minus = minkowski_diff(current, l)
        ratio = max(len(plus), len(minus)) / len(current)
        if ratio <= 1.0 + delta:
            break
        current = plus
    else:
        condition = f"(1+{delta}) growth condition; sizes = {sizes}"
        raise DomainError("no-doubling-k", f"no k <= {k_max} satisfies the {condition}")

    if len(sizes) >= 2 and sizes[-1] > sizes[0]:
        exponent = float(np.polyfit(np.log(np.arange(1.0, len(sizes) + 1)), np.log(sizes), 1)[0])
    else:
        exponent = 0.0
    return k, ratio, SumsetGrowthReport(tuple(sizes), exponent, k, ratio)
