"""Classical machinery for converting many copies of one distribution
into another of equal entropy: Renyi entropies, a greedy coarse-graining
map with explicit distance and fiber-size bounds, strongly typical sets,
and the full desk-scale conversion protocol.

Everything in this module works in bits (base-2 logs); the thermodynamic
modules use nats, and conversion happens only at module boundaries.
Distances between distributions are total variation (half the l1 sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "Distribution",
    "RenyiReport",
    "renyi",
    "CoarseGrainMap",
    "build_coarse_graining",
    "TypeClass",
    "TypicalSet",
    "typical_set",
    "ProtocolReport",
    "run_entropy_protocol",
]

DEFAULT_OUTCOME_CAP = 2**24
DEFAULT_TYPE_CLASS_CAP = 200_000


@dataclass(frozen=True)
class Distribution:
    """A finite probability vector."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        if not self.probabilities:
            raise ValidationError("empty-distribution", "need at least one outcome")
        probs = tuple(float(x) for x in self.probabilities)
        bad = [x for x in probs if not -1e-15 <= x <= 1.0 + 1e-12]
        if bad:
            raise ValidationError("bad-probability", f"probability {bad[0]} outside [0, 1]")
        probs = tuple(max(0.0, x) for x in probs)
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError("bad-normalization", f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probabilities", probs)

    def __len__(self) -> int:
        return len(self.probabilities)

    def support(self) -> list[int]:
        return [i for i, x in enumerate(self.probabilities) if x > 0.0]

    def shannon_bits(self) -> float:
        return -math.fsum(x * math.log2(x) for x in self.probabilities if x > 0.0)


@dataclass(frozen=True)
class RenyiReport:
    """Min-entropy, Shannon entropy, Hartley entropy, and the order
    minus-infinity entropy, in bits; always h_inf <= h_1 <= h_0 <= h_neg_inf."""

    h_inf: float
    h_1: float
    h_0: float
    h_neg_inf: float


def renyi(p: Distribution) -> RenyiReport:
    """Renyi entropies of ``p``; min/max are taken over the support only."""
    support = [p.probabilities[i] for i in p.support()]
    if not support:
        raise ValidationError("empty-support", "distribution has no support")
    return RenyiReport(
        h_inf=-math.log2(max(support)),
        h_1=p.shannon_bits(),
        h_0=math.log2(len(support)),
        h_neg_inf=-math.log2(min(support)),
    )


# ---------------------------------------------------------------------------
# Greedy coverage engine
#
# Item by item, the greedy gives each item to the target with the largest
# remaining deficit d_y = q_y - covered(y), lowest index on ties, and once no
# deficit is positive, to the argmax. Sources arrive as runs of m items of
# mass v, and a run is one step: target y bids d_y, d_y - v, d_y - 2v, ...,
# and the run takes the m highest positive bids. Bid i of y from the bottom
# is s_y + i*v with s_y in (0, v], so each level i ranks its bidders alike
# (s_y descending, then y ascending) and lies wholly above level i - 1: the
# run fills whole levels from the top, then the first r bidders of one level.
# ---------------------------------------------------------------------------


def _greedy_assign(
    runs: Sequence[tuple[int, float]], targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Assign runs of (count, per-item probability) onto ``targets``.

    Returns (coverage mass per target, fiber item-count per target, the
    target that took each run's last item, -1 for an empty run).
    """
    deficit = targets.astype(float)
    coverage = np.zeros(deficit.size)
    fibers = np.zeros(deficit.size, dtype=np.int64)
    last = [-1] * len(runs)
    for run_idx, (count, v) in enumerate(runs):
        m = int(count)
        if m > 1 and v > 0.0 and (d_max := float(deficit.max())) > 0.0:
            # only bids above d_max - m*v are reachable: at most about m levels each
            bids = np.ceil(np.maximum(deficit - max(0.0, d_max - m * v), 0.0) / v).astype(np.int64)
            # the partly filled level L has A(L) >= m > A(L + 1) bids at or above it,
            # A(L) = sum(max(bids - L, 0)) = (sum of the k counts above L) - k*L
            desc = np.append(np.sort(bids)[::-1], 0)
            tops = np.cumsum(desc)
            k = int(np.searchsorted(tops - np.arange(1, desc.size + 1) * desc, m))
            level = max(0, (int(tops[k - 1]) - m) // k)
            take = np.maximum(bids - level - 1, 0)
            bidders = np.flatnonzero(bids > level)
            at_level = deficit[bidders] - (bids[bidders] - 1 - level) * v
            chosen = bidders[np.argsort(-at_level, kind="stable")][: m - int(take.sum())]
            take[chosen] += 1
            deficit -= take * v
            coverage += take * v
            fibers += take
            m -= int(take.sum())
            last[run_idx] = int(chosen[-1]) if chosen.size else -1
        if m > 0:
            # single items, zero-mass items, and items past every positive bid
            y = int(deficit.argmax())
            deficit[y] -= m * v
            coverage[y] += m * v
            fibers[y] += m
            last[run_idx] = y
    return coverage, fibers, last


@dataclass(frozen=True)
class CoarseGrainMap:
    """A total map from source outcomes onto target outcomes, with its
    pushforward and the guarantees it was built to satisfy.

    ``distance`` is the total variation between the pushforward and the
    target; it never exceeds ``l1_bound`` = 2^(H_0(q) - H_inf(p)), and no
    fiber exceeds ``fibre_size_bound`` = 2^(H_-inf(p)) (2^(-H_inf(q)) +
    2^(-H_inf(p))).
    """

    assignment: tuple[int, ...]
    fiber_sizes: tuple[int, ...]
    pushforward: tuple[float, ...]
    distance: float
    l1_bound: float
    fibre_size_bound: float


def build_coarse_graining(p: Distribution, q: Distribution) -> CoarseGrainMap:
    """Greedy construction of a map f with f_*(p) close to q.

    Source outcomes are processed in descending probability order
    (first-fit decreasing, so p = q maps to the identity cover exactly);
    each goes to the target whose probability is least covered so far.
    Full support of ``q`` is required.
    """
    q_arr = np.asarray(q.probabilities)
    if float(q_arr.min()) <= 0.0:
        raise ValidationError("zero-target-probability", "q must have full support")
    p_arr = np.asarray(p.probabilities)
    order = sorted(range(len(p_arr)), key=lambda i: (-p_arr[i], i))
    runs = [(1, float(p_arr[i])) for i in order]
    coverage, fibers, last = _greedy_assign(runs, q_arr)
    assignment = [0] * len(p_arr)
    for src, y in zip(order, last):
        assignment[src] = y
    rp, rq = renyi(p), renyi(q)
    p_support = [p.probabilities[i] for i in p.support()]
    p_max, p_min = max(p_support), min(p_support)
    q_max = float(q_arr.max())
    return CoarseGrainMap(
        assignment=tuple(assignment),
        fiber_sizes=tuple(int(x) for x in fibers),
        pushforward=tuple(float(x) for x in coverage),
        distance=0.5 * float(np.abs(coverage - q_arr).sum()),
        l1_bound=2.0 ** (rq.h_0 - rp.h_inf),
        fibre_size_bound=(q_max + p_max) / p_min,
    )


# ---------------------------------------------------------------------------
# Strong typicality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeClass:
    """All outcomes sharing one symbol-count vector."""

    counts: tuple[int, ...]
    multiplicity: int
    outcome_prob: float


@dataclass(frozen=True)
class TypicalSet:
    """Strongly typical outcomes of n draws: every symbol count stays
    within sqrt(n ln n) * p_i of its mean n * p_i.

    ``type_classes`` with ``p_typ`` describe the conditional (normalized)
    typical distribution: each outcome of a class has conditional
    probability outcome_prob / p_typ. The conditional Renyi entropies are
    included in bits.
    """

    n: int
    windows: tuple[tuple[float, float], ...]
    count_ranges: tuple[tuple[int, int], ...]
    type_classes: tuple[TypeClass, ...]
    p_typ: float
    outcome_count: int
    h_inf: float
    h_1: float
    h_0: float
    h_neg_inf: float

    def conditional_prob(self, tc: TypeClass) -> float:
        return tc.outcome_prob / self.p_typ


def _multinomial(n: int, counts: Sequence[int]) -> int:
    out, rest = 1, n
    for c in counts:
        out *= math.comb(rest, c)
        rest -= c
    return out


def typical_set(p: Distribution, n: int) -> TypicalSet:
    """Enumerate the strongly typical type classes of p^(x)n exactly, at
    most ``DEFAULT_TYPE_CLASS_CAP`` of them."""
    if n < 1:
        raise ValidationError("bad-copy-count", "n must be >= 1")
    probs = p.probabilities
    half_width = math.sqrt(n * math.log(n)) if n > 1 else 0.0
    windows = tuple(((n - half_width) * x, (n + half_width) * x) for x in probs)
    ranges = []
    for i, (lo, hi) in enumerate(windows):
        lo_i = max(0, math.ceil(lo - 1e-9))
        hi_i = min(n, math.floor(hi + 1e-9))
        if lo_i > hi_i:
            raise DomainError(
                "empty-typical-set",
                f"no admissible count for symbol {i} (p={probs[i]}, window [{lo:.4g}, {hi:.4g}]); "
                "n is too small for the least likely symbol",
            )
        ranges.append((lo_i, hi_i))

    classes: list[TypeClass] = []
    counts = [0] * len(probs)

    def walk(sym: int, left: int):
        if sym == len(probs) - 1:
            lo, hi = ranges[sym]
            if lo <= left <= hi:
                if len(classes) == DEFAULT_TYPE_CLASS_CAP:
                    raise DomainError("type-class-cap", f"more than {DEFAULT_TYPE_CLASS_CAP} type classes")
                counts[sym] = left
                prob = math.prod(x**c for x, c in zip(probs, counts) if c)
                classes.append(TypeClass(tuple(counts), _multinomial(n, counts), prob))
            return
        lo, hi = ranges[sym]
        min_rest = sum(r[0] for r in ranges[sym + 1 :])
        max_rest = sum(r[1] for r in ranges[sym + 1 :])
        for c in range(max(lo, left - max_rest), min(hi, left - min_rest) + 1):
            counts[sym] = c
            walk(sym + 1, left - c)

    walk(0, n)
    if not classes:
        raise DomainError("empty-typical-set", "no type vector satisfies all count windows")

    try:
        p_typ = math.fsum(tc.multiplicity * tc.outcome_prob for tc in classes)
    except OverflowError as exc:
        # a multiplicity past the float range; the weights need log probabilities
        raise DomainError("outcome-overflow", f"a type class at n = {n} has more outcomes than a float holds") from exc
    cond = [tc.outcome_prob / p_typ for tc in classes]
    outcome_count = sum(tc.multiplicity for tc in classes)
    h_1 = -math.fsum(
        tc.multiplicity * c * math.log2(c) for tc, c in zip(classes, cond) if c > 0.0
    )
    return TypicalSet(
        n=n,
        windows=windows,
        count_ranges=tuple(ranges),
        type_classes=tuple(classes),
        p_typ=p_typ,
        outcome_count=outcome_count,
        h_inf=-math.log2(max(cond)),
        h_1=h_1,
        h_0=math.log2(outcome_count),
        h_neg_inf=-math.log2(min(cond)),
    )


# ---------------------------------------------------------------------------
# The conversion protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolReport:
    """Diagnostics of one protocol run (all distances total variation).

    ``distance`` compares the full protocol output against the n-fold
    target, including the atypical mass on both sides; ``map_distance``
    is the inner coarse-graining error on the typical sets alone.
    """

    n: int
    ancilla_bits: int
    p_typ_source: float
    p_typ_target: float
    distance: float
    map_distance: float
    l1_bound: float
    fibre_size_bound: float
    max_fiber: int
    source_outcomes: int
    target_outcomes: int
    enumerated_items: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ancilla_bits": self.ancilla_bits,
            "P_typ_source": self.p_typ_source,
            "P_typ_target": self.p_typ_target,
            "distance": self.distance,
            "map_distance": self.map_distance,
            "l1_bound": self.l1_bound,
            "fibre_size_bound": self.fibre_size_bound,
            "max_fiber": self.max_fiber,
            "source_outcomes": self.source_outcomes,
            "target_outcomes": self.target_outcomes,
            "enumerated_items": self.enumerated_items,
        }


def default_ancilla_bits(p: Distribution, n: int) -> int:
    """Randomness register size: round(3 sqrt(n log2 n) H_1(p)) bits."""
    if n < 2:
        return 0
    return round(3.0 * math.sqrt(n * math.log2(n)) * p.shannon_bits())


def run_entropy_protocol(
    p: Distribution,
    q: Distribution,
    n: int,
    ancilla_bits: Optional[int] = None,
    outcome_cap: int = DEFAULT_OUTCOME_CAP,
) -> ProtocolReport:
    """Convert p^(x)n toward q^(x)n classically and report the distance.

    The typical outcomes of the source, padded with a uniform randomness
    register of ``ancilla_bits`` bits, are coarse-grained onto the typical
    outcomes of the target; the dilating register that would make the map
    reversible starts in the all-zeros state (any deterministic value
    works) and is only accounted for through the fiber-size bound.
    Atypical source mass is routed to the first typical target outcome.
    """
    if outcome_cap < 1:
        raise ValidationError("bad-outcome-cap", f"outcome cap must be at least 1, got {outcome_cap}")
    if outcome_cap >= 2**63:  # the greedy counts items in int64
        raise ValidationError("bad-outcome-cap", "outcome cap must be below 2**63")
    gap = abs(p.shannon_bits() - q.shannon_bits())
    if gap > 1e-6:
        raise DomainError(
            "entropy-mismatch",
            f"entropies differ by {gap:.3g} bits (> 1e-06); the protocol only converts equal-entropy sources",
        )

    tp = typical_set(p, n)
    tq = typical_set(q, n)
    k = default_ancilla_bits(p, n) if ancilla_bits is None else int(ancilla_bits)
    if not 0 <= k < 63:  # 2**63 items would pass any cap
        raise ValidationError("bad-ancilla-bits", f"ancilla_bits must be in [0, 62], got {k}")
    items = tp.outcome_count << k
    if items > outcome_cap or tq.outcome_count > outcome_cap:
        raise DomainError(
            "outcome-cap",
            f"{items} enumerated source items (or {tq.outcome_count} targets) exceed cap {outcome_cap}",
        )

    scale = float(2**k)
    runs = sorted(
        ((tc.multiplicity << k, tp.conditional_prob(tc) / scale) for tc in tp.type_classes),
        key=lambda run: -run[1],
    )
    mults = np.array([tc.multiplicity for tc in tq.type_classes])
    w_raw = np.repeat(np.array([tc.outcome_prob for tc in tq.type_classes]), mults)
    w_cond = w_raw / tq.p_typ
    coverage, fibers, _ = _greedy_assign(runs, w_cond)

    map_distance = 0.5 * float(np.abs(coverage - w_cond).sum())
    out = tp.p_typ * coverage
    out[0] += 1.0 - tp.p_typ
    distance = 0.5 * (float(np.abs(out - w_raw).sum()) + (1.0 - tq.p_typ))

    src_max = (2.0**-tp.h_inf) / scale
    src_min = (2.0**-tp.h_neg_inf) / scale
    q_cond_max = 2.0**-tq.h_inf
    return ProtocolReport(
        n=n,
        ancilla_bits=k,
        p_typ_source=tp.p_typ,
        p_typ_target=tq.p_typ,
        distance=distance,
        map_distance=map_distance,
        l1_bound=2.0 ** (tq.h_0 - (tp.h_inf + k)),
        fibre_size_bound=(q_cond_max + src_max) / src_min,
        max_fiber=int(fibers.max()),
        source_outcomes=tp.outcome_count,
        target_outcomes=tq.outcome_count,
        enumerated_items=items,
    )
