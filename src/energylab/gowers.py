"""Projected uniformity counts of set indicators.

The unnormalized count of order d is the number of (x, h_1, ..., h_d) whose full
combinatorial cube lies in the set.  It satisfies the recursion
count_d(A) = sum_h count_{d-1}(A cap (A-h)) with count_1(B) = |B|^2, so order 2
recovers the additive energy.  The normalized value is (count / N^{d+1})^{1/2^d}.

The recursion runs on the level-synchronous slice frontier of `setfun`, with
each slice as its own partner: d - 2 levels of unique slices X cap (X - h)
with exact multiplicities, then one pass summing |X cap (X - h)|^2 over the
last level; counts on one set share its levels, held in the set's cache.  It
forms the pairs of members itself, so it shares no code with the correlation
and energy routes (and the per-shift `gowers_pair_u3`) it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .setfun import GSet, _exact_sum, _frontier, _same_group, set_correlate

GOWERS_MAX_ORDER = 6
MONOTONICITY_SLACK = 1e-12


@dataclass(frozen=True)
class GowersValue:
    count: int
    d: int
    normalized: float


def _check_order(d: int) -> None:
    if d < 1:
        raise ValueError("order must be >= 1")
    if d > GOWERS_MAX_ORDER:
        raise ValueError(f"order {d} exceeds the practical cap {GOWERS_MAX_ORDER}")


def gowers_u(A: GSet, d: int) -> GowersValue:
    """Unnormalized order-d uniformity count of the indicator of A."""
    _check_order(d)
    if A.card == 0:
        count = 0
    elif d == 1:
        count = A.card * A.card
    else:
        count = _frontier(A, self_partner=True).total(d - 2, "-", square=True)
    N = A.group.size
    normalized = (count / N ** (d + 1)) ** (1.0 / (1 << d))
    return GowersValue(count=count, d=d, normalized=normalized)


def gowers_pair_u3(A: GSet, B: GSet):
    """sum_{s1,s2} ( sum_x A(x) B(x+s1) A(x+s2) B(x+s1+s2) )^2, exact.

    Computed as sum over s1 of E(A cap (B - s1)): the inner sum for fixed s1 is
    the self-correlation of W = A cap (B - s1) at s2.  Returns an EnergyValue;
    when both sets are nonempty the lower bound E(A,B)^4 / (|A| |B|)^4 is
    asserted (exactly, in integers).
    """
    from .energy import EnergyValue, pair_energy

    _same_group("gowers_pair_u3", A, B)
    if A.card == 0 or B.card == 0:
        return EnergyValue(0, 3.0, "mixed", True, vacuous=True)
    total = 0
    # (A o B)(s1) = |A cap (B - s1)|, so its support carries every nonempty W
    for s1 in np.flatnonzero(set_correlate(A, B)).tolist():
        W = A.intersect(B.shift_minus(s1))
        total += _exact_sum(set_correlate(W, W), 2)
    e = pair_energy(A, B)
    lhs = e ** 4
    rhs = total * (A.card ** 4) * (B.card ** 4)
    if lhs > rhs:
        raise AssertionError("pair uniformity count fell below its energy lower bound")
    return EnergyValue(total, 3.0, "mixed", True)


def gowers_normalized(A: GSet, d: int) -> float:
    return gowers_u(A, d).normalized


def gowers_normalized_monotonicity(A: GSet, d: int) -> bool:
    """True iff the normalized order-(d-1) value is <= the order-d value.

    Holds for every set; False signals a computation bug.  MONOTONICITY_SLACK
    absorbs floating-point rounding in the 2^d-th roots.
    """
    if d < 2:
        raise ValueError("monotonicity comparison needs d >= 2")
    lo = gowers_u(A, d - 1).normalized
    hi = gowers_u(A, d).normalized
    return lo <= hi * (1.0 + MONOTONICITY_SLACK) + MONOTONICITY_SLACK
