"""Projected uniformity counts of set indicators.

The unnormalized count of order d is the number of (x, h_1, ..., h_d) whose full
combinatorial cube lies in the set.  It satisfies the recursion
count_d(A) = sum_h count_{d-1}(A cap (A-h)) with count_1(B) = |B|^2, so order 2
recovers the additive energy.  The normalized value is (count / N^{d+1})^{1/2^d}.

The recursion runs on the level-synchronous slice frontier of `setfun`, with
each slice as its own partner: d - 2 levels of unique slices X cap (X - h)
with exact multiplicities, then one pass summing |X cap (X - h)|^2 over the
last level; counts on one set share its levels, held in the set's cache.  A
level is one array of subset masks over A's members (bit i for the i-th
smallest, one uint64 word per 64 members) and one multiplicity vector.  The
pairs (x, y) inside each row are formed FRONTIER_CHUNK at a time, and the bits
of x are OR-reduced by (row, y - x) into the child masks, whose popcounts are
the pair counts; a row with more pairs takes its own shift table, built from its
member pairs, and a singleton is its own only child, under h = 0.  It forms the
pairs of members itself, so it shares no code with the correlation and energy
routes it is checked against.

`gowers_pair_u3` is one of those routes, an oracle for U_3 on A = B: the sum
over shifts s of E(A cap (B - s)), batched over the shifts whose slices have
equal size, with its own pair keys (row, w' - w) on a table of slice members.
It never reads the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .setfun import (ROW_CHUNK_CELLS, GSet, _exact_sum, _frontier, _integer, _same_group,
                     set_correlate)

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
    d = _integer("d", d)
    _check_order(d)
    if A.card == 0:
        count = 0
    elif d == 1:
        count = A.card * A.card
    else:
        count = _frontier(A, self_partner=True).total(d - 2, "-")
    N = A.group.size
    normalized = (count / N ** (d + 1)) ** (1.0 / (1 << d))
    return GowersValue(count=count, d=d, normalized=normalized)


def gowers_pair_u3(A: GSet, B: GSet):
    """sum_{s1,s2} ( sum_x A(x) B(x+s1) A(x+s2) B(x+s1+s2) )^2, exact.

    Computed as sum over s1 of E(W) with W = A cap (B - s1): the inner sum for
    fixed s1 is the number of pairs (w, w') in W^2 with w' - w = s2.  The shifts
    are batched by |W| = (A o B)(s1): a block of k-member slices is read off the
    table B(a + s1) over A's members, and its pairs are counted by key
    (row, w' - w), at most ROW_CHUNK_CELLS pair cells (and table cells) at a
    time; a slice with more than ROW_CHUNK_CELLS pairs is correlated with itself
    alone.  Returns an EnergyValue; when both sets are nonempty the lower bound
    E(A,B)^4 / (|A| |B|)^4 is asserted (exactly, in integers).
    """
    from .energy import EnergyValue, pair_energy

    g = _same_group("gowers_pair_u3", A, B)
    if A.card == 0 or B.card == 0:
        return EnergyValue(0, 3.0, "mixed", True, vacuous=True)
    # (A o B)(s1) = |A cap (B - s1)|, so its support carries every nonempty W
    sizes = set_correlate(A, B)
    total = 0
    for k in np.unique(sizes[sizes > 0]).tolist():
        shifts = np.flatnonzero(sizes == k)
        if k * k > ROW_CHUNK_CELLS:
            for s1 in shifts.tolist():
                W = A.intersect(B.shift_minus(s1))
                total += _exact_sum(set_correlate(W, W), 2)
            continue
        step = max(1, ROW_CHUNK_CELLS // max(k * k, A.card))
        for lo in range(0, shifts.size, step):
            block = shifts[lo:lo + step]
            # row j: the k members a of A with a + s_j in B, ascending
            inside = B.mask[g.add_indices(A.members[None, :], block[:, None])]
            W = A.members[np.nonzero(inside)[1]].reshape(block.size, k)
            key = g.sub_indices(W[:, None, :], W[:, :, None])
            key += (np.arange(block.size, dtype=np.int64) * g.size)[:, None, None]
            total += _exact_sum(np.unique(key, return_counts=True)[1], 2)
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
