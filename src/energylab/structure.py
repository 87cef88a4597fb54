"""Constructive procedures: greedy disjoint translate/slice families, the seeded
randomized disjoint family, the regular part, connectedness measurement and
connected-subset extraction, the pseudorandom-slice scan, and a tiny-scale
exhaustive small-doubling oracle.

Determinism rules: greedy loops scan candidates in ascending index order, the
translate and random families through one disjointification (`_disjointify`);
subset searches enumerate bitmasks in ascending integer order (bit i of a mask
is the i-th smallest member) and return the first qualifying subset; the
randomized family uses a counter-based generator keyed by the caller's seed,
with retries drawing further along the same stream.

Each exhaustive scan fills one table over the subset masks S and hands it to
one selector (`_select`: eligibility, ratio, first argmin, decoded witness).
The tables of E_alpha (connectedness) and |B - B| (the oracle) are sums over
difference classes d of a function of cnt_d(S), the number of ordered member
pairs with difference d inside S, on the pairs grouped by `_pair_classes`:
- integer alpha = k: cnt_d(S)^k counts the k-tuples of class-d pairs whose
  union lies in S, so one zeta (subset-sum) transform of the histogram of
  those unions gives every E_k(S), exactly, while the tuple count E_k(A) is
  at most 2^m;
- the oracle: [cnt_d(S) > 0] is an inclusion-exclusion sum over the class's
  distinct pairs, transformed the same way while its terms number at most 2^m;
- otherwise, and for non-integer alpha, a class sweep counts cnt_d(S) for all
  masks in uint8 and adds table[cnt_d(S)] class by class in ascending order,
  so float results are reproducible to the bit.  Integer sums stay in int64
  while E_k(A) < INT64_SAFE_BOUND and use Python integers beyond.
The route follows from alpha and the class sizes alone.  The uniformity table
(`_subset_uniformity_counts`) runs the slice recursion of `gowers` over all
masks at once, on its own grouping of the pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .energy import WeightKernel, energy_k, pair_energy
from .gowers import _check_order
from .setfun import (INT64_SAFE_BOUND, DenseFunc, GSet, SliceRows, _exact_sum, _rows_exact,
                     _same_group, convolve, correlate, difference_set, set_convolve,
                     set_correlate)

SUBSET_SEARCH_CAP = 22
ORACLE_CAP = 18
RANDOM_FAMILY_RETRIES = 64


class PreconditionError(ValueError):
    """An algorithm's hypothesis failed, so its guarantee is void."""


@dataclass(frozen=True)
class ConnectednessParams:
    """Parameter bundle for connectedness measurement and extraction.

    beta2 defaults to beta1 (single-threshold usage); when both are given the
    extraction requires rho < beta1/beta2.
    """

    alpha: float
    beta1: float
    rho: float = 0.25
    beta2: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if not self.alpha > 1:
            raise ValueError("alpha must exceed 1")
        b2 = self.beta1 if self.beta2 is None else self.beta2
        if not 0 < self.beta1 <= b2 <= 1:
            raise ValueError("need 0 < beta1 <= beta2 <= 1")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if not self.rho < self.beta1 / b2:
            raise ValueError("need rho < beta1/beta2")
        if self.gamma is not None and not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")

    @property
    def beta_hi(self) -> float:
        return self.beta1 if self.beta2 is None else self.beta2


@dataclass
class DisjointFamily:
    """Pairwise-disjoint sets with provenance and the audited count bound."""

    members: list[tuple[object, GSet]]
    min_size: int
    provenance: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.members)

    def audit(self, inside: Callable[[object], GSet] | None = None) -> None:
        """Re-verify disjointness, per-member size, and inclusion in the claimed parent."""
        union: np.ndarray | None = None
        for tag, S in self.members:
            if union is None:
                union = np.zeros(S.group.size, dtype=bool)
            if np.any(union[S.members]):
                raise AssertionError("family members are not pairwise disjoint")
            union[S.members] = True
            if S.card < self.min_size:
                raise AssertionError(f"member of size {S.card} under the floor {self.min_size}")
            if inside is not None:
                parent = inside(tag)
                if not S.is_subset(parent):
                    raise AssertionError("family member escapes its claimed parent set")
        bound = self.provenance.get("count_bound")
        if bound is not None and not self.provenance.get("bound_waived", False):
            if self.count < bound - 1e-12:
                raise AssertionError(f"family count {self.count} under the bound {bound}")


def _disjointify(group, candidates, floor, take=None) -> list[tuple[object, GSet]]:
    """The greedy disjointification behind the families: in candidate order, the
    part of each (tag, mask) outside the union so far is kept, cut down by `take`
    when given, while it has at least `floor` members."""
    union = np.zeros(group.size, dtype=bool)
    members: list[tuple[object, GSet]] = []
    for tag, mask in candidates:
        rest = mask & ~union
        if np.count_nonzero(rest) >= floor:
            kept = rest if take is None else take(rest)
            members.append((tag, GSet(group, kept)))
            union |= kept
    return members


def greedy_disjoint_translates(A: GSet, B: GSet) -> DisjointFamily:
    """Disjoint pieces A_j inside translates A + b_j with |A_j| >= |A|/2.

    Single ascending scan over b in B keeping each residual that stays at least
    half of |A|.  The returned count s satisfies s >= |A| |B|^2 / (16 E(A,B))
    or s >= |B|/2 (both exits audited)."""
    g = _same_group("greedy_disjoint_translates", A, B)
    if not A.card or not B.card:
        raise PreconditionError("both sets must be nonempty")
    half = (A.card + 1) // 2
    members = _disjointify(g, ((b, A._roll(b)) for b in B.members.tolist()), half)
    e = pair_energy(A, B)
    bound = A.card * B.card * B.card / (16.0 * e)
    fam = DisjointFamily(
        members=members,
        min_size=half,
        provenance={
            "algorithm": "greedy_disjoint_translates",
            "count_bound": min(bound, B.card / 2.0),
            "energy_bound": bound,
            "half_b": B.card / 2.0,
        },
    )
    fam.audit(inside=lambda b: A.translate(int(b)))
    return fam


def greedy_disjoint_in_target(A: GSet, B: GSet, S: GSet) -> DisjointFamily:
    """Disjoint pieces S_j inside S cap (A + b_j), each of size ceil(sigma/(8|B|)).

    Requires sigma = sum_{x in S} (A*B)(x) >= 16 |B|; raises otherwise because the
    count guarantee sigma^3 / (256 |A|^2 |B| E(A,B)) is void below that mass."""
    g = _same_group("greedy_disjoint_in_target", A, B, S)
    conv = set_convolve(A, B)
    sigma = int(conv[S.members].sum()) if S.card else 0
    if sigma < 16 * B.card:
        raise PreconditionError(f"sigma={sigma} below 16|B|={16 * B.card}; bound not guaranteed")
    piece_size = -(-sigma // (8 * B.card))  # ceil
    # each piece is the first piece_size points of what is left of S cap (A + b)
    members = _disjointify(g, ((b, A._roll(b) & S.mask) for b in B.members.tolist()),
                           piece_size, lambda rest: rest & (np.cumsum(rest) <= piece_size))
    e = pair_energy(A, B)
    bound = sigma ** 3 / (256.0 * A.card * A.card * B.card * e)
    fam = DisjointFamily(
        members=members,
        min_size=piece_size,
        provenance={
            "algorithm": "greedy_disjoint_in_target",
            "sigma": sigma,
            "count_bound": bound,
        },
    )
    fam.audit(inside=lambda b: S.intersect(A.translate(int(b))))
    return fam


def greedy_disjoint_slices(A: GSet, D: GSet) -> DisjointFamily:
    """Shifts s_j with pairwise-disjoint slices A_{s_j}, picked greedily.

    Each round removes A - A_s for the surviving shift minimizing |A - A_s|
    (ties to the smallest index); stops once fewer than |D|/2 shifts survive.
    Disjointness holds because t in A - A_s exactly when A_t meets A_s.
    The count satisfies l >= |D|^2 / (4 sigma) with sigma = sum_{s in D}|A - A_s|."""
    _same_group("greedy_disjoint_slices", A, D)
    if not D.card:
        raise PreconditionError("D must be nonempty")
    ca = set_correlate(A, A)
    if any(ca[s] == 0 for s in D.members.tolist()):
        raise PreconditionError("D must sit inside A - A (every slice nonempty)")

    # |A - A_s| is the nonzero count of A_s o A; a mask is built only for a picked s
    diff_sizes = np.zeros(A.group.size, dtype=np.int64)
    diff_sizes[D.members] = _rows_exact(A.group, SliceRows(A, A, D.members), A.mask, -1,
                                        own=False)
    sigma = int(diff_sizes.sum())

    surviving = D.mask.copy()
    members: list[tuple[object, GSet]] = []
    half = D.card / 2.0
    while np.count_nonzero(surviving) >= half:
        # argmin returns the first minimum, i.e. ties go to the smallest index
        best_s = int(np.argmin(np.where(surviving, diff_sizes, np.iinfo(np.int64).max)))
        members.append((best_s, A.slice1(best_s)))
        surviving &= ~difference_set(A, members[-1][1]).mask

    bound = D.card * D.card / (4.0 * sigma)
    fam = DisjointFamily(
        members=members,
        min_size=1,
        provenance={
            "algorithm": "greedy_disjoint_slices",
            "sigma": sigma,
            "count_bound": bound,
        },
    )
    fam.audit(inside=lambda s: A)
    return fam


def random_disjoint_family(Ms: Sequence[GSet], delta: int, C: float, seed: int) -> DisjointFamily:
    """Seeded probabilistic disjointification of a family with bounded sizes.

    Requires delta <= |M_j| <= C*delta and overlap mass sigma = sum_{i,j} |M_i cap M_j|
    at most 1e-4 t^2 delta.  Samples each M_i with probability p = t*delta/(2 sigma),
    disjointifies greedily in index order, keeps pieces of size >= delta/(8C+4), and
    retries (same stream) until the count reaches t^2 delta / ((32C+16) sigma)."""
    t = len(Ms)
    if t == 0:
        raise PreconditionError("empty family")
    g = _same_group("random_disjoint_family", *Ms)
    occupancy = np.zeros(g.size, dtype=np.int64)
    for M in Ms:
        if not delta <= M.card <= C * delta:
            raise PreconditionError(f"member size {M.card} outside [delta, C delta] = [{delta}, {C * delta}]")
        occupancy[M.members] += 1
    # sum_{i,j} |M_i cap M_j| = sum_x (#members through x)^2
    sigma = int(np.dot(occupancy, occupancy))
    if sigma > 1e-4 * t * t * delta:
        raise PreconditionError(f"overlap mass sigma={sigma} exceeds 1e-4 t^2 delta={1e-4 * t * t * delta}")

    p = t * delta / (2.0 * sigma)
    keep_floor = delta / (8.0 * C + 4.0)
    target = t * t * delta / ((32.0 * C + 16.0) * sigma)
    rng = np.random.Generator(np.random.Philox(key=seed))
    for attempt in range(RANDOM_FAMILY_RETRIES):
        chosen = np.flatnonzero(rng.random(t) < p).tolist()
        members = _disjointify(g, ((i, Ms[i].mask) for i in chosen), keep_floor)
        if len(members) >= target:
            fam = DisjointFamily(
                members=members,
                min_size=math.ceil(keep_floor),
                provenance={
                    "algorithm": "random_disjoint_family",
                    "seed": seed,
                    "attempt": attempt,
                    "p": p,
                    "sigma": sigma,
                    "count_bound": target,
                    "max_retries": RANDOM_FAMILY_RETRIES,
                },
            )
            fam.audit(inside=lambda i: Ms[int(i)])
            return fam
    raise RuntimeError(
        f"random_disjoint_family: {RANDOM_FAMILY_RETRIES} seeded attempts all fell short of {target:.3f}")


def _markov_half(A: GSet, rows: np.ndarray, total: int, what: str) -> GSet:
    """The members x of A with rows[x] |A| <= 2 total, compared in Python integers;
    `what` names the part in the error raised should fewer than half survive."""
    out = GSet.from_indices(A.group, [x for x in A.members.tolist()
                                      if int(rows[x]) * A.card <= 2 * total])
    if 2 * out.card < A.card:
        raise AssertionError(f"{what} lost more than half of the set")
    return out


def regular_part(A: GSet) -> GSet:
    """{x in A : ((A*A) o A)(x) <= 2 E(A)/|A|}; always at least half of A."""
    if not A.card:
        raise PreconditionError("A must be nonempty")
    cube = correlate(convolve(A, A), A).values
    return _markov_half(A, cube, int(energy_k(A, 2).value), "regular part")


def regular_part_weighted(A: GSet, weight: np.ndarray) -> GSet:
    """Markov-selected half of A for a nonnegative even weight w: keeps the points
    whose kernel row sum over A is at most twice the average, so that
    sum_x w(x) (f o f)(x) <= 2 |A|^{-1} sum_x w(x) (A o A)(x) |f|_2^2
    for every function f supported on the survivor."""
    if not A.card:
        raise PreconditionError("A must be nonempty")
    w = np.asarray(weight)
    if np.any(w < 0):
        raise ValueError("weight must be nonnegative")
    if not np.array_equal(w, w[A.group.neg_perm]):
        raise ValueError("weight must be even")
    rows = convolve(A, DenseFunc(A.group, w.astype(np.int64))).values
    return _markov_half(A, rows, int(rows[A.members].sum()), "weighted regular part")


# -- exhaustive subset scans ---------------------------------------------------------


def _popcounts(n_masks: int) -> np.ndarray:
    masks = np.arange(n_masks, dtype=np.uint32)
    return np.bitwise_count(masks).astype(np.int64)


def _pair_classes(A: GSet) -> tuple[np.ndarray, np.ndarray]:
    """The ordered member pairs grouped by difference class: (masks, bounds).

    Class c is the c-th smallest difference index d (class 0 is d = 0) and owns
    masks[bounds[c]:bounds[c + 1]]: the bitmasks 1<<i | 1<<j of its pairs (i, j)
    with a_i - a_j = d, in ascending (i, j) order.  For a subset mask S,
    cnt_d(S) is the number of those masks inside S, which is (B o B)(d)."""
    g = A.group
    mem = A.members
    m = mem.size
    diffs = g.sub_indices(np.repeat(mem, m), np.tile(mem, m))
    _uniq, cls = np.unique(diffs, return_inverse=True)
    order = np.argsort(cls, kind="stable")
    i, j = np.divmod(order, m)
    masks = (np.int64(1) << i) | (np.int64(1) << j)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(cls))))
    return masks, bounds


def _zeta(h: np.ndarray, m: int) -> np.ndarray:
    """In place: h[S] becomes the sum of h[T] over all T inside S (m passes)."""
    for i in range(m):
        v = h.reshape(-1, 2, 1 << i)
        v[:, 1] += v[:, 0]
    return h


def _class_sweep(m: int, masks: np.ndarray, bounds: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """sum_d lut[cnt_d(S)] for every mask S, added class by class in ascending order
    (so a float result is reproducible to the bit).  Counts are uint8: cnt_d <= m."""
    n_masks = 1 << m
    idx = np.arange(n_masks, dtype=np.uint32)
    bits = [((idx >> i) & 1).astype(np.uint8) for i in range(m)]
    acc = np.zeros(n_masks, dtype=lut.dtype)
    term = np.empty(n_masks, dtype=lut.dtype)
    cnt = np.empty(n_masks, dtype=np.uint8)
    pair = np.empty(n_masks, dtype=np.uint8)
    for c in range(bounds.size - 1):
        cnt.fill(0)
        for mk in masks[bounds[c]:bounds[c + 1]].tolist():
            np.bitwise_and(bits[(mk & -mk).bit_length() - 1], bits[mk.bit_length() - 1], out=pair)
            cnt += pair
        # every count indexes the table, so "clip" never clips; it lets take write into term
        np.take(lut, cnt, out=term, mode="clip")
        acc += term
    return acc


def _tuple_unions(masks: np.ndarray, bounds: np.ndarray, k: int) -> np.ndarray:
    """The OR of every k-tuple of pair masks drawn from one class, over all classes:
    sum_d |P_d|^k entries.  cnt_d(S)^k counts the tuples of class d inside S."""
    sizes = np.diff(bounds)
    unions = masks
    owner = np.repeat(np.arange(sizes.size), sizes)
    for _ in range(k - 1):
        reps = sizes[owner]
        src = np.repeat(np.arange(unions.size), reps)
        within = np.arange(src.size) - np.repeat(np.cumsum(reps) - reps, reps)
        owner = owner[src]
        unions = unions[src] | masks[bounds[owner] + within]
    return unions


def _subset_power_sums(A: GSet, alpha: float) -> np.ndarray:
    """E_alpha of the subset at every mask S: sum over classes of cnt_d(S)^alpha.

    Integer alpha = k is exact.  When the tuple count sum_d |P_d|^k, which is
    E_k(A), is at most 2^m, one zeta transform of the histogram of the k-tuple
    unions gives every value.  Otherwise the class sweep runs, in int64 while
    E_k(A) (an upper bound on every E_k(S), itself at most m^(k+1)) is below
    INT64_SAFE_BOUND and in Python ints beyond.  Non-integer alpha is a float
    class sweep."""
    m = A.card
    masks, bounds = _pair_classes(A)
    sizes = np.diff(bounds)
    c = np.arange(int(sizes.max()) + 1)
    if float(alpha) != int(alpha):
        lut = np.where(c > 0, c.astype(np.float64), 1.0) ** float(alpha) * (c > 0)
        return _class_sweep(m, masks, bounds, lut)
    k = int(alpha)
    e_full = sum(int(s) ** k for s in sizes.tolist())
    if k >= 1 and e_full <= 1 << m:
        return _zeta(np.bincount(_tuple_unions(masks, bounds, k), minlength=1 << m), m)
    dtype = np.int64 if e_full < INT64_SAFE_BOUND else object
    return _class_sweep(m, masks, bounds, np.array([v ** k for v in c.tolist()], dtype=dtype))


def _subset_difference_counts(A: GSet) -> np.ndarray:
    """|B - B| of the subset at every mask S: the number of classes with cnt_d(S) > 0.

    Class 0 (d = 0) counts for every nonempty S.  For another class with distinct
    pair masks p_1..p_n, inclusion-exclusion gives [cnt_d(S) > 0] as the sum over
    nonempty K of (-1)^(|K|+1) [union of p_K inside S]; while those 2^n - 1 terms
    sum to at most 2^m over the classes, one zeta transform of their signed
    histogram gives every count.  Otherwise the class sweep counts [cnt_d > 0]."""
    m = A.card
    n_masks = 1 << m
    masks, bounds = _pair_classes(A)
    pair_class = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    # (i, j) and (j, i) share a mask, and one class, exactly when 2d = 0
    key = np.unique((pair_class[bounds[1]:] << m) | masks[bounds[1]:])
    key_owner, key_mask = key >> m, key & (n_masks - 1)
    distinct = np.bincount(key_owner, minlength=bounds.size - 1)
    if sum((1 << int(n)) - 1 for n in distinct.tolist()) > n_masks:
        return _class_sweep(m, masks, bounds, (np.arange(m + 1) > 0).astype(np.int64))
    rank = np.arange(key.size) - (np.cumsum(distinct) - distinct)[key_owner]
    table = np.zeros((bounds.size - 1, int(distinct.max(initial=0))), dtype=np.int64)
    table[key_owner, rank] = key_mask
    # terms of prod_p (1 - [p inside S]) per class: (union, sign); the empty union cancels
    owner = np.flatnonzero(distinct)
    unions = np.zeros(owner.size, dtype=np.int64)
    odd = np.zeros(owner.size, dtype=bool)
    for r in range(table.shape[1]):
        grow = distinct[owner] > r
        owner = np.concatenate((owner, owner[grow]))
        unions = np.concatenate((unions, unions[grow] | table[owner[grow.size:], r]))
        odd = np.concatenate((odd, ~odd[grow]))
    h = (np.bincount(unions[odd], minlength=n_masks)
         - np.bincount(unions[~odd & (unions != 0)], minlength=n_masks))
    out = _zeta(h, m)
    out[1:] += 1
    return out


def _subset_uniformity_counts(A: GSet, k: int) -> np.ndarray:
    """U_k of the subset at every mask S, by the slice recursion of `gowers` run over
    all masks at once: U_1(S) = |S|^2, U_k(S) = sum_h U_{k-1}(S cap (S - h)).

    S cap (S - h) is the mask of the members a_j with a_j + h in S: bit j is set
    when j and the i with a_i - a_j = h both lie in S, so each class h moves bit i
    of S to bit j over its ordered member pairs (i, j).  The pairs are grouped
    here, not by `_pair_classes`, so the k = 2 table and the E_2 scan stay
    independent routes.  (k - 1) m^2 2^m steps; int64 holds U_k(S) <= m^(k+1)."""
    m = A.card
    idx = np.arange(1 << m, dtype=np.uint32)
    table = np.bitwise_count(idx).astype(np.int64) ** 2
    mem = A.members
    diffs = A.group.sub_indices(mem[:, None], mem[None, :]).reshape(-1)
    pairs = np.flatnonzero(diffs)  # h = 0 is S itself
    pairs = pairs[np.argsort(diffs[pairs], kind="stable")]
    cuts = np.flatnonzero(np.diff(diffs[pairs])) + 1
    classes = [[divmod(p, m) for p in c.tolist()] for c in np.split(pairs, cuts)]
    moved, bit = np.empty_like(idx), np.empty_like(idx)
    gathered = np.empty_like(table)
    for _ in range(k - 1):
        deeper = table.copy()
        for pairs_h in classes:
            moved.fill(0)
            for i, j in pairs_h:
                np.right_shift(idx, i, out=bit)  # bit i of S, moved to bit j
                bit &= 1
                bit <<= j
                moved |= bit
            moved &= idx
            deeper += np.take(table, moved, out=gathered)
        table = deeper
    return table


def _check_scan(A: GSet, cap: int, kind: str = "exhaustive-search") -> None:
    """An exhaustive scan runs on a nonempty A of at most `cap` members."""
    if A.card == 0:
        raise PreconditionError("A must be nonempty")
    if A.card > cap:
        raise ValueError(f"|A| = {A.card} exceeds the {kind} cap {cap}")


def _decode(A: GSet, mask: int) -> GSet:
    """The subset of A at a bitmask: bit i is the i-th smallest member."""
    return GSet.from_indices(A.group, A.members[(mask >> np.arange(A.card)) & 1 == 1].tolist())


def _select(A: GSet, table: np.ndarray, frac: float,
            scale: np.ndarray | None = None) -> tuple[float, GSet]:
    """The minimum of a scan's ratio over the nonempty masks S with |S| >= frac |A|
    and the subset at the first mask attaining it: (inf, empty set) when none
    qualifies.  The ratio is table[S] * scale[|S|] / table[A], or table[S] / |S|
    without a scale."""
    m = A.card
    sizes = _popcounts(1 << m)
    eligible = sizes >= frac * m - 1e-9
    eligible[0] = False
    sel = np.flatnonzero(eligible)
    ratios = np.full(1 << m, np.inf)
    if scale is None:
        ratios[sel] = table[sel] / sizes[sel]
    else:
        ratios[sel] = table[sel].astype(np.float64) * scale[sizes[sel]] / float(table[-1])
    best = int(np.argmin(ratios))
    return float(ratios[best]), _decode(A, best)


def connectedness_gamma(A: GSet, alpha: float, beta: float) -> tuple[float, GSet]:
    """gamma = min over B subset of A with |B| >= beta |A| of
    E_alpha(B) (|A|/|B|)^(2 alpha) / E_alpha(A), with its first minimizing witness."""
    _check_scan(A, SUBSET_SEARCH_CAP)
    m = A.card
    scale = (m / np.maximum(np.arange(m + 1.0), 1)) ** (2 * alpha)
    return _select(A, _subset_power_sums(A, alpha), beta, scale)


def gowers_connectedness_gamma(A: GSet, k: int, beta: float) -> tuple[float, GSet]:
    """Like connectedness_gamma but with order-k uniformity counts in place of E_alpha."""
    _check_scan(A, SUBSET_SEARCH_CAP)
    _check_order(k)
    m = A.card
    # (|A|/|B|)^(2^k) by libm pow: numpy's array power rounds some of these values
    # differently, and gamma is reproducible to the bit
    scale = np.array([(m / max(size, 1)) ** (1 << k) for size in range(m + 1)])
    return _select(A, _subset_uniformity_counts(A, k), beta, scale)


def _subset_sums_over_masks(weights: np.ndarray) -> np.ndarray:
    """DP table in the weights' dtype: for every bitmask over m items, the sum of
    selected weights."""
    m = weights.size
    out = np.zeros(1 << m, dtype=weights.dtype)
    size = 1
    for i in range(m):
        out[size:2 * size] = out[:size] + weights[i]
        size *= 2
    return out


def extract_connected_subset(A: GSet, q: WeightKernel, beta1: float, beta2: float,
                             rho: float) -> tuple[GSet, int]:
    """Iteratively strip violating subsets until every mid-sized subset keeps a
    rho * density share of the kernel energy.

    A subset C of the current set V violates when E_q(C, V) < rho (|C|/|V|) E_q(V);
    the cross energy is linear in C, so the scan is a subset-sum sweep.  The first
    violator in ascending-bitmask order is removed.  On exit the survivor V* has
    E_q(V*) > (1 - beta2 rho)^{2s} E_q(A) for the returned step count s."""
    if not 0 < beta1 <= beta2 <= 1:
        raise ValueError("need 0 < beta1 <= beta2 <= 1")
    if not rho < beta1 / beta2:
        raise PreconditionError("need rho < beta1/beta2")
    _check_scan(A, SUBSET_SEARCH_CAP)

    current = A
    steps = 0
    while True:
        mem = current.members
        m = mem.size
        row = q.row_sums(current)
        w = np.asarray([int(row[x]) if isinstance(row[x], (int, np.integer)) else float(row[x])
                        for x in mem.tolist()])
        eq_v = w.sum()  # E_q(V) = sum_{x in V} w_V(x)
        if eq_v <= 0:
            raise PreconditionError("kernel energy vanished; no guarantee applies")
        exact = w.dtype.kind in "iu"
        sums = _subset_sums_over_masks(w if exact else w.astype(np.float64))
        pops = _popcounts(1 << m)
        lo = beta1 * m - 1e-9
        hi = beta2 * m + 1e-9
        eligible = (pops >= lo) & (pops <= hi) & (pops > 0)
        # violation: E_q(C, V) < rho * (|C|/|V|) * E_q(V), with E_q(C, V) linear in C
        viol = eligible & (sums.astype(np.float64) * m < rho * pops * float(eq_v))
        hits = np.flatnonzero(viol)
        first = -1
        if exact:
            rho_f = Fraction(rho)
            for h in hits.tolist():
                if Fraction(int(sums[h]) * m) < rho_f * int(pops[h]) * int(eq_v):
                    first = int(h)
                    break
        elif hits.size:
            first = int(hits[0])
        if first < 0:
            return current, steps
        current = current.difference(_decode(current, first))
        steps += 1


def extraction_step_cap(A: GSet, q: WeightKernel, beta1: float, beta2: float, rho: float) -> int:
    """Ceiling on the number of removal steps, from the kernel-energy density."""
    eq = q.energy(A, A)
    c = float(eq) / (A.card * A.card * q.norm_inf())
    if c >= 1:
        return 0
    shrink = math.log((1 - beta2 * rho) / (1 - beta1))
    return math.ceil(math.log(1 / c) / (2 * shrink))


def connected_extraction_gamma_floor(k: int, beta: float, steps: int) -> float:
    """gamma implied for the (k, beta, gamma)-connected survivor after `steps` removals
    with the canonical parameters beta1=beta, beta2=1, rho=beta/2."""
    s = steps
    return 2.0 ** (-(2 * s * k + 2 * k - 2 * s)) * beta ** (2 * k) * (2 - beta) ** (2 * s * (k - 1))


@dataclass(frozen=True)
class SliceScan:
    """Result of the pseudorandom-slice scan (report-only)."""

    shift: int | None
    ratio: float | None
    slice_card: int
    qualifying: int


def min_slice_energy_ratio(A: GSet) -> SliceScan:
    """Scan s != 0 with |A_s| >= |A| / (2K), K = |A|^3/E(A); return the minimizer of
    E(A_s)/|A_s|^3.  Report-only: no constant is asserted."""
    if not A.card:
        raise PreconditionError("A must be nonempty")
    e2 = int(energy_k(A, 2).value)
    K = A.card ** 3 / e2
    floor = A.card / (2.0 * K)
    ca = set_correlate(A, A)
    best_s, best_ratio, best_card, count = None, None, 0, 0
    for s in np.flatnonzero(ca).tolist():
        if s == 0 or ca[s] < floor:
            continue
        count += 1
        As = A.slice1(s)
        ratio = int(energy_k(As, 2).value) / As.card ** 3
        if best_ratio is None or ratio < best_ratio:
            best_s, best_ratio, best_card = s, ratio, As.card
    return SliceScan(shift=best_s, ratio=best_ratio, slice_card=best_card, qualifying=count)


def small_doubling_subset_oracle(A: GSet, min_frac: float) -> tuple[GSet, float]:
    """Exhaustive search for the subset of relative size >= min_frac minimizing
    |A' - A'| / |A'|.  Ties break to the smallest bitmask.  Capped at 18 members."""
    _check_scan(A, ORACLE_CAP, "oracle")
    ratio, witness = _select(A, _subset_difference_counts(A), min_frac)
    return witness, ratio


def popular_slice_family(A: GSet, seed: int, C: float = 2.0) -> DisjointFamily:
    """Pipeline: regular part, then a dyadic popular-slice level, then the seeded
    randomized disjointification of those slices.

    The probabilistic step requires overlap mass at most 1e-4 t^2 delta, which
    forces at least ~10^4 slices at the chosen level; desk-scale inputs raise
    PreconditionError with the measured mass."""
    Ap = regular_part(A)
    ca = set_correlate(Ap, Ap)
    sup = [s for s in np.flatnonzero(ca).tolist() if s != 0]
    if not sup:
        raise PreconditionError("no nonzero slices available")
    levels: dict[int, list[int]] = {}
    for s in sup:
        levels.setdefault(int(ca[s]).bit_length(), []).append(s)
    # pick the level carrying the most squared slice mass
    best_level = max(levels, key=lambda L: _exact_sum(ca[levels[L]], 2))
    shifts = levels[best_level]
    delta = 1 << (best_level - 1)
    Ms = [Ap.slice1(s) for s in shifts]
    fam = random_disjoint_family(Ms, delta, C, seed)
    fam.provenance.update({"algorithm": "popular_slice_family", "level": best_level,
                           "shifts": [int(s) for s in shifts[:64]]})
    return fam
