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

Each exhaustive scan hands its values over the subset masks S to one selector
(`_select`: eligibility, ratio, first argmin, decoded witness).  The selector
takes BOUND_CHUNK masks at a time, with the same float operations at every
mask, and keeps the first minimum across chunks, so it makes no 2^m float
table.  The values of E_alpha (connectedness) and |B - B| (the oracle) are sums
over difference classes d of a function of cnt_d(S), the number of ordered
member pairs with difference d inside S, on the pairs grouped by
`_pair_classes`:
- integer alpha = k: cnt_d(S)^k counts the k-tuples of class-d pairs whose
  union lies in S, so one zeta (subset-sum) transform of the histogram of
  those unions gives every E_k(S), exactly, while the tuple count E_k(A) is
  at most 2^m;
- the oracle: [cnt_d(S) > 0] is an inclusion-exclusion sum over the unions of
  the class's distinct pair masks (`_subset_unions`), transformed the same way
  while its terms number at most 2^m;
- both transforms run in int32: the term count bounds every partial sum, and it
  is at most 2^m <= 2^SUBSET_SEARCH_CAP < 2^31 (`_zeta` runs its low passes as
  strided adds, each element still added once per pass, so no value changes);
- non-integer alpha takes two phases (`_fractional_gamma`).  The same unions,
  weighted by the Newton forward differences of c -> c^alpha, go through one
  float64 zeta transform: an estimate of every E_alpha(S) with an a-priori
  error bound.  Only the masks whose ratio the bound cannot rule out of the
  minimum are re-evaluated by the class sweep, so gamma and its witness are
  those of a full sweep, to the bit.  Past 2^m terms the full sweep runs;
- otherwise a class sweep counts cnt_d(S) for all masks (or for a given mask
  array) in uint8 and adds table[cnt_d(S)] class by class in ascending order,
  so float results are reproducible to the bit.  Integer sums stay in int64
  while E_k(A) < INT64_SAFE_BOUND and use Python integers beyond.
The route follows from alpha and the class sizes alone.  The uniformity table
(`_subset_uniformity_counts`) runs the slice recursion of `gowers` over all
masks at once, on its own grouping of the pairs, in int64.  `connectedness_gamma`
holds its (gamma, witness) in the set's cache under (alpha, beta).
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
BOUND_CHUNK = 1 << 15
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


_POPCOUNTS = np.zeros(1, dtype=np.uint8)


def _popcounts(n_masks: int) -> np.ndarray:
    """|S| for the masks S = 0 .. n_masks - 1: a read-only uint8 view of one cached
    table, rebuilt only for a larger n_masks (a prefix of a larger table is the
    smaller one)."""
    global _POPCOUNTS
    if _POPCOUNTS.size < n_masks:
        table = np.bitwise_count(np.arange(n_masks, dtype=np.uint32))
        table.flags.writeable = False
        _POPCOUNTS = table
    return _POPCOUNTS[:n_masks]


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
    """In place: h[S] becomes the sum of h[T] over all T inside S (m passes).

    Pass i adds h[S] into h[S | 1<<i] for every S without bit i, once per element,
    so the result does not depend on how a pass is laid out.  Passes i < 4 run as
    2^i strided adds over the whole table, h[s + r :: 2s] += h[r :: 2s] with
    s = 2^i; a pass over inner blocks of 2^i elements runs slower."""
    for i in range(min(m, 4)):
        s = 1 << i
        for r in range(s):
            h[s + r::2 * s] += h[r::2 * s]
    for i in range(4, m):
        v = h.reshape(-1, 2, 1 << i)
        v[:, 1] += v[:, 0]
    return h


def _class_sweep(m: int, masks: np.ndarray, bounds: np.ndarray, lut: np.ndarray,
                 at: np.ndarray | None = None) -> np.ndarray:
    """sum_d lut[cnt_d(S)] for every mask S, or for the masks S in `at`, added class
    by class in ascending order, so a float value is reproducible to the bit and
    the same at a mask whichever masks are swept with it.  Counts are uint8:
    cnt_d <= m."""
    idx = np.arange(1 << m, dtype=np.uint32) if at is None else at
    bits = [((idx >> i) & 1).astype(np.uint8) for i in range(m)]
    acc = np.zeros(idx.size, dtype=lut.dtype)
    term = np.empty(idx.size, dtype=lut.dtype)
    cnt = np.empty(idx.size, dtype=np.uint8)
    pair = np.empty(idx.size, dtype=np.uint8)
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
    unions gives every value, in int32: the histogram is nonnegative, so every
    partial sum of the transform is at most E_k(A) <= 2^m <= 2^SUBSET_SEARCH_CAP
    < 2^31.  Otherwise the class sweep runs, in int64 while E_k(A) (an upper
    bound on every E_k(S), itself at most m^(k+1)) is below INT64_SAFE_BOUND and
    in Python ints beyond.  Non-integer alpha is a float class sweep."""
    m = A.card
    masks, bounds = _pair_classes(A)
    sizes = np.diff(bounds)
    c = np.arange(int(sizes.max()) + 1)
    if float(alpha) != int(alpha):
        return _class_sweep(m, masks, bounds, _power_lut(c, alpha))
    k = int(alpha)
    e_full = sum(int(s) ** k for s in sizes.tolist())
    if k >= 1 and e_full <= 1 << m:
        hist = np.bincount(_tuple_unions(masks, bounds, k), minlength=1 << m)
        return _zeta(hist.astype(np.int32), m)
    dtype = np.int64 if e_full < INT64_SAFE_BOUND else object
    return _class_sweep(m, masks, bounds, np.array([v ** k for v in c.tolist()], dtype=dtype))


def _power_lut(c: np.ndarray, alpha: float) -> np.ndarray:
    """c^alpha for the counts c, and 0 at c = 0, as float64."""
    return np.where(c > 0, c.astype(np.float64), 1.0) ** float(alpha) * (c > 0)


def _distinct_pairs(m: int, masks: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct pair masks of every nonzero class: (owner, mask, distinct), the
    class and mask of each in ascending (class, mask) order, and u_d, the number
    per class.  (i, j) and (j, i) share a mask, and one class, exactly when 2d = 0,
    so a class holds u_d or 2 u_d pairs."""
    pair_class = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    key = np.unique((pair_class[bounds[1]:] << m) | masks[bounds[1]:])
    owner = key >> m
    return owner, key & ((1 << m) - 1), np.bincount(owner, minlength=bounds.size - 1)


def _union_terms(distinct: np.ndarray) -> int:
    """sum_d (2^u_d - 1): the nonempty subsets of the classes' distinct pair masks."""
    return sum((1 << int(n)) - 1 for n in distinct.tolist())


def _subset_unions(owner: np.ndarray, mask: np.ndarray,
                   distinct: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonempty subset K of one class's distinct pair masks, over all classes:
    (class, union of the masks in K, |K|), _union_terms(distinct) entries."""
    rank = np.arange(owner.size) - (np.cumsum(distinct) - distinct)[owner]
    table = np.zeros((distinct.size, int(distinct.max(initial=0))), dtype=np.int64)
    table[owner, rank] = mask
    cls = np.flatnonzero(distinct)
    unions = np.zeros(cls.size, dtype=np.int64)
    size = np.zeros(cls.size, dtype=np.int64)
    for r in range(table.shape[1]):
        grow = distinct[cls] > r
        cls = np.concatenate((cls, cls[grow]))
        unions = np.concatenate((unions, unions[grow] | table[cls[grow.size:], r]))
        size = np.concatenate((size, size[grow] + 1))
    nonempty = size > 0
    return cls[nonempty], unions[nonempty], size[nonempty]


def _subset_difference_counts(A: GSet) -> np.ndarray:
    """|B - B| of the subset at every mask S: the number of classes with cnt_d(S) > 0.

    Class 0 (d = 0) counts for every nonempty S.  For another class with distinct
    pair masks p_1..p_n, inclusion-exclusion gives [cnt_d(S) > 0] as the sum over
    nonempty K of (-1)^(|K|+1) [union of p_K inside S]; while those 2^n - 1 terms
    sum to at most 2^m over the classes, one zeta transform of their signed
    histogram gives every count, in int32: every partial sum of the transform
    adds some of the terms, so its magnitude is at most 2^m <= 2^SUBSET_SEARCH_CAP
    < 2^31.  Otherwise the class sweep counts [cnt_d > 0]."""
    m = A.card
    n_masks = 1 << m
    masks, bounds = _pair_classes(A)
    owner, pair_mask, distinct = _distinct_pairs(m, masks, bounds)
    if _union_terms(distinct) > n_masks:
        return _class_sweep(m, masks, bounds, (np.arange(m + 1) > 0).astype(np.int64))
    _cls, unions, size = _subset_unions(owner, pair_mask, distinct)
    odd = (size & 1) == 1
    h = np.bincount(unions[odd], minlength=n_masks) - np.bincount(unions[~odd], minlength=n_masks)
    out = _zeta(h.astype(np.int32), m)
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
    table = _popcounts(1 << m).astype(np.int64) ** 2
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
    without a scale.  It is taken BOUND_CHUNK masks at a time, with the same float
    operations at every mask, the ineligible ones set to inf; a chunk's first
    minimum replaces the best so far only when strictly smaller, so the first
    minimum over all masks wins."""
    m = A.card
    sizes = _popcounts(1 << m)
    least = _least_size(m, frac)
    total = float(table[-1])
    best, best_mask = math.inf, 0
    for part in _chunks(1 << m):
        size = sizes[part]
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 at mask 0
            if scale is None:
                ratios = table[part] / size
            else:
                ratios = table[part].astype(np.float64)
                ratios *= _per_mask(scale, size)
                ratios /= total
        np.putmask(ratios, size < least, np.inf)
        at = int(np.argmin(ratios))
        if ratios[at] < best:
            best, best_mask = float(ratios[at]), part.start + at
    return best, _decode(A, best_mask)


def _least_size(m: int, frac: float) -> np.uint8:
    """The least size of a mask a scan selects from: the nonempty masks S with
    |S| >= frac m are those with |S| >= this (m + 1 when there are none)."""
    sizes = np.arange(1, m + 1)
    return np.uint8(sizes[sizes >= frac * m - 1e-9].min(initial=m + 1))


def _chunks(n_masks: int) -> list[slice]:
    """The masks 0 .. n_masks - 1, BOUND_CHUNK at a time."""
    return [slice(c, c + BOUND_CHUNK) for c in range(0, n_masks, BOUND_CHUNK)]


def _per_mask(by_size: np.ndarray, size: np.ndarray) -> np.ndarray:
    """by_size[|S|] at the masks S of a chunk, from their popcounts.  Every
    popcount indexes the table, so "clip" never clips; np.take with it gathers
    faster than indexing by uint8."""
    return np.take(by_size, size, mode="clip")


def _gamma_n(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2^-53: the relative error bound of n float64
    roundings (Higham, Accuracy and Stability of Numerical Algorithms, section 3.4)."""
    nu = n * 2.0 ** -53
    return nu / (1 - nu)


def _forward_differences(values: np.ndarray) -> list[float]:
    """Delta^j g(0) for j = 0 .. n - 1, where g(i) = values[i]: computed exactly from
    the float values and rounded once each."""
    row = [Fraction(v) for v in values.tolist()]
    out = []
    while row:
        out.append(float(row[0]))
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def _power_sum_estimate(m: int, masks: np.ndarray, bounds: np.ndarray,
                        lut: np.ndarray) -> tuple[np.ndarray, float] | None:
    """An estimate of E(S) = sum_d lut[cnt_d(S)] at every mask S and an a-priori
    bound eps on its error: (est, eps), or None past 2^m terms.

    A nonzero class d with u_d distinct pair masks q_1..q_u, w pairs per mask,
    adds g(#{q_k inside S}) with g(n) = lut[w n], and by Newton's
    forward-difference formula g(n) = sum_j C(n, j) Delta^j g(0), that is, the
    sum over nonempty K of Delta^|K| g(0) [union of q_K inside S].  One float64
    zeta transform of those weights, plus lut[|S|] for class 0, is the estimate.
    Each weight w_K is rounded once, and each reaches a mask through at most
    D = m + c additions (c: the most terms sharing a union, summed in a chain by
    bincount; m zeta passes; the class-0 add), so the estimate is within
    gamma_{D+1} (sum_K |w_K| + max lut[0..m]) of E(S) (Higham, section 4.2);
    eps takes gamma_{D+4}, which covers the roundings of evaluating it."""
    n_masks = 1 << m
    owner, pair_mask, distinct = _distinct_pairs(m, masks, bounds)
    if _union_terms(distinct) > n_masks:
        return None
    cls, unions, size = _subset_unions(owner, pair_mask, distinct)
    per_mask = np.diff(bounds) // np.maximum(distinct, 1)  # w: 1, or 2 when 2d = 0
    newton = np.zeros((3, int(distinct.max(initial=0)) + 1))
    for w in (1, 2):
        u = int(distinct[per_mask == w].max(initial=0))
        newton[w, :u + 1] = _forward_differences(lut[:w * u + 1:w])
    weights = newton[per_mask[cls], size]
    chain = int(np.unique(unions, return_counts=True)[1].max(initial=0))
    eps = _gamma_n(m + chain + 4) * (math.fsum(np.abs(weights).tolist()) + float(lut[:m + 1].max()))
    est = _zeta(np.bincount(unions, weights, minlength=n_masks), m)
    sizes = _popcounts(n_masks)
    for part in _chunks(n_masks):  # class 0: cnt_0(S) = |S|
        est[part] += _per_mask(lut, sizes[part])
    return est, eps


def _fractional_gamma(A: GSet, alpha: float, beta: float,
                      scale: np.ndarray) -> tuple[float, GSet] | None:
    """connectedness_gamma at non-integer alpha, equal to the bit to
    `_select(A, _subset_power_sums(A, alpha), beta, scale)`, in two phases, or
    None past 2^m terms.

    Phase 1 (`_power_sum_estimate`) gives every E(S) to within eps.  Phase 2: the
    class sweep adds K class terms, so its value lies within gamma_{K-1} E(S) of
    E(S), and the ratio rounds twice more (the scale multiply and the division
    by the sweep's E(A)).  hi(S) = (est + eps) scale and lo(S) = (est - eps) scale,
    each rounded twice, bound those ratios times E(A), and
    lo(S) > (1 + 4 gamma_{K+8}) min hi puts S strictly above some eligible mask's
    ratio.  So every minimizer is a candidate, the sweep on the candidates alone
    reproduces their ratios, and its first argmin is the full scan's."""
    m = A.card
    n_masks = 1 << m
    masks, bounds = _pair_classes(A)
    lut = _power_lut(np.arange(int(np.diff(bounds).max()) + 1), alpha)
    estimate = _power_sum_estimate(m, masks, bounds, lut)
    if estimate is None:
        return None
    est, eps = estimate
    sizes = _popcounts(n_masks)
    least = _least_size(m, beta)
    # the bounds a chunk of masks at a time, so no table but the estimate is 2^m long
    parts = _chunks(n_masks)
    top = min(float(((est[part] + eps) * _per_mask(scale, sizes[part]))[sizes[part] >= least]
                    .min(initial=math.inf)) for part in parts)
    top *= 1 + 4 * _gamma_n(bounds.size + 7)
    cand = np.flatnonzero(np.concatenate([
        (sizes[part] >= least) & ((est[part] - eps) * _per_mask(scale, sizes[part]) <= top)
        for part in parts]))
    if not cand.size:
        return math.inf, _decode(A, 0)

    values = _class_sweep(m, masks, bounds, lut, np.append(cand, n_masks - 1))
    ratios = values[:-1] * scale[sizes[cand]] / float(values[-1])
    best = int(np.argmin(ratios))
    return float(ratios[best]), _decode(A, int(cand[best]))


def connectedness_gamma(A: GSet, alpha: float, beta: float) -> tuple[float, GSet]:
    """gamma = min over B subset of A with |B| >= beta |A| of
    E_alpha(B) (|A|/|B|)^(2 alpha) / E_alpha(A), with its first minimizing witness.

    The scale (|A|/|B|)^(2 alpha) is numpy's array power and must stay so: libm
    pow rounds some of these values differently, and the frozen gammas, printed
    with repr, were computed with this one.

    Integer alpha scans an exact table, int32 on the zeta route (every partial
    sum is at most E_alpha(A) <= 2^m < 2^31); non-integer alpha takes the
    two-phase scan.  The selector reads the table BOUND_CHUNK masks at a time and
    keeps the first minimum across chunks.  The result is held in A.cache under
    (alpha, beta), so a later call on the same set object, such as a re-check
    after an extraction that removed nothing, reads it; another beta is a scan of
    its own."""
    _check_scan(A, SUBSET_SEARCH_CAP)
    key = ("connectedness_gamma", alpha, beta)
    if key not in A.cache:
        A.cache[key] = _connectedness_gamma(A, alpha, beta)
    return A.cache[key]


def _connectedness_gamma(A: GSet, alpha: float, beta: float) -> tuple[float, GSet]:
    m = A.card
    scale = (m / np.maximum(np.arange(m + 1.0), 1)) ** (2 * alpha)
    if float(alpha) != int(alpha):
        found = _fractional_gamma(A, float(alpha), beta, scale)
        if found is not None:
            return found
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
    E_q(V*) > (1 - beta2 rho)^{2s} E_q(A) for the returned step count s.  An
    integer kernel is scanned exactly; a kernel energy E_q(V) of INT64_SAFE_BOUND
    or more raises ValueError."""
    if not 0 < beta1 <= beta2 <= 1:
        raise ValueError("need 0 < beta1 <= beta2 <= 1")
    if not rho < beta1 / beta2:
        raise PreconditionError("need rho < beta1/beta2")
    _check_scan(A, SUBSET_SEARCH_CAP)

    current = A
    steps = 0
    while True:
        w = q.row_sums(current)[current.members]  # w_V(x) over x in V; Python ints past int64
        if w.dtype.kind in "iuO":
            # E_q(V) = sum_{x in V} w_V(x), exactly: it bounds every subset sum of the int64 table
            eq_v = sum(w.tolist())
            if eq_v >= INT64_SAFE_BOUND:
                raise ValueError(f"kernel energy {eq_v} reaches INT64_SAFE_BOUND = 2^62, "
                                 "past which the subset sums are not exact")
            w = w.astype(np.int64)
        else:
            w = w.astype(np.float64)
            eq_v = w.sum()
        if eq_v <= 0:
            raise PreconditionError("kernel energy vanished; no guarantee applies")
        first = _first_violator(w, eq_v, beta1, beta2, rho)
        if first < 0:
            return current, steps
        current = current.difference(_decode(current, first))
        steps += 1


def _first_violator(w: np.ndarray, eq_v, beta1: float, beta2: float, rho: float) -> int:
    """The first mask C in ascending order with beta1 m <= |C| <= beta2 m, C nonempty
    and E_q(C, V) m < rho |C| E_q(V), where E_q(C, V) is the sum of w over C; -1 if
    there is none.  The test runs BOUND_CHUNK masks at a time.

    Float weights decide in float.  Integer weights (int64, sum eq_v below
    INT64_SAFE_BOUND) decide by an exact Fraction test on the masks a float
    prefilter keeps.  With u = 2^-53, the prefilter's left side S m takes 2
    roundings, so it is at most S m (1 + u)^2; its right side rho |C| E_q(V) takes
    3 and the widening by 1 + 8u one more, so it is at least
    rho |C| E_q(V) (1 + 8u)(1 - u)^4 >= rho |C| E_q(V) (1 + u)^2.  Every true
    violator therefore passes the prefilter (w >= 0, so for rho <= 0 there is
    none to keep)."""
    m = w.size
    sums = _subset_sums_over_masks(w)
    pops = _popcounts(1 << m)
    lo = beta1 * m - 1e-9
    hi = beta2 * m + 1e-9
    exact = w.dtype.kind == "i"
    widen = 1 + 8 * 2.0 ** -53 if exact else 1.0
    rho_f = Fraction(rho)
    for part in _chunks(1 << m):
        size = pops[part]
        eligible = (size >= lo) & (size <= hi) & (size > 0)
        # violation: E_q(C, V) < rho * (|C|/|V|) * E_q(V), with E_q(C, V) linear in C
        hits = np.flatnonzero(eligible & (sums[part].astype(np.float64) * m
                                          < rho * size * float(eq_v) * widen))
        if not exact:
            if hits.size:
                return part.start + int(hits[0])
            continue
        for h in (part.start + hits).tolist():
            if Fraction(int(sums[h]) * m) < rho_f * int(pops[h]) * eq_v:
                return h
    return -1


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
