"""The exhaustive subset-scan kernels of `structure`, mask by mask against brute
oracles: E_k of every subset (zeta transform of the tuple-union histogram, and
the class sweep), |B - B| of every subset (inclusion-exclusion transform, and
the class sweep) and the order-k uniformity count of every subset (the mask
slice recursion); the float class sweep against the per-class loop it
replaced, to the bit; the uniformity scan against the per-subset loop it
replaced, to the bit; the int64 escalation; and the scans' peak memory.

Non-integer alpha takes two phases: a float zeta estimate with an error bound,
then the class sweep on the candidate masks only, or the full sweep past 2^m
terms.  Its estimate is checked against correctly rounded sums to within its
bound, its gamma and witness against an argmin taken here over the per-class
loop, to the bit, on tie-heavy sets too, and its route on each side.

The layout of the scans: the zeta transform against the per-pass loop it
replaced, to the bit, in int32, int64 and float64; the int32 tables; the chunked
selector against the whole-table one, ties across a chunk boundary included;
and gamma held on the set per (alpha, beta)."""

import math
import tracemalloc

import numpy as np
import pytest

from energylab import structure
from energylab.constructors import arithmetic_progression, subspace
from energylab.energy import energy_k
from energylab.gowers import gowers_u
from energylab.group import make_group
from energylab.setfun import GSet, difference_set
from energylab.structure import (_class_sweep, _pair_classes, _popcounts, _power_lut,
                                 _power_sum_estimate, _select, _subset_difference_counts,
                                 _subset_power_sums, _subset_uniformity_counts, _tuple_unions,
                                 _zeta, connectedness_gamma, gowers_connectedness_gamma,
                                 small_doubling_subset_oracle)


def _draw(factors, m, seed):
    g = make_group(factors)
    rng = np.random.default_rng(seed)
    return GSet.from_indices(g, rng.choice(g.size, m, replace=False).tolist())


def _scan_sets():
    sets = []
    for seed, m in enumerate((3, 6, 8)):
        sets.append(_draw((2, 4), m, seed))
    for seed, m in enumerate((5, 9, 10)):
        sets.append(_draw((3, 3, 2), m, 10 + seed))
    for seed, m in enumerate((7, 10)):
        sets.append(_draw((31,), m, 20 + seed))
    sets.append(arithmetic_progression(31, 2, 5, 9))
    # a subgroup (large difference classes) plus points outside it
    g = make_group((2, 4, 3))
    sets.append(GSet.from_indices(g, [0, 3, 6, 9, 12, 15, 18, 21, 1, 5]))
    g = make_group((2, 2, 2, 2))
    sets.append(GSet.from_indices(g, list(range(8)) + [9, 14]))
    return sets


SCAN_SETS = _scan_sets()


def _subset(A, mask):
    mem = A.members.tolist()
    return GSet.from_indices(A.group, [mem[i] for i in range(len(mem)) if (mask >> i) & 1])


@pytest.mark.parametrize("A", SCAN_SETS, ids=lambda A: f"{A.group}-{A.card}")
def test_power_sums_match_energy_of_every_subset(A):
    m = A.card
    masks, bounds = _pair_classes(A)
    top = int(np.diff(bounds).max())
    for k in (1, 2, 3, 4):
        dispatched = _subset_power_sums(A, k)
        transform = _zeta(np.bincount(_tuple_unions(masks, bounds, k), minlength=1 << m), m)
        sweep = _class_sweep(m, masks, bounds, np.arange(top + 1, dtype=np.int64) ** k)
        brute = [int(energy_k(_subset(A, s), k).value) if s else 0 for s in range(1 << m)]
        assert dispatched.tolist() == brute
        assert transform.tolist() == brute
        assert sweep.tolist() == brute


@pytest.mark.parametrize("A", SCAN_SETS, ids=lambda A: f"{A.group}-{A.card}")
def test_difference_counts_match_every_subset(A):
    m = A.card
    masks, bounds = _pair_classes(A)
    sweep = _class_sweep(m, masks, bounds, (np.arange(m + 1) > 0).astype(np.int64))
    brute = [difference_set(B, B).card for B in (_subset(A, s) for s in range(1 << m))]
    assert _subset_difference_counts(A).tolist() == brute
    assert sweep.tolist() == brute


def _brute_uniformity(S: frozenset, k: int, diff: dict, memo: dict) -> int:
    """U_k(S) by its recursion on Python sets: U_1(S) = |S|^2 and U_k(S) is the sum
    over h of U_{k-1}(S cap (S - h)), where S cap (S - h) = {x in S : x + h in S}
    gathers the x of the pairs (x, y) in S^2 with diff[y, x] = y - x = h."""
    if k == 1:
        return len(S) ** 2
    if (S, k) not in memo:
        slices: dict[int, set] = {}
        for x in S:
            for y in S:
                slices.setdefault(diff[y, x], set()).add(x)
        memo[S, k] = sum(_brute_uniformity(frozenset(X), k - 1, diff, memo)
                         for X in slices.values())
    return memo[S, k]


@pytest.mark.parametrize("A", SCAN_SETS, ids=lambda A: f"{A.group}-{A.card}")
def test_uniformity_counts_match_every_subset(A):
    m = A.card
    mem = A.members.tolist()
    diff = {(y, x): A.group.sub(y, x) for x in mem for y in mem}
    subsets = [_subset(A, s) for s in range(1 << m)]
    memo: dict = {}
    for k in (1, 2, 3, 4):
        table = _subset_uniformity_counts(A, k).tolist()
        assert table == [gowers_u(B, k).count for B in subsets]
        assert table == [_brute_uniformity(frozenset(B.members.tolist()), k, diff, memo)
                         for B in subsets]
        if k == 2:
            assert table == _subset_power_sums(A, 2).tolist()


def _reference_gowers_gamma(A, k, beta):
    """The per-subset loop the uniformity scan replaced: one gowers_u per subset."""
    a = A.card
    u_a = gowers_u(A, k).count
    best_gamma, best_mask = math.inf, 0
    for mask in range(1, 1 << a):
        size = mask.bit_count()
        if size < beta * a - 1e-9:
            continue
        ratio = gowers_u(_subset(A, mask), k).count * (a / size) ** (1 << k) / u_a
        if ratio < best_gamma:
            best_gamma, best_mask = ratio, mask
    return float(best_gamma), _subset(A, best_mask)


# the last set's gamma at k = 2, beta = 0.3 lies on a size whose scale (6/5)^4
# numpy's array power rounds one ulp away from libm pow
@pytest.mark.parametrize("A", SCAN_SETS[::2] + [GSet.from_indices(make_group((2, 4, 3)),
                                                                  [3, 7, 9, 11, 12, 18])],
                         ids=lambda A: f"{A.group}-{A.card}")
def test_gowers_gamma_matches_the_per_subset_loop(A):
    for k in (1, 2, 3):
        for beta in (0.3, 0.5, 2 / 3, 1.0):
            gamma, witness = gowers_connectedness_gamma(A, k, beta)
            want_gamma, want_witness = _reference_gowers_gamma(A, k, beta)
            assert gamma.hex() == want_gamma.hex()
            assert witness == want_witness


def test_both_routes_are_covered():
    """The sets above put each scan on each side of its route rule."""
    power_routes, count_routes = set(), set()
    for A in SCAN_SETS:
        m = A.card
        mem = A.members.tolist()
        pairs: dict[int, list[tuple[int, int]]] = {}
        for i, x in enumerate(mem):
            for j, y in enumerate(mem):
                pairs.setdefault(A.group.sub(x, y), []).append((i, j))
        for k in (1, 2, 3, 4):
            power_routes.add(sum(len(p) ** k for p in pairs.values()) <= 1 << m)
        terms = sum(2 ** len({frozenset(p) for p in ps}) - 1 for d, ps in pairs.items() if d)
        count_routes.add(terms <= 1 << m)
    assert power_routes == {True, False}
    assert count_routes == {True, False}


def _reference_float_power_sums(A, alpha):
    """The per-class loop the float sweep replaced: int64 counts from the pairwise
    difference table, one class at a time in ascending difference order."""
    g, mem = A.group, A.members
    m = mem.size
    diffs = g.sub_indices(np.repeat(mem, m), np.tile(mem, m)).reshape(m, m)
    uniq, inv = np.unique(diffs, return_inverse=True)
    classes = inv.reshape(m, m)
    masks = np.arange(1 << m, dtype=np.int64)
    bit = [(masks >> i) & 1 for i in range(m)]
    acc = np.zeros(1 << m, dtype=np.float64)
    for d in range(uniq.size):
        cnt = np.zeros(1 << m, dtype=np.int64)
        for i, j in np.argwhere(classes == d):
            cnt += bit[i] & bit[j]
        acc += np.where(cnt > 0, cnt.astype(np.float64), 1.0) ** float(alpha) * (cnt > 0)
    return acc


@pytest.mark.parametrize("alpha", [1.5, 2.5])
def test_float_power_sums_bit_identical(alpha):
    sets = SCAN_SETS + [_draw((101,), 13, 5), _draw((2,) * 8, 12, 6), _draw((2, 4, 3, 3), 12, 7),
                        arithmetic_progression(256, 0, 16, 12)]
    for A in sets:
        got = _subset_power_sums(A, alpha)
        want = _reference_float_power_sums(A, alpha)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def test_power_sums_escalate_past_int64():
    # E_25 of this AP is about 1.2e25; an int64 accumulation wraps
    A = arithmetic_progression(101, 0, 3, 10)
    sums = _subset_power_sums(A, 25)
    assert int(sums[-1]) == int(energy_k(A, 25).value) == 11514093435224949502083250
    for s in (0b1, 0b1011, 0b1111100000):
        assert int(sums[s]) == int(energy_k(_subset(A, s), 25).value)
    gamma, witness = connectedness_gamma(A, 25, 0.5)
    assert 0 < gamma <= 1.0
    assert witness.card >= 5


def test_popcounts():
    assert _popcounts(8).tolist() == [0, 1, 1, 2, 1, 2, 2, 3]


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_peak_memory_at_m18():
    A = _draw((101,), 18, 3)
    assert _peak_bytes(lambda: connectedness_gamma(A, 2, 0.5)) < 24 * 2 ** 20
    assert _peak_bytes(lambda: connectedness_gamma(A, 1.5, 0.5)) < 24 * 2 ** 20
    assert _peak_bytes(lambda: small_doubling_subset_oracle(A, 0.5)) < 24 * 2 ** 20
    assert _peak_bytes(lambda: gowers_connectedness_gamma(A, 3, 0.5)) < 24 * 2 ** 20


def test_fractional_scan_peak_memory_at_m18(monkeypatch):
    """The two-phase scan holds one 2^m float table, the estimate; the bounds are
    taken a chunk at a time and the class sweep runs on the candidates only."""
    A = _draw((101,), 18, 3)
    swept = _sweep_sizes(monkeypatch)
    assert _peak_bytes(lambda: connectedness_gamma(A, 1.5, 0.5)) < 8 * 2 ** 20
    assert len(swept) == 1 and swept[0] < 1 << 10


# -- fractional alpha: the two-phase scan -----------------------------------------------

# subgroups of F_2^4 and F_2^5 (every class has 2d = 0, and many subsets tie) and an
# AP in Z_256, whose classes put it past 2^m terms
TIE_SETS = [subspace(4, 3), subspace(4, 4), subspace(5, 4), arithmetic_progression(256, 0, 16, 12)]
FRACTIONAL_SETS = SCAN_SETS + TIE_SETS


def _reference_class_counts(A):
    """cnt_d(S) for every difference class d (ascending) and mask S, from the
    pairwise difference table."""
    g, mem = A.group, A.members
    m = mem.size
    diffs = g.sub_indices(np.repeat(mem, m), np.tile(mem, m)).reshape(m, m)
    _uniq, classes = np.unique(diffs, return_inverse=True)
    masks = np.arange(1 << m, dtype=np.int64)
    counts = np.zeros((classes.max() + 1, 1 << m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            counts[classes[i, j]] += (masks >> i) & (masks >> j) & 1
    return counts


def _reference_gamma(A, alpha, beta, table):
    """The first argmin of gamma's ratio over a full table of E_alpha, taken here."""
    m = A.card
    sizes = np.array([bin(s).count("1") for s in range(1 << m)])
    scale = (m / np.maximum(np.arange(m + 1.0), 1)) ** (2 * alpha)
    ratios = table * scale[sizes] / table[-1]
    ratios[(sizes == 0) | (sizes < beta * m - 1e-9)] = np.inf
    best = int(np.argmin(ratios))
    return float(ratios[best]), _subset(A, best)


def _sweep_sizes(monkeypatch):
    """The number of masks of every class sweep run from here on."""
    sizes = []
    real = structure._class_sweep

    def spy(m, masks, bounds, lut, at=None):
        sizes.append(1 << m if at is None else at.size)
        return real(m, masks, bounds, lut, at)

    monkeypatch.setattr(structure, "_class_sweep", spy)
    return sizes


@pytest.mark.parametrize("A", FRACTIONAL_SETS, ids=lambda A: f"{A.group}-{A.card}")
def test_fractional_gamma_matches_the_reference_argmin(A):
    for alpha in (0.5, 1.25, 1.5, 2.5):
        table = _reference_float_power_sums(A, alpha)
        # beta = 1 leaves only A eligible, beta = 1.5 no mask at all
        for beta in (0.3, 0.5, 2 / 3, 1.0, 1.5):
            gamma, witness = connectedness_gamma(A, alpha, beta)
            want_gamma, want_witness = _reference_gamma(A, alpha, beta, table)
            assert gamma.hex() == want_gamma.hex()
            assert witness == want_witness


@pytest.mark.parametrize("A", FRACTIONAL_SETS, ids=lambda A: f"{A.group}-{A.card}")
def test_estimate_is_within_its_bound(A):
    """|est(S) - E(S)| <= eps at every mask, E(S) taken as the correctly rounded
    sum of the class terms (within one rounding of the exact sum)."""
    m = A.card
    masks, bounds = _pair_classes(A)
    counts = _reference_class_counts(A)
    for alpha in (0.5, 1.25, 1.5, 2.5):
        lut = _power_lut(np.arange(int(np.diff(bounds).max()) + 1), alpha)
        estimate = _power_sum_estimate(m, masks, bounds, lut)
        if estimate is None:
            continue
        est, eps = estimate
        exact = np.array([math.fsum(lut[counts[:, s]].tolist()) for s in range(1 << m)])
        assert np.all(np.abs(est - exact) <= eps + 2.0 ** -53 * exact)
        assert eps < 1e-9 * exact[-1]


def test_fractional_routes_are_covered():
    """The sets above put the two-phase scan on each side of its term count."""
    routes = set()
    for A in FRACTIONAL_SETS:
        masks, bounds = _pair_classes(A)
        routes.add(_power_sum_estimate(A.card, masks, bounds, _power_lut(np.arange(A.card ** 2 + 1), 1.5))
                   is not None)
    assert routes == {True, False}


def test_fractional_fallback_sweeps_every_mask(monkeypatch):
    A = arithmetic_progression(31, 2, 5, 9)  # 2 (2^9 - 10) terms, past 2^9
    swept = _sweep_sizes(monkeypatch)
    gamma, witness = connectedness_gamma(A, 1.5, 0.5)
    assert swept == [1 << 9]
    want = _reference_gamma(A, 1.5, 0.5, _reference_float_power_sums(A, 1.5))
    assert (gamma.hex(), witness) == (want[0].hex(), want[1])


@pytest.mark.parametrize("factors,m", [((101,), 18), ((256,), 16), ((2,) * 8, 14)])
def test_scan_small_shapes_take_the_two_phase_route(monkeypatch, factors, m):
    """On the scan-small shapes the class sweep runs on the candidates and the
    full set only, never on all 2^m masks."""
    A = _draw(factors, m, 11)
    swept = _sweep_sizes(monkeypatch)
    gamma, witness = connectedness_gamma(A, 1.5, 0.5)
    assert len(swept) == 1 and swept[0] < 1 << 10
    want = _reference_gamma(A, 1.5, 0.5, _reference_float_power_sums(A, 1.5))
    assert (gamma.hex(), witness) == (want[0].hex(), want[1])


# -- the layout of the scans: zeta passes, the chunked selector, the held gamma -------


def _reference_zeta(h, m):
    """The per-pass loop the strided low passes replaced: pass i adds h[S] into
    h[S | 1<<i] over the blocks of 2^(i+1) masks."""
    for i in range(m):
        v = h.reshape(-1, 2, 1 << i)
        v[:, 1] += v[:, 0]
    return h


def _elementwise_zeta(values, m):
    """The subset-sum transform one mask at a time, on Python numbers."""
    h = list(values)
    for i in range(m):
        for s in range(1 << m):
            if s >> i & 1:
                h[s] += h[s ^ (1 << i)]
    return h


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
@pytest.mark.parametrize("m", list(range(9)) + [18])
def test_zeta_matches_the_per_pass_loop(dtype, m):
    rng = np.random.default_rng(m)
    if dtype == np.float64:
        h = rng.standard_normal(1 << m)
    else:
        h = rng.integers(-7, 8, 1 << m).astype(dtype)
    got = _zeta(h.copy(), m)
    want = _reference_zeta(h.copy(), m)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()
    if m <= 8 and dtype != np.float64:
        assert got.tolist() == _elementwise_zeta(h.tolist(), m)


def test_zeta_tables_are_int32():
    """The zeta routes of E_k and |B - B| fill int32 tables; the class sweep stays
    int64."""
    A = _draw((101,), 12, 4)
    assert _subset_power_sums(A, 2).dtype == np.int32
    assert _subset_difference_counts(A).dtype == np.int32
    B = arithmetic_progression(31, 2, 5, 9)  # E_4 and the union terms pass 2^9
    assert _subset_power_sums(B, 4).dtype == np.int64
    assert _subset_difference_counts(B).dtype == np.int64


def _reference_select(A, table, frac, scale=None):
    """The selector over the whole table at once, as it ran before chunking."""
    m = A.card
    sizes = _popcounts(1 << m)
    with np.errstate(divide="ignore", invalid="ignore"):
        if scale is None:
            ratios = table / sizes
        else:
            ratios = table.astype(np.float64) * scale[sizes] / float(table[-1])
    eligible = sizes >= frac * m - 1e-9
    eligible[0] = False
    ratios[~eligible] = np.inf
    best = int(np.argmin(ratios))
    return float(ratios[best]), _subset(A, best)


def _chunk_set(m=16):
    """A set of m > log2(BOUND_CHUNK) members, so its masks span several chunks."""
    assert 1 << m > structure.BOUND_CHUNK
    return GSet.from_indices(make_group((101,)), range(m))


def test_select_tie_across_a_chunk_boundary_takes_the_first_mask():
    A = _chunk_set()
    m = A.card
    sizes = _popcounts(1 << m).astype(np.int64)
    first, second = structure.BOUND_CHUNK - 1, structure.BOUND_CHUNK + 0b111
    table = 3 * sizes
    table[[first, second]] = sizes[[first, second]]  # both at ratio 1, the minimum
    assert _select(A, table, 0.0) == (1.0, _subset(A, first))
    table[first] = 3 * sizes[first]
    assert _select(A, table, 0.0) == (1.0, _subset(A, second))
    # a scaled ratio ties the same way: table[S] * scale[|S|] / table[A]
    scale = np.ones(m + 1)
    table = np.full(1 << m, 5, dtype=np.int64)
    table[[first, second]] = 2
    assert _select(A, table, 0.0, scale) == (0.4, _subset(A, first))


def test_select_without_an_eligible_mask():
    A = _chunk_set()
    table = _popcounts(1 << A.card).astype(np.int64) + 1
    gamma, witness = _select(A, table, 1.5)
    assert gamma == math.inf and witness.card == 0
    gamma, witness = _select(A, table, 1.5, np.ones(A.card + 1))
    assert gamma == math.inf and witness.card == 0


@pytest.mark.parametrize("frac", [0.0, 0.3, 0.5, 2 / 3, 1.0])
def test_select_matches_the_whole_table_selector(frac):
    """Few distinct values, so ties fall in every chunk; with and without a scale,
    and on int32, int64 and Python-int tables."""
    A = _chunk_set(17)
    m = A.card
    rng = np.random.default_rng(17)
    table = rng.integers(1, 4, 1 << m) * _popcounts(1 << m)
    table[-1] = 40
    scale = (m / np.maximum(np.arange(m + 1.0), 1)) ** 2.5
    for tab in (table, table.astype(np.int32), table.astype(object)):
        got, want = _select(A, tab, frac, scale), _reference_select(A, tab, frac, scale)
        assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])
    got, want = _select(A, table, frac), _reference_select(A, table, frac)
    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])


def _scans(monkeypatch):
    """The (alpha, beta) of every connectedness scan run from here on."""
    runs = []
    real = structure._connectedness_gamma

    def spy(A, alpha, beta):
        runs.append((alpha, beta))
        return real(A, alpha, beta)

    monkeypatch.setattr(structure, "_connectedness_gamma", spy)
    return runs


def test_gamma_is_held_per_set_alpha_and_beta(monkeypatch):
    A = _draw((101,), 12, 8)
    runs = _scans(monkeypatch)
    first = connectedness_gamma(A, 2, 0.5)
    assert connectedness_gamma(A, 2, 0.5) is first
    assert connectedness_gamma(A, 2.0, 0.5) is first
    assert runs == [(2, 0.5)]
    other = connectedness_gamma(A, 2, 0.75)
    assert runs == [(2, 0.5), (2, 0.75)]
    assert other == _reference_gamma(A, 2, 0.75, _subset_power_sums(A, 2))
    connectedness_gamma(A, 1.5, 0.5)
    connectedness_gamma(A, 1.5, 0.5)
    assert runs == [(2, 0.5), (2, 0.75), (1.5, 0.5)]
    # the cache belongs to the set object: an equal set scans again
    twin = GSet(A.group, A.mask.copy())
    assert connectedness_gamma(twin, 2, 0.5) == first
    assert len(runs) == 4
