"""The exhaustive subset-scan kernels of `structure`, mask by mask against brute
oracles: E_k of every subset (zeta transform of the tuple-union histogram, and
the class sweep) and |B - B| of every subset (inclusion-exclusion transform,
and the class sweep); the float class sweep against the per-class loop it
replaced, to the bit; the int64 escalation; and the scans' peak memory."""

import tracemalloc

import numpy as np
import pytest

from energylab.constructors import arithmetic_progression
from energylab.energy import energy_k
from energylab.group import make_group
from energylab.setfun import GSet, difference_set
from energylab.structure import (_class_sweep, _pair_classes, _popcounts, _subset_difference_counts,
                                 _subset_power_sums, _tuple_unions, _zeta, connectedness_gamma,
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
