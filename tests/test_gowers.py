import math

import numpy as np
import pytest

from conftest import brute_gowers_count
from energylab.constructors import random_set, subspace
from energylab.energy import energy_k, pair_energy
import energylab.gowers as gowers
import energylab.setfun as setfun
from energylab.gowers import (gowers_normalized_monotonicity, gowers_pair_u3,
                              gowers_u)
from energylab.group import make_group
from energylab.setfun import GSet, _exact_sum, difference_set, set_correlate, sumset


def test_golden_counts(triple):
    assert [gowers_u(triple, d).count for d in (1, 2, 3, 4)] == [9, 19, 33, 51]


def test_subgroup_counts():
    H = subspace(4, 2)
    for d in (1, 2, 3, 4):
        assert gowers_u(H, d).count == H.card ** (d + 1)


def test_u2_is_energy():
    g = make_group([101])
    for seed in range(10):
        A = random_set(g, 0.15, seed)
        assert gowers_u(A, 2).count == energy_k(A, 2).value


def test_counts_match_brute_force():
    A = GSet.from_indices(make_group([5]), [0, 1, 3])
    for d in (1, 2, 3):
        assert gowers_u(A, d).count == brute_gowers_count([5], [0, 1, 3], d)
    B = GSet.from_indices(make_group([2, 3]), [0, 1, 4])
    for d in (1, 2, 3):
        assert gowers_u(B, d).count == brute_gowers_count([2, 3], [0, 1, 4], d)


def test_first_order_count_equals_slice_sum(triple):
    # the order-d count also equals the sum of |slice| over (d-1)-tuples; check d=2
    from energylab.setfun import set_correlate

    corr = set_correlate(triple, triple)
    assert gowers_u(triple, 2).count == sum(int(v) ** 2 for v in corr)
    assert gowers_u(triple, 1).count == int(corr.sum())


def test_order_cap():
    A = GSet.from_indices(make_group([5]), [0, 1])
    with pytest.raises(ValueError):
        gowers_u(A, 7)
    with pytest.raises(ValueError):
        gowers_u(A, 0)


def test_normalized_value(triple):
    gv = gowers_u(triple, 3)
    assert math.isclose(gv.normalized, (33 / 7 ** 4) ** 0.125, rel_tol=1e-12)


def test_pair_u3(triple):
    B = GSet.from_indices(triple.group, [0, 3])
    v = int(gowers_pair_u3(triple, B).value)
    # lower bound from the pair energy: E(A,B)^4/(|A|^4 |B|^4) = 1 here
    assert v * 3 ** 4 * 2 ** 4 >= pair_energy(triple, B) ** 4
    assert int(gowers_pair_u3(triple, triple).value) == gowers_u(triple, 3).count
    H = subspace(4, 2)
    assert int(gowers_pair_u3(H, H).value) == H.card ** 4


def test_pair_u3_brute():
    g = make_group([6])
    A = GSet.from_indices(g, [0, 1, 3])
    B = GSet.from_indices(g, [0, 2, 3])
    want = 0
    mem_a, mem_b = set(A.members.tolist()), set(B.members.tolist())
    for s1 in range(6):
        for s2 in range(6):
            inner = sum(1 for x in range(6)
                        if x in mem_a and (x + s1) % 6 in mem_b
                        and (x + s2) % 6 in mem_a and (x + s1 + s2) % 6 in mem_b)
            want += inner * inner
    assert int(gowers_pair_u3(A, B).value) == want


def _pair_u3_per_shift(A, B):
    """The definition, one self-correlation per shift: sum_s E(A cap (B - s))."""
    total = 0
    for s in np.flatnonzero(set_correlate(A, B)).tolist():
        W = A.intersect(B.shift_minus(s))
        total += _exact_sum(set_correlate(W, W), 2)
    return total


def _pair_u3_cases():
    for factors in ([61], [97], [2] * 6, [2] * 7, [2, 3, 5]):
        g = make_group(factors)
        for seed in range(3):
            A = random_set(g, (0.1, 0.3, 0.6)[seed], seed)
            B = random_set(g, (0.5, 0.2, 0.4)[seed], seed + 11)
            yield A, B
            yield A, A


@pytest.mark.parametrize("cells", [None, 1, 1 << 40])
def test_pair_u3_batched_matches_per_shift(monkeypatch, cells):
    """Every chunking gives the per-shift value: the default cap, one pair cell
    (every slice past one member runs alone) and the whole table at once."""
    if cells is not None:
        monkeypatch.setattr(gowers, "ROW_CHUNK_CELLS", cells)
    for A, B in _pair_u3_cases():
        assert int(gowers_pair_u3(A, B).value) == _pair_u3_per_shift(A, B)


def test_pair_u3_alone_path(monkeypatch):
    """A slice with more than ROW_CHUNK_CELLS pairs is correlated with itself alone."""
    g = make_group([1009])
    A = random_set(g, 0.3, 4)
    assert A.card ** 2 > setfun.ROW_CHUNK_CELLS
    alone = []
    real = gowers.set_correlate

    def spy(X, Y):
        if X is Y and X is not A:
            alone.append(X.card)
        return real(X, Y)

    monkeypatch.setattr(gowers, "set_correlate", spy)
    assert int(gowers_pair_u3(A, A).value) == gowers_u(A, 3).count == _pair_u3_per_shift(A, A)
    # only W = A cap (A - 0) = A is that large
    assert alone == [A.card]


def test_pair_u3_chunks_stay_under_the_cap(monkeypatch):
    cap = 256
    monkeypatch.setattr(gowers, "ROW_CHUNK_CELLS", cap)
    sizes = []
    real = np.unique

    def spy(key, **kw):
        if kw.get("return_counts"):  # the pair keys of one chunk
            sizes.append(key.size)
        return real(key, **kw)

    monkeypatch.setattr(np, "unique", spy)
    A = random_set(make_group([2] * 7), 0.3, 2)
    got = int(gowers_pair_u3(A, A).value)
    monkeypatch.undo()
    assert got == gowers_u(A, 3).count
    assert sizes and max(sizes) <= cap
    # chunks of several rows did form: fewer chunks than shifts
    assert len(sizes) < np.count_nonzero(set_correlate(A, A))


def test_pair_u3_is_independent_of_the_frontier(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("gowers_pair_u3 must form its own pairs")

    for mod, name in ((gowers, "_frontier"), (setfun, "_frontier"), (setfun, "_Frontier"),
                      (setfun, "_rows_exact")):
        monkeypatch.setattr(mod, name, refuse)
    g = make_group([2, 3, 5])
    A, B = random_set(g, 0.4, 1), random_set(g, 0.3, 2)
    assert int(gowers_pair_u3(A, B).value) == _pair_u3_per_shift(A, B)


def test_pair_u3_disjoint_sets():
    g = make_group([53])
    A = GSet.from_indices(g, range(0, 20, 2))
    B = GSet.from_indices(g, range(1, 30, 2))
    assert not (A.mask & B.mask).any()
    assert int(gowers_pair_u3(A, B).value) == _pair_u3_per_shift(A, B) > 0


def test_pair_u3_empty_flag():
    g = make_group([5])
    A = GSet.from_indices(g, [0, 1])
    empty = GSet.empty(g)
    out = gowers_pair_u3(A, empty)
    assert out.value == 0 and out.vacuous


def test_monotonicity_examples(triple):
    lo = (19 / 7 ** 3) ** 0.25
    hi = (33 / 7 ** 4) ** 0.125
    assert lo <= hi
    assert gowers_normalized_monotonicity(triple, 3)
    full = GSet.full(make_group([2, 2, 2]))
    for d in (2, 3, 4):
        assert gowers_normalized_monotonicity(full, d)
        assert math.isclose(gowers_u(full, d).normalized, 1.0, rel_tol=1e-12)


def test_monotonicity_random_f2_8():
    g = make_group([2] * 8)
    for seed in range(8):
        A = random_set(g, 0.15, seed)
        for d in (2, 3, 4):
            assert gowers_normalized_monotonicity(A, d)


def test_growth_invariants_random():
    g = make_group([101])
    for seed in range(10):
        A = random_set(g, 0.15, seed)
        u = {d: gowers_u(A, d).count for d in (1, 2, 3, 4, 5)}
        e2 = int(energy_k(A, 2).value)
        e3 = int(energy_k(A, 3).value)
        e4 = int(energy_k(A, 4).value)
        a = A.card
        assert u[3] * a ** 8 >= e2 ** 4
        for k in (2, 3, 4):
            assert u[k + 1] ** (k - 1) * u[k - 1] ** (2 * k) >= u[k] ** (3 * k - 2)
        assert u[3] <= e3
        assert u[3] ** 2 <= e4 * e2
        kd = min(difference_set(A, A).card, sumset(A, A).card)
        assert u[3] * kd ** 4 >= a ** 8
        for k in (3, 4):
            assert u[k] * a ** (3 * 2 ** k - 4 * k - 4) >= e2 ** (2 ** k - k - 1)
