"""The level-synchronous slice frontier behind the slice-tuple and uniformity counts.

Hypothesis examples compare all four counts with the brute oracles of conftest
on mixed and cyclic groups, with members anywhere in [0, N).  Each example also
runs with a pair cap of 1, which sends every row through the over-the-cap path
(members in slices, children from boolean masks).

NODES pins the node counts of the memoised depth-first recursion that the
frontier replaced: a budget equal to the count must pass and one less must raise.
"""

import contextlib
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import energylab.setfun as setfun
from conftest import brute_delta_count, brute_gowers_count
from energylab.constructors import random_set
from energylab.energy import energy_k
from energylab.gowers import gowers_pair_u3, gowers_u
from energylab.group import make_group
from energylab.setfun import (BudgetError, GSet, count_nonempty_slice_tuples,
                              delta_pairs_direct, delta_sumset_size, tuple_sumset_sum)

FACTORS = [(2, 4), (3, 3, 2), (5,), (7,), (11,), (13,)]


@st.composite
def small_sets(draw, max_card=6):
    factors = draw(st.sampled_from(FACTORS))
    members = draw(st.lists(st.integers(0, math.prod(factors) - 1), min_size=1,
                            max_size=max_card, unique=True))
    return factors, sorted(members)


@contextlib.contextmanager
def pair_cap(cap):
    saved = setfun.FRONTIER_CHUNK
    setfun.FRONTIER_CHUNK = cap
    try:
        yield
    finally:
        setfun.FRONTIER_CHUNK = saved


def under_both_caps(fn):
    """fn() under the default pair cap; the same value must come out under a cap of 1."""
    got = fn()
    with pair_cap(1):
        assert fn() == got
    return got


def _gset(factors, members):
    return GSet.from_indices(make_group(list(factors)), members)


@given(small_sets(), st.integers(1, 3))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_slice_tuple_count_matches_brute(data, arity):
    factors, members = data
    A = _gset(factors, members)
    got = under_both_caps(lambda: count_nonempty_slice_tuples(A, arity))
    assert got == brute_delta_count(factors, members, arity, "-")


@given(small_sets(), st.integers(0, 2), st.sampled_from("+-"))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_tuple_sumset_sum_matches_brute(data, arity, sign):
    factors, members = data
    A = _gset(factors, members)
    got = under_both_caps(lambda: tuple_sumset_sum(A, arity, sign))
    assert got == brute_delta_count(factors, members, arity + 1, sign)


@given(small_sets(), st.integers(2, 3), st.sampled_from("+-"))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_delta_sumset_size_matches_brute(data, n, sign):
    factors, members = data
    A = _gset(factors, members)
    want = brute_delta_count(factors, members, n, sign)
    assert under_both_caps(lambda: delta_sumset_size(A, n, sign)) == want
    if n == 2:
        assert delta_pairs_direct(A, sign) == want


@given(small_sets(), st.integers(1, 3))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_gowers_count_matches_brute(data, d):
    factors, members = data
    if d == 3 and math.prod(factors) > 11:
        d = 2  # keeps the N^4 brute sweep short
    A = _gset(factors, members)
    got = under_both_caps(lambda: gowers_u(A, d).count)
    assert got == brute_gowers_count(factors, members, d)


def _pinned_set(factors, spec):
    g = make_group(list(factors))
    if isinstance(spec, list):
        return GSet.from_indices(g, spec)
    return random_set(g, *spec)


# (factors, members or (density, seed), arity, nodes of the depth-first recursion)
NODES = [
    ((2, 4), [0, 1, 3, 6], 1, 7),
    ((2, 4), [0, 1, 3, 6], 2, 50),
    ((2, 4), [0, 1, 3, 6], 3, 109),
    ((2, 4), [0, 1, 3, 6], 4, 168),
    ((3, 3, 2), (0.3, 5), 1, 18),
    ((3, 3, 2), (0.3, 5), 2, 211),
    ((3, 3, 2), (0.3, 5), 3, 464),
    ((3, 3, 2), (0.3, 5), 4, 717),
    ((7,), [0, 1, 2], 1, 5),
    ((7,), [0, 1, 2], 2, 24),
    ((7,), [0, 1, 2], 3, 46),
    ((101,), (0.16, 1), 1, 101),
    ((101,), (0.16, 1), 2, 4866),
    ((101,), (0.16, 1), 3, 15802),
    ((101,), (0.16, 1), 4, 26772),
    ((256,), (0.11, 2), 1, 220),
    ((256,), (0.11, 2), 2, 6646),
    ((256,), (0.11, 2), 3, 14567),
    ((2,) * 8, (0.11, 3), 2, 9046),
    ((2,) * 8, (0.11, 3), 3, 20880),
    ((2,) * 10, (0.03, 4), 2, 20954),
    ((2,) * 10, (0.03, 4), 4, 65234),
]


@pytest.mark.parametrize("factors,spec,arity,nodes", NODES)
def test_budget_fires_exactly_past_the_node_count(factors, spec, arity, nodes):
    A = _pinned_set(factors, spec)
    calls = [lambda b: count_nonempty_slice_tuples(A, arity, budget=b),
             lambda b: tuple_sumset_sum(A, arity, "-", budget=b),
             lambda b: tuple_sumset_sum(A, arity, "+", budget=b)]
    caps = [setfun.FRONTIER_CHUNK, 1] if A.group.size <= 18 else [setfun.FRONTIER_CHUNK]
    for cap in caps:
        with pair_cap(cap):
            for call in calls:
                call(nodes)
                with pytest.raises(BudgetError):
                    call(nodes - 1)


def test_wide_rows_and_big_multiplicities(monkeypatch):
    """Dense rows take the over-the-cap path and rows of many members the
    column-wise dedupe; with the int64 bound lowered, multiplicities and totals
    run on Python integers.  None of it may change a value."""
    A = random_set(make_group([2] * 8), 0.5, 1)
    assert A.card ** 2 > setfun.FRONTIER_CHUNK
    u3 = gowers_u(A, 3).count
    assert u3 == int(gowers_pair_u3(A, A).value)
    want = [u3, count_nonempty_slice_tuples(A, 2), tuple_sumset_sum(A, 1, "+")]
    monkeypatch.setattr(setfun, "INT64_SAFE_BOUND", 1 << 12)
    assert [gowers_u(A, 3).count, count_nonempty_slice_tuples(A, 2),
            tuple_sumset_sum(A, 1, "+")] == want


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frontier_memory_stays_under_cap():
    # one row of 1727^2 pairs: formed at once, they peak near 230 MB
    A = random_set(make_group([2, 3, 5, 7, 11]), 0.75, 0)
    assert A.card == 1727
    assert _peak_bytes(lambda: gowers_u(A, 2)) < 8 << 20
    assert gowers_u(A, 2).count == int(energy_k(A, 2).value)
    B = random_set(make_group([2] * 10), 0.03, 6)
    assert B.card == 31
    assert _peak_bytes(lambda: count_nonempty_slice_tuples(B, 4)) < 4 << 20
