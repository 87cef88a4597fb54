"""The level-synchronous slice frontier behind the slice-tuple and uniformity counts.

Hypothesis examples compare all four counts with the brute oracles of conftest
on mixed and cyclic groups, with members anywhere in [0, N), and decode every
level's mask rows against a brute enumeration of the shift tuples.  Each example
also runs with a cap of 1, which takes the partner-A sweep one row of masks at a
time and sends every self-partner row through its own shift table.  A set keeps
the frontier levels and totals it has computed, so every cap, and every lowered
int64 bound, gets a fresh set: on the same set the cached value would come back
unchecked.

NODES pins the node counts of the memoised depth-first recursion that the
frontier replaced: a budget equal to the count must pass and one less must raise,
whether the levels are built by the call or were cached by an earlier one.
"""

import contextlib
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import energylab.setfun as setfun
import energylab.verify as verify
from conftest import brute_add, brute_delta_count, brute_gowers_count
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


def _gset(factors, members):
    return GSet.from_indices(make_group(list(factors)), members)


def under_both_caps(fn, factors, members):
    """fn(A) on a fresh set A under the default pair cap; the same value must
    come out on another fresh set under a cap of 1."""
    got = fn(_gset(factors, members))
    with pair_cap(1):
        assert fn(_gset(factors, members)) == got
    return got


@given(small_sets(), st.integers(1, 3))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_slice_tuple_count_matches_brute(data, arity):
    factors, members = data
    got = under_both_caps(lambda A: count_nonempty_slice_tuples(A, arity), factors, members)
    assert got == brute_delta_count(factors, members, arity, "-")


@given(small_sets(), st.integers(0, 2), st.sampled_from("+-"))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_tuple_sumset_sum_matches_brute(data, arity, sign):
    factors, members = data
    got = under_both_caps(lambda A: tuple_sumset_sum(A, arity, sign), factors, members)
    assert got == brute_delta_count(factors, members, arity + 1, sign)


@given(small_sets(), st.integers(2, 3), st.sampled_from("+-"))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_delta_sumset_size_matches_brute(data, n, sign):
    factors, members = data
    want = brute_delta_count(factors, members, n, sign)
    assert under_both_caps(lambda A: delta_sumset_size(A, n, sign), factors, members) == want
    if n == 2:
        assert delta_pairs_direct(_gset(factors, members), sign) == want


@given(small_sets(), st.integers(1, 3))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_gowers_count_matches_brute(data, d):
    factors, members = data
    if d == 3 and math.prod(factors) > 11:
        d = 2  # keeps the N^4 brute sweep short
    got = under_both_caps(lambda A: gowers_u(A, d).count, factors, members)
    assert got == brute_gowers_count(factors, members, d)


def _brute_levels(factors, members, self_partner, depth):
    """Level k as {slice: number of shift tuples (s_1..s_k) reaching it}, by
    explicit loops: X's children are X cap (P - s) over every s, P = A or X."""
    A = frozenset(members)
    levels = [{A: 1}]
    for _ in range(depth):
        deeper = {}
        for X, count in levels[-1].items():
            P = X if self_partner else A
            for s in range(math.prod(factors)):
                child = frozenset(x for x in X if brute_add(factors, x, s) in P)
                if child:
                    deeper[child] = deeper.get(child, 0) + count
        levels.append(deeper)
    return levels


def _decoded(A, rows, mult):
    """A frontier level as {slice: multiplicity}: bit i of a mask row is A's i-th member."""
    bits = np.unpackbits(rows.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    level = {frozenset(A.members[np.flatnonzero(b)].tolist()): int(m) for b, m in zip(bits, mult)}
    assert len(level) == len(rows), "a level holds each slice once"
    return level


@given(small_sets(), st.booleans())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_levels_hold_the_unique_slices_with_their_tuple_counts(data, self_partner):
    factors, members = data
    want = _brute_levels(factors, members, self_partner, 3)
    for cap in (setfun.FRONTIER_CHUNK, 1):
        with pair_cap(cap):
            A = _gset(factors, members)
            frontier = setfun._frontier(A, self_partner)
            frontier.total(3, "-")
            assert [_decoded(A, rows, mult) for rows, mult in frontier.levels] == want


@pytest.mark.parametrize("factors,size", [((2,) * 7, 63), ((2,) * 7, 64), ((2,) * 7, 65),
                                          ((128,), 63), ((128,), 64), ((128,), 65),
                                          ((2,) * 8, 130), ((256,), 131)])
def test_counts_past_one_word_match_the_independent_routes(factors, size):
    """Sets of one, two and three mask words against routes that never read the frontier."""
    g = make_group(list(factors))
    A = GSet.from_indices(g, np.random.default_rng(size).choice(g.size, size, replace=False))
    assert count_nonempty_slice_tuples(A, 2) == delta_pairs_direct(A, "-")
    assert tuple_sumset_sum(A, 1, "+") == delta_pairs_direct(A, "+")
    assert gowers_u(A, 3).count == int(gowers_pair_u3(A, A).value)
    assert gowers_u(A, 2).count == int(energy_k(A, 2).value)


@pytest.mark.parametrize("entry", ["gowers_u", "count_nonempty_slice_tuples", "tuple_sumset_sum",
                                   "delta_sumset_size"])
def test_orders_and_arities_are_integers(entry):
    """Bools and floats, integral ones included, raise a TypeError naming the
    argument before any count runs; numpy integers count as integers."""
    A = _gset((7,), [0, 1, 3])
    call, name = {
        "gowers_u": (lambda v: gowers_u(A, v), "d"),
        "count_nonempty_slice_tuples": (lambda v: count_nonempty_slice_tuples(A, v), "arity"),
        "tuple_sumset_sum": (lambda v: tuple_sumset_sum(A, v, "-"), "arity"),
        "delta_sumset_size": (lambda v: delta_sumset_size(A, v, "-"), "n"),
    }[entry]
    assert call(np.int64(2)) == call(np.int32(2)) == call(2)
    for bad in (2.0, 1.5, 2.5, True, False, np.float64(2.0), np.bool_(True), "2", None):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            call(bad)
    if entry == "gowers_u":
        assert type(gowers_u(A, np.int64(1)).d) is int
        with pytest.raises(TypeError, match="^d must be an integer"):
            gowers_u(GSet.empty(A.group), 2.0)


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
    # 67 members: two mask words (counts from the member-row frontier of bbb0e4d)
    ((128,), list(range(62)) + [70, 85, 99, 110, 121], 1, 128),
    ((128,), list(range(62)) + [70, 85, 99, 110, 121], 2, 16512),
    ((128,), list(range(62)) + [70, 85, 99, 110, 121], 3, 608699),
]


def _budgeted_calls(arity):
    return [lambda A, b: count_nonempty_slice_tuples(A, arity, budget=b),
            lambda A, b: tuple_sumset_sum(A, arity, "-", budget=b),
            lambda A, b: tuple_sumset_sum(A, arity, "+", budget=b)]


@pytest.mark.parametrize("factors,spec,arity,nodes", NODES)
def test_budget_fires_exactly_past_the_node_count(factors, spec, arity, nodes):
    caps = [setfun.FRONTIER_CHUNK, 1] if math.prod(factors) <= 18 else [setfun.FRONTIER_CHUNK]
    for cap in caps:
        with pair_cap(cap):
            for call in _budgeted_calls(arity):
                # on a fresh set the budget fires while the counts are built, then
                # on the counts the set keeps
                A = _pinned_set(factors, spec)
                with pytest.raises(BudgetError):
                    call(A, nodes - 1)
                call(A, nodes)
                with pytest.raises(BudgetError):
                    call(A, nodes - 1)


@pytest.mark.parametrize("row", [r for r in NODES if r[2] <= 3],
                         ids=lambda r: f"Z{'x'.join(map(str, r[0]))}-arity{r[2]}")
def test_budget_fires_after_a_deeper_unbudgeted_call(row):
    """Levels and totals cached by an unbudgeted call one level deeper still
    count their nodes against a later call's budget, and a BudgetError keeps no
    half-built level: the set goes on to give the fresh set's values."""
    factors, spec, arity, nodes = row
    for call in _budgeted_calls(arity):
        A = _pinned_set(factors, spec)
        want = call(_pinned_set(factors, spec), None)
        with pytest.raises(BudgetError):
            call(A, nodes - 1)
        for frontier in A.cache.values():
            assert len(frontier.levels) == len(frontier.nodes) <= arity
        count_nonempty_slice_tuples(A, arity + 2, budget=10 ** 9)
        tuple_sumset_sum(A, arity + 1, "-", budget=10 ** 9)
        with pytest.raises(BudgetError):
            call(A, nodes - 1)
        assert call(A, nodes) == want


def test_each_frontier_level_is_expanded_once(monkeypatch):
    """The counts of a corpus item read 3 levels of each of the two frontiers:
    the slice-tuple counts and the sums of |A -+ A_s| with A as the partner, the
    uniformity counts U(2..5) with each slice as its own.  Each level is built
    once per set, however many counts, and suite calls, read it."""
    expanded = []
    real = setfun._Frontier._expand

    def counting(frontier, budget):
        expanded.append(frontier.self_partner)
        real(frontier, budget)

    monkeypatch.setattr(setfun._Frontier, "_expand", counting)
    A = _pinned_set((101,), (0.16, 1))
    for d in range(2, 6):
        gowers_u(A, d)
    for arity in range(2, 5):
        count_nonempty_slice_tuples(A, arity)
    for sign in "+-":
        tuple_sumset_sum(A, 1, sign)
    assert sorted(expanded) == [False] * 3 + [True] * 3
    for item in verify.frozen_corpus(1)[:12]:
        expanded.clear()
        for run in (verify.run_identity_suite, verify.run_inequality_suite):
            run(item.A, item.B)
        verify.run_ratio_report(item.A)
        verify.run_algorithm_audits(item)
        assert len(expanded) == 6, item.name


def test_wide_rows_and_big_multiplicities(monkeypatch):
    """Dense rows go past the pair cap onto their own shift tables and rows of
    many members take two or more words and the lexsort merge; with the int64
    bound lowered, multiplicities and totals run on Python integers.  None of it
    may change a value."""
    def counts():
        A = random_set(make_group([2] * 8), 0.5, 1)
        return [gowers_u(A, 3).count, count_nonempty_slice_tuples(A, 2),
                tuple_sumset_sum(A, 1, "+")]

    A = random_set(make_group([2] * 8), 0.5, 1)
    assert A.card ** 2 > setfun.FRONTIER_CHUNK
    want = counts()
    assert want[0] == int(gowers_pair_u3(A, A).value)
    monkeypatch.setattr(setfun, "INT64_SAFE_BOUND", 1 << 12)
    assert counts() == want


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


def test_delta_pairs_direct_builds_its_rows_a_block_at_a_time(monkeypatch):
    # its whole (|A - A|, N) table here would be 14,862 rows of 16,384 cells (232 MiB)
    g = make_group([16384])
    A = GSet.from_indices(g, np.random.default_rng(0).choice(g.size, 200, replace=False))
    assert _peak_bytes(lambda: delta_pairs_direct(A, "-")) < 16 << 20
    # blocks of one x give the count of one block and of the frontier
    B = GSet.from_indices(make_group([1024]), np.random.default_rng(1).choice(1024, 40, replace=False))
    want = [count_nonempty_slice_tuples(B, 2), tuple_sumset_sum(B, 1, "+")]
    assert [delta_pairs_direct(B, "-"), delta_pairs_direct(B, "+")] == want
    monkeypatch.setattr(setfun, "PAIR_PATH_LIMIT", 1)
    assert [delta_pairs_direct(B, "-"), delta_pairs_direct(B, "+")] == want


def test_frontier_and_direct_sweep_share_no_code(monkeypatch):
    """The frontier runs none of the correlation, energy or row-kernel code that
    its counts are checked against, and the direct pair sweep reads no frontier."""
    import energylab.energy as energy
    import energylab.gowers as gowers
    want = [count_nonempty_slice_tuples(_pinned_set((101,), (0.16, 1)), 2),
            tuple_sumset_sum(_pinned_set((101,), (0.16, 1)), 1, "+"),
            gowers_u(_pinned_set((101,), (0.16, 1)), 4).count]

    def refuse(*args, **kw):
        raise AssertionError("a route its counts are checked against")

    with monkeypatch.context() as patched:
        for mod, name in ((setfun, "_conv_exact"), (setfun, "_rows_exact"), (setfun, "set_correlate"),
                          (gowers, "set_correlate"), (energy, "energy_k")):
            patched.setattr(mod, name, refuse)
        A = _pinned_set((101,), (0.16, 1))
        assert [count_nonempty_slice_tuples(A, 2), tuple_sumset_sum(A, 1, "+"), gowers_u(A, 4).count] == want
    for name in ("_frontier", "_Frontier"):
        monkeypatch.setattr(setfun, name, refuse)
    A = _pinned_set((101,), (0.16, 1))
    assert [delta_pairs_direct(A, "-"), delta_pairs_direct(A, "+")] == want[:2]
