import contextlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import energylab.setfun as setfun
from conftest import (brute_convolve, brute_correlate, brute_delta_count, gset)
from energylab.constructors import random_set, subspace
from energylab.group import make_group
from energylab.setfun import (FLOAT32_EXACT_BOUND, INT64_SAFE_BOUND, BudgetError, DenseFunc,
                              GSet, SliceRows, _conv_exact, _exact_sum, _rows_exact,
                              convolve, convolve_via_fourier, correlate,
                              count_nonempty_slice_tuples, delta_sumset_size,
                              difference_set, generalized_convolution,
                              iterated_convolve, katz_koester_check, set_convolve,
                              set_correlate, sigma_k, slice_set, sumset,
                              tuple_sumset_sum)
from test_frontier import FACTORS, small_sets


def test_triple_correlation_and_convolution(triple):
    assert set_correlate(triple, triple).tolist() == [3, 2, 1, 0, 0, 1, 2]
    assert set_convolve(triple, triple).tolist() == [1, 2, 3, 2, 1, 0, 0]


def test_subgroup_idempotence():
    H = subspace(4, 2)
    corr = set_correlate(H, H)
    assert all(corr[x] == 4 for x in H.members.tolist())
    assert corr.sum() == 16


def test_correlate_matches_brute_on_mixed_group():
    factors = [2, 3, 2]
    g = make_group(factors)
    rng = np.random.Generator(np.random.Philox(key=5))
    for _ in range(10):
        a = rng.integers(-3, 4, size=g.size)
        b = rng.integers(-3, 4, size=g.size)
        got = correlate(DenseFunc(g, a), DenseFunc(g, b)).values.tolist()
        assert got == brute_correlate(factors, a.tolist(), b.tolist())
        gotc = convolve(DenseFunc(g, a), DenseFunc(g, b)).values.tolist()
        assert gotc == brute_convolve(factors, a.tolist(), b.tolist())


def test_reflection_identity():
    g = make_group([11])
    rng = np.random.Generator(np.random.Philox(key=6))
    a = rng.integers(0, 3, size=11)
    b = rng.integers(0, 3, size=11)
    fg = correlate(DenseFunc(g, a), DenseFunc(g, b)).values
    gf = correlate(DenseFunc(g, b), DenseFunc(g, a)).values
    assert np.array_equal(fg, gf[g.neg_perm])


def test_convolution_overflow_escalates_exactly():
    g = make_group([4])
    big = 1 << 40
    f = DenseFunc(g, np.array([big, big, 0, 0], dtype=object))
    out = convolve(f, f)
    assert out.values[1] == 2 * big * big  # exceeds int64; must not wrap
    assert out.values[0] == big * big


def test_dense_function_rejects_floats():
    g = make_group([4])
    with pytest.raises(ValueError):
        DenseFunc(g, np.array([1.0, 0.0, 0.0, 0.0]))


def test_iterated_convolve_and_sigma(triple):
    assert sigma_k(triple, 2) == 1
    assert sigma_k(triple, 3) == 1
    one_step = iterated_convolve(triple, 1).values
    assert one_step.tolist() == set_convolve(triple, triple).tolist()
    H = subspace(3, 2)  # symmetric subgroup
    assert sigma_k(H, 2) == H.card


def test_generalized_convolution(triple):
    assert generalized_convolution([triple, triple], [1]) == 2
    assert generalized_convolution([triple] * 3, [1, 2]) == 1
    H = subspace(4, 2)
    h = H.members.tolist()
    assert generalized_convolution([H] * 3, [h[1], h[2]]) == H.card
    with pytest.raises(ValueError):
        generalized_convolution([triple, triple], [1, 2])


def test_generalized_convolution_past_int64():
    """f = 2^61 on 0..3 of Z_7: each product of three translates is 2^183, far
    past int64, and the two nonzero terms (z = 0, 1) give 2^184 exactly."""
    g = make_group([7])
    vals = [1 << 61] * 4 + [0] * 3
    f = DenseFunc(g, np.array(vals, dtype=np.int64))
    want = sum(vals[z] * vals[(z + 1) % 7] * vals[(z + 2) % 7] for z in range(7))
    assert want == 1 << 184
    assert generalized_convolution([f, f, f], [1, 2]) == want
    assert generalized_convolution([f, f], [3]) == 1 << 122


def test_slices(triple):
    assert slice_set(triple, triple, [1]).members.tolist() == [0, 1]
    assert slice_set(triple, triple, [1, 2]).members.tolist() == [0]
    assert slice_set(triple, triple, []).members.tolist() == [0, 1, 2]
    H = subspace(4, 2)
    s = H.members.tolist()[1]
    assert slice_set(H, H, [s]).members.tolist() == H.members.tolist()


def test_slice_cardinality_is_correlation(triple):
    corr = set_correlate(triple, triple)
    for s in range(7):
        assert triple.slice1(s).card == corr[s]


def test_sumsets(triple):
    assert sorted(sumset(triple, triple).members.tolist()) == [0, 1, 2, 3, 4]
    assert sorted(difference_set(triple, triple).members.tolist()) == [0, 1, 2, 5, 6]
    H = subspace(4, 2)
    assert sumset(H, H).members.tolist() == H.members.tolist()


def test_delta_sumset_sizes(triple):
    assert delta_sumset_size(triple, 2, "-") == 19
    assert delta_sumset_size(triple, 2, "+") == 19
    # per-shift breakdown: 5+4+3+4+3 over s in A-A
    assert tuple_sumset_sum(triple, 1, "-") == 19
    H = subspace(3, 2)
    assert delta_sumset_size(H, 2, "-") == H.card ** 2


@pytest.mark.parametrize("sign", ["-", "+"])
@pytest.mark.parametrize("n", [2, 3])
def test_delta_sumset_against_brute(sign, n):
    g = make_group([11])
    A = GSet.from_indices(g, [0, 1, 3, 7])
    got = delta_sumset_size(A, n, sign)
    want = brute_delta_count([11], [0, 1, 3, 7], n, sign)
    assert got == want


def test_nonempty_tuple_count_is_delta_count(triple):
    assert count_nonempty_slice_tuples(triple, 2) == brute_delta_count([7], [0, 1, 2], 2, "-")
    assert count_nonempty_slice_tuples(triple, 3) == brute_delta_count([7], [0, 1, 2], 3, "-")


def test_budget_error():
    g = make_group([101])
    A = random_set(g, 0.3, 1)
    with pytest.raises(BudgetError):
        delta_sumset_size(A, 4, "-", budget=50)


def test_katz_koester(triple):
    assert katz_koester_check(triple, [1])
    assert katz_koester_check(triple, [])
    rng = np.random.Generator(np.random.Philox(key=9))
    A = random_set(make_group([2] * 8), 0.2, 3)
    D = difference_set(A, A).members
    for _ in range(10):
        shifts = [int(s) for s in rng.choice(D, size=2)]
        assert katz_koester_check(A, shifts)


def test_fourier_path_convolution_agrees():
    g = make_group([2] * 6)
    A = random_set(g, 0.3, 11)
    B = random_set(g, 0.3, 12)
    exact = set_convolve(A, B)
    via = convolve_via_fourier(A, B)
    assert np.max(np.abs(via - exact)) < 1e-6


def test_json_roundtrip_bit_exact():
    g = make_group([2, 3, 5])
    A = random_set(g, 0.4, 21)
    blob = json.dumps(A.to_dict())
    back = GSet.from_dict(json.loads(blob))
    assert np.array_equal(back.mask, A.mask)
    assert back.group == A.group


def test_negate_and_translate():
    g = make_group([7])
    A = GSet.from_indices(g, [1, 2])
    assert sorted(A.negate().members.tolist()) == [5, 6]
    assert sorted(A.translate(3).members.tolist()) == [4, 5]
    assert sorted(A.shift_minus(1).members.tolist()) == [0, 1]


def test_sumset_weighted_mass_dominates_tuple_count():
    # sum_x S(x) (S*D)^k (x) >= |A^{k+1} + Delta(A)| at k = 2, brute-checked
    from conftest import brute_delta_count

    g = make_group([11])
    A = GSet.from_indices(g, [0, 1, 3, 7])
    S = sumset(A, A)
    D = difference_set(A, A)
    sd = convolve(S.indicator(), D.indicator()).values
    lhs = sum(int(sd[x]) ** 2 for x in S.members.tolist())
    mid = delta_sumset_size(A, 3, "+")
    assert mid == brute_delta_count([11], [0, 1, 3, 7], 3, "+")
    assert lhs >= mid >= A.card ** 2 * max(D.card, S.card)


# -- the one exact convolution kernel ---------------------------------------------
#
# set_correlate/set_convolve and correlate/convolve all run on setfun._conv_exact.
# Each comparison below runs on the pair path (PAIR_PATH_LIMIT as shipped) and on
# the roll path (a limit of 0), against the brute loops of conftest.


@contextlib.contextmanager
def pair_path_limit(limit):
    saved = setfun.PAIR_PATH_LIMIT
    setfun.PAIR_PATH_LIMIT = limit
    try:
        yield
    finally:
        setfun.PAIR_PATH_LIMIT = saved


def on_both_paths(check):
    check()
    with pair_path_limit(0):
        check()


def _indicator(factors, members):
    out = [0] * math.prod(factors)
    for m in members:
        out[m] = 1
    return out


@settings(max_examples=80, deadline=None)
@given(small_sets(), st.data())
def test_set_kernels_match_brute(drawn, data):
    factors, amem = drawn
    N = math.prod(factors)
    bmem = data.draw(st.lists(st.integers(0, N - 1), max_size=6, unique=True))
    A, B = gset(factors, amem), gset(factors, bmem)
    ia, ib = _indicator(factors, amem), _indicator(factors, bmem)
    want_corr = brute_correlate(factors, ia, ib)
    want_conv = brute_convolve(factors, ia, ib)

    def check():
        for got in (set_correlate(A, B), set_convolve(A, B)):
            assert got.dtype == np.int64
        assert set_correlate(A, B).tolist() == want_corr
        assert set_convolve(A, B).tolist() == want_conv
        assert correlate(A, B).values.tolist() == want_corr
        assert convolve(A, B).values.tolist() == want_conv

    on_both_paths(check)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FACTORS), st.data())
def test_signed_functions_match_brute(factors, data):
    N = math.prod(factors)
    values = st.lists(st.integers(-6, 6), min_size=N, max_size=N)
    a, b = data.draw(values), data.draw(values)
    g = make_group(list(factors))
    fa, fb = DenseFunc(g, np.array(a, dtype=np.int64)), DenseFunc(g, np.array(b, dtype=np.int64))
    # a boolean value array is a set indicator: unit weights against signed ones
    unit = DenseFunc(g, np.array(a, dtype=np.int64) > 0)
    ua = [int(v > 0) for v in a]

    def check():
        assert correlate(fa, fb).values.tolist() == brute_correlate(factors, a, b)
        assert convolve(fa, fb).values.tolist() == brute_convolve(factors, a, b)
        assert correlate(unit, fb).values.tolist() == brute_correlate(factors, ua, b)
        assert convolve(fb, unit).values.tolist() == brute_convolve(factors, b, ua)

    on_both_paths(check)


def test_dense_sets_take_the_roll_path_exactly():
    for factors in ((2,) * 7, (127,), (2, 3, 5)):
        g = make_group(list(factors))
        A, B = random_set(g, 0.6, 1), random_set(g, 0.4, 2)
        with pair_path_limit(0):
            roll = (set_correlate(A, B), set_convolve(A, B))
        assert np.array_equal(roll[0], set_correlate(A, B))
        assert np.array_equal(roll[1], set_convolve(A, B))
        assert roll[0].dtype == roll[1].dtype == np.int64


@pytest.mark.parametrize("factors", [(7,), (2, 4), (3, 3, 2)])
@pytest.mark.parametrize("x, y", [(1 << 31, (1 << 31) - 1), (1 << 31, 1 << 31),
                                  (-(1 << 31), 1 << 31), ((1 << 62) - 1, 1), (1 << 62, -1)])
def test_escalation_at_the_int64_bound(factors, x, y):
    """f = x at two points and g = y at one: the kernel's bound is |x| |y|, so
    int64 holds below INT64_SAFE_BOUND and Python integers take over at it."""
    g = make_group(list(factors))
    N = g.size
    a = [x, -x] + [0] * (N - 2)
    b = [0] * (N - 1) + [y]
    big = abs(x * y) >= INT64_SAFE_BOUND
    fa, fb = DenseFunc(g, np.array(a, dtype=object)), DenseFunc(g, np.array(b, dtype=object))

    def check():
        for got, want in ((correlate(fa, fb), brute_correlate(factors, a, b)),
                          (convolve(fa, fb), brute_convolve(factors, a, b)),
                          (convolve(fb, fa), brute_convolve(factors, b, a))):
            assert got.values.dtype == (object if big else np.int64)
            assert got.values.tolist() == want

    on_both_paths(check)


def test_absolute_sum_past_int64_escalates():
    """sum |f| = 2^63 does not fit in int64; the bound must not wrap negative."""
    g = make_group([7])
    vals = [1 << 61] * 4 + [0] * 3
    f = DenseFunc(g, np.array(vals, dtype=np.int64))

    def check():
        conv = convolve(f, f).values.tolist()
        corr = correlate(f, f).values.tolist()
        assert conv == brute_convolve([7], vals, vals)
        assert corr == brute_correlate([7], vals, vals)
        assert all(v % (1 << 122) == 0 for v in conv + corr)
        assert conv[0] == 1 << 122 and corr[0] == 4 << 122

    on_both_paths(check)


def _python_sum(v, k, w):
    rows = [list(map(int, r)) for r in np.atleast_2d(np.asarray(v, dtype=object))]
    ws = [1] * len(rows[0]) if w is None else [int(x) for x in w]
    return sum(wx * math.prod(r[i] ** k for r in rows) for i, wx in enumerate(ws))


B31 = 1 << 31


@pytest.mark.parametrize("v, k, w", [
    ([], 2, None),
    ([B31, B31], 2, None),                          # 2^63: wraps in int64
    ([(1 << 30) - 1] * 4, 2, None),                 # 4 (2^30 - 1)^2 < 2^62: int64
    ([1 << 30] * 4, 2, None),                       # 4 * 2^60 = 2^62: Python ints
    ([1, 1], 5, [1 << 62, 1 << 62]),                # weights alone reach 2^63
    ([1, 2, 0], 1, [(1 << 61) - 1, 1, 7]),
    ([-B31, B31, 3], 3, None),                      # signed terms cancel
    ([[1 << 40, 3], [1 << 40, 5]], 1, None),        # a stack multiplies its rows
    ([0, 4, 0, 9], 0, [2, 3, 5, 7]),                # k = 0 counts every weight
    ([1 << 70, 2], 2, None),                        # Python-int input
])
def test_exact_sum_at_the_int64_bound(v, k, w):
    dtype = object if any(abs(x) >= 1 << 63 for x in np.ravel(np.asarray(v, dtype=object))) else np.int64
    arr = np.array(v, dtype=dtype)
    warr = None if w is None else np.array(w, dtype=np.int64)
    assert _exact_sum(arr, k, warr) == _python_sum(v, k, w)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1, max_size=20), st.integers(0, 4),
       st.booleans())
def test_exact_sum_matches_python_ints(v, k, weighted):
    w = [abs(x) // 3 + 1 for x in v] if weighted else None
    got = _exact_sum(np.array(v, dtype=np.int64), k,
                     None if w is None else np.array(w, dtype=np.int64))
    assert got == _python_sum(v, k, w)


@settings(max_examples=60, deadline=None)
@given(small_sets(), st.data())
def test_set_operands_match_the_set_kernels(drawn, data):
    """correlate/convolve given sets return set_correlate/set_convolve exactly,
    values and int64 dtype, on both paths."""
    factors, amem = drawn
    N = math.prod(factors)
    bmem = data.draw(st.lists(st.integers(0, N - 1), max_size=6, unique=True))
    A, B = gset(factors, amem), gset(factors, bmem)

    def check():
        for got, want in ((correlate(A, B).values, set_correlate(A, B)),
                          (convolve(A, B).values, set_convolve(A, B))):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    on_both_paths(check)


def test_set_operands_reach_the_kernel_as_masks(monkeypatch):
    """A set enters _conv_exact as its boolean mask with its cached members, so
    two sets take the unit-weight path; a function enters as its values."""
    seen = []
    kernel = setfun._conv_exact

    def spy(group, a, b, sign, sa=None, sb=None):
        seen.append((a.dtype, b.dtype, sa, sb))
        return kernel(group, a, b, sign, sa, sb)

    monkeypatch.setattr(setfun, "_conv_exact", spy)
    g = make_group([2] * 6)
    A, B = random_set(g, 0.3, 1), random_set(g, 0.3, 2)
    correlate(A, B)
    convolve(A.indicator(), B)
    (da, db, sa, sb), (fa, fb, fsa, fsb) = seen
    assert da == db == bool and sa is A.members and sb is B.members
    assert fa == np.int64 and fsa is None and fb == bool and fsb is B.members


# -- the row-batched kernel -------------------------------------------------------
#
# _rows_exact reduces _conv_exact(X[i], b, sign) row by row: the nonzero count, or
# the sum at the row's own members.  Each comparison forces one route: the float32
# route (as shipped) or one _conv_exact per row (float32 bound 0), the latter on
# both paths of _conv_exact, with chunks of a few cells so that rows cross chunk
# boundaries and column blocks do not divide N.

ROUTES = {"gemm": ("gemm", {}),
          "each": ("each", {"FLOAT32_EXACT_BOUND": 0}),
          "each-roll": ("each", {"FLOAT32_EXACT_BOUND": 0, "PAIR_PATH_LIMIT": 0})}


@contextlib.contextmanager
def row_route(route, cells=setfun.ROW_CHUNK_CELLS):
    """Run _rows_exact on one route only, ROW_CHUNK_CELLS set to cells; yields the
    list of the row helpers that ran."""
    names = {**ROUTES[route][1], "ROW_CHUNK_CELLS": cells}
    saved = {name: getattr(setfun, name) for name in names}
    taken = []
    helpers = {f"_rows_{r}": getattr(setfun, f"_rows_{r}") for r in ("gemm", "each")}

    def spy(name):
        def call(*args):
            taken.append(name[len("_rows_"):])
            return helpers[name](*args)
        return call

    try:
        for name, value in {**names, **{name: spy(name) for name in helpers}}.items():
            setattr(setfun, name, value)
        yield taken
    finally:
        for name, value in {**saved, **helpers}.items():
            setattr(setfun, name, value)


def per_row(group, X, b, sign, own):
    """The reductions from one _conv_exact per row; `own` weights each entry by the
    row's value there."""
    sb = np.flatnonzero(b)
    out = []
    for row in X:
        sa = np.flatnonzero(row)
        v = _conv_exact(group, row, b, sign, sa, sb)
        out.append(sum(int(v[y]) * int(row[y]) for y in sa) if own else int(np.count_nonzero(v)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FACTORS), st.data())
def test_row_kernel_matches_per_row_convolutions(factors, data):
    N = math.prod(factors)
    g = make_group(list(factors))
    member_lists = st.lists(st.integers(0, N - 1), max_size=N, unique=True)
    rows = data.draw(st.lists(member_lists, max_size=9))
    X = np.zeros((len(rows), N), dtype=bool)
    for i, members in enumerate(rows):
        X[i, members] = True
    unit = np.zeros(N, dtype=bool)
    unit[data.draw(member_lists)] = True
    signed_values = st.lists(st.integers(-6, 6), min_size=N, max_size=N)
    signed = np.array(data.draw(signed_values), dtype=np.int64)
    # an integer-valued table of the same rows, every third row empty
    W = np.array(data.draw(st.lists(signed_values, min_size=len(rows), max_size=len(rows))),
                 dtype=np.int64).reshape(-1, N)
    W[::3] = 0
    cells = data.draw(st.integers(1, 3 * N))
    for table in (X, W):
        for b in (unit, signed):
            for sign in (+1, -1):
                for own in (False, True):
                    want = per_row(g, table, b, sign, own)
                    for route in ROUTES:
                        with row_route(route, cells) as taken:
                            got = _rows_exact(g, table, b, sign, own)
                        assert got.dtype == np.int64 and got.tolist() == want
                        assert set(taken) <= {ROUTES[route][0]}


@settings(max_examples=40, deadline=None)
@given(small_sets(), st.data())
def test_slice_rows_are_the_slices(drawn, data):
    factors, pmem = drawn
    N = math.prod(factors)
    P = gset(factors, pmem)
    Q = gset(factors, data.draw(st.lists(st.integers(0, N - 1), max_size=6, unique=True)))
    shifts = data.draw(st.lists(st.integers(0, N - 1), max_size=8))
    rows = SliceRows(P, Q, shifts)
    want = [(P & Q.shift_minus(s)).mask for s in shifts]
    assert len(rows) == len(shifts)
    assert np.array_equal(rows[0:len(rows)], np.array(want, dtype=bool).reshape(-1, N))
    # a table of slices reduces exactly as its array does
    with row_route("gemm", 2 * N):
        assert _rows_exact(P.group, rows, Q.mask, -1, False).tolist() == \
            per_row(P.group, np.array(want, dtype=bool).reshape(-1, N), Q.mask, -1, False)


@settings(max_examples=40, deadline=None)
@given(small_sets(), st.data())
def test_slice_table_gram_counts_shared_slices(drawn, data):
    """G[i, j] is the number of slices holding both p_i and p_j: the Gram matrix of
    the full table on P's members, also when its rows come a few at a time."""
    factors, pmem = drawn
    N = math.prod(factors)
    P = gset(factors, pmem)
    Q = gset(factors, data.draw(st.lists(st.integers(0, N - 1), max_size=6, unique=True)))
    rows = SliceRows(P, Q, data.draw(st.lists(st.integers(0, N - 1), max_size=8)))
    X = rows[0:len(rows)].astype(np.int64)[:, P.members]
    want = [[sum(int(x[i] * x[j]) for x in X) for j in range(P.card)] for i in range(P.card)]
    for cells in (setfun.ROW_CHUNK_CELLS, 1):
        with row_route("gemm", cells):
            got = rows.gram()
        assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("size, top, route", [
    (4, (1 << 22) - 1, "gemm"),     # 4 (2^22 - 1) < 2^24: every partial sum is exact in float32
    (4, 1 << 22, "each"),           # 4 * 2^22 = 2^24: no float32
    (1, 1 << 24, "each"),
    (2, 1 << 61, "each"),           # past int64: Python integers
])
def test_float32_route_stops_at_the_exactness_bound(size, top, route):
    """max row size * max|b| < FLOAT32_EXACT_BOUND admits the float32 route, and
    nothing at or over it; the values stay exact either way."""
    g = make_group([3, 3, 2])
    X = np.zeros((3, g.size), dtype=bool)
    X[0, :size] = True
    X[1, 5:5 + size] = True
    b = np.array([top, top - 1, -top, top, 0, 7] * 3, dtype=np.int64)
    assert (size * top < FLOAT32_EXACT_BOUND) == (route == "gemm")
    for sign in (+1, -1):
        for own in (False, True):
            with row_route("gemm") as taken:
                got = _rows_exact(g, X, b, sign, own)
            assert set(taken) == {route}
            assert got.tolist() == per_row(g, X, b, sign, own)


@pytest.mark.parametrize("mass, route", [(4, "gemm"), (5, "each")])
def test_integer_rows_are_bounded_by_their_absolute_mass(mass, route):
    """An integer row enters the float32 bound as sum_v |X[i](v)|, not as its
    member count or its signed sum: with max|b| = 2^22 - 1, mass 4 stays under
    2^24 and mass 5 does not, on one member or on several of either sign."""
    g = make_group([3, 3, 2])
    W = np.zeros((3, g.size), dtype=np.int64)
    W[0, 2] = -mass
    W[1, 5:5 + mass] = np.resize([-1, 1], mass)
    W[2, [0, 9]] = [mass - 1, -1]
    top = (1 << 22) - 1
    b = np.array([top, 3, -top, 0, 5, 1] * 3, dtype=np.int64)
    for sign in (+1, -1):
        for own in (False, True):
            with row_route("gemm") as taken:
                got = _rows_exact(g, W, b, sign, own)
            assert set(taken) == {route}
            assert got.tolist() == per_row(g, W, b, sign, own)


def test_route_is_chosen_per_chunk():
    """With one row per chunk, a row at the bound takes _conv_exact and a smaller
    row the float32 route; the values join into one int64 result."""
    g = make_group([3, 3, 2])
    X = np.zeros((2, g.size), dtype=bool)
    X[0, :4] = True
    X[1, 7] = True
    b = np.array([1 << 22, 3, -(1 << 22), 0, 5, 1] * 3, dtype=np.int64)
    for sign in (+1, -1):
        for own in (False, True):
            with row_route("gemm", g.size) as taken:
                got = _rows_exact(g, X, b, sign, own)
            assert taken == ["each", "gemm"]
            assert got.dtype == np.int64 and got.tolist() == per_row(g, X, b, sign, own)


def test_slice_masses_stay_in_bounded_memory():
    """The slice-within-slice masses, the slice moments and the seeded trials of an
    F_2^10 corpus item (412 shifts) run in row chunks: the peak heap of each stays
    under 8 MB."""
    from energylab.verify import Profile, _e4da, _seeded_trials, _slice_moments

    p = Profile(random_set(make_group([2] * 10), 0.030, 0))
    for entry in ("ca", "D", "S", "cd", "cs", "nz", "regular"):
        getattr(p, entry)
    assert len(p.nz) > 400
    for entry in (_e4da, _slice_moments, _seeded_trials):
        tracemalloc.start()
        try:
            entry(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, entry.__name__


def _two_set_calls():
    """Every public function of two or more sets, called on (A, B)."""
    from energylab import energy, gowers, structure

    def weighted(A, B):
        q = energy.WeightKernel.from_difference(A.group, set_correlate(A, A), psd=True)
        return energy.weighted_energy(A, B, q)

    return {
        "convolve": convolve, "correlate": correlate, "set_convolve": set_convolve,
        "set_correlate": set_correlate, "convolve_via_fourier": convolve_via_fourier,
        "generalized_convolution": lambda A, B: generalized_convolution([A, B], [1]),
        "slice_set": lambda A, B: slice_set(A, B, [1]), "sumset": sumset,
        "difference_set": difference_set, "SliceRows": lambda A, B: SliceRows(A, B, [0]),
        "energy_pair_k": energy.energy_pair_k, "pair_energy": energy.pair_energy,
        "mixed_energy": lambda A, B: energy.mixed_energy([A, B]),
        "t_energy": lambda A, B: energy.t_energy([A, B]),
        "sigma_restricted": energy.sigma_restricted,
        "restricted_energy": energy.restricted_energy, "weighted_energy": weighted,
        "pair_energy_spectrum": energy.pair_energy_spectrum,
        "gowers_pair_u3": gowers.gowers_pair_u3,
        "greedy_disjoint_translates": structure.greedy_disjoint_translates,
        "greedy_disjoint_in_target": lambda A, B: structure.greedy_disjoint_in_target(A, A, B),
        "greedy_disjoint_slices": structure.greedy_disjoint_slices,
        "random_disjoint_family": lambda A, B: structure.random_disjoint_family([A, B], 3, 1.0, 0),
    }


@pytest.mark.parametrize("name", sorted(_two_set_calls()))
def test_two_set_functions_refuse_mismatched_groups(name):
    A = GSet.from_indices(make_group([5]), [0, 1, 2])
    B = GSet.from_indices(make_group([7]), [0, 1, 2])
    with pytest.raises(ValueError, match="group mismatch"):
        _two_set_calls()[name](A, B)
