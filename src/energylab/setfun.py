"""Sets and integer functions on a finite abelian group: exact convolutions and
correlations, slices, sumsets, and tuple-indexed sumset counts.

Everything here is exact.  int64 is used when a certified bound fits; otherwise
the computation escalates to Python integers (never wraps).  The exact layer
has one kernel per operation: every convolution and correlation of sets or
integer functions runs on `_conv_exact`, and every integer power sum
sum w * v^k (energies, moments, uniformity totals) on `_exact_sum`; each
computes its escalation bound once.  The one float path here is
`convolve_via_fourier`, built on the transform of `group`; it is only compared
against, never trusted.

Families of convolutions against one fixed operand b (|A -+ A_s| over all s,
E(A, f) over seeded f) run on the row-batched mode of that kernel, `_rows_exact`:
one slice (`SliceRows`) or integer function per row, reduced per row to a nonzero
count or a sum weighted by the row's own values, a chunk of rows at a time.  A
chunk takes a float32 matrix product while its largest sum |X[i]| times max|b| is
below 2^24, so every partial sum is an exact integer, and one `_conv_exact` per
row otherwise.  A slice table's Gram matrix (`SliceRows.gram`) counts rows: exact in float32.

A set is a boolean membership array over the group's indices; that is its only
representation, and `GSet.cache` its one cache of derived quantities.  The
tuple-indexed counts, and the uniformity counts of `gowers`, run on the set's
two level-synchronous slice frontiers (`_frontier`): each level holds the unique
slices with exact multiplicities, is built once from the pairs of members in
bounded chunks and is kept.  Their node budget counts one node per (unique
slice, shift) expansion, kept ones included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .group import GroupSpec, fourier_array, inverse_fourier_array

INT64_SAFE_BOUND = 1 << 62
PAIR_PATH_LIMIT = 2_000_000
DEFAULT_NODE_BUDGET = 4_000_000


class BudgetError(RuntimeError):
    """Raised when a tuple enumeration would exceed the configured budget."""


class GSet:
    """A subset of a group: flat boolean membership array plus cached cardinality."""

    __slots__ = ("group", "mask", "_card", "_members", "_bytes", "cache", "__weakref__")

    def __init__(self, group: GroupSpec, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool).reshape(group.size)
        self.group = group
        self.mask = mask
        self.mask.setflags(write=False)
        self._card: int | None = None
        self._members: np.ndarray | None = None
        self._bytes: bytes | None = None
        self.cache: dict = {}  # derived quantities: slice frontiers, `verify.Profile` entries

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_indices(cls, group: GroupSpec, indices: Iterable[int]) -> "GSet":
        mask = np.zeros(group.size, dtype=bool)
        idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
        if idx.size:
            if idx[0] < 0 or idx[-1] >= group.size:
                raise ValueError("set element out of range")
            mask[idx] = True
        return cls(group, mask)

    @classmethod
    def empty(cls, group: GroupSpec) -> "GSet":
        return cls(group, np.zeros(group.size, dtype=bool))

    @classmethod
    def full(cls, group: GroupSpec) -> "GSet":
        return cls(group, np.ones(group.size, dtype=bool))

    # -- basic queries ---------------------------------------------------------

    @property
    def card(self) -> int:
        if self._card is None:
            self._card = int(np.count_nonzero(self.mask))
        return self._card

    def __len__(self) -> int:
        return self.card

    @property
    def members(self) -> np.ndarray:
        if self._members is None:
            self._members = np.flatnonzero(self.mask).astype(np.int64)
        return self._members

    def contains(self, x: int) -> bool:
        return bool(self.mask[x])

    def is_subset(self, other: "GSet") -> bool:
        return bool(np.all(~self.mask | other.mask))

    def key(self) -> bytes:
        if self._bytes is None:
            self._bytes = np.packbits(self.mask).tobytes()
        return self._bytes

    def __eq__(self, other) -> bool:
        return isinstance(other, GSet) and self.group == other.group and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.group.factors, self.key()))

    def __repr__(self) -> str:
        show = ",".join(str(i) for i in self.members[:12])
        more = ",..." if self.card > 12 else ""
        return f"GSet({self.group}, card={self.card}, {{{show}{more}}})"

    # -- algebra ----------------------------------------------------------------

    def _roll(self, b: int) -> np.ndarray:
        return self.mask[self.group.shift_perm(int(b))]

    def translate(self, b: int) -> "GSet":
        """The set A + b."""
        return GSet(self.group, self._roll(int(b)))

    def shift_minus(self, s: int) -> "GSet":
        """The set A - s."""
        return GSet(self.group, self._roll(int(self.group.neg_perm[s])))

    def negate(self) -> "GSet":
        """The set -A."""
        return GSet(self.group, self.mask[self.group.neg_perm])

    def intersect(self, other: "GSet") -> "GSet":
        return GSet(self.group, self.mask & other.mask)

    def union(self, other: "GSet") -> "GSet":
        return GSet(self.group, self.mask | other.mask)

    def difference(self, other: "GSet") -> "GSet":
        return GSet(self.group, self.mask & ~other.mask)

    __and__ = intersect
    __or__ = union

    def slice1(self, s: int) -> "GSet":
        """A cap (A - s)."""
        return GSet(self.group, self.mask & self._roll(int(self.group.neg_perm[s])))

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"group": list(self.group.factors), "elements": self.members.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "GSet":
        """The set of a set file {"group": [n, ...], "elements": [x, ...]}.  Both
        must be lists of integers (no floats, strings or booleans) and no element
        may repeat; anything else raises ValueError rather than being coerced."""
        from .group import make_group

        if not isinstance(d, dict) or not {"group", "elements"} <= d.keys():
            raise ValueError('a set is an object with "group" and "elements" lists')
        for key in ("group", "elements"):
            if not isinstance(d[key], list) or any(type(v) is not int for v in d[key]):
                raise ValueError(f'"{key}" must be a list of integers')
        if len(set(d["elements"])) != len(d["elements"]):
            raise ValueError("a set element is repeated")
        return cls.from_indices(make_group(d["group"]), d["elements"])

    def indicator(self) -> "DenseFunc":
        return DenseFunc(self.group, self.mask.astype(np.int64))


@dataclass
class DenseFunc:
    """An integer-valued function on the group, stored densely."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.shape != (self.group.size,):
            raise ValueError("function length does not match group size")
        if self.values.dtype.kind == "f":
            raise ValueError("function holds floating point values; only integer values are exact")


def _operand(f) -> tuple[np.ndarray, np.ndarray | None]:
    """The kernel operand of a set (its mask, with its cached members as the
    support) or of an integer function (its values)."""
    if isinstance(f, GSet):
        return f.mask, f.members
    if isinstance(f, DenseFunc):
        return f.values, None
    raise TypeError(f"expected GSet or DenseFunc, got {type(f)!r}")


# -- exact convolution / correlation ------------------------------------------


def _max_abs(values: np.ndarray) -> int:
    """max |int(v)| over the values (0 when empty).  Taken from the max and the
    min so that no int64 negation can wrap; only object arrays loop in Python."""
    if not values.size:
        return 0
    if values.dtype == object:
        return max(abs(int(v)) for v in values.tolist())
    return max(int(values.max()), -int(values.min()), 0)


def _abs_bounds(values: np.ndarray) -> tuple[int, int]:
    """(max |v|, sum |v|), exactly.  The sum is taken in int64 only when
    values.size * max |v| shows that it fits."""
    top = _max_abs(values)
    if values.dtype != object and values.size * top < INT64_SAFE_BOUND:
        return top, int(np.abs(values.astype(np.int64, copy=False)).sum())
    return top, sum(abs(int(v)) for v in values.tolist())


def _exact_sum(v: np.ndarray, k: int = 1, w: np.ndarray | None = None) -> int:
    """sum over x of w(x) * prod_r v_r(x)^k, exactly.

    v is one integer array, or a stack of rows multiplied elementwise; w is an
    integer array of the same length (all ones when omitted) and k >= 0.  Each
    term is at most max|w| * prod_r max|v_r|^k, so int64 is used only while the
    number of terms times that bound is below INT64_SAFE_BOUND; Python integers
    otherwise."""
    rows = np.atleast_2d(v)
    n = rows.shape[1]
    if not n:
        return 0
    if rows.dtype != object and (w is None or w.dtype != object):
        top = n * (1 if w is None else _max_abs(w))
        for r in rows:
            top *= _max_abs(r) ** k
        dtype = np.int64 if top < INT64_SAFE_BOUND else object
    else:
        dtype = object
    term = rows[0].astype(dtype) ** k
    for r in rows[1:]:
        term *= r.astype(dtype) ** k
    if w is not None:
        term *= w.astype(dtype)
    return int(term.sum())


def _conv_exact(group: GroupSpec, a: np.ndarray, b: np.ndarray, sign: int,
                sa: np.ndarray | None = None, sb: np.ndarray | None = None) -> np.ndarray:
    """The exact kernel behind every convolution and correlation.

    sign=+1: (a*b)(x) = sum_y a(y) b(x-y); sign=-1: (a o b)(x) = sum_y a(y) b(y+x).
    a and b are integer arrays; a boolean array is a set indicator (unit
    weights, no scan needed for its bounds).  sa and sb are the supports when
    the caller already has them.  Every partial sum is at most
    min(sum|a| max|b|, sum|b| max|a|): below INT64_SAFE_BOUND the result is
    int64, otherwise it is built from Python integers.  Small supports take the
    pair path (every support pair at once), larger ones the roll path (one
    translate per point of the sparser support)."""
    sa = np.flatnonzero(a) if sa is None else sa
    sb = np.flatnonzero(b) if sb is None else sb
    if not sa.size or not sb.size:
        return np.zeros(group.size, dtype=np.int64)
    unit_a = a.dtype == bool
    unit_b = b.dtype == bool
    max_a, sum_a = (1, sa.size) if unit_a else _abs_bounds(a[sa])
    max_b, sum_b = (1, sb.size) if unit_b else _abs_bounds(b[sb])
    big = min(sum_a * max_b, sum_b * max_a) >= INT64_SAFE_BOUND

    if not big and sa.size * sb.size <= PAIR_PATH_LIMIT:
        # key of the pair (sa[i], sb[j]) at flat position i * |sb| + j
        idx = (group.add_indices(sa[:, None], sb[None, :]) if sign > 0
               else group.sub_indices(sb[None, :], sa[:, None])).reshape(-1)
        if unit_a and unit_b:
            return np.bincount(idx, minlength=group.size)
        w = (a[sa].astype(np.int64)[:, None] * b[sb].astype(np.int64)[None, :]).reshape(-1)
        out = np.zeros(group.size, dtype=np.int64)
        np.add.at(out, idx, w)
        return out

    # roll path over the sparser support, made a's by a swap: a * b = b * a and
    # (a o b)(x) = (b o a)(-x); a unit weight adds its translate unscaled
    swap = sa.size > sb.size
    if swap:
        a, b, sa, unit_a = b, a, sb, unit_b
    out = np.zeros(group.size, dtype=object if big else np.int64)
    # b as Python integers when big, else int64 (kept boolean for unit weights)
    if big:
        bb = np.array([int(v) for v in b.tolist()], dtype=object)
    else:
        bb = b if b.dtype == bool else b.astype(np.int64, copy=False)
    for y in sa.tolist():
        # a(y) contributes a(y)*b(x-y) resp. a(y)*b(y+x) = a(y)*roll(b, -y)(x)
        shifted = bb[group.shift_perm(y if sign > 0 else int(group.neg_perm[y]))]
        out += shifted if unit_a else int(a[y]) * shifted
    return out[group.neg_perm] if swap and sign < 0 else out


def _same_group(name: str, f, *others) -> GroupSpec:
    """The group shared by f and the others (sets or functions)."""
    if any(g.group != f.group for g in others):
        raise ValueError(f"{name}: group mismatch")
    return f.group


def convolve(f, g) -> DenseFunc:
    """(f*g)(x) = sum_y f(y) g(x-y), exact."""
    (a, sa), (b, sb) = _operand(f), _operand(g)
    group = _same_group("convolve", f, g)
    return DenseFunc(group, _conv_exact(group, a, b, +1, sa, sb))


def correlate(f, g) -> DenseFunc:
    """(f o g)(x) = sum_y f(y) g(y+x), exact."""
    (a, sa), (b, sb) = _operand(f), _operand(g)
    group = _same_group("correlate", f, g)
    return DenseFunc(group, _conv_exact(group, a, b, -1, sa, sb))


def set_correlate(A: GSet, B: GSet) -> np.ndarray:
    """(A o B) as an int64 array: (A o B)(x) = |A cap (B - x)|."""
    group = _same_group("set_correlate", A, B)
    return _conv_exact(group, A.mask, B.mask, -1, A.members, B.members)


def set_convolve(A: GSet, B: GSet) -> np.ndarray:
    """(A * B) as an int64 array: (A * B)(x) = #{(a, b) in A x B : a + b = x}."""
    group = _same_group("set_convolve", A, B)
    return _conv_exact(group, A.mask, B.mask, +1, A.members, B.members)


# -- the row-batched kernel ----------------------------------------------------------

# Integers of magnitude at most 2^24 are exact in float32.
FLOAT32_EXACT_BOUND = 1 << 24
# table cells (rows x columns) that the row kernel holds at once, per table
ROW_CHUNK_CELLS = 1 << 16


class SliceRows:
    """The table of slices P cap (Q - s), one boolean row per shift s, built a
    chunk of rows at a time: it has len() and row slicing, like an array."""

    def __init__(self, P: GSet, Q: GSet, shifts: np.ndarray):
        _same_group("SliceRows", P, Q)
        self.P, self.Q = P, Q
        self.shifts = np.asarray(shifts, dtype=np.int64)

    def __len__(self) -> int:
        return self.shifts.size

    def __getitem__(self, rows: slice) -> np.ndarray:
        g = self.P.group
        # row j, column y: y in P and y + s_j in Q
        return self.P.mask & self.Q.mask[g.add_indices(g.index_range[None, :],
                                                       self.shifts[rows, None])]

    def gram(self) -> np.ndarray:
        """G[i, j] = #{s : p_i, p_j in P cap (Q - s)} over the members p_i of P (int64),
        one float32 product per chunk of max(ROW_CHUNK_CELLS / |P|, |P|) rows: an
        entry counts at most a chunk's rows, fewer than 2^24, so each is exact."""
        g, cols = self.P.group, self.P.members
        G = np.zeros((cols.size, cols.size), dtype=np.int64)
        step = max(ROW_CHUNK_CELLS // max(cols.size, 1), cols.size, 1)
        for lo in range(0, len(self), step):
            # row j, column i: p_i + s_j in Q
            rows = g.add_indices(cols[None, :], self.shifts[lo:lo + step, None])
            xf = self.Q.mask[rows].astype(np.float32)
            G += (xf.T @ xf).astype(np.int64)
        return G


def _rows_exact(group: GroupSpec, X, b: np.ndarray, sign: int, own: bool) -> np.ndarray:
    """Per-row reductions of _conv_exact(group, X[i], b, sign) over a table X.

    The reduction is the number of nonzero entries, or with `own` their sum
    weighted by the row's values (for a set row, sum over y, v in X[i] of b(v -+ y)).
    X is a boolean or integer array, or a `SliceRows`; b is an integer array
    (boolean for a set).  Rows are read ROW_CHUNK_CELLS cells at a time and reduced
    chunk by chunk, so no full (rows x N) result is ever held.  With m the largest
    sum_v |X[i](v)| of a chunk:
    - float32 route: the chunk times M[y, c] = b(c - y) (sign +1) or b(c + y)
      (sign -1), y over the columns the chunk uses and c over those (own) or all
      of [0, N), M built a column block at a time; taken only while
      m |b|_max < FLOAT32_EXACT_BOUND, so every partial sum is an integer of at
      most 24 bits and exact: no rounding step is needed;
    - otherwise one _conv_exact per row (Python integers past int64).
    The result is int64, or Python integers where a row's value needs them."""
    sb = np.flatnonzero(b)
    if not sb.size:
        return np.zeros(len(X), dtype=np.int64)
    max_b = 1 if b.dtype == bool else _max_abs(b[sb])
    step = max(1, ROW_CHUNK_CELLS // group.size)
    parts = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(X), step):
        chunk = X[lo:lo + step]
        # m in float64, which cannot wrap and is exact wherever it decides the bound
        exact32 = int(np.abs(chunk, dtype=np.float64).sum(axis=1).max()) * max_b < FLOAT32_EXACT_BOUND
        parts.append((_rows_gemm if exact32 else _rows_each)(group, chunk, b, sb, sign, own))
    out = np.concatenate(parts)
    return out.astype(np.int64) if out.dtype == object and _max_abs(out) < INT64_SAFE_BOUND else out


def _rows_gemm(group, chunk, b, sb, sign, own) -> np.ndarray:
    used = np.flatnonzero(chunk.any(axis=0))
    cols = used if own else group.index_range
    xb = chunk[:, used]
    xf = xb.astype(np.float32)
    bf = b.astype(np.float32)
    width = max(1, ROW_CHUNK_CELLS // max(used.size, chunk.shape[0]))
    out = np.zeros(chunk.shape[0], dtype=np.int64)
    for lo in range(0, cols.size, width):
        c = cols[lo:lo + width]
        idx = group.sub_indices(c[None, :], used[:, None]) if sign > 0 else \
            group.add_indices(used[:, None], c[None, :])
        prod = xf @ bf[idx]
        if own:
            out += (prod.astype(np.int64) * xb[:, lo:lo + width]).sum(axis=1)
        else:
            out += np.count_nonzero(prod, axis=1)
    return out


def _rows_each(group, chunk, b, sb, sign, own) -> np.ndarray:
    out = []
    for row in chunk:
        sa = np.flatnonzero(row)
        v = _conv_exact(group, row, b, sign, sa, sb)
        out.append(_exact_sum(v[sa], 1, row[sa]) if own else int(np.count_nonzero(v)))
    return np.array(out, dtype=object)


def convolve_via_fourier(f, g) -> np.ndarray:
    """Float transform path for f*g; oracle only."""
    a, b = _operand(f)[0], _operand(g)[0]
    group = _same_group("convolve_via_fourier", f, g)
    spec = fourier_array(group, a.astype(np.float64)) * fourier_array(group, b.astype(np.float64))
    return np.real(inverse_fourier_array(group, spec))


def iterated_convolve(f, k: int) -> DenseFunc:
    """k >= 1 convolution applications: k=1 gives f*f, k=2 gives f*f*f, ..."""
    if k < 1:
        raise ValueError("iterated_convolve requires k >= 1")
    out = f
    for _ in range(k):
        out = convolve(out, f)
    return out


def sigma_k(A: GSet, k: int) -> int:
    """Number of k-tuples of A summing to zero."""
    if k < 1:
        raise ValueError("sigma_k requires k >= 1")
    if k == 1:
        return int(A.mask[0])
    return int(iterated_convolve(A, k - 1).values[0])


def generalized_convolution(fs: Sequence, xs: Sequence[int]):
    """C(f_0,...,f_{k-1})(x_1,...,x_{k-1}) = sum_z f_0(z) f_1(z+x_1) ... f_{k-1}(z+x_{k-1})."""
    vals = [_operand(f)[0] for f in fs]
    k = len(vals)
    if k < 2:
        raise ValueError("generalized convolution needs at least two functions")
    if len(xs) != k - 1:
        raise ValueError(f"expected {k - 1} shifts for {k} functions, got {len(xs)}")
    g = _same_group("generalized_convolution", *fs)
    rows = [vals[0]] + [v[g.shift_perm(int(g.neg_perm[int(x)]))] for v, x in zip(vals[1:], xs)]
    return _exact_sum(np.stack(rows))


# -- slices ----------------------------------------------------------------------


def slice_set(A: GSet, B: GSet, shifts: Sequence[int]) -> GSet:
    """B cap (A - s_1) cap ... cap (A - s_m); the empty tuple gives B cap A."""
    _same_group("slice_set", A, B)
    if len(shifts) == 0:
        return GSet(A.group, B.mask & A.mask)
    mask = B.mask.copy()
    for s in shifts:
        mask &= A.shift_minus(int(s)).mask
        if not mask.any():
            break
    return GSet(A.group, mask)


# -- sumsets ---------------------------------------------------------------------


def sumset(A: GSet, B: GSet) -> GSet:
    _same_group("sumset", A, B)
    if not A.card or not B.card:
        return GSet.empty(A.group)
    small, big = (A, B) if A.card <= B.card else (B, A)
    mask = np.zeros(A.group.size, dtype=bool)
    for b in small.members.tolist():
        mask |= big._roll(b)
    return GSet(A.group, mask)


def difference_set(A: GSet, B: GSet) -> GSet:
    """A - B = {a - b}."""
    return sumset(A, B.negate())


# -- tuple-indexed sumset counts ---------------------------------------------------

# member pairs formed at once by the slice frontier; bounds its working set
FRONTIER_CHUNK = 1 << 14


def _merge_rows(parts: list, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Unique member rows of one size, with their multiplicities summed.

    Rows are compared on their sorted members: packed into base-N digits when
    that fits in int64, column by column otherwise."""
    C = np.concatenate([c for c, _ in parts])
    m = np.concatenate([m for _, m in parts])
    k = C.shape[1]
    if N ** k < INT64_SAFE_BOUND:
        key = C @ (N ** np.arange(k, dtype=np.int64))
        order = np.argsort(key)
        key = key[order]
        new = key[1:] != key[:-1]
    else:
        order = np.lexsort(C.T[::-1])
        sorted_rows = C[order]
        new = np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1)
    first = np.flatnonzero(np.r_[True, new])
    return C[order[first]], np.add.reduceat(m[order], first)


def _spend(nodes: int, n: int, budget: int | None) -> int:
    """nodes + n, raising BudgetError when that exceeds the budget (None: no cap)."""
    nodes += n
    if budget is not None and nodes > budget:
        raise BudgetError(f"slice-tuple enumeration exceeded budget ({budget} nodes)")
    return nodes


class _Frontier:
    """Level-synchronous slice expansion behind the slice-tuple and uniformity counts.

    Level k holds the unique slices X reached after k shifts, each with the
    exact number of shift tuples reaching it, as a dict mapping a size k to a
    (rows, k) array of sorted members and the rows' multiplicities; level 0 is
    {A}.  Expanding replaces every X by its children X cap (P - s), s in P - X
    (exactly the shifts with a nonempty child), where the partner P is A for
    the slice-tuple counts and X itself for the uniformity counts; equal
    children merge and add their multiplicities.  A child's members are the x
    of the pairs (x in X, y in P) with y - x = s, so one pass over the pairs,
    grouped by (row, s), builds a whole level.

    Every level built is kept with `nodes[k]`, the nodes of levels 1..k, and every
    total with its own.  One node is one (unique slice, shift) expansion, so the
    counts do not depend on the chunking; a budget caps them, kept ones and the
    final pass included, and a level over the budget is never kept.
    Pairs are formed at most FRONTIER_CHUNK at a time; a row with more pairs
    than that is handled alone, its members in slices and its children from
    boolean masks, a block of shifts at a time.
    """

    def __init__(self, A: GSet, self_partner: bool):
        self.group = A.group
        self.partner = None if self_partner else A.members
        self.partner_mask = None if self_partner else A.mask
        self.levels = [{A.card: (A.members[None, :], np.ones(1, dtype=np.int64))}]
        self.nodes = [0]
        self.totals: dict[tuple, tuple[int, int]] = {}

    def _width(self, k: int) -> int:
        """Partner size of a row with k members."""
        return k if self.partner is None else self.partner.size

    def _chunks(self, M: np.ndarray):
        """Row ranges of M holding at most FRONTIER_CHUNK pairs; a row over the cap comes alone."""
        n, k = M.shape
        pairs = k * self._width(k)
        step = max(1, FRONTIER_CHUNK // pairs)
        for lo in range(0, n, step):
            yield lo, min(lo + step, n), pairs > FRONTIER_CHUNK

    def _pairs(self, M: np.ndarray, op) -> np.ndarray:
        """Keys row * N + op(y, x) over x in each row of M and y in its partner.

        Flat in (row, x, y) order, so pair i has x = M.flat[i // |partner|]."""
        part = M[:, None, :] if self.partner is None else self.partner[None, None, :]
        key = op(part, M[:, :, None])
        key += (np.arange(M.shape[0], dtype=np.int64) * self.group.size)[:, None, None]
        return key.reshape(-1)

    def _row_counts(self, x: np.ndarray, op) -> np.ndarray:
        """For one row over the cap: counts[t] = #{(x, y) : op(y, x) = t}."""
        size = self.group.size
        part = x if self.partner is None else self.partner
        counts = np.zeros(size, dtype=np.int64)
        # at least N pairs per slice, so each bincount pays for its N-long result
        step = max(1, max(FRONTIER_CHUNK, size) // self._width(x.size))
        for lo in range(0, x.size, step):
            counts += np.bincount(op(part[None, :], x[lo:lo + step, None]).reshape(-1),
                                  minlength=size)
        return counts

    def _row_children(self, x: np.ndarray):
        """(row, size, members) of the children of one row over the cap."""
        g = self.group
        N = g.size
        counts = self._row_counts(x, g.sub_indices)
        shifts = np.flatnonzero(counts)
        own = np.zeros(N, dtype=bool)
        own[x] = True
        part = own if self.partner is None else self.partner_mask
        step = max(1, FRONTIER_CHUNK // N)
        members = []
        for lo in range(0, shifts.size, step):
            blk = shifts[lo:lo + step]
            # row j, column z: z in X and z + s_j in P
            moved = part[g.add_indices(g.index_range[None, :], blk[:, None])]
            members.append(np.nonzero(moved & own)[1])
        return np.zeros(shifts.size, dtype=np.int64), counts[shifts], np.concatenate(members)

    def _expand(self, budget: int | None) -> None:
        """Append the children of the last level, one shift deeper."""
        g = self.group
        N = g.size
        big = N ** len(self.levels) >= INT64_SAFE_BOUND
        nodes = self.nodes[-1]
        found: dict[int, list] = {}
        for M, mult in self.levels[-1].values():
            if big:
                mult = mult.astype(object)
            for lo, hi, alone in self._chunks(M):
                if alone:
                    rows, sizes, xs = self._row_children(M[lo])
                else:
                    # group the pairs by (row, s); the stable sort keeps each group's x ascending
                    key = self._pairs(M[lo:hi], g.sub_indices)
                    order = np.argsort(key, kind="stable")
                    key = key[order]
                    xs = M[lo:hi].reshape(-1)[order // self._width(M.shape[1])]
                    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
                    sizes = np.diff(np.r_[first, key.size])
                    rows = key[first] // N
                nodes = _spend(nodes, sizes.size, budget)
                # children of one size k become a (count, k) member array
                starts = np.cumsum(sizes) - sizes
                m = mult[lo + rows]
                by = np.argsort(sizes, kind="stable")
                ordered = sizes[by]
                cuts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
                for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
                    sel = by[a:b]
                    k = int(ordered[a])
                    found.setdefault(k, []).append(
                        (xs[starts[sel][:, None] + np.arange(k)], m[sel]))
        self.levels.append({k: _merge_rows(parts, N) for k, parts in found.items()})
        self.nodes.append(nodes)

    def total(self, depth: int, sign: str, square: bool, budget: int | None = None,
              tick: bool = False) -> int:
        """Sum over the rows X of level `depth` of mult(X) times the number of
        distinct y -+ x, or with `square` the sum of squared pair counts per value,
        over x in X, y in its partner.  `budget` caps the nodes of the levels, and
        with `tick` also the total's own: one per (row, value)."""
        while len(self.levels) <= depth:
            self._expand(budget)
        nodes = _spend(self.nodes[depth], 0, budget)
        cap = budget if tick else None
        if (depth, sign, square) in self.totals:
            total, nodes = self.totals[depth, sign, square]
            _spend(nodes, 0, cap)
            return total
        N = self.group.size
        op = self.group.sub_indices if sign == "-" else self.group.add_indices
        total = 0
        for M, mult in self.levels[depth].values():
            for lo, hi, alone in self._chunks(M):
                if alone:
                    counts = self._row_counts(M[lo], op)
                    counts = counts[counts > 0]
                    rows = np.zeros(counts.size, dtype=np.int64)
                else:
                    key = self._pairs(M[lo:hi], op)
                    cells = (hi - lo) * N
                    if cells <= 4 * key.size:
                        # dense rows: a table of every (row, value) beats sorting the pairs
                        values = np.bincount(key, minlength=cells)
                        rows = np.flatnonzero(values)
                        counts = values[rows]
                    else:
                        rows, counts = np.unique(key, return_counts=True)
                    rows //= N
                nodes = _spend(nodes, counts.size, cap)
                total += _exact_sum(counts, 2 if square else 0, mult[lo + rows])
        self.totals[depth, sign, square] = total, nodes
        return total


def _frontier(A: GSet, self_partner: bool = False) -> _Frontier:
    """A's slice frontier (A as the partner, or each slice as its own), held in its cache."""
    key = ("frontier", self_partner)
    return A.cache.get(key) or A.cache.setdefault(key, _Frontier(A, self_partner))


def count_nonempty_slice_tuples(A: GSet, arity: int, budget: int | None = None) -> int:
    """|{(s_1..s_arity) : A cap (A-s_1) ... cap (A-s_arity) nonempty}|.

    Equals the number of distinct tuples (a_1 - a, ..., a_arity - a) over a, a_i in A.
    """
    if arity < 0:
        raise ValueError("arity must be >= 0")
    if not A.card:
        return 0
    if arity == 0:
        return 1
    return _frontier(A).total(arity - 1, "-", False,
                              DEFAULT_NODE_BUDGET if budget is None else budget, tick=True)


def delta_sumset_size(A: GSet, n: int, sign: str, budget: int | None = None) -> int:
    """|A^n - Delta(A)| (sign '-') or |A^n + Delta(A)| (sign '+').

    n == 2 additionally cross-checks the direct pair count against the
    shift-tuple identity; they must agree exactly.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if n < 2:
        raise ValueError("n must be >= 2")
    if not A.card:
        return 0
    ident = tuple_sumset_sum(A, n - 1, sign, budget)
    if n == 2:
        direct = delta_pairs_direct(A, sign)
        if direct != ident:
            raise AssertionError(
                f"delta_sumset_size disagreement at n=2 sign {sign}: direct {direct} vs identity {ident}")
    return ident


def delta_pairs_direct(A: GSet, sign: str) -> int:
    """|A^2 -+ Delta(A)| by the direct distinct-pair sweep (no shift tuples).

    Row x is the union of the translates A -+ a that contain x; the count is the
    total size of the rows."""
    g = A.group
    moved = [A._roll(int(g.neg_perm[a]) if sign == "-" else int(a)) for a in A.members.tolist()]
    reach = np.zeros(g.size, dtype=bool)
    for m in moved:
        reach |= m
    pos = np.cumsum(reach) - 1
    rows = np.zeros((int(np.count_nonzero(reach)), g.size), dtype=bool)
    for m in moved:
        rows[pos[m]] |= m
    return int(np.count_nonzero(rows))


def tuple_sumset_sum(A: GSet, arity: int, sign: str, budget: int | None = None) -> int:
    """sum over nonempty arity-tuples of |A -+ A_tuple| (the identity-path summand)."""
    if arity < 0:
        raise ValueError("arity must be >= 0")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if not A.card:
        return 0
    return _frontier(A).total(arity, sign, False, DEFAULT_NODE_BUDGET if budget is None else budget)


# -- inclusion checks -----------------------------------------------------------


def katz_koester_check(A: GSet, shifts: Sequence[int]) -> bool:
    """True iff A - A_t is contained in (A-A)_{-t} and A + A_t in (A+A)_t.

    Both hold for every set and tuple; False signals a computation bug.
    """
    g = A.group
    At = slice_set(A, A, shifts)
    D = difference_set(A, A)
    S = sumset(A, A)
    neg_shifts = [int(g.neg_perm[int(s)]) for s in shifts]
    left_minus = difference_set(A, At)
    right_minus = slice_set(D, D, neg_shifts)
    left_plus = sumset(A, At)
    right_plus = slice_set(S, S, list(int(s) for s in shifts))
    return left_minus.is_subset(right_minus) and left_plus.is_subset(right_plus)
