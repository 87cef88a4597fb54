"""Verification harness: exact identity suite, theorem-backed inequality suite,
report-only ratio records for bounds whose constants are not quantified, and
the algorithm audits.

Identity entries compare two independently computed values and must agree
exactly (float-oracle entries compare after rounding at a stated tolerance).
Inequality entries are theorems: any applicable entry that fails indicates a
bug.  Entries whose hypotheses do not hold on an instance are skipped with the
reason recorded.  Ratio entries never fail a run.

Each suite is a tuple of check rows (tag, name, relation, compute) over a lazy
`Profile`, a view of the set's cache: its entries (A o A, A - A, E_k, gamma, the
uniformity counts, the |A -+ A_s| table, ...) are computed on first use and held
on the set for every suite call on it; the two routes of an identity never share
one.  `_evaluate` turns rows into CheckResults, a failed hypothesis or a
BudgetError into a skip.  `run_corpus` runs the suites item by item, letting go
of each after, and charges an entry's time to `per_entry_seconds`, the rest of a
row's to `per_tag_seconds`, and a suite's to its suite; it counts skips by tag.

The per-shift and per-trial entries (|A -+ A_s|, the slice masses of ratio.e4da,
the two-shift sum, the seeded trials E(A, f)) run each family at once on the row
kernel `setfun._rows_exact`, and sum_s A_s o A_s comes off the slice table's Gram
matrix, never a correlation per shift or trial; the other side of each identity
stays on `energy_k`/`energy_pair_k`.
"""

from __future__ import annotations

import json
import math
import operator
import time
import zlib
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .constructors import (arithmetic_progression, coset_union, golden_hplusl,
                           golden_random_z101, golden_z7_triple, h_plus_lambda,
                           random_set, subspace)
from .energy import (energy_k, energy_pair_k, mixed_energy, pair_energy,
                     pair_energy_spectrum, sigma_restricted, t2_of_dual_square, t_k)
from .gowers import gowers_pair_u3, gowers_u
from .group import complex_correlate, fourier_array, make_group
from .setfun import (BudgetError, GSet, SliceRows, _exact_sum, _rows_exact,
                     count_nonempty_slice_tuples, delta_pairs_direct, difference_set,
                     katz_koester_check, set_correlate, sumset, tuple_sumset_sum)
from .structure import (ORACLE_CAP, connectedness_gamma, greedy_disjoint_slices,
                        greedy_disjoint_translates, random_disjoint_family,
                        regular_part, small_doubling_subset_oracle)

ORACLE_ROUND_TOL = 1e-6
FLOAT_REL_TOL = 1e-9


@dataclass(slots=True)
class CheckResult:
    """One verification record; lhs/rhs are decimal strings (exact when integer).
    Slotted: a corpus run makes tens of thousands of them."""

    name: str
    tag: str
    lhs: str
    rhs: str
    status: str  # "pass" | "fail" | "report" | "skip"
    ratio: float | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return asdict(self)


# caps keeping exhaustive sub-searches inside a desk-scale time budget
GAMMA_CAP = 18
EIGEN_TRIALS = 50


@dataclass
class VerifyConfig:
    """The seed of the randomized checks."""

    seed: int = 0


def _dec(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _ratio(lhs, rhs) -> float | None:
    try:
        lhs = float(lhs)
        rhs = float(rhs)
    except (OverflowError, ValueError):
        return None
    if rhs == 0.0:
        return None
    return lhs / rhs


def _ratio_big(lhs: int, rhs: int) -> float | None:
    if rhs == 0:
        return None
    try:
        return float(Fraction(int(lhs), int(rhs)))
    except OverflowError:
        return None


# ---------------------------------------------------------------------------
# relations: each maps a row's computed values to (lhs, rhs, status, ratio, note)
# ---------------------------------------------------------------------------


def _compare(op, lhs: int, rhs: int, note: str = ""):
    return _dec(lhs), _dec(rhs), "pass" if op(lhs, rhs) else "fail", _ratio_big(lhs, rhs), note


_EQ, _GE, _LE = (partial(_compare, op) for op in (operator.eq, operator.ge, operator.le))


def _REPORT(lhs, rhs, note: str = ""):
    return _dec(lhs), _dec(rhs), "report", _ratio(lhs, rhs), note


def _HOLDS(lhs: str, rhs: str, ok: bool, ratio: float | None = None, note: str = ""):
    """A check that writes its own sides and decides its own verdict."""
    return lhs, rhs, "pass" if ok else "fail", ratio, note


class _Skip(Exception):
    """A hypothesis of the row fails on this instance; the message is the reason."""


def _need(holds: bool, reason: str) -> bool:
    if not holds:
        raise _Skip(reason)
    return True


def _when(applies, *rows) -> tuple:
    """A block of rows that are left out wherever applies(profile) is false."""
    return "", "", rows, applies


# ---------------------------------------------------------------------------
# the per-instance profile
# ---------------------------------------------------------------------------


class Profile:
    """The derived quantities of one instance (A, B): each entry of _ENTRIES is
    computed on first use and held in A's cache for every profile of A.  B
    defaults to A; `name` labels the algorithm-audit notes.  `seconds` holds each
    entry's compute time less that of the entries it reads first."""

    def __init__(self, A: GSet, B: GSet | None = None, config: VerifyConfig | None = None,
                 name: str = ""):
        self.A = A
        self.B = B if B is not None else A
        self.seed = (config or VerifyConfig()).seed
        self.name = name
        self.a = A.card
        self.seconds: dict[str, float] = {}
        self.spent = 0.0  # seconds of the entries computed through this view

    def __getattr__(self, entry: str):
        # only reached for the names that are not attributes
        if entry not in _ENTRIES:
            raise AttributeError(entry)
        return partial(self._held, entry) if entry in ("E", "U", "gamma") else self._held(entry)

    def _held(self, entry: str, *args):
        key = (entry, *args, *_KEYED_BY.get(entry, lambda p: ())(self))
        if key not in self.A.cache:
            t0, spent = time.perf_counter(), self.spent
            value = _ENTRIES[entry](self, *args)
            own = time.perf_counter() - t0 - (self.spent - spent)
            self.spent += own
            label = f"{entry}({args[0]})" if args else entry
            self.seconds[label] = self.seconds.get(label, 0.0) + own
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self.A.cache[key] = value
        return self.A.cache[key]


def _slice_sumsets(p: Profile) -> dict[int, tuple[int, int]]:
    """s -> (|A - A_s|, |A + A_s|) over the shifts with A_s nonempty: the nonzero
    counts of A_s o A and A_s * A, all rows A_s at once on the row kernel."""
    A = p.A
    shifts = np.flatnonzero(p.ca)
    rows = SliceRows(A, A, shifts)
    minus, plus = (_rows_exact(A.group, rows, A.mask, sign, own=False) for sign in (-1, +1))
    return dict(zip(shifts.tolist(), zip(minus.tolist(), plus.tolist())))


def _slice_moments(p: Profile) -> tuple[int, np.ndarray]:
    """(sum_s <A o A, A_s o A_s>, sum_s A_s o A_s) over the shifts with A_s nonempty.
    With G[i, j] = #{s : a_i, a_j in A_s}, the Gram matrix of the slice table over
    A's members a_i, sum_s (A_s o A_s)(x) is the sum of G[i, j] over a_j - a_i = x."""
    A, g = p.A, p.A.group
    G = SliceRows(A, A, np.flatnonzero(p.ca)).gram()
    acc = np.zeros(g.size, dtype=np.int64)
    np.add.at(acc, g.sub_indices(A.members[None, :], A.members[:, None]), G)
    return _exact_sum(p.ca, 1, acc), acc


def _e4da(p: Profile) -> tuple[int, int, int, int]:
    """(d_sum, bound_d, s_sum, bound_s): the slice-within-slice masses and their
    upper companions, weighted by (A o A)(x)^2 over the nonzero shifts x.  The
    mass of a slice X = D_x or S_x is sum over y in X of (X * D)(y), the number
    of pairs (y, v) in X^2 with v - y in D, on the row kernel over all x at once."""
    D, S = p.D, p.S
    nz = np.array(p.nz, dtype=np.int64)
    w = p.ca[nz]
    d_mass, s_mass = (_rows_exact(D.group, SliceRows(X, X, nz), D.mask, +1, own=True)
                      for X in (D, S))
    return (_exact_sum(w, 2, d_mass), _exact_sum(np.stack([w, p.cd[nz]]), 2),
            _exact_sum(w, 2, s_mass), _exact_sum(np.stack([w, p.cs[nz]]), 2))


def _trial_draws(p: Profile) -> tuple[tuple[list, list], tuple[list, list], list]:
    """((E(A, f), |f|^2) over f on A, the same over f on its regular part Ap, four
    shift tuples), drawn from the generator seeded by (seed, A): EIGEN_TRIALS times
    f in {-3..3} minus 0 on A, then on Ap, then the tuples.  E(A, f) is
    sum_v f(v) (f * (A o A))(v), one row-kernel call per table of functions."""
    A, g = p.A, p.A.group
    rng = np.random.Generator(np.random.Philox(key=[p.seed, zlib.crc32(A.key())]))
    sets = (A, p.regular)
    tables = [np.zeros((EIGEN_TRIALS, g.size), dtype=np.int8) for _ in sets]
    for t in range(EIGEN_TRIALS):
        for X, F in zip(sets, tables):
            vals = rng.integers(-3, 4, size=X.card)
            vals[vals == 0] = 1
            F[t, X.members] = vals
    tuples = [[int(s) for s in rng.choice(p.D.members, size=int(rng.integers(1, 3)))]
              for _ in range(4)]
    on_a, on_ap = ((_rows_exact(g, F, p.ca, +1, own=True).tolist(),
                    np.square(F, dtype=np.int64).sum(axis=1).tolist()) for F in tables)
    return on_a, on_ap, tuples


def _seeded_trials(p: Profile) -> tuple[int, int, bool]:
    """(worst_a, worst_ap, kk_ok) over `_trial_draws`: the last violation (0 for none)
    of the operator bound on A and on Ap, then the inclusion checks on the empty
    tuple and the drawn tuples."""
    (e_a, norm_a), (e_ap, norm_ap), tuples = _trial_draws(p)
    worst_a = worst_ap = 0
    for e, n in zip(e_a, norm_a):
        if e > 0 and e ** 2 > p.E(3) * n ** 2:
            worst_a = e
    for e, n in zip(e_ap, norm_ap):
        if e * p.a > 2 * p.E(2) * n:
            worst_ap = e
    return worst_a, worst_ap, all(katz_koester_check(p.A, t) for t in [[], *tuples])


# profile entries: name -> the call that computes it.  No entry refers back to
# the set or the view, so a set and its cache are freed with its last user.
_ENTRIES = {
    "E": lambda p, k: energy_k(p.A, k).value,
    "U": lambda p, d: gowers_u(p.A, d).count,
    "gamma": lambda p, alpha: connectedness_gamma(p.A, alpha, 0.5)[0],
    "ca": lambda p: set_correlate(p.A, p.A),
    "D": lambda p: difference_set(p.A, p.A),
    "S": lambda p: sumset(p.A, p.A),
    "cd": lambda p: set_correlate(p.D, p.D),
    "cs": lambda p: set_correlate(p.S, p.S),
    "nz": lambda p: [s for s in np.flatnonzero(p.ca).tolist() if s != 0],
    "sigma": lambda p: int(sigma_restricted(p.A, p.D)),
    "e3_daa": lambda p: int(mixed_energy([p.D, p.A, p.A]).value),
    "e_ab": lambda p: pair_energy(p.A, p.B),
    "t4": lambda p: t_k(p.A, 4),
    "regular": lambda p: regular_part(p.A),
    "oracle": lambda p: small_doubling_subset_oracle(p.A, 0.5),
    "slice_sumsets": _slice_sumsets,
    "slice_moments": _slice_moments,
    "e4da": _e4da,
    "seeded_trials": _seeded_trials,
}
# E, U and gamma (at beta = 1/2) are held per argument; these also per B or per seed
_KEYED_BY = {"e_ab": lambda p: (p.B.key(),), "seeded_trials": lambda p: (p.seed,)}


def _evaluate(rows: tuple, p: Profile, seconds: dict | None = None) -> list[CheckResult]:
    """The CheckResults of the rows in row order: relation(*compute(p)), or for a
    block (a tuple of rows as relation) its rows wherever compute(p) is true.
    With `seconds`, each row's wall time less its entries' is added to
    seconds[tag]; a block has no tag, and its rows are charged to theirs."""
    out: list[CheckResult] = []
    for tag, name, relation, compute in rows:
        t0 = time.perf_counter() - getattr(p, "spent", 0.0)
        try:
            got = compute(p)
        except (_Skip, BudgetError, AssertionError) as err:
            # an AssertionError is an internal cross-check or audit that disagreed
            status = "fail" if isinstance(err, AssertionError) else "skip"
            out.append(CheckResult(name, tag, "", "", status, None, str(err)))
        else:
            if isinstance(relation, tuple):
                if got:
                    out += _evaluate(relation, p, seconds)
                continue
            out.append(CheckResult(name, tag, *relation(*got)))
        if seconds is not None:
            t1 = time.perf_counter() - getattr(p, "spent", 0.0)
            seconds[tag] = seconds.get(tag, 0.0) + t1 - t0
    return out


# ---------------------------------------------------------------------------
# identity suite: every entry compares two independently computed values
# ---------------------------------------------------------------------------


def _spectrum_pair_energy(p: Profile):
    e_ab, e_ab_f = p.e_ab, pair_energy_spectrum(p.A, p.B)
    resid = abs(e_ab_f - e_ab)
    return (_dec(e_ab), repr(e_ab_f), resid < max(ORACLE_ROUND_TOL, FLOAT_REL_TOL * e_ab),
            _ratio(e_ab_f, e_ab), f"residual={resid:.3e}")


def _dual_fourth_moment(p: Profile):
    lhs_f = t2_of_dual_square(p.A)
    rhs_i = p.A.group.size ** 3 * p.E(4)
    rel = abs(lhs_f - rhs_i) / max(1.0, float(rhs_i))
    return repr(lhs_f), _dec(rhs_i), rel < FLOAT_REL_TOL, _ratio(lhs_f, rhs_i), f"rel={rel:.3e}"


def _indicator_spectrum(p: Profile):
    g = p.A.group
    F = fourier_array(g, p.A.mask.astype(np.float64))
    err = float(np.max(np.abs(F - complex_correlate(g, np.conj(F), F) / g.size)))
    tol = FLOAT_REL_TOL * max(1.0, float(p.a))
    return f"max|delta|={err:.3e}", f"tol={tol:.3e}", err <= tol


def _two_shift_sum(p: Profile) -> int:
    """sum over x of E(W_x, B), W_x = A cap (B - x): E(W, B) is the sum over v in W
    of (W * (B o B))(v), so B o B is taken once and all W_x run on the row kernel."""
    A, B = p.A, p.B
    rows = SliceRows(A, B, np.flatnonzero(set_correlate(A, B)))
    return _exact_sum(_rows_exact(A.group, rows, set_correlate(B, B), +1, own=True))


_IDENTITY = (
    ("identity.e3_slice_sum", "third moment equals sum of slice pair energies", _EQ,
     lambda p: (p.slice_moments[0], p.E(3))),
    ("identity.e4_slice_pair_sum", "fourth moment equals double slice-energy sum", _EQ,
     lambda p: (_exact_sum(p.slice_moments[1], 2), p.E(4))),
    # the direct distinct-pair sweep against the per-shift slice-sumset sum
    *((f"identity.delta_{word}_paths", f"pair tuple count, sign {sign}: direct vs shift sum", _EQ,
       lambda p, sign=sign: (delta_pairs_direct(p.A, sign), tuple_sumset_sum(p.A, 1, sign)))
      for sign, word in (("-", "minus"), ("+", "plus"))),
    ("identity.pair_energy_spectrum", "pair energy: exact vs transform after rounding", _HOLDS,
     _spectrum_pair_energy),
    ("identity.u1_card_sq", "order-1 uniformity count equals |A|^2", _EQ,
     lambda p: (p.U(1), p.a ** 2)),
    ("identity.u2_energy", "order-2 uniformity count equals the energy", _EQ,
     lambda p: (p.U(2), p.E(2))),
    ("identity.t2_dual_spectrum", "dual fourth-moment identity (transform path)", _HOLDS,
     _dual_fourth_moment),
    ("identity.char_char", "indicator spectrum self-consistency", _HOLDS, _indicator_spectrum),
    ("identity.pair_e3_tuple_sum", "pair third moment equals two-shift slice sum", _EQ,
     lambda p: (_two_shift_sum(p), int(energy_pair_k(p.A, p.B, 3).value))),
)


# ---------------------------------------------------------------------------
# inequality suite
# ---------------------------------------------------------------------------


def _popular_half(g, corr: np.ndarray) -> GSet:
    """Support points whose correlation value reaches the median nonzero value."""
    sup = np.flatnonzero(corr)
    mask = np.zeros(g.size, dtype=bool)
    if sup.size:
        mask[sup[corr[sup] >= float(np.median(corr[sup]))]] = True
    return GSet(g, mask)


def _slice_sumset_sum(p: Profile, side: int) -> int:
    """sum over the shifts s with A_s nonempty of |A - A_s| (side 0) or |A + A_s| (side 1),
    which is also |A^2 -+ Delta(A)|."""
    return sum(cards[side] for cards in p.slice_sumsets.values())


def _slice_weighted_sum(p: Profile, side: int):
    """sum_s (A o A)(s)^2 / |A -+ A_s| against E_3 / |A|^2, compared exactly."""
    acc = sum((Fraction(int(p.ca[s]) ** 2, cards[side]) for s, cards in p.slice_sumsets.items()),
              Fraction(0))
    e3, a = p.E(3), p.a
    return (repr(float(acc)), repr(e3 / a ** 2), acc <= Fraction(e3, a * a),
            _ratio(float(acc), e3 / a ** 2), "exact rational comparison")


def _plunnecke(p: Profile, T: GSet, h: int):
    """T = nA - mA with n + m = h."""
    return T.card * p.a ** (h - 1), p.S.card ** h, "|nA-mA| |A|^{n+m-1} <= |A+A|^{n+m}"


def _connected_energy(p: Profile):
    a = p.a
    _need(a <= GAMMA_CAP, f"|A|={a} over the witness-search cap {GAMMA_CAP}")
    gamma = p.gamma(2)
    e32 = float(p.E(1.5))
    rhs_f = 2.0 ** -5 * gamma * a ** 0.25 * p.E(2) ** 0.75
    return (repr(e32), repr(rhs_f), e32 >= rhs_f * (1 - 1e-12), _ratio(e32, rhs_f),
            f"gamma={gamma:.6f} at beta=1/2")


def _containment_mass(p: Profile):
    SAB = sumset(p.A, p.B)
    e3_ba = int(energy_pair_k(p.B, p.A, 3).value)
    quad = _exact_sum(p.ca, 2, set_correlate(SAB, SAB))
    return p.B.card ** 2 * p.E(2) ** 2, e3_ba * quad, "psi = (A o A), superset = A+B"


def _moment(p: Profile, corr: np.ndarray, k: int) -> int:
    """sum over x in A - A of corr(x)^k."""
    return _exact_sum(corr[p.D.members], k)


def _chain(p: Profile, corr: np.ndarray, k: int, mid: int, low: int, note: str = ""):
    """sum over x in A - A of corr(x)^k >= mid >= low."""
    top = _moment(p, corr, k)
    return _dec(top), f"{mid} >= {low}", top >= mid >= low, _ratio_big(top, low), note


def _chain_minus(p: Profile, k: int):
    mid = count_nonempty_slice_tuples(p.A, k + 1)
    return _chain(p, p.cd, k, mid, p.D.card * p.a ** k, f"middle tuple count {mid}")


def _popular_bound(p: Profile):
    P = _popular_half(p.A.group, p.ca)
    sigma_p = int(sigma_restricted(p.A, P))
    t2p = t_k(P, 2) if P.card >= 2 else (1 if P.card else 0)
    return sigma_p ** 8, p.E(4) * t2p * p.a ** 8, f"|P|={P.card}"


def _two_set_bound(p: Profile):
    A, B = p.A, p.B
    cba = set_correlate(B, A)
    Pab = _popular_half(A.group, cba)
    num = int(cba[Pab.members].sum()) if Pab.card else 0
    e4_mixed = int(mixed_energy([A, A, B, B]).value)
    e_p = int(energy_k(Pab, 2).value) if Pab.card else 0
    return (num ** 8, e4_mixed * e_p * p.a ** 4 * B.card ** 4,
            f"popular |P|={Pab.card} inside A-B")


def _monotonicity(p: Profile, d: int):
    N = p.A.group.size
    lo = (p.U(d - 1) / N ** d) ** (1.0 / (1 << (d - 1)))
    hi = (p.U(d) / N ** (d + 1)) ** (1.0 / (1 << d))
    return repr(lo), repr(hi), lo <= hi * (1 + 1e-12) + 1e-12, _ratio(lo, hi)


def _remark_exponents(k: int) -> tuple[int, int]:
    """(exponent of E, exponent of |A|) in the order-k uniformity floor."""
    return (1 << k) - k - 1, 3 * (1 << k) - 4 * k - 4


_INEQUALITY_ROWS = (
    # popular-shift mass over the full difference set (both signs)
    *((f"ineq.corpop_{word}", f"popular-shift sumset mass, sign {sign}", _GE,
       lambda p, side=side: (_slice_sumset_sum(p, side) * p.E(3), p.sigma ** 2 * p.a ** 2,
                             "sum_s |A-+A_s| * E_3 vs sigma^2 |A|^2"))
      for side, (sign, word) in enumerate((("-", "minus"), ("+", "plus")))),
    ("ineq.corpop_mixed", "mixed third moment against popular mass", _GE,
     lambda p: (p.e3_daa * p.E(3) * p.a ** 6, p.E(2) ** 2 * p.sigma ** 4)),
    *((f"ineq.e3_weight_{word}", f"slice-size weighted sum, sign {sign}", _HOLDS,
       lambda p, side=side: _slice_weighted_sum(p, side))
      for side, (sign, word) in enumerate((("-", "minus"), ("+", "plus")))),
    ("ineq.plunnecke_2_0", "iterated sumset growth |2A-0A|", _LE, lambda p: _plunnecke(p, p.S, 2)),
    ("ineq.plunnecke_1_1", "iterated sumset growth |1A-1A|", _LE, lambda p: _plunnecke(p, p.D, 2)),
    ("ineq.plunnecke_2_1", "iterated sumset growth |2A-1A|", _LE,
     lambda p: _plunnecke(p, difference_set(p.S, p.A), 3)),
    ("ineq.connected_energy", "fractional moment under connectedness", _HOLDS, _connected_energy),
    ("ineq.t_ab", "containment-weighted pair mass", _LE, _containment_mass),
    # difference-set moment chains
    *((f"ineq.ekd_chain_minus_k{k}", f"difference-set moment chain k={k}", _HOLDS,
       lambda p, k=k: _chain_minus(p, k)) for k in (1, 2, 3)),
    *((f"ineq.ekd_chain_plus_k{k}", f"sumset moment chain k={k}", _HOLDS,
       lambda p, k=k: _chain(p, p.cs, k, p.a ** (k - 1) * _slice_sumset_sum(p, 1),
                             p.a ** k * max(p.D.card, p.S.card)))
      for k in (1, 2, 3)),
    # fourth-moment vs additive structure of D and S (k = 2)
    ("ineq.lev_minus", "eighth power bound via difference set", _LE,
     lambda p: (p.a ** 8, p.E(4) * t_k(p.D, 2))),
    ("ineq.lev_plus", "eighth power bound via sumset", _LE,
     lambda p: (p.a ** 8, p.E(4) * t_k(p.S, 2))),
    ("ineq.lev_popular", "eighth power bound on the popular half", _LE, _popular_bound),
    ("ineq.lev_pair", "two-set eighth power bound", _LE, _two_set_bound),
    # uniformity-count growth chain
    *((f"ineq.gowers_growth_k{k}", f"uniformity growth k={k}", _GE,
       lambda p, k=k: (p.U(k + 1) ** (k - 1) * p.U(k - 1) ** (2 * k), p.U(k) ** (3 * k - 2),
                       "count_{k+1}^{k-1} count_{k-1}^{2k} >= count_k^{3k-2}"))
      for k in (2, 3, 4)),
    ("ineq.gowers_u3_lower", "order-3 count against energy", _GE,
     lambda p: (p.U(3) * p.a ** 8, p.E(2) ** 4)),
    ("ineq.u3_upper", "order-3 count below third moment", _LE, lambda p: (p.U(3), p.E(3))),
    ("ineq.u3_upper_sq", "squared order-3 count below mixed moments", _LE,
     lambda p: (p.U(3) ** 2, p.E(4) * p.E(2))),
    ("ineq.u3_doubling", "order-3 count under small doubling", _GE,
     lambda p: (p.U(3) * min(p.D.card, p.S.card) ** 4, p.a ** 8, "K = min(|A-A|,|A+A|)/|A|")),
    *((f"ineq.gowers_remark_k{k}", f"uniformity count floor k={k}", _GE,
       lambda p, k=k, x=_remark_exponents(k): (p.U(k) * p.a ** x[1], p.E(2) ** x[0]))
      for k in (3, 4)),
    *((f"ineq.gowers_mon_d{d}", f"normalized monotonicity d={d}", _HOLDS,
       lambda p, d=d: _monotonicity(p, d)) for d in (2, 3, 4)),
    ("ineq.pair_u3_lower", "two-set order-3 count lower bound", _GE,
     lambda p: (int(gowers_pair_u3(p.A, p.B).value) * p.a ** 4 * p.B.card ** 4, p.e_ab ** 4)),
    # spectral-type bounds on random integer functions, then seeded inclusion tuples
    ("ineq.eigen_a", "operator bound on random functions", _HOLDS,
     lambda p: (_dec(p.seeded_trials[0]), _dec(p.E(3)), not p.seeded_trials[0], None,
                f"{EIGEN_TRIALS} seeded trials, E(A,f)^2 <= E_3 |f|^4")),
    ("ineq.eigen_a_regular", "operator bound on the regular part", _HOLDS,
     lambda p: (_dec(p.seeded_trials[1]), _dec(2 * p.E(2)), not p.seeded_trials[1], None,
                f"{EIGEN_TRIALS} seeded trials, E(A,f) |A| <= 2 E |f|^2")),
    ("ineq.katz_koester", "slice-sumset inclusions", _HOLDS,
     lambda p: (str(p.seeded_trials[2]), "True", p.seeded_trials[2], None,
                "both signs, seeded tuples of arity <= 2")),
)

_INEQUALITY = (
    ("ineq.empty", "inequality suite", _INEQUALITY_ROWS, lambda p: _need(p.a, "empty set")),
)


# ---------------------------------------------------------------------------
# ratio report
# ---------------------------------------------------------------------------


def _max_slice(p: Profile, side: int) -> int:
    """max over the nonzero shifts s of |A - A_s| (side 0) or |A + A_s| (side 1)."""
    return max(p.slice_sumsets[s][side] for s in p.nz)


def _slice_scale(p: Profile, gamma: float = 1.0) -> float:
    """sqrt(gamma K_E) |A| with K_E = |A|^3 / E."""
    return math.sqrt(gamma) * math.sqrt(p.a ** 3 / p.E(2)) * p.a


def _restricted_third(p: Profile, corr: np.ndarray):
    best = max(float(p.D.card) ** 12, p.a ** 45 / (p.E(2) ** 9 * p.D.card ** 2))
    return float(_moment(p, corr, 3)) ** 4, best


_RATIO_ROWS = (
    ("ratio.e3_diffset_74", "difference-set third moment vs doubling", _REPORT,
     lambda p: (int(energy_k(p.D, 3).value), (p.D.card / p.a) ** 1.75 * p.a ** 4,
                f"K={p.D.card / p.a:.6f}")),
    _when(lambda p: p.nz, *(
        (f"ratio.max_slice_{word}", f"max slice {kind} cubed", _REPORT,
         lambda p, side=side: (_max_slice(p, side) ** 3, p.a ** 10 / (p.D.card * p.E(2) ** 2),
                               f"hypothesis E_3 >= 2|A|^3: {p.E(3) >= 2 * p.a ** 3}"))
        for side, (word, kind) in enumerate((("minus", "difference-sumset"),
                                             ("plus", "plus-sumset"))))),
    _when(lambda p: p.a > GAMMA_CAP,
          ("ratio.dx", "largest difference-set slice", _REPORT,
           lambda p: (int(p.cd[1:].max(initial=0)), _slice_scale(p),
                      "gamma unmeasured (size cap); reported with gamma=1"))),
    # rows that need gamma, measured up to the witness-search cap
    _when(lambda p: p.a <= GAMMA_CAP,
          _when(lambda p: p.nz,
                ("ratio.max_slice_conn", "max slice sumset squared under connectedness", _REPORT,
                 lambda p: (max(_max_slice(p, 0), _max_slice(p, 1)) ** 2,
                            p.gamma(3) * p.a ** 5 / p.E(2), f"gamma(3,1/2)={p.gamma(3):.6f}"))),
          ("ratio.dx", "largest difference-set slice", _REPORT,
           lambda p: (int(p.cd[1:].max(initial=0)), _slice_scale(p, p.gamma(3)),
                      f"gamma(3,1/2)={p.gamma(3):.6f}, K_E={p.a ** 3 / p.E(2):.4f}")),
          ("ratio.sx", "largest sumset slice", _REPORT,
           lambda p: (int(p.cs[1:].max(initial=0)), _slice_scale(p, p.gamma(3)), "")),
          ("ratio.e3_mixed_conn", "mixed third moment under connectedness", _REPORT,
           lambda p: (p.e3_daa ** 2, p.gamma(2) * p.a ** 5 * p.E(2),
                      f"gamma(2,1/2)={p.gamma(2):.6f}")),
          _when(lambda p: p.a >= 2,
                ("ratio.ekd3_conn_32", "restricted third moment, fractional connectedness", _REPORT,
                 lambda p: (_moment(p, p.cd, 3), p.gamma(1.5) * p.a ** (33 / 4) * float(p.E(1.5))
                            / (p.E(2) ** (9 / 4) * math.log2(p.a)),
                            f"gamma(3/2,1/2)={p.gamma(1.5):.6f}")),
                ("ratio.ekd3_conn_2", "restricted third moment, quadratic connectedness", _REPORT,
                 lambda p: (_moment(p, p.cd, 3),
                            p.gamma(2) * p.a ** (17 / 2) / (p.E(2) ** 1.5 * math.log2(p.a)),
                            f"gamma(2,1/2)={p.gamma(2):.6f}"))),
          ("ratio.e3paa", "popular mixed third moment", _REPORT,
           lambda p: (p.e3_daa, 2 ** -9 * math.sqrt(p.gamma(3)) * p.sigma ** 5 * p.E(2) / p.a ** 9,
                      f"P = A-A, gamma(3,1/2)={p.gamma(3):.6f}"))),
    ("ratio.e3_mixed_minus", "mixed difference-set third moment squared", _REPORT,
     lambda p: (p.e3_daa ** 2, p.a ** 13 / (p.D.card ** 2 * p.E(2)))),
    ("ratio.e3_mixed_plus", "mixed sumset third moment squared", _REPORT,
     lambda p: (int(mixed_energy([p.S, p.A, p.A]).value) ** 2,
                p.a ** 13 / (p.D.card ** 2 * p.E(2)))),
    ("ratio.ekd3_minus", "restricted difference-set third moment to the fourth", _REPORT,
     lambda p: _restricted_third(p, p.cd)),
    ("ratio.ekd3_plus", "restricted sumset third moment to the fourth", _REPORT,
     lambda p: _restricted_third(p, p.cs)),
    # slice-within-slice mass sums (k = 2)
    ("ratio.e4da_minus", "slice-within-slice difference mass", _REPORT,
     lambda p: (p.e4da[0], p.a ** 5, f"upper companion {p.e4da[1]}")),
    ("ratio.e4da_plus", "slice-within-slice sumset mass", _REPORT,
     lambda p: (p.e4da[2], p.a ** 5, f"upper companion {p.e4da[3]}")),
    # self-dual criterion and criticality ratios
    ("ratio.selfdual", "self-dual criterion", _REPORT, lambda p: (p.U(3) ** 2, p.E(4) * p.E(2))),
    ("ratio.critical_e3", "third-moment criticality", _REPORT, lambda p: (p.E(3), p.a * p.E(2))),
    ("ratio.critical_t4", "fourth-sum criticality", _REPORT, lambda p: (p.t4, p.a ** 4 * p.E(2))),
    ("ratio.t4_m_scale", "implied structure scale (fourth-sum)", _REPORT,
     lambda p: (p.a ** 4 * p.E(2), p.t4, "M solving T_4 = |A|^4 E / M")),
    *((f"ratio.gowers_remark_k{k}", f"uniformity count floor k={k}", _REPORT,
       lambda p, k=k, x=_remark_exponents(k): (p.U(k), p.E(2) ** x[0] / float(p.a) ** x[1]))
      for k in (3, 4)),
    # tiny-scale structural witnesses through the exhaustive oracle
    _when(lambda p: p.a <= ORACLE_CAP,
          ("ratio.structural_e3_oracle", "oracle small-doubling witness (third moment)", _REPORT,
           lambda p: (p.oracle[1], p.a * p.E(2) / p.E(3),
                      f"witness size {p.oracle[0].card}, M = |A| E / E_3")),
          ("ratio.structural_t4_oracle", "oracle small-doubling witness (fourth sum)", _REPORT,
           lambda p: (p.oracle[1], p.a ** 4 * p.E(2) / p.t4,
                      f"witness size {p.oracle[0].card}, M = |A|^4 E / T_4"))),
)

_RATIO = (
    _when(lambda p: not p.a,
          ("ratio.empty", "ratio report", _REPORT, lambda p: (0, 0, "empty set"))),
    _when(lambda p: p.a, *_RATIO_ROWS),
)


# ---------------------------------------------------------------------------
# algorithm audits: construction re-audits disjointness, inclusions, size
# floors and count bounds
# ---------------------------------------------------------------------------


def _family(p: Profile, fam):
    return str(fam.count), f">= {fam.provenance['count_bound']:.4f}", True, None, p.name


_ALGORITHMS = (
    ("algo.translates", "greedy translate family", _HOLDS,
     lambda p: _family(p, greedy_disjoint_translates(p.A, p.A))),
    ("algo.slices", "greedy slice family", _HOLDS,
     lambda p: _family(p, greedy_disjoint_slices(p.A, p.D))),
    ("algo.regular_part", "regular part size", _HOLDS,
     lambda p: (str(p.regular.card), f">= {p.a}/2", 2 * p.regular.card >= p.a, None, p.name)),
)

# suite rows in run order; the audits keep their row order, the rest sort by name
_SUITES = {"identity": _IDENTITY, "inequality": _INEQUALITY, "ratio": _RATIO,
           "algorithms": _ALGORITHMS}


def _run(suite: str, p: Profile, seconds: dict | None = None) -> list[CheckResult]:
    out = _evaluate(_SUITES[suite], p, seconds)
    return out if suite == "algorithms" else sorted(out, key=lambda r: r.name)


def run_identity_suite(A: GSet, B: GSet | None = None,
                       config: VerifyConfig | None = None) -> list[CheckResult]:
    """Exact-equality checks; every entry must pass on a correct build."""
    return _run("identity", Profile(A, B, config))


def run_inequality_suite(A: GSet, B: GSet | None = None,
                         config: VerifyConfig | None = None) -> list[CheckResult]:
    """Theorem-backed inequalities; applicable entries must all pass."""
    return _run("inequality", Profile(A, B, config))


def run_ratio_report(A: GSet, config: VerifyConfig | None = None) -> list[CheckResult]:
    """Report-only ratios for bounds with unquantified constants."""
    return _run("ratio", Profile(A, None, config))


# ---------------------------------------------------------------------------
# frozen corpus
# ---------------------------------------------------------------------------


@dataclass
class CorpusItem:
    name: str
    A: GSet
    B: GSet | None = None


CORPUS_SHAPES = (
    ("z101", (101,), 0.16),
    ("z256", (256,), 0.11),
    ("f2_8", (2,) * 8, 0.11),
    ("f2_10", (2,) * 10, 0.030),
)


def frozen_corpus(seeds: int = 100) -> list[CorpusItem]:
    """The deterministic verification corpus: constructor instances plus seeded
    random sets in each group shape."""
    items: list[CorpusItem] = []
    z7 = golden_z7_triple()
    items.append(CorpusItem("golden_z7", z7, GSet.from_indices(z7.group, [0, 3])))
    items.append(CorpusItem("subspace_4_2", subspace(4, 2)))
    items.append(CorpusItem("hplusl_6_2_4", golden_hplusl()))
    items.append(CorpusItem("hplusl_8_3_5", h_plus_lambda(8, 3, 5)))
    items.append(CorpusItem("hplusl_10_4_6", h_plus_lambda(10, 4, 6)))
    items.append(CorpusItem("lambda_only_6_0_4", h_plus_lambda(6, 0, 4)))
    items.append(CorpusItem("ap_101_len8", arithmetic_progression(101, 0, 1, 8)))
    items.append(CorpusItem("ap_12_subgroup", arithmetic_progression(12, 0, 4, 3)))
    items.append(CorpusItem("coset_union_6_222", coset_union(6, [2, 2, 2])))
    items.append(CorpusItem("golden_random_z101", golden_random_z101()))
    for name, factors, density in CORPUS_SHAPES:
        gshape = make_group(list(factors))
        for seed in range(seeds):
            A = random_set(gshape, density, seed)
            if A.card < 3:
                A = GSet.from_indices(gshape, list(range(3)))
            Bitem = None
            if name == "z101":
                Bitem = random_set(gshape, density, seed + 100_000)
                if Bitem.card == 0:
                    Bitem = None
            items.append(CorpusItem(f"{name}_seed{seed}", A, Bitem))
    return items


def run_algorithm_audits(item: CorpusItem) -> list[CheckResult]:
    """Run the greedy algorithms on a corpus instance; construction re-audits
    disjointness, inclusions, size floors, and count bounds."""
    return _run("algorithms", Profile(item.A, item.B, name=item.name))


def random_family_acceptance_instance(seed: int = 7) -> dict:
    """The large seeded instance exercising the probabilistic family bound."""
    g = make_group([1 << 15])
    Ms = [GSet.from_indices(g, [i]) for i in range(10_000)]
    fam = random_disjoint_family(Ms, 1, 1.0, seed=seed)
    return {"count": fam.count, "bound": fam.provenance["count_bound"],
            "attempt": fam.provenance["attempt"]}


def run_corpus(seeds: int = 100, config: VerifyConfig | None = None,
               include_random_family: bool = True) -> dict:
    """Run the identity, inequality, ratio and algorithm suites over the frozen
    corpus, item by item, letting go of each item (and its caches), and summarize."""
    t0 = time.monotonic()
    items = frozen_corpus(seeds)
    failures: list[dict] = []
    counts = {"pass": 0, "fail": 0, "skip": 0, "report": 0}
    per_suite = dict.fromkeys(_SUITES, 0.0)
    per_tag: dict[str, float] = {}
    per_entry: dict[str, float] = {}
    skips: dict[str, int] = {}
    for i, item in enumerate(items):
        items[i] = None  # the item, and its caches, go once its suites have run
        p = Profile(item.A, item.B, config, item.name)
        p.seconds = per_entry
        for suite in _SUITES:
            ts = time.monotonic()
            results = _run(suite, p, per_tag)
            per_suite[suite] += time.monotonic() - ts
            for r in results:
                counts[r.status] += 1
                if r.status == "skip":
                    skips[r.tag] = skips.get(r.tag, 0) + 1
                if r.status == "fail":
                    failures.append({"item": item.name, "suite": suite, **r.to_dict()})
    summary = {
        "items": len(items),
        "counts": counts,
        "failures": failures,
        "seconds": time.monotonic() - t0,
        "per_suite_seconds": per_suite,
        "per_tag_seconds": per_tag,
        "per_entry_seconds": per_entry,
        "skips_by_tag": skips,
    }
    if include_random_family:
        summary["random_family"] = random_family_acceptance_instance()
    return summary


def results_to_json(results: list[CheckResult]) -> str:
    return json.dumps([r.to_dict() for r in results], indent=2)
