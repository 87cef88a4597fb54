"""Verification harness: exact identity suite, theorem-backed inequality suite,
and report-only ratio records for bounds whose constants are not quantified.

Identity entries compare two independently computed values and must agree
exactly (float-oracle entries compare after rounding at a stated tolerance).
Inequality entries are theorems: any applicable entry that fails indicates a
bug.  Entries whose hypotheses do not hold on an instance are skipped with the
reason recorded.  Ratio entries never fail a run.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .constructors import (arithmetic_progression, coset_union, golden_hplusl,
                           golden_random_z101, golden_z7_triple, h_plus_lambda,
                           random_set, subspace)
from .energy import (energy_k, energy_pair_k, mixed_energy, pair_energy,
                     pair_energy_spectrum, sigma_restricted, t2_of_dual_square, t_k)
from .gowers import gowers_pair_u3, gowers_u
from .group import complex_correlate, fourier_array, make_group
from .setfun import (BudgetError, DenseFunc, GSet, _exact_sum, convolve, correlate,
                     count_nonempty_slice_tuples, delta_pairs_direct, delta_sumset_size,
                     difference_set, katz_koester_check, set_correlate, sumset,
                     tuple_sumset_sum)
from .structure import (ORACLE_CAP, connectedness_gamma, greedy_disjoint_slices,
                        greedy_disjoint_translates, random_disjoint_family,
                        regular_part, small_doubling_subset_oracle)

ORACLE_ROUND_TOL = 1e-6
FLOAT_REL_TOL = 1e-9


@dataclass
class CheckResult:
    """One verification record; lhs/rhs are decimal strings (exact when integer)."""

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
NODE_BUDGET = 3_000_000
GAMMA_CAP = 18
DK_PAIR_BUDGET = 20_000_000
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


def _exact(name: str, tag: str, lhs: int, rhs: int, note: str = "") -> CheckResult:
    status = "pass" if lhs == rhs else "fail"
    return CheckResult(name, tag, _dec(lhs), _dec(rhs), status, _ratio_big(lhs, rhs), note)


def _ge(name: str, tag: str, lhs: int, rhs: int, note: str = "") -> CheckResult:
    status = "pass" if lhs >= rhs else "fail"
    return CheckResult(name, tag, _dec(lhs), _dec(rhs), status, _ratio_big(lhs, rhs), note)


def _le(name: str, tag: str, lhs: int, rhs: int, note: str = "") -> CheckResult:
    status = "pass" if lhs <= rhs else "fail"
    return CheckResult(name, tag, _dec(lhs), _dec(rhs), status, _ratio_big(lhs, rhs), note)


def _skip(name: str, tag: str, reason: str) -> CheckResult:
    return CheckResult(name, tag, "", "", "skip", None, reason)


def _report(name: str, tag: str, lhs, rhs, note: str = "") -> CheckResult:
    return CheckResult(name, tag, _dec(lhs), _dec(rhs), "report", _ratio(lhs, rhs), note)


# ---------------------------------------------------------------------------
# identity suite: every entry compares two independently computed values
# ---------------------------------------------------------------------------


def run_identity_suite(A: GSet, B: GSet | None = None,
                       config: VerifyConfig | None = None) -> list[CheckResult]:
    """Exact-equality checks; every entry must pass on a correct build."""
    Beff = B if B is not None else A
    out: list[CheckResult] = []
    g = A.group
    N = g.size

    ca = set_correlate(A, A)
    supp = np.flatnonzero(ca).tolist()

    # (i) slice-energy sums against the third and fourth moments
    e3 = int(energy_k(A, 3).value)
    e4 = int(energy_k(A, 4).value)
    sum_e_a_as = 0
    f_acc = np.zeros(N, dtype=np.int64)
    for s in supp:
        cs = set_correlate(A.slice1(s), A.slice1(s))
        sum_e_a_as += int(np.dot(ca, cs))
        f_acc += cs
    out.append(_exact("third moment equals sum of slice pair energies",
                      "identity.e3_slice_sum", sum_e_a_as, e3))
    sum_pairwise = _exact_sum(f_acc, 2)
    out.append(_exact("fourth moment equals double slice-energy sum",
                      "identity.e4_slice_pair_sum", sum_pairwise, e4))

    # (ii) tuple-count dual computations for both signs: the direct distinct-pair
    # sweep against the per-shift slice-sumset sum
    try:
        for sign, tagged in (("-", "identity.delta_minus_paths"),
                             ("+", "identity.delta_plus_paths")):
            direct = delta_pairs_direct(A, sign)
            via_sum = tuple_sumset_sum(A, 1, sign, budget=NODE_BUDGET)
            out.append(_exact(f"pair tuple count, sign {sign}: direct vs shift sum",
                              tagged, direct, via_sum))
    except BudgetError as err:
        out.append(_skip("pair tuple count", "identity.delta_paths", str(err)))

    # (iii) transform oracle for the pair energy
    e_ab = pair_energy(A, Beff)
    e_ab_f = pair_energy_spectrum(A, Beff)
    resid = abs(e_ab_f - e_ab)
    out.append(CheckResult("pair energy: exact vs transform after rounding",
                           "identity.pair_energy_spectrum", _dec(e_ab), repr(e_ab_f),
                           "pass" if resid < max(ORACLE_ROUND_TOL, FLOAT_REL_TOL * e_ab) else "fail",
                           _ratio(e_ab_f, e_ab), f"residual={resid:.3e}"))

    # (iv) low-order uniformity counts
    out.append(_exact("order-1 uniformity count equals |A|^2", "identity.u1_card_sq",
                      gowers_u(A, 1).count, A.card ** 2))
    out.append(_exact("order-2 uniformity count equals the energy", "identity.u2_energy",
                      gowers_u(A, 2).count, int(energy_k(A, 2).value)))

    # (v) dual identity: T_2 of the squared spectrum vs N^3 E_4
    lhs_f = t2_of_dual_square(A)
    rhs_i = N ** 3 * e4
    rel = abs(lhs_f - rhs_i) / max(1.0, float(rhs_i))
    out.append(CheckResult("dual fourth-moment identity (transform path)",
                           "identity.t2_dual_spectrum", repr(lhs_f), _dec(rhs_i),
                           "pass" if rel < FLOAT_REL_TOL else "fail",
                           _ratio(lhs_f, rhs_i), f"rel={rel:.3e}"))

    # (vi) indicator characterization on the dual side
    F = fourier_array(g, A.mask.astype(np.float64))
    rhs_arr = complex_correlate(g, np.conj(F), F) / N
    err = float(np.max(np.abs(F - rhs_arr)))
    tol = FLOAT_REL_TOL * max(1.0, float(A.card))
    out.append(CheckResult("indicator spectrum self-consistency", "identity.char_char",
                           f"max|delta|={err:.3e}", f"tol={tol:.3e}",
                           "pass" if err <= tol else "fail", None, ""))

    # (vii) pair third moment as a two-shift tuple sum
    e3_ab = int(energy_pair_k(A, Beff, 3).value)
    tuple_total = 0
    cab = set_correlate(A, Beff)
    for x1 in np.flatnonzero(cab).tolist():
        W = A.intersect(Beff.shift_minus(x1))
        tuple_total += pair_energy(W, Beff)
    out.append(_exact("pair third moment equals two-shift slice sum",
                      "identity.pair_e3_tuple_sum", tuple_total, e3_ab))

    out.sort(key=lambda r: r.name)
    return out


# ---------------------------------------------------------------------------
# inequality suite
# ---------------------------------------------------------------------------


def _popular_half(g, corr: np.ndarray) -> GSet:
    """Support points whose correlation value reaches the median nonzero value."""
    sup = np.flatnonzero(corr)
    if not sup.size:
        return GSet.empty(g)
    vals = corr[sup]
    med = float(np.median(vals))
    keep = sup[vals >= med]
    mask = np.zeros(g.size, dtype=bool)
    mask[keep] = True
    return GSet(g, mask)


def _seeded_rng(seed: int, A: GSet) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, zlib.crc32(A.key())]))


def run_inequality_suite(A: GSet, B: GSet | None = None,
                         config: VerifyConfig | None = None) -> list[CheckResult]:
    """Theorem-backed inequalities; applicable entries must all pass."""
    cfg = config or VerifyConfig()
    out: list[CheckResult] = []
    g = A.group
    a = A.card
    if a == 0:
        return [_skip("inequality suite", "ineq.empty", "empty set")]
    Beff = B if B is not None else A

    ca = set_correlate(A, A)
    D = difference_set(A, A)
    S = sumset(A, A)
    e2 = int(energy_k(A, 2).value)
    e3 = int(energy_k(A, 3).value)
    e4 = int(energy_k(A, 4).value)
    sigma_full = int(sigma_restricted(A, D))

    # popular-shift mass over the full difference set (both signs)
    for sign, tag in (("-", "ineq.corpop_minus"), ("+", "ineq.corpop_plus")):
        total = tuple_sumset_sum(A, 1, sign)
        out.append(_ge(f"popular-shift sumset mass, sign {sign}", tag,
                       total * e3, sigma_full ** 2 * a ** 2,
                       "sum_s |A-+A_s| * E_3 vs sigma^2 |A|^2"))

    # mixed third-moment lower bound with the full difference set
    e3_daa = int(mixed_energy([D, A, A]).value)
    out.append(_ge("mixed third moment against popular mass", "ineq.corpop_mixed",
                   e3_daa * e3 * a ** 6, e2 ** 2 * sigma_full ** 4))

    # weighted slice-size sums (both signs)
    for sign, tag in (("-", "ineq.e3_weight_minus"), ("+", "ineq.e3_weight_plus")):
        acc = Fraction(0)
        for s in np.flatnonzero(ca).tolist():
            As = A.slice1(s)
            denom = (difference_set(A, As) if sign == "-" else sumset(A, As)).card
            acc += Fraction(int(ca[s]) ** 2, denom)
        ok = acc <= Fraction(e3, a * a)
        out.append(CheckResult(f"slice-size weighted sum, sign {sign}", tag,
                               repr(float(acc)), repr(e3 / a ** 2),
                               "pass" if ok else "fail", _ratio(float(acc), e3 / a ** 2),
                               "exact rational comparison"))

    # iterated sumset growth from the doubling constant
    for (n, m), tag in (((2, 0), "ineq.plunnecke_2_0"), ((1, 1), "ineq.plunnecke_1_1"),
                        ((2, 1), "ineq.plunnecke_2_1")):
        T = A
        for _ in range(n - 1):
            T = sumset(T, A)
        for _ in range(m):
            T = difference_set(T, A)
        out.append(_le(f"iterated sumset growth |{n}A-{m}A|", tag,
                       T.card * a ** (n + m - 1), S.card ** (n + m),
                       "|nA-mA| |A|^{n+m-1} <= |A+A|^{n+m}"))

    # connectedness-driven fractional-moment lower bound
    if a <= GAMMA_CAP:
        gamma, _w = connectedness_gamma(A, 2, 0.5)
        e32 = float(energy_k(A, 1.5).value)
        rhs_f = 2.0 ** -5 * gamma * a ** 0.25 * e2 ** 0.75
        out.append(CheckResult("fractional moment under connectedness",
                               "ineq.connected_energy", repr(e32), repr(rhs_f),
                               "pass" if e32 >= rhs_f * (1 - 1e-12) else "fail",
                               _ratio(e32, rhs_f), f"gamma={gamma:.6f} at beta=1/2"))
    else:
        out.append(_skip("fractional moment under connectedness", "ineq.connected_energy",
                         f"|A|={a} over the witness-search cap {GAMMA_CAP}"))

    # weighted mass through a superset of A+B
    SAB = sumset(A, Beff)
    lhs_i = Beff.card ** 2 * e2 ** 2
    e3_ba = int(energy_pair_k(Beff, A, 3).value)
    css = set_correlate(SAB, SAB)
    quad = _exact_sum(ca, 2, css)
    out.append(_le("containment-weighted pair mass", "ineq.t_ab", lhs_i, e3_ba * quad,
                   "psi = (A o A), superset = A+B"))

    # difference-set moment chains
    cd = set_correlate(D, D)
    cs_arr = set_correlate(S, S)
    plus_pairs = delta_sumset_size(A, 2, "+", budget=NODE_BUDGET)
    for k in (1, 2, 3):
        edk = _exact_sum(cd[D.members], k)
        name = f"difference-set moment chain k={k}"
        try:
            mid = count_nonempty_slice_tuples(A, k + 1, budget=NODE_BUDGET)
            ok = edk >= mid >= D.card * a ** k
            out.append(CheckResult(name, f"ineq.ekd_chain_minus_k{k}", _dec(edk),
                                   f"{mid} >= {D.card * a ** k}",
                                   "pass" if ok else "fail",
                                   _ratio_big(edk, D.card * a ** k),
                                   f"middle tuple count {mid}"))
        except BudgetError as err:
            out.append(_skip(name, f"ineq.ekd_chain_minus_k{k}", str(err)))
        eds = _exact_sum(cs_arr[D.members], k)
        rhs_chain = a ** (k - 1) * plus_pairs
        ok2 = eds >= rhs_chain >= a ** k * max(D.card, S.card)
        out.append(CheckResult(f"sumset moment chain k={k}", f"ineq.ekd_chain_plus_k{k}",
                               _dec(eds), f"{rhs_chain} >= {a ** k * max(D.card, S.card)}",
                               "pass" if ok2 else "fail",
                               _ratio_big(eds, a ** k * max(D.card, S.card)), ""))

    # fourth-moment vs additive structure of D and S (k = 2)
    out.append(_le("eighth power bound via difference set", "ineq.lev_minus",
                   a ** 8, e4 * t_k(D, 2)))
    out.append(_le("eighth power bound via sumset", "ineq.lev_plus",
                   a ** 8, e4 * t_k(S, 2)))

    # popular-half variant
    P = _popular_half(g, ca)
    sigma_p = int(sigma_restricted(A, P))
    t2p = t_k(P, 2) if P.card >= 2 else (1 if P.card else 0)
    out.append(_le("eighth power bound on the popular half", "ineq.lev_popular",
                   sigma_p ** 8, e4 * t2p * a ** 8, f"|P|={P.card}"))

    # two-set variant (k = 2)
    cba = set_correlate(Beff, A)
    Pab = _popular_half(g, cba)
    num = int(cba[Pab.members].sum()) if Pab.card else 0
    e4_mixed = int(mixed_energy([A, A, Beff, Beff]).value)
    e_p = int(energy_k(Pab, 2).value) if Pab.card else 0
    out.append(_le("two-set eighth power bound", "ineq.lev_pair",
                   num ** 8, e4_mixed * e_p * a ** 4 * Beff.card ** 4,
                   f"popular |P|={Pab.card} inside A-B"))

    # uniformity-count growth chain
    u = {d: gowers_u(A, d).count for d in (1, 2, 3, 4, 5)}
    for k in (2, 3, 4):
        out.append(_ge(f"uniformity growth k={k}", f"ineq.gowers_growth_k{k}",
                       u[k + 1] ** (k - 1) * u[k - 1] ** (2 * k), u[k] ** (3 * k - 2),
                       "count_{k+1}^{k-1} count_{k-1}^{2k} >= count_k^{3k-2}"))
    out.append(_ge("order-3 count against energy", "ineq.gowers_u3_lower",
                   u[3] * a ** 8, e2 ** 4))
    out.append(_le("order-3 count below third moment", "ineq.u3_upper", u[3], e3))
    out.append(_le("squared order-3 count below mixed moments", "ineq.u3_upper_sq",
                   u[3] ** 2, e4 * e2))
    kdbl = min(D.card, S.card)
    out.append(_ge("order-3 count under small doubling", "ineq.u3_doubling",
                   u[3] * kdbl ** 4, a ** 8, "K = min(|A-A|,|A+A|)/|A|"))
    for k in (3, 4):
        exp_e = (1 << k) - k - 1
        exp_a = 3 * (1 << k) - 4 * k - 4
        out.append(_ge(f"uniformity count floor k={k}", f"ineq.gowers_remark_k{k}",
                       u[k] * a ** exp_a, e2 ** exp_e))

    # normalized monotonicity
    for d in (2, 3, 4):
        lo = (u[d - 1] / g.size ** d) ** (1.0 / (1 << (d - 1)))
        hi = (u[d] / g.size ** (d + 1)) ** (1.0 / (1 << d))
        out.append(CheckResult(f"normalized monotonicity d={d}", f"ineq.gowers_mon_d{d}",
                               repr(lo), repr(hi),
                               "pass" if lo <= hi * (1 + 1e-12) + 1e-12 else "fail",
                               _ratio(lo, hi), ""))

    # two-set order-3 lower bound
    pu3 = gowers_pair_u3(A, Beff)
    e_ab = pair_energy(A, Beff)
    out.append(_ge("two-set order-3 count lower bound", "ineq.pair_u3_lower",
                   int(pu3.value) * a ** 4 * Beff.card ** 4, e_ab ** 4))

    # spectral-type bounds on random integer functions
    rng = _seeded_rng(cfg.seed, A)
    Ap = regular_part(A)
    ok_a = ok_ap = True
    worst_a = worst_ap = 0
    for _ in range(EIGEN_TRIALS):
        vals = rng.integers(-3, 4, size=a)
        vals[vals == 0] = 1
        f = np.zeros(g.size, dtype=np.int64)
        f[A.members] = vals
        corr_f = correlate(DenseFunc(g, f), DenseFunc(g, f)).values
        e_af = int(np.dot(ca, corr_f))
        norm2 = int(np.dot(f, f))
        if e_af > 0 and e_af ** 2 > e3 * norm2 ** 2:
            ok_a, worst_a = False, e_af
        vals_p = rng.integers(-3, 4, size=Ap.card)
        vals_p[vals_p == 0] = 1
        fp = np.zeros(g.size, dtype=np.int64)
        fp[Ap.members] = vals_p
        corr_fp = correlate(DenseFunc(g, fp), DenseFunc(g, fp)).values
        e_afp = int(np.dot(ca, corr_fp))
        norm2p = int(np.dot(fp, fp))
        if e_afp * a > 2 * e2 * norm2p:
            ok_ap, worst_ap = False, e_afp
    out.append(CheckResult("operator bound on random functions", "ineq.eigen_a",
                           _dec(worst_a), _dec(e3), "pass" if ok_a else "fail", None,
                           f"{EIGEN_TRIALS} seeded trials, E(A,f)^2 <= E_3 |f|^4"))
    out.append(CheckResult("operator bound on the regular part", "ineq.eigen_a_regular",
                           _dec(worst_ap), _dec(2 * e2), "pass" if ok_ap else "fail", None,
                           f"{EIGEN_TRIALS} seeded trials, E(A,f) |A| <= 2 E |f|^2"))

    # inclusion checks on seeded tuples
    kk_ok = katz_koester_check(A, [])
    for _ in range(4):
        arity = int(rng.integers(1, 3))
        shifts = [int(s) for s in rng.choice(D.members, size=arity)]
        kk_ok = kk_ok and katz_koester_check(A, shifts)
    out.append(CheckResult("slice-sumset inclusions", "ineq.katz_koester",
                           str(kk_ok), "True", "pass" if kk_ok else "fail", None,
                           "both signs, seeded tuples of arity <= 2"))

    out.sort(key=lambda r: r.name)
    return out


# ---------------------------------------------------------------------------
# ratio report
# ---------------------------------------------------------------------------


def run_ratio_report(A: GSet, config: VerifyConfig | None = None) -> list[CheckResult]:
    """Report-only ratios for bounds with unquantified constants."""
    out: list[CheckResult] = []
    a = A.card
    if a == 0:
        return [_report("ratio report", "ratio.empty", 0, 0, "empty set")]

    ca = set_correlate(A, A)
    D = difference_set(A, A)
    S = sumset(A, A)
    e2 = int(energy_k(A, 2).value)
    e3 = int(energy_k(A, 3).value)
    e4 = int(energy_k(A, 4).value)
    e3_d = int(energy_k(D, 3).value)
    K = D.card / a
    Ke = a ** 3 / e2

    out.append(_report("difference-set third moment vs doubling", "ratio.e3_diffset_74",
                       e3_d, K ** 1.75 * a ** 4, f"K={K:.6f}"))

    nz = [s for s in np.flatnonzero(ca).tolist() if s != 0]
    gamma2 = gamma3 = gamma32 = None
    if a <= GAMMA_CAP:
        gamma2, _ = connectedness_gamma(A, 2, 0.5)
        gamma3, _ = connectedness_gamma(A, 3, 0.5)
        gamma32, _ = connectedness_gamma(A, 1.5, 0.5)

    if nz:
        omega_m = max(difference_set(A, A.slice1(s)).card for s in nz)
        omega_p = max(sumset(A, A.slice1(s)).card for s in nz)
        hyp = e3 >= 2 * a ** 3
        out.append(_report("max slice difference-sumset cubed", "ratio.max_slice_minus",
                           omega_m ** 3, a ** 10 / (D.card * e2 ** 2),
                           f"hypothesis E_3 >= 2|A|^3: {hyp}"))
        out.append(_report("max slice plus-sumset cubed", "ratio.max_slice_plus",
                           omega_p ** 3, a ** 10 / (D.card * e2 ** 2),
                           f"hypothesis E_3 >= 2|A|^3: {hyp}"))
        if gamma3 is not None:
            out.append(_report("max slice sumset squared under connectedness",
                               "ratio.max_slice_conn", max(omega_m, omega_p) ** 2,
                               gamma3 * a ** 5 / e2, f"gamma(3,1/2)={gamma3:.6f}"))

    cd = set_correlate(D, D)
    cs_arr = set_correlate(S, S)
    nzd = [s for s in np.flatnonzero(cd).tolist() if s != 0]
    max_dx = max((int(cd[s]) for s in nzd), default=0)
    nzs = [s for s in np.flatnonzero(cs_arr).tolist() if s != 0]
    max_sx = max((int(cs_arr[s]) for s in nzs), default=0)
    if gamma3 is not None:
        denom = math.sqrt(gamma3) * math.sqrt(Ke) * a
        out.append(_report("largest difference-set slice", "ratio.dx", max_dx, denom,
                           f"gamma(3,1/2)={gamma3:.6f}, K_E={Ke:.4f}"))
        out.append(_report("largest sumset slice", "ratio.sx", max_sx, denom, ""))
    else:
        out.append(_report("largest difference-set slice", "ratio.dx", max_dx,
                           math.sqrt(Ke) * a,
                           "gamma unmeasured (size cap); reported with gamma=1"))

    e3_daa = int(mixed_energy([D, A, A]).value)
    e3_saa = int(mixed_energy([S, A, A]).value)
    out.append(_report("mixed difference-set third moment squared",
                       "ratio.e3_mixed_minus", e3_daa ** 2, a ** 13 / (D.card ** 2 * e2)))
    out.append(_report("mixed sumset third moment squared",
                       "ratio.e3_mixed_plus", e3_saa ** 2, a ** 13 / (D.card ** 2 * e2)))
    if gamma2 is not None:
        out.append(_report("mixed third moment under connectedness", "ratio.e3_mixed_conn",
                           e3_daa ** 2, gamma2 * a ** 5 * e2, f"gamma(2,1/2)={gamma2:.6f}"))

    edd3 = _exact_sum(cd[D.members], 3)
    eds3 = _exact_sum(cs_arr[D.members], 3)
    best = max(float(D.card) ** 12, a ** 45 / (e2 ** 9 * D.card ** 2))
    out.append(_report("restricted difference-set third moment to the fourth",
                       "ratio.ekd3_minus", float(edd3) ** 4, best))
    out.append(_report("restricted sumset third moment to the fourth",
                       "ratio.ekd3_plus", float(eds3) ** 4, best))
    if gamma2 is not None and a >= 2:
        e32 = float(energy_k(A, 1.5).value)
        la = math.log2(max(2, a))
        out.append(_report("restricted third moment, fractional connectedness",
                           "ratio.ekd3_conn_32", edd3,
                           gamma32 * a ** (33 / 4) * e32 / (e2 ** (9 / 4) * la),
                           f"gamma(3/2,1/2)={gamma32:.6f}"))
        out.append(_report("restricted third moment, quadratic connectedness",
                           "ratio.ekd3_conn_2", edd3,
                           gamma2 * a ** (17 / 2) / (e2 ** 1.5 * la),
                           f"gamma(2,1/2)={gamma2:.6f}"))

    # slice-within-slice mass sums (k = 2), guarded by a pair budget
    nz0 = [x for x in np.flatnonzero(ca).tolist() if x != 0]
    est = len(nz0) * D.card * D.card
    if est <= DK_PAIR_BUDGET:
        d_sum = s_sum = bound_d = bound_s = 0
        for x in nz0:
            w = int(ca[x]) ** 2
            Dx = D.slice1(x)
            corr_ddx = set_correlate(D, Dx)
            d_sum += w * int(corr_ddx[Dx.members].sum())
            bound_d += w * int(cd[x]) ** 2
            Sx = S.intersect(S.shift_minus(x))
            conv_sd = convolve(Sx.indicator(), D.indicator()).values
            s_sum += w * int(conv_sd[Sx.members].sum())
            bound_s += w * int(cs_arr[x]) ** 2
        out.append(_report("slice-within-slice difference mass", "ratio.e4da_minus",
                           d_sum, a ** 5, f"upper companion {bound_d}"))
        out.append(_report("slice-within-slice sumset mass", "ratio.e4da_plus",
                           s_sum, a ** 5, f"upper companion {bound_s}"))
    else:
        out.append(_skip("slice-within-slice mass", "ratio.e4da",
                         f"pair estimate {est} over budget"))

    # self-dual criterion and criticality ratios
    u3 = gowers_u(A, 3).count
    out.append(_report("self-dual criterion", "ratio.selfdual", u3 ** 2, e4 * e2))
    out.append(_report("third-moment criticality", "ratio.critical_e3", e3, a * e2))
    t4 = t_k(A, 4)
    out.append(_report("fourth-sum criticality", "ratio.critical_t4", t4, a ** 4 * e2))
    out.append(_report("implied structure scale (fourth-sum)", "ratio.t4_m_scale",
                       a ** 4 * e2, t4, "M solving T_4 = |A|^4 E / M"))

    sigma_p = int(sigma_restricted(A, D))
    if gamma3 is not None:
        out.append(_report("popular mixed third moment", "ratio.e3paa", e3_daa,
                           2 ** -9 * math.sqrt(gamma3) * sigma_p ** 5 * e2 / a ** 9,
                           f"P = A-A, gamma(3,1/2)={gamma3:.6f}"))

    u4 = gowers_u(A, 4).count
    for k, uk in ((3, u3), (4, u4)):
        exp_e = (1 << k) - k - 1
        exp_a = 3 * (1 << k) - 4 * k - 4
        out.append(_report(f"uniformity count floor k={k}", f"ratio.gowers_remark_k{k}",
                           uk, e2 ** exp_e / float(a) ** exp_a))

    # tiny-scale structural witnesses through the exhaustive oracle
    if a <= ORACLE_CAP:
        w, dbl = small_doubling_subset_oracle(A, 0.5)
        m3 = a * e2 / e3
        out.append(_report("oracle small-doubling witness (third moment)",
                           "ratio.structural_e3_oracle", dbl, m3,
                           f"witness size {w.card}, M = |A| E / E_3"))
        m4 = a ** 4 * e2 / t4
        out.append(_report("oracle small-doubling witness (fourth sum)",
                           "ratio.structural_t4_oracle", dbl, m4,
                           f"witness size {w.card}, M = |A|^4 E / T_4"))

    out.sort(key=lambda r: r.name)
    return out


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
    out: list[CheckResult] = []
    A = item.A
    try:
        fam = greedy_disjoint_translates(A, A)
        out.append(CheckResult("greedy translate family", "algo.translates",
                               str(fam.count), f">= {fam.provenance['count_bound']:.4f}",
                               "pass", None, item.name))
        fam2 = greedy_disjoint_slices(A, difference_set(A, A))
        out.append(CheckResult("greedy slice family", "algo.slices",
                               str(fam2.count), f">= {fam2.provenance['count_bound']:.4f}",
                               "pass", None, item.name))
        rp = regular_part(A)
        ok = 2 * rp.card >= A.card
        out.append(CheckResult("regular part size", "algo.regular_part",
                               str(rp.card), f">= {A.card}/2",
                               "pass" if ok else "fail", None, item.name))
    except AssertionError as err:
        out.append(CheckResult("algorithm audit", "algo.audit_failure", "", "",
                               "fail", None, f"{item.name}: {err}"))
    return out


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
    corpus and summarize."""
    cfg = config or VerifyConfig()
    t0 = time.monotonic()
    items = frozen_corpus(seeds)
    failures: list[dict] = []
    counts = {"pass": 0, "fail": 0, "skip": 0, "report": 0}
    per_suite: dict[str, float] = {}
    for suite in ("identity", "inequality", "ratio", "algorithms"):
        ts = time.monotonic()
        for item in items:
            if suite == "identity":
                results = run_identity_suite(item.A, item.B, cfg)
            elif suite == "inequality":
                results = run_inequality_suite(item.A, item.B, cfg)
            elif suite == "ratio":
                results = run_ratio_report(item.A, cfg)
            else:
                results = run_algorithm_audits(item)
            for r in results:
                counts[r.status] += 1
                if r.status == "fail":
                    failures.append({"item": item.name, "suite": suite, **r.to_dict()})
        per_suite[suite] = time.monotonic() - ts
    summary = {
        "items": len(items),
        "counts": counts,
        "failures": failures,
        "seconds": time.monotonic() - t0,
        "per_suite_seconds": per_suite,
    }
    if include_random_family:
        summary["random_family"] = random_family_acceptance_instance()
    return summary


def results_to_json(results: list[CheckResult]) -> str:
    return json.dumps([r.to_dict() for r in results], indent=2)
