"""Energy functionals: higher energies, sumfree counts T_k, restricted and starred
variants, mixed energies of several functions, weighted energies, Wiener norm.

Nonnegative integer exponents give exact integer values through the one exact
reduction of `setfun` (int64 under a proven bound, arbitrary precision beyond);
other real exponents are evaluated in double precision over exact integer
correlation values with a deterministic index-ascending summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .group import GroupSpec, fourier_array
from .setfun import DenseFunc, GSet, _exact_sum, as_func, convolve, correlate, set_correlate


@dataclass(frozen=True)
class EnergyValue:
    """One energy measurement; `exact` is true only for integer exponents."""

    value: object  # int (exact) or float
    k: float
    kind: str
    exact: bool = True
    vacuous: bool = False

    def __float__(self) -> float:
        return float(self.value)

    def as_decimal_string(self) -> str:
        return str(self.value) if self.exact else repr(float(self.value))


def _power_sum(values: np.ndarray, k) -> tuple[object, bool]:
    """sum v^k over the support of an int64 array; exact for integer k >= 0, fsum
    of doubles otherwise."""
    sup = values[np.flatnonzero(values)]
    if float(k) == int(k) and k >= 0:
        return _exact_sum(sup, int(k)), True
    vals = [float(v) ** float(k) for v in sup.tolist()]
    return math.fsum(vals), False


def _check_same_group(*sets) -> GroupSpec:
    g = sets[0].group
    for s in sets[1:]:
        if s.group != g:
            raise ValueError("group mismatch")
    return g


def energy_k(A: GSet, k: float = 2) -> EnergyValue:
    """E_k(A) = sum_x (A o A)(x)^k; E_1(A) = |A|^2 exactly."""
    if k < 1:
        raise ValueError("energy exponent must be >= 1")
    value, exact = _power_sum(set_correlate(A, A), k)
    return EnergyValue(value, float(k), "E", exact)


def energy_pair_k(A: GSet, B: GSet, k: float = 2) -> EnergyValue:
    """E_k(A,B) = sum_x (A o A)(x) (B o B)(x)^(k-1)."""
    if k < 1:
        raise ValueError("energy exponent must be >= 1")
    _check_same_group(A, B)
    ca = set_correlate(A, A)
    cb = set_correlate(B, B)
    if float(k) == int(k):
        return EnergyValue(_exact_sum(cb, int(k) - 1, ca), float(k), "E", True)
    sup = np.flatnonzero((ca > 0) & (cb > 0))
    vals = [float(ca[x]) * float(cb[x]) ** (float(k) - 1.0) for x in sup.tolist()]
    return EnergyValue(math.fsum(vals), float(k), "E", False)


def pair_energy(A: GSet, B: GSet) -> int:
    """E(A,B) = sum_x (A o A)(x)(B o B)(x), exact integer."""
    return int(energy_pair_k(A, B, 2).value)


def mixed_energy(fs: Sequence) -> EnergyValue:
    """E(f_1,...,f_k) = sum_x prod_i (f_i o f_i)(x), exact for integer inputs."""
    if len(fs) < 2:
        raise ValueError("mixed energy needs at least two functions")
    corrs = np.stack([correlate(f, f).values for f in fs])
    _check_same_group(*fs)
    return EnergyValue(_exact_sum(corrs), float(len(fs)), "mixed", True)


def t_energy(As: Sequence[GSet]) -> EnergyValue:
    """T_k(A_1,...,A_k) = sum_x (A_1 * ... * A_k)(x)^2, exact."""
    if len(As) < 2:
        raise ValueError("T energy needs at least two sets")
    _check_same_group(*As)
    conv = As[0]
    for B in As[1:]:
        conv = convolve(conv, B)
    return EnergyValue(_exact_sum(conv.values, 2), float(len(As)), "T", True)


def t_k(A: GSet, k: int) -> int:
    """T_k(A): solutions of a_1+...+a_k = a'_1+...+a'_k, exact integer."""
    if k < 2:
        raise ValueError("t_k requires k >= 2")
    return int(t_energy([A] * k).value)


def t_k_spectrum(A: GSet, k: int) -> float:
    """Transform oracle N^{-1} sum |Ahat|^{2k}; compare to t_k after rounding."""
    spec = fourier_array(A.group, A.mask.astype(np.float64))
    return float(np.sum(np.abs(spec) ** (2 * k))) / A.group.size


def sigma_restricted(A: GSet, P: GSet) -> int:
    """sigma_P(A) = sum_{x in P} (A o A)(x); arbitrary P, missing support contributes 0."""
    _check_same_group(A, P)
    ca = set_correlate(A, A)
    return int(ca[P.members].sum()) if P.card else 0


def restricted_energy(A: GSet, P: GSet, k: float = 2) -> EnergyValue:
    """E^P_k(A) = sum_{s in P} |A_s|^k."""
    _check_same_group(A, P)
    ca = set_correlate(A, A)
    masked = np.zeros_like(ca)
    if P.card:
        masked[P.members] = ca[P.members]
    value, exact = _power_sum(masked, k)
    return EnergyValue(value, float(k), "restricted", exact)


def starred_energy(A: GSet, k: float = 2) -> EnergyValue:
    """E*_k(A) = sum_{s != 0} |A_s|^k (exactly the s=0 term removed)."""
    ca = set_correlate(A, A)
    masked = ca.copy()
    masked[0] = 0
    value, exact = _power_sum(masked, k)
    return EnergyValue(value, float(k), "restricted", exact)


# -- weighted energies -----------------------------------------------------------


PSD_CHECK_LIMIT = 512


@dataclass
class WeightKernel:
    """Symmetric nonnegative kernel q(x,y): either w(x-y) for an even w, or a full matrix."""

    group: GroupSpec
    difference: np.ndarray | None = None
    matrix: np.ndarray | None = None
    psd: bool = False
    name: str = "kernel"

    @classmethod
    def from_difference(cls, group: GroupSpec, w, psd: bool | None = None, name: str = "difference") -> "WeightKernel":
        arr = np.asarray(w)
        if arr.shape != (group.size,):
            raise ValueError("difference kernel length must equal the group size")
        if np.any(arr < 0):
            raise ValueError("kernel values must be nonnegative")
        if not np.array_equal(arr, arr[group.neg_perm]):
            raise ValueError("difference kernel must be even, otherwise q is asymmetric")
        if psd is None:
            # eigenvalues of a difference kernel are its transform values
            eig = np.real(fourier_array(group, arr.astype(np.float64)))
            psd = bool(np.min(eig) >= -1e-9 * max(1.0, float(np.max(np.abs(arr)))))
        return cls(group=group, difference=arr, psd=psd, name=name)

    @classmethod
    def from_matrix(cls, group: GroupSpec, mat, psd: bool | None = None, name: str = "matrix") -> "WeightKernel":
        m = np.asarray(mat, dtype=np.float64)
        if m.shape != (group.size, group.size):
            raise ValueError("kernel matrix must be N x N")
        if np.any(m < 0):
            raise ValueError("kernel values must be nonnegative")
        if not np.allclose(m, m.T, rtol=0, atol=0):
            raise ValueError("kernel matrix must be symmetric")
        if psd is None:
            if group.size <= PSD_CHECK_LIMIT:
                eig = np.linalg.eigvalsh(m)
                psd = bool(eig[0] >= -1e-9 * max(1.0, float(np.max(np.abs(m)))))
            else:
                psd = False
        return cls(group=group, matrix=m, psd=psd, name=name)

    def norm_inf(self) -> float:
        if self.difference is not None:
            return float(np.max(self.difference)) if self.group.size else 0.0
        return float(np.max(self.matrix))

    def row_sums(self, B: GSet) -> np.ndarray:
        """w_B(x) = sum_{y in B} q(x,y) for every x, exact for integer kernels."""
        if self.difference is not None:
            arr = self.difference
            if arr.dtype.kind in "iu":
                # sum_y B(y) w(x-y) = (B * w)(x)
                return convolve(DenseFunc(self.group, B.mask.astype(np.int64)),
                                DenseFunc(self.group, arr.astype(np.int64))).values
            from .setfun import _roll_array

            out = np.zeros(self.group.size, dtype=np.float64)
            for y in B.members.tolist():
                out += _roll_array(self.group, arr.astype(np.float64), y)
            return out
        return self.matrix[:, B.members].sum(axis=1) if B.card else np.zeros(self.group.size)

    def energy(self, A: GSet, B: GSet | None = None) -> object:
        """E_q(A,B) = sum_{x,y} q(x,y) A(x) B(y); exact int for integer kernels."""
        if B is None:
            B = A
        _check_same_group(A, B)
        if self.difference is not None:
            arr = self.difference
            cba = set_correlate(B, A)  # (B o A)(z) = #{(x,y) in A x B : x - y = z}
            if arr.dtype.kind in "iu":
                return _exact_sum(cba, 1, arr)
            return float(np.dot(arr.astype(np.float64), cba.astype(np.float64)))
        sub = self.matrix[np.ix_(A.members, B.members)]
        return float(sub.sum())


def weighted_energy(A: GSet, B: GSet, q: WeightKernel) -> EnergyValue:
    """E_q(A,B); when q is flagged psd the Cauchy-Schwarz bound is asserted."""
    val = q.energy(A, B)
    if q.psd:
        ea = q.energy(A, A)
        eb = q.energy(B, B)
        lhs = val * val if isinstance(val, int) else float(val) ** 2
        rhs = ea * eb if isinstance(ea, int) and isinstance(eb, int) else float(ea) * float(eb)
        if isinstance(lhs, int) and isinstance(rhs, int):
            ok = lhs <= rhs
        else:
            ok = float(lhs) <= float(rhs) * (1 + 1e-12) + 1e-12
        if not ok:
            raise AssertionError("psd kernel violated E_q(A,B)^2 <= E_q(A) E_q(B)")
    exact = isinstance(val, int)
    return EnergyValue(val, 2.0, "weighted", exact)


def gowers_box_kernel(group: GroupSpec, f, d: int) -> WeightKernel:
    """The kernel q(x,y) = sum over (d-1)-tuples h of prod_{0 != w} f(x+w.h) f(y+w.h).

    d=2 reduces to the difference kernel (f o f)(y-x).  Supported for d in {2, 3}.
    """
    func = as_func(f)
    if d == 2:
        w = correlate(func, func).values
        return WeightKernel.from_difference(group, w, psd=True, name="box-d2")
    if d != 3:
        raise ValueError("box kernel implemented for d in {2, 3}")
    n = group.size
    vals = func.values.astype(np.int64)
    mat = np.zeros((n, n), dtype=np.float64)
    idx = np.arange(n, dtype=np.int64)
    for h1 in range(n):
        a1 = vals[group.add_indices(idx, np.full(n, h1, dtype=np.int64))]
        for h2 in range(n):
            # g_h(x) = f(x+h1) f(x+h2) f(x+h1+h2); q = sum_h outer(g_h, g_h)
            a2 = vals[group.add_indices(idx, np.full(n, h2, dtype=np.int64))]
            a12 = vals[group.add_indices(idx, np.full(n, group.add(h1, h2), dtype=np.int64))]
            gh = (a1 * a2 * a12).astype(np.float64)
            mat += np.outer(gh, gh)
    return WeightKernel.from_matrix(group, mat, psd=True, name="box-d3")


def wiener_norm(A: GSet) -> float:
    """N^{-1} sum_xi |Ahat(xi)|; at least |A|^2/N because of the trivial character."""
    spec = fourier_array(A.group, A.mask.astype(np.float64))
    return float(np.sum(np.abs(spec))) / A.group.size


# -- transform-side identities (float oracle values) -------------------------------


def pair_energy_spectrum(A: GSet, B: GSet) -> float:
    """N^{-1} sum |Ahat|^2 |Bhat|^2; equals E(A,B) after rounding."""
    _check_same_group(A, B)
    fa = np.abs(fourier_array(A.group, A.mask.astype(np.float64))) ** 2
    fb = np.abs(fourier_array(B.group, B.mask.astype(np.float64))) ** 2
    return float(np.dot(fa, fb)) / A.group.size


def t2_of_dual_square(A: GSet) -> float:
    """T_2 of the function |Ahat|^2 on the dual group (float path)."""
    g = A.group
    h = np.abs(fourier_array(g, A.mask.astype(np.float64))) ** 2
    conv = np.real(np.fft.ifftn(np.fft.fftn(h.reshape(g.factors)) ** 2)).reshape(g.size)
    return float(np.sum(conv ** 2))


def dual_correlation_energy(A: GSet, k: int = 2) -> float:
    """sum_x (conj(F) o F)^k (x) (F o conj(F))^k (x) for F = Ahat (float path)."""
    from .group import complex_correlate

    g = A.group
    F = fourier_array(g, A.mask.astype(np.float64))
    c1 = complex_correlate(g, np.conj(F), F)
    c2 = complex_correlate(g, F, np.conj(F))
    return float(np.real(np.sum((c1 ** k) * (c2 ** k))))
