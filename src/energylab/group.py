"""Finite abelian groups as products of cyclic factors, plus the double-precision
transform used as a cross-checking oracle.

Elements are integers in [0, N) under a mixed-radix encoding: for factors
(n_1, ..., n_r) the index of the coordinate vector (c_1, ..., c_r) is
sum(c_i * prod(n_{i+1..r})).  All bulk computation elsewhere is exact integer
arithmetic; the transform (`fourier_array`, `inverse_fourier_array` and
`complex_correlate`, on plain arrays) exists so those exact values can be
re-derived a second, independent way and compared after rounding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

DEFAULT_MAX_GROUP_SIZE = 1 << 20
MAX_SIZE_ENV = "ENERGY_LAB_MAX_N"


def max_group_size() -> int:
    """Group-size cap; overridable through the ENERGY_LAB_MAX_N environment variable."""
    raw = os.environ.get(MAX_SIZE_ENV)
    if raw is None:
        return DEFAULT_MAX_GROUP_SIZE
    return int(raw)


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group: an ordered product of cyclic factors, each >= 2."""

    factors: tuple[int, ...]
    size: int

    def __post_init__(self) -> None:
        prod = 1
        for n in self.factors:
            prod *= n
        if prod != self.size:
            raise ValueError("size does not match the product of the factors")

    # -- index encoding ------------------------------------------------------

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.ones(len(self.factors), dtype=np.int64)
        for i in range(len(self.factors) - 2, -1, -1):
            w[i] = w[i + 1] * self.factors[i + 1]
        return w

    @cached_property
    def _factor_arr(self) -> np.ndarray:
        return np.asarray(self.factors, dtype=np.int64)

    @cached_property
    def is_boolean(self) -> bool:
        return all(n == 2 for n in self.factors)

    @cached_property
    def is_cyclic(self) -> bool:
        return len(self.factors) == 1

    def decode(self, idx):
        """Index -> coordinate vector(s).  Scalar in, tuple out; array of shape s in,
        array of shape s + (r,) out."""
        scalar = np.isscalar(idx) or isinstance(idx, (int, np.integer))
        a = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        coords = (a[..., None] // self.weights) % self._factor_arr
        if scalar:
            return tuple(int(c) for c in coords[0])
        return coords

    def encode(self, coords) -> np.ndarray | int:
        c = np.asarray(coords, dtype=np.int64)
        if c.ndim == 1:
            return int(c @ self.weights)
        return c @ self.weights

    def check_index(self, x: int) -> int:
        x = int(x)
        if not 0 <= x < self.size:
            raise ValueError(f"element index {x} out of range [0, {self.size})")
        return x

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        self.check_index(x)
        self.check_index(y)
        return int(self.add_indices(np.asarray([x]), np.asarray([y]))[0])

    def sub(self, x: int, y: int) -> int:
        self.check_index(x)
        self.check_index(y)
        return int(self.sub_indices(np.asarray([x]), np.asarray([y]))[0])

    def neg(self, x: int) -> int:
        self.check_index(x)
        return int(self.neg_perm[x])

    @property
    def zero(self) -> int:
        return 0

    def add_indices(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.is_boolean:
            return np.bitwise_xor(xs, ys)
        if self.is_cyclic:
            return (xs + ys) % self.size
        return self.encode((self.decode(np.asarray(xs)) + self.decode(np.asarray(ys))) % self._factor_arr)

    def sub_indices(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.is_boolean:
            return np.bitwise_xor(xs, ys)
        if self.is_cyclic:
            return (xs - ys) % self.size
        return self.encode((self.decode(np.asarray(xs)) - self.decode(np.asarray(ys))) % self._factor_arr)

    @cached_property
    def index_range(self) -> np.ndarray:
        out = np.arange(self.size, dtype=np.int64)
        out.setflags(write=False)
        return out

    @cached_property
    def neg_perm(self) -> np.ndarray:
        """Permutation mapping index(x) to index(-x)."""
        if self.is_boolean:
            return self.index_range
        idx = np.arange(self.size, dtype=np.int64)
        if self.is_cyclic:
            return (-idx) % self.size
        return self.encode((-self.decode(idx)) % self._factor_arr)

    def shift_perm(self, b: int) -> np.ndarray:
        """Gather indices realizing a translate: out[x] = x - b (so arr[perm] rolls by +b)."""
        if self.is_boolean:
            return np.bitwise_xor(self.index_range, b)
        if self.is_cyclic:
            return (self.index_range - b) % self.size
        return self.sub_indices(self.index_range, np.int64(b))

    def elements(self) -> range:
        return range(self.size)

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)


def make_group(factors: Sequence[int] | Iterable[int]) -> GroupSpec:
    """Build a GroupSpec from cyclic factor orders, enforcing the size cap."""
    fs = tuple(int(n) for n in factors)
    if not fs:
        raise ValueError("factor list must be nonempty")
    if any(n < 2 for n in fs):
        raise ValueError("every cyclic factor must be >= 2")
    cap = max_group_size()
    prod = 1
    for n in fs:
        prod *= n
        if prod > cap:
            raise ValueError(f"group size {prod}+ exceeds cap {cap}")
    return GroupSpec(factors=fs, size=prod)


def parse_group(text: str) -> GroupSpec:
    """Parse a comma-separated factor list, e.g. '2,2,2,2' or '101'."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty group description")
    return make_group(int(p) for p in parts)


# -- transform oracle ---------------------------------------------------------


def fourier_array(group: GroupSpec, values: np.ndarray) -> np.ndarray:
    """Per-factor DFT; a factor of order 2 uses the +-1 butterfly directly."""
    a = np.asarray(values, dtype=np.complex128).reshape(group.factors)
    for ax, n in enumerate(group.factors):
        if n == 2:
            lo = a.take(0, axis=ax)
            hi = a.take(1, axis=ax)
            a = np.stack((lo + hi, lo - hi), axis=ax)
        else:
            a = np.fft.fft(a, axis=ax)
    return a.reshape(group.size)


def inverse_fourier_array(group: GroupSpec, values: np.ndarray) -> np.ndarray:
    a = np.asarray(values, dtype=np.complex128).reshape(group.factors)
    for ax, n in enumerate(group.factors):
        if n == 2:
            lo = a.take(0, axis=ax)
            hi = a.take(1, axis=ax)
            a = np.stack((lo + hi, lo - hi), axis=ax) * 0.5
        else:
            a = np.fft.ifft(a, axis=ax)
    return a.reshape(group.size)


def complex_correlate(group: GroupSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """corr(x) = sum_y u(y) v(y+x), computed through the transform (float path)."""
    fu = fourier_array(group, u)[group.neg_perm]
    fv = fourier_array(group, v)
    return inverse_fourier_array(group, fu * fv)


def parseval_residual(group: GroupSpec, values: np.ndarray) -> float:
    """Relative gap between sum |f|^2 and N^{-1} sum |fhat|^2."""
    f = np.asarray(values, dtype=np.complex128)
    lhs = float(np.sum(np.abs(f) ** 2))
    rhs = float(np.sum(np.abs(fourier_array(group, f)) ** 2)) / group.size
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) / scale
