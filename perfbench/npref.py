"""Independent numpy reference for the dense-cli outputs.

It calls no energylab code: the set is read straight from its set file, the
group is the n-d array of its cyclic factors (index = row-major position), and
correlations are float FFTs over that array, rounded to integers only when every
value lies within ROUND_MARGIN of an integer.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

ROUND_MARGIN = 0.25


def digest_json(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _to_int(values: np.ndarray) -> np.ndarray:
    rounded = np.rint(values.real)
    err = max(float(np.max(np.abs(values.real - rounded))), float(np.max(np.abs(values.imag))))
    if err > ROUND_MARGIN:
        raise ArithmeticError(f"transform result {err:.3g} away from an integer")
    return rounded.astype(np.int64)


def _power_sum(values: np.ndarray, k: float) -> str:
    nz = values[values != 0].tolist()
    if float(k) == int(k):
        return str(sum(v ** int(k) for v in nz))
    return repr(math.fsum(float(v) ** float(k) for v in nz))


class Reference:
    """Expected CLI outputs for one set file."""

    def __init__(self, path: str):
        with open(path) as fh:
            payload = json.load(fh)
        self.factors = tuple(int(n) for n in payload["group"])
        self.size = math.prod(self.factors)
        self.members = np.asarray(sorted(payload["elements"]), dtype=np.int64)
        flat = np.zeros(self.size)
        flat[self.members] = 1.0
        self.ind = flat.reshape(self.factors)
        self.spectrum = np.fft.fftn(self.ind)
        self._corr = self._conv = None

    @property
    def corr(self) -> np.ndarray:
        """(A o A)(x) = #{(a, b) in A^2 : b - a = x}, flattened."""
        if self._corr is None:
            F = self.spectrum
            self._corr = _to_int(np.fft.ifftn(np.conj(F) * F)).ravel()
        return self._corr

    @property
    def conv(self) -> np.ndarray:
        """(A * A)(x) = #{(a, b) in A^2 : a + b = x}, flattened."""
        if self._conv is None:
            self._conv = _to_int(np.fft.ifftn(self.spectrum * self.spectrum)).ravel()
        return self._conv

    def energy(self, k: float) -> str:
        return _power_sum(self.corr, k)

    def regular_part(self) -> list[int]:
        """Members x with ((A*A) o A)(x) |A| <= 2 E(A)."""
        F_conv = np.fft.fftn(self.conv.reshape(self.factors).astype(np.float64))
        cube = _to_int(np.fft.ifftn(np.conj(F_conv) * self.spectrum)).ravel()
        e2 = sum(v * v for v in self.corr.tolist())
        card = self.members.size
        return [int(x) for x in self.members.tolist() if int(cube[x]) * card <= 2 * e2]

    def _minus_index(self, b: int) -> np.ndarray:
        """For every x, the index of x - b."""
        idx = np.arange(self.size, dtype=np.int64)
        if all(n == 2 for n in self.factors):
            return idx ^ b
        coords = np.unravel_index(idx, self.factors)
        cb = np.unravel_index(b, self.factors)
        return np.ravel_multi_index(tuple((c - o) % n for c, o, n in zip(coords, cb, self.factors)),
                                    self.factors)

    def translates(self) -> dict:
        """Greedy disjoint pieces of the translates A + b, b ascending in A, keeping
        a residual when it holds at least half of |A|."""
        flat = self.ind.ravel() > 0
        card = self.members.size
        taken = np.zeros(self.size, dtype=bool)
        members = []
        for b in self.members.tolist():
            residual = flat[self._minus_index(b)] & ~taken
            if 2 * int(np.count_nonzero(residual)) >= card:
                members.append([b, np.flatnonzero(residual).tolist()])
                taken |= residual
        return {"count": len(members), "min_size": (card + 1) // 2, "members": members}

    def output(self, command: str) -> str:
        """The canonical output the benchmark compares for one dense-cli command."""
        if command.startswith("E"):
            return self.energy(float(command[1:]))
        if command == "gowers2":
            return self.energy(2)
        if command == "T2":
            return str(sum(v * v for v in self.conv.tolist()))
        if command == "sigma":
            return str(int(self.conv[0]))
        if command == "regular-part":
            return digest_json(self.regular_part())
        if command == "translates":
            return digest_json(self.translates())
        raise ValueError(f"no reference for {command!r}")
