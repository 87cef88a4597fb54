"""Groups, exact convolution, and the transform oracle.

Build a few groups, convolve indicators exactly, and show that the
double-precision transform reproduces the exact values after rounding.
"""

import numpy as np

from energylab import (GSet, convolve, correlate, fourier_array, inverse_fourier_array,
                       make_group, set_convolve, set_correlate)

# the running example: A = {0, 1, 2} inside Z_7
g = make_group([7])
A = GSet.from_indices(g, [0, 1, 2])
print("group:", g, " A =", A.members.tolist())
print("(A o A) =", set_correlate(A, A).tolist(), "   # slice sizes |A cap (A - x)|")
print("(A * A) =", set_convolve(A, A).tolist(), "   # representation counts of x = a + b")

# the same group written multiplicatively as factors works too: Z_2 x Z_3 ~ Z_6
g6 = make_group([2, 3])
print("\nmixed radix:", g6, " add(4, 5) ->", g6.add(4, 5), " neg(1) ->", g6.neg(1))

# transform as an oracle: convolve in the spectral domain, round, compare
spec = fourier_array(g, A.mask.astype(float))
via = np.real(inverse_fourier_array(g, spec * spec))
print("\ntransform-path (A * A):", np.round(via).astype(int).tolist())
print("max residual:", float(np.max(np.abs(via - set_convolve(A, A)))))

# integer functions convolve exactly, escalating beyond int64 when needed
from energylab import DenseFunc

f = DenseFunc(g, np.array([1 << 40, 1, 0, 0, 0, 0, 0], dtype=object))
big = convolve(f, f).values
print("\nexact big-integer convolution, value at 0:", big[0])
print("correlation reflection: (f o g)(x) == (g o f)(-x):",
      np.array_equal(correlate(A, A).values, correlate(A, A).values[g.neg_perm]))
