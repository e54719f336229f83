"""Per-point-search PCHIP evaluation: the oracle the one-piece path is tested against.

``evaluate`` is the ``_PiecewiseCubic.__call__`` that searched every point
and gathered its piece's breakpoint and coefficients, kept word for word.
``spinrad.rotor._PiecewiseCubic`` must reproduce it bit for bit on every
input: one piece, several, NaN, infinities, empty and 0-d.
"""

import numpy as np


def evaluate(self, t):
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    i = np.searchsorted(self._inner, flat, "right")  # NaN takes the last piece, stays NaN
    powers = np.empty((3,) + (1,) * (self.c.ndim - 2) + flat.shape)  # s, s*s, (s*s)*s
    s = np.subtract(flat, self.x.take(i), out=powers[0])
    np.multiply(s, s, out=powers[1])
    np.multiply(powers[1], s, out=powers[2])
    terms = self.c.take(i, axis=-1)
    terms[1:] *= powers
    out = terms.sum(axis=0, initial=0.0)  # numpy adds four terms in order, from 0.0
    return out.reshape(self.c.shape[1:-1] + t.shape)
