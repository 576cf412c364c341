"""Measurement operators and back-projections.

Dense linear maps from signal space R^n to measurement space R^m, plus the
back-projections (adjoint, residual-thresholded adjoint) used
to send measurement residuals back to signal space, and the augmented
operator (A, I) acting on a stacked signal/noise vector.
"""

import math

import numpy as np

from .projections import _count, _smallest

__all__ = [
    "MeasurementOperator",
    "BackProjection",
    "JointOperator",
    "gaussian_operator",
]


class MeasurementOperator:
    """Dense linear measurement map y = A x.

    The matrix is stored dense; problem sizes here are desk scale (n up to
    a few thousand), so implicit/structured operators are not worth the
    indirection.
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"operator matrix must be 2-d, got shape {matrix.shape}")
        m, n = matrix.shape
        if m < 1 or n < 1:
            raise ValueError(f"operator dimensions must be >= 1, got {m}x{n}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("operator entries must all be finite")
        # np.dot runs @'s gemv, same bits, minus @'s dispatch; not on strided data,
        # so a strided matrix is copied here and a strided vector at each call.
        if not (matrix.flags.c_contiguous or matrix.flags.f_contiguous):
            matrix = np.ascontiguousarray(matrix)
        self.matrix, self.m, self.n_ambient = matrix, m, n
        self._t, self._x_shape, self._r_shape = matrix.T, (n,), (m,)

    def apply(self, x):
        """Forward map: A @ x, with a strict dimension check."""
        x = np.asarray(x, dtype=float, order="C")
        if x.shape != self._x_shape:
            raise ValueError(f"expected vector of length {self.n_ambient}, got shape {x.shape}")
        return np.dot(self.matrix, x)

    def adjoint(self, r):
        """Adjoint map: A.T @ r."""
        r = np.asarray(r, dtype=float, order="C")
        if r.shape != self._r_shape:
            raise ValueError(f"expected vector of length {self.m}, got shape {r.shape}")
        return np.dot(self._t, r)

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m}, n={self.n_ambient})"


def gaussian_operator(m, n, seed):
    """Random Gaussian measurement ensemble with i.i.d. N(0, 1/m) entries.

    The 1/m variance makes A.T A close to the identity on low-dimensional
    sets (columns have unit expected norm), so a unit step size is a sane
    default for projected descent.  `seed` is anything np.random.default_rng
    takes: a seed gives the same matrix every time, and a Generator is drawn
    from in place (the experiments pass their per-trial streams).

    The matrix is C-contiguous and its data starts on a 64-byte boundary,
    wherever the heap puts the buffer: OpenBLAS runs a 150x300 matvec about
    30% slower when the data starts 16 mod 32 bytes.  It is drawn and scaled
    in place, with the same draws, stream position and bits as
    ``rng.standard_normal((m, n)) / np.sqrt(m)``.
    """
    m, n = _count("m", m, 1), _count("n", n, 1)
    rng = np.random.default_rng(seed)
    buffer = np.empty(m * n + 8)
    start = -buffer.ctypes.data % 64 // 8
    matrix = buffer[start:start + m * n].reshape(m, n)
    rng.standard_normal(out=matrix)
    matrix /= math.sqrt(m)  # the double np.sqrt gives, without a numpy scalar
    return MeasurementOperator(matrix)


class BackProjection:
    """Map a measurement residual back to signal space.

    Two kinds:

    - ``adjoint``: plain A.T r.
    - ``residual_threshold``: A.T (S r) where S zeroes the (m - keep)
      largest-magnitude entries of the residual, recomputed on every call.
      Ties keep the lower index.
    """

    KINDS = ("adjoint", "residual_threshold")

    def __init__(self, op, kind="adjoint", keep=None):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {kind!r}")
        self.op = op
        self.kind = kind
        self.keep = None
        if kind == "residual_threshold":
            self.keep = _count("keep", keep)
            if self.keep > op.m:
                raise ValueError(f"keep must lie in [0, {op.m}], got {keep}")

    @classmethod
    def adjoint(cls, op):
        return cls(op, kind="adjoint")

    @classmethod
    def residual_threshold(cls, op, keep):
        return cls(op, kind="residual_threshold", keep=keep)

    def apply(self, residual):
        if self.kind == "adjoint":
            return self.op.adjoint(residual)
        # residual_threshold: keep the `keep` smallest-magnitude entries;
        # ties keep the lower index, and NaN ranks as the largest magnitude.
        # Checked before _smallest, which fails on a non-vector with TypeError.
        residual = np.asarray(residual, dtype=float)
        if residual.shape != (self.op.m,):
            raise ValueError(f"expected residual of length {self.op.m}, got shape {residual.shape}")
        kept = _smallest(np.abs(residual), self.keep)
        return self.op.adjoint(np.where(kept, residual, 0.0))

    def __repr__(self):
        extra = f", keep={self.keep}" if self.kind == "residual_threshold" else ""
        return f"BackProjection(kind={self.kind!r}{extra})"


class JointOperator(MeasurementOperator):
    """Augmented operator (A, I) acting on a stacked (signal, noise) vector.

    Applying it to the stack (x, e) gives A x + e; the adjoint of r is the
    stack (A.T r, r).  Used to recast recovery under sparse corruptions as
    plain recovery over a product model.
    """

    def __init__(self, base):
        matrix = np.hstack([base.matrix, np.eye(base.m)])
        super().__init__(matrix)
        self.base = base

    def split(self, stacked):
        stacked = np.asarray(stacked, dtype=float)
        if stacked.shape != (self.n_ambient,):
            raise ValueError(f"expected vector of length {self.n_ambient}, got shape {stacked.shape}")
        n = self.base.n_ambient
        return stacked[:n], stacked[n:]
