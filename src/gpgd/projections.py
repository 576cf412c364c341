"""Projections onto low-dimensional model sets.

Hard thresholding onto k-sparse vectors and random points of that set, a
rescaled variant that inflates its restricted Lipschitz constant by a
tunable amount, and block-wise product projections.
"""

import math
import numbers

import numpy as np

__all__ = [
    "HARD_THRESHOLD_BETA",
    "hard_threshold",
    "sparse_signal",
    "HardThreshold",
    "PAlpha",
    "ProductProjection",
]

# Analytic restricted-Lipschitz bound for hard thresholding onto k-sparse
# vectors (near optimal among projections onto that set), ~1.618.
HARD_THRESHOLD_BETA = float(np.sqrt((3.0 + np.sqrt(5.0)) / 2.0))


def _norm(v):
    """Euclidean norm of a contiguous 1-d float vector as a Python float.

    Bit-identical to np.linalg.norm, which computes sqrt(v.dot(v)) for
    such vectors, without its dispatch overhead.
    """
    return math.sqrt(v.dot(v))


def _norms(V):
    """_norm of each row (last axis) of an array, with its bits: a matmul per row
    (einsum differs)."""
    return np.sqrt((V[..., None, :] @ V[..., :, None])[..., 0, 0])


def _count(name, value, least=0):
    """`value` as an int; ValueError naming `name` unless an integer >= `least`, not a bool."""
    if type(value) is int and value >= least:
        return value
    if isinstance(value, np.integer) and value >= least:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _real(name, value, positive=False):
    """`value` as a float; ValueError naming `name` unless a finite real >= 0 (> 0 if `positive`)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0 or positive and value == 0):
        raise ValueError(f"{name} must be a finite number {'>' if positive else '>='} 0, got {value!r}")
    return float(value)


def _smallest(values, count):
    """Boolean mask of the `count` smallest entries of a 1-d float array.

    Selects what a stable ascending argsort would put first: ties keep the
    lower index and NaN ranks above every number.  The cut is found by
    partition; ties that straddle it are trimmed from the highest index.
    """
    if count == 0:
        return np.zeros(values.shape, dtype=bool)
    part = values.copy()
    part.partition(count - 1)
    cut = part[count - 1]
    if math.isnan(cut):
        # NaN cut: fewer than `count` numbers, so NaNs are selected too, and
        # among NaNs only the sort order says which.
        mask = np.zeros(values.shape, dtype=bool)
        mask[np.argsort(values, kind="stable")[:count]] = True
        return mask
    mask = values <= cut
    excess = np.count_nonzero(mask) - count
    if excess:
        ties = np.flatnonzero(values == cut)
        mask[ties[ties.size - excess :]] = False
    return mask


def hard_threshold(z, k):
    """Keep the k largest-magnitude entries of z, zero the rest.

    Ties keep the lower index and NaN ranks as the smallest magnitude;
    k = 0 gives the zero vector.  The arg-min over k-sparse vectors is
    set-valued at ties, so a deterministic selection rule is part of the
    contract.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"expected a vector, got shape {z.shape}")
    if _count("k", k) > z.size:
        raise ValueError(f"sparsity k must lie in [0, {z.size}], got {k}")
    return np.where(_smallest(-np.abs(z), k), z, 0.0)


def _threshold_rows(Z, k):
    """hard_threshold(z, k) on each row z of Z, k unchecked.  Each row keeps its
    entries of -|z| at or below its k-th smallest, found by one partition,
    or if that keeps other than k (ties at the cut, a NaN cut), _smallest's."""
    if not k:
        return np.zeros(Z.shape)
    neg = -np.abs(Z)
    keep = neg <= np.partition(neg, k - 1, axis=1)[:, k - 1, None]
    for i, count in enumerate(keep.sum(axis=1).tolist()):
        if count != k:
            keep[i] = _smallest(neg[i], k)
    return np.where(keep, Z, 0.0)


def sparse_signal(n, k, rng):
    """Random point of the k-sparse model set: standard-normal nonzeros on a
    uniform support, rescaled to norm sqrt(k).

    The rescale fixes the signal energy per sparsity level so error
    thresholds measure the (k, noise) phase boundary instead of the luck of
    the signal scale draw.  k = 0 gives the zero vector and draws nothing.
    """
    if _count("k", k) > _count("n", n):
        raise ValueError(f"k must be at most n = {n}, got {k}")
    x = np.zeros(n)
    if k == 0:
        return x
    support = rng.choice(n, size=k, replace=False)
    vals = rng.standard_normal(k)
    while np.linalg.norm(vals) == 0.0:
        vals = rng.standard_normal(k)
    x[support] = vals * (np.sqrt(k) / np.linalg.norm(vals))
    return x


class HardThreshold:
    """Orthogonal projection onto k-sparse vectors."""

    # A function of its input alone, so gpgd_run may replay a cycle of iterates.
    _deterministic = True

    def __init__(self, k):
        self.k = _count("k", k)

    def __call__(self, z):
        return hard_threshold(z, self.k)

    def __repr__(self):
        return f"HardThreshold(k={self.k})"


class PAlpha:
    """Hard threshold rescaled by 1 + alpha * ||z - P(z)|| / ||P(z)||.

    The rescaling inflates the restricted Lipschitz constant by at most
    alpha while keeping the output k-sparse; alpha = 0 reduces exactly to
    hard thresholding.  A zero hard threshold maps to the zero vector.
    """

    _deterministic = True

    def __init__(self, k, alpha):
        self.k = _count("k", k)
        self.alpha = _real("alpha", alpha)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        base = hard_threshold(z, self.k)
        base_norm = _norm(base)
        if base_norm == 0.0:
            return base
        factor = 1.0 + self.alpha * _norm(z - base) / base_norm
        return factor * base

    def __repr__(self):
        return f"PAlpha(k={self.k}, alpha={self.alpha})"


class ProductProjection:
    """Concatenation of per-block projections over a product model set.

    ``components`` is a sequence of (projection, block_dim) pairs; each
    projection acts on its block of consecutive coordinates, and the dims
    must sum to the length of the input.  The restricted Lipschitz constant
    of the concatenation is the max of the per-block constants.
    """

    def __init__(self, components):
        self.components = [(proj, _count("block dim", dim)) for proj, dim in components]

    @property
    def _deterministic(self):
        return all(getattr(proj, "_deterministic", False) for proj, _ in self.components)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        dims = [dim for _, dim in self.components]
        if sum(dims) != z.size:
            raise ValueError(f"block dims {dims} do not sum to len(z) = {z.size}")
        blocks = []
        offset = 0
        for proj, dim in self.components:
            blocks.append(np.asarray(proj(z[offset : offset + dim]), dtype=float))
            offset += dim
        return np.concatenate(blocks)

    def __repr__(self):
        return f"ProductProjection({self.components!r})"
