"""Restricted isometry and restricted Lipschitz constants, and the linear
convergence bound they imply.

Exact restricted isometry constants are computed by support enumeration on
small instances, and restricted Lipschitz constants of projections are
estimated by Monte Carlo (always a lower bound).  The stability/robustness
constants combine into a per-iteration error bound sequence that observed
runs can be checked against.
"""

import functools
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .projections import _count, _norm, _real, sparse_signal

__all__ = [
    "ENUMERATION_GUARD",
    "exact_ric_sparse",
    "null_space_ric_floor",
    "mc_beta",
    "operator_norm",
    "TheoremBound",
    "theorem_bound_eval",
]

# Refuse to enumerate more supports than this.
ENUMERATION_GUARD = 10**6

# Supports are enumerated in blocks of at most this many, which bounds the
# stacked submatrices held at once.
SUPPORT_CHUNK = 4096

# The closed-form 2x2 screens (support axis here, mu axis in the theorem
# check's tuner) pass on to LAPACK every candidate within this much
# (relative, floor 1) of the best closed-form value.
_SCREEN_TOL = 1e-9


@functools.lru_cache(maxsize=8)
def _support_chunks(n, t):
    """Every size-t support of range(n), in lexicographic order, as read-only
    integer arrays of shape (<= SUPPORT_CHUNK, t).  Needs t >= 1.

    Cached, because the theorem check enumerates the same (n, t) on every
    attempt; the guard raises before anything is cached, and the last 8
    enumerations are kept.
    """
    if math.comb(n, t) > ENUMERATION_GUARD:
        raise ValueError(
            f"C({n}, {t}) = {math.comb(n, t)} supports exceed the enumeration "
            f"guard ({ENUMERATION_GUARD})"
        )
    combos = itertools.combinations(range(n), t)
    chunks = []
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, SUPPORT_CHUNK)), dtype=np.intp
        )
        if flat.size == 0:
            return tuple(chunks)
        flat.flags.writeable = False
        chunks.append(flat.reshape(-1, t))


def _near_max(a, b, c):
    """Mask of the symmetric 2x2 blocks [[a, b], [b, c]] whose closed-form
    lambda_max (a+c)/2 + sqrt(((a-c)/2)^2 + b^2) lies within _SCREEN_TOL
    (relative, floor 1) of the largest along the last axis; every block of
    a row holding a closed-form value that is not finite.

    On the positive semidefinite blocks screened here the closed form and
    LAPACK agree to about 1e-14, far inside the tolerance, so the block that
    LAPACK ranks first in a row is always kept and LAPACK's max over the
    kept blocks is its max over the whole row, bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lam = (a + c) / 2.0 + np.sqrt(((a - c) / 2.0) ** 2 + b * b)
        top = lam.max(axis=-1, keepdims=True)
        keep = lam >= top - _SCREEN_TOL * np.maximum(abs(top), 1.0)
    return keep | ~np.isfinite(lam).all(axis=-1, keepdims=True)


def _near_max_supports(M, chunks):
    """The size-2 supports T of `chunks` whose blocks M[T, T] _near_max keeps,
    in chunks of at most SUPPORT_CHUNK."""
    supports = np.concatenate(chunks)
    i, j = supports.T
    supports = supports[_near_max(M[i, i], M[j, i], M[j, j])]
    return [supports[lo:lo + SUPPORT_CHUNK] for lo in range(0, len(supports), SUPPORT_CHUNK)]


def exact_ric_sparse(B, k):
    """Exact restricted isometry constant of B over k-sparse differences.

    Differences of k-sparse vectors are 2k-sparse, and on a fixed support T
    the worst ratio ||(B - I)v|| / ||v|| is the largest singular value of
    the column submatrix (B - I)[:, T].  The constant is the max of that
    over all supports of size min(2k, N).  Smaller supports are dominated
    by larger ones, so only the top size needs enumerating.

    At support size 2 the squared singular value is lambda_max of the 2x2
    block G[T, T] of G = D'D, D = B - I, which has a closed form; only the
    supports _near_max keeps go on to the SVD, and the result is the full
    enumeration's bit for bit.  At other sizes every support goes on.
    ValueError for a B that is not finite.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"B must be square, got shape {B.shape}")
    if not np.isfinite(B).all():
        raise ValueError("B must be finite")
    n = B.shape[0]
    t = min(2 * _count("k", k), n)
    if t == 0:
        return 0.0
    D = B - np.eye(n)
    chunks = _support_chunks(n, t)
    if t == 2:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = D.T @ D
        chunks = _near_max_supports(gram, chunks)
    best = 0.0
    for supports in chunks:
        columns = np.moveaxis(D[:, supports], 1, 0)
        best = max(best, float(np.linalg.svd(columns, compute_uv=False)[:, 0].max()))
    return best


def null_space_ric_floor(A, k):
    """Lower bound on exact_ric_sparse(mu * A.T @ A, k) that holds for every mu.

    A.T @ A v lies in the row space of A, so the null-space component of
    (mu A.T A - I) v is -P_N v and ||(mu A.T A - I) v|| >= ||P_N v||, with
    P_N the orthogonal projector onto null(A).  Over unit v on a support T
    the right side peaks at sqrt(lambda_max(P_N[T, T])); the floor is the
    max of that over the supports exact_ric_sparse enumerates.  P_N is built
    from the n - m structural null directions of the SVD, a subspace of
    null(A) when A is rank deficient, so the floor stays a lower bound.  It
    is 0 when A has at least as many rows as columns.  Computed by
    _null_space_ric_floors on a stack of one.  ValueError for an A that is
    not finite.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-d, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("A must be finite")
    return float(_null_space_ric_floors(A[None], _count("k", k))[0])


def _null_space_ric_floors(As, k):
    """null_space_ric_floor of each operator of the stack As, shape
    (count, m, n), bit for bit: one batched SVD and one batched P_N for the
    stack, whose per-matrix LAPACK and BLAS calls give each operator the
    bits of its own.  Zeros, with no SVD, at m >= n or support size 0.

    At support size 2 one _near_max call, a row per operator, keeps each
    operator's blocks near its largest closed-form lambda_max, and eigvalsh
    sees the kept blocks of every operator together, SUPPORT_CHUNK at most
    per call, each operator's floor being the max over its own.  At other
    sizes eigvalsh sees every support, whole operators at a time, about
    SUPPORT_CHUNK blocks per call.
    """
    count, m, n = As.shape
    t = min(2 * k, n)
    lam = np.zeros(count)
    if t == 0 or m >= n:
        return lam
    null_basis = np.linalg.svd(As)[2][:, m:]
    P = np.swapaxes(null_basis, 1, 2) @ null_basis
    chunks = _support_chunks(n, t)
    if t == 2:
        supports = np.concatenate(chunks)
        i, j = supports.T
        owners, kept = np.nonzero(_near_max(P[:, i, i], P[:, j, i], P[:, j, j]))
        pieces = [(owners[lo:lo + SUPPORT_CHUNK], supports[kept[lo:lo + SUPPORT_CHUNK]])
                  for lo in range(0, len(owners), SUPPORT_CHUNK)]
    else:
        step = max(1, SUPPORT_CHUNK // len(chunks[0]))
        pieces = ((np.arange(lo, min(lo + step, count)).repeat(len(supports)),
                   np.tile(supports, (min(step, count - lo), 1)))
                  for supports in chunks for lo in range(0, count, step))
    for owners, supports in pieces:
        blocks = P[owners[:, None, None], supports[:, :, None], supports[:, None, :]]
        np.maximum.at(lam, owners, np.linalg.eigvalsh(blocks)[:, -1])
    return np.sqrt(lam)


def _tuned_mu(B, k, mu_grid):
    """(mu, delta): the first mu of mu_grid with the smallest exact restricted
    isometry constant delta = exact_ric_sparse(mu * B, k), and that delta.

    A mu at which mu * B is not finite is passed over; ValueError when no
    grid mu is left.  At support size 2 a screen over the whole grid comes
    first.  On a support T, ||(mu B - I)[:, T]||^2 is lambda_max of the
    block [[a, b], [b, c]] of mu^2 G - 2 mu S + I, with G = B'B and S =
    (B + B')/2, which is 1 + p + sqrt(q^2 + b^2), where p = (a+c)/2 - 1,
    q = (a-c)/2 and b are quadratics in mu with no constant term, so their
    values at a few grid mu at a time are one matmul of the per-support
    coefficients of mu^2 and mu.  Only grid values within _SCREEN_TOL
    (relative, floor 1) of the screen's minimum go on to exact_ric_sparse,
    in grid order: the closed form and the SVD agree far inside that
    tolerance.  The screen overflows at the larger mu only, and one whose
    minimum is not finite (inf everywhere, or NaN from a G that overflowed)
    passes them all.  At other support sizes every grid value goes on.
    """
    n = B.shape[0]
    candidates = range(len(mu_grid))
    if min(2 * _count("k", k), n) == 2:
        i, j = np.concatenate(_support_chunks(n, 2)).T
        # Overflow and inf - inf leave the screen not finite, not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            G, S = B.T @ B, (B + B.T) / 2.0
            g, s = np.diag(G), np.diag(S)
            # (3, supports, 2): the mu^2 and mu coefficients of p, q and b.
            coefficients = np.empty((3, len(i), 2))
            coefficients[..., 0] = (g[i] + g[j]) / 2.0, (g[i] - g[j]) / 2.0, G[i, j]
            coefficients[..., 1] = -(s[i] + s[j]), -(s[i] - s[j]), -2.0 * S[i, j]
            # A few grid values at a time, so the (support, mu) values held
            # at once stay near len(mu_grid) * SUPPORT_CHUNK.
            mus = np.asarray(mu_grid, dtype=float)
            step = max(1, len(mus) * SUPPORT_CHUNK // len(i))
            screen = []
            for lo in range(0, len(mus), step):
                mu = mus[lo:lo + step]
                p, q, b = coefficients @ np.vstack([mu * mu, mu])
                # In place: these passes over (supports, grid) are the screen's cost.
                q *= q
                b *= b
                q += b
                np.sqrt(q, out=q)
                q += p
                screen.append(q.max(axis=0))
            screen = 1.0 + np.concatenate(screen)
            least = screen.min()
            if np.isfinite(least):
                candidates = np.flatnonzero(screen <= least + _SCREEN_TOL * max(abs(least), 1.0))
    best = (np.inf, None)
    for index in candidates:
        with np.errstate(over="ignore"):
            muB = mu_grid[index] * B
        if not np.isfinite(muB).all():
            continue
        delta = exact_ric_sparse(muB, k)
        if delta < best[0]:
            best = (delta, float(mu_grid[index]))
    if best[1] is None:
        raise ValueError("no mu of the grid gives a finite restricted isometry constant")
    return best[1], best[0]


def mc_beta(projection, k, n, trials, seed):
    """Monte-Carlo lower bound on the restricted Lipschitz constant.

    Samples pairs (z ambient, x a k-sparse model point from sparse_signal)
    and takes the max of ||P(z) - x|| / ||z - x||.  Half the draws place z
    near the model set (a model point plus a small perturbation) to probe
    the regime where projections expand; the other half draw z fully
    ambient.  Degenerate z == x draws are discarded and redrawn.  A lower
    bound on the true constant, deterministic given the seed, nondecreasing
    under nested sampling.  ValueError on the first projection output
    that is not finite.
    """
    # n = 0 would redraw its empty z forever; k > n fails in sparse_signal.
    trials, k, n = _count("trials", trials, 1), _count("k", k), _count("n", n, 1)
    rng = np.random.default_rng(_count("seed", seed))
    best = 0.0
    for trial in range(trials):
        x = sparse_signal(n, k, rng)
        while True:
            if trial % 2 == 0:
                z = rng.standard_normal(n)
            else:
                z = sparse_signal(n, k, rng) + 0.1 * rng.standard_normal(n)
            if np.linalg.norm(z - x) > 0.0:
                break
        pz = np.asarray(projection(z), dtype=float)
        ratio = float(np.linalg.norm(pz - x) / np.linalg.norm(z - x))
        # x and z are finite, so only a ratio that is not finite can come
        # from an output that is not.
        if not math.isfinite(ratio) and not np.isfinite(pz).all():
            raise ValueError(f"projection output must be finite, and trial {trial}'s is not")
        if ratio > best:
            best = ratio
    return best


def operator_norm(M, iters=200, seed=0, tol=1e-10):
    """Largest singular value of M by power iteration on M.T M.

    Stops after `iters` rounds or when the Rayleigh-quotient estimate
    changes by less than `tol` relative; ValueError for an M that is not
    finite.  The estimate approaches the true norm from below; cross-check
    against an SVD on small matrices when an upper bound matters.  Each
    round's estimate ||M v|| keeps its product M v, which is the next
    round's inner product: one gemv per half-step, on the same v, so the
    bits are those of recomputing it.  np.dot, on M and M.T bound once,
    skips `@`'s dispatch: the same gemv, the same bits.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"M must be 2-d, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("M must be finite")
    iters, tol = _count("iters", iters, 1), _real("tol", tol)
    rng = np.random.default_rng(_count("seed", seed))
    v = rng.standard_normal(M.shape[1])
    v /= _norm(v)
    Mt, Mv = M.T, np.dot(M, v)
    estimate = 0.0
    for _ in range(iters):
        w = np.dot(Mt, Mv)
        norm_w = _norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        Mv = np.dot(M, v)
        new_estimate = _norm(Mv)
        if abs(new_estimate - estimate) <= tol * max(new_estimate, 1.0):
            return new_estimate
        estimate = new_estimate
    return estimate


@dataclass
class TheoremBound:
    """Constants feeding the linear-convergence error bound.

    delta is the restricted isometry constant of mu*L*A on the model
    secants, beta the restricted Lipschitz constant of the projection.
    noise_term holds ||mu L e||_2 (the step size is already inside, which
    matches the recursion constant; the reported c_stab = mu/(1-delta*beta)
    refers to the unscaled ||L e||_2 and is equivalent).  model_error is
    the projection-induced distance of the truth to the model set, and
    proj_error_eta bounds the per-call deviation of the actual projection
    from a restricted-Lipschitz one.  op_norm_muLA enters the bound only as
    C_rob * model_error and op_norm_I_minus_muLA only as C_proj * eta, so a
    norm left at 0.0 is exact when its error term is 0.  Every field must
    be finite and >= 0.
    """

    delta: float
    beta: float
    mu: float
    noise_term: float = 0.0
    model_error: float = 0.0
    proj_error_eta: float = 0.0
    op_norm_muLA: float = 0.0
    op_norm_I_minus_muLA: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            _real(f.name, getattr(self, f.name))

    @property
    def contraction(self):
        return self.delta * self.beta

    @property
    def c_stab(self):
        return self.mu / (1.0 - self.contraction)

    @property
    def c_rob(self):
        return self.op_norm_muLA / (1.0 - self.contraction)

    @property
    def c_rob_prime(self):
        return 1.0 + self.c_rob

    @property
    def c_proj(self):
        return self.op_norm_I_minus_muLA / (1.0 - self.contraction)


def theorem_bound_eval(tb, n_iters, initial_error, variant="projection"):
    """Bound sequence b_0 .. b_n for the recovery error.

    b_n = (delta*beta)^n * initial_error
          + noise_term / (1 - delta*beta)
          + C_rob * model_error + C_proj * eta

    with noise_term = ||mu L e||_2 (equivalent to c_stab * ||L e||_2 since
    mu is scalar).  variant="projection" bounds the error to the projected
    truth with C_rob; variant="truth" bounds the error to the truth itself
    with C_rob' = 1 + C_rob.  initial_error is the distance of x_0 to the
    projected truth in both variants.
    """
    if variant not in ("projection", "truth"):
        raise ValueError(f"variant must be 'projection' or 'truth', got {variant!r}")
    _real("initial_error", initial_error)
    n_iters = _count("n_iters", n_iters)
    rate = tb.contraction
    if rate >= 1.0:
        raise ValueError(f"bound requires delta*beta < 1, got {rate}")
    return rate ** np.arange(n_iters + 1) * initial_error + _bound_constant(tb, variant)


def _bound_constant(tb, variant):
    """The bound's constant term: noise_term / (1 - delta*beta) + C_rob *
    model_error + C_proj * eta, with C_rob' = 1 + C_rob for variant "truth"."""
    c_rob = tb.c_rob_prime if variant == "truth" else tb.c_rob
    return tb.noise_term / (1.0 - tb.contraction) + c_rob * tb.model_error + tb.c_proj * tb.proj_error_eta
