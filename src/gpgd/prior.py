"""A small differentiable projective prior: one-hidden-layer autoencoder.

P(x) = W_dec sigma(W_enc x), trainable with either a reconstruction loss
(sum of ||P(x) - x||^2) or a denoising loss (mean of ||P(x + eps) - x||^2),
optionally regularized toward idempotence with the normalized penalty

    ||P(P(x)) - P(x)|| / ||P(x)||

summed over the batch.  The normalization matters: the raw idempotence
defect of a scaled-down linear map alpha*P vanishes as alpha -> 0, so the
unnormalized criterion can be gamed by shrinking the output.  Gradients
are hand-derived backprop and verified against finite differences in the
test suite.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .projections import _count, _real

__all__ = [
    "ToyPrior",
    "TrainConfig",
    "TrainResult",
    "prior_apply",
    "nipr_penalty",
    "training_loss",
    "loss_gradient",
    "train",
    "make_manifold_dataset",
    "LearnedProjection",
    "random_prior",
]

NONLINEARITIES = ("linear", "tanh")

# Batch elements whose projected norm falls below this are excluded from the
# idempotence penalty and its gradient alike so the two stay consistent.
PROJECTED_NORM_FLOOR = 1e-12


@dataclass
class ToyPrior:
    """Autoencoder prior with encoder (d_latent x n) and decoder (n x d_latent)."""

    encoder_weights: np.ndarray
    decoder_weights: np.ndarray
    nonlinearity: str = "linear"

    def __post_init__(self):
        self.encoder_weights = np.asarray(self.encoder_weights, dtype=float)
        self.decoder_weights = np.asarray(self.decoder_weights, dtype=float)
        d_latent, n = self.encoder_weights.shape
        if self.decoder_weights.shape != (n, d_latent):
            raise ValueError(
                f"decoder shape {self.decoder_weights.shape} does not mirror "
                f"encoder shape {self.encoder_weights.shape}"
            )
        if not 1 <= d_latent < n:
            raise ValueError(f"need 1 <= d_latent < n, got d_latent={d_latent}, n={n}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}")
        if not (np.all(np.isfinite(self.encoder_weights)) and np.all(np.isfinite(self.decoder_weights))):
            raise ValueError("prior weights must be finite")

    @property
    def n_ambient(self):
        return self.encoder_weights.shape[1]

    @property
    def d_latent(self):
        return self.encoder_weights.shape[0]

    def copy(self):
        return ToyPrior(self.encoder_weights.copy(), self.decoder_weights.copy(),
                        self.nonlinearity)


def random_prior(n, d_latent, seed, nonlinearity="tanh", scale=None):
    """Random prior with ~orthonormal-ish raw weights (scale defaults to 1/sqrt(n))."""
    _count("n", n, 1)
    _count("d_latent", d_latent, 1)
    _count("seed", seed)
    if scale is None:
        scale = 1.0 / np.sqrt(n)
    else:
        _real("scale", scale)
    rng = np.random.default_rng(seed)
    enc = scale * rng.standard_normal((d_latent, n))
    dec = scale * rng.standard_normal((n, d_latent))
    return ToyPrior(enc, dec, nonlinearity)


def _activate(h, kind):
    return np.tanh(h, out=h) if kind == "tanh" else h


# Products are np.dot, 0.3-0.4 us faster than `@` here with the same bits; sigma overwrites them.
def prior_apply(prior, x):
    """P(x) = W_dec sigma(W_enc x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (prior.n_ambient,):
        raise ValueError(f"expected vector of length {prior.n_ambient}, got shape {x.shape}")
    return np.dot(prior.decoder_weights, _activate(np.dot(prior.encoder_weights, x), prior.nonlinearity))


def _forward_batch(prior, X):
    """Batched forward pass over rows of X; returns (activation, output)."""
    A = _activate(np.dot(X, prior.encoder_weights.T), prior.nonlinearity)
    return A, np.dot(A, prior.decoder_weights.T)


def _row_norms(M):
    """Row norms: what np.linalg.norm(M, axis=1) runs, without its dispatch."""
    return np.sqrt(np.add.reduce(M * M, axis=1))


def _nipr_forward(prior, X):
    """Both passes of the penalty, (A1, Q, |Q|, used, n_used, A2, G, |G|),
    with Q = P(X), G = P(Q) - Q and `used` the n_used rows above the floor.

    Raises ValueError when no row clears the floor: there is nothing to
    normalize.
    """
    A1, Q = _forward_batch(prior, X)
    qn = _row_norms(Q)
    used = qn > PROJECTED_NORM_FLOOR
    n_used = int(np.count_nonzero(used))
    if not n_used:
        raise ValueError("all batch elements had ||P(x)|| below the norm floor")
    A2, PQ = _forward_batch(prior, Q)
    G = PQ - Q
    return A1, Q, qn, used, n_used, A2, G, _row_norms(G)


def _nipr_terms(prior, X):
    """Per-row penalty values (0 below the norm floor) and the count of rows above it."""
    _, _, qn, used, n_used, _, _, gn = _nipr_forward(prior, X)
    return np.divide(gn, qn, out=np.zeros(len(qn)), where=used), n_used


def nipr_penalty(prior, batch):
    """Normalized idempotence penalty, summed over the batch.

    Elements with ||P(x)|| below the norm floor are skipped (with a
    warning); if every element is skipped there is nothing to normalize
    and a ValueError is raised.
    """
    X = _as_batch(batch)
    values, n_used = _nipr_terms(prior, X)
    n_skipped = len(X) - n_used
    if n_skipped:
        warnings.warn(f"nipr_penalty skipped {n_skipped} batch element(s) with ~zero projection")
    return float(values.sum())


@dataclass
class TrainConfig:
    """Training controls; nipr_weight is the idempotence penalty weight."""

    nipr_weight: float = 0.005
    noise_sigma: float = 0.0
    learning_rate: float = 0.05
    epochs: int = 100
    batch_size: int = 32
    loss_kind: str = "ae"
    seed: int = 0

    def __post_init__(self):
        _real("nipr_weight", self.nipr_weight)
        _real("noise_sigma", self.noise_sigma)
        _real("learning_rate", self.learning_rate, positive=True)
        _count("epochs", self.epochs)
        _count("batch_size", self.batch_size, 1)
        _count("seed", self.seed)
        if self.loss_kind not in ("ae", "pnp"):
            raise ValueError(f"loss_kind must be 'ae' or 'pnp', got {self.loss_kind!r}")


def _as_batch(batch):
    """`batch` as a float array of rows, a 1-d vector as one row; ValueError if empty."""
    batch = np.asarray(batch, dtype=float)
    if not batch.size:
        raise ValueError("batch must be nonempty")
    if batch.ndim == 1:
        batch = batch[None, :]
    return batch


def _data_inputs(batch, cfg, noise):
    """Inputs of the data term and the count it is divided by: the clean
    batch and 1 for 'ae' (a sum), the noisy batch and its length for 'pnp'
    (a mean).  The targets are the clean batch either way."""
    if cfg.loss_kind == "ae":
        return batch, 1
    return batch + (0.0 if noise is None else noise), len(batch)


def training_loss(prior, batch, cfg, noise=None):
    """Data-fit loss plus the weighted idempotence penalty.

    'ae' sums ||P(x) - x||^2 over the batch; 'pnp' averages
    ||P(x + eps) - x||^2 with one noise draw per element (pass the same
    `noise` array to the gradient for consistency).  The penalty term is a
    batch mean so its weight does not depend on batch size, and it always
    evaluates P on the clean inputs.
    """
    batch = _as_batch(batch)
    inputs, count = _data_inputs(batch, cfg, noise)
    loss = float(np.sum((_forward_batch(prior, inputs)[1] - batch) ** 2)) / count
    if cfg.nipr_weight > 0:
        values, n_used = _nipr_terms(prior, batch)
        loss += cfg.nipr_weight * float(values.sum()) / n_used
    return loss


def _backprop(prior, X, A, D):
    """Pull the output gradient D back through P at inputs X, whose hidden
    activation is A: returns (encoder gradient, decoder gradient, d_H), with
    d_H the gradient at the encoder's pre-activation."""
    d_H = np.dot(D, prior.decoder_weights)
    if prior.nonlinearity == "tanh":
        d_H *= 1.0 - A * A
    return np.dot(d_H.T, X), np.dot(D.T, A), d_H


def _backprop_nipr(prior, X, nipr_weight, g_enc, g_dec):
    """Accumulate gradients of the penalty term of training_loss, that is
    nipr_weight times the mean of ||P(P(x)) - P(x)|| / ||P(x)|| over the
    rows above the norm floor.

    Rows below the norm floor are skipped, and exactly-idempotent rows
    (zero defect) contribute nothing: the term is zero and flat there.
    """
    A1, Q, qn, used, n_used, A2, G, gn = _nipr_forward(prior, X)
    weight = nipr_weight / n_used
    active = used & (gn > 0.0)
    if not active.any():
        return
    U = np.divide(weight, gn * qn, out=np.zeros(len(qn)), where=active)[:, None] * G
    # Second pass: parameters see U directly.
    enc, dec, T2 = _backprop(prior, Q, A2, U)
    g_enc += enc
    g_dec += dec
    # Gradient flowing into Q: through the second pass, the -Q inside the
    # defect, and the 1/||Q|| normalization.
    norm_pull = np.divide(weight * gn, qn**3, out=np.zeros(len(qn)), where=active)
    DQ = np.dot(T2, prior.encoder_weights) - U - norm_pull[:, None] * Q
    # First pass.
    enc, dec, _ = _backprop(prior, X, A1, DQ)
    g_enc += enc
    g_dec += dec


def loss_gradient(prior, batch, cfg, noise=None):
    """Gradient of training_loss w.r.t. (encoder, decoder) weights.

    Must be called with the same `noise` array as the loss evaluation it
    differentiates.  Elements skipped by the penalty's norm floor are
    skipped here too.
    """
    batch = _as_batch(batch)
    inputs, count = _data_inputs(batch, cfg, noise)
    A, out = _forward_batch(prior, inputs)
    g_enc, g_dec, _ = _backprop(prior, inputs, A, 2.0 / count * (out - batch))
    if cfg.nipr_weight > 0:
        _backprop_nipr(prior, batch, cfg.nipr_weight, g_enc, g_dec)
    return g_enc, g_dec


@dataclass
class TrainResult:
    """Final prior plus the per-epoch loss history and a divergence flag."""

    prior: ToyPrior
    losses: list
    diverged: bool = False


def train(prior0, dataset, cfg):
    """Fixed-step minibatch gradient descent, deterministic given cfg.seed.

    Batch order is reshuffled and denoising draws are resampled every epoch
    from one seeded stream.  A non-finite loss or parameter aborts the run,
    rolls back to the last finite epoch and flags divergence.  The recorded
    per-epoch loss uses a fixed evaluation noise draw so epochs are
    comparable.

    The dataset is checked once, here: a nonempty array of finite rows of
    prior0.n_ambient values each (a 1-d vector is one row), else ValueError.
    """
    dataset = _as_batch(dataset)
    if dataset.ndim != 2 or dataset.shape[1] != prior0.n_ambient:
        raise ValueError(f"dataset rows must have {prior0.n_ambient} values, got shape {dataset.shape}")
    if not np.isfinite(dataset).all():
        raise ValueError("dataset must be finite")
    rng = np.random.default_rng(cfg.seed)
    prior = prior0.copy()
    eval_noise = None
    if cfg.loss_kind == "pnp":
        eval_noise = cfg.noise_sigma * rng.standard_normal(dataset.shape)
    losses = [training_loss(prior, dataset, cfg, noise=eval_noise)]
    for _ in range(cfg.epochs):
        # Updates rebind the weights and never write into them, so the
        # epoch's starting arrays are its rollback point.
        epoch_start = prior.encoder_weights, prior.decoder_weights
        shuffled = dataset[rng.permutation(len(dataset))]
        # Each batch's denoising draw is its rows of one draw per epoch.
        noise = cfg.noise_sigma * rng.standard_normal(dataset.shape) if cfg.loss_kind == "pnp" else None
        finite = True
        # Diverging parameters overflow before the non-finite check catches
        # them; those float warnings are expected.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(dataset), cfg.batch_size):
                rows = slice(lo, lo + cfg.batch_size)
                g_enc, g_dec = loss_gradient(prior, shuffled[rows], cfg,
                                             noise=None if noise is None else noise[rows])
                enc = prior.encoder_weights = prior.encoder_weights - cfg.learning_rate * g_enc
                dec = prior.decoder_weights = prior.decoder_weights - cfg.learning_rate * g_dec
                # A finite sum of squares means every entry is finite; only an
                # overflowing one needs the entry-wise check.
                if (not math.isfinite(np.vdot(enc, enc) + np.vdot(dec, dec))
                        and not (np.isfinite(enc).all() and np.isfinite(dec).all())):
                    finite = False
                    break
            loss = training_loss(prior, dataset, cfg, noise=eval_noise) if finite else float("nan")
        if not math.isfinite(loss):
            prior.encoder_weights, prior.decoder_weights = epoch_start
            return TrainResult(prior=prior, losses=losses, diverged=True)
        losses.append(loss)
    return TrainResult(prior=prior, losses=losses, diverged=False)


def make_manifold_dataset(n_points, n_ambient, latent_dim, seed, curvature="tanh"):
    """Points on a low-dimensional manifold in R^n.

    The manifold is the image of latent draws t ~ N(0, I)
    under a random orthonormal frame, either linearly (a subspace) or after
    a coordinate-wise tanh (a mildly curved sheet).
    """
    _count("n_points", n_points, 1)
    _count("n_ambient", n_ambient, 1)
    if _count("latent_dim", latent_dim, 1) > n_ambient:
        raise ValueError(f"latent_dim must be at most n_ambient={n_ambient}, got {latent_dim!r}")
    _count("seed", seed)
    if curvature not in ("linear", "tanh"):
        raise ValueError(f"curvature must be 'linear' or 'tanh', got {curvature!r}")
    rng = np.random.default_rng(seed)
    frame = np.linalg.qr(rng.standard_normal((n_ambient, latent_dim)))[0]
    t = rng.standard_normal((n_points, latent_dim))
    coords = np.tanh(t) if curvature == "tanh" else t
    return coords @ frame.T


class LearnedProjection:
    """Use a trained prior as the model projection inside the descent loop."""

    _deterministic = True

    def __init__(self, prior):
        self.prior = prior

    def __call__(self, z):
        return prior_apply(self.prior, z)

    def __repr__(self):
        return f"LearnedProjection(n={self.prior.n_ambient}, d={self.prior.d_latent})"
