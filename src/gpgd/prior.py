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
    "ToyPrior", "TrainConfig", "TrainResult", "prior_apply", "nipr_penalty", "training_loss",
    "loss_gradient", "train", "make_manifold_dataset", "LearnedProjection", "random_prior",
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
        for name in ("encoder_weights", "decoder_weights"):
            if getattr(self, name).ndim != 2:
                raise ValueError(f"{name} must be 2-d, got shape {getattr(self, name).shape}")
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


# Products are np.dot, 0.3-0.4 us faster than `@` here with the same bits; sigma overwrites them.
def prior_apply(prior, x):
    """P(x) = W_dec sigma(W_enc x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (prior.n_ambient,):
        raise ValueError(f"expected vector of length {prior.n_ambient}, got shape {x.shape}")
    h = np.dot(prior.encoder_weights, x)
    if prior.nonlinearity == "tanh":
        np.tanh(h, out=h)
    return np.dot(prior.decoder_weights, h)


def _nipr_forward(prior, X):
    """Both passes of the penalty, (A1, Q, |Q|, used, n_used, A2, G, |G|),
    with Q = P(X), G = P(Q) - Q and `used` the n_used rows above the floor;
    row norms as np.linalg.norm(M, axis=1) runs them, without its dispatch.

    Raises ValueError when no row clears the floor: nothing to normalize.
    """
    enc_t, dec_t = prior.encoder_weights.T, prior.decoder_weights.T
    tanh = prior.nonlinearity == "tanh"
    A1 = np.dot(X, enc_t)
    if tanh:
        np.tanh(A1, out=A1)
    Q = np.dot(A1, dec_t)
    qn = np.sqrt(np.add.reduce(Q * Q, axis=1))
    used = qn > PROJECTED_NORM_FLOOR
    n_used = int(np.count_nonzero(used))
    if not n_used:
        raise ValueError("all batch elements had ||P(x)|| below the norm floor")
    A2 = np.dot(Q, enc_t)
    if tanh:
        np.tanh(A2, out=A2)
    G = np.dot(A2, dec_t)
    G -= Q
    return A1, Q, qn, used, n_used, A2, G, np.sqrt(np.add.reduce(G * G, axis=1))


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
    (a mean).  The targets are the clean batch either way.  A 'pnp' noise
    is taken as rows, a 1-d vector as one, and must match the batch."""
    if cfg.loss_kind == "ae":
        return batch, 1
    if noise is None:
        return batch + 0.0, len(batch)
    noise = np.asarray(noise, dtype=float)
    if noise.ndim == 1:
        noise = noise[None, :]
    if noise.shape != batch.shape:
        raise ValueError(f"noise of shape {noise.shape} does not match the batch's {batch.shape}")
    return batch + noise, len(batch)


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
    H = np.dot(inputs, prior.encoder_weights.T)
    if prior.nonlinearity == "tanh":
        np.tanh(H, out=H)
    loss = float(np.sum((np.dot(H, prior.decoder_weights.T) - batch) ** 2)) / count
    if cfg.nipr_weight > 0:
        values, n_used = _nipr_terms(prior, batch)
        loss += cfg.nipr_weight * float(values.sum()) / n_used
    return loss


def loss_gradient(prior, batch, cfg, noise=None):
    """Gradient of training_loss w.r.t. (encoder, decoder) weights.

    Must be called with the same `noise` array as the loss evaluation it
    differentiates.  Elements skipped by the penalty's norm floor are
    skipped here too, and rows of zero defect add nothing to its part.
    """
    batch = _as_batch(batch)
    inputs, count = _data_inputs(batch, cfg, noise)
    enc, dec = prior.encoder_weights, prior.decoder_weights
    tanh = prior.nonlinearity == "tanh"
    A = np.dot(inputs, enc.T)
    if tanh:
        np.tanh(A, out=A)
    # The output gradient, in place: the bits of 2.0 / count * (out - batch).
    D = np.dot(A, dec.T)
    D -= batch
    D *= 2.0 / count
    d_H = np.dot(D, dec)
    if tanh:
        d_H *= 1.0 - A * A
    g_enc, g_dec = np.dot(d_H.T, inputs), np.dot(D.T, A)
    if cfg.nipr_weight <= 0:
        return g_enc, g_dec
    # The penalty, nipr_weight times the mean of ||P(Q) - Q|| / ||Q||, Q = P(x).
    A1, Q, qn, used, n_used, A2, G, gn = _nipr_forward(prior, batch)
    weight = cfg.nipr_weight / n_used
    active = used & (gn > 0.0)
    if not np.count_nonzero(active):
        return g_enc, g_dec
    U = np.divide(weight, gn * qn, out=np.zeros(len(qn)), where=active)[:, None] * G
    # Second pass: parameters see U directly.
    T2 = np.dot(U, dec)
    if tanh:
        T2 *= 1.0 - A2 * A2
    g_enc += np.dot(T2.T, Q)
    g_dec += np.dot(U.T, A2)
    # Gradient flowing into Q: through the second pass, the -Q inside the
    # defect, and the 1/||Q|| normalization.
    norm_pull = np.divide(weight * gn, qn**3, out=np.zeros(len(qn)), where=active)
    DQ = np.dot(T2, enc) - U - norm_pull[:, None] * Q
    # First pass.
    d_H = np.dot(DQ, dec)
    if tanh:
        d_H *= 1.0 - A1 * A1
    g_enc += np.dot(d_H.T, batch)
    g_dec += np.dot(DQ.T, A1)
    return g_enc, g_dec


@dataclass
class TrainResult:
    """Final prior, divergence flag and per-epoch losses, None where not evaluated."""

    prior: ToyPrior
    losses: list
    diverged: bool = False


def train(prior0, dataset, cfg):
    """Fixed-step minibatch gradient descent, deterministic given cfg.seed.

    Batch order is reshuffled and denoising draws are resampled every epoch
    from one seeded stream.  A non-finite loss or parameter aborts the run,
    rolls back to the last finite epoch and flags divergence.  The recorded
    loss uses a fixed evaluation noise draw so epochs are comparable; it is
    None for unreturned weights that the certificate below proves finite.

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
    pnp, size, lr = cfg.loss_kind == "pnp", cfg.batch_size, cfg.learning_rate
    eval_noise = cfg.noise_sigma * rng.standard_normal(dataset.shape) if pnp else None
    losses = [training_loss(prior, dataset, cfg, noise=eval_noise)]
    # Finiteness certificate.  Weights are at most sqrt(s), s = ||enc||_F^2 + ||dec||_F^2, inputs
    # and targets at most r, and |tanh z| <= |z|, so P(x) and P(x) - x are entry-wise at most
    # B = n d (1 + sqrt(s))^2 r >= 1, P(P(x)) at most B^2 and the defect 2 B^2: the data term is at
    # most n N B^2, a row's squared defect 4 n B^4 <= 4 n N B^4 and, dividing only by ||Q|| > 1e-12,
    # the weighted penalty w 2 N sqrt(n) 1e12 B^2.  Both bounds below 1e300 (s < s_max), no product,
    # square, sum or ratio in training_loss overflows; the factor 1e8 below 1.8e308 absorbs rounding.
    n, N = prior.n_ambient, len(dataset)
    r = max(1.0, np.abs(dataset).max(), np.abs(dataset + eval_noise).max() if pnp else 1.0)
    b_max = min((1e300 / (4*n*N)) ** 0.25, (1e300 / ((1 + cfg.nipr_weight) * 2e12 * N * n**0.5)) ** 0.5)
    s_max = max(0.0, math.sqrt(b_max / (n * prior.d_latent * r)) - 1.0) ** 2
    for _ in range(cfg.epochs):
        # Updates rebind the weights and never write into them: the epoch's start is its rollback point.
        epoch_start = prior.encoder_weights, prior.decoder_weights
        shuffled = dataset[rng.permutation(len(dataset))]
        # Each batch's denoising draw is its rows of one draw per epoch.
        if pnp:
            noise = rng.standard_normal(dataset.shape)
            noise *= cfg.noise_sigma
        # Diverging parameters overflow before the non-finite check catches
        # them; those float warnings are expected.
        with np.errstate(over="ignore", invalid="ignore"):
            # loss_gradient and training_loss are looked up in the module at
            # each call, so a wrapper set on the module sees every call.
            for lo in range(0, len(dataset), size):
                g_enc, g_dec = loss_gradient(prior, shuffled[lo:lo + size], cfg,
                                             noise=noise[lo:lo + size] if pnp else None)
                g_enc *= lr
                g_dec *= lr
                enc = prior.encoder_weights = prior.encoder_weights - g_enc
                dec = prior.decoder_weights = prior.decoder_weights - g_dec
                # A finite sum of squares means finite entries; only an overflow looks entry-wise.
                s = np.vdot(enc, enc) + np.vdot(dec, dec)
                if not math.isfinite(s) and not (np.isfinite(enc).all() and np.isfinite(dec).all()):
                    loss = float("nan")
                    break
            else:
                loss = None if s < s_max else training_loss(prior, dataset, cfg, noise=eval_noise)
        if loss is not None and not math.isfinite(loss):
            prior.encoder_weights, prior.decoder_weights = epoch_start
            break
        losses.append(loss)
    if losses[-1] is None:  # the returned weights, certified finite
        losses[-1] = training_loss(prior, dataset, cfg, noise=eval_noise)
    return TrainResult(prior=prior, losses=losses, diverged=len(losses) <= cfg.epochs)


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
