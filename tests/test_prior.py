import importlib.util
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gpgd.experiments import NIPR_PRIOR_LATENT, NIPR_TRAIN
from gpgd.prior import (
    PROJECTED_NORM_FLOOR,
    LearnedProjection,
    ToyPrior,
    TrainConfig,
    loss_gradient,
    make_manifold_dataset,
    nipr_penalty,
    prior_apply,
    random_prior,
    train,
    training_loss,
)


def _orthonormal_projector_prior(n=6, d=2, seed=0):
    # W_dec = W_enc.T with orthonormal rows makes P the orthogonal projector
    # onto the row space (and hence exactly idempotent).
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, d)))[0]  # (n, d), orthonormal columns
    return ToyPrior(q.T, q, "linear")


def test_prior_apply_projector_is_idempotent():
    p = _orthonormal_projector_prior()
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6)
    once = prior_apply(p, x)
    twice = prior_apply(p, once)
    assert np.allclose(twice, once, rtol=0, atol=1e-14)


def test_prior_apply_zero_weights():
    p = ToyPrior(np.zeros((2, 5)), np.zeros((5, 2)), "tanh")
    assert np.array_equal(prior_apply(p, np.ones(5)), np.zeros(5))


def test_prior_apply_hand_case():
    p = ToyPrior(np.array([[1.0, 0.0]]), np.array([[1.0], [0.0]]), "linear")
    assert np.array_equal(prior_apply(p, np.array([3.0, 5.0])), [3.0, 0.0])


def test_prior_validates_shapes():
    with pytest.raises(ValueError):
        ToyPrior(np.zeros((2, 5)), np.zeros((4, 2)), "linear")
    with pytest.raises(ValueError):
        ToyPrior(np.zeros((5, 5)), np.zeros((5, 5)), "linear")  # needs d < n
    # A latent dimension of 0 maps every input to 0, which no training can fix.
    with pytest.raises(ValueError, match=r"1 <= d_latent < n, got d_latent=0"):
        ToyPrior(np.zeros((0, 5)), np.zeros((5, 0)), "tanh")


def test_nipr_penalty_zero_for_projector():
    p = _orthonormal_projector_prior()
    rng = np.random.default_rng(2)
    batch = rng.standard_normal((6, 6))
    assert nipr_penalty(p, batch) < 1e-12


def test_nipr_penalty_hand_case():
    # 2 -> 1 -> 2 linear prior: P(x) = [2a, 0] where a = x[0].
    # P(P(x)) = [4a, 0]; penalty = ||[2a,0]|| / ||[2a,0]|| = |2a|/|2a| = 1...
    p = ToyPrior(np.array([[1.0, 0.0]]), np.array([[2.0], [0.0]]), "linear")
    x = np.array([3.0, 7.0])
    # P(x) = [6, 0], P(P(x)) = [12, 0], defect norm 6, scale norm 6.
    assert nipr_penalty(p, [x]) == 1.0


def test_nipr_penalty_skips_zero_projection():
    p = ToyPrior(np.array([[1.0, 0.0]]), np.array([[1.0], [0.0]]), "linear")
    batch = [np.array([0.0, 5.0]), np.array([2.0, 1.0])]  # first maps to 0
    with pytest.warns(UserWarning, match="skipped"):
        value = nipr_penalty(p, batch)
    assert np.isfinite(value)
    with pytest.raises(ValueError):
        nipr_penalty(p, [np.array([0.0, 5.0])])


def test_nipr_penalty_validates_the_batch_once():
    # P(x) = [2 x_0, 0], so every row with x_0 != 0 has penalty 1.
    p = ToyPrior(np.array([[1.0, 0.0]]), np.array([[2.0], [0.0]]), "linear")
    for empty in ([], np.zeros((0, 2))):
        with pytest.raises(ValueError, match="nonempty"):
            nipr_penalty(p, empty)
    # A bare vector is one row, so its zero projection skips every row.
    with pytest.raises(ValueError, match="norm floor"):
        nipr_penalty(p, np.array([0.0, 5.0]))
    rows = [np.array([3.0, 7.0]), np.array([-2.0, 1.0])]
    assert nipr_penalty(p, rows) == nipr_penalty(p, np.stack(rows)) == 2.0


def test_unnormalized_defect_vanishes_with_scale_but_penalty_does_not():
    # For the scaled family alpha*P, the raw idempotence defect
    # ||(aP)(aP)x - aP x|| = a * ||a P(P(x)) - P(x)|| shrinks to zero with
    # alpha, while the normalized penalty stays bounded away from zero.
    rng = np.random.default_rng(3)
    base = random_prior(8, 3, seed=4, nonlinearity="linear", scale=0.8)
    x = rng.standard_normal(8)
    raw_defects, penalties = [], []
    for alpha in (0.5, 0.1, 0.02, 0.004):
        scaled = ToyPrior(base.encoder_weights, alpha * base.decoder_weights, "linear")
        q = prior_apply(scaled, x)
        raw = np.linalg.norm(prior_apply(scaled, q) - q)
        raw_defects.append(raw)
        penalties.append(nipr_penalty(scaled, [x]))
    assert raw_defects == sorted(raw_defects, reverse=True)
    assert raw_defects[-1] < 1e-2 * raw_defects[0]
    assert min(penalties) > 0.5 * max(penalties)
    assert min(penalties) > 0.01


def test_scaled_family_homogeneity_identity():
    # ||(aP)o(aP)(x) - (aP)(x)|| = a * ||a P(P(x)) - P(x)|| for linear P.
    rng = np.random.default_rng(5)
    base = random_prior(7, 2, seed=6, nonlinearity="linear", scale=1.1)
    x = rng.standard_normal(7)
    for alpha in (0.5, 0.25, 0.05):
        scaled = ToyPrior(base.encoder_weights, alpha * base.decoder_weights, "linear")
        lhs = np.linalg.norm(prior_apply(scaled, prior_apply(scaled, x)) - prior_apply(scaled, x))
        q = prior_apply(base, x)
        rhs = alpha * np.linalg.norm(alpha * prior_apply(base, q) - q)
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


def test_penalty_bounded_away_from_zero_over_scales():
    base = random_prior(8, 3, seed=7, nonlinearity="linear", scale=0.9)
    x = np.random.default_rng(8).standard_normal(8)
    values = []
    for alpha in np.linspace(0.01, 0.5, 12):
        scaled = ToyPrior(base.encoder_weights, alpha * base.decoder_weights, "linear")
        values.append(nipr_penalty(scaled, [x]))
    assert min(values) > 0.01


def test_ae_loss_zero_on_reproduced_batch():
    p = _orthonormal_projector_prior(n=6, d=3, seed=9)
    rng = np.random.default_rng(10)
    latent = rng.standard_normal((4, 3))
    batch = latent @ p.decoder_weights.T  # points inside the projector's range
    cfg = TrainConfig(nipr_weight=0.0, loss_kind="ae")
    assert training_loss(p, batch, cfg) < 1e-20


def test_pnp_with_zero_noise_matches_ae_over_batch_size():
    p = random_prior(6, 3, seed=11, nonlinearity="tanh")
    rng = np.random.default_rng(12)
    batch = rng.standard_normal((5, 6))
    ae = training_loss(p, batch, TrainConfig(nipr_weight=0.0, loss_kind="ae"))
    pnp = training_loss(p, batch, TrainConfig(nipr_weight=0.0, loss_kind="pnp", noise_sigma=0.0))
    assert abs(pnp - ae / 5) < 1e-12


def test_default_penalty_weight():
    assert TrainConfig().nipr_weight == 0.005


@pytest.mark.parametrize("field, value", [
    ("nipr_weight", float("nan")),
    ("nipr_weight", float("inf")),
    ("noise_sigma", float("nan")),
    ("noise_sigma", float("inf")),
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("nipr_weight", True),
    ("noise_sigma", False),
    ("learning_rate", True),
    ("learning_rate", "0.01"),
    ("nipr_weight", "0.005"),
    ("epochs", -3),
    ("epochs", 2.5),
    ("batch_size", 0),
    ("batch_size", 8.0),
    ("batch_size", True),
    ("seed", -1),
    ("seed", 1.5),
    ("seed", True),
])
def test_train_config_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_zero_epochs_and_numpy_integers():
    cfg = TrainConfig(epochs=0, batch_size=np.int64(4))
    data = make_manifold_dataset(8, 5, 2, seed=0)
    p0 = random_prior(5, 2, seed=1)
    result = train(p0, data, cfg)
    assert len(result.losses) == 1 and not result.diverged
    assert np.array_equal(result.prior.encoder_weights, p0.encoder_weights)


def _fd_gradient(p, batch, cfg, noise, step=1e-5):
    g_enc = np.zeros_like(p.encoder_weights)
    g_dec = np.zeros_like(p.decoder_weights)
    for target, grad in ((p.encoder_weights, g_enc), (p.decoder_weights, g_dec)):
        it = np.nditer(target, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = target[idx]
            target[idx] = orig + step
            hi = training_loss(p, batch, cfg, noise=noise)
            target[idx] = orig - step
            lo = training_loss(p, batch, cfg, noise=noise)
            target[idx] = orig
            grad[idx] = (hi - lo) / (2 * step)
            it.iternext()
    return g_enc, g_dec


@pytest.mark.parametrize("loss_kind", ["ae", "pnp"])
@pytest.mark.parametrize("weight", [0.0, 0.005, 0.1])
def test_gradient_matches_finite_differences(loss_kind, weight):
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        p = random_prior(6, 3, seed=300 + seed, nonlinearity="tanh", scale=0.6)
        batch = rng.standard_normal((4, 6))
        noise = 0.1 * rng.standard_normal(batch.shape) if loss_kind == "pnp" else None
        cfg = TrainConfig(nipr_weight=weight, loss_kind=loss_kind, noise_sigma=0.1)
        g_enc, g_dec = loss_gradient(p, batch, cfg, noise=noise)
        f_enc, f_dec = _fd_gradient(p, batch, cfg, noise)
        scale = max(np.linalg.norm(f_enc), np.linalg.norm(f_dec), 1e-12)
        assert np.linalg.norm(g_enc - f_enc) / scale < 1e-4
        assert np.linalg.norm(g_dec - f_dec) / scale < 1e-4


def test_gradient_zero_batch_zero_weight():
    p = random_prior(5, 2, seed=13)
    batch = np.zeros((3, 5))
    cfg = TrainConfig(nipr_weight=0.0, loss_kind="ae")
    g_enc, g_dec = loss_gradient(p, batch, cfg)
    assert np.array_equal(g_enc, np.zeros_like(g_enc))
    assert np.array_equal(g_dec, np.zeros_like(g_dec))


def test_gradient_zero_at_global_minimum():
    p = _orthonormal_projector_prior(n=6, d=3, seed=14)
    rng = np.random.default_rng(15)
    batch = rng.standard_normal((4, 3)) @ p.decoder_weights.T
    cfg = TrainConfig(nipr_weight=0.0, loss_kind="ae")
    g_enc, g_dec = loss_gradient(p, batch, cfg)
    assert np.linalg.norm(g_enc) < 1e-8
    assert np.linalg.norm(g_dec) < 1e-8


def test_train_single_step_bounded_by_lr_times_gradient():
    p = random_prior(6, 2, seed=16, nonlinearity="tanh")
    rng = np.random.default_rng(17)
    data = rng.standard_normal((4, 6))
    lr = 1e-6
    cfg = TrainConfig(nipr_weight=0.0, loss_kind="ae", learning_rate=lr, epochs=1, batch_size=8, seed=0)
    g_enc, g_dec = loss_gradient(p, data, cfg)
    result = train(p, data, cfg)
    moved = np.linalg.norm(result.prior.encoder_weights - p.encoder_weights)
    bound = lr * np.linalg.norm(g_enc)
    assert moved <= bound * (1 + 1e-9)


def test_train_loss_nonincreasing_linear_prior():
    p = random_prior(8, 3, seed=18, nonlinearity="linear", scale=0.4)
    data = make_manifold_dataset(64, 8, 3, seed=19, curvature="linear")
    cfg = TrainConfig(nipr_weight=0.0, loss_kind="ae", learning_rate=0.002, epochs=40,
                      batch_size=64, seed=1)
    # train evaluates only the loss of the weights it returns, so the history
    # is read through prefix trainings: epochs=e ends where epoch e of the
    # full run does.
    history = [train(p, data, replace(cfg, epochs=e)).losses[-1] for e in range(cfg.epochs + 1)]
    assert history == _textbook_train(p, data, cfg)[1]
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-6)
    assert history[-1] < history[0]


def test_regularized_run_ends_more_idempotent():
    data = make_manifold_dataset(96, 10, 3, seed=20, curvature="tanh")
    data = data + 0.02 * np.random.default_rng(27).standard_normal(data.shape)
    p0 = random_prior(10, 4, seed=21, nonlinearity="tanh")
    base_cfg = dict(loss_kind="ae", learning_rate=0.01, epochs=120, batch_size=32, seed=2)
    plain = train(p0, data, TrainConfig(nipr_weight=0.0, **base_cfg))
    reg = train(p0, data, TrainConfig(nipr_weight=0.05, **base_cfg))
    assert not plain.diverged and not reg.diverged
    assert nipr_penalty(reg.prior, data) <= nipr_penalty(plain.prior, data)


def test_train_deterministic():
    data = make_manifold_dataset(32, 6, 2, seed=22)
    p0 = random_prior(6, 3, seed=23, nonlinearity="tanh")
    cfg = TrainConfig(nipr_weight=0.005, loss_kind="pnp", noise_sigma=0.05,
                      learning_rate=0.05, epochs=10, batch_size=8, seed=3)
    r1 = train(p0, data, cfg)
    r2 = train(p0, data, cfg)
    assert np.array_equal(r1.prior.encoder_weights, r2.prior.encoder_weights)
    assert r1.losses == r2.losses


def test_train_divergence_flag():
    data = make_manifold_dataset(32, 6, 2, seed=24)
    p0 = random_prior(6, 3, seed=25, nonlinearity="linear", scale=1.0)
    cfg = TrainConfig(nipr_weight=0.0, loss_kind="ae", learning_rate=1e6, epochs=5,
                      batch_size=8, seed=4)
    result = train(p0, data, cfg)
    assert result.diverged
    assert np.all(np.isfinite(result.prior.encoder_weights))
    assert np.all(np.isfinite(result.prior.decoder_weights))


def test_learned_projection_wraps_prior():
    p = _orthonormal_projector_prior()
    proj = LearnedProjection(p)
    x = np.random.default_rng(26).standard_normal(6)
    assert np.array_equal(proj(x), prior_apply(p, x))


# The training loop as first written: norms by np.linalg.norm, gradients
# accumulated into zero-filled arrays, a copy of the weights every epoch and
# an entry-wise finiteness check after every step.  train and loss_gradient
# must match it byte for byte.
def _textbook_forward(enc, dec, kind, X):
    H = X @ enc.T
    A = np.tanh(H) if kind == "tanh" else H
    return A, A @ dec.T


def _textbook_deriv(A, kind):
    return 1.0 - A * A if kind == "tanh" else np.ones_like(A)


def _textbook_loss(enc, dec, kind, X, cfg, noise):
    if cfg.loss_kind == "pnp":
        data = float(np.sum((_textbook_forward(enc, dec, kind, X + noise)[1] - X) ** 2)) / len(X)
    else:
        data = float(np.sum((_textbook_forward(enc, dec, kind, X)[1] - X) ** 2))
    if cfg.nipr_weight > 0:
        Q = _textbook_forward(enc, dec, kind, X)[1]
        qn = np.linalg.norm(Q, axis=1)
        used = qn > PROJECTED_NORM_FLOOR
        gn = np.linalg.norm(_textbook_forward(enc, dec, kind, Q)[1] - Q, axis=1)
        values = np.where(used, gn / np.where(used, qn, 1.0), 0.0)
        data += cfg.nipr_weight * float(values.sum()) / int(used.sum())
    return data


def _textbook_gradient(enc, dec, kind, X, cfg, noise):
    g_enc, g_dec = np.zeros_like(enc), np.zeros_like(dec)
    X_in, weight = (X + noise, 1.0 / len(X)) if cfg.loss_kind == "pnp" else (X, 1.0)
    A, out = _textbook_forward(enc, dec, kind, X_in)
    d_out = 2.0 * weight * (out - X)
    g_dec += d_out.T @ A
    g_enc += ((d_out @ dec) * _textbook_deriv(A, kind)).T @ X_in
    if cfg.nipr_weight == 0:
        return g_enc, g_dec
    A1, Q = _textbook_forward(enc, dec, kind, X)
    qn = np.linalg.norm(Q, axis=1)
    weight = cfg.nipr_weight / int((qn > PROJECTED_NORM_FLOOR).sum())
    A2, PQ = _textbook_forward(enc, dec, kind, Q)
    G = PQ - Q
    gn = np.linalg.norm(G, axis=1)
    active = (qn > PROJECTED_NORM_FLOOR) & (gn > 0.0)
    if not np.any(active):
        return g_enc, g_dec
    safe_qn = np.where(active, qn, 1.0)
    safe_gn = np.where(active, gn, 1.0)
    U = np.where(active, weight / (safe_gn * safe_qn), 0.0)[:, None] * G
    g_dec += U.T @ A2
    T2 = (U @ dec) * _textbook_deriv(A2, kind)
    g_enc += T2.T @ Q
    norm_pull = np.where(active, weight * safe_gn / safe_qn**3, 0.0)
    DQ = T2 @ enc - U - norm_pull[:, None] * Q
    g_dec += DQ.T @ A1
    g_enc += ((DQ @ dec) * _textbook_deriv(A1, kind)).T @ X
    return g_enc, g_dec


def _largest_entry(data, cfg):
    # r: the largest |entry| of the loss's targets and inputs, at least 1.
    if cfg.loss_kind != "pnp":
        return max(1.0, np.abs(data).max())
    eval_noise = cfg.noise_sigma * np.random.default_rng(cfg.seed).standard_normal(data.shape)
    return max(1.0, np.abs(data).max(), np.abs(data + eval_noise).max())


def _certified(enc, dec, cfg, r, rows):
    # The finiteness certificate as stated: with s the weights' sum of
    # squares and B = n d (1 + sqrt(s))^2 r, both bounds below 1e300.
    n, d = enc.shape[1], enc.shape[0]
    with np.errstate(over="ignore"):
        B = n * d * (1 + np.sqrt(np.sum(enc**2) + np.sum(dec**2))) ** 2 * r
        return bool(4 * n * rows * B**4 < 1e300
                    and (1 + cfg.nipr_weight) * 2 * rows * np.sqrt(n) * 1e12 * B**2 < 1e300)


# Returns the weights, every epoch's loss, what made it roll back (None,
# "weights" or "loss") and the epochs whose weights the certificate covers.
def _textbook_train(prior0, data, cfg):
    enc, dec, kind = prior0.encoder_weights.copy(), prior0.decoder_weights.copy(), prior0.nonlinearity
    rng = np.random.default_rng(cfg.seed)
    eval_noise = cfg.noise_sigma * rng.standard_normal(data.shape) if cfg.loss_kind == "pnp" else None
    r = _largest_entry(data, cfg)
    losses, covered = [_textbook_loss(enc, dec, kind, data, cfg, eval_noise)], []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            start = enc.copy(), dec.copy()
            order = rng.permutation(len(data))
            for lo in range(0, len(data), cfg.batch_size):
                batch = data[order[lo : lo + cfg.batch_size]]
                noise = cfg.noise_sigma * rng.standard_normal(batch.shape) if cfg.loss_kind == "pnp" else None
                g_enc, g_dec = _textbook_gradient(enc, dec, kind, batch, cfg, noise)
                enc = enc - cfg.learning_rate * g_enc
                dec = dec - cfg.learning_rate * g_dec
                if not (np.all(np.isfinite(enc)) and np.all(np.isfinite(dec))):
                    return start, losses, "weights", covered
            loss = _textbook_loss(enc, dec, kind, data, cfg, eval_noise)
            if not np.isfinite(loss):
                return start, losses, "loss", covered
            losses.append(loss)
            if _certified(enc, dec, cfg, r, len(data)):
                covered.append(epoch)
    return (enc, dec), losses, None, covered


def _coordinate_projector(n, d):
    # P keeps the first d coordinates; every product is exact, so P(P(x))
    # equals P(x) bit for bit.  The zero weights are -0.0, which a zero
    # gradient must leave as it is.
    enc = -np.zeros((d, n))
    enc[:, :d] = np.eye(d)
    return ToyPrior(enc, enc.T.copy(), "linear")


def _partly_idempotent_prior(n):
    # P(x) = (x_1, x_2, 2 x_3, 0, ...): every product is exact, so a row with
    # x_3 = 0 is a fixed point bit for bit (zero defect, masked out of the
    # penalty's gradient) and every other row has a nonzero defect.
    enc = np.zeros((3, n))
    enc[:, :3] = np.eye(3)
    dec = np.zeros((n, 3))
    dec[:3] = np.diag([1.0, 1.0, 2.0])
    return ToyPrior(enc, dec, "linear")


def _bit_case(name):
    data = make_manifold_dataset(45, 8, 2, seed=30, curvature="tanh")
    data = data + 0.05 * np.random.default_rng(35).standard_normal(data.shape)
    cfg = dict(nipr_weight=0.005, loss_kind="ae", noise_sigma=0.05, learning_rate=0.05,
               epochs=12, batch_size=8, seed=31)
    if name.startswith("plain"):
        _, loss_kind, weight, kind = name.split("-")
        cfg.update(loss_kind=loss_kind, nipr_weight=float(weight))
        return random_prior(8, 3, seed=32, nonlinearity=kind), data, cfg
    if name == "below_floor":
        data[::5] = 0.0
        return random_prior(8, 3, seed=32), data, dict(cfg, loss_kind="pnp")
    if name == "idempotent":
        data[:, 3:] = 0.0
        return _coordinate_projector(8, 3), data, cfg
    if name == "partly_idempotent":
        data[::2, 2] = 0.0
        return _partly_idempotent_prior(8), data, cfg
    if name == "diverging":
        return random_prior(8, 3, seed=33, scale=1.0), data, dict(cfg, learning_rate=1.0, epochs=40)
    if name == "overflowing_loss":
        # One step per epoch; its cubic growth takes certified weights to
        # finite ones whose loss overflows.
        p = random_prior(8, 3, seed=33, scale=1.0, nonlinearity="linear")
        return p, data, dict(cfg, learning_rate=1.0, batch_size=64)
    if name.endswith("_bound"):
        # Saturated tanh units pass no gradient to the encoder, and a tiny
        # step leaves the decoder's bits, so the weights stay where they are
        # put: 0.5% inside or outside the certificate.  The data term's bound
        # binds at the default weight (r from the data), and the penalty's
        # at 1e140 (r from the data plus the evaluation noise).
        if name == "past_penalty_bound":
            cfg.update(loss_kind="pnp", noise_sigma=1.0, nipr_weight=1e140)
        else:
            data *= 3.0
        cfg.update(learning_rate=1e-100, epochs=4)
        p, train_cfg = random_prior(8, 3, seed=34), TrainConfig(**cfg)
        lo, hi = 0.0, 100.0  # log10 of the weights' scale
        for _ in range(60):
            mid = (lo + hi) / 2
            inside = _certified(10**mid * p.encoder_weights, 10**mid * p.decoder_weights,
                                train_cfg, _largest_entry(data, train_cfg), len(data))
            lo, hi = (mid, hi) if inside else (lo, mid)
        scale = 10**lo / 1.005 if name == "inside_data_bound" else 10**hi * 1.005
        return ToyPrior(scale * p.encoder_weights, scale * p.decoder_weights, "tanh"), data, cfg
    assert name == "overflowing_sum"
    p = random_prior(8, 3, seed=34)
    return ToyPrior(1e155 * p.encoder_weights, p.decoder_weights, "tanh"), data, cfg


@pytest.mark.parametrize("case", [
    *(f"plain-{loss}-{weight}-{kind}" for loss in ("ae", "pnp") for weight in ("0", "0.005")
      for kind in ("tanh", "linear")),
    "below_floor", "idempotent", "partly_idempotent", "diverging", "overflowing_sum",
    "overflowing_loss", "inside_data_bound", "past_data_bound", "past_penalty_bound",
])
def test_train_matches_textbook_loop_bit_for_bit(case):
    p0, data, cfg = _bit_case(case)
    cfg = TrainConfig(**cfg)
    before = p0.encoder_weights.tobytes(), p0.decoder_weights.tobytes()
    result = train(p0, data, cfg)
    (enc, dec), losses, rollback, covered = _textbook_train(p0, data, cfg)
    assert (p0.encoder_weights.tobytes(), p0.decoder_weights.tobytes()) == before
    assert result.diverged == (rollback is not None) == (case in ("diverging", "overflowing_loss"))
    # Every float entry is the textbook loss; the None entries are exactly
    # the covered epochs, save the returned weights' own, always evaluated.
    last = len(losses) - 1
    assert result.losses == [None if e in covered and e < last else loss for e, loss in enumerate(losses)]
    assert all(type(loss) is float for loss in (result.losses[0], result.losses[-1]))
    if case == "diverging":
        assert rollback == "weights"
        assert 2 < len(losses) < cfg.epochs + 1  # rolls back to a trained epoch
    elif case == "overflowing_loss":
        # Finite weights whose loss overflows roll back to a covered epoch,
        # whose None entry is evaluated for the weights returned.
        assert rollback == "loss" and last in covered and last - 1 in covered
    else:
        assert len(losses) == cfg.epochs + 1
    if case.startswith("plain-") or case == "inside_data_bound":
        assert covered == list(range(1, cfg.epochs + 1))
    if case in ("overflowing_sum", "past_data_bound", "past_penalty_bound"):
        assert covered == [] and None not in result.losses
    assert np.array_equal(result.prior.encoder_weights, enc)
    assert result.prior.encoder_weights.tobytes() == enc.tobytes()
    assert result.prior.decoder_weights.tobytes() == dec.tobytes()
    if case == "idempotent":
        assert np.signbit(enc).sum() == 3 * 5
    if case == "partly_idempotent":
        # The first minibatch mixes fixed points with active rows.
        first = data[np.random.default_rng(cfg.seed).permutation(len(data))[:cfg.batch_size]]
        fixed = [np.array_equal(prior_apply(p0, prior_apply(p0, x)), prior_apply(p0, x)) for x in first]
        assert 0 < sum(fixed) < len(first)
    if case == "overflowing_sum":
        assert np.all(np.isfinite(enc))
        assert not math.isfinite(np.vdot(enc, enc))


def test_train_raises_when_every_projected_row_is_below_the_floor():
    data = make_manifold_dataset(20, 8, 2, seed=36)
    p0 = random_prior(8, 3, seed=37, scale=1e-8)
    assert np.all(np.linalg.norm(data @ p0.encoder_weights.T @ p0.decoder_weights.T, axis=1)
                  < PROJECTED_NORM_FLOOR)
    for loss_kind in ("ae", "pnp"):
        cfg = TrainConfig(loss_kind=loss_kind, noise_sigma=0.05, epochs=3, batch_size=8)
        with pytest.raises(ValueError, match="norm floor"):
            train(p0, data, cfg)


def test_nipr_protocol_evaluates_the_loss_only_at_the_ends():
    # The nipr study's trainings: the certificate covers every epoch, so the
    # dataset loss is evaluated twice, not once per epoch.
    points = make_manifold_dataset(300, 32, 3, seed=38, curvature="tanh")
    data = points + 0.01 * np.random.default_rng(39).standard_normal(points.shape)
    p0 = random_prior(32, NIPR_PRIOR_LATENT, seed=40, nonlinearity="tanh")
    result = train(p0, data, TrainConfig(nipr_weight=0.005, seed=41, **NIPR_TRAIN))
    assert not result.diverged and len(result.losses) == NIPR_TRAIN["epochs"] + 1
    assert all(loss is None for loss in result.losses[1:-1])
    assert all(type(loss) is float and math.isfinite(loss) for loss in (result.losses[0], result.losses[-1]))


def test_benchmark_counts_the_epochs_trained():
    # perfbench/spans.py counts a training's epochs as len(losses) - 1, so
    # the history keeps one entry per epoch boundary, None or not.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for case in ("plain-pnp-0.005-tanh", "overflowing_loss"):
        p0, data, cfg = _bit_case(case)
        cfg = TrainConfig(**cfg)
        result = train(p0, data, cfg)
        _, losses, rollback, _ = _textbook_train(p0, data, cfg)
        tracer = spans.Tracer()
        tracer._after_train((p0, data, cfg), {}, result)
        trained = cfg.epochs if rollback is None else len(losses) - 1
        assert 0 < trained == tracer.counts["prior.epochs"]
        assert tracer.counts["prior.train_diverged"] == int(rollback is not None)


@pytest.mark.parametrize("loss_kind, weight", [("pnp", 0.005), ("pnp", 0.0), ("ae", 0.005), ("ae", 0.0)])
def test_train_rejects_an_empty_dataset(loss_kind, weight):
    cfg = TrainConfig(nipr_weight=weight, loss_kind=loss_kind, noise_sigma=0.1, epochs=2)
    p0 = random_prior(5, 2, seed=1)
    for empty in ([], np.zeros((0, 5)), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="nonempty"):
            train(p0, empty, cfg)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_train_rejects_non_finite_data(bad):
    data = make_manifold_dataset(8, 5, 2, seed=0)
    data[3, 1] = bad
    for weight in (0.0, 0.005):
        with pytest.raises(ValueError, match="finite"):
            train(random_prior(5, 2, seed=1), data, TrainConfig(nipr_weight=weight, epochs=2))


@pytest.mark.parametrize("shape", [(8, 7), (8, 4), (7,), (2, 4, 5)])
def test_train_rejects_rows_of_the_wrong_width(shape):
    data = np.ones(shape)
    with pytest.raises(ValueError, match="5 values"):
        train(random_prior(5, 2, seed=1), data, TrainConfig(epochs=2))


def test_train_takes_a_vector_as_one_sample():
    x = make_manifold_dataset(1, 5, 2, seed=0)[0]
    p0 = random_prior(5, 2, seed=1)
    cfg = TrainConfig(epochs=3, batch_size=4)
    one = train(p0, x, cfg)
    rows = train(p0, x[None, :], cfg)
    assert one.losses == rows.losses and len(one.losses) == 4
    assert one.prior.encoder_weights.tobytes() == rows.prior.encoder_weights.tobytes()


@pytest.mark.parametrize("loss_kind", ["ae", "pnp"])
def test_loss_and_gradient_reject_an_empty_batch(loss_kind):
    p = random_prior(5, 2, seed=1)
    for weight in (0.0, 0.005):
        cfg = TrainConfig(nipr_weight=weight, loss_kind=loss_kind)
        for empty in ([], np.zeros((0, 5))):
            with pytest.raises(ValueError, match="nonempty"):
                training_loss(p, empty, cfg)
            with pytest.raises(ValueError, match="nonempty"):
                loss_gradient(p, empty, cfg)


@pytest.mark.parametrize("args, match", [
    ((10, 4, 6, 0), "latent_dim"),
    ((10, 4, 0, 0), "latent_dim"),
    ((10, 4, -1, 0), "latent_dim"),
    ((10, 4, 2.0, 0), "latent_dim"),
    ((0, 4, 2, 0), "n_points"),
    ((3.0, 4, 2, 0), "n_points"),
    ((True, 4, 2, 0), "n_points"),
    ((10, 0, 1, 0), "n_ambient"),
    ((10, 4.0, 2, 0), "n_ambient"),
    ((10, 4, 2, -1), "seed"),
    ((10, 4, 2, 1.5), "seed"),
    ((10, 4, 2, True), "seed"),
    ((10, 4, 2, None), "seed"),
])
def test_make_manifold_dataset_rejects(args, match):
    with pytest.raises(ValueError, match=match):
        make_manifold_dataset(*args)


def test_make_manifold_dataset_accepts_the_edges():
    assert make_manifold_dataset(1, 1, 1, 0).shape == (1, 1)
    full = make_manifold_dataset(np.int64(6), 4, 4, np.int64(2), curvature="linear")
    assert full.shape == (6, 4) and np.linalg.matrix_rank(full) == 4


@pytest.mark.parametrize("args, kwargs, match", [
    ((0, 0, 1), {}, "n must"),
    ((5, 0, 1), {}, "d_latent"),
    ((5, 2.0, 1), {}, "d_latent"),
    ((5, 2, -1), {}, "seed"),
    ((5, 2, 1.5), {}, "seed"),
    ((5, 2, None), {}, "seed"),
    ((5, 2, 1), {"scale": float("nan")}, "scale"),
    ((5, 2, 1), {"scale": -1.0}, "scale"),
    ((5, 5, 1), {}, "d_latent < n"),
])
def test_random_prior_rejects_without_a_warning(args, kwargs, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            random_prior(*args, **kwargs)


def _gradient_case(name):
    rng = np.random.default_rng(40)
    data = make_manifold_dataset(32, 32, 3, seed=41, curvature="tanh")
    data = data + 0.01 * rng.standard_normal(data.shape)
    noise = 0.02 * rng.standard_normal(data.shape)
    cfg = dict(nipr_weight=0.005, loss_kind="pnp", noise_sigma=0.02)
    if name.startswith("plain"):
        _, loss_kind, weight, kind = name.split("-")
        cfg.update(loss_kind=loss_kind, nipr_weight=float(weight))
        return random_prior(32, 6, seed=42, nonlinearity=kind), data, noise, cfg
    if name == "tail":
        return random_prior(32, 6, seed=42), data[:12], noise[:12], cfg
    if name == "below_floor":
        data[::3] = 0.0
        return random_prior(32, 6, seed=42), data, noise, cfg
    assert name == "idempotent"
    data[:, 3:] = 0.0
    return _coordinate_projector(32, 3), data, noise, dict(cfg, loss_kind="ae")


@pytest.mark.parametrize("case", [
    *(f"plain-{loss}-{weight}-{kind}" for loss in ("ae", "pnp") for weight in ("0", "0.005")
      for kind in ("tanh", "linear")),
    "tail", "below_floor", "idempotent",
])
def test_loss_gradient_matches_the_layered_passes_byte_for_byte(case):
    # The layered passes: _textbook_gradient's forward and backward pass
    # through each layer, once per term of the loss.
    p, batch, noise, cfg = _gradient_case(case)
    cfg = TrainConfig(**cfg)
    noise = noise if cfg.loss_kind == "pnp" else None
    before = p.encoder_weights.tobytes(), p.decoder_weights.tobytes()
    g_enc, g_dec = loss_gradient(p, batch, cfg, noise=noise)
    l_enc, l_dec = _textbook_gradient(p.encoder_weights, p.decoder_weights, p.nonlinearity, batch,
                                      cfg, noise)
    assert (p.encoder_weights.tobytes(), p.decoder_weights.tobytes()) == before
    assert g_enc.tobytes() == l_enc.tobytes() and g_dec.tobytes() == l_dec.tobytes()
    if case == "below_floor":
        Q = np.dot(np.tanh(np.dot(batch, p.encoder_weights.T)), p.decoder_weights.T)
        assert 0 < np.count_nonzero(np.linalg.norm(Q, axis=1) <= PROJECTED_NORM_FLOOR) < len(batch)
    if case == "idempotent":
        # Every row is a fixed point, so the penalty adds nothing at all.
        bare = loss_gradient(p, batch, TrainConfig(**dict(vars(cfg), nipr_weight=0.0)))
        assert g_enc.tobytes() == bare[0].tobytes() and g_dec.tobytes() == bare[1].tobytes()
        assert nipr_penalty(p, batch) == 0.0


@pytest.mark.parametrize("fn", [training_loss, loss_gradient])
def test_pnp_noise_must_match_the_batch(fn):
    p = random_prior(5, 2, seed=1)
    rng = np.random.default_rng(2)
    batch, noise = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
    for weight in (0.0, 0.005):
        cfg = TrainConfig(nipr_weight=weight, loss_kind="pnp")
        # One draw per element: a vector no longer spreads over every row,
        # and a row count that differs is named, not left to numpy.
        for bad in (noise[0], noise[:3], noise[:, :4], noise[None]):
            with pytest.raises(ValueError, match=r"noise of shape .* does not match the batch's \(4, 5\)"):
                fn(p, batch, cfg, noise=bad)
        # A vector is one row, as for the batch.
        one = fn(p, batch[:1], cfg, noise=noise[0])
        rows = fn(p, batch[0], cfg, noise=noise[:1])
        if fn is loss_gradient:
            one, rows = [g.tobytes() for g in one], [g.tobytes() for g in rows]
        assert one == rows
        # 'ae' draws no noise and reads none.
        fn(p, batch, TrainConfig(nipr_weight=weight, loss_kind="ae"), noise=noise[0])


@pytest.mark.parametrize("enc_shape, dec_shape, name, shape", [
    ((5,), (5, 2), "encoder_weights", r"\(5,\)"),
    ((2, 5, 1), (5, 2), "encoder_weights", r"\(2, 5, 1\)"),
    ((2, 5), (10,), "decoder_weights", r"\(10,\)"),
    ((2, 5), (5, 2, 1), "decoder_weights", r"\(5, 2, 1\)"),
    ((), (3,), "encoder_weights", r"\(\)"),
])
def test_prior_weights_must_be_2d(enc_shape, dec_shape, name, shape):
    with pytest.raises(ValueError, match=rf"{name} must be 2-d, got shape {shape}"):
        ToyPrior(np.zeros(enc_shape), np.zeros(dec_shape), "tanh")
