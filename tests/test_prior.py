import numpy as np
import pytest

from gpgd.prior import (
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
    result = train(p, data, cfg)
    diffs = np.diff(result.losses)
    assert np.all(diffs <= 1e-6)
    assert result.losses[-1] < result.losses[0]


def test_regularized_run_ends_more_idempotent():
    data = make_manifold_dataset(96, 10, 3, seed=20, curvature="tanh", ambient_noise=0.02)
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
