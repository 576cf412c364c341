import numpy as np
import pytest

from gpgd.constants import (
    TheoremBound,
    _support_chunks,
    exact_ric_sparse,
    mc_beta,
    null_space_ric_floor,
    operator_norm,
    theorem_bound_eval,
)
from gpgd.projections import HARD_THRESHOLD_BETA, HardThreshold, PAlpha, hard_threshold, sparse_signal


def test_exact_ric_identity_is_zero():
    assert exact_ric_sparse(np.eye(9), 2) == 0.0


def test_exact_ric_scaled_identity():
    for c in (0.25, 1.5, 3.0):
        delta = exact_ric_sparse(c * np.eye(8), 2)
        assert abs(delta - abs(c - 1.0)) < 1e-12


def test_exact_ric_dominates_monte_carlo():
    rng = np.random.default_rng(0)
    B = np.eye(12) + 0.3 * rng.standard_normal((12, 12))
    exact = exact_ric_sparse(B, 1)
    # Random 2-sparse directions give lower bounds on the exact constant.
    sample_rng = np.random.default_rng(1)
    sampled = 0.0
    for _ in range(10_000):
        v = sparse_signal(12, 2, sample_rng)
        sampled = max(sampled, float(np.linalg.norm((B - np.eye(12)) @ v) / np.linalg.norm(v)))
    assert sampled <= exact + 1e-12
    # The sampled bound should land reasonably close on this small instance.
    assert sampled >= 0.5 * exact


def test_exact_ric_enumeration_guard():
    with pytest.raises(ValueError, match="enumeration guard"):
        exact_ric_sparse(np.eye(200), 10)


def test_cached_supports_are_read_only():
    chunks = _support_chunks(9, 2)
    assert _support_chunks(9, 2) is chunks
    for chunk in chunks:
        with pytest.raises(ValueError, match="read-only"):
            chunk[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            chunk.base[0] = 1


@pytest.mark.parametrize("call, name", [
    (lambda: exact_ric_sparse(np.eye(4), 1.5), "k"),
    (lambda: null_space_ric_floor(np.ones((2, 4)), True), "k"),
    (lambda: mc_beta(HardThreshold(1), k=1, n=4, trials=True, seed=0), "trials"),
    (lambda: mc_beta(HardThreshold(1), k=1.5, n=4, trials=2, seed=0), "k"),
    (lambda: mc_beta(HardThreshold(1), 1, 3.5, 4, 0), "n"),
    (lambda: mc_beta(HardThreshold(0), 0, 0, 4, 0), "n"),
    (lambda: mc_beta(HardThreshold(1), 5, 4, 4, 0), "k"),
    (lambda: operator_norm(np.eye(3), iters=2.5), "iters"),
    (lambda: operator_norm(np.eye(3), iters=0), "iters"),
    (lambda: operator_norm(np.eye(3), tol=float("nan")), "tol"),
], ids=["exact_ric_sparse", "null_space_ric_floor", "mc_beta-trials", "mc_beta-k",
        "mc_beta-n", "mc_beta-n0", "mc_beta-k-above-n",
        "operator_norm-iters", "operator_norm-iters0", "operator_norm-tol"])
def test_constants_reject_non_integer_counts_and_non_finite_reals(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


class _PoisonedAt:
    """Hard threshold that outputs `value` in one entry from call `first` on;
    counts its calls."""

    def __init__(self, k, value, first):
        self.k, self.value, self.first, self.calls = k, value, first, 0

    def __call__(self, z):
        self.calls += 1
        out = hard_threshold(z, self.k)
        if self.calls >= self.first:
            out[4] = self.value
        return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_constants_reject_non_finite_input(value, k):
    # The identity with one entry that is not finite; with inf there, an
    # unchecked exact_ric_sparse reads 0.0, a perfect isometry.
    B = np.eye(12)
    B[3, 5] = value
    with pytest.raises(ValueError, match="^B must be finite"):
        exact_ric_sparse(B, k)
    with pytest.raises(ValueError, match="^A must be finite"):
        null_space_ric_floor(B[:8], k)
    with pytest.raises(ValueError, match="^M must be finite"):
        operator_norm(B)
    # mc_beta raises at the first output that is not finite, here on the
    # third trial, and calls the projection no more.
    projection = _PoisonedAt(k, value, 3)
    with pytest.raises(ValueError, match="^projection output must be finite, and trial 2's is not$"):
        mc_beta(projection, k, 12, 10, 0)
    assert projection.calls == 3


def test_mc_beta_hard_threshold_brackets():
    # Restricted Lipschitz ratio never exceeds sqrt((3+sqrt(5))/2) ~ 1.618.
    beta_hat = mc_beta(HardThreshold(2), k=2, n=16, trials=5000, seed=3)
    assert 1.0 <= beta_hat <= HARD_THRESHOLD_BETA


def test_mc_beta_p_alpha_within_alpha_of_base():
    # Pointwise, ||P_a(z) - x|| <= ||P(z) - x|| + a*||z - P(z)|| and the
    # residual is no larger than ||z - x||, so on shared draws the
    # empirical constant inflates by at most alpha.
    base = mc_beta(HardThreshold(2), k=2, n=16, trials=3000, seed=4)
    for alpha in (0.25, 1.0):
        inflated = mc_beta(PAlpha(2, alpha), k=2, n=16, trials=3000, seed=4)
        assert inflated <= base + alpha + 1e-9


def test_mc_beta_nested_sampling_monotone():
    small = mc_beta(HardThreshold(2), k=2, n=16, trials=500, seed=9)
    big = mc_beta(HardThreshold(2), k=2, n=16, trials=2000, seed=9)
    assert big >= small


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(11)
    for n, m in ((8, 8), (64, 40), (33, 64)):
        M = rng.standard_normal((n, m))
        exact = np.linalg.svd(M, compute_uv=False)[0]
        estimate = operator_norm(M, seed=2)
        assert abs(estimate - exact) <= 1e-8 * exact


def _textbook_power_iteration(M, iters=200, seed=0, tol=1e-10):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(iters):
        w = M.T @ (M @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        new_estimate = float(np.linalg.norm(M @ v))
        if abs(new_estimate - estimate) <= tol * max(new_estimate, 1.0):
            return new_estimate
        estimate = new_estimate
    return estimate


def test_operator_norm_is_the_textbook_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((64, 12)) / 8.0
    B = A.T @ A
    matrices = [rng.standard_normal(shape) for shape in ((8, 8), (64, 40), (33, 64), (1, 5))]
    matrices += [np.zeros((5, 4)), A]
    for mu in (0.05, 0.9, 2.5):
        matrices += [mu * B, np.eye(12) - mu * B]
    for M in matrices:
        for seed in range(3):
            for iters, tol in ((200, 1e-10), (7, 0.0)):
                expected = _textbook_power_iteration(M, iters, seed, tol)
                assert operator_norm(M, iters, seed, tol) == expected, (M.shape, seed, iters)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((5, 4))) == 0.0


def test_bound_noiseless_geometric_decay():
    tb = TheoremBound(delta=0.4, beta=1.5, mu=1.0)
    seq = theorem_bound_eval(tb, 5, initial_error=2.0)
    assert np.allclose(seq, 2.0 * 0.6 ** np.arange(6))


def test_bound_hand_case():
    tb = TheoremBound(delta=0.4, beta=1.5, mu=1.0, noise_term=0.1)
    assert abs(tb.c_stab - 2.5) < 1e-12
    seq = theorem_bound_eval(tb, 50, initial_error=1.0)
    assert abs(seq[-1] - (0.6**50 + 0.25)) < 1e-12


def test_bound_zero_everything():
    tb = TheoremBound(delta=0.3, beta=1.0, mu=1.0)
    assert np.array_equal(theorem_bound_eval(tb, 4, 0.0), np.zeros(5))


def test_bound_requires_contraction():
    tb = TheoremBound(delta=0.7, beta=1.618, mu=1.0)
    with pytest.raises(ValueError):
        theorem_bound_eval(tb, 3, 1.0)


@pytest.mark.parametrize("field", [
    "delta", "beta", "mu", "noise_term", "model_error", "proj_error_eta",
    "op_norm_muLA", "op_norm_I_minus_muLA",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
def test_bound_rejects_non_finite_constants(field, value):
    fields = dict(delta=0.3, beta=1.0, mu=1.0)
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        TheoremBound(**fields)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
def test_bound_rejects_non_finite_initial_error(value):
    tb = TheoremBound(delta=0.3, beta=1.0, mu=1.0)
    with pytest.raises(ValueError, match="initial_error"):
        theorem_bound_eval(tb, 2, value)
    # Nor is any of them, or 2.5, an iteration count.
    for n_iters in (value, 2.5):
        with pytest.raises(ValueError, match="n_iters"):
            theorem_bound_eval(tb, n_iters, 1.0)


@pytest.mark.parametrize("variant", ["projection", "truth"])
def test_bound_ignores_op_norms_when_their_errors_are_zero(variant):
    # The theorem check leaves an operator norm at 0.0 when its error term
    # is 0; the bound must be the same bits as with the norm computed.
    bounds = [
        theorem_bound_eval(
            TheoremBound(delta=0.4, beta=1.5, mu=0.9, noise_term=0.013,
                         op_norm_muLA=norm, op_norm_I_minus_muLA=norm),
            6, 1.7, variant)
        for norm in (0.0, 0.7, 3.1)
    ]
    for bound in bounds[1:]:
        assert bound.tobytes() == bounds[0].tobytes()


def test_bound_truth_variant_uses_crob_prime():
    tb = TheoremBound(delta=0.2, beta=1.5, mu=1.0, model_error=1.0, op_norm_muLA=0.8)
    proj = theorem_bound_eval(tb, 0, 0.0, variant="projection")[0]
    truth = theorem_bound_eval(tb, 0, 0.0, variant="truth")[0]
    assert abs(truth - proj - 1.0) < 1e-12  # c_rob' = 1 + c_rob

