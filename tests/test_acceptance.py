"""Acceptance criteria, one test per criterion.

Each test prints one `[criterion N] PASS/FAIL` line (run pytest with -s to
see them on success) and asserts the criterion at its stated tolerance.
Runtime budgets are asserted on the core computation of each criterion.
"""

import time
from pathlib import Path

import numpy as np

from gpgd.cli import main
from gpgd.constants import mc_beta
from gpgd.descent import GpgdConfig, gpgd_run
from gpgd.experiments import (
    EXPERIMENTS,
    SM1_NUMERICAL_FLOOR,
    default_spec,
    run_nipr_stability,
    run_outlier_tradeoff,
    run_phase_transition_alpha,
    run_stepsize_study,
    run_theorem_check,
    sparse_signal,
    trial_rng,
)
from gpgd.metrics import normalized_error
from gpgd.operators import BackProjection, MeasurementOperator, gaussian_operator
from gpgd.prior import TrainConfig, loss_gradient, random_prior, training_loss
from gpgd.projections import HARD_THRESHOLD_BETA, HardThreshold, PAlpha

GOLDEN = Path(__file__).parent / "golden"


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} - {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_criterion_01_trivial_exact_recovery():
    n = 32
    op = MeasurementOperator(np.eye(n))
    bp = BackProjection.adjoint(op)
    rng = np.random.default_rng(0)
    truth = np.zeros(n)
    truth[rng.choice(n, 3, replace=False)] = rng.standard_normal(3)
    y = op.apply(truth)
    cfg = GpgdConfig(mu=1.0, max_iters=1)
    proj = HardThreshold(3)
    gpgd_run(np.zeros(n), proj, bp, op, y, cfg, truth=truth)  # warmup
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        trace = gpgd_run(np.zeros(n), proj, bp, op, y, cfg, truth=truth)
        elapsed.append(time.perf_counter() - t0)
    exact = trace.errors_to_truth[1] == 0.0
    fast = min(elapsed) < 1e-3
    _report(1, "identity operator, one exact-recovery iteration",
            exact and fast, f"error={trace.errors_to_truth[1]}, best time {min(elapsed)*1e6:.0f}us")


def test_criterion_02_noiseless_recovery_at_reference_dimensions():
    t0 = time.perf_counter()
    spec = default_spec("phase_alpha", gaussian_sigma=0.0)
    k, ki = 9, list(spec.sparsity_grid).index(9)
    successes = 0
    for t in range(50):
        rng = trial_rng(spec.seed, 1, ki, t)
        op = gaussian_operator(spec.m, spec.n_ambient, rng)
        x = sparse_signal(spec.n_ambient, k, rng)
        cfg = GpgdConfig(mu=spec.mu, max_iters=500)
        trace = gpgd_run(np.zeros(spec.n_ambient), HardThreshold(k),
                         BackProjection.adjoint(op), op, op.apply(x), cfg)
        successes += normalized_error(trace.final, x) < 1e-6
    elapsed = time.perf_counter() - t0
    _report(2, "m=150, n=300, k=9 noiseless recovery in >=45/50 trials",
            successes >= 45 and elapsed < 30.0,
            f"{successes}/50 below 1e-6, {elapsed:.1f}s")


def test_criterion_03_identifiability_degrades_with_alpha():
    t0 = time.perf_counter()
    spec = default_spec("phase_alpha")
    result = run_phase_transition_alpha(spec)
    cent = {(row["alpha"], row["k"]): row["centile_error"] for row in result["rows"]}
    ks = sorted({row["k"] for row in result["rows"]})
    k_star = {}
    for alpha in (0.0, 0.3, 0.6):
        hits = [k for k in ks if cent[(alpha, k)] < 0.05]
        k_star[alpha] = max(hits) if hits else -1
    # Non-increasing in alpha, with one grid cell of slack for sampling noise.
    ordered = k_star[0.0] + 1 >= k_star[0.3] and k_star[0.3] + 1 >= k_star[0.6]
    elapsed = time.perf_counter() - t0
    _report(3, "95th-centile success range shrinks as alpha grows",
            ordered and elapsed < 300.0,
            f"k*={k_star}, {elapsed:.0f}s")


def test_criterion_04_outlier_tradeoff():
    t0 = time.perf_counter()
    spec = default_spec("outliers")
    result = run_outlier_tradeoff(spec)
    cent = {(row["method"], row["k"], row["s"]): row["centile_error"] for row in result["rows"]}
    ks = sorted({row["k"] for row in result["rows"]})
    ss = sorted({row["s"] for row in result["rows"]})
    top = spec.m - 1
    transition = all(
        cent[("residual_threshold", k, 0)] < 0.05 and cent[("residual_threshold", k, top)] > 0.5
        for k in ks
    )
    max_stable = {
        k: max([s for s in ss if cent[("residual_threshold", k, s)] < 0.05], default=-1)
        for k in ks
    }
    monotone = all(max_stable[ks[i]] >= max_stable[ks[i + 1]] for i in range(len(ks) - 1))
    baseline_fails = all(
        cent[("adjoint", k, s)] > 0.5 for k in ks for s in ss if s >= 5
    )
    elapsed = time.perf_counter() - t0
    _report(4, "outlier-count transition, adapted vs broken adjoint baseline",
            transition and monotone and baseline_fails and elapsed < 300.0,
            f"max stable s={max_stable}, baseline fails={baseline_fails}, {elapsed:.0f}s")


def test_criterion_05_bound_verification_at_pinned_dimensions():
    # The contraction hypothesis delta*beta < 1 needs delta^2 < theta =
    # (3 - sqrt5)/2 ~ 0.382.  At n=12, m=8, k=1 no operator meets it, at any
    # mu.  For 2-sparse unit v, ||(mu A'A - I) v|| >= ||P_N v|| with P_N the
    # projector onto null(A), of rank r >= 4, so delta^2 >= max over pairs T
    # of lambda_max(P_N[T, T]).  Were every pair below theta, each diagonal
    # a_i and each |c_ij| <= sqrt(a_i a_j) would be below theta; with
    # sum a_i = r and ||P_N||_F^2 = r that gives sum_{i<j} c_ij^2 =
    # (r - sum a_i^2)/2 > r(1 - theta)/2, and as c_ij^2 < theta |c_ij|,
    # sum |c_ij| > r(1 - theta)/(2 theta).  Since lambda_max >= (a_i + a_j)/2
    # + |c_ij|, the mean over the 66 pairs would exceed r/12 + r(1 - theta) /
    # (132 theta) >= 0.38236 > theta, a contradiction.  So the check must
    # report every variant inconclusive (status 3) and verify nothing there.
    # The pointwise verification runs at the theorem experiment's default
    # spec (m=64, n=12, k=1), where the hypothesis is satisfiable.
    t0 = time.perf_counter()
    pinned = run_theorem_check(
        default_spec("theorem", m=8, n_ambient=12, trials=5, resample_budget=2000))
    variants = ["noiseless", "noisy", "model_error", "proj_error"]
    proven_outcome = (pinned["status"] == 3
                      and pinned["summary"]["inconclusive_variants"] == variants
                      and not pinned["rows"])
    feasible = run_theorem_check(default_spec("theorem"))
    per_variant = {}
    for row in feasible["rows"]:
        per_variant.setdefault(row["variant"], []).append(row)
    enough_seeds = all(len(per_variant.get(v, [])) >= 5 for v in variants)
    all_verified = all(row["verified"] for row in feasible["rows"])
    elapsed = time.perf_counter() - t0
    _report(5, "n=12, m=8, k=1: no operator contracts (null-space rank >= 4), all variants "
               "inconclusive; default m=64: bound holds pointwise (>=5 seeds/variant)",
            proven_outcome and enough_seeds and all_verified and feasible["status"] == 0
            and elapsed < 60.0,
            f"m=8: status={pinned['status']}, "
            f"inconclusive={pinned['summary']['inconclusive_variants']}, "
            f"rows={len(pinned['rows'])}; m=64: status={feasible['status']}, "
            f"verified seeds per variant="
            f"{ {v: sum(r['verified'] for r in rs) for v, rs in per_variant.items()} or 'none'}, "
            f"{elapsed:.0f}s")


def test_criterion_06_lipschitz_constant_bounds():
    t0 = time.perf_counter()
    n, k = 20, 3
    base_large = mc_beta(HardThreshold(k), k=k, n=n, trials=100_000, seed=11)
    within_analytic = 1.0 <= base_large <= HARD_THRESHOLD_BETA
    base = mc_beta(HardThreshold(k), k=k, n=n, trials=10_000, seed=12)
    inflated_ok = True
    details = [f"beta_hat={base_large:.4f}"]
    for alpha in (0.25, 0.5, 1.0):
        inflated = mc_beta(PAlpha(k, alpha), k=k, n=n, trials=10_000, seed=12)
        inflated_ok &= inflated <= base + alpha + 0.01
        details.append(f"a={alpha}: {inflated:.4f}<={base:.4f}+{alpha}+0.01")
    elapsed = time.perf_counter() - t0
    _report(6, "sampled Lipschitz constants within analytic bounds",
            within_analytic and inflated_ok and elapsed < 30.0,
            "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_07_penalty_gradient_against_finite_differences():
    t0 = time.perf_counter()
    step = 1e-5
    worst = 0.0
    for loss_kind in ("ae", "pnp"):
        for weight in (0.0, 0.005, 0.1):
            for seed in range(5):
                rng = np.random.default_rng(900 + seed)
                prior = random_prior(6, 3, seed=700 + seed, nonlinearity="tanh", scale=0.6)
                batch = rng.standard_normal((4, 6))
                noise = 0.1 * rng.standard_normal(batch.shape) if loss_kind == "pnp" else None
                cfg = TrainConfig(nipr_weight=weight, loss_kind=loss_kind, noise_sigma=0.1)
                g_enc, g_dec = loss_gradient(prior, batch, cfg, noise=noise)
                f_enc = np.zeros_like(g_enc)
                f_dec = np.zeros_like(g_dec)
                for target, grad in ((prior.encoder_weights, f_enc), (prior.decoder_weights, f_dec)):
                    it = np.nditer(target, flags=["multi_index"])
                    while not it.finished:
                        idx = it.multi_index
                        orig = target[idx]
                        target[idx] = orig + step
                        hi = training_loss(prior, batch, cfg, noise=noise)
                        target[idx] = orig - step
                        lo = training_loss(prior, batch, cfg, noise=noise)
                        target[idx] = orig
                        grad[idx] = (hi - lo) / (2 * step)
                        it.iternext()
                scale = max(np.linalg.norm(f_enc), np.linalg.norm(f_dec))
                rel = max(np.linalg.norm(g_enc - f_enc), np.linalg.norm(g_dec - f_dec)) / scale
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(7, "analytic gradients match central finite differences",
            worst < 1e-4 and elapsed < 10.0, f"worst rel error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_regularized_prior_is_more_stable():
    t0 = time.perf_counter()
    spec = default_spec("nipr", trials=10)
    result = run_nipr_stability(spec)
    by_pair = {}
    for row in result["rows"]:
        by_pair.setdefault(row["pair"], {})[row["nipr_weight"] > 0] = row

    def floored(v):
        return 0.0 if v < SM1_NUMERICAL_FLOOR else v

    wins = sum(
        1 for pair in by_pair.values()
        if floored(pair[True]["sm1_50"]) <= floored(pair[False]["sm1_50"])
    )
    best_reg = np.mean([pair[True]["best_error"] for pair in by_pair.values()])
    best_plain = np.mean([pair[False]["best_error"] for pair in by_pair.values()])
    recovery_kept = best_reg <= 1.2 * best_plain
    elapsed = time.perf_counter() - t0
    _report(8, "penalty-trained prior at least as stable in >=7/10 pairs, recovery within 20%",
            wins >= 7 and recovery_kept and elapsed < 300.0,
            f"wins={wins}/10, mean best error {best_plain:.4f} -> {best_reg:.4f}, {elapsed:.0f}s")


def test_criterion_09_product_projection_and_joint_recovery():
    t0 = time.perf_counter()
    from gpgd.experiments import run_joint_model
    from gpgd.projections import ProductProjection

    rng = np.random.default_rng(13)
    n1, k1, n2, k2 = 12, 2, 8, 1
    p1, p2 = HardThreshold(k1), HardThreshold(k2)
    prod = ProductProjection([(p1, n1), (p2, n2)])
    best_blocks, best_prod = 0.0, 0.0
    for _ in range(10_000):
        x1 = np.zeros(n1)
        x1[rng.choice(n1, k1, replace=False)] = rng.standard_normal(k1)
        x2 = np.zeros(n2)
        x2[rng.choice(n2, k2, replace=False)] = rng.standard_normal(k2)
        x = np.concatenate([x1, x2])
        z = rng.standard_normal(n1 + n2)
        r1 = np.linalg.norm(p1(z[:n1]) - x1) / max(np.linalg.norm(z[:n1] - x1), 1e-300)
        r2 = np.linalg.norm(p2(z[n1:]) - x2) / max(np.linalg.norm(z[n1:] - x2), 1e-300)
        rp = np.linalg.norm(prod(z) - x) / np.linalg.norm(z - x)
        best_blocks = max(best_blocks, r1, r2)
        best_prod = max(best_prod, rp)
    product_bounded = best_prod <= best_blocks + 0.01

    # Documented success configuration: m=150, n=300, k=8, s=10, mu=0.7.
    spec = default_spec("joint")
    row = run_joint_model(spec)["rows"][0]
    joint_ok = row["centile_x_error"] < 1e-4 and row["centile_e_error"] < 1e-4
    elapsed = time.perf_counter() - t0
    _report(9, "product projection bounded by worst block; joint model recovers both blocks",
            product_bounded and joint_ok and elapsed < 60.0,
            f"beta_prod={best_prod:.4f} vs blocks {best_blocks:.4f}; "
            f"joint errors x={row['centile_x_error']:.1e} e={row['centile_e_error']:.1e}, {elapsed:.0f}s")


def test_criterion_10_stepsize_tradeoff():
    # The stated ranges carry +-3 cells of slack; the orderings are the
    # contract.  Recovery success uses the sparse estimate; the k=4 plateau
    # compares the iterate-error convergence level, which carries the
    # mu-scaled back-projected noise.
    t0 = time.perf_counter()
    spec = default_spec("stepsize")
    result = run_stepsize_study(spec)
    cent = {(row["mu"], row["k"]): row["centile_error"] for row in result["rows"]}
    plateau = {(row["mu"], row["k"]): row["mean_plateau_error"] for row in result["rows"]}
    ks = sorted({row["k"] for row in result["rows"]})
    large_holds = all(cent[(0.6, k)] < 0.05 for k in ks if k <= 9)
    small_fails = any(cent[(0.3, k)] >= 0.05 for k in ks if k <= 15)
    plateau_ordered = plateau[(0.3, 4)] < plateau[(0.6, 4)]
    elapsed = time.perf_counter() - t0
    _report(10, "mu=0.6 holds the sparsity range, mu=0.3 does not but wins the k=4 plateau",
            large_holds and small_fails and plateau_ordered and elapsed < 300.0,
            f"mu=0.6 worst(k<=9)={max(cent[(0.6, k)] for k in ks if k <= 9):.4f}, "
            f"mu=0.3 failures={[k for k in ks if k <= 15 and cent[(0.3, k)] >= 0.05]}, "
            f"k=4 plateau {plateau[(0.3, 4)]:.4f} vs {plateau[(0.6, 4)]:.4f}, {elapsed:.0f}s")


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    # The golden configs (tests/golden/<command>.json), one per experiment.
    configs = {path.stem: path for path in sorted(GOLDEN.glob("*.json"))}
    assert sorted(configs) == sorted(e.replace("_", "-") for e in EXPERIMENTS)
    identical = True
    details = []
    for command, cfg_path in configs.items():
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{command}-{tag}"
            code = main([command, "--config", str(cfg_path), "--out", str(out), "--seed", "3"])
            assert code in (0, 3), f"{command} exited {code}"
            csvs = sorted(out.parent.glob(f"{command}-{tag}*.csv"))
            outs.append(b"".join(p.read_bytes() for p in csvs))
        same = outs[0] == outs[1]
        identical &= same
        details.append(f"{command}:{'ok' if same else 'DIFFERS'}")
    # Reruns must also agree across fresh interpreter processes.
    import subprocess
    import sys

    cfg_path = configs["phase-alpha"]
    for tag in ("p1", "p2"):
        subprocess.run(
            [sys.executable, "-m", "gpgd.cli", "phase-alpha", "--config", str(cfg_path),
             "--out", str(tmp_path / tag), "--seed", "3"],
            check=True, capture_output=True,
        )
    cross_process = (
        (tmp_path / "p1.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()
        == (tmp_path / "phase-alpha-x.csv").read_bytes()
    )
    identical &= cross_process
    details.append(f"cross-process:{'ok' if cross_process else 'DIFFERS'}")
    elapsed = time.perf_counter() - t0
    _report(11, "every CLI experiment reruns byte-identically",
            identical and elapsed < 300.0, ", ".join(details) + f", {elapsed:.0f}s")
