import dataclasses
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gpgd.cli import load_spec, main
from gpgd.constants import exact_ric_sparse, null_space_ric_floor
from gpgd.descent import gpgd_run
from gpgd.experiments import (
    _COLUMNS,
    _DEFAULTS,
    _TAGS,
    _TRACE_COLUMNS,
    EXPERIMENTS,
    RUNNERS,
    THEOREM_MU_GRID,
    THEOREM_VARIANTS,
    ExperimentSpec,
    _tuned_mu_delta,
    default_spec,
    run_joint_model,
    run_outlier_tradeoff,
    run_phase_transition_alpha,
    run_stepsize_study,
    run_theorem_check,
    sparse_signal,
    trial_rng,
    write_outputs,
)
from gpgd.operators import gaussian_operator
from gpgd.projections import PAlpha

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _tiny_phase_spec(**kw):
    base = dict(sparsity_grid=[0, 2, 4], alpha_grid=[0.0, 0.3], trials=4,
                iterations=60, k_trace=2)
    base.update(kw)
    return default_spec("phase_alpha", **base)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        default_spec("nope")
    with pytest.raises(ValueError):
        default_spec("phase_alpha", trials=0)
    with pytest.raises(ValueError):
        default_spec("phase_alpha", sparsity_grid=[])
    with pytest.raises(ValueError):
        default_spec("outliers", outlier_grid=[150])  # s must stay below m
    with pytest.raises(ValueError):
        default_spec("phase_alpha", centile=0.0)


def test_trial_rng_streams_are_independent_and_stable():
    a1 = trial_rng(7, 1, 0, 0).standard_normal(4)
    a2 = trial_rng(7, 1, 0, 0).standard_normal(4)
    b = trial_rng(7, 1, 0, 1).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_sparse_signal_scaling_and_support():
    rng = np.random.default_rng(0)
    x = sparse_signal(50, 7, rng)
    assert np.count_nonzero(x) == 7
    assert abs(np.linalg.norm(x) - np.sqrt(7)) < 1e-12
    assert np.array_equal(sparse_signal(50, 0, rng), np.zeros(50))


def test_phase_alpha_zero_sparsity_cell_is_exact_zero():
    r = run_phase_transition_alpha(_tiny_phase_spec())
    for row in r["rows"]:
        if row["k"] == 0:
            assert row["centile_error"] == 0.0
            assert row["mean_error"] == 0.0


def test_phase_alpha_trials_prefix_property():
    # Enlarging the trial count must not change earlier trials' draws, so
    # cell centiles computed from the shared prefix agree.
    r_small = run_phase_transition_alpha(_tiny_phase_spec(trials=3))
    r_big = run_phase_transition_alpha(_tiny_phase_spec(trials=6))
    small = {(row["k"], row["alpha"]): row["mean_error"] for row in r_small["rows"]}
    # Rebuild the prefix means from scratch at trials=3 and compare runs.
    r_again = run_phase_transition_alpha(_tiny_phase_spec(trials=3))
    again = {(row["k"], row["alpha"]): row["mean_error"] for row in r_again["rows"]}
    assert small == again
    # And the big run is deterministic too.
    r_big2 = run_phase_transition_alpha(_tiny_phase_spec(trials=6))
    assert [row["mean_error"] for row in r_big["rows"]] == [row["mean_error"] for row in r_big2["rows"]]


def test_outliers_zero_outliers_reduces_to_plain_adjoint():
    spec = default_spec("outliers", sparsity_grid=[3], outlier_grid=[0], trials=5,
                        iterations=80)
    r = run_outlier_tradeoff(spec)
    by_method = {row["method"]: row for row in r["rows"]}
    assert by_method["residual_threshold"]["centile_error"] == by_method["adjoint"]["centile_error"]
    assert by_method["residual_threshold"]["mean_error"] == by_method["adjoint"]["mean_error"]


def test_outliers_adapted_invariant_to_outlier_amplitude():
    # Wherever the adapted method succeeds, the mask has isolated the
    # corrupted coordinates, so their amplitude cannot enter the result.
    kw = dict(sparsity_grid=[4], outlier_grid=[10], trials=15, iterations=200)
    r1 = run_outlier_tradeoff(default_spec("outliers", outlier_amplitude=2.0, **kw))
    r2 = run_outlier_tradeoff(default_spec("outliers", outlier_amplitude=4.0, **kw))
    c1 = {row["method"]: row["centile_error"] for row in r1["rows"]}
    c2 = {row["method"]: row["centile_error"] for row in r2["rows"]}
    assert c1["residual_threshold"] < 0.05
    assert abs(c1["residual_threshold"] - c2["residual_threshold"]) < 1e-10
    # The unadapted baseline stays broken at both amplitudes.
    assert c1["adjoint"] > 0.5 and c2["adjoint"] > 0.5


def test_outliers_error_grows_with_count():
    spec = default_spec("outliers", sparsity_grid=[4], outlier_grid=[0, 60, 149],
                        trials=15, iterations=200)
    r = run_outlier_tradeoff(spec)
    adapted = {row["s"]: row["centile_error"] for row in r["rows"]
               if row["method"] == "residual_threshold"}
    assert adapted[0] < 0.05
    assert adapted[149] > 0.5
    assert adapted[0] <= adapted[60] + 0.02
    assert adapted[60] <= adapted[149]


def test_stepsize_rows_and_traces():
    spec = default_spec("stepsize", sparsity_grid=[2, 4], mu_grid=[0.3, 0.6], trials=4,
                        iterations=30, k_trace=4)
    r = run_stepsize_study(spec)
    assert len(r["rows"]) == 4
    mus = sorted({row["mu"] for row in r["traces"]})
    assert mus == [0.3, 0.6]
    iters = [row["iter"] for row in r["traces"] if row["mu"] == 0.3]
    assert iters == list(range(len(iters)))


@pytest.mark.parametrize("experiment, key, arms, iterations", [
    ("stepsize", "mu", [0.3, 0.6], 20),
    ("phase_alpha", "alpha", [0.0, 0.3], 200),
], ids=["stepsize", "phase_alpha"])
def test_trace_reuses_the_main_solve(monkeypatch, experiment, key, arms, iterations):
    # The k_trace solve on trial 0 runs without early stopping and records
    # the truth, and it is also the arm's main solve, so a cell makes one
    # solve per (trial, arm) and no more.  The solves are counted in this
    # process, so the trials run here in one share; the byte tests cover the
    # forked shares.
    import gpgd.experiments as experiments

    monkeypatch.setattr(experiments, "_processes", lambda: 1)
    traced = []

    def counting_run(*args, **kwargs):
        trace = gpgd_run(*args, **kwargs)
        traced.append((args, trace) if kwargs.get("truth") is not None else None)
        return trace

    monkeypatch.setattr(experiments, "gpgd_run", counting_run)
    spec = default_spec(experiment, sparsity_grid=[3], trials=3, iterations=iterations,
                        k_trace=3, **{f"{key}_grid": arms})
    r = RUNNERS[experiment](spec)
    assert len(traced) == 3 * 2
    traced = [call for call in traced if call is not None]
    assert len(traced) == 2
    assert sorted({row[key] for row in r["traces"]}) == arms
    assert len(r["traces"]) == 2 * (iterations + 1)
    if experiment == "phase_alpha":
        # The estimate read from the trace at the first relative change
        # below the tolerance is, bit for bit, what an early-stopped run of
        # PAlpha returns.
        for (x0, proj, bp, op, y, cfg), trace in traced:
            assert isinstance(proj, PAlpha)
            early = gpgd_run(x0, proj, bp, op, y,
                             dataclasses.replace(cfg, rel_change_tol=1e-12, record_iterates=False))
            j = next(j for j, rel in enumerate(trace.rel_changes) if rel < 1e-12)
            assert j == early.iterations_run < iterations
            assert np.array_equal(trace.iterates[j], early.final)


@pytest.mark.parametrize("experiment, overrides", [
    ("phase_alpha", dict(alpha_grid=[0.0, 0.3], k_trace=2)),
    ("outliers", dict(outlier_grid=[0, 3])),
    ("stepsize", dict(mu_grid=[0.3], k_trace=2)),
    ("joint", dict(outlier_grid=[3])),
    ("theorem", dict(m=64, n_ambient=12, sparsity_grid=[1], resample_budget=20)),
], ids=["phase_alpha", "outliers", "stepsize", "joint", "theorem"])
def test_rows_hold_exactly_their_columns(experiment, overrides):
    # A runner's row dicts must carry exactly the columns write_outputs
    # writes for its experiment, no more and no fewer.
    tiny = dict(m=20, n_ambient=30, sparsity_grid=[2], trials=1, iterations=10)
    spec = default_spec(experiment, **{**tiny, **overrides})
    r = RUNNERS[experiment](spec)
    assert sorted(r) == ["rows", "status", "summary", "traces"]
    assert r["rows"]
    for row in r["rows"]:
        assert sorted(row) == sorted(_COLUMNS[experiment])
    if experiment in _TRACE_COLUMNS:
        assert r["traces"]
        for row in r["traces"]:
            assert sorted(row) == sorted(_TRACE_COLUMNS[experiment])
    else:
        assert r["traces"] is None


def test_joint_zero_noise_block_reduces_to_sparse_recovery():
    spec = default_spec("joint", sparsity_grid=[4], outlier_grid=[0], trials=4,
                        iterations=300)
    r = run_joint_model(spec)
    row = r["rows"][0]
    assert row["centile_x_error"] < 1e-6
    assert row["centile_e_error"] == 0.0  # zero block recovered exactly


def test_joint_default_amplitude_is_100x_noise_scale():
    # outlier_amplitude <= 0 selects 100x the noise scale, as in outliers.
    kw = dict(sparsity_grid=[4], outlier_grid=[5], trials=2, iterations=60, gaussian_sigma=0.01)
    rows = run_joint_model(default_spec("joint", outlier_amplitude=-1.0, **kw))["rows"]
    assert rows == run_joint_model(default_spec("joint", outlier_amplitude=1.0, **kw))["rows"]


def test_joint_documented_success_configuration():
    spec = default_spec("joint")
    r = run_joint_model(spec)
    row = r["rows"][0]
    assert (row["k"], row["s"]) == (8, 10)
    assert row["centile_x_error"] < 1e-4
    assert row["centile_e_error"] < 1e-4


def test_phase_alpha_success_region_is_monotone():
    # Success at sparsity k implies success at k-1 in the plain-threshold
    # column, up to one grid-cell violation from sampling.
    spec = default_spec("phase_alpha", sparsity_grid=list(range(2, 13)),
                        alpha_grid=[0.0], trials=50, iterations=300)
    r = run_phase_transition_alpha(spec)
    cells = {row["k"]: row["centile_error"] < 0.05 for row in r["rows"]}
    ks = sorted(cells)
    holes = sum(
        1 for i in range(1, len(ks)) if cells[ks[i]] and not cells[ks[i - 1]]
    )
    assert holes <= 1


def test_nipr_identical_weights_give_identical_reports():
    import gpgd.experiments as ex

    spec = default_spec("nipr", trials=1, nipr_weight=0.0)
    saved = ex.NIPR_TRAIN
    ex.NIPR_TRAIN = dict(saved, epochs=40)  # keep the determinism check quick
    try:
        r = ex.run_nipr_stability(spec)
    finally:
        ex.NIPR_TRAIN = saved
    a, b = r["rows"]
    assert sorted(a) == sorted(b) == sorted(_COLUMNS["nipr"])
    for key in ("i_min", "sm1_10", "sm1_50", "sm1_100", "sm2_10", "sm2_50", "sm2_100",
                "best_error", "final_error", "final_penalty"):
        assert a[key] == b[key]
    # Identical priors tie, and a tie counts as a win for the regularized one.
    assert r["summary"] == {"sm1_50_wins": 1, "pairs": 1}


def test_theorem_check_verifies_at_feasible_dims():
    spec = default_spec("theorem", trials=2, resample_budget=40)
    r = run_theorem_check(spec)
    assert r["status"] == 0
    assert all(row["verified"] for row in r["rows"])
    assert {row["variant"] for row in r["rows"]} == {"noiseless", "noisy", "model_error", "proj_error"}


def test_theorem_check_computes_each_op_norm_only_for_a_nonzero_error(monkeypatch):
    # C_rob multiplies model_error and C_proj multiplies eta, so each
    # operator norm is computed only on the rows where its factor is > 0.
    import gpgd.experiments as experiments

    calls = []
    operator_norm = experiments.operator_norm

    def counting_norm(*args, **kwargs):
        calls.append(args)
        return operator_norm(*args, **kwargs)

    monkeypatch.setattr(experiments, "operator_norm", counting_norm)
    rows = run_theorem_check(default_spec("theorem", trials=2))["rows"]
    expected = (sum(row["model_error"] > 0 for row in rows)
                + sum(row["eta"] > 0 for row in rows))
    assert len(calls) == expected == 4


def test_theorem_check_solves_the_cell_in_one_stacked_descent(monkeypatch):
    import gpgd.experiments as experiments

    calls, stacks = [], []
    stacked_run = experiments._stacked_run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return gpgd_run(*args, **kwargs)

    def counting_stack(A, *args):
        stacks.append(len(A))
        return stacked_run(A, *args)

    monkeypatch.setattr(experiments, "gpgd_run", counting_run)
    monkeypatch.setattr(experiments, "_stacked_run", counting_stack)
    r = run_theorem_check(default_spec("theorem", trials=2))
    assert len(r["rows"]) == 8
    assert calls == []
    assert stacks == [8]


def test_theorem_check_inconclusive_at_hopeless_dims():
    # Far too few measurements for the contraction hypothesis to ever hold.
    spec = default_spec("theorem", m=8, n_ambient=12, trials=2, resample_budget=25)
    r = run_theorem_check(spec)
    assert r["status"] == 3
    assert r["summary"]["inconclusive_variants"]


def test_theorem_noisy_variant_follows_the_noise_rule():
    # gaussian_sigma < 0 selects 0.01 ||A x|| / sqrt(m).  Rebuild the noisy
    # row's instance from its trial stream and recompute its noise term.
    spec = default_spec("theorem", gaussian_sigma=-1.0, trials=1, resample_budget=20, seed=3)
    rows = run_theorem_check(spec)["rows"]
    row = next(r for r in rows if r["variant"] == "noisy")
    rng = trial_rng(3, _TAGS["theorem"], THEOREM_VARIANTS.index("noisy"), row["attempt"])
    op = gaussian_operator(spec.m, spec.n_ambient, rng)
    y_clean = op.apply(sparse_signal(spec.n_ambient, 1, rng))
    e = 0.01 * np.linalg.norm(y_clean) / np.sqrt(spec.m) * rng.standard_normal(spec.m)
    assert row["noise_term"] == pytest.approx(np.linalg.norm(row["mu"] * op.adjoint(e)), rel=1e-12)
    # The rule touches only the noisy variant.
    absolute = run_theorem_check(dataclasses.replace(spec, gaussian_sigma=0.02))["rows"]
    assert ([r for r in rows if r["variant"] != "noisy"]
            == [r for r in absolute if r["variant"] != "noisy"])


def _full_eigvalsh_scan(B, k, mu_grid):
    # The tuner without its screen: one stacked eigvalsh over every support
    # per grid mu, and the first mu of smallest delta wins.
    n = B.shape[0]
    t = min(2 * k, n)
    if t == 0:
        return 0.0, float(mu_grid[0])
    supports = np.array(list(itertools.combinations(range(n), t)))
    columns = np.moveaxis(B[:, supports], 1, 0)
    grams = np.swapaxes(columns, 1, 2) @ columns
    block = B[supports[:, :, None], supports[:, None, :]]
    blocks = (block + np.swapaxes(block, 1, 2)) / 2.0
    best = (np.inf, None)
    for mu in mu_grid:
        quad = mu * mu * grams - 2.0 * mu * blocks + np.eye(t)
        delta = np.sqrt(max(float(np.linalg.eigvalsh(quad)[:, -1].max()), 0.0))
        if delta < best[0]:
            best = (delta, float(mu))
    return exact_ric_sparse(best[1] * B, k), best[1]


@pytest.mark.parametrize("m", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_tuner_matches_the_full_eigvalsh_scan(m, k):
    for seed in range(6 if k < 2 else 2):
        A = gaussian_operator(m, 12, trial_rng(seed, m, k)).matrix
        B = A.T @ A
        assert _tuned_mu_delta(B, k, THEOREM_MU_GRID) == _full_eigvalsh_scan(B, k, THEOREM_MU_GRID)


def test_tuner_screens_many_supports_in_blocks():
    # C(100, 2) = 4950 supports: the screen takes the grid in two blocks.
    A = gaussian_operator(80, 100, trial_rng(0, 80)).matrix
    B = A.T @ A
    assert _tuned_mu_delta(B, 1, THEOREM_MU_GRID) == _full_eigvalsh_scan(B, 1, THEOREM_MU_GRID)


@pytest.mark.parametrize("k, n", [(1, 12), (2, 6)])
def test_tuner_breaks_exact_ties_like_the_full_scan(k, n):
    # B = c I with c = 2 / (mu_i + mu_j) puts mu_i and mu_j at the same
    # distance |mu c - 1| from 1, so the two neighbours tie for the minimum
    # (exactly, or up to the last bit).
    grid = THEOREM_MU_GRID
    for i in range(len(grid) - 1):
        B = 2.0 / (grid[i] + grid[i + 1]) * np.eye(n)
        assert _tuned_mu_delta(B, k, grid) == _full_eigvalsh_scan(B, k, grid), i


def test_tuner_breaks_ties_of_rotated_blocks_like_the_full_scan():
    # Two 2x2 diagonal blocks with eigenvalues (lo, mid) and (hi, mid): near
    # its minimum delta(mu) is max(1 - mu lo, mu hi - 1), and hi is chosen so
    # that delta ties at mu_i and mu_{i+1}.  Random rotations of the blocks
    # give them off-diagonal entries, so the closed form and eigvalsh round
    # the two tied values differently: a screen without its tolerance picks
    # the other neighbour on a few of these.
    grid = THEOREM_MU_GRID
    rng = np.random.default_rng(3)
    for i in range(len(grid) - 1):
        lo = 1.8 / (grid[i] + grid[i + 1])
        hi = (2.0 - grid[i] * lo) / grid[i + 1]
        for _ in range(4):
            B = np.zeros((4, 4))
            for start, s in ((0, lo), (2, hi)):
                R = np.linalg.qr(rng.standard_normal((2, 2)))[0]
                B[start:start + 2, start:start + 2] = R @ np.diag([s, (lo + hi) / 2]) @ R.T
            assert _tuned_mu_delta(B, 1, grid) == _full_eigvalsh_scan(B, 1, grid), i


@pytest.mark.parametrize("m,k", [(8, 1), (8, 2), (10, 1), (10, 2)])
def test_null_space_floor_never_exceeds_delta_on_mu_grid(m, k):
    # The theorem check rejects a seed on the floor before tuning mu, which
    # is sound only if no mu the tuner could pick beats the floor.  The
    # 1e-12 allows for rounding in the two computations.
    for seed in range(3):
        A = gaussian_operator(m, 12, trial_rng(seed, m, k)).matrix
        floor = null_space_ric_floor(A, k)
        assert floor > 0.0
        B = A.T @ A
        for mu in THEOREM_MU_GRID:
            assert floor <= exact_ric_sparse(mu * B, k) + 1e-12


def test_null_space_floor_is_zero_without_null_space():
    for m in (12, 16):
        A = gaussian_operator(m, 12, trial_rng(0, m)).matrix
        for k in (0, 1, 2):
            assert null_space_ric_floor(A, k) == 0.0


def test_null_space_floor_over_full_support_is_one():
    # One support covering every coordinate: lambda_max of the whole
    # null-space projector is 1.
    A = gaussian_operator(4, 6, trial_rng(0)).matrix
    assert null_space_ric_floor(A, 3) == pytest.approx(1.0, abs=1e-12)


def test_write_outputs_byte_identical(tmp_path):
    spec = _tiny_phase_spec()
    result = run_phase_transition_alpha(spec)
    p1 = write_outputs(dataclasses.replace(spec, output_path=str(tmp_path / "a")), result)
    p2 = write_outputs(dataclasses.replace(spec, output_path=str(tmp_path / "b")),
                       run_phase_transition_alpha(spec))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a_trace.csv").read_bytes() == (tmp_path / "b_trace.csv").read_bytes()
    meta = json.loads((tmp_path / "a.meta.json").read_text())
    assert meta["spec"]["experiment"] == "phase_alpha"
    assert meta["status"] == 0
    assert "table" in p1 and "trace" in p2


def test_cli_diverging_study_writes_inf_without_a_warning(tmp_path):
    # mu = 50 blows the iterates past the float range; the error norms of the
    # diverged estimate are then inf, which is the defined outcome, not a
    # failure of the run.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 10, "n_ambient": 12, "sparsity_grid": [12], "trials": 1,
                               "iterations": 2000, "k_trace": 12, "mu_grid": [50.0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stepsize", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    header, row = (tmp_path / "run.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert (row["centile_error"], row["mean_error"]) == ("1.0", "inf")


def test_cli_end_to_end(tmp_path):
    config = {
        "sparsity_grid": [0, 2],
        "alpha_grid": [0.0],
        "trials": 3,
        "iterations": 40,
        "k_trace": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    code = main(["phase-alpha", "--config", str(cfg_path), "--out", str(out), "--seed", "5"])
    assert code == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0].startswith("k,alpha,")
    assert len(lines) == 1 + 2 * 1  # header + 2 cells


def test_cli_rerun_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sparsity_grid": [3], "outlier_grid": [0, 5],
                                    "trials": 3, "iterations": 50}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["outliers", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["outliers", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("command, config", [
    ("phase-alpha", {"sparsity_grid": [0, 2], "alpha_grid": [0.0, 0.3], "trials": 2,
                     "iterations": 30}),
    ("stepsize", {"sparsity_grid": [1, 2], "mu_grid": [0.3, 0.6], "trials": 2,
                  "iterations": 25}),
])
def test_cli_k_trace_outside_grid_writes_the_table_only(tmp_path, command, config):
    # A k_trace outside sparsity_grid is not an error: nothing is traced, no
    # _trace.csv is written, and the table is that of the in-grid run.
    for k_trace in (2, 7):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "k_trace": k_trace}))
        out = tmp_path / f"k{k_trace}"
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    assert (tmp_path / "k2_trace.csv").exists()
    assert not (tmp_path / "k7_trace.csv").exists()
    assert (tmp_path / "k2.csv").read_bytes() == (tmp_path / "k7.csv").read_bytes()
    meta = json.loads((tmp_path / "k7.meta.json").read_text())
    assert meta["outputs"] == [str(tmp_path / "k7.csv")]


def test_cli_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert main(["phase-alpha", "--config", str(bad)]) == 1
    bad.write_text("not json")
    assert main(["phase-alpha", "--config", str(bad)]) == 1
    assert main(["phase-alpha", "--config", str(tmp_path / "missing.json")]) == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"experiment": "outliers"}))
    assert main(["phase-alpha", "--config", str(wrong)]) == 1
    # Out-of-range values are rejected before any work, so nothing is written.
    for command, config in (
        ("phase-alpha", {"trials": 0}),
        ("nipr", {"nipr_weight": -1}),
        ("phase-alpha", {"rel_change_tol": -1}),
        ("theorem", {"resample_budget": 0}),
        ("theorem", {"sparsity_grid": [1, 2]}),
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1, config
        assert not list(tmp_path.glob("out*")), config


def test_cli_inconclusive_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 8, "n_ambient": 12, "trials": 1, "resample_budget": 10}))
    code = main(["theorem", "--config", str(cfg), "--out", str(tmp_path / "t")])
    assert code == 3
    # No variant found a seed, so the table is its header alone.
    assert (tmp_path / "t.csv").read_text() == (
        "variant,attempt,mu,delta,delta_beta,noise_term,model_error,eta,"
        "margin_projection,margin_truth,verified\n")


@pytest.mark.parametrize("m", [64, 8])
def test_cli_theorem_at_zero_sparsity(tmp_path, m):
    # k = 0: the model set is {0}, delta is 0 at every mu, and the tuner
    # returns the first grid value, so every seed qualifies.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": m, "sparsity_grid": [0], "trials": 2, "resample_budget": 4}))
    code = main(["theorem", "--config", str(cfg), "--out", str(tmp_path / "t")])
    assert code == 0
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 4
    assert all(line.endswith(",1") for line in lines[1:])


def test_cli_theorem_rejects_supports_past_the_enumeration_guard(tmp_path):
    # C(40, 20) supports is known from the spec alone: exit 1, before any draw.
    _exits_1_and_writes_nothing(tmp_path, "theorem",
                                {"m": 64, "n_ambient": 40, "sparsity_grid": [10]})


def test_cli_component_error_exit_code(tmp_path, monkeypatch):
    # A valid spec whose run fails inside a component exits 2.  Validation
    # rejects every config known to fail late, so the failure is injected.
    import gpgd.experiments as ex

    def failing_train(prior0, dataset, cfg):
        raise FloatingPointError("training failed")

    monkeypatch.setattr(ex, "train", failing_train)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3, "n_ambient": 7, "trials": 1}))
    code = main(["nipr", "--config", str(cfg), "--out", str(tmp_path / "n")])
    assert code == 2
    assert not list(tmp_path.glob("n*"))


def test_spec_round_trips_through_config(tmp_path):
    # The meta.json spec echo lists the experiment's keys only, so it loads
    # back as a config and rebuilds the spec.
    spec = default_spec("stepsize", trials=2, iterations=10, sparsity_grid=[1, 2],
                        output_path=str(tmp_path / "s"))
    write_outputs(spec, run_stepsize_study(spec))
    echo = json.loads((tmp_path / "s.meta.json").read_text())["spec"]
    assert sorted(echo) == sorted(["experiment", *_DEFAULTS["stepsize"]])
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(echo))
    assert load_spec("stepsize", str(cfg)) == spec


def test_shipped_configs_are_the_defaults():
    for path in sorted(CONFIGS.glob("*.json")):
        loaded = load_spec(path.stem, str(path))
        assert dataclasses.replace(loaded, output_path="results") == default_spec(path.stem), path.name


def _unread_pairs():
    keys = [f.name for f in dataclasses.fields(ExperimentSpec)
            if f.name not in ("experiment", "seed", "output_path")]
    return [(experiment, key) for experiment in EXPERIMENTS for key in keys
            if key not in _DEFAULTS[experiment]]


def _cli(tmp_path, command, config, out="out"):
    cfg = tmp_path / f"cfg_{out}.json"
    cfg.write_text(json.dumps(config))
    return main([command, "--config", str(cfg), "--out", str(tmp_path / out)])


def _exits_1_and_writes_nothing(tmp_path, command, config):
    assert _cli(tmp_path, command, config) == 1, config
    assert not list(tmp_path.glob("out*")), config


@pytest.mark.parametrize("experiment, key", _unread_pairs())
def test_cli_rejects_a_key_the_experiment_does_not_read(tmp_path, experiment, key):
    # The value is the key's default in an experiment that reads it.
    value = next(table[key] for table in _DEFAULTS.values() if key in table)
    _exits_1_and_writes_nothing(tmp_path, experiment.replace("_", "-"), {key: value})


@pytest.mark.parametrize("config", [
    {"trials": 1.5},
    {"iterations": 5.5},
    {"m": 20.0},
    {"sparsity_grid": [2.5]},
    {"k_trace": True},
    {"alpha_grid": [0.0, False]},
    {"mu": "0.6"},
    {"gaussian_sigma": float("nan")},
    {"alpha_grid": 0.3},
])
def test_cli_rejects_values_of_the_wrong_type(tmp_path, config):
    _exits_1_and_writes_nothing(tmp_path, "phase-alpha", config)


@pytest.mark.parametrize("experiment, overrides", [
    ("nipr", {}),  # reads gaussian_sigma, but no outliers and no sparsity grid
    ("phase_alpha", {"sparsity_grid": [0]}),
    ("outliers", {"sparsity_grid": [0], "outlier_grid": [0]}),
])
def test_relative_noise_without_outliers_builds_a_spec(experiment, overrides):
    spec = default_spec(experiment, gaussian_sigma=-1.0, **overrides)
    assert spec.gaussian_sigma == -1.0


@pytest.mark.parametrize("command, grids", [
    ("outliers", {"sparsity_grid": [3], "outlier_grid": [0, 5]}),
    ("joint", {"sparsity_grid": [4], "outlier_grid": [5]}),
    # The relative noise level (gaussian_sigma < 0) is 0 at k = 0.
    ("outliers", {"sparsity_grid": [0], "outlier_grid": [0, 5], "gaussian_sigma": -1.0}),
    ("joint", {"sparsity_grid": [0], "outlier_grid": [5], "gaussian_sigma": -1.0}),
])
def test_cli_rejects_zero_amplitude_outliers(tmp_path, command, grids):
    # With no dense noise, outlier_amplitude <= 0 (100x the noise level)
    # would draw outliers of amplitude 0.
    config = {"gaussian_sigma": 0, "outlier_amplitude": -1.0, "trials": 2, "iterations": 20,
              **grids}
    _exits_1_and_writes_nothing(tmp_path, command, config)
    # Without outliers, or with an absolute amplitude, the run is valid.
    assert _cli(tmp_path, command, {**config, "outlier_grid": [0]}, "s0") == 0
    assert _cli(tmp_path, command, {**config, "outlier_amplitude": 1.0}, "a1") == 0


@pytest.mark.parametrize("command, config", [
    ("stepsize", {"sparsity_grid": [3, 3], "mu_grid": [0.3, 0.3], "k_trace": 3}),
    ("stepsize", {"sparsity_grid": [3], "mu_grid": [0.3, 0.6, 0.3], "k_trace": 3}),
    ("phase-alpha", {"sparsity_grid": [3, 3], "k_trace": 3}),
    ("phase-alpha", {"sparsity_grid": [2], "alpha_grid": [0, 0.0]}),
    ("outliers", {"sparsity_grid": [2], "outlier_grid": [5, 5]}),
    ("joint", {"sparsity_grid": [2, 2], "outlier_grid": [1]}),
])
def test_cli_rejects_repeated_grid_entries(tmp_path, command, config):
    # Grid entries key the cells, so a repeated entry would merge the trials
    # of two cells into each of its rows.
    config = {"m": 12, "n_ambient": 20, "trials": 2, "iterations": 5, **config}
    _exits_1_and_writes_nothing(tmp_path, command, config)


def test_cli_rejects_an_output_path_outside_an_existing_directory(tmp_path):
    # Checked before the study runs, not at the write after it.
    (tmp_path / "file").write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 1, "iterations": 5}))
    for out in (tmp_path / "no" / "such" / "x", tmp_path / "file" / "x"):
        assert main(["theorem", "--config", str(cfg), "--out", str(out)]) == 1, out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]
