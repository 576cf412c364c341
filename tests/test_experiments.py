import dataclasses
import itertools
import json
import statistics
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpgd.constants as constants
import gpgd.experiments as experiments
from gpgd.cli import load_spec, main
from gpgd.constants import (
    SUPPORT_CHUNK,
    _null_space_ric_floors,
    _tuned_mu,
    exact_ric_sparse,
    null_space_ric_floor,
    theorem_bound_eval,
)
from gpgd.descent import GpgdConfig, _stacked_run, gpgd_run
from gpgd.experiments import (
    _COLUMNS,
    _DEFAULTS,
    _TAGS,
    _TRACE_COLUMNS,
    EXPERIMENTS,
    FLOOR_REJECT_MARGIN,
    RUNNERS,
    THEOREM_MU_GRID,
    THEOREM_VARIANTS,
    ExperimentSpec,
    PerturbedProjection,
    _bound_margins,
    _draw_instance,
    _row_projection,
    _stepsize_solve,
    _theorem_search,
    _trace_rows,
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
from gpgd.operators import BackProjection, MeasurementOperator, gaussian_operator
from gpgd.prior import LearnedProjection
from gpgd.projections import HARD_THRESHOLD_BETA, HardThreshold, PAlpha, hard_threshold

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _tiny_phase_spec(**kw):
    base = dict(sparsity_grid=[0, 2, 4], alpha_grid=[0.0, 0.3], trials=4,
                iterations=60, k_trace=2)
    base.update(kw)
    return default_spec("phase_alpha", **base)


@pytest.fixture
def one_share(monkeypatch):
    """Runs every share in this process, where a test counts calls; the byte
    tests cover the forked shares."""
    monkeypatch.setattr(experiments, "_processes", lambda: 1)


def _spy(monkeypatch, module, name):
    """The (args, kwargs, result) of each call of module.name, which still runs."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(module, name, spy)
    return calls


def _cli(tmp_path, command, config, out="out", *extra):
    """main() on `config`, written to a file, with --out tmp_path / out and `extra`."""
    cfg = tmp_path / f"cfg_{out}.json"
    cfg.write_text(json.dumps(config))
    return main([command, "--config", str(cfg), "--out", str(tmp_path / out), *extra])


def _exits_1_and_writes_nothing(tmp_path, command, config):
    assert _cli(tmp_path, command, config) == 1, config
    assert not list(tmp_path.glob("out*")), config


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


def _arm_runs(spec, k, rng, t):
    """The step-size solve arm by arm: each arm's own gpgd_run on the
    instance, as (k-sparse estimate bytes, estimate bytes, diverged), and
    its trace rows when traced."""
    op, x, y, _ = _draw_instance(spec, rng, k)
    bp = BackProjection.adjoint(op)
    runs, rows = [], []
    for mu in spec.mu_grid:
        cfg = GpgdConfig(mu=mu, max_iters=spec.iterations, rel_change_tol=spec.rel_change_tol)
        run = gpgd_run(np.zeros(spec.n_ambient), HardThreshold(k), bp, op, y, cfg)
        runs.append((hard_threshold(run.final, k).tobytes(), run.final.tobytes(), run.diverged))
        if k == spec.k_trace and t == 0:
            cfg = dataclasses.replace(cfg, rel_change_tol=0.0)
            trace = gpgd_run(np.zeros(spec.n_ambient), HardThreshold(k), bp, op, y, cfg, truth=x)
            rows.extend(_trace_rows(trace, {"mu": float(mu), "k": k}))
    return runs, rows


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), extra=st.integers(-3, 6),
       k=st.integers(0, 12), iterations=st.integers(1, 30), t=st.sampled_from([0, 1]),
       tol=st.sampled_from([0.0, 1e-12, 1e-4, 1e-2]),
       mus=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3, unique=True)
       .flatmap(lambda drawn: st.permutations(drawn + [1e100])))
@example(seed=0, n=12, extra=0, k=12, iterations=12, t=0, tol=0.0, mus=[1e100, 0.3, 0.6])
@example(seed=1, n=12, extra=-3, k=0, iterations=12, t=0, tol=1e-4, mus=[0.6, 1e100])
@example(seed=2, n=300, extra=-150, k=4, iterations=30, t=0, tol=0.0, mus=[0.3, 1e100, 0.6])
@example(seed=3, n=12, extra=12, k=2, iterations=30, t=1, tol=1e-2, mus=[0.6, 1e100])
def test_stepsize_arms_are_each_arms_gpgd_run(seed, n, extra, k, iterations, t, tol, mus):
    # The step-size arms, solved as one stack on their shared operator, must
    # each give the estimate bits and the trace rows of the arm's own
    # gpgd_run, at k = 0, k = n and between, with early stopping or without
    # it, and at the default 150 x 300.  Every stack holds mu = 1e100, which
    # diverges unless k = 0.
    k = min(k, n)
    spec = default_spec("stepsize", m=max(1, n + extra), n_ambient=n, sparsity_grid=[k],
                        mu_grid=mus, iterations=iterations, k_trace=k, rel_change_tol=tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "normalized_error", lambda estimate, _: estimate.tobytes())
        pairs, rows = _stepsize_solve(spec, k, np.random.default_rng(seed), t)
    runs, ref_rows = _arm_runs(spec, k, np.random.default_rng(seed), t)
    assert pairs == [run[:2] for run in runs]
    assert repr(rows) == repr(ref_rows)
    if k > 0 and iterations >= 6:
        assert runs[mus.index(1e100)][2]


@pytest.mark.parametrize("experiment, key, arms, iterations", [
    ("stepsize", "mu", [0.3, 0.6], 20),
    ("phase_alpha", "alpha", [0.0, 0.3], 200),
], ids=["stepsize", "phase_alpha"])
def test_trace_reuses_the_main_solve(one_share, monkeypatch, experiment, key, arms, iterations):
    # The k_trace solve on trial 0 runs without early stopping and records
    # the truth.  In phase_alpha it is also the arms' main solve, so a cell
    # solves each trial once and no more: one gpgd_run per arm.  In stepsize
    # each trial is one _stacked_run of every arm, which records only the
    # iterates, so the traced trial adds one gpgd_run per arm for its trace
    # rows.
    runs = _spy(monkeypatch, experiments, "gpgd_run")
    stacks = _spy(monkeypatch, experiments, "_stacked_run")
    spec = default_spec(experiment, sparsity_grid=[3], trials=3, iterations=iterations,
                        k_trace=3, **{f"{key}_grid": arms})
    r = RUNNERS[experiment](spec)
    stacked = [len(args[2]) for args, _, _ in stacks]
    assert (stacked, len(runs)) == (([2] * 3, 2) if experiment == "stepsize" else ([], 3 * 2))
    traced = [(args, trace) for args, kwargs, trace in runs if kwargs.get("truth") is not None]
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


def test_nipr_identical_weights_give_identical_reports(monkeypatch):
    # 40 epochs keep the determinism check quick.
    monkeypatch.setattr(experiments, "NIPR_TRAIN", dict(experiments.NIPR_TRAIN, epochs=40))
    r = experiments.run_nipr_stability(default_spec("nipr", trials=1, nipr_weight=0.0))
    a, b = r["rows"]
    assert sorted(a) == sorted(b) == sorted(_COLUMNS["nipr"])
    for key in ("i_min", "sm1_10", "sm1_50", "sm1_100", "sm2_10", "sm2_50", "sm2_100",
                "best_error", "final_error", "final_penalty"):
        assert a[key] == b[key]
    # Identical priors tie, and a tie counts as a win for the regularized one.
    assert r["summary"] == {"sm1_50_wins": 1, "pairs": 1}


def _replay_on_and_off(monkeypatch, projection_class, run):
    """run() with cycle replay on and then off for projection_class, in this
    process, and the projection calls each made."""
    monkeypatch.setattr(experiments, "_processes", lambda: 1)
    calls = []
    call = projection_class.__call__
    monkeypatch.setattr(projection_class, "__call__", lambda self, z: calls.append(1) or call(self, z))
    replayed = run()
    replayed_calls = len(calls)
    monkeypatch.setattr(projection_class, "_deterministic", False)
    plain = run()
    return replayed, plain, replayed_calls, len(calls) - replayed_calls


def test_outlier_rows_are_the_same_with_and_without_cycle_replay(monkeypatch):
    spec = default_spec("outliers", sparsity_grid=[8], outlier_grid=[30], trials=4)
    replayed, plain, replayed_calls, plain_calls = _replay_on_and_off(
        monkeypatch, HardThreshold, lambda: run_outlier_tradeoff(spec)["rows"])
    assert replayed == plain
    assert replayed_calls < plain_calls


def test_outlier_rows_are_the_same_with_and_without_replay_of_same_norm_orbits(monkeypatch):
    # At this cell both adjoint solves come back to norms they have seen
    # with other bits (5 and 3 norms) before their cycles close, so the
    # lookup keys those norms' iterates by their bytes.
    spec = default_spec("outliers", sparsity_grid=[12], outlier_grid=[45], trials=2, seed=3)
    replayed, plain, replayed_calls, plain_calls = _replay_on_and_off(
        monkeypatch, HardThreshold, lambda: run_outlier_tradeoff(spec)["rows"])
    assert replayed == plain
    assert replayed_calls < plain_calls


def test_nipr_rows_are_the_same_with_and_without_cycle_replay(monkeypatch):
    monkeypatch.setattr(experiments, "NIPR_TRAIN", dict(experiments.NIPR_TRAIN, epochs=40))
    spec = default_spec("nipr", trials=1)
    replayed, plain, replayed_calls, plain_calls = _replay_on_and_off(
        monkeypatch, LearnedProjection, lambda: experiments.run_nipr_stability(spec)["rows"])
    assert replayed == plain
    assert replayed_calls < plain_calls


def test_theorem_check_verifies_at_feasible_dims():
    spec = default_spec("theorem", trials=2, resample_budget=40)
    r = run_theorem_check(spec)
    assert r["status"] == 0
    assert all(row["verified"] for row in r["rows"])
    assert {row["variant"] for row in r["rows"]} == {"noiseless", "noisy", "model_error", "proj_error"}


def test_theorem_check_computes_each_op_norm_only_for_a_nonzero_error(one_share, monkeypatch):
    # C_rob multiplies model_error and C_proj multiplies eta, so each
    # operator norm is computed only on the rows where its factor is > 0.
    calls = _spy(monkeypatch, experiments, "operator_norm")
    rows = run_theorem_check(default_spec("theorem", trials=2))["rows"]
    assert len(calls) == sum(row["model_error"] > 0 for row in rows) + sum(row["eta"] > 0 for row in rows) == 4


def test_theorem_check_takes_each_delta_from_exact_ric_sparse_at_the_tuned_mu(one_share, monkeypatch):
    # The benchmark times the enumeration through experiments.exact_ric_sparse,
    # so the check must call it once per tuned attempt, at the tuner's mu;
    # an accepted attempt's row holds that mu and that call's delta.
    tuned = _spy(monkeypatch, constants, "_tuned_mu")
    rics = _spy(monkeypatch, experiments, "exact_ric_sparse")
    rows = run_theorem_check(default_spec("theorem"))["rows"]
    assert len(rics) == len(tuned) > len(rows) == 20
    for ((B, _, _), _, mu), ((scaled, _), _, _) in zip(tuned, rics):
        assert np.array_equal(scaled, mu * B)
    accepted = [(mu, delta) for (_, _, mu), (_, _, delta) in zip(tuned, rics)
                if delta * HARD_THRESHOLD_BETA < 1.0]
    assert accepted == [(row["mu"], row["delta"]) for row in rows]


def test_theorem_check_solves_the_cell_in_one_stacked_descent(one_share, monkeypatch):
    runs = _spy(monkeypatch, experiments, "gpgd_run")
    stacks = _spy(monkeypatch, experiments, "_stacked_run")
    assert len(run_theorem_check(default_spec("theorem", trials=2))["rows"]) == 8
    assert runs == [] and [len(args[0]) for args, _, _ in stacks] == [8]


def test_bound_margins_are_each_rows_textbook_margins(monkeypatch):
    # Two seeds of each variant at the default spec: the noiseless rows'
    # margin_projection is exactly 0.0 (err_0 = bound_0), model_error and
    # eta are not zero on their variants' rows.  A noiseless seed rerun at
    # mu = 1e30 diverges, so its run, and its margins, stop short.  Each
    # margin must have the bits of the per-row computation with
    # theorem_bound_eval on the row's own gpgd_run, whose perturbed
    # projection is a fresh one with the row's seed.
    class Seeded(PerturbedProjection):
        def __init__(self, k, eta, seed):
            super().__init__(k, eta, seed)
            self.seed = seed

    monkeypatch.setattr(experiments, "PerturbedProjection", Seeded)
    spec = default_spec("theorem", trials=2)
    searches = [_theorem_search(spec, vi) for vi in range(len(THEOREM_VARIANTS))]
    bounds, stack = ([x for found in searches for x in found[part]] for part in (1, 2))
    matrix, y, _, _, truth = stack[0]
    stack.append((matrix, y, 1e30, HardThreshold(1), truth))
    bounds.append(bounds[0])
    matrices, ys, mus, projs, truths = zip(*stack)
    refs = [PerturbedProjection(proj.k, proj.eta, proj.seed) if isinstance(proj, Seeded)
            else HardThreshold(1) for proj in projs]
    assert [isinstance(proj, PerturbedProjection) for proj in refs] == [False] * 6 + [True] * 2 + [False]
    iterates, stops = _stacked_run(np.array(matrices), np.array(ys), np.array(mus),
                                   _row_projection(projs, 1, slice(6, 8), spec.iterations,
                                                   spec.n_ambient), spec.iterations)
    tbs, projected_truths = zip(*bounds)
    margins = _bound_margins(tbs, projected_truths, truths, iterates, stops)
    traces = []
    for A, y, mu, proj, x in zip(matrices, ys, mus, refs, truths):
        op = MeasurementOperator(A)
        cfg = GpgdConfig(mu=mu, max_iters=spec.iterations, record_iterates=True)
        traces.append(gpgd_run(np.zeros(spec.n_ambient), proj, BackProjection.adjoint(op), op, y, cfg,
                               truth=x))
    assert stops.tolist() == [trace.iterations_run for trace in traces]
    assert traces[-1].diverged and traces[-1].iterations_run < spec.iterations
    assert not any(trace.diverged for trace in traces[:-1])
    assert any(tb.model_error > 0 for tb in tbs) and any(tb.proj_error_eta > 0 for tb in tbs)
    for i, (trace, (tb, projected_truth)) in enumerate(zip(traces, bounds)):
        initial_error = float(np.linalg.norm(projected_truth))
        with np.errstate(over="ignore"):
            to_projection = np.array([np.linalg.norm(x - projected_truth) for x in trace.iterates])
        for errors, variant, margin in ((to_projection, "projection", margins[0][i]),
                                        (np.array(trace.errors_to_truth), "truth", margins[1][i])):
            bound = theorem_bound_eval(tb, trace.iterations_run, initial_error, variant)
            expected = float(np.max(errors - bound))
            assert type(margin) is float and np.float64(margin).tobytes() == np.float64(expected).tobytes()
    assert THEOREM_VARIANTS[0] == "noiseless" and margins[0][:2] == [0.0, 0.0]
    assert margins[0][-1] > 1e9


def test_theorem_check_reports_why_it_rejected_each_attempt():
    # Per variant, every attempt is a floor rejection, a tuner rejection or
    # an acceptance; the accepted ones are the variant's rows, the last of
    # them its last attempt, and each rejection came short of delta*beta < 1.
    spec = default_spec("theorem")
    r = run_theorem_check(spec)
    reports = r["summary"]["variants"]
    assert list(reports) == list(THEOREM_VARIANTS)
    for variant, report in reports.items():
        accepted = [row["attempt"] for row in r["rows"] if row["variant"] == variant]
        assert report["accepted"] == len(accepted) == spec.trials
        assert (report["floor_rejected"] + report["tuner_rejected"] + report["accepted"]
                == report["attempts"] == accepted[-1] + 1)
        for kind, name in (("floor", "floor_beta"), ("tuner", "delta_beta")):
            if report[f"{kind}_rejected"]:
                assert 1.0 <= report[f"{name}_min"] <= report[f"{name}_median"]
            else:
                assert report[f"{name}_min"] is report[f"{name}_median"] is None
    assert sum(report["tuner_rejected"] for report in reports.values()) > 0


def test_cli_inconclusive_theorem_check_reports_its_near_misses(tmp_path, capsys):
    # At m=8 the null-space floor rejects every attempt: the run exits 3,
    # writes a table with no rows, and says how close the attempts came.
    config = dict(m=8, n_ambient=12, sparsity_grid=[1], trials=5, resample_budget=30)
    assert _cli(tmp_path, "theorem", config, "run") == 3
    assert (tmp_path / "run.csv").read_text() == ",".join(_COLUMNS["theorem"]) + "\n"
    summary = json.loads((tmp_path / "run.meta.json").read_text())["summary"]
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == summary
    assert summary["inconclusive_variants"] == list(THEOREM_VARIANTS)
    for report in summary["variants"].values():
        assert report["attempts"] == report["floor_rejected"] == 30
        assert report["tuner_rejected"] == report["accepted"] == 0
        assert 1.0 < report["floor_beta_min"] <= report["floor_beta_median"]
        assert report["delta_beta_min"] is report["delta_beta_median"] is None


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


def _all_supports(n, t):
    return np.array(list(itertools.combinations(range(n), t)))


def _full_ric_sparse(B, k):
    # exact_ric_sparse without its screen: one stacked SVD over every support.
    n = B.shape[0]
    t = min(2 * k, n)
    if t == 0:
        return 0.0
    D = B - np.eye(n)
    columns = np.moveaxis(D[:, _all_supports(n, t)], 1, 0)
    return float(np.linalg.svd(columns, compute_uv=False)[:, 0].max())


def _full_floor(A, k):
    # null_space_ric_floor without its screen: one stacked eigvalsh over every support.
    m, n = A.shape
    t = min(2 * k, n)
    if t == 0 or m >= n:
        return 0.0
    null_basis = np.linalg.svd(A)[2][m:]
    P = null_basis.T @ null_basis
    supports = _all_supports(n, t)
    lam = float(np.linalg.eigvalsh(P[supports[:, :, None], supports[:, None, :]])[:, -1].max())
    return float(np.sqrt(lam))


def _full_eigvalsh_scan(B, k, mu_grid):
    # The tuner without its screens: one stacked eigvalsh over every support
    # per grid mu, and the first mu of smallest delta wins.
    n = B.shape[0]
    t = min(2 * k, n)
    if t == 0:
        return float(mu_grid[0])
    supports = _all_supports(n, t)
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
    return best[1]


@pytest.mark.parametrize("m", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_tuner_matches_the_full_eigvalsh_scan(m, k):
    for seed in range(6 if k < 2 else 2):
        A = gaussian_operator(m, 12, trial_rng(seed, m, k)).matrix
        B = A.T @ A
        assert _tuned_mu(B, k, THEOREM_MU_GRID) == _full_eigvalsh_scan(B, k, THEOREM_MU_GRID)


def test_tuner_screens_many_supports_in_blocks():
    # C(100, 2) = 4950 supports: the screen takes the grid in two blocks.
    A = gaussian_operator(80, 100, trial_rng(0, 80)).matrix
    B = A.T @ A
    assert _tuned_mu(B, 1, THEOREM_MU_GRID) == _full_eigvalsh_scan(B, 1, THEOREM_MU_GRID)


@pytest.mark.parametrize("k, n", [(1, 12), (2, 6)])
def test_tuner_breaks_exact_ties_like_the_full_scan(k, n):
    # B = c I with c = 2 / (mu_i + mu_j) puts mu_i and mu_j at the same
    # distance |mu c - 1| from 1, so the two neighbours tie for the minimum
    # (exactly, or up to the last bit).
    grid = THEOREM_MU_GRID
    for i in range(len(grid) - 1):
        B = 2.0 / (grid[i] + grid[i + 1]) * np.eye(n)
        assert _tuned_mu(B, k, grid) == _full_eigvalsh_scan(B, k, grid), i


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
            assert _tuned_mu(B, 1, grid) == _full_eigvalsh_scan(B, 1, grid), i


def _assert_screens_match_the_full_enumeration(A, k, mus=THEOREM_MU_GRID[::7]):
    B = A.T @ A
    for mu in mus:
        assert exact_ric_sparse(mu * B, k) == _full_ric_sparse(mu * B, k), mu
    assert null_space_ric_floor(A, k) == _full_floor(A, k)


@pytest.mark.parametrize("m", [8, 16, 64, 128])
@pytest.mark.parametrize("k", [1, 2])
def test_support_screens_match_the_full_enumeration(m, k):
    # k = 2 takes the unscreened path at support size 4.
    for seed in range(6 if k == 1 else 2):
        _assert_screens_match_the_full_enumeration(
            gaussian_operator(m, 12, trial_rng(seed, m, k, 7)).matrix, k)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 16), n=st.integers(2, 12),
       log_scale=st.sampled_from([-3, 0, 3]))
def test_support_screens_match_the_full_enumeration_on_drawn_instances(seed, m, n, log_scale):
    A = 10.0**log_scale * gaussian_operator(m, n, trial_rng(seed)).matrix
    _assert_screens_match_the_full_enumeration(A, 1, THEOREM_MU_GRID[::15])
    B = A.T @ A
    assert _tuned_mu(B, 1, THEOREM_MU_GRID) == _full_eigvalsh_scan(B, 1, THEOREM_MU_GRID)


def test_support_screens_keep_every_tied_support():
    # B = c I ties every support exactly; a null space along the last
    # coordinates ties every support inside it at lambda_max 1.
    for c in (0.25, 1.0, 3.0):
        assert exact_ric_sparse(c * np.eye(12), 1) == _full_ric_sparse(c * np.eye(12), 1)
    A = np.eye(5, 12)
    assert null_space_ric_floor(A, 1) == _full_floor(A, 1) == 1.0


def test_support_screens_break_ties_of_rotated_blocks_like_the_full_enumeration():
    # Two 2x2 diagonal blocks with the same eigenvalues, each randomly
    # rotated: supports {0, 1} and {2, 3} tie, and the closed form and LAPACK
    # round the two tied values differently, so a screen without its
    # tolerance keeps the wrong one on some of these.
    rng = np.random.default_rng(5)
    for trial in range(200):
        B = np.zeros((4, 4))
        for start in (0, 2):
            R = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            B[start:start + 2, start:start + 2] = R @ np.diag([0.3, 1.9]) @ R.T
        assert exact_ric_sparse(B, 1) == _full_ric_sparse(B, 1), trial
        assert _tuned_mu(B, 1, THEOREM_MU_GRID) == _full_eigvalsh_scan(B, 1, THEOREM_MU_GRID)


def test_support_screens_on_a_single_support():
    # n = 2 holds one support of size 2.
    A = gaussian_operator(1, 2, trial_rng(0, 2)).matrix
    _assert_screens_match_the_full_enumeration(A, 1)
    B = A.T @ A
    assert _tuned_mu(B, 1, THEOREM_MU_GRID) == _full_eigvalsh_scan(B, 1, THEOREM_MU_GRID)


def test_support_screen_sends_every_support_to_lapack_when_the_closed_form_overflows():
    # At 1e200 the Gram matrix D'D overflows, so no closed-form value is
    # finite; the SVD of the scaled columns is not troubled.
    A = gaussian_operator(64, 12, trial_rng(0, 64)).matrix
    B = 1e200 * (A.T @ A)
    assert np.isfinite(_full_ric_sparse(B, 1))
    assert exact_ric_sparse(B, 1) == _full_ric_sparse(B, 1)


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5), m=st.integers(1, 14),
       n=st.integers(2, 12), k=st.integers(0, 3))
@example(seed=0, count=1, m=5, n=12, k=1)   # a stack of one
@example(seed=1, count=3, m=12, n=12, k=1)  # m >= n: zeros
@example(seed=2, count=3, m=14, n=6, k=2)
@example(seed=3, count=4, m=6, n=12, k=0)   # no support
@example(seed=4, count=4, m=1, n=2, k=1)    # one support of size 2
@example(seed=5, count=3, m=1, n=2, k=3)    # t capped at n = 2
@example(seed=6, count=5, m=7, n=12, k=2)   # t = 4: every support to eigvalsh
@example(seed=7, count=2, m=3, n=8, k=3)    # t = 6
def test_stacked_floors_are_each_operators_floor_bit_for_bit(seed, count, m, n, k):
    rng = trial_rng(seed)
    As = np.array([gaussian_operator(m, n, rng).matrix for _ in range(count)])
    floors = _null_space_ric_floors(As, k)
    assert floors.shape == (count,)
    for A, floor in zip(As, floors):
        assert floor == null_space_ric_floor(A, k) == _full_floor(A, k)


@pytest.mark.parametrize("m, n, k, count, calls", [
    (7, 12, 2, 20, 3),  # 495 supports of size 4 each: 8 operators per call
    (1, 40, 1, 6, 2),   # 780 supports of size 2 each, nearly all kept
])
def test_stacked_floors_span_several_eigvalsh_calls(monkeypatch, m, n, k, count, calls):
    # At m = 1, P_N = I - uu' for a unit u, and every 2x2 block of it has
    # lambda_max 1, so the size-2 screen keeps every support it does not
    # round out.
    rng = trial_rng(11, m, n)
    As = np.array([gaussian_operator(m, n, rng).matrix for _ in range(count)])
    expected = [_full_floor(A, k) for A in As]
    blocks = _spy(monkeypatch, np.linalg, "eigvalsh")
    assert [float(f) for f in _null_space_ric_floors(As, k)] == expected
    blocks = [len(args[0]) for args, _, _ in blocks]
    assert len(blocks) == calls and max(blocks) <= SUPPORT_CHUNK < sum(blocks)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("B", [
    lambda B: np.where(np.eye(12) > 0, np.nan, B),
    lambda B: np.where(np.arange(12) == 5, np.inf, B),
    lambda B: np.where(np.arange(12)[:, None] == 3, -np.inf, B),
    lambda B: 1e200 * B,  # finite, but every Gram block overflows
], ids=["nan-diagonal", "inf-column", "-inf-row", "overflow"])
def test_tuner_raises_when_no_grid_mu_gives_a_finite_delta(B, k):
    A = gaussian_operator(64, 12, trial_rng(0, 64)).matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            _tuned_mu(B(A.T @ A), k, THEOREM_MU_GRID)


def test_tuner_passes_over_the_mu_whose_blocks_overflow():
    # Scaled so that the largest Gram entry is a quarter of the float range,
    # mu^2 B_T'B_T overflows above mu = 2 only, so the screen is not finite;
    # the tuner keeps the best of the grid values below 2.
    A = gaussian_operator(64, 12, trial_rng(0, 64)).matrix
    B = A.T @ A
    scale = np.sqrt(np.finfo(float).max / 4.0 / np.abs(B.T @ B).max())
    grid = np.linspace(0.3, 3.9, 13)
    finite = grid[grid < 2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _tuned_mu(scale * B, 1, grid) == _full_eigvalsh_scan(scale * B, 1, finite)


def _textbook_search(spec, vi, tune=_full_eigvalsh_scan):
    # _theorem_search one attempt at a time, with the unscreened references:
    # each attempt's floor, tuned mu (from `tune`) and delta, and for an
    # accepted one the truth its own stream draws next.
    k, n = spec.sparsity_grid[0], spec.n_ambient
    accepted, floors, deltas = [], [], []
    for attempt in range(spec.resample_budget):
        if len(accepted) >= spec.trials:
            break
        rng = trial_rng(spec.seed, _TAGS["theorem"], vi, attempt)
        A = gaussian_operator(spec.m, n, rng).matrix
        floor_beta = _full_floor(A, k) * HARD_THRESHOLD_BETA
        if floor_beta >= 1.0 + FLOOR_REJECT_MARGIN:
            floors.append(floor_beta)
            continue
        B = A.T @ A
        mu = tune(B, k, THEOREM_MU_GRID)
        delta = _full_ric_sparse(mu * B, k)
        if delta * HARD_THRESHOLD_BETA >= 1.0:
            deltas.append(delta * HARD_THRESHOLD_BETA)
            continue
        truth = sparse_signal(n, k, rng)
        if THEOREM_VARIANTS[vi] == "model_error":
            truth = truth + 0.05 * rng.standard_normal(n)
        accepted.append((attempt, mu, delta, delta * HARD_THRESHOLD_BETA, A, truth))
    report = {"attempts": len(floors) + len(deltas) + len(accepted),
              "floor_rejected": len(floors), "tuner_rejected": len(deltas),
              "accepted": len(accepted)}
    for name, values in (("floor_beta", floors), ("delta_beta", deltas)):
        report[f"{name}_min"] = min(values) if values else None
        report[f"{name}_median"] = statistics.median(values) if values else None
    return accepted, report


# Blocks of 1, 2, 4, 8, 16 and 32 attempts end after attempts 1, 3, 7, 15,
# 31 and 63, so budgets of 4, 5, 13 and 60 end inside a block.  At m=64 the
# noisy variant at one trial, and model_error at k=2 and two trials, reach
# their trials inside a block and discard the rest of it.
@pytest.mark.parametrize("m, k, trials, budget", [
    (8, 1, 2, 60), (8, 2, 1, 13),
    (10, 1, 2, 60), (10, 2, 1, 5),
    (11, 1, 2, 60), (11, 2, 1, 13),
    (16, 1, 1, 13), (16, 2, 1, 5),
    (64, 1, 1, 60), (64, 1, 3, 60), (64, 1, 3, 4), (64, 2, 2, 13), (64, 2, 3, 5),
])
def test_theorem_search_is_the_textbook_acceptance_loop(monkeypatch, m, k, trials, budget):
    tune = _full_eigvalsh_scan
    if 2 * k == 4:
        # At support size 4 the tuner has no screen and is itself the full
        # scan (the tuner tests hold it to _full_eigvalsh_scan), so each
        # attempt's scan is computed once and shared by both loops.
        tuned, tuner = {}, constants._tuned_mu

        def tune(B, k, mu_grid):
            if B.tobytes() not in tuned:
                tuned[B.tobytes()] = tuner(B, k, mu_grid)
            return tuned[B.tobytes()]

        monkeypatch.setattr(constants, "_tuned_mu", tune)
    spec = default_spec("theorem", m=m, sparsity_grid=[k], trials=trials,
                        resample_budget=budget)
    for vi in range(len(THEOREM_VARIANTS)):
        accepted, report = _textbook_search(spec, vi, tune)
        rows, _, stack, found = _theorem_search(spec, vi)
        assert found == report
        assert ([(row["attempt"], row["mu"], row["delta"], row["delta_beta"]) for row in rows]
                == [entry[:4] for entry in accepted])
        for (matrix, _, _, _, truth), entry in zip(stack, accepted):
            assert np.array_equal(matrix, entry[4]) and np.array_equal(truth, entry[5])


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
    config = {"m": 10, "n_ambient": 12, "sparsity_grid": [12], "trials": 1, "iterations": 2000,
              "k_trace": 12, "mu_grid": [50.0]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _cli(tmp_path, "stepsize", config, "run") == 0
    header, row = (tmp_path / "run.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert (row["centile_error"], row["mean_error"]) == ("1.0", "inf")


def test_cli_end_to_end(tmp_path):
    config = {"sparsity_grid": [0, 2], "alpha_grid": [0.0], "trials": 3, "iterations": 40, "k_trace": 2}
    assert _cli(tmp_path, "phase-alpha", config, "run", "--seed", "5") == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0].startswith("k,alpha,")
    assert len(lines) == 1 + 2 * 1  # header + 2 cells


def test_cli_rerun_byte_identical(tmp_path):
    config = {"sparsity_grid": [3], "outlier_grid": [0, 5], "trials": 3, "iterations": 50}
    assert _cli(tmp_path, "outliers", config, "a") == _cli(tmp_path, "outliers", config, "b") == 0
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
        assert _cli(tmp_path, command, {**config, "k_trace": k_trace}, f"k{k_trace}", "--seed", "3") == 0
    assert (tmp_path / "k2_trace.csv").exists()
    assert not (tmp_path / "k7_trace.csv").exists()
    assert (tmp_path / "k2.csv").read_bytes() == (tmp_path / "k7.csv").read_bytes()
    meta = json.loads((tmp_path / "k7.meta.json").read_text())
    assert meta["outputs"] == [str(tmp_path / "k7.csv")]


@pytest.mark.parametrize("command, config", [
    ("stepsize", {"k_trace": 99}),
    ("outliers", {}),
], ids=["k_trace_outside_grid", "other_experiment"])
def test_cli_rerun_without_traces_removes_the_stale_trace(tmp_path, command, config):
    # A rerun into the same --out that writes no trace must not leave the
    # earlier run's trace beside its table, unlisted in its meta.json.
    small = {"sparsity_grid": [2], "trials": 1, "iterations": 10}
    assert _cli(tmp_path, "stepsize", {**small, "mu_grid": [0.3], "k_trace": 2}, "run") == 0
    assert (tmp_path / "run_trace.csv").exists()
    assert _cli(tmp_path, command, {**small, **config}, "run") == 0
    assert not (tmp_path / "run_trace.csv").exists()
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert meta["outputs"] == [str(tmp_path / "run.csv")]


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
        _exits_1_and_writes_nothing(tmp_path, command, config)


@pytest.mark.parametrize("m", [64, 8])
def test_cli_theorem_at_zero_sparsity(tmp_path, m):
    # k = 0: the model set is {0}, delta is 0 at every mu, and the tuner
    # returns the first grid value, so every seed qualifies.
    assert _cli(tmp_path, "theorem", {"m": m, "sparsity_grid": [0], "trials": 2, "resample_budget": 4}, "t") == 0
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
    def failing_train(prior0, dataset, cfg):
        raise FloatingPointError("training failed")

    monkeypatch.setattr(experiments, "train", failing_train)
    assert _cli(tmp_path, "nipr", {"m": 3, "n_ambient": 7, "trials": 1}, "n") == 2
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
