"""Reproducible experiment drivers with long-form CSV emission.

Every trial owns an independent random stream derived from the master seed
as ``default_rng(SeedSequence(seed, spawn_key=(tag, *cell, trial)))`` where
``tag`` identifies the experiment and ``cell`` the grid cell.  Results are
therefore invariant to execution order and to enlarging the trial count
(old trials keep their streams), and re-running a spec reproduces output
files byte for byte.

Problem instances are drawn per (cell, trial) and shared across treatment
arms (step sizes, projection variants, back-projection methods), so the
arms are compared on identical data.
"""

import copy
import json
import math
import os
import pickle
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .constants import (
    ENUMERATION_GUARD,
    SUPPORT_CHUNK,
    TheoremBound,
    _support_chunks,
    exact_ric_sparse,
    null_space_ric_floor,
    operator_norm,
    theorem_bound_eval,
)
from .descent import GpgdConfig, _stacked_run, gpgd_run, i_min_oracle
from .metrics import centile_curve, normalized_error, stability_report
from .operators import BackProjection, JointOperator, gaussian_operator
from .prior import (
    LearnedProjection,
    TrainConfig,
    make_manifold_dataset,
    nipr_penalty,
    random_prior,
    train,
)
from .projections import (
    HARD_THRESHOLD_BETA,
    HardThreshold,
    PAlpha,
    ProductProjection,
    _count,
    _norm,
    _norms,
    _real,
    _threshold_rows,
    hard_threshold,
    model_distance,
    sparse_signal,
)

__all__ = [
    "ExperimentSpec",
    "default_spec",
    "trial_rng",
    "sparse_signal",
    "run_phase_transition_alpha",
    "run_outlier_tradeoff",
    "run_stepsize_study",
    "run_joint_model",
    "run_nipr_stability",
    "run_theorem_check",
    "write_outputs",
    "RUNNERS",
    "EXPERIMENTS",
]

EXPERIMENTS = ("phase_alpha", "outliers", "stepsize", "joint", "nipr", "theorem")

# Spawn-key tags decouple the streams of different experiments run off the
# same master seed.
_TAGS = {name: i + 1 for i, name in enumerate(EXPERIMENTS)}

SUCCESS_THRESHOLD = 0.05

THEOREM_VARIANTS = ("noiseless", "noisy", "model_error", "proj_error")

# Step sizes the theorem check tunes mu over.
THEOREM_MU_GRID = np.linspace(0.05, 2.5, 80)

# A seed is rejected untuned only when its null-space floor clears the
# contraction by this much; closer calls go through the tuner, so rounding
# in the floor never decides a seed.
FLOOR_REJECT_MARGIN = 1e-9

# The mu tuner's closed-form 2x2 screen keeps every grid mu whose screened
# lambda_max lies within this much (relative, floor 1) of the smallest, and
# confirms only those with eigvalsh.
MU_SCREEN_TOL = 1e-9

# Hidden units of the nipr prior, which must be fewer than n_ambient.
NIPR_PRIOR_LATENT = 6


# Keys every experiment reads: the master seed and the output base path.
_COMMON = dict(seed=0, output_path="results")

# Every key each experiment's runner reads, with its default.  A table is
# the only source of its experiment's defaults, of the keys a config may
# set, and of each key's type: an int default takes ints, a float default
# finite numbers, a list default a nonempty list of such entries, and bools
# pass as neither.
_DEFAULTS = {
    "phase_alpha": dict(
        m=150, n_ambient=300, sparsity_grid=list(range(2, 31)), alpha_grid=[0.0, 0.3, 0.6],
        gaussian_sigma=-1.0, trials=50, iterations=500, centile=0.95, mu=0.6, k_trace=9,
        rel_change_tol=1e-12, **_COMMON,
    ),
    "outliers": dict(
        m=150, n_ambient=300, sparsity_grid=[4, 8, 12],
        outlier_grid=[0, 5, 10, 20, 30, 45, 60, 70, 80, 90, 100, 110, 125, 149],
        gaussian_sigma=0.02, outlier_amplitude=-1.0, trials=30, iterations=500, centile=0.9,
        mu=0.8, rel_change_tol=1e-12, **_COMMON,
    ),
    "stepsize": dict(
        m=150, n_ambient=300, sparsity_grid=list(range(1, 16)), mu_grid=[0.3, 0.6],
        gaussian_sigma=0.018, trials=50, iterations=30, centile=0.9, k_trace=4,
        rel_change_tol=0.0, **_COMMON,
    ),
    "joint": dict(
        m=150, n_ambient=300, sparsity_grid=[8], outlier_grid=[10], gaussian_sigma=0.0,
        outlier_amplitude=2.0, trials=10, iterations=800, centile=0.9, mu=0.7,
        rel_change_tol=1e-12, **_COMMON,
    ),
    "nipr": dict(
        m=20, n_ambient=32, gaussian_sigma=0.02, trials=10, iterations=600, mu=0.7,
        nipr_weight=0.005, **_COMMON,
    ),
    "theorem": dict(
        m=64, n_ambient=12, sparsity_grid=[1], gaussian_sigma=0.02, trials=5, iterations=60,
        resample_budget=400, **_COMMON,
    ),
}

# Column order of each experiment's table, and of the trace file of the two
# experiments that write one.  write_outputs takes every header from here.
_COLUMNS = {
    "phase_alpha": ["k", "alpha", "trials", "centile", "centile_error", "mean_error",
                    "success_rate"],
    "outliers": ["method", "k", "s", "trials", "centile", "centile_error", "mean_error"],
    "stepsize": ["mu", "k", "trials", "centile", "centile_error", "mean_error",
                 "mean_plateau_error"],
    "joint": ["k", "s", "trials", "centile", "centile_x_error", "centile_e_error",
              "mean_x_error", "mean_e_error"],
    "nipr": ["pair", "nipr_weight", "train_diverged", "i_min",
             "sm1_10", "sm1_50", "sm1_100", "sm2_10", "sm2_50", "sm2_100",
             "best_error", "final_error", "final_penalty"],
    "theorem": ["variant", "attempt", "mu", "delta", "delta_beta", "noise_term",
                "model_error", "eta", "margin_projection", "margin_truth", "verified"],
}
_TRACE_COLUMNS = {
    "phase_alpha": ["alpha", "k", "iter", "error_to_truth", "residual_norm", "rel_change"],
    "stepsize": ["mu", "k", "iter", "error_to_truth", "residual_norm", "rel_change"],
}

# The allowed range of each key's value (of each entry, for a list key),
# checked once every value has its table's type.
_RANGES = {
    "m": (">= 1", lambda v, spec: v >= 1),
    "n_ambient": (f">= 1 (> NIPR_PRIOR_LATENT = {NIPR_PRIOR_LATENT} for nipr)",
                  lambda v, spec: v > (NIPR_PRIOR_LATENT if spec.experiment == "nipr" else 0)),
    "sparsity_grid": ("in [0, n_ambient]", lambda v, spec: 0 <= v <= spec.n_ambient),
    "alpha_grid": (">= 0", lambda v, spec: v >= 0),
    "mu_grid": ("> 0", lambda v, spec: v > 0),
    "outlier_grid": ("in [0, m)", lambda v, spec: 0 <= v < spec.m),
    "trials": (">= 1", lambda v, spec: v >= 1),
    "iterations": (">= 1", lambda v, spec: v >= 1),
    "centile": ("in (0, 1]", lambda v, spec: 0 < v <= 1),
    "seed": (">= 0", lambda v, spec: v >= 0),
    "mu": ("> 0", lambda v, spec: v > 0),
    "rel_change_tol": (">= 0", lambda v, spec: v >= 0),
    "resample_budget": (">= 1", lambda v, spec: v >= 1),
    "nipr_weight": (">= 0", lambda v, spec: v >= 0),
}


def _has_type_of(value, default):
    if isinstance(value, bool):
        return False
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, int):
        return isinstance(value, int)
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass
class ExperimentSpec:
    """Flat, JSON-mirrorable description of one experiment run.

    The keys of the experiment's _DEFAULTS table are its fields; every other
    field holds None.  Construction validates the spec (ValueError), so
    runners never check it again; default_spec builds one from the table.

    gaussian_sigma < 0 selects the relative default 0.01 * ||A x|| / sqrt(m)
    per instance, and 0 selects no noise; outlier_amplitude <= 0 selects
    100x the effective noise scale.
    """

    experiment: str
    m: int
    n_ambient: int
    sparsity_grid: list
    alpha_grid: list
    mu_grid: list
    outlier_grid: list
    gaussian_sigma: float
    outlier_amplitude: float
    trials: int
    iterations: int
    centile: float
    seed: int
    mu: float
    k_trace: int
    rel_change_tol: float
    resample_budget: int
    nipr_weight: float
    output_path: str

    def __post_init__(self):
        if self.experiment not in _DEFAULTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        table = _DEFAULTS[self.experiment]
        for f in fields(self)[1:]:  # every field after `experiment`
            value = getattr(self, f.name)
            if f.name not in table:
                if value is not None:
                    raise ValueError(f"{self.experiment} does not read {f.name!r}")
                continue
            default = table[f.name]
            if isinstance(default, list):
                if not (isinstance(value, list) and value
                        and all(_has_type_of(v, default[0]) for v in value)
                        and len(set(value)) == len(value)):
                    raise ValueError(f"{f.name} must be a nonempty list of distinct "
                                     f"{type(default[0]).__name__}, got {value!r}")
            elif not _has_type_of(value, default):
                raise ValueError(f"{f.name} must be a {type(default).__name__}, got {value!r}")
        for name, (rule, ok) in _RANGES.items():
            if name in table:
                value = getattr(self, name)
                if not all(ok(v, self) for v in (value if isinstance(value, list) else [value])):
                    raise ValueError(f"{name} must be {rule}, got {value!r}")
        if self.experiment == "theorem":
            if len(self.sparsity_grid) != 1:
                raise ValueError("the theorem check takes exactly one sparsity_grid entry")
            t = min(2 * self.sparsity_grid[0], self.n_ambient)
            if math.comb(self.n_ambient, t) > ENUMERATION_GUARD:
                raise ValueError(
                    f"the theorem check enumerates C({self.n_ambient}, {t}) = "
                    f"{math.comb(self.n_ambient, t)} supports, above the enumeration "
                    f"guard ({ENUMERATION_GUARD})")
        # The relative noise level 0.01 ||A x|| / sqrt(m) is 0 at k = 0.
        if (self.outlier_amplitude is not None and self.outlier_amplitude <= 0
                and max(self.outlier_grid) > 0
                and (self.gaussian_sigma == 0
                     or (self.gaussian_sigma < 0 and 0 in self.sparsity_grid))):
            raise ValueError("outlier_amplitude <= 0 scales outliers by the noise level, which "
                             "is 0 at gaussian_sigma 0 and, for gaussian_sigma < 0, at k = 0: "
                             "set outlier_amplitude > 0 or outlier_grid to [0]")


def default_spec(experiment, **overrides):
    """The experiment's defaults with keyword overrides on top; a key its
    runner does not read is rejected."""
    if experiment not in _DEFAULTS:
        raise ValueError(f"unknown experiment {experiment!r}; pick from {EXPERIMENTS}")
    table = _DEFAULTS[experiment]
    unknown = sorted(set(overrides) - set(table))
    if unknown:
        raise ValueError(f"{experiment} does not read {unknown}; its keys are {sorted(table)}")
    params = dict.fromkeys(f.name for f in fields(ExperimentSpec))
    params.update(copy.deepcopy(table), **overrides, experiment=experiment)
    return ExperimentSpec(**params)


def trial_rng(seed, *key):
    """Independent per-trial stream: SeedSequence(seed, spawn_key=key)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(i) for i in key)))


def _processes():
    """CPUs in this process's affinity mask, or 1 where the platform has none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _trial_map(fn, items):
    """[fn(i) for i in items], dealt in turn to n = _processes() shares: this
    process computes items[0::n], and a child forked now, seeing the caller's
    state, computes each other share and pipes back its results or its error."""
    items = list(items)
    n = max(1, min(_processes(), len(items)))
    out, children, reports = [None] * len(items), [], []
    try:
        for s in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        report = [fn(i) for i in items[s::n]]
                    except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
                        report = exc
                    with open(w, "wb") as fh:
                        fh.write(pickle.dumps(report))
                finally:
                    os._exit(0)  # never return into the caller's stack
            os.close(w)
            children.append((pid, r))
        out[0::n] = [fn(i) for i in items[0::n]]
    finally:
        for pid, r in children:
            with open(r, "rb") as fh:
                reports.append((fh.read(), os.waitpid(pid, 0)[1]))
    for s, (data, status) in enumerate(reports, 1):
        value = pickle.loads(data) if data else RuntimeError(
            f"a trial share exited without reporting, code {os.waitstatus_to_exitcode(status)}")
        if isinstance(value, BaseException):
            raise value
        out[s::n] = value
    return out


def _effective_sigma(spec, y_clean):
    """Per-entry noise level: absolute if positive, exactly zero if zero,
    otherwise the relative default 0.01 * ||A x|| / sqrt(m)."""
    if spec.gaussian_sigma > 0:
        return float(spec.gaussian_sigma)
    if spec.gaussian_sigma == 0:
        return 0.0
    norm = float(np.linalg.norm(y_clean))
    return 0.01 * norm / np.sqrt(len(y_clean))


def _measure(spec, rng, op, x):
    """Noisy measurements of x and the noise level used; the noise vector is
    drawn even at level 0, so every instance consumes the same stream."""
    y_clean = op.apply(x)
    sigma = _effective_sigma(spec, y_clean)
    return y_clean + sigma * rng.standard_normal(spec.m), sigma


def _corruption(spec, rng, s, sigma):
    """Sparse corruption of s measurements: positions, then signs, scaled by
    outlier_amplitude or, if that is <= 0, by 100x the noise level."""
    amp = spec.outlier_amplitude if spec.outlier_amplitude > 0 else 100.0 * sigma
    e = np.zeros(spec.m)
    positions = rng.choice(spec.m, size=s, replace=False)
    e[positions] = amp * rng.choice(np.array([-1.0, 1.0]), size=s)
    return e


def _draw_instance(spec, rng, k):
    """Operator, k-sparse signal and noisy measurements of one trial, drawn
    in that order; also returns the noise level used."""
    op = gaussian_operator(spec.m, spec.n_ambient, rng)
    x = sparse_signal(spec.n_ambient, k, rng)
    y, sigma = _measure(spec, rng, op, x)
    return op, x, y, sigma


def _descent_cfg(spec, mu=None):
    return GpgdConfig(
        mu=spec.mu if mu is None else mu,
        max_iters=spec.iterations,
        rel_change_tol=spec.rel_change_tol,
    )


def _trace_rows(trace, label):
    return [{
        **label,
        "iter": i,
        "error_to_truth": trace.errors_to_truth[i],
        "residual_norm": trace.residual_norms[i],
        "rel_change": trace.rel_changes[i],
    } for i in range(trace.iterations_run + 1)]


def _stats(spec, errs, name="error"):
    """The trials, centile, centile_<name> and mean_<name> cells of a cell's
    per-trial errors."""
    return {
        "trials": spec.trials,
        "centile": spec.centile,
        f"centile_{name}": centile_curve(errs, spec.centile),
        f"mean_{name}": float(np.mean(errs)),
    }


def _arm_sweep(spec, tag, arms, arm_column):
    """Solve every (sparsity, trial) instance once per treatment arm.

    `arms` lists (key, projection factory of k, step size) triples; every
    arm runs from zero with the adjoint back-projection on the shared
    instance.  Returns the per-(key, k) lists of (error of the k-sparse
    estimate, error of the raw iterate), and the trace rows, labelled
    {arm_column: key, "k": k}, of each arm's solve on the trial-0 instance
    at k_trace (if in the grid).  That solve runs without early stopping
    and with the truth recorded, and its estimate is the iterate at which
    early stopping would have ended it.  The trials run by _trial_map.
    """
    grid = list(spec.sparsity_grid)
    trace_ki = grid.index(spec.k_trace) if spec.k_trace in grid else None

    def solve(item):
        ki, k, t = item
        op, x, y, _ = _draw_instance(spec, trial_rng(spec.seed, tag, ki, t), k)
        bp = BackProjection.adjoint(op)
        pairs, traces = [], []
        for key, make_projection, mu in arms:
            x0, proj = np.zeros(spec.n_ambient), make_projection(k)
            if ki == trace_ki and t == 0:
                cfg = replace(_descent_cfg(spec, mu), rel_change_tol=0.0,
                              record_iterates=spec.rel_change_tol > 0)
                trace = gpgd_run(x0, proj, bp, op, y, cfg, truth=x)
                # gpgd_run stops right after the first iterate whose
                # relative change is below a positive rel_change_tol;
                # at tol 0 it runs to the end and needs no iterates.
                estimate = next((trace.iterates[j] for j, rel in enumerate(trace.rel_changes)
                                 if rel < spec.rel_change_tol), trace.final)
                traces.extend(_trace_rows(trace, {arm_column: key, "k": k}))
            else:
                estimate = gpgd_run(x0, proj, bp, op, y, _descent_cfg(spec, mu)).final
            pairs.append((normalized_error(hard_threshold(estimate, k), x),
                          normalized_error(estimate, x)))
        return pairs, traces

    results = _trial_map(solve, [(ki, k, t) for ki, k in enumerate(grid)
                                 for t in range(spec.trials)])
    errors = {(key, k): [pairs[a] for pairs, _ in results[ki * spec.trials:(ki + 1) * spec.trials]]
              for a, (key, _, _) in enumerate(arms) for ki, k in enumerate(grid)}
    return errors, [row for _, rows in results for row in rows]


def _cell_trials(spec, solve):
    """(k, s, solve((ki, k, si, s, t)) of each trial t, as columns) per grid cell."""
    cells = [(ki, k, si, s) for ki, k in enumerate(spec.sparsity_grid)
             for si, s in enumerate(spec.outlier_grid)]
    results = _trial_map(solve, [(*cell, t) for cell in cells for t in range(spec.trials)])
    return [(k, s, list(zip(*results[c * spec.trials:(c + 1) * spec.trials])))
            for c, (_, k, _, s) in enumerate(cells)]


# ---------------------------------------------------------------------------
# phase transition over the projection deterioration knob
# ---------------------------------------------------------------------------


def run_phase_transition_alpha(spec):
    """Centile recovery error over (sparsity, alpha) cells, plus convergence
    traces per alpha at the designated sparsity."""
    alphas = [float(a) for a in spec.alpha_grid]
    arms = [(a, lambda k, a=a: PAlpha(k, a), spec.mu) for a in alphas]
    errors, traces = _arm_sweep(spec, _TAGS["phase_alpha"], arms, "alpha")
    rows = []
    for k in spec.sparsity_grid:
        for a in alphas:
            errs = [err for err, _ in errors[(a, k)]]
            rows.append({
                "k": k,
                "alpha": a,
                **_stats(spec, errs),
                "success_rate": float(np.mean([e < SUCCESS_THRESHOLD for e in errs])),
            })
    return {"rows": rows, "traces": traces, "status": 0, "summary": {}}


# ---------------------------------------------------------------------------
# outlier trade-off: residual-thresholded vs plain adjoint back-projection
# ---------------------------------------------------------------------------


def run_outlier_tradeoff(spec):
    """Centile error over (sparsity, outlier count) for the residual-threshold
    back-projection and the unadapted adjoint baseline on identical data."""
    tag = _TAGS["outliers"]
    methods = ("residual_threshold", "adjoint")

    def solve(item):
        ki, k, si, s, t = item
        rng = trial_rng(spec.seed, tag, ki, si, t)
        op, x, y, sigma = _draw_instance(spec, rng, k)
        y = y + _corruption(spec, rng, s, sigma)
        proj = HardThreshold(k)
        errs = []
        for meth in methods:
            bp = BackProjection(op, meth, keep=spec.m - s)
            trace = gpgd_run(np.zeros(spec.n_ambient), proj, bp, op, y, _descent_cfg(spec))
            errs.append(normalized_error(hard_threshold(trace.final, k), x))
        return errs

    rows = [{"method": meth, "k": k, "s": s, **_stats(spec, errs)}
            for k, s, columns in _cell_trials(spec, solve) for meth, errs in zip(methods, columns)]
    return {"rows": rows, "traces": None, "status": 0, "summary": {}}


# ---------------------------------------------------------------------------
# step-size study
# ---------------------------------------------------------------------------


def run_stepsize_study(spec):
    """Centile error vs sparsity per step size, plus convergence traces at the
    designated sparsity.  Step sizes run on identical instances."""
    mus = [float(mu) for mu in spec.mu_grid]
    arms = [(mu, HardThreshold, mu) for mu in mus]
    errors, traces = _arm_sweep(spec, _TAGS["stepsize"], arms, "mu")
    rows = []
    for mu in mus:
        for k in spec.sparsity_grid:
            errs = [err for err, _ in errors[(mu, k)]]
            rows.append({
                "mu": mu,
                "k": k,
                **_stats(spec, errs),
                # Plateau level of the iterate-error convergence curve: the
                # raw iterate carries the mu-scaled back-projected noise, so
                # this is where the step size trades noise stability.
                "mean_plateau_error": float(np.mean([raw for _, raw in errors[(mu, k)]])),
            })
    return {"rows": rows, "traces": traces, "status": 0, "summary": {}}


# ---------------------------------------------------------------------------
# joint signal/noise model
# ---------------------------------------------------------------------------


def run_joint_model(spec):
    """Recover signal and sparse corruption jointly with the (A, I) operator
    and a product projection; reports block-wise errors."""
    tag = _TAGS["joint"]

    def solve(item):
        ki, k, si, s, t = item
        rng = trial_rng(spec.seed, tag, ki, si, t)
        base = gaussian_operator(spec.m, spec.n_ambient, rng)
        x = sparse_signal(spec.n_ambient, k, rng)
        y_clean = base.apply(x)
        # The corruption is drawn before the dense noise, unlike in
        # outliers, and the noise only when its level is positive; the
        # order is part of this experiment's streams.
        sigma = _effective_sigma(spec, y_clean)
        e = _corruption(spec, rng, s, sigma)
        y = y_clean + e
        if sigma > 0:
            y = y + sigma * rng.standard_normal(spec.m)
        jop = JointOperator(base)
        proj = ProductProjection([(HardThreshold(k), spec.n_ambient), (HardThreshold(s), spec.m)])
        trace = gpgd_run(np.zeros(spec.n_ambient + spec.m), proj,
                         BackProjection.adjoint(jop), jop, y, _descent_cfg(spec))
        x_est, e_est = jop.split(proj(trace.final))
        return normalized_error(x_est, x), normalized_error(e_est, e)

    rows = [{"k": k, "s": s, **_stats(spec, x_errs, "x_error"), **_stats(spec, e_errs, "e_error")}
            for k, s, (x_errs, e_errs) in _cell_trials(spec, solve)]
    return {"rows": rows, "traces": None, "status": 0, "summary": {}}


# ---------------------------------------------------------------------------
# learned-prior stability with and without idempotence regularization
# ---------------------------------------------------------------------------

# Protocol constants for the synthetic-manifold task (they shape the
# testbed, not the experiment's contract).
NIPR_MANIFOLD_DIM = 3
NIPR_DATASET_SIZE = 300
NIPR_TRAIN = dict(noise_sigma=0.02, learning_rate=0.1, epochs=1000, batch_size=32,
                  loss_kind="pnp")
NIPR_AMBIENT_NOISE = 0.01
NIPR_OFFSETS = (10, 50, 100)
# The stability cells of a nipr row, SM1 and SM2 at every offset.
_NIPR_SM_CELLS = [f"sm{j}_{n}" for j in (1, 2) for n in NIPR_OFFSETS]
NIPR_MAX_ITERS = 4000

# Post-convergence traces never go exactly still: rounding keeps the
# iterates on micro-cycles with SM1 around 1e-15.  Differences below this
# floor carry no stability information, so paired comparisons zero them.
SM1_NUMERICAL_FLOOR = 1e-12


def _run_with_window(x0, proj, bp, op, y, mu, start_iters, window, truth):
    """Run long enough that the oracle-best index leaves room for the
    post-optimum window; doubles the budget (from scratch, deterministic)
    until it fits or the cap is reached."""
    iters = start_iters
    while True:
        cfg = GpgdConfig(mu=mu, max_iters=iters, rel_change_tol=0.0, record_iterates=True)
        trace = gpgd_run(x0, proj, bp, op, y, cfg, truth=truth)
        i_min = i_min_oracle(trace)
        if trace.diverged or i_min + window + 1 <= trace.iterations_run or iters >= NIPR_MAX_ITERS:
            return trace
        iters = min(2 * iters, NIPR_MAX_ITERS)


def run_nipr_stability(spec):
    """Train paired priors (regularized and not) per seed, solve the same
    compressed-sensing instances with each, and report SM1/SM2 and errors."""
    tag = _TAGS["nipr"]
    window = max(NIPR_OFFSETS)

    def solve(pair):
        rows = []
        rng = trial_rng(spec.seed, tag, pair)
        data_seed, prior_seed, train_seed = (int(v) for v in rng.integers(2**31, size=3))
        points = make_manifold_dataset(
            NIPR_DATASET_SIZE + 1, spec.n_ambient, NIPR_MANIFOLD_DIM,
            seed=data_seed, curvature="tanh")
        truth, dataset = points[-1], points[:-1]
        noise_rng = np.random.default_rng(data_seed + 1)
        dataset = dataset + NIPR_AMBIENT_NOISE * noise_rng.standard_normal(dataset.shape)
        p0 = random_prior(spec.n_ambient, NIPR_PRIOR_LATENT, seed=prior_seed, nonlinearity="tanh")
        op = gaussian_operator(spec.m, spec.n_ambient, rng)
        y, _ = _measure(spec, rng, op, truth)
        bp = BackProjection.adjoint(op)
        for weight in (0.0, spec.nipr_weight):
            cfg = TrainConfig(nipr_weight=weight, seed=train_seed, **NIPR_TRAIN)
            result = train(p0, dataset, cfg)
            row = {
                "pair": pair,
                "nipr_weight": weight,
                "train_diverged": int(result.diverged),
                "final_penalty": nipr_penalty(result.prior, dataset) / len(dataset),
            }
            if result.diverged:
                row.update({"i_min": -1, "best_error": float("nan"), "final_error": float("nan"),
                            **dict.fromkeys(_NIPR_SM_CELLS, float("nan"))})
                rows.append(row)
                continue
            proj = LearnedProjection(result.prior)
            trace = _run_with_window(np.zeros(spec.n_ambient), proj, bp, op, y,
                                     spec.mu, spec.iterations, window, truth)
            i_min = i_min_oracle(trace)
            row["i_min"] = i_min
            row["best_error"] = normalized_error(trace.iterates[i_min], truth)
            row["final_error"] = normalized_error(trace.final, truth)
            if i_min + window + 1 <= trace.iterations_run:
                report = stability_report(trace, offsets=NIPR_OFFSETS)
                for n in NIPR_OFFSETS:
                    row[f"sm1_{n}"] = report.sm1_at[n]
                    row[f"sm2_{n}"] = report.sm2_at[n]
            elif trace.diverged:
                # Blew up before the window fit: maximally unstable.
                row.update(dict.fromkeys(_NIPR_SM_CELLS, float("inf")))
            else:
                raise RuntimeError(
                    f"post-optimum window never fit within {NIPR_MAX_ITERS} iterations"
                )
            rows.append(row)
        return rows

    rows, wins = [], 0
    for pair_rows in _trial_map(solve, range(spec.trials)):
        rows.extend(pair_rows)
        # A win: the regularized prior is at least as stable as the plain one.
        plain, regularized = (0.0 if row["sm1_50"] < SM1_NUMERICAL_FLOOR else row["sm1_50"]
                              for row in pair_rows)
        wins += int(regularized <= plain)
    summary = {"sm1_50_wins": wins, "pairs": spec.trials}
    return {"rows": rows, "traces": None, "status": 0, "summary": summary}


# ---------------------------------------------------------------------------
# convergence-bound verification
# ---------------------------------------------------------------------------


class PerturbedProjection:
    """Hard threshold plus a seeded perturbation of fixed magnitude eta.

    Models an approximate projection whose deviation from a true one is
    bounded: every call adds eta times a fresh random unit vector.
    """

    def __init__(self, k, eta, seed):
        self.k = _count("k", k)
        self.eta = _real("eta", eta)
        self._rng = np.random.default_rng(seed)

    def __call__(self, z):
        base = hard_threshold(z, self.k)
        return base + self._perturbation(base.size)

    def _perturbation(self, size):
        """eta times a fresh random unit vector of length `size`."""
        norm = 0.0
        while norm == 0.0:
            direction = self._rng.standard_normal(size)
            norm = _norm(direction)
        return self.eta * direction / norm


def _row_projection(projs):
    """project(Z, rows) for _stacked_run: row j of Z gets the bits that projs[rows[j]],
    a HardThreshold or a PerturbedProjection (same stream), gives it alone."""
    ks = np.array([[proj.k] for proj in projs])

    def project(Z, rows):
        PX = _threshold_rows(Z, ks[rows])
        for j, i in enumerate(rows):
            if isinstance(projs[i], PerturbedProjection):
                PX[j] += projs[i]._perturbation(Z.shape[1])
        return PX

    return project


def _tuned_mu_delta(B, k, mu_grid):
    """(delta, mu) minimizing the exact restricted isometry constant of mu*B.

    Uses ||(mu B - I)[:, T]||^2 = lambda_max(mu^2 B_T' B_T - 2 mu sym(B_TT) + I)
    per support T, with the Gram blocks precomputed once, and keeps the
    first grid mu of smallest sqrt(max_T lambda_max) as computed by eigvalsh.
    The winning mu is re-checked against exact_ric_sparse so the returned
    delta is the enumeration oracle's own value.  At k = 0 there is no
    support: delta is 0 at every mu, and the first grid value wins as the
    first minimum.

    At support size 2 a screen over the whole grid comes first: lambda_max
    of a symmetric 2x2 block [[a, b], [b, c]] is (a+c)/2 + sqrt(((a-c)/2)^2
    + b^2).  Only grid values within MU_SCREEN_TOL (relative, floor 1) of
    the screen's minimum go on to eigvalsh, in grid order and by the same
    strict-< first-minimum rule.  The two computations of one lambda_max
    agree to about 1e-14, far inside the screen's tolerance, so the
    eigvalsh winner always passes the screen, every value ahead of it that
    passes is strictly worse, and the chosen mu is the one the full eigvalsh
    scan chooses, bit for bit.  At other support sizes every mu goes on.
    """
    n = B.shape[0]
    t = min(2 * _count("k", k), n)
    if t == 0:
        return 0.0, float(mu_grid[0])
    grams, blocks = [], []
    for supports in _support_chunks(n, t):
        columns = np.moveaxis(B[:, supports], 1, 0)
        grams.append(np.swapaxes(columns, 1, 2) @ columns)
        block = B[supports[:, :, None], supports[:, None, :]]
        blocks.append((block + np.swapaxes(block, 1, 2)) / 2.0)
    grams, blocks = np.concatenate(grams), np.concatenate(blocks)
    eye = np.eye(t)
    candidates = range(len(mu_grid))
    if t == 2:
        # A few grid values at a time, so the (mu, support) blocks held at
        # once stay near len(mu_grid) * SUPPORT_CHUNK.
        mus = np.asarray(mu_grid, dtype=float)[:, None]
        step = max(1, len(mus) * SUPPORT_CHUNK // len(grams))
        screen = []
        for lo in range(0, len(mus), step):
            mu = mus[lo:lo + step]
            a, b, c = (mu * mu * grams[:, i, j] - 2.0 * mu * blocks[:, i, j] + eye[i, j]
                       for i, j in ((0, 0), (0, 1), (1, 1)))
            screen.append(((a + c) / 2.0 + np.sqrt(((a - c) / 2.0) ** 2 + b * b)).max(axis=1))
        screen = np.concatenate(screen)
        least = screen.min()
        candidates = np.flatnonzero(screen <= least + MU_SCREEN_TOL * max(abs(least), 1.0))
    best = (np.inf, None)
    for i in candidates:
        mu = mu_grid[i]
        quad = mu * mu * grams - 2.0 * mu * blocks + eye
        lam = float(np.linalg.eigvalsh(quad)[:, -1].max())
        delta = np.sqrt(max(lam, 0.0))
        if delta < best[0]:
            best = (delta, float(mu))
    mu = best[1]
    return exact_ric_sparse(mu * B, k), mu


def run_theorem_check(spec):
    """Check observed error sequences against the convergence bound.

    Per variant, resamples instances until spec.trials seeds with
    delta*beta < 1 are found (or the resample budget is exhausted, which
    makes the whole check inconclusive, status 3).  mu is tuned per seed to
    minimize the exact enumerated delta; beta is the analytic hard-threshold
    bound.  A seed whose null-space floor (null_space_ric_floor, a lower
    bound on delta at every mu) already forces delta*beta >= 1 is rejected
    before tuning; that skips work and never changes which seeds qualify.
    Reports the worst (observed - bound) margin per run for both the
    projected-truth and truth variants of the bound.  The accepted instances
    of every variant are drawn first and then solved together by one
    _stacked_run, which gives each the bits of its own gpgd_run.
    """
    tag = _TAGS["theorem"]
    k = int(spec.sparsity_grid[0])
    n = spec.n_ambient
    eta = 0.02
    rows, bounds, stack = [], [], []
    inconclusive = []
    for vi, variant in enumerate(THEOREM_VARIANTS):
        found = 0
        for attempt in range(spec.resample_budget):
            if found >= spec.trials:
                break
            rng = trial_rng(spec.seed, tag, vi, attempt)
            op = gaussian_operator(spec.m, n, rng)
            if null_space_ric_floor(op.matrix, k) * HARD_THRESHOLD_BETA >= 1.0 + FLOOR_REJECT_MARGIN:
                continue
            B = op.matrix.T @ op.matrix
            delta, mu = _tuned_mu_delta(B, k, THEOREM_MU_GRID)
            if delta * HARD_THRESHOLD_BETA >= 1.0:
                continue
            found += 1
            truth = sparse_signal(n, k, rng)
            if variant == "model_error":
                truth = truth + 0.05 * rng.standard_normal(n)
            y_clean = op.apply(truth)
            e = np.zeros(spec.m)
            if variant == "noisy":
                e = _effective_sigma(spec, y_clean) * rng.standard_normal(spec.m)
            if variant == "proj_error":
                proj = PerturbedProjection(k, eta, seed=int(rng.integers(2**31)))
                eta_used = eta
            else:
                proj = HardThreshold(k)
                eta_used = 0.0
            # Each norm multiplies one error term; where that term is 0 the
            # norm stays at 0.0, which leaves the bound's bits unchanged.
            model_error = model_distance(truth, HardThreshold(k))
            tb = TheoremBound(
                delta=delta,
                beta=HARD_THRESHOLD_BETA,
                mu=mu,
                noise_term=float(np.linalg.norm(mu * op.adjoint(e))),
                model_error=model_error,
                proj_error_eta=eta_used,
                op_norm_muLA=operator_norm(mu * B, seed=attempt) if model_error > 0 else 0.0,
                op_norm_I_minus_muLA=(operator_norm(np.eye(n) - mu * B, seed=attempt)
                                      if eta_used > 0 else 0.0),
            )
            rows.append({"variant": variant, "attempt": attempt, "mu": mu, "delta": delta,
                         "delta_beta": delta * HARD_THRESHOLD_BETA, "noise_term": tb.noise_term,
                         "model_error": tb.model_error, "eta": eta_used})
            bounds.append((tb, hard_threshold(truth, k)))
            stack.append((op.matrix, y_clean + e, mu, proj, truth))
        if found < spec.trials:
            inconclusive.append(variant)
    # Every accepted instance of the cell, all variants, in one descent.
    traces = []
    if stack:
        matrices, ys, mus, projs, truths = zip(*stack)
        traces = _stacked_run(np.array(matrices), np.array(ys), np.array(mus),
                              _row_projection(projs), spec.iterations, np.array(truths))
    for row, (tb, projected_truth), trace in zip(rows, bounds, traces):
        # Both bound displays checked on the same trajectory.
        errors_to_projection = _norms(np.array(trace.iterates) - projected_truth)
        initial_error = float(np.linalg.norm(projected_truth))
        bound_proj = theorem_bound_eval(tb, trace.iterations_run, initial_error, "projection")
        bound_truth = theorem_bound_eval(tb, trace.iterations_run, initial_error, "truth")
        margin_proj = float(np.max(errors_to_projection - bound_proj))
        margin_truth = float(np.max(np.array(trace.errors_to_truth) - bound_truth))
        row.update(margin_projection=margin_proj, margin_truth=margin_truth,
                   verified=int(margin_proj <= 1e-9 and margin_truth <= 1e-9))
    status = 3 if inconclusive else 0
    summary = {
        "inconclusive_variants": inconclusive,
        "verified_runs": sum(r["verified"] for r in rows),
        "total_runs": len(rows),
    }
    return {"rows": rows, "traces": None, "status": status, "summary": summary}


# Every runner returns {"rows", "traces", "status", "summary"}: the table's
# rows and the trace rows (None for experiments that write no trace file) as
# dicts keyed by _COLUMNS and _TRACE_COLUMNS, the exit status, and the
# summary echoed into meta.json.
RUNNERS = {
    "phase_alpha": run_phase_transition_alpha,
    "outliers": run_outlier_tradeoff,
    "stepsize": run_stepsize_study,
    "joint": run_joint_model,
    "nipr": run_nipr_stability,
    "theorem": run_theorem_check,
}


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _format_value(v):
    # Builtin reprs only: numpy 2 scalar reprs carry a type wrapper.
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path, fieldnames, rows):
    with open(path, "w") as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(row[f]) for f in fieldnames) + "\n")


def write_outputs(spec, result):
    """Write `<base>.csv`, optional `<base>_trace.csv`, and `<base>.meta.json`.

    Each CSV's header is its experiment's _COLUMNS (or _TRACE_COLUMNS) entry,
    written even when there are no rows.  The CSV files are a pure function
    of (spec, seed); the metadata file carries the spec echo, version and
    wall-clock and is the only output that varies between identical runs.
    """
    base = spec.output_path
    paths = {"table": f"{base}.csv"}
    _write_csv(paths["table"], _COLUMNS[spec.experiment], result["rows"])
    if result["traces"]:
        paths["trace"] = f"{base}_trace.csv"
        _write_csv(paths["trace"], _TRACE_COLUMNS[spec.experiment], result["traces"])
    meta = {
        # The experiment and its keys only, so the echo is a valid config.
        "spec": {"experiment": spec.experiment,
                 **{name: getattr(spec, name) for name in _DEFAULTS[spec.experiment]}},
        "version": f"gpgd-{__version__}",
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "status": result["status"],
        "summary": result["summary"],
        "outputs": sorted(paths.values()),
    }
    paths["meta"] = f"{base}.meta.json"
    with open(paths["meta"], "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
