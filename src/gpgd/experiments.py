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

import atexit
import copy
import functools
import json
import math
import os
import pickle
import signal
import statistics
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__, constants
from .constants import (
    ENUMERATION_GUARD,
    TheoremBound,
    _bound_constant,
    _null_space_ric_floors,
    operator_norm,
)
from .descent import GpgdConfig, _rel_changes, _stacked_run, gpgd_run, i_min_oracle
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
    _threshold_rows,
    hard_threshold,
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

# Most attempts the theorem check draws, and takes the null-space floors of,
# at once (_theorem_search).
THEOREM_BLOCK_CAP = 32

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
    """Independent per-trial stream: SeedSequence(seed, spawn_key=key); seed and keys are counts."""
    key = tuple(_count("key", i) for i in key)
    return np.random.default_rng(np.random.SeedSequence(_count("seed", seed), spawn_key=key))


def _processes():
    """CPUs in this process's affinity mask, or 1 where the platform has none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# _trial_map's workers, oldest first, each (pid, request pipe fd, reply
# pipe file): forked on first need and kept until _stop_workers(), which
# runs at exit.
_workers = []


def _send(fd, data):
    """Writes all of `data` to the pipe `fd`."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(requests, replies, inherited):
    """A worker's loop, which never returns into the caller's stack.  It
    closes the pipe ends it inherited from the parent, so that each worker's
    request pipe ends when the parent closes it, and forgets the parent's
    workers.  Then it answers each pickled (fn, items) request with the
    pickled [fn(i) for i in items], or with the error (one in pickling the
    results included), until its request pipe ends."""
    try:
        for fd in inherited:
            os.close(fd)
        for _, fd, fh in _workers:
            os.close(fd)
            fh.close()
        _workers.clear()
        with open(requests, "rb") as fh:
            while True:
                try:
                    fn, items = pickle.load(fh)
                except EOFError:
                    break
                try:
                    reply = pickle.dumps([fn(i) for i in items])
                except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
                    reply = pickle.dumps(exc)
                _send(replies, reply)
    finally:
        os._exit(0)


def _spawn():
    """Forks one more worker onto _workers; False where os.pipe or os.fork fails."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return False
    requests, to_worker, from_worker, replies = fds
    if pid == 0:
        _serve(requests, replies, (to_worker, from_worker))
    os.close(requests)
    os.close(replies)
    _workers.append((pid, to_worker, open(from_worker, "rb")))
    return True


def _reply(worker):
    """What `worker` sent back for its request, unpickled: its results or its
    error.  A worker whose reply cannot be read whole, because it exited or
    an interrupt came, is dropped and reaped, and the error is returned."""
    pid, to_worker, from_worker = worker
    try:
        return pickle.load(from_worker)
    except BaseException as exc:  # noqa: BLE001 - raised by the map once every reply is read
        error = exc
    _workers.remove(worker)
    os.close(to_worker)
    from_worker.close()
    os.kill(pid, signal.SIGKILL)  # after an interrupt it may still be computing
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if isinstance(error, (EOFError, pickle.UnpicklingError)):
        return RuntimeError(f"a trial share exited without reporting, code {code}")
    return error


def _stop_workers():
    """Closes every worker's request pipe, so that it exits, and reaps it."""
    for _, to_worker, from_worker in _workers:
        os.close(to_worker)
        from_worker.close()
    for pid, _, _ in _workers:
        os.waitpid(pid, 0)
    _workers.clear()


atexit.register(_stop_workers)


def _trial_map(fn, items):
    """[fn(i) for i in items], dealt in turn to n = _processes() shares: this
    process computes items[0::n], and worker s computes items[s::n] and
    sends back its results or its error (an error in pickling the results
    included).  A worker is forked on first need and serves every later map
    until _stop_workers() or the end of the process, so it sees this
    process's state as it was at its fork; fn and the items reach it
    pickled, so fn must pickle from 2 shares on.  Every worker's reply is
    read before the map returns or raises.  A worker that exits without
    replying raises RuntimeError, and a later map forks a fresh one.
    Where os.pipe or os.fork fails, this process computes the shares left."""
    items = list(items)
    n = max(1, min(_processes(), len(items)))
    requests = [pickle.dumps((fn, items[s::n])) for s in range(1, n)]
    out, asked = [None] * len(items), []
    try:
        for request in requests:
            if len(_workers) == len(asked) and not _spawn():
                break
            asked.append(_workers[len(asked)])
            try:
                _send(asked[-1][1], request)
            except BrokenPipeError:
                pass  # a dead worker: its reply reads as missing
        for s in (0, *range(len(asked) + 1, n)):
            out[s::n] = [fn(i) for i in items[s::n]]
    finally:
        replies = [_reply(worker) for worker in asked]
    for s, value in enumerate(replies, 1):
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


def _descent_cfg(spec):
    return GpgdConfig(mu=spec.mu, max_iters=spec.iterations, rel_change_tol=spec.rel_change_tol)


def _trace_rows(label, errors, residuals, rel_changes):
    """One trace row per iterate: the label, the iterate's index and its three columns."""
    return [{**label, "iter": i, "error_to_truth": e, "residual_norm": r, "rel_change": c}
            for i, (e, r, c) in enumerate(zip(errors, residuals, rel_changes))]


def _stats(spec, errs, name="error"):
    """The trials, centile, centile_<name> and mean_<name> cells of a cell's
    per-trial errors."""
    return {
        "trials": spec.trials,
        "centile": spec.centile,
        f"centile_{name}": centile_curve(errs, spec.centile),
        f"mean_{name}": float(np.mean(errs)),
    }


def _cell_trial(spec, solve, item):
    """solve(value, rng, t) for one ((key, value), t) item of _cell_trials."""
    (key, value), t = item
    return solve(value, trial_rng(spec.seed, _TAGS[spec.experiment], *key, t), t)


def _cell_trials(spec, cells, solve):
    """Each cell's [solve(value, rng, t) for t in range(spec.trials)], for the
    (key, value) pairs of `cells`: trial t of a cell draws from
    trial_rng(spec.seed, _TAGS[spec.experiment], *key, t).  The (cell,
    trial) items are dealt cell by cell through _trial_map, so `solve`, a
    module-level function or a functools.partial of one, must pickle; the
    runners bind the spec to it with functools.partial."""
    results = _trial_map(functools.partial(_cell_trial, spec, solve),
                         [(cell, t) for cell in cells for t in range(spec.trials)])
    return [results[c * spec.trials:(c + 1) * spec.trials] for c in range(len(cells))]


def _arm_sweep(spec, solve):
    """solve(k, rng, t) for every (sparsity, trial) instance, which solves it
    once per arm: the per-sparsity lists of the trials' per-arm values, and
    every trace row, sparsity by sparsity and trial by trial."""
    results = _cell_trials(spec, [((ki,), k) for ki, k in enumerate(spec.sparsity_grid)], solve)
    return ([[arms for arms, _ in trials] for trials in results],
            [row for trials in results for _, rows in trials for row in rows])


def _tol_stop(rel_changes, tol, stop):
    """Where gpgd_run stops on these relative changes (rel_changes[j] is
    iterate j's), else at `stop`: at the first below a positive tol."""
    return next((j for j, rel in enumerate(rel_changes) if rel < tol), stop)


# ---------------------------------------------------------------------------
# phase transition over the projection deterioration knob
# ---------------------------------------------------------------------------


def _alpha_solve(spec, k, rng, t):
    """One instance, solved from zero with PAlpha and the adjoint
    back-projection per alpha: each alpha's error of the k-sparse estimate,
    and on the trial-0 instance at k_trace each solve's trace rows."""
    op, x, y, _ = _draw_instance(spec, rng, k)
    bp = BackProjection.adjoint(op)
    errors, traces = [], []
    for alpha in spec.alpha_grid:
        x0, proj = np.zeros(spec.n_ambient), PAlpha(k, alpha)
        if k == spec.k_trace and t == 0:
            # The traced solve runs to the end with the truth and the
            # iterates recorded; its estimate is where gpgd_run would stop.
            cfg = replace(_descent_cfg(spec), rel_change_tol=0.0, record_iterates=True)
            trace = gpgd_run(x0, proj, bp, op, y, cfg, truth=x)
            estimate = trace.iterates[_tol_stop(trace.rel_changes, spec.rel_change_tol, -1)]
            traces.extend(_trace_rows({"alpha": float(alpha), "k": k}, trace.errors_to_truth,
                                      trace.residual_norms, trace.rel_changes))
        else:
            estimate = gpgd_run(x0, proj, bp, op, y, _descent_cfg(spec)).final
        errors.append(normalized_error(hard_threshold(estimate, k), x))
    return errors, traces


def run_phase_transition_alpha(spec):
    """Centile recovery error over (sparsity, alpha) cells, plus convergence
    traces per alpha at the designated sparsity."""
    errors, traces = _arm_sweep(spec, functools.partial(_alpha_solve, spec))
    rows = []
    for k, trials in zip(spec.sparsity_grid, errors):
        for a, alpha in enumerate(spec.alpha_grid):
            errs = [arms[a] for arms in trials]
            rows.append({
                "k": k,
                "alpha": float(alpha),
                **_stats(spec, errs),
                "success_rate": float(np.mean([e < SUCCESS_THRESHOLD for e in errs])),
            })
    return {"rows": rows, "traces": traces, "status": 0, "summary": {}}


# ---------------------------------------------------------------------------
# outlier trade-off: residual-thresholded vs plain adjoint back-projection
# ---------------------------------------------------------------------------


_OUTLIER_METHODS = ("residual_threshold", "adjoint")


def _outlier_solve(spec, cell, rng, t):
    """One corrupted instance, solved with each back-projection method."""
    k, s = cell
    op, x, y, sigma = _draw_instance(spec, rng, k)
    y = y + _corruption(spec, rng, s, sigma)
    proj = HardThreshold(k)
    errs = []
    for meth in _OUTLIER_METHODS:
        bp = BackProjection(op, meth, keep=spec.m - s)
        trace = gpgd_run(np.zeros(spec.n_ambient), proj, bp, op, y, _descent_cfg(spec))
        errs.append(normalized_error(hard_threshold(trace.final, k), x))
    return errs


def run_outlier_tradeoff(spec):
    """Centile error over (sparsity, outlier count) for the residual-threshold
    back-projection and the unadapted adjoint baseline on identical data."""
    cells = [((ki, si), (k, s)) for ki, k in enumerate(spec.sparsity_grid)
             for si, s in enumerate(spec.outlier_grid)]
    trials_by_cell = _cell_trials(spec, cells, functools.partial(_outlier_solve, spec))
    rows = [{"method": meth, "k": k, "s": s, **_stats(spec, errs)}
            for (_, (k, s)), trials in zip(cells, trials_by_cell)
            for meth, errs in zip(_OUTLIER_METHODS, zip(*trials))]
    return {"rows": rows, "traces": None, "status": 0, "summary": {}}


# ---------------------------------------------------------------------------
# step-size study
# ---------------------------------------------------------------------------


def _stepsize_solve(spec, k, rng, t):
    """One instance, solved from zero with HardThreshold and the adjoint
    back-projection for every mu as one _stacked_run on its operator: each
    arm's (error of the k-sparse estimate, error of the raw iterate).  On
    the trial-0 instance at k_trace the same iterates give each arm's trace
    rows up to its last finite iterate, with its own gpgd_run's bits."""
    op, x, y, _ = _draw_instance(spec, rng, k)
    iterates, stops = _stacked_run(op.matrix, y, np.array(spec.mu_grid, dtype=float),
                                   lambda Z, _: _threshold_rows(Z, k), spec.iterations)
    stops, traced = stops.tolist(), k == spec.k_trace and not t
    rels = _rel_changes(iterates).T.tolist() if traced or spec.rel_change_tol > 0 else None
    ends = stops if spec.rel_change_tol <= 0 else [
        _tol_stop(arm_rels[: stop + 1], spec.rel_change_tol, stop) for arm_rels, stop in zip(rels, stops)]
    estimates = [iterates[end, arm] for arm, end in enumerate(ends)]
    pairs = [(normalized_error(hard_threshold(e, k), x), normalized_error(e, x)) for e in estimates]
    if not traced:
        return pairs, []
    with np.errstate(over="ignore", invalid="ignore"):
        PX = _threshold_rows(iterates.reshape(-1, spec.n_ambient), k).reshape(iterates.shape)
        errors = _norms(iterates - x).T.tolist()
        residuals = _norms((op.matrix @ PX[..., None])[..., 0] - y).T.tolist()
    return pairs, [row for mu, stop, *columns in zip(spec.mu_grid, stops, errors, residuals, rels)
                   for row in _trace_rows({"mu": float(mu), "k": k}, *(c[: stop + 1] for c in columns))]


def run_stepsize_study(spec):
    """Centile error vs sparsity per step size, plus convergence traces at the
    designated sparsity.  Step sizes run on identical instances."""
    pairs, traces = _arm_sweep(spec, functools.partial(_stepsize_solve, spec))
    rows = []
    for a, mu in enumerate(spec.mu_grid):
        for k, trials in zip(spec.sparsity_grid, pairs):
            errs, raws = zip(*(arms[a] for arms in trials))
            rows.append({
                "mu": float(mu),
                "k": k,
                **_stats(spec, errs),
                # Plateau level of the iterate-error convergence curve: the
                # raw iterate carries the mu-scaled back-projected noise, so
                # this is where the step size trades noise stability.
                "mean_plateau_error": float(np.mean(raws)),
            })
    return {"rows": rows, "traces": traces, "status": 0, "summary": {}}


# ---------------------------------------------------------------------------
# joint signal/noise model
# ---------------------------------------------------------------------------


def _joint_solve(spec, cell, rng, t):
    """One instance solved jointly: the (x, e) block errors."""
    k, s = cell
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


def run_joint_model(spec):
    """Recover signal and sparse corruption jointly with the (A, I) operator
    and a product projection; reports block-wise errors."""
    cells = [((ki, si), (k, s)) for ki, k in enumerate(spec.sparsity_grid)
             for si, s in enumerate(spec.outlier_grid)]
    trials_by_cell = _cell_trials(spec, cells, functools.partial(_joint_solve, spec))
    rows = [{"k": k, "s": s, **_stats(spec, x_errs, "x_error"), **_stats(spec, e_errs, "e_error")}
            for (_, (k, s)), trials in zip(cells, trials_by_cell)
            for x_errs, e_errs in [zip(*trials)]]
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


def _nipr_solve(spec, weight, rng, pair):
    """Pair `pair`'s training at `weight`, then the learned-projection
    descent on the pair's instance: its row."""
    window = max(NIPR_OFFSETS)
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
        return row
    proj, bp = LearnedProjection(result.prior), BackProjection.adjoint(op)
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
    return row


def run_nipr_stability(spec):
    """Train paired priors (regularized and not) per seed, solve the same
    compressed-sensing instances with each, and report SM1/SM2 and errors."""
    # One cell per weight, with pair t as trial t, so a pair's two trainings
    # redraw its instance from one stream (far cheaper than training).  A
    # regularized training costs about 2.4 plain ones, so its cell comes
    # first and every share is dealt an even count of each kind.
    regularized, plain = _cell_trials(spec, [((), spec.nipr_weight), ((), 0.0)],
                                      functools.partial(_nipr_solve, spec))
    rows, wins = [], 0
    for pair_rows in zip(plain, regularized):
        rows.extend(pair_rows)
        # A win: the regularized prior is at least as stable as the plain one.
        sm1_plain, sm1_regularized = (0.0 if row["sm1_50"] < SM1_NUMERICAL_FLOOR
                                      else row["sm1_50"] for row in pair_rows)
        wins += int(sm1_regularized <= sm1_plain)
    summary = {"sm1_50_wins": wins, "pairs": spec.trials}
    return {"rows": rows, "traces": None, "status": 0, "summary": summary}


# ---------------------------------------------------------------------------
# convergence-bound verification
# ---------------------------------------------------------------------------


def _perturbation_block(eta, seed, iterations, n):
    """The (iterations, n) block of an approximate projection's deviations
    from hard_threshold: row t is eta times the t-th fresh random unit vector
    of the stream `seed`, added on call t.  standard_normal((iterations, n))
    fills its rows in stream order; a row of zeros is drawn again."""
    rng = np.random.default_rng(_count("seed", seed))
    directions = rng.standard_normal((iterations, n))
    norms = _norms(directions)
    while not norms.all():
        zero = norms == 0.0
        directions[zero] = rng.standard_normal((int(zero.sum()), n))
        norms = _norms(directions)
    return eta * directions / norms[:, None]


def _row_projection(k, rows, noise):
    """project(Z, t) for _stacked_run: hard_threshold(z, k) on each row z of Z,
    plus noise[j, t] on row rows[j], whose _perturbation_block is noise[j]."""
    rows = np.asarray(rows, dtype=np.intp)

    def project(Z, t):
        PX = _threshold_rows(Z, k)
        PX[rows] += noise[:, t]
        return PX

    return project


def _min_median(name, values):
    """{name_min, name_median} over `values`, both None when there are none."""
    if not values:
        return {f"{name}_min": None, f"{name}_median": None}
    return {f"{name}_min": float(min(values)), f"{name}_median": float(statistics.median(values))}


def _theorem_search(spec, vi):
    """Variant vi's acceptance loop: (accepted, report), one record (attempt,
    tb, A, y, projected, truth, noise) per accepted attempt: its TheoremBound,
    its instance, hard_threshold of its truth, and for proj_error the
    _perturbation_block its projection adds, drawn at acceptance (else None).

    The attempts are walked in order, each rejected on its null-space floor,
    rejected by the tuner or accepted, as one attempt at a time would: each
    has its own trial stream and operator, and an accepted one draws its
    instance on from its own stream.  They are drawn in blocks, whose
    floors come from one _null_space_ric_floors call.  A block is twice the
    last after a block with no acceptance, up to THEOREM_BLOCK_CAP, and 1
    after one.  The attempts of a block past the one that completes
    spec.trials are discarded and never counted.
    """
    variant = THEOREM_VARIANTS[vi]
    k, n, eta = int(spec.sparsity_grid[0]), spec.n_ambient, 0.02 if variant == "proj_error" else 0.0
    accepted, floors, deltas = [], [], []
    start, size = 0, 1
    while start < spec.resample_budget and len(accepted) < spec.trials:
        block = range(start, min(start + size, spec.resample_budget))
        rngs = [trial_rng(spec.seed, _TAGS["theorem"], vi, attempt) for attempt in block]
        ops = [gaussian_operator(spec.m, n, rng) for rng in rngs]
        floor_betas = (_null_space_ric_floors(np.array([op.matrix for op in ops]), k)
                       * HARD_THRESHOLD_BETA)
        start, size = block.stop, min(2 * size, THEOREM_BLOCK_CAP)
        for attempt, rng, op, floor_beta in zip(block, rngs, ops, floor_betas.tolist()):
            if len(accepted) >= spec.trials:
                break
            if floor_beta >= 1.0 + FLOOR_REJECT_MARGIN:
                floors.append(floor_beta)
                continue
            B = op.matrix.T @ op.matrix
            mu, delta = constants._tuned_mu(B, k, THEOREM_MU_GRID)
            if delta * HARD_THRESHOLD_BETA >= 1.0:
                deltas.append(delta * HARD_THRESHOLD_BETA)
                continue
            truth = sparse_signal(n, k, rng)
            if variant == "model_error":
                truth = truth + 0.05 * rng.standard_normal(n)
            y_clean = op.apply(truth)
            e, noise_term = np.zeros(spec.m), 0.0
            if variant == "noisy":
                e = _effective_sigma(spec, y_clean) * rng.standard_normal(spec.m)
                # A sum of squares that overflows gives inf, which TheoremBound rejects.
                with np.errstate(over="ignore"):
                    noise_term = float(np.linalg.norm(mu * op.adjoint(e)))
            noise = (_perturbation_block(eta, int(rng.integers(2**31)), spec.iterations, n)
                     if eta > 0 else None)
            projected = hard_threshold(truth, k)
            # Each norm multiplies one error term; where that term is 0 the
            # norm stays at 0.0, which leaves the bound's bits unchanged.
            model_error = _norm(projected - truth)
            tb = TheoremBound(
                delta=delta,
                beta=HARD_THRESHOLD_BETA,
                mu=mu,
                noise_term=noise_term,
                model_error=model_error,
                proj_error_eta=eta,
                op_norm_muLA=operator_norm(mu * B, seed=attempt) if model_error > 0 else 0.0,
                op_norm_I_minus_muLA=operator_norm(np.eye(n) - mu * B, seed=attempt) if eta > 0 else 0.0,
            )
            accepted.append((attempt, tb, op.matrix, y_clean + e, projected, truth, noise))
            size = 1
    # Each attempt made was rejected on the floor or by the tuner, or accepted.
    report = {"attempts": len(floors) + len(deltas) + len(accepted),
              "floor_rejected": len(floors), "tuner_rejected": len(deltas),
              "accepted": len(accepted),
              **_min_median("floor_beta", floors), **_min_median("delta_beta", deltas)}
    return accepted, report


def _theorem_check(spec, group):
    """{vi: (rows, report)} for each variant vi of the group, its accepted
    instances solved together in one descent; no row depends on the order."""
    searches = {vi: _theorem_search(spec, vi) for vi in group}
    found = {vi: ([], report) for vi, (_, report) in searches.items()}
    records = [(vi, *record) for vi, (accepted, _) in searches.items() for record in accepted]
    if records:
        vis, attempts, tbs, matrices, ys, projected, truths, noises = zip(*records)
        perturbed = [i for i, block in enumerate(noises) if block is not None]
        noise = np.reshape([noises[i] for i in perturbed], (len(perturbed), spec.iterations, spec.n_ambient))
        iterates, stops = _stacked_run(np.array(matrices), np.array(ys), np.array([tb.mu for tb in tbs]),
                                       _row_projection(int(spec.sparsity_grid[0]), perturbed, noise),
                                       spec.iterations)
        margins = _bound_margins(tbs, projected, truths, iterates, stops)
        for vi, attempt, tb, margin_proj, margin_truth in zip(vis, attempts, tbs, *margins):
            found[vi][0].append({
                "variant": THEOREM_VARIANTS[vi], "attempt": attempt, "mu": tb.mu, "delta": tb.delta,
                "delta_beta": tb.contraction, "noise_term": tb.noise_term, "model_error": tb.model_error,
                "eta": tb.proj_error_eta, "margin_projection": margin_proj, "margin_truth": margin_truth,
                "verified": int(margin_proj <= 1e-9 and margin_truth <= 1e-9)})
    return found


def _bound_margins(tbs, projected_truths, truths, iterates, stops):
    """(margin_projection, margin_truth) lists for the rows of a _stacked_run's
    iterates block, all at once: row i's largest error minus bound tbs[i]
    over its iterates 0 .. stops[i], to projected_truths[i] and to
    truths[i].  Each has the bits of max(errors - theorem_bound_eval(tb,
    stop, initial_error, variant)) on its row alone; delta*beta < 1 is not
    checked again."""
    t = np.arange(len(iterates))
    with np.errstate(over="ignore", invalid="ignore"):
        to_projection = _norms(iterates - np.array(projected_truths))
        to_truth = _norms(iterates - np.array(truths))
    # rate ** t row by row, as theorem_bound_eval lays it out.
    decay = (np.array([tb.contraction for tb in tbs])[:, None] ** t).T * to_projection[0]
    past_stop = t[:, None] > stops
    margins = []
    for errors, variant in ((to_projection, "projection"), (to_truth, "truth")):
        gaps = errors - (decay + np.array([_bound_constant(tb, variant) for tb in tbs]))
        gaps[past_stop] = -np.inf
        margins.append(gaps.max(axis=0).tolist())
    return margins


def run_theorem_check(spec):
    """Check observed error sequences against the convergence bound.

    Per variant, resamples instances until spec.trials seeds with
    delta*beta < 1 are found (or the resample budget is exhausted, which
    makes the whole check inconclusive, status 3).  mu is tuned per seed
    (constants._tuned_mu) to minimize the exact enumerated delta,
    exact_ric_sparse at that mu, which the tuner returns with it; beta is
    the analytic hard-threshold bound.
    A seed whose null-space floor (null_space_ric_floor, a lower bound on
    delta at every mu) already forces delta*beta >= 1 is rejected before
    tuning; that skips work and never changes which seeds qualify.
    Reports the worst (observed - bound) margin per run for both the
    projected-truth and truth variants of the bound.

    The variants are dealt in turn, from the last, to n = min(_processes(), 4)
    groups, group s holding THEOREM_VARIANTS[::-1][s::n] in variant order,
    and the groups are mapped through _trial_map.  So this process, which
    pays no pipe round trip, holds proj_error at every n: the heaviest
    variant, as its C_proj power iteration on I - mu*B converges slowest.
    Each group runs its variants' acceptance loops, solves all of its
    accepted instances in one _stacked_run (which gives each the bits of its
    own gpgd_run) and computes their margins.  The rows come back in variant
    order, so no byte depends on n.  summary["variants"] gives, per
    variant, the attempts made, how many the null-space floor and the tuner
    rejected and how many were accepted, with the min and median of
    floor*beta and of delta*beta over each kind of rejection.
    """
    shares = min(_processes(), len(THEOREM_VARIANTS))
    groups = [range(len(THEOREM_VARIANTS))[::-1][s::shares][::-1] for s in range(shares)]
    mapped = _trial_map(functools.partial(_theorem_check, spec), groups)
    found = {vi: result for part in mapped for vi, result in part.items()}
    rows = [row for vi in range(len(THEOREM_VARIANTS)) for row in found[vi][0]]
    reports = {variant: found[vi][1] for vi, variant in enumerate(THEOREM_VARIANTS)}
    inconclusive = [v for v in THEOREM_VARIANTS if reports[v]["accepted"] < spec.trials]
    status = 3 if inconclusive else 0
    summary = {
        "inconclusive_variants": inconclusive,
        "verified_runs": sum(r["verified"] for r in rows),
        "total_runs": len(rows),
        "variants": reports,
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

    Each CSV's header is its experiment's _COLUMNS (or _TRACE_COLUMNS) entry.
    The table is written even when it has no rows; a run with no trace rows
    writes no trace file and removes an earlier run's.  The CSV files are a pure function
    of (spec, seed); the metadata file carries the spec echo, version and
    wall-clock and is the only output that varies between identical runs.
    """
    base = spec.output_path
    paths = {"table": f"{base}.csv"}
    _write_csv(paths["table"], _COLUMNS[spec.experiment], result["rows"])
    trace = f"{base}_trace.csv"
    if result["traces"]:
        paths["trace"] = trace
        _write_csv(trace, _TRACE_COLUMNS[spec.experiment], result["traces"])
    elif os.path.lexists(trace):
        os.remove(trace)
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
