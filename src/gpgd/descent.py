"""Projected-descent iteration engine.

One step applies the model projection, then descends along a back-projected
residual:

    x_{n+1} = P(x_n) - mu * L(A P(x_n) - y)

Note the projection happens before the descent step (the reverse of the
more common presentation of projected gradient descent).  The run loop
records per-iteration diagnostics into a RecoveryTrace.

When one step is a fixed function of the iterate, an iterate that repeats an
earlier one bit for bit starts an exact cycle, and the run loop replays whole
periods of it instead of recomputing them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .operators import BackProjection, MeasurementOperator
from .projections import _count, _norm, _norms, _real

__all__ = ["GpgdConfig", "RecoveryTrace", "gpgd_run", "i_min_oracle"]

# Floor for relative-change denominators; avoids 0/0 on the zero iterate.
REL_CHANGE_FLOOR = float(np.finfo(float).tiny)


@dataclass
class GpgdConfig:
    """Iteration controls.

    rel_change_tol = 0 disables early stopping (fixed iteration count),
    which is what the reproduction experiments use so post-optimum behavior
    stays observable.
    """

    mu: float = 1.0
    max_iters: int = 100
    rel_change_tol: float = 0.0
    record_iterates: bool = False

    def __post_init__(self):
        _real("mu", self.mu, positive=True)
        _count("max_iters", self.max_iters, 1)
        _real("rel_change_tol", self.rel_change_tol)
        if not isinstance(self.record_iterates, bool):
            raise ValueError(f"record_iterates must be a bool, got {self.record_iterates!r}")


@dataclass
class RecoveryTrace:
    """Per-iteration diagnostics for one descent run.

    All lists cover iterates x_0 .. x_T with T = iterations_run;
    rel_changes[0] is NaN (no predecessor).  errors_to_truth is only
    populated when a ground truth was supplied, iterates only when
    recording was requested.  final always holds x_T.  stop_reason says why
    the run ended: "max_iters", "rel_change" or "diverged".
    """

    residual_norms: list
    rel_changes: list
    iterations_run: int
    final: np.ndarray
    errors_to_truth: list = None
    iterates: list = None
    diverged: bool = False
    stop_reason: str = "max_iters"


def gpgd_run(x0, projection, back_projection, op, y, cfg, truth=None):
    """Iterate P(x) - mu * L(A P(x) - y) from x0, recording diagnostics.

    Inputs are validated here, once: x0 (and truth, if given) must have
    shape (op.n_ambient,) and y shape (op.m,), and x0 and y must be finite,
    else ValueError.  Stops at cfg.max_iters, or earlier when the relative
    iterate change drops below cfg.rel_change_tol (if positive).  A
    non-finite iterate truncates the trace at the last finite one and sets
    the diverged flag; post-divergence behavior is a measured phenomenon for
    unstable learned priors, so this is not an error.

    When the projection is marked as a function of its input (a class
    attribute `_deterministic`), back_projection is a BackProjection and op
    a MeasurementOperator, one step is a fixed function of x.  Then an
    iterate that repeats an earlier one bit for bit repeats every record
    after it with that period, and whole periods are copied, not computed.
    The trace is bit-identical to the one the plain loop records.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (op.n_ambient,):
        raise ValueError(f"x0 must have length {op.n_ambient}, got shape {x.shape}")
    y = np.asarray(y, dtype=float)
    if y.shape != (op.m,):
        raise ValueError(f"y must have length {op.m}, got shape {y.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")

    truth_arr = None if truth is None else np.asarray(truth, dtype=float)
    if truth_arr is not None and truth_arr.shape != x.shape:
        raise ValueError(f"truth must have length {op.n_ambient}, got shape {truth_arr.shape}")
    mu, tol, max_iters = cfg.mu, cfg.rel_change_tol, cfg.max_iters
    residual_norms = []
    rel_changes = [float("nan")]
    errors = None if truth_arr is None else [_norm(x - truth_arr)]
    iterates = [x.copy()] if cfg.record_iterates else None
    diverged = False

    # x_norm -> [(t, x_t)] for the iterates so far, while a cycle is looked
    # for.  The loop never writes to an iterate, so no copy is needed.
    seen = {} if (getattr(projection, "_deterministic", False)
                  and isinstance(back_projection, BackProjection)
                  and isinstance(op, MeasurementOperator)) else None
    period = 0

    iterations_run = 0
    # Diverging runs overflow on their way to the non-finite iterate that
    # stops them; those float warnings are expected, not actionable.
    with np.errstate(over="ignore", invalid="ignore"):
        x_norm = _norm(x)
        if seen is not None:
            seen[x_norm] = [(0, x)]
        while True:
            px = np.asarray(projection(x), dtype=float)
            residual = op.apply(px) - y
            residual_norms.append(_norm(residual))
            if iterations_run == max_iters or (tol > 0 and rel_changes[-1] < tol):
                break
            if period:
                # x == x_{t - period}, and the stop test has passed every
                # relative change of the period, so each record from index
                # t - period + 1 on repeats with this period.  Whole periods
                # are copied; the iterations left run, so final is computed.
                repeats = (max_iters - iterations_run) // period
                for records in (residual_norms, rel_changes, errors):
                    if records is not None:
                        records.extend(records[-period:] * repeats)
                if iterates is not None:
                    iterates.extend([v.copy() for v in iterates[-period:] * repeats])
                iterations_run += period * repeats
                # The first repeat gives the least period, and fewer than
                # one period is left: there is nothing more to find.
                seen, period = None, 0
                if iterations_run == max_iters:
                    break
            x_next = px - mu * back_projection.apply(residual)
            # A finite sum of squares means every entry is finite; only an
            # overflowing one needs the entry-wise check.
            sq = x_next.dot(x_next)
            if not math.isfinite(sq) and not np.all(np.isfinite(x_next)):
                diverged = True
                break
            # The floor makes the first step from a zero iterate come out as
            # a huge relative change (possibly inf), and near-overflow
            # iterates can give inf/inf = nan; neither can early-stop, which
            # is the intent.
            rel = _norm(x_next - x) / max(x_norm, REL_CHANGE_FLOOR)
            rel_changes.append(rel)
            if errors is not None:
                errors.append(_norm(x_next - truth_arr))
            if iterates is not None:
                iterates.append(x_next.copy())
            x, x_norm = x_next, math.sqrt(sq)
            iterations_run += 1
            if seen is not None:
                same_norm = seen.get(x_norm)
                if same_norm is None:
                    seen[x_norm] = [(iterations_run, x)]
                else:
                    period = _repeat(same_norm, x, iterations_run)

    return RecoveryTrace(
        residual_norms=residual_norms,
        rel_changes=rel_changes,
        iterations_run=iterations_run,
        final=x,
        errors_to_truth=errors,
        iterates=iterates,
        diverged=diverged,
        stop_reason=("diverged" if diverged else
                     "max_iters" if iterations_run == max_iters else "rel_change"),
    )


def _repeat(same_norm, x, t):
    """t - j for the earlier iterate (j, x_j) of `same_norm`, the iterates with
    the norm of x_t, that has the bits of x_t; else 0, after adding (t, x_t).
    A norm match only nominates: the bits decide (0.0 and -0.0 differ)."""
    for j, earlier in same_norm:
        if np.array_equal(x.view(np.int64), earlier.view(np.int64)):
            return t - j
    same_norm.append((t, x))
    return 0


def _stacked_run(A, Y, mu, project, max_iters, truths):
    """gpgd_run on each row i of a stack: A[i] (m x n), Y[i], mu[i] and truths[i],
    from zero, with the adjoint back-projection, no early stopping and the
    iterates recorded.  project(Z, t) projects the iterates Z at iteration t.
    Every matvec and norm is a per-row matmul, so each trace has gpgd_run's
    bits on its row alone.  Every row stays in the stack to the end; one whose
    new iterate is not finite records its stop and diverged flag there."""
    T, n = truths.shape
    At = np.swapaxes(A, 1, 2)
    residuals, rels, errors = np.full((3, max_iters + 1, T), np.nan)
    iterates = np.zeros((max_iters + 1, T, n))
    stops, diverged, x_norm = np.full(T, max_iters), np.zeros(T, dtype=bool), np.zeros(T)
    errors[0] = _norms(iterates[0] - truths)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(max_iters + 1):
            PX = project(iterates[t], t)
            R = (A @ PX[:, :, None])[:, :, 0] - Y
            residuals[t] = _norms(R)
            if t == max_iters:
                break
            X = iterates[t + 1]
            np.subtract(PX, mu[:, None] * (At @ R[:, :, None])[:, :, 0], out=X)
            sq = (X[:, None, :] @ X[:, :, None])[:, 0, 0]
            if not np.isfinite(sq).all():
                bad = ~np.isfinite(X).all(axis=1)
                stops[bad & ~diverged] = t
                diverged |= bad
            rels[t + 1] = _norms(X - iterates[t]) / np.maximum(x_norm, REL_CHANGE_FLOOR)
            errors[t + 1] = _norms(X - truths)
            x_norm = np.sqrt(sq)
    return [RecoveryTrace(residuals[: t + 1, i].tolist(), [float("nan")] + rels[1 : t + 1, i].tolist(),
                          int(t), iterates[t, i].copy(), errors[: t + 1, i].tolist(),
                          list(iterates[: t + 1, i]), bool(diverged[i]),
                          "diverged" if diverged[i] else "max_iters")
            for i, t in enumerate(stops)]


def i_min_oracle(trace):
    """Index of the smallest recorded error to the truth; ties take the lowest.

    This is an oracle (it needs the ground truth), used to anchor the
    post-optimum stability metrics.
    """
    if trace.errors_to_truth is None:
        raise ValueError("trace has no errors_to_truth; run with a ground truth")
    return int(np.argmin(trace.errors_to_truth))
