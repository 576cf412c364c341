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

    rel_change_tol = 0 disables early stopping (fixed iteration count), so
    post-optimum behavior stays observable.  The step-size study (at its
    default), nipr's windowed solves and the theorem check's stacked descent
    run a fixed count; phase-alpha, outliers and joint default to 1e-12.
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
    shape (op.n_ambient,) and y shape (op.m,), and x0, y and truth must be
    finite, else ValueError.  Stops at cfg.max_iters, or earlier when the
    relative iterate change drops below cfg.rel_change_tol (if positive).  A
    non-finite iterate truncates the trace at the last finite one and sets
    the diverged flag; post-divergence behavior is a measured phenomenon for
    unstable learned priors, so this is not an error.

    When the projection is marked as a function of its input (a class
    attribute `_deterministic`), back_projection is a BackProjection and op
    a MeasurementOperator, one step is a fixed function of x.  Then an
    iterate that repeats an earlier one bit for bit repeats every record
    after it with that period, and whole periods are copied, not computed.
    A norm seen once holds its iterate; a second iterate of that norm turns
    the entry into a table keyed by the iterates' bytes, so each later one is
    one probe (0.0 and -0.0 differ).  The trace is bit-identical to the one
    the plain loop records.
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
    if truth_arr is not None and not np.all(np.isfinite(truth_arr)):
        raise ValueError("truth must be finite")
    mu, tol, max_iters = cfg.mu, cfg.rel_change_tol, cfg.max_iters
    residual_norms = []
    rel_changes = [float("nan")]
    errors = None if truth_arr is None else [_norm(x - truth_arr)]
    iterates = [x.copy()] if cfg.record_iterates else None
    diverged = False

    # x_norm -> (t, x_t) for the iterates so far, while a cycle is looked
    # for, or {x_t.tobytes(): t} once the norm repeats.  The loop never
    # writes to an iterate, so no copy is needed.
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
            seen[x_norm] = (0, x)
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
                    seen[x_norm] = (iterations_run, x)
                else:
                    if type(same_norm) is tuple:
                        j, earlier = same_norm
                        same_norm = seen[x_norm] = {earlier.tobytes(): j}
                    # Adds x_t, or finds the earlier iterate with its bits.
                    period = iterations_run - same_norm.setdefault(x.tobytes(), iterations_run)

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


def _rel_changes(X):
    """gpgd_run's relative changes of each row of the iterates block X,
    indexed [t, i] as X is (NaN at t = 0)."""
    with np.errstate(over="ignore", invalid="ignore"):
        rels = _norms(X[1:] - X[:-1]) / np.maximum(_norms(X[:-1]), REL_CHANGE_FLOOR)
    return np.vstack([np.full(X.shape[1], np.nan), rels])


def _stacked_run(A, Y, mu, project, max_iters):
    """gpgd_run's iterates on each row i of a stack: A[i] (m x n), Y[i] and
    mu[i], from zero, with the adjoint back-projection and no early stopping;
    an A (m, n) or Y (m,) serves every row (mu counts the rows).
    project(Z, t) projects the iterates Z at iteration t, once for each of
    t = 0 .. max_iters - 1.  Returns (iterates, stops): the iterates x_0 ..
    x_T as a block indexed [t, i], and stops[i], row i's last finite
    iterate; entries past it are not part of its run.  The loop runs only
    what the next iterate needs, with no residual norm: every matvec is a
    per-row matmul (a gemv on each row's matrix), so each row has its own
    gpgd_run's bits.  A diverged row stays in the stack to the end."""
    At, Y, mu = np.swapaxes(A, -1, -2), Y[..., None], mu[:, None, None]
    iterates = np.zeros((max_iters + 1, len(mu), A.shape[-1]))
    columns = iterates[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(max_iters):
            PX = project(iterates[t], t)[:, :, None]
            np.subtract(PX, mu * (At @ (A @ PX - Y)), out=columns[t + 1])
    finite = np.isfinite(iterates).all(axis=2)
    return iterates, np.where(finite.all(axis=0), max_iters, finite.argmin(axis=0) - 1)


def i_min_oracle(trace):
    """Index of the smallest recorded error to the truth; ties take the lowest.

    This is an oracle (it needs the ground truth), used to anchor the
    post-optimum stability metrics.
    """
    if trace.errors_to_truth is None:
        raise ValueError("trace has no errors_to_truth; run with a ground truth")
    return int(np.argmin(trace.errors_to_truth))
