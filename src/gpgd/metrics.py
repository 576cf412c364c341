"""Recovery and post-optimum stability metrics.

SM1 measures the worst relative error inflation after the oracle-best
iterate; SM2 the cumulative relative iterate motion after it.  Both need
the ground-truth oracle, which synthetic experiments always retain.
Centile curves summarize repeated trials for phase-transition tables.
"""

import math
from dataclasses import dataclass

import numpy as np

from .descent import i_min_oracle
from .projections import _count, _norm, _real

__all__ = [
    "normalized_error",
    "centile_curve",
    "sm1",
    "sm2",
    "StabilityReport",
    "stability_report",
]


def normalized_error(x, truth):
    """||x - truth|| / ||truth||, with 0/0 = 0 for the zero-truth case."""
    x = np.asarray(x, dtype=float)
    truth = np.asarray(truth, dtype=float)
    with np.errstate(over="ignore"):  # a diverged estimate's norm is inf
        err = float(np.linalg.norm(x - truth))
        denom = float(np.linalg.norm(truth))
    if denom == 0.0:
        return 0.0 if err == 0.0 else float("inf")
    return err / denom


def centile_curve(errors, centile):
    """Nearest-rank centile of per-trial errors, thresholded at 1.

    Returns the ceil(centile * trials)-th smallest value capped at 1;
    no interpolation, so the result is always one of the inputs (or 1).
    """
    errors = list(errors)
    if not errors:
        raise ValueError("errors must be nonempty")
    if _real("centile", centile, positive=True) > 1.0:
        raise ValueError(f"centile must lie in (0, 1], got {centile}")
    rank = math.ceil(centile * len(errors))
    value = sorted(errors)[rank - 1]
    return float(min(value, 1.0))


def sm1(trace, n=10):
    """Worst post-optimum relative error inflation over an n-iteration window.

    max over i in [i_min+1, i_min+n] of errors[i] / errors[i_min] - 1,
    where errors are the trace's recorded errors_to_truth and i_min is the
    oracle-best index.  Nonnegative by construction of i_min.  Errors if the
    trace recorded no errors, is too short, or the best error is exactly
    zero (the ratio is then undefined).
    """
    n = _count("n", n, 1)
    i_min = i_min_oracle(trace)
    errors = trace.errors_to_truth
    if i_min + n >= len(errors):
        raise ValueError(
            f"trace too short for sm1: need errors through {i_min + n}, have {len(errors) - 1}"
        )
    best = errors[i_min]
    if best == 0.0:
        raise ValueError("exact recovery at the best iterate; sm1 is undefined")
    window = errors[i_min + 1 : i_min + n + 1]
    return float(max(window) / best - 1.0)


def sm2(trace, n=10):
    """Cumulative relative iterate motion over the n iterations past the optimum.

    sum over i in [i_min+1, i_min+n] of ||x_{i+1} - x_i|| / ||x_i||.
    Needs recorded iterates through i_min + n + 1.
    """
    n = _count("n", n, 1)
    if trace.iterates is None:
        raise ValueError("sm2 needs recorded iterates; run with record_iterates=True")
    i_min = i_min_oracle(trace)
    if i_min + n + 1 >= len(trace.iterates):
        raise ValueError(
            f"trace too short for sm2: need iterates through {i_min + n + 1}, "
            f"have {len(trace.iterates) - 1}"
        )
    total = 0.0
    with np.errstate(over="ignore"):
        for i in range(i_min + 1, i_min + n + 1):
            x, x_next = trace.iterates[i], trace.iterates[i + 1]
            denom, motion = _norm(x), _norm(x_next - x)
            if not (math.isfinite(denom) and math.isfinite(motion)):
                # Finite iterates past about 1e154 in norm overflow the sum of
                # squares.  Scaled by the power of two above their largest
                # entry, which is exact, they do not (Blue, ACM TOMS 1978).
                largest = max(np.abs(x).max(), np.abs(x_next).max())
                x, x_next = (np.ldexp(v, -math.frexp(largest)[1]) for v in (x, x_next))
                denom, motion = _norm(x), _norm(x_next - x)
            if denom == 0.0:
                raise ValueError(f"zero-norm iterate at index {i}; sm2 is undefined")
            total += motion / denom
    return total


@dataclass
class StabilityReport:
    """SM1/SM2 at a set of post-optimum offsets (default 10/50/100)."""

    i_min: int
    sm1_at: dict
    sm2_at: dict


def stability_report(trace, offsets=(10, 50, 100)):
    """Bundle SM1/SM2 at each offset into a StabilityReport."""
    offsets = [_count("offsets", n, 1) for n in offsets]
    return StabilityReport(
        i_min=i_min_oracle(trace),
        sm1_at={n: sm1(trace, n) for n in offsets},
        sm2_at={n: sm2(trace, n) for n in offsets},
    )
