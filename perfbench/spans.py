"""In-memory span recording around the layer entry points of `gpgd`.

The tracer replaces each entry point listed in ENTRY_POINTS with a wrapper
that records one span (name, start, end, parent) per call, plus a few
counts taken from the call's arguments and result.  Nothing inside the
package changes: the wrappers are installed on the package's module and
class attributes only while a traced pass runs, and the originals are put
back afterwards, so untraced passes run the package as shipped.

An entry point that no longer exists (a renamed or removed function or
method) is reported as absent and its metrics read 0; the traced run does
not fail on it.
"""

import importlib
import math
import time
from array import array

import numpy as np

# (module, attribute path, span name).  A span name of None means the name
# depends on the call (back-projections are split by kind).
ENTRY_POINTS = (
    ("gpgd.experiments", "gpgd_run", "descent.gpgd_run"),
    ("gpgd.operators", "MeasurementOperator.apply", "operators.apply"),
    ("gpgd.operators", "MeasurementOperator.adjoint", "operators.adjoint"),
    ("gpgd.operators", "BackProjection.apply", None),
    ("gpgd.projections", "HardThreshold.__call__", "projections.hard_threshold"),
    ("gpgd.projections", "PAlpha.__call__", "projections.p_alpha"),
    ("gpgd.projections", "ProductProjection.__call__", "projections.product"),
    ("gpgd.prior", "LearnedProjection.__call__", "projections.learned"),
    ("gpgd.prior", "loss_gradient", "prior.loss_gradient"),
    ("gpgd.prior", "training_loss", "prior.training_loss"),
    ("gpgd.experiments", "train", "prior.train"),
    ("gpgd.experiments", "exact_ric_sparse", "constants.exact_ric_sparse"),
    ("gpgd.experiments", "operator_norm", "constants.operator_norm"),
    ("gpgd.experiments", "stability_report", "metrics.stability_report"),
    ("gpgd.experiments", "centile_curve", "metrics.centile_curve"),
)

# Spans the benchmark opens itself around each cell.
RUNNER = "experiments.runner"
WRITE = "experiments.write_outputs"

# Per-layer metrics and their units, in output order.  Everything that is
# not a ratio is given per traced study (one pass over the workload's cells).
PER_LAYER_UNITS = {
    "experiments.cells": "count",
    "experiments.self_ms": "ms",
    "experiments.write_outputs_ms": "ms",
    "descent.solves": "count",
    "descent.iters": "count",
    "descent.busy_ms": "ms",
    "descent.us_per_iter": "us",
    "descent.self_us_per_iter": "us",
    "descent.early_stop_frac": "fraction",
    "descent.diverged": "count",
    "descent.rerun_iters": "count",
    "operators.apply.calls": "count",
    "operators.apply.us": "us",
    "operators.adjoint.calls": "count",
    "operators.adjoint.us": "us",
    "operators.matvec_gflops": "GFLOP/s",
    "operators.backproj.adjoint.calls": "count",
    "operators.backproj.adjoint.us": "us",
    "operators.backproj.residual_threshold.calls": "count",
    "operators.backproj.residual_threshold.us": "us",
    "projections.hard_threshold.calls": "count",
    "projections.hard_threshold.us": "us",
    "projections.p_alpha.calls": "count",
    "projections.p_alpha.us": "us",
    "projections.product.calls": "count",
    "projections.product.us": "us",
    "projections.learned.calls": "count",
    "projections.learned.us": "us",
    "constants.exact_ric_sparse.calls": "count",
    "constants.exact_ric_sparse.busy_ms": "ms",
    "constants.supports_enumerated": "count",
    "constants.operator_norm.busy_ms": "ms",
    "constants.accept_frac": "fraction",
    "prior.train.busy_ms": "ms",
    "prior.epochs": "count",
    "prior.ms_per_epoch": "ms",
    "prior.loss_gradient.us": "us",
    "prior.training_loss.us": "us",
    "prior.train_diverged": "count",
    "metrics.stability_report.us": "us",
    "metrics.centile_curve.calls": "count",
    "process.cpu_util": "fraction",
    "trace.overhead_frac": "fraction",
    "outputs.csv_identical_frac": "fraction",
}


def _resolve(module_name, path):
    """(owner, attribute name, current value), or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Span store plus the counters read from call arguments and results."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = {
            "descent.iters": 0,
            "descent.early_stops": 0,
            "descent.diverged": 0,
            "descent.rerun_iters": 0,
            "operators.flops": 0,
            "constants.supports_enumerated": 0,
            "prior.epochs": 0,
            "prior.train_diverged": 0,
        }
        self._solves = {}
        self._installed = []
        self.absent = sorted(
            f"{module}.{path}" for module, path, _ in ENTRY_POINTS if _resolve(module, path) is None
        )

    # -- span recording ---------------------------------------------------

    def _intern(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name):
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def end_cell(self):
        """Fold the cell's repeated solves into descent.rerun_iters.

        A solve repeated on the same projection, back-projection, operator
        and measurements is discarded by its caller (the nipr window
        doubling restarts each longer run from x0); every run of such a
        group but the last is rerun work.
        """
        for _, iters in self._solves.values():
            self.counts["descent.rerun_iters"] += sum(iters[:-1])
        self._solves = {}

    # -- entry-point wrappers -------------------------------------------------

    def _wrapper(self, span_name, original):
        tracer = self
        hook = {
            "descent.gpgd_run": self._after_solve,
            "operators.apply": self._after_matvec,
            "operators.adjoint": self._after_matvec,
            "prior.train": self._after_train,
            "constants.exact_ric_sparse": self._after_ric,
        }.get(span_name)

        if span_name is None:
            def wrapped(bp, *args, **kwargs):
                idx = tracer._open(f"operators.backproj.{bp.kind}")
                try:
                    return original(bp, *args, **kwargs)
                finally:
                    tracer._close(idx)
        elif hook is None:
            def wrapped(*args, **kwargs):
                idx = tracer._open(span_name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._close(idx)
        else:
            def wrapped(*args, **kwargs):
                idx = tracer._open(span_name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                hook(args, kwargs, result)
                return result
        return wrapped

    def _after_solve(self, args, kwargs, trace):
        cfg = args[5] if len(args) > 5 else kwargs["cfg"]
        self.counts["descent.iters"] += trace.iterations_run
        self.counts["descent.diverged"] += int(trace.diverged)
        if not trace.diverged and trace.iterations_run < cfg.max_iters:
            self.counts["descent.early_stops"] += 1
        # Keyed by the argument objects themselves, which the entry keeps
        # alive, so ids cannot be reused within the cell.
        key = tuple(id(a) for a in args[1:5])
        self._solves.setdefault(key, (args[1:5], []))[1].append(trace.iterations_run)

    def _after_matvec(self, args, kwargs, result):
        op = args[0]
        self.counts["operators.flops"] += 2 * op.m * op.n_ambient

    def _after_train(self, args, kwargs, result):
        self.counts["prior.epochs"] += len(result.losses) - 1
        self.counts["prior.train_diverged"] += int(result.diverged)

    def _after_ric(self, args, kwargs, result):
        n = np.asarray(args[0]).shape[0]
        k = int(args[1] if len(args) > 1 else kwargs["k"])
        self.counts["constants.supports_enumerated"] += math.comb(n, min(2 * k, n))

    def install(self):
        """Wrap every entry point that exists; idempotent until uninstall()."""
        if self._installed:
            return
        for module, path, span_name in ENTRY_POINTS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, original = found
            setattr(owner, attr, self._wrapper(span_name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- aggregation ------------------------------------------------------------

    def save(self, path):
        """Write the spans to an .npz: `names` is the name table, `name_id`
        indexes it, `parent` is the index of the enclosing span (-1 at top
        level), `start_ns`/`end_ns` are perf_counter_ns readings."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    def totals(self):
        """Per span name: call count, inclusive ns, self ns (minus child spans)."""
        n = len(self.start)
        if n == 0:
            return {}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=dur, minlength=k)
        self_ns = np.bincount(name_id, weights=dur - child, minlength=k)
        # Busy time of each layer as seen from the runner: the inclusive time
        # of spans whose parent is a runner span.
        runner_id = self._name_ids.get(RUNNER, -1)
        top = has_parent & (name_id[np.where(has_parent, parent, 0)] == runner_id)
        top_ns = np.bincount(name_id[top], weights=dur[top], minlength=k)
        return {
            name: {"calls": int(calls[i]), "ns": float(incl[i]), "self_ns": float(self_ns[i]),
                   "top_ns": float(top_ns[i])}
            for i, name in enumerate(self.names)
        }


def layer_metrics(tracer, studies, accepted_rows, extra):
    """Per-layer metrics per traced study, from the tracer's spans and counts.

    `studies` is the number of traced passes, `accepted_rows` the theorem
    rows the traced cells returned, and `extra` the process and output
    metrics measured outside the tracer.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ns(name, key="ns"):
        return totals.get(name, {}).get(key, 0.0)

    def per_call_us(name):
        return ns(name) / 1e3 / calls(name) if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    per = 1.0 / studies
    iters = counts["descent.iters"]
    solves = calls("descent.gpgd_run")
    matvec_ns = ns("operators.apply") + ns("operators.adjoint")
    epochs = counts["prior.epochs"]
    out = {
        "experiments.cells": calls(RUNNER) * per,
        "experiments.self_ms": ns(RUNNER, "self_ns") / 1e6 * per,
        "experiments.write_outputs_ms": ns(WRITE) / 1e6 * per,
        "descent.solves": solves * per,
        "descent.iters": iters * per,
        "descent.busy_ms": ns("descent.gpgd_run") / 1e6 * per,
        "descent.us_per_iter": ratio(ns("descent.gpgd_run") / 1e3, iters),
        "descent.self_us_per_iter": ratio(ns("descent.gpgd_run", "self_ns") / 1e3, iters),
        "descent.early_stop_frac": ratio(counts["descent.early_stops"], solves),
        "descent.diverged": counts["descent.diverged"] * per,
        "descent.rerun_iters": counts["descent.rerun_iters"] * per,
        "operators.matvec_gflops": ratio(counts["operators.flops"], matvec_ns),
        "constants.exact_ric_sparse.calls": calls("constants.exact_ric_sparse") * per,
        "constants.exact_ric_sparse.busy_ms": ns("constants.exact_ric_sparse") / 1e6 * per,
        "constants.supports_enumerated": counts["constants.supports_enumerated"] * per,
        "constants.operator_norm.busy_ms": ns("constants.operator_norm") / 1e6 * per,
        "constants.accept_frac": ratio(accepted_rows, calls("constants.exact_ric_sparse")),
        "prior.train.busy_ms": ns("prior.train") / 1e6 * per,
        "prior.epochs": epochs * per,
        "prior.ms_per_epoch": ratio(ns("prior.train") / 1e6, epochs),
        "prior.loss_gradient.us": per_call_us("prior.loss_gradient"),
        "prior.training_loss.us": per_call_us("prior.training_loss"),
        "prior.train_diverged": counts["prior.train_diverged"] * per,
        "metrics.stability_report.us": per_call_us("metrics.stability_report"),
        "metrics.centile_curve.calls": calls("metrics.centile_curve") * per,
    }
    for name in ("operators.apply", "operators.adjoint", "operators.backproj.adjoint",
                 "operators.backproj.residual_threshold", "projections.hard_threshold",
                 "projections.p_alpha", "projections.product", "projections.learned"):
        out[f"{name}.calls"] = calls(name) * per
        out[f"{name}.us"] = per_call_us(name)
    out.update(extra)
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def closure(tracer, studies):
    """How the traced study time splits: the busy time of each layer called
    straight from a runner, the runner's self time and write_outputs, in ms
    per study.  The parts sum to the traced cell time."""
    totals = tracer.totals()
    parts = {name: t["top_ns"] / 1e6 / studies for name, t in totals.items() if t["top_ns"] > 0}
    parts["experiments.self"] = totals.get(RUNNER, {}).get("self_ns", 0.0) / 1e6 / studies
    parts["experiments.write_outputs"] = totals.get(WRITE, {}).get("ns", 0.0) / 1e6 / studies
    return {name: round(value, 3) for name, value in sorted(parts.items())}
