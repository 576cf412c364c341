"""Correctness checks on one cell's outputs.

Two layers of checks:

- structural invariants, for every seed: the runner status, the CSV header
  and row count, grid columns that echo the cell's spec, centile values in
  [0, 1], and `verified == 1` with `delta_beta < 1` on every accepted
  theorem row (the bound is a theorem, so a violation is a bug);
- a comparison against the reference recorded for the default seed, when
  the cell has one: ints, strings, flags and status exactly, floats within
  REL_TOL, with ABS_FLOOR for values that sit at the numerical floor (SM1
  and SM2 after convergence read about 1e-15).
"""

import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_FLOOR = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

COLUMNS = {
    "phase_alpha": ["k", "alpha", "trials", "centile", "centile_error", "mean_error", "success_rate"],
    "stepsize": ["mu", "k", "trials", "centile", "centile_error", "mean_error", "mean_plateau_error"],
    "outliers": ["method", "k", "s", "trials", "centile", "centile_error", "mean_error"],
    "joint": ["k", "s", "trials", "centile", "centile_x_error", "centile_e_error",
              "mean_x_error", "mean_e_error"],
    "nipr": ["pair", "nipr_weight", "train_diverged", "i_min", "sm1_10", "sm1_50", "sm1_100",
             "sm2_10", "sm2_50", "sm2_100", "best_error", "final_error", "final_penalty"],
    "theorem": ["variant", "attempt", "mu", "delta", "delta_beta", "noise_term", "model_error",
                "eta", "margin_projection", "margin_truth", "verified"],
}

TRACE_COLUMNS = {
    "phase_alpha": ["alpha", "k", "iter", "error_to_truth", "residual_norm", "rel_change"],
    "stepsize": ["mu", "k", "iter", "error_to_truth", "residual_norm", "rel_change"],
}

THEOREM_VARIANTS = ("noiseless", "noisy", "model_error", "proj_error")


def load_reference(workload):
    """Reference entries of a workload keyed by Cell.key, or {} if none."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def _parse_csv(text):
    lines = text.splitlines()
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _is_int(token):
    return token.lstrip("-").isdigit()


def _values_match(got, ref):
    if _is_int(ref):
        return got == ref
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return got == ref
    if math.isnan(b) or math.isinf(b):
        return repr(a) == repr(b)
    return math.isfinite(a) and abs(a - b) <= max(ABS_FLOOR, REL_TOL * abs(b))


def compare_csv(name, got_text, ref_text):
    """Problems found comparing one CSV against its reference text."""
    got_header, got_rows = _parse_csv(got_text)
    ref_header, ref_rows = _parse_csv(ref_text)
    if got_header != ref_header:
        return [f"{name}: header {got_header} != reference {ref_header}"]
    if len(got_rows) != len(ref_rows):
        return [f"{name}: {len(got_rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (got, ref) in enumerate(zip(got_rows, ref_rows)):
        for col, g, r in zip(ref_header, got, ref):
            if not _values_match(g, r):
                problems.append(f"{name} row {i} {col}: {g} != reference {r}")
                if len(problems) >= 5:
                    return problems
    return problems


def _expected_rows(cell, spec):
    exp = cell.experiment
    if exp == "phase_alpha":
        return len(spec.alpha_grid) * len(spec.sparsity_grid)
    if exp == "stepsize":
        return len(spec.mu_grid) * len(spec.sparsity_grid)
    if exp == "outliers":
        return 2 * len(spec.sparsity_grid) * len(spec.outlier_grid)
    if exp == "joint":
        return len(spec.sparsity_grid) * len(spec.outlier_grid)
    if exp == "nipr":
        return 2 * spec.trials
    return len(THEOREM_VARIANTS) * spec.trials if cell.expect_status == 0 else None


def structural(cell, spec, status, table_text, trace_text):
    """Problems with the invariants every cell must satisfy, any seed."""
    problems = []
    if status != cell.expect_status:
        problems.append(f"status {status}, expected {cell.expect_status}")
    header, rows = _parse_csv(table_text)
    if header != COLUMNS[cell.experiment]:
        return problems + [f"table header {header}"]
    expected = _expected_rows(cell, spec)
    if expected is not None and len(rows) != expected:
        problems.append(f"{len(rows)} table rows, expected {expected}")
    if any(len(r) != len(header) for r in rows):
        return problems + ["ragged table rows"]
    table = [dict(zip(header, r)) for r in rows]
    for i, row in enumerate(table):
        for col in header:
            if col.startswith("centile_") and not 0.0 <= float(row[col]) <= 1.0:
                problems.append(f"row {i} {col}={row[col]} outside [0, 1]")
        if "trials" in row and int(row["trials"]) != spec.trials:
            problems.append(f"row {i} trials={row['trials']}, spec has {spec.trials}")
        if "k" in row and int(row["k"]) not in spec.sparsity_grid:
            problems.append(f"row {i} k={row['k']} not in the cell's grid")
    exp = cell.experiment
    if exp == "phase_alpha" and sorted({float(r["alpha"]) for r in table}) != sorted(spec.alpha_grid):
        problems.append("alpha arms do not match the spec")
    if exp == "stepsize" and sorted({float(r["mu"]) for r in table}) != sorted(spec.mu_grid):
        problems.append("mu arms do not match the spec")
    if exp == "outliers" and sorted(r["method"] for r in table) != ["adjoint", "residual_threshold"]:
        problems.append("outlier methods do not match")
    if exp == "nipr":
        for i, row in enumerate(table):
            if row["train_diverged"] not in ("0", "1"):
                problems.append(f"row {i} train_diverged={row['train_diverged']}")
    if exp == "theorem":
        for i, row in enumerate(table):
            if row["verified"] != "1":
                problems.append(f"theorem row {i} ({row['variant']}) violates the bound")
            if not float(row["delta_beta"]) < 1.0:
                problems.append(f"theorem row {i} accepted with delta_beta={row['delta_beta']}")
    if exp in TRACE_COLUMNS and spec.k_trace in spec.sparsity_grid:
        if trace_text is None:
            problems.append("trace file missing")
        else:
            trace_header, trace_rows = _parse_csv(trace_text)
            if trace_header != TRACE_COLUMNS[exp]:
                problems.append(f"trace header {trace_header}")
            elif not trace_rows:
                problems.append("trace file empty")
    elif trace_text is not None:
        problems.append("unexpected trace file")
    return problems


def against_reference(status, table_text, trace_text, entry):
    """(problems, byte_identical) comparing a cell's outputs to its entry."""
    problems = []
    if status != entry["status"]:
        problems.append(f"status {status} != reference {entry['status']}")
    problems += compare_csv("table", table_text, entry["table"])
    if (trace_text is None) != (entry["trace"] is None):
        problems.append("trace presence differs from the reference")
    elif trace_text is not None:
        problems += compare_csv("trace", trace_text, entry["trace"])
    identical = table_text == entry["table"] and trace_text == entry["trace"]
    return problems, identical
