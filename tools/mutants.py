"""The mutant table, run as `python tools/mutants.py`.

Each row of MUTANTS names a file under src/gpgd, a snippet that must occur
there exactly once, the snippet's replacement, and the tier-1 tests that must
fail with it in place.  All runs use a temporary copy of src/.  The union of
the named tests must pass on the unmutated copy; then each row's tests run,
`pytest -q -x -p no:cacheprovider`, on the copy with that row's one
replacement, and must fail.  Every run checks that each gpgd module it
imported came from the copy, so an editable install cannot mask a mutant.
Prints `killed  name  seconds`, tab-separated, per row; a row counts as
killed only when pytest exits 1 (tests failed).  Each surviving mutant,
mutated run that timed out or exited otherwise, stale snippet, module of
src/gpgd without a row, failing unmutated run or process left after its run
goes to stderr and makes it exit 1.  It writes nothing to the repository:
pytest runs from the temporary directory, with no bytecode and no cache
written.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
# The child's exit code when a gpgd module came from outside the copy.
MASKED = 10
# pytest in the child, on the copy's gpgd: argv is the copy's src/, then pytest's arguments.
CHILD = f"""
import importlib.util, sys
from pathlib import Path
import pytest

src = Path(sys.argv[1])
def outside(path):
    return src not in Path(path).resolve().parents
if outside(importlib.util.find_spec("gpgd").origin):
    sys.exit({MASKED})
code = pytest.main(sys.argv[2:])
modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "gpgd"]
sys.exit({MASKED} if any(outside(m.__file__) for m in modules) else code)
"""

DESCENT = "tests/test_descent.py::"
EXPERIMENTS = "tests/test_experiments.py::"
PRIOR = "tests/test_prior.py::"
TRAIN = PRIOR + "test_train_matches_textbook_loop_bit_for_bit"
# name: (file under src/gpgd, snippet, replacement, tier-1 node ids that must fail).
MUTANTS = {
    # projections.py
    "ties trimmed from the low index": (
        "projections.py", "mask[ties[ties.size - excess :]] = False", "mask[ties[:excess]] = False",
        ["tests/test_projections.py::test_hard_threshold_tie_keeps_lower_index"]),
    "no NaN fallback in the selection": (
        "projections.py", "if math.isnan(cut):", "if False:",
        ["tests/test_projections.py::test_threshold_rows_redoes_each_row_that_misses_its_count"]),
    "a whole-block count check": (
        "projections.py", "        if count != k:", "        if keep.sum() != k * len(keep):",
        ["tests/test_projections.py::test_threshold_rows_redoes_each_row_that_misses_its_count"]),
    "PAlpha scaled by the input's norm": (
        "projections.py", "alpha * _norm(z - base) / base_norm", "alpha * _norm(z) / base_norm",
        ["tests/test_projections.py::test_p_alpha_hand_case"]),
    "a bool taken as a count": (
        "projections.py", "if type(value) is int and value >= least:",
        "if isinstance(value, int) and value >= least:",
        ["tests/test_projections.py::test_hard_threshold_k_zero_and_bounds"]),
    "a product marked by any block": (
        "projections.py", 'return all(getattr(proj, "_deterministic", False)',
        'return any(getattr(proj, "_deterministic", False)',
        [DESCENT + "test_product_projection_is_marked_only_when_every_block_is"]),
    # operators.py
    "residual threshold by signed value": (
        "operators.py", "kept = _smallest(np.abs(residual), self.keep)",
        "kept = _smallest(residual, self.keep)",
        ["tests/test_operators.py::test_residual_threshold_keeps_smallest_magnitudes"]),
    "a strided residual passed to BLAS": (
        "operators.py", 'r = np.asarray(r, dtype=float, order="C")', "r = np.asarray(r, dtype=float)",
        ["tests/test_operators.py::test_a_strided_vector_gets_its_contiguous_copys_bytes"]),
    # descent.py
    "divergence on the squared norm alone": (
        "descent.py", "if not math.isfinite(sq) and not np.all(np.isfinite(x_next)):",
        "if not math.isfinite(sq):",
        [DESCENT + "test_stacked_run_is_each_rows_gpgd_run"]),
    "no early stop": (
        "descent.py", "if iterations_run == max_iters or (tol > 0 and rel_changes[-1] < tol):",
        "if iterations_run == max_iters:",
        [DESCENT + "test_rel_change_stopping"]),
    "no replay": (
        "descent.py", "            if period:\n", "            if False:\n",
        [DESCENT + "test_replayed_orbit_matches_textbook_loop_bit_for_bit"]),
    "aliased replayed iterates": (
        "descent.py", "iterates.extend([v.copy() for v in iterates[-period:] * repeats])",
        "iterates.extend(iterates[-period:] * repeats)",
        [DESCENT + "test_replayed_orbit_matches_textbook_loop_bit_for_bit"]),
    "repeats keyed by value": (
        "descent.py",
        "{earlier.tobytes(): j}\n"
        "                    # Adds x_t, or finds the earlier iterate with its bits.\n"
        "                    period = iterations_run - same_norm.setdefault(x.tobytes(),",
        "{tuple(earlier.tolist()): j}\n"
        "                    period = iterations_run - same_norm.setdefault(tuple(x.tolist()),",
        [DESCENT + "test_replayed_orbit_matches_textbook_loop_bit_for_bit"]),
    "a repeat table without the norm's first iterate": (
        "descent.py", "{earlier.tobytes(): j}", "{}",
        [DESCENT + "test_replayed_orbit_matches_textbook_loop_bit_for_bit"]),
    "a stacked stop without its - 1": (
        "descent.py", "finite.argmin(axis=0) - 1)", "finite.argmin(axis=0))",
        [DESCENT + "test_stacked_run_is_gpgd_run_on_every_row"]),
    # metrics.py
    "SM2 without the rescale": (
        "metrics.py", "                x, x_next = (np.ldexp(v, -math.frexp(largest)[1]) for v in (x, x_next))\n",
        "", ["tests/test_metrics.py::test_metrics_scale_invariant"]),
    "SM1 window one short": (
        "metrics.py", "window = errors[i_min + 1 : i_min + n + 1]", "window = errors[i_min + 1 : i_min + n]",
        ["tests/test_metrics.py::test_sm1_monotone_increase_attained_at_window_end"]),
    "centile rank rounded down": (
        "metrics.py", "rank = math.ceil(", "rank = math.floor(",
        ["tests/test_metrics.py::test_centile_hand_case"]),
    # constants.py
    "the support screen without its tolerance": (
        "constants.py", "keep = lam >= top - _SCREEN_TOL * np.maximum(abs(top), 1.0)", "keep = lam >= top",
        [EXPERIMENTS + "test_support_screens_break_ties_of_rotated_blocks_like_the_full_enumeration"]),
    "the mu screen without its tolerance": (
        "constants.py", "screen <= least + _SCREEN_TOL * max(abs(least), 1.0)", "screen <= least",
        [EXPERIMENTS + "test_tuner_breaks_ties_of_rotated_blocks_like_the_full_scan"]),
    "no non-finite fallback in the support screen": (
        "constants.py", "return keep | ~np.isfinite(lam).all(axis=-1, keepdims=True)", "return keep",
        [EXPERIMENTS + "test_support_screen_sends_every_support_to_lapack_when_the_closed_form_overflows"]),
    "a non-finite mu not passed over": (
        "constants.py", "            if not np.isfinite(quad).all():\n                continue\n", "",
        [EXPERIMENTS + "test_tuner_raises_when_no_grid_mu_gives_a_finite_delta[nan-diagonal-2]"]),
    "a row-space direction in the floor": (
        "constants.py", "null_basis = np.linalg.svd(As)[2][:, m:]", "null_basis = np.linalg.svd(As)[2][:, m - 1:]",
        [EXPERIMENTS + "test_null_space_floor_never_exceeds_delta_on_mu_grid"]),
    "a dropped M check": (
        "constants.py", '    if not np.isfinite(M).all():\n        raise ValueError("M must be finite")\n', "",
        ["tests/test_constants.py::test_constants_reject_non_finite_input"]),
    "a dropped mc_beta check": (
        "constants.py", "if not math.isfinite(ratio) and not np.isfinite(pz).all():", "if False:",
        ["tests/test_constants.py::test_constants_reject_non_finite_input"]),
    "mc_beta measures P(z) against z": (
        "constants.py", "np.linalg.norm(pz - x) / np.linalg.norm(z - x)", "np.linalg.norm(pz - z) / np.linalg.norm(z - x)",
        ["tests/test_constants.py::test_mc_beta_hard_threshold_brackets"]),
    "the bound without its initial error": (
        "constants.py", "rate ** np.arange(n_iters + 1) * initial_error", "rate ** np.arange(n_iters + 1)",
        ["tests/test_constants.py::test_bound_noiseless_geometric_decay"]),
    "the truth bound without C_rob'": (
        "constants.py", 'c_rob = tb.c_rob_prime if variant == "truth" else tb.c_rob', "c_rob = tb.c_rob",
        ["tests/test_constants.py::test_bound_truth_variant_uses_crob_prime"]),
    # experiments.py
    "a trial's stream shifted by the trial count": (
        "experiments.py", "*key, t), t)", "*key, t + spec.trials), t)",
        ["tests/test_trial_map.py::test_cell_trials_gives_trial_t_of_a_cell_its_own_stream"]),
    "an inconclusive check exits 0": (
        "experiments.py", "status = 3 if inconclusive else 0", "status = 0",
        [EXPERIMENTS + "test_cli_inconclusive_theorem_check_reports_its_near_misses"]),
    "no row verified": (
        "experiments.py", "verified=int(margin_proj <= 1e-9 and margin_truth <= 1e-9)", "verified=0",
        [EXPERIMENTS + "test_cli_theorem_at_zero_sparsity"]),
    "a dropped past-stop mask": (
        "experiments.py", "        gaps[past_stop] = -np.inf\n", "",
        [EXPERIMENTS + "test_bound_margins_are_each_rows_textbook_margins"]),
    "the truth margin with the projection constant": (
        "experiments.py", "_bound_constant(tb, variant) for tb in tbs", '_bound_constant(tb, "projection") for tb in tbs',
        [EXPERIMENTS + "test_bound_margins_are_each_rows_textbook_margins"]),
    "a dropped tolerance stop": (
        "experiments.py", "    if spec.rel_change_tol > 0:\n", "    if False:\n",
        [EXPERIMENTS + "test_stepsize_arms_are_each_arms_gpgd_run"]),
    "a shifted perturbation slice": (
        "experiments.py", "PX[rows] += noise[:, t]", "PX[rows] += noise[:, t - 1]",
        [DESCENT + "test_row_projection_is_each_rows_projection"]),
    "the old variant deal": (
        "experiments.py", "[::-1][s::shares][::-1] for s in range(shares)]", "[s::shares] for s in range(shares)]",
        ["tests/test_trial_map.py::test_theorem_check_deals_its_variants_in_turn"]),
    "plain trainings dealt first": (
        "experiments.py", "regularized, plain = _cell_trials(spec, [((), spec.nipr_weight), ((), 0.0)],",
        "plain, regularized = _cell_trials(spec, [((), 0.0), ((), spec.nipr_weight)],",
        ["tests/test_trial_map.py::test_nipr_deals_the_regularized_trainings_first"]),
    "pipes left open when a fork fails": (
        "experiments.py", "        for fd in fds:\n            os.close(fd)\n        return False",
        "        return False", ["tests/test_trial_map.py::test_a_share_that_cannot_be_forked_runs_in_this_process"]),
    "a stale trace left beside its table": (
        "experiments.py", "    elif os.path.lexists(trace):\n        os.remove(trace)\n", "",
        [EXPERIMENTS + "test_cli_rerun_without_traces_removes_the_stale_trace"]),
    "repeated grid entries accepted": (
        "experiments.py", "and len(set(value)) == len(value)):", "):",
        [EXPERIMENTS + "test_cli_rejects_repeated_grid_entries"]),
    # prior.py
    "no entry-wise fallback in training": (
        "prior.py", "if not math.isfinite(s) and not (np.isfinite(enc).all() and np.isfinite(dec).all()):",
        "if not math.isfinite(s):", [TRAIN + "[overflowing_sum]"]),
    "a rollback to the starting prior": (
        "prior.py", "prior.encoder_weights, prior.decoder_weights = epoch_start",
        "prior.encoder_weights, prior.decoder_weights = prior0.encoder_weights, prior0.decoder_weights",
        [TRAIN + "[diverging]"]),
    "the certificate always held": (
        "prior.py", "loss = None if s < s_max else training_loss(prior, dataset, cfg, noise=eval_noise)",
        "loss = None", [TRAIN + "[overflowing_loss]"]),
    "the certificate never held": (
        "prior.py", "loss = None if s < s_max else training_loss(prior, dataset, cfg, noise=eval_noise)",
        "loss = training_loss(prior, dataset, cfg, noise=eval_noise)", [TRAIN + "[plain-ae-0-tanh]"]),
    "r dropped from the certificate": (
        "prior.py", "math.sqrt(b_max / (n * prior.d_latent * r))", "math.sqrt(b_max / (n * prior.d_latent))",
        [TRAIN + "[past_data_bound]"]),
    "masked penalty rows filled with 1": (
        "prior.py", "norm_pull = np.divide(weight * gn, qn**3, out=np.zeros(len(qn)), where=active)",
        "norm_pull = np.divide(weight * gn, qn**3, out=np.ones(len(qn)), where=active)",
        [TRAIN + "[partly_idempotent]"]),
    "U divided under used": (
        "prior.py", "out=np.zeros(len(qn)), where=active)[:, None] * G",
        "out=np.zeros(len(qn)), where=used)[:, None] * G", [TRAIN + "[partly_idempotent]"]),
    # cli.py
    "an output path outside a directory accepted": (
        "cli.py", 'if not os.path.isdir(os.path.dirname(spec.output_path) or "."):', "if False:",
        [EXPERIMENTS + "test_cli_rejects_an_output_path_outside_an_existing_directory"]),
    "a component error exits 1": (
        "cli.py", "        return 2\n", "        return 1\n",
        [EXPERIMENTS + "test_cli_component_error_exit_code"]),
    # __init__.py
    "gpgd_run not exported": (
        "__init__.py", "GpgdConfig, RecoveryTrace, gpgd_run, i_min_oracle", "GpgdConfig, RecoveryTrace, i_min_oracle",
        [DESCENT + "test_readme_library_example_recovers_exactly"]),
}


def stale(mutants, sources):
    """Each row whose snippet does not occur exactly once in its file's text
    (`sources`, {file: text}), and each file there that no row mutates."""
    problems = [f"{name}: its snippet occurs {sources.get(file, '').count(snippet)} times in {file}, not once"
                for name, (file, snippet, _, _) in mutants.items() if sources.get(file, "").count(snippet) != 1]
    unmutated = sorted(set(sources) - {file for file, _, _, _ in mutants.values()})
    return problems + [f"{file}: no row mutates it" for file in unmutated]


def verdict(code):
    """What a mutated run's exit code (None past TIMEOUT_S) says: "killed"
    only when its tests failed (pytest's 1), "SURVIVED" when they passed,
    and otherwise why the run counts neither way."""
    return {0: "SURVIVED", 1: "killed", None: f"timed out after {TIMEOUT_S} s",
            MASKED: "gpgd came from outside the copy"}.get(code, f"pytest exited {code}")


def pytest_run(scratch, ids):
    """pytest's exit code on `ids` against scratch/src, run from scratch (None
    past TIMEOUT_S), its seconds, and whether a process of its session
    outlived it.  Every process of the session is killed at the end."""
    env = {**os.environ, "PYTHONPATH": str(scratch / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [sys.executable, "-c", CHILD, str(scratch / "src"), "-q", "-x", "-p", "no:cacheprovider",
            "--rootdir", str(REPO), *(str(REPO / i) for i in ids)]
    start = time.perf_counter()
    # To a file, not to a pipe that a leftover child would hold open.
    with open(scratch / "log", "w") as log, subprocess.Popen(
            args, cwd=scratch, env=env, stdout=log, stderr=log, start_new_session=True) as child:
        try:
            code = child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        try:
            os.killpg(child.pid, signal.SIGKILL)
            left = code is not None
        except ProcessLookupError:
            left = False
    return code, time.perf_counter() - start, left


def main():
    sources = {path.name: path.read_text() for path in sorted((REPO / "src/gpgd").glob("*.py"))}
    problems = stale(MUTANTS, sources)
    with tempfile.TemporaryDirectory(prefix="mutants_") as scratch:
        scratch = Path(scratch)
        shutil.copytree(REPO / "src", scratch / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        package = scratch / "src/gpgd"
        ids = sorted({i for *_, row_ids in MUTANTS.values() for i in row_ids})
        code, seconds, left = pytest_run(scratch, ids)
        print(f"{'passed' if code == 0 else 'FAILED'}\tunmutated\t{seconds:.1f}", flush=True)
        if code != 0:
            failure = f"timed out after {TIMEOUT_S} s" if code is None else f"pytest exited {code}"
            problems.append(f"unmutated: {failure}, not 0:\n{(scratch / 'log').read_text()}")
        if left:
            problems.append("unmutated: a process outlived its run")
        for name, (file, snippet, replacement, row_ids) in MUTANTS.items():
            if code != 0 or sources.get(file, "").count(snippet) != 1:
                continue
            (package / file).write_text(sources[file].replace(snippet, replacement))
            row_code, seconds, left = pytest_run(scratch, row_ids)
            (package / file).write_text(sources[file])
            outcome = verdict(row_code)
            print(f"{outcome if row_code in (0, 1) else 'ERROR'}\t{name}\t{seconds:.1f}", flush=True)
            if row_code == 0:
                problems.append(f"{name}: survived {', '.join(row_ids)}")
            elif row_code != 1:
                problems.append(f"{name}: {outcome}:\n{(scratch / 'log').read_text()}")
            if left:
                problems.append(f"{name}: a process outlived its run")
    sys.stderr.writelines(f"{problem}\n" for problem in problems)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
