"""Property test of the CLI exit-code contract on tiny generated configs.

An invalid configuration exits 1 before any work and writes no file; every
other run exits 0, or 3 for an inconclusive theorem check, and never 2.
`nipr`'s fixed 1000-epoch training costs seconds per run, so its generated
configs always carry one fault, and a few valid edge runs are pinned by hand.
"""

import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpgd.cli import main
from gpgd.experiments import _DEFAULTS, EXPERIMENTS, NIPR_PRIOR_LATENT, NIPR_TRAIN

COMMANDS = [e for e in EXPERIMENTS if e != "nipr"]

# Values of the wrong type for any key; 1.5 is a valid float, so nipr, whose
# keys are all scalars, draws from the others.
WRONG_TYPE = st.sampled_from([True, None, "1", [1], 1.5, math.inf])
NIPR_WRONG_TYPE = st.sampled_from([True, None, "1", [1], math.inf])


def _grid(entries, max_size=3):
    return st.lists(entries, min_size=1, max_size=max_size)


# In-range values at sizes that keep a run to milliseconds.  Grid entries
# can still fall outside the drawn m and n, and sigma 0 can meet an
# amplitude <= 0, so some of these configs are invalid as a whole.
VALID = {
    "m": st.integers(1, 12),
    "n_ambient": st.integers(1, 12),
    "sparsity_grid": _grid(st.integers(0, 6)),
    "alpha_grid": _grid(st.floats(0.0, 1.0)),
    "mu_grid": _grid(st.floats(0.05, 2.0), 2),
    "outlier_grid": _grid(st.integers(0, 6)),
    "gaussian_sigma": st.sampled_from([-1.0, 0, 0.0, 0.02, 1.0]),
    "outlier_amplitude": st.sampled_from([-1.0, 0.0, 2.0]),
    "trials": st.integers(1, 2),
    "iterations": st.integers(1, 20),
    "centile": st.floats(0.01, 1.0),
    "seed": st.integers(0, 2**32),
    "mu": st.floats(0.05, 2.0),
    "k_trace": st.integers(-1, 13),
    "rel_change_tol": st.sampled_from([0.0, 1e-12, 1e-3]),
    "resample_budget": st.integers(1, 3),
    "nipr_weight": st.sampled_from([0.0, 0.005]),
}

# Values out of each key's range.
OUT_OF_RANGE = {
    "m": st.integers(-1, 0),
    "n_ambient": st.just(0),
    "sparsity_grid": st.sampled_from([[], [-1]]),
    "alpha_grid": st.just([-0.5]),
    "mu_grid": st.just([0.0]),
    "outlier_grid": st.just([-1]),
    "trials": st.just(0),
    "iterations": st.just(0),
    "centile": st.sampled_from([0.0, 1.5]),
    "seed": st.just(-1),
    "mu": st.sampled_from([0.0, -1.0]),
    "rel_change_tol": st.just(-1.0),
    "resample_budget": st.just(0),
    "nipr_weight": st.just(-0.005),
}
# nipr's prior needs n_ambient above its latent size.
NIPR_VALID = dict(VALID, n_ambient=st.integers(NIPR_PRIOR_LATENT + 1, 12))
NIPR_OUT_OF_RANGE = dict(OUT_OF_RANGE, n_ambient=st.integers(0, NIPR_PRIOR_LATENT))

# Keys whose defaults would make a run large; a config always sets them.
SIZED = ("m", "n_ambient", "sparsity_grid", "alpha_grid", "mu_grid", "outlier_grid", "trials",
         "iterations", "resample_budget")


@st.composite
def configs(draw, commands=COMMANDS, faults=(None, None, None, "range", "type", "key")):
    """(experiment, config): in-range values for the experiment's sized keys
    and a random subset of the others, then one draw from `faults`, where
    None adds no fault."""
    experiment = draw(st.sampled_from(commands))
    nipr = experiment == "nipr"
    valid, out_of_range = (NIPR_VALID, NIPR_OUT_OF_RANGE) if nipr else (VALID, OUT_OF_RANGE)
    table = _DEFAULTS[experiment]
    keys = [key for key in sorted(table) if key != "output_path"
            and (key in SIZED or draw(st.booleans()))]
    config = {key: draw(valid[key]) for key in keys}
    if experiment == "theorem":
        config["sparsity_grid"] = config["sparsity_grid"][:draw(st.sampled_from([1, 1, 1, 2]))]
    fault = draw(st.sampled_from(faults))
    if fault == "range":
        key = draw(st.sampled_from([key for key in keys if key in out_of_range]))
        config[key] = draw(out_of_range[key])
    elif fault == "type":
        config[draw(st.sampled_from(keys))] = draw(NIPR_WRONG_TYPE if nipr else WRONG_TYPE)
    elif fault == "key":
        key = draw(st.sampled_from(sorted(set(VALID) - set(table)) + ["no_such_key"]))
        config[key] = draw(VALID.get(key, st.just(1)))
    return experiment, config


def _run(experiment, config, tmp):
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(config))
    return main([experiment.replace("_", "-"), "--config", str(cfg), "--out", str(tmp / "out")])


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_cli_exits_1_without_files_or_runs_to_completion(case):
    experiment, config = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code = _run(experiment, config, tmp)
        if code == 1:
            assert not list(tmp.glob("out*")), config
        else:
            assert code in ((0, 3) if experiment == "theorem" else (0,)), (code, config)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(configs(commands=["nipr"], faults=("range", "type", "key")))
def test_cli_nipr_exits_1_without_files_on_any_fault(case):
    experiment, config = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert _run(experiment, config, tmp) == 1, config
        assert not list(tmp.glob("out*")), config


@pytest.mark.parametrize("config", [
    {"m": 1, "trials": 1},
    {"iterations": 1, "trials": 1},
    {"n_ambient": NIPR_PRIOR_LATENT + 1, "trials": 1},
])
def test_cli_nipr_valid_edges_run_to_completion(tmp_path, monkeypatch, config):
    # The edges are in the descent's shapes, not in the training's length.
    monkeypatch.setattr("gpgd.experiments.NIPR_TRAIN", dict(NIPR_TRAIN, epochs=40))
    assert _run("nipr", config, tmp_path) == 0
    assert (tmp_path / "out.csv").exists()


def test_cli_nipr_rejects_n_ambient_at_the_latent_size(tmp_path):
    assert _run("nipr", {"n_ambient": NIPR_PRIOR_LATENT, "trials": 1}, tmp_path) == 1
    assert not list(tmp_path.glob("out*"))


def test_cli_nipr_sm2_holds_where_the_iterate_norms_overflow(tmp_path, monkeypatch):
    # At mu 1e300 the learned descent stays finite but passes 1e154 in norm;
    # SM2 does not depend on scale, so it reads as at mu 1e150.  Trainings of
    # 40 epochs, not 1000, keep it quick and lead to the same overflow.
    monkeypatch.setattr("gpgd.experiments.NIPR_TRAIN", dict(NIPR_TRAIN, epochs=40))
    cells = []
    for mu in (1e150, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run("nipr", {"m": 20, "n_ambient": 32, "trials": 1, "iterations": 50,
                                 "mu": mu}, tmp_path) == 0
        header, *rows = (line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines())
        cells.append([float(v) for row in rows for col, v in zip(header, row) if col.startswith("sm2_")])
    assert len(cells[1]) == 6 and cells[1] == pytest.approx(cells[0], rel=1e-12)


def test_cli_nipr_descent_that_diverges_before_its_window_fits_is_maximally_unstable(
        tmp_path, monkeypatch):
    # At mu 1.5e308 the learned descent diverges before the 100 iterations
    # after its best iterate, the start, have run: both rows read i_min 0
    # and inf in all six SM cells.
    monkeypatch.setattr("gpgd.experiments.NIPR_TRAIN", dict(NIPR_TRAIN, epochs=40))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run("nipr", {"trials": 1, "iterations": 50, "mu": 1.5e308}, tmp_path) == 0
    header, *rows = (line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines())
    assert len(rows) == 2
    for row in rows:
        row = dict(zip(header, row))
        assert row["i_min"] == "0"
        assert [v for col, v in row.items() if col.startswith("sm")] == ["inf"] * 6
