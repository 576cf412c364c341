"""Runners deal their independent trials across forked shares (_trial_map).

The result of a map is the serial list comprehension's, in order; a failure
in any share reaches the caller; no child outlives a call; and no runner's
rows or traces depend on the share count.
"""

import json
import os

import pytest

import gpgd.experiments as experiments
from gpgd.cli import main
from gpgd.experiments import RUNNERS, _trial_map, default_spec


@pytest.fixture
def shares(monkeypatch):
    """Pins the share count; afterwards, checks that no child is left."""
    yield lambda n: monkeypatch.setattr(experiments, "_processes", lambda: n)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _once_per_process(path):
    """Appends this process's id to `path`: a child that returned into the
    caller's stack would add its own."""
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 7])
def test_trial_map_is_the_list_comprehension(shares, tmp_path, n, count):
    shares(n)
    fn = lambda i: (i, i * i / 7.0, [str(i)] * i)  # noqa: E731
    try:
        assert _trial_map(fn, range(count)) == [fn(i) for i in range(count)]
    finally:
        _once_per_process(tmp_path / "after")
    assert (tmp_path / "after").read_text().split() == [str(os.getpid())]


def test_trial_map_runs_each_other_share_in_its_own_child(shares):
    shares(3)
    pids = _trial_map(lambda i: os.getpid(), range(7))
    assert set(pids[0::3]) == {os.getpid()}
    assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
    assert len(set(pids)) == 3


@pytest.mark.parametrize("exc", [ValueError("bad item 4"), KeyboardInterrupt("stop at item 4"),
                                 ZeroDivisionError("bad item 3")],
                         ids=["child_value_error", "child_keyboard_interrupt", "own_share"])
def test_a_share_that_raises_reaches_the_caller(shares, tmp_path, exc):
    # At three shares, items 4 and 1 run in the first child and item 3 here.
    shares(3)
    item = int(str(exc).split()[-1])

    def fn(i):
        if i == item:
            raise exc
        return i

    with pytest.raises(type(exc), match=str(exc)):
        try:
            _trial_map(fn, range(7))
        finally:
            _once_per_process(tmp_path / "after")
    assert (tmp_path / "after").read_text().split() == [str(os.getpid())]


def test_a_child_that_exits_without_reporting_raises_runtime_error(shares):
    shares(2)
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            os._exit(1)
        return i

    with pytest.raises(RuntimeError, match="without reporting"):
        _trial_map(fn, range(4))


_SMALL = dict(m=40, n_ambient=80)


@pytest.mark.parametrize("experiment, overrides", [
    ("phase_alpha", dict(_SMALL, sparsity_grid=[0, 2, 4], alpha_grid=[0.0, 0.3], trials=4,
                         iterations=60, k_trace=2)),
    ("stepsize", dict(_SMALL, sparsity_grid=[1, 3], mu_grid=[0.3, 0.6], trials=3,
                      iterations=25, k_trace=3)),
    ("outliers", dict(_SMALL, sparsity_grid=[3], outlier_grid=[0, 5], trials=3, iterations=50)),
    ("joint", dict(_SMALL, sparsity_grid=[3, 4], outlier_grid=[5], trials=3, iterations=150)),
    ("nipr", dict(trials=3, iterations=100)),
])
def test_the_share_count_never_moves_a_byte(shares, experiment, overrides):
    spec = default_spec(experiment, **overrides)
    results = []
    for n in (1, 3):
        shares(n)
        r = RUNNERS[experiment](spec)
        results.append((r["rows"], r["traces"], r["summary"]))
    # Compared by repr, which is what the CSVs hold: the traces start with a
    # nan rel_change, which == never equals, and repr tells -0.0 from 0.0.
    assert repr(results[0]) == repr(results[1])


def test_cli_exits_2_without_files_on_a_failure_in_a_childs_share(shares, monkeypatch,
                                                                   tmp_path, capsys):
    shares(3)
    parent, draw = os.getpid(), experiments._draw_instance

    def failing_draw(*args):
        if os.getpid() != parent:
            raise FloatingPointError("injected into a child's share")
        return draw(*args)

    monkeypatch.setattr(experiments, "_draw_instance", failing_draw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(sparsity_grid=[3], outlier_grid=[5], trials=3,
                                   iterations=30)))
    assert main(["outliers", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "injected into a child's share" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
