"""Runners deal their independent trials across worker processes (_trial_map).

The result of a map is the serial list comprehension's, in order; a failure
in any share reaches the caller; a share that cannot be forked runs in this
process; workers serve every map until _stop_workers() or the end of the
process, and none outlives either; and no runner's rows or traces depend on
the share count.  What a map sends to a worker must pickle, so the functions
mapped here are defined at module level.
"""

import errno
import functools
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import gpgd.experiments as experiments
from gpgd.cli import main
from gpgd.experiments import (
    RUNNERS,
    _TAGS,
    THEOREM_VARIANTS,
    _cell_trials,
    _trial_map,
    default_spec,
    trial_rng,
)
from gpgd.operators import gaussian_operator
from gpgd.prior import TrainResult


@pytest.fixture
def shares(monkeypatch):
    """Pins the share count; afterwards, stops the workers and checks that no
    child is left."""
    yield lambda n: monkeypatch.setattr(experiments, "_processes", lambda: n)
    experiments._stop_workers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square(i):
    return i, i * i / 7.0, [str(i)] * i


def _pid(i):
    return os.getpid()


def _raise_at(item, exc, i):
    if i == item:
        raise exc
    return i


def _exit_in_a_worker(parent, i):
    if os.getpid() != parent:
        os._exit(1)
    return i


def _closure(i):
    return lambda: i


def _with_pid(i):
    return i, i * i / 7.0, os.getpid()


def _draw(value, rng, t):
    return value, t, int(rng.integers(2**62))


def _once_per_process(path):
    """Appends this process's id to `path`: a child that returned into the
    caller's stack would add its own."""
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 7])
def test_trial_map_is_the_list_comprehension(shares, tmp_path, n, count):
    shares(n)
    try:
        assert _trial_map(_square, range(count)) == [_square(i) for i in range(count)]
    finally:
        _once_per_process(tmp_path / "after")
    assert (tmp_path / "after").read_text().split() == [str(os.getpid())]


def test_trial_map_runs_each_other_share_in_its_own_child(shares):
    shares(3)
    pids = _trial_map(_pid, range(7))
    assert set(pids[0::3]) == {os.getpid()}
    assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
    assert len(set(pids)) == 3


def test_consecutive_maps_reuse_the_same_worker(shares):
    shares(2)
    first, second = _trial_map(_pid, range(4)), _trial_map(_pid, range(2))
    assert first[1] != os.getpid()
    assert set(first[1::2]) == set(second[1::2]) == {first[1]}


@pytest.mark.parametrize("exc", [ValueError("bad item 4"), KeyboardInterrupt("stop at item 4"),
                                 ZeroDivisionError("bad item 3")],
                         ids=["child_value_error", "child_keyboard_interrupt", "own_share"])
def test_a_share_that_raises_reaches_the_caller(shares, tmp_path, exc):
    # At three shares, items 4 and 1 run in the first child and item 3 here.
    shares(3)
    fn = functools.partial(_raise_at, int(str(exc).split()[-1]), exc)
    with pytest.raises(type(exc), match=str(exc)):
        try:
            _trial_map(fn, range(7))
        finally:
            _once_per_process(tmp_path / "after")
    assert (tmp_path / "after").read_text().split() == [str(os.getpid())]


def test_a_child_that_exits_without_reporting_raises_runtime_error(shares):
    shares(2)
    with pytest.raises(RuntimeError, match="without reporting"):
        _trial_map(functools.partial(_exit_in_a_worker, os.getpid()), range(4))
    # The dead worker was reaped, and the next map forks a fresh one.
    assert _trial_map(_square, range(4)) == [_square(i) for i in range(4)]


def test_a_worker_killed_between_maps_raises_runtime_error_and_is_replaced(shares):
    shares(2)
    killed = _trial_map(_pid, range(2))[1]
    os.kill(killed, signal.SIGKILL)
    with pytest.raises(RuntimeError, match="without reporting"):
        _trial_map(_square, range(4))
    pids = _trial_map(_pid, range(2))
    assert pids[1] not in (killed, os.getpid())
    assert _trial_map(_square, range(5)) == [_square(i) for i in range(5)]


def test_a_map_after_one_whose_own_share_raised_reads_its_own_replies(shares):
    # The worker's reply to the failed map is read before that map raises,
    # so the next map does not take it for its own.
    shares(2)
    with pytest.raises(ZeroDivisionError):
        _trial_map(functools.partial(_raise_at, 2, ZeroDivisionError("item 2 here")), range(4))
    assert _trial_map(_square, range(3)) == [_square(i) for i in range(3)]
    assert _trial_map(_square, range(6)) == [_square(i) for i in range(6)]


def test_a_childs_report_that_cannot_be_pickled_raises_its_pickling_error(shares):
    # A closure cannot be pickled: the child sends the error it met in
    # pickling its results, where it used to exit without a report.
    shares(1)
    assert [f() for f in _trial_map(_closure, range(2))] == [0, 1]
    shares(2)
    with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
        _trial_map(_closure, range(2))


def test_an_unpicklable_fn_runs_at_one_share_and_raises_its_pickling_error_at_two(shares):
    fn = lambda i: i + 1  # noqa: E731
    shares(1)
    assert _trial_map(fn, range(3)) == [1, 2, 3]
    shares(2)
    with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
        _trial_map(fn, range(3))
    # Nothing was sent, so the next map reads only its own replies.
    assert _trial_map(_square, range(3)) == [_square(i) for i in range(3)]


def _running(pid):
    """Whether `pid` names a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
@pytest.mark.parametrize("ending", ["return", "os._exit"])
def test_no_worker_outlives_its_process(ending):
    # A process that returns stops its workers at exit; one that ends
    # without its exit hooks, as a killed one does, closes its pipes, and
    # its workers read their end and exit.
    script = (
        "import os\n"
        "import gpgd.experiments as experiments\n"
        "def pid(i):\n"
        "    return os.getpid()\n"
        "experiments._processes = lambda: 3\n"
        "print(*experiments._trial_map(pid, range(3))[1:], flush=True)\n"
        + ("os._exit(0)\n" if ending == "os._exit" else ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    workers = [int(pid) for pid in done.stdout.split()]
    assert len(workers) == 2 and os.getpid() not in workers
    deadline = time.monotonic() + 10
    while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(pid) for pid in workers)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
@pytest.mark.parametrize("call", ["pipe", "fork"])
@pytest.mark.parametrize("failing", [1, 2])
def test_a_share_that_cannot_be_forked_runs_in_this_process(shares, monkeypatch, call, failing):
    # At three shares the map makes two workers, each from two pipes and a
    # fork.  The last of these calls fails for worker `failing`, which leaves
    # its share and every later one to this process, and closes the pipes
    # made for it.
    shares(3)
    real, calls = getattr(os, call), []
    per_worker = 2 if call == "pipe" else 1

    def flaky(*args):
        calls.append(args)
        if len(calls) == failing * per_worker:
            raise OSError(errno.EAGAIN, f"injected {call} failure")
        return real(*args)

    fds = len(os.listdir("/proc/self/fd"))
    with monkeypatch.context() as patch:
        patch.setattr(os, call, flaky)
        out = _trial_map(_with_pid, range(7))
    assert [r[:2] for r in out] == [_with_pid(i)[:2] for i in range(7)]
    here = [s for s in range(3) if {r[2] for r in out[s::3]} == {os.getpid()}]
    assert here == ([0, 1, 2] if failing == 1 else [0, 2])
    experiments._stop_workers()
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("experiment, cells", [
    ("stepsize", [((0,), 4), ((1,), 9)]),
    ("outliers", [((0, 0), (3, 0)), ((0, 1), (3, 5)), ((1, 0), (4, 0))]),
    ("nipr", [((), 0.005), ((), 0.0)]),
])
def test_cell_trials_gives_trial_t_of_a_cell_its_own_stream(shares, experiment, cells):
    # Trial t of the cell with stream key `key` draws from
    # trial_rng(seed, tag, *key, t): results come cell by cell, each in
    # trial order, at any share count, and a larger trial count keeps every
    # earlier trial's result.
    by_trials = {}
    for trials in (2, 3):
        spec = default_spec(experiment, seed=7, trials=trials)
        expected = [[(value, t, int(trial_rng(7, _TAGS[experiment], *key, t).integers(2**62)))
                     for t in range(trials)] for key, value in cells]
        for n in (1, 3):
            shares(n)
            by_trials[trials] = _cell_trials(spec, cells, _draw)
            assert by_trials[trials] == expected
    assert [trials[:2] for trials in by_trials[3]] == by_trials[2]


_SMALL = dict(m=40, n_ambient=80)


@pytest.mark.parametrize("experiment, overrides", [
    ("phase_alpha", dict(_SMALL, sparsity_grid=[0, 2, 4], alpha_grid=[0.0, 0.3], trials=4,
                         iterations=60, k_trace=2)),
    ("stepsize", dict(_SMALL, sparsity_grid=[1, 3], mu_grid=[0.3, 0.6], trials=3,
                      iterations=25, k_trace=3)),
    ("outliers", dict(_SMALL, sparsity_grid=[3], outlier_grid=[0, 5], trials=3, iterations=50)),
    ("joint", dict(_SMALL, sparsity_grid=[3, 4], outlier_grid=[5], trials=3, iterations=150)),
    ("nipr", dict(trials=3, iterations=100)),
    ("nipr", dict(trials=1, iterations=100)),  # its two items on two shares
    ("theorem", dict(trials=2)),
    ("theorem", dict(m=8, trials=2, resample_budget=25)),  # status 3, no rows
    # Floor and tuner rejections in every variant, over blocks of attempts
    # whose last one the budget cuts short.
    ("theorem", dict(m=11, trials=2, resample_budget=60)),
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


@pytest.mark.parametrize("trials, here, child", [
    (1, {0.005: 1}, {0.0: 1}),
    (10, {0.005: 5, 0.0: 5}, {0.005: 5, 0.0: 5}),
])
def test_nipr_deals_the_regularized_trainings_first(shares, monkeypatch, tmp_path,
                                                    trials, here, child):
    # Training is stubbed to diverge at once, so only the deal is exercised.
    shares(2)
    log = tmp_path / "trainings"

    def train(prior0, dataset, cfg):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {cfg.nipr_weight}\n")
        return TrainResult(prior=prior0, losses=[], diverged=True)

    monkeypatch.setattr(experiments, "train", train)
    spec = default_spec("nipr", trials=trials)
    assert spec.nipr_weight == 0.005
    rows = RUNNERS["nipr"](spec)["rows"]
    assert [(r["pair"], r["nipr_weight"]) for r in rows] == [
        (p, w) for p in range(trials) for w in (0.0, 0.005)]
    counts = {}
    for line in log.read_text().splitlines():
        pid, weight = line.split()
        counts.setdefault(int(pid), Counter())[float(weight)] += 1
    assert counts.pop(os.getpid()) == here
    assert list(counts.values()) == [child]


def test_theorem_check_deals_its_variants_in_turn(shares, monkeypatch, tmp_path):
    # At two shares the variants form two groups, each solved in one stack:
    # noiseless and model_error here, noisy and proj_error in the child.  A
    # stack's rows are told apart by their operators, redrawn from each
    # row's trial stream.
    shares(2)
    log, stacked_run = tmp_path / "stacks", experiments._stacked_run

    def digest(matrix):
        return hashlib.sha256(matrix.tobytes()).hexdigest()

    def logging_stack(A, *args):
        with open(log, "a") as fh:
            fh.write(" ".join([str(os.getpid()), *map(digest, A)]) + "\n")
        return stacked_run(A, *args)

    monkeypatch.setattr(experiments, "_stacked_run", logging_stack)
    spec = default_spec("theorem", trials=2)
    rows = RUNNERS["theorem"](spec)["rows"]
    assert [r["variant"] for r in rows] == [v for v in THEOREM_VARIANTS for _ in range(2)]
    variant_of = {}
    for r in rows:
        rng = trial_rng(spec.seed, _TAGS["theorem"], THEOREM_VARIANTS.index(r["variant"]),
                        r["attempt"])
        variant_of[digest(gaussian_operator(spec.m, spec.n_ambient, rng).matrix)] = r["variant"]
    stacks = {}
    for line in log.read_text().splitlines():
        pid, *digests = line.split()
        stacks.setdefault(int(pid), []).append([variant_of[d] for d in digests])
    assert stacks.pop(os.getpid()) == [["noiseless"] * 2 + ["model_error"] * 2]
    assert list(stacks.values()) == [[["noisy"] * 2 + ["proj_error"] * 2]]


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
