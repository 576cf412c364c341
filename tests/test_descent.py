import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpgd.descent import GpgdConfig, _rel_changes, _stacked_run, gpgd_run, i_min_oracle
from gpgd.experiments import _perturbation_block, _row_projection
from gpgd.operators import BackProjection, JointOperator, MeasurementOperator, gaussian_operator
from gpgd.projections import (
    HardThreshold,
    PAlpha,
    ProductProjection,
    hard_threshold,
    sparse_signal,
)


def _identity_setup(n):
    op = MeasurementOperator(np.eye(n))
    return op, BackProjection.adjoint(op)


def _one_step(x, projection, bp, op, y, mu):
    return gpgd_run(x, projection, bp, op, y, GpgdConfig(mu=mu, max_iters=1)).final


def test_step_zero_residual_returns_projection():
    op, bp = _identity_setup(3)
    x = np.array([0.0, 5.0, 1.0])
    px = HardThreshold(1)(x)
    out = _one_step(x, HardThreshold(1), bp, op, op.apply(px), mu=0.7)
    assert np.array_equal(out, px)


def test_step_hand_case():
    op, bp = _identity_setup(2)
    out = _one_step(np.array([3.0, 1.0]), HardThreshold(1), bp, op, np.array([2.0, 0.0]), mu=0.5)
    assert np.array_equal(out, [2.5, 0.0])


def test_config_rejects_zero_iterations():
    with pytest.raises(ValueError):
        GpgdConfig(max_iters=0)


@pytest.mark.parametrize("field, value", [
    ("max_iters", 2.5),
    ("max_iters", 3.0),
    ("max_iters", True),
    ("mu", float("inf")),
    ("mu", True),
    ("mu", "0.6"),
    ("rel_change_tol", float("nan")),
    ("rel_change_tol", float("inf")),
    ("rel_change_tol", False),
    ("record_iterates", "no"),
    ("record_iterates", 1),
])
def test_config_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        GpgdConfig(**{field: value})


def test_readme_library_example_recovers_exactly():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(example, namespace)
    assert namespace["trace"].errors_to_truth[-1] < 1e-10


def test_config_accepts_numpy_integers():
    assert GpgdConfig(max_iters=np.int64(4)).max_iters == 4


def test_run_single_iteration_contract():
    op, bp = _identity_setup(4)
    truth = np.array([1.0, 0.0, 0.0, 0.0])
    cfg = GpgdConfig(mu=1.0, max_iters=1, record_iterates=True)
    trace = gpgd_run(np.zeros(4), HardThreshold(1), bp, op, op.apply(truth), cfg)
    assert trace.iterations_run == 1
    assert len(trace.iterates) == 2
    assert len(trace.residual_norms) == 2
    assert len(trace.rel_changes) == 2


def test_i_min_oracle_rules():
    class T:
        pass

    t = T()
    t.errors_to_truth = [3.0, 2.0, 1.0]
    assert i_min_oracle(t) == 2
    t.errors_to_truth = [3.0, 1.0, 2.0]
    assert i_min_oracle(t) == 1
    t.errors_to_truth = [2.0, 1.0, 1.0]
    assert i_min_oracle(t) == 1
    t.errors_to_truth = None
    with pytest.raises(ValueError):
        i_min_oracle(t)


def test_run_rejects_bad_input_at_entry():
    op = gaussian_operator(6, 10, 1)
    bp = BackProjection.adjoint(op)
    cfg = GpgdConfig(max_iters=5)
    y = np.ones(6)
    bad_y = [np.full(6, np.nan), np.r_[np.ones(5), np.inf], y[:, None]]
    for yy in bad_y:
        with pytest.raises(ValueError):
            gpgd_run(np.zeros(10), HardThreshold(2), bp, op, yy, cfg)
    for x0 in (np.r_[np.zeros(9), np.nan], np.r_[np.zeros(9), -np.inf], np.zeros(9)):
        with pytest.raises(ValueError):
            gpgd_run(x0, HardThreshold(2), bp, op, y, cfg)
    with pytest.raises(ValueError):
        gpgd_run(np.zeros(10), HardThreshold(2), bp, op, y, cfg, truth=np.zeros((10, 1)))
    # A truth that is not finite would make every error NaN, and i_min_oracle 0.
    for truth in (np.r_[np.zeros(9), np.nan], np.r_[np.zeros(9), np.inf]):
        with pytest.raises(ValueError, match="^truth must be finite$"):
            gpgd_run(np.zeros(10), HardThreshold(2), bp, op, y, cfg, truth=truth)


# Textbook reference: the GPGD loop and its projections written plainly, with
# stable sorts, np.linalg.norm and an entry-wise finiteness test on every
# step.  gpgd_run does the same arithmetic with fewer numpy calls, so it must
# match bit for bit.


def _ht_ref(z, k):
    kept = np.argsort(-np.abs(z), kind="stable")[:k]
    out = np.zeros_like(z)
    out[kept] = z[kept]
    return out


def _p_alpha_ref(z, k, alpha):
    base = _ht_ref(z, k)
    base_norm = np.linalg.norm(base)
    return base if base_norm == 0.0 else (1.0 + alpha * np.linalg.norm(z - base) / base_norm) * base


def _textbook_gpgd(x0, project, back, A, y, mu, iters, tol=0.0, truth=None):
    x = np.array(x0, dtype=float)
    residuals, rels, iterates, diverged = [], [np.nan], [x], False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            px = project(x)
            r = A @ px - y
            residuals.append(np.linalg.norm(r))
            x_next = px - mu * back(r)
            if not np.all(np.isfinite(x_next)):
                diverged = True
                break
            rel = np.linalg.norm(x_next - x) / max(np.linalg.norm(x), np.finfo(float).tiny)
            rels.append(rel)
            iterates.append(x_next)
            x = x_next
            if tol > 0 and rel < tol:
                break
        if not diverged:
            residuals.append(np.linalg.norm(A @ project(x) - y))
    errors = None if truth is None else [np.linalg.norm(v - truth) for v in iterates]
    return residuals, rels, errors, iterates, diverged


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _reference_cases():
    rng = np.random.default_rng(42)
    op = gaussian_operator(30, 60, 7)
    A = op.matrix
    truth = np.zeros(60)
    truth[rng.choice(60, 4, replace=False)] = rng.standard_normal(4)
    y = op.apply(truth) + 0.01 * rng.standard_normal(30)
    adj = BackProjection.adjoint(op)
    y_out = y.copy()
    y_out[:3] += 5.0

    def rt_ref(r, keep=26):
        kept = np.argsort(np.abs(r), kind="stable")[:keep]
        selected = np.zeros_like(r)
        selected[kept] = r[kept]
        return A.T @ selected

    jop = JointOperator(op)
    joint_truth = np.concatenate([truth, np.zeros(30)])
    joint_truth[60:62] = 3.0
    return {
        "hard_threshold": (HardThreshold(4), lambda z: _ht_ref(z, 4), adj, lambda r: A.T @ r,
                           op, y, 0.8, 60, 0.0, truth),
        "p_alpha_early_stop": (PAlpha(4, 0.3), lambda z: _p_alpha_ref(z, 4, 0.3), adj,
                               lambda r: A.T @ r, op, y, 0.6, 500, 1e-12, truth),
        "product": (ProductProjection([(HardThreshold(4), 60), (HardThreshold(2), 30)]),
                    lambda z: np.concatenate([_ht_ref(z[:60], 4), _ht_ref(z[60:], 2)]),
                    BackProjection.adjoint(jop), lambda r: jop.matrix.T @ r,
                    jop, jop.apply(joint_truth), 0.7, 80, 1e-12, joint_truth),
        "residual_threshold": (HardThreshold(4), lambda z: _ht_ref(z, 4),
                               BackProjection.residual_threshold(op, keep=26), rt_ref,
                               op, y_out, 0.8, 100, 1e-12, truth),
        # Falls into an exact cycle of period > 1 (not a fixed point) well
        # before the cap, so gpgd_run replays it.
        "residual_threshold_cycle": (HardThreshold(4), lambda z: _ht_ref(z, 4),
                                     BackProjection.residual_threshold(op, keep=24),
                                     lambda r: rt_ref(r, keep=24), op, y_out, 1.0, 200, 0.0, truth),
        "divergence": (lambda z: z, lambda z: z, adj, lambda r: A.T @ r,
                       op, y, 1e160, 50, 0.0, None),
    }


@pytest.mark.parametrize("case", list(_reference_cases()))
def test_run_matches_textbook_loop_bit_for_bit(case):
    proj, proj_ref, bp, back_ref, op, y, mu, iters, tol, truth = _reference_cases()[case]
    cfg = GpgdConfig(mu=mu, max_iters=iters, rel_change_tol=tol, record_iterates=True)
    trace = gpgd_run(np.zeros(op.n_ambient), proj, bp, op, y, cfg, truth=truth)
    residuals, rels, errors, iterates, diverged = _textbook_gpgd(
        np.zeros(op.n_ambient), proj_ref, back_ref, op.matrix, y, mu, iters, tol, truth)
    assert trace.diverged == diverged == (case == "divergence")
    if case == "p_alpha_early_stop":
        assert trace.iterations_run < iters
    assert trace.iterations_run == len(iterates) - 1
    assert _bits(trace.residual_norms) == _bits(residuals)
    assert _bits(trace.rel_changes) == _bits(rels)
    assert _bits(trace.iterates) == _bits(iterates)
    assert _bits(trace.final) == _bits(iterates[-1])
    assert (trace.errors_to_truth is None) == (errors is None)
    if errors is not None:
        assert _bits(trace.errors_to_truth) == _bits(errors)


def test_perturbation_block_is_successive_single_draws():
    # Row t of a block is the t-th draw of its seed's stream, eta times a
    # standard-normal draw over its norm, so a shorter block is a prefix.
    block = _perturbation_block(0.02, 5, 7, 12)
    rng = np.random.default_rng(5)
    for row in block:
        direction = rng.standard_normal(12)
        assert _bits(row) == _bits(0.02 * direction / np.linalg.norm(direction))
    assert _bits(_perturbation_block(0.02, 5, 3, 12)) == _bits(block[:3])


def test_perturbation_redraws_a_row_of_zeros(monkeypatch):
    class Stream:
        def __init__(self):
            self.draws = [np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), np.ones((1, 3))]

        def standard_normal(self, shape):
            draw = self.draws.pop(0)
            assert draw.shape == shape
            return draw

    stream = Stream()
    monkeypatch.setattr(np.random, "default_rng", lambda seed: stream)
    assert _bits(_perturbation_block(3.0, 0, 2, 3)) == _bits(3.0 * np.ones((2, 3)) / np.sqrt(3.0))
    assert stream.draws == []


class _Perturbed:
    """A per-call perturbed projection: hard_threshold(z, k) plus, on call t,
    row t of the _perturbation_block of `seed`; counts its calls."""

    def __init__(self, k, seed, calls, n, eta=0.02):
        self.k, self.block, self.calls = k, _perturbation_block(eta, seed, calls, n), 0

    def __call__(self, z):
        self.calls += 1
        return hard_threshold(z, self.k) + self.block[self.calls - 1]


def _each_row(projections):
    """project(Z, t) for _stacked_run that calls each row's own projection on
    that row, once per iteration, as the row's own gpgd_run does."""
    return lambda Z, t: np.array([proj(z) for proj, z in zip(projections, Z)])


@pytest.mark.parametrize("k", [0, 1, 12])
@pytest.mark.parametrize("rows", [[], [2, 3], [3, 4], [0, 3]], ids=["none", "inner", "last", "apart"])
def test_row_projection_is_each_rows_projection(k, rows):
    # A theorem cell's rows share one sparsity, and its perturbed rows, the
    # proj_error variant's, each hold their _perturbation_block, wherever
    # they sit in the stack.  Each row must get, at every iteration, the
    # bits of that row's own projection.  The iterates hold ties, NaN, inf
    # and -0.0.
    def projections():
        return [_Perturbed(k, i, 6, 12) if i in rows else HardThreshold(k) for i in range(5)]

    noise = np.reshape([_perturbation_block(0.02, i, 6, 12) for i in rows], (len(rows), 6, 12))
    rng = np.random.default_rng(k)
    project, reference = _row_projection(k, rows, noise), _each_row(projections())
    for t in range(6):
        Z = rng.integers(-3, 4, (5, 12)).astype(float)
        Z[rng.random((5, 12)) < 0.1] = rng.choice([np.nan, np.inf, -np.inf, -0.0])
        assert _bits(project(Z, t)) == _bits(reference(Z, t))


def _counted(project):
    """project, with the iteration of each call appended to its `calls`."""
    def counted(Z, t):
        counted.calls.append(t)
        return project(Z, t)

    counted.calls = []
    return counted


def _assert_rows_are_runs(iterates, stops, refs, max_iters):
    """Each row i of a _stacked_run's (iterates, stops) against refs[i], its
    own gpgd_run with the iterates recorded: the stop, the divergence, the
    iterates to the stop and their _rel_changes column, bit for bit."""
    rels = _rel_changes(iterates)
    for i, (stop, ref) in enumerate(zip(stops.tolist(), refs)):
        assert stop == ref.iterations_run
        assert (stop < max_iters) == ref.diverged
        assert _bits(iterates[: stop + 1, i]) == _bits(ref.iterates)
        assert _bits(rels[: stop + 1, i]) == _bits(ref.rel_changes)


def test_stacked_run_is_gpgd_run_on_every_row():
    # Three stacks of five rows, each row checked against its own gpgd_run.
    # The first has distinct step sizes, k = 0, a perturbed projection (fresh,
    # same seed, on each side) and a row that diverges ahead of rows that run
    # on.  In the second, two rows diverge at different iterations, one at
    # the first step, and in the third every row diverges, each at its own
    # iteration.  A diverged row stays in the stack, so the rows after it
    # must keep their bits.  Each stack projects once per iteration, and not
    # past the last.
    def projections():
        return [HardThreshold(1), HardThreshold(2), HardThreshold(0),
                _Perturbed(1, 5, 61, 12), HardThreshold(2)]

    rng = np.random.default_rng(8)
    ops = [gaussian_operator(64, 12, rng) for _ in range(5)]
    truths = [sparse_signal(12, 2, rng) for _ in ops]
    ys = [op.apply(x) + 0.01 * rng.standard_normal(64) for op, x in zip(ops, truths)]
    for mus, expected in (([0.9, 1e160, 1.0, 0.8, 0.4], [60, 1, 60, 60, 60]),
                          ([0.9, 1.7e308, 1.0, 1e30, 0.4], [60, 0, 60, 10, 60]),
                          ([1e10, 1e100, 1.7e308, 1e30, 1e160], [30, 3, 0, 10, 1])):
        project = _counted(_each_row(projections()))
        iterates, stops = _stacked_run(np.array([op.matrix for op in ops]), np.array(ys),
                                       np.array(mus), project, 60)
        assert project.calls == list(range(60))
        assert iterates.shape == (61, 5, 12) and stops.tolist() == expected
        refs = [gpgd_run(np.zeros(12), proj, BackProjection.adjoint(op), op, y,
                         GpgdConfig(mu=mu, max_iters=60, record_iterates=True))
                for proj, mu, op, y in zip(projections(), mus, ops, ys)]
        _assert_rows_are_runs(iterates, stops, refs, 60)


def _stack_row(kind, rng, m, n, max_iters):
    """(matrix, y, mu, projection factory) of one stack row of `kind`:
    "gaussian" or "perturbed" (a drawn instance, HardThreshold or
    _Perturbed, with a step size that may diverge), "overflow" (an
    iterate whose squared norm overflows while its entries stay finite) or
    "last" (a run that diverges at its last iteration).  The last two use
    A = eye(m, n), on which one step from x is (1 - mu) x + mu y[:n]."""
    k = int(rng.integers(0, n + 1))
    truth = sparse_signal(n, k, rng)
    signs = rng.choice([-1.0, 1.0], m) * (1.0 + np.abs(rng.standard_normal(m)))
    if kind == "overflow":
        # x_t = y[:n] from t = 1, every entry above 1e154 in size, n >= 2.
        return np.eye(m, n), 1e154 * signs, 1.0, lambda: HardThreshold(n)
    if kind == "last":
        # Each step scales the iterate by about 1e10, from x_1 = mu y[:n].
        scale = 10.0 ** (303 - 10 * (max_iters - 1))
        return np.eye(m, n), scale * signs, 1e10 + 1.0, lambda: HardThreshold(n)
    A = gaussian_operator(m, n, rng).matrix
    y = A @ truth + 0.01 * rng.standard_normal(m)
    mu = float(10.0 ** rng.uniform(-1, 40)) if rng.random() < 0.3 else float(rng.uniform(0.1, 1.2))
    if kind == "perturbed":
        proj_seed = int(rng.integers(2**31))
        return A, y, mu, lambda: _Perturbed(k, proj_seed, max_iters + 1, n)
    return A, y, mu, lambda: HardThreshold(k)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), extra=st.integers(0, 6),
       max_iters=st.integers(1, 31),
       kinds=st.lists(st.sampled_from(["gaussian", "perturbed"]), max_size=5)
       .flatmap(lambda drawn: st.permutations(drawn + ["overflow", "last", "perturbed"])))
@example(seed=0, n=2, extra=0, max_iters=3, kinds=["overflow", "last", "perturbed"])
def test_stacked_run_is_each_rows_gpgd_run(seed, n, extra, max_iters, kinds):
    # Every drawn stack holds a row whose squared norm overflows with finite
    # entries (not diverged), one that diverges at its last iteration and a
    # perturbed one, among drawn rows, in a drawn order, under -W error.
    rng = np.random.default_rng(seed)
    m = n + extra
    rows = [_stack_row(kind, rng, m, n, max_iters) for kind in kinds]
    A, Y, mus, projections = (np.array(part) for part in zip(*rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        project = _counted(_each_row([make() for make in projections]))
        iterates, stops = _stacked_run(A, Y, mus, project, max_iters)
        refs = []
        for kind, matrix, y, mu, make in zip(kinds, A, Y, mus, projections):
            op = MeasurementOperator(matrix)
            cfg = GpgdConfig(mu=float(mu), max_iters=max_iters, record_iterates=True)
            refs.append(gpgd_run(np.zeros(n), make(), BackProjection.adjoint(op), op, y, cfg))
            if kind == "overflow":
                assert not refs[-1].diverged and np.all(np.abs(refs[-1].final) > 1e154)
            if kind == "last":
                assert refs[-1].diverged and refs[-1].iterations_run == max_iters - 1
        assert project.calls == list(range(max_iters))
        _assert_rows_are_runs(iterates, stops, refs, max_iters)


def test_stop_reason_names_why_the_run_ended():
    op, bp = _identity_setup(5)
    truth = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    cfg = GpgdConfig(mu=1.0, max_iters=500, rel_change_tol=1e-12)
    assert gpgd_run(np.zeros(5), HardThreshold(1), bp, op, op.apply(truth), cfg).stop_reason == "rel_change"
    op = gaussian_operator(10, 30, 2)
    y = np.random.default_rng(3).standard_normal(10)
    cfg = GpgdConfig(mu=1e160, max_iters=50)
    assert gpgd_run(np.zeros(30), lambda z: z, BackProjection.adjoint(op), op, y, cfg).stop_reason == "diverged"
    cfg = GpgdConfig(mu=0.5, max_iters=7)
    trace = gpgd_run(np.zeros(30), lambda z: z, BackProjection.adjoint(op), op, y, cfg)
    assert (trace.stop_reason, trace.iterations_run) == ("max_iters", 7)


# A designed orbit: with a zero operator and y = 0 a step is x -> P(x), so a
# projection that looks up its input's successor walks gpgd_run along any
# chosen tail and cycle.


class _Orbit:
    """Maps orbit[i] to orbit[i + 1], and the last point to orbit[cycle_start],
    by their bits; counts its calls."""

    _deterministic = True

    def __init__(self, orbit, cycle_start):
        self.successor = {a.tobytes(): b for a, b in zip(orbit, orbit[1:] + [orbit[cycle_start]])}
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        return self.successor[z.tobytes()]


def _orbit_points():
    a = np.array([3.0, 0.0, -1.0, 2.0])
    return {
        "tail": [np.zeros(4), np.array([1.0, 2.0, 0.5, 0.0]), np.array([-4.0, 0.0, 1.0, 1.0])],
        # a, its permutation and a with 0.0 turned to -0.0 share one norm; the
        # last equals a as values but not as bits.
        "period_3": [a, a[::-1].copy(), np.array([3.0, -0.0, -1.0, 2.0])],
        # 40 distinct permutations of a and of -a, all of a's norm, then a's
        # -0.0 twin: the cycle closes only after all 41 of them.
        "same_norm_41": [np.array(p) for p in itertools.islice(
            itertools.chain(itertools.permutations(a), itertools.permutations(-a)), 40)]
        + [np.array([3.0, -0.0, -1.0, 2.0])],
        # The closing step, back to a, is far below the tolerance.
        "slow_close": [a, np.array([0.0, 5.0, 5.0, 0.0]), a * (1.0 + 1e-13)],
        "fixed": [a],
    }


@pytest.mark.parametrize("orbit, tol, stop_reason, replays", [
    ("period_3", 0.0, "max_iters", True),
    ("same_norm_41", 0.0, "max_iters", True),
    ("slow_close", 1e-9, "rel_change", False),
    ("fixed", 0.0, "max_iters", True),
])
def test_replayed_orbit_matches_textbook_loop_bit_for_bit(orbit, tol, stop_reason, replays):
    points = _orbit_points()
    tail = points["tail"]
    proj = _Orbit(tail + points[orbit], len(tail))
    op, y, truth = MeasurementOperator(np.zeros((2, 4))), np.zeros(2), np.ones(4)
    cfg = GpgdConfig(mu=0.7, max_iters=200, rel_change_tol=tol, record_iterates=True)
    trace = gpgd_run(np.zeros(4), proj, BackProjection.adjoint(op), op, y, cfg, truth=truth)
    residuals, rels, errors, iterates, _ = _textbook_gpgd(
        np.zeros(4), _Orbit(tail + points[orbit], len(tail)), lambda r: op.matrix.T @ r,
        op.matrix, y, 0.7, 200, tol, truth)
    assert trace.stop_reason == stop_reason
    assert trace.iterations_run == len(iterates) - 1
    assert _bits(trace.residual_norms) == _bits(residuals)
    assert _bits(trace.rel_changes) == _bits(rels)
    assert _bits(trace.errors_to_truth) == _bits(errors)
    assert _bits(trace.iterates) == _bits(iterates)
    assert _bits(trace.final) == _bits(iterates[-1])
    # Replayed iterates are copies: no two entries, and not final, share memory.
    arrays = trace.iterates + [trace.final]
    assert len({v.__array_interface__["data"][0] for v in arrays}) == len(arrays)
    assert (proj.calls < trace.iterations_run + 1) == replays
    if replays:
        # The first repeat is found: the cycle's first point comes back at
        # t = closes, and whole periods from there are not computed.
        period = len(points[orbit])
        closes = len(tail) + period
        assert proj.calls == cfg.max_iters + 1 - period * ((cfg.max_iters - closes) // period)


class _CountingThreshold(HardThreshold):
    calls = 0

    def __call__(self, z):
        self.calls += 1
        return super().__call__(z)


def test_only_marked_projections_replay_a_cycle():
    proj, _, bp, _, op, y, mu, iters, tol, truth = _reference_cases()["residual_threshold_cycle"]
    cfg = GpgdConfig(mu=mu, max_iters=iters, rel_change_tol=tol)
    marked = _CountingThreshold(4)
    trace = gpgd_run(np.zeros(op.n_ambient), marked, bp, op, y, cfg, truth=truth)
    assert trace.stop_reason == "max_iters"
    assert marked.calls < trace.iterations_run + 1
    # An unmarked wrapper of the same projection, and a perturbed projection
    # that adds zero, walk the same cycle but are called on every iteration.
    plain_calls = []
    plain = gpgd_run(np.zeros(op.n_ambient), lambda z: plain_calls.append(z) or proj(z),
                     bp, op, y, cfg, truth=truth)
    assert len(plain_calls) == plain.iterations_run + 1 == iters + 1
    assert _bits(plain.errors_to_truth) == _bits(trace.errors_to_truth)
    perturbed = _Perturbed(4, 1, iters + 1, op.n_ambient, eta=0.0)
    gpgd_run(np.zeros(op.n_ambient), perturbed, bp, op, y, cfg)
    assert perturbed.calls == iters + 1


def test_product_projection_is_marked_only_when_every_block_is():
    assert ProductProjection([(HardThreshold(2), 3), (PAlpha(1, 0.5), 2)])._deterministic
    assert not ProductProjection([(HardThreshold(2), 3), (_Perturbed(1, 0, 1, 2, eta=0.1), 2)])._deterministic
    assert not ProductProjection([(HardThreshold(2), 3), (lambda z: z, 2)])._deterministic
