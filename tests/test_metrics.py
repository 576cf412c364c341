import numpy as np
import pytest

from gpgd.descent import RecoveryTrace
from gpgd.metrics import centile_curve, normalized_error, sm1, sm2, stability_report


def _trace(errors=None, iterates=None):
    n = (len(errors) if errors is not None else len(iterates)) - 1
    return RecoveryTrace(
        residual_norms=[0.0] * (n + 1),
        rel_changes=[float("nan")] + [0.0] * n,
        iterations_run=n,
        final=np.asarray(iterates[-1]) if iterates is not None else np.zeros(1),
        errors_to_truth=errors,
        iterates=[np.asarray(x, dtype=float) for x in iterates] if iterates is not None else None,
    )


def test_sm1_flat_post_optimum_is_zero():
    t = _trace(errors=[5.0, 1.0, 1.0, 1.0, 1.0])
    assert sm1(t, n=3) == 0.0


def test_sm1_hand_case():
    t = _trace(errors=[2.0, 1.0, 3.0, 1.5])
    assert sm1(t, n=2) == 2.0


def test_sm1_monotone_increase_attained_at_window_end():
    errors = [1.0, 2.0, 3.0, 4.0, 5.0]
    t = _trace(errors=errors)
    assert sm1(t, n=4) == errors[4] / errors[0] - 1.0


def test_sm1_errors():
    with pytest.raises(ValueError, match="too short"):
        sm1(_trace(errors=[2.0, 1.0, 3.0]), n=5)
    with pytest.raises(ValueError, match="undefined"):
        sm1(_trace(errors=[1.0, 0.0, 2.0]), n=1)
    # SM1 reads the recorded errors only; iterates alone do not suffice.
    with pytest.raises(ValueError, match="errors_to_truth"):
        sm1(_trace(iterates=[np.ones(2), np.zeros(2), np.ones(2)]), n=1)
    # An offset is an integer of at least 1, also in sm2 and the report.
    t = _trace(errors=[2.0, 1.0, 3.0, 4.0], iterates=[np.ones(2)] * 4)
    for n in (1.5, True, 0):
        with pytest.raises(ValueError, match="^n must be an integer"):
            sm1(t, n=n)
        with pytest.raises(ValueError, match="^n must be an integer"):
            sm2(t, n=n)
        with pytest.raises(ValueError, match="^offsets must be an integer"):
            stability_report(t, offsets=(1, n))


def test_sm1_nonnegative_on_random_traces():
    rng = np.random.default_rng(0)
    for _ in range(50):
        errors = list(np.abs(rng.standard_normal(30)) + 1e-6)
        i_min = int(np.argmin(errors))
        n = max(1, min(5, len(errors) - 1 - i_min))
        if i_min + n >= len(errors):
            continue
        assert sm1(_trace(errors=errors), n=n) >= 0.0


def test_sm2_constant_iterates_zero():
    xs = [np.array([1.0, 0.0])] * 6
    errors = [3.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert sm2(_trace(errors=errors, iterates=xs), n=3) == 0.0


def test_sm2_hand_case():
    # x then 2x with unit norm: one window term of ||2x - x||/||x|| = 1.
    x = np.array([1.0, 0.0])
    xs = [np.array([5.0, 0.0]), x, 2 * x]
    errors = [0.5, 1.0, 2.0]  # best iterate first, window covers x -> 2x
    assert sm2(_trace(errors=errors, iterates=xs), n=1) == 1.0


def test_sm2_additive_over_windows():
    rng = np.random.default_rng(1)
    xs = [rng.standard_normal(4) + 3.0 for _ in range(30)]
    errors = [10.0] + list(np.linspace(1, 2, 29))  # i_min = 1
    t = _trace(errors=errors, iterates=xs)
    total = sm2(t, n=10)
    # Window sums split: [1..10] = [1..4] + [5..10] shifted windows.
    part = sm2(t, n=4)
    rest = sum(
        np.linalg.norm(xs[i + 1] - xs[i]) / np.linalg.norm(xs[i]) for i in range(6, 12)
    )
    assert abs(total - (part + rest)) < 1e-12


def test_sm2_requires_iterates():
    with pytest.raises(ValueError, match="iterates"):
        sm2(_trace(errors=[2.0, 1.0, 1.5]), n=1)


def test_sm2_zero_norm_iterate():
    xs = [np.ones(2), np.zeros(2), np.ones(2), np.ones(2)]
    errors = [0.5, 1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="zero-norm"):
        sm2(_trace(errors=errors, iterates=xs), n=2)


@pytest.mark.filterwarnings("error")
def test_metrics_scale_invariant():
    # At 1e300 the iterates are finite, but their sums of squares overflow.
    rng = np.random.default_rng(2)
    xs = [rng.standard_normal(5) + 2.0 for _ in range(25)]
    errors = [4.0] + list(np.abs(rng.standard_normal(24)) + 0.5)
    t1 = _trace(errors=errors, iterates=xs)
    for c in (37.5, 1e300):
        t2 = _trace(errors=[c * e for e in errors], iterates=[c * x for x in xs])
        for n in (3, 7):
            assert abs(sm1(t1, n=n) - sm1(t2, n=n)) < 1e-12
            assert abs(sm2(t1, n=n) - sm2(t2, n=n)) < 1e-12


def test_centile_all_zero():
    assert centile_curve([0.0, 0.0, 0.0], 0.95) == 0.0


def test_centile_hand_case():
    assert centile_curve([0.1, 0.2, 5.0], 0.95) == 1.0


def test_centile_full_is_thresholded_max():
    assert centile_curve([0.3, 0.9, 0.7], 1.0) == 0.9
    assert centile_curve([0.3, 1.9, 0.7], 1.0) == 1.0


def test_centile_validation():
    with pytest.raises(ValueError):
        centile_curve([], 0.9)
    with pytest.raises(ValueError):
        centile_curve([0.1], 0.0)
    for centile in (True, float("nan")):
        with pytest.raises(ValueError, match="centile"):
            centile_curve([0.1], centile)
    # A nan error has no rank: wherever it sits, the centile refuses it.
    for errors in ([np.nan, 0.5, 0.2], [0.5, np.nan, 0.2], [0.2, 0.5, np.nan]):
        with pytest.raises(ValueError, match="nan"):
            centile_curve(errors, 0.5)


def test_normalized_error_of_a_truth_whose_norm_overflows():
    # Finite vectors at the 1e300 scale, whose sums of squares overflow, give
    # the ratio of their norms; an error that overflows even scaled is inf.
    assert normalized_error(np.full(4, 1e300), np.full(4, 2e300)) == 0.5
    assert normalized_error(np.full(4, 2e300), np.full(4, 2e300)) == 0.0
    assert normalized_error(np.full(4, -1.5e308), np.full(4, 1.5e308)) == 2.0
    assert normalized_error(np.full(4, np.inf), np.full(4, 1e300)) == np.inf


def test_normalized_error_zero_truth():
    assert normalized_error(np.zeros(3), np.zeros(3)) == 0.0
    assert normalized_error(np.ones(3), np.zeros(3)) == float("inf")


def test_stability_report_matches_direct_recomputation():
    rng = np.random.default_rng(3)
    xs = [rng.standard_normal(6) + 2.0 for _ in range(140)]
    errors = [9.0, 8.0] + list(np.abs(rng.standard_normal(138)) + 1.0)
    errors[5] = 0.5  # pin i_min away from the tail
    t = _trace(errors=errors, iterates=xs)
    report = stability_report(t, offsets=(10, 50, 100))
    assert report.i_min == 5
    for n in (10, 50, 100):
        assert report.sm1_at[n] == sm1(t, n=n)
        assert report.sm2_at[n] == sm2(t, n=n)
