import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgd.projections import (
    HardThreshold,
    PAlpha,
    ProductProjection,
    _threshold_rows,
    hard_threshold,
    sparse_signal,
)


def test_hard_threshold_keeps_largest_two():
    assert np.array_equal(hard_threshold([3.0, -1.0, 2.0], 2), [3.0, 0.0, 2.0])


def test_hard_threshold_fixes_sparse_input():
    z = np.array([0.0, -4.0, 0.0, 1.5, 0.0])
    assert np.array_equal(hard_threshold(z, 2), z)


def test_hard_threshold_tie_keeps_lower_index():
    assert np.array_equal(hard_threshold([1.0, 1.0, 0.0], 1), [1.0, 0.0, 0.0])


def test_hard_threshold_k_zero_and_bounds():
    assert np.array_equal(hard_threshold([1.0, 2.0], 0), [0.0, 0.0])
    with pytest.raises(ValueError):
        hard_threshold([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        hard_threshold([1.0, 2.0], -1)
    # A sparsity level is an integer: never truncated, never a bool.
    for k in (2.5, True):
        with pytest.raises(ValueError, match="k must be an integer"):
            hard_threshold([1.0, 2.0], k)
        with pytest.raises(ValueError, match="k must be an integer"):
            HardThreshold(k)


# Small integers make ties common; NaN, +-inf and -0.0 probe the ordering.
_ENTRIES = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))


@settings(max_examples=300)
@given(st.lists(_ENTRIES, max_size=12), st.data())
def test_hard_threshold_matches_stable_sort(values, data):
    # The selection is what a descending stable sort of magnitudes keeps:
    # ties go to the lower index, NaN ranks as the smallest magnitude.
    z = np.array(values, dtype=float)
    k = data.draw(st.integers(0, z.size))
    kept = np.argsort(-np.abs(z), kind="stable")[:k]
    expected = np.zeros_like(z)
    expected[kept] = z[kept]
    assert hard_threshold(z, k).tobytes() == expected.tobytes()


def _check_rows(Z, k):
    kept = _threshold_rows(Z, k)
    for row, z in zip(kept, Z):
        assert row.tobytes() == hard_threshold(z, k).tobytes()


def test_threshold_rows_is_hard_threshold_on_every_row():
    # Tied magnitudes within and across rows, NaN, inf and -0.0.
    Z = np.array([[1.0, -1.0, np.nan, 1.0, 0.0],
                  [np.nan, -0.0, 2.0, -2.0, 2.0],
                  [3.0, np.inf, -3.0, np.nan, np.nan]])
    for k in range(6):
        _check_rows(Z, k)


def test_threshold_rows_redoes_each_row_that_misses_its_count():
    # At k = 2 the first row's cut is NaN, so the cut keeps none of its
    # entries, and the second row's four ties all sit at its cut: 0 + 4 kept
    # is the 2 x 2 a count over the whole block expects, but each row must
    # be redone on its own.
    Z = np.array([[np.nan, np.nan, np.nan, 1.0],
                  [1.0, -1.0, 1.0, -1.0]])
    assert _threshold_rows(Z, 2).tobytes() == np.array([[np.nan, 0.0, 0.0, 1.0],
                                                        [1.0, -1.0, 0.0, 0.0]]).tobytes()
    _check_rows(Z, 2)


@settings(max_examples=200)
@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=6)),
    st.data())
def test_threshold_rows_matches_hard_threshold(rows, data):
    Z = np.array(rows, dtype=float).reshape(len(rows), -1)
    n = Z.shape[1]
    _check_rows(Z, data.draw(st.integers(0, n)))


def test_sparse_signal_rejects_bad_counts():
    rng = np.random.default_rng(0)
    for n, k, name in ((5, True, "k"), (5, 2.5, "k"), (5, -1, "k"), (5.0, 2, "n"), (5, 7, "k")):
        with pytest.raises(ValueError, match=f"{name} must"):
            sparse_signal(n, k, rng)


def test_hard_threshold_idempotent_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.standard_normal(12)
        k = int(rng.integers(0, 13))
        once = hard_threshold(z, k)
        assert np.array_equal(hard_threshold(once, k), once)


def test_p_alpha_zero_alpha_is_hard_threshold():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.standard_normal(9)
        k = int(rng.integers(1, 9))
        assert np.array_equal(PAlpha(k, 0.0)(z), hard_threshold(z, k))


def test_p_alpha_zero_input():
    assert np.array_equal(PAlpha(2, 1.0)(np.zeros(4)), np.zeros(4))


def test_p_alpha_hand_case():
    # z=[4,3], k=1: base [4,0], residual norm 3, factor 1 + 1*(3/4) = 1.75.
    assert np.array_equal(PAlpha(1, 1.0)([4.0, 3.0]), [7.0, 0.0])


def test_p_alpha_rejects_negative_alpha():
    with pytest.raises(ValueError):
        PAlpha(1, -0.5)
    for alpha in (float("nan"), float("inf"), True, "0.3"):
        with pytest.raises(ValueError, match="alpha"):
            PAlpha(2, alpha)
    with pytest.raises(ValueError, match="k must be an integer"):
        PAlpha(2.5, 0.3)


def test_p_alpha_is_idempotent():
    # The rescaled output is exactly k-sparse, and any k-sparse vector is a
    # fixed point of the map (its own hard threshold, with zero residual),
    # so applying twice changes nothing.  A finite restricted Lipschitz
    # constant forces idempotence, and this map's constant is at most the
    # hard-threshold constant plus alpha.
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.standard_normal(10)
        k = int(rng.integers(1, 10))
        alpha = float(rng.uniform(0.1, 2.0))
        once = PAlpha(k, alpha)(z)
        assert np.array_equal(PAlpha(k, alpha)(once), once)


def test_product_of_identities_is_identity():
    z = np.array([1.0, -2.0, 3.0, 0.5])
    out = ProductProjection([(lambda v: v, 2), (lambda v: v, 2)])(z)
    assert np.array_equal(out, z)


def test_product_hand_case():
    out = ProductProjection([(HardThreshold(1), 2), (HardThreshold(1), 2)])([3.0, -1.0, 0.0, 5.0])
    assert np.array_equal(out, [3.0, 0.0, 0.0, 5.0])


def test_product_single_component_matches_component():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(7)
    assert np.array_equal(
        ProductProjection([(HardThreshold(3), 7)])(z), hard_threshold(z, 3)
    )


def test_product_dimension_mismatch():
    with pytest.raises(ValueError):
        ProductProjection([(lambda v: v, 2), (lambda v: v, 2)])(np.zeros(5))
    for dim in (2.5, True, -1):
        with pytest.raises(ValueError, match="block dim"):
            ProductProjection([(lambda v: v, 2), (lambda v: v, dim)])
