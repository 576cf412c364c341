import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgd.operators import BackProjection, JointOperator, MeasurementOperator, gaussian_operator


def test_gaussian_paper_dimensions():
    op = gaussian_operator(150, 300, 3)
    assert op.m == 150 and op.n_ambient == 300
    assert op.matrix.shape == (150, 300)


def test_gaussian_column_norms_near_one():
    # Law of large numbers: with entry variance 1/m the expected squared
    # column norm is 1, so the mean column norm over many seeds is ~1.
    means = []
    for seed in range(20):
        op = gaussian_operator(200, 50, seed)
        means.append(np.linalg.norm(op.matrix, axis=0).mean())
    assert abs(np.mean(means) - 1.0) < 0.1


def test_gaussian_rejects_zero_dimensions():
    with pytest.raises(ValueError):
        gaussian_operator(0, 5, 1)
    with pytest.raises(ValueError):
        gaussian_operator(5, 0, 1)
    with pytest.raises(ValueError, match="m must be an integer"):
        gaussian_operator(2.5, 5, 1)
    with pytest.raises(ValueError, match="n must be an integer"):
        gaussian_operator(5, True, 1)


def test_operator_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        MeasurementOperator([[1.0, np.inf], [0.0, 1.0]])


def test_apply_dimension_mismatch():
    op = gaussian_operator(5, 9, 0)
    with pytest.raises(ValueError):
        op.apply(np.zeros(8))
    # Each back-projection rejects a residual that is not a length-m vector.
    for bp in (BackProjection.adjoint(op), BackProjection.residual_threshold(op, 1)):
        with pytest.raises(ValueError, match="length 5"):
            bp.apply(np.zeros((5, 1)))


def test_back_project_adjoint_is_exact_transpose():
    rng = np.random.default_rng(2)
    op = gaussian_operator(7, 13, 9)
    r = rng.standard_normal(7)
    assert np.array_equal(BackProjection.adjoint(op).apply(r), op.matrix.T @ r)


def test_residual_threshold_keep_all_equals_adjoint():
    rng = np.random.default_rng(8)
    op = gaussian_operator(6, 10, 3)
    r = rng.standard_normal(6)
    full = BackProjection.residual_threshold(op, keep=6)
    assert np.array_equal(full.apply(r), BackProjection.adjoint(op).apply(r))


def test_residual_threshold_keeps_smallest_magnitudes():
    # keep=1 on [5, -9, 2] zeroes -9 and 5, keeping [0, 0, 2].
    op = MeasurementOperator(np.eye(3))
    bp = BackProjection.residual_threshold(op, keep=1)
    assert np.array_equal(bp.apply([5.0, -9.0, 2.0]), [0.0, 0.0, 2.0])


def test_residual_threshold_tie_keeps_lower_index():
    op = MeasurementOperator(np.eye(3))
    bp = BackProjection.residual_threshold(op, keep=2)
    # magnitudes [3, 3, 1]: one entry must go; the tie keeps index 0.
    assert np.array_equal(bp.apply([3.0, 3.0, 1.0]), [3.0, 0.0, 1.0])


class _EchoOperator:
    """Stands in for A with A.T r = r, so a back-projection returns its
    selected residual, NaN and inf entries included."""

    def __init__(self, m):
        self.m = m

    def adjoint(self, r):
        return r


# Small integers make ties common; NaN, +-inf and -0.0 probe the ordering.
_ENTRIES = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))


@settings(max_examples=300)
@given(st.lists(_ENTRIES, min_size=1, max_size=12), st.data())
def test_residual_threshold_matches_stable_sort(values, data):
    # The kept entries are what an ascending stable sort of magnitudes puts
    # first: ties go to the lower index, NaN ranks as the largest magnitude.
    r = np.array(values, dtype=float)
    keep = data.draw(st.integers(0, r.size))
    bp = BackProjection.residual_threshold(_EchoOperator(r.size), keep)
    kept = np.argsort(np.abs(r), kind="stable")[:keep]
    expected = np.zeros_like(r)
    expected[kept] = r[kept]
    assert bp.apply(r).tobytes() == expected.tobytes()


def test_residual_threshold_keep_bounds():
    op = gaussian_operator(5, 8, 0)
    with pytest.raises(ValueError):
        BackProjection.residual_threshold(op, keep=6)
    with pytest.raises(ValueError):
        BackProjection.residual_threshold(op, keep=-1)
    for keep in (2.5, True):
        with pytest.raises(ValueError, match="keep must be an integer"):
            BackProjection.residual_threshold(op, keep=keep)


def test_joint_operator_on_pure_blocks():
    rng = np.random.default_rng(31)
    base = gaussian_operator(6, 10, 12)
    jop = JointOperator(base)
    e = rng.standard_normal(6)
    x = rng.standard_normal(10)
    assert np.array_equal(jop.apply(np.concatenate([np.zeros(10), e])), e)
    assert np.allclose(jop.apply(np.concatenate([x, np.zeros(6)])), base.apply(x), rtol=0, atol=1e-12)


def test_joint_operator_matches_sum():
    rng = np.random.default_rng(32)
    base = gaussian_operator(6, 10, 13)
    jop = JointOperator(base)
    x = rng.standard_normal(10)
    e = rng.standard_normal(6)
    out = jop.apply(np.concatenate([x, e]))
    assert np.allclose(out, base.apply(x) + e, rtol=1e-12, atol=1e-12)


def test_joint_adjoint_stacks_adjoint_and_identity():
    # Hand check on a 2x3 matrix.
    base = MeasurementOperator([[1.0, 0.0, 2.0], [0.0, 3.0, 1.0]])
    jop = JointOperator(base)
    r = np.array([2.0, -1.0])
    expected = np.concatenate([base.matrix.T @ r, r])
    assert np.array_equal(jop.adjoint(r), expected)


@pytest.mark.parametrize("m,n", [(150, 300), (64, 12), (20, 32), (1, 1), (7, 5)])
def test_gaussian_matrix_is_aligned_and_draws_the_same_bits(m, n):
    expected = np.random.default_rng(5).standard_normal((m, n)) / np.sqrt(m)
    rng = np.random.default_rng(5)
    for op in (gaussian_operator(m, n, 5), gaussian_operator(m, n, rng)):
        assert op.matrix.ctypes.data % 64 == 0
        assert op.matrix.flags.c_contiguous
        assert op.matrix.shape == (m, n)
        assert np.array_equal(op.matrix, expected)
    # The Generator is left where a plain (m, n) draw leaves it.
    follow = np.random.default_rng(5)
    follow.standard_normal((m, n))
    assert np.array_equal(rng.standard_normal(3), follow.standard_normal(3))


def test_joint_split_rejects_a_vector_of_another_length():
    jop = JointOperator(gaussian_operator(150, 300, 0))
    x, e = jop.split(np.arange(450.0))
    assert np.array_equal(x, np.arange(300.0)) and np.array_equal(e, np.arange(300.0, 450.0))
    for bad in (np.zeros(10), np.zeros(451), np.zeros((450, 1))):
        with pytest.raises(ValueError, match="length 450"):
            jop.split(bad)


def _matrix(rng, m, n, order):
    """An m x n Gaussian matrix, C-ordered, F-ordered or a strided view."""
    if order == "strided":
        return rng.standard_normal((m, 2 * n))[:, ::2]
    matrix = rng.standard_normal((m, n))
    return np.asfortranarray(matrix) if order == "F" else matrix


@pytest.mark.parametrize("order", ["C", "F", "strided"])
@pytest.mark.parametrize("m,n", [(150, 300), (8, 12), (20, 32)])
def test_apply_and_adjoint_are_the_matmul_bytes(order, m, n):
    rng = np.random.default_rng(m + n)
    given_matrix = _matrix(rng, m, n, order)
    for op in (MeasurementOperator(given_matrix), JointOperator(MeasurementOperator(given_matrix))):
        A = op.matrix
        # np.dot and @ take different kernels on strided data, so such a
        # matrix is held in C order, with the same values.
        assert A.flags.c_contiguous or A.flags.f_contiguous
        assert np.array_equal(A[:, :n], given_matrix)
        for _ in range(5):
            x, r = rng.standard_normal(op.n_ambient), rng.standard_normal(op.m)
            assert op.apply(x).tobytes() == (A @ x).tobytes()
            assert op.adjoint(r).tobytes() == (A.T @ r).tobytes()
            assert BackProjection.adjoint(op).apply(r).tobytes() == (A.T @ r).tobytes()
            # A strided vector gets its contiguous copy's bytes, which BLAS
            # need not give it, with @ as with np.dot.
            xs, rs = np.repeat(x, 2)[::2], np.repeat(r, 2)[::2]
            assert op.apply(xs).tobytes() == (A @ x).tobytes()
            assert op.adjoint(rs).tobytes() == (A.T @ r).tobytes()


def test_contiguous_matrices_are_held_without_a_copy():
    rng = np.random.default_rng(3)
    for matrix in (rng.standard_normal((6, 9)), np.asfortranarray(rng.standard_normal((6, 9)))):
        assert MeasurementOperator(matrix).matrix is matrix
    strided = rng.standard_normal((6, 18))[:, ::2]
    held = MeasurementOperator(strided).matrix
    assert held.flags.c_contiguous and not np.shares_memory(held, strided)
    # gaussian_operator's aligned buffer is the one the operator keeps.
    op = gaussian_operator(150, 300, 4)
    assert op.matrix.ctypes.data % 64 == 0 and op.matrix.base is not None
    assert (op.m, op.n_ambient) == (150, 300)
    with pytest.raises(ValueError, match="length 300"):
        op.apply(np.zeros(150))
    with pytest.raises(ValueError, match="length 150"):
        op.adjoint(np.zeros(300))


def test_a_strided_vector_gets_its_contiguous_copys_bytes():
    # The adjoint of a strided residual differed from the contiguous one's
    # on every aligned 150 x 300 operator before vectors were taken in C
    # order; each map and both back-projections now see the same bytes.
    rng = np.random.default_rng(27)
    for _ in range(20):
        op = gaussian_operator(150, 300, rng)
        joint = JointOperator(op)
        maps = [(op.apply, 300), (op.adjoint, 150), (joint.apply, 450), (joint.adjoint, 150),
                (BackProjection.adjoint(op).apply, 150),
                (BackProjection.residual_threshold(op, 120).apply, 150),
                (BackProjection.residual_threshold(joint, 120).apply, 150)]
        for apply, length in maps:
            v = rng.standard_normal(length)
            for strided in (np.repeat(v, 2)[::2], np.repeat(v, 3)[1::3], v[::-1].copy()[::-1]):
                assert apply(strided).tobytes() == apply(v).tobytes()
