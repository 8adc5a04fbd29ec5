import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treebelief import exact, linalg
from treebelief.bench import make_random
from treebelief.dynamic import DynamicEngine
from treebelief.errors import InconsistentEvidenceError
from treebelief.linalg import FactoredMatrix, OpCounter
from util import same_bits, updatable_leaves


def vec(k):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=k, max_size=k
    ).map(np.array)


class TestApply:
    def test_identity(self):
        v = np.array([0.2, 0.8])
        assert np.array_equal(linalg.apply(np.eye(2), v), v)

    def test_row_stochastic_preserves_ones(self):
        m = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert np.allclose(linalg.apply(m, [1, 1]), [1, 1])

    def test_defining_sum(self):
        m = np.array([[0.9, 0.1], [0.2, 0.8]])
        v = np.array([1.0, 0.0])
        expected = np.array(
            [sum(m[x][y] * v[y] for y in range(2)) for x in range(2)]
        )
        got = linalg.apply(m, v)
        assert np.array_equal(got, [0.9, 0.2])
        assert np.allclose(got, expected)

    def test_counts(self):
        c = OpCounter()
        linalg.apply(np.eye(3), np.ones(3), c)
        assert c.mat_vec == 1 and c.mat_mat == 0

    def test_transpose_lazy(self):
        m = np.array([[0.9, 0.1], [0.2, 0.8]])
        v = np.array([0.4, 0.6])
        assert np.allclose(linalg.apply_transpose(m, v), m.T @ v)


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def spread(rng, shape):
    """Random nonnegative entries over 60 binades, with some zeros."""
    a = np.ldexp(rng.random(shape), rng.integers(-30, 30, shape))
    return np.where(rng.random(shape) < 0.1, 0.0, a)


class TestDotKernels:
    """The kernels' `ndarray.dot` calls are bitwise equal to the `@` forms."""

    @pytest.mark.parametrize("k", [2, 3, 4, 27])
    def test_dense_bitwise_equal_matmul_operator(self, k):
        rng = np.random.default_rng(k)
        for _ in range(25):
            m, n, v = spread(rng, (k, k)), spread(rng, (k, k)), spread(rng, k)
            assert bits(linalg.apply(m, v)) == bits(m @ v)
            assert bits(linalg.apply_transpose(m, v)) == bits(m.T @ v)
            assert bits(linalg.matmul(m, n)) == bits(m @ n)

    def test_factored_bitwise_equal_matmul_operator(self):
        rng = np.random.default_rng(27)
        for _ in range(25):
            left, right, v = spread(rng, (27, 3)), spread(rng, (3, 27)), spread(rng, 27)
            fm = FactoredMatrix(left, right)
            assert bits(fm.mv(v)) == bits(left @ (right @ v))
            assert bits(fm.mv_t(v)) == bits(right.T @ (left.T @ v))
            # the factored rake's products: core (3 x 27) by each pass factor
            core = spread(rng, (3, 27))
            assert bits(linalg.matmul(core, left)) == bits(core @ left)
            small = spread(rng, (3, 3))
            assert bits(linalg.matmul(small, right)) == bits(small @ right)


class TestMatmul:
    def test_identity_both_sides(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(linalg.matmul(m, np.eye(2)), m)
        assert np.array_equal(linalg.matmul(np.eye(2), m), m)

    def test_scalar_oracle(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        n = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(linalg.matmul(m, n), [[2, 1], [4, 3]])

    def test_associativity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = (rng.random((3, 3)) for _ in range(3))
            lhs = linalg.matmul(linalg.matmul(a, b), c)
            rhs = linalg.matmul(a, linalg.matmul(b, c))
            assert np.allclose(lhs, rhs, rtol=1e-9)

    def test_counts(self):
        c = OpCounter()
        linalg.matmul(np.eye(2), np.eye(2), c)
        assert c.mat_mat == 1 and c.mat_vec == 0


class TestDiag:
    """The rake kernel's Diag(m_diag . lam), applied as a column scaling and
    never built as a matrix."""

    def test_ones_gives_identity(self):
        rng = np.random.default_rng(4)
        m_u, m_pass = rng.random((2, 2)), rng.random((2, 2))
        got = linalg.rake_compose(m_u, np.eye(2), m_pass, np.ones(2))
        assert np.array_equal(got, m_u @ m_pass)

    def test_zero(self):
        rng = np.random.default_rng(5)
        m_u, m_diag, m_pass = (rng.random((2, 2)) for _ in range(3))
        got = linalg.rake_compose(m_u, m_diag, m_pass, np.zeros(2))
        assert np.array_equal(got, np.zeros((2, 2)))

    @given(vec(3), vec(3))
    def test_diag_matches_hadamard(self, v, w):
        eye = np.eye(3)
        # the kernel rescales by a power of two when the max leaves the range
        e = np.frexp(v.max())[1] if 0.0 < v.max() < linalg.SCALE_MIN else 0
        got = linalg.rake_compose(eye, eye, eye, v)
        assert np.array_equal(got, np.ldexp(np.diag(v), -e))
        if e:
            assert 0.5 <= got.max() < 1.0
        assert np.allclose(got @ w, np.ldexp(v, -e) * w, atol=1e-12)


class TestDense:
    def test_dense_matrix_is_returned_as_given(self):
        m = np.random.default_rng(0).random((3, 3))
        assert linalg.dense(m) is m

    def test_factored_matrix_is_expanded(self):
        rng = np.random.default_rng(1)
        fm = FactoredMatrix(rng.random((6, 2)), rng.random((2, 6)))
        got = linalg.dense(fm)
        assert type(got) is np.ndarray
        assert np.array_equal(got, fm.left.dot(fm.right))


class TestNormalize:
    def test_example(self):
        assert np.allclose(linalg.normalize([0.45, 0.1]), [9 / 11, 2 / 11])

    def test_uniform(self):
        assert np.allclose(linalg.normalize([1, 1, 1]), [1 / 3] * 3)

    def test_zero_is_inconsistent(self):
        with pytest.raises(InconsistentEvidenceError):
            linalg.normalize([0.0, 0.0])

    @pytest.mark.parametrize("bad", [[math.nan, 1.0], [math.inf, 1.0], [-1.0, 0.5]])
    def test_non_finite_or_non_positive_sum_is_inconsistent(self, bad):
        with pytest.raises(InconsistentEvidenceError):
            linalg.normalize(bad)

    @settings(max_examples=50)
    @given(vec(4))
    def test_sums_to_one(self, v):
        if v.sum() > 0:
            assert abs(linalg.normalize(v).sum() - 1.0) <= 1e-12


class TestDiagSandwich:
    @given(vec(3), vec(3))
    def test_apply_diag_product(self, u, v):
        rng = np.random.default_rng(1)
        m = rng.random((3, 3))
        lhs = linalg.apply(np.diag(u) @ m, v)
        rhs = u * linalg.apply(m, v)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestRescale:
    def test_tiny_vector_rescaled(self):
        v = np.array([1e-200, 5e-201])
        out = linalg.rescale_if_tiny(v)
        e = np.frexp(v.max())[1]
        assert np.array_equal(out, np.ldexp(v, -e))
        assert 0.5 <= out.max() < 1.0

    def test_huge_vector_rescaled(self):
        v = np.array([3e200, 1e200, 0.0])
        out = linalg.rescale_if_tiny(v)
        assert np.array_equal(out, np.ldexp(v, -np.frexp(v.max())[1]))
        assert 0.5 <= out.max() < 1.0

    def test_range_edges_untouched(self):
        for v in (np.array([linalg.SCALE_MIN, 0.0]), np.array([linalg.SCALE_MAX, 1.0])):
            assert linalg.rescale_if_tiny(v) is v

    @given(vec(4), st.integers(-1000, 1000))
    def test_exact_power_of_two(self, v, p):
        # the guard is a power-of-two shift, exact for every entry that stays
        # in the normal range after it
        v = np.ldexp(v, p)
        out = linalg.rescale_if_tiny(v)
        if out is not v:
            e = np.frexp(v.max())[1]
            assert 0.5 <= out.max() < 1.0
            assert np.array_equal(out, np.ldexp(v, -e))
            normal = out >= 2.0**-1022
            assert np.array_equal(np.ldexp(out[normal], e), v[normal])

    @pytest.mark.parametrize("v, want", [
        # bringing 2**129 into [0.5, 1) rounds 2**-945 to zero
        (np.ldexp(np.array([0.0, 1.0, 5e-324]), 129), [0.0, 0.5, 0.0]),
        (np.array([1e300, 1e-10]), np.ldexp([1e300, 1e-10], -997)),
        (np.array([1e-10, 1e300, 2e-320]), np.ldexp([1e-10, 1e300, 2e-320], -997)),
    ], ids=["two-to-129", "1e300-1e-10", "three-entries"])
    def test_wide_range_shift_is_made(self, v, want):
        # the shift rounds the entries far below the max, and leaves no max
        # above the range for the next product to overflow
        out = linalg.rescale_if_tiny(v)
        assert np.array_equal(out, want) and 0.5 <= out.max() < 1.0
        assert np.isfinite(out.dot(out))
        other = np.array([1e-300, 2e-300, 0.0][: v.size])
        rows = linalg.rescale_rows(np.array([v, other]))
        assert np.array_equal(rows[0], out)
        assert np.array_equal(rows[1], linalg.rescale_if_tiny(other))

    def test_matrix_rescaled_by_its_max(self):
        m = np.array([[1e-150, 2e-150], [0.0, 4e-150]])
        out = linalg.rescale_if_tiny(m)
        assert np.array_equal(out, np.ldexp(m, -np.frexp(4e-150)[1]))

    def test_normal_vector_untouched(self):
        v = np.array([0.5, 0.25])
        assert linalg.rescale_if_tiny(v) is v

    def test_zero_untouched(self):
        v = np.zeros(2)
        assert np.array_equal(linalg.rescale_if_tiny(v), v)


def max_only_rescale(v):
    """The guard's rule on the max entry alone, without the fast accept: a
    max outside the range is shifted into [0.5, 1), whatever the shift
    rounds."""
    m = v.max() if v.size else 0.0
    if linalg.SCALE_MIN <= m <= linalg.SCALE_MAX or not 0.0 < m < math.inf:
        return v
    return np.ldexp(v, -np.frexp(m)[1])


# zeros, subnormals and 2**e * m for e in -140..140 (often near the guard's
# range edges at +-128 and its fast-accept bounds at +-125), m in [1, 2)
GUARD_ENTRY = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=np.nextafter(2.0**-1022, 0.0)),
    st.builds(
        math.ldexp,
        st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
        st.one_of(st.integers(-140, 140), st.integers(122, 131), st.integers(-131, -122)),
    ),
)
GUARD_SHAPE = st.one_of(
    st.tuples(st.integers(1, 30)),
    st.tuples(st.integers(1, 27), st.integers(1, 27)),
)


class TestRescaleFastAccept:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, GUARD_SHAPE, elements=GUARD_ENTRY))
    @example(np.array([2.0**129]))  # max above the range, sum of squares 2**258
    @example(np.array([2.0**-129]))  # max below the range
    @example(np.array([2.0**128, 2.0**128]))  # max on the upper edge
    @example(np.full(729, 2.0**-128))  # max on the lower edge, 729 entries
    @example(np.array([np.nextafter(2.0**-128, 0.0), 1e-310]))
    def test_bitwise_equal_max_only_rule(self, v):
        want = max_only_rescale(v)
        got = linalg.rescale_if_tiny(v)
        assert got.shape == v.shape and bits(got) == bits(want)
        assert (got is v) == (want is v)

    @pytest.mark.parametrize("v", [
        np.zeros(3), np.array([]), np.array([np.nan, 1.0]), np.array([np.inf, 0.0]),
        np.zeros((3, 4)),
    ])
    def test_degenerate_inputs_returned_as_given(self, v):
        assert linalg.rescale_if_tiny(v) is v


# a row's entries: zeros, the guard's range edges, normal values and values
# near 1e-300 and 1e300
ROW_ENTRY = st.one_of(
    st.just(0.0),
    st.sampled_from([linalg.SCALE_MIN, linalg.SCALE_MAX, np.nextafter(linalg.SCALE_MIN, 0),
                     np.nextafter(linalg.SCALE_MAX, np.inf)]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-305, max_value=1e-295),
    st.floats(min_value=1e295, max_value=1e305),
)


class TestRescaleRows:
    """`rescale_rows` is `rescale_if_tiny` row by row: each row bitwise the
    max-only rule, and v itself returned exactly when no row shifts."""

    @settings(max_examples=300, deadline=None)
    @given(arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 27)),
        elements=st.one_of(GUARD_ENTRY, ROW_ENTRY),
    ))
    @example(np.array([[2.0**-126, 2.0**-126], [2.0**129, 1.0], [1.0, 0.5]]))
    @example(np.array([[0.0, 0.0], [5e-324, 0.0], [2.0**125, 2.0**-125]]))
    @example(np.array([[np.nextafter(2.0**-128, 0.0), 1e-310], [0.5, 0.25]]))
    def test_rows_bitwise_equal_rescale_if_tiny(self, v):
        out = linalg.rescale_rows(v)
        assert out.shape == v.shape
        shifted = False
        for got, row in zip(out, v):
            want = max_only_rescale(row)
            assert bits(got) == bits(want) == bits(linalg.rescale_if_tiny(row))
            shifted |= want is not row
        assert (out is v) == (not shifted)

    @pytest.mark.parametrize("v", [
        np.zeros((0, 3)), np.zeros((3, 0)), np.array([[np.nan, 1.0], [np.inf, 0.0]]),
    ])
    def test_degenerate_inputs_returned_as_given(self, v):
        assert linalg.rescale_rows(v) is v

    def test_untouched_rows_return_input(self):
        v = np.array([[0.5, 0.25], [0.0, 0.0], [linalg.SCALE_MIN, linalg.SCALE_MAX]])
        assert linalg.rescale_rows(v) is v

    def test_only_out_of_range_rows_scaled(self):
        v = np.array([[1e-300, 2e-300], [0.5, 0.25], [0.0, 0.0], [3e300, 1.0]])
        before = v.copy()
        out = linalg.rescale_rows(v)
        assert np.array_equal(out[1:3], v[1:3]) and bits(v) == bits(before)
        assert 0.5 <= out[0].max() < 1.0 and 0.5 <= out[3].max() < 1.0


def stack_operand(rng, n: int, k: int, factored: bool):
    """n random k x k edge matrices as one row-kernel operand, built by
    `row_operands` as a stacked depth of the sweep is, and as a list: an
    (n, k, k) stack, or a `FactoredMatrix` of (n, k, 2) and (n, 2, k) factor
    stacks."""
    if not factored:
        mats = list(rng.random((n, k, k)))
    else:
        mats = list(map(FactoredMatrix, rng.random((n, k, 2)), rng.random((n, 2, k))))
    m, = linalg.row_operands(mats)
    return m, mats


class TestRowOperands:
    """`row_operands` builds the row kernels' operands: a column that is one
    object passes as it, anything else is stacked, factor by factor, bitwise
    the inputs and into one allocation per call."""

    def test_shared_matrix_is_the_object(self):
        rng = np.random.default_rng(40)
        dense = rng.random((3, 3))
        fm = FactoredMatrix(rng.random((3, 2)), rng.random((2, 3)))
        got = linalg.row_operands([dense] * 9, [fm] * 9, [dense], [fm])
        assert all(op is want for op, want in zip(got, [dense, fm, dense, fm], strict=True))

    def test_one_vector_is_still_stacked(self):
        ones = np.ones(4)
        ones.flags.writeable = False
        for n in (1, 5):
            rows, = linalg.row_operands([ones] * n)
            assert rows.shape == (n, 4) and not np.shares_memory(rows, ones)
            assert same_bits(rows, np.ones((n, 4)))

    def test_shared_left_factor_beside_distinct_right_factors(self):
        rng = np.random.default_rng(41)
        left, rights = rng.random((5, 2)), rng.random((6, 2, 5))
        got, = linalg.row_operands([FactoredMatrix.of(left, r) for r in rights])
        assert isinstance(got, FactoredMatrix) and got.left is left
        assert same_bits(got.right, rights)

    def test_stacks_are_the_inputs_in_one_allocation(self):
        rng = np.random.default_rng(42)
        n, shared = 7, rng.random((4, 4))
        dense = list(rng.random((n, 4, 4)))
        lefts, rights = rng.random((n, 4, 3)), rng.random((n, 3, 4))
        factored = list(map(FactoredMatrix.of, lefts, rights))
        vectors = list(rng.random((n, 4)) * 10.0 ** rng.uniform(-300, 300, (n, 1)))
        ops = linalg.row_operands(dense, [shared] * n, factored, vectors)
        stacks = [ops[0], ops[2].left, ops[2].right, ops[3]]
        for got, want in zip(stacks, [np.array(dense), lefts, rights, np.array(vectors)]):
            assert same_bits(got, want) and got.flags.c_contiguous
            assert got.base is stacks[0].base and np.shares_memory(got.base, stacks[0])
        assert ops[1] is shared and stacks[0].base.size == sum(a.size for a in stacks)


class TestApplyStacked:
    """A stacked depth's operand, as the sweep builds it, through the row
    kernels: each row bitwise its own matrix's `apply` (dense) or `mv`
    (factored), and counted the same."""

    def test_dense_rows_match_apply(self):
        rng = np.random.default_rng(7)
        m, v = rng.random((5, 3, 3)), rng.random((5, 3))
        c, c_one = OpCounter(), OpCounter()
        got = linalg.apply_rows(m, v, c)
        got_t = linalg.apply_transpose_rows(m, v, c)
        for i in range(5):
            assert bits(got[i]) == bits(linalg.apply(m[i], v[i], c_one))
            assert bits(got_t[i]) == bits(linalg.apply_transpose(m[i], v[i], c_one))
        assert c == c_one

    def test_factored_rows_match_mv(self):
        rng = np.random.default_rng(8)
        left, right, v = rng.random((4, 6, 2)), rng.random((4, 2, 6)), rng.random((4, 6))
        c, c_one = OpCounter(), OpCounter()
        got = linalg.apply_rows(FactoredMatrix.of(left, right), v, c)
        got_t = linalg.apply_transpose_rows(FactoredMatrix.of(left, right), v, c)
        for i in range(4):
            fm = FactoredMatrix(left[i], right[i])
            assert bits(got[i]) == bits(fm.mv(v[i], c_one))
            assert bits(got_t[i]) == bits(fm.mv_t(v[i], c_one))
        assert c == c_one


class TestApplyRows:
    """Many rows at once: bitwise `apply` and `apply_transpose` row by row,
    and counted the same, for one shared edge matrix or a stack of them.
    The broadcast `np.matmul` makes the per-row product of `ndarray.dot`; a
    numpy release that changes that fails here."""

    @pytest.mark.parametrize("k", [2, 3, 4, 27])
    @pytest.mark.parametrize("factored", [False, True])
    def test_rows_bitwise_per_row_apply(self, k, factored):
        rng = np.random.default_rng(9 + k)
        if factored:
            m = linalg.FactoredMatrix(rng.random((k, 2)), rng.random((2, k)))
        else:
            m = rng.random((k, k))
        v = rng.random((40, k)) * 10.0 ** rng.uniform(-200, 200, (40, 1))
        c, c_one = OpCounter(), OpCounter()
        got = linalg.apply_rows(m, v, c)
        got_t = linalg.apply_transpose_rows(m, v, c)
        want = np.array([linalg.apply(m, row, c_one) for row in v])
        want_t = np.array([linalg.apply_transpose(m, row, c_one) for row in v])
        assert got.tobytes() == want.tobytes() and got_t.tobytes() == want_t.tobytes()
        assert c == c_one

    @pytest.mark.parametrize("k", [2, 3, 4, 27])
    def test_stack_bitwise_per_row_dot(self, k):
        """A stack, one matrix per row (a stacked depth, or the leaves that
        each use their own matrix), dense or factored: bitwise `apply` row by
        row, in both directions, and one `apply` counted per row.  A dense
        row's `apply` is `ndarray.dot`, so this is the mat-vec pin."""
        rng = np.random.default_rng(30 + k)
        v = rng.random((40, k)) * 10.0 ** rng.uniform(-200, 200, (40, 1))
        for factored in (False, True):
            m, mats = stack_operand(rng, 40, k, factored)
            c, c_one = OpCounter(), OpCounter()
            got = linalg.apply_rows(m, v, c)
            got_t = linalg.apply_transpose_rows(m, v, c)
            want = np.array([linalg.apply(a, row, c_one) for a, row in zip(mats, v)])
            want_t = np.array([linalg.apply_transpose(a, row, c_one) for a, row in zip(mats, v)])
            assert got.tobytes() == want.tobytes() and got_t.tobytes() == want_t.tobytes()
            assert c == c_one

    @pytest.mark.parametrize("k", [2, 3, 4, 27])
    def test_stack_matmul_bitwise_per_row_dot(self, k):
        """The mat-mat pin: `np.matmul` of two (n, k, k) stacks, and of one
        shared matrix against a stack on either side, is `ndarray.dot` row by
        row."""
        rng = np.random.default_rng(70 + k)
        a, b = (rng.random((40, k, k)) * 10.0 ** rng.uniform(-100, 100, (40, 1, 1))
                for _ in range(2))
        shared = rng.random((k, k))
        for got, pairs in [
            (np.matmul(a, b), zip(a, b)),
            (np.matmul(shared, b), ((shared, y) for y in b)),
            (np.matmul(a, shared), ((x, shared) for x in a)),
        ]:
            assert got.tobytes() == np.array([x.dot(y) for x, y in pairs]).tobytes()


def rake_operand(rng, n: int, K: int, L: int | None, stacked: bool):
    """One `rake_rows` operand for n rows, and its matrix for each row: a
    shared K x K matrix (L None) or `FactoredMatrix` of K x L and L x K
    factors, at scale 10**3, or a stack of n of them at per-row scales
    10**-3..10**3.  A factored stack shares one left factor, as interned
    selection factors do, when n is even.  Every array is read-only."""
    def frozen(a):
        a.flags.writeable = False
        return a

    scale = 10.0 ** rng.uniform(-3, 3, (n, 1, 1)) if stacked else 1e3
    if L is None:
        m = frozen(rng.random((n, K, K) if stacked else (K, K)) * scale)
        return m, list(m) if stacked else [m] * n
    right = frozen(rng.random((n, L, K) if stacked else (L, K)) * scale)
    if stacked and n % 2:
        left = frozen(rng.random((n, K, L)))
        return FactoredMatrix.of(left, right), list(map(FactoredMatrix.of, left, right))
    left = frozen(rng.random((K, L)))
    if stacked:
        return FactoredMatrix.of(left, right), [FactoredMatrix.of(left, r) for r in right]
    m = FactoredMatrix.of(left, right)
    return m, [m] * n


def rake_lams(rng, n: int, K: int) -> np.ndarray:
    """n read-only likelihood rows, in turn at 1, 2**-120 and 2**120, and
    guarded posts of 1e-300 and 1e300 (shifted into [0.5, 1) at the write)."""
    rows = []
    for i in range(n):
        v = rng.random(K) + 0.01
        rows.append([v, v * 2.0**-120, v * 2.0**120,
                     linalg.rescale_if_tiny(v * 1e-300), linalg.rescale_if_tiny(v * 1e300)][i % 5])
    lams = np.array(rows)
    lams.flags.writeable = False
    return lams


def unguarded_rake(m_u, m_diag, m_pass, lam) -> np.ndarray:
    """`rake_compose`'s product, or its right factor, before the guard."""
    core = (m_u.right if isinstance(m_u, FactoredMatrix) else m_u) * linalg.apply(m_diag, lam)
    for f in (m_pass.left, m_pass.right) if isinstance(m_pass, FactoredMatrix) else (m_pass,):
        core = core.dot(f)
    return core


SIDES = [(a, b, c) for a in (False, True) for b in (False, True) for c in (False, True)]


class TestRakeRows:
    """`rake_rows` is `rake_compose` row by row, bitwise, with equal counts,
    each operand shared or stacked: the kernel of the hierarchy build, whose
    rows an update recomputes one at a time.  The likelihoods are far from
    1, so the guard shifts some rows and not others.  Every input is
    read-only, so a write into one raises, and the suite turns a
    RuntimeWarning into an error."""

    @staticmethod
    def check(operands, lams):
        (m_u, us), (m_diag, diags), (m_pass, passes) = operands
        c, c_one = OpCounter(), OpCounter()
        read = m_u.right if isinstance(m_u, FactoredMatrix) else m_u  # all a rake reads of m_u
        got = linalg.rake_rows(read, m_diag, m_pass, lams, c)
        shifted = []
        for row, u, d, p, lam in zip(got, us, diags, passes, lams, strict=True):
            want = linalg.rake_compose(u, d, p, lam, c_one)
            if isinstance(u, FactoredMatrix):
                assert want.left is u.left
                want = want.right
            assert got.shape[1:] == want.shape and bits(row) == bits(want)
            raw = unguarded_rake(u, d, p, lam)
            shifted.append(linalg.rescale_if_tiny(raw) is not raw)
        assert c == c_one
        assert any(shifted) and not all(shifted)

    @pytest.mark.parametrize("K,L", [(2, None), (3, None), (4, None), (27, None), (27, 3)])
    @pytest.mark.parametrize("sides", SIDES)
    def test_rows_bitwise_rake_compose(self, K, L, sides):
        """Dense at k in {2, 3, 4, 27} or factored at K = 27, L = 3; each of
        the three operands one shared matrix or a stack."""
        rng = np.random.default_rng([K, *sides])
        n = 31 if sides[0] else 30  # a factored m_u stack with its own left factors
        self.check([rake_operand(rng, n, K, L, stacked) for stacked in sides], rake_lams(rng, n, K))

    @pytest.mark.parametrize("kinds", SIDES)
    def test_mixed_forms_bitwise_rake_compose(self, kinds):
        """Dense and factored operands side by side, as a dense identity pad
        meets factored join-tree edges, K = 27 and L = 3."""
        rng = np.random.default_rng([100, *kinds])
        n = 25
        operands = [rake_operand(rng, n, 27, 3 if f else None, i != 1) for i, f in enumerate(kinds)]
        self.check(operands, rake_lams(rng, n, 27))


class TestRakeCompose:
    def test_dense_matches_explicit(self):
        rng = np.random.default_rng(2)
        m_u, m_diag, m_pass = (rng.random((3, 3)) for _ in range(3))
        lam = rng.random(3)
        got = linalg.rake_compose(m_u, m_diag, m_pass, lam)
        want = m_u @ np.diag(m_diag @ lam) @ m_pass
        assert np.allclose(got, want, atol=1e-12)

    def test_dense_counts(self):
        c = OpCounter()
        rng = np.random.default_rng(3)
        linalg.rake_compose(
            rng.random((2, 2)), rng.random((2, 2)), rng.random((2, 2)),
            rng.random(2), c,
        )
        assert c.mat_vec == 1 and c.mat_mat == 1

    @pytest.mark.parametrize("u_f", [False, True])
    @pytest.mark.parametrize("diag_f", [False, True])
    @pytest.mark.parametrize("pass_f", [False, True])
    def test_counts_every_form(self, u_f, diag_f, pass_f):
        from treebelief.jointree import FactoredMatrix

        K, L = 4, 2
        rng = np.random.default_rng(8)

        def operand(factored):
            if factored:
                return FactoredMatrix(rng.random((K, L)), rng.random((L, K)))
            return rng.random((K, K))

        m_u, m_diag, m_pass = operand(u_f), operand(diag_f), operand(pass_f)
        c = OpCounter()
        got = linalg.rake_compose(m_u, m_diag, m_pass, rng.random(K), c)
        rows = L if u_f else K
        mv, flops = (2, 2 * K * L) if diag_f else (1, K * K)
        flops += rows * K
        mm, flops = (2, flops + 2 * rows * K * L) if pass_f else (1, flops + rows * K * K)
        assert (c.mat_vec, c.mat_mat, c.flops) == (mv, mm, flops)
        assert isinstance(got, FactoredMatrix) == u_f


class TestValidatedOnce:
    """Operands are converted and checked where they enter the program; the
    kernels under an update or a query convert nothing again."""

    def test_no_conversions_under_updates_and_queries(self, monkeypatch):
        rng = np.random.default_rng(11)
        tree = make_random(60, 3, rng)  # the boundary: converted here
        calls = {"as_matrix": 0, "as_vector": 0}
        for name in calls:
            def counted(x, _name=name, _f=getattr(linalg, name)):
                calls[_name] += 1
                return _f(x)
            monkeypatch.setattr(linalg, name, counted)

        leaves = updatable_leaves(tree)
        nodes = sorted(tree.names)
        engines = [DynamicEngine(tree), exact.PropagationState(tree)]

        def op(f, *args):
            before = calls["as_vector"]
            f(*args)
            assert calls["as_vector"] - before <= 1

        for i in range(200):
            leaf, node = leaves[i % len(leaves)], nodes[(7 * i) % len(nodes)]
            lik = rng.random(3) + 0.05
            op(engines[0].update_evidence, leaf, lik)
            op(engines[0].bel_query, node)
            op(engines[1].update_evidence, leaf, lik)
            op(engines[1].bel_query, node)
        op(exact.propagate_all, tree)
        assert calls["as_matrix"] == 0
        assert calls["as_vector"] > 0  # the boundary checks still run
