"""Property tests: file round trips, pattern set algebra, shifted families and maps on random inputs."""

from contextlib import nullcontext

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from samkit import (
    SparsityPattern, compute_map, is_subset, map_residual_norm, matrix_market_read,
    matrix_market_write, pattern_intersection, pattern_of, pattern_union, plan,
    read_pattern, shifted_family, write_pattern,
)
from samkit.sam import _values

EXAMPLES = settings(max_examples=100, deadline=None)

# stored zeros of both signs, subnormals and infinities all occur
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -np.inf]),
                   st.floats(allow_nan=False, allow_subnormal=True))


@st.composite
def patterns(draw, shape=None):
    """Random pattern of the given or a random shape; empty columns included."""
    nrows, ncols = shape or (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    cols = [sorted(draw(st.sets(st.integers(0, nrows - 1)))) for _ in range(ncols)]
    indptr = np.cumsum([0] + [len(c) for c in cols])
    indices = np.array([r for c in cols for r in c], dtype=np.int64)
    return SparsityPattern(nrows, ncols, indptr, indices)


@st.composite
def csc_matrices(draw, shape=None, values=VALUES):
    P = draw(patterns(shape))
    data = np.array(draw(st.lists(values, min_size=P.nnz, max_size=P.nnz)), dtype=np.float64)
    if draw(st.booleans()):
        imag = np.array(draw(st.lists(values, min_size=P.nnz, max_size=P.nnz)), dtype=np.float64)
        data = data + 0j
        data.imag = imag
    return sp.csc_matrix((data, P.indices, P.indptr), shape=(P.nrows, P.ncols))


def pattern_to_bool(P):
    D = np.zeros((P.nrows, P.ncols), dtype=bool)
    D[P.positions()] = True
    return D


@EXAMPLES
@given(A=csc_matrices())
@example(A=sp.csc_matrix((2, 3), dtype=np.complex128))
def test_matrix_market_round_trip_is_exact(A, tmp_path_factory):
    path = tmp_path_factory.mktemp("mm") / "a.mtx"
    matrix_market_write(A, path)
    B = matrix_market_read(path)
    assert B.shape == A.shape and B.dtype == A.dtype
    assert B.data.tobytes() == A.data.tobytes()
    assert np.array_equal(B.indices, A.indices)
    assert np.array_equal(B.indptr, A.indptr)


@EXAMPLES
@given(P=patterns())
def test_pattern_file_round_trip(P, tmp_path_factory):
    path = tmp_path_factory.mktemp("pattern") / "p.txt"
    write_pattern(P, path)
    assert read_pattern(path) == P


@EXAMPLES
@given(data=st.data())
def test_pattern_set_algebra_matches_dense_oracle(data):
    P = data.draw(patterns())
    Q = data.draw(patterns((P.nrows, P.ncols)))
    dp, dq = pattern_to_bool(P), pattern_to_bool(Q)
    if data.draw(st.booleans()):
        # widen Q to a superset of P, so that is_subset also meets the true case
        dq |= dp
        Q = SparsityPattern.from_positions(P.nrows, P.ncols, *np.nonzero(dq))
    assert np.array_equal(pattern_to_bool(pattern_union(P, Q)), dp | dq)
    assert np.array_equal(pattern_to_bool(pattern_intersection(P, Q)), dp & dq)
    assert is_subset(P, Q) == bool(np.all(dq[dp]))


def first_unsorted_column(indptr, indices):
    """The per-column loop that the constructor's vectorized check replaced, kept as its reference."""
    for j in range(len(indptr) - 1):
        col = indices[indptr[j]:indptr[j + 1]]
        if col.size > 1 and np.any(np.diff(col) <= 0):
            return j
    return None


@EXAMPLES
@given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=6), data=st.data())
def test_pattern_constructor_matches_column_loop(counts, data):
    indptr = np.cumsum([0] + counts)
    nnz = sum(counts)
    indices = np.array(data.draw(st.lists(st.integers(0, 4), min_size=nnz, max_size=nnz)), dtype=np.int64)
    bad = first_unsorted_column(indptr, indices)
    if bad is None:
        P = SparsityPattern(5, len(counts), indptr, indices)
        assert np.array_equal(P.indices, indices)
    else:
        with pytest.raises(ValueError, match=f"column {bad} not strictly increasing"):
            SparsityPattern(5, len(counts), indptr, indices)


# finite and small enough that no product or sum overflows, so every value
# compares bit for bit; signed zeros and subnormals included
FINITE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1.0]),
                          st.floats(-1e3, 1e3, allow_subnormal=True))


def stored_values(M, dtype):
    """Dense copy of M in dtype; unlike toarray, which sums onto +0.0, it keeps a stored -0.0."""
    D = np.zeros(M.shape, dtype=dtype)
    D[pattern_of(M).positions()] = M.data
    return D


@EXAMPLES
@given(data=st.data())
def test_shifted_family_members_are_exact_on_the_union_pattern(data):
    shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
    E = data.draw(csc_matrices(shape, FINITE_VALUES))
    A = data.draw(csc_matrices(shape, FINITE_VALUES))
    # both zero shifts in every family: they decide the sign of a zero product
    alphas = np.array([0.0, -0.0] + data.draw(st.lists(FINITE_VALUES, max_size=3)))
    if data.draw(st.booleans()):
        alphas = alphas.astype(np.complex128)
        alphas.imag = data.draw(st.lists(FINITE_VALUES, min_size=alphas.size, max_size=alphas.size))
    family = shifted_family(alphas, E, A)
    assert len(family) == alphas.size
    union = pattern_union(pattern_of(E), pattern_of(A))
    e_mask, a_mask = pattern_to_bool(pattern_of(E)), pattern_to_bool(pattern_of(A))
    for alpha, C in zip(alphas, family):
        C.check_format(full_check=True)
        assert pattern_of(C) == union
        assert np.array_equal(C.toarray(), alpha * E.toarray() + A.toarray())
        # bit for bit: alpha * e + a in the family's scalar field where both
        # operands store a value, the one stored term where only one does
        dt = C.dtype
        ae = dt.type(alpha) * stored_values(E, dt)
        a = stored_values(A, dt)
        want = np.where(e_mask & a_mask, ae + a, np.where(e_mask, ae, a))
        assert C.data.tobytes() == want[union.positions()].tobytes()


# small integers: a block either has full column rank with a modest
# condition number or is exactly rank deficient, so the dense oracle and the
# pivoted solver agree on which case they are in
SMALL_INTS = st.integers(-2, 2).map(float)


@EXAMPLES
@given(data=st.data())
def test_compute_map_matches_dense_least_squares(data):
    n = data.draw(st.integers(1, 6))
    A = data.draw(csc_matrices((n, n), SMALL_INTS))
    ref = data.draw(csc_matrices((n, n), SMALL_INTS))
    S = data.draw(patterns((n, n)))
    planned_ref = ref if data.draw(st.booleans()) else None
    with pytest.warns(UserWarning) if np.any(S.column_counts() == 0) else nullcontext():
        pl = plan(S, A, A_ref=planned_ref)
    m = compute_map(A, ref, pl)
    Ad, refd, Nd = A.toarray(), ref.toarray(), m.N.toarray()
    blocks, rhs, _ = _values(A, ref, pl)
    for l in range(n):
        # the plan's gathers against dense indexing
        s, rows = S.column(l), pl.row_idx[pl.row_ptr[l]:pl.row_ptr[l + 1]]
        assert np.array_equal(blocks[pl.blk_ptr[l]:pl.blk_ptr[l + 1]], Ad[np.ix_(rows, s)].ravel())
        assert np.array_equal(rhs[pl.row_ptr[l]:pl.row_ptr[l + 1]], refd[rows, l])
        if s.size and np.linalg.matrix_rank(Ad[:, s]) == s.size:
            z = np.linalg.lstsq(Ad[:, s], refd[:, l], rcond=None)[0]
            assert np.abs(Nd[s, l] - z).max() <= 1e-9 * max(1.0, np.abs(z).max())
    if np.any(refd):
        assert abs(m.rel_residual - map_residual_norm(A, m.N, ref)) <= 1e-12
    else:
        assert m.rel_residual == 0.0
    assert compute_map(A, ref, pl, workers=3).N.data.tobytes() == m.N.data.tobytes()
