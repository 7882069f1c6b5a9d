"""Property tests: file round trips, shifted families and maps on random inputs."""

from contextlib import nullcontext

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from samkit import (
    SequenceSpec, compute_map, map_residual_norm, matrix_market_read,
    matrix_market_write, pattern_of, plan,
)
from helpers import padded, pattern_to_bool, row_sets, same_pattern

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
    return pattern_of(sp.csc_matrix((np.ones(indices.size), indices, indptr), shape=(nrows, ncols)))


@st.composite
def csc_matrices(draw, shape=None, values=VALUES):
    P = draw(patterns(shape))
    data = np.array(draw(st.lists(values, min_size=P.nnz, max_size=P.nnz)), dtype=np.float64)
    if draw(st.booleans()):
        imag = np.array(draw(st.lists(values, min_size=P.nnz, max_size=P.nnz)), dtype=np.float64)
        data = data + 0j
        data.imag = imag
    return sp.csc_matrix((data, P.indices, P.indptr), shape=P.shape)


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
    # a pattern file is any Matrix Market matrix; its stored positions are the pattern
    path = tmp_path_factory.mktemp("pattern") / "p.mtx"
    matrix_market_write(P, path)
    assert same_pattern(pattern_of(matrix_market_read(path)), P)


# finite and small enough that no product or sum overflows, so every value
# compares bit for bit; signed zeros and subnormals included
FINITE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1.0]),
                          st.floats(-1e3, 1e3, allow_subnormal=True))


def positions(M):
    """(rows, cols) of every stored entry of CSC matrix M, in storage order."""
    coo = M.tocoo()
    return coo.row, coo.col


def stored_values(M, dtype):
    """Dense copy of M in dtype; unlike toarray, which sums onto +0.0, it keeps a stored -0.0."""
    D = np.zeros(M.shape, dtype=dtype)
    D[positions(M)] = M.data
    return D


@EXAMPLES
@given(data=st.data())
def test_shifted_pair_members_are_exact_on_the_union_pattern(data):
    # a sequence's systems are square
    n = data.draw(st.integers(1, 6))
    E = data.draw(csc_matrices((n, n), FINITE_VALUES))
    A = data.draw(csc_matrices((n, n), FINITE_VALUES))
    # both zero shifts in every family: they decide the sign of a zero product
    alphas = np.array([0.0, -0.0] + data.draw(st.lists(FINITE_VALUES, max_size=3)))
    if data.draw(st.booleans()):
        alphas = alphas.astype(np.complex128)
        alphas.imag = data.draw(st.lists(FINITE_VALUES, min_size=alphas.size, max_size=alphas.size))
    family = SequenceSpec.shifted_pair(A, E, alphas).matrices
    # shifts without a nonzero imaginary part are taken as real
    if not alphas.imag.any():
        alphas = alphas.real
    assert len(family) == alphas.size
    e_mask, a_mask = pattern_to_bool(pattern_of(E)), pattern_to_bool(pattern_of(A))
    union = pattern_of(sp.csc_matrix(e_mask | a_mask))
    for alpha, C in zip(alphas, family):
        C.check_format(full_check=True)
        assert same_pattern(pattern_of(C), union)
        assert np.array_equal(C.toarray(), alpha * E.toarray() + A.toarray())
        # bit for bit: alpha * e + a in the family's scalar field where both
        # operands store a value, the one stored term where only one does
        dt = C.dtype
        ae = dt.type(alpha) * stored_values(E, dt)
        a = stored_values(A, dt)
        want = np.where(e_mask & a_mask, ae + a, np.where(e_mask, ae, a))
        assert C.data.tobytes() == want[positions(union)].tobytes()


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
    with pytest.warns(UserWarning) if np.any(np.diff(S.indptr) == 0) else nullcontext():
        pl = plan(S, A, A_ref=ref)
    m = compute_map(A, ref, pl)
    Ad, refd, Nd = A.toarray(), ref.toarray(), m.N.toarray()
    values = np.concatenate([[0], A.data, ref.data])
    # the plan's batch arrays against dense indexing over each column's row set, zero-padded to
    # the batch's block shape; each column in one batch, and padded unknowns point past the map
    row_set = row_sets(S, A, ref)
    assert np.array_equal(np.sort(np.concatenate([b.columns for b in pl.batches])), np.arange(n))
    for b in pl.batches:
        for l, entries, unknowns in zip(*b):
            s, rows = S.indices[S.indptr[l]:S.indptr[l + 1]], row_set.indices[row_set.indptr[l]:row_set.indptr[l + 1]]
            block = np.column_stack([Ad[np.ix_(rows, s)], refd[rows, l]])
            assert np.array_equal(values[entries], padded(block, entries.shape))
            nnz = pl.structures[0].nnz
            assert np.array_equal(unknowns, np.append(np.arange(*pl.structures[0].indptr[l:l + 2]), [nnz] * (unknowns.size - s.size)))
    for l in range(n):
        s = S.indices[S.indptr[l]:S.indptr[l + 1]]
        if s.size and np.linalg.matrix_rank(Ad[:, s]) == s.size:
            z = np.linalg.lstsq(Ad[:, s], refd[:, l], rcond=None)[0]
            assert np.abs(Nd[s, l] - z).max() <= 1e-9 * max(1.0, np.abs(z).max())
    if np.any(refd):
        assert abs(m.rel_residual - map_residual_norm(A, m.N, ref)) <= 1e-12
    else:
        assert m.rel_residual == 0.0
    assert compute_map(A, ref, pl, workers=3).N.data.tobytes() == m.N.data.tobytes()


@EXAMPLES
@given(data=st.data())
def test_compute_map_complex_repeated_columns_minimum_norm(data):
    # pattern column l selects columns j1 and j2 of A, which are equal, so
    # its block is rank deficient; the minimum-norm solution splits the
    # weight evenly between the two unknowns
    n = data.draw(st.integers(2, 5))
    A = data.draw(csc_matrices((n, n), SMALL_INTS)).astype(complex).tolil()
    ref = data.draw(csc_matrices((n, n), SMALL_INTS)).astype(complex)
    j1, j2 = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    re = data.draw(st.lists(SMALL_INTS, min_size=n, max_size=n))
    im = data.draw(st.lists(SMALL_INTS, min_size=n, max_size=n).filter(any))
    A[:, j1] = A[:, j2] = (np.array(re) + 1j * np.array(im))[:, None]
    A = sp.csc_matrix(A)
    S = data.draw(patterns((n, n)))
    l = data.draw(st.integers(0, n - 1))
    extra = data.draw(st.sets(st.integers(0, n - 1), max_size=1))
    D = pattern_to_bool(S)
    picked = sorted({j1, j2} | extra)
    D[:, l] = False
    D[picked, l] = True
    S = pattern_of(sp.csc_matrix(D))
    with pytest.warns(UserWarning) if np.any(np.diff(S.indptr) == 0) else nullcontext():
        pl = plan(S, A, A_ref=ref)
    Nd = compute_map(A, ref, pl).N.toarray()
    Ad, refd = A.toarray(), ref.toarray()
    z = np.linalg.lstsq(Ad[:, picked], refd[:, l], rcond=1e-10)[0]
    assert np.abs(Nd[picked, l] - z).max() <= 1e-9 * max(1.0, np.abs(z).max())
    assert abs(Nd[j1, l] - Nd[j2, l]) <= 1e-9 * max(1.0, np.abs(z).max())
