"""Property tests: file round trips and pattern set algebra on random inputs."""

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from samkit import (
    SparsityPattern, is_subset, matrix_market_read, matrix_market_write,
    pattern_intersection, pattern_union, read_pattern, write_pattern,
)

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
def csc_matrices(draw):
    P = draw(patterns())
    data = np.array(draw(st.lists(VALUES, min_size=P.nnz, max_size=P.nnz)), dtype=np.float64)
    if draw(st.booleans()):
        imag = np.array(draw(st.lists(VALUES, min_size=P.nnz, max_size=P.nnz)), dtype=np.float64)
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
