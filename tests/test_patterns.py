import re

import numpy as np
import pytest
import scipy.sparse as sp

from samkit import as_csc, offset_pattern, pattern_of, sparsified_power, symbolic_power
from helpers import (
    grid_laplacian_triplets, pattern_at, pattern_to_bool, random_pattern, random_sparse, same_pattern,
)


def boolean_power_oracle(P, p):
    """Dense boolean p-th power."""
    D = pattern_to_bool(P)
    acc = D.copy()
    for _ in range(p - 1):
        acc = (acc.astype(int) @ D.astype(int)) > 0
    return acc


def column(P, j):
    return P.indices[P.indptr[j]:P.indptr[j + 1]]


@pytest.mark.parametrize("indptr, indices, defect", [
    ([0, 1, 2], [0, 1], "bad column pointer array"),                     # length is not ncols + 1
    ([1, 1, 1, 1], [], "bad column pointer array"),                      # does not start at 0
    ([0, 2, 1, 3], [0, 1, 2], "column pointers inconsistent"),           # decreasing
    ([0, 1, 2, 4], [0, 1, 2], "column pointers inconsistent"),           # last exceeds nnz
    ([0, 1, 2, 3], [0, 3, 1], "row index out of range"),
    ([0, 1, 2, 3], [0, -1, 1], "row index out of range"),
    ([0, 1, 3, 4], [0, 2, 1, 0], "column 1 not strictly increasing"),    # unsorted
    ([0, 0, 2, 3], [1, 1, 0], "column 1 not strictly increasing"),       # duplicated row
    ([0, 1, 3, 5], [0, 2, 1, 1, 1], "column 1 not strictly increasing"),  # unsorted and duplicated
    ([0, 1, 1, 3], [2, 2, 2], "column 2 not strictly increasing"),
])
def test_pattern_constructor_rejections(indptr, indices, defect):
    # a pattern of raw CSC arrays: malformed pointers and out-of-range rows
    # raise, where scipy builds the matrix or where pattern_of checks its
    # format; rows out of order or repeated within a column are no error,
    # the pattern stores each once, sorted
    def build():
        return pattern_of(sp.csc_matrix((np.ones(len(indices)), indices, indptr), shape=(3, 3)))
    if "not strictly increasing" not in defect:
        with pytest.raises(ValueError):
            build()
        return
    expected = np.zeros((3, 3), dtype=bool)
    for j in range(3):
        expected[indices[indptr[j]:indptr[j + 1]], j] = True
    P = build()
    assert P.has_canonical_format and np.array_equal(pattern_to_bool(P), expected)


@pytest.mark.parametrize("fmt", ["csc", "csr"])
def test_pattern_of_refuses_out_of_range_indices(fmt):
    # an index past the minor dimension would reach scipy's C kernels in tocsc
    # and sum_duplicates, which write out of bounds with it
    M = sp.csc_matrix(np.eye(3)).asformat(fmt)
    M.indices[1] = 3
    with pytest.raises(ValueError):
        pattern_of(M)


@pytest.mark.parametrize("tau", [0.0, 0.1])
def test_sparsified_power_refuses_malformed_index_arrays(tau):
    # row 5 of a 3x3 matrix reached scipy's product kernels, and the process crashed
    bad = sp.csc_matrix((np.ones(5), [0, 5, 1, 2, 2], [0, 2, 3, 5]), shape=(3, 3))
    with pytest.raises(ValueError, match="indices must be < 3"):
        sparsified_power(bad, 2, tau)


@pytest.mark.parametrize("build", [
    lambda: offset_pattern(4, [0, 0.5]),
    lambda: offset_pattern(4, np.array([1.0])),
    lambda: offset_pattern(True, [0]),
    lambda: offset_pattern(4.0, [0]),
    lambda: offset_pattern(4, [0.9]),
    lambda: offset_pattern(4.5, [0]),
    lambda: offset_pattern(4, 0),
    lambda: offset_pattern(4, [[0, 1]]),
])
def test_pattern_constructors_reject_non_integer_indices(build):
    # float sizes and offsets were truncated: offset 0.9 to the diagonal, size
    # 4.5 to 4; a float or bool is refused even where its value is integral;
    # a scalar or 2-D offsets failed in numpy's indexing and broadcasting
    with pytest.raises(ValueError, match="^(n must be an integer|offsets must be (integers|a 1-D sequence)), not "):
        build()


def test_pattern_constructors_accept_empty_index_lists():
    assert offset_pattern(3, []).nnz == 0
    # a matrix without entries keeps no position above tau = 0
    empty = sparsified_power(sp.csc_matrix((3, 3)), 2, 0.5)
    assert empty.shape == (3, 3) and empty.nnz == 0


def test_pattern_constructor_allows_decrease_across_columns():
    P = pattern_at((3, 3), [2, 0, 1], [0, 2, 0])
    assert np.array_equal(column(P, 0), [1, 2]) and np.array_equal(column(P, 2), [0])


def test_pattern_is_a_canonical_indicator_matrix():
    # an unsorted, duplicated and valued matrix: its pattern stores 1.0 once
    # at each stored position, stored zeros included, in canonical order
    M = sp.csc_matrix(([5.0, 0.0, -2.0, 3.0], [2, 0, 2, 1], [0, 3, 3, 4]), shape=(3, 3))
    P = pattern_of(M)
    assert isinstance(P, sp.csc_matrix) and P.has_canonical_format
    assert np.array_equal(P.indptr, [0, 2, 2, 3]) and np.array_equal(P.indices, [0, 2, 1])
    assert P.data.tolist() == [1.0, 1.0, 1.0]
    assert same_pattern(pattern_of(P), P) and not np.shares_memory(pattern_of(P).indices, P.indices)


def test_pattern_of_diagonal():
    P = pattern_of(as_csc(np.diag([1.0, 2.0])))
    assert P.nnz == 2
    assert np.array_equal(column(P, 0), [0]) and np.array_equal(column(P, 1), [1])


def test_pattern_of_empty():
    P = pattern_of(sp.csc_matrix((3, 3)))
    assert P.nnz == 0


def test_pattern_of_grid_laplacian():
    rows, cols, vals = grid_laplacian_triplets(3, 3)
    A = as_csc(sp.csc_matrix((vals, (rows, cols)), shape=(9, 9)))
    assert pattern_of(A).nnz == 33


def test_pattern_of_keeps_stored_zeros():
    A = as_csc(sp.csc_matrix(([0.0, 2.0], ([0, 1], [0, 1])), shape=(2, 2)))
    assert pattern_of(A).nnz == 2


def test_offset_pattern_diagonal():
    P = offset_pattern(4, [0])
    assert P.nnz == 4
    assert all(np.array_equal(column(P, j), [j]) for j in range(4))


def test_offset_pattern_tridiagonal_count():
    P = offset_pattern(3, [-1, 0, 1])
    assert P.nnz == 3 * 3 - 2


def test_offset_pattern_interior_columns_full():
    offs = [0, 1, -1, 5, -5]
    P = offset_pattern(20, offs)
    counts = np.diff(P.indptr)
    assert np.all(counts[5:15] == len(offs))
    assert counts[0] == 3  # -1 and -5 clipped


def test_offset_pattern_mesh_scale_interior_density():
    # displacement-mesh analog: diagonal, nearest-neighbor, and two far couplings
    P = offset_pattern(132300, [0, 1, -1, 300, -300, 6000, -6000])
    counts = np.diff(P.indptr)
    assert np.all(counts[6000:132300 - 6000] == 7)
    assert counts[0] == 4


def test_offset_pattern_rejects_bad_n():
    with pytest.raises(ValueError):
        offset_pattern(0, [0])


def test_symbolic_power_identity_case():
    P = random_pattern(10, np.random.default_rng(0))
    assert same_pattern(symbolic_power(P, 1), P)


def test_symbolic_power_tridiag_gives_pentadiag():
    P = offset_pattern(8, [-1, 0, 1])
    assert same_pattern(symbolic_power(P, 2), offset_pattern(8, [-2, -1, 0, 1, 2]))


def test_symbolic_power_diagonal_fixed_point():
    P = offset_pattern(5, [0])
    for p in (1, 2, 3, 4, 5):
        assert same_pattern(symbolic_power(P, p), P)


def test_symbolic_power_matches_boolean_oracle():
    rng = np.random.default_rng(1)
    for n in (7, 19, 30):
        P = random_pattern(n, rng, lo=1, hi=5)
        for p in (2, 3):
            got = pattern_to_bool(symbolic_power(P, p))
            assert np.array_equal(got, boolean_power_oracle(P, p))


def test_symbolic_power_rejects_bad_input():
    P = pattern_at((2, 3), [0], [1])
    with pytest.raises(ValueError):
        symbolic_power(P, 2)
    Q = offset_pattern(3, [0])
    with pytest.raises(ValueError):
        symbolic_power(Q, 0)
    with pytest.raises(ValueError):
        symbolic_power(Q, 6)
    # above tau = 0, sparsified_power does not call symbolic_power and checks the same input itself
    with pytest.raises(ValueError, match="^sparsified_power needs a square matrix$"):
        sparsified_power(as_csc(np.ones((2, 3))), 2, 0.1)
    for p in (0, 6):
        with pytest.raises(ValueError, match="^power must be between 1 and 5$"):
            sparsified_power(as_csc(np.eye(3)), p, 0.1)
    # p = True was taken as 1, and p = 2.0 failed inside range() with a TypeError
    for p in (True, 2.0):
        message = f"^p must be an integer, not {re.escape(repr(p))}$"
        with pytest.raises(ValueError, match=message):
            symbolic_power(Q, p)
        for tau in (0.0, 0.1):
            with pytest.raises(ValueError, match=message):
                sparsified_power(as_csc(np.eye(3)), p, tau)
    # numpy integers are integers
    T = offset_pattern(4, [-1, 0, 1])
    assert same_pattern(symbolic_power(T, np.int64(2)), symbolic_power(T, 2))
    assert same_pattern(sparsified_power(T, np.int32(2), 0.1), sparsified_power(T, 2, 0.1))


def test_sparsified_power_no_threshold_is_symbolic():
    rng = np.random.default_rng(2)
    A = random_sparse(12, rng)
    for p in (1, 2, 3):
        assert same_pattern(sparsified_power(A, p, 0.0), symbolic_power(pattern_of(A), p))


@pytest.mark.parametrize("tau", [-1e-3, np.nan, 1.5, np.inf])
def test_sparsified_power_rejects_bad_tau(tau):
    # a NaN tau, and any tau above 1, returned an empty pattern
    with pytest.raises(ValueError, match=r"^tau must lie in \[0, 1\], not "):
        sparsified_power(as_csc(np.eye(3)), 2, tau)


def test_sparsified_power_tau_one_keeps_the_largest():
    rng = np.random.default_rng(3)
    A = random_sparse(10, rng)
    mags = abs(A @ A).tocsc()
    mags.eliminate_zeros()
    largest = mags == mags.max()
    assert largest.nnz >= 1 and same_pattern(sparsified_power(A, 2, 1.0), largest)


def test_sparsified_power_against_dense_oracle():
    rows, cols, vals = grid_laplacian_triplets(3, 3)
    A = as_csc(sp.csc_matrix((vals, (rows, cols)), shape=(9, 9)))
    p, tau = 2, 1e-4
    P = sparsified_power(A, p, tau)
    assert not (pattern_to_bool(P) & ~pattern_to_bool(symbolic_power(pattern_of(A), p))).any()
    Ad = np.linalg.matrix_power(A.toarray(), p)
    want = np.abs(Ad) >= tau * np.abs(Ad).max()
    assert np.array_equal(pattern_to_bool(P), want)
    # the threshold is relative to the largest magnitude
    assert sparsified_power(as_csc(np.diag([10.0, 1.0, 0.1])), 1, 0.5).nnz == 1


def test_sparsified_power_threshold_monotone():
    rng = np.random.default_rng(4)
    A = random_sparse(15, rng)
    P1 = sparsified_power(A, 2, 1e-3)
    P2 = sparsified_power(A, 2, 1e-1)
    D1, D2 = pattern_to_bool(P1), pattern_to_bool(P2)
    assert not (D2 & ~D1).any()
    assert not (D1 & ~pattern_to_bool(symbolic_power(pattern_of(A), 2))).any()

