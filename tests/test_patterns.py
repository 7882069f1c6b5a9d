import numpy as np
import pytest
import scipy.sparse as sp

from samkit import (
    SparsityPattern, as_csc, is_subset,
    offset_pattern, pattern_intersection, pattern_of, pattern_union,
    read_pattern, sparsified_power, symbolic_power, write_pattern,
)
from helpers import grid_laplacian_triplets, random_pattern, random_sparse


def boolean_power_oracle(P, p):
    """Dense boolean p-th power."""
    D = np.zeros((P.nrows, P.ncols), dtype=bool)
    rows, cols = P.positions()
    D[rows, cols] = True
    acc = D.copy()
    for _ in range(p - 1):
        acc = (acc.astype(int) @ D.astype(int)) > 0
    return acc


def pattern_to_bool(P):
    D = np.zeros((P.nrows, P.ncols), dtype=bool)
    rows, cols = P.positions()
    D[rows, cols] = True
    return D


@pytest.mark.parametrize("indptr, indices, message", [
    ([0, 1, 2], [0, 1], "bad column pointer array"),                     # length is not ncols + 1
    ([1, 1, 1, 1], [], "bad column pointer array"),                      # does not start at 0
    ([0, 2, 1, 3], [0, 1, 2], "column pointers inconsistent"),           # decreasing
    ([0, 1, 2, 2], [0, 1, 2], "column pointers inconsistent"),           # last is not nnz
    ([0, 1, 2, 3], [0, 3, 1], "row index out of range"),
    ([0, 1, 2, 3], [0, -1, 1], "row index out of range"),
    ([0, 1, 3, 4], [0, 2, 1, 0], "column 1 not strictly increasing"),    # unsorted
    ([0, 0, 2, 3], [1, 1, 0], "column 1 not strictly increasing"),       # duplicated row
    ([0, 1, 3, 5], [0, 2, 1, 1, 1], "column 1 not strictly increasing"),  # the first bad column
    ([0, 1, 1, 3], [2, 2, 2], "column 2 not strictly increasing"),
])
def test_pattern_constructor_rejections(indptr, indices, message):
    with pytest.raises(ValueError, match=message):
        SparsityPattern(3, 3, indptr, indices)


def test_pattern_constructor_allows_decrease_across_columns():
    P = SparsityPattern(3, 3, [0, 2, 2, 3], [1, 2, 0])
    assert np.array_equal(P.column(0), [1, 2]) and np.array_equal(P.column(2), [0])


def test_pattern_of_diagonal():
    P = pattern_of(as_csc(np.diag([1.0, 2.0])))
    assert P.nnz == 2
    assert np.array_equal(P.column(0), [0]) and np.array_equal(P.column(1), [1])


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
    assert all(np.array_equal(P.column(j), [j]) for j in range(4))


def test_offset_pattern_tridiagonal_count():
    P = offset_pattern(3, [-1, 0, 1])
    assert P.nnz == 3 * 3 - 2


def test_offset_pattern_interior_columns_full():
    offs = [0, 1, -1, 5, -5]
    P = offset_pattern(20, offs)
    counts = P.column_counts()
    assert np.all(counts[5:15] == len(offs))
    assert counts[0] == 3  # -1 and -5 clipped


def test_offset_pattern_mesh_scale_interior_density():
    # displacement-mesh analog: diagonal, nearest-neighbor, and two far couplings
    P = offset_pattern(132300, [0, 1, -1, 300, -300, 6000, -6000])
    counts = P.column_counts()
    assert np.all(counts[6000:132300 - 6000] == 7)
    assert counts[0] == 4


def test_offset_pattern_rejects_bad_n():
    with pytest.raises(ValueError):
        offset_pattern(0, [0])


def test_symbolic_power_identity_case():
    P = random_pattern(10, np.random.default_rng(0))
    assert symbolic_power(P, 1) == P


def test_symbolic_power_tridiag_gives_pentadiag():
    P = offset_pattern(8, [-1, 0, 1])
    assert symbolic_power(P, 2) == offset_pattern(8, [-2, -1, 0, 1, 2])


def test_symbolic_power_diagonal_fixed_point():
    P = offset_pattern(5, [0])
    for p in (1, 2, 3, 4, 5):
        assert symbolic_power(P, p) == P


def test_symbolic_power_matches_boolean_oracle():
    rng = np.random.default_rng(1)
    for n in (7, 19, 30):
        P = random_pattern(n, rng, lo=1, hi=5)
        for p in (2, 3):
            got = pattern_to_bool(symbolic_power(P, p))
            assert np.array_equal(got, boolean_power_oracle(P, p))


def test_symbolic_power_rejects_bad_input():
    P = SparsityPattern.from_positions(2, 3, [0], [1])
    with pytest.raises(ValueError):
        symbolic_power(P, 2)
    Q = offset_pattern(3, [0])
    with pytest.raises(ValueError):
        symbolic_power(Q, 0)
    with pytest.raises(ValueError):
        symbolic_power(Q, 6)


def test_sparsified_power_no_threshold_is_symbolic():
    rng = np.random.default_rng(2)
    A = random_sparse(12, rng)
    for p in (1, 2, 3):
        assert sparsified_power(A, p, 0.0) == symbolic_power(pattern_of(A), p)


def test_sparsified_power_above_one_empties():
    rng = np.random.default_rng(3)
    A = random_sparse(10, rng)
    assert sparsified_power(A, 2, 2.0).nnz == 0


def test_sparsified_power_against_dense_oracle():
    rows, cols, vals = grid_laplacian_triplets(3, 3)
    A = as_csc(sp.csc_matrix((vals, (rows, cols)), shape=(9, 9)))
    p, tau = 2, 1e-4
    P = sparsified_power(A, p, tau)
    assert is_subset(P, symbolic_power(pattern_of(A), p))
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
    assert is_subset(P2, P1)
    assert is_subset(P1, symbolic_power(pattern_of(A), 2))


def test_set_ops_idempotent_and_subset():
    P = random_pattern(9, np.random.default_rng(5))
    assert pattern_union(P, P) == P
    assert pattern_intersection(P, P) == P
    assert is_subset(offset_pattern(9, [0]), offset_pattern(9, [-1, 0, 1]))
    assert not is_subset(offset_pattern(9, [-1, 0, 1]), offset_pattern(9, [0]))


def test_set_ops_inclusion_exclusion():
    rng = np.random.default_rng(6)
    P = random_pattern(11, rng)
    Q = random_pattern(11, rng)
    assert pattern_union(P, Q).nnz + pattern_intersection(P, Q).nnz == P.nnz + Q.nnz


def test_set_ops_dimension_mismatch():
    with pytest.raises(ValueError):
        pattern_union(offset_pattern(3, [0]), offset_pattern(4, [0]))


def test_pattern_io_round_trip(tmp_path):
    P = random_pattern(8, np.random.default_rng(7))
    path = tmp_path / "pat.txt"
    write_pattern(P, path)
    assert read_pattern(path) == P


def test_pattern_io_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("3 3 0\n")
    P = read_pattern(path)
    assert (P.nrows, P.ncols, P.nnz) == (3, 3, 0)


def test_pattern_io_hand_written(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("3 2 2\n2 1\n0 0\n")
    P = read_pattern(path)
    assert np.array_equal(P.column(0), [0])
    assert np.array_equal(P.column(1), [2])


def test_pattern_io_errors(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("3 3\n")
    with pytest.raises(ValueError):
        read_pattern(bad_header)
    truncated = tmp_path / "b.txt"
    truncated.write_text("3 3 2\n0 0\n")
    with pytest.raises(ValueError):
        read_pattern(truncated)
    out_of_range = tmp_path / "c.txt"
    out_of_range.write_text("3 3 1\n5 0\n")
    with pytest.raises(ValueError):
        read_pattern(out_of_range)
