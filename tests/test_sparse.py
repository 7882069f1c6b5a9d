import numpy as np
import pytest

from samkit import (
    as_csc, extract_dense_submatrix, frobenius_norm_diff, identity, matvec,
    shifted_combine, shifted_family,
)
from helpers import random_sparse


def test_matvec_identity_and_diagonal():
    x = np.array([3.0, -4.0])
    assert np.array_equal(matvec(identity(2), x), x)
    D = as_csc(np.diag([2.0, 3.0]))
    assert np.array_equal(matvec(D, np.ones(2)), np.array([2.0, 3.0]))


def test_matvec_against_dense():
    rng = np.random.default_rng(1)
    A = random_sparse(10, rng)
    x = rng.standard_normal(10)
    y = matvec(A, x)
    yd = A.toarray() @ x
    assert np.linalg.norm(y - yd) <= 1e-14 * max(np.linalg.norm(yd), 1.0)


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        matvec(identity(3), np.ones(4))


def test_matvec_distributes():
    rng = np.random.default_rng(2)
    A = random_sparse(15, rng)
    x = rng.standard_normal(15)
    y = rng.standard_normal(15)
    lhs = matvec(A, x + y)
    rhs = matvec(A, x) + matvec(A, y)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(np.linalg.norm(lhs), 1.0)


def test_matvec_associativity():
    rng = np.random.default_rng(5)
    A = random_sparse(20, rng)
    B = random_sparse(20, rng)
    x = rng.standard_normal(20)
    lhs = matvec(A @ B, x)
    rhs = matvec(A, matvec(B, x))
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)


def test_extract_single_entry():
    A = as_csc(np.diag([5.0]))
    block = extract_dense_submatrix(A, [0], [0])
    assert block.shape == (1, 1) and block[0, 0] == 5.0


def test_extract_full_range_equals_dense():
    rng = np.random.default_rng(6)
    A = random_sparse(9, rng)
    block = extract_dense_submatrix(A, np.arange(9), np.arange(9))
    assert np.array_equal(block, A.toarray())


def test_extract_structural_zeros_read_zero():
    A = as_csc(np.diag([1.0, 2.0, 3.0]))
    block = extract_dense_submatrix(A, [0, 1], [2])
    assert np.all(block == 0.0)


def test_extract_out_of_range():
    with pytest.raises(IndexError):
        extract_dense_submatrix(identity(2), [2], [0])


def test_shifted_combine_zero_shift():
    rng = np.random.default_rng(7)
    A = random_sparse(6, rng)
    E = identity(6)
    C = shifted_combine(0.0, E, A)
    assert np.array_equal(C.toarray(), A.toarray())
    # union pattern: the diagonal positions of E are now stored
    assert C.nnz >= A.nnz
    assert np.all(np.isin(np.arange(6), C.tocoo().row[C.tocoo().row == C.tocoo().col]))


def test_shifted_combine_identity():
    Z = as_csc(np.zeros((2, 2)))
    C = shifted_combine(1.0, identity(2), Z)
    assert np.array_equal(C.toarray(), np.eye(2))


def test_shifted_combine_complex_shift_exact():
    rng = np.random.default_rng(8)
    K = random_sparse(6, rng)
    M = random_sparse(6, rng)
    z = 2 + 3j
    C = shifted_combine(z, M, K)
    assert C.dtype == np.complex128
    assert np.array_equal(C.toarray(), z * M.toarray() + K.toarray())


def test_shifted_combine_dimension_mismatch():
    with pytest.raises(ValueError):
        shifted_combine(1.0, identity(2), identity(3))


def _positions(M):
    coo = M.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


def test_shifted_family_members_exact_on_union_pattern():
    rng = np.random.default_rng(10)
    E = random_sparse(7, rng)
    A = random_sparse(7, rng)
    for alphas in ([0.5, -3.0, 1e-3], [2 + 3j, -1j, 0.25]):
        family = shifted_family(alphas, E, A)
        assert len(family) == 3
        for alpha, C in zip(alphas, family):
            assert C.dtype == np.result_type(np.float64, np.asarray(alphas).dtype)
            assert np.array_equal(C.toarray(), alpha * E.toarray() + A.toarray())
            assert _positions(C) == _positions(E) | _positions(A)


def test_shifted_family_union_pattern_keeps_cancelled_sums():
    E = as_csc(np.array([[1.0, 0.0], [-2.0, 0.0]]))
    A = as_csc(np.array([[1.0, 0.0], [0.0, 5.0]]))
    C, C0 = shifted_family([-1.0, 0.0], E, A)
    # (0,0) cancels to a stored zero; (1,0) is E's alone, (1,1) A's alone
    for X in (C, C0):
        assert np.array_equal(X.indptr, [0, 2, 3])
        assert np.array_equal(X.indices, [0, 1, 1])
        assert X.has_canonical_format
    assert np.array_equal(C.data, [0.0, 2.0, 5.0])
    # 0 * -2 is -0.0, and a value E alone contributes is stored as computed
    assert np.array_equal(C0.data, [1.0, 0.0, 5.0]) and np.signbit(C0.data[1])


def test_shifted_family_members_share_no_memory():
    rng = np.random.default_rng(11)
    family = shifted_family([1.0, 2.0, 3.0], identity(6), random_sparse(6, rng))
    for i, X in enumerate(family):
        for Y in family[i + 1:]:
            for name in ("data", "indices", "indptr"):
                assert not np.shares_memory(getattr(X, name), getattr(Y, name))


def test_shifted_family_members_are_valid_independent_matrices():
    rng = np.random.default_rng(12)
    E = random_sparse(8, rng)
    A = random_sparse(8, rng, complex_values=True)
    family = shifted_family([0.5, -2.0, 1j], E, A)
    for X in family:
        X.check_format(full_check=True)
        assert X.has_canonical_format and X.has_sorted_indices
        for name in ("data", "indices", "indptr"):
            for operand in (E, A):
                assert not np.shares_memory(getattr(X, name), getattr(operand, name))
    before = [(X.data.copy(), X.indices.copy(), X.indptr.copy()) for X in family]
    family[0].data[:] = 7.0
    family[0].indices[:] = 0
    family[0].indptr[1:] = 0
    for X, (data, indices, indptr) in zip(family[1:], before[1:]):
        assert np.array_equal(X.data, data)
        assert np.array_equal(X.indices, indices)
        assert np.array_equal(X.indptr, indptr)


def test_shifted_family_empty():
    assert shifted_family([], identity(3), identity(3)) == []


def test_frobenius_norm_cases():
    A = as_csc(np.diag([3.0, 4.0]))
    assert frobenius_norm_diff(A, A) == 0.0
    assert frobenius_norm_diff(A, as_csc(np.zeros((2, 2)))) == 5.0
    assert frobenius_norm_diff(A) == 5.0


def test_frobenius_norm_against_dense():
    rng = np.random.default_rng(9)
    A = random_sparse(12, rng)
    B = random_sparse(12, rng)
    got = frobenius_norm_diff(A, B)
    want = np.linalg.norm(A.toarray() - B.toarray())
    assert abs(got - want) <= 1e-14 * want


def test_frobenius_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        frobenius_norm_diff(identity(2), identity(3))
