import numpy as np
import pytest
import scipy.sparse as sp

from samkit import SequenceSpec, as_csc
from samkit.sparse import check_indices, checked_csc, ldexp, matvec, norm_ratio, scale_exponent
from helpers import random_sparse, refusal_in_child, shifted_family


def test_matvec_identity_and_diagonal():
    x = np.array([3.0, -4.0])
    assert np.array_equal(matvec(sp.identity(2, format="csc"), x), x)
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
        matvec(sp.identity(3, format="csc"), np.ones(4))


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


def test_shifted_family_members_share_one_read_only_pattern():
    rng = np.random.default_rng(11)
    E = random_sparse(6, rng)
    A = random_sparse(6, rng)
    family = shifted_family([1.0, 2.0, 3.0], E, A)
    for X in family:
        for name in ("indices", "indptr"):
            assert getattr(X, name) is getattr(family[0], name)
            assert not getattr(X, name).flags.writeable
    # value rows are independent: writing one member's values leaves the others
    for i, X in enumerate(family):
        for Y in family[i + 1:]:
            assert not np.shares_memory(X.data, Y.data)
    before = [X.data.copy() for X in family]
    family[0].data[:] = 7.0
    for X, data in zip(family[1:], before[1:]):
        assert np.array_equal(X.data, data)


def _by_combine(alphas, E, A):
    return [shifted_family([alpha], E, A)[0] for alpha in alphas]


@pytest.mark.parametrize("build", [shifted_family, _by_combine])
def test_shifted_members_are_valid_matrices_on_a_read_only_pattern(build):
    rng = np.random.default_rng(12)
    E = random_sparse(8, rng)
    A = random_sparse(8, rng, complex_values=True)
    alphas = [0.5, -2.0, 1j]
    family = build(alphas, E, A)
    before = [(X.data.copy(), X.indices.copy(), X.indptr.copy()) for X in family]
    x = rng.standard_normal(8)
    for alpha, X in zip(alphas, family):
        X.check_format(full_check=True)
        assert X.has_canonical_format and X.has_sorted_indices
        for name in ("data", "indices", "indptr"):
            for operand in (E, A):
                assert not np.shares_memory(getattr(X, name), getattr(operand, name))
        # an in-place write of the shared pattern fails and changes nothing
        with pytest.raises(ValueError):
            X.indices[:] = 0
        with pytest.raises(ValueError):
            X.indptr[1:] = 0
        dense = alpha * E.toarray() + A.toarray()
        assert np.allclose(X @ x, dense @ x, rtol=1e-14, atol=1e-14)
        assert np.array_equal(X.T.toarray(), dense.T)
        assert np.array_equal(X.tocsr().toarray(), dense)
        assert np.array_equal((-X).toarray(), -dense)
        assert np.array_equal((X - X).toarray(), np.zeros((8, 8)))
        C = X.copy()
        assert C.indices.flags.writeable and C.indptr.flags.writeable
        assert not np.shares_memory(C.indices, X.indices)
        C.indices[:] = 0
    for X, (data, indices, indptr) in zip(family, before):
        assert np.array_equal(X.data, data)
        assert np.array_equal(X.indices, indices)
        assert np.array_equal(X.indptr, indptr)


@pytest.mark.parametrize("alphas", [
    1.0, np.float64(2.0), [[1.0, 2.0]], np.ones((2, 1)),
    [1.0, np.nan], [np.inf], [1j, complex(0.0, np.nan)],
])
def test_shifted_family_rejects_alphas_not_finite_1d(alphas):
    # the message named shifted_family's alphas, not the caller's shifts
    with pytest.raises(ValueError, match="^shifts must be a 1-D sequence of finite values$"):
        SequenceSpec.shifted_pair(sp.identity(3, format="csc"), sp.identity(3, format="csc"), alphas)


@pytest.mark.parametrize("x, e", [
    ([0.0, -0.0], 0), ([5e-324, 0.0], -1073), ([-(2.0**-1000)], -999), ([2.0**1000, -1.0], 1001),
    ([3.0, np.inf], 0), ([np.nan, 3.0], 0), ([1.0, -np.inf + 1j], 0), ([], 0),
    # the largest part is 7 (exponent 3), though |5 + 7j| is above 8
    ([0.5, 5.0 + 7.0j], 3),
])
def test_scale_exponent_and_ldexp(x, e):
    x = np.array(x)
    assert scale_exponent(x) == e
    scaled = ldexp(x, -e)
    assert scaled.dtype == x.dtype
    if x.size and np.all(np.isfinite(x)) and np.any(x):
        assert 0.5 <= np.abs(scaled.view(float)).max() < 1
    # exact: scaling back gives x bit for bit, NaN and Inf included
    assert np.array_equal(ldexp(scaled, e), x, equal_nan=True)


def test_scale_exponent_per_axis():
    x = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, np.nan], [2.0**-600, 0.0]])
    assert scale_exponent(x, axis=1).tolist() == [1, 0, 0, -599]
    assert ldexp(x, -scale_exponent(x, axis=1))[3, 0] == 0.5


def test_norm_ratio():
    assert norm_ratio(3.0, 4.0) == 0.75
    # against a zero reference
    assert norm_ratio(0.0, 0.0) == 0.0
    assert norm_ratio(1e-300, 0.0) == np.inf


def test_as_csc_refuses_decreasing_column_pointers():
    # as_csc canonicalized a caller's matrix unchecked, and the process died with SIGSEGV
    assert refusal_in_child("samkit.as_csc(bad)") == (0, "indptr must be a non-decreasing sequence")


def test_check_indices_once_per_pattern(monkeypatch):
    family = shifted_family([1.0, 2.0, 3.0], sp.identity(4, format="csc"), as_csc(np.ones((4, 4))))
    arrays = [(M.data, M.indices, M.indptr) for M in family]
    full_checks = []
    check_format = sp.csc_matrix.check_format

    def counting(self, full_check=True):
        full_checks.append(full_check)
        return check_format(self, full_check)

    monkeypatch.setattr(sp.csc_matrix, "check_format", counting)
    check_indices(*family)
    assert full_checks == [True]
    # each matrix keeps its arrays: scipy's check may swap them
    assert all(M.data is d and M.indices is i and M.indptr is p for M, (d, i, p) in zip(family, arrays))
    own = family[0].copy()
    full_checks.clear()
    check_indices(*family, own, np.eye(4), None)
    assert full_checks == [True, True]
    # checked_csc checks as check_indices does, and returns canonical
    # matrices as they are
    other = sp.identity(4, format="csc")
    full_checks.clear()
    assert all(M is N for M, N in zip(checked_csc(*family, other), [*family, other], strict=True))
    assert full_checks == [True, True]
