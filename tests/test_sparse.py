import numpy as np
import pytest
import scipy.sparse as sp

from samkit import as_csc, compute_map, map_residual_norm, pattern_of, plan, sparsified_power
from samkit.sparse import check_indices, checked_csc, ldexp, norm_ratio, scale_exponent
from helpers import random_sparse, refusal_in_child, shifted_family


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


def test_complex_matrix_with_strided_data_is_its_contiguous_copy():
    # a real view of strided complex values is numpy's ValueError; the scale
    # helpers read a contiguous copy instead
    rng = np.random.default_rng(10)

    def strided(M):
        d = np.repeat(M.data, 2)
        return sp.csc_matrix((d[::2], M.indices, M.indptr), shape=M.shape)

    A, R = (random_sparse(20, rng, diag_boost=2.0, complex_values=True) for _ in range(2))
    As, Rs = strided(A), strided(R)
    assert not (As.data.flags.c_contiguous or Rs.data.flags.c_contiguous)
    S = pattern_of(A)
    m, ms = compute_map(A, R, plan(S, A, R)), compute_map(As, Rs, plan(S, As, Rs))
    for got, want in ((ms.N.data, m.N.data), (ms.column_residuals, m.column_residuals),
                      (np.float64(ms.rel_residual), np.float64(m.rel_residual))):
        assert got.tobytes() == want.tobytes()
    assert map_residual_norm(As, m.N, Rs) == map_residual_norm(A, m.N, R)
    P, Ps = sparsified_power(A, 2, 0.1), sparsified_power(As, 2, 0.1)
    assert all(np.array_equal(a, b) for a, b in ((Ps.indices, P.indices), (Ps.indptr, P.indptr), (Ps.data, P.data)))


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
