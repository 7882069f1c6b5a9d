import heapq
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from samkit import FactorizationError, IlutpFactors, IlutpParams, as_csc, factor, fem_pair_2d
from samkit.ilutp import PIVOT_FLOOR, _keep_largest, _rows_to_csc
from helpers import random_sparse, refusal_in_child


def dense_lu_column_pivot(Ad, pivtol=1.0):
    """Dense elimination with the same column-pivot rule; the test oracle."""
    n = Ad.shape[0]
    W = Ad.astype(complex if np.iscomplexobj(Ad) else float).copy()
    cp = np.arange(n)
    for i in range(n):
        piv = i + int(np.argmax(np.abs(W[i, i:])))
        if abs(W[i, piv]) * pivtol > abs(W[i, i]):
            W[:, [i, piv]] = W[:, [piv, i]]
            cp[[i, piv]] = cp[[piv, i]]
        for r in range(i + 1, n):
            W[r, i] /= W[i, i]
            W[r, i + 1:] -= W[r, i] * W[i, i + 1:]
    return np.tril(W, -1) + np.eye(n), np.triu(W), cp


def test_params_validation():
    with pytest.raises(ValueError, match="^lfil must be at least 0, not -1$"):
        IlutpParams(lfil=-1)
    with pytest.raises(ValueError):
        IlutpParams(droptol=-0.5)
    with pytest.raises(ValueError):
        IlutpParams(pivtol=1.5)
    # bool is an Integral, but True is not a count: it was taken as 1
    with pytest.raises(ValueError, match="^lfil must be an integer, not True$"):
        IlutpParams(lfil=True)


@pytest.mark.parametrize("kwargs", [
    {"droptol": np.nan}, {"pivtol": np.nan}, {"lfil": 2.5}, {"lfil": 2.0}, {"lfil": np.nan},
])
def test_params_reject_nan_and_non_integers(kwargs):
    # a NaN droptol kept only U's diagonal, and a fractional lfil failed deep in the factor
    with pytest.raises(ValueError):
        IlutpParams(**kwargs)


def test_diagonal_matrix():
    A = as_csc(np.diag([3.0, -2.0, 5.0]))
    F = factor(A, IlutpParams())
    assert np.array_equal(F.L.toarray(), np.eye(3))
    assert np.array_equal(F.U.toarray(), A.toarray())
    assert np.array_equal(F.colperm, [0, 1, 2])


def test_worked_2x2_no_pivoting():
    A = as_csc(np.array([[2.0, 1.0], [1.0, 2.0]]))
    F = factor(A, IlutpParams(lfil=2, droptol=0.0, pivtol=0.0))
    assert np.allclose(F.L.toarray(), [[1.0, 0.0], [0.5, 1.0]])
    assert np.allclose(F.U.toarray(), [[2.0, 1.0], [0.0, 1.5]])


def test_antidiagonal_pivots():
    A = as_csc(np.array([[0.0, 1.0], [1.0, 0.0]]))
    F = factor(A, IlutpParams(lfil=2, droptol=0.0, pivtol=1.0))
    assert np.array_equal(F.colperm, [1, 0])
    got = F.apply_solve(np.array([3.0, 7.0]))
    assert np.array_equal(got, [7.0, 3.0])


def test_antidiagonal_without_pivoting_fails():
    A = as_csc(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(FactorizationError) as err:
        factor(A, IlutpParams(lfil=2, droptol=0.0, pivtol=0.0))
    assert err.value.row == 0


def test_empty_row_fails_with_row_number():
    A = as_csc(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(FactorizationError) as err:
        factor(A, IlutpParams())
    assert err.value.row == 1


def test_row_norm_does_not_overflow():
    # each row's norm comes from BLAS nrm2, which scales internally; at 2**600
    # the squares of a plain norm overflowed, with a warning, and every
    # off-diagonal entry of U fell below an infinite drop threshold.  At that
    # scale every multiplier, which does not scale with A, falls below the
    # threshold, which does, so L = I
    K = fem_pair_2d(4, 4)[0]
    F = factor(2.0**600 * K, IlutpParams())
    assert np.array_equal(F.L.toarray(), np.eye(16))
    assert np.array_equal(F.U.toarray(), np.ldexp(np.triu(K.toarray()), 600))
    assert np.array_equal(F.colperm, np.arange(16))


def test_non_finite_pivot_fails_with_row_number():
    for bad in (np.nan, np.inf, complex(np.nan, 0.0)):
        A = as_csc(np.array([[2.0, 0.0], [0.0, bad]]))
        with pytest.raises(FactorizationError) as err:
            factor(A, IlutpParams())
        assert err.value.row == 1


def test_exactness_limit_and_oracle_agreement():
    rng = np.random.default_rng(0)
    for _ in range(20):
        Ad = rng.standard_normal((30, 30)) + 30 * np.eye(30)
        A = as_csc(Ad)
        F = factor(A, IlutpParams(lfil=30, droptol=0.0, pivtol=1.0))
        err = np.linalg.norm(Ad[:, F.colperm] - (F.L @ F.U).toarray())
        assert err <= 1e-12 * np.linalg.norm(Ad)
        Ld, Ud, cp = dense_lu_column_pivot(Ad)
        assert np.array_equal(cp, F.colperm)
        assert np.allclose(F.L.toarray(), Ld, atol=1e-12)
        assert np.allclose(F.U.toarray(), Ud, atol=1e-10)


def test_exactness_limit_complex():
    rng = np.random.default_rng(1)
    Ad = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)) + 20 * np.eye(20)
    F = factor(as_csc(Ad), IlutpParams(lfil=20, droptol=0.0, pivtol=1.0))
    err = np.linalg.norm(Ad[:, F.colperm] - (F.L @ F.U).toarray())
    assert err <= 1e-12 * np.linalg.norm(Ad)


def test_fill_bounds():
    rng = np.random.default_rng(2)
    A = random_sparse(40, rng, per_col=12, diag_boost=40.0)
    for lfil in (2, 5):
        F = factor(A, IlutpParams(lfil=lfil, droptol=0.0, pivtol=1.0))
        L = F.L.tocsr()
        U = F.U.tocsr()
        for i in range(40):
            assert L.indptr[i + 1] - L.indptr[i] - 1 <= lfil  # unit diagonal stored
            assert U.indptr[i + 1] - U.indptr[i] - 1 <= lfil  # diagonal excluded


def test_apply_solve_diagonal():
    F = factor(as_csc(np.diag([2.0, 4.0])), IlutpParams())
    assert np.array_equal(F.apply_solve(np.array([2.0, 4.0])), [1.0, 1.0])


def test_apply_solve_inverts_exact_factorization():
    rng = np.random.default_rng(3)
    A = random_sparse(25, rng, diag_boost=25.0)
    F = factor(A, IlutpParams(lfil=25, droptol=0.0, pivtol=1.0))
    for _ in range(3):
        x = rng.standard_normal(25)
        got = F.apply_solve(A @ x)
        assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)


def test_apply_solve_linearity():
    rng = np.random.default_rng(4)
    A = random_sparse(15, rng, diag_boost=15.0)
    F = factor(A, IlutpParams(lfil=3, droptol=1e-2, pivtol=1.0))
    v = rng.standard_normal(15)
    w = rng.standard_normal(15)
    alpha = 0.7
    lhs = F.apply_solve(alpha * v + w)
    rhs = alpha * F.apply_solve(v) + F.apply_solve(w)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def dense_apply_solve(F, v):
    """A^{-1} v through the dense factors; the test oracle for apply_solve."""
    L, U = F.L.toarray(), F.U.toarray()
    v = v.astype(np.result_type(L, v))
    z = sla.solve_triangular(U, sla.solve_triangular(L, v, lower=True, unit_diagonal=True))
    x = np.empty_like(z)
    x[F.colperm] = z
    return x


@pytest.mark.parametrize("complex_factors", [False, True])
def test_apply_solve_matches_dense_oracle(complex_factors):
    rng = np.random.default_rng(5)
    A = random_sparse(40, rng, diag_boost=0.5, complex_values=complex_factors)
    F = factor(A, IlutpParams(lfil=5, droptol=1e-2, pivtol=1.0))
    assert np.any(F.colperm != np.arange(40))  # the pivoted path is exercised
    # canonical CSC factors: L unit lower triangular, U upper with a nonzero diagonal
    for T in (F.L, F.U):
        assert T.format == "csc" and T.has_canonical_format
        cols = np.repeat(np.arange(40), np.diff(T.indptr))
        assert np.all(np.diff(T.indices)[np.diff(cols) == 0] > 0)  # sorted, no duplicates
    Ld, Ud = F.L.toarray(), F.U.toarray()
    assert np.array_equal(Ld, np.tril(Ld)) and np.array_equal(np.diag(Ld), np.ones(40))
    assert np.array_equal(Ud, np.triu(Ud)) and np.all(np.diag(Ud) != 0)
    vectors = [rng.standard_normal(40), rng.standard_normal(40) + 1j * rng.standard_normal(40)]
    for v in vectors:
        got, want = F.apply_solve(v), dense_apply_solve(F, v)
        assert got.dtype == want.dtype
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_triangular_factorizations_keep_order_and_fill():
    rng = np.random.default_rng(6)
    F = factor(random_sparse(30, rng, diag_boost=0.5), IlutpParams(lfil=6, droptol=1e-3, pivtol=1.0))
    identity_perm = np.arange(30)
    for lu, T in ((F._L_lu, F.L), (F._U_lu, F.U)):
        assert np.array_equal(lu.perm_r, identity_perm)
        assert np.array_equal(lu.perm_c, identity_perm)
        # one factor is T itself, the other the stored unit diagonal: no fill
        assert lu.L.nnz + lu.U.nnz - 30 == T.nnz


def test_apply_solve_length_check():
    F = factor(sp.identity(3, format="csc"), IlutpParams())
    with pytest.raises(ValueError):
        F.apply_solve(np.ones(4))
    # a complex vector on real factors is solved as two real columns
    with pytest.raises(ValueError):
        F.apply_solve(np.ones(4, dtype=complex))


def test_complex_vector_on_real_factors_rejoins_parts_exactly():
    # the imaginary part overflows to inf; rejoined as z.real + 1j * z.imag,
    # 1j * inf made the real part NaN and warned
    F = IlutpFactors(sp.identity(2, format="csc"), as_csc(np.diag([1.0, 1e-300])), [0, 1])
    v = np.array([1.0, 1.0 + 1e10j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, real = F.apply_solve(v), F.apply_solve(v.real)
    assert got.dtype == np.complex128
    assert got.real.tobytes() == real.tobytes()
    assert np.array_equal(got.imag, [0.0, np.inf])


@pytest.mark.parametrize("colperm", [[0, 0, 1], [0, 1, 5], [0, 1]])
def test_factors_refuse_a_colperm_that_is_not_a_permutation(colperm):
    # a repeated entry left an answer entry unwritten, and an entry past n
    # raised IndexError only at the first apply
    I3 = sp.identity(3, format="csc")
    with pytest.raises(ValueError, match=r"^colperm must be a permutation of range\(n\)$"):
        IlutpFactors(I3, I3, colperm)


def test_factors_keep_canonical_factors_and_refuse_malformed_ones():
    F = factor(random_sparse(20, np.random.default_rng(9), diag_boost=20.0))
    G = IlutpFactors(F.L, F.U, F.colperm)
    assert G.L is F.L and G.U is F.U
    # SuperLU read a decreasing indptr unchecked, and the process died with SIGSEGV
    for call in ("samkit.IlutpFactors(bad, good, np.arange(50))", "samkit.IlutpFactors(good, bad, np.arange(50))"):
        assert refusal_in_child(call) == (0, "indptr must be a non-decreasing sequence")


def test_droptol_produces_incomplete_factors():
    rng = np.random.default_rng(5)
    A = random_sparse(30, rng, per_col=8, diag_boost=5.0)
    exact = factor(A, IlutpParams(lfil=30, droptol=0.0, pivtol=1.0))
    dropped = factor(A, IlutpParams(lfil=30, droptol=0.2, pivtol=1.0))
    assert dropped.L.nnz + dropped.U.nnz < exact.L.nnz + exact.U.nnz


def test_factor_requires_square():
    # the empty matrix failed inside numpy with "need at least one array to concatenate"
    for r, c in ((2, 3), (0, 0)):
        with pytest.raises(ValueError, match=f"^factor: matrix must be square and nonempty, not {r}x{c}$"):
            factor(sp.csc_matrix((r, c)), IlutpParams())


def test_factor_refuses_malformed_index_arrays():
    bad = sp.csc_matrix((np.ones(5), [0, 5, 1, 2, 2], [0, 2, 3, 5]), shape=(3, 3))
    with pytest.raises(ValueError, match="indices must be < 3"):
        factor(bad)
    bad.indptr[1:] = [3, 2, 5]  # decreasing column pointers
    bad.indices[1] = 1
    with pytest.raises(ValueError, match="non-decreasing"):
        factor(bad)


def _dense_row_factor(A, params):
    """The earlier factor loop, which kept its working row in a dense length-n array.

    The reference for the dict row: a value array and a presence mask, a list
    of touched columns and a reset after each row.  Returns the CSC factors
    and the column permutation, or raises the same FactorizationError.
    """
    R = A.tocsr()
    n, dtype = R.shape[0], R.dtype
    lfil, droptol, pivtol = params.lfil, params.droptol, params.pivtol
    perm = np.arange(n, dtype=np.int64)
    iperm = np.arange(n, dtype=np.int64)
    w = np.zeros(n, dtype=dtype)
    present = np.zeros(n, dtype=bool)
    uinv = np.zeros(n, dtype=dtype)
    udiag = np.zeros(n, dtype=dtype)
    urow_cols, urow_vals, lrow_cols, lrow_vals = ([None] * n for _ in range(4))
    for ii in range(n):
        j0, j1 = R.indptr[ii], R.indptr[ii + 1]
        cols0, vals0 = R.indices[j0:j1], R.data[j0:j1]
        if j0 == j1:
            raise FactorizationError(ii, f"row {ii} of the matrix is empty")
        tnorm = droptol * float(np.linalg.norm(vals0))
        w[cols0] = vals0
        present[cols0] = True
        touched = list(cols0)
        heap = [(int(perm[c]), int(c)) for c in cols0 if perm[c] < ii]
        heapq.heapify(heap)
        lcols, lvals = [], []
        while heap:
            p, c = heapq.heappop(heap)
            fact = w[c] * uinv[p]
            present[c] = False
            w[c] = 0
            if abs(fact) < tnorm or fact == 0:
                continue
            ucols = urow_cols[p]
            fresh = ucols[~present[ucols]]
            w[ucols] -= fact * urow_vals[p]
            if fresh.size:
                present[fresh] = True
                touched.extend(int(c2) for c2 in fresh)
                for c2 in fresh:
                    if perm[c2] < ii:
                        heapq.heappush(heap, (int(perm[c2]), int(c2)))
            lcols.append(c)
            lvals.append(fact)
        diag_col = iperm[ii]
        diag_val = w[diag_col]
        upper = np.array([c for c in touched if present[c] and c != diag_col], dtype=np.int64)
        upper_vals = w[upper]
        keep = np.abs(upper_vals) >= tnorm
        upper, upper_vals = upper[keep], upper_vals[keep]
        if upper.size:
            best = _keep_largest(upper, upper_vals, 1)[0]
            if abs(upper_vals[best]) * pivtol > abs(diag_val):
                swap_col = upper[best]
                pos_swap = perm[swap_col]
                perm[diag_col], perm[swap_col] = pos_swap, ii
                iperm[ii] = swap_col
                iperm[pos_swap] = diag_col
                new_upper = np.delete(upper, best)
                new_vals = np.delete(upper_vals, best)
                if abs(diag_val) >= tnorm:
                    new_upper = np.append(new_upper, diag_col)
                    new_vals = np.append(new_vals, diag_val)
                diag_val = upper_vals[best]
                upper, upper_vals = new_upper, new_vals
        if not PIVOT_FLOOR <= abs(diag_val) < np.inf:
            raise FactorizationError(ii)
        udiag[ii] = diag_val
        uinv[ii] = 1.0 / diag_val
        lc = np.asarray(lcols, dtype=np.int64)
        lv = np.asarray(lvals, dtype=dtype)
        sel = _keep_largest(lc, lv, lfil)
        lrow_cols[ii], lrow_vals[ii] = lc[sel], lv[sel]
        sel = _keep_largest(upper, upper_vals, lfil)
        urow_cols[ii], urow_vals[ii] = upper[sel], upper_vals[sel]
        reset = np.asarray(touched, dtype=np.int64)
        w[reset] = 0
        present[reset] = False
    L = _rows_to_csc(lrow_cols, lrow_vals, np.ones(n, dtype=dtype), perm)
    U = _rows_to_csc(urow_cols, urow_vals, udiag, perm)
    return L, U, iperm.copy()


REFERENCE_PARAMS = [IlutpParams(3, 1e-2, 1.0), IlutpParams(5, 0.0, 0.5), IlutpParams(40, 0.0, 1.0),
                    IlutpParams(2, 0.3, 0.1), IlutpParams(8, 1e-3, 0.0)]


def _reference_matrices(seed, count=40):
    """Seeded random sparse matrices, n 2-39, real and complex; every third is
    rounded to small integers, which gives exact cancellations and magnitude ties."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 40))
        A = random_sparse(n, rng, per_col=int(rng.integers(1, min(n, 6) + 1)),
                          diag_boost=[None, 0.5, 3.0][k % 3], complex_values=k % 2 == 1)
        if k % 3 == 2:
            A.data = np.round(2 * A.data)
        yield as_csc(A)


def _factors_or_row(A, params):
    try:
        F = factor(A, params)
    except FactorizationError as err:
        return err.row
    return F.L, F.U, F.colperm


@pytest.mark.parametrize("seed", [0, 1])
def test_dict_row_matches_dense_row_reference(seed):
    outcomes = set()
    for A in _reference_matrices(seed):
        for params in REFERENCE_PARAMS:
            got = _factors_or_row(A, params)
            try:
                want = _dense_row_factor(A, params)
            except FactorizationError as err:
                assert got == err.row
                outcomes.add("failed")
                continue
            for T, T_ref in zip(got[:2], want[:2]):
                for a, b in ((T.data, T_ref.data), (T.indices, T_ref.indices), (T.indptr, T_ref.indptr)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert got[2].dtype == want[2].dtype and got[2].tobytes() == want[2].tobytes()
            outcomes.add(A.dtype.kind + ("-pivoted" if np.any(want[2] != np.arange(A.shape[0])) else ""))
    # both fields, pivoted and unpivoted runs and refused rows are all exercised
    assert outcomes == {"f", "c", "f-pivoted", "c-pivoted", "failed"}
