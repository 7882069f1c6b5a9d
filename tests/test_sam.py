import numpy as np
import pytest
import scipy.sparse as sp

from samkit import (
    PreconditionerChain, SparsityPattern, as_csc, compose, compute_map,
    frobenius_norm_diff, identity, map_residual_norm, matvec, offset_pattern,
    pattern_of, plan,
)
from samkit.sam import _solve_columns, _values
from helpers import grid_laplacian_triplets, random_pattern, random_sparse


def dense_minnorm_oracle(A_dense, ref_dense, S):
    """Column-by-column minimum-norm least squares on the full dense matrices."""
    N = np.zeros((S.nrows, S.ncols), dtype=A_dense.dtype)
    for j in range(S.ncols):
        s = S.column(j)
        if s.size == 0:
            continue
        z, *_ = np.linalg.lstsq(A_dense[:, s], ref_dense[:, j], rcond=None)
        N[s, j] = z
    return N


def test_plan_diagonal_case():
    A = as_csc(np.diag([2.0, 3.0, 4.0]))
    S = offset_pattern(3, [0])
    pl = plan(S, A)
    for l in range(3):
        assert np.array_equal(pl.col_idx[pl.col_ptr[l]:pl.col_ptr[l + 1]], [l])
        assert np.array_equal(pl.row_idx[pl.row_ptr[l]:pl.row_ptr[l + 1]], [l])
        assert pl.block_shape(l) == (1, 1)


def test_plan_grid_corner_column_row_union():
    rows, cols, vals = grid_laplacian_triplets(3, 3)
    A = as_csc(sp.csc_matrix((vals, (rows, cols)), shape=(9, 9)))
    S = pattern_of(A)
    pl = plan(S, A)
    # brute-force union of the stencil columns selected by the corner column
    s0 = S.column(0)
    assert np.array_equal(s0, [0, 1, 3])
    want = np.unique(np.concatenate([A.indices[A.indptr[j]:A.indptr[j + 1]] for j in s0]))
    got = pl.row_idx[pl.row_ptr[0]:pl.row_ptr[1]]
    assert np.array_equal(got, want)
    assert pl.block_shape(0) == (want.size, 3)


def test_plan_empty_column_degenerate():
    A = as_csc(np.diag([1.0, 2.0]))
    S = SparsityPattern.from_positions(2, 2, [0], [0])  # column 1 empty
    with pytest.warns(UserWarning):
        pl = plan(S, A)
    assert np.array_equal(pl.degenerate_columns, [1])
    assert pl.row_ptr[2] - pl.row_ptr[1] == 0


def test_plan_dimension_mismatch():
    with pytest.raises(ValueError):
        plan(offset_pattern(3, [0]), identity(4))


def test_plan_rhs_rows_augmentation():
    # reference column reaches row 2, the map columns do not
    A = as_csc(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    ref = as_csc(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]]))
    pl = plan(offset_pattern(3, [0]), A, A_ref=ref)
    # the row set gains the reference column's row 2
    assert np.array_equal(pl.row_idx[pl.row_ptr[0]:pl.row_ptr[1]], [0, 2])
    m = compute_map(A, ref, pl)
    exact = map_residual_norm(A, m.N, ref)
    assert abs(m.rel_residual - exact) <= 1e-14
    # a plan made for A alone leaves row 2 out; the residual still counts it
    m_out = compute_map(A, ref, plan(offset_pattern(3, [0]), A))
    assert abs(m_out.rel_residual - exact) <= 1e-14
    # a row set left empty by such a plan still counts its reference column
    A = as_csc([[1.0, 0.0], [0.0, 0.0]])
    m_empty = compute_map(A, identity(2), plan(offset_pattern(2, [0]), A))
    assert not m_empty.N[:, 1].toarray().any()
    assert np.array_equal(m_empty.column_residuals, [0.0, 1.0])
    assert m_empty.rel_residual == 1 / np.sqrt(2)


def test_compute_map_identity_case():
    rng = np.random.default_rng(0)
    A = random_sparse(30, rng, diag_boost=30.0)
    pl = plan(pattern_of(A), A)
    m = compute_map(A, A, pl)
    assert frobenius_norm_diff(m.N, identity(30)) <= 1e-12
    assert m.rel_residual <= 1e-13


def test_compute_map_diagonal_algebra():
    A_k = as_csc(np.diag([2.0, 4.0]))
    A_ref = as_csc(np.diag([1.0, 2.0]))
    pl = plan(offset_pattern(2, [0]), A_k, A_ref=A_ref)
    m = compute_map(A_k, A_ref, pl)
    assert np.allclose(m.N.toarray(), np.diag([0.5, 0.5]), atol=1e-15)
    assert m.rel_residual <= 1e-15


def test_compute_map_worked_2x2():
    A_k = as_csc(np.array([[2.0, 1.0], [0.0, 1.0]]))
    A_ref = identity(2)
    pl = plan(offset_pattern(2, [0]), A_k, A_ref=A_ref)
    m = compute_map(A_k, A_ref, pl)
    assert np.allclose(m.N.toarray(), np.diag([0.5, 0.5]), atol=1e-15)
    # column 2 residual is (0.5, -0.5)
    assert abs(m.column_residuals[1] - np.sqrt(0.5)) <= 1e-14
    assert abs(m.rel_residual - 0.5) <= 1e-14
    assert abs(map_residual_norm(A_k, m.N, A_ref) - 0.5) <= 1e-14


def test_compute_map_structural_mismatch_names_column():
    rng = np.random.default_rng(1)
    A = random_sparse(6, rng, diag_boost=6.0)
    pl = plan(pattern_of(A), A)
    dense = A.toarray()
    hole = np.argwhere(dense == 0)
    row, col = hole[-1]
    B = as_csc(A + sp.csc_matrix(([1.0], ([row], [col])), shape=(6, 6)))
    with pytest.raises(ValueError, match=f"column: {col}"):
        compute_map(B, A, pl)


def test_compute_map_rank_deficient_minimum_norm():
    # column 1 of A is structurally empty, so its unknown must come out zero
    A = as_csc(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ref = identity(2)
    S = SparsityPattern.from_positions(2, 2, [0, 1, 0, 1], [0, 0, 1, 1])
    pl = plan(S, A, A_ref=ref)
    m = compute_map(A, ref, pl)
    Nd = m.N.toarray()
    oracle = dense_minnorm_oracle(A.toarray(), np.eye(2), S)
    assert np.allclose(Nd, oracle, atol=1e-12)
    assert abs(Nd[1, 0]) == 0.0 and abs(Nd[1, 1]) == 0.0


def test_compute_map_empty_pattern_column():
    A = as_csc(np.diag([1.0, 2.0]))
    S = SparsityPattern.from_positions(2, 2, [0], [0])
    with pytest.warns(UserWarning):
        pl = plan(S, A)
    m = compute_map(A, A, pl)
    assert np.array_equal(m.degenerate_columns, [1])
    assert m.N[:, 1].nnz == 0
    # the unmatched reference column contributes its whole norm
    assert abs(m.column_residuals[1] - 2.0) <= 1e-15
    assert abs(m.rel_residual - 2.0 / np.sqrt(5.0)) <= 1e-15


def test_compute_map_matches_dense_oracle_random():
    rng = np.random.default_rng(2)
    for trial in range(5):
        A = random_sparse(25, rng, diag_boost=25.0)
        ref = random_sparse(25, rng, diag_boost=25.0)
        S = random_pattern(25, rng)
        pl = plan(S, A, A_ref=ref)
        m = compute_map(A, ref, pl)
        oracle = dense_minnorm_oracle(A.toarray(), ref.toarray(), S)
        err = np.abs(m.N.toarray() - oracle).max()
        assert err <= 1e-10 * max(1.0, np.abs(oracle).max())


def test_compute_map_complex():
    rng = np.random.default_rng(3)
    A = random_sparse(15, rng, diag_boost=15.0, complex_values=True)
    ref = random_sparse(15, rng, diag_boost=15.0, complex_values=True)
    S = pattern_of(ref)
    pl = plan(S, A, A_ref=ref)
    m = compute_map(A, ref, pl)
    assert m.N.dtype == np.complex128
    oracle = dense_minnorm_oracle(A.toarray(), ref.toarray(), S)
    assert np.abs(m.N.toarray() - oracle).max() <= 1e-10 * max(1.0, np.abs(oracle).max())
    assert abs(m.rel_residual - map_residual_norm(A, m.N, ref)) <= 1e-12


def test_compute_map_orthogonality_invariant():
    rng = np.random.default_rng(4)
    A = random_sparse(20, rng, diag_boost=20.0)
    ref = random_sparse(20, rng, diag_boost=20.0)
    S = random_pattern(20, rng)
    pl = plan(S, A, A_ref=ref)
    m = compute_map(A, ref, pl)
    Ad = A.toarray()
    refd = ref.toarray()
    Nd = m.N.toarray()
    for l in range(20):
        s = S.column(l)
        r = pl.row_idx[pl.row_ptr[l]:pl.row_ptr[l + 1]]
        B = Ad[np.ix_(r, s)]
        resid = B @ Nd[s, l] - refd[r, l]
        lhs = np.linalg.norm(B.conj().T @ resid)
        assert lhs <= max(1e-10 * np.linalg.norm(B) * np.linalg.norm(refd[r, l]), 1e-12)


def test_compute_map_nested_pattern_monotonicity():
    rng = np.random.default_rng(5)
    A = random_sparse(20, rng, diag_boost=20.0)
    ref = random_sparse(20, rng, diag_boost=20.0)
    S1 = random_pattern(20, rng, lo=2, hi=4)
    extra = random_pattern(20, rng, lo=1, hi=3)
    from samkit import pattern_union
    S2 = pattern_union(S1, extra)
    res = []
    for S in (S1, S2):
        m = compute_map(A, ref, plan(S, A, A_ref=ref))
        res.append(map_residual_norm(A, m.N, ref))
    assert res[1] <= res[0] + 1e-12


def test_compute_map_pattern_containment():
    rng = np.random.default_rng(6)
    A = random_sparse(15, rng, diag_boost=15.0)
    S = random_pattern(15, rng)
    m = compute_map(A, A, plan(S, A))
    from samkit import is_subset
    assert is_subset(pattern_of(m.N), S)


def test_column_decoupling_bitwise():
    rng = np.random.default_rng(7)
    A = random_sparse(18, rng, diag_boost=18.0)
    ref = random_sparse(18, rng, diag_boost=18.0)
    S = random_pattern(18, rng)
    pl = plan(S, A, A_ref=ref)
    m = compute_map(A, ref, pl)
    blocks, rhs, out_sq = _values(A, ref, pl)
    for l in (0, 5, 17):
        val = np.zeros(pl.col_ptr[-1], dtype=blocks.dtype)
        col_res = np.zeros(pl.n)
        _solve_columns(l, l + 1, pl, blocks, rhs, out_sq, val, col_res)
        k0, k1 = pl.col_ptr[l], pl.col_ptr[l + 1]
        assert val[k0:k1].tobytes() == m.N.data[k0:k1].tobytes()
        assert col_res[l] == m.column_residuals[l]


def test_worker_determinism():
    rng = np.random.default_rng(8)
    A = random_sparse(40, rng, diag_boost=40.0)
    ref = random_sparse(40, rng, diag_boost=40.0)
    pl = plan(random_pattern(40, rng), A, A_ref=ref)
    m1 = compute_map(A, ref, pl, workers=1)
    m5 = compute_map(A, ref, pl, workers=5)
    assert m1.N.data.tobytes() == m5.N.data.tobytes()
    assert np.array_equal(m1.N.indices, m5.N.indices)


def test_map_residual_norm_trivial_cases():
    A = as_csc(np.diag([2.0, 4.0]))
    ref = as_csc(np.diag([1.0, 2.0]))
    N = as_csc(np.diag([0.5, 0.5]))
    assert map_residual_norm(A, N, ref) <= 1e-15
    Z = as_csc(np.zeros((2, 2)))
    assert map_residual_norm(A, Z, ref) == 1.0
    with pytest.raises(ValueError):
        map_residual_norm(A, N, Z)
    with pytest.raises(ValueError):
        map_residual_norm(A, N, identity(3))


def test_compose_identity_map_behaves_like_p():
    rng = np.random.default_rng(9)
    P = random_sparse(10, rng)
    chain = compose(identity(10), P)
    v = rng.standard_normal(10)
    assert np.array_equal(chain.apply(v), matvec(P, v))


def test_compose_identity_operator():
    rng = np.random.default_rng(10)
    N = random_sparse(10, rng)
    chain = compose(N, None)
    v = rng.standard_normal(10)
    assert np.array_equal(chain.apply(v), matvec(N, v))


def test_compose_matches_dense_product():
    rng = np.random.default_rng(11)
    N = random_sparse(12, rng)
    P = random_sparse(12, rng)
    chain = compose(N, P)
    v = rng.standard_normal(12)
    want = (N.toarray() @ P.toarray()) @ v
    assert np.linalg.norm(chain.apply(v) - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


def test_compose_nests():
    rng = np.random.default_rng(12)
    N1 = random_sparse(9, rng)
    N2 = random_sparse(9, rng)
    P = random_sparse(9, rng)
    chain = compose(N2, compose(N1, P))
    v = rng.standard_normal(9)
    want = N2.toarray() @ (N1.toarray() @ (P.toarray() @ v))
    assert np.allclose(chain.apply(v), want, atol=1e-12)


def test_compose_shape_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_chain_rejects_unknown_stage():
    chain = PreconditionerChain([object()])
    with pytest.raises(TypeError):
        chain.apply(np.ones(2))
