import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import samkit.sam
from samkit import (
    IlutpFactors, IlutpParams, PreconditionerChain, SequenceSpec, as_csc,
    compute_map, factor, gmres,
    map_residual_norm, offset_pattern, pattern_of, plan, resolve_pattern,
)
from samkit.sam import RANK_TOL
from helpers import (
    grid_laplacian_triplets, padded, pattern_at, pattern_to_bool, random_pattern, random_sparse,
    refusal_in_child, row_sets, same_pattern,
)


def column(S, j):
    return S.indices[S.indptr[j]:S.indptr[j + 1]]


def batch_row(pl, l):
    """Column l's padded entries and unknowns, from the batch that holds it."""
    b = next(b for b in pl.batches if l in b.columns)
    k = np.flatnonzero(b.columns == l)[0]
    return b.entries[k], b.unknowns[k]


def gathers(pl, A, ref, l, block):
    """Whether the plan gathers column l's [B | f] from [0, A.data, ref.data] as block, zero-padded to its batch."""
    got = np.concatenate([[0], A.data, ref.data])[batch_row(pl, l)[0]]
    return np.array_equal(got, padded(block, got.shape))


def dense_block(A, ref, S, l):
    """Column l's [B | f] by dense indexing over the column's own row set."""
    rows = column(row_sets(S, A, ref), l)
    return np.column_stack([A.toarray()[np.ix_(rows, column(S, l))], ref.toarray()[rows, l]])


def dense_minnorm_oracle(A_dense, ref_dense, S):
    """Column-by-column minimum-norm least squares on the full dense matrices."""
    N = np.zeros(S.shape, dtype=A_dense.dtype)
    for j in range(S.shape[1]):
        s = column(S, j)
        if s.size == 0:
            continue
        z, *_ = np.linalg.lstsq(A_dense[:, s], ref_dense[:, j], rcond=None)
        N[s, j] = z
    return N


def test_plan_diagonal_case():
    A = as_csc(np.diag([2.0, 3.0, 4.0]))
    S = offset_pattern(3, [0])
    pl = plan(S, A, A)
    for l in range(3):
        assert np.array_equal(column(pl.structures[0], l), [l])
        assert gathers(pl, A, A, l, dense_block(A, A, S, l))
    assert [b.entries.shape for b in pl.batches] == [(3, 1, 2)]


def test_plan_grid_corner_column_row_union():
    rows, cols, vals = grid_laplacian_triplets(3, 3)
    A = as_csc(sp.csc_matrix((vals, (rows, cols)), shape=(9, 9)))
    S = pattern_of(A)
    pl = plan(S, A, A)
    # brute-force union of the stencil columns selected by the corner column
    s0 = column(S, 0)
    assert np.array_equal(s0, [0, 1, 3])
    want = np.unique(np.concatenate([A.indices[A.indptr[j]:A.indptr[j + 1]] for j in s0]))
    Ad = A.toarray()
    assert gathers(pl, A, A, 0, np.column_stack([Ad[np.ix_(want, s0)], Ad[want, 0]]))
    # the four corners share a size class, unpadded
    assert batch_row(pl, 0)[0].shape == (want.size, 4)


def test_plan_empty_column_degenerate():
    A = as_csc(np.diag([1.0, 2.0]))
    S = pattern_at((2, 2), [0], [0])  # column 1 empty
    with pytest.warns(UserWarning):
        pl = plan(S, A, A)
    # the empty column keeps its reference rows and gets a block with no columns
    assert gathers(pl, A, A, 1, [[2.0]])
    assert [b.entries.shape for b in pl.batches] == [(1, 1, 1), (1, 1, 2)]


def test_plan_pads_blocks_within_size_classes():
    rng = np.random.default_rng(16)
    A = random_sparse(15, rng, per_col=3, diag_boost=15.0)
    ref = random_sparse(15, rng, per_col=2, diag_boost=15.0)
    S = random_pattern(15, rng, lo=1, hi=5)
    pl = plan(S, A, A_ref=ref)
    nrows, counts = np.diff(row_sets(S, A, ref).indptr), np.diff(S.indptr)
    # some batch pads: its columns' blocks differ in shape
    assert any(np.unique(nrows[b.columns]).size > 1 or np.unique(counts[b.columns]).size > 1 for b in pl.batches)
    for b in pl.batches:
        (g, r, c1), c = b.entries.shape, b.unknowns.shape[1]
        assert c1 == c + 1 and g == b.columns.size
        # padding at most doubles each side of a block
        assert (r < 2 * nrows[b.columns]).all() and (c + 1 < 2 * (counts[b.columns] + 1)).all()
        # every slot of a padded row and of a padded unknown's column reads position 0
        pad_row, pad_unknown = np.arange(r) >= nrows[b.columns, None], np.arange(c) >= counts[b.columns, None]
        assert not b.entries[pad_row].any()
        assert not b.entries[..., :-1].transpose(0, 2, 1)[pad_unknown].any()
        # every padded unknown points one past the map's last entry, and the rest at the column's entries, in order
        assert (b.unknowns[pad_unknown] == S.nnz).all()
        assert np.array_equal(b.unknowns[~pad_unknown], np.concatenate([np.arange(*S.indptr[l:l + 2]) for l in b.columns]))
    m = compute_map(A, ref, pl)
    assert m.N.data.shape == (S.nnz,)


def test_plan_dense_column_costs_only_itself():
    # a tridiagonal matrix whose pattern has one dense column: its n x n block
    # gets a batch of its own, so padding never spreads it over the other columns
    n = 120
    A = as_csc(sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csc"))
    S = pattern_of(abs(A) + sp.csc_matrix((np.ones(n), (np.arange(n), np.zeros(n, dtype=int))), shape=(n, n)))
    pl = plan(S, A, A)
    nrows, counts = np.diff(row_sets(S, A, A).indptr), np.diff(S.indptr)
    assert counts[0] == n and nrows[0] == n
    assert sum(b.entries.size for b in pl.batches) <= 4 * (nrows * (counts + 1)).sum()
    assert batch_row(pl, 0)[0].shape == (n, n + 1)
    m = compute_map(A, A, pl)
    assert abs(m.rel_residual - map_residual_norm(A, m.N, A)) <= 1e-12


def same_plan(p, q):
    """Whether plans p and q hold the same structures and batch arrays, dtypes included."""
    arrays = [(a, b) for g, h in zip(p.batches, q.batches) for a, b in zip(g, h)]
    arrays += [(getattr(M, k), getattr(P, k)) for M, P in zip(p.structures, q.structures)
               for k in ("indptr", "indices")]
    return (all(M.shape == P.shape for M, P in zip(p.structures, q.structures)) and len(p.batches) == len(q.batches)
            and all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in arrays))


def test_plan_takes_any_sparse_matrix_as_pattern():
    rng = np.random.default_rng(14)
    A = random_sparse(12, rng, diag_boost=12.0, complex_values=True)
    ref = random_sparse(12, rng, diag_boost=12.0, complex_values=True)
    # the valued matrix and its pattern give one plan and one map, bit for bit
    pl, pl_pattern = plan(A, A, A_ref=ref), plan(pattern_of(A), A, A_ref=ref)
    assert same_plan(pl, pl_pattern)
    m, want = compute_map(A, ref, pl), compute_map(A, ref, pl_pattern)
    assert m.N.data.tobytes() == want.N.data.tobytes()
    assert m.column_residuals.tobytes() == want.column_residuals.tobytes()
    # a valued, non-canonical matrix is the pattern of its stored positions:
    # rows out of order, one duplicated per column, and a stored zero
    S0 = random_pattern(12, rng)
    indices, indptr = [], [0]
    for j in range(12):
        r = rng.permutation(column(S0, j))
        indices.extend(np.append(r, r[0]))
        indptr.append(len(indices))
    vals = rng.standard_normal(len(indices))
    vals[0] = 0.0
    M = sp.csc_matrix((vals, indices, indptr), shape=(12, 12))
    assert not M.has_canonical_format
    S = resolve_pattern(M, ref)
    assert same_pattern(S, pattern_of(M)) and same_pattern(S, S0)
    assert same_plan(plan(M, A, A_ref=ref), plan(S0, A, A_ref=ref))


def test_plan_dimension_mismatch():
    with pytest.raises(ValueError):
        plan(offset_pattern(3, [0]), sp.identity(4, format="csc"), sp.identity(4, format="csc"))
    I3, I4 = sp.identity(3, format="csc"), sp.identity(4, format="csc")
    with pytest.raises(ValueError, match=r"^plan: reference shape \(4, 4\) does not match matrix \(3, 3\)$"):
        plan(offset_pattern(3, [0]), I3, A_ref=I4)
    pl = plan(offset_pattern(3, [0]), I3, I3)
    for A, A_ref in ((I4, I3), (I3, I4)):
        with pytest.raises(ValueError, match="^compute_map: matrices must be 3x3$"):
            compute_map(A, A_ref, pl)


def test_plan_rhs_rows_augmentation():
    # reference column reaches row 2, the map columns do not
    A = as_csc(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    ref = as_csc(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]]))
    pl = plan(offset_pattern(3, [0]), A, A_ref=ref)
    # the row set gains the reference column's row 2: [B | f] over rows 0 and 2
    assert gathers(pl, A, ref, 0, [[1.0, 1.0], [0.0, 2.0]])
    m = compute_map(A, ref, pl)
    exact = map_residual_norm(A, m.N, ref)
    assert abs(m.rel_residual - exact) <= 1e-14
    # a block whose matrix part stores nothing still counts its reference column
    A = as_csc([[1.0, 0.0], [0.0, 0.0]])
    m_empty = compute_map(A, sp.identity(2, format="csc"), plan(offset_pattern(2, [0]), A, A_ref=sp.identity(2, format="csc")))
    assert not m_empty.N[:, 1].toarray().any()
    assert np.array_equal(m_empty.column_residuals, [0.0, 1.0])
    assert m_empty.rel_residual == 1 / np.sqrt(2)


def test_compute_map_identity_case():
    rng = np.random.default_rng(0)
    A = random_sparse(30, rng, diag_boost=30.0)
    pl = plan(pattern_of(A), A, A)
    m = compute_map(A, A, pl)
    assert spla.norm(m.N - sp.identity(30, format="csc")) <= 1e-12
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
    A_ref = sp.identity(2, format="csc")
    pl = plan(offset_pattern(2, [0]), A_k, A_ref=A_ref)
    m = compute_map(A_k, A_ref, pl)
    assert np.allclose(m.N.toarray(), np.diag([0.5, 0.5]), atol=1e-15)
    # column 2 residual is (0.5, -0.5)
    assert abs(m.column_residuals[1] - np.sqrt(0.5)) <= 1e-14
    assert abs(m.rel_residual - 0.5) <= 1e-14
    assert abs(map_residual_norm(A_k, m.N, A_ref) - 0.5) <= 1e-14


def _first_differing_column(A, B):
    """First column whose stored rows differ between A and B, by a per-column scan."""
    return next(j for j in range(A.shape[1])
                if not np.array_equal(A.indices[A.indptr[j]:A.indptr[j + 1]],
                                      B.indices[B.indptr[j]:B.indptr[j + 1]]))


def test_compute_map_structural_mismatch_names_column():
    rng = np.random.default_rng(1)
    A = random_sparse(6, rng, diag_boost=6.0)
    pl = plan(pattern_of(A), A, A)
    dense = A.toarray()
    hole = np.argwhere(dense == 0)
    row, col = hole[-1]
    added = as_csc(A + sp.csc_matrix(([1.0], ([row], [col])), shape=(6, 6)))
    coo = A.tocoo()
    rows, cols = coo.row, coo.col

    def rebuilt(new_rows, keep):
        return as_csc(sp.csc_matrix((A.data[keep], (new_rows[keep], cols[keep])), shape=(6, 6)))

    # the second stored entry of column 4 removed
    every = np.ones(A.nnz, dtype=bool)
    dropped = every.copy()
    dropped[A.indptr[4] + 1] = False
    removed = rebuilt(rows, dropped)
    # the first stored entry of column `col` moved to the row it lacks: the
    # column pointers match, only the row indices differ
    moved_rows = rows.copy()
    moved_rows[A.indptr[col]] = row
    moved = rebuilt(moved_rows, every)
    assert np.array_equal(moved.indptr, A.indptr) and not np.array_equal(moved.indices, A.indices)
    # both changes: two offending columns, and the first one is named
    both = rebuilt(moved_rows, dropped)
    assert col < 4
    for B, want in ((added, col), (removed, 4), (moved, col), (both, col)):
        assert _first_differing_column(A, B) == want
        with pytest.raises(ValueError, match=f"first offending column: {want}$"):
            compute_map(B, A, pl)


def test_compute_map_unplanned_reference_names_it():
    A = as_csc(np.diag([1.0, 2.0, 3.0]))
    pl = plan(offset_pattern(3, [0]), A, A)
    wider = as_csc(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 5.0, 3.0]]))
    with pytest.raises(ValueError, match="^reference structure differs from the plan, first offending column: 1$"):
        compute_map(A, wider, pl)
    # the reference's values may change; its structure may not
    assert compute_map(A, 2 * A, pl).rel_residual == 0.0


def test_compute_map_rank_deficient_minimum_norm():
    # column 1 of A is structurally empty, so its unknown must come out zero
    A = as_csc(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ref = sp.identity(2, format="csc")
    S = pattern_at((2, 2), [0, 1, 0, 1], [0, 0, 1, 1])
    pl = plan(S, A, A_ref=ref)
    m = compute_map(A, ref, pl)
    Nd = m.N.toarray()
    oracle = dense_minnorm_oracle(A.toarray(), np.eye(2), S)
    assert np.allclose(Nd, oracle, atol=1e-12)
    assert abs(Nd[1, 0]) == 0.0 and abs(Nd[1, 1]) == 0.0


def test_compute_map_empty_pattern_column():
    A = as_csc(np.diag([1.0, 2.0]))
    S = pattern_at((2, 2), [0], [0])
    with pytest.warns(UserWarning):
        pl = plan(S, A, A)
    m = compute_map(A, A, pl)
    assert m.N[:, 1].nnz == 0
    # the unmatched reference column contributes its whole norm
    assert abs(m.column_residuals[1] - 2.0) <= 1e-15
    assert abs(m.rel_residual - 2.0 / np.sqrt(5.0)) <= 1e-15
    # every column degenerate: no block entry to look up, N stores nothing
    with pytest.warns(UserWarning):
        pl = plan(offset_pattern(2, []), A, A)
    m = compute_map(A, A, pl)
    assert [b.entries.shape for b in pl.batches] == [(2, 1, 1)] and m.N.nnz == 0
    assert m.rel_residual == 1.0
    # a reference with no stored entries: no reference entry to place
    empty = as_csc(sp.csc_matrix((2, 2)))
    m = compute_map(A, empty, plan(pattern_of(A), A, A_ref=empty))
    assert m.rel_residual == 0.0
    # the cross-check follows compute_map's rule: A N is zero, so 0.0 too
    assert map_residual_norm(A, m.N, empty) == 0.0


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


@pytest.mark.parametrize("complex_matrix", [False, True])
def test_compute_map_mixed_fields_is_the_complex_map(complex_matrix):
    # a real A with a complex A_ref, or the other way round, is the map of both cast to complex
    rng = np.random.default_rng(21)
    A = random_sparse(15, rng, diag_boost=15.0, complex_values=complex_matrix)
    ref = random_sparse(15, rng, diag_boost=15.0, complex_values=not complex_matrix)
    pl = plan(pattern_of(ref), A, A_ref=ref)
    m = compute_map(A, ref, pl)
    want = compute_map(A.astype(np.complex128), ref.astype(np.complex128), pl)
    assert m.N.dtype == np.complex128
    assert m.N.data.tobytes() == want.N.data.tobytes()
    assert m.column_residuals.tobytes() == want.column_residuals.tobytes()
    assert m.rel_residual == want.rel_residual


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
    rows = row_sets(S, A, ref)
    for l in range(20):
        s = column(S, l)
        r = column(rows, l)
        B = Ad[np.ix_(r, s)]
        assert gathers(pl, A, ref, l, np.column_stack([B, refd[r, l]]))
        resid = B @ Nd[s, l] - refd[r, l]
        lhs = np.linalg.norm(B.conj().T @ resid)
        assert lhs <= max(1e-10 * np.linalg.norm(B) * np.linalg.norm(refd[r, l]), 1e-12)


def test_compute_map_nested_pattern_monotonicity():
    rng = np.random.default_rng(5)
    A = random_sparse(20, rng, diag_boost=20.0)
    ref = random_sparse(20, rng, diag_boost=20.0)
    S1 = random_pattern(20, rng, lo=2, hi=4)
    extra = random_pattern(20, rng, lo=1, hi=3)
    S2 = pattern_at((20, 20), *np.nonzero(pattern_to_bool(S1) | pattern_to_bool(extra)))
    res = []
    for S in (S1, S2):
        m = compute_map(A, ref, plan(S, A, A_ref=ref))
        res.append(map_residual_norm(A, m.N, ref))
    assert res[1] <= res[0] + 1e-12


def test_compute_map_pattern_containment():
    rng = np.random.default_rng(6)
    A = random_sparse(15, rng, diag_boost=15.0)
    S = random_pattern(15, rng)
    m = compute_map(A, A, plan(S, A, A))
    assert not (pattern_to_bool(pattern_of(m.N)) & ~pattern_to_bool(S)).any()


def gelsy_map(A, ref, pl):
    """Per-column reference solver: column-pivoted QR (LAPACK gelsy) with the
    rank cutoff RANK_TOL, one block at a time; returns (N dense, column residuals)."""
    Ad, refd, S = A.toarray(), ref.toarray(), pl.structures[0]
    rows = row_sets(S, A, ref)
    N = np.zeros(S.shape, dtype=np.result_type(Ad, refd))
    res = np.zeros(S.shape[1])
    for l in range(S.shape[1]):
        s = column(S, l)
        r = column(rows, l)
        B, f = Ad[np.ix_(r, s)], refd[r, l]
        if B.size:
            N[s, l] = sla.lstsq(B, f, cond=RANK_TOL, lapack_driver="gelsy")[0]
            f = B @ N[s, l] - f
        res[l] = np.linalg.norm(f)
    return N, res


def gelsy_case(n, rng, complex_values, wide):
    """Random A, reference and pattern whose columns 0 and 1 have empty blocks.

    With ``wide`` every column of A and of the reference stores two entries
    in the first five rows and pattern columns select 6-9 rows, so blocks
    have more unknowns than rows; otherwise they have more rows than unknowns.
    """
    def matrix():
        if not wide:
            return random_sparse(n, rng, complex_values=complex_values).toarray()
        D = np.zeros((n, n), dtype=complex if complex_values else float)
        for j in range(n):
            v = rng.standard_normal(2) + (1j * rng.standard_normal(2) if complex_values else 0)
            D[rng.choice(5, size=2, replace=False), j] = v
        return D

    A, ref = matrix(), matrix()
    # column 0 selects nothing; column 1 selects only A's empty column 3 and
    # has no reference entries, so its block has no rows
    A[:, 3] = 0
    ref[:, 1] = 0
    lo, hi = (6, 10) if wide else (1, 4)
    coo = random_pattern(n, rng, lo, hi).tocoo()
    rows, cols = coo.row, coo.col
    keep = cols > 1
    S = pattern_at((n, n), np.append(rows[keep], 3), np.append(cols[keep], 1))
    return as_csc(A), as_csc(ref), S


@pytest.mark.parametrize("complex_values", [False, True])
def test_compute_map_matches_gelsy_reference(complex_values):
    rng = np.random.default_rng(7)
    shapes = set()
    for trial in range(6):
        A, ref, S = gelsy_case(18, rng, complex_values, wide=trial % 2 == 1)
        with pytest.warns(UserWarning):
            pl = plan(S, A, A_ref=ref)
        blocks = [dense_block(A, ref, S, l) for l in range(18)]
        assert all(gathers(pl, A, ref, l, b) for l, b in enumerate(blocks))
        m = compute_map(A, ref, pl)
        want, want_res = gelsy_map(A, ref, pl)
        assert np.abs(m.N.toarray() - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(m.column_residuals - want_res).max() <= 1e-12 * want_res.max()
        shapes.update(b[:, :-1].shape for b in blocks)
    # overdetermined, underdetermined and both kinds of empty block occurred
    assert any(r > c > 0 for r, c in shapes) and any(0 < r < c for r, c in shapes)
    assert (0, 1) in shapes and any(r > 0 and c == 0 for r, c in shapes)
    # near either end of the float range the map is the gelsy map of the same
    # values scaled back by a power of two: the largest entry lands near 4e307,
    # where every reference column's norm is still finite, or near 1e-320,
    # where the column residuals round to the subnormal grid
    for top in (1022, -1062):
        s = top - np.frexp(max(np.abs(M.data.view(float)).max() for M in (A, ref)))[1]
        A_x, ref_x = (scaled(M, s) for M in (A, ref))
        m = compute_map(A_x, ref_x, pl)
        want, want_res = gelsy_map(scaled(A_x, -s), scaled(ref_x, -s), pl)
        assert np.isfinite(m.N.data).all() and np.isfinite(m.rel_residual)
        assert np.abs(m.N.toarray() - want).max() <= 1e-12 * np.abs(want).max()
        err = np.abs(np.ldexp(m.column_residuals, -s) - want_res).max()
        assert err <= 1e-12 * want_res.max() + np.ldexp(1.0, -1074 - s)


def scaled(M, s):
    """M times 2**s, rounded as ldexp rounds it; real and imaginary parts alike."""
    M = M.copy()
    M.data = np.ldexp(M.data.view(float), s).view(M.dtype)
    return M


def test_compute_map_non_finite_values_give_nan_columns():
    # a NaN in A and an Inf in the reference spoil exactly the columns whose
    # blocks or reference values hold them: NaN unknowns, NaN residual, no raise
    mats = SequenceSpec.helmholtz(4, 4, 0.01, 5).matrices
    A, ref = mats[2].copy(), mats[0].copy()
    A.data[5] = np.nan
    S = pattern_of(ref)
    pl = plan(S, A, A_ref=ref)
    assert np.isnan(compute_map(A, ref, pl).N.data).sum() == 16
    ref.data[ref.indptr[9]] = np.inf
    m = compute_map(A, ref, pl)
    j = np.searchsorted(A.indptr, 5, side="right") - 1  # the column holding the NaN
    spoiled = np.array([j in column(S, l) or l == 9 for l in range(S.shape[1])])
    assert np.array_equal(np.isnan(m.column_residuals), spoiled) and np.isnan(m.rel_residual)
    nan_cols = np.repeat(np.arange(S.shape[1]), np.diff(m.N.indptr))[np.isnan(m.N.data)]
    assert np.array_equal(np.unique(nan_cols), np.flatnonzero(spoiled))
    assert np.isnan(m.N.data).sum() == sum(column(S, l).size for l in np.flatnonzero(spoiled))
    # the other columns are the map of the finite matrices there
    finite = compute_map(mats[2], mats[0], pl)
    keep = ~np.isnan(m.N.data)
    assert np.allclose(m.N.data[keep], finite.N.data[keep], rtol=1e-12, atol=0)
    assert np.allclose(m.column_residuals[~spoiled], finite.column_residuals[~spoiled], rtol=1e-12, atol=1e-15)


def test_worker_determinism():
    rng = np.random.default_rng(8)
    A = random_sparse(40, rng, diag_boost=40.0)
    ref = random_sparse(40, rng, diag_boost=40.0)
    pl = plan(random_pattern(40, rng), A, A_ref=ref)
    m1 = compute_map(A, ref, pl, workers=1)
    # 5 divides n, 3 does not, and 41 exceeds it, and every batch's size
    for workers in (5, 3, 41):
        m = compute_map(A, ref, pl, workers=workers)
        assert m.N.data.tobytes() == m1.N.data.tobytes()
        assert np.array_equal(m.N.indices, m1.N.indices)
        assert m.column_residuals.tobytes() == m1.column_residuals.tobytes()
        assert m.rel_residual == m1.rel_residual
    # 0 and -1 ran serially, and 2.5 reached ThreadPoolExecutor
    for workers, message in ((0, "at least 1, not 0"), (-1, "at least 1, not -1"),
                             (2.5, "an integer, not 2.5"), (True, "an integer, not True")):
        with pytest.raises(ValueError, match=f"^workers must be {message}$"):
            compute_map(A, ref, pl, workers=workers)


def test_maps_share_the_plans_read_only_pattern():
    rng = np.random.default_rng(15)
    A = random_sparse(12, rng, diag_boost=12.0)
    ref = random_sparse(12, rng, diag_boost=12.0)
    S = random_pattern(12, rng)
    pl = plan(S, A, A_ref=ref)
    P = pl.structures[0]
    assert not P.indices.flags.writeable and not P.indptr.flags.writeable
    m1, m2 = compute_map(A, ref, pl), compute_map(2 * A, ref, pl)
    for m in (m1, m2):
        assert np.shares_memory(m.N.indices, P.indices) and np.shares_memory(m.N.indptr, P.indptr)
    assert not np.shares_memory(m1.N.data, m2.N.data)
    with pytest.raises(ValueError):
        m1.N.indices[0] = 1
    own = m1.N.copy()
    own.indices[0] = own.indices[0]
    assert own.indices.flags.writeable and not np.shares_memory(own.indices, P.indices)
    # fits compares shapes and structures; the plan's own copy of S fits like S
    assert pl.fits(S, A, ref) and pl.fits(P, A, ref)
    assert not pl.fits(S, A, A) and not pl.fits(S, sp.identity(12, format="csc"), ref)
    assert not pl.fits(S, A, as_csc(sp.csc_matrix((12, 13))))


def test_chain_refuses_malformed_index_arrays():
    # row 5 of a 3x3 matrix, and the same check for a compressed P
    bad = sp.csc_matrix((np.ones(5), [0, 5, 1, 2, 2], [0, 2, 3, 5]), shape=(3, 3))
    for N, P in ((bad, None), (sp.identity(3, format="csc"), bad)):
        with pytest.raises(ValueError, match="indices must be < 3"):
            PreconditionerChain(N, P).apply(np.ones(3))


def test_map_residual_norm_refuses_malformed_index_arrays():
    # row 5 of a 3x3 matrix in any of the three operands crashed the process
    bad = sp.csc_matrix((np.ones(5), [0, 5, 1, 2, 2], [0, 2, 3, 5]), shape=(3, 3))
    for operands in ((bad, sp.identity(3, format="csc"), sp.identity(3, format="csc")), (sp.identity(3, format="csc"), bad, sp.identity(3, format="csc")),
                     (sp.identity(3, format="csc"), sp.identity(3, format="csc"), bad)):
        with pytest.raises(ValueError, match="indices must be < 3"):
            map_residual_norm(*operands)


def test_compute_map_refuses_decreasing_column_pointers():
    # scipy's constructor accepts this indptr; compute_map canonicalized the
    # matrix unchecked, and the process died with SIGSEGV
    status, refusal = refusal_in_child("samkit.compute_map(bad, good, samkit.plan(good, good, good))")
    assert (status, refusal) == (0, "indptr must be a non-decreasing sequence")


def test_map_residual_norm_trivial_cases():
    A = as_csc(np.diag([2.0, 4.0]))
    ref = as_csc(np.diag([1.0, 2.0]))
    N = as_csc(np.diag([0.5, 0.5]))
    assert map_residual_norm(A, N, ref) <= 1e-15
    Z = as_csc(np.zeros((2, 2)))
    assert map_residual_norm(A, Z, ref) == 1.0
    # a zero reference and a nonzero A N: compute_map's rule gives inf
    assert map_residual_norm(A, N, Z) == np.inf
    with pytest.raises(ValueError):
        map_residual_norm(A, N, sp.identity(3, format="csc"))


@pytest.mark.parametrize("scale", [1.0, 1e308, 1e-320])
def test_map_residual_norm_finite_near_the_ends_of_the_float_range(scale):
    # at 1e308 the sums of squares overflowed to NaN, and at 1e-320 the
    # reference's norm underflowed to zero; the map itself was finite at both
    signs = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1]], dtype=float)
    R = np.array([[1, 0.5, -0.25], [0.75, 1, 0.5], [-0.5, 0.25, 1]])
    A, ref = as_csc(scale * signs), as_csc(scale * R)
    m = compute_map(A, ref, plan(pattern_of(np.ones((3, 3))), A, A_ref=ref))
    got = map_residual_norm(A, m.N, ref)
    assert np.isfinite(got) and got <= 1e-14
    if scale == 1.0:
        assert abs(got - m.rel_residual) <= 1e-14


# the Frobenius norms samkit takes are scipy's, in map_residual_norm

def test_frobenius_norm_cases():
    A = as_csc(np.diag([3.0, 4.0]))
    assert map_residual_norm(sp.identity(2, format="csc"), A, A) == 0.0
    assert map_residual_norm(sp.identity(2, format="csc"), as_csc(np.zeros((2, 2))), A) == 1.0
    assert map_residual_norm(sp.identity(2, format="csc"), 3 * A, A) == 2.0


def test_frobenius_norm_against_dense():
    rng = np.random.default_rng(9)
    A = random_sparse(12, rng)
    N = random_sparse(12, rng)
    ref = random_sparse(12, rng)
    # a reference with duplicate entries counts each position once, summed
    dup = sp.csc_matrix((np.repeat(ref.data / 2, 2), np.repeat(ref.indices, 2), 2 * ref.indptr), shape=ref.shape)
    assert not dup.has_canonical_format
    want = np.linalg.norm(A.toarray() @ N.toarray() - ref.toarray()) / np.linalg.norm(ref.toarray())
    for R in (ref, dup):
        assert abs(map_residual_norm(A, N, R) - want) <= 1e-14 * want


def test_frobenius_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        map_residual_norm(sp.identity(2, format="csc"), sp.identity(3, format="csc"), sp.identity(3, format="csc"))


def test_compose_identity_map_behaves_like_p():
    rng = np.random.default_rng(9)
    P = random_sparse(10, rng)
    chain = PreconditionerChain(sp.identity(10, format="csc"), P)
    v = rng.standard_normal(10)
    assert np.array_equal(chain.apply(v), P @ v)


def test_compose_identity_operator():
    rng = np.random.default_rng(10)
    N = random_sparse(10, rng)
    chain = PreconditionerChain(N, None)
    v = rng.standard_normal(10)
    assert np.array_equal(chain.apply(v), N @ v)


def test_compose_matches_dense_product():
    rng = np.random.default_rng(11)
    N = random_sparse(12, rng)
    P = random_sparse(12, rng)
    chain = PreconditionerChain(N, P)
    v = rng.standard_normal(12)
    want = (N.toarray() @ P.toarray()) @ v
    assert np.linalg.norm(chain.apply(v) - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


def test_compose_nests():
    rng = np.random.default_rng(12)
    N1 = random_sparse(9, rng)
    N2 = random_sparse(9, rng)
    P = random_sparse(9, rng)
    chain = PreconditionerChain(N2, PreconditionerChain(N1, P))
    v = rng.standard_normal(9)
    want = N2.toarray() @ (N1.toarray() @ (P.toarray() @ v))
    assert np.allclose(chain.apply(v), want, atol=1e-12)


class _DtypeNone:
    """An operand that declares its dtype as None."""

    dtype = None

    def apply(self, v):
        return 2 * v


def _stage(kind, rng):
    """A reference operator P of the given kind for 8x8 systems."""
    if kind == "identity":
        return None
    if kind in ("real-sparse", "complex-sparse"):
        return random_sparse(8, rng, complex_values=kind == "complex-sparse")
    if kind == "ilutp":
        return factor(random_sparse(8, rng, diag_boost=8.0), IlutpParams(lfil=8, droptol=0.0, pivtol=1.0))
    if kind == "callable":
        return lambda v: 2 * v
    if kind == "dtype-none":
        return _DtypeNone()
    # a chain whose complex map sits over a callable that declares nothing
    return PreconditionerChain(random_sparse(8, rng, complex_values=True), lambda v: 2 * v)


@pytest.mark.parametrize("complex_map", [False, True], ids=["real-map", "complex-map"])
@pytest.mark.parametrize("kind", ["identity", "real-sparse", "complex-sparse", "ilutp", "callable", "dtype-none", "nested"])
def test_chain_always_states_its_field(kind, complex_map):
    # N's field joined with P's, and a P that declares none (or None) counts as N's
    rng = np.random.default_rng(15)
    chain = PreconditionerChain(random_sparse(8, rng, complex_values=complex_map), _stage(kind, rng))
    complex_field = complex_map or kind in ("complex-sparse", "nested")
    assert isinstance(chain.dtype, np.dtype)
    assert chain.dtype == (np.complex128 if complex_field else np.float64)
    assert chain.apply(np.ones(8)).dtype == chain.dtype


def test_complex_map_over_a_dtypeless_operator_solves_a_real_system():
    # every answer of the chain is complex; while its dtype was None, gmres ran
    # the real system in float64 and refused the first answer with TypeError
    rng = np.random.default_rng(16)
    A = random_sparse(12, rng, diag_boost=12.0)
    b = rng.standard_normal(12)
    inverse = np.linalg.inv(A.toarray())

    def P(v):
        return inverse @ v

    chain = PreconditionerChain((1 + 1j) * sp.identity(12, format="csc"), P)
    x, rep = gmres(A, b, M=chain)
    assert rep.converged and rep.iterations == 1
    assert x.dtype == np.complex128
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def test_compose_shape_mismatch():
    with pytest.raises(ValueError):
        PreconditionerChain(sp.identity(3, format="csc"), sp.identity(4, format="csc"))


def test_chain_rejects_unknown_stage():
    with pytest.raises(TypeError):
        PreconditionerChain(sp.identity(2, format="csc"), object())


def test_chain_applies_through_patchable_entry_points(monkeypatch):
    # a tracer patches samkit.sam.matvec and IlutpFactors.apply_solve; a chain
    # composed after the patch must call both once per apply
    rng = np.random.default_rng(13)
    A = random_sparse(10, rng, diag_boost=10.0)
    F = factor(A, IlutpParams(lfil=10, droptol=0.0, pivtol=1.0))
    N = random_sparse(10, rng)
    matvec0, solve0 = samkit.sam.matvec, IlutpFactors.apply_solve
    calls = {"matvec": 0, "apply_solve": 0}

    def counting_matvec(*args):
        calls["matvec"] += 1
        return matvec0(*args)

    def counting_solve(self, v):
        calls["apply_solve"] += 1
        return solve0(self, v)

    monkeypatch.setattr(samkit.sam, "matvec", counting_matvec)
    monkeypatch.setattr(IlutpFactors, "apply_solve", counting_solve)
    chain = PreconditionerChain(N, F)
    v = rng.standard_normal(10)
    outs = [chain.apply(v) for _ in range(3)]
    assert calls == {"matvec": 3, "apply_solve": 3}
    want = matvec0(N, solve0(F, v))
    assert all(np.array_equal(y, want) for y in outs)
