"""Sparse approximate maps: sparse least-squares maps between nearby matrices.

Given a sequence matrix A and a reference matrix A_ref with a trusted
preconditioner, the map N minimizes ||A N - A_ref||_F over all matrices
supported on a chosen sparsity pattern.  The minimization decouples into one
small dense least-squares problem per column, sized by the pattern rather
than by the matrix, so maps stay cheap even for large systems.  Composing N
with the reference preconditioner (apply the preconditioner, then multiply by
N) recycles it for the new matrix.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .gmres import as_operator
from .patterns import pattern_of
from .sparse import (check_indices, check_integers, checked_csc, ldexp, matvec, norm_ratio, scalar_dtype,
                     scale_exponent)

# Singular-value cutoff of the block pseudoinverse, relative to each block's
# largest singular value; smaller ones count as zero, so rank-deficient blocks
# get their minimum-norm solution.
RANK_TOL = 1e-12


class ShapeGroup(NamedTuple):
    """The ``g`` columns whose least-squares blocks share one (rows, cols) shape."""

    columns: np.ndarray
    blocks: np.ndarray
    refs: np.ndarray
    unknowns: np.ndarray


@dataclass
class SamPlan:
    """Preprocessed per-column index sets for computing maps on a fixed pattern.

    ``structures`` holds the patterns of the map (``S``), the matrix and the
    reference the plan was made for; ``S``'s index arrays are read-only, and
    every map of the plan stores its values on them.  ``rows`` is the
    pattern of the row sets: its column l holds the union of the stored-entry
    rows of the matrix's columns that column l of ``S`` selects and of the
    reference's column l.  ``groups`` holds one :class:`ShapeGroup` per block
    shape: the position in the matrix's ``data`` (``nnz`` where none is
    stored) of every block entry, ``blocks`` ``(g, rows, cols)``; that in the
    reference's ``data`` of every row-set entry, ``refs`` ``(g, rows)``; and
    that in the map's ``data`` of every unknown, ``unknowns`` ``(g, cols)``.
    So a map touches values only, and one plan serves every pattern, matrix
    and reference that it :meth:`fits`.
    """

    n: int
    degenerate_columns: np.ndarray
    rows: sp.csc_matrix = field(repr=False)
    groups: list = field(repr=False)
    structures: tuple = field(repr=False)

    def fits(self, S, A, A_ref) -> bool:
        """Whether pattern S, matrix A and reference A_ref (canonical CSC) have
        the structures the plan was made for."""
        return all(M.shape == P.shape and _first_change(M, P) is None
                   for M, P in zip((S, A, A_ref), self.structures))


@dataclass
class SamMap:
    """A computed map plus its residual bookkeeping."""

    N: sp.csc_matrix
    rel_residual: float
    column_residuals: np.ndarray


def _first_change(M, P):
    """First column where canonical CSC M, of P's shape, stores other positions than pattern P; else None."""
    if np.array_equal(M.indptr, P.indptr) and np.array_equal(M.indices, P.indices):
        return None
    # both are canonical, so their difference stores exactly the positions
    # that only one of them holds
    return int(np.flatnonzero(np.diff((pattern_of(M) - P).indptr))[0])


def _positions(M, rows, cols):
    """Position in square CSC matrix M's ``data`` of each (rows, cols) entry; nnz where none is stored."""
    if len(rows) == 0:  # scipy answers an empty lookup with a sparse matrix
        return np.empty(0, dtype=np.int64)
    # scipy's lookup reads the stored 1-based positions, and a miss reads 0;
    # ravel makes its (1, k) np.matrix and a 1-D answer alike
    at = sp.csc_matrix((np.arange(1, M.nnz + 1, dtype=np.int64), M.indices, M.indptr), shape=M.shape)
    got = np.asarray(at[rows, cols]).ravel()
    return np.where(got > 0, got - 1, M.nnz)


def plan(S, A, A_ref=None) -> SamPlan:
    """Preprocess pattern S against the structures of A and of A_ref.

    ``S`` may be any sparse matrix: its stored positions are the pattern.
    ``A`` and ``A_ref`` (default ``A`` itself) are the structural prototypes
    of the matrices and references the map will be computed for.  Each
    column's row set is the union of the stored-entry rows of the A-columns
    its pattern selects and of the reference's own column, so every block
    sees the whole reference column.  Columns with an empty pattern are
    flagged degenerate; their blocks have no columns.  The columns are
    grouped by block shape, and the position in ``A.data`` of every block
    entry and in ``A_ref.data`` of every row-set entry is found here, once.
    """
    S, A = pattern_of(S), pattern_of(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or S.shape != A.shape:
        raise ValueError(f"plan: pattern {S.shape[0]}x{S.shape[1]} does not match matrix {A.shape}")
    ref = A if A_ref is None else pattern_of(A_ref)
    if ref.shape != A.shape:
        raise ValueError(f"plan: reference shape {ref.shape} does not match matrix {A.shape}")

    counts = np.diff(S.indptr)
    degenerate = np.flatnonzero(counts == 0)
    if degenerate.size:
        warnings.warn(
            f"{degenerate.size} pattern column(s) are empty; the map will have zero columns there",
            stacklevel=2,
        )

    # Row sets for all columns at once: per column l, the structural product
    # A * S unites the stored rows of the A-columns S selects; ref adds its own.
    rows = pattern_of(A @ S + ref)

    # entry (i, t) of column l's block is A[rows[i], S[t]]
    shape_key = np.diff(rows.indptr).astype(np.int64) * (n + 1) + counts
    groups = []
    for key in np.unique(shape_key):
        r, c = divmod(int(key), n + 1)
        columns = np.flatnonzero(shape_key == key)
        g = columns.size
        row_ids = rows.indices[rows.indptr[columns, None] + np.arange(r)]
        unknowns = S.indptr[columns, None] + np.arange(c)
        blocks = _positions(A, np.repeat(row_ids, c), np.tile(S.indices[unknowns], r).ravel())
        refs = _positions(ref, row_ids.ravel(), np.repeat(columns, r))
        groups.append(ShapeGroup(columns, blocks.reshape(g, r, c), refs.reshape(g, r), unknowns))

    S.indices.flags.writeable = S.indptr.flags.writeable = False
    return SamPlan(n=n, degenerate_columns=degenerate, rows=rows, groups=groups, structures=(S, A, ref))


def compute_map(A, A_ref, pl: SamPlan, workers: int = 1) -> SamMap:
    """Minimize ||A N - A_ref||_F over the plan's pattern, column by column.

    Each column is an independent dense least-squares problem on the plan's
    index sets.  The stacked blocks of one shape group are solved at once
    through their pseudoinverse, which gives the minimum-norm solution on
    full-rank, rank-deficient and underdetermined blocks alike.  Each block and
    its reference are solved on their exact power-of-two scale, so blocks near
    either end of the float range keep finite unknowns.  A column with an empty
    pattern stays zero, with its reference column's norm as residual; one whose
    block or reference values are not all finite gets NaN unknowns and a NaN
    residual.  Malformed index arrays raise ``ValueError``, and so does a
    structure other than the plan's, naming whether ``A`` or ``A_ref`` differs
    and its first offending column.  Up to ``workers >= 1`` threads take whole
    groups, each filling its own preassigned positions of ``N.data``, so the
    result is bit-identical for any ``workers`` count.  ``N`` stores its values
    on the plan's read-only pattern arrays, so writing its pattern in place
    raises ``ValueError``; ``N.copy()`` gives it a writeable pattern.
    """
    check_integers(minimum=1, workers=workers)
    A, A_ref = checked_csc(A, A_ref)
    if A.shape != (pl.n, pl.n) or A_ref.shape != (pl.n, pl.n):
        raise ValueError(f"compute_map: matrices must be {pl.n}x{pl.n}")
    for name, M, P in zip(("matrix", "reference"), (A, A_ref), pl.structures[1:]):
        col = _first_change(M, P)
        if col is not None:
            raise ValueError(f"{name} structure differs from the plan, first offending column: {col}")

    zero = np.zeros(1, dtype=scalar_dtype(A, A_ref))
    a, ref = np.append(A.data, zero), np.append(A_ref.data, zero)
    S = pl.structures[0]
    valN = np.zeros(S.nnz, dtype=a.dtype)
    col_res = np.zeros(pl.n)

    def solve(g: ShapeGroup):
        B, f = a[g.blocks], ref[g.refs]
        # [B | f]: the SVD fails on non-finite values, so those columns stay NaN,
        # and the rest go to their power-of-two scale, where nothing overflows
        Bf = np.concatenate([B, f[..., None]], axis=2)
        finite, e = np.isfinite(Bf).all(axis=(1, 2)), scale_exponent(Bf, axis=(1, 2))
        B, f = ldexp(B, -e), ldexp(f, -e)
        z = np.full(g.unknowns.shape, np.nan, dtype=a.dtype)
        z[finite] = (np.linalg.pinv(B[finite], rcond=RANK_TOL) @ f[finite, :, None])[..., 0]
        valN[g.unknowns] = z
        col_res[g.columns] = ldexp(np.linalg.norm((B @ z[..., None])[..., 0] - f, axis=1), e)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(solve, pl.groups))
    else:
        for g in pl.groups:
            solve(g)

    N = sp.csc_matrix((valN, S.indices, S.indptr), shape=S.shape)

    # both norms on the reference's power-of-two scale: exact, and neither overflows nor underflows
    e = scale_exponent(A_ref.data)
    rel = norm_ratio(float(np.linalg.norm(ldexp(col_res, -e))), float(np.linalg.norm(ldexp(A_ref.data, -e))))
    return SamMap(N=N, rel_residual=rel, column_residuals=col_res)


def map_residual_norm(A, N, A_ref) -> float:
    """||A N - A_ref||_F / ||A_ref||_F computed from the full sparse product.

    Independent of the running residual accumulation in :func:`compute_map`,
    whose rule for a zero reference it shares; intended as the expensive
    cross-check.  Malformed index arrays raise ``ValueError``.
    """
    A, N, A_ref = checked_csc(A, N, A_ref)
    if A.shape[1] != N.shape[0] or A.shape[0] != A_ref.shape[0] or N.shape[1] != A_ref.shape[1]:
        raise ValueError("map_residual_norm: incompatible dimensions")
    # A and A_ref on one power-of-two scale: the ratio keeps every bit, and neither norm overflows or underflows
    e = scale_exponent(np.concatenate([A.data, A_ref.data]))
    A, A_ref = (sp.csc_matrix((ldexp(M.data, -e), M.indices, M.indptr), shape=M.shape) for M in (A, A_ref))
    return norm_ratio(spla.norm(A @ N - A_ref), spla.norm(A_ref))


class PreconditionerChain:
    """The recycled preconditioner: apply the reference operator P, then the map N.

    ``P`` is any operand :func:`samkit.gmres.as_operator` accepts: a sparse
    or dense matrix, an object exposing ``apply_solve`` or ``apply``, a
    callable, or None for identity; the chain holds the callable that
    function makes of it.  A chain exposes ``apply``, so a chain is itself a
    valid ``P`` and compositions nest.  Its ``dtype`` covers ``N`` and ``P``,
    and is None when ``P`` declares none.  The map is applied through
    :func:`samkit.sparse.matvec`, looked up at every call.  Malformed index
    arrays of ``N`` or of a compressed ``P`` raise ``ValueError``.
    """

    def __init__(self, N, P):
        [self.N] = checked_csc(N)
        check_indices(P)
        pshape = getattr(P, "shape", None)
        if pshape is not None and self.N.shape[1] != pshape[0]:
            raise ValueError(f"chain: map shape {self.N.shape} incompatible with operator shape {pshape}")
        self.P = as_operator(P)
        p_dtype = self.N.dtype if P is None else getattr(P, "dtype", None)
        self.dtype = None if p_dtype is None else np.result_type(self.N.dtype, p_dtype)

    def apply(self, v):
        return matvec(self.N, self.P(v))

    __call__ = apply


__all__ = [
    "SamPlan", "SamMap", "plan", "compute_map", "map_residual_norm",
    "PreconditionerChain", "RANK_TOL",
]
