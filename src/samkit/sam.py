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
from operator import matmul as matvec  # the map apply, by a module name a tracer can patch
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .gmres import as_operator
from .patterns import pattern_of
from .sparse import check_integers, checked_csc, ldexp, norm_ratio, scale_exponent

# Singular-value cutoff of the block pseudoinverse, relative to each block's
# largest singular value; smaller ones count as zero, so rank-deficient blocks
# get their minimum-norm solution.
RANK_TOL = 1e-12


class Batch(NamedTuple):
    """The ``g`` columns of one size class, whose blocks are padded to one shape ``(r, c)``."""

    columns: np.ndarray
    entries: np.ndarray
    unknowns: np.ndarray


@dataclass
class SamPlan:
    """Preprocessed per-column index sets for computing maps on a fixed pattern.

    ``structures`` holds the patterns of the map (``S``), the matrix and the
    reference the plan was made for; ``S``'s index arrays are read-only, and
    every map of the plan stores its values on them.  ``batches`` holds one
    :class:`Batch` per size class (see :func:`plan`), padded to its largest
    block ``r x c``, which has at least one row and one unknown: ``entries``
    ``(g, r, c + 1)``, the position of every entry of each column's
    ``[B | f]`` over its row set, its block and, last, its reference column,
    in the one value vector ``[0, A.data, A_ref.data]``, whose first slot
    stands for every entry not stored; and ``unknowns``
    ``(g, c)``, the position in the map's ``data`` of every unknown, ``S.nnz``
    for a padded one.  So a map touches values only, and one plan serves
    every pattern, matrix and reference that it :meth:`fits`.
    """

    batches: list = field(repr=False)
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


def _slots(indptr, columns, past):
    """Positions indptr[l]..indptr[l + 1] of each listed column l, padded with past to max(longest, 1) slots."""
    pos = indptr[columns, None] + np.arange(np.diff(indptr)[columns].max(initial=1))
    return np.where(pos < indptr[columns + 1, None], pos, past)


def plan(S, A, A_ref) -> SamPlan:
    """Preprocess pattern S against the structures of A and of A_ref.

    ``S`` may be any sparse matrix: its stored positions are the pattern.
    ``A`` and ``A_ref`` are the structural prototypes of the matrices and
    references its maps are for.  Each column's row set is the union of the
    stored-entry rows of the A-columns its pattern selects and of the
    reference's own column, so every block sees the whole reference column.
    Columns with an empty pattern get a warning.  Columns are batched by
    size class, row-set size and pattern count each rounded up to a power of
    two, and every block is padded with zero rows and columns to its batch's
    largest shape, and to at least one row and one unknown; that at most
    doubles a nonempty side.  Every ``[B | f]``'s positions in
    ``[0, A.data, A_ref.data]`` come from one lookup per batch in
    ``[A | A_ref]``.
    """
    S, A, ref = pattern_of(S), pattern_of(A), pattern_of(A_ref)
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or S.shape != A.shape:
        raise ValueError(f"plan: pattern {S.shape[0]}x{S.shape[1]} does not match matrix {A.shape}")
    if ref.shape != A.shape:
        raise ValueError(f"plan: reference shape {ref.shape} does not match matrix {A.shape}")

    counts = np.diff(S.indptr)
    empty = np.count_nonzero(counts == 0)
    if empty:
        warnings.warn(
            f"{empty} pattern column(s) are empty; the map will have zero columns there",
            stacklevel=2,
        )

    # Row sets for all columns at once: per column l, the structural product
    # A * S unites the stored rows of the A-columns S selects; ref adds its own.
    rows = pattern_of(A @ S + ref)

    # entry (i, t) of column l's [B | f] is A[rows[i], S[t]], and ref[rows[i], l] at t = c.
    # [A | ref] side by side stores A.data then ref.data, so the 1-based positions stored in a
    # copy of it are those in [0, A.data, ref.data], and scipy's lookup reads 0 for no entry,
    # as for padded rows and unknowns, which look in the copy's extra empty row n and column 2n
    both = sp.hstack([A, ref], format="csc")
    at = sp.csc_matrix((np.arange(1, both.nnz + 1), both.indices, np.append(both.indptr, both.nnz)),
                       shape=(n + 1, 2 * n + 1))
    row_at, col_at = np.append(rows.indices, n), np.append(S.indices, 2 * n)
    # frexp's exponent is the bit length
    size_class = np.frexp(np.diff(rows.indptr))[1] * 64 + np.frexp(counts)[1]
    batches = []
    for key in np.unique(size_class):
        columns = np.flatnonzero(size_class == key)
        row_ids, unknowns = row_at[_slots(rows.indptr, columns, rows.nnz)], _slots(S.indptr, columns, S.nnz)
        (g, r), c = row_ids.shape, unknowns.shape[1]
        cols = np.hstack([col_at[unknowns], n + columns[:, None]])
        # ravel makes scipy's (1, k) np.matrix and a 1-D answer alike
        entries = np.asarray(at[np.repeat(row_ids, c + 1), np.tile(cols, r).ravel()]).ravel()
        batches.append(Batch(columns, entries.reshape(g, r, c + 1), unknowns))

    S.indices.flags.writeable = S.indptr.flags.writeable = False
    return SamPlan(batches=batches, structures=(S, A, ref))


def compute_map(A, A_ref, pl: SamPlan, workers: int = 1) -> SamMap:
    """Minimize ||A N - A_ref||_F over the plan's pattern, column by column.

    Each column is an independent dense least-squares problem.  One gather
    from ``[0, A.data, A_ref.data]`` gives a batch's padded ``[B | f]``, and
    its blocks are solved at once through their pseudoinverse, which gives
    the minimum-norm solution on full-rank, rank-deficient and underdetermined
    blocks alike; padding, a zero row or column of ``B``, changes no block's
    scale, finite test or solution.  Each block and its reference are solved
    on their exact power-of-two scale, so blocks near either end of the float
    range keep finite unknowns.  A column with an empty pattern stays zero,
    with its reference column's norm as residual; one whose block or
    reference values are not all finite gets NaN unknowns and a NaN residual.
    Malformed index arrays raise ``ValueError``, and so does a structure other
    than the plan's, naming whether ``A`` or ``A_ref`` differs and its first
    offending column.  A serial map solves the plan's batches as they are;
    with ``workers > 1``, up to ``workers`` threads take up to ``workers``
    nonempty chunks of each batch, each filling its own preassigned positions
    of ``N.data``, so the result is bit-identical for any ``workers`` count.
    ``N`` stores its values on the plan's read-only pattern arrays, so writing
    its pattern in place raises ``ValueError``; ``N.copy()`` gives it a
    writeable pattern.
    """
    check_integers(minimum=1, workers=workers)
    A, A_ref = checked_csc(A, A_ref)
    S = pl.structures[0]
    n = S.shape[0]
    if A.shape != S.shape or A_ref.shape != S.shape:
        raise ValueError(f"compute_map: matrices must be {n}x{n}")
    for name, M, P in zip(("matrix", "reference"), (A, A_ref), pl.structures[1:]):
        col = _first_change(M, P)
        if col is not None:
            raise ValueError(f"{name} structure differs from the plan, first offending column: {col}")

    values = np.concatenate([np.zeros(1), A.data, A_ref.data])
    valN = np.zeros(S.nnz + 1, dtype=values.dtype)  # the last slot takes every padded unknown
    col_res = np.zeros(n)

    def solve(b: Batch):
        # the SVD fails on non-finite values, so those columns stay NaN,
        # and the rest go to their power-of-two scale, where nothing overflows
        Bf = values[b.entries]
        finite, e = np.isfinite(Bf).all(axis=(1, 2)), scale_exponent(Bf, axis=(1, 2))
        Bf = ldexp(Bf, -e)
        B, f = Bf[..., :-1], Bf[..., -1]
        z = np.full(b.unknowns.shape, np.nan, dtype=values.dtype)
        z[finite] = (np.linalg.pinv(B[finite], rcond=RANK_TOL) @ f[finite, :, None])[..., 0]
        valN[b.unknowns] = z
        col_res[b.columns] = ldexp(np.linalg.norm((B @ z[..., None])[..., 0] - f, axis=1), e)

    if workers > 1:
        chunks = [Batch(*c) for b in pl.batches for c in zip(*(np.array_split(a, min(workers, b.columns.size)) for a in b))]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(solve, chunks))
    else:
        for b in pl.batches:
            solve(b)

    N = sp.csc_matrix((valN[:-1], S.indices, S.indptr), shape=S.shape)

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

    ``P`` is any operand :func:`samkit.gmres.as_operator` accepts: a sparse or
    dense matrix, an object exposing ``apply_solve`` or ``apply``, a callable,
    or None for identity; the chain holds the callable that function makes of
    it.  ``apply`` is a chain's one spelling, so a chain is itself a valid
    ``P`` and compositions nest.  Its ``dtype`` covers ``N`` and ``P``; a
    ``P`` that declares none (or None) counts as ``N``'s.  The map is applied
    as ``samkit.sam.matvec``, scipy's ``@`` bound by name and looked up at
    every call, so a tracer can time it apart.  Malformed index arrays of
    ``N``, or of a compressed ``P`` after the shape check, raise ``ValueError``.
    """

    def __init__(self, N, P):
        [self.N] = checked_csc(N)
        pshape = getattr(P, "shape", None)
        if pshape is not None and self.N.shape[1] != pshape[0]:
            raise ValueError(f"chain: map shape {self.N.shape} incompatible with operator shape {pshape}")
        self.P = as_operator(P)
        # numpy reads a dtype of None as float64, which N's field (float64 or complex128) absorbs
        self.dtype = np.result_type(self.N.dtype, getattr(P, "dtype", None))

    def apply(self, v):
        return matvec(self.N, self.P(v))
