"""Sparse approximate maps: sparse least-squares maps between nearby matrices.

Given a sequence matrix A and a reference matrix A_ref with a trusted
preconditioner, the map N minimizes ||A N - A_ref||_F over all matrices
supported on a chosen sparsity pattern.  The minimization decouples into one
small dense least-squares problem per column, sized by the pattern rather
than by the matrix, so maps stay cheap even for large systems.  Composing N
with the reference preconditioner (apply the preconditioner, then multiply by
N) recycles it for the new matrix.
"""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .gmres import as_operator
from .patterns import SparsityPattern, pattern_of
from .sparse import as_csc, frobenius_norm_diff, matvec, scalar_dtype

# Rank cutoff handed to the column-pivoted orthogonal LS solver; blocks whose
# triangular factor falls below this relative size get a minimum-norm solution.
RANK_TOL = 1e-12


@dataclass
class SamPlan:
    """Preprocessed per-column index sets for computing maps on a fixed pattern.

    For column l, ``cols`` holds the pattern row indices (the unknown
    positions of column l of the map) and ``rows`` the union of stored-entry
    rows of the planning matrix's columns referenced by ``cols``; both are
    stored CSC-style as one index array plus offsets.  ``gather`` holds the
    position in the matrix's ``data`` (``nnz`` where none is stored) of every
    entry of each row-major ``rows x cols`` block, block l at
    ``blk_ptr[l]:blk_ptr[l + 1]``.  The plan is built once per
    pattern/structure, so a map touches values only.
    """

    n: int
    col_ptr: np.ndarray
    col_idx: np.ndarray
    row_ptr: np.ndarray
    row_idx: np.ndarray
    degenerate_columns: np.ndarray
    blk_ptr: np.ndarray = field(repr=False)
    gather: np.ndarray = field(repr=False)
    struct_indptr: np.ndarray = field(repr=False)
    struct_indices: np.ndarray = field(repr=False)

    def block_shape(self, l):
        """(rows, cols) sizes of column l's least-squares block."""
        return (int(self.row_ptr[l + 1] - self.row_ptr[l]),
                int(self.col_ptr[l + 1] - self.col_ptr[l]))

    def fits(self, A) -> bool:
        """Whether canonical CSC matrix A has the structure the plan was made for."""
        return np.array_equal(A.indptr, self.struct_indptr) and np.array_equal(A.indices, self.struct_indices)


@dataclass
class SamMap:
    """A computed map plus its residual bookkeeping."""

    N: sp.csc_matrix
    rel_residual: float
    column_residuals: np.ndarray
    degenerate_columns: np.ndarray


def _positions(indptr, indices, rows, cols):
    """Position in a square CSC structure of each (rows, cols) entry; nnz where none is stored."""
    # keys col * n + row are sorted in canonical CSC, so one searchsorted finds
    # every entry; the closing key n * n exceeds every real key, so a miss past
    # the last stored entry still has a key to compare against
    n = indptr.size - 1
    keys = np.append(np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices, n * n)
    want = np.asarray(cols, dtype=np.int64) * n + rows
    pos = np.searchsorted(keys, want)
    return np.where(keys[pos] == want, pos, indptr[-1])


def plan(S: SparsityPattern, A, A_ref=None) -> SamPlan:
    """Preprocess pattern S against the structure of A.

    ``A`` is the structural prototype of the matrices the map will be
    computed for.  Each column's row set is the union of the stored-entry
    rows of the A-columns its pattern selects and of the reference matrix's
    own column, so every least-squares block sees the whole reference
    column; ``A_ref`` defaults to ``A`` itself.  Columns with an empty
    pattern get an empty row set and are flagged degenerate.  The position
    in ``A.data`` of every block entry is found here, once.
    """
    A = as_csc(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or (S.nrows, S.ncols) != A.shape:
        raise ValueError(f"plan: pattern {S.nrows}x{S.ncols} does not match matrix {A.shape}")
    ref = A if A_ref is None else as_csc(A_ref)
    if ref.shape != A.shape:
        raise ValueError(f"plan: reference shape {ref.shape} does not match matrix {A.shape}")

    counts = S.column_counts()
    degenerate = np.flatnonzero(counts == 0)
    if degenerate.size:
        warnings.warn(
            f"{degenerate.size} pattern column(s) are empty; the map will have zero columns there",
            stacklevel=2,
        )

    # Row sets for all columns at once: the structural product A * S gives,
    # per column l, the union of stored rows of the A-columns selected by S.
    # degenerate columns keep an empty row set: the product drops the masked entries
    ref_ind = pattern_of(ref).indicator() @ sp.diags((counts > 0).astype(float), format="csc")
    rows = pattern_of(pattern_of(A).indicator() @ S.indicator() + ref_ind)

    # entry (i, t) of block l is A[rows[i], cols[t]]
    nrow = rows.column_counts()
    sizes = nrow * counts
    blk_ptr = np.concatenate(([0], np.cumsum(sizes)))
    blk = np.repeat(np.arange(n), sizes)
    i, t = np.divmod(np.arange(blk_ptr[-1]) - blk_ptr[blk], counts[blk])
    gather = _positions(A.indptr, A.indices, rows.indices[rows.indptr[blk] + i], S.indices[S.indptr[blk] + t])

    return SamPlan(
        n=n,
        col_ptr=S.indptr.copy(),
        col_idx=S.indices.copy(),
        row_ptr=rows.indptr,
        row_idx=rows.indices,
        degenerate_columns=degenerate,
        blk_ptr=blk_ptr,
        gather=gather,
        struct_indptr=A.indptr.copy(),
        struct_indices=A.indices.copy(),
    )


def _check_structure(A, pl: SamPlan):
    if pl.fits(A):
        return
    for j in range(pl.n):
        a = A.indices[A.indptr[j]:A.indptr[j + 1]]
        b = pl.struct_indices[pl.struct_indptr[j]:pl.struct_indptr[j + 1]]
        if not np.array_equal(a, b):
            raise ValueError(f"matrix structure differs from the plan, first offending column: {j}")
    raise ValueError("matrix structure differs from the plan")


def _values(A, A_ref, pl: SamPlan):
    """(blocks, rhs, out_sq) in the scalar field of A and A_ref: every block's
    values, the reference columns placed on the row sets, and per column the
    squared reference mass its row set cannot reach (it still counts).
    """
    zero = np.zeros(1, dtype=scalar_dtype(A, A_ref))
    blocks = np.append(A.data, zero)[pl.gather]
    ref_cols = np.repeat(np.arange(pl.n), np.diff(A_ref.indptr))
    at = _positions(pl.row_ptr, pl.row_idx, A_ref.indices, ref_cols)
    # the slot past the row sets collects the unreached entries and is never read
    rhs = np.zeros(pl.row_idx.size + 1, dtype=zero.dtype)
    rhs[at] = A_ref.data
    out = at == pl.row_idx.size
    out_sq = np.bincount(ref_cols[out], np.abs(A_ref.data[out]) ** 2, minlength=pl.n)
    return blocks, rhs, out_sq


def _solve_columns(lo, hi, pl, blocks, rhs, out_sq, valN, col_res):
    """Solve the least-squares problems for columns lo..hi-1.

    Results land in preassigned slices of ``valN`` and ``col_res``, so the
    output is identical no matter how columns are split across workers.
    """
    for l in range(lo, hi):
        k0, k1 = pl.col_ptr[l], pl.col_ptr[l + 1]
        r0, r1 = pl.row_ptr[l], pl.row_ptr[l + 1]
        nrow, ncol = r1 - r0, k1 - k0
        res_sq = out_sq[l]
        if nrow and ncol:
            B = blocks[pl.blk_ptr[l]:pl.blk_ptr[l + 1]].reshape(nrow, ncol)
            f = rhs[r0:r1]
            z = sla.lstsq(B, f, cond=RANK_TOL, lapack_driver="gelsy", check_finite=False)[0]
            valN[k0:k1] = z
            res_sq += float(np.sum(np.abs(B @ z - f) ** 2))
        col_res[l] = math.sqrt(res_sq)


def compute_map(A, A_ref, pl: SamPlan, workers: int = 1) -> SamMap:
    """Minimize ||A N - A_ref||_F over the plan's pattern, column by column.

    Each column is an independent dense least-squares problem on the plan's
    index sets, solved by a column-pivoted orthogonal factorization with a
    minimum-norm solution on rank-deficient blocks.  A column whose pattern
    or row set is empty keeps a zero column, and its residual is the norm of
    the reference column.  The map's values fill slices of the plan's own
    (canonical) CSC structure, preassigned per column, so the result is
    bit-identical for any ``workers`` count.
    """
    A = as_csc(A)
    A_ref = as_csc(A_ref)
    if A.shape != (pl.n, pl.n) or A_ref.shape != (pl.n, pl.n):
        raise ValueError(f"compute_map: matrices must be {pl.n}x{pl.n}")
    _check_structure(A, pl)

    blocks, rhs, out_sq = _values(A, A_ref, pl)
    valN = np.zeros(pl.col_idx.size, dtype=blocks.dtype)
    col_res = np.zeros(pl.n)
    args = (pl, blocks, rhs, out_sq, valN, col_res)

    workers = max(1, int(workers))
    if workers == 1 or pl.n < 2:
        _solve_columns(0, pl.n, *args)
    else:
        bounds = np.linspace(0, pl.n, workers + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_solve_columns, int(bounds[i]), int(bounds[i + 1]), *args)
                    for i in range(workers)]
            for fut in futs:
                fut.result()

    N = sp.csc_matrix((valN, pl.col_idx.copy(), pl.col_ptr.copy()), shape=(pl.n, pl.n))

    ref_norm = float(np.linalg.norm(A_ref.data))
    total = float(np.linalg.norm(col_res))
    rel = total / ref_norm if ref_norm > 0 else (0.0 if total == 0 else math.inf)
    return SamMap(N=N, rel_residual=rel, column_residuals=col_res,
                  degenerate_columns=pl.degenerate_columns.copy())


def map_residual_norm(A, N, A_ref) -> float:
    """||A N - A_ref||_F / ||A_ref||_F computed from the full sparse product.

    Independent of the running residual accumulation in :func:`compute_map`;
    intended as the expensive cross-check.
    """
    if A.shape[1] != N.shape[0] or A.shape[0] != A_ref.shape[0] or N.shape[1] != A_ref.shape[1]:
        raise ValueError("map_residual_norm: incompatible dimensions")
    ref_norm = frobenius_norm_diff(A_ref)
    if ref_norm == 0:
        raise ValueError("reference matrix has zero norm, relative residual undefined")
    return frobenius_norm_diff(as_csc(A) @ as_csc(N), A_ref) / ref_norm


class PreconditionerChain:
    """Composition of operator stages applied right-to-left.

    Each stage is any operand :func:`samkit.gmres.as_operator` accepts: a
    sparse matrix (applied through :func:`samkit.sparse.matvec`), a dense
    matrix, an object exposing ``apply_solve`` or ``apply``, a callable, or
    None for identity.  A chain is itself a valid stage, so compositions nest.
    """

    def __init__(self, stages):
        self.stages = list(stages)
        shapes = [getattr(s, "shape", None) for s in self.stages]
        for left, right in zip(shapes, shapes[1:]):
            if left is not None and right is not None and left[1] != right[0]:
                raise ValueError(f"chain stages have incompatible shapes {left} and {right}")

    def apply(self, v):
        for stage in reversed(self.stages):
            # a sparse map is applied through the sparse layer's entry point
            v = matvec(stage, v) if sp.issparse(stage) else as_operator(stage)(v)
        return v

    __call__ = apply


def compose(N, P) -> PreconditionerChain:
    """Recycled preconditioner: apply P, then multiply by the map N."""
    N = as_csc(N)
    pshape = getattr(P, "shape", None)
    if pshape is not None and N.shape[1] != pshape[0]:
        raise ValueError(f"compose: map shape {N.shape} incompatible with operator shape {pshape}")
    return PreconditionerChain([N, P])


__all__ = [
    "SamPlan", "SamMap", "plan", "compute_map", "map_residual_norm",
    "PreconditionerChain", "compose", "RANK_TOL",
]
