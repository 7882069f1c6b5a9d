"""Incomplete LU with dual-threshold dropping and column pivoting.

Row-wise IKJ elimination with two dropping rules per row: entries whose
magnitude falls below droptol times the 2-norm of the original row are
dropped as they are produced, and after elimination only the lfil
largest-magnitude entries of the strictly-lower part and of the
off-diagonal upper part are kept (the diagonal always survives).  Column
pivoting swaps the diagonal candidate with the largest remaining upper-part
entry whenever that entry times pivtol exceeds the candidate in magnitude.

The result approximates A P ~ L U for a column permutation P, with L unit
lower triangular and U upper triangular with a nonzero diagonal.

The working row is a dict keyed by original column.  The U-row updates and
the magnitudes of the drop filter and lfil selection stay numpy vector
operations, and the multiplier and pivot numpy scalars: on an AVX-512 build,
numpy's complex vector product and vector abs differ from the scalar ones in
the last bit for 44% and 35% of random inputs.
"""

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .sparse import check_integers, checked_csc

PIVOT_FLOOR = 1e-300


class FactorizationError(RuntimeError):
    """Raised when no admissible pivot exists for some row."""

    def __init__(self, row, message=None):
        self.row = row
        super().__init__(message or f"factorization failed at row {row}: no admissible pivot")


@dataclass(frozen=True)
class IlutpParams:
    """lfil: per-row cap on kept entries in each triangular part (diagonal excluded);
    droptol: relative magnitude drop tolerance;
    pivtol: pivot threshold in [0, 1], 1 always pivots to the largest candidate,
    0 never pivots."""

    lfil: int = 20
    droptol: float = 1e-3
    pivtol: float = 1.0

    def __post_init__(self):
        check_integers(minimum=0, lfil=self.lfil)
        if not self.droptol >= 0:  # NaN fails too
            raise ValueError("droptol must be nonnegative")
        if not 0.0 <= self.pivtol <= 1.0:
            raise ValueError("pivtol must lie in [0, 1]")


# splu settings under which a triangular matrix is its own factorization: no
# column ordering, no row pivoting, so no fill and identity permutations
_TRIANGULAR_SPLU = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))


class IlutpFactors:
    """Factors L, U and the column permutation such that A[:, colperm] ~ L U."""

    def __init__(self, L, U, colperm):
        self.L = L
        self.U = U
        self.colperm = np.asarray(colperm, dtype=np.int64)
        self.shape = L.shape
        self.dtype = np.result_type(L.dtype, U.dtype)
        # checked and pre-factored once, so each apply is two C triangular solves
        self._L_lu = splu(L, **_TRIANGULAR_SPLU)
        self._U_lu = splu(U, **_TRIANGULAR_SPLU)

    @property
    def n(self):
        return self.shape[0]

    def apply_solve(self, v):
        """Approximate A^{-1} v: forward solve, back solve, undo the column permutation.

        ``v`` is raveled; a length other than ``n`` is SuperLU's ``ValueError``.
        """
        v = np.asarray(v).ravel()
        if np.iscomplexobj(v) and not np.iscomplexobj(self.L.data):
            # real factors: solve the real and imaginary parts as two right-hand
            # sides and rejoin them without arithmetic, so an infinite part
            # cannot turn the other into NaN
            z = self._U_lu.solve(self._L_lu.solve(np.column_stack([v.real, v.imag])))
            z = np.ascontiguousarray(z).view(np.complex128)[:, 0]
        else:
            z = self._U_lu.solve(self._L_lu.solve(v))
        x = np.empty_like(z)
        x[self.colperm] = z
        return x


def _keep_largest(cols, vals, limit):
    """Indices of the `limit` largest-magnitude entries; ties take the smaller column."""
    if len(cols) <= limit:
        return np.arange(len(cols))
    order = np.lexsort((cols, -np.abs(vals)))
    return order[:limit]


def _rows_to_csc(cols, vals, diag, perm):
    """CSC factor from its kept rows: off-diagonal original columns and values, plus the diagonal."""
    n = len(cols)
    rows = np.concatenate([np.repeat(np.arange(n), [c.size for c in cols]), np.arange(n)])
    # positions of kept entries are final: later swaps only touch positions beyond the storing row
    positions = np.concatenate([perm[np.concatenate(cols)], np.arange(n)])
    data = np.concatenate([np.concatenate(vals), diag])
    return sp.csc_matrix((data, (rows, positions)), shape=(n, n))


def factor(A, params: IlutpParams = IlutpParams()) -> IlutpFactors:
    """Dual-threshold pivoted incomplete factorization of a square, nonempty sparse matrix."""
    [A] = checked_csc(A)
    n, m = A.shape
    if n != m or n == 0:
        raise ValueError(f"factor: matrix must be square and nonempty, not {n}x{m}")
    R = A.tocsr()  # one-time transposition of the column layout for row access
    dtype = R.dtype

    lfil = params.lfil
    pivtol = params.pivtol
    # each row's drop threshold is droptol times its 2-norm; BLAS nrm2 scales internally, so the norm neither
    # overflows nor underflows, and it raises on an empty vector, so it is taken after the empty-row refusal
    nrm2 = sla.get_blas_funcs("nrm2", dtype=dtype)

    perm = np.arange(n, dtype=np.int64)   # original column -> permuted position
    iperm = np.arange(n, dtype=np.int64)  # permuted position -> original column

    uinv = np.zeros(n, dtype=dtype)
    udiag = np.zeros(n, dtype=dtype)
    zero = dtype.type(0).item()  # a fill-in starts at 0.0 or 0j: no mixed-type signs of zero
    # kept off-diagonal upper rows, original column indices, used by later eliminations
    urow_cols = [None] * n
    urow_vals = [None] * n
    lrow_cols = [None] * n
    lrow_vals = [None] * n

    for ii in range(n):
        j0, j1 = R.indptr[ii], R.indptr[ii + 1]
        if j0 == j1:
            raise FactorizationError(ii, f"row {ii} of the matrix is empty")
        tnorm = params.droptol * nrm2(R.data[j0:j1])

        # the working row: original column -> value, in order of first appearance
        row = dict(zip(R.indices[j0:j1].tolist(), R.data[j0:j1].tolist()))
        heap = [(int(perm[c]), c) for c in row if perm[c] < ii]
        heapq.heapify(heap)

        lcols = []
        lvals = []
        while heap:
            p, c = heapq.heappop(heap)
            fact = row.pop(c) * uinv[p]  # a numpy scalar
            if abs(fact) < tnorm or fact == 0:
                continue
            # row p < ii of U is already stored; its update is one numpy vector product
            for c2, t in zip(urow_cols[p].tolist(), (fact * urow_vals[p]).tolist()):
                if c2 not in row and perm[c2] < ii:
                    heapq.heappush(heap, (int(perm[c2]), c2))
                row[c2] = row.get(c2, zero) - t
            lcols.append(c)
            lvals.append(fact)

        # split the surviving entries into diagonal candidate and upper part
        diag_col = int(iperm[ii])
        diag_val = dtype.type(row.pop(diag_col, zero))
        upper = np.fromiter(row.keys(), dtype=np.int64, count=len(row))
        upper_vals = np.fromiter(row.values(), dtype=dtype, count=len(row))
        keep = np.abs(upper_vals) >= tnorm
        upper, upper_vals = upper[keep], upper_vals[keep]

        # pivot: largest upper entry beats the diagonal candidate when scaled by pivtol
        if upper.size:
            best = _keep_largest(upper, upper_vals, 1)[0]
            if abs(upper_vals[best]) * pivtol > abs(diag_val):
                swap_col = upper[best]
                pos_swap = perm[swap_col]
                perm[diag_col], perm[swap_col] = pos_swap, ii
                iperm[ii] = swap_col
                iperm[pos_swap] = diag_col
                # the old candidate takes the pivot's slot in the upper part, and is dropped there below tnorm
                diag_val, upper_vals[best] = upper_vals[best], diag_val
                upper[best] = diag_col
                if abs(upper_vals[best]) < tnorm:
                    upper, upper_vals = np.delete(upper, best), np.delete(upper_vals, best)

        # NaN fails both comparisons, so a non-finite pivot is refused too
        if not PIVOT_FLOOR <= abs(diag_val) < np.inf:
            raise FactorizationError(ii)

        udiag[ii] = diag_val
        uinv[ii] = 1.0 / diag_val

        lc = np.asarray(lcols, dtype=np.int64)
        lv = np.asarray(lvals, dtype=dtype)
        sel = _keep_largest(lc, lv, lfil)
        lrow_cols[ii] = lc[sel]
        lrow_vals[ii] = lv[sel]

        sel = _keep_largest(upper, upper_vals, lfil)
        urow_cols[ii] = upper[sel]
        urow_vals[ii] = upper_vals[sel]

    L = _rows_to_csc(lrow_cols, lrow_vals, np.ones(n, dtype=dtype), perm)
    U = _rows_to_csc(urow_cols, urow_vals, udiag, perm)
    return IlutpFactors(L, U, iperm.copy())
