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
"""

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .sparse import as_csc

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
        if self.lfil < 0:
            raise ValueError("lfil must be nonnegative")
        if self.droptol < 0:
            raise ValueError("droptol must be nonnegative")
        if not 0.0 <= self.pivtol <= 1.0:
            raise ValueError("pivtol must lie in [0, 1]")


# splu settings under which a triangular matrix is its own factorization: no
# column ordering, no row pivoting, so no fill and identity permutations
_TRIANGULAR_SPLU = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))


class IlutpFactors:
    """Factors L, U and the column permutation such that A[:, colperm] ~ L U."""

    def __init__(self, L, U, colperm, params):
        self.L = L
        self.U = U
        self.colperm = np.asarray(colperm, dtype=np.int64)
        self.params = params
        self.shape = L.shape
        # checked and pre-factored once, so each apply is two C triangular solves
        self._L_lu = splu(L, **_TRIANGULAR_SPLU)
        self._U_lu = splu(U, **_TRIANGULAR_SPLU)

    @property
    def n(self):
        return self.shape[0]

    def apply_solve(self, v):
        """Approximate A^{-1} v: forward solve, back solve, undo the column permutation."""
        v = np.asarray(v).ravel()
        if v.shape[0] != self.n:
            raise ValueError(f"apply_solve: expected length {self.n}, got {v.shape[0]}")
        if np.iscomplexobj(v) and not np.iscomplexobj(self.L.data):
            # real factors: solve the real and imaginary parts as two right-hand sides
            z = self._U_lu.solve(self._L_lu.solve(np.column_stack([v.real, v.imag])))
            z = z[:, 0] + 1j * z[:, 1]
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


def factor(A, params: IlutpParams = IlutpParams()) -> IlutpFactors:
    """Dual-threshold pivoted incomplete factorization of a square sparse matrix."""
    A = as_csc(A)
    n, m = A.shape
    if n != m:
        raise ValueError("factor: matrix must be square")
    R = A.tocsr()  # one-time transposition of the column layout for row access
    R.sort_indices()
    dtype = R.dtype

    lfil = params.lfil
    droptol = params.droptol
    pivtol = params.pivtol

    perm = np.arange(n, dtype=np.int64)   # original column -> permuted position
    iperm = np.arange(n, dtype=np.int64)  # permuted position -> original column

    w = np.zeros(n, dtype=dtype)
    present = np.zeros(n, dtype=bool)
    uinv = np.zeros(n, dtype=dtype)
    udiag = np.zeros(n, dtype=dtype)
    # kept off-diagonal upper rows, original column indices, used by later eliminations
    urow_cols = [None] * n
    urow_vals = [None] * n
    lrow_cols = [None] * n
    lrow_vals = [None] * n

    for ii in range(n):
        j0, j1 = R.indptr[ii], R.indptr[ii + 1]
        cols0 = R.indices[j0:j1]
        vals0 = R.data[j0:j1]
        if j0 == j1:
            raise FactorizationError(ii, f"row {ii} of the matrix is empty")
        tnorm = droptol * float(np.linalg.norm(vals0))

        w[cols0] = vals0
        present[cols0] = True
        touched = list(cols0)
        heap = [(int(perm[c]), int(c)) for c in cols0 if perm[c] < ii]
        heapq.heapify(heap)

        lcols = []
        lvals = []
        while heap:
            p, c = heapq.heappop(heap)
            fact = w[c] * uinv[p]
            present[c] = False
            w[c] = 0
            if abs(fact) < tnorm or fact == 0:
                continue
            ucols = urow_cols[p]
            if ucols is not None and ucols.size:
                uvals = urow_vals[p]
                fresh = ucols[~present[ucols]]
                w[ucols] -= fact * uvals
                if fresh.size:
                    present[fresh] = True
                    touched.extend(int(c2) for c2 in fresh)
                    for c2 in fresh:
                        if perm[c2] < ii:
                            heapq.heappush(heap, (int(perm[c2]), int(c2)))
            lcols.append(c)
            lvals.append(fact)

        # split the surviving entries into diagonal candidate and upper part
        ucand = np.array([c for c in touched if present[c]], dtype=np.int64)
        diag_col = iperm[ii]
        diag_val = w[diag_col] if (ucand.size and present[diag_col]) else dtype.type(0)
        upper = ucand[ucand != diag_col]
        upper_vals = w[upper]
        if upper.size:
            keep = np.abs(upper_vals) >= tnorm
            upper = upper[keep]
            upper_vals = upper_vals[keep]

        # pivot: largest upper entry beats the diagonal candidate when scaled by pivtol
        if upper.size:
            order = np.lexsort((upper, -np.abs(upper_vals)))
            best = order[0]
            if abs(upper_vals[best]) * pivtol > abs(diag_val):
                swap_col = upper[best]
                pos_swap = perm[swap_col]
                perm[diag_col], perm[swap_col] = pos_swap, ii
                iperm[ii] = swap_col
                iperm[pos_swap] = diag_col
                mask = np.ones(upper.size, dtype=bool)
                mask[best] = False
                new_upper = upper[mask]
                new_vals = upper_vals[mask]
                if abs(diag_val) >= tnorm:  # old candidate joins the upper part
                    new_upper = np.append(new_upper, diag_col)
                    new_vals = np.append(new_vals, diag_val)
                diag_val = upper_vals[best]
                upper, upper_vals = new_upper, new_vals

        if abs(diag_val) < PIVOT_FLOOR:
            w[np.asarray(touched, dtype=np.int64)] = 0
            present[np.asarray(touched, dtype=np.int64)] = False
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

        reset = np.asarray(touched, dtype=np.int64)
        w[reset] = 0
        present[reset] = False

    # assemble in permuted column coordinates; positions of kept entries are
    # final because later swaps only touch positions beyond the storing row
    lr, lcn, lvn = [], [], []
    ur, ucn, uvn = [], [], []
    for ii in range(n):
        lr.append(np.full(lrow_cols[ii].size + 1, ii, dtype=np.int64))
        lcn.append(np.append(perm[lrow_cols[ii]], ii))
        lvn.append(np.append(lrow_vals[ii], dtype.type(1)))
        ur.append(np.full(urow_cols[ii].size + 1, ii, dtype=np.int64))
        ucn.append(np.append(perm[urow_cols[ii]], ii))
        uvn.append(np.append(urow_vals[ii], udiag[ii]))

    L = sp.csc_matrix(
        (np.concatenate(lvn), (np.concatenate(lr), np.concatenate(lcn))), shape=(n, n)
    )
    U = sp.csc_matrix(
        (np.concatenate(uvn), (np.concatenate(ur), np.concatenate(ucn))), shape=(n, n)
    )
    L.sort_indices()
    U.sort_indices()
    return IlutpFactors(L, U, iperm.copy(), params)
