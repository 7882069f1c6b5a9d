"""Random sparse matrices and patterns shared by the test modules."""

import numpy as np
import scipy.sparse as sp

from samkit import as_csc, pattern_of


def random_sparse(n, rng, per_col=5, diag_boost=None, complex_values=False):
    """Random sparse matrix with per_col entries per column.

    With diag_boost set, that multiple of the identity is added, which makes
    the matrix well conditioned and all local least-squares blocks full rank.
    """
    rows, cols, vals = [], [], []
    for j in range(n):
        r = rng.choice(n, size=per_col, replace=False)
        rows.extend(r)
        cols.extend([j] * per_col)
        v = rng.standard_normal(per_col)
        if complex_values:
            v = v + 1j * rng.standard_normal(per_col)
        vals.extend(v)
    A = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    if diag_boost:
        A = A + diag_boost * sp.identity(n)
    return as_csc(A)


def random_pattern(n, rng, lo=3, hi=8):
    rows, cols = [], []
    for j in range(n):
        k = int(rng.integers(lo, hi))
        rows.extend(rng.choice(n, size=k, replace=False))
        cols.extend([j] * k)
    return pattern_of(sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)))


def pattern_to_bool(P):
    """Dense boolean matrix, True at every position of pattern P."""
    return P.toarray() != 0


def same_pattern(P, Q):
    """Whether patterns P and Q have the same shape and positions."""
    return (P.shape == Q.shape and np.array_equal(P.indptr, Q.indptr)
            and np.array_equal(P.indices, Q.indices))


def grid_laplacian_triplets(nx, ny):
    """5-point stencil triplets on an nx-by-ny grid, assembled by enumeration."""
    rows, cols, vals = [], [], []
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            rows.append(k); cols.append(k); vals.append(4.0)
            for (di, dj) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    rows.append(k); cols.append(jj * nx + ii); vals.append(-1.0)
    return rows, cols, vals
