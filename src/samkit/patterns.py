"""A-priori sparsity patterns: the index structures a map is minimized over.

A pattern is a canonical ``scipy.sparse.csc_matrix`` that stores 1.0 at each
of its positions, so structural unions and products are scipy sums and
products of patterns.
"""

import numpy as np
import scipy.sparse as sp

from .sparse import as_csc, check_indices


def _indices(a) -> np.ndarray:
    """``a`` as int64 sizes or indices; non-integer values raise instead of truncating."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"sizes and indices must be integers, not {a.dtype}")
    return a.astype(np.int64, copy=False)


def pattern_of(A) -> sp.csc_matrix:
    """Pattern of the stored entries of A, stored zeros included.

    Malformed compressed index arrays raise ``ValueError`` (see
    :func:`samkit.sparse.check_indices`).
    """
    check_indices(A)
    A = as_csc(A)
    return sp.csc_matrix((np.ones(A.nnz), A.indices.copy(), A.indptr.copy()), shape=A.shape)


def _from_positions(nrows, ncols, rows, cols) -> sp.csc_matrix:
    """Pattern of (row, col) pairs in any order; duplicates collapse."""
    nrows, ncols = _indices([nrows, ncols]).tolist()
    rows, cols = _indices(rows), _indices(cols)
    if rows.size:
        if rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols:
            raise ValueError("position out of range")
    return pattern_of(sp.csc_matrix((np.ones(rows.size), (rows, cols)), shape=(nrows, ncols)))


def offset_pattern(n: int, offsets) -> sp.csc_matrix:
    """Pattern with position (s + o, s) for every column s and offset o.

    Out-of-range offsets are clipped at the boundaries, so offset 0 gives the
    diagonal and offsets (-1, 0, 1) the tridiagonal pattern.
    """
    n = int(_indices(n))
    if n <= 0:
        raise ValueError("n must be positive")
    rows = np.arange(n) + _indices(offsets)[:, None]
    keep = (rows >= 0) & (rows < n)
    return _from_positions(n, n, rows[keep], np.nonzero(keep)[1])


def symbolic_power(P, p: int) -> sp.csc_matrix:
    """Structural pattern of P^p, by repeated products of the pattern of P."""
    P = pattern_of(P)
    if P.shape[0] != P.shape[1]:
        raise ValueError("symbolic_power needs a square pattern")
    if not 1 <= p <= 5:
        raise ValueError("power must be between 1 and 5")
    acc = P
    for _ in range(p - 1):
        acc = pattern_of(acc @ P)  # keep counts from growing across repeated products
    return acc


def sparsified_power(A, p: int, tau: float) -> sp.csc_matrix:
    """Pattern of A^p thresholded at tau.

    The threshold is relative: A^p is scaled to unit maximum magnitude before
    comparing against tau, so tau is scale-free.  tau = 0 keeps the full
    structural pattern of A^p.  Malformed index arrays raise ``ValueError``.
    """
    check_indices(A)
    A = as_csc(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("sparsified_power needs a square matrix")
    if not tau >= 0:  # NaN fails too
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return symbolic_power(A, p)
    if not 1 <= p <= 5:
        raise ValueError("power must be between 1 and 5")
    Ap = A.copy()
    for _ in range(p - 1):
        Ap = (Ap @ A).tocsc()
    Ap.sum_duplicates()
    mags = np.abs(Ap.data)
    keep = mags >= tau * (mags.max() if mags.size else 0.0)
    coo = Ap.tocoo()
    return _from_positions(A.shape[0], A.shape[1], coo.row[keep], coo.col[keep])

