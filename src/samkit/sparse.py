"""Compressed column-major sparse storage and the kernels shared by every module.

Matrices are ``scipy.sparse.csc_matrix`` values in double precision, real or
complex.  The canonical form used throughout the package has sorted row
indices within each column and summed duplicates; explicitly stored zeros are
legal and are never pruned by the kernels here.
"""

import copy

import numpy as np
import scipy.sparse as sp

REAL = np.dtype(np.float64)
COMPLEX = np.dtype(np.complex128)


def scalar_dtype(*operands) -> np.dtype:
    """Working scalar field (float64 or complex128) for a set of operands."""
    dt = np.result_type(np.float64, *[getattr(op, "dtype", np.asarray(op).dtype) for op in operands])
    return COMPLEX if np.issubdtype(dt, np.complexfloating) else REAL


def as_csc(A, dtype=None) -> sp.csc_matrix:
    """Coerce ``A`` (sparse or dense) to a canonical CSC matrix.

    Canonical means: per-column row indices sorted and strictly increasing,
    duplicates summed.  Stored zeros are preserved.
    """
    if sp.issparse(A):
        M = A.tocsc(copy=False)
    else:
        M = sp.csc_matrix(np.atleast_2d(np.asarray(A)))
    want = dtype if dtype is not None else scalar_dtype(M)
    if M.dtype != want:
        M = M.astype(want)
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
        M.sort_indices()
    return M


def _check_same_shape(A, B, op: str):
    if A.shape != B.shape:
        raise ValueError(f"{op}: shape mismatch {A.shape} vs {B.shape}")


def matvec(A, x: np.ndarray) -> np.ndarray:
    """y = A x, computed by scipy's ``A.dot`` after a length check.

    The wrapper stays so that the map apply in
    :class:`samkit.sam.PreconditionerChain` has one named entry point, which
    a tracer can patch to time it apart from the other operator stages.
    """
    x = np.asarray(x).ravel()
    if A.shape[1] != x.shape[0]:
        raise ValueError(f"matvec: matrix has {A.shape[1]} columns, vector has length {x.shape[0]}")
    return A.dot(x)


def extract_dense_submatrix(A, rows, cols) -> np.ndarray:
    """Dense block A[rows, cols]; positions not stored in A read as zero."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    for idx, n, name in ((rows, A.shape[0], "row"), (cols, A.shape[1], "column")):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(f"{name} index out of range for shape {A.shape}")
    if rows.size == 0 or cols.size == 0:
        return np.zeros((rows.size, cols.size), dtype=A.dtype)
    return np.asarray(A[np.ix_(rows, cols)].todense())


def shifted_family(alphas, E, A) -> list:
    """[alpha * E + A for alpha in alphas], every member on one shared pattern.

    The pattern is the union of the patterns of ``E`` and ``A``; it is built
    and validated once, as a template matrix, and each member is a shallow
    copy of the template given its own ``data``, ``indices`` and ``indptr``.
    A position where the sum cancels (including alpha = 0) stays as a stored
    zero.  Every position sums at most two terms, so each value is exactly
    ``alpha * e + a``, and all members share one dtype, the scalar field of
    ``alphas``, ``E`` and ``A``.
    """
    _check_same_shape(E, A, "shifted_family")
    E = as_csc(E)
    A = as_csc(A)
    alphas = np.asarray(alphas)
    dt = scalar_dtype(alphas, E, A)
    # tag E's entries 1 and A's entries 2; their sum stores the union pattern
    # in canonical order, and the bits of each tag say who covers the position
    tags = (sp.csc_matrix((np.ones(E.nnz, np.int8), E.indices, E.indptr), shape=E.shape)
            + sp.csc_matrix((np.full(A.nnz, 2, np.int8), A.indices, A.indptr), shape=A.shape))
    e_pos = np.flatnonzero(tags.data & 1)
    # -0.0 is the additive identity: positions only E covers get alpha * e
    # exactly, sign of zero included
    base = -np.zeros(tags.nnz, dtype=dt)
    base[np.flatnonzero(tags.data & 2)] = A.data
    e_vals = E.data.astype(dt)
    # the index checks run once, on the template; sum_duplicates finds it
    # canonical and caches the flags that every member inherits
    template = sp.csc_matrix((base, tags.indices, tags.indptr), shape=A.shape)
    template.check_format(full_check=True)
    template.sum_duplicates()
    family = []
    for alpha in alphas:
        member = copy.copy(template)
        member.data = base.copy()
        member.data[e_pos] += dt.type(alpha) * e_vals
        member.indices = template.indices.copy()
        member.indptr = template.indptr.copy()
        family.append(member)
    return family


def shifted_combine(alpha, E, A) -> sp.csc_matrix:
    """alpha * E + A with the union of both sparsity patterns stored.

    The one-member case of :func:`shifted_family`: positions whose sum
    cancels (including alpha = 0) stay in the pattern as stored zeros.
    """
    return shifted_family([alpha], E, A)[0]


def frobenius_norm_diff(A, B=None) -> float:
    """Frobenius norm of A - B (or of A when B is omitted)."""
    if B is None:
        return float(np.linalg.norm(as_csc(A).data))
    _check_same_shape(A, B, "frobenius_norm_diff")
    D = as_csc(A) - as_csc(B)
    return float(np.linalg.norm(D.data))


def identity(n: int, dtype=REAL) -> sp.csc_matrix:
    return sp.identity(n, dtype=dtype, format="csc")
