"""Compressed column-major sparse storage and the kernels shared by every module.

Matrices are ``scipy.sparse.csc_matrix`` values in double precision, real or
complex.  The canonical form used throughout the package has sorted row
indices within each column and summed duplicates; explicitly stored zeros are
legal and are never pruned by the kernels here.
"""

import numpy as np
import scipy.sparse as sp

REAL = np.dtype(np.float64)
COMPLEX = np.dtype(np.complex128)


def scalar_dtype(*operands) -> np.dtype:
    """Working scalar field (float64 or complex128) for a set of operands."""
    dt = np.result_type(np.float64, *[getattr(op, "dtype", np.asarray(op).dtype) for op in operands])
    return COMPLEX if np.issubdtype(dt, np.complexfloating) else REAL


def as_csc(A) -> sp.csc_matrix:
    """Coerce ``A`` (sparse or dense) to a canonical CSC matrix.

    Canonical means: per-column row indices sorted and strictly increasing,
    duplicates summed.  Stored zeros are preserved.
    """
    if sp.issparse(A):
        M = A.tocsc(copy=False)
    else:
        M = sp.csc_matrix(np.atleast_2d(np.asarray(A)))
    M = M.astype(scalar_dtype(M), copy=False)
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


def shifted_family(alphas, E, A) -> list:
    """[alpha * E + A for alpha in alphas], every member on one shared pattern.

    ``alphas`` must be a 1-D sequence of finite scalars; anything else raises
    ``ValueError``.  The pattern is the union of the patterns of ``E`` and
    ``A``; it is built and validated once, as a template matrix.  The values,
    row indices and column pointers of all members are computed in one pass
    each, as stacked blocks with one row per member, and member ``k`` holds
    row ``k`` of each block.  Rows do not overlap, so members share no
    memory; a block is freed only when every member holding one of its rows
    is.  A position where the sum cancels (including alpha = 0) stays as a
    stored zero.  Every position sums at most two terms, so each value is
    exactly ``alpha * e + a``, and all members share one dtype, the scalar
    field of ``alphas``, ``E`` and ``A``.
    """
    _check_same_shape(E, A, "shifted_family")
    alphas = np.asarray(alphas)
    if alphas.ndim != 1 or not np.all(np.isfinite(alphas)):
        raise ValueError("shifted_family: alphas must be a 1-D sequence of finite values")
    E = as_csc(E)
    A = as_csc(A)
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
    # the index checks run once, on the template; sum_duplicates finds it
    # canonical and caches the flags that every member inherits
    template = sp.csc_matrix((base, tags.indices, tags.indptr), shape=A.shape)
    template.check_format(full_check=True)
    template.sum_duplicates()
    # row k is member k's values: base, plus alphas[k] * e at E's positions
    m = alphas.size
    data = np.repeat(base[None], m, axis=0)
    data[:, e_pos] += np.multiply.outer(alphas.astype(dt), E.data.astype(dt))
    indices = np.tile(template.indices, (m, 1))
    indptr = np.tile(template.indptr, (m, 1))
    cls = type(template)
    family = []
    for row_data, row_indices, row_indptr in zip(data, indices, indptr):
        member = cls.__new__(cls)
        member.__dict__.update(template.__dict__, data=row_data, indices=row_indices, indptr=row_indptr)
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
