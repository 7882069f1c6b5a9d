"""Compressed column-major sparse storage and the kernels shared by every module.

Matrices are ``scipy.sparse.csc_matrix`` values in double precision, real or
complex.  The canonical form used throughout the package has sorted row
indices within each column and summed duplicates; explicitly stored zeros are
legal and are never pruned by the kernels here.
"""

import copy
import numbers

import numpy as np
import scipy.sparse as sp

REAL = np.dtype(np.float64)
COMPLEX = np.dtype(np.complex128)


def scalar_dtype(*operands) -> np.dtype:
    """Working scalar field (float64 or complex128) for a set of operands."""
    dt = np.result_type(np.float64, *[getattr(op, "dtype", np.asarray(op).dtype) for op in operands])
    return COMPLEX if np.issubdtype(dt, np.complexfloating) else REAL


def check_integers(minimum=None, **values):
    """Raise ``ValueError`` naming the first of ``values`` that is not an integer, or is below ``minimum``.

    numpy integers pass; ``bool`` is an ``Integral`` but not a size or a count.
    """
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"{name} must be at least {minimum}, not {value}")


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
    return M


def check_indices(*matrices):
    """Raise ``ValueError`` where a compressed matrix's index arrays are malformed.

    scipy's kernels read them unchecked, and bad ones crash the process or
    give wrong results.  scipy's full check runs once per distinct
    ``indices``/``indptr`` pair, so a family sharing one pattern costs one
    check, and on a shallow copy, since it may swap a matrix's arrays for
    views or copies.  Operands that are not compressed pass.
    """
    for M in {(id(M.indices), id(M.indptr)): M for M in matrices if hasattr(M, "check_format")}.values():
        copy.copy(M).check_format(full_check=True)


def checked_csc(*matrices) -> list:
    """:func:`check_indices` over all ``matrices``, then each one as :func:`as_csc` returns it."""
    check_indices(*matrices)
    return [as_csc(M) for M in matrices]


def matvec(A, x: np.ndarray) -> np.ndarray:
    """y = A x, computed by scipy's ``A.dot`` after a length check.

    Internal and unchecked: ``A``'s index arrays are read as they are, and
    malformed ones can crash the process.  Its one caller is the map apply
    of :class:`samkit.sam.PreconditionerChain`, whose ``N`` was checked when
    the chain was built; the named entry point lets a tracer patch it to
    time the map apart from the reference operator.
    """
    x = np.asarray(x).ravel()
    if A.shape[1] != x.shape[0]:
        raise ValueError(f"matvec: matrix has {A.shape[1]} columns, vector has length {x.shape[0]}")
    return A.dot(x)


def shifted_family(alphas, E, A) -> list:
    """[alpha * E + A for alpha in alphas], every member on one shared pattern.

    ``alphas`` must be a 1-D sequence of finite scalars; anything else raises
    ``ValueError``.  The pattern is the union of the patterns of ``E`` and
    ``A``; it is built and validated once, as a template matrix.  The values
    of all members are computed in one pass, as a stacked block with one row
    per member, and member ``k`` holds row ``k`` of it as its ``data``: value
    rows do not overlap, and the block is freed only when every member
    holding one of its rows is.  All members hold the template's one
    ``indices``/``indptr`` pair, which shares no memory with ``E`` or ``A``
    and is read-only, so writing a member's pattern in place raises
    ``ValueError`` instead of changing its siblings; ``copy()`` gives a
    member a writeable pattern of its own.  A position where the sum cancels
    (including alpha = 0) stays as a stored zero.  Every position sums at
    most two terms, so each value is exactly ``alpha * e + a``, and all
    members share one dtype, the scalar field of ``alphas``, ``E`` and ``A``.
    """
    if E.shape != A.shape:
        raise ValueError(f"shifted_family: shape mismatch {E.shape} vs {A.shape}")
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
    template.indices.flags.writeable = False
    template.indptr.flags.writeable = False
    # row k is member k's values: base, plus alphas[k] * e at E's positions
    data = np.repeat(base[None], alphas.size, axis=0)
    data[:, e_pos] = base[e_pos] + np.multiply.outer(alphas.astype(dt), E.data.astype(dt))
    cls = type(template)
    family = []
    for row in data:
        member = cls.__new__(cls)
        member.__dict__.update(template.__dict__, data=row)
        family.append(member)
    return family

