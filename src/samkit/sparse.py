"""Compressed column-major sparse storage and the kernels shared by every module.

Matrices are ``scipy.sparse.csc_matrix`` values in double precision, real or
complex.  The canonical form used throughout the package has sorted row
indices within each column and summed duplicates; explicitly stored zeros are
legal and are never pruned by the kernels here.  The package's one range
rule lives here too: exact power-of-two scaling of the values the map and
GMRES work on, so that no norm of them overflows.  A norm alone comes from
BLAS ``nrm2``, which scales internally.
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


def scale_exponent(x, axis=None):
    """The exponent e that puts the largest real or imaginary part of float array x times 2**-e in [0.5, 1).

    e is 0 where that part is zero, NaN or Inf, or x is empty.  ``axis``
    reduces as ``np.max`` does, all of x by default.
    """
    return np.frexp(np.abs(np.ascontiguousarray(x).view(REAL)).max(axis=axis, initial=0))[1]


def ldexp(x, e):
    """Float array x times 2**e exactly, both parts of a complex x alike; an array e scales x per leading index."""
    parts = np.ascontiguousarray(x).view(REAL).reshape(x.shape + (x.itemsize // REAL.itemsize,))
    e = np.reshape(e, np.shape(e) + (1,) * (parts.ndim - np.ndim(e)))
    return np.ldexp(parts, e).view(x.dtype).reshape(x.shape)


def norm_ratio(num, den) -> float:
    """num / den of two norms; against a zero den, 0.0 when num is zero too and inf otherwise."""
    return num / den if den > 0 else (0.0 if num == 0 else np.inf)


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
    """``A`` (sparse or dense) as :func:`checked_csc` returns it: malformed index arrays raise ``ValueError``."""
    return checked_csc(A)[0]


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
    """:func:`check_indices` over all ``matrices``, then each one as a canonical CSC matrix.

    Canonical means: per-column row indices sorted and strictly increasing,
    duplicates summed.  Stored zeros are preserved.
    """
    check_indices(*matrices)
    return [_canonical(M) for M in matrices]


def _canonical(A) -> sp.csc_matrix:
    """``A`` as a canonical CSC matrix of its working scalar field, its index arrays read unchecked."""
    if sp.issparse(A):
        M = A.tocsc(copy=False)
    else:
        M = sp.csc_matrix(np.atleast_2d(np.asarray(A)))
    M = M.astype(scalar_dtype(M), copy=False)
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    return M

