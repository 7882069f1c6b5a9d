"""A-priori sparsity patterns: the index structures a map is minimized over.

A pattern is a canonical ``scipy.sparse.csc_matrix`` that stores 1.0 at each
of its positions, so structural unions and products are scipy sums and
products of patterns.
"""

import numpy as np
import scipy.sparse as sp

from .sparse import check_integers, checked_csc, ldexp, scale_exponent


def pattern_of(A) -> sp.csc_matrix:
    """Pattern of the stored entries of A, stored zeros included.

    Malformed compressed index arrays raise ``ValueError`` (see
    :func:`samkit.sparse.checked_csc`).
    """
    [A] = checked_csc(A)
    return sp.csc_matrix((np.ones(A.nnz), A.indices.copy(), A.indptr.copy()), shape=A.shape)


def offset_pattern(n: int, offsets) -> sp.csc_matrix:
    """Pattern with position (s + o, s) for every column s and offset o.

    Out-of-range offsets are clipped at the boundaries, so offset 0 gives the
    diagonal and offsets (-1, 0, 1) the tridiagonal pattern.
    """
    check_integers(minimum=1, n=n)
    offsets = np.asarray(offsets)
    if offsets.ndim != 1:
        raise ValueError(f"offsets must be a 1-D sequence, not a {offsets.ndim}-D array")
    if offsets.size and offsets.dtype.kind not in "iu":
        raise ValueError(f"offsets must be integers, not {offsets.dtype}")
    rows = np.arange(n) + offsets[:, None]
    keep = (rows >= 0) & (rows < n)
    cols = np.nonzero(keep)[1]
    return pattern_of(sp.csc_matrix((np.ones(cols.size), (rows[keep], cols)), shape=(n, n)))


def sparsified_power(A, p: int, tau: float = 0.0) -> sp.csc_matrix:
    """Pattern of A^p, thresholded at tau in [0, 1].

    tau = 0 keeps the structural pattern of A^p, from repeated products of
    the pattern of A.  Above 0 a position is kept where its magnitude in A^p
    is nonzero and at least tau times the largest, so tau = 1 keeps the
    largest entries, and a stored zero or a cancelled entry is never kept.
    A is first put on its power-of-two scale, so the largest entries of A^p
    stay in range and the threshold is scale-free: multiplying A by a power
    of two keeps the same positions.  Malformed index arrays raise ``ValueError``.
    """
    [A] = checked_csc(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("sparsified_power needs a square matrix")
    if not 0 <= tau <= 1:  # NaN fails too; above 1 nothing would be kept
        raise ValueError(f"tau must lie in [0, 1], not {tau}")
    check_integers(p=p)
    if not 1 <= p <= 5:
        raise ValueError("power must be between 1 and 5")
    # at tau = 0 the entries count paths, which are positive and never cancel
    data = np.ones(A.nnz) if tau == 0 else ldexp(A.data, -scale_exponent(A.data))
    A = sp.csc_matrix((data, A.indices, A.indptr), shape=A.shape)
    Ap = A
    for _ in range(p - 1):
        Ap = Ap @ A
    Ap = Ap.tocoo()
    mags = np.abs(Ap.data)
    keep = (mags > 0) & (mags >= tau * mags.max(initial=0.0))
    return pattern_of(sp.csc_matrix((np.ones(keep.sum()), (Ap.row[keep], Ap.col[keep])), shape=A.shape))


# each string pattern choice: its form, the converters of its ':'-separated
# arguments, and its builder from the reference matrix and those arguments
_PATTERN_FORMS = {
    "ref": ("ref", (), pattern_of),
    "power": ("power:P", (int,), sparsified_power),
    "sparsified": ("sparsified:P:TAU", (int, float), sparsified_power),
    "offsets": ("offsets:o1,o2,...", (lambda text: [int(tok) for tok in text.split(",")],),
                lambda A, offsets: offset_pattern(A.shape[0], offsets)),
}


def resolve_pattern(choice, A_ref) -> sp.csc_matrix:
    """Turn a pattern choice into a concrete pattern for the reference matrix.

    Accepts a sparse matrix, whose stored positions are the pattern, or one
    of the string forms ``ref``, ``power:P``, ``sparsified:P:TAU``,
    ``offsets:o1,o2,...`` (``offsets:0`` is the diagonal).  A pattern file
    is any Matrix Market matrix, passed as the matrix
    :func:`samkit.problems.matrix_market_read` returns, as
    ``[pattern] kind = file`` does; ``[pattern] kind`` takes the string forms,
    and one whose argument does not fit raises ``ValueError`` naming the form,
    as a builder's range check does.  A sparse choice whose shape is not
    ``A_ref``'s raises ``ValueError``, and anything else ``TypeError``.  A
    pattern with no positions, on which every map is zero, raises ``ValueError``.
    """
    n = A_ref.shape[0]
    if sp.issparse(choice):
        if choice.shape != (n, n):
            raise ValueError(f"pattern is {choice.shape[0]}x{choice.shape[1]}, systems have size {n}")
        P, what = pattern_of(choice), "pattern"
    elif not isinstance(choice, str):
        raise TypeError("pattern choice must be a sparse matrix or a string")
    else:
        name, sep, arg = choice.partition(":")
        if name not in _PATTERN_FORMS:
            raise ValueError(f"unknown pattern choice {choice!r}")
        form, convert, build = _PATTERN_FORMS[name]
        try:
            args = [to(text) for to, text in zip(convert, arg.split(":") if sep else [], strict=True)]
        except ValueError:
            raise ValueError(f"pattern choice {choice!r}: expected the form {form}") from None
        P, what = build(A_ref, *args), f"pattern choice {choice!r}"
    if P.nnz == 0:
        raise ValueError(f"{what} has no positions for a {n}x{n} reference")
    return P
