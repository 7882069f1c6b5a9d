"""A-priori sparsity patterns: the index structures a map is minimized over.

A pattern is a canonical ``scipy.sparse.csc_matrix`` that stores 1.0 at each
of its positions, so structural unions and products are scipy sums and
products of patterns.
"""

import numpy as np
import scipy.sparse as sp

from .sparse import check_integers, checked_csc


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


def _check_power(p):
    check_integers(p=p)
    if not 1 <= p <= 5:
        raise ValueError("power must be between 1 and 5")


def symbolic_power(P, p: int) -> sp.csc_matrix:
    """Structural pattern of P^p, by repeated products of the pattern of P."""
    P = pattern_of(P)
    if P.shape[0] != P.shape[1]:
        raise ValueError("symbolic_power needs a square pattern")
    _check_power(p)
    acc = P
    for _ in range(p - 1):
        acc = pattern_of(acc @ P)  # keep counts from growing across repeated products
    return acc


def sparsified_power(A, p: int, tau: float) -> sp.csc_matrix:
    """Pattern of A^p thresholded at tau.

    The threshold is relative: A^p is scaled to unit maximum magnitude before
    comparing against tau, so tau is scale-free and lies in [0, 1].  tau = 0
    keeps the full structural pattern of A^p, and tau = 1 its largest
    entries.  Malformed index arrays raise ``ValueError``.
    """
    [A] = checked_csc(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("sparsified_power needs a square matrix")
    if not 0 <= tau <= 1:  # NaN fails too; above 1 nothing would be kept
        raise ValueError(f"tau must lie in [0, 1], not {tau}")
    _check_power(p)
    if tau == 0:
        return symbolic_power(A, p)
    Ap = A.copy()
    for _ in range(p - 1):
        Ap = (Ap @ A).tocsc()
    Ap.sum_duplicates()
    mags = np.abs(Ap.data)
    keep = mags >= tau * (mags.max() if mags.size else 0.0)
    coo = Ap.tocoo()
    return pattern_of(sp.csc_matrix((np.ones(keep.sum()), (coo.row[keep], coo.col[keep])), shape=A.shape))



# each string pattern choice: its form, the converters of its ':'-separated
# arguments, and its builder from the reference matrix and those arguments
_PATTERN_FORMS = {
    "ref": ("ref", (), pattern_of),
    "power": ("power:P", (int,), symbolic_power),
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
    ``A_ref``'s raises ``ValueError``, and anything else ``TypeError``.
    """
    if sp.issparse(choice):
        n = A_ref.shape[0]
        if choice.shape != (n, n):
            raise ValueError(f"pattern is {choice.shape[0]}x{choice.shape[1]}, systems have size {n}")
        return pattern_of(choice)
    if not isinstance(choice, str):
        raise TypeError("pattern choice must be a sparse matrix or a string")
    name, sep, arg = choice.partition(":")
    if name not in _PATTERN_FORMS:
        raise ValueError(f"unknown pattern choice {choice!r}")
    form, convert, build = _PATTERN_FORMS[name]
    try:
        args = [to(text) for to, text in zip(convert, arg.split(":") if sep else [], strict=True)]
    except ValueError:
        raise ValueError(f"pattern choice {choice!r}: expected the form {form}") from None
    return build(A_ref, *args)
