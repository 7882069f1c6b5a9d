"""A-priori sparsity patterns: the index structures a map is minimized over."""

import numpy as np
import scipy.sparse as sp

from .sparse import as_csc


class SparsityPattern:
    """Per-column sorted row-index sets, stored as CSC structure without values."""

    __slots__ = ("nrows", "ncols", "indptr", "indices")

    def __init__(self, nrows, ncols, indptr, indices):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indptr.shape != (self.ncols + 1,) or self.indptr[0] != 0:
            raise ValueError("bad column pointer array")
        if self.indptr[-1] != self.indices.size or np.any(np.diff(self.indptr) < 0):
            raise ValueError("column pointers inconsistent with index array")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.nrows:
                raise ValueError("row index out of range")
            col = np.repeat(np.arange(self.ncols), np.diff(self.indptr))
            bad = np.flatnonzero((np.diff(self.indices) <= 0) & (np.diff(col) == 0))
            if bad.size:
                raise ValueError(f"column {col[bad[0]]} not strictly increasing")

    @classmethod
    def from_positions(cls, nrows, ncols, rows, cols) -> "SparsityPattern":
        """Build from (row, col) pairs in any order; duplicates collapse."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("position out of range")
        return pattern_of(sp.csc_matrix((np.ones(rows.size), (rows, cols)), shape=(nrows, ncols)))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def column(self, j) -> np.ndarray:
        return self.indices[self.indptr[j]:self.indptr[j + 1]]

    def column_counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def positions(self):
        """(rows, cols) arrays of all stored positions, column-major order."""
        cols = np.repeat(np.arange(self.ncols, dtype=np.int64), self.column_counts())
        return self.indices.copy(), cols

    def indicator(self, dtype=np.float64) -> sp.csc_matrix:
        """All-ones CSC matrix on this pattern (for structural products)."""
        return sp.csc_matrix(
            (np.ones(self.nnz, dtype=dtype), self.indices.copy(), self.indptr.copy()),
            shape=(self.nrows, self.ncols),
        )

    def __eq__(self, other):
        return (
            isinstance(other, SparsityPattern)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self):
        return f"SparsityPattern({self.nrows}x{self.ncols}, nnz={self.nnz})"


def pattern_of(A) -> SparsityPattern:
    """Positions of all stored entries of A, stored zeros included."""
    A = as_csc(A)
    return SparsityPattern(A.shape[0], A.shape[1],
                           A.indptr.astype(np.int64), A.indices.astype(np.int64))


def offset_pattern(n: int, offsets) -> SparsityPattern:
    """Pattern with position (s + o, s) for every column s and offset o.

    Out-of-range offsets are clipped at the boundaries, so offset 0 gives the
    diagonal and offsets (-1, 0, 1) the tridiagonal pattern.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    offsets = sorted(set(int(o) for o in offsets))
    rows = []
    cols = []
    s = np.arange(n, dtype=np.int64)
    for o in offsets:
        r = s + o
        keep = (r >= 0) & (r < n)
        rows.append(r[keep])
        cols.append(s[keep])
    if not rows:
        return SparsityPattern(n, n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    return SparsityPattern.from_positions(n, n, np.concatenate(rows), np.concatenate(cols))


def symbolic_power(P: SparsityPattern, p: int) -> SparsityPattern:
    """Structural pattern of the p-th power, by repeated boolean products."""
    if P.nrows != P.ncols:
        raise ValueError("symbolic_power needs a square pattern")
    if not 1 <= p <= 5:
        raise ValueError("power must be between 1 and 5")
    base = P.indicator()
    acc = base.copy()
    for _ in range(p - 1):
        acc = acc @ base
        acc.data[:] = 1.0  # keep counts from growing across repeated products
    return pattern_of(acc)


def sparsified_power(A, p: int, tau: float) -> SparsityPattern:
    """Pattern of A^p thresholded at tau.

    The threshold is relative: A^p is scaled to unit maximum magnitude before
    comparing against tau, so tau is scale-free.  tau = 0 keeps the full
    structural pattern of A^p.
    """
    A = as_csc(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("sparsified_power needs a square matrix")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return symbolic_power(pattern_of(A), p)
    if not 1 <= p <= 5:
        raise ValueError("power must be between 1 and 5")
    Ap = A.copy()
    for _ in range(p - 1):
        Ap = (Ap @ A).tocsc()
    Ap.sum_duplicates()
    Ap.sort_indices()
    mags = np.abs(Ap.data)
    keep = mags >= tau * (mags.max() if mags.size else 0.0)
    coo = Ap.tocoo()
    return SparsityPattern.from_positions(A.shape[0], A.shape[1],
                                          coo.row[keep], coo.col[keep])


def _check_dims(P: SparsityPattern, Q: SparsityPattern):
    if (P.nrows, P.ncols) != (Q.nrows, Q.ncols):
        raise ValueError(f"pattern dimension mismatch {P.nrows}x{P.ncols} vs {Q.nrows}x{Q.ncols}")


def pattern_union(P: SparsityPattern, Q: SparsityPattern) -> SparsityPattern:
    _check_dims(P, Q)
    return pattern_of(P.indicator() + Q.indicator())


def pattern_intersection(P: SparsityPattern, Q: SparsityPattern) -> SparsityPattern:
    _check_dims(P, Q)
    return pattern_of(P.indicator().multiply(Q.indicator()))


def is_subset(P: SparsityPattern, Q: SparsityPattern) -> bool:
    """True when every position of P also appears in Q."""
    _check_dims(P, Q)
    return pattern_intersection(P, Q).nnz == P.nnz


def write_pattern(P: SparsityPattern, path):
    """Write as text: a "nrows ncols nnz" header then one "row col" line per entry."""
    np.savetxt(path, np.column_stack(P.positions()), fmt="%d",
               header=f"{P.nrows} {P.ncols} {P.nnz}", comments="")


def read_pattern(path) -> SparsityPattern:
    """Read the text format written by :func:`write_pattern`.

    Entries need not be sorted on disk; indices are 0-based.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: malformed pattern header, expected 'nrows ncols nnz'")
        try:
            nrows, ncols, nnz = (int(tok) for tok in header)
        except ValueError:
            raise ValueError(f"{path}: malformed pattern header, expected three integers") from None
        # loadtxt warns on an empty input, which a pattern with no entries is
        entries = (np.loadtxt(fh, dtype=np.int64, ndmin=2, max_rows=nnz) if nnz > 0
                   else np.empty((0, 2), dtype=np.int64))
    if entries.shape != (nnz, 2):
        raise ValueError(f"{path}: header promises {nnz} 'row col' entries, "
                         f"file holds {entries.shape[0]} of {entries.shape[1]} values")
    return SparsityPattern.from_positions(nrows, ncols, entries[:, 0], entries[:, 1])
