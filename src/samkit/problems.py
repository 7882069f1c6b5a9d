"""Test-problem generators, shift lists, and Matrix Market I/O.

Covers the built-in system sequences: a 2D Laplacian whose downward diagonal
shifts sweep through indefiniteness, stiffness/mass pairs shifted along a
complex quadrature contour, and externally supplied Matrix Market sequences.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp

from .sparse import as_csc, check_integers, checked_csc, scalar_dtype

# Modified Talbot contour constants (sigma, mu, alpha, nu), from the published
# optimized-contour literature, not from any property of this package.  This is
# the one contour; give a custom one as shifts (`shifts` or `shift_file`).
TALBOT_CONSTANTS = (0.6122, 0.5017, 0.6407, 0.2645)


def _diagonal(d) -> sp.csc_matrix:
    """The diagonal matrix of the values ``d``, built directly in canonical CSC."""
    n = d.size
    return sp.csc_matrix((d, np.arange(n, dtype=np.int32), np.arange(n + 1, dtype=np.int32)), shape=(n, n))


def fem_pair_2d(nx: int, ny: int, kappa=None):
    """Variable-coefficient stiffness and lumped mass pair on the unit square.

    ``kappa`` is the conductivity at the interior nodes: either a callable
    ``kappa(x, y)``, which is sampled at every node, or an ``(ny, nx)`` array
    of node values, row ``j`` at ``y = (j + 1) * hy`` and column ``i`` at
    ``x = (i + 1) * hx`` with ``hx = 1 / (nx + 1)`` and ``hy = 1 / (ny + 1)``;
    an array sampled there gives the same matrices bit for bit as the
    callable, and every value must be real, positive and finite.  Edge coefficients
    between neighbors are harmonic means of the two node values, and edges
    meeting the (zero Dirichlet) boundary use the node's own value.  With
    kappa constant 1 (the default) the stiffness is the unscaled 5-point
    Laplacian: 4 on the diagonal, -1 off it, unknowns ordered
    lexicographically, x fastest.  A kappa so large that the stiffness would
    overflow raises ``ValueError``.  The mass matrix is diagonal with the
    cell area at every node.
    """
    check_integers(minimum=2, nx=nx, ny=ny)
    hx = 1.0 / (nx + 1)
    hy = 1.0 / (ny + 1)
    xs = (np.arange(nx) + 1) * hx
    ys = (np.arange(ny) + 1) * hy
    if kappa is None:
        kap = np.ones((ny, nx))
    elif callable(kappa):
        kap = np.array([[kappa(x, y) for x in xs] for y in ys])
    else:
        kap = np.asarray(kappa)
    if kap.dtype.kind not in "iuf":  # a cast to float would drop an imaginary part and read strings and bools as numbers
        raise ValueError(f"kappa must be real, not of dtype {kap.dtype}")
    kap = np.asarray(kap, dtype=float)
    if kap.shape != (ny, nx):
        raise ValueError(f"kappa must have one value per node, shape {(ny, nx)}, not {kap.shape}")
    if np.any(kap <= 0) or not np.all(np.isfinite(kap)):
        raise ValueError("kappa must be positive and finite at every node")
    return _stiffness(kap), _diagonal(np.full(nx * ny, hx * hy))


def _stiffness(kap):
    """Stiffness of :func:`fem_pair_2d` for the ny-by-nx node conductivities ``kap``.

    The matrix is assembled straight into canonical CSC: column ``j`` holds
    the slots of rows ``j - nx, j - 1, j, j + 1, j + nx`` in that order.  The
    off-diagonal slots are the negated neighbour couplings that the diagonal
    sums, and the slots that fall off the grid are masked out.
    """
    ny, nx = kap.shape

    def hmean(a, b):
        return 2.0 * a * b / (a + b)

    # every edge value enters a diagonal entry, where an overflow is refused by name
    with np.errstate(over="ignore", invalid="ignore"):
        cx = hmean(kap[:, :-1], kap[:, 1:])     # edge between nodes (j, i) and (j, i + 1)
        cy = hmean(kap[:-1], kap[1:])           # edge between nodes (j, i) and (j + 1, i)
        west = np.hstack([kap[:, :1], cx])
        east = np.hstack([cx, kap[:, -1:]])
        south = np.vstack([kap[:1], cy])
        north = np.vstack([cy, kap[-1:]])
        diag = ((west + east) + south) + north  # one fixed summation order, reproducible bit for bit
    if not diag.max() < np.inf:  # NaN fails too
        raise ValueError(f"kappa must be small enough for a finite stiffness, not as large as {float(kap.max())!r}")
    vals = np.stack([-south, -west, diag, -east, -north], axis=-1)
    keep = np.ones((ny, nx, 5), dtype=bool)
    keep[0, :, 0] = keep[:, 0, 1] = keep[:, -1, 3] = keep[-1, :, 4] = False
    n = nx * ny
    rows = np.arange(n, dtype=np.int32).reshape(ny, nx, 1) + np.array([-nx, -1, 0, 1, nx], dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2, dtype=np.int32), axis=None, out=indptr[1:])
    K = sp.csc_matrix((vals[keep], rows[keep], indptr), shape=(n, n))
    # built here, so its index arrays need no check; sum_duplicates finds the
    # matrix canonical and caches its flags, as for a shifted sequence's template
    K.sum_duplicates()
    return K


def talbot_shifts(n_z: int, t: float) -> np.ndarray:
    """Upper-half shifts of a modified Talbot contour for time t.

    Evaluates z(theta) = (n_z / t) * (-sigma + mu * theta * cot(alpha * theta)
    + i * nu * theta), with (sigma, mu, alpha, nu) = TALBOT_CONSTANTS, at
    the n_z/2 midpoints of a uniform partition of (0, pi).  The lower half
    of the contour is the conjugate of the returned values and is omitted.
    """
    check_integers(minimum=2, n_z=n_z)
    if n_z % 2 != 0:
        raise ValueError("n_z must be even")
    if not 0 < t < np.inf:  # NaN fails too
        raise ValueError(f"t must be 0 < t < inf, not {t!r}")
    sigma, mu, alpha, nu = TALBOT_CONSTANTS
    theta = (2 * np.arange(n_z // 2) + 1) * np.pi / n_z
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny t overflows; refused below, by name
        z = (n_z / t) * (-sigma + mu * theta / np.tan(alpha * theta) + 1j * nu * theta)
    if not np.isfinite(z).all():
        raise ValueError(f"t must be large enough for finite shifts with n_z = {n_z}, not {t!r}")
    return z


# --- Matrix Market files ----------------------------------------------------


def matrix_market_read(path):
    """Read a Matrix Market file into a canonical CSC matrix.

    Reads what ``scipy.io.mmread`` reads: coordinate or array format, a
    real, complex or integer field, and general, symmetric, skew-symmetric
    or hermitian storage (expanded to the full matrix).  A pattern file
    holds no values, so it raises ``ValueError`` rather than read as all
    ones; so do malformed, truncated and out-of-range files.
    """
    try:
        if scipy.io.mminfo(path)[4] == "pattern":
            raise ValueError("unsupported field 'pattern', a file must hold values")
        return as_csc(scipy.io.mmread(path))
    except (ValueError, OverflowError) as exc:
        # scipy's messages name the line but not the file; an integer too large for int64 is its OverflowError
        raise ValueError(f"{path}: {exc}") from None


def matrix_market_write(A, path):
    """Write a matrix as a general coordinate Matrix Market file.

    Values are written in their shortest round-trip form, so reading the
    file back reproduces every stored value exactly, stored zeros included.
    Malformed index arrays raise ``ValueError``.
    """
    [A] = checked_csc(A)
    # a file object, because given a name without extension mmwrite appends
    # ".mtx"; symmetry is explicit, because by default mmwrite detects it and
    # stores a symmetric matrix as its lower triangle only
    with open(path, "wb") as fh:
        if A.nnz == 0 and np.iscomplexobj(A.data):
            # mmwrite labels a complex matrix without entries "real"
            nrows, ncols = A.shape
            fh.write(f"%%MatrixMarket matrix coordinate complex general\n{nrows} {ncols} 0\n".encode())
        else:
            scipy.io.mmwrite(fh, A, symmetry="general")


# --- sequence descriptions --------------------------------------------------


@dataclass
class SequenceSpec:
    """A fully materialized sequence of systems sharing one right-hand side.

    ``shifts[k]``, complex, is the scalar reported for system k (0 for
    file-based sequences without shift data); ``rhs``, left out, is the point
    source; ``pair`` is the ``(K, M)`` of a :meth:`shifted_pair` sequence.
    ``dataclasses.replace(spec, rhs=b)`` checks ``b`` and keeps the rest as is.
    """

    kind: str
    matrices: list = field(repr=False)
    shifts: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(default=None, repr=False)
    pair: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if len(self) == 0:
            raise ValueError("a sequence needs at least one system")
        self.shifts = np.asarray(self.shifts, dtype=complex)
        if self.shifts.shape != (len(self),):
            got = f"{self.shifts.size} shifts" if self.shifts.ndim == 1 else f"shifts of shape {self.shifts.shape}"
            raise ValueError(f"one shift per system required: {got} for {len(self)} systems")
        _check_shifts(self.shifts)
        n = self.matrices[0].shape[0]
        if {A.shape for A in self.matrices} != {(n, n)}:
            raise ValueError("all systems must be square with one common size")
        self.rhs = point_source_rhs(n) if self.rhs is None else np.asarray(self.rhs)
        if self.rhs.shape != (n,):
            raise ValueError(f"the right-hand side must be a vector of length {n}, not shape {self.rhs.shape}")
        if self.rhs.dtype.kind not in "iufc" or not np.isfinite(self.rhs).all():
            raise ValueError("the right-hand side must hold finite integer, real or complex values")

    def __len__(self):
        return len(self.matrices)

    @property
    def n(self):
        return self.matrices[0].shape[0]

    @classmethod
    def helmholtz(cls, nx=10, ny=10, delta_s=0.01, count=200):
        """Shifted pair (K0, -I) of the 2D Laplacian K0 at s = 0, delta_s, ..., count * delta_s.

        K0 is the unit-conductivity stiffness of :func:`fem_pair_2d`; the
        right-hand side carries Dirichlet data 1 on the south and west edges.
        """
        check_integers(minimum=2, nx=nx, ny=ny)
        check_integers(minimum=0, count=count)
        if not 0 < delta_s < np.inf:  # NaN fails too
            raise ValueError(f"delta_s must be 0 < delta_s < inf, not {delta_s!r}")
        if not float(delta_s) * float(count) < np.inf:  # the last shift below; Python floats overflow without a warning
            raise ValueError(f"delta_s must be small enough for finite shifts with count = {count}, not {delta_s!r}")
        b = np.zeros(nx * ny)
        b[:nx] += 1.0       # south edge, u = 1
        b[0::nx] += 1.0     # west edge, u = 1
        spec = cls.shifted_pair(_stiffness(np.ones((ny, nx))), _diagonal(np.full(nx * ny, -1.0)),
                                delta_s * np.arange(count + 1), rhs=b)
        spec.kind = "helmholtz_sweep"
        return spec

    @classmethod
    def shifted_pair(cls, K, M, shifts, rhs=None):
        """Systems K + z M for each shift z, every one on one shared, read-only pattern.

        ``K`` and ``M`` pass :func:`~samkit.sparse.checked_csc`; ``shifts``
        must be 1-D and finite.  The systems are real when K, M and every
        shift are; ``spec.shifts`` stays complex.  The pattern is the union of
        K's and M's, built once as a template whose ``indices``/``indptr``
        pair every system holds, read-only and sharing no memory with K or M
        (``copy()`` gives a system its own).  System ``k``'s ``data`` is row
        ``k`` of one stacked value block, so rows do not overlap.  A sum that
        cancels stays a stored zero, and each value is exactly ``z * m + k``.
        """
        K, M = checked_csc(K, M)
        if K.shape != M.shape:
            raise ValueError(f"K and M must have one shape, not {K.shape} and {M.shape}")
        shifts = _check_shifts(shifts)
        z = shifts if shifts.imag.any() else shifts.real
        dt = scalar_dtype(z, K, M)
        # tag M's entries 1 and K's entries 2; their sum stores the union
        # pattern in canonical order, and the bits of each tag say who covers
        # the position
        tags = (sp.csc_matrix((np.ones(M.nnz, np.int8), M.indices, M.indptr), shape=M.shape)
                + sp.csc_matrix((np.full(K.nnz, 2, np.int8), K.indices, K.indptr), shape=K.shape))
        m_pos = np.flatnonzero(tags.data & 1)
        # -0.0 is the additive identity: positions only M covers get z * m
        # exactly, sign of zero included
        base = -np.zeros(tags.nnz, dtype=dt)
        base[np.flatnonzero(tags.data & 2)] = K.data
        # scipy's sum of two checked operands needs no index check;
        # sum_duplicates finds it canonical and caches the flags that every
        # system inherits
        template = sp.csc_matrix((base, tags.indices, tags.indptr), shape=K.shape)
        template.sum_duplicates()
        template.indices.flags.writeable = False
        template.indptr.flags.writeable = False
        # row k is system k's values: base, plus z[k] * m at M's positions
        data = np.repeat(base[None], z.size, axis=0)
        data[:, m_pos] = base[m_pos] + np.multiply.outer(z.astype(dt), M.data.astype(dt))
        mats = []
        for row in data:
            A = sp.csc_matrix.__new__(sp.csc_matrix)
            A.__dict__.update(template.__dict__, data=row)
            mats.append(A)
        return cls("shifted_pair", mats, shifts, rhs, pair=(K, M))

    @classmethod
    def matrix_files(cls, paths, shifts=None, rhs=None):
        """Sequence read from Matrix Market files, in the given order; shifts default to 0."""
        mats = [matrix_market_read(p) for p in paths]
        return cls("matrix_files", mats, np.zeros(len(mats)) if shifts is None else shifts, rhs)


def _check_shifts(shifts) -> np.ndarray:
    """``shifts`` as a complex array; ``ValueError`` unless it is 1-D and finite."""
    shifts = np.asarray(shifts, dtype=complex)
    if shifts.ndim != 1 or not np.isfinite(shifts).all():
        raise ValueError("shifts must be a 1-D sequence of finite values")
    return shifts


def point_source_rhs(n: int) -> np.ndarray:
    """Unit-norm vector with a single nonzero, at the centre index n // 2."""
    check_integers(minimum=1, n=n)
    b = np.zeros(n)
    b[n // 2] = 1.0
    return b
