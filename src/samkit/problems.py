"""Test-problem generators, shift lists, and Matrix Market I/O.

Covers the built-in system sequences: a 2D Laplacian whose downward diagonal
shifts sweep through indefiniteness, stiffness/mass pairs shifted along a
complex quadrature contour, and externally supplied Matrix Market sequences.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp

from .sparse import as_csc, identity, shifted_family

# Modified Talbot contour constants (sigma, mu, alpha, nu).  These defaults
# come from the published optimized-contour literature, not from any property
# of this package; override them to match whatever source your application
# uses.
TALBOT_CONSTANTS = (0.6122, 0.5017, 0.6407, 0.2645)


def laplace2d_dirichlet(nx: int, ny: int):
    """Unscaled 5-point Laplacian on an nx-by-ny interior grid of the unit square.

    Dirichlet data is 1 on the south and west boundaries and 0 on the north
    and east boundaries; the returned right-hand side carries those boundary
    contributions.  Coefficients are the raw stencil values (4 on the
    diagonal, -1 off it).  Unknowns are ordered lexicographically, x fastest.
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    b = np.zeros(nx * ny)
    b[:nx] += 1.0       # south edge, u = 1
    b[0::nx] += 1.0     # west edge, u = 1
    return _stiffness(np.ones((ny, nx))), b


def helmholtz_sequence(K0, delta_s: float, count: int):
    """Matrices K0 - (i * delta_s) * I for i = 1..count.

    The base matrix itself is system 0 of the sweep; the returned list holds
    only the shifted systems.  They are built by :func:`shifted_family`, so
    all of them share one pattern, the union of K0's and the diagonal.
    """
    K0 = as_csc(K0)
    if K0.shape[0] != K0.shape[1]:
        raise ValueError("base matrix must be square")
    if delta_s <= 0:
        raise ValueError("delta_s must be positive")
    eye = identity(K0.shape[0], dtype=K0.dtype)
    return shifted_family(-delta_s * np.arange(1, count + 1), eye, K0)


def fem_pair_2d(nx: int, ny: int, kappa=None):
    """Variable-coefficient stiffness and lumped mass pair on the unit square.

    ``kappa(x, y)`` samples a positive conductivity field at the interior
    nodes; edge coefficients between neighbors are harmonic means of the two
    node values, and edges meeting the (zero Dirichlet) boundary use the
    node's own value.  With kappa constant 1 the stiffness equals
    :func:`laplace2d_dirichlet`.  The mass matrix is diagonal with the cell
    area at every node.
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    if kappa is None:
        kappa = lambda x, y: 1.0
    hx = 1.0 / (nx + 1)
    hy = 1.0 / (ny + 1)
    xs = (np.arange(nx) + 1) * hx
    ys = (np.arange(ny) + 1) * hy
    kap = np.array([[kappa(x, y) for x in xs] for y in ys], dtype=float)
    if np.any(kap <= 0) or not np.all(np.isfinite(kap)):
        raise ValueError("kappa must be positive and finite at every node")
    M = sp.diags(np.full(nx * ny, hx * hy), format="csc")
    return _stiffness(kap), as_csc(M)


def _stiffness(kap):
    """Stiffness of :func:`fem_pair_2d` for the ny-by-nx node conductivities ``kap``."""
    ny, nx = kap.shape

    def hmean(a, b):
        return 2.0 * a * b / (a + b)

    cx = hmean(kap[:, :-1], kap[:, 1:])     # edge between nodes (j, i) and (j, i + 1)
    cy = hmean(kap[:-1], kap[1:])           # edge between nodes (j, i) and (j + 1, i)
    west = np.hstack([kap[:, :1], cx])
    east = np.hstack([cx, kap[:, -1:]])
    south = np.vstack([kap[:1], cy])
    north = np.vstack([cy, kap[-1:]])
    n = nx * ny
    node = np.arange(n).reshape(ny, nx)
    left, right, below, above = node[:, :-1], node[:, 1:], node[:-1], node[1:]
    rows = np.concatenate([left, right, below, above, node], axis=None)
    cols = np.concatenate([right, left, above, below, node], axis=None)
    diag = ((west + east) + south) + north  # one fixed summation order, reproducible bit for bit
    vals = np.concatenate([-cx, -cx, -cy, -cy, diag], axis=None)
    return as_csc(sp.csc_matrix((vals, (rows, cols)), shape=(n, n)))


def talbot_shifts(n_z: int, t: float, constants=TALBOT_CONSTANTS) -> np.ndarray:
    """Upper-half shifts of a modified Talbot contour for time t.

    Evaluates z(theta) = (n_z / t) * (-sigma + mu * theta * cot(alpha * theta)
    + i * nu * theta) at the n_z/2 midpoints of a uniform partition of
    (0, pi).  The lower half of the contour is the conjugate of the returned
    values and is omitted.
    """
    if n_z % 2 != 0:
        raise ValueError("n_z must be even")
    if n_z <= 0 or t <= 0:
        raise ValueError("n_z and t must be positive")
    sigma, mu, alpha, nu = constants
    theta = (2 * np.arange(n_z // 2) + 1) * np.pi / n_z
    return (n_z / t) * (-sigma + mu * theta / np.tan(alpha * theta) + 1j * nu * theta)


# --- Matrix Market coordinate files ---------------------------------------


def matrix_market_read(path):
    """Read a coordinate-format Matrix Market file into a canonical CSC matrix.

    Supports real/complex general/symmetric files (symmetric storage is
    expanded); array format, pattern/integer fields and
    skew-symmetric/hermitian storage raise ``ValueError``, as do malformed,
    truncated and out-of-range files.
    """
    try:
        _, _, _, fmt, fieldkind, symmetry = scipy.io.mminfo(path)
        if fmt != "coordinate":
            raise ValueError(f"unsupported format {fmt!r}, only 'coordinate' is handled")
        if fieldkind not in ("real", "complex"):
            raise ValueError(f"unsupported field {fieldkind!r}, only real/complex are handled")
        if symmetry not in ("general", "symmetric"):
            raise ValueError(f"unsupported symmetry {symmetry!r}, only general/symmetric are handled")
        return as_csc(scipy.io.mmread(path))
    except ValueError as exc:
        # scipy's messages name the line but not the file
        raise ValueError(f"{path}: {exc}") from None


def matrix_market_write(A, path):
    """Write a matrix as a general coordinate Matrix Market file.

    Values are written in their shortest round-trip form, so reading the
    file back reproduces every stored value exactly, stored zeros included.
    """
    A = as_csc(A)
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

    ``shifts[k]`` is the scalar reported for system k (0 for file-based
    sequences without shift data).
    """

    kind: str
    matrices: list = field(repr=False)
    shifts: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.matrices) == 0:
            raise ValueError("a sequence needs at least one system")
        if len(self.shifts) != len(self.matrices):
            raise ValueError("one shift per system required")
        n = self.matrices[0].shape[0]
        for A in self.matrices:
            if A.shape != (n, n):
                raise ValueError("all systems must be square with one common size")
        if self.rhs.shape[0] != n:
            raise ValueError("right-hand side length mismatch")

    def __len__(self):
        return len(self.matrices)

    @property
    def n(self):
        return self.matrices[0].shape[0]

    @classmethod
    def helmholtz(cls, nx=10, ny=10, delta_s=0.01, count=200):
        """Downward diagonal sweep of the 2D Laplacian; system 0 is the unshifted base."""
        K0, b = laplace2d_dirichlet(nx, ny)
        mats = [K0] + helmholtz_sequence(K0, delta_s, count)
        shifts = np.concatenate([[0.0], delta_s * np.arange(1, count + 1)]).astype(complex)
        return cls("helmholtz_sweep", mats, shifts, b)

    @classmethod
    def shifted_pair(cls, K, M, shifts, rhs=None):
        """Systems K + z M for each shift z, with a point-source default rhs."""
        K = as_csc(K)
        M = as_csc(M)
        shifts = np.asarray(shifts, dtype=complex)
        if shifts.size == 0:
            raise ValueError("shift list must be nonempty")
        mats = shifted_family(shifts, M, K)
        if rhs is None:
            rhs = point_source_rhs(K.shape[0])
        return cls("shifted_pair", mats, shifts, np.asarray(rhs))

    @classmethod
    def matrix_files(cls, paths, rhs=None, shifts=None):
        """Sequence read from Matrix Market files, in the given order."""
        mats = [matrix_market_read(p) for p in paths]
        if shifts is None:
            shifts = np.zeros(len(mats), dtype=complex)
        else:
            shifts = np.asarray(shifts, dtype=complex)
        if rhs is None:
            rhs = point_source_rhs(mats[0].shape[0])
        return cls("matrix_files", mats, shifts, np.asarray(rhs))


def point_source_rhs(n: int, index=None) -> np.ndarray:
    """Unit-norm vector with a single nonzero, centered by default."""
    b = np.zeros(n)
    b[n // 2 if index is None else index] = 1.0
    return b
