import numpy as np
import pytest
import scipy.sparse as sp

from samkit import (
    SequenceSpec, as_csc, fem_pair_2d, frobenius_norm_diff, helmholtz_sequence,
    laplace2d_dirichlet, matrix_market_read, matrix_market_write,
    point_source_rhs, talbot_shifts,
)
from helpers import random_sparse


def test_laplace2d_size_and_stencil():
    K, b = laplace2d_dirichlet(10, 10)
    assert K.shape == (100, 100)
    Kd = K.toarray()
    # interior unknown: full stencil, no boundary contribution
    k = 5 * 10 + 5
    assert Kd[k, k] == 4.0
    assert sorted(np.flatnonzero(Kd[k]).tolist()) == [k - 10, k - 1, k, k + 1, k + 10]
    assert b[k] == 0.0


def test_laplace2d_boundary_rhs():
    nx, ny = 6, 5
    K, b = laplace2d_dirichlet(nx, ny)
    assert b[0] == 2.0                      # southwest corner: south + west
    assert b[nx - 1] == 1.0                 # southeast: south only (east is zero)
    assert b[(ny - 1) * nx] == 1.0          # northwest: west only
    assert b[nx * ny - 1] == 0.0            # northeast corner
    assert np.all(b[1:nx - 1] == 1.0)


def test_laplace2d_symmetric_positive_definite():
    K, _ = laplace2d_dirichlet(8, 7)
    assert frobenius_norm_diff(K, as_csc(K.T)) == 0.0
    evals = np.linalg.eigvalsh(K.toarray())
    assert evals[0] > 0.0


def kron_laplacian(nx, ny):
    """The former Kronecker-sum construction of the 5-point Laplacian; the test oracle."""
    tx = sp.diags([-np.ones(nx - 1), 2 * np.ones(nx), -np.ones(nx - 1)], [-1, 0, 1])
    ty = sp.diags([-np.ones(ny - 1), 2 * np.ones(ny), -np.ones(ny - 1)], [-1, 0, 1])
    return as_csc(sp.kron(sp.identity(ny), tx) + sp.kron(ty, sp.identity(nx)))


def _same_bytes(X, Y):
    return all(getattr(X, a).dtype == getattr(Y, a).dtype
               and np.array_equal(getattr(X, a), getattr(Y, a)) for a in ("data", "indices", "indptr"))


@pytest.mark.parametrize("nx, ny, kron_stores_zeros", [
    (2, 2, True), (10, 10, False), (3, 7, True), (7, 3, False), (32, 32, False),
])
def test_laplace2d_matches_kron_construction(nx, ny, kron_stores_zeros):
    K, _ = laplace2d_dirichlet(nx, ny)
    old = kron_laplacian(nx, ny)
    # on small grids scipy's kron builds dense blocks and stores their zeros;
    # the stencil stores exactly the 5-point pattern with the same values
    assert (np.count_nonzero(old.data) < old.nnz) == kron_stores_zeros
    old.eliminate_zeros()
    assert _same_bytes(K, old)
    assert np.count_nonzero(K.data) == K.nnz == 5 * nx * ny - 2 * (nx + ny)


def test_laplace2d_rejects_small_grid():
    with pytest.raises(ValueError):
        laplace2d_dirichlet(1, 5)


def test_helmholtz_sequence_shifts_diagonal():
    K0, _ = laplace2d_dirichlet(4, 4)
    seq = helmholtz_sequence(K0, 0.01, 200)
    assert len(seq) == 200
    d0 = K0.diagonal()
    for i in (1, 50, 200):
        di = seq[i - 1].diagonal()
        assert np.allclose(di, d0 - i * 0.01, atol=1e-14)
    off0 = K0 - as_csc(np.diag(d0))
    off200 = seq[-1] - as_csc(np.diag(seq[-1].diagonal()))
    assert frobenius_norm_diff(off0, off200) == 0.0


def test_helmholtz_twentieth_shift_indefinite():
    K0, _ = laplace2d_dirichlet(10, 10)
    evals = np.linalg.eigvalsh(K0.toarray())
    assert abs(evals[0] - 8 * np.sin(np.pi / 22) ** 2) <= 1e-12
    K20 = helmholtz_sequence(K0, 0.01, 20)[-1]
    e20 = np.linalg.eigvalsh(K20.toarray())
    assert e20[0] < 0.0 < e20[-1]


def test_fem_pair_constant_kappa_matches_laplacian():
    K, M = fem_pair_2d(5, 4)
    L, _ = laplace2d_dirichlet(5, 4)
    assert frobenius_norm_diff(K, L) <= 1e-14
    hx, hy = 1.0 / 6.0, 1.0 / 5.0
    assert M.nnz == 20
    assert np.allclose(M.diagonal(), hx * hy)


def test_fem_pair_symmetric_variable_kappa():
    kappa = lambda x, y: 1.0 + 3.0 * x + y * y
    K, M = fem_pair_2d(6, 6, kappa)
    assert frobenius_norm_diff(K, as_csc(K.T)) <= 1e-14
    assert np.all(M.diagonal() > 0)


def fem_stiffness_by_node_loop(nx, ny, kappa):
    """Stiffness of fem_pair_2d assembled node by node, edge by edge: the reference."""
    hx, hy = 1.0 / (nx + 1), 1.0 / (ny + 1)
    xs = (np.arange(nx) + 1) * hx
    ys = (np.arange(ny) + 1) * hy
    kap = np.empty((ny, nx))
    for j in range(ny):
        for i in range(nx):
            kap[j, i] = kappa(xs[i], ys[j])

    def hmean(a, b):
        return 2.0 * a * b / (a + b)

    n = nx * ny
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            for di in (-1, 1):
                ii = i + di
                if 0 <= ii < nx:
                    c = hmean(kap[j, i], kap[j, ii])
                    rows.append(k)
                    cols.append(j * nx + ii)
                    vals.append(-c)
                else:
                    c = kap[j, i]
                diag[k] += c
            for dj in (-1, 1):
                jj = j + dj
                if 0 <= jj < ny:
                    c = hmean(kap[j, i], kap[jj, i])
                    rows.append(k)
                    cols.append(jj * nx + i)
                    vals.append(-c)
                else:
                    c = kap[j, i]
                diag[k] += c
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    K = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    K.sort_indices()
    return as_csc(K)


@pytest.mark.parametrize("nx, ny", [(5, 3), (2, 7)])
@pytest.mark.parametrize("kappa", [None, lambda x, y: 2.5, lambda x, y: np.exp(np.sin(7 * x) + 3 * x * y)])
def test_fem_pair_matches_node_loop_bit_for_bit(nx, ny, kappa):
    K, _ = fem_pair_2d(nx, ny, kappa)
    ref = fem_stiffness_by_node_loop(nx, ny, kappa or (lambda x, y: 1.0))
    assert K.dtype == ref.dtype
    for name in ("data", "indices", "indptr"):
        got, want = getattr(K, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_fem_pair_constant_vector_boundary_only():
    K, _ = fem_pair_2d(3, 3)
    r = K @ np.ones(9)
    # only the center node has a fully interior stencil
    assert abs(r[4]) <= 1e-14
    mask = np.ones(9, dtype=bool)
    mask[4] = False
    assert np.all(np.abs(r[mask]) > 0)


def test_fem_pair_rejects_bad_kappa():
    with pytest.raises(ValueError):
        fem_pair_2d(3, 3, lambda x, y: -1.0)


def test_fem_pair_shifted_system_nonsingular():
    K, M = fem_pair_2d(4, 4)
    z = 0.3 + 1.2j
    A = K.toarray() + z * M.toarray()
    x = np.linalg.solve(A, np.ones(16))
    assert np.linalg.norm(A @ x - 1.0) <= 1e-10


def test_talbot_shift_count_and_half_plane():
    z = talbot_shifts(40, 60.0)
    assert z.shape == (20,)
    assert np.all(z.imag >= 0)
    mags = np.abs(z)
    assert np.all(np.diff(mags) > 0)


def test_talbot_conjugate_half_closes_contour():
    z = talbot_shifts(12, 2.0)
    full = np.concatenate([z, np.conj(z)])
    assert np.allclose(sorted(full.imag), sorted(np.concatenate([z.imag, -z.imag])))


def test_talbot_rejects_odd_count():
    with pytest.raises(ValueError):
        talbot_shifts(7, 1.0)


def test_matrix_market_round_trip_real(tmp_path):
    rng = np.random.default_rng(0)
    A = random_sparse(10, rng)
    path = tmp_path / "a.mtx"
    matrix_market_write(A, path)
    B = matrix_market_read(path)
    assert (A != B).nnz == 0
    assert np.array_equal(A.data, B.data)


def test_matrix_market_round_trip_complex(tmp_path):
    rng = np.random.default_rng(1)
    A = random_sparse(8, rng, complex_values=True)
    path = tmp_path / "c.mtx"
    matrix_market_write(A, path)
    B = matrix_market_read(path)
    assert B.dtype == np.complex128
    assert np.array_equal(A.toarray(), B.toarray())


def test_matrix_market_symmetric_expansion(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 3\n"
        "1 1 2.0\n"
        "2 1 1.0\n"
        "2 2 2.0\n")
    A = matrix_market_read(path)
    assert A.nnz == 4
    assert np.array_equal(A.toarray(), [[2.0, 1.0], [1.0, 2.0]])


def test_matrix_market_hand_written(tmp_path):
    path = tmp_path / "h.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment line\n"
        "3 2 3\n"
        "3 1 1.5\n"
        "1 1 -2.0\n"
        "2 2 0.25\n")
    A = matrix_market_read(path)
    assert A.shape == (3, 2)
    assert A[2, 0] == 1.5 and A[0, 0] == -2.0 and A[1, 1] == 0.25


def test_matrix_market_errors(tmp_path):
    cases = {
        "malformed": "%%NotMatrixMarket\n1 1 0\n",
        "pattern": "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n",
        "skew": "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
        "array": "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n",
        "oob": "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        "truncated": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
    }
    for name, content in cases.items():
        path = tmp_path / f"{name}.mtx"
        path.write_text(content)
        with pytest.raises(ValueError):
            matrix_market_read(path)


def test_matrix_market_write_precision(tmp_path):
    A = as_csc(np.array([[1.0 / 3.0]]))
    path = tmp_path / "p.mtx"
    matrix_market_write(A, path)
    B = matrix_market_read(path)
    assert B[0, 0] == A[0, 0]


def test_sequence_spec_helmholtz():
    spec = SequenceSpec.helmholtz(4, 4, 0.01, 10)
    assert len(spec) == 11
    assert spec.shifts[0] == 0.0
    assert spec.shifts[10] == pytest.approx(0.1)
    assert spec.kind == "helmholtz_sweep"


def test_sequence_spec_shifted_pair():
    K, M = fem_pair_2d(3, 3)
    z = talbot_shifts(8, 1.0)
    spec = SequenceSpec.shifted_pair(K, M, z)
    assert len(spec) == 4
    A0 = spec.matrices[0]
    assert A0.dtype == np.complex128
    assert np.allclose(A0.toarray(), K.toarray() + z[0] * M.toarray())
    assert np.linalg.norm(spec.rhs) == 1.0


def test_sequence_spec_matrix_files(tmp_path):
    rng = np.random.default_rng(2)
    paths = []
    mats = []
    for i in range(3):
        A = random_sparse(6, rng)
        p = tmp_path / f"m{i}.mtx"
        matrix_market_write(A, p)
        paths.append(p)
        mats.append(A)
    spec = SequenceSpec.matrix_files(paths)
    assert len(spec) == 3
    for A, B in zip(mats, spec.matrices):
        assert np.array_equal(A.toarray(), B.toarray())


def test_sequence_spec_validation():
    K, M = fem_pair_2d(3, 3)
    with pytest.raises(ValueError):
        SequenceSpec.shifted_pair(K, M, [])
    with pytest.raises(ValueError):
        SequenceSpec("shifted_pair", [K], np.zeros(1, dtype=complex), np.ones(5))


def test_point_source_rhs():
    b = point_source_rhs(9)
    assert b[4] == 1.0 and np.linalg.norm(b) == 1.0
    b2 = point_source_rhs(9, index=0)
    assert b2[0] == 1.0
