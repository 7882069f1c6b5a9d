import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from samkit import (
    SequenceSpec, as_csc, fem_pair_2d, matrix_market_read, matrix_market_write,
    point_source_rhs, talbot_shifts,
)
from helpers import random_sparse, refusal_in_child, shifted_family


def test_fem_pair_unit_stiffness_size_and_stencil():
    K, b = fem_pair_2d(10, 10)[0], SequenceSpec.helmholtz(10, 10, count=0).rhs
    assert K.shape == (100, 100)
    Kd = K.toarray()
    # interior unknown: full stencil, no boundary contribution
    k = 5 * 10 + 5
    assert Kd[k, k] == 4.0
    assert sorted(np.flatnonzero(Kd[k]).tolist()) == [k - 10, k - 1, k, k + 1, k + 10]
    assert b[k] == 0.0


def test_helmholtz_sweep_boundary_rhs():
    nx, ny = 6, 5
    b = SequenceSpec.helmholtz(nx, ny, count=0).rhs
    assert b[0] == 2.0                      # southwest corner: south + west
    assert b[nx - 1] == 1.0                 # southeast: south only (east is zero)
    assert b[(ny - 1) * nx] == 1.0          # northwest: west only
    assert b[nx * ny - 1] == 0.0            # northeast corner
    assert np.all(b[1:nx - 1] == 1.0)


def test_fem_pair_unit_stiffness_symmetric_positive_definite():
    K = fem_pair_2d(8, 7)[0]
    assert spla.norm(K - K.T) == 0.0
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
def test_fem_pair_unit_stiffness_matches_kron_construction(nx, ny, kron_stores_zeros):
    K = fem_pair_2d(nx, ny)[0]
    old = kron_laplacian(nx, ny)
    # on small grids scipy's kron builds dense blocks and stores their zeros;
    # the stencil stores exactly the 5-point pattern with the same values
    assert (np.count_nonzero(old.data) < old.nnz) == kron_stores_zeros
    old.eliminate_zeros()
    assert _same_bytes(K, old)
    assert K.indices.dtype == K.indptr.dtype == np.int32 and K.has_canonical_format
    assert np.count_nonzero(K.data) == K.nnz == 5 * nx * ny - 2 * (nx + ny)


def test_fem_pair_and_helmholtz_sweep_reject_small_grid():
    # the Helmholtz sweep and fem_pair_2d refuse the same grids
    for nx, ny, name in ((1, 5, "nx"), (5, 1, "ny")):
        for build in (fem_pair_2d, SequenceSpec.helmholtz):
            with pytest.raises(ValueError, match=f"^{name} must be at least 2, not 1$"):
                build(nx, ny)


def test_helmholtz_sequence_shifts_diagonal():
    K0 = fem_pair_2d(4, 4)[0]
    seq = SequenceSpec.helmholtz(4, 4, 0.01, 200).matrices
    assert len(seq) == 201
    d0 = K0.diagonal()
    for i in (1, 50, 200):
        di = seq[i].diagonal()
        assert np.allclose(di, d0 - i * 0.01, atol=1e-14)
    off0 = K0 - as_csc(np.diag(d0))
    off200 = seq[-1] - as_csc(np.diag(seq[-1].diagonal()))
    assert spla.norm(off0 - off200) == 0.0
    with pytest.raises(ValueError):
        SequenceSpec.helmholtz(4, 4, -0.01, 2)


def test_helmholtz_twentieth_shift_indefinite():
    K0 = fem_pair_2d(10, 10)[0]
    evals = np.linalg.eigvalsh(K0.toarray())
    assert abs(evals[0] - 8 * np.sin(np.pi / 22) ** 2) <= 1e-12
    K20 = SequenceSpec.helmholtz(10, 10, 0.01, 20).matrices[20]
    e20 = np.linalg.eigvalsh(K20.toarray())
    assert e20[0] < 0.0 < e20[-1]


def test_fem_pair_constant_kappa_matches_laplacian():
    # the stiffness is the 5-point Laplacian (test_fem_pair_unit_stiffness_matches_kron_construction)
    K, M = fem_pair_2d(5, 4)
    hx, hy = 1.0 / 6.0, 1.0 / 5.0
    assert M.nnz == 20
    assert np.allclose(M.diagonal(), hx * hy)


def test_fem_pair_symmetric_variable_kappa():
    kappa = lambda x, y: 1.0 + 3.0 * x + y * y
    K, M = fem_pair_2d(6, 6, kappa)
    assert spla.norm(K - K.T) <= 1e-14
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


@pytest.mark.parametrize("nx, ny", [(5, 3), (2, 7), (32, 32), (2, 9), (9, 2)])
@pytest.mark.parametrize("kappa", [None, lambda x, y: 2.5, lambda x, y: np.exp(np.sin(7 * x) + 3 * x * y)])
def test_fem_pair_matches_node_loop_bit_for_bit(nx, ny, kappa):
    K, _ = fem_pair_2d(nx, ny, kappa)
    ref = fem_stiffness_by_node_loop(nx, ny, kappa or (lambda x, y: 1.0))
    assert K.dtype == ref.dtype
    for name in ("data", "indices", "indptr"):
        got, want = getattr(K, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert K.indices.dtype == K.indptr.dtype == np.int32 and K.has_canonical_format


@pytest.mark.parametrize("nx, ny", [(5, 3), (2, 9), (9, 2)])
def test_fem_pair_array_kappa_matches_callable_bit_for_bit(nx, ny):
    kappa = lambda x, y: np.exp(np.sin(7 * x) + 3 * x * y)
    xs = (np.arange(nx) + 1) * (1.0 / (nx + 1))
    ys = (np.arange(ny) + 1) * (1.0 / (ny + 1))
    nodes = np.array([[kappa(x, y) for x in xs] for y in ys])
    for got, want in zip(fem_pair_2d(nx, ny, nodes), fem_pair_2d(nx, ny, kappa)):
        assert _same_bytes(got, want)
        assert got.has_canonical_format


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
    for nodes in (-np.ones((3, 4)), np.full((3, 4), np.inf), np.ones((4, 3)), np.ones(12), 2.0):
        with pytest.raises(ValueError):
            fem_pair_2d(4, 3, nodes)
    # a finite kappa whose harmonic means overflowed gave a stiffness with
    # infinite and NaN entries, after RuntimeWarnings; 1e153 stays finite
    with pytest.raises(ValueError, match="^kappa must be small enough for a finite stiffness, not as large as 1e[+]154$"):
        fem_pair_2d(3, 3, lambda x, y: 1e154)
    assert np.isfinite(fem_pair_2d(3, 3, lambda x, y: 1e153)[0].data).all()


def test_fem_pair_refuses_kappa_that_is_not_real():
    # an array's imaginary part was dropped with a ComplexWarning, a
    # callable's complex values raised numpy's TypeError, and strings and
    # bools were read as the numbers they spell
    for kappa, dtype in ((np.full((3, 3), 1 + 1j), "complex128"), (lambda x, y: 1 + 1j, "complex128"),
                         (np.full((3, 3), 1 + 0j), "complex128"), (np.full((3, 3), "2"), "<U1"),
                         (lambda x, y: "2", "<U1"), (np.full((3, 3), True), "bool")):
        with pytest.raises(ValueError, match=f"^kappa must be real, not of dtype {dtype}$"):
            fem_pair_2d(3, 3, kappa)


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
    # a NaN time gave NaN shifts
    for n_z in (0, -2):
        with pytest.raises(ValueError, match=f"^n_z must be at least 2, not {n_z}$"):
            talbot_shifts(n_z, 1.0)
    # an infinite time gave the shifts [0, -0]
    for t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^t must be 0 < t < inf, not {t!r}$"):
            talbot_shifts(4, t)
    # a tiny t gave the shifts [inf+infj, -inf+infj]
    with pytest.raises(ValueError, match="^t must be large enough for finite shifts with n_z = 4, not 1e-320$"):
        talbot_shifts(4, 1e-320)
    # the contour is fixed: a custom one is given as shifts
    with pytest.raises(TypeError):
        talbot_shifts(8, 1.0, (0.6, 0.5, 0.6, 0.3))


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
        "oob": "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        "truncated": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
    }
    for name, content in cases.items():
        path = tmp_path / f"{name}.mtx"
        path.write_text(content)
        with pytest.raises(ValueError):
            matrix_market_read(path)
    # a pattern file holds no values, and must not read as all ones
    path = tmp_path / "pattern.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
    with pytest.raises(ValueError, match="pattern.mtx: unsupported field 'pattern'"):
        matrix_market_read(path)
    # every other variant reads as scipy.io.mmread reads it
    read = {
        "skew": ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.5\n",
                 [[0.0, -1.5], [1.5, 0.0]]),
        "array": ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n4.0\n",
                  [[1.0, 3.0], [2.0, 4.0]]),
        "integer": ("%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n2 1 -7\n",
                    [[3.0, 0.0], [-7.0, 0.0]]),
        "hermitian": ("%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n1 1 2.0 0.0\n2 1 1.0 2.0\n",
                      [[2.0, 1.0 - 2.0j], [1.0 + 2.0j, 0.0]]),
    }
    for name, (content, dense) in read.items():
        path = tmp_path / f"{name}.mtx"
        path.write_text(content)
        A = matrix_market_read(path)
        assert A.dtype == np.asarray(dense).dtype and A.has_canonical_format
        assert np.array_equal(A.toarray(), dense)


def test_matrix_market_write_precision(tmp_path):
    A = as_csc(np.array([[1.0 / 3.0]]))
    path = tmp_path / "p.mtx"
    matrix_market_write(A, path)
    B = matrix_market_read(path)
    assert B[0, 0] == A[0, 0]


def test_matrix_market_write_refuses_decreasing_column_pointers(tmp_path):
    # scipy's constructor accepts this indptr; the writer canonicalized the
    # matrix unchecked, and the process died with SIGSEGV
    path = tmp_path / "bad.mtx"
    status, refusal = refusal_in_child(f"samkit.matrix_market_write(bad, {str(path)!r})")
    assert (status, refusal) == (0, "indptr must be a non-decreasing sequence")
    assert not path.exists()


@pytest.mark.parametrize("pair", ["good, bad", "bad, good"])
def test_shifted_pair_refuses_decreasing_column_pointers(pair):
    # the pair was canonicalized and summed unchecked, and the process died with SIGSEGV
    status, refusal = refusal_in_child(f"samkit.SequenceSpec.shifted_pair({pair}, [0.0, 1.0])")
    assert (status, refusal) == (0, "indptr must be a non-decreasing sequence")


def test_sequence_spec_helmholtz():
    spec = SequenceSpec.helmholtz(4, 4, 0.01, 10)
    assert len(spec) == 11
    assert spec.shifts[0] == 0.0
    assert spec.shifts[10] == pytest.approx(0.1)
    assert spec.kind == "helmholtz_sweep"
    # the sweep is the real shifted pair (K0, -I), and system 0 is K0 itself
    K0 = fem_pair_2d(4, 4)[0]
    b = np.zeros(16)
    b[:4] += 1.0    # Dirichlet data 1 on the south edge
    b[0::4] += 1.0  # and on the west edge
    K, M = spec.pair
    assert np.array_equal(K.toarray(), K0.toarray()) and np.array_equal(M.toarray(), -np.eye(16))
    assert np.array_equal(spec.rhs, b)
    for arr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(spec.matrices[0], arr), getattr(K0, arr))
    assert all(A.dtype == np.float64 for A in spec.matrices)
    # NaN passed the old check and Inf overflowed; both then failed in shifted_family
    for delta_s in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^delta_s must be 0 < delta_s < inf, not {delta_s!r}$"):
            SequenceSpec.helmholtz(4, 4, delta_s, 3)
    # a negative count was refused as an empty sequence
    with pytest.raises(ValueError, match="^count must be at least 0, not -1$"):
        SequenceSpec.helmholtz(4, 4, 0.01, -1)
    # a last shift count * delta_s that overflowed warned, then failed in
    # shifted_family with a message that named neither input
    with pytest.raises(ValueError, match="^delta_s must be small enough for finite shifts with count = 2, not 1e[+]308$"):
        SequenceSpec.helmholtz(3, 3, 1e308, 2)


@pytest.mark.parametrize("build, name, value", [
    # count = 2.5 built 4 systems and count = True built 2
    (lambda v: SequenceSpec.helmholtz(4, 4, 0.01, v), "count", 2.5),
    (lambda v: SequenceSpec.helmholtz(4, 4, 0.01, v), "count", True),
    (lambda v: SequenceSpec.helmholtz(v, 4, 0.01, 3), "nx", 4.0),
    # n_z = 4.0 was accepted, and n_z = True was called odd
    (lambda v: talbot_shifts(v, 1.0), "n_z", 4.0),
    (lambda v: talbot_shifts(v, 1.0), "n_z", True),
    # nx = 4.0 failed inside numpy with a TypeError
    (lambda v: fem_pair_2d(v, 4), "nx", 4.0),
    (lambda v: fem_pair_2d(4, v), "ny", True),
    (lambda v: SequenceSpec.helmholtz(4, v, 0.01, 3), "ny", 4.0),
    # n = 4.0 failed inside numpy with a TypeError
    (point_source_rhs, "n", 4.0),
])
def test_builders_refuse_non_integer_sizes_and_counts(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not {value!r}$"):
        build(value)


def test_builders_take_numpy_integers():
    assert len(SequenceSpec.helmholtz(np.int64(4), np.int32(4), 0.01, np.int64(3))) == 4
    assert np.array_equal(talbot_shifts(np.int64(8), 1.0), talbot_shifts(8, 1.0))
    K, M = fem_pair_2d(np.int64(3), np.uint8(3))
    assert K.shape == M.shape == (9, 9)
    assert np.array_equal(point_source_rhs(np.int64(5)), point_source_rhs(5))


def test_sequence_spec_shifted_pair():
    K, M = fem_pair_2d(3, 3)
    z = talbot_shifts(8, 1.0)
    spec = SequenceSpec.shifted_pair(K, M, z)
    assert len(spec) == 4
    A0 = spec.matrices[0]
    assert A0.dtype == np.complex128
    assert np.allclose(A0.toarray(), K.toarray() + z[0] * M.toarray())
    assert np.linalg.norm(spec.rhs) == 1.0
    assert all(np.array_equal(P.toarray(), Q.toarray()) for P, Q in zip(spec.pair, (K, M)))
    # real K, M and shifts give real systems, whether the shifts come as
    # floats or as complex values with zero imaginary parts
    for real in ([0.5, -1.0, 2.0], np.array([0.5, -1.0, 2.0]) + 0j, [complex(1.0, -0.0)]):
        spec = SequenceSpec.shifted_pair(K, M, real)
        assert spec.shifts.dtype == np.complex128
        for A, s in zip(spec.matrices, spec.shifts):
            assert A.dtype == np.float64
            assert np.array_equal(A.toarray(), K.toarray() + s.real * M.toarray())
    # one nonzero imaginary part makes the whole sequence complex
    spec = SequenceSpec.shifted_pair(K, M, [0.5, 1j])
    assert all(A.dtype == np.complex128 for A in spec.matrices)
    # only shifted_pair keeps a pair
    assert SequenceSpec("custom", [K], np.zeros(1), np.ones(K.shape[0])).pair is None
    # the spec converts its inputs: lists of shifts and right-hand side values
    # (a list rhs raised AttributeError), and no rhs is the point source
    spec = SequenceSpec("custom", [K], [0.0], [1.0] * 9)
    assert isinstance(spec.rhs, np.ndarray) and np.array_equal(spec.rhs, np.ones(9))
    assert spec.shifts.dtype == np.complex128
    assert np.array_equal(SequenceSpec("custom", [K], [0.0]).rhs, point_source_rhs(9))
    # an array of the right dtype is kept, not copied
    z, b = np.zeros(1, dtype=complex), np.ones(9)
    spec = SequenceSpec("custom", [K], z, b)
    assert spec.shifts is z and spec.rhs is b


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
    with pytest.raises(ValueError, match="^a sequence needs at least one system$"):
        SequenceSpec.shifted_pair(K, M, [])
    with pytest.raises(ValueError):
        SequenceSpec("shifted_pair", [K], np.zeros(1, dtype=complex), np.ones(5))
    # an (n, 2) right-hand side built, and the run then failed inside GMRES
    for rhs in (np.ones((9, 2)), np.ones((9, 1))):
        message = f"the right-hand side must be a vector of length 9, not shape {rhs.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SequenceSpec.shifted_pair(K, M, [1.0], rhs=rhs)
    for shifts, got in ((np.zeros(3), "3 shifts"), ([1.0], "1 shifts"), (np.zeros((2, 1)), "shifts of shape (2, 1)")):
        message = f"one shift per system required: {got} for 2 systems"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SequenceSpec("custom", [K, K], shifts, np.ones(9))
    # a scalar shift raised TypeError
    with pytest.raises(ValueError, match=r"^one shift per system required: shifts of shape \(\) for 1 systems$"):
        SequenceSpec("custom", [K], 0.0, np.ones(9))
    with pytest.raises(ValueError, match="^all systems must be square with one common size$"):
        SequenceSpec("custom", [K, fem_pair_2d(2, 2)[0]], np.zeros(2), np.ones(9))


def test_sequence_spec_refuses_nonfinite_shifts(tmp_path):
    # a file-based sequence took a NaN or infinite shift and reported it
    K = fem_pair_2d(3, 3)[0]
    path = tmp_path / "k.mtx"
    matrix_market_write(K, path)
    for shift in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="^shifts must be a 1-D sequence of finite values$"):
            SequenceSpec("matrix_files", [K], [shift])
        with pytest.raises(ValueError, match="^shifts must be a 1-D sequence of finite values$"):
            SequenceSpec.matrix_files([path], shifts=[shift])


@pytest.mark.parametrize("rhs", [
    ["a", "b", "c", "d"], [np.nan, 0, 0, 0], [np.inf, 0, 0, 0], [0, 0, 0, -np.inf],
    [complex(0, np.nan), 0, 0, 0], [True, False, False, False], [None, 1, 1, 1],
], ids=["strings", "nan", "inf", "minus_inf", "complex_nan", "bool", "object"])
def test_sequence_spec_refuses_non_numeric_or_nonfinite_rhs(rhs):
    # strings built, and the run then failed inside GMRES; a NaN or an
    # infinity ran every system to an unconverged NaN residual
    K, M = fem_pair_2d(2, 2)
    with pytest.raises(ValueError, match="^the right-hand side must hold finite integer, real or complex values$"):
        SequenceSpec.shifted_pair(K, M, [1.0], rhs=rhs)


def test_point_source_rhs():
    b = point_source_rhs(9)
    assert b[4] == 1.0 and np.linalg.norm(b) == 1.0
    assert point_source_rhs(8)[4] == 1.0
    # n = 0 raised IndexError
    with pytest.raises(ValueError, match="^n must be at least 1, not 0$"):
        point_source_rhs(0)


# one-member families: alpha * E + A alone

def test_shifted_pair_single_shift_zero():
    rng = np.random.default_rng(7)
    A = random_sparse(6, rng)
    E = sp.identity(6, format="csc")
    C = shifted_family([0.0], E, A)[0]
    assert np.array_equal(C.toarray(), A.toarray())
    # union pattern: the diagonal positions of E are now stored
    assert C.nnz >= A.nnz
    assert np.all(np.isin(np.arange(6), C.tocoo().row[C.tocoo().row == C.tocoo().col]))


def test_shifted_pair_single_shift_identity():
    Z = as_csc(np.zeros((2, 2)))
    C = shifted_family([1.0], sp.identity(2, format="csc"), Z)[0]
    assert np.array_equal(C.toarray(), np.eye(2))


def test_shifted_pair_single_shift_complex_exact():
    rng = np.random.default_rng(8)
    K = random_sparse(6, rng)
    M = random_sparse(6, rng)
    z = 2 + 3j
    C = shifted_family([z], M, K)[0]
    assert C.dtype == np.complex128
    assert np.array_equal(C.toarray(), z * M.toarray() + K.toarray())


def test_shifted_pair_single_shift_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^K and M must have one shape, not \(3, 3\) and \(2, 2\)$"):
        shifted_family([1.0], sp.identity(2, format="csc"), sp.identity(3, format="csc"))
