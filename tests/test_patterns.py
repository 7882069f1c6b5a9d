import re

import numpy as np
import pytest
import scipy.sparse as sp

from samkit import (
    SequenceSpec, as_csc, matrix_market_write, offset_pattern, parse_config, pattern_of, resolve_pattern,
    sparsified_power,
)
from helpers import (
    grid_laplacian_triplets, pattern_at, pattern_to_bool, random_pattern, random_sparse, same_pattern,
)


def boolean_power_oracle(P, p):
    """Dense boolean p-th power."""
    D = pattern_to_bool(P)
    acc = D.copy()
    for _ in range(p - 1):
        acc = (acc.astype(int) @ D.astype(int)) > 0
    return acc


def column(P, j):
    return P.indices[P.indptr[j]:P.indptr[j + 1]]


@pytest.mark.parametrize("indptr, indices, defect", [
    ([0, 1, 2], [0, 1], "bad column pointer array"),                     # length is not ncols + 1
    ([1, 1, 1, 1], [], "bad column pointer array"),                      # does not start at 0
    ([0, 2, 1, 3], [0, 1, 2], "column pointers inconsistent"),           # decreasing
    ([0, 1, 2, 4], [0, 1, 2], "column pointers inconsistent"),           # last exceeds nnz
    ([0, 1, 2, 3], [0, 3, 1], "row index out of range"),
    ([0, 1, 2, 3], [0, -1, 1], "row index out of range"),
    ([0, 1, 3, 4], [0, 2, 1, 0], "column 1 not strictly increasing"),    # unsorted
    ([0, 0, 2, 3], [1, 1, 0], "column 1 not strictly increasing"),       # duplicated row
    ([0, 1, 3, 5], [0, 2, 1, 1, 1], "column 1 not strictly increasing"),  # unsorted and duplicated
    ([0, 1, 1, 3], [2, 2, 2], "column 2 not strictly increasing"),
])
def test_pattern_constructor_rejections(indptr, indices, defect):
    # a pattern of raw CSC arrays: malformed pointers and out-of-range rows
    # raise, where scipy builds the matrix or where pattern_of checks its
    # format; rows out of order or repeated within a column are no error,
    # the pattern stores each once, sorted
    def build():
        return pattern_of(sp.csc_matrix((np.ones(len(indices)), indices, indptr), shape=(3, 3)))
    if "not strictly increasing" not in defect:
        with pytest.raises(ValueError):
            build()
        return
    expected = np.zeros((3, 3), dtype=bool)
    for j in range(3):
        expected[indices[indptr[j]:indptr[j + 1]], j] = True
    P = build()
    assert P.has_canonical_format and np.array_equal(pattern_to_bool(P), expected)


@pytest.mark.parametrize("fmt", ["csc", "csr"])
def test_pattern_of_refuses_out_of_range_indices(fmt):
    # an index past the minor dimension would reach scipy's C kernels in tocsc
    # and sum_duplicates, which write out of bounds with it
    M = sp.csc_matrix(np.eye(3)).asformat(fmt)
    M.indices[1] = 3
    with pytest.raises(ValueError):
        pattern_of(M)


@pytest.mark.parametrize("tau", [0.0, 0.1])
def test_sparsified_power_refuses_malformed_index_arrays(tau):
    # row 5 of a 3x3 matrix reached scipy's product kernels, and the process crashed
    bad = sp.csc_matrix((np.ones(5), [0, 5, 1, 2, 2], [0, 2, 3, 5]), shape=(3, 3))
    with pytest.raises(ValueError, match="indices must be < 3"):
        sparsified_power(bad, 2, tau)


@pytest.mark.parametrize("build", [
    lambda: offset_pattern(4, [0, 0.5]),
    lambda: offset_pattern(4, np.array([1.0])),
    lambda: offset_pattern(True, [0]),
    lambda: offset_pattern(4.0, [0]),
    lambda: offset_pattern(4, [0.9]),
    lambda: offset_pattern(4.5, [0]),
    lambda: offset_pattern(4, 0),
    lambda: offset_pattern(4, [[0, 1]]),
])
def test_pattern_constructors_reject_non_integer_indices(build):
    # float sizes and offsets were truncated: offset 0.9 to the diagonal, size
    # 4.5 to 4; a float or bool is refused even where its value is integral;
    # a scalar or 2-D offsets failed in numpy's indexing and broadcasting
    with pytest.raises(ValueError, match="^(n must be an integer|offsets must be (integers|a 1-D sequence)), not "):
        build()


def test_pattern_constructors_accept_empty_index_lists():
    assert offset_pattern(3, []).nnz == 0
    # a matrix without entries keeps no position above tau = 0
    empty = sparsified_power(sp.csc_matrix((3, 3)), 2, 0.5)
    assert empty.shape == (3, 3) and empty.nnz == 0


def test_resolve_pattern_forms(tmp_path):
    rng = np.random.default_rng(0)
    A = random_sparse(6, rng)
    assert same_pattern(resolve_pattern("ref", A), pattern_of(A))
    assert same_pattern(resolve_pattern("offsets:-2,0,2", A), offset_pattern(6, [-2, 0, 2]))
    assert same_pattern(resolve_pattern("sparsified:2:0", A), sparsified_power(pattern_of(A), 2))
    P = offset_pattern(6, [0, 1])
    path = tmp_path / "p.mtx"
    matrix_market_write(P, path)
    with pytest.raises(ValueError, match="unknown pattern choice"):
        resolve_pattern(f"file:{path}", A)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sequence]\nkind = helmholtz_sweep\nnx = 2\nny = 3\ncount = 1\n"
                   f"[pattern]\nkind = file\npath = {path}\n")
    assert same_pattern(parse_config(cfg)[3], P)
    # any sparse matrix is a pattern: a valued one with a stored zero, rows
    # out of order and a duplicated position gives the pattern of its stored entries
    M = sp.csc_matrix(([2.0, 0.0, -1.0, 4.0, 4.0], [3, 0, 5, 1, 1], [0, 3, 3, 5, 5, 5, 5]), shape=(6, 6))
    assert not M.has_canonical_format
    got = resolve_pattern(M, A)
    assert same_pattern(got, pattern_of(M)) and got.data.tolist() == [1.0] * 4
    assert np.array_equal(got.indptr, [0, 3, 3, 4, 4, 4, 4]) and np.array_equal(got.indices, [0, 3, 5, 1])
    assert same_pattern(resolve_pattern(P, A), P)
    # a sparse choice must fit the reference; it was returned as it stood
    with pytest.raises(ValueError, match="^pattern is 4x4, systems have size 6$"):
        resolve_pattern(offset_pattern(4, [0]), A)
    # a malformed argument names the choice and its form; most raised int()'s
    # "invalid literal" and sparsified:2 "not enough values to unpack"
    malformed = {"ref": ["ref:junk", "ref:"],
                 "sparsified:P:TAU": ["sparsified:2", "sparsified:2.5:0.1", "sparsified:2:x", "sparsified:2:0.1:3"],
                 "offsets:o1,o2,...": ["offsets", "offsets:", "offsets:1,,2", "offsets:0.9", "offsets:1:2"]}
    for form, choices in malformed.items():
        for bad in choices:
            with pytest.raises(ValueError, match=f"^{re.escape(f'pattern choice {bad!r}: expected the form {form}')}$"):
                resolve_pattern(bad, A)
    # the retired names: offsets:0, offsets:-1,0,1 and sparsified:P:0 spell the same patterns
    for bad in ("nope", "diag", "tridiag", "diag:3", "tridiag:1", "power:2"):
        with pytest.raises(ValueError, match=f"^unknown pattern choice '{bad}'$"):
            resolve_pattern(bad, A)
    with pytest.raises(TypeError):
        resolve_pattern(42, A)


def test_resolve_pattern_refuses_a_pattern_with_no_positions():
    # the builders stay total, but a map on no positions is zero: each such
    # choice passed, and every mapped system stopped unconverged
    A = as_csc(np.diag([1.0, 2.0, 3.0, 4.0]))
    for choice, what in (("offsets:100", "pattern choice 'offsets:100'"),
                         (sp.csc_matrix((4, 4)), "pattern"), (offset_pattern(4, [9]), "pattern")):
        with pytest.raises(ValueError, match=f"^{re.escape(what)} has no positions for a 4x4 reference$"):
            resolve_pattern(choice, A)
    # some positions, some empty columns: returned, for plan to warn about
    assert resolve_pattern("offsets:2", A).nnz == 2
    assert resolve_pattern(offset_pattern(4, [-3]), A).nnz == 1


def test_pattern_constructor_allows_decrease_across_columns():
    P = pattern_at((3, 3), [2, 0, 1], [0, 2, 0])
    assert np.array_equal(column(P, 0), [1, 2]) and np.array_equal(column(P, 2), [0])


def test_pattern_is_a_canonical_indicator_matrix():
    # an unsorted, duplicated and valued matrix: its pattern stores 1.0 once
    # at each stored position, stored zeros included, in canonical order
    M = sp.csc_matrix(([5.0, 0.0, -2.0, 3.0], [2, 0, 2, 1], [0, 3, 3, 4]), shape=(3, 3))
    P = pattern_of(M)
    assert isinstance(P, sp.csc_matrix) and P.has_canonical_format
    assert np.array_equal(P.indptr, [0, 2, 2, 3]) and np.array_equal(P.indices, [0, 2, 1])
    assert P.data.tolist() == [1.0, 1.0, 1.0]
    assert same_pattern(pattern_of(P), P) and not np.shares_memory(pattern_of(P).indices, P.indices)


def test_pattern_of_diagonal():
    P = pattern_of(as_csc(np.diag([1.0, 2.0])))
    assert P.nnz == 2
    assert np.array_equal(column(P, 0), [0]) and np.array_equal(column(P, 1), [1])


def test_pattern_of_empty():
    P = pattern_of(sp.csc_matrix((3, 3)))
    assert P.nnz == 0


def test_pattern_of_grid_laplacian():
    rows, cols, vals = grid_laplacian_triplets(3, 3)
    A = as_csc(sp.csc_matrix((vals, (rows, cols)), shape=(9, 9)))
    assert pattern_of(A).nnz == 33


def test_pattern_of_keeps_stored_zeros():
    A = as_csc(sp.csc_matrix(([0.0, 2.0], ([0, 1], [0, 1])), shape=(2, 2)))
    assert pattern_of(A).nnz == 2


def test_offset_pattern_diagonal():
    P = offset_pattern(4, [0])
    assert P.nnz == 4
    assert all(np.array_equal(column(P, j), [j]) for j in range(4))


def test_offset_pattern_tridiagonal_count():
    P = offset_pattern(3, [-1, 0, 1])
    assert P.nnz == 3 * 3 - 2


def test_offset_pattern_interior_columns_full():
    offs = [0, 1, -1, 5, -5]
    P = offset_pattern(20, offs)
    counts = np.diff(P.indptr)
    assert np.all(counts[5:15] == len(offs))
    assert counts[0] == 3  # -1 and -5 clipped


def test_offset_pattern_mesh_scale_interior_density():
    # displacement-mesh analog: diagonal, nearest-neighbor, and two far couplings
    P = offset_pattern(132300, [0, 1, -1, 300, -300, 6000, -6000])
    counts = np.diff(P.indptr)
    assert np.all(counts[6000:132300 - 6000] == 7)
    assert counts[0] == 4


def test_offset_pattern_rejects_bad_n():
    with pytest.raises(ValueError):
        offset_pattern(0, [0])


def test_sparsified_power_structural_identity_case():
    P = random_pattern(10, np.random.default_rng(0))
    assert same_pattern(sparsified_power(P, 1), P)


def test_sparsified_power_structural_tridiag_gives_pentadiag():
    P = offset_pattern(8, [-1, 0, 1])
    assert same_pattern(sparsified_power(P, 2), offset_pattern(8, [-2, -1, 0, 1, 2]))


def test_sparsified_power_structural_diagonal_fixed_point():
    P = offset_pattern(5, [0])
    for p in (1, 2, 3, 4, 5):
        assert same_pattern(sparsified_power(P, p), P)


def test_sparsified_power_structural_matches_boolean_oracle():
    rng = np.random.default_rng(1)
    for n in (7, 19, 30):
        P = random_pattern(n, rng, lo=1, hi=5)
        for p in (2, 3):
            got = pattern_to_bool(sparsified_power(P, p))
            assert np.array_equal(got, boolean_power_oracle(P, p))


def test_sparsified_power_structural_rejects_bad_input():
    P = pattern_at((2, 3), [0], [1])
    with pytest.raises(ValueError):
        sparsified_power(P, 2)
    Q = offset_pattern(3, [0])
    with pytest.raises(ValueError):
        sparsified_power(Q, 0)
    with pytest.raises(ValueError):
        sparsified_power(Q, 6)
    with pytest.raises(ValueError, match="^sparsified_power needs a square matrix$"):
        sparsified_power(as_csc(np.ones((2, 3))), 2, 0.1)
    for p in (0, 6):
        with pytest.raises(ValueError, match="^power must be between 1 and 5$"):
            sparsified_power(as_csc(np.eye(3)), p, 0.1)
    # p = True was taken as 1, and p = 2.0 failed inside range() with a TypeError
    for p in (True, 2.0):
        message = f"^p must be an integer, not {re.escape(repr(p))}$"
        with pytest.raises(ValueError, match=message):
            sparsified_power(Q, p)
        for tau in (0.0, 0.1):
            with pytest.raises(ValueError, match=message):
                sparsified_power(as_csc(np.eye(3)), p, tau)
    # numpy integers are integers
    T = offset_pattern(4, [-1, 0, 1])
    assert same_pattern(sparsified_power(T, np.int64(2)), sparsified_power(T, 2))
    assert same_pattern(sparsified_power(T, np.int32(2), 0.1), sparsified_power(T, 2, 0.1))


@pytest.mark.parametrize("tau", [-1e-3, np.nan, 1.5, np.inf])
def test_sparsified_power_rejects_bad_tau(tau):
    # a NaN tau, and any tau above 1, returned an empty pattern
    with pytest.raises(ValueError, match=r"^tau must lie in \[0, 1\], not "):
        sparsified_power(as_csc(np.eye(3)), 2, tau)


def test_sparsified_power_tau_one_keeps_the_largest():
    rng = np.random.default_rng(3)
    A = random_sparse(10, rng)
    mags = abs(A @ A).tocsc()
    mags.eliminate_zeros()
    largest = mags == mags.max()
    assert largest.nnz >= 1 and same_pattern(sparsified_power(A, 2, 1.0), largest)


def test_sparsified_power_against_dense_oracle():
    rows, cols, vals = grid_laplacian_triplets(3, 3)
    A = as_csc(sp.csc_matrix((vals, (rows, cols)), shape=(9, 9)))
    p, tau = 2, 1e-4
    P = sparsified_power(A, p, tau)
    assert not (pattern_to_bool(P) & ~pattern_to_bool(sparsified_power(pattern_of(A), p))).any()
    Ad = np.linalg.matrix_power(A.toarray(), p)
    want = np.abs(Ad) >= tau * np.abs(Ad).max()
    assert np.array_equal(pattern_to_bool(P), want)
    # the threshold is relative to the largest magnitude
    assert sparsified_power(as_csc(np.diag([10.0, 1.0, 0.1])), 1, 0.5).nnz == 1


@pytest.mark.parametrize("tau, nnz", [(0.01, 1104), (0.2, 460)])
def test_sparsified_power_threshold_is_scale_free(tau, nnz):
    # A^p was formed unscaled: at 1e200 * A every entry overflowed to inf and
    # the whole structural pattern was kept, and at 1e-200 * A every entry
    # underflowed to zero and no position was kept
    A = SequenceSpec.helmholtz(10, 10, 0.01, 2).matrices[0]
    P = sparsified_power(A, 2, tau)
    assert P.nnz == nnz  # 1104 is the whole structural pattern of A^2
    for s in (2.0**-700, 1e-200, 1e200, 2.0**700):
        assert same_pattern(sparsified_power(s * A, 2, tau), P)
        assert same_pattern(sparsified_power((s * A).astype(complex) * 1j, 2, tau), P)


def test_sparsified_power_never_keeps_a_stored_zero_above_tau_zero():
    # an all-zero A^p met its own threshold of 0: a diagonal of stored zeros
    # kept 3 positions at p = 1, tau = 0.5, and 0 at p = 2, where scipy's
    # product drops them
    zeros = sp.csc_matrix((np.zeros(3), [0, 1, 2], [0, 1, 2, 3]), shape=(3, 3))
    # stored zeros at (0, 0) and (0, 2), 2 at (1, 1) and 1 at (2, 2)
    mixed = sp.csc_matrix(([0.0, 2.0, 0.0, 1.0], [0, 1, 0, 2], [0, 1, 2, 4]), shape=(3, 3))
    assert (zeros.nnz, mixed.nnz) == (3, 4)  # the zeros are stored
    for A, counts in ((zeros, {(1, 0.0): 3, (1, 0.5): 0, (2, 0.0): 3, (2, 0.5): 0}),
                      (mixed, {(1, 0.0): 4, (1, 0.5): 2, (2, 0.0): 4, (2, 0.5): 1})):
        for (p, tau), nnz in counts.items():
            assert sparsified_power(A, p, tau).nnz == nnz, (A.toarray(), p, tau)
    for p in (1, 2):
        choice = f"sparsified:{p}:0.5"
        with pytest.raises(ValueError, match=f"^pattern choice {re.escape(repr(choice))} has no positions for a 3x3 reference$"):
            resolve_pattern(choice, zeros)


def test_sparsified_power_threshold_monotone():
    rng = np.random.default_rng(4)
    A = random_sparse(15, rng)
    P1 = sparsified_power(A, 2, 1e-3)
    P2 = sparsified_power(A, 2, 1e-1)
    D1, D2 = pattern_to_bool(P1), pattern_to_bool(P2)
    assert not (D2 & ~D1).any()
    assert not (D1 & ~pattern_to_bool(sparsified_power(pattern_of(A), 2))).any()

