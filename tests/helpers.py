"""Random sparse matrices and patterns, and a crash-proof call runner, shared by the test modules."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import samkit
from samkit import SequenceSpec, as_csc, pattern_of


def random_sparse(n, rng, per_col=5, diag_boost=None, complex_values=False):
    """Random sparse matrix with per_col entries per column.

    With diag_boost set, that multiple of the identity is added, which makes
    the matrix well conditioned and all local least-squares blocks full rank.
    """
    rows, cols, vals = [], [], []
    for j in range(n):
        r = rng.choice(n, size=per_col, replace=False)
        rows.extend(r)
        cols.extend([j] * per_col)
        v = rng.standard_normal(per_col)
        if complex_values:
            v = v + 1j * rng.standard_normal(per_col)
        vals.extend(v)
    A = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    if diag_boost:
        A = A + diag_boost * sp.identity(n)
    return as_csc(A)


def pattern_at(shape, rows, cols):
    """Pattern of (row, col) pairs in any order, built as samkit's own builders build theirs."""
    return pattern_of(sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=shape))


def random_pattern(n, rng, lo=3, hi=8):
    rows, cols = [], []
    for j in range(n):
        k = int(rng.integers(lo, hi))
        rows.extend(rng.choice(n, size=k, replace=False))
        cols.extend([j] * k)
    return pattern_at((n, n), rows, cols)


def pattern_to_bool(P):
    """Dense boolean matrix, True at every position of pattern P."""
    return P.toarray() != 0


def same_pattern(P, Q):
    """Whether patterns P and Q have the same shape and positions."""
    return (P.shape == Q.shape and np.array_equal(P.indptr, Q.indptr)
            and np.array_equal(P.indices, Q.indices))


def row_sets(S, A, ref):
    """The map's row sets as a pattern: column l holds every row that ref's column l,
    or a column of A that S's column l selects, stores."""
    return pattern_of(pattern_of(A) @ pattern_of(S) + pattern_of(ref))


def padded(block, shape):
    """Map block [B | f] zero-padded to a plan's block shape (r, c + 1): B top left, f in the last column."""
    block = np.asarray(block)
    out = np.zeros(shape, dtype=np.result_type(block, float))
    out[:block.shape[0], :block.shape[1] - 1], out[:block.shape[0], -1] = block[:, :-1], block[:, -1]
    return out


def grid_laplacian_triplets(nx, ny):
    """5-point stencil triplets on an nx-by-ny grid, assembled by enumeration."""
    rows, cols, vals = [], [], []
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            rows.append(k); cols.append(k); vals.append(4.0)
            for (di, dj) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    rows.append(k); cols.append(jj * nx + ii); vals.append(-1.0)
    return rows, cols, vals


def refusal_in_child(call):
    """Run ``call`` in a new Python process on ``bad``, a CSC matrix whose ``indptr`` decreases.

    ``bad`` is 50x50 with ``indptr[25] = 10**8``, which scipy's constructor
    accepts and its kernels read past their arrays; ``good`` is the 50x50
    identity.  A child process, because a crash takes its process down.
    Returns the child's exit status and the message of the ``ValueError``
    that ``call`` raised, or None if it raised none.
    """
    script = textwrap.dedent("""
        import numpy as np, scipy.sparse as sp, samkit
        indptr = np.arange(51)
        indptr[25] = 10**8
        bad = sp.csc_matrix((np.ones(50), np.arange(50), indptr))
        good = sp.identity(50, format="csc")
        try:
            {call}
        except ValueError as exc:
            print(exc)
    """).format(call=call)
    src = str(Path(samkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout.strip() or None


def shifted_family(alphas, E, A):
    """[alpha * E + A for alpha in alphas], the systems of ``SequenceSpec.shifted_pair(A, E, alphas)``."""
    return SequenceSpec.shifted_pair(A, E, alphas).matrices
