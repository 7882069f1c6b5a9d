"""Restarted GMRES with right preconditioning.

Classical Gram-Schmidt Arnoldi with one conditional reorthogonalization
pass (CGS2, "twice is enough"), LAPACK Givens rotations (``?lartg``) on the
Hessenberg least-squares problem, and an explicit true-residual check at
every restart boundary.  With right preconditioning the recurrence residual
equals the true residual, so reported iteration counts are comparable across
preconditioners.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .sparse import check_indices, check_integers, ldexp, scalar_dtype, scale_exponent

# a breakdown leaves at most this share of the vector's own norm, so no scaling of b or A changes the test
HAPPY_BREAKDOWN = 1e-14
# a second Gram-Schmidt pass runs when a pass leaves less than this share of
# the vector's norm (Kahan-Parlett); two passes keep the basis orthogonal to
# working precision (Giraud, Langou, Rozloznik & van den Eshof 2005)
REORTH_RATIO = 0.7


@dataclass(frozen=True)
class GmresConfig:
    restart: int | None = None  # None: one cycle of max_total_iters, resolved to that integer
    rel_tol: float = 1e-10
    max_total_iters: int = 100

    def __post_init__(self):
        if self.restart is None:
            object.__setattr__(self, "restart", self.max_total_iters)
        check_integers(minimum=1, max_total_iters=self.max_total_iters, restart=self.restart)
        if not 0 < self.rel_tol < np.inf:  # NaN fails too; an infinite one converges at once
            raise ValueError(f"rel_tol must be 0 < rel_tol < inf, not {self.rel_tol!r}")


@dataclass
class SolveReport:
    iterations: int
    restarts: int
    converged: bool
    final_rel_residual: float
    residual_history: np.ndarray = field(repr=False)
    # (recurrence, explicit) relative residual pairs at each cycle end
    restart_checks: list = field(default_factory=list, repr=False)


def as_operator(op):
    """Normalize a matrix / factors / chain / callable / None into a callable."""
    if op is None:
        return lambda v: v
    if sp.issparse(op) or isinstance(op, np.ndarray):
        return op.dot
    if hasattr(op, "apply_solve"):
        return op.apply_solve
    if hasattr(op, "apply"):
        return op.apply
    if callable(op):
        return op
    raise TypeError(f"cannot treat {type(op).__name__} as a linear operator")


def _in_field(w, dtype):
    if not np.can_cast(w.dtype, dtype, "same_kind"):
        raise TypeError(f"gmres: an operand returned {w.dtype} values on a {dtype} run; give it a dtype")
    return w


def gmres(A, b, M=None, x0=None, config: GmresConfig = None):
    """Solve A x = b with right preconditioner M.

    The working field is complex when any of ``A``, ``b``, ``x0`` and ``M``
    declares a complex ``dtype``; an operand that declares none and returns
    complex values on a real run raises ``TypeError`` rather than being cast,
    and malformed index arrays of a compressed ``A`` or ``M`` ``ValueError``.
    ``b`` and ``x0`` are raveled, and lengths that differ (``x0``'s from ``b``'s,
    ``b``'s from the rows of an ``A`` with a ``shape``) raise ``ValueError``.
    Returns (x, SolveReport).  Convergence means the explicit residual
    satisfies ||b - A x|| <= rel_tol * ||b||.  The recurrence residual ends
    each cycle; the explicit one at its end re-verifies it and starts the next.
    The solve runs on ``b``'s power-of-two scale, which is exact: ``2**k b``
    gives ``2**k x`` bit for bit, and no norm of ``b`` or a residual overflows.
    """
    check_indices(A, M)
    cfg = config if config is not None else GmresConfig()

    b = np.asarray(b).ravel().astype(scalar_dtype(b), copy=False)
    n = b.shape[0]
    if hasattr(A, "shape") and A.shape[0] != n:
        raise ValueError(f"gmres: A has {A.shape[0]} rows, b has length {n}")
    x0 = None if x0 is None else np.asarray(x0).ravel()
    if x0 is not None and x0.shape[0] != n:
        raise ValueError(f"gmres: x0 has length {x0.shape[0]}, b has length {n}")
    apply_A, apply_M = as_operator(A), as_operator(M)
    dtype = scalar_dtype(b, *(op for op in (A, M, x0) if getattr(op, "dtype", None) is not None))

    e = scale_exponent(b)
    b = ldexp(b, -e)
    x = np.zeros(n, dtype=dtype) if x0 is None else ldexp(x0.astype(dtype), -e)

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n, dtype=dtype), SolveReport(0, 0, True, 0.0, np.zeros(0))

    m = cfg.restart
    # [c s; -conj(s) c] with c real, the convention the rotation loop below applies
    lartg = sla.get_lapack_funcs("lartg", dtype=dtype)
    history = []
    restart_checks = []
    total_iters = 0
    singular = False
    nonfinite = False
    r = _in_field(b - apply_A(x), dtype)
    beta = float(np.linalg.norm(r))

    # the one convergence test; a NaN residual runs a cycle, which records it
    while not (beta / bnorm <= cfg.rel_tol or singular or nonfinite) and total_iters < cfg.max_total_iters:
        V = np.zeros((n, m + 1), dtype=dtype)
        H = np.zeros((m + 1, m), dtype=dtype)
        V[:, 0] = r / beta
        # the rotations (c, s) and the least-squares right-hand side g are
        # Python scalars: each step reads and writes them one at a time, which
        # numpy scalar indexing made the larger part of GMRES's own time
        rotations = []
        g = [beta]
        history.append(beta / bnorm)

        j = 0
        breakdown = False
        while j < m and total_iters < cfg.max_total_iters:
            w = _in_field(apply_A(apply_M(V[:, j])), dtype)
            wnorm = float(np.linalg.norm(w))
            Vj = V[:, :j + 1]
            # (w^H Vj)^H rather than Vj^H w, which would copy the block
            h = (w.conj() @ Vj).conj()
            w -= Vj @ h
            hnext = float(np.linalg.norm(w))
            if hnext < REORTH_RATIO * wnorm:
                h2 = (w.conj() @ Vj).conj()
                w -= Vj @ h2
                h += h2
                hnext = float(np.linalg.norm(w))
            if not np.isfinite(hnext):
                # NaN or Inf from an operator: the cycle ends with the columns
                # built so far, and no further cycle repeats the failure
                nonfinite = True
                break
            breakdown = hnext <= HAPPY_BREAKDOWN * wnorm
            if not breakdown:
                V[:, j + 1] = w / hnext

            col = h.tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], -s.conjugate() * col[i] + c * col[i + 1]
            c, s, col[j] = lartg(col[j], hnext)
            rotations.append((c, s))
            H[:j + 1, j] = col  # H[j + 1, j], which the rotation annihilates, stays 0
            g.append(-s.conjugate() * g[j])
            g[j] = c * g[j]

            total_iters += 1
            rel = abs(g[j + 1]) / bnorm
            history.append(rel)
            j += 1
            if breakdown or rel <= cfg.rel_tol:
                break

        # an exactly zero pivot (breakdown on a singular operator) leaves only
        # the leading block solvable; the update stops there and x stays finite
        zero_pivots = np.flatnonzero(np.diagonal(H[:j, :j]) == 0)
        p = int(zero_pivots[0]) if zero_pivots.size else j
        singular = p < j
        if p > 0:
            # the Givens rotations left H[:p, :p] upper triangular
            dx = apply_M(V[:, :p] @ sla.solve_triangular(H[:p, :p], np.array(g[:p], dtype=dtype)))
            if np.all(np.isfinite(dx)):
                x = x + dx
            else:
                nonfinite = True
        # the explicit residual checks this cycle and starts the next one
        r = _in_field(b - apply_A(x), dtype)
        beta = float(np.linalg.norm(r))
        if breakdown or nonfinite:
            # after a breakdown or a non-finite operator value the recurrence
            # no longer tracks x; record the explicit residual.  Only a
            # singular breakdown ends the solve: one with a full-rank update
            # restarts from the refined x
            history[-1] = beta / bnorm
        restart_checks.append((float(history[-1]), beta / bnorm))

    return ldexp(x, e), SolveReport(
        iterations=total_iters,
        restarts=max(len(restart_checks) - 1, 0),
        converged=beta / bnorm <= cfg.rel_tol,
        final_rel_residual=beta / bnorm,
        residual_history=np.asarray(history),
        restart_checks=restart_checks,
    )
