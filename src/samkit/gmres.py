"""Restarted GMRES with right preconditioning.

Modified Gram-Schmidt Arnoldi, Givens rotations on the Hessenberg
least-squares problem, and an explicit true-residual check at every restart
boundary.  With right preconditioning the recurrence residual equals the
true residual, so reported iteration counts are comparable across
preconditioners.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

HAPPY_BREAKDOWN = 1e-14


@dataclass
class GmresConfig:
    restart: int = 50
    rel_tol: float = 1e-8
    max_total_iters: int = 500
    reorthogonalize: bool = False

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError("restart must be at least 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_total_iters < 1:
            raise ValueError("max_total_iters must be at least 1")


@dataclass
class SolveReport:
    iterations: int
    restarts: int
    converged: bool
    final_rel_residual: float
    residual_history: np.ndarray = field(repr=False)
    wall_seconds: float = 0.0
    # (recurrence, explicit) relative residual pairs at each cycle end
    restart_checks: list = field(default_factory=list, repr=False)


def as_operator(op):
    """Normalize a matrix / factors / chain / callable / None into a callable."""
    if op is None:
        return lambda v: v
    if sp.issparse(op):
        return op.dot
    if isinstance(op, np.ndarray):
        return op.dot
    if hasattr(op, "apply_solve"):
        return op.apply_solve
    if hasattr(op, "apply"):
        return op.apply
    if callable(op):
        return op
    raise TypeError(f"cannot treat {type(op).__name__} as a linear operator")


def _givens(a, b):
    """Rotation (c real, s) zeroing b against a; returns (c, s, r)."""
    if b == 0:
        return 1.0, 0.0 * b, a
    if a == 0:
        return 0.0, 1.0 + 0.0 * b, b
    absa = abs(a)
    t = np.hypot(absa, abs(b))
    c = absa / t
    ph = a / absa
    return c, ph * np.conj(b) / t, ph * t


def gmres(A, b, M=None, x0=None, config: GmresConfig = None):
    """Solve A x = b with right preconditioner M.

    Returns (x, SolveReport).  Convergence means the explicitly recomputed
    residual satisfies ||b - A x|| <= rel_tol * ||b||; the inner recurrence
    value is used to decide when to stop each cycle and is re-verified at
    every restart boundary.
    """
    cfg = config if config is not None else GmresConfig()
    t_start = time.perf_counter()

    b = np.asarray(b).ravel()
    n = b.shape[0]
    apply_A = as_operator(A)
    apply_M = as_operator(M)
    dtype = np.result_type(np.float64, b.dtype, getattr(A, "dtype", b.dtype))

    x = np.zeros(n, dtype=dtype) if x0 is None else np.asarray(x0, dtype=dtype).copy()

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n, dtype=dtype), SolveReport(
            0, 0, True, 0.0, np.zeros(0), time.perf_counter() - t_start)

    m = cfg.restart
    history = []
    restart_checks = []
    total_iters = 0
    cycles = 0
    converged = False
    breakdown = False
    nonfinite = False
    true_rel = np.inf

    while total_iters < cfg.max_total_iters and not (converged or breakdown or nonfinite):
        r = b - apply_A(x)
        beta = float(np.linalg.norm(r))
        if beta / bnorm <= cfg.rel_tol:
            true_rel = beta / bnorm
            converged = True
            break
        cycles += 1

        V = np.zeros((n, m + 1), dtype=dtype)
        H = np.zeros((m + 1, m), dtype=dtype)
        cs = np.zeros(m + 1, dtype=np.float64)
        sn = np.zeros(m + 1, dtype=dtype)
        g = np.zeros(m + 1, dtype=dtype)
        V[:, 0] = r / beta
        g[0] = beta
        history.append(beta / bnorm)

        j = 0
        stop_inner = False
        while j < m and total_iters < cfg.max_total_iters and not stop_inner:
            w = apply_A(apply_M(V[:, j]))
            for i in range(j + 1):
                h = np.vdot(V[:, i], w)
                H[i, j] += h
                w -= h * V[:, i]
            if cfg.reorthogonalize:
                for i in range(j + 1):
                    h = np.vdot(V[:, i], w)
                    H[i, j] += h
                    w -= h * V[:, i]
            hnext = float(np.linalg.norm(w))
            if not np.isfinite(hnext):
                # NaN or Inf from an operator: the cycle ends with the columns
                # built so far, and no further cycle repeats the failure
                nonfinite = True
                break
            H[j + 1, j] = hnext
            if hnext <= HAPPY_BREAKDOWN * beta:
                breakdown = True
                stop_inner = True
            else:
                V[:, j + 1] = w / hnext

            for i in range(j):
                t = H[i, j]
                H[i, j] = cs[i] * t + sn[i] * H[i + 1, j]
                H[i + 1, j] = -np.conj(sn[i]) * t + cs[i] * H[i + 1, j]
            cs[j], sn[j], H[j, j] = _givens(H[j, j], H[j + 1, j])
            H[j + 1, j] = 0
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] = cs[j] * g[j]

            total_iters += 1
            rel = abs(g[j + 1]) / bnorm
            history.append(rel)
            j += 1
            if rel <= cfg.rel_tol:
                stop_inner = True

        # an exactly zero pivot (breakdown on a singular operator) leaves only
        # the leading block solvable; the update stops there and x stays finite
        zero_pivots = np.flatnonzero(np.diagonal(H[:j, :j]) == 0)
        p = int(zero_pivots[0]) if zero_pivots.size else j
        if p > 0:
            # the Givens rotations left H[:p, :p] upper triangular
            dx = apply_M(V[:, :p] @ sla.solve_triangular(H[:p, :p], g[:p]))
            if np.all(np.isfinite(dx)):
                x = x + dx
            else:
                nonfinite = True
        true_rel = float(np.linalg.norm(b - apply_A(x))) / bnorm
        recurrence = float(abs(g[j])) / bnorm
        if p < j or nonfinite:
            # after a truncated update or a non-finite operator value the
            # recurrence no longer tracks x; record the explicit residual
            recurrence = history[-1] = true_rel
        restart_checks.append((recurrence, true_rel))
        if true_rel <= cfg.rel_tol:
            converged = True

    return x, SolveReport(
        iterations=total_iters,
        restarts=max(cycles - 1, 0),
        converged=converged,
        final_rel_residual=float(true_rel),
        residual_history=np.asarray(history),
        wall_seconds=time.perf_counter() - t_start,
        restart_checks=restart_checks,
    )
