"""Restarted GMRES with right preconditioning.

Classical Gram-Schmidt Arnoldi with two passes on every step (CGS2, "twice
is enough"), LAPACK Givens rotations (``?lartg``) on the Hessenberg
least-squares problem, and an explicit true-residual check at every restart
boundary.  With right preconditioning the recurrence residual equals the
true residual, so reported iteration counts are comparable across
preconditioners.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .sparse import check_indices, check_integers, ldexp, scalar_dtype, scale_exponent

# a breakdown leaves at most this share of the vector's own norm, so no scaling of b or A changes the test
HAPPY_BREAKDOWN = 1e-14


@dataclass(frozen=True)
class GmresConfig:
    """Restart length, tolerance and iteration budget of one :func:`gmres` solve.

    A solve allocates one ``n x (min(restart, max_total_iters) + 1)`` basis,
    so a one-cycle config asks for ``n x (max_total_iters + 1)``; only the
    triangle of a cycle's least-squares problem grows with the square of the
    steps that cycle ran, not of the restart length.
    """

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
    """Normalize a matrix / factors / chain / callable / None into a callable.

    Malformed index arrays of a compressed ``op`` raise ``ValueError``.
    """
    check_indices(op)
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


def _checked(name, op, n, dtype):
    """``as_operator(op)`` that refuses an answer that is not a length-``n`` vector in the run's field."""
    apply = as_operator(op)

    def checked(v):
        w = apply(v)
        if w.shape != (n,):
            raise ValueError(f"gmres: {name} returned shape {w.shape}, expected {(n,)}")
        if not np.can_cast(w.dtype, dtype, "same_kind"):
            raise TypeError(f"gmres: {name} returned {w.dtype} values on a {dtype} run; give it a dtype")
        return w

    return checked


def gmres(A, b, M=None, x0=None, config: GmresConfig = None):
    """Solve A x = b with right preconditioner M.

    The working field is complex when any of ``A``, ``b``, ``x0`` and ``M``
    declares a complex ``dtype``.  Every answer of ``A`` and ``M`` must be a
    vector of ``b``'s length in that field: another shape raises ``ValueError``
    and complex values on a real run ``TypeError`` rather than being cast,
    each naming the operand.  An omitted ``x0`` is a zero start.  ``b`` and
    ``x0`` are raveled, and lengths that differ (``x0``'s from ``b``'s,
    ``b``'s from the rows of an ``A`` with a ``shape``) raise ``ValueError``,
    as a NaN or infinite entry of either does, and after those, malformed
    index arrays of a compressed ``A`` or ``M`` do (:func:`as_operator`).  GMRES never writes into an
    operand's answer, so one may return its input, as ``None`` (identity) does.
    Returns (x, SolveReport).  A cycle runs at most ``min(restart, iterations
    left)`` steps.  Convergence means the explicit residual satisfies
    ||b - A x|| <= rel_tol * ||b||.  The recurrence residual ends each cycle;
    the explicit one at its end re-verifies it and starts the next.
    A solve ends on convergence, a spent iteration budget, a singular breakdown
    (whose zero pivot can only be the last of its cycle) or a non-finite
    operator value or update; the last two keep the last finite ``x``.
    The solve runs on ``b``'s power-of-two scale, which is exact: ``2**k b``
    gives ``2**k x`` bit for bit.  Every other norm is BLAS ``nrm2``, which
    scales internally, so the Arnoldi and residual norms of an operator as far
    from 1 as ``2**±600 A`` neither overflow nor underflow.
    """
    cfg = config if config is not None else GmresConfig()

    b = np.asarray(b).ravel().astype(scalar_dtype(b), copy=False)
    n = b.shape[0]
    if hasattr(A, "shape") and A.shape[0] != n:
        raise ValueError(f"gmres: A has {A.shape[0]} rows, b has length {n}")
    x0 = np.asarray(np.zeros(n) if x0 is None else x0).ravel()
    if x0.shape[0] != n:
        raise ValueError(f"gmres: x0 has length {x0.shape[0]}, b has length {n}")
    for name, v in (("b", b), ("x0", x0)):
        if not np.isfinite(v).all():
            raise ValueError(f"gmres: {name} has a non-finite entry")
    dtype = scalar_dtype(b, x0, *(op for op in (A, M) if getattr(op, "dtype", None) is not None))
    apply_A, apply_M = _checked("A", A, n, dtype), _checked("M", M, n, dtype)

    e = scale_exponent(b)
    b = ldexp(b, -e)
    x = ldexp(x0.astype(dtype), -e)

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n, dtype=dtype), SolveReport(0, 0, True, 0.0, np.zeros(0))

    nrm2 = sla.get_blas_funcs("nrm2", dtype=dtype)
    m = min(cfg.restart, cfg.max_total_iters)  # no cycle runs past the iteration budget
    # one basis for every cycle; a cycle reads only the columns it has written
    V = np.zeros((n, m + 1), dtype=dtype)
    # [c s; -conj(s) c] with c real, the convention the rotation loop below applies
    lartg = sla.get_lapack_funcs("lartg", dtype=dtype)
    history = []
    restart_checks = []
    total_iters = 0
    stopped = False  # a singular breakdown or a non-finite value: no further cycle can help
    r = b - apply_A(x)
    beta = nrm2(r)

    # the one convergence test; a NaN residual runs a cycle, which records it
    while not (beta / bnorm <= cfg.rel_tol or stopped) and total_iters < cfg.max_total_iters:
        V[:, 0] = r / beta
        # the rotations (c, s), the rotated Hessenberg columns and the
        # least-squares right-hand side g are Python scalars: each step reads
        # and writes them one at a time, which numpy scalar indexing made the
        # larger part of GMRES's own time
        rotations = []
        columns = []
        g = [beta]
        history.append(beta / bnorm)

        breakdown = False
        for j in range(min(m, cfg.max_total_iters - total_iters)):
            w = apply_A(apply_M(V[:, j]))
            wnorm = nrm2(w)
            Vj = V[:, :j + 1]
            # (w^H Vj)^H rather than Vj^H w, which would copy the block; out of
            # place, since an operand's answer may be its input, V[:, j] itself
            h = (w.conj() @ Vj).conj()
            w = w - Vj @ h
            # the second pass: two keep the basis orthogonal to working
            # precision (Giraud, Langou, Rozloznik & van den Eshof 2005)
            h2 = (w.conj() @ Vj).conj()
            w = w - Vj @ h2
            h += h2
            hnext = nrm2(w)
            if not np.isfinite(hnext):
                # NaN or Inf from an operator: the cycle ends with the columns
                # built so far, and no further cycle repeats the failure
                stopped = True
                break
            breakdown = hnext <= HAPPY_BREAKDOWN * wnorm
            if not breakdown:
                V[:, j + 1] = w / hnext

            col = h.tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], -s.conjugate() * col[i] + c * col[i + 1]
            c, s, col[j] = lartg(col[j], hnext)
            rotations.append((c, s))
            columns.append(col)  # j + 1 entries: the rotation annihilates the one at row j + 1
            g.append(-s.conjugate() * g[j])
            g[j] = c * g[j]

            rel = abs(g[j + 1]) / bnorm
            history.append(rel)
            if breakdown or rel <= cfg.rel_tol:
                break
        total_iters += len(columns)

        # lartg leaves a zero pivot only with hnext zero, a breakdown that ends the cycle: only a
        # singular operator's last pivot can be zero, and the update keeps the leading block
        p = len(columns) - (breakdown and columns[-1][-1] == 0)
        stopped = stopped or p < len(columns)
        if p > 0:
            # the Givens rotations left the Hessenberg matrix upper triangular
            R = np.zeros((p, p), dtype=dtype)
            for i, col in enumerate(columns[:p]):
                R[:i + 1, i] = col
            dx = apply_M(V[:, :p] @ sla.solve_triangular(R, np.array(g[:p], dtype=dtype)))
            if np.all(np.isfinite(dx)):
                x = x + dx
            else:
                stopped = True
        # the explicit residual checks this cycle and starts the next one
        r = b - apply_A(x)
        beta = nrm2(r)
        if breakdown or stopped:
            # the recurrence no longer tracks x: record the explicit residual.  A
            # breakdown with a full-rank update restarts from the refined x
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
