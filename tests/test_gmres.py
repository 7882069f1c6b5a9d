import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from samkit import GmresConfig, IlutpParams, PreconditionerChain, SequenceSpec, as_csc, factor, gmres
from samkit.gmres import HAPPY_BREAKDOWN, REORTH_RATIO, as_operator
from samkit.sparse import scalar_dtype
from helpers import random_sparse


def test_config_validation():
    with pytest.raises(ValueError, match="^restart must be at least 1, not 0$"):
        GmresConfig(restart=0)
    with pytest.raises(ValueError):
        GmresConfig(rel_tol=0.0)
    # an infinite rel_tol reported every system converged after 0 iterations
    with pytest.raises(ValueError, match="^rel_tol must be 0 < rel_tol < inf, not inf$"):
        GmresConfig(rel_tol=np.inf)
    with pytest.raises(ValueError, match="^max_total_iters must be at least 1, not 0$"):
        GmresConfig(max_total_iters=0)
    # bool is an Integral, but True is not a count: it was taken as 1
    with pytest.raises(ValueError, match="^restart must be an integer, not True$"):
        GmresConfig(restart=True)
    with pytest.raises(ValueError, match="^max_total_iters must be an integer, not True$"):
        GmresConfig(max_total_iters=True)
    # a checked config stays checked: restart = 0 set afterwards made gmres loop forever
    with pytest.raises(dataclasses.FrozenInstanceError):
        GmresConfig(restart=5).restart = 0


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": np.nan}, {"restart": 2.5}, {"restart": np.nan}, {"max_total_iters": 2.5},
])
def test_config_rejects_nan_and_non_integers(kwargs):
    # a NaN rel_tol never converged, and a fractional restart failed deep in the solve
    with pytest.raises(ValueError):
        GmresConfig(**kwargs)


def test_config_defaults_are_one_cycle_of_max_total_iters():
    assert GmresConfig() == GmresConfig(restart=100, rel_tol=1e-10, max_total_iters=100)
    assert GmresConfig(max_total_iters=40).restart == 40
    assert GmresConfig(max_total_iters=np.int64(7)).restart == 7


def test_identity_converges_in_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, rep = gmres(sp.identity(3, format="csc"), b)
    assert rep.iterations == 1
    assert rep.converged
    assert np.allclose(x, b, atol=1e-14)


def test_small_direct_solve():
    A = as_csc(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    x, rep = gmres(A, b, config=GmresConfig(restart=2, rel_tol=1e-12, max_total_iters=10))
    assert rep.converged and rep.iterations <= 2
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-11)


def test_exact_inverse_preconditioner_one_iteration():
    rng = np.random.default_rng(0)
    A = random_sparse(12, rng, diag_boost=12.0)
    Ainv = np.linalg.inv(A.toarray())
    b = rng.standard_normal(12)
    x, rep = gmres(A, b, M=lambda v: Ainv @ v, config=GmresConfig(rel_tol=1e-10))
    assert rep.converged and rep.iterations == 1


def test_finite_termination_full_gmres():
    rng = np.random.default_rng(1)
    for trial in range(5):
        A = random_sparse(20, rng, diag_boost=8.0)
        b = rng.standard_normal(20)
        x, rep = gmres(A, b, config=GmresConfig(restart=20, rel_tol=1e-8, max_total_iters=20))
        assert rep.converged and rep.iterations <= 20
        assert np.linalg.norm(b - A @ x) <= 1e-8 * np.linalg.norm(b)


def test_restart_boundary_consistency():
    rng = np.random.default_rng(2)
    A = random_sparse(20, rng, diag_boost=8.0)
    b = rng.standard_normal(20)
    x, rep = gmres(A, b, config=GmresConfig(restart=4, rel_tol=1e-10, max_total_iters=200))
    assert rep.converged
    assert rep.restarts >= 1
    for recurrence, explicit in rep.restart_checks:
        assert abs(recurrence - explicit) <= 1e-8


@pytest.mark.parametrize("config, converges", [
    (GmresConfig(restart=4, rel_tol=1e-10, max_total_iters=200), True),
    (GmresConfig(restart=2, rel_tol=1e-14, max_total_iters=6), False),
])
def test_operator_applied_once_per_iteration_and_cycle_boundary(config, converges):
    # the explicit residual at a cycle's end is the next cycle's start, so a
    # restart costs one apply of A, not two
    rng = np.random.default_rng(2)
    A = random_sparse(20, rng, diag_boost=8.0)
    b = rng.standard_normal(20)
    calls = []

    def counting(v):
        calls.append(1)
        return A @ v

    x, rep = gmres(counting, b, config=config)
    assert rep.restarts >= 2 and rep.converged == converges
    assert len(calls) == rep.iterations + rep.restarts + 2


def test_gmres_refuses_malformed_index_arrays():
    # row 5 of a 3x3 matrix, in A and in a compressed M; scipy's product
    # kernels read it unchecked, and the process crashed
    bad = sp.csc_matrix((np.ones(5), [0, 5, 1, 2, 2], [0, 2, 3, 5]), shape=(3, 3))
    for A, M in ((bad, None), (sp.identity(3, format="csc"), bad)):
        with pytest.raises(ValueError, match="indices must be < 3"):
            gmres(A, np.ones(3), M=M)


def test_gmres_checks_vector_lengths():
    # each failed inside numpy with "matmul: dimension mismatch"; an (n, 2) b
    # was raveled to length 2n
    A = as_csc(np.diag(np.arange(1.0, 10.0)))
    with pytest.raises(ValueError, match="^gmres: x0 has length 3, b has length 9$"):
        gmres(A, np.ones(9), x0=np.ones(3))
    with pytest.raises(ValueError, match="^gmres: A has 9 rows, b has length 18$"):
        gmres(A, np.ones((9, 2)))
    # x0 is raveled as b is, and an operand without a shape is not checked
    x, rep = gmres(A.dot, np.ones((9, 1)), x0=np.zeros((9, 1)))
    assert rep.converged and x.shape == (9,)


def test_residual_history_monotone_within_cycles():
    rng = np.random.default_rng(3)
    A = random_sparse(20, rng, diag_boost=8.0)
    b = rng.standard_normal(20)
    x, rep = gmres(A, b, config=GmresConfig(restart=20, rel_tol=1e-10, max_total_iters=20))
    h = rep.residual_history
    assert np.all(np.diff(h) <= 1e-14)


def test_preconditioner_equivalence_identity_compose():
    rng = np.random.default_rng(4)
    A = random_sparse(15, rng, diag_boost=15.0)
    P = random_sparse(15, rng, diag_boost=5.0)
    b = rng.standard_normal(15)
    cfg = GmresConfig(restart=15, rel_tol=1e-10, max_total_iters=60)
    x1, rep1 = gmres(A, b, M=P, config=cfg)
    x2, rep2 = gmres(A, b, M=PreconditionerChain(sp.identity(15, format="csc"), P), config=cfg)
    assert rep1.iterations == rep2.iterations
    assert np.array_equal(x1, x2)


def test_zero_rhs():
    x, rep = gmres(sp.identity(4, format="csc"), np.zeros(4))
    assert rep.converged and rep.iterations == 0
    assert np.array_equal(x, np.zeros(4))


def test_initial_guess_already_converged():
    A = as_csc(np.diag([2.0, 5.0]))
    b = np.array([2.0, 5.0])
    x, rep = gmres(A, b, x0=np.ones(2), config=GmresConfig(rel_tol=1e-12))
    assert rep.converged and rep.iterations == 0
    assert np.array_equal(x, np.ones(2))


def test_max_iterations_exhausted_reports_failure():
    rng = np.random.default_rng(5)
    A = random_sparse(30, rng, diag_boost=2.0)
    b = rng.standard_normal(30)
    x, rep = gmres(A, b, config=GmresConfig(restart=2, rel_tol=1e-14, max_total_iters=4))
    assert rep.iterations == 4
    assert not rep.converged
    assert rep.final_rel_residual > 1e-14


@pytest.mark.parametrize("rows, b", [
    ([[0.0, 1.0], [0.0, 0.0]], [1.0, 0.0]),
    ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], [1.0, 1.0, 0.0]),
])
def test_breakdown_with_singular_hessenberg_stays_finite(rows, b):
    A = as_csc(np.array(rows))
    b = np.array(b)
    x, rep = gmres(A, b)
    assert np.all(np.isfinite(x))
    assert not rep.converged
    assert rep.final_rel_residual == pytest.approx(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
    assert rep.final_rel_residual <= 1.0
    # a truncated update records its explicit residual, not the recurrence's 0
    assert rep.residual_history[-1] == rep.final_rel_residual
    assert rep.restart_checks[-1] == (rep.final_rel_residual, rep.final_rel_residual)


def test_breakdown_on_nilpotent_records_explicit_residual():
    A = as_csc(np.array([[0.0, 1.0], [0.0, 0.0]]))
    x, rep = gmres(A, np.array([1.0, 0.0]))
    assert np.array_equal(x, [0.0, 0.0])
    assert rep.final_rel_residual == 1.0
    assert np.array_equal(rep.residual_history, [1.0, 1.0])
    assert rep.restart_checks == [(1.0, 1.0)]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_preconditioner_stops_at_once(bad):
    x, rep = gmres(np.eye(3), np.ones(3), M=lambda v: v * bad)
    assert np.all(np.isfinite(x))
    assert not rep.converged
    assert rep.iterations == 0 and rep.restarts == 0
    assert rep.final_rel_residual == 1.0


def test_preconditioner_turning_nonfinite_keeps_last_finite_x():
    rng = np.random.default_rng(12)
    A = random_sparse(10, rng, diag_boost=1.0)
    b = rng.standard_normal(10)
    calls = []

    def M(v):
        calls.append(1)
        return v if len(calls) <= 2 else v * np.nan

    x, rep = gmres(A, b, M=M, config=GmresConfig(restart=5, rel_tol=1e-12, max_total_iters=50))
    # two Arnoldi columns, then NaN; the update through M is NaN too and is refused
    assert rep.iterations == 2 and not rep.converged
    assert np.array_equal(x, np.zeros(10))
    assert rep.final_rel_residual == pytest.approx(1.0)
    assert rep.residual_history[-1] == rep.final_rel_residual


def test_complex_system():
    rng = np.random.default_rng(6)
    A = random_sparse(12, rng, diag_boost=12.0, complex_values=True)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    x, rep = gmres(A, b, config=GmresConfig(restart=12, rel_tol=1e-10, max_total_iters=24))
    assert rep.converged
    assert np.linalg.norm(b - A @ x) <= 1e-9 * np.linalg.norm(b)


def test_graded_diagonal_converges_through_invariant_subspace():
    # eigenvalues over twelve decades: the first pass loses most of the norm,
    # so only the second keeps the basis orthogonal; the orthogonal basis then
    # meets the invariant subspace at step n, and a full-rank breakdown must
    # restart from the refined x instead of ending the solve
    A = as_csc(np.diag(np.logspace(0, 12, 100)))
    b = np.ones(100)
    cfg = GmresConfig(restart=100, rel_tol=1e-12, max_total_iters=300)
    x, rep = gmres(A, b, config=cfg)
    assert rep.converged
    assert rep.iterations < cfg.max_total_iters
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


def test_breakdown_test_does_not_depend_on_scale():
    # the Arnoldi remainder is measured against the vector's own norm; measured
    # against the residual, a large b or a small A read every step as a
    # breakdown, and the solve restarted after each one and did not converge
    spec = SequenceSpec.helmholtz(10, 10, 0.01, 100)
    A, b = spec.matrices[100], spec.rhs
    P = factor(spec.matrices[0], IlutpParams(lfil=20, droptol=1e-3, pivtol=1.0))
    cfg = GmresConfig(restart=100, rel_tol=1e-10, max_total_iters=100)
    reports = [gmres(A_s, b_s, M=P, config=cfg)[1]
               for A_s, b_s in ((A, b), (A, 1e16 * b), (A, 1e-30 * b), (1e-16 * A, b))]
    assert [(r.iterations, r.restarts, r.converged) for r in reports] == [(reports[0].iterations, 0, True)] * 4
    # the solve runs on b's power-of-two scale, so 2**k b is the same solve and
    # x scales by 2**k bit for bit: unscaled, the norm of 2**-600 b underflowed
    # to 0 and gave x = 0 as converged, and that of 2**600 b overflowed to NaN
    for A_s, b_s in ((A, b), (A, (1 - 2j) * b), (A.astype(complex), b)):
        x, report = gmres(A_s, b_s, M=P, config=cfg)
        for k in (-1000, -600, 600, 1000):
            x_k, report_k = gmres(A_s, _times_power_of_two(b_s, k), M=P, config=cfg)
            assert (report_k.iterations, report_k.converged) == (report.iterations, True)
            assert np.array_equal(report_k.residual_history, report.residual_history)
            assert x_k.dtype == x.dtype and np.array_equal(x_k, _times_power_of_two(x, k))


def _times_power_of_two(v, k):
    """v times 2**k, real and imaginary parts alike, rounded as ldexp rounds it."""
    return np.ldexp(v.view(float), k).view(v.dtype)


def test_solve_report_converged_implies_tolerance():
    rng = np.random.default_rng(8)
    for trial in range(4):
        A = random_sparse(18, rng, diag_boost=6.0)
        b = rng.standard_normal(18)
        cfg = GmresConfig(restart=5, rel_tol=1e-9, max_total_iters=90)
        x, rep = gmres(A, b, config=cfg)
        if rep.converged:
            assert rep.final_rel_residual <= cfg.rel_tol


def test_complex_preconditioner_and_start_on_real_system():
    # a real system solved through complex operands runs in the complex field;
    # casting to the system's field would drop every imaginary part
    rng = np.random.default_rng(9)
    A = random_sparse(12, rng, diag_boost=12.0)
    b = rng.standard_normal(12)
    cfg = GmresConfig(restart=12, rel_tol=1e-10, max_total_iters=24)
    M = as_csc(np.diag(1.0 / A.diagonal()) * (1 + 1j))
    x0 = 1j * np.ones(12)
    for kwargs in ({"M": M}, {"M": PreconditionerChain(sp.identity(12, format="csc"), M)}, {"x0": x0}):
        x, rep = gmres(A, b, config=cfg, **kwargs)
        assert x.dtype == np.complex128
        assert rep.converged
        assert np.linalg.norm(b - A @ x) <= 1e-9 * np.linalg.norm(b)
    # an operand without a dtype that answers in the complex field is refused
    with pytest.raises(TypeError, match="complex128 values on a float64 run"):
        gmres(A, b, M=lambda v: M @ v, config=cfg)
    with pytest.raises(TypeError, match="complex128 values on a float64 run"):
        gmres(lambda v: (A @ v) * (1 + 0j), b, config=cfg)


def _array_gmres(A, b, M, cfg):
    """The earlier gmres cycle, which kept its rotations and g in numpy arrays.

    The reference for the scalar update: same Arnoldi steps, same arithmetic
    in the same order, on finite operands and a zero start.
    """
    apply_A, apply_M = as_operator(A), as_operator(M)
    dtype = scalar_dtype(b, *(op for op in (A, M) if op is not None))
    n, m = b.shape[0], cfg.restart
    bnorm = float(np.linalg.norm(b))
    lartg = sla.get_lapack_funcs("lartg", dtype=dtype)
    x = np.zeros(n, dtype=dtype)
    history, restart_checks, total_iters, cycles, singular = [], [], 0, 0, False
    r = b - apply_A(x)
    beta = float(np.linalg.norm(r))
    while not (beta / bnorm <= cfg.rel_tol or singular) and total_iters < cfg.max_total_iters:
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
        breakdown = False
        while j < m and total_iters < cfg.max_total_iters:
            w = apply_A(apply_M(V[:, j]))
            wnorm = float(np.linalg.norm(w))
            Vj = V[:, :j + 1]
            h = (w.conj() @ Vj).conj()
            w -= Vj @ h
            hnext = float(np.linalg.norm(w))
            if hnext < REORTH_RATIO * wnorm:
                h2 = (w.conj() @ Vj).conj()
                w -= Vj @ h2
                h += h2
                hnext = float(np.linalg.norm(w))
            H[:j + 1, j] = h
            H[j + 1, j] = hnext
            breakdown = hnext <= HAPPY_BREAKDOWN * wnorm
            if not breakdown:
                V[:, j + 1] = w / hnext
            for i in range(j):
                t = H[i, j]
                H[i, j] = cs[i] * t + sn[i] * H[i + 1, j]
                H[i + 1, j] = -np.conj(sn[i]) * t + cs[i] * H[i + 1, j]
            cs[j], sn[j], H[j, j] = lartg(H[j, j], H[j + 1, j])
            H[j + 1, j] = 0
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] = cs[j] * g[j]
            total_iters += 1
            rel = abs(g[j + 1]) / bnorm
            history.append(rel)
            j += 1
            if breakdown or rel <= cfg.rel_tol:
                break
        zero_pivots = np.flatnonzero(np.diagonal(H[:j, :j]) == 0)
        p = int(zero_pivots[0]) if zero_pivots.size else j
        singular = p < j
        if p > 0:
            x = x + apply_M(V[:, :p] @ sla.solve_triangular(H[:p, :p], g[:p]))
        r = b - apply_A(x)
        beta = float(np.linalg.norm(r))
        if breakdown:
            history[-1] = beta / bnorm
        restart_checks.append((float(history[-1]), beta / bnorm))
    return x, np.asarray(history), restart_checks, total_iters, max(cycles - 1, 0)


def _reference_cases():
    rng = np.random.default_rng(21)
    real = random_sparse(30, rng, diag_boost=3.0)
    cplx = random_sparse(24, rng, diag_boost=4.0, complex_values=True)
    # four distinct eigenvalues: the Krylov space is exhausted at step 4
    four = as_csc(np.diag(np.tile([1.0, 2.0, 3.0, 5.0], 10)))
    return {
        "real-restart3": (real, rng.standard_normal(30), None, GmresConfig(3, 1e-10, 300)),
        "real-prec": (real, rng.standard_normal(30), random_sparse(30, rng, diag_boost=6.0),
                      GmresConfig(5, 1e-12, 200)),
        "real-exhausted": (real, rng.standard_normal(30), None, GmresConfig(3, 1e-14, 7)),
        "complex-restart3": (cplx, rng.standard_normal(24) + 1j * rng.standard_normal(24), None,
                             GmresConfig(3, 1e-10, 300)),
        "complex-prec-on-real": (real, rng.standard_normal(30),
                                 as_csc(np.diag((1 + 1j) / real.diagonal())), GmresConfig(7, 1e-12, 200)),
        # a tolerance no recurrence reaches: only the breakdown ends each cycle
        "happy-breakdown": (four, rng.standard_normal(40), None, GmresConfig(10, 1e-300, 12)),
        "complex-happy-breakdown": (four * (1 + 2j), rng.standard_normal(40) + 0j, None,
                                    GmresConfig(10, 1e-300, 12)),
        "singular-breakdown": (as_csc(np.array([[0.0, 1.0], [0.0, 0.0]])), np.array([1.0, 0.0]), None,
                               GmresConfig()),
    }


@pytest.mark.parametrize("case", list(_reference_cases()))
def test_scalar_rotations_match_array_reference(case):
    A, b, M, cfg = _reference_cases()[case]
    x, rep = gmres(A, b, M=M, config=cfg)
    x_ref, history, checks, iterations, restarts = _array_gmres(A, b, M, cfg)
    assert x.dtype == x_ref.dtype and x.tobytes() == x_ref.tobytes()
    assert rep.residual_history.tobytes() == history.tobytes()
    assert rep.restart_checks == checks
    assert (rep.iterations, rep.restarts) == (iterations, restarts)
    assert rep.restarts == max(len(rep.restart_checks) - 1, 0)
    if "happy" in case:
        # the first cycle broke down after four steps and recorded its explicit residual
        assert len(history) > 5 and history[4] == checks[0][1] == checks[0][0]
        assert len(checks) >= 2
