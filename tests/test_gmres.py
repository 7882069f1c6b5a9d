import numpy as np
import pytest

from samkit import GmresConfig, as_csc, compose, gmres, identity
from helpers import random_sparse


def test_config_validation():
    with pytest.raises(ValueError):
        GmresConfig(restart=0)
    with pytest.raises(ValueError):
        GmresConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        GmresConfig(max_total_iters=0)


def test_identity_converges_in_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, rep = gmres(identity(3), b)
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
    x2, rep2 = gmres(A, b, M=compose(identity(15), P), config=cfg)
    assert rep1.iterations == rep2.iterations
    assert np.array_equal(x1, x2)


def test_zero_rhs():
    x, rep = gmres(identity(4), np.zeros(4))
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


def test_reorthogonalization_flag():
    rng = np.random.default_rng(7)
    A = random_sparse(16, rng, diag_boost=4.0)
    b = rng.standard_normal(16)
    cfg = GmresConfig(restart=16, rel_tol=1e-10, max_total_iters=32, reorthogonalize=True)
    x, rep = gmres(A, b, config=cfg)
    assert rep.converged


def test_solve_report_converged_implies_tolerance():
    rng = np.random.default_rng(8)
    for trial in range(4):
        A = random_sparse(18, rng, diag_boost=6.0)
        b = rng.standard_normal(18)
        cfg = GmresConfig(restart=5, rel_tol=1e-9, max_total_iters=90)
        x, rep = gmres(A, b, config=cfg)
        if rep.converged:
            assert rep.final_rel_residual <= cfg.rel_tol
