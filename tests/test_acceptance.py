"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they execute.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from samkit import (
    GmresConfig, IlutpParams, SequenceSpec, Strategy, as_csc, compute_map,
    factor, fem_pair_2d, gmres,
    offset_pattern, pattern_of, plan, run_sequence,
    sparsified_power, talbot_shifts,
)
from helpers import random_pattern, random_sparse


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_1_identity_map_exactness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_n = worst_r = 0.0
    for _ in range(20):
        A = random_sparse(50, rng, per_col=5, diag_boost=50.0)
        pl = plan(pattern_of(A), A, A)
        m = compute_map(A, A, pl)
        worst_n = max(worst_n, spla.norm(m.N - sp.identity(50, format="csc")))
        worst_r = max(worst_r, m.rel_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_n <= 1e-10 and worst_r <= 1e-12 and elapsed < 1.0
    report(1, ok, f"worst ||N - I||_F = {worst_n:.2e}, worst rel residual = {worst_r:.2e}, {elapsed:.2f}s")
    assert worst_n <= 1e-10
    assert worst_r <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_least_squares_oracle_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_col = worst_orth = 0.0
    for _ in range(20):
        A = random_sparse(50, rng, per_col=5, diag_boost=50.0)
        ref = random_sparse(50, rng, per_col=5, diag_boost=50.0)
        S = random_pattern(50, rng, lo=3, hi=8)
        pl = plan(S, A, A_ref=ref)
        m = compute_map(A, ref, pl)
        Ad, refd, Nd = A.toarray(), ref.toarray(), m.N.toarray()
        for j in range(50):
            s = S.indices[S.indptr[j]:S.indptr[j + 1]]
            z = np.linalg.lstsq(Ad[:, s], refd[:, j], rcond=None)[0]
            worst_col = max(worst_col, np.linalg.norm(Nd[s, j] - z) / max(1.0, np.linalg.norm(z)))
            # whole columns: the rows outside the block's row set are zero in both
            B = Ad[:, s]
            resid = B @ Nd[s, j] - refd[:, j]
            orth = np.linalg.norm(B.conj().T @ resid)
            bound = max(1e-10 * np.linalg.norm(B) * np.linalg.norm(refd[:, j]), 1e-12)
            worst_orth = max(worst_orth, orth / bound)
    elapsed = time.perf_counter() - t0
    ok = worst_col <= 1e-10 and worst_orth <= 1.0 and elapsed < 5.0
    report(2, ok, f"worst column error = {worst_col:.2e}, worst orthogonality ratio = {worst_orth:.2e}, {elapsed:.2f}s")
    assert worst_col <= 1e-10
    assert worst_orth <= 1.0
    assert elapsed < 5.0


def test_criterion_3_nested_pattern_monotonicity():
    t0 = time.perf_counter()
    K0 = fem_pair_2d(10, 10)[0]
    A_k = SequenceSpec.helmholtz(10, 10, 0.01, 150).matrices[150]
    ref_norm = spla.norm(K0)
    chain = [
        offset_pattern(100, [0]),
        offset_pattern(100, [-1, 0, 1]),
        pattern_of(K0),
        sparsified_power(pattern_of(K0), 2),
    ]
    residuals = []
    for S in chain:
        m = compute_map(A_k, K0, plan(S, A_k, A_ref=K0))
        residuals.append(m.rel_residual * ref_norm)
    elapsed = time.perf_counter() - t0
    mono = all(residuals[i + 1] <= residuals[i] + 1e-12 * ref_norm for i in range(3))
    ok = mono and elapsed < 2.0
    report(3, ok, "residual chain " + " >= ".join(f"{r:.4f}" for r in residuals) + f", {elapsed:.2f}s")
    assert mono
    assert elapsed < 2.0


def test_criterion_4_ilutp_exactness_limit_and_fill():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        Ad = rng.standard_normal((30, 30)) + 30 * np.eye(30)
        A = as_csc(Ad)
        F = factor(A, IlutpParams(lfil=30, droptol=0.0, pivtol=1.0))
        err = np.linalg.norm(Ad[:, F.colperm] - (F.L @ F.U).toarray()) / np.linalg.norm(Ad)
        worst = max(worst, err)
    fill_ok = True
    for lfil in (2, 5):
        A = random_sparse(40, rng, per_col=10, diag_boost=40.0)
        F = factor(A, IlutpParams(lfil=lfil, droptol=0.0, pivtol=1.0))
        L, U = F.L.tocsr(), F.U.tocsr()
        lrow = np.diff(L.indptr).max() - 1
        urow = np.diff(U.indptr).max() - 1
        fill_ok = fill_ok and lrow <= lfil and urow <= lfil
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and fill_ok and elapsed < 2.0
    report(4, ok, f"worst ||A Pi - L U||/||A|| = {worst:.2e}, fill bounds hold = {fill_ok}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert fill_ok
    assert elapsed < 2.0


def test_criterion_5_gmres_correctness():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    b = rng.standard_normal(25)
    x, rep = gmres(sp.identity(25, format="csc"), b)
    one_iter = rep.iterations == 1 and rep.converged
    full_ok = True
    for _ in range(5):
        A = random_sparse(20, rng, diag_boost=8.0)
        rhs = rng.standard_normal(20)
        _, r = gmres(A, rhs, config=GmresConfig(restart=20, rel_tol=1e-8, max_total_iters=20))
        full_ok = full_ok and r.converged and r.iterations <= 20
    A = random_sparse(20, rng, diag_boost=8.0)
    rhs = rng.standard_normal(20)
    _, r = gmres(A, rhs, config=GmresConfig(restart=4, rel_tol=1e-10, max_total_iters=200))
    boundary_ok = r.restarts >= 1 and all(abs(a - b) <= 1e-8 for a, b in r.restart_checks)
    elapsed = time.perf_counter() - t0
    ok = one_iter and full_ok and boundary_ok and elapsed < 2.0
    report(5, ok, f"identity 1 iter = {one_iter}, 20x20 full = {full_ok}, restart consistency = {boundary_ok}, {elapsed:.2f}s")
    assert one_iter
    assert full_ok
    assert boundary_ok
    assert elapsed < 2.0


HELMHOLTZ_ILUTP = IlutpParams(lfil=20, droptol=1e-3, pivtol=1.0)
HELMHOLTZ_GMRES = GmresConfig(restart=100, rel_tol=1e-10, max_total_iters=100)


def test_criterion_6_helmholtz_sweep_replication():
    # the paper's comparison on the indefinite tail (systems past index 100):
    # recompute needs the fewest iterations, the map update fewer than reusing
    # the first factorization; the pivoted ILUTP stays robust on this sweep, so
    # recompute failures are printed for information only (see README)
    t0 = time.perf_counter()
    spec = SequenceSpec.helmholtz(10, 10, 0.01, 200)

    K20 = spec.matrices[20]
    evals = np.linalg.eigvalsh(K20.toarray())
    indefinite = evals[0] < 0.0 < evals[-1]

    rep_sam = run_sequence(spec, Strategy.sam_every(), HELMHOLTZ_ILUTP, "ref", HELMHOLTZ_GMRES)
    sam_ok = sum(1 for r in rep_sam.rows[1:] if r.converged and r.iterations <= 100)

    rep_rec = run_sequence(spec, Strategy.recompute_every(), HELMHOLTZ_ILUTP, "ref", HELMHOLTZ_GMRES)
    rec_failures = [r.index for r in rep_rec.rows
                    if r.index > 100 and (not r.converged or r.prec_event == "prec_failed")]
    rec_prec_failed = [r.index for r in rep_rec.rows if r.prec_event == "prec_failed"]

    rep_reuse = run_sequence(spec, Strategy.reuse_first(), HELMHOLTZ_ILUTP, "ref", HELMHOLTZ_GMRES)

    def tail_iterations(rep):
        return sum(r.iterations for r in rep.rows if r.index > 100)

    rec_tail, sam_tail, reuse_tail = (tail_iterations(rep) for rep in (rep_rec, rep_sam, rep_reuse))

    elapsed = time.perf_counter() - t0
    ok = (indefinite and sam_ok >= 195 and rec_tail < sam_tail < reuse_tail
          and not rec_prec_failed and elapsed < 60.0)
    report(6, ok, f"K20 indefinite = {indefinite}, SAM converged {sam_ok}/200, "
                  f"tail iterations recompute {rec_tail} "
                  f"{'<' if rec_tail < sam_tail else 'NOT <'} map {sam_tail} "
                  f"{'<' if sam_tail < reuse_tail else 'NOT <'} reuse {reuse_tail}, "
                  f"recompute prec_failed = {rec_prec_failed[:5]}, "
                  f"recompute failures past index 100 = {rec_failures[:5]} "
                  f"(count {len(rec_failures)}), {elapsed:.1f}s")
    assert indefinite
    assert sam_ok >= 195
    assert rec_tail < sam_tail
    assert sam_tail < reuse_tail
    assert not rec_prec_failed
    assert elapsed < 60.0


def test_criterion_7_strategy_trend_shifted_pair():
    t0 = time.perf_counter()
    K, M = fem_pair_2d(32, 32)
    shifts = talbot_shifts(40, 0.01)
    assert np.all(np.diff(np.abs(shifts)) > 0)
    spec = SequenceSpec.shifted_pair(K, M, shifts)
    params = IlutpParams(lfil=20, droptol=1e-3, pivtol=1.0)
    cfg = GmresConfig(restart=50, rel_tol=1e-8, max_total_iters=500)
    rep_sam = run_sequence(spec, Strategy.sam_every(), params, "ref", cfg)
    rep_reuse = run_sequence(spec, Strategy.reuse_first(), params, "ref", cfg)
    sam_total = rep_sam.total_iterations
    reuse_total = rep_reuse.total_iterations
    res_first = rep_sam.rows[1].sam_rel_residual
    res_last = rep_sam.rows[-1].sam_rel_residual
    elapsed = time.perf_counter() - t0
    ok = sam_total < reuse_total and res_last > res_first and elapsed < 30.0
    report(7, ok, f"total iterations SAM {sam_total} < reuse {reuse_total}, "
                  f"map residual grows {res_first:.2e} -> {res_last:.2e}, {elapsed:.1f}s")
    assert sam_total < reuse_total
    assert res_last > res_first
    assert elapsed < 30.0


def test_criterion_8_parallel_determinism():
    t0 = time.perf_counter()
    K0 = fem_pair_2d(10, 10)[0]
    A_k = SequenceSpec.helmholtz(10, 10, 0.01, 150).matrices[150]
    pl = plan(pattern_of(K0), A_k, A_ref=K0)
    maps = [compute_map(A_k, K0, pl, workers=w) for w in (1, 8)]
    helm_same = (maps[0].N.data.tobytes() == maps[1].N.data.tobytes()
                 and np.array_equal(maps[0].N.indices, maps[1].N.indices))

    K, M = fem_pair_2d(32, 32)
    z = talbot_shifts(40, 0.01)
    A0, A9 = SequenceSpec.shifted_pair(K, M, z[[0, 9]]).matrices
    pl2 = plan(pattern_of(A0), A9, A_ref=A0)
    maps2 = [compute_map(A9, A0, pl2, workers=w) for w in (1, 6)]
    fem_same = maps2[0].N.data.tobytes() == maps2[1].N.data.tobytes()
    elapsed = time.perf_counter() - t0
    ok = helm_same and fem_same and elapsed < 10.0
    report(8, ok, f"bit-identical: helmholtz = {helm_same}, fem pair = {fem_same}, {elapsed:.1f}s")
    assert helm_same
    assert fem_same
    assert elapsed < 10.0


def test_criterion_9_harness_equivalences():
    t0 = time.perf_counter()
    params = IlutpParams(lfil=10, droptol=1e-3, pivtol=1.0)
    cfg = GmresConfig(restart=50, rel_tol=1e-10, max_total_iters=100)

    single = SequenceSpec.helmholtz(4, 4, 0.05, 0)
    reports = [run_sequence(single, s, params, "ref", cfg)
               for s in (Strategy.recompute_every(), Strategy.reuse_first(), Strategy.sam_every())]
    iters = {rep.rows[0].iterations for rep in reports}
    length_one_ok = len(iters) == 1 and all(rep.rows[0].prec_event == "prec" for rep in reports)

    sweep = SequenceSpec.helmholtz(4, 4, 0.05, 5)
    rep_ev = run_sequence(sweep, Strategy.at_events([(0, "prec")]), params, "ref", cfg)
    rep_reuse = run_sequence(sweep, Strategy.reuse_first(), params, "ref", cfg)
    rows_ok = all(a.iterations == b.iterations for a, b in zip(rep_ev.rows, rep_reuse.rows))

    elapsed = time.perf_counter() - t0
    ok = length_one_ok and rows_ok and elapsed < 5.0
    report(9, ok, f"length-1 equivalence = {length_one_ok}, events == reuse row-for-row = {rows_ok}, {elapsed:.2f}s")
    assert length_one_ok
    assert rows_ok
    assert elapsed < 5.0
