import csv
import io

import numpy as np
import pytest
import scipy.sparse as sp

import samkit.harness
from samkit import (
    FactorizationError, GmresConfig, IlutpParams, SequenceReport, SequenceSpec,
    Strategy, SystemRecord, as_csc, compute_map, fem_pair_2d, laplace2d_dirichlet,
    matrix_market_write, offset_pattern, parse_config, pattern_of, plan, render_report,
    resolve_pattern, run_sequence, sparsified_power, symbolic_power, talbot_shifts,
)
from samkit.harness import ConfigError
from samkit.cli import main as cli_main
from helpers import random_sparse, same_pattern

FAST_GMRES = GmresConfig(restart=50, rel_tol=1e-10, max_total_iters=100)
MILD_ILUTP = IlutpParams(lfil=10, droptol=1e-3, pivtol=1.0)


def small_sweep(count=3):
    return SequenceSpec.helmholtz(4, 4, 0.05, count)


def constant_sequence(n_systems=4):
    K, M = fem_pair_2d(4, 4)
    return SequenceSpec.shifted_pair(K, M, np.zeros(n_systems))


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy("bogus")
    with pytest.raises(ValueError):
        Strategy.at_events([])
    with pytest.raises(ValueError):
        Strategy.at_events([(1, "prec")])
    with pytest.raises(ValueError):
        Strategy.at_events([(0, "sam")])
    with pytest.raises(ValueError):
        Strategy.at_events([(0, "prec"), (5, "sam"), (5, "sam")])
    with pytest.raises(ValueError):
        Strategy.at_events([(0, "prec"), (3, "explode")])
    with pytest.raises(ValueError):
        Strategy("sam_every", events=((0, "prec"),))


def test_strategy_actions():
    assert [Strategy.recompute_every().action(k) for k in range(3)] == ["prec"] * 3
    assert [Strategy.reuse_first().action(k) for k in range(3)] == ["prec", "reuse", "reuse"]
    assert [Strategy.sam_every().action(k) for k in range(3)] == ["prec", "sam", "sam"]
    ev = Strategy.at_events([(0, "prec"), (2, "sam")])
    assert [ev.action(k) for k in range(4)] == ["prec", "reuse", "sam", "reuse"]


def test_resolve_pattern_forms(tmp_path):
    rng = np.random.default_rng(0)
    A = random_sparse(6, rng)
    assert same_pattern(resolve_pattern("ref", A), pattern_of(A))
    assert same_pattern(resolve_pattern("diag", A), offset_pattern(6, [0]))
    assert same_pattern(resolve_pattern("tridiag", A), offset_pattern(6, [-1, 0, 1]))
    assert same_pattern(resolve_pattern("offsets:-2,0,2", A), offset_pattern(6, [-2, 0, 2]))
    assert same_pattern(resolve_pattern("power:2", A), symbolic_power(pattern_of(A), 2))
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
    for bad in ("nope", "ref:junk", "diag:3", "tridiag:1"):
        with pytest.raises(ValueError, match=bad):
            resolve_pattern(bad, A)
    with pytest.raises(TypeError):
        resolve_pattern(42, A)


def test_length_one_sequence_strategy_equivalence():
    spec = small_sweep(count=0)
    assert len(spec) == 1
    reports = [
        run_sequence(spec, s, MILD_ILUTP, "ref", FAST_GMRES)
        for s in (Strategy.recompute_every(), Strategy.reuse_first(), Strategy.sam_every())
    ]
    for rep in reports:
        assert len(rep.rows) == 1
        assert rep.rows[0].prec_event == "prec"
    iters = {rep.rows[0].iterations for rep in reports}
    assert len(iters) == 1
    finals = {rep.rows[0].final_rel_residual for rep in reports}
    assert len(finals) == 1


def test_constant_sequence_identity_maps():
    spec = constant_sequence(4)
    rep = run_sequence(spec, Strategy.sam_every(), MILD_ILUTP, "ref", FAST_GMRES)
    sam_rows = rep.rows[1:]
    for r in sam_rows:
        assert r.prec_event == "sam"
        assert r.sam_rel_residual <= 1e-12
    assert len({r.iterations for r in sam_rows}) == 1


def test_events_reduce_to_reuse_first():
    spec = small_sweep(count=4)
    ev = Strategy.at_events([(0, "prec")])
    rep_ev = run_sequence(spec, ev, MILD_ILUTP, "ref", FAST_GMRES)
    rep_reuse = run_sequence(spec, Strategy.reuse_first(), MILD_ILUTP, "ref", FAST_GMRES)
    for a, b in zip(rep_ev.rows, rep_reuse.rows):
        assert a.iterations == b.iterations
        assert a.final_rel_residual == b.final_rel_residual


def test_event_past_the_end_raises_before_any_factorization(monkeypatch):
    spec = small_sweep(count=4)
    assert len(spec) == 5

    def no_factor(*args, **kwargs):
        raise AssertionError("factored before the events were checked")
    monkeypatch.setattr(samkit.harness.ilutp, "factor", no_factor)
    for events in ([(0, "prec"), (2, "sam"), (50, "sam")], [(0, "prec"), (5, "sam")]):
        with pytest.raises(ValueError, match=rf"index {events[-1][0]} .* 5 systems"):
            run_sequence(spec, Strategy.at_events(events), MILD_ILUTP, "ref", FAST_GMRES)


def test_run_determinism():
    spec = small_sweep(count=5)
    kw = dict(strategy=Strategy.sam_every(), ilutp_params=MILD_ILUTP,
              pattern_choice="ref", gmres_config=FAST_GMRES)
    r1 = run_sequence(spec, **kw)
    r2 = run_sequence(spec, **kw)
    assert [r.iterations for r in r1.rows] == [r.iterations for r in r2.rows]
    assert [r.sam_rel_residual for r in r1.rows] == [r.sam_rel_residual for r in r2.rows]


def test_sam_rows_have_residuals():
    spec = small_sweep(count=3)
    rep = run_sequence(spec, Strategy.sam_every(), MILD_ILUTP, "ref", FAST_GMRES)
    assert rep.rows[0].prec_event == "prec"
    for r in rep.rows[1:]:
        assert r.sam_rel_residual is not None
        assert np.isfinite(r.sam_rel_residual) and r.sam_rel_residual >= 0


def test_reference_switch_resets_map_target():
    # recompute at system 2 makes later maps target the nearby matrix
    spec = small_sweep(count=4)
    ev = Strategy.at_events([(0, "prec"), (2, "prec"), (3, "sam")])
    rep = run_sequence(spec, ev, MILD_ILUTP, "ref", FAST_GMRES)
    far = run_sequence(spec, Strategy.sam_every(), MILD_ILUTP, "ref", FAST_GMRES)
    assert rep.rows[3].sam_rel_residual < far.rows[3].sam_rel_residual


def test_matrix_files_changing_structure_plans_again(tmp_path):
    K, _ = laplace2d_dirichlet(4, 4)
    wider = K.tolil()
    wider[0, 15] = -0.5
    files = []
    for name, A in (("a.mtx", K), ("b.mtx", K), ("c.mtx", wider.tocsc())):
        matrix_market_write(A, tmp_path / name)
        files.append(tmp_path / name)
    spec = SequenceSpec.matrix_files(files)
    rep = run_sequence(spec, Strategy.sam_every(), MILD_ILUTP, "ref", FAST_GMRES)
    assert [r.prec_event for r in rep.rows] == ["prec", "sam", "sam"]
    assert all(r.converged for r in rep.rows)
    # the third map is the one a plan made for its own structure gives
    A_ref, A_2 = spec.matrices[0], spec.matrices[2]
    want = compute_map(A_2, A_ref, plan(pattern_of(A_ref), A_2, A_ref=A_ref))
    assert rep.rows[2].sam_rel_residual == want.rel_residual


def _count_plans(monkeypatch):
    calls = []
    plan0 = samkit.sam.plan

    def counting_plan(*args, **kwargs):
        calls.append(args)
        return plan0(*args, **kwargs)

    monkeypatch.setattr(samkit.sam, "plan", counting_plan)
    return calls


def test_one_plan_serves_every_reference_of_one_structure(monkeypatch):
    # recompute at every 4th system, map at the others: four references, one structure
    spec = small_sweep(count=11)
    refresh = Strategy.at_events([(k, "prec" if k % 4 == 0 else "sam") for k in range(12)])
    calls = _count_plans(monkeypatch)
    rep = run_sequence(spec, refresh, MILD_ILUTP, "ref", FAST_GMRES)
    assert len(calls) == 1
    # every map is the one a plan made for its own reference gives
    for r in rep.rows:
        if r.prec_event == "sam":
            A_ref, A_k = spec.matrices[r.index - r.index % 4], spec.matrices[r.index]
            want = compute_map(A_k, A_ref, plan(pattern_of(A_ref), A_k, A_ref=A_ref))
            assert r.sam_rel_residual == want.rel_residual


def test_pattern_that_changes_with_the_reference_plans_again(monkeypatch):
    # the sparsified pattern keeps only the diagonal of system 0 and the whole
    # stencil of system 20, whose diagonal is smaller
    spec = SequenceSpec.helmholtz(4, 4, 0.05, 21)
    choice = "sparsified:1:0.3"
    assert not same_pattern(resolve_pattern(choice, spec.matrices[0]),
                            resolve_pattern(choice, spec.matrices[20]))
    events = Strategy.at_events([(0, "prec"), (1, "sam"), (2, "sam"), (20, "prec"), (21, "sam")])
    calls = _count_plans(monkeypatch)
    run_sequence(spec, events, MILD_ILUTP, choice, FAST_GMRES)
    assert len(calls) == 2


def test_complex_reference_preconditioner_on_real_system():
    # GMRES on the real system 1 runs in the field of the complex factors
    K, M = fem_pair_2d(6, 6)
    mats = [as_csc(K + (5 + 3j) * M), as_csc(K)]
    spec = SequenceSpec("matrix_files", mats, np.zeros(2, dtype=complex), np.ones(K.shape[0]) / 6)
    for strategy in (Strategy.reuse_first(), Strategy.sam_every()):
        rep = run_sequence(spec, strategy, MILD_ILUTP, "ref", FAST_GMRES)
        assert rep.rows[1].converged and rep.rows[1].iterations < 20


def _spec_with_bad_system(bad_index):
    rng = np.random.default_rng(1)
    good = random_sparse(8, rng, diag_boost=8.0)
    bad = good.copy().tolil()
    bad[3, :] = 0.0
    mats = [good.copy() for _ in range(3)]
    mats[bad_index] = bad.tocsc()
    return SequenceSpec("matrix_files", mats, np.zeros(3, dtype=complex), np.ones(8) / np.sqrt(8))


def test_factor_failure_fallback_records_and_continues():
    spec = _spec_with_bad_system(1)
    rep = run_sequence(spec, Strategy.recompute_every(), MILD_ILUTP, "ref", FAST_GMRES)
    assert rep.rows[1].prec_event == "prec_failed"
    assert rep.rows[2].prec_event == "prec"
    assert rep.rows[0].converged and rep.rows[2].converged


def _spec_with_nan_system():
    K, _ = fem_pair_2d(6, 6)
    mats = [K, K.copy(), 2 * K]
    mats[1].data[:] = np.nan
    return SequenceSpec("matrix_files", mats, np.zeros(3, dtype=complex), np.ones(K.shape[0]) / 6)


def test_nan_system_falls_back():
    # a NaN pivot fails the factorization, as a zero one does, rather than
    # reaching the triangular solves with a bare RuntimeError
    rep = run_sequence(_spec_with_nan_system(), Strategy.recompute_every(), MILD_ILUTP, "ref", FAST_GMRES)
    assert [r.prec_event for r in rep.rows] == ["prec", "prec_failed", "prec"]
    assert rep.rows[0].converged and rep.rows[2].converged
    assert not rep.rows[1].converged


def test_nan_entry_spoils_only_its_mapped_system():
    # one NaN entry in system 2 makes NaN columns in its map; that system
    # stops unconverged at once, and the rest converge
    spec = SequenceSpec.helmholtz(4, 4, 0.01, 5)
    spec.matrices[2] = spec.matrices[2].copy()
    spec.matrices[2].data[5] = np.nan
    rep = run_sequence(spec, Strategy.sam_every(), MILD_ILUTP, "ref", FAST_GMRES)
    assert np.isnan(rep.rows[2].sam_rel_residual)
    assert (rep.rows[2].converged, rep.rows[2].iterations) == (False, 0)
    assert all(r.converged for r in rep.rows[:2] + rep.rows[3:])


def test_factor_failure_at_first_system_always_raises():
    spec = _spec_with_bad_system(0)
    with pytest.raises(FactorizationError):
        run_sequence(spec, Strategy.recompute_every(), MILD_ILUTP, "ref", FAST_GMRES)


def test_render_csv_empty_report():
    text = render_report(SequenceReport())
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("index,shift_re,shift_im,prec_event,prec_seconds")
    assert lines[1].split(",")[0] == "totals"
    totals = lines[1].split(",")
    assert totals[4] == "0" and totals[7] == "0"


def _synthetic_report():
    rows = [
        SystemRecord(0, 0.0 + 0j, "prec", 1.5, None, 0.25, 10, True, 1e-11),
        SystemRecord(1, 0.1 + 0j, "sam", 0.5, 0.01, 0.5, 20, True, 2e-11),
        SystemRecord(2, (0.2 + 0.3j), "reuse", 0.0, None, 0.25, 30, False, 1e-3),
    ]
    return SequenceReport(rows)


def test_render_csv_totals_row():
    rep = _synthetic_report()
    text = render_report(rep, format="csv")
    reader = list(csv.DictReader(io.StringIO(text)))
    assert len(reader) == 4
    totals = reader[-1]
    assert totals["index"] == "totals"
    assert float(totals["prec_seconds"]) == 2.0
    assert float(totals["gmres_seconds"]) == 1.0
    assert int(totals["iterations"]) == 60


def test_render_csv_round_trip_values():
    rep = SequenceReport([_synthetic_report().rows[1]])
    text = render_report(rep)
    row = list(csv.DictReader(io.StringIO(text)))[0]
    assert int(row["index"]) == 1
    assert float(row["shift_re"]) == 0.1
    assert float(row["sam_rel_residual"]) == 0.01
    assert row["converged"] == "true"
    assert float(row["final_rel_residual"]) == 2e-11


def test_render_markdown():
    text = render_report(_synthetic_report(), format="markdown")
    assert text.startswith("| system |")
    assert "| totals |" in text
    assert "| 60 |" in text
    with pytest.raises(ValueError):
        render_report(_synthetic_report(), format="html")


def test_parse_config_minimal_helmholtz(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sequence]\nkind = helmholtz_sweep\n")
    spec, strategy, params, pattern_choice, gc = parse_config(cfg)
    assert spec.kind == "helmholtz_sweep"
    assert len(spec) == 201
    assert strategy.kind == "sam_every"
    assert (params.lfil, params.droptol, params.pivtol) == (20, 1e-3, 1.0)
    assert pattern_choice == "ref"
    assert gc.rel_tol == 1e-10
    assert gc.restart == gc.max_total_iters  # full restarts by default


def test_parse_config_events_schedule(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[sequence]\nkind = helmholtz_sweep\nnx = 4\nny = 4\ncount = 20\n"
        "[strategy]\nkind = events\nevents = [0:prec, 15:sam]\n")
    _, strategy, *_ = parse_config(cfg)
    assert strategy.kind == "events"
    assert strategy.events == ((0, "prec"), (15, "sam"))


def test_parse_config_rejections(tmp_path):
    bad = {
        "events_not_zero": ("[sequence]\nkind = helmholtz_sweep\n"
                            "[strategy]\nkind = events\nevents = [1:prec]\n"),
        "unknown_key": "[sequence]\nkind = helmholtz_sweep\nwibble = 3\n",
        "unknown_section": "[sequence]\nkind = helmholtz_sweep\n[turbo]\nx = 1\n",
        "missing_kind": "[sequence]\nnx = 4\n",
        "bad_kind": "[sequence]\nkind = warp_drive\n",
        "conflicting_strategy": ("[sequence]\nkind = helmholtz_sweep\n"
                                 "[strategy]\nkind = sam_every\nevents = [0:prec]\n"),
        "bad_pattern": "[sequence]\nkind = helmholtz_sweep\n[pattern]\nkind = fancy\n",
        "small_grid": "[sequence]\nkind = helmholtz_sweep\nnx = 1\n",
        "missing_k_file": ("[sequence]\nkind = shifted_pair\nk_file = nowhere/k.mtx\n"
                           "m_file = nowhere/m.mtx\nshifts = 1 0\n"),
        "missing_files": "[sequence]\nkind = matrix_files\nfiles = nowhere/a.mtx\n",
        "bad_shift": "[sequence]\nkind = shifted_pair\nnx = 2\nny = 2\nshifts = 1 x\n",
        "nan_shift": "[sequence]\nkind = shifted_pair\nnx = 2\nny = 2\nshifts = nan 0\n",
        # malformed INI
        "duplicate_key": "[sequence]\nkind = helmholtz_sweep\nkind = shifted_pair\n",
        "duplicate_section": "[sequence]\nkind = helmholtz_sweep\n[sequence]\nnx = 4\n",
        "no_section_header": "kind = helmholtz_sweep\n[sequence]\n",
        "bad_interpolation": "[sequence]\nkind = helmholtz_sweep\ndelta_s = 1%\n",
    }
    # inline shifts, a shift file and the contour keys are three exclusive sources
    shift_file = tmp_path / "shifts.txt"
    shift_file.write_text("1 0\n2 0\n")
    for name, extra in (("file_n_z", f"shift_file = {shift_file}\nn_z = 8\n"),
                        ("file_t", f"shift_file = {shift_file}\nt = 2\n"),
                        ("file_constants", f"shift_file = {shift_file}\ntalbot_constants = 1 1 1 1\n"),
                        ("inline_t", "shifts = 1 0\nt = 2\n"),
                        ("inline_constants", "shifts = 1 0\ntalbot_constants = 1 1 1 1\n")):
        bad[name] = "[sequence]\nkind = shifted_pair\nnx = 2\nny = 2\n" + extra
    # bad values in the other sections fail here too, before anything is factored
    small = "[sequence]\nkind = helmholtz_sweep\nnx = 3\nny = 3\ncount = 2\n"
    wrong_size = tmp_path / "p4.mtx"
    matrix_market_write(offset_pattern(4, [0]), wrong_size)
    fractional = tmp_path / "p_fractional.mtx"
    fractional.write_text("%%MatrixMarket matrix coordinate real general\n9 9 1\n1.7 2 1\n")
    # pattern and right-hand side files are Matrix Market only: the retired
    # "nrows ncols nnz" pattern text and a plain one-value-per-line vector are refused
    text_pattern = tmp_path / "p_text.txt"
    text_pattern.write_text("9 9 1\n0 0\n")
    text_rhs = tmp_path / "rhs.txt"
    text_rhs.write_text("\n".join(["1"] * 9) + "\n")
    bad.update({
        "negative_lfil": small + "[ilutp]\nlfil = -1\n",
        "bad_droptol": small + "[ilutp]\ndroptol = abc\n",
        "zero_restart": small + "[gmres]\nrestart = 0\n",
        "removed_gmres_key": small + "[gmres]\nreorthogonalize = true\n",
        "power_out_of_range": small + "[pattern]\nkind = power\np = 9\n",
        "bad_tau": small + "[pattern]\nkind = sparsified\ntau = x\n",
        "nan_tau": small + "[pattern]\nkind = sparsified\ntau = nan\n",
        "nan_droptol": small + "[ilutp]\ndroptol = nan\n",
        "fractional_lfil": small + "[ilutp]\nlfil = 2.5\n",
        "nan_rel_tol": small + "[gmres]\nrel_tol = nan\n",
        "fractional_restart": small + "[gmres]\nrestart = 2.5\n",
        "fractional_pattern_index": small + f"[pattern]\nkind = file\npath = {fractional}\n",
        "fractional_offset": small + "[pattern]\nkind = offsets\noffsets = -1,0.9\n",
        "missing_pattern_file": small + "[pattern]\nkind = file\npath = nowhere.txt\n",
        "pattern_file_wrong_size": small + f"[pattern]\nkind = file\npath = {wrong_size}\n",
        "text_pattern_file": small + f"[pattern]\nkind = file\npath = {text_pattern}\n",
        "text_rhs_file": ("[sequence]\nkind = shifted_pair\nnx = 3\nny = 3\nshifts = 1 0\n"
                          f"rhs = file:{text_rhs}\n"),
    })
    for name, content in bad.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(content)
        with pytest.raises(ConfigError):
            parse_config(path)


SMALL_SWEEP = "[sequence]\nkind = helmholtz_sweep\nnx = 3\nny = 3\ncount = 2\n"
A_SMALL = SequenceSpec.helmholtz(3, 3, 0.01, 2).matrices[0]  # the reference SMALL_SWEEP factors first
SMALL_PAIR = "[sequence]\nkind = shifted_pair\nnx = 2\nny = 2\n"


def _bits(x):
    """x in a form that compares equal only when every array matches bit for bit."""
    if sp.issparse(x):
        return x.shape, [_bits(getattr(x, arr)) for arr in ("data", "indices", "indptr")]
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    return x


@pytest.mark.parametrize("text, built, direct", [
    (SMALL_PAIR + "shifts = 1 0\nrhs = ones\n", lambda c: c[0].rhs, lambda: np.ones(4) / np.sqrt(4)),
    (SMALL_PAIR + "n_z = 8\nt = 2\ntalbot_constants = 0.61 0.51 0.62 0.31\n", lambda c: c[0].shifts,
     lambda: talbot_shifts(8, 2.0, (0.61, 0.51, 0.62, 0.31))),
    (SMALL_SWEEP + "delta_s = 0.3\n", lambda c: c[0].shifts, lambda: SequenceSpec.helmholtz(3, 3, 0.3, 2).shifts),
    (SMALL_SWEEP + "[strategy]\nkind = recompute_every\n", lambda c: c[1], Strategy.recompute_every),
    (SMALL_SWEEP + "[ilutp]\npivtol = 0.5\n", lambda c: c[2], lambda: IlutpParams(pivtol=0.5)),
    (SMALL_SWEEP + "[pattern]\nkind = diag\n", lambda c: resolve_pattern(c[3], A_SMALL),
     lambda: offset_pattern(9, [0])),
    (SMALL_SWEEP + "[pattern]\nkind = tridiag\n", lambda c: resolve_pattern(c[3], A_SMALL),
     lambda: offset_pattern(9, [-1, 0, 1])),
    (SMALL_SWEEP + "[pattern]\nkind = power\np = 3\n", lambda c: resolve_pattern(c[3], A_SMALL),
     lambda: symbolic_power(A_SMALL, 3)),
    (SMALL_SWEEP + "[pattern]\nkind = sparsified\np = 2\ntau = 0.1\n",
     lambda c: resolve_pattern(c[3], A_SMALL), lambda: sparsified_power(A_SMALL, 2, 0.1)),
    (SMALL_SWEEP + "[pattern]\nkind = offsets\noffsets = -1,0,2\n",
     lambda c: resolve_pattern(c[3], A_SMALL), lambda: offset_pattern(9, [-1, 0, 2])),
], ids=["rhs_ones", "talbot_constants", "delta_s", "recompute_every", "pivtol",
        "diag", "tridiag", "power", "sparsified", "offsets"])
def test_parse_config_values_build_their_objects(tmp_path, text, built, direct):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert _bits(built(parse_config(cfg))) == _bits(direct())


def test_parse_config_shifted_pair_inline_shifts(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[sequence]\nkind = shifted_pair\nnx = 3\nny = 3\n"
        "shifts = 0.1 0 0.2 0.05\n[gmres]\nrestart = 5\n")
    spec, _, _, _, gc = parse_config(cfg)
    assert len(spec) == 2
    assert spec.shifts[1] == 0.2 + 0.05j
    assert gc.restart == 5
    # each pair is viewed bit for bit, so the sign of a zero survives
    cfg.write_text("[sequence]\nkind = shifted_pair\nnx = 3\nny = 3\nshifts = -0.0 1.5; 2 -0.0\n")
    spec, *_ = parse_config(cfg)
    want = np.array([-0.0, 1.5, 2.0, -0.0]).view(np.complex128)
    assert spec.shifts.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_parse_config_shift_file(tmp_path):
    shifts = tmp_path / "shifts.txt"
    shifts.write_text("1.0 0.5\n2.0 -0.5\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"[sequence]\nkind = shifted_pair\nnx = 3\nny = 3\nshift_file = {shifts}\n")
    spec, *_ = parse_config(cfg)
    assert np.array_equal(spec.shifts, [1.0 + 0.5j, 2.0 - 0.5j])


def test_parse_config_matrix_files_keeps_shifts(tmp_path):
    K, M = fem_pair_2d(3, 3)
    files = []
    for name, A in (("a.mtx", K), ("b.mtx", K + M)):
        matrix_market_write(A, tmp_path / name)
        files.append(str(tmp_path / name))
    shift_file = tmp_path / "shifts.txt"
    shift_file.write_text("3 0\n4 -1\n")
    cases = {"shifts = 1 0 2 0.5": [1.0, 2.0 + 0.5j], f"shift_file = {shift_file}": [3.0, 4.0 - 1j],
             "": [0.0, 0.0]}
    cfg = tmp_path / "run.cfg"
    for line, want in cases.items():
        cfg.write_text(f"[sequence]\nkind = matrix_files\nfiles = {' '.join(files)}\n{line}\n")
        spec, *_ = parse_config(cfg)
        assert np.array_equal(spec.shifts, want)
    cfg.write_text(f"[sequence]\nkind = matrix_files\nfiles = {' '.join(files)}\nshifts = 1 0\n")
    with pytest.raises(ConfigError, match="1 shifts for 2 files"):
        parse_config(cfg)


def test_cli_run_outputs_csv(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[sequence]\nkind = helmholtz_sweep\nnx = 4\nny = 4\ncount = 2\n"
        "[gmres]\nmax_total_iters = 50\n")
    assert cli_main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4  # three systems plus totals
    assert rows[0]["prec_event"] == "prec"
    assert rows[1]["prec_event"] == "sam"


def test_cli_run_reports_config_error_on_one_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sequence]\nkind = helmholtz_sweep\n[gmres]\nrestart = 0\n")
    assert cli_main(["run", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "samkit: gmres: restart must be an integer of at least 1\n"
    cfg.write_text("kind = helmholtz_sweep\n")  # configparser's own message spans three lines
    assert cli_main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("samkit: File contains no section headers.") and err.count("\n") == 1
    assert str(cfg) in err


def test_cli_run_writes_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[sequence]\nkind = helmholtz_sweep\nnx = 4\nny = 4\ncount = 1\n"
        "[strategy]\nkind = reuse_first\n")
    out_path = tmp_path / "report.csv"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out_path)]) == 0
    assert out_path.exists()
    assert out_path.read_text().startswith("index,")


def test_cli_gen_helmholtz(tmp_path):
    outdir = tmp_path / "gen"
    assert cli_main(["gen", "--problem", "helmholtz", "--out", str(outdir),
                     "--nx", "4", "--ny", "4", "--count", "5"]) == 0
    from samkit import matrix_market_read
    assert matrix_market_read(outdir / "k.mtx").shape == (16, 16)
    assert matrix_market_read(outdir / "m.mtx").shape == (16, 16)
    rhs = matrix_market_read(outdir / "rhs.mtx")
    assert rhs.shape == (16, 1)
    lines = (outdir / "shifts.txt").read_text().strip().split("\n")
    assert len(lines) == 6  # the base system and five shifted ones


def test_cli_gen_fem_pair(tmp_path):
    outdir = tmp_path / "gen2"
    assert cli_main(["gen", "--problem", "fem-pair", "--out", str(outdir),
                     "--nx", "3", "--ny", "3", "--n-z", "8", "--t", "1.0"]) == 0
    from samkit import matrix_market_read
    assert matrix_market_read(outdir / "k.mtx").shape == (9, 9)
    assert matrix_market_read(outdir / "m.mtx").shape == (9, 9)
    lines = (outdir / "shifts.txt").read_text().strip().split("\n")
    assert len(lines) == 4


def test_cli_gen_output_runs(tmp_path):
    # gen writes each built-in problem as a shifted pair that runs as a config
    cases = {
        "fem-pair": (["--nx", "4", "--ny", "4", "--n-z", "8", "--t", "1.0"],
                     SequenceSpec.shifted_pair(*fem_pair_2d(4, 4), talbot_shifts(8, 1.0))),
        "helmholtz": (["--nx", "4", "--ny", "4", "--count", "3", "--delta-s", "0.3"],
                      SequenceSpec.helmholtz(4, 4, delta_s=0.3, count=3)),
    }
    for problem, (args, direct) in cases.items():
        outdir = tmp_path / problem
        assert cli_main(["gen", "--problem", problem, "--out", str(outdir), *args]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"[sequence]\nkind = shifted_pair\nk_file = {outdir / 'k.mtx'}\n"
            f"m_file = {outdir / 'm.mtx'}\nshift_file = {outdir / 'shifts.txt'}\n"
            f"rhs = file:{outdir / 'rhs.mtx'}\n")
        spec, strategy, params, pattern, gc = parse_config(cfg)
        assert np.array_equal(spec.rhs, direct.rhs)
        assert np.array_equal(spec.shifts, direct.shifts)
        assert len(spec) == len(direct)
        for A, B in zip(spec.matrices, direct.matrices):
            # bit for bit, scalar field included
            assert A.dtype == B.dtype
            for arr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(A, arr), getattr(B, arr))
        report = run_sequence(spec, strategy, params, pattern, gc)
        assert len(report.rows) == 4 and all(r.converged for r in report.rows)


def test_parse_config_rhs_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    base = "[sequence]\nkind = shifted_pair\nnx = 2\nny = 2\nshifts = 1 0\n"
    vector = tmp_path / "rhs.mtx"
    matrix_market_write(np.array([[1.0], [-2.5], [0.0], [0.3]]), vector)
    cfg.write_text(base + f"rhs = file:{vector}\n")
    spec, *_ = parse_config(cfg)
    assert np.array_equal(spec.rhs, [1.0, -2.5, 0.0, 0.3])
    short = tmp_path / "short.mtx"
    matrix_market_write(np.ones((3, 1)), short)
    # a row vector holds n entries too
    row = tmp_path / "row.mtx"
    matrix_market_write(np.ones((1, 4)), row)
    bad_mm = tmp_path / "bad.mtx"
    bad_mm.write_text("%%MatrixMarket matrix array real general\n4 1\n1\n2\n3\n4\n")
    # a matrix with n entries is not a vector
    square = tmp_path / "square.mtx"
    matrix_market_write(np.ones((2, 2)), square)
    for path in (tmp_path / "missing.mtx", short, row, bad_mm, square):
        cfg.write_text(base + f"rhs = file:{path}\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
def test_parse_config_shift_file_faults(tmp_path):
    cfg = tmp_path / "run.cfg"
    for name, content in (("three.txt", "1 2 3\n"), ("one.txt", "1\n2\n"), ("empty.txt", ""),
                          ("ragged.txt", "1 2\n3\n"), ("word.txt", "1 x\n")):
        path = tmp_path / name
        path.write_text(content)
        cfg.write_text(f"[sequence]\nkind = shifted_pair\nnx = 2\nny = 2\nshift_file = {path}\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)
    cfg.write_text(f"[sequence]\nkind = shifted_pair\nnx = 2\nny = 2\n"
                   f"shift_file = {tmp_path / 'missing.txt'}\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_run_sequence_refuses_malformed_index_arrays(monkeypatch):
    # the bad matrix is the second system: the run refuses before factoring the first
    bad = sp.csc_matrix((np.ones(5), [0, 5, 1, 2, 2], [0, 2, 3, 5]), shape=(3, 3))
    spec = SequenceSpec("matrix_files", [sp.identity(3, format="csc"), bad], np.zeros(2), np.ones(3))
    factored = []
    monkeypatch.setattr(samkit.harness.ilutp, "factor", lambda *args: factored.append(args))
    with pytest.raises(ValueError, match="indices must be < 3"):
        run_sequence(spec, Strategy.recompute_every(), MILD_ILUTP, "ref", FAST_GMRES)
    assert factored == []
