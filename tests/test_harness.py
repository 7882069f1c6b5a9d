import csv
import errno
import io
import os
import re
import time

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import samkit.cli
import samkit.harness
from samkit import (
    FactorizationError, GmresConfig, IlutpParams, PreconditionerChain, SequenceReport, SequenceSpec,
    Strategy, SystemRecord, as_csc, compute_map, factor, fem_pair_2d, gmres,
    matrix_market_write, offset_pattern, parse_config, pattern_of, plan, render_report,
    resolve_pattern, run_sequence, sparsified_power, talbot_shifts,
)
from samkit.harness import CSV_COLUMNS, ConfigError
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
    with pytest.raises(ValueError, match="unknown strategy kind"):
        Strategy("bogus")
    # the retired events kind is an unknown kind: reuse takes the events
    with pytest.raises(ValueError, match="unknown strategy kind 'events'"):
        Strategy("events", ((0, "prec"),))
    # the event rules are the same under every kind
    for kind in ("prec", "sam", "reuse"):
        with pytest.raises(ValueError, match="nonnegative"):
            Strategy(kind, ((-1, "prec"),))
        with pytest.raises(ValueError, match="system 0 must recompute"):
            Strategy(kind, ((0, "sam"),))
        with pytest.raises(ValueError, match="strictly increasing"):
            Strategy(kind, ((0, "prec"), (5, "sam"), (5, "sam")))
        with pytest.raises(ValueError, match="strictly increasing"):
            Strategy(kind, ((4, "sam"), (2, "sam")))
        with pytest.raises(ValueError, match="unknown action"):
            Strategy(kind, ((0, "prec"), (3, "explode")))
        # no event, or a first event past system 0, is a schedule too
        assert Strategy(kind).actions(1) == Strategy(kind, ((1, "prec"),)).actions(2)[:1] == ["prec"]
    assert Strategy.at_events([]) == Strategy.reuse_first()
    # an index that is not an integer is refused, not truncated
    for bad in (1.5, 2.0, "1"):
        with pytest.raises(ValueError, match=f"^event index must be an integer, not {re.escape(repr(bad))}$"):
            Strategy.at_events([(0, "prec"), (bad, "sam")])
    # nor is a bool, which was taken as system 1
    with pytest.raises(ValueError, match="^event index must be an integer, not True$"):
        Strategy("sam", ((0, "prec"), (True, "sam")))
    # a caller's list is kept as a tuple: the strategy hashes, and appending
    # to the list afterwards changes nothing
    ev = [(0, "prec"), (2, "sam")]
    strategy = Strategy("reuse", ev)
    ev.append((2, "bogus"))
    assert strategy.events == ((0, "prec"), (2, "sam"))
    assert hash(strategy) == hash(Strategy("reuse", ((0, "prec"), (2, "sam"))))
    assert strategy.actions(3)[2] == "sam"
    assert Strategy.at_events([(np.int64(0), "prec"), (np.int32(2), "sam")]).actions(3)[2] == "sam"


def test_strategy_actions():
    assert Strategy.recompute_every().actions(3) == ["prec"] * 3
    assert Strategy.reuse_first().actions(3) == ["prec", "reuse", "reuse"]
    assert Strategy.sam_every().actions(3) == ["prec", "sam", "sam"]
    ev = Strategy.at_events([(0, "prec"), (2, "sam")])
    assert ev == Strategy("reuse", ((0, "prec"), (2, "sam")))
    assert ev.actions(4) == ["prec", "reuse", "sam", "reuse"]
    # an event's action wins under every kind
    events = ((2, "reuse"), (3, "prec"))
    assert Strategy("sam", events).actions(5) == ["prec", "sam", "reuse", "prec", "sam"]
    assert Strategy("prec", events).actions(4) == ["prec", "prec", "reuse", "prec"]


def test_run_sequence_resolves_the_pattern_once_per_new_reference(monkeypatch):
    # a tracer times the pattern by patching samkit.harness.resolve_pattern,
    # which works only while run_sequence looks the function up at call time
    spec = small_sweep(count=11)
    refs = []

    def counting(choice, A_ref):
        refs.append(A_ref)
        return resolve_pattern(choice, A_ref)

    monkeypatch.setattr(samkit.harness, "resolve_pattern", counting)
    strategy = Strategy.at_events([(k, "prec" if k % 4 == 0 else "sam") for k in range(len(spec))])
    report = run_sequence(spec, strategy, MILD_ILUTP, "ref", FAST_GMRES)
    assert [r.prec_event for r in report.rows] == ["prec", "sam", "sam", "sam"] * 3
    assert len(refs) == 3
    assert all((A - spec.matrices[k]).nnz == 0 for A, k in zip(refs, (0, 4, 8)))


def test_gmres_seconds_is_the_interval_around_the_gmres_call(monkeypatch):
    # run_sequence reads one clock around the call; gmres timed only its own
    # body, so a wrapper's time (a tracer's, say) lay in no record
    sleep = 0.01
    gmres0 = samkit.harness.gmres

    def slow_gmres(*args, **kwargs):
        time.sleep(sleep)
        return gmres0(*args, **kwargs)

    monkeypatch.setattr(samkit.harness, "gmres", slow_gmres)
    report = run_sequence(small_sweep(count=2), Strategy.sam_every(), MILD_ILUTP, "ref", FAST_GMRES)
    assert all(r.gmres_seconds >= sleep for r in report.rows)


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
        message = f"event at index {events[-1][0]} lies past the sequence of 5 systems"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_sequence(spec, Strategy.at_events(events), MILD_ILUTP, "ref", FAST_GMRES)
    # so is a thread count that is not one; each ran to the end
    for workers, message in ((0, "at least 1, not 0"), (-1, "at least 1, not -1"),
                             (2.5, "an integer, not 2.5"), (True, "an integer, not True")):
        with pytest.raises(ValueError, match=f"^sam_workers must be {message}$"):
            run_sequence(spec, Strategy.sam_every(), MILD_ILUTP, "ref", FAST_GMRES, sam_workers=workers)


def test_bad_pattern_choice_raises_before_any_factorization(monkeypatch):
    # each was refused at the first map, after every system before it was
    # solved; a strategy that never maps refuses it all the same
    spec = small_sweep(count=4)

    def no_factor(*args, **kwargs):
        raise AssertionError("factored before the pattern choice was checked")
    monkeypatch.setattr(samkit.harness.ilutp, "factor", no_factor)
    refusals = (
        ("power:9", ValueError, "^power must be between 1 and 5$"),
        ("offsets:x", ValueError, r"^pattern choice 'offsets:x': expected the form offsets:o1,o2,\.\.\.$"),
        ("nope", ValueError, "^unknown pattern choice 'nope'$"),
        (offset_pattern(4, [0]), ValueError, "^pattern is 4x4, systems have size 16$"),
        ("offsets:100", ValueError, "^pattern choice 'offsets:100' has no positions for a 16x16 reference$"),
        (None, TypeError, "^pattern choice must be a sparse matrix or a string$"))
    for strategy in (Strategy.at_events([(0, "prec"), (3, "sam")]), Strategy.reuse_first()):
        for choice, error, message in refusals:
            with pytest.raises(error, match=message):
                run_sequence(spec, strategy, MILD_ILUTP, choice, FAST_GMRES)


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
    K = fem_pair_2d(4, 4)[0]
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


def test_sam_every_with_prec_events_is_the_refresh_schedule():
    # the benchmark's refresh arm names every system; the sam kind needs only the refreshes
    spec = small_sweep(count=11)
    refresh = Strategy.at_events([(k, "prec" if k % 4 == 0 else "sam") for k in range(12)])
    sparse = Strategy("sam", ((0, "prec"), (4, "prec"), (8, "prec")))
    rows = [run_sequence(spec, s, MILD_ILUTP, "ref", FAST_GMRES).rows for s in (refresh, sparse)]
    assert len(rows[0]) == len(rows[1]) == 12
    for a, b in zip(*rows):
        assert (a.prec_event, a.iterations, a.sam_rel_residual, a.final_rel_residual) == \
               (b.prec_event, b.iterations, b.sam_rel_residual, b.final_rel_residual)
    assert [r.prec_event for r in rows[1]] == ["prec", "sam", "sam", "sam"] * 3 == sparse.actions(12)


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


def _map_chain(A_k, A_ref, P_ref):
    """The operator a map of A_k back to A_ref on pattern ref puts in hand."""
    return PreconditionerChain(compute_map(A_k, A_ref, plan(pattern_of(A_ref), A_k, A_ref=A_ref)).N, P_ref)


def test_reuse_after_a_map_keeps_that_maps_chain():
    # the paper's reused updated preconditioner: system 3 reuses N_2 P_0, not P_0
    spec = small_sweep(count=4)
    rep = run_sequence(spec, Strategy("sam", ((3, "reuse"),)), MILD_ILUTP, "ref", FAST_GMRES)
    assert [r.prec_event for r in rep.rows] == ["prec", "sam", "sam", "reuse", "sam"]
    A, b = spec.matrices, spec.rhs
    P0 = factor(A[0], MILD_ILUTP)
    _, want = gmres(A[3], b, M=_map_chain(A[2], A[0], P0), config=FAST_GMRES)
    _, bare = gmres(A[3], b, M=P0, config=FAST_GMRES)
    row = rep.rows[3]
    assert (row.iterations, row.final_rel_residual) == (want.iterations, want.final_rel_residual)
    assert row.final_rel_residual != bare.final_rel_residual


def test_failed_factorization_after_a_map_keeps_that_maps_chain():
    # system 1 maps 1.1 * good back to good; system 2 is good with row 3 zeroed
    base = _spec_with_bad_system(2)
    good, bad, b = base.matrices[0], base.matrices[2], base.rhs
    spec = SequenceSpec("matrix_files", [good, 1.1 * good, bad], np.zeros(3, dtype=complex), b)
    rep = run_sequence(spec, Strategy("sam", ((2, "prec"),)), MILD_ILUTP, "ref", FAST_GMRES)
    assert [r.prec_event for r in rep.rows] == ["prec", "sam", "prec_failed"]
    P0 = factor(good, MILD_ILUTP)
    _, want = gmres(bad, b, M=_map_chain(spec.matrices[1], good, P0), config=FAST_GMRES)
    _, bare = gmres(bad, b, M=P0, config=FAST_GMRES)
    assert rep.rows[2].final_rel_residual == want.final_rel_residual
    assert rep.rows[2].final_rel_residual != bare.final_rel_residual


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
    # the markdown table holds the CSV's cells under the CSV's header, after a
    # separator row, and writes each number at four significant digits
    for rep in (_synthetic_report(), SequenceReport()):
        csv_rows = list(csv.reader(io.StringIO(render_report(rep))))
        md_rows = [[cell.strip() for cell in line.strip("|").split("|")]
                   for line in render_report(rep, format="markdown").splitlines()]
        assert md_rows[0] == list(CSV_COLUMNS) and md_rows[1] == ["---"] * len(CSV_COLUMNS)
        assert len(md_rows) == len(csv_rows) + 1
        for md_row, csv_row in zip(md_rows[2:], csv_rows[1:], strict=True):
            for md, cell in zip(md_row, csv_row, strict=True):
                try:
                    assert md == format(float(cell), ".4g")
                except ValueError:  # not a number
                    assert md == cell
    assert render_report(_synthetic_report(), format="markdown").splitlines()[-1] == (
        "| totals |  |  |  | 2 |  | 1 | 60 |  |  |")
    with pytest.raises(ValueError, match="unknown report format 'html'"):
        render_report(_synthetic_report(), format="html")


def test_parse_config_minimal_helmholtz(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sequence]\nkind = helmholtz_sweep\n")
    spec, strategy, params, pattern_choice, gc = parse_config(cfg)
    assert spec.kind == "helmholtz_sweep"
    assert len(spec) == 201
    assert strategy.kind == "sam"
    assert (params.lfil, params.droptol, params.pivtol) == (20, 1e-3, 1.0)
    assert pattern_choice == "ref"
    # one cycle of GmresConfig's 100 iterations, as a run that spells them out
    assert gc == GmresConfig(restart=100, rel_tol=1e-10, max_total_iters=100)


def test_parse_config_events_schedule(tmp_path):
    cfg = tmp_path / "run.cfg"
    sweep = "[sequence]\nkind = helmholtz_sweep\nnx = 4\nny = 4\ncount = 20\n"
    cfg.write_text(sweep + "[strategy]\nkind = reuse\nevents = [0:prec, 15:sam]\n")
    _, strategy, *_ = parse_config(cfg)
    assert strategy == Strategy.at_events([(0, "prec"), (15, "sam")])
    # any kind takes events, and the kind still defaults to sam
    for kind_line, kind in (("kind = prec\n", "prec"), ("", "sam")):
        cfg.write_text(sweep + f"[strategy]\n{kind_line}events = [4:prec, 9:reuse]\n")
        _, strategy, *_ = parse_config(cfg)
        assert strategy == Strategy(kind, ((4, "prec"), (9, "reuse")))


def test_parse_config_rejections(tmp_path):
    bad = {
        "event_zero_not_prec": ("[sequence]\nkind = helmholtz_sweep\n"
                                "[strategy]\nkind = reuse\nevents = [0:sam]\n"),
        "unknown_key": "[sequence]\nkind = helmholtz_sweep\nwibble = 3\n",
        "unknown_section": "[sequence]\nkind = helmholtz_sweep\n[turbo]\nx = 1\n",
        "missing_kind": "[sequence]\nnx = 4\n",
        "bad_kind": "[sequence]\nkind = warp_drive\n",
        "unknown_event_action": ("[sequence]\nkind = helmholtz_sweep\n"
                                 "[strategy]\nkind = sam\nevents = [0:prec, 3:map]\n"),
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
    shift_file = tmp_path / "shifts.mtx"
    matrix_market_write(np.array([[1.0], [2.0]]), shift_file)
    for name, extra in (("file_n_z", f"shift_file = {shift_file}\nn_z = 8\n"),
                        ("file_t", f"shift_file = {shift_file}\nt = 2\n"),
                        ("inline_n_z", "shifts = 1 0\nn_z = 8\n"),
                        ("inline_t", "shifts = 1 0\nt = 2\n")):
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
    no_entries = tmp_path / "p_empty.mtx"
    no_entries.write_text("%%MatrixMarket matrix coordinate real general\n9 9 0\n")
    bad.update({
        "negative_lfil": small + "[ilutp]\nlfil = -1\n",
        "bad_droptol": small + "[ilutp]\ndroptol = abc\n",
        "zero_restart": small + "[gmres]\nrestart = 0\n",
        "removed_gmres_key": small + "[gmres]\nreorthogonalize = true\n",
        "power_out_of_range": small + "[pattern]\nkind = power:9\n",
        "bad_tau": small + "[pattern]\nkind = sparsified:2:x\n",
        "nan_tau": small + "[pattern]\nkind = sparsified:2:nan\n",
        "tau_above_one": small + "[pattern]\nkind = sparsified:2:2\n",
        "sparsified_without_tau": small + "[pattern]\nkind = sparsified:2\n",
        "power_without_p": small + "[pattern]\nkind = power\n",
        "nan_droptol": small + "[ilutp]\ndroptol = nan\n",
        "fractional_lfil": small + "[ilutp]\nlfil = 2.5\n",
        "nan_rel_tol": small + "[gmres]\nrel_tol = nan\n",
        "fractional_restart": small + "[gmres]\nrestart = 2.5\n",
        "fractional_pattern_index": small + f"[pattern]\nkind = file\npath = {fractional}\n",
        "fractional_offset": small + "[pattern]\nkind = offsets:-1,0.9\n",
        "missing_pattern_file": small + "[pattern]\nkind = file\npath = nowhere.txt\n",
        "pattern_file_wrong_size": small + f"[pattern]\nkind = file\npath = {wrong_size}\n",
        "text_pattern_file": small + f"[pattern]\nkind = file\npath = {text_pattern}\n",
        "text_rhs_file": ("[sequence]\nkind = shifted_pair\nnx = 3\nny = 3\nshifts = 1 0\n"
                          f"rhs_file = {text_rhs}\n"),
    })
    for name, content in bad.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(content)
        with pytest.raises(ConfigError):
            parse_config(path)
    pair = "[sequence]\nkind = shifted_pair\nnx = 2\nny = 2\n"
    with_message = {
        "sequence.shifts: expected pairs of 're im' values$": pair + "shifts = 1 0 2\n",
        "sequence: give only one of shifts, shift_file, n_z/t$": pair + "shifts = 1 0\nn_z = 8\n",
        r"^\[sequence\] kind shifted_pair does not read rhs$": pair + "shifts = 1 0\nrhs = wave\n",
        r"strategy.events: expected a bracketed list like \[0:prec, 15:sam\]$":
            small + "[strategy]\nevents = 0:prec\n",
        "strategy.events: bad item 'x:sam'$": small + "[strategy]\nevents = [0:prec, x:sam]\n",
        r"missing required section \[sequence\]$": "[ilutp]\nlfil = 5\n",
        # a pattern with no positions passed, and every map was zero: each system
        # after the first stopped unconverged after one iteration at residual 1
        "^pattern: pattern choice 'offsets:100' has no positions for a 9x9 reference$":
            small + "[pattern]\nkind = offsets:100\n",
        "^pattern: pattern has no positions for a 9x9 reference$":
            small + f"[pattern]\nkind = file\npath = {no_entries}\n",
    }
    for message, content in with_message.items():
        path = tmp_path / "message.cfg"
        path.write_text(content)
        with pytest.raises(ConfigError, match=message):
            parse_config(path)
    # the system's reason: configparser skipped a file it could not open, and the refusal gave none
    with pytest.raises(ConfigError, match="^cannot read config file .*absent.cfg: No such file or directory$"):
        parse_config(tmp_path / "absent.cfg")
    with pytest.raises(ConfigError, match=f"^cannot read config file {re.escape(str(tmp_path))}: Is a directory$"):
        parse_config(tmp_path)
    # bytes that are not UTF-8 raised UnicodeDecodeError
    path = tmp_path / "latin.cfg"
    path.write_bytes(small.encode() + b"# \xff\xfe\n")
    with pytest.raises(ConfigError, match=f"^cannot read config file {re.escape(str(path))}: not UTF-8 text "):
        parse_config(path)
    # an empty event item was skipped: the first two read as [0:prec, 1:sam], [,] as no events
    for events in ("[0:prec,,1:sam]", "[0:prec, 1:sam,]", "[,]"):
        path.write_text(small + f"[strategy]\nevents = {events}\n")
        with pytest.raises(ConfigError, match="^strategy.events: bad item ''$"):
            parse_config(path)
    # the retired pattern keys are keys no kind reads: kind = power:2 spells them now
    for key in ("p = 2", "tau = 0.1", "offsets = 0,1"):
        path = tmp_path / "retired.cfg"
        path.write_text(small + f"[pattern]\nkind = power:2\n{key}\n")
        with pytest.raises(ConfigError, match=rf"^\[pattern\] kind power:2 does not read {key.split()[0]}$"):
            parse_config(path)


def test_parse_config_refuses_what_its_kinds_do_not_read(tmp_path):
    K, M = fem_pair_2d(2, 2)
    matrix_market_write(K, tmp_path / "k.mtx")
    matrix_market_write(M, tmp_path / "m.mtx")
    pair_files = f"k_file = {tmp_path / 'k.mtx'}\nm_file = {tmp_path / 'm.mtx'}\nshifts = 1 0\n"
    small = "[sequence]\nkind = helmholtz_sweep\nnx = 3\nny = 3\ncount = 2\n"
    cases = {
        # each was accepted and dropped what the kind does not read
        r"^\[sequence\] kind helmholtz_sweep does not read k_file, shifts$":
            "[sequence]\nkind = helmholtz_sweep\nshifts = 5 0\nk_file = nowhere.mtx\n",
        r"^\[sequence\] kind helmholtz_sweep does not read rhs_file$": small + "rhs_file = nowhere.mtx\n",
        r"^\[sequence\] kind matrix_files does not read n_z$":
            f"[sequence]\nkind = matrix_files\nfiles = {tmp_path / 'k.mtx'}\nn_z = 8\n",
        r"^\[pattern\] kind offsets:0 does not read path$": small + "[pattern]\nkind = offsets:0\npath = nowhere.mtx\n",
        "only one of nx/ny, k_file/m_file$": "[sequence]\nkind = shifted_pair\nnx = 5\n" + pair_files,
        # the retired spellings
        "unknown strategy kind 'events', expected one of prec, sam, reuse$":
            small + "[strategy]\nkind = events\nevents = [0:prec]\n",
        "'full'$": small + "[gmres]\nrestart = full\n",
        r"^\[sequence\] kind matrix_files does not read rhs$":
            f"[sequence]\nkind = matrix_files\nfiles = {tmp_path / 'k.mtx'}\nrhs = file:{tmp_path / 'k.mtx'}\n",
        # an empty file list is an empty sequence, not an IndexError
        "at least one system$": "[sequence]\nkind = matrix_files\nfiles =\n",
    }
    cfg = tmp_path / "run.cfg"
    for message, text in cases.items():
        cfg.write_text(text)
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
    # n_z and t are a shift source only for shifted_pair; with inline shifts
    # this was refused as two sources
    cfg.write_text(f"[sequence]\nkind = matrix_files\nfiles = {tmp_path / 'k.mtx'}\nshifts = 1 0\nn_z = 8\n")
    with pytest.raises(ConfigError, match=r"^\[sequence\] kind matrix_files does not read n_z$"):
        parse_config(cfg)
    # the same files without nx read as before
    cfg.write_text("[sequence]\nkind = shifted_pair\n" + pair_files)
    assert parse_config(cfg)[0].pair[0].shape == (4, 4)


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


def _problem_files(tmp_path):
    """Write a 4x4 FEM pair, its right-hand side, two shifts and the tridiagonal pattern; their paths."""
    K, M = fem_pair_2d(2, 2)
    files = {"k": K, "m": M, "rhs": np.ones((4, 1)), "shifts": np.array([[1], [2 + 0.5j]]),
             "tri": offset_pattern(4, [-1, 0, 1])}
    paths = {name: tmp_path / f"{name}.mtx" for name in files}
    for name, A in files.items():
        matrix_market_write(A, paths[name])
    return paths


# every key each [sequence] kind reads, one config per exclusive source
# (nx/ny against k_file/m_file; shifts, shift_file and n_z/t)
EVERY_SEQUENCE_KEY = {
    "helmholtz_sweep": "kind = helmholtz_sweep\nnx = 3\nny = 3\ndelta_s = 0.1\ncount = 2\n",
    "shifted_pair_grid_shifts": "kind = shifted_pair\nnx = 2\nny = 2\nshifts = 1 0 2 0\nrhs_file = {rhs}\n",
    "shifted_pair_files_shift_file": ("kind = shifted_pair\nk_file = {k}\nm_file = {m}\n"
                                      "shift_file = {shifts}\nrhs_file = {rhs}\n"),
    "shifted_pair_contour": "kind = shifted_pair\nnx = 2\nny = 2\nn_z = 4\nt = 2\n",
    "matrix_files_shifts": "kind = matrix_files\nfiles = {k} {m}\nshifts = 1 0 2 0\nrhs_file = {rhs}\n",
    "matrix_files_shift_file": "kind = matrix_files\nfiles = {k} {m}\nshift_file = {shifts}\n",
}
# every key of the other four sections
EVERY_OTHER_KEY = ("[strategy]\nkind = reuse\nevents = [0:prec, 1:sam]\n"
                   "[ilutp]\nlfil = 5\ndroptol = 1e-2\npivtol = 0.5\n"
                   "[pattern]\nkind = file\npath = {tri}\n"
                   "[gmres]\nrestart = 5\nrel_tol = 1e-8\nmax_total_iters = 20\n")


@pytest.mark.parametrize("sequence", EVERY_SEQUENCE_KEY.values(), ids=EVERY_SEQUENCE_KEY.keys())
def test_parse_config_takes_every_key_it_reads(tmp_path, sequence):
    # a parser that tests a key but never takes it out would refuse these
    paths = _problem_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(("[sequence]\n" + sequence).format(**paths))
    spec, *_ = parse_config(cfg)
    if spec.n == 4:  # the pattern file fits these systems
        cfg.write_text(("[sequence]\n" + sequence + EVERY_OTHER_KEY).format(**paths))
        spec, strategy, params, pattern, gc = parse_config(cfg)
        assert strategy == Strategy.at_events([(0, "prec"), (1, "sam")])
        assert (params.lfil, params.droptol, params.pivtol) == (5, 1e-2, 0.5)
        assert same_pattern(pattern, offset_pattern(4, [-1, 0, 1]))
        assert gc == GmresConfig(restart=5, rel_tol=1e-8, max_total_iters=20)


PAIR_4 = "[sequence]\n" + EVERY_SEQUENCE_KEY["shifted_pair_grid_shifts"]  # 4x4 systems


@pytest.mark.parametrize("text, where", [
    *(("[sequence]\n" + sequence, f"[sequence] kind {sequence.split()[2]}") for sequence in EVERY_SEQUENCE_KEY.values()),
    (PAIR_4 + "[strategy]\n", "[strategy]"),
    (PAIR_4 + "[strategy]\nkind = prec\n", "[strategy] kind prec"),
    (PAIR_4 + "[ilutp]\nlfil = 5\n", "[ilutp]"),
    (PAIR_4 + "[pattern]\n", "[pattern]"),
    (PAIR_4 + "[pattern]\nkind = offsets:0\n", "[pattern] kind offsets:0"),
    (PAIR_4 + "[pattern]\nkind = file\npath = {tri}\n", "[pattern] kind file"),
    (PAIR_4 + "[gmres]\n", "[gmres]"),
], ids=[*EVERY_SEQUENCE_KEY, "strategy", "strategy_prec", "ilutp", "pattern", "pattern_offsets",
        "pattern_file", "gmres"])
def test_parse_config_refuses_a_key_its_section_does_not_read(tmp_path, capsys, text, where):
    # the last section of text gets two keys that no parser reads; the message
    # names the section, its kind where it sets one, and both keys in order
    cfg = tmp_path / "run.cfg"
    cfg.write_text((text + "zebra = 2\nwibble = 1\n").format(**_problem_files(tmp_path)))
    with pytest.raises(ConfigError, match=f"^{re.escape(where)} does not read wibble, zebra$"):
        parse_config(cfg)
    assert cli_main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"samkit: {where} does not read wibble, zebra\n")


def test_parse_config_reports_a_section_after_its_values_and_the_sections_before_it(tmp_path):
    cfg = tmp_path / "run.cfg"
    # a bad value of the same section comes first
    cfg.write_text("[sequence]\nkind = helmholtz_sweep\nnx = 1\nwibble = 1\n")
    with pytest.raises(ConfigError, match="^sequence: nx must be at least 2"):
        parse_config(cfg)
    # a later section's bad value comes after
    cfg.write_text(SMALL_SWEEP + "wibble = 1\n[gmres]\nrestart = 0\n")
    with pytest.raises(ConfigError, match=r"^\[sequence\] kind helmholtz_sweep does not read wibble$"):
        parse_config(cfg)
    cfg.write_text(SMALL_SWEEP + "[ilutp]\nlfil = -1\n[gmres]\nwibble = 1\n")
    with pytest.raises(ConfigError, match="^ilutp: "):
        parse_config(cfg)


@pytest.mark.parametrize("text, built, direct", [
    (SMALL_PAIR + "n_z = 8\nt = 2\n", lambda c: c[0].shifts, lambda: talbot_shifts(8, 2.0)),
    (SMALL_SWEEP + "delta_s = 0.3\n", lambda c: c[0].shifts, lambda: SequenceSpec.helmholtz(3, 3, 0.3, 2).shifts),
    (SMALL_SWEEP + "[strategy]\nkind = prec\n", lambda c: c[1], Strategy.recompute_every),
    (SMALL_SWEEP + "[ilutp]\npivtol = 0.5\n", lambda c: c[2], lambda: IlutpParams(pivtol=0.5)),
    # the diagonal and tridiagonal patterns, spelled as offsets
    (SMALL_SWEEP + "[pattern]\nkind = offsets:0\n", lambda c: resolve_pattern(c[3], A_SMALL),
     lambda: offset_pattern(9, [0])),
    (SMALL_SWEEP + "[pattern]\nkind = offsets:-1,0,1\n", lambda c: resolve_pattern(c[3], A_SMALL),
     lambda: offset_pattern(9, [-1, 0, 1])),
    (SMALL_SWEEP + "[pattern]\nkind = power:3\n", lambda c: resolve_pattern(c[3], A_SMALL),
     lambda: sparsified_power(A_SMALL, 3)),
    (SMALL_SWEEP + "[pattern]\nkind = sparsified:2:0.1\n",
     lambda c: resolve_pattern(c[3], A_SMALL), lambda: sparsified_power(A_SMALL, 2, 0.1)),
    (SMALL_SWEEP + "[pattern]\nkind = offsets:-1,0,2\n",
     lambda c: resolve_pattern(c[3], A_SMALL), lambda: offset_pattern(9, [-1, 0, 2])),
], ids=["talbot", "delta_s", "recompute_every", "pivtol",
        "diag", "tridiag", "power", "sparsified", "offsets"])
def test_parse_config_values_build_their_objects(tmp_path, text, built, direct):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert _bits(built(parse_config(cfg))) == _bits(direct())


@pytest.mark.parametrize("extra, events", [
    # restart = 2: every system crosses restart boundaries
    ("[gmres]\nrestart = 2\n", ["prec", "sam", "sam", "sam"]),
    ("[pattern]\nkind = power:2\n", ["prec", "sam", "sam", "sam"]),
    # a prec event wins under sam
    ("[strategy]\nkind = sam\nevents = [2:prec]\n", ["prec", "sam", "prec", "sam"]),
], ids=["restart_2", "power_2", "prec_event"])
def test_parse_config_runs_converge(tmp_path, extra, events):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sequence]\nkind = shifted_pair\nnx = 6\nny = 6\nn_z = 8\n" + extra)
    report = run_sequence(*parse_config(cfg))
    assert [r.prec_event for r in report.rows] == events
    assert all(r.converged for r in report.rows)


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
    shifts = tmp_path / "shifts.mtx"
    matrix_market_write(np.array([[1.0 + 0.5j], [2.0 - 0.5j]]), shifts)
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
    shift_file = tmp_path / "shifts.mtx"
    matrix_market_write(np.array([[3.0], [4.0 - 1j]]), shift_file)
    cases = {"shifts = 1 0 2 0.5": [1.0, 2.0 + 0.5j], f"shift_file = {shift_file}": [3.0, 4.0 - 1j],
             "": [0.0, 0.0]}
    cfg = tmp_path / "run.cfg"
    for line, want in cases.items():
        cfg.write_text(f"[sequence]\nkind = matrix_files\nfiles = {' '.join(files)}\n{line}\n")
        spec, *_ = parse_config(cfg)
        assert np.array_equal(spec.shifts, want)
    cfg.write_text(f"[sequence]\nkind = matrix_files\nfiles = {' '.join(files)}\nshifts = 1 0\n")
    with pytest.raises(ConfigError, match="^sequence: one shift per system required: 1 shifts for 2 systems$"):
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
    assert out == "" and err == "samkit: gmres: restart must be at least 1, not 0\n"
    # rel_tol = inf exited 0, every system converged after 0 iterations
    cfg.write_text("[sequence]\nkind = helmholtz_sweep\n[gmres]\nrel_tol = inf\n")
    assert cli_main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", "samkit: gmres: rel_tol must be 0 < rel_tol < inf, not inf\n")
    cfg.write_text("kind = helmholtz_sweep\n")  # configparser's own message spans three lines
    assert cli_main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("samkit: File contains no section headers.") and err.count("\n") == 1
    assert str(cfg) in err


def test_cli_run_reads_the_config_as_utf8_text(tmp_path, capsys):
    # a byte-order mark was refused as "File contains no section headers",
    # and a byte that is not UTF-8 exited 1 with a UnicodeDecodeError traceback
    plain, bom, latin = (tmp_path / f"{name}.cfg" for name in ("plain", "bom", "latin"))
    plain.write_text(SMALL_SWEEP, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + SMALL_SWEEP.encode())
    latin.write_bytes(b"# caf\xe9\n" + SMALL_SWEEP.encode())
    (spec, *rest), (bom_spec, *bom_rest) = parse_config(plain), parse_config(bom)
    assert bom_rest == rest and _bits(bom_spec.rhs) == _bits(spec.rhs) and _bits(bom_spec.shifts) == _bits(spec.shifts)
    assert [_bits(A) for A in bom_spec.matrices] == [_bits(A) for A in spec.matrices]
    assert cli_main(["run", "--config", str(bom)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5  # header, three systems, totals
    assert cli_main(["run", "--config", str(latin)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"samkit: cannot read config file {latin}: not UTF-8 text ")


@pytest.mark.parametrize("text, message", [
    (SMALL_SWEEP + "[pattern]\nkind = diag\n", "pattern: unknown pattern choice 'diag'"),
    (SMALL_SWEEP + "[pattern]\nkind = tridiag\n", "pattern: unknown pattern choice 'tridiag'"),
    (SMALL_PAIR + "shifts = 1 0\nrhs = ones\n", "[sequence] kind shifted_pair does not read rhs"),
    (SMALL_PAIR + "shifts = 1 0\nrhs = file:{tmp}/rhs.mtx\n", "[sequence] kind shifted_pair does not read rhs"),
    (SMALL_PAIR + "shift_file = {tmp}/shifts.txt\n",
     "sequence: {tmp}/shifts.txt: Line 1: Not a Matrix Market file. Missing banner."),
    (SMALL_PAIR + "n_z = 8\ntalbot_constants = 0.6 0.5 0.6 0.3\n", "[sequence] kind shifted_pair does not read talbot_constants"),
    *((SMALL_SWEEP + f"[strategy]\nkind = {kind}\n",
       f"strategy: unknown strategy kind '{kind}', expected one of prec, sam, reuse")
      for kind in ("recompute_every", "sam_every", "reuse_first")),
], ids=["diag", "tridiag", "rhs_ones", "rhs_file_prefix", "shift_text", "talbot_constants", "recompute_every", "sam_every", "reuse_first"])
def test_cli_run_refuses_retired_spellings(tmp_path, capsys, text, message):
    # each input has one spelling: offsets:0, offsets:-1,0,1, rhs_file = PATH
    # (no rhs_file is the point source), shift_file = a Matrix Market vector,
    # a contour with other constants given as its shifts, and a strategy
    # kind as the action of every system that no event names
    (tmp_path / "shifts.txt").write_text("1 0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.format(tmp=tmp_path))
    assert cli_main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"samkit: {message.format(tmp=tmp_path)}\n")


def test_cli_run_writes_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[sequence]\nkind = helmholtz_sweep\nnx = 4\nny = 4\ncount = 1\n"
        "[strategy]\nkind = reuse\n")
    out_path = tmp_path / "report.csv"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out_path)]) == 0
    assert out_path.exists()
    assert out_path.read_text().startswith("index,")


def _tree(root):
    """Every path under root with the content of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


LONG_NAME = "a" * 300  # longer than any file name the system allows


@pytest.mark.parametrize("command, out, code", [
    ("run", "missing/report.csv", errno.ENOENT),
    ("run", "adir", errno.EISDIR),
    ("run", "afile/report.csv", errno.ENOTDIR),
    ("gen", "afile", errno.EEXIST),
    ("gen", "afile/sub", errno.ENOTDIR),
    ("run", LONG_NAME + ".csv", errno.ENAMETOOLONG),
    ("gen", LONG_NAME, errno.ENAMETOOLONG),
], ids=["missing_directory", "run_into_directory", "run_under_file", "gen_into_file", "gen_under_file",
        "run_long_name", "gen_long_name"])
def test_cli_run_refuses_missing_out_directory_before_any_work(tmp_path, capsys, monkeypatch,
                                                              command, out, code):
    # the system judges --out, and its refusal is one line with its reason; a
    # 300-character name solved every system, then lost the report to a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sequence]\nkind = shifted_pair\nnx = 3\nny = 3\nshifts = 1 0\n")
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("kept\n")
    before = _tree(tmp_path)
    ran = []
    monkeypatch.setattr(samkit.cli, "run_sequence", lambda *args: ran.append(args))
    assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"samkit: {OSError(code, os.strerror(code), str(tmp_path / out))}\n"
    assert ran == [] and _tree(tmp_path) == before


def test_cli_run_failing_after_opening_out_leaves_it_as_it_was(tmp_path, capsys, monkeypatch):
    # --out is opened for appending before the run: a run that fails leaves a
    # new file empty and an existing one with its content
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sequence]\nkind = shifted_pair\nnx = 3\nny = 3\nshifts = 1 0\n")

    def failing(*args):
        raise FactorizationError(0)
    monkeypatch.setattr(samkit.cli, "run_sequence", failing)
    kept = tmp_path / "kept.csv"
    kept.write_text("an earlier report\n")
    for out, content in ((kept, "an earlier report\n"), (tmp_path / "new.csv", "")):
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "samkit: factorization failed at row 0: no admissible pivot\n")
        assert out.read_text() == content


def test_cli_run_reports_a_failed_first_factorization_on_one_line(tmp_path, capsys):
    # it exited 1 with a traceback; a run that fails keeps status 1, and 2 is for refusals
    matrix_market_write(np.array([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "swap.mtx")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[sequence]\nkind = matrix_files\nfiles = {tmp_path / 'swap.mtx'}\n[ilutp]\npivtol = 0\n")
    assert cli_main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", "samkit: factorization failed at row 0: no admissible pivot\n")


def _gen(tmp_path, name, sequence):
    """Run ``samkit gen`` on a config holding the given [sequence] lines; the output directory."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("[sequence]\n" + sequence)
    outdir = tmp_path / name
    assert cli_main(["gen", "--config", str(cfg), "--out", str(outdir)]) == 0
    return outdir


def test_cli_gen_helmholtz(tmp_path):
    outdir = _gen(tmp_path, "gen", "kind = helmholtz_sweep\nnx = 4\nny = 4\ncount = 5\n")
    from samkit import matrix_market_read
    assert matrix_market_read(outdir / "k.mtx").shape == (16, 16)
    assert matrix_market_read(outdir / "m.mtx").shape == (16, 16)
    rhs = matrix_market_read(outdir / "rhs.mtx")
    assert rhs.shape == (16, 1)
    # the base system and five shifted ones
    assert matrix_market_read(outdir / "shifts.mtx").shape == (6, 1)
    assert sorted(p.name for p in outdir.iterdir()) == ["k.mtx", "m.mtx", "rhs.mtx", "shifts.mtx"]


def test_cli_gen_fem_pair(tmp_path):
    outdir = _gen(tmp_path, "gen2", "kind = shifted_pair\nnx = 3\nny = 3\nn_z = 8\nt = 1.0\n")
    from samkit import matrix_market_read
    assert matrix_market_read(outdir / "k.mtx").shape == (9, 9)
    assert matrix_market_read(outdir / "m.mtx").shape == (9, 9)
    assert matrix_market_read(outdir / "shifts.mtx").shape == (4, 1)
    # gen takes the config's own defaults: a 32x32 grid and n_z = 40, which gives 20 shifts
    outdir = _gen(tmp_path, "gen3", "kind = shifted_pair\n")
    assert matrix_market_read(outdir / "k.mtx").shape == (1024, 1024)
    assert matrix_market_read(outdir / "shifts.mtx").shape == (20, 1)


def test_cli_gen_output_runs(tmp_path):
    # gen writes each configured pair as a shifted pair that runs as a config
    cases = {
        "fem-pair": ("kind = shifted_pair\nnx = 4\nny = 4\nn_z = 8\nt = 1.0\n",
                     SequenceSpec.shifted_pair(*fem_pair_2d(4, 4), talbot_shifts(8, 1.0))),
        "helmholtz": ("kind = helmholtz_sweep\nnx = 4\nny = 4\ncount = 3\ndelta_s = 0.3\n",
                      SequenceSpec.helmholtz(4, 4, delta_s=0.3, count=3)),
    }
    for problem, (sequence, direct) in cases.items():
        outdir = _gen(tmp_path, problem, sequence)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"[sequence]\nkind = shifted_pair\nk_file = {outdir / 'k.mtx'}\n"
            f"m_file = {outdir / 'm.mtx'}\nshift_file = {outdir / 'shifts.mtx'}\n"
            f"rhs_file = {outdir / 'rhs.mtx'}\n")
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


def test_cli_late_event_and_pairless_gen_exit_2(tmp_path, capsys):
    cfg = tmp_path / "late.cfg"
    cfg.write_text("[sequence]\nkind = helmholtz_sweep\nnx = 3\nny = 3\ncount = 2\n"
                   "[strategy]\nkind = reuse\nevents = [0:prec, 50:sam]\n")
    assert cli_main(["run", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "samkit: strategy: event at index 50 lies past the sequence of 3 systems\n"
    # a matrix_files sequence has no (K, M) pair for gen to write
    K, _ = fem_pair_2d(2, 2)
    matrix_market_write(K, tmp_path / "a.mtx")
    cfg.write_text(f"[sequence]\nkind = matrix_files\nfiles = {tmp_path / 'a.mtx'}\n")
    outdir = tmp_path / "out"
    assert cli_main(["gen", "--config", str(cfg), "--out", str(outdir)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "samkit: gen: a matrix_files sequence has no (K, M) pair to write\n"
    assert not outdir.exists()


def test_parse_config_rhs_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    base = "[sequence]\nkind = shifted_pair\nnx = 2\nny = 2\nshifts = 1 0\n"
    vector = tmp_path / "rhs.mtx"
    matrix_market_write(np.array([[1.0], [-2.5], [0.0], [0.3]]), vector)
    cfg.write_text(base + f"rhs_file = {vector}\n")
    spec, *_ = parse_config(cfg)
    assert np.array_equal(spec.rhs, [1.0, -2.5, 0.0, 0.3])
    # the array format, as scipy writes a dense vector, reads the same
    array = tmp_path / "array.mtx"
    scipy.io.mmwrite(array, np.array([[1.0], [-2.5], [0.0], [0.3]]))
    cfg.write_text(base + f"rhs_file = {array}\n")
    spec, *_ = parse_config(cfg)
    assert np.array_equal(spec.rhs, [1.0, -2.5, 0.0, 0.3])
    # a matrix_files sequence takes its right-hand side from the file too
    matrix_market_write(fem_pair_2d(2, 2)[0], tmp_path / "k.mtx")
    cfg.write_text(f"[sequence]\nkind = matrix_files\nfiles = {tmp_path / 'k.mtx'}\nrhs_file = {vector}\n")
    spec, *_ = parse_config(cfg)
    assert np.array_equal(spec.rhs, [1.0, -2.5, 0.0, 0.3])
    short = tmp_path / "short.mtx"
    matrix_market_write(np.ones((3, 1)), short)
    # a row vector holds n entries too
    row = tmp_path / "row.mtx"
    matrix_market_write(np.ones((1, 4)), row)
    # a matrix with n entries is not a vector
    square = tmp_path / "square.mtx"
    matrix_market_write(np.ones((2, 2)), square)
    for path in (tmp_path / "missing.mtx", short, row, square):
        cfg.write_text(base + f"rhs_file = {path}\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)
    cfg.write_text(base + f"rhs_file = {square}\n")
    with pytest.raises(ConfigError, match=r"^sequence.rhs_file: file holds shape \(2, 2\), not one column$"):
        parse_config(cfg)
    # a file's values pass SequenceSpec's check, which refuses a NaN
    nan_vector = tmp_path / "nan.mtx"
    matrix_market_write(np.array([[1.0], [np.nan], [0.0], [0.3]]), nan_vector)
    cfg.write_text(base + f"rhs_file = {nan_vector}\n")
    with pytest.raises(ConfigError, match="^sequence: the right-hand side must hold finite integer, real or complex values$"):
        parse_config(cfg)


def test_parse_config_shift_file_faults(tmp_path):
    cfg = tmp_path / "run.cfg"
    base = "[sequence]\nkind = shifted_pair\nnx = 2\nny = 2\n"
    text = tmp_path / "text.txt"
    text.write_text("1 0\n2 0\n")
    empty = tmp_path / "empty.mtx"
    empty.write_text("%%MatrixMarket matrix coordinate real general\n0 1 0\n")
    nan = tmp_path / "nan.mtx"
    matrix_market_write(np.array([[1.0], [np.nan]]), nan)
    for name, A in (("row.mtx", np.ones((1, 2))), ("square.mtx", np.ones((2, 2)))):
        matrix_market_write(A, tmp_path / name)
    cases = {
        text: f"^sequence: {re.escape(str(text))}: Line 1: Not a Matrix Market file. Missing banner.$",
        tmp_path / "row.mtx": r"^sequence.shift_file: file holds shape \(1, 2\), not one column$",
        tmp_path / "square.mtx": r"^sequence.shift_file: file holds shape \(2, 2\), not one column$",
        empty: "^sequence: a sequence needs at least one system$",
        nan: "^sequence: shifts must be a 1-D sequence of finite values$",
        tmp_path / "missing.mtx": "missing.mtx",
    }
    for path, message in cases.items():
        cfg.write_text(base + f"shift_file = {path}\n")
        with pytest.raises(ConfigError, match=message):
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
