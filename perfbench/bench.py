"""The samkit benchmark: drive run_sequence once per strategy arm, check, report.

The run is closed loop: one caller solves the systems of a sequence in
order, each after the previous one finishes, in one process.  With tracing
off, passes over every arm repeat until ``seconds`` have elapsed (at least
one pass) and the end-to-end metrics are medians over passes.  With tracing
on, one untraced pass is followed by one traced pass; the per-layer metrics
come from the traced pass and the difference between the two is the
tracing overhead.
"""

import json
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import samkit
import samkit.harness
import samkit.sam
from tracing import Tracer, arm_layer_metrics, layer_patches, patched, self_times
from workloads import ARMS, ILUTP, PATTERN, WORKLOADS, arm_strategy

SETUP_REPEATS = 5
MAP_RESIDUAL_RTOL = 1e-10


class LastCall:
    """Pass-through wrapper keeping the arguments and result of the latest call.

    One extra Python call per system; it lets the checks re-examine the last
    system of a sequence without re-running the sequence.
    """

    def __init__(self, fn):
        self.fn = fn
        self.seen = None

    def __call__(self, *args, **kwargs):
        result = self.fn(*args, **kwargs)
        self.seen = (args, kwargs, result)
        return result


@dataclass
class ArmRun:
    arm: str
    workers: int
    wall: float | None = None
    report: object = None
    error: str | None = None
    last_solve: tuple | None = field(default=None, repr=False)
    last_map: tuple | None = field(default=None, repr=False)


def run_arm(spec, wl, arm, nproc, tracer=None):
    """One run_sequence call; an exception is recorded, never raised."""
    strategy, workers = arm_strategy(arm, len(spec), nproc)
    out = ArmRun(arm, workers)
    with patched(layer_patches(tracer) if tracer is not None else []):
        # the capture wrappers sit outermost so they see the raw matrices
        solve_hook = LastCall(samkit.harness.gmres)
        map_hook = LastCall(samkit.sam.compute_map)
        with patched([(samkit.harness, "gmres", solve_hook), (samkit.sam, "compute_map", map_hook)]):
            args = (spec, strategy, ILUTP, PATTERN, wl.gmres)
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    out.report = samkit.harness.run_sequence(*args, sam_workers=workers)
                else:
                    tracer.start_arm(arm)
                    t0 = time.perf_counter()
                    out.report = tracer.call("harness", samkit.harness.run_sequence, *args,
                                             sam_workers=workers)[0]
                out.wall = time.perf_counter() - t0
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                out.error = f"{type(exc).__name__}: {exc}"
    out.last_solve, out.last_map = solve_hook.seen, map_hook.seen
    return out


def run_pass(spec, wl, nproc, tracer=None):
    return {arm: run_arm(spec, wl, arm, nproc, tracer) for arm in ARMS}


def failures(run, count):
    """Systems of one arm run that failed: unconverged, prec_failed, or all of them if it raised."""
    if run.error is not None:
        return count
    return sum(1 for r in run.report.rows if not r.converged or r.prec_event == "prec_failed")


def check_run(run, spec, rel_tol, deep):
    """Correctness checks on one arm run, outside any timed region; returns problems found."""
    if run.error is not None:
        return []
    bad = []
    for r in run.report.rows:
        if r.converged and not r.final_rel_residual <= rel_tol:
            bad.append(f"{run.arm}: system {r.index} converged with residual {r.final_rel_residual:.3e}")
        if r.sam_rel_residual is not None and not 0.0 <= r.sam_rel_residual <= 1.0:
            bad.append(f"{run.arm}: system {r.index} map residual {r.sam_rel_residual!r} outside [0, 1]")
    if not deep:
        return bad
    if run.last_map is not None:
        (A, A_ref, _), _, m = run.last_map
        ref = samkit.map_residual_norm(A, m.N, A_ref)
        if not abs(m.rel_residual - ref) <= MAP_RESIDUAL_RTOL * abs(ref):
            bad.append(f"{run.arm}: last map residual {m.rel_residual!r} != recomputed {ref!r}")
    (A, b), kw, (x, rep) = run.last_solve
    row = run.report.rows[-1]
    x2, rep2 = samkit.gmres(A, b, M=kw["M"], config=kw["config"])
    bnorm = np.linalg.norm(b)
    for label, xs, conv in (("harness", x, row.converged), ("re-solve", x2, rep2.converged)):
        explicit = np.linalg.norm(b - A @ xs) / bnorm
        if conv and not explicit <= rel_tol:
            bad.append(f"{run.arm}: {label} solution of the last system has residual {explicit:.3e}")
    if rep2.iterations != row.iterations or rep2.converged != row.converged:
        bad.append(f"{run.arm}: re-solving the last system took {rep2.iterations} iterations, "
                   f"the harness {row.iterations}")
    return bad


def percentile_ms(times, q):
    return 1e3 * float(np.percentile(times, q))


def end_to_end(passes, setup_s):
    """{name: (value, unit)} of the end-to-end metrics from untraced passes."""
    m = {"setup_s": (setup_s, "s")}
    for arm in ARMS:
        ok = [p[arm] for p in passes if p[arm].error is None]
        if not ok:
            continue
        sys_times = [r.prec_seconds + r.gmres_seconds for run in ok for r in run.report.rows]
        m[f"seq_s.{arm}"] = (statistics.median(run.wall for run in ok), "s")
        m[f"sys_ms.p50.{arm}"] = (percentile_ms(sys_times, 50), "ms")
        m[f"iters.{arm}"] = (ok[0].report.total_iterations, "count")
    return m


def tail_latency(passes):
    """sys_ms.p95 per arm where at least ten samples lie beyond it, with the sample count."""
    out = {}
    for arm in ARMS:
        times = [r.prec_seconds + r.gmres_seconds for p in passes if p[arm].error is None
                 for r in p[arm].report.rows]
        if 0.05 * len(times) >= 10:
            out[f"sys_ms.p95.{arm}"] = {"value": percentile_ms(times, 95), "unit": "ms",
                                       "samples": len(times)}
    return out


def completed(*passes):
    """Arms that finished without raising in every given pass."""
    return [arm for arm in ARMS if all(p[arm].error is None for p in passes)]


def per_layer(spans, untraced, traced, setup_s):
    """{name: (value, unit)} of the per-layer metrics of a traced pass."""
    selfs = self_times(spans)
    m = {"problems.build_s": (setup_s, "s")}
    arms = completed(untraced, traced)
    for arm in arms:
        m.update(arm_layer_metrics(spans, selfs, arm))
    if "map.sam.map.ms_per_call" in m:
        m["sam.map_over_factor"] = (m["map.sam.map.ms_per_call"][0] / m["map.ilutp.factor.ms_p50"][0], "ratio")
    if arms:
        plain = sum(untraced[arm].wall for arm in arms)
        m["trace_overhead_frac"] = (sum(traced[arm].wall for arm in arms) / plain - 1.0, "ratio")
    return m


def environment(nproc):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "cpu": cpu, "nproc": nproc, "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
            "sam_workers": {arm: arm_strategy(arm, 2, nproc)[1] for arm in ARMS}}


def describe(spec, seed):
    A = spec.matrices[0]
    z = np.asarray(spec.shifts)
    return {"seed": seed, "systems": len(spec), "n": int(A.shape[0]), "nnz": int(A.nnz),
            "shift_re": [float(z.real.min()), float(z.real.max())],
            "shift_im": [float(z.imag.min()), float(z.imag.max())]}


def run(name, seed, seconds, trace, toy=False):
    """Run one workload; returns (record, spans or None).

    ``record["metrics"]`` holds the end-to-end metrics without tracing and
    the per-layer metrics with it, as {name: {"value", "unit"}}.
    """
    wl = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    rel_tol = wl.gmres.rel_tol

    run_pass(wl.build(seed, toy=True), wl, nproc)  # warm-up: lazy imports, first-call costs
    setup = []

    def build():
        t0 = time.perf_counter()
        spec = wl.build(seed, toy=toy)
        setup.append(time.perf_counter() - t0)
        return spec

    for _ in range(SETUP_REPEATS):
        spec = build()

    def timed_pass():
        out = {}
        for arm in ARMS:
            build()  # one more set-up sample per arm spreads them over the whole run
            out[arm] = run_arm(spec, wl, arm, nproc)
        return out

    t_end = time.perf_counter() + seconds
    passes = [timed_pass()]
    while not trace and time.perf_counter() < t_end:
        passes.append(timed_pass())
    all_runs = [run_ for p in passes for run_ in p.values()]
    setup_s = statistics.median(setup)

    check_failures = []
    for i, p in enumerate(passes):
        for run_ in p.values():
            check_failures += check_run(run_, spec, rel_tol, deep=i == len(passes) - 1)
    for arm in ARMS:
        counts = {p[arm].report.total_iterations for p in passes if p[arm].error is None}
        if len(counts) > 1:
            check_failures.append(f"{arm}: iteration totals differ between passes: {sorted(counts)}")

    metrics, spans = end_to_end(passes, setup_s), None
    if trace:
        tracer = Tracer()
        traced = run_pass(spec, wl, nproc, tracer)
        all_runs += list(traced.values())
        for run_ in traced.values():
            check_failures += check_run(run_, spec, rel_tol, deep=False)
        for arm in completed(passes[0], traced):
            got, want = traced[arm].report.total_iterations, passes[0][arm].report.total_iterations
            if got != want:
                check_failures.append(f"{arm}: traced run took {got} iterations, untraced {want}")
        metrics = per_layer(tracer.spans, passes[0], traced, setup_s)
        spans = [s.record(name) for s in tracer.spans]

    attempted = len(all_runs) * len(spec)
    failed = sum(failures(run_, len(spec)) for run_ in all_runs)
    record = {"workload": name, "trace": int(trace), "seconds": seconds, "passes": len(passes),
              "inputs": describe(spec, seed), "environment": environment(nproc),
              "correct": not check_failures, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "tail_latency": tail_latency(passes),
              "arm_errors": {r.arm: r.error for r in all_runs if r.error is not None},
              "check_failures": check_failures}
    return record, spans


def write_outputs(out_dir, record, spans):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['inputs']['seed']}-trace{record['trace']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")


def print_report(record):
    print(json.dumps({k: record[k] for k in ("workload", "inputs", "environment", "passes")}))
    for key, m in record["metrics"].items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    for key, m in record["tail_latency"].items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']} ({m['samples']} samples)")
    print(f"{'failed_frac':40s} {record['failed_frac']:.6g} ({record['failed']}/{record['attempted']} systems)")
    for msg in record["check_failures"]:
        print(f"CHECK FAILED: {msg}")
