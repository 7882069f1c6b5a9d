"""Spans around samkit's layer boundaries, recorded from outside the package.

Every wrapper patches a public module attribute that the harness looks up at
call time, so the package itself carries no instrumentation:

    samkit.ilutp.factor          -> ilutp.factor
    IlutpFactors.apply_solve     -> ilutp.apply
    samkit.sam.plan              -> sam.plan
    samkit.sam.compute_map       -> sam.map
    samkit.sam.matvec            -> sparse.matvec  (the N apply in PreconditionerChain)
    samkit.harness.resolve_pattern -> patterns
    samkit.harness.gmres         -> gmres, with its A and M wrapped as
                                    gmres.matvec and gmres.prec operands

The benchmark opens the ``harness`` span itself around ``run_sequence``.
"""

import contextlib
import importlib
import statistics
import time
from collections import defaultdict

import samkit.harness
import samkit.ilutp
import samkit.sam

as_operator = importlib.import_module("samkit.gmres").as_operator


class Span:
    __slots__ = ("name", "start", "end", "parent", "arm", "system", "attrs")

    def __init__(self, name, start, end, parent, arm, system, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.arm = arm
        self.system = system
        self.attrs = attrs if attrs is not None else {}

    def record(self, workload):
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
                "workload": workload, "arm": self.arm, "system": self.system, **self.attrs}


class Tracer:
    """In-memory span list; a span's parent is the span open when it started.

    ``system`` counts the GMRES calls finished in the current arm, which is
    the index of the system the harness is working on.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self.arm = None
        self.system = 0

    def start_arm(self, arm):
        self.arm = arm
        self.system = 0

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span; returns (result, span)."""
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.arm, self.system)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        except Exception as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()


class TimedOperator:
    """GMRES operand that times each application.

    ``gmres`` reads ``A.dtype`` to choose its working field, so the wrapper
    carries the operand's dtype and complex runs stay complex.
    """

    def __init__(self, tracer, name, op):
        self._tracer = tracer
        self._name = name
        self._apply = as_operator(op)
        self.dtype = getattr(op, "dtype", None)

    def apply(self, v):
        return self._tracer.call(self._name, self._apply, v)[0]


@contextlib.contextmanager
def patched(patches):
    """Set (owner, attribute, value) triples, restoring the old values on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_patches(tracer):
    """Patch triples that route each layer boundary through ``tracer``."""
    ilutp, sam, harness = samkit.ilutp, samkit.sam, samkit.harness
    factor0, apply0 = ilutp.factor, ilutp.IlutpFactors.apply_solve
    plan0, map0, matvec0 = sam.plan, sam.compute_map, sam.matvec
    pattern0, gmres0 = harness.resolve_pattern, harness.gmres

    def factor(A, *args, **kwargs):
        F, span = tracer.call("ilutp.factor", factor0, A, *args, **kwargs)
        span.attrs["fill"] = (F.L.nnz + F.U.nnz - F.n) / A.nnz
        return F

    def apply_solve(self, v):
        return tracer.call("ilutp.apply", apply0, self, v)[0]

    def plan(*args, **kwargs):
        return tracer.call("sam.plan", plan0, *args, **kwargs)[0]

    def compute_map(*args, **kwargs):
        m, span = tracer.call("sam.map", map0, *args, **kwargs)
        span.attrs.update(nnz_N=m.N.nnz, relres=m.rel_residual)
        return m

    def matvec(*args):
        return tracer.call("sparse.matvec", matvec0, *args)[0]

    def resolve_pattern(*args):
        return tracer.call("patterns", pattern0, *args)[0]

    def gmres(A, b, M=None, x0=None, config=None):
        A_op = TimedOperator(tracer, "gmres.matvec", A)
        M_op = TimedOperator(tracer, "gmres.prec", M)
        (x, rep), span = tracer.call("gmres", gmres0, A_op, b, M=M_op, x0=x0, config=config)
        span.attrs.update(iters=rep.iterations, restarts=rep.restarts, converged=rep.converged)
        tracer.system += 1
        return x, rep

    return [(ilutp, "factor", factor), (ilutp.IlutpFactors, "apply_solve", apply_solve),
            (sam, "plan", plan), (sam, "compute_map", compute_map), (sam, "matvec", matvec),
            (harness, "resolve_pattern", resolve_pattern), (harness, "gmres", gmres)]


def self_times(spans):
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def arm_layer_metrics(spans, selfs, arm):
    """Per-layer metrics of one arm, as {name: (value, unit)} named ``<arm>.<layer>.<what>``."""
    by_name = defaultdict(list)
    for s, own in zip(spans, selfs):
        if s.arm == arm:
            by_name[s.name].append((s, own))

    def total(name):
        return sum(s.end - s.start for s, _ in by_name[name])

    def calls(name):
        return len(by_name[name])

    factors = by_name["ilutp.factor"]
    fills = [s.attrs["fill"] for s, _ in factors if "fill" in s.attrs]
    solves = [s for s, _ in by_name["gmres"]]
    m = {
        "ilutp.factor.calls": (calls("ilutp.factor"), "count"),
        "ilutp.factor.s": (total("ilutp.factor"), "s"),
        "ilutp.factor.ms_p50": (1e3 * statistics.median(s.end - s.start for s, _ in factors), "ms"),
        "ilutp.factor.failed": (sum("error" in s.attrs for s, _ in factors), "count"),
        "ilutp.factor.fill": (statistics.median(fills), "ratio"),
        "ilutp.apply.calls": (calls("ilutp.apply"), "count"),
        "ilutp.apply.s": (total("ilutp.apply"), "s"),
        "ilutp.apply.us_per_call": (1e6 * total("ilutp.apply") / max(calls("ilutp.apply"), 1), "us"),
        "gmres.s": (total("gmres"), "s"),
        "gmres.iters": (sum(s.attrs["iters"] for s in solves), "count"),
        "gmres.restarts": (sum(s.attrs["restarts"] for s in solves), "count"),
        "gmres.unconverged": (sum(not s.attrs["converged"] for s in solves), "count"),
        "gmres.matvec.calls": (calls("gmres.matvec"), "count"),
        "gmres.matvec.s": (total("gmres.matvec"), "s"),
        "gmres.prec.calls": (calls("gmres.prec"), "count"),
        "gmres.prec.s": (total("gmres.prec"), "s"),
        "gmres.self_s": (sum(own for _, own in by_name["gmres"]), "s"),
        "harness.s": (total("harness"), "s"),
        "harness.self_s": (sum(own for _, own in by_name["harness"]), "s"),
    }
    maps = [s for s, _ in by_name["sam.map"]]
    if maps:
        m.update({
            "sam.plan.calls": (calls("sam.plan"), "count"),
            "sam.plan.s": (total("sam.plan"), "s"),
            "sam.map.calls": (len(maps), "count"),
            "sam.map.s": (total("sam.map"), "s"),
            "sam.map.ms_per_call": (1e3 * total("sam.map") / len(maps), "ms"),
            "sam.map.nnz_N": (statistics.median(s.attrs["nnz_N"] for s in maps), "count"),
            "sam.map.relres_max": (max(s.attrs["relres"] for s in maps), "ratio"),
            "sparse.matvec.calls": (calls("sparse.matvec"), "count"),
            "sparse.matvec.s": (total("sparse.matvec"), "s"),
            "patterns.s": (total("patterns"), "s"),
        })
    return {f"{arm}.{k}": v for k, v in m.items()}
