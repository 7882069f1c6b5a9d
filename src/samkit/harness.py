"""Strategy runner: solve a sequence of systems under a preconditioner policy.

A strategy decides, per system, whether to factor a fresh preconditioner,
compute a map back to the current reference matrix, or reuse whatever
operator is already in hand.  Every fresh factorization resets the reference
pair, so maps always target the most recently factored matrix.
"""

import configparser
import io
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import ilutp, patterns, sam
from .gmres import GmresConfig, gmres
from .problems import SequenceSpec, point_source_rhs, talbot_shifts, fem_pair_2d, matrix_market_read
from .sparse import as_csc, check_indices

RECOMPUTE = "prec"
COMPUTE_SAM = "sam"
REUSE = "reuse"
# per strategy kind, the action of every system after 0 that no event names
_DEFAULT_ACTION = {"recompute_every": RECOMPUTE, "sam_every": COMPUTE_SAM,
                   "reuse_first": REUSE, "events": REUSE}


@dataclass(frozen=True)
class Strategy:
    """Per-system preconditioner policy.

    System 0 always recomputes, since a sequence has to start from a real
    preconditioner.  ``events`` maps explicit indices to actions; every other
    system takes its kind's default action.
    """

    kind: str
    events: tuple = ()

    def __post_init__(self):
        if self.kind not in _DEFAULT_ACTION:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "events":
            if not self.events:
                raise ValueError("events strategy needs at least one event")
            idx = [e[0] for e in self.events]
            if idx[0] != 0 or self.events[0][1] != RECOMPUTE:
                raise ValueError("the first event must recompute the preconditioner at index 0")
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise ValueError("event indices must be strictly increasing")
            for _, act in self.events:
                if act not in _DEFAULT_ACTION.values():
                    raise ValueError(f"unknown action {act!r}")
        elif self.events:
            raise ValueError(f"strategy {self.kind!r} does not take events")
        # built once, since action() runs for every system
        object.__setattr__(self, "_event_actions", {**dict(self.events), 0: RECOMPUTE})

    @classmethod
    def recompute_every(cls):
        return cls("recompute_every")

    @classmethod
    def reuse_first(cls):
        return cls("reuse_first")

    @classmethod
    def sam_every(cls):
        return cls("sam_every")

    @classmethod
    def at_events(cls, events):
        return cls("events", tuple((int(i), str(a)) for i, a in events))

    def action(self, k: int) -> str:
        return self._event_actions.get(k, _DEFAULT_ACTION[self.kind])


@dataclass
class SystemRecord:
    index: int
    shift: complex
    prec_event: str
    prec_seconds: float
    sam_rel_residual: float | None
    gmres_seconds: float
    iterations: int
    converged: bool
    final_rel_residual: float


@dataclass
class SequenceReport:
    rows: list = field(default_factory=list)

    @property
    def total_prec_seconds(self):
        return sum(r.prec_seconds for r in self.rows)

    @property
    def total_gmres_seconds(self):
        return sum(r.gmres_seconds for r in self.rows)

    @property
    def total_iterations(self):
        return sum(r.iterations for r in self.rows)


def resolve_pattern(choice, A_ref) -> sp.csc_matrix:
    """Turn a pattern choice into a concrete pattern for the reference matrix.

    Accepts a sparse matrix, whose stored positions are the pattern, or one
    of the string forms ``ref``, ``diag``, ``tridiag``, ``power:P``,
    ``sparsified:P:TAU``, ``offsets:o1,o2,...``.  A pattern file is any
    Matrix Market matrix, passed as the matrix
    :func:`samkit.problems.matrix_market_read` returns, as
    ``[pattern] kind = file`` does.
    """
    if sp.issparse(choice):
        return patterns.pattern_of(choice)
    if not isinstance(choice, str):
        raise TypeError("pattern choice must be a sparse matrix or a string")
    n = A_ref.shape[0]
    name, sep, arg = choice.partition(":")
    if sep and name in ("ref", "diag", "tridiag"):
        raise ValueError(f"pattern choice {choice!r}: {name} takes no argument")
    if name == "ref":
        return patterns.pattern_of(A_ref)
    if name == "diag":
        return patterns.offset_pattern(n, [0])
    if name == "tridiag":
        return patterns.offset_pattern(n, [-1, 0, 1])
    if name == "power":
        return patterns.symbolic_power(A_ref, int(arg))
    if name == "sparsified":
        p, tau = arg.split(":")
        return patterns.sparsified_power(A_ref, int(p), float(tau))
    if name == "offsets":
        return patterns.offset_pattern(n, [int(tok) for tok in arg.split(",")])
    raise ValueError(f"unknown pattern choice {choice!r}")


def run_sequence(spec: SequenceSpec, strategy: Strategy, ilutp_params: ilutp.IlutpParams,
                 pattern_choice, gmres_config: GmresConfig, sam_workers: int = 1) -> SequenceReport:
    """Solve every system of the sequence in order under the given strategy.

    A failed factorization of the first system raises.  Any later one is
    recorded as ``prec_failed`` and the previous operator is kept, so the run
    continues.  An event past the last system, or a matrix with malformed
    index arrays, raises before any work.
    """
    late = [i for i, _ in strategy.events if i >= len(spec)]
    if late:
        raise ValueError(f"strategy event at index {late[0]} lies past the sequence of {len(spec)} systems")
    check_indices(*spec.matrices)
    b = spec.rhs
    report = SequenceReport()

    A_ref = P_ref = current = S = current_plan = None

    for k, A_k in enumerate(spec.matrices):
        A_k = as_csc(A_k)
        act = strategy.action(k)
        event = act
        sam_rel = None
        t0 = time.perf_counter()
        if act == RECOMPUTE:
            try:
                P_ref = ilutp.factor(A_k, ilutp_params)
                A_ref, current = A_k, P_ref
                S = None  # the pattern is resolved again for the new reference
            except ilutp.FactorizationError:
                if k == 0:
                    raise
                event = "prec_failed"
        elif act == COMPUTE_SAM:
            if S is None:
                S = resolve_pattern(pattern_choice, A_ref)
            # one plan serves every pattern, system and reference of its structures;
            # files may change structure, and a value-dependent pattern its own
            if current_plan is None or not current_plan.fits(S, A_k, A_ref):
                current_plan = sam.plan(S, A_k, A_ref=A_ref)
            mapped = sam.compute_map(A_k, A_ref, current_plan, workers=sam_workers)
            current = sam.PreconditionerChain(mapped.N, P_ref)
            sam_rel = mapped.rel_residual
        prec_seconds = time.perf_counter() - t0

        x, solve = gmres(A_k, b, M=current, config=gmres_config)
        report.rows.append(SystemRecord(
            index=k,
            shift=complex(spec.shifts[k]),
            prec_event=event,
            prec_seconds=prec_seconds,
            sam_rel_residual=sam_rel,
            gmres_seconds=solve.wall_seconds,
            iterations=solve.iterations,
            converged=solve.converged,
            final_rel_residual=solve.final_rel_residual,
        ))
    return report


CSV_COLUMNS = ("index", "shift_re", "shift_im", "prec_event", "prec_seconds",
               "sam_rel_residual", "gmres_seconds", "iterations", "converged",
               "final_rel_residual")


def render_report(report: SequenceReport, format: str = "csv") -> str:
    if format == "csv":
        return _render_csv(report)
    if format == "markdown":
        return _render_markdown(report)
    raise ValueError(f"unknown report format {format!r}")


def _render_csv(report):
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for r in report.rows:
        sam_res = "" if r.sam_rel_residual is None else repr(r.sam_rel_residual)
        out.write(",".join([
            str(r.index), repr(r.shift.real), repr(r.shift.imag), r.prec_event,
            repr(r.prec_seconds), sam_res, repr(r.gmres_seconds),
            str(r.iterations), str(r.converged).lower(), repr(r.final_rel_residual),
        ]) + "\n")
    out.write(",".join([
        "totals", "", "", "", repr(report.total_prec_seconds), "",
        repr(report.total_gmres_seconds), str(report.total_iterations), "", "",
    ]) + "\n")
    return out.getvalue()


def _render_markdown(report):
    head = ("| system | shift | event | prec (s) | map relres | gmres (s) | iter | converged |",
            "|---|---|---|---|---|---|---|---|")
    lines = list(head)
    for r in report.rows:
        shift = f"{r.shift.real:.4g}" if r.shift.imag == 0 else f"{r.shift.real:.4g}{r.shift.imag:+.4g}i"
        sam_res = "" if r.sam_rel_residual is None else f"{r.sam_rel_residual:.3e}"
        lines.append(
            f"| {r.index} | {shift} | {r.prec_event} | {r.prec_seconds:.3f} | {sam_res} "
            f"| {r.gmres_seconds:.3f} | {r.iterations} | {str(r.converged).lower()} |")
    lines.append(
        f"| totals |  |  | {report.total_prec_seconds:.3f} |  "
        f"| {report.total_gmres_seconds:.3f} | {report.total_iterations} |  |")
    return "\n".join(lines) + "\n"


# --- config files -------------------------------------------------------

_SECTION_KEYS = {
    "sequence": {"kind", "nx", "ny", "delta_s", "count", "k_file", "m_file",
                 "files", "shifts", "shift_file", "n_z", "t", "talbot_constants", "rhs"},
    "strategy": {"kind", "events"},
    "ilutp": {"lfil", "droptol", "pivtol"},
    "pattern": {"kind", "p", "tau", "offsets", "path"},
    "gmres": {"restart", "rel_tol", "max_total_iters"},
}


class ConfigError(ValueError):
    pass


def _require(section, key, cfg):
    if key not in cfg:
        raise ConfigError(f"missing required key {section}.{key}")
    return cfg[key]


def _parse_shifts(seq):
    contour = any(key in seq for key in ("n_z", "t", "talbot_constants"))
    if ("shifts" in seq) + ("shift_file" in seq) + contour > 1:
        raise ConfigError("sequence: give only one of shifts, shift_file, n_z/t/talbot_constants")
    if "shifts" in seq:
        pairs = np.array(seq["shifts"].replace(";", " ").split(), dtype=float)
        if pairs.size % 2 != 0:
            raise ConfigError("sequence.shifts: expected pairs of 're im' values")
        return pairs.view(np.complex128)  # each (re, im) pair, bit for bit
    if "shift_file" in seq:
        pairs = np.loadtxt(seq["shift_file"], ndmin=2)
        if pairs.shape[0] == 0 or pairs.shape[1] != 2:
            raise ConfigError("sequence.shift_file: expected one 're im' pair per line")
        return pairs.view(np.complex128)[:, 0]
    n_z = int(seq.get("n_z", "40"))
    t = float(seq.get("t", "60"))
    if "talbot_constants" not in seq:
        return talbot_shifts(n_z, t)
    consts = tuple(float(tok) for tok in seq["talbot_constants"].split())
    if len(consts) != 4:
        raise ConfigError("sequence.talbot_constants: four values required")
    return talbot_shifts(n_z, t, consts)


def _parse_rhs(seq, n):
    src = seq.get("rhs", "point")
    if src == "point":
        return point_source_rhs(n)
    if src == "ones":
        return np.ones(n) / np.sqrt(n)
    if src.startswith("file:"):
        # an n x 1 Matrix Market vector, as `samkit gen` writes
        vec = matrix_market_read(src[len("file:"):])
        if vec.shape != (n, 1):
            raise ConfigError(f"sequence.rhs: file holds shape {vec.shape}, systems need ({n}, 1)")
        return vec.toarray().ravel()
    raise ConfigError(f"sequence.rhs: unknown source {src!r}")


def _parse_events(text):
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ConfigError("strategy.events: expected a bracketed list like [0:prec, 15:sam]")
    events = []
    for item in body[1:-1].split(","):
        item = item.strip()
        if not item:
            continue
        idx, _, act = item.partition(":")
        try:
            events.append((int(idx), act.strip()))
        except ValueError:
            raise ConfigError(f"strategy.events: bad item {item!r}") from None
    return events


def _parse_sequence(seq):
    """The SequenceSpec a [sequence] section describes."""
    kind = _require("sequence", "kind", seq)
    if kind == "helmholtz_sweep":
        return SequenceSpec.helmholtz(
            nx=int(seq.get("nx", "10")), ny=int(seq.get("ny", "10")),
            delta_s=float(seq.get("delta_s", "0.01")), count=int(seq.get("count", "200")))
    if kind == "shifted_pair":
        if "k_file" in seq or "m_file" in seq:
            K = matrix_market_read(_require("sequence", "k_file", seq))
            M = matrix_market_read(_require("sequence", "m_file", seq))
        else:
            K, M = fem_pair_2d(int(seq.get("nx", "32")), int(seq.get("ny", "32")))
        return SequenceSpec.shifted_pair(K, M, _parse_shifts(seq), rhs=_parse_rhs(seq, K.shape[0]))
    if kind == "matrix_files":
        files = _require("sequence", "files", seq).split()
        shifts = None
        if "shifts" in seq or "shift_file" in seq:
            shifts = _parse_shifts(seq)
            if len(shifts) != len(files):
                raise ConfigError(f"sequence: {len(shifts)} shifts for {len(files)} files")
        spec = SequenceSpec.matrix_files(files, shifts=shifts)
        if "rhs" in seq:
            spec = replace(spec, rhs=_parse_rhs(seq, spec.n))
        return spec
    raise ConfigError(f"sequence.kind: unknown kind {kind!r}")


def _parse_strategy(st):
    st_kind = st.get("kind", "sam_every")
    if st_kind == "events":
        return Strategy.at_events(_parse_events(_require("strategy", "events", st)))
    if "events" in st:
        raise ConfigError(f"strategy.events conflicts with kind={st_kind}")
    return Strategy(st_kind)


def _parse_ilutp(il):
    return ilutp.IlutpParams(
        lfil=int(il.get("lfil", "20")),
        droptol=float(il.get("droptol", "1e-3")),
        pivtol=float(il.get("pivtol", "1.0")))


def _parse_pattern(pt, n):
    """A pattern choice for resolve_pattern; a pattern file, any Matrix Market matrix, is read here."""
    pkind = pt.get("kind", "ref")
    if pkind == "file":
        P = matrix_market_read(_require("pattern", "path", pt))
        if P.shape != (n, n):
            raise ConfigError(f"pattern.path: pattern is {P.shape[0]}x{P.shape[1]}, systems have size {n}")
        return P
    if pkind == "power":
        choice = f"power:{pt.get('p', '2')}"
    elif pkind == "sparsified":
        choice = f"sparsified:{pt.get('p', '2')}:{pt.get('tau', '1e-4')}"
    elif pkind == "offsets":
        choice = f"offsets:{_require('pattern', 'offsets', pt)}"
    elif pkind in ("ref", "diag", "tridiag"):
        choice = pkind
    else:
        raise ConfigError(f"pattern.kind: unknown kind {pkind!r}")
    # resolving on a 1x1 stand-in converts p, tau and the offsets and runs the
    # builders' range checks; the run's reference matrix is not known yet
    resolve_pattern(choice, sp.identity(1, format="csc"))
    return choice


def _parse_gmres(gm):
    max_iters = int(gm.get("max_total_iters", "100"))
    restart_raw = gm.get("restart", "full")
    return GmresConfig(
        restart=max_iters if restart_raw == "full" else int(restart_raw),
        rel_tol=float(gm.get("rel_tol", "1e-10")),
        max_total_iters=max_iters)


def _parse_section(cp, name, parse, *args):
    """parse(cp[name], *args); a malformed value or unreadable file raises ConfigError."""
    try:
        return parse(cp[name], *args)
    except ConfigError:
        raise
    except (OSError, ValueError, configparser.Error) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def parse_config(path):
    """Read a run description: (spec, strategy, ilutp params, pattern, gmres config).

    Matrix, right-hand side and pattern files are Matrix Market; shift files
    hold "re im" lines.  Malformed INI, unknown keys, bad values and files that
    cannot be read or do not fit raise :class:`ConfigError` before any factoring.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        found = cp.read(path)
    except configparser.Error as exc:  # its message names the file, over several lines
        raise ConfigError(" ".join(str(exc).split())) from None
    if not found:
        raise ConfigError(f"cannot read config file {path}")
    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    if "sequence" not in cp:
        raise ConfigError("missing required section [sequence]")
    cp.read_dict({name: {} for name in _SECTION_KEYS})  # absent sections read as empty

    spec = _parse_section(cp, "sequence", _parse_sequence)
    return (spec,
            _parse_section(cp, "strategy", _parse_strategy),
            _parse_section(cp, "ilutp", _parse_ilutp),
            _parse_section(cp, "pattern", _parse_pattern, spec.n),
            _parse_section(cp, "gmres", _parse_gmres))
