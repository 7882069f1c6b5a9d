"""Strategy runner: solve a sequence of systems under a preconditioner policy.

A strategy's schedule, ``Strategy.actions(n)``, lists before system 0 whether
each system factors a fresh preconditioner, computes a map back to the
current reference matrix, or reuses whatever operator is already in hand.
Every fresh factorization resets the reference pair, so maps always target
the most recently factored matrix.
"""

import configparser
import time
from dataclasses import dataclass, field

import numpy as np

from . import ilutp, sam
from .gmres import GmresConfig, gmres
from .patterns import resolve_pattern
from .problems import SequenceSpec, talbot_shifts, fem_pair_2d, matrix_market_read
from .sparse import check_integers, checked_csc

RECOMPUTE = "prec"
COMPUTE_SAM = "sam"
REUSE = "reuse"
_ACTIONS = (RECOMPUTE, COMPUTE_SAM, REUSE)


@dataclass(frozen=True)
class Strategy:
    """Per-system preconditioner policy.

    ``kind`` is one of the three actions, the one every system takes that
    no event names.  System 0 recomputes, since a sequence has to start
    from a real preconditioner, and an event's action wins.
    """

    kind: str
    events: tuple = ()

    def __post_init__(self):
        if self.kind not in _ACTIONS:
            raise ValueError(f"unknown strategy kind {self.kind!r}, expected one of {', '.join(_ACTIONS)}")
        # a tuple, so that the frozen strategy hashes and a caller's list cannot change it
        object.__setattr__(self, "events", tuple((i, act) for i, act in self.events))
        for i, act in self.events:
            check_integers(**{"event index": i})
            if act not in _ACTIONS:
                raise ValueError(f"unknown action {act!r}")
            if i == 0 and act != RECOMPUTE:
                raise ValueError(f"system 0 must recompute the preconditioner, not {act!r}")
        idx = [i for i, _ in self.events]
        if any(b <= a for a, b in zip([-1] + idx, idx)):
            raise ValueError("event indices must be nonnegative and strictly increasing")

    @classmethod
    def recompute_every(cls):
        return cls(RECOMPUTE)

    @classmethod
    def reuse_first(cls):
        return cls(REUSE)

    @classmethod
    def sam_every(cls):
        return cls(COMPUTE_SAM)

    @classmethod
    def at_events(cls, events):
        """The ``reuse`` kind with the given events."""
        return cls(REUSE, tuple((i, str(a)) for i, a in events))

    def actions(self, n: int) -> list:
        """The action of each of ``n`` systems in order; an event at system ``n`` or later raises ``ValueError``."""
        last = self.events[-1][0] if self.events else -1  # indices increase
        if last >= n:
            raise ValueError(f"event at index {last} lies past the sequence of {n} systems")
        events = dict(self.events)
        return [RECOMPUTE if k == 0 else events.get(k, self.kind) for k in range(n)]


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


def run_sequence(spec: SequenceSpec, strategy: Strategy, ilutp_params: ilutp.IlutpParams,
                 pattern_choice, gmres_config: GmresConfig, sam_workers: int = 1) -> SequenceReport:
    """Solve every system of the sequence in order, each taking its action from ``strategy.actions``.

    A failed factorization of the first system raises.  Any later one is
    recorded as ``prec_failed`` and keeps the operator in hand, as ``reuse``
    does, so the run continues.  An event past the last system, a
    ``sam_workers`` below 1, a pattern choice that :func:`resolve_pattern`
    refuses for system 0 (always the first reference) or a matrix with
    malformed index arrays raises before any work, in that order.  The first
    map uses that pattern; the first map after a later recompute resolves it
    again for the new reference.  Each record's ``prec_seconds`` and
    ``gmres_seconds`` are two consecutive intervals of one clock: the
    system's action, then its ``gmres`` call.
    """
    actions = strategy.actions(len(spec))
    check_integers(minimum=1, sam_workers=sam_workers)
    S = resolve_pattern(pattern_choice, spec.matrices[0])  # system 0 is the first reference
    b = spec.rhs
    report = SequenceReport()

    A_ref = P_ref = current = current_plan = None

    for k, (A_k, act) in enumerate(zip(checked_csc(*spec.matrices), actions)):
        event = act
        sam_rel = None
        t0 = time.perf_counter()
        if act == RECOMPUTE:
            try:
                P_ref = ilutp.factor(A_k, ilutp_params)
                A_ref, current = A_k, P_ref
                if k > 0:
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
        t1 = time.perf_counter()
        x, solve = gmres(A_k, b, M=current, config=gmres_config)
        t2 = time.perf_counter()
        report.rows.append(SystemRecord(
            index=k,
            shift=complex(spec.shifts[k]),
            prec_event=event,
            prec_seconds=t1 - t0,
            sam_rel_residual=sam_rel,
            gmres_seconds=t2 - t1,
            iterations=solve.iterations,
            converged=solve.converged,
            final_rel_residual=solve.final_rel_residual,
        ))
    return report


CSV_COLUMNS = ("index", "shift_re", "shift_im", "prec_event", "prec_seconds",
               "sam_rel_residual", "gmres_seconds", "iterations", "converged",
               "final_rel_residual")


def render_report(report: SequenceReport, format: str = "csv") -> str:
    """The report table: the CSV_COLUMNS header, one row per system and a totals row.

    ``csv`` joins the cells with commas and writes floats as ``repr``;
    ``markdown`` writes the same cells as a pipe table, floats at four
    significant digits.
    """
    num = {"csv": repr, "markdown": "{:.4g}".format}.get(format)
    if num is None:
        raise ValueError(f"unknown report format {format!r}")
    rows = [CSV_COLUMNS]
    for r in report.rows:
        sam_res = "" if r.sam_rel_residual is None else num(r.sam_rel_residual)
        rows.append((str(r.index), num(r.shift.real), num(r.shift.imag), r.prec_event,
                     num(r.prec_seconds), sam_res, num(r.gmres_seconds), str(r.iterations),
                     str(r.converged).lower(), num(r.final_rel_residual)))
    rows.append(("totals", "", "", "", num(report.total_prec_seconds), "",
                 num(report.total_gmres_seconds), str(report.total_iterations), "", ""))
    if format == "csv":
        return "".join(",".join(row) + "\n" for row in rows)
    rows.insert(1, ("---",) * len(CSV_COLUMNS))
    return "".join("| " + " | ".join(row) + " |\n" for row in rows)


# --- config files -------------------------------------------------------

# each section's parser takes out (pops) every key it reads; _parse_section refuses the rest
_SECTIONS = ("sequence", "strategy", "ilutp", "pattern", "gmres")


class ConfigError(ValueError):
    pass


def _require(section, key, cfg):
    if key not in cfg:
        raise ConfigError(f"missing required key {section}.{key}")
    return cfg.pop(key)


def _given(cfg, **convert):
    """The keys of ``convert`` that the section sets, converted; the constructor's defaults fill the rest."""
    return {key: to(cfg.pop(key)) for key, to in convert.items() if key in cfg}


def _parse_shifts(seq, contour):
    """The shifts given inline or in a file; else Talbot's from n_z/t under ``contour``, and None without.

    n_z and t are a shift source only under ``contour``; elsewhere they are
    left for the section's refusal of the keys it does not read.
    """
    sources = ["shifts", "shift_file"] + (["n_z/t"] if contour else [])
    if ("shifts" in seq) + ("shift_file" in seq) + (contour and ("n_z" in seq or "t" in seq)) > 1:
        raise ConfigError(f"sequence: give only one of {', '.join(sources)}")
    if "shifts" in seq:
        pairs = np.array(seq.pop("shifts").replace(";", " ").split(), dtype=float)
        if pairs.size % 2 != 0:
            raise ConfigError("sequence.shifts: expected pairs of 're im' values")
        return pairs.view(np.complex128)  # each (re, im) pair, bit for bit
    if "shift_file" in seq:
        return _vector_file(seq, "shift_file")
    return talbot_shifts(int(seq.pop("n_z", "40")), float(seq.pop("t", "60"))) if contour else None


def _vector_file(seq, key):
    """The values of the m x 1 Matrix Market vector that ``key`` names, or None without ``key``.

    `samkit gen` writes its rhs and shifts so; SequenceSpec checks their length and values.
    """
    if key not in seq:
        return None
    vec = matrix_market_read(seq.pop(key))
    if vec.shape[1] != 1:
        raise ConfigError(f"sequence.{key}: file holds shape {vec.shape}, not one column")
    return vec.toarray().ravel()


def _parse_events(text):
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ConfigError("strategy.events: expected a bracketed list like [0:prec, 15:sam]")
    events = []
    for item in body[1:-1].split(",") if body[1:-1].strip() else []:  # [] is no events
        item = item.strip()
        idx, _, act = item.partition(":")
        try:
            events.append((int(idx), act.strip()))
        except ValueError:  # an empty item too
            raise ConfigError(f"strategy.events: bad item {item!r}") from None
    return tuple(events)


def _parse_sequence(seq):
    """The SequenceSpec a [sequence] section describes."""
    kind = _require("sequence", "kind", seq)
    if kind == "helmholtz_sweep":
        return SequenceSpec.helmholtz(**_given(seq, nx=int, ny=int, delta_s=float, count=int))
    if kind == "shifted_pair":
        if "k_file" in seq or "m_file" in seq:
            if "nx" in seq or "ny" in seq:
                raise ConfigError("sequence: give only one of nx/ny, k_file/m_file")
            K = matrix_market_read(_require("sequence", "k_file", seq))
            M = matrix_market_read(_require("sequence", "m_file", seq))
        else:
            K, M = fem_pair_2d(int(seq.pop("nx", "32")), int(seq.pop("ny", "32")))
        return SequenceSpec.shifted_pair(K, M, _parse_shifts(seq, contour=True),
                                         rhs=_vector_file(seq, "rhs_file"))
    if kind != "matrix_files":
        raise ConfigError(f"sequence.kind: unknown kind {kind!r}")
    files = _require("sequence", "files", seq).split()
    return SequenceSpec.matrix_files(files, shifts=_parse_shifts(seq, contour=False),
                                     rhs=_vector_file(seq, "rhs_file"))


def _parse_strategy(st, n_systems):
    strategy = Strategy(st.pop("kind", COMPUTE_SAM), _parse_events(st.pop("events", "[]")))
    strategy.actions(n_systems)  # refuses an event past the sequence
    return strategy


def _parse_ilutp(il):
    return ilutp.IlutpParams(**_given(il, lfil=int, droptol=float, pivtol=float))


def _parse_pattern(pt, A0):
    """A pattern choice, checked by resolving it for system 0; a pattern file is read here."""
    choice = pt.pop("kind", "ref")
    if choice == "file":
        choice = matrix_market_read(_require("pattern", "path", pt))
    resolve_pattern(choice, A0)
    return choice


def _parse_gmres(gm):
    return GmresConfig(**_given(gm, restart=int, rel_tol=float, max_total_iters=int))


def _parse_section(cp, name, parse, *args):
    """parse(a dict of section ``name``'s keys, *args), which pops each key it reads.

    A malformed value, an unreadable file or a key left over raises ConfigError.
    """
    try:
        keys = dict(cp[name])  # interpolates every value, so a stray % raises here
        kind = keys.get("kind")
        parsed = parse(keys, *args)
    except ConfigError:
        raise
    except (OSError, ValueError, configparser.Error) as exc:
        raise ConfigError(f"{name}: {exc}") from None
    if keys:
        where = f"[{name}] kind {kind}" if kind else f"[{name}]"
        raise ConfigError(f"{where} does not read {', '.join(sorted(keys))}")
    return parsed


def parse_config(path):
    """Read a run description: (spec, strategy, ilutp params, pattern, gmres config).

    Every file it names is Matrix Market: matrices, patterns, and the
    right-hand side and shifts as one-column vectors.  The config is UTF-8
    text, a byte-order mark allowed.  A config file the system cannot open
    or that is not UTF-8, malformed INI and unknown sections raise
    :class:`ConfigError`; then each section, in the order returned, raises it
    for a bad value or a file that cannot be read or does not fit, and then
    for the keys that it or its kind did not read.  All come before any factoring.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is allowed
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except configparser.Error as exc:  # its message names the file, over several lines
        raise ConfigError(" ".join(str(exc).split())) from None
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    if "sequence" not in cp:
        raise ConfigError("missing required section [sequence]")
    cp.read_dict({name: {} for name in _SECTIONS})  # absent sections read as empty

    spec = _parse_section(cp, "sequence", _parse_sequence)
    return (spec,
            _parse_section(cp, "strategy", _parse_strategy, len(spec)),
            _parse_section(cp, "ilutp", _parse_ilutp),
            _parse_section(cp, "pattern", _parse_pattern, spec.matrices[0]),
            _parse_section(cp, "gmres", _parse_gmres))
