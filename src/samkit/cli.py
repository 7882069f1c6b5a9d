"""Command line front end: run a configured sequence, or write its problem files."""

import argparse
import sys
from pathlib import Path

from .harness import ConfigError, parse_config, render_report, run_sequence
from .ilutp import FactorizationError
from .problems import matrix_market_write


def _cmd_run(args):
    config = parse_config(args.config)
    if args.out:  # the system judges --out before any work; appending keeps an existing file until the run is done
        open(args.out, "a").close()
    report = run_sequence(*config)
    text = render_report(report, format=args.format)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(report.rows)} system rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen(args):
    """Write a config's pair, rhs and shifts as the Matrix Market files a ``shifted_pair`` config reads."""
    spec = parse_config(args.config)[0]
    if spec.pair is None:
        raise ConfigError(f"gen: a {spec.kind} sequence has no (K, M) pair to write")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, A in (("k", spec.pair[0]), ("m", spec.pair[1]),
                    ("rhs", spec.rhs.reshape(-1, 1)), ("shifts", spec.shifts.reshape(-1, 1))):
        matrix_market_write(A, outdir / f"{name}.mtx")
    print(f"wrote {spec.kind} problem files to {outdir}", file=sys.stderr)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="samkit",
                                     description="Preconditioner recycling benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured sequence and emit the report")
    p_run.add_argument("--config", required=True, help="run description file")
    p_run.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_run.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="write a configured sequence's pair as Matrix Market files")
    p_gen.add_argument("--config", required=True, help="run description file")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=_cmd_gen)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, FactorizationError) as exc:  # run_sequence does no I/O: an OSError is from a named file
        print(f"samkit: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, FactorizationError) else 2  # a failed run, or a refusal with argparse's status


if __name__ == "__main__":
    raise SystemExit(main())
