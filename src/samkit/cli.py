"""Command line front end: run a configured sequence, or write its problem files."""

import argparse
import sys
from pathlib import Path

from .harness import ConfigError, parse_config, render_report, run_sequence
from .problems import matrix_market_write


def _cmd_run(args):
    if args.out:  # an --out that cannot be written is refused before the run, not after it
        out = Path(args.out)
        if out.is_dir():
            raise ConfigError(f"run: --out {out} is a directory")
        if not out.parent.is_dir():
            state = "is not a directory" if out.parent.exists() else "does not exist"
            raise ConfigError(f"run: --out directory {out.parent} {state}")
    report = run_sequence(*parse_config(args.config))
    text = render_report(report, format=args.format)
    if args.out:
        out.write_text(text)
        print(f"wrote {len(report.rows)} system rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen(args):
    """Write a config's pair, rhs and shifts as the Matrix Market files a ``shifted_pair`` config reads."""
    outdir = Path(args.out)  # made with its missing parents; the nearest existing one must be a directory
    existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"gen: --out {outdir}: {existing} is not a directory")
    spec = parse_config(args.config)[0]
    if spec.pair is None:
        raise ConfigError(f"gen: a {spec.kind} sequence has no (K, M) pair to write")
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
    except ConfigError as exc:
        print(f"samkit: {exc}", file=sys.stderr)
        return 2  # the status argparse gives a malformed command line


if __name__ == "__main__":
    raise SystemExit(main())
