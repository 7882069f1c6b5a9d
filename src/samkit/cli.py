"""Command line front end: run benchmark sequences, generate test problems."""

import argparse
import sys
from pathlib import Path

import numpy as np

from .harness import parse_config, render_report, run_sequence
from .problems import SequenceSpec, fem_pair_2d, matrix_market_write, talbot_shifts


def _cmd_run(args):
    spec, strategy, ilutp_params, pattern_choice, gmres_config = parse_config(args.config)
    report = run_sequence(spec, strategy, ilutp_params, pattern_choice, gmres_config,
                          sam_workers=args.workers)
    text = render_report(report, format=args.format)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(report.rows)} system rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen(args):
    """Write a built-in spec's own pair, rhs and shifts as a ``shifted_pair`` config reads them."""
    if args.problem == "helmholtz":
        spec = SequenceSpec.helmholtz(args.nx, args.ny, args.delta_s, args.count)
    else:
        spec = SequenceSpec.shifted_pair(*fem_pair_2d(args.nx, args.ny), talbot_shifts(args.n_z, args.t))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    matrix_market_write(spec.pair[0], outdir / "k.mtx")
    matrix_market_write(spec.pair[1], outdir / "m.mtx")
    matrix_market_write(spec.rhs.reshape(-1, 1), outdir / "rhs.mtx")
    np.savetxt(outdir / "shifts.txt", spec.shifts.view(float).reshape(-1, 2), fmt="%.17g")
    print(f"wrote {args.problem} problem files to {outdir}", file=sys.stderr)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="samkit",
                                     description="Preconditioner recycling benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured sequence and emit the report")
    p_run.add_argument("--config", required=True, help="run description file")
    p_run.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_run.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_run.add_argument("--workers", type=int, default=1, help="threads for map computation")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="emit Matrix Market files for a built-in problem")
    p_gen.add_argument("--problem", choices=("helmholtz", "fem-pair"), required=True)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--nx", type=int, default=10)
    p_gen.add_argument("--ny", type=int, default=10)
    p_gen.add_argument("--count", type=int, default=200)
    p_gen.add_argument("--delta-s", type=float, default=0.01, dest="delta_s")
    p_gen.add_argument("--n-z", type=int, default=40, dest="n_z")
    p_gen.add_argument("--t", type=float, default=60.0)
    p_gen.set_defaults(func=_cmd_gen)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
