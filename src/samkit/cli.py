"""Command line front end: run benchmark sequences, generate test problems."""

import argparse
import sys
from pathlib import Path

import numpy as np

from .harness import parse_config, render_report, run_sequence
from .problems import (
    fem_pair_2d, laplace2d_dirichlet, matrix_market_write, point_source_rhs,
    talbot_shifts,
)
from .sparse import identity


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
    """Write the problem as the systems K + s M of a ``shifted_pair`` config."""
    if args.problem == "helmholtz":
        # the sweep K0 - s I, with M = -I; its base system comes first
        K, b = laplace2d_dirichlet(args.nx, args.ny)
        M = -identity(K.shape[0])
        shifts = args.delta_s * np.arange(args.count + 1)
    else:
        K, M = fem_pair_2d(args.nx, args.ny)
        b = point_source_rhs(K.shape[0])
        shifts = talbot_shifts(args.n_z, args.t)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    matrix_market_write(K, outdir / "k.mtx")
    matrix_market_write(M, outdir / "m.mtx")
    matrix_market_write(b.reshape(-1, 1), outdir / "rhs.mtx")
    np.savetxt(outdir / "shifts.txt", np.column_stack([shifts.real, shifts.imag]), fmt="%.17g")
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
