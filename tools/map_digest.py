"""Print a digest of every map, every arm's factors and solves and iteration total of one benchmark workload.

    python3 tools/map_digest.py --workload helmholtz-sweep --seed 0 [--toy]

Each arm of ``perfbench/workloads.py`` runs once through
``samkit.harness.run_sequence``.  Wrappers around ``samkit.sam.compute_map``,
``samkit.ilutp.factor`` and ``samkit.harness.gmres``, set from outside the
package, record each map, each factorization and each solve.  After its
header, the output has one ``spec`` line, the sha256 of every built matrix's
``data``, ``indices`` and ``indptr`` bytes, then of ``rhs`` and ``shifts``;
one line per map, the sha256 of its ``N.data``, ``N.indices``, ``N.indptr``,
``column_residuals`` and ``rel_residual`` bytes; one line per arm, the sha256
of every factorization's ``L`` and ``U`` (``data``, ``indices``, ``indptr``)
and ``colperm`` bytes; one line per arm, the sha256 of every solve's ``x``,
``residual_history``, ``restart_checks``, ``iterations``, ``restarts``,
``converged`` and ``final_rel_residual``; and one line per arm with its GMRES
iteration total.  Two source trees that compute the same maps, factors and
solves from the same built sequence print the same text, so a refactor,
of the build path too, is checked by diffing the output of the old and the
new tree.  ``--toy`` runs the workload's small test size.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

# one BLAS thread, as in perfbench/run.py
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import samkit.harness  # noqa: E402
import samkit.ilutp  # noqa: E402
import samkit.sam  # noqa: E402
from tracing import patched  # noqa: E402
from workloads import ARMS, ILUTP, PATTERN, WORKLOADS, arm_strategy  # noqa: E402


def map_digest(m) -> str:
    h = hashlib.sha256()
    for a in (m.N.data, m.N.indices, m.N.indptr, m.column_residuals, np.float64(m.rel_residual)):
        h.update(a.tobytes())
    return h.hexdigest()


def spec_digest(spec) -> str:
    h = hashlib.sha256()
    for a in [a for M in spec.matrices for a in (M.data, M.indices, M.indptr)] + [spec.rhs, spec.shifts]:
        h.update(a.tobytes())
    return h.hexdigest()


def factor_bytes(F) -> bytes:
    return b"".join(a.tobytes() for T in (F.L, F.U) for a in (T.data, T.indices, T.indptr)) + F.colperm.tobytes()


def solve_bytes(x, rep) -> bytes:
    return b"".join(a.tobytes() for a in (
        x, rep.residual_history, np.asarray(rep.restart_checks, dtype=np.float64),
        np.array([rep.iterations, rep.restarts, rep.converged], dtype=np.int64),
        np.float64(rep.final_rel_residual)))


def recorded(fn, record):
    """``fn``, passing each answer to ``record`` before returning it."""
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        record(out)
        return out
    return wrapper


def digest_lines(workload, seed, toy=False):
    wl = WORKLOADS[workload]
    spec = wl.build(seed, toy=toy)
    compute_map, factor, gmres = samkit.sam.compute_map, samkit.ilutp.factor, samkit.harness.gmres
    lines = [f"workload {workload} seed {seed}{' toy' if toy else ''} systems {len(spec)}",
             f"spec {spec_digest(spec)}"]
    for arm in ARMS:
        strategy, workers = arm_strategy(arm, len(spec), len(os.sched_getaffinity(0)))
        digests, factors, solves = [], hashlib.sha256(), hashlib.sha256()

        with patched([(samkit.sam, "compute_map", recorded(compute_map, lambda m: digests.append(map_digest(m)))),
                      (samkit.ilutp, "factor", recorded(factor, lambda F: factors.update(factor_bytes(F)))),
                      (samkit.harness, "gmres", recorded(gmres, lambda out: solves.update(solve_bytes(*out))))]):
            report = samkit.harness.run_sequence(spec, strategy, ILUTP, PATTERN, wl.gmres, sam_workers=workers)
        lines += [f"{arm} map {i} {d}" for i, d in enumerate(digests)]
        lines.append(f"{arm} factors {factors.hexdigest()}")
        lines.append(f"{arm} solves {solves.hexdigest()}")
        lines.append(f"{arm} iterations {report.total_iterations}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    print("\n".join(digest_lines(args.workload, args.seed, args.toy)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
