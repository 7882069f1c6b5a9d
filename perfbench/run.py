"""Run the samkit benchmark on one workload and print its metrics.

    python3 perfbench/run.py --workload helmholtz-sweep --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record (environment, inputs, tail latency, check results) and, when
tracing, the span list are written under ``.bench_out/`` in the checkout.
The exit code is non-zero when a correctness check fails or the package
cannot be imported from the checkout's ``src/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import samkit
    except ImportError as exc:
        print(f"cannot import samkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(samkit.__file__).resolve().parent.parent != SRC:
        print(f"samkit was imported from {samkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    listed = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]]
    record, spans = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.write_outputs(ROOT / ".bench_out", record, spans)
    bench.print_report(record)
    result = {k: record[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = {k: record["metrics"][k] for k in listed if k in record["metrics"]}
    print(json.dumps(result), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
