"""Benchmark for gapeig: one workload, timed end to end, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload pollution-1d --seed 1 --seconds 34 --trace 0

Workloads: pollution-1d, augment-1d, defect-2d (see workloads.py).

With ``--trace 0`` the workload's subcommands run as fresh ``gapeig`` CLI
processes (``python3 -m gapeig.cli`` on ``src/``), repeated until
``--seconds`` have passed; the end-to-end metrics are medians over those
repetitions.  With ``--trace 1`` the same subcommands run in-process through
``cli.main``, alternating untraced passes with passes whose module calls are
wrapped by ``layers.Tracer``; the per-layer metrics are medians over the
traced passes.  Every repetition's outputs are checked against reference
spectra that the benchmark computes outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  The full record (raw samples, spans) goes to
``.bench_out/results/``.  The script exits with code 2, printing no result,
when the directory it sits in has no ``src/gapeig`` beside it.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread (never more than nproc): the machine is small and shared,
# and a single thread keeps timings steady.  Set before numpy is imported;
# child processes inherit it.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def main(argv=None):
    ap = argparse.ArgumentParser(description="gapeig benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gapeig", "cli.py")):
        print("error: no gapeig sources at %s; run from a gapeig checkout" % SRC, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    import bench

    return bench.run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
