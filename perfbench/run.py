"""The repository benchmark: one command, three workloads, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload factor-2048 --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another.  ``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with no instrumentation installed; ``--trace 1`` is the separate traced run
that produces the per-layer ledger (see ``perfbench/README.md``).  Every
metric is printed as ``name value unit``; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is nonzero when any factor fails the result check, when the run
overruns its hard time limit, or when it leaves a worker process or a
``/dev/shm`` segment behind.

Importing this module does nothing but pin the BLAS thread count and put
the checkout's ``src`` on the import path: the process pool's spawn start
method re-imports it in every worker, so all work happens under the
``__main__`` guard.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Fixed before numpy is imported anywhere (workers inherit it): the thread
# count of the BLAS moves the n=2048 timings by ~10%.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
for _path in (str(SRC), str(BENCH_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Exit codes (0 = a valid, correct run).
EXIT_WRONG = 1
EXIT_USAGE = 2
EXIT_FAILED = 3


def _require_checkout() -> None:
    """Refuse to run anywhere but a checkout that holds the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC}; run from a checkout root\n")
        raise SystemExit(EXIT_USAGE)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all (one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_checkout()

    import bench

    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(bench.WORKLOADS):
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; have {sorted(bench.WORKLOADS)} or all\n")
        return EXIT_USAGE
    code = 0
    for name in names:
        try:
            report = bench.run_workload(name, seed=args.seed, seconds=args.seconds, traced=bool(args.trace))
        except bench.RunFailed as exc:
            sys.stderr.write(f"perfbench: {name}: run failed: {exc}\n")
            code = max(code, EXIT_FAILED)
            continue
        report.emit(sys.stdout)
        if not report.correct:
            code = max(code, EXIT_WRONG)
    return code


if __name__ == "__main__":
    sys.exit(main())
