"""psdfact benchmark: calibrated per-call times of the program's public entry points.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep,rescale,accept} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it runs whole rounds of the workload's calls (one call
per input per round) for about S seconds and prints the end-to-end
metrics.  With ``--trace 1`` it runs every workload, a fixed number of
untraced and traced rounds each whatever ``--seconds`` says, and prints the
per-layer metrics, which also go to ``.bench_out/trace-<seed>.json`` with
the spans and counts of the first traced round.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; per-input
medians go to standard error.  A wrong output exits with code 1; a missing
program exits with code 2.

This file imports only the standard library before it starts the set-up
clock, so that a set-up probe (``--setup-probe``) counts the imports of
numpy and psdfact.
"""

from __future__ import annotations

import os

# One BLAS thread; set before numpy is imported here or in a probe process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("sweep", "rescale", "accept")


def import_program() -> None:
    """Import psdfact from this checkout's src/, never from anywhere else."""
    if not (SRC / "psdfact" / "__init__.py").is_file():
        sys.exit(_fail(f"no program at {SRC / 'psdfact'}"))
    sys.path.insert(0, str(SRC))
    import psdfact

    if SRC.resolve() not in Path(psdfact.__file__).resolve().parents:
        sys.exit(_fail(f"psdfact imported from {psdfact.__file__}, not {SRC}"))


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = (time.perf_counter(), time.process_time())
    import_program()
    import bench

    if args.setup_probe:
        bench.setup_probe(args.workload, args.seed, start)
        return 0
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
