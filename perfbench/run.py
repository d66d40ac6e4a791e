"""koopeq benchmark: one run of one workload in a fresh interpreter.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from `src/`. With
`--trace 0` the last line of standard output is the end-to-end result
(setup_s, item_cost, peak_rss_mb); with `--trace 1` it holds the per-layer
metrics, and the trace is written to perfbench/out/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# the machine has two cores and the benchmark's load is one process: keep
# BLAS single-threaded so it starts no extra threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("sweep", "prox", "lattice", "blackbox")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by the run itself for its set-up probes: the monotonic clock reading
    # taken just before the probe's interpreter was started
    parser.add_argument("--probe-start", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "koopeq" / "__init__.py").is_file():
        print(f"error: the koopeq sources are not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import koopeq.cli  # noqa: F401  the whole package, with numpy and scipy
    import_s = time.perf_counter() - t0
    import harness
    return harness.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
