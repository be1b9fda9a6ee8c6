"""Driver entry point: one workload, one process.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Prints the workload's metrics and, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
clock for ``setup_s`` starts on the first line below, and the BLAS/OpenMP
pools are pinned to one thread before numpy is imported: the box has two
cores and the run is single-threaded by design.
"""

import time

T_ENTRY = time.perf_counter()

import os
import sys


def _bootstrap() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    # the script's own directory must not shadow top-level modules
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [os.path.join(root, "src"), root]


if __name__ == "__main__":
    _bootstrap()
    from benchmarks.perf.cli import main

    sys.exit(main(sys.argv[1:], t_entry=T_ENTRY))
