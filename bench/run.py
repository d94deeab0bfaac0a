"""wavecal benchmark: Monte Carlo throughput, `estimate` latency, layer times.

    python3 bench/run.py --workload mc_threshold_s1m512 --seed 0 --seconds 10 --trace 0

Run it from the root of a wavecal checkout: the package is imported from that
checkout's `src/`, and work files go to `.bench_work/` there.  BLAS thread
pools are pinned to one thread before numpy loads, and the pin is recorded
with every result.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wavecal", "__init__.py")):
        print(f"error: no wavecal sources under {src}; run from the root of a "
              f"wavecal checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness  # imports numpy, so only after the thread pin

    return harness.main(argv, root, {var: os.environ[var] for var in THREAD_VARS})


if __name__ == "__main__":
    sys.exit(main())
