"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload chat --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; the library is imported from
``src/`` next to this directory, so nothing needs installing.  Every
file the run writes lives under ``.bench_work/`` in that checkout.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, measured with tracing off; with ``--trace 1``
the per-layer metrics from a traced run of the same workload.  The
line before it carries the run's details (host fingerprint, set-up
breakdown, trace and output digests, check results).  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def _pin_environment() -> None:
    """Keep every read and write inside the checkout and BLAS on one
    thread.  Must run before numpy or the library is imported.

    The model's GEMMs are small: a second BLAS thread bought about 4%
    on a 2-core host, but it spins a whole second core, so any other
    load on the host stalls every GEMM and the run's timings swing."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "cache")
    # Ambient knobs that would change what the program computes.
    for var in (
        "REPRO_FAULTS",
        "REPRO_KERNEL_BACKEND",
        "REPRO_KERNEL_AUTOTUNE",
        "REPRO_KERNEL_CACHE_MB",
        "REPRO_PREFIX_CACHE_MB",
    ):
        os.environ.pop(var, None)


def main(argv=None) -> int:
    _pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    WORK.mkdir(exist_ok=True)
    result, details = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORK
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
