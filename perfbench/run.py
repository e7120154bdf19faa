"""Benchmark entry point: one workload, one process, one JSON line at the end.

    python3 perfbench/run.py --workload mc-hamming7-bsc --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fastmld is imported from its
``src`` directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-hamming7-bsc", "mc-golay23-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "fastmld" / "__init__.py").is_file():
        print(f"perfbench: no fastmld sources under {src}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported.  One thread:
    # the block-factorized product it is compared with runs on one, and on a
    # 2-core host two OpenBLAS threads made a 16 x 46 by 46 x 4096 product
    # 30 times slower than one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]

    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), HERE / "out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
