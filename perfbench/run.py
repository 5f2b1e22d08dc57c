"""fpualt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout; fpualt is imported from ``src/``.
The run is one process, one thread, BLAS pinned to one thread, and a
closed loop with one job at a time.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run
(see README.md).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; context and
details go to ``perfbench/results/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("scenarios", "ensemble", "structure")
ROOT = Path(__file__).resolve().parent.parent


def import_fpualt():
    """Import fpualt from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "fpualt" / "__init__.py").is_file():
        raise SystemExit(f"error: fpualt sources not found under {src}")
    sys.path.insert(0, str(src))
    import fpualt
    if src.resolve() not in Path(fpualt.__file__).resolve().parents:
        raise SystemExit(f"error: fpualt imported from {fpualt.__file__}, "
                         f"not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny sizes, every workload, a few seconds")
    args = parser.parse_args(argv)
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required unless --selfcheck is given")
    # Pin BLAS to one thread before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_fpualt()
    import runner
    if args.selfcheck:
        return runner.selfcheck(WORKLOADS)
    result, details = runner.run_once(args.workload, args.seed, args.seconds,
                                      args.trace)
    runner.print_summary(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
