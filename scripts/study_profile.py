#!/usr/bin/env python3
"""Wall time, minor page faults and peak memory of repeated studies.

Runs the study of one config file (``run_sweep`` and ``emit_report``, as
``anisolab sweep`` or ``anisolab semilinear`` does) ``--studies`` times in
this process, each into a fresh temporary directory, and prints one line
per study: its wall time in ms, the minor page faults it took
(``ru_minflt``) and the process's peak resident set so far
(``ru_maxrss``).  A last line gives the median wall time and faults of
the studies after the first, which also pays for lazy imports and first
touches of every cache:

    python3 scripts/study_profile.py configs/semilinear.cfg --studies 20

BLAS runs on one thread unless ``OMP_NUM_THREADS`` (or the library's own
variable) is set, so that repeated runs are comparable.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from anisolab.config import load_config  # noqa: E402
from anisolab.study import emit_report, run_sweep  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="study config file")
    parser.add_argument("--studies", type=int, default=10,
                        help="studies to run (default: 10)")
    args = parser.parse_args(argv)
    if args.studies < 1:
        parser.error("--studies must be at least 1")

    config = load_config(args.config)
    walls, faults = [], []
    print("study  wall_ms  minflt  maxrss_mb")
    for k in range(1, args.studies + 1):
        with tempfile.TemporaryDirectory() as out_dir:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            report = run_sweep(config)
            emit_report(report, out_dir)
            wall = 1000.0 * (time.perf_counter() - start)
            usage = resource.getrusage(resource.RUSAGE_SELF)
        if not report.complete:
            print(f"study {k} incomplete: {report.error}", file=sys.stderr)
            return 1
        walls.append(wall)
        faults.append(usage.ru_minflt - before)
        # Linux reports ru_maxrss in KiB
        print(f"{k:5d}  {wall:7.1f}  {faults[-1]:6d}  "
              f"{usage.ru_maxrss / 1024.0:9.1f}")
    first = 2 if args.studies > 1 else 1
    print(f"median of studies {first}..{args.studies}: "
          f"wall_ms {statistics.median(walls[first - 1:]):.1f}  "
          f"minflt {statistics.median(faults[first - 1:]):.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
