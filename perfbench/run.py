"""Run one workload of the anisolab benchmark and print its metrics.

  python3 perfbench/run.py --workload sweep-2d --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it imports the package from
the checkout's ``src/`` and reads the shipped ``configs/``.  Workloads:
sweep-2d, semilinear-2d, sweep-3d-cg, diagnostics (see bench.py and
README.md).  With ``--trace 0`` it reports the end-to-end metrics study_s,
setup_s and peak_rss_mb; with ``--trace 1`` the per-layer metrics from
spans.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files and a full record of
each run (manifest, per-study times, spans) go to ``.perfbench-out/`` in
the checkout.

``--write-reference`` stores the seed-0 outputs of a workload as the
reference that later runs at seed 0 are checked against.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the machine the baseline
# was taken on has two cores and studies run with workers = 1.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
# set-up is repeated in fresh interpreters and the median reported
SETUP_PROBES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def probe_setup(args, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe", str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "anisolab" / "__init__.py").is_file():
        print(f"{src}/anisolab not found: run from an anisolab source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload '{args.workload}', choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        bench.make_workload(ROOT, args.workload, args.seed,
                            Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    # the run record is written here even when every study fails
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.write_reference:
            path = bench.write_reference(ROOT, args.workload, workdir)
            print(f"reference written to {path}")
            return 0
        setup = [] if args.trace else [
            probe_setup(args, workdir / f"setup-{i}")
            for i in range(SETUP_PROBES)]
        result = bench.measure(ROOT, args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir / "run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        result["setup_probes_s"] = setup
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["metrics"]["peak_rss_mb"] = bench.peak_rss_mb()

    record = {"manifest": bench.manifest(ROOT, args.workload, args.seed,
                                         bool(args.trace),
                                         result["input_sha256"]),
              **result}
    record_path = (OUT_DIR / f"{args.workload}-seed{args.seed}"
                   f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record) + "\n")

    line = bench.summary_line(result, bool(args.trace))
    print("manifest " + json.dumps(record["manifest"]))
    for name, metric in line["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"{args.workload} fail_ratio = {result['failed']}/"
          f"{result['attempted']} studies")
    for err in result["errors"][:10]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
