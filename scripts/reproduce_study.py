#!/usr/bin/env python3
"""Run the full study pipeline for one config file.

Chains the sweep, the metric of the last saved solution against the
limit field, the Fourier bound check, and the translation-modulus
diagnostic into a single output directory, so one invocation regenerates
every artifact the report discusses:

    python3 scripts/reproduce_study.py configs/convergence.cfg --out out/full

A config with a ``[nonlinearity]`` section runs the ``semilinear`` sweep
instead, and skips the translation diagnostic, which runs on linear
sweeps only.
"""

import argparse
import sys
from pathlib import Path

from anisolab.cli import main as cli
from anisolab.config import load_config


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="study config file")
    parser.add_argument("--out", default="out/full",
                        help="output directory (default: out/full)")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    common = ["--config", args.config, "--out", args.out]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]

    config = load_config(args.config)
    steps = ["sweep", "metric", "fourier-check", "translation"]
    if config.nonlinearity is not None:
        steps[0] = "semilinear"
        print("skipping translation: it runs on linear sweeps only")
        steps.remove("translation")
    if config.coefficient_family not in ("identity", "constant"):
        # the symbol-side verification only exists for constant tables
        print("skipping fourier-check: coefficient table is not constant")
        steps.remove("fourier-check")

    fields = Path(args.out) / "fields"
    worst = 0
    for step in steps:
        extra = []
        if step == "metric":
            saved = sorted(fields.glob("u_eps_*.field"))
            if not saved:
                print("skipping metric: the sweep saved no solution field")
                continue
            extra = ["--field", str(saved[-1]),
                     "--field-b", str(fields / "u_limit.field")]
        print(f"== {step} ==", flush=True)
        rc = cli([step] + common + extra)
        worst = max(worst, rc)
        if rc >= 2:
            # config or solver trouble: later steps would hit it too
            break
    return worst


if __name__ == "__main__":
    sys.exit(main())
