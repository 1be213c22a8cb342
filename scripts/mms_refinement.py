#!/usr/bin/env python3
"""Manufactured-solution refinement table for the interior solver.

For u(x, y) = sin(pi x) sin(pi y) on the unit square the scaled identity
table gives the forcing (eps^2 + 1) pi^2 u exactly, so the discrete error
is pure truncation.  The table below should show slopes close to 2 for
every epsilon; it doubles as a quick check of the discretization floor
quoted in sweep reports.

    python3 scripts/mms_refinement.py --grids 16 32 64 128
"""

import argparse
import sys

import numpy as np

from anisolab import (ScalarField, coefficient_family, forcing_field,
                      l2_norm, make_grid, solve_dirichlet)
from anisolab.fd_ops import operator_blocks


def error_at(n, epsilon):
    grid = make_grid([(0, 1), (0, 1)], (n, n), q=1)
    exact = forcing_field("sine_product", grid)
    f = ScalarField(grid, np.pi ** 2 * (epsilon ** 2 + 1.0) * exact.values)
    # the eps-operator every sweep row and ``anisolab solve`` build
    blocks = operator_blocks(grid, coefficient_family("identity", grid))
    u = solve_dirichlet(blocks.at(epsilon), f)
    return l2_norm(u - exact)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", type=int, nargs="+",
                        default=[16, 32, 64, 128])
    parser.add_argument("--epsilons", type=float, nargs="+",
                        default=[1.0, 0.5, 0.1])
    args = parser.parse_args(argv)

    header = "epsilon " + "".join(f"{n:>12d}" for n in args.grids) + "   slope"
    print(header)
    print("-" * len(header))
    worst = 0.0
    for epsilon in args.epsilons:
        errors = [error_at(n, epsilon) for n in args.grids]
        spacings = [1.0 / n for n in args.grids]
        slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
        worst = max(worst, abs(slope - 2.0))
        row = f"{epsilon:7.3f} " + "".join(f"{e:12.3e}" for e in errors)
        print(row + f"   {slope:5.2f}")
    print(f"\nlargest deviation from order 2: {worst:.3f}")
    return 0 if worst <= 0.2 else 1


if __name__ == "__main__":
    sys.exit(main())
