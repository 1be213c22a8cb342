"""Epsilon sweeps against the limit field, rate fits, and report files.

A sweep solves the scaled problem for every epsilon in the configured
(strictly decreasing) list, compares each solution with the limit field
computed once, and records one row of norm columns per epsilon:

    epsilon, l2_diff, v12_diff, eps_grad_x1, hess_x2_diff_omega,
    eps2_hess_x1_omega, eps_hess_x1x2_omega, frechet_d, wall_ms

Mask-local columns use the configured interior margin; the metric column
uses the configured nested family.  Reports are a CSV with exactly that
header plus a JSON twin embedding the full configuration, so every number
can be recomputed from the persisted solution fields.

The comparison columns are physically meaningful only while they sit above
the discretization floor: ten times the manufactured-solution error of the
same grid.  Below that, rows mostly measure truncation error of the
discrete operators; emitted reports carry the floor and the CLI warns
when a column ends up under it.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

# scale_coefficients, frechet_distance, hess_x2_seminorm and v12_norm
# are no longer called here; they stay importable from here because
# perfbench's span table wraps the study's functions by these names
from .coefficients import scale_coefficients, verify_ellipticity
from .config import StudyConfig
from .errors import ConfigError, SolverError
from .fd_ops import OperatorBlocks, assemble_operator, operator_blocks
from .fieldio import atomic_write, save_field
from .forcing import forcing_field
from .grid import Grid, ScalarField
from .limit import semilinear_limit, solve_limit
from .norms import (frechet_distance, grad_x1_seminorm, hess_x1_seminorm,
                    hess_x1x2_seminorm, hess_x2_seminorm, l2_norm,
                    norm_bundle, v12_norm)
from .semilinear import picard_solve
from .solver import solve_dirichlet

__all__ = [
    "CSV_COLUMNS",
    "SweepRow",
    "SweepReport",
    "run_sweep",
    "estimate_rate",
    "emit_report",
    "discretization_floor",
    "FLOOR_NOTE",
]

CSV_COLUMNS = ("epsilon", "l2_diff", "v12_diff", "eps_grad_x1",
               "hess_x2_diff_omega", "eps2_hess_x1_omega",
               "eps_hess_x1x2_omega", "frechet_d", "wall_ms")

RATE_COLUMNS = CSV_COLUMNS[1:-1]

FLOOR_NOTE = (
    "Comparison columns are meaningful only while they exceed the "
    "discretization floor (10x the manufactured-solution error at this "
    "grid); below it they mostly measure truncation error.")


@dataclass
class SweepRow:
    epsilon: float
    l2_diff: float
    v12_diff: float
    eps_grad_x1: float
    hess_x2_diff_omega: float
    eps2_hess_x1_omega: float
    eps_hess_x1x2_omega: float
    frechet_d: float
    wall_ms: float


@dataclass
class SweepReport:
    """Sweep rows in decreasing-epsilon order plus fitted decay rates.

    ``complete`` is False when a solve failed; ``rows`` then holds the
    finished prefix and ``error`` the failure.  Solution fields are kept
    in memory for diagnostics and are persisted by ``emit_report``.
    """

    config: StudyConfig
    rows: list[SweepRow]
    rates: dict[str, float | None]
    mask_margin: int
    family_margins: list[int]
    floor: float
    complete: bool
    error: str | None
    u_limit: ScalarField | None = None
    u_eps: list[ScalarField] | None = None

    def floor_warnings(self) -> list[str]:
        """Columns whose final value fell below the floor."""
        if not self.rows:
            return []
        last = self.rows[-1]
        return [c for c in RATE_COLUMNS
                if getattr(last, c) < self.floor]


def discretization_floor(grid: Grid, tol: float = 1e-10) -> float:
    """Ten times the l2 error of a manufactured solve on this grid.

    Probe: identity coefficients, which epsilon = 1 leaves as they are,
    with the product-sine exact solution, the standard second-order
    reference case.  The probe operator is the Laplacian, symmetric
    positive definite by construction, so it is always solved by
    conjugate gradients, whatever route the study's own table takes.
    The Laplacian is the constant diagonal table that CG's
    fast-diagonalization preconditioner inverts exactly, so CG converges
    in one step, where a direct factorization of a 3-D grid costs
    seconds and most of the study's memory.  The discrete solution is
    also known in closed form (the sine forcing is a discrete
    eigenvector), but the probe is kept as a real solve on purpose: the
    floor is then what the solver achieves on this grid, and it passes
    the residual gate of ``solve_dirichlet`` like every other solve of
    the study.
    """
    from .coefficients import coefficient_family

    exact = forcing_field("sine_product", grid)
    lengths = [hi - lo for lo, hi in zip(grid.lo, grid.hi)]
    factor = sum((np.pi / L) ** 2 for L in lengths)
    f = ScalarField(grid, factor * exact.values)
    op = assemble_operator(grid, coefficient_family("identity", grid))
    u = solve_dirichlet(op, f, tol=tol)
    return 10.0 * l2_norm(u - exact)


def _sweep_row(config: StudyConfig, blocks: OperatorBlocks, f, u_limit,
               mask, family, nonlinearity, epsilon: float
               ) -> tuple[SweepRow, ScalarField]:
    start = time.perf_counter()
    op = blocks.at(epsilon)
    if nonlinearity is None:
        u = solve_dirichlet(op, f, tol=config.solver_tol)
    else:
        u = picard_solve(op, f, nonlinearity, tol=config.solver_tol).field
    # one bundle of the difference over the family and the row's mask
    # gives every difference column, the metric included
    diff = norm_bundle(u - u_limit, (*family, mask))
    row = SweepRow(
        epsilon=epsilon,
        l2_diff=diff.l2,
        v12_diff=diff.v12,
        eps_grad_x1=epsilon * grad_x1_seminorm(u),
        hess_x2_diff_omega=diff.hess_x2_by_margin[mask.margins],
        eps2_hess_x1_omega=epsilon ** 2 * hess_x1_seminorm(u, mask),
        eps_hess_x1x2_omega=epsilon * hess_x1x2_seminorm(u, mask),
        frechet_d=diff.metric(family, n_max=config.nested),
        wall_ms=0.0)
    row.wall_ms = 1000.0 * (time.perf_counter() - start)
    return row, u


def run_sweep(config: StudyConfig) -> SweepReport:
    """Full sweep: limit once, one scaled solve per epsilon, norm columns.

    The coefficient blocks of the operator are assembled once per call;
    the limit solves on their X2 block, and each epsilon's operator is
    formed from them.  Rows run one after another on the calling thread,
    in the configured (decreasing) epsilon order; ``config.workers`` is
    ignored.  The rows and the limit solve by CG when their assembled
    matrices are exactly symmetric, as every table a config file names
    assembles, and by LU otherwise.
    A failed solve stops the sweep: later rows are never solved, and the
    report is returned with the finished prefix and flagged incomplete.
    """
    grid = config.build_grid()
    coeffs = config.build_coefficients(grid)
    verify_ellipticity(coeffs)
    f = config.build_forcing(grid)
    mask = config.build_mask(grid)
    family = config.build_family(grid)
    nonlinearity = config.build_nonlinearity()
    blocks = operator_blocks(grid, coeffs)
    # the limit and the rows need only the blocks; the tables would
    # otherwise stay resident through every row's solve
    del coeffs

    if nonlinearity is None:
        u_limit = solve_limit(blocks, f, tol=config.solver_tol)
    else:
        u_limit = semilinear_limit(blocks, f, nonlinearity,
                                   tol=config.solver_tol).field

    floor = discretization_floor(grid, tol=config.solver_tol)

    rows: list[SweepRow] = []
    fields: list[ScalarField] = []
    error: str | None = None
    for epsilon in config.epsilons:
        try:
            row, u = _sweep_row(config, blocks, f, u_limit, mask, family,
                                nonlinearity, epsilon)
        except SolverError as err:
            error = f"epsilon={epsilon}: {err}"
            break
        rows.append(row)
        fields.append(u)

    rates: dict[str, float | None] = {}
    for col in RATE_COLUMNS:
        pairs = [(r.epsilon, getattr(r, col)) for r in rows]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rates[col] = estimate_rate(pairs)
        except ValueError:
            rates[col] = None

    return SweepReport(
        config=config, rows=rows, rates=rates,
        mask_margin=config.effective_margin(grid),
        family_margins=list(family.margins),
        floor=floor, complete=error is None, error=error,
        u_limit=u_limit, u_eps=fields)


def estimate_rate(pairs) -> float:
    """Least-squares slope of log(value) against log(x).

    Pairs with nonpositive values are excluded with a warning; fewer than
    three usable pairs is an error.
    """
    pairs = list(pairs)
    usable = [(x, v) for x, v in pairs if v > 0 and x > 0]
    dropped = len(pairs) - len(usable)
    if dropped:
        warnings.warn(
            f"estimate_rate: dropped {dropped} nonpositive pair(s)")
    if len(usable) < 3:
        raise ValueError(
            f"need at least 3 usable pairs, have {len(usable)}")
    xs = np.log([x for x, _ in usable])
    vs = np.log([v for _, v in usable])
    return float(np.polyfit(xs, vs, 1)[0])


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_report(report: SweepReport, out_dir, fmt: str | None = None
                ) -> dict[str, Path]:
    """Write report files and persisted solution fields; return the paths.

    ``csv`` (default) writes both the CSV and its JSON twin; ``json``
    writes only the twin.  Fields go to ``fields/`` next to the reports.
    """
    fmt = fmt or report.config.out_format
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got '{fmt}'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    payload = {
        "config": report.config.to_dict(),
        "mask_margin": report.mask_margin,
        "family_margins": report.family_margins,
        "floor": report.floor,
        "complete": report.complete,
        "error": report.error,
        "rows": [asdict(r) for r in report.rows],
        "rates": report.rates,
        "floor_warnings": report.floor_warnings(),
        "note": FLOOR_NOTE,
    }
    json_path = out / "report.json"
    with atomic_write(json_path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    paths["json"] = json_path

    if fmt == "csv":
        csv_path = out / "report.csv"
        with atomic_write(csv_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in report.rows:
                writer.writerow([_fmt(getattr(r, c)) for c in CSV_COLUMNS])
        paths["csv"] = csv_path

    if report.u_limit is not None:
        fields_dir = out / "fields"
        fields_dir.mkdir(exist_ok=True)
        paths["u_limit"] = save_field(fields_dir / "u_limit.field",
                                      report.u_limit)
        for i, u in enumerate(report.u_eps or []):
            paths[f"u_eps_{i:03d}"] = save_field(
                fields_dir / f"u_eps_{i:03d}.field", u)
    return paths
