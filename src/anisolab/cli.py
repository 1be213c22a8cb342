"""Command-line entry points.

Subcommands:

    solve         one scaled Dirichlet solve at a single epsilon
    limit         the slice-by-slice limit field
    sweep         epsilon sweep against the limit (linear problems)
    semilinear    the same sweep with the configured nonlinearity
    fourier-check periodic-lattice verification of the Hessian bounds
    metric        norms / metric distance of stored field files
    translation   translation-defect diagnostic sigma(h) on dyadic shifts,
                  read from the fields a sweep saved under --out

Shared flags: --config <path>, --out <dir>, --seed <u64>,
--format csv|json.  Every subcommand reads the same configuration format
and writes its outputs under the chosen directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .coefficients import constant_ellipticity, verify_ellipticity
from .config import StudyConfig
from .errors import ConfigError, EllipticityError, SolverError
from .fd_ops import hess_component, operator_blocks
from .fieldio import atomic_write, load_field, save_field
from .grid import nested_family
from .norms import l2_norm, norm_bundle, translation_modulus, v12_norm
from .semilinear import nonlinearity_family, picard_solve
from .spectral import check_constant_bounds, random_zero_mean_forcing
from .study import FLOOR_NOTE, emit_report, run_sweep

__all__ = ["main"]


def _write_json(path: Path, payload: dict) -> Path:
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return path


def _load(args) -> StudyConfig:
    config = StudyConfig.from_file(args.config)
    updates = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "format", None) is not None:
        updates["out_format"] = args.format
    return replace(config, **updates) if updates else config


def _out_dir(config: StudyConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solve_and_save(config: StudyConfig, build, f, field_name: str,
                    json_name: str, **record):
    """Solve ``L u = f`` on the operator ``build()`` returns, timing the
    build and the solve, and save the field and its JSON record.

    The record is ``record`` followed by the route that ran, the worst
    block's relative residual, the field's norms, the time and the field
    file.  Returns the solve's ``PicardResult`` and the field's path.
    """
    start = time.perf_counter()
    op = build()
    solved = picard_solve(op, f, nonlinearity_family("zero"),
                          tol=config.solver_tol)
    wall_ms = 1000.0 * (time.perf_counter() - start)
    u = solved.field
    out = _out_dir(config)
    field_path = save_field(out / field_name, u)
    _write_json(out / json_name, {
        **record,
        "method": "cg" if op.symmetric else "direct",
        "residual": solved.residual,
        "l2": l2_norm(u),
        "v12": v12_norm(u),
        "wall_ms": wall_ms,
        "field": field_path.name,
    })
    return solved, field_path


def cmd_solve(args) -> int:
    config = _load(args)
    epsilon = args.epsilon if args.epsilon is not None \
        else config.epsilons[0]
    grid = config.build_grid()
    coeffs = config.build_coefficients(grid)
    verify_ellipticity(coeffs)
    f = config.build_forcing(grid)
    solved, field_path = _solve_and_save(
        config, lambda: operator_blocks(grid, coeffs).at(epsilon), f,
        "solution.field", "solve.json", epsilon=epsilon)
    print(f"solved epsilon={epsilon:g} residual={solved.residual:.3e} "
          f"-> {field_path}")
    return 0


def cmd_limit(args) -> int:
    config = _load(args)
    grid = config.build_grid()
    coeffs = config.build_coefficients(grid)
    verify_ellipticity(coeffs)
    f = config.build_forcing(grid)
    _, field_path = _solve_and_save(
        config, lambda: operator_blocks(grid, coeffs).limit, f,
        "u_limit.field", "limit.json")
    print(f"limit field -> {field_path}")
    return 0


def _run_sweep_command(args, want_nonlinearity: bool) -> int:
    config = _load(args)
    if want_nonlinearity and config.nonlinearity is None:
        raise ConfigError(
            "semilinear needs a [nonlinearity] section in the config")
    if not want_nonlinearity and config.nonlinearity is not None:
        raise ConfigError(
            "config has a nonlinearity; use the semilinear subcommand")
    report = run_sweep(config)
    paths = emit_report(report, config.out_dir, config.out_format)
    for name in report.floor_warnings():
        print(f"warning: column {name} ended below the discretization "
              f"floor {report.floor:.3e}")
    if report.floor_warnings():
        print(f"note: {FLOOR_NOTE}")
    if not report.complete:
        print(f"sweep incomplete: {report.error}", file=sys.stderr)
        return 1
    print(f"{len(report.rows)} rows -> {paths.get('csv', paths['json'])}")
    return 0


def cmd_sweep(args) -> int:
    return _run_sweep_command(args, want_nonlinearity=False)


def cmd_semilinear(args) -> int:
    return _run_sweep_command(args, want_nonlinearity=True)


def cmd_fourier_check(args) -> int:
    config = _load(args)
    ndim = len(config.cells)
    shape = (config.fourier_lattice,) * ndim
    if config.coefficient_family == "identity":
        matrix = np.eye(ndim)
        lam = 1.0
    elif config.coefficient_family == "constant":
        matrix = np.asarray(config.coefficient_params["matrix"], float)
        lam = config.coefficient_params.get("lam")
        if lam is None:
            lam = constant_ellipticity(matrix)
    else:
        raise ConfigError(
            "fourier-check needs a constant coefficient table "
            f"(identity or constant), not '{config.coefficient_family}'")
    rng = np.random.default_rng(config.seed)
    out = _out_dir(config)
    rows = []
    all_pass = True
    for sample in range(config.fourier_samples):
        f = random_zero_mean_forcing(shape, config.q, rng)
        for epsilon in config.fourier_epsilons:
            rep = check_constant_bounds(matrix, lam, f, epsilon,
                                        strict=False)
            rows.append((epsilon, sample, rep.r_x2, rep.r_x1,
                         rep.r_cross, int(rep.passed)))
            all_pass = all_pass and rep.passed
    csv_path = out / "fourier.csv"
    with atomic_write(csv_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epsilon", "sample", "r_x2", "r_x1", "r_cross",
                         "passed"))
        for row in rows:
            writer.writerow([f"{row[0]:.17g}", row[1],
                             f"{row[2]:.17g}", f"{row[3]:.17g}",
                             f"{row[4]:.17g}", row[5]])
    print(f"{len(rows)} bound checks -> {csv_path}")
    if not all_pass:
        print("bound violations found", file=sys.stderr)
        return 1
    return 0


def cmd_metric(args) -> int:
    config = _load(args)
    u = load_field(args.field)
    family = nested_family(u.grid, config.nested)
    bundle = norm_bundle(u, family)
    payload: dict = {
        "field": str(args.field),
        "l2": bundle.l2,
        "v12": bundle.v12,
        "v22_by_margin": {str(k[0]): v
                          for k, v in bundle.v22_by_margin.items()},
    }
    if args.field_b is not None:
        v = load_field(args.field_b)
        if v.grid != u.grid:
            raise ConfigError("fields live on different grids")
        diff = norm_bundle(u - v, family)
        payload["field_b"] = str(args.field_b)
        payload["distance"] = diff.metric(family, n_max=config.nested)
        payload["l2_diff"] = diff.l2
        payload["v12_diff"] = diff.v12
    out = _out_dir(config)
    if config.out_format == "json":
        path = _write_json(out / "metric.json", payload)
    else:
        path = out / "metric.csv"
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("key", "value"))
            for key, value in payload.items():
                if isinstance(value, dict):
                    for k2, v2 in value.items():
                        writer.writerow((f"{key}[{k2}]", f"{v2:.17g}"))
                elif isinstance(value, float):
                    writer.writerow((key, f"{value:.17g}"))
                else:
                    writer.writerow((key, value))
    print(f"metric report -> {path}")
    return 0


# the config keys that determine a sweep's saved solutions
SOLUTION_KEYS = ("lo", "hi", "cells", "q", "coefficient_family",
                 "coefficient_params", "forcing_family", "forcing_params",
                 "epsilons", "nonlinearity", "nonlinearity_params")


def cmd_translation(args) -> int:
    config = _load(args)
    grid = config.build_grid()
    mask = config.build_mask(grid)
    margin = min(mask.margins)
    h0 = 1
    while 2 * h0 <= margin - 1:
        h0 *= 2
    levels = config.translation_levels
    if margin < 2:
        raise ConfigError(
            f"margin {margin} too small for {levels} dyadic levels")
    # shifts h0, h0 / 2, ..., 1: the margin admits log2(h0) + 1 levels
    if levels > h0.bit_length():
        print(f"[translation] levels = {levels} needs shifts the margin "
              f"{margin} does not admit; running {h0.bit_length()}",
              file=sys.stderr)
        levels = h0.bit_length()
    out = Path(config.out_dir)
    report_path = out / "report.json"
    if not report_path.is_file():
        raise FileNotFoundError(
            f"{report_path}: no saved sweep; run sweep or semilinear "
            "with this --out first")
    # the config as report.json stores it, so lists and tuples compare
    ours = json.loads(json.dumps(config.to_dict()))
    try:
        saved = json.loads(report_path.read_text())
        differ = [key for key in SOLUTION_KEYS
                  if saved["config"][key] != ours[key]]
        complete = saved["complete"]
    except (ValueError, KeyError, TypeError) as err:
        raise ConfigError(f"{report_path}: not a sweep report") from err
    if differ:
        key = differ[0]
        raise ConfigError(
            f"{report_path}: saved sweep solved another problem or grid: "
            f"{key} {saved['config'][key]}, the config {ours[key]}")
    if not complete:
        print(f"sweep incomplete: {saved.get('error')}", file=sys.stderr)
        return 1
    fields = []
    for k in range(len(config.epsilons)):
        field_path = out / "fields" / f"u_eps_{k:03d}.field"
        u = load_field(field_path)
        if u.grid != grid:
            raise ConfigError(
                f"{field_path}: field grid differs from the config's")
        fields += [hess_component(u, i, j)
                   for i in grid.x2_axes for j in grid.x2_axes]
    path = out / "translation.csv"
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("axis", "h_cells", "h_phys", "sigma"))
        for axis in range(grid.ndim):
            shifts = []
            for k in range(levels):
                h = [0] * grid.ndim
                h[axis] = h0 >> k
                shifts.append(h)
            sigma = translation_modulus(fields, mask, shifts)
            for h_tuple, value in sigma.items():
                h_cells = h_tuple[axis]
                writer.writerow((axis, h_cells,
                                 f"{h_cells * grid.spacing[axis]:.17g}",
                                 f"{value:.17g}"))
    print(f"translation diagnostic -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisolab",
        description="Anisotropic elliptic limit laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="path to the study configuration file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed override (unsigned 64-bit)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="report format override")

    p = sub.add_parser("solve", help="single scaled Dirichlet solve")
    common(p)
    p.add_argument("--epsilon", type=float, default=None,
                   help="epsilon override (default: first configured)")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("limit", help="slice-by-slice limit field")
    common(p)
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("sweep", help="epsilon sweep against the limit")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("semilinear",
                       help="epsilon sweep with the configured nonlinearity")
    common(p)
    p.set_defaults(fn=cmd_semilinear)

    p = sub.add_parser("fourier-check",
                       help="periodic-lattice Hessian bound verification")
    common(p)
    p.set_defaults(fn=cmd_fourier_check)

    p = sub.add_parser("metric", help="norms and metric of stored fields")
    common(p)
    p.add_argument("--field", required=True, help="field file")
    p.add_argument("--field-b", default=None,
                   help="second field file for distances")
    p.set_defaults(fn=cmd_metric)

    p = sub.add_parser("translation",
                       help="translation-defect diagnostic on dyadic shifts")
    common(p)
    p.set_defaults(fn=cmd_translation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, EllipticityError, SolverError,
            FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
