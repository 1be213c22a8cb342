"""Workloads, output checks and the timing loop of the anisolab benchmark.

Every workload runs studies through anisolab's public API, back to back,
until the run's time is spent.  A study is one complete piece of work a
user would start:

    sweep-2d, semilinear-2d, sweep-3d-cg
        ``run_sweep`` on a configuration (it builds grid, coefficients,
        forcing, mask and family itself), then ``emit_report`` into a
        scratch directory.
    diagnostics
        one post-processing pass over saved fields: read them back, norm
        bundles, metric distances, translation modulus of the X2 Hessians,
        and Fourier bound checks on a torus.

Outputs are checked after each study, outside its timing: relative
residuals of every solve recomputed from ``op.matrix``, finite complete
reports, passing bound checks, and, at seed 0, agreement with the
reference outputs stored next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from contextlib import ExitStack, nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

import anisolab.fd_ops
import anisolab.fieldio
import anisolab.grid
import anisolab.norms
import anisolab.spectral
import anisolab.study
from anisolab import StudyConfig, make_grid, ScalarField
from anisolab.limit import iter_slice_systems
from anisolab.spectral import random_zero_mean_forcing

from spans import BENCH_PREFIX, Tracer, layer_patches, patched, study_layers

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Reports at seed 0 must match the stored reference to this relative
# tolerance: loose enough for a reordered sum or another LU ordering, tight
# enough that a solve that stops early or a changed norm shows.
REFERENCE_RTOL = 1e-6

SWEEPS = {
    # name: (config file relative to the checkout, reduced cells)
    "sweep-2d": ("configs/convergence.cfg", [32, 32]),
    "semilinear-2d": ("configs/semilinear.cfg", [24, 24]),
    "sweep-3d-cg": ("perfbench/configs/sweep-3d-cg.cfg", [8, 8, 8]),
}
WORKLOADS = tuple(SWEEPS) + ("diagnostics",)

# diagnostics inputs: saved smooth fields and torus forcings
DIAG_FIELDS = 8
DIAG_CELLS = 384
DIAG_CELLS_REDUCED = 48
DIAG_TERMS = 4
DIAG_MAX_MODE = 6
DIAG_NESTED = 20
DIAG_LEVELS = 3
TORUS = 48
TORUS_REDUCED = 12
TORUS_FORCINGS = 4
TORUS_EPS = (1.0, 0.1, 0.01, 0.001)
TORUS_MATRIX = ((2.0, 0.5, 0.2), (0.5, 1.5, 0.3), (0.2, 0.3, 1.0))

CSV_VALUE_COLUMNS = anisolab.study.CSV_COLUMNS[:-1]  # all but wall_ms


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _rel_residual(matrix, x, rhs) -> float:
    scale = float(np.linalg.norm(rhs))
    res = float(np.linalg.norm(matrix @ x - rhs))
    return res / scale if scale > 0 else res


class SolveChecks:
    """Recomputes the residual of every solve ``anisolab.study`` makes.

    Installed as wrappers around ``solve_dirichlet`` and ``picard_solve``;
    the time spent checking is kept in ``excluded_s`` (and in
    ``bench.check`` spans when tracing) so it never counts as study time.
    Linear residuals are gated on the configured tolerance.  Picard
    residuals are only recorded: the Picard stopping rule is
    increment-based and does not reach the tolerance today.
    """

    def __init__(self, tol: float, tracer: Tracer | None):
        self.tol = tol
        self.tracer = tracer
        self.excluded_s = 0.0
        self.linear: list[float] = []
        self.limit: list[float] = []
        self.semilinear: list[float] = []
        self.errors: list[str] = []

    def _timed(self):
        return (self.tracer.span(BENCH_PREFIX + "check") if self.tracer
                else nullcontext())

    def patches(self):
        study = anisolab.study
        solve, picard = study.solve_dirichlet, study.picard_solve

        def checked_solve(op, f, *args, **kwargs):
            u = solve(op, f, *args, **kwargs)
            start = time.perf_counter()
            with self._timed():
                res = _rel_residual(op.matrix, u.interior_vector(),
                                    f.interior_vector())
                self.linear.append(res)
                if not res <= self.tol:
                    self.errors.append(
                        f"solve residual {res:.3e} above tol {self.tol:g}")
            self.excluded_s += time.perf_counter() - start
            return u

        def checked_picard(op, f, a, *args, **kwargs):
            result = picard(op, f, a, *args, **kwargs)
            start = time.perf_counter()
            with self._timed():
                u = result.field.interior_vector()
                self.semilinear.append(_rel_residual(
                    op.matrix, u, f.interior_vector() + a(u)))
            self.excluded_s += time.perf_counter() - start
            return result

        return [(study, "solve_dirichlet", checked_solve),
                (study, "picard_solve", checked_picard)]


def _compare(value, ref, path: str, errors: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or value.keys() != ref.keys():
            errors.append(f"{path}: keys differ from the reference")
            return
        for key in ref:
            _compare(value[key], ref[key], f"{path}.{key}", errors)
    elif isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            errors.append(f"{path}: length differs from the reference")
            return
        for i, (v, r) in enumerate(zip(value, ref)):
            _compare(v, r, f"{path}[{i}]", errors)
    elif isinstance(ref, float) and not isinstance(value, bool) \
            and isinstance(value, (int, float)):
        if not math.isclose(value, ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
            errors.append(f"{path}: {value!r} differs from reference "
                          f"{ref!r} beyond rtol {REFERENCE_RTOL:g}")
    elif value != ref:
        errors.append(f"{path}: {value!r} != reference {ref!r}")


class Workload:
    """Inputs of one workload plus its study and its output checks."""

    name: str
    tol: float = 0.0
    digest: str

    def __init__(self, name: str, seed: int, workdir: Path, reduced: bool):
        self.name = name
        self.workdir = workdir
        self.check_reference = seed == 0 and not reduced

    def study(self, out_dir: Path):
        raise NotImplementedError

    def summary(self, result, out_dir: Path) -> dict:
        raise NotImplementedError

    def check(self, result, out_dir: Path, checks: SolveChecks) -> list[str]:
        raise NotImplementedError

    def reference_errors(self, summary: dict) -> list[str]:
        if not self.check_reference:
            return []
        ref = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())
        errors: list[str] = []
        _compare(summary, ref, self.name, errors)
        return errors


class SweepWorkload(Workload):
    """A shipped study configuration, run with one worker.

    The seed draws the ``sine_product`` forcing modes (1 to 3 per axis);
    seed 0 keeps the configured modes of 1.
    """

    def __init__(self, name, seed, workdir, reduced, root: Path,
                 tracer: Tracer | None):
        super().__init__(name, seed, workdir, reduced)
        path, reduced_cells = SWEEPS[name]
        with tracer.span("config.load") if tracer else nullcontext():
            config = StudyConfig.from_file(root / path)
        ndim = len(config.cells)
        modes = ([1] * ndim if seed == 0 else
                 np.random.default_rng(seed).integers(1, 4, ndim).tolist())
        updates = {"workers": 1, "seed": seed,
                   "forcing_params": {"modes": modes}}
        if reduced:
            updates["cells"] = reduced_cells
        self.config = replace(config, **updates)
        self.tol = self.config.solver_tol
        self.digest = _sha256(json.dumps(self.config.to_dict(),
                                         sort_keys=True).encode())

    def study(self, out_dir: Path):
        # looked up on the module at call time, so traced runs see wrappers
        report = anisolab.study.run_sweep(self.config)
        anisolab.study.emit_report(report, out_dir)
        return report

    def summary(self, result, out_dir: Path) -> dict:
        payload = json.loads((out_dir / "report.json").read_text())
        return {
            "complete": payload["complete"],
            "floor": payload["floor"],
            "mask_margin": payload["mask_margin"],
            "family_margins": payload["family_margins"],
            "floor_warnings": payload["floor_warnings"],
            "rates": payload["rates"],
            "rows": [[row[c] for c in CSV_VALUE_COLUMNS]
                     for row in payload["rows"]],
        }

    def check(self, result, out_dir, checks):
        errors = []
        if not result.complete:
            errors.append(f"sweep incomplete: {result.error}")
        if len(result.rows) != len(self.config.epsilons):
            errors.append(f"{len(result.rows)} rows for "
                          f"{len(self.config.epsilons)} epsilons")
        for row in result.rows:
            values = [getattr(row, c) for c in CSV_VALUE_COLUMNS]
            if not all(math.isfinite(v) for v in values):
                errors.append(f"non-finite column at epsilon {row.epsilon}")
        errors += self._limit_residuals(result.u_limit, checks)
        return errors + self.reference_errors(self.summary(result, out_dir))

    def _limit_residuals(self, u_limit, checks: SolveChecks) -> list[str]:
        """Slice residuals of the limit field, from the slice systems."""
        config = self.config
        grid = config.build_grid()
        coeffs = config.build_coefficients(grid)
        f = config.build_forcing(grid)
        a = config.build_nonlinearity()
        interior = tuple(slice(1, grid.cells[ax]) for ax in grid.x2_axes)
        errors = []
        for x1_index, matrix, rhs, _ in iter_slice_systems(grid, coeffs, f):
            x = u_limit.values[x1_index][interior].reshape(-1)
            if a is not None:
                checks.semilinear.append(
                    _rel_residual(matrix, x, rhs + a(x)))
                continue
            res = _rel_residual(matrix, x, rhs)
            checks.limit.append(res)
            if not res <= self.tol:
                errors.append(f"limit slice {x1_index}: residual "
                              f"{res:.3e} above tol {self.tol:g}")
        return errors


def _translation_shifts(grid, margin: int) -> list[list[int]]:
    """Dyadic whole-cell shifts per axis, as ``anisolab translation`` uses."""
    h0 = 1
    while 2 * h0 <= margin - 1:
        h0 *= 2
    shifts = []
    for axis in range(grid.ndim):
        for k in range(DIAG_LEVELS):
            h = [0] * grid.ndim
            h[axis] = h0 >> k
            shifts.append(h)
    return shifts


def write_diagnostics_inputs(workdir: Path, seed: int, reduced: bool):
    """Seeded smooth fields saved with ``save_field`` and torus forcings."""
    rng = np.random.default_rng(seed)
    cells = DIAG_CELLS_REDUCED if reduced else DIAG_CELLS
    grid = make_grid([(0.0, 1.0), (0.0, 1.0)], (cells, cells), q=1)
    x, y = grid.meshgrid()
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(DIAG_FIELDS):
        values = np.zeros(grid.node_shape)
        for _ in range(DIAG_TERMS):
            m, n = rng.integers(1, DIAG_MAX_MODE + 1, 2)
            values += (rng.standard_normal()
                       * np.sin(m * np.pi * x) * np.sin(n * np.pi * y))
        paths.append(anisolab.fieldio.save_field(
            workdir / f"field_{i}.field", ScalarField(grid, values)))
    lattice = (TORUS_REDUCED if reduced else TORUS,) * 3
    forcings = [random_zero_mean_forcing(lattice, 2, rng)
                for _ in range(TORUS_FORCINGS)]
    return paths, forcings


class DiagnosticsWorkload(Workload):
    """Post-processing of saved fields; no solves."""

    def __init__(self, name, seed, workdir, reduced, root, tracer):
        super().__init__(name, seed, workdir, reduced)
        self.paths, self.forcings = write_diagnostics_inputs(
            workdir / "inputs", seed, reduced)
        self.matrix = np.array(TORUS_MATRIX)
        self.lam = float(np.linalg.eigvalsh(self.matrix)[0])
        self.digest = _sha256(
            *(p.read_bytes() for p in self.paths),
            *(f.coeffs.tobytes() for f in self.forcings),
            self.matrix.tobytes(), np.array(TORUS_EPS).tobytes())

    def study(self, out_dir: Path):
        # module attributes are looked up per call, so traced runs see
        # the span wrappers
        fields = [anisolab.fieldio.load_field(p) for p in self.paths]
        grid = fields[0].grid
        family = anisolab.grid.nested_family(grid, DIAG_NESTED)
        bundles = [anisolab.norms.norm_bundle(u, family) for u in fields]
        frechet = [anisolab.norms.frechet_distance(u, fields[0], family,
                                                   DIAG_NESTED)
                   for u in fields[1:]]
        margin = min(grid.cells) // 8
        mask = anisolab.grid.interior_subdomain(grid, margin)
        hessians = [anisolab.fd_ops.hess_component(u, i, j)
                    for u in fields
                    for i in grid.x2_axes for j in grid.x2_axes]
        sigma = anisolab.norms.translation_modulus(
            hessians, mask, _translation_shifts(grid, margin))
        bounds = [anisolab.spectral.check_constant_bounds(
                      self.matrix, self.lam, f, eps, strict=False)
                  for f in self.forcings for eps in TORUS_EPS]
        return bundles, frechet, sigma, bounds

    def summary(self, result, out_dir):
        bundles, frechet, sigma, bounds = result
        return {
            "l2": [b.l2 for b in bundles],
            "v12": [b.v12 for b in bundles],
            "v22": [list(b.v22_by_margin.values()) for b in bundles],
            "frechet": frechet,
            "sigma": list(sigma.values()),
            "bounds": [[r.r_x2, r.r_x1, r.r_cross] for r in bounds],
        }

    def check(self, result, out_dir, checks):
        summary = self.summary(result, out_dir)
        errors = []
        values = [v for key in ("l2", "v12", "frechet", "sigma")
                  for v in summary[key]]
        values += [v for group in summary["v22"] + summary["bounds"]
                   for v in group]
        if not all(math.isfinite(v) for v in values):
            errors.append("non-finite diagnostic value")
        failed = [r for r in result[3] if not r.passed]
        if failed:
            errors.append(f"{len(failed)} Fourier bound checks failed, "
                          f"worst ratio {max(r.max_ratio() for r in failed)}")
        return errors + self.reference_errors(summary)


def make_workload(root: Path, name: str, seed: int, workdir: Path,
                  reduced: bool = False, tracer: Tracer | None = None
                  ) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload '{name}'")
    cls = DiagnosticsWorkload if name == "diagnostics" else SweepWorkload
    return cls(name, seed, workdir, reduced, root, tracer)


# per-layer metrics drawn from spans: (metric, span name, field, unit)
SPAN_METRICS = (
    ("solver.factor_ms", "solver.factor", "self_ms", "ms"),
    ("solver.factor_calls", "solver.factor", "calls", "count"),
    ("solver.lu_fill", "solver.factor", "lu_fill", "count"),
    ("solver.solve_ms", "solver.solve", "self_ms", "ms"),
    ("solver.cg_iters", "solver.solve", "cg_iters", "count"),
    ("semilinear.picard_ms", "semilinear.picard", "self_ms", "ms"),
    ("semilinear.picard_iters", "semilinear.picard", "iters", "count"),
    ("semilinear.limit_ms", "semilinear.limit", "self_ms", "ms"),
    ("semilinear.limit_iters", "semilinear.limit", "iters", "count"),
    ("limit.solve_ms", "limit.solve", "self_ms", "ms"),
    ("fd_ops.assemble_ms", "fd_ops.assemble", "self_ms", "ms"),
    ("fd_ops.assemble_calls", "fd_ops.assemble", "calls", "count"),
    ("fd_ops.nnz", "fd_ops.assemble", "nnz", "count"),
    ("fd_ops.hess_ms", "fd_ops.hess", "self_ms", "ms"),
    # the floor probe is a phase: inclusive, its children also show in
    # their own layers
    ("study.floor_ms", "study.floor", "total_ms", "ms"),
    ("study.emit_ms", "study.emit", "self_ms", "ms"),
    ("study.run_sweep_self_ms", "study.run_sweep", "self_ms", "ms"),
    ("study.rows", "study.run_sweep", "rows", "count"),
    ("norms.ms", "norms", "self_ms", "ms"),
    ("norms.calls", "norms", "calls", "count"),
    ("spectral.check_ms", "spectral.check", "self_ms", "ms"),
    ("spectral.checks", "spectral.check", "checks", "count"),
    ("spectral.fft_points", "spectral.check", "fft_points", "count"),
    ("fieldio.read_ms", "fieldio.read", "self_ms", "ms"),
    ("fieldio.read_bytes", "fieldio.read", "bytes", "count"),
    ("fieldio.write_ms", "fieldio.write", "self_ms", "ms"),
    ("fieldio.write_bytes", "fieldio.write", "bytes", "count"),
    ("coefficients.build_ms", "coefficients.build", "self_ms", "ms"),
    ("coefficients.ellipticity_ms", "coefficients.ellipticity", "self_ms",
     "ms"),
    ("coefficients.scale_ms", "coefficients.scale", "self_ms", "ms"),
    ("forcing.build_ms", "forcing.build", "self_ms", "ms"),
    ("grid.build_ms", "grid.build", "self_ms", "ms"),
)
OTHER_METRICS = (
    ("limit.slices", "count"),
    ("limit.residual_max", "ratio"),
    ("solver.residual_max", "ratio"),
    ("semilinear.residual_max", "ratio"),
    ("config.load_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_ms", "ms"),
)
END_TO_END = (("study_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = tuple((m, u) for m, _, _, u in SPAN_METRICS) + OTHER_METRICS


def _layer_values(tracer: Tracer, index: int, checks: SolveChecks,
                  study_s: float) -> dict[str, float]:
    layers = study_layers(tracer, index)
    out = {metric: layers.get(span, {}).get(key, 0)
           for metric, span, key, _ in SPAN_METRICS}
    out["limit.slices"] = sum(layers.get(s, {}).get("slices", 0)
                              for s in ("limit.solve", "semilinear.limit"))
    out["limit.residual_max"] = max(checks.limit, default=0.0)
    out["solver.residual_max"] = max(checks.linear, default=0.0)
    out["semilinear.residual_max"] = max(checks.semilinear, default=0.0)
    # study_s has the bench spans taken out; add them back to get the wall
    # time that the top-level spans (bench ones included) tile
    bench_ms = sum(v["total_ms"] for k, v in layers.items()
                   if k.startswith(BENCH_PREFIX))
    covered = sum(v["top_ms"] for v in layers.values())
    out["trace.unattributed_ms"] = 1000.0 * study_s + bench_ms - covered
    return out


def run_study(wl: Workload, index: int, tracer: Tracer | None) -> dict:
    """One timed study followed by its output checks."""
    checks = SolveChecks(wl.tol, tracer)
    out_dir = wl.workdir / "study"
    errors: list[str] = []
    result = None
    wall = 0.0
    try:
        with ExitStack() as stack:
            if tracer is not None:
                tracer.study = index
                stack.enter_context(patched(layer_patches(tracer)))
            stack.enter_context(patched(checks.patches()))
            start = time.perf_counter()
            try:
                result = wl.study(out_dir)
            finally:
                wall = time.perf_counter() - start
    except Exception as err:  # a failed study is counted, not fatal
        errors.append(f"study raised {type(err).__name__}: {err}")
    if tracer is None:
        study_s = wall - checks.excluded_s
    else:
        study_s = wall - sum(s.duration for s in tracer.spans
                             if s.study == index
                             and s.name.startswith(BENCH_PREFIX))
    try:
        if result is not None:
            errors += checks.errors + wl.check(result, out_dir, checks)
    except Exception as err:
        errors.append(f"output check raised {type(err).__name__}: {err}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    outcome = {"study_s": study_s, "traced": tracer is not None,
               "errors": errors}
    if tracer is not None:
        outcome["layers"] = _layer_values(tracer, index, checks, study_s)
    return outcome


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool,
            workdir: Path, reduced: bool = False) -> dict:
    """Set up one workload and run studies for ``seconds``.

    Untraced: every study is timed plainly.  Traced: studies alternate
    untraced and traced, so the traced run also yields the tracing
    overhead; at least one of each runs.
    """
    tracer = Tracer() if trace else None
    wl = make_workload(root, name, seed, workdir, reduced, tracer)
    load_ms = (1000.0 * sum(s.duration for s in tracer.spans
                            if s.name == "config.load")
               if tracer else 0.0)
    studies = []
    deadline = time.perf_counter() + seconds
    while len(studies) < (2 if trace else 1) \
            or time.perf_counter() < deadline:
        traced = trace and len(studies) % 2 == 1
        studies.append(run_study(wl, len(studies),
                                 tracer if traced else None))
    failed = sum(1 for s in studies if s["errors"])
    untimed = [s["study_s"] for s in studies if not s["traced"]]
    out = {"workload": name, "seed": seed, "input_sha256": wl.digest,
           "attempted": len(studies), "failed": failed,
           "errors": [e for s in studies for e in s["errors"]],
           "study_times_s": [s["study_s"] for s in studies]}
    if not trace:
        out["metrics"] = {"study_s": statistics.median(untimed)}
        return out
    traced = [s for s in studies if s["traced"]]
    metrics = {m: statistics.median(s["layers"][m] for s in traced)
               for m in traced[0]["layers"]}
    metrics["config.load_ms"] = load_ms
    metrics["trace.overhead_s"] = (
        statistics.median(s["study_s"] for s in traced)
        - statistics.median(untimed))
    out["metrics"] = metrics
    out["spans"] = [s.as_list() for s in tracer.spans]
    return out


def peak_rss_mb() -> float:
    """This process's peak resident set; Linux reports it in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(root: Path, name: str, seed: int, trace: bool,
             input_sha256: str) -> dict:
    sources = sorted((root / "src" / "anisolab").glob("*.py"))
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "input_sha256": input_sha256,
        "git_sha": git_sha(root),
        "source_sha256": _sha256(*(p.read_bytes() for p in sources)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def write_reference(root: Path, name: str, workdir: Path) -> Path:
    """Store the seed-0 outputs of ``name`` as its reference."""
    wl = make_workload(root, name, 0, workdir)
    out_dir = workdir / "study"
    result = wl.study(out_dir)
    summary = wl.summary(result, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    return path


def summary_line(result: dict, trace: bool) -> dict:
    units = dict(PER_LAYER if trace else END_TO_END)
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in result["metrics"].items()}}
