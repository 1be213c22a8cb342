"""In-memory span recorder and the patch table that times anisolab's layers.

Spans are taken from outside the package: each public name that
``anisolab.study`` (or the diagnostics pass) looks up at call time is
replaced by a wrapper that opens a span around the call, so ``run_sweep``
runs unchanged.  Spans whose name starts with ``bench.`` hold the
benchmark's own work (output checks, counting); they are subtracted from
their parents' self time and from the traced study time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import anisolab.coefficients
import anisolab.fd_ops
import anisolab.fieldio
import anisolab.grid
import anisolab.norms
import anisolab.solver
import anisolab.spectral
import anisolab.study
from anisolab.config import StudyConfig
from anisolab.fd_ops import SparseOperator

BENCH_PREFIX = "bench."


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    study: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.study, self.counts]


class Tracer:
    """Append-only span list; ``study`` tags every span with its study."""

    def __init__(self):
        self.spans: list[Span] = []
        self.study = -1
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, time.perf_counter(), parent,
                 self.study)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def count(self, key: str, value) -> None:
        """Add to a count on the innermost open span."""
        counts = self._open[-1].counts
        counts[key] = counts.get(key, 0) + value


def study_layers(tracer: Tracer, study: int) -> dict[str, dict]:
    """Per span name: self ms, inclusive ms, calls and summed counts."""
    spans = [s for s in tracer.spans if s.study == study]
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration
    out: dict[str, dict] = {}
    for s in spans:
        layer = out.setdefault(s.name, {"self_ms": 0.0, "total_ms": 0.0,
                                        "calls": 0, "top_ms": 0.0})
        layer["self_ms"] += 1000.0 * (s.duration - child_s.get(s.id, 0.0))
        layer["total_ms"] += 1000.0 * s.duration
        layer["calls"] += 1
        if s.parent is None:
            layer["top_ms"] += 1000.0 * s.duration
        for key, value in s.counts.items():
            layer[key] = layer.get(key, 0) + value
    return out


def _traced(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
        if count is not None:
            with tracer.span(BENCH_PREFIX + "count"):
                for key, value in count(out, *args).items():
                    s.counts[key] = s.counts.get(key, 0) + value
        return out
    return wrapper


def _x1_slices(grid) -> int:
    n = 1
    for a in grid.x1_axes:
        n *= grid.cells[a] + 1
    return n


class _CountingLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside ``anisolab.solver`` and
    counts the conjugate-gradient iterations the solver really runs."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def cg(self, *args, callback=None, **kwargs):
        iters = 0

        def counting(xk):
            nonlocal iters
            iters += 1
            if callback is not None:
                callback(xk)

        try:
            return self._real.cg(*args, callback=counting, **kwargs)
        finally:
            self._tracer.count("cg_iters", iters)


_NORM_NAMES = ("l2_norm", "v12_norm", "grad_x1_seminorm", "hess_x1_seminorm",
               "hess_x2_seminorm", "hess_x1x2_seminorm", "frechet_distance")


def layer_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """``(owner, attribute, replacement)`` for every timed layer boundary."""
    study = anisolab.study
    table = [
        (StudyConfig, "build_grid", "grid.build", None),
        (StudyConfig, "build_mask", "grid.build", None),
        (StudyConfig, "build_family", "grid.build", None),
        (anisolab.grid, "nested_family", "grid.build", None),
        (anisolab.grid, "interior_subdomain", "grid.build", None),
        (StudyConfig, "build_coefficients", "coefficients.build", None),
        # discretization_floor imports coefficient_family at call time
        (anisolab.coefficients, "coefficient_family", "coefficients.build",
         None),
        (StudyConfig, "build_forcing", "forcing.build", None),
        (study, "forcing_field", "forcing.build", None),
        (study, "verify_ellipticity", "coefficients.ellipticity", None),
        (study, "scale_coefficients", "coefficients.scale", None),
        (study, "assemble_operator", "fd_ops.assemble",
         lambda op, *_: {"nnz": op.matrix.nnz}),
        (anisolab.fd_ops, "hess_component", "fd_ops.hess", None),
        (SparseOperator, "factor", "solver.factor",
         lambda lu, *_: {"lu_fill": lu.L.nnz + lu.U.nnz}),
        (study, "solve_dirichlet", "solver.solve", None),
        (study, "picard_solve", "semilinear.picard",
         lambda r, *_: {"iters": r.iterations}),
        (study, "solve_limit", "limit.solve",
         lambda u, *_: {"slices": _x1_slices(u.grid)}),
        (study, "semilinear_limit", "semilinear.limit",
         lambda r, *_: {"iters": r.iterations,
                        "slices": _x1_slices(r.field.grid)}),
        (study, "discretization_floor", "study.floor", None),
        (study, "run_sweep", "study.run_sweep",
         lambda r, *_: {"rows": len(r.rows)}),
        (study, "emit_report", "study.emit", None),
        (study, "save_field", "fieldio.write",
         lambda p, *_: {"bytes": Path(p).stat().st_size}),
        (anisolab.fieldio, "load_field", "fieldio.read",
         lambda u, path, *_: {"bytes": Path(path).stat().st_size}),
        (anisolab.spectral, "check_constant_bounds", "spectral.check",
         lambda rep, matrix, lam, f, *_: {"checks": 1,
                                          "fft_points": f.coeffs.size}),
    ]
    table += [(study, name, "norms", None) for name in _NORM_NAMES]
    table += [(anisolab.norms, name, "norms", None)
              for name in ("norm_bundle", "frechet_distance",
                           "translation_modulus")]
    out = [(owner, attr, _traced(tracer, name, getattr(owner, attr), count))
           for owner, attr, name, count in table]
    out.append((anisolab.solver, "spla",
                _CountingLinalg(anisolab.solver.spla, tracer)))
    return out


@contextmanager
def patched(replacements):
    """Install ``(owner, attribute, value)`` triples; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
