"""Semilinear problems  -div(A_eps grad u) = a(u) + f  via damped iteration.

The nonlinearities are continuous, nonincreasing and of at most linear
growth |a(x)| <= c (1 + |x|); monotonicity keeps the fixed-point map
well-behaved without any smallness assumption on f.  The iteration is

    u_{m+1} = (1 - d) u_m + d * Linv(a(u_m) + f)

with a single factorization of the linear operator reused across steps.
The limit problem runs the same iteration on the block-diagonal limit
operator, every slice at once, each slice with its own stopping rule.
The start iterate is the linear solve with a(0) folded in, so a vanishing
nonlinearity converges in one step and reproduces the linear answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import CoefficientField
from .errors import ConfigError, SolverError
from .fd_ops import SparseOperator
from .grid import Grid, ScalarField
from .limit import limit_operator
from .solver import relative_residual

__all__ = [
    "Nonlinearity",
    "nonlinearity_family",
    "PicardResult",
    "picard_solve",
    "semilinear_limit",
]


@dataclass(frozen=True)
class Nonlinearity:
    """Nonincreasing reaction term with declared linear-growth constant."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    growth: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)


def nonlinearity_family(name: str, **params) -> Nonlinearity:
    """Named terms: ``zero``, ``linear`` (a = -kappa u), ``tanh``
    (a = -tanh u), ``rational`` (a = -u / (1 + |u|))."""
    if name == "zero":
        if params:
            raise ConfigError("zero nonlinearity takes no parameters")
        return Nonlinearity("zero", lambda x: np.zeros_like(x), 0.0)
    if name == "linear":
        kappa = float(params.pop("kappa", 1.0))
        if params:
            raise ConfigError(f"unknown parameters {sorted(params)}")
        if kappa < 0:
            raise ConfigError("kappa must be >= 0 to stay nonincreasing")
        return Nonlinearity("linear", lambda x: -kappa * x, kappa)
    if name == "tanh":
        if params:
            raise ConfigError("tanh nonlinearity takes no parameters")
        return Nonlinearity("tanh", lambda x: -np.tanh(x), 1.0)
    if name == "rational":
        if params:
            raise ConfigError("rational nonlinearity takes no parameters")
        return Nonlinearity("rational", lambda x: -x / (1.0 + np.abs(x)), 1.0)
    raise ConfigError(f"unknown nonlinearity '{name}'")


@dataclass
class PicardResult:
    """Converged iterate plus how the iteration went."""

    field: ScalarField
    iterations: int
    final_increment: float
    residual: float
    increments: tuple[float, ...]


def _picard_core(solve: Callable[[np.ndarray], np.ndarray],
                 rhs: np.ndarray, a: Nonlinearity,
                 weight: float, damping: float, tol: float, max_iter: int,
                 blocks: int = 1,
                 where: Callable[[int], str] = lambda k: ""
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped iteration on flat interior vectors.

    The unknowns split into ``blocks`` equal, decoupled systems (one for a
    full grid, one per slice for the limit) and ``solve`` must keep them
    decoupled.  Each block stops on its own rule and is frozen from then
    on.  ``weight`` converts the flat euclidean norm into the quadrature l2
    norm for the stopping rule.  Returns the iterate, the iterations per
    block and the increments, one row per step and one column per block;
    a block's row entries after it stopped are not meaningful.
    """
    if not 0.0 < damping <= 1.0:
        raise ConfigError(f"damping must lie in (0, 1], got {damping}")
    rhs = rhs.reshape(blocks, -1)
    u = solve((rhs + a(np.zeros_like(rhs))).ravel()).reshape(blocks, -1)
    iters = np.zeros(blocks, dtype=int)
    active = np.ones(blocks, dtype=bool)
    increments: list[np.ndarray] = []
    for m in range(1, max_iter + 1):
        u_next = (1.0 - damping) * u + damping * solve(
            (rhs + a(u)).ravel()).reshape(blocks, -1)
        inc = np.linalg.norm(u_next - u, axis=1) * weight
        increments.append(inc)
        u_prev_norm = np.linalg.norm(u, axis=1) * weight
        u[active] = u_next[active]
        iters[active] = m
        active &= ~(inc <= tol * np.maximum(1.0, u_prev_norm))
        if not active.any():
            return u.ravel(), iters, np.array(increments)
    k = int(np.flatnonzero(active)[0])
    raise SolverError(
        f"{where(k)}damped iteration exhausted {max_iter} steps",
        last_increment=float(increments[-1][k]) if increments else None)


def picard_solve(op: SparseOperator, f: ScalarField, a: Nonlinearity,
                 damping: float = 0.5, tol: float = 1e-10,
                 max_iter: int = 200) -> PicardResult:
    """Solve the semilinear Dirichlet problem on the full grid."""
    if f.grid != op.grid:
        raise ConfigError("forcing lives on a different grid")
    rhs = f.interior_vector()
    weight = float(np.sqrt(op.grid.cell_volume))
    u, iters, increments = _picard_core(
        op.factor().solve, rhs, a, weight, damping, tol, max_iter)
    res = float(relative_residual(op.matrix, u, rhs + a(u))[0])
    return PicardResult(
        field=ScalarField.from_interior(op.grid, u),
        iterations=int(iters[0]), final_increment=float(increments[-1, 0]),
        residual=res, increments=tuple(increments[:, 0].tolist()))


def semilinear_limit(grid: Grid, coeffs: CoefficientField, f: ScalarField,
                     a: Nonlinearity, damping: float = 0.5,
                     tol: float = 1e-10, max_iter: int = 200) -> PicardResult:
    """Limit field of the semilinear problem: one damped iteration over
    all slices of the block-diagonal limit operator.

    Every X1 lattice node's retained-axes system keeps its own stopping
    rule and is frozen once it meets it; reported iteration and residual
    figures are the worst over all slices, and ``increments`` is the
    history of the last slice among those that needed the most steps.
    """
    op = limit_operator(grid, coeffs)
    rhs = op.vector(f)
    weight = float(np.sqrt(
        np.prod([grid.spacing[ax] for ax in grid.x2_axes])))
    u, iters, increments = _picard_core(
        op.lu.solve, rhs, a, weight, damping, tol, max_iter,
        blocks=op.n_slices, where=lambda k: f"slice {op.slice_index(k)}: ")
    res = relative_residual(op.matrix, u, rhs + a(u), op.n_slices)
    worst = int(np.flatnonzero(iters == iters.max())[-1])
    final = increments[iters - 1, np.arange(op.n_slices)]
    return PicardResult(
        field=op.field(u), iterations=int(iters[worst]),
        final_increment=float(final.max()), residual=float(res.max()),
        increments=tuple(increments[:iters[worst], worst].tolist()))
