"""Semilinear problems  -div(A_eps grad u) = a(u) + f  by inexact Newton.

The nonlinearities are continuous, nonincreasing and of at most linear
growth |a(x)| <= c (1 + |x|), and each declares its derivative a' <= 0.
The residual is F(u) = L u - a(u) - f and its Jacobian
J = L + diag(-a'(u)) is the operator plus a nonnegative diagonal, so it is
symmetric positive definite whenever L is, without any smallness
assumption on f.

``picard_solve`` solves the full-grid problem as the one-block case of
``solver.newton_solve``: Newton from u = 0 with Armijo backtracking,
stopping once |F| / |f + a(u)| is at most ``tol``, each step by CG to an
Eisenstat-Walker forcing term or by one LU of J, as the route
``solver.resolve_method`` picks.  The limit problem
(``limit.semilinear_limit``) runs the same driver with one block per X1
slice.  ``picard_solve`` and ``PicardResult`` keep the names of the
damped fixed-point iteration this replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .fd_ops import SparseOperator
from .grid import ScalarField
from .solver import newton_solve

__all__ = [
    "Nonlinearity",
    "nonlinearity_family",
    "PicardResult",
    "picard_solve",
]


@dataclass(frozen=True)
class Nonlinearity:
    """Nonincreasing reaction term, its derivative (<= 0) and its
    declared linear-growth constant."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    growth: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)


def nonlinearity_family(name: str, **params) -> Nonlinearity:
    """Named terms: ``zero``, ``linear`` (a = -kappa u), ``tanh``
    (a = -tanh u), ``rational`` (a = -u / (1 + |u|))."""
    if name == "zero":
        if params:
            raise ConfigError("zero nonlinearity takes no parameters")
        return Nonlinearity("zero", np.zeros_like, np.zeros_like, 0.0)
    if name == "linear":
        kappa = float(params.pop("kappa", 1.0))
        if params:
            raise ConfigError(f"unknown parameters {sorted(params)}")
        if kappa < 0:
            raise ConfigError("kappa must be >= 0 to stay nonincreasing")
        return Nonlinearity("linear", lambda x: -kappa * x,
                            lambda x: np.full(np.shape(x), -kappa), kappa)
    if name == "tanh":
        if params:
            raise ConfigError("tanh nonlinearity takes no parameters")
        # -sech^2 x, written so that it neither overflows nor warns
        return Nonlinearity("tanh", lambda x: -np.tanh(x),
                            lambda x: np.tanh(x) ** 2 - 1.0, 1.0)
    if name == "rational":
        if params:
            raise ConfigError("rational nonlinearity takes no parameters")
        return Nonlinearity("rational", lambda x: -x / (1.0 + np.abs(x)),
                            lambda x: -1.0 / (1.0 + np.abs(x)) ** 2, 1.0)
    raise ConfigError(f"unknown nonlinearity '{name}'")


@dataclass
class PicardResult:
    """Converged Newton iterate, the Newton steps it took and its final
    relative residual."""

    field: ScalarField
    iterations: int
    residual: float


def picard_solve(op: SparseOperator, f: ScalarField, a: Nonlinearity,
                 tol: float = 1e-10, max_iter: int = 200,
                 method: str = "auto",
                 maxiter_factor: float = 20.0) -> PicardResult:
    """Solve the semilinear Dirichlet problem on the full grid by Newton.

    ``method`` and ``maxiter_factor`` choose and cap each step's linear
    solve as in ``solver.newton_solve``.
    """
    if f.grid != op.grid:
        raise ConfigError("forcing lives on a different grid")
    grid = op.grid
    u, iters, rel = newton_solve(op.matrix, f.interior_vector(), a,
                                 op.symmetric, grid.cells, grid.spacing,
                                 [op.axis_means], tol, max_iter, method,
                                 maxiter_factor, fit=op.fit)
    return PicardResult(field=ScalarField.from_interior(grid, u),
                        iterations=int(iters[0]), residual=float(rel[0]))
