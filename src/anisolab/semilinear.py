"""Semilinear problems  -div(A_eps grad u) = a(u) + f  by inexact Newton.

The nonlinearities are continuous, nonincreasing and of at most linear
growth |a(x)| <= c (1 + |x|), and each declares its derivative a' <= 0.
The residual is F(u) = L u - a(u) - f and its Jacobian
J = L + diag(-a'(u)) is the operator plus a nonnegative diagonal, so it is
symmetric positive definite whenever L is, without any smallness
assumption on f.

``picard_solve(op, f, a)`` solves it on the unknowns of any
``fd_ops.SparseOperator`` by ``solver.newton_solve``: Newton from u = 0
with Armijo backtracking, each block stopping once |F| / |f + a(u)| is
at most ``tol``, each step by CG to an Eisenstat-Walker forcing term
where J is symmetric, else by one LU of J (``solver.resolve_method``).
A sweep row is the one-block case, a full grid; the limit problem
(``limit.semilinear_limit``) is ``picard_solve`` on the limit operator,
one block per X1 slice.  ``picard_solve`` and ``PicardResult`` keep the
names of the damped fixed-point iteration this replaced.
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
    """Converged Newton iterate, and the most Newton steps and the largest
    final relative residual of its blocks."""

    field: ScalarField
    iterations: int
    residual: float


def picard_solve(op: SparseOperator, f: ScalarField, a: Nonlinearity,
                 tol: float = 1e-10, max_iter: int = 200,
                 method: str = "auto",
                 maxiter_factor: float = 20.0) -> PicardResult:
    """Solve the semilinear Dirichlet problem on ``op``'s unknowns by Newton.

    The field holds the solution at ``op.unknowns`` and zero elsewhere.
    ``method`` and ``maxiter_factor`` choose and cap each step's linear
    solve as in ``solver.newton_solve``.  Reported iterations and
    residual are the worst over ``op``'s blocks.
    """
    if f.grid != op.grid:
        raise ConfigError("forcing lives on a different grid")
    unknowns = op.unknowns
    u, iters, rel = newton_solve(op, f.values[unknowns].reshape(-1), a, tol,
                                 max_iter, method, maxiter_factor)
    out = np.zeros(op.grid.node_shape)
    out[unknowns] = u.reshape(op.matrix.box)
    return PicardResult(field=ScalarField(op.grid, out),
                        iterations=int(iters.max()),
                        residual=float(rel.max()))
