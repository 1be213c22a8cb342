"""Semilinear problems  -div(A_eps grad u) = a(u) + f  by inexact Newton.

The nonlinearities are continuous, nonincreasing and of at most linear
growth |a(x)| <= c (1 + |x|), and each declares its derivative a' <= 0.
The residual is F(u) = L u - a(u) - f and its Jacobian
J = L + diag(-a'(u)) is the operator plus a nonnegative diagonal, so it is
symmetric positive definite whenever L is, without any smallness
assumption on f (Kelley, *Iterative Methods for Linear and Nonlinear
Equations*, SIAM 1995, ch. 6).

Every Newton step solves J du = -F, then halves the step until |F|
decreases by the Armijo rule (c = 1e-4).  The iteration stops on the
residual, not on the step: once |F| / |f + a(u)| is at most ``tol``.  A
solve that has not met it after ``max_iter`` steps raises SolverError
carrying the residual.

On the full grid Newton starts from u = 0 and each step runs the linear
route ``solver.resolve_method`` picks: CG with the operator's
fast-diagonalization preconditioner, to the Eisenstat-Walker forcing
term min(1e-2, |F| / |f + a(u)|), or, under ``direct`` or for an
operator that is not symmetric, one LU of J.  The limit problem
(``limit.semilinear_limit``) runs the same ``_newton`` on the
block-diagonal limit operator, every slice at once, its steps by one
batched CG with a forcing term per slice under the same rule.

``picard_solve`` and ``PicardResult`` keep the names of the damped
fixed-point iteration this replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError, SolverError
from .fd_ops import SparseOperator
from .grid import ScalarField
from .solver import linear_solve

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Nonlinearity",
    "nonlinearity_family",
    "PicardResult",
    "picard_solve",
]

# Armijo sufficient-decrease constant and the most halvings of one step
ARMIJO = 1e-4
MAX_HALVINGS = 30
# the largest forcing term of a CG Newton step
MAX_FORCING = 1e-2


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


def jacobian(matrix: sp.csr_matrix, a: Nonlinearity,
             u: np.ndarray) -> sp.csr_matrix:
    """``L + diag(-a'(u))`` on a copy of ``L``: symmetric when ``L`` is."""
    J = matrix.copy()
    J.setdiag(matrix.diagonal() - a.deriv(u))
    return J


def _newton(matrix: sp.spmatrix, rhs: np.ndarray, a: Nonlinearity,
            u: np.ndarray,
            step: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
            tol: float, max_iter: int, blocks: int = 1,
            where: Callable[[int], str] = lambda k: ""
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual-gated Newton for ``matrix u = a(u) + rhs`` from ``u``.

    The unknowns split into ``blocks`` equal, decoupled systems (one for
    a full grid, one per slice for the limit).  ``step(u, F, rel)`` must
    return an approximate solution of ``J du = -F`` that keeps the blocks
    decoupled; ``rel`` holds each block's relative residual, from which a
    Krylov step takes its forcing term.  Each block has its own residual
    gate and line search and is frozen once it meets its gate.  Returns
    the iterate, the steps taken per block and the final relative
    residuals.  ``max_iter`` must be at least 1.
    """
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")

    def residual(u):
        b = rhs + a(u)
        F = matrix @ u - b
        return (F, np.linalg.norm(F.reshape(blocks, -1), axis=1),
                np.linalg.norm(b.reshape(blocks, -1), axis=1))

    F, norm_F, norm_b = residual(u)
    iters = np.zeros(blocks, dtype=int)
    m = 0
    while True:
        # relative to |b| as solver.relative_residual: absolute where b = 0
        rel = np.divide(norm_F, norm_b, out=norm_F.copy(),
                        where=norm_b > 0)
        active = ~(rel <= tol)
        if not active.any():
            return u, iters, rel
        if m == max_iter:
            k = int(np.flatnonzero(active)[0])
            raise SolverError(
                f"{where(k)}Newton exhausted {max_iter} steps at residual "
                f"{rel[k]:.3e}", residual=float(rel[k]))
        du = step(u, F, rel).reshape(blocks, -1)
        t = active.astype(float)
        for _ in range(MAX_HALVINGS):
            u_trial = u + (t[:, None] * du).ravel()
            trial = residual(u_trial)
            short = trial[1] > (1.0 - ARMIJO * t) * norm_F
            if not short.any():
                break
            t[short] /= 2.0
        else:
            k = int(np.flatnonzero(short)[0])
            raise SolverError(
                f"{where(k)}Newton line search found no decrease in "
                f"{MAX_HALVINGS} halvings at residual {rel[k]:.3e}",
                residual=float(rel[k]))
        u = u_trial
        F, norm_F, norm_b = trial
        m += 1
        iters[active] = m


def picard_solve(op: SparseOperator, f: ScalarField, a: Nonlinearity,
                 tol: float = 1e-10, max_iter: int = 200,
                 method: str = "auto",
                 maxiter_factor: float = 20.0) -> PicardResult:
    """Solve the semilinear Dirichlet problem on the full grid by Newton.

    ``method`` and ``maxiter_factor`` choose and cap each step's linear
    solve as in ``solve_dirichlet``; a CG step stops at the forcing term
    ``min(1e-2, relative residual)``.
    """
    if f.grid != op.grid:
        raise ConfigError("forcing lives on a different grid")
    rhs = f.interior_vector()

    def step(u, F, rel):
        # J keeps L's symmetry and axis means, hence its preconditioner
        J = SparseOperator(jacobian(op.matrix, a, u), op.grid,
                           op.symmetric, op.axis_means)
        return linear_solve(J, -F, min(MAX_FORCING, float(rel[0])),
                            method, maxiter_factor)[0]

    u, iters, rel = _newton(op.matrix, rhs, a, np.zeros_like(rhs), step,
                            tol, max_iter)
    return PicardResult(field=ScalarField.from_interior(op.grid, u),
                        iterations=int(iters[0]), residual=float(rel[0]))

