"""Dirichlet solves on the assembled operators plus conditioning diagnostics.

The primary route is a sparse direct factorization (reused across calls via
the operator's cached LU).  Its ordering follows ``op.symmetric``: symmetric
tables are factored in symmetric mode with minimum-degree ordering of
``A + A^T`` and diagonal pivots, other tables with COLAMD and partial
pivoting (see ``fd_ops.factor_matrix``).  The secondary route is conjugate
gradients with a diagonal preconditioner and a hard iteration cap of
``20 * sqrt(unknowns)``; it also serves the SPD floor probe, and it exposes
how conditioning degrades as epsilon shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, SolverError
from .fd_ops import SparseOperator
from .grid import ScalarField

__all__ = ["solve_dirichlet", "solver_diagnostics", "ConditioningReport"]


def _residual(matrix, x, b) -> float:
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return float(np.linalg.norm(matrix @ x))
    return float(np.linalg.norm(matrix @ x - b) / scale)


def solve_dirichlet(op: SparseOperator, f: ScalarField, tol: float = 1e-10,
                    method: str = "direct",
                    maxiter_factor: float = 20.0) -> ScalarField:
    """Solve ``L u = f`` over interior unknowns, boundary held at zero.

    The returned field carries exact zeros on the boundary.  The relative
    residual is always checked against ``tol``; a solve that misses it
    raises SolverError carrying the achieved residual.
    """
    if f.grid != op.grid:
        raise ConfigError("forcing lives on a different grid")
    b = f.interior_vector()
    if method == "direct":
        x = op.factor().solve(b)
    elif method == "cg":
        if not op.symmetric:
            raise ConfigError("cg path requires a symmetric operator")
        n = op.n_unknowns
        maxiter = int(np.ceil(maxiter_factor * np.sqrt(n)))
        diag = op.matrix.diagonal()
        if np.any(diag <= 0):
            raise SolverError("nonpositive diagonal, cannot precondition")
        M = spla.LinearOperator((n, n), matvec=lambda r: r / diag)
        x, info = spla.cg(op.matrix, b, rtol=tol, atol=0.0,
                          maxiter=maxiter, M=M)
        if info > 0:
            raise SolverError(
                f"cg exhausted {maxiter} iterations",
                residual=_residual(op.matrix, x, b))
        if info < 0:
            raise SolverError(f"cg failed with code {info}")
    else:
        raise ConfigError(f"unknown solver method '{method}'")
    res = _residual(op.matrix, x, b)
    if not res <= tol:
        raise SolverError(
            f"{method} solve missed tolerance {tol:g}", residual=res)
    return ScalarField.from_interior(op.grid, x)


@dataclass
class ConditioningReport:
    """Extremal eigenvalue estimates for an assembled operator."""

    n_unknowns: int
    eig_min: float
    eig_max: float
    condition: float
    exact: bool
    cg_iterations: int | None = None


def solver_diagnostics(op: SparseOperator, rhs: ScalarField | None = None,
                       dense_limit: int = 3000,
                       cg_tol: float = 1e-10) -> ConditioningReport:
    """Extremal eigenvalues (exact below ``dense_limit`` unknowns, Lanczos
    estimates above) and, when a forcing is supplied, the preconditioned CG
    iteration count for it.

    The count is reported only for a converged CG run: one that stops at
    the cap of ``20 * unknowns`` iterations raises SolverError carrying
    the achieved residual.
    """
    n = op.n_unknowns
    if n <= dense_limit:
        eigs = np.linalg.eigvalsh(op.matrix.toarray())
        eig_min, eig_max = float(eigs[0]), float(eigs[-1])
        exact = True
    else:
        a = op.matrix.tocsc()
        eig_max = float(spla.eigsh(a, k=1, which="LA",
                                   return_eigenvectors=False)[0])
        eig_min = float(spla.eigsh(a, k=1, sigma=0, which="LM",
                                   return_eigenvectors=False)[0])
        exact = False
    iters = None
    if rhs is not None:
        count = {"n": 0}

        def cb(_):
            count["n"] += 1

        diag = op.matrix.diagonal()
        M = spla.LinearOperator((n, n), matvec=lambda r: r / diag)
        b = rhs.interior_vector()
        x, info = spla.cg(op.matrix, b, rtol=cg_tol, atol=0.0,
                          maxiter=20 * n, M=M, callback=cb)
        if info != 0:
            raise SolverError(
                f"cg stopped after {count['n']} iterations without "
                f"reaching {cg_tol:g} (code {info})",
                residual=_residual(op.matrix, x, b))
        iters = count["n"]
    return ConditioningReport(
        n_unknowns=n, eig_min=eig_min, eig_max=eig_max,
        condition=eig_max / eig_min, exact=exact, cg_iterations=iters)
