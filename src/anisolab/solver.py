"""Dirichlet solves on the assembled operators.

``solve_dirichlet`` has two routes, and ``method = "auto"`` (the study
default) picks between them by ``op.symmetric``, the exact symmetry of
the assembled matrix (``resolve_method``).  Symmetric operators run by
preconditioned conjugate gradients with a hard iteration cap of
``maxiter_factor * sqrt(unknowns)`` (default 20); the SPD floor probe
runs the same way.  scipy's CG stops on its recurrence residual; when the
true residual misses ``tol`` there, CG restarts from the iterate with the
iterations left.  Other operators get a sparse direct factorization,
one per solve (every sweep row and Newton step builds a fresh operator),
with COLAMD ordering and partial pivoting.  ``method = "direct"``,
``solve_dirichlet``'s own default, factors symmetric operators too, in
symmetric mode with minimum-degree ordering of ``A + A^T`` and diagonal
pivots (see ``fd_ops.factor_matrix``).  ``linear_solve`` is the two
routes without the residual gate; the semilinear Newton steps run
through it.

CG is preconditioned by fast diagonalization (Lynch, Rice & Thomas 1964):
the preconditioner is the constant-coefficient operator whose table is
diagonal, entry d being the node mean of the scaled a_dd
(``op.axis_means``).  On the uniform Dirichlet box the orthonormal DST-I
diagonalizes it exactly, so its inverse costs two sine transforms and a
division; the sine matrices are built once per size and shared.  It
carries the epsilon scaling of the operator, so the iteration count stays
nearly flat as epsilon shrinks, where diagonal (Jacobi) scaling needs
hundreds of iterations.

``scipy.sparse.linalg`` is imported on the first solve, not with the
package: the module attribute ``spla`` is filled by the module's
``__getattr__`` on first lookup, and the CG and preconditioner code read
it at call time.  So it stays a plain, swappable attribute: a stand-in
assigned to ``anisolab.solver.spla``, before or after the first solve,
is the one whose ``cg`` runs (the tests' iteration counters and
perfbench's traced ``solver.cg_iters`` rely on this).
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, SolverError
from .fd_ops import SparseOperator
from .grid import ScalarField

if TYPE_CHECKING:
    import scipy.sparse.linalg as spla

__all__ = ["solve_dirichlet", "linear_solve", "resolve_method",
           "relative_residual", "sine_transform",
           "fast_diagonal_preconditioner"]


def __getattr__(name: str):
    # the first lookup of ``spla`` imports scipy.sparse.linalg and keeps it
    # as a plain module attribute, which a stand-in may replace
    if name == "spla":
        import scipy.sparse.linalg as spla

        globals()["spla"] = spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _linalg():
    """The module attribute ``spla`` as it stands at call time."""
    return sys.modules[__name__].spla


def relative_residual(matrix, x: np.ndarray, b: np.ndarray) -> float:
    """``|A x - b| / |b|``, or the absolute ``|A x|`` when ``b`` is exactly
    zero: there is nothing to be relative to."""
    res = float(np.linalg.norm(matrix @ x - b))
    scale = float(np.linalg.norm(b))
    return res / scale if scale > 0 else res


@lru_cache(maxsize=8)
def _sine_matrix(m: int) -> np.ndarray:
    """Orthonormal DST-I matrix of size m, sqrt(2/(m+1)) sin(pi j k / (m+1)).

    Built once per size and read-only, so every row's CG solves share one
    cached matrix.
    """
    k = np.arange(1, m + 1)
    mat = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    mat.flags.writeable = False
    return mat


def _sine_matrices(shape) -> list[np.ndarray]:
    return [_sine_matrix(int(m)) for m in shape]


def _apply_sines(x: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    # each product contracts the last axis and puts the result first, so
    # after one pass over the axes, last to first, the order is restored
    for s in reversed(mats):
        x = np.tensordot(s, x, axes=(1, -1))
    return x


def sine_transform(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along every axis of ``x``; its own inverse."""
    x = np.asarray(x, dtype=float)
    return _apply_sines(x, _sine_matrices(x.shape))


def fast_diagonal_preconditioner(op: SparseOperator) -> spla.LinearOperator:
    """Exact inverse of the constant diagonal table ``op.axis_means``.

    Its eigenvalues on the interior lattice are
    ``sum_d mean_d (4 / h_d^2) sin^2(pi k_d / (2 n_d))`` with the DST-I
    modes as eigenvectors; a nonpositive one raises SolverError, since
    the preconditioner must be positive definite for CG.
    """
    grid = op.grid
    shape = grid.interior_shape
    lam = np.zeros(shape)
    for d, (n, h, mean) in enumerate(zip(grid.cells, grid.spacing,
                                         op.axis_means)):
        k = np.arange(1, n)
        along_d = [1] * grid.ndim
        along_d[d] = n - 1
        lam = lam + (mean * (4.0 / h ** 2)
                     * np.sin(np.pi * k / (2 * n)) ** 2).reshape(along_d)
    if not lam.min() > 0:
        raise SolverError(
            f"fast-diagonalization preconditioner has eigenvalue "
            f"{lam.min():.3e} <= 0 (axis means {op.axis_means})")
    mats = _sine_matrices(shape)

    def solve(r):
        return _apply_sines(_apply_sines(r.reshape(shape), mats) / lam,
                            mats).ravel()

    n = op.n_unknowns
    # a declared dtype keeps scipy from applying the inverse once just to
    # find it out
    return _linalg().LinearOperator((n, n), matvec=solve, dtype=float)


def _cg(op: SparseOperator, b: np.ndarray, tol: float,
        maxiter_factor: float) -> tuple[np.ndarray, float]:
    """Preconditioned CG within ``ceil(maxiter_factor * sqrt(n))`` steps;
    returns the iterate and its true relative residual."""
    maxiter = int(np.ceil(maxiter_factor * np.sqrt(op.n_unknowns)))
    M = fast_diagonal_preconditioner(op)
    spla = _linalg()
    x, used = None, 0

    def count(_):
        nonlocal used
        used += 1

    while True:
        start = used
        x, info = spla.cg(op.matrix, b, x0=x, rtol=tol, atol=0.0,
                          maxiter=maxiter - used, M=M, callback=count)
        if info < 0:
            raise SolverError(f"cg failed with code {info}")
        res = relative_residual(op.matrix, x, b)
        # a restart that takes no step cannot get any closer
        if res <= tol or used == start:
            return x, res
        if info > 0:
            raise SolverError(f"cg exhausted {maxiter} iterations",
                              residual=res)


def resolve_method(op: SparseOperator, method: str) -> str:
    """The route ``solve_dirichlet`` runs for ``method`` on ``op``:
    ``auto`` is CG on a symmetric operator and direct otherwise."""
    if method == "auto":
        return "cg" if op.symmetric else "direct"
    return method


def linear_solve(op: SparseOperator, b: np.ndarray, tol: float,
                 method: str, maxiter_factor: float = 20.0
                 ) -> tuple[np.ndarray, float]:
    """``L x = b`` over interior vectors by the route ``method`` names.

    Returns the solution and its relative residual, ungated: CG stops
    once it is at most ``tol`` (or raises at its cap), the direct route
    takes what the factorization gives.
    """
    method = resolve_method(op, method)
    if method == "direct":
        x = op.factor().solve(b)
        return x, relative_residual(op.matrix, x, b)
    if method == "cg":
        if not op.symmetric:
            raise ConfigError("cg path requires a symmetric operator")
        return _cg(op, b, tol, maxiter_factor)
    raise ConfigError(f"unknown solver method '{method}'")


def solve_dirichlet(op: SparseOperator, f: ScalarField, tol: float = 1e-10,
                    method: str = "direct",
                    maxiter_factor: float = 20.0) -> ScalarField:
    """Solve ``L u = f`` over interior unknowns, boundary held at zero.

    ``method`` is ``direct``, ``cg`` or ``auto`` (see ``resolve_method``).
    The returned field carries exact zeros on the boundary.  The relative
    residual is always checked against ``tol``; a solve that misses it
    raises SolverError carrying the achieved residual.
    """
    if f.grid != op.grid:
        raise ConfigError("forcing lives on a different grid")
    method = resolve_method(op, method)
    x, res = linear_solve(op, f.interior_vector(), tol, method,
                          maxiter_factor)
    if not res <= tol:
        raise SolverError(
            f"{method} solve missed tolerance {tol:g}", residual=res)
    return ScalarField.from_interior(op.grid, x)
