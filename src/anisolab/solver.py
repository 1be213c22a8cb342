"""Dirichlet solves on the assembled operators.

``solve_dirichlet`` has two routes, and ``method = "auto"`` (the study
default) picks between them by ``op.symmetric``, the exact symmetry of
the assembled matrix (``resolve_method``).  Symmetric operators run by
preconditioned conjugate gradients with a hard iteration cap of
``maxiter_factor * sqrt(unknowns)`` (default 20); the SPD floor probe
runs the same way.  ``pcg`` stops on its recurrence residual; when the
true residual misses ``tol`` there, CG restarts from the iterate with the
iterations left.  Other operators get a sparse direct factorization,
one per solve (every sweep row and Newton step builds a fresh operator),
with COLAMD ordering and partial pivoting.  ``method = "direct"``,
``solve_dirichlet``'s own default, factors symmetric operators too, in
symmetric mode with minimum-degree ordering of ``A + A^T`` and diagonal
pivots (see ``fd_ops.factor_matrix``).  ``linear_solve`` is the two
routes without the residual gate; the semilinear Newton steps run
through it.

``pcg`` is one numpy conjugate-gradient loop over ``B`` independent equal
blocks of a block-diagonal system, each block with its own step lengths
and stopping test, all applied through one sparse matvec: a full-grid
solve is its ``B = 1`` case, and the limit problem runs every X1 slice as
one block (``limit.semilinear_limit``).

CG is preconditioned by fast diagonalization (Lynch, Rice & Thomas 1964):
the preconditioner of a block is the constant-coefficient operator whose
table is diagonal, entry d being the node mean of the block's scaled
a_dd (``op.axis_means`` for a full grid, ``OperatorBlocks.limit_means``
for the limit slices).  On the uniform Dirichlet box the orthonormal
DST-I diagonalizes it exactly, so its inverse costs two sine transforms
and a division; the sine matrices are built once per size and shared.
It carries the epsilon scaling of the operator, so the iteration count
stays nearly flat as epsilon shrinks, where diagonal (Jacobi) scaling
needs hundreds of iterations.

No solve here loads ``scipy.sparse.linalg``; only an LU does
(``fd_ops.factor_matrix``).  The module attribute ``spla`` still
resolves to it, imported on first lookup by the module's
``__getattr__``, for code outside the package that reads it; nothing in
the package calls it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, SolverError
from .fd_ops import SparseOperator
from .grid import ScalarField

__all__ = ["solve_dirichlet", "linear_solve", "resolve_method",
           "relative_residual", "sine_transform", "pcg",
           "fast_diagonal_preconditioner"]


def __getattr__(name: str):
    # the first lookup of ``spla`` imports scipy.sparse.linalg and keeps it
    # as a plain module attribute
    if name == "spla":
        import scipy.sparse.linalg as spla

        globals()["spla"] = spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """Orthonormal DST-I along every axis of ``x`` but the first, which
    indexes blocks.

    Each box axis is one stack of matrix products over the axes around
    it, so every product is a BLAS matrix multiply whatever the layout.
    """
    shape = x.shape
    for d, s in enumerate(mats, start=1):
        before = int(np.prod(shape[:d]))
        after = int(np.prod(shape[d + 1:]))
        if after == 1:
            # the sine matrices are symmetric: right-multiplying transforms
            # the last axis of every block at once
            x = x.reshape(before, shape[d]) @ s
        else:
            x = np.matmul(s, x.reshape(before, shape[d], after))
    return x.reshape(shape)


def sine_transform(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along every axis of ``x``; its own inverse."""
    x = np.asarray(x, dtype=float)
    return _apply_sines(x[None], _sine_matrices(x.shape))[0]


def fast_diagonal_preconditioner(cells: Sequence[int],
                                 spacing: Sequence[float],
                                 means) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverses of constant diagonal tables, one per block.

    Every block is the interior of one box of ``cells`` cells and
    ``spacing`` spacings; row b of ``means``, shape ``(B, len(cells))``,
    is block b's table.  The returned callable maps residuals of shape
    ``(B, n)`` to preconditioned ones of the same shape.  Block b's
    eigenvalues on the interior lattice are
    ``sum_d means[b, d] (4 / h_d^2) sin^2(pi k_d / (2 n_d))`` with the
    DST-I modes as eigenvectors; a nonpositive one raises SolverError,
    since the preconditioner must be positive definite for CG.
    """
    means = np.asarray(means, dtype=float)
    shape = tuple(int(n) - 1 for n in cells)
    lam = np.zeros((len(means),) + shape)
    for d, (n, h) in enumerate(zip(cells, spacing)):
        k = np.arange(1, n)
        along_d = [1] * lam.ndim
        along_d[d + 1] = n - 1
        lam += (means[:, d].reshape((-1,) + (1,) * len(shape))
                * ((4.0 / h ** 2)
                   * np.sin(np.pi * k / (2 * n)) ** 2).reshape(along_d))
    if not lam.min() > 0:
        block = np.unravel_index(np.argmin(lam), lam.shape)[0]
        raise SolverError(
            f"fast-diagonalization preconditioner has eigenvalue "
            f"{lam.min():.3e} <= 0 (axis means {tuple(means[block])})")
    mats = _sine_matrices(shape)

    def solve(r: np.ndarray) -> np.ndarray:
        z = _apply_sines(np.reshape(r, lam.shape), mats) / lam
        return _apply_sines(z, mats).reshape(len(lam), -1)

    return solve


def pcg(matrix, b: np.ndarray, precond: Callable[[np.ndarray], np.ndarray],
        tol, maxiter: int, x0: np.ndarray | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """Preconditioned CG on the ``B`` independent equal blocks of ``b``.

    ``b`` has shape ``(B, n)`` and ``matrix``, symmetric positive
    definite, couples no two blocks.  Each block has its own step lengths
    ``alpha`` and ``beta`` and its own stopping test
    ``|r_b| <= tol_b |b_b|`` on the recurrence residual, ``tol`` being one
    value or one per block.  A block that meets it, or whose search
    direction has no positive curvature, is frozen: its iterate never
    changes again.  A block whose right-hand side is zero starts frozen
    at zero.  Every step applies ``matrix`` to all blocks through one
    matvec.  Runs at most ``maxiter`` steps from ``x0`` (zero by default)
    and returns the iterate, shape ``(B, n)``, and the steps each block
    took.
    """
    b = np.asarray(b, dtype=float)
    nblocks = len(b)

    def apply(v):
        return (matrix @ v.ravel()).reshape(b.shape)

    def dot(u, v):
        return np.einsum("ij,ij->i", u, v)

    target = np.asarray(tol, dtype=float) * np.linalg.norm(b, axis=1)
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.array(x0, dtype=float).reshape(b.shape)
        r = b - apply(x)
    steps = np.zeros(nblocks, dtype=int)
    active = ~(np.linalg.norm(r, axis=1) <= target)
    # with p = 0 the first beta multiplies nothing, so rz may start at 1
    p = np.zeros_like(b)
    rz = np.ones(nblocks)
    for _ in range(maxiter):
        if not active.any():
            break
        z = precond(r)
        rz_new = dot(r, z)
        beta = np.divide(rz_new, rz, out=np.zeros(nblocks),
                         where=active & (rz != 0))
        rz = rz_new
        p = z + beta[:, None] * p
        p[~active] = 0.0
        q = apply(p)
        pq = dot(p, q)
        # a block with no positive curvature along p can take no step
        active &= pq > 0
        alpha = np.divide(rz, pq, out=np.zeros(nblocks), where=active)
        x += alpha[:, None] * p
        r -= alpha[:, None] * q
        steps += active
        active &= ~(np.linalg.norm(r, axis=1) <= target)
    return x, steps


def iteration_cap(n: int, maxiter_factor: float) -> int:
    """CG's hard cap on a system of ``n`` unknowns:
    ``ceil(maxiter_factor * sqrt(n))``."""
    return int(np.ceil(maxiter_factor * np.sqrt(n)))


def _cg(op: SparseOperator, b: np.ndarray, tol: float,
        maxiter_factor: float) -> tuple[np.ndarray, float]:
    """Preconditioned CG within ``iteration_cap`` steps; returns the
    iterate and its true relative residual."""
    maxiter = iteration_cap(op.n_unknowns, maxiter_factor)
    grid = op.grid
    precond = fast_diagonal_preconditioner(grid.cells, grid.spacing,
                                           [op.axis_means])
    x, used = None, 0
    while True:
        x, steps = pcg(op.matrix, b[None], precond, tol, maxiter - used,
                       x0=x)
        used += int(steps[0])
        res = relative_residual(op.matrix, x[0], b)
        # a restart that takes no step cannot get any closer
        if res <= tol or steps[0] == 0:
            return x[0], res
        if used >= maxiter:
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
