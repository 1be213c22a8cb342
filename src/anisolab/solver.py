"""Every solve of the lab, by one residual-gated Newton driver.

A full-grid row, a semilinear row and the linear and semilinear limit
are one problem: ``L u = a(u) + f`` on B decoupled equal blocks of
unknowns, a full grid being B = 1 and the limit one block per X1 node
(``limit.semilinear_limit``); a linear solve is the zero term.
``newton_solve`` runs it (Kelley, *Iterative Methods for Linear and
Nonlinear Equations*, SIAM 1995, ch. 6).  From u = 0 every step solves
``J du = -F`` with ``J = L + diag(-a'(u))`` (a copy of the rows of L's
stencil, ``fd_ops.Stencil``, with a'(u) taken off the centre row), then
halves the step of each block until its |F| decreases by the Armijo rule
(c = 1e-4).  A block stops once |F| / |f + a(u)| is at most ``tol``; a
solve that has not met it after ``max_iter`` steps raises SolverError
carrying the residual.  A linear solve's first step is the solve to
``tol`` itself, and a step that misses it is followed by another step
from the iterate.

The route is picked once per solve.  ``method = "auto"`` (the study
default) chooses by ``symmetric``, the exact symmetry of the assembled
matrix (``resolve_method``).  Symmetric matrices run by preconditioned
conjugate gradients, one batched ``pcg`` per step over every block, with
a hard cap of ``maxiter_factor * sqrt(unknowns per block)`` iterations
(default 20); a block the cap leaves short of its test raises
SolverError.  A block's CG stops at the forcing term ``tol / rel``,
``rel`` its relative residual, where a' vanishes, so that a linear step
lands within ``tol``, and elsewhere at the Eisenstat-Walker term
``min(1e-2, rel)`` floored at ``0.5 tol / rel`` (Kelley 1995, sec. 6.3),
so that the last step solves no further below the gate than it needs.
Other matrices get a sparse direct factorization with COLAMD ordering
and partial pivoting.
``method = "direct"``, ``solve_dirichlet``'s own default, factors
symmetric matrices too, in symmetric mode with minimum-degree ordering of
``A + A^T`` and diagonal pivots (see ``fd_ops.factor_matrix``).  Where a'
vanishes J is the matrix itself, factored once on first need; elsewhere
each step factors its own J.

``pcg`` is one numpy conjugate-gradient loop over ``B`` independent equal
blocks of a block-diagonal system, each block with its own step lengths
and stopping test, all applied through one stencil matvec.  It updates
its vectors in place, and the matvec writes into the loop's own array
through the loop's own workspace.

CG is preconditioned by fast diagonalization (Lynch, Rice & Thomas 1964):
the preconditioner of a block is the flux operator of a separable
diagonal table, ``a_dd(x) ~ c_d p_dd(x_d) prod_{e != d} R_e(x_e)``.  c_d
is the node mean of the block's scaled a_dd (``op.axis_means`` for a
full grid, ``OperatorBlocks.limit_means`` for the limit slices); the
full grid's axis profiles p_dd and R_e are its ``fd_ops.SeparableFit``,
and the limit slices keep flat ones.  Such an operator is a sum of
Kronecker products, which one generalized eigendecomposition per axis
diagonalizes: on a flat axis the orthonormal DST-I, whose sine matrices
are built once per size and shared; on any other the axis pencil, one
dense ``eigh`` per ``operator_blocks`` (``SeparableFit.pencils``), built
on the first CG solve and shared by every epsilon, whose scaling only
moves c_d.  Either way the inverse costs one transform per axis each
way and a division.  The fit is exact in 2-D for a_dd that are products
of one function per axis, such as a coefficient that jumps in X1 only,
and it carries the epsilon scaling of the operator, so the iteration
count stays nearly flat as epsilon shrinks, where diagonal (Jacobi)
scaling needs hundreds of iterations.  J keeps the matrix's symmetry
and block means, hence one preconditioner serves every step of a
solve.

No CG solve loads ``scipy.sparse``, ``scipy.sparse.linalg`` or
``scipy.linalg``: the matrices are stencils, their matvec is numpy, and
so is the pencils' ``eigh``.  Only an LU loads them, laying the
stencil out as CSR first (``fd_ops.factor_matrix``).  The
module attribute ``spla`` still resolves to ``scipy.sparse.linalg``,
imported on first lookup by the module's ``__getattr__``, for code
outside the package that reads it; nothing in the package calls it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import ConfigError, SolverError
from .fd_ops import SeparableFit, SparseOperator, Stencil, factor_matrix
from .grid import ScalarField

if TYPE_CHECKING:
    from .semilinear import Nonlinearity

__all__ = ["solve_dirichlet", "newton_solve", "resolve_method",
           "relative_residual", "sine_transform", "pcg",
           "fast_diagonal_preconditioner"]

# Armijo sufficient-decrease constant and the most halvings of one step
ARMIJO = 1e-4
MAX_HALVINGS = 30
# the largest forcing term of a CG Newton step, and the floor of a
# nonlinear one, FORCING_FLOOR * tol / rel
MAX_FORCING = 1e-2
FORCING_FLOOR = 0.5


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


def _apply_axes(x: np.ndarray, mats) -> np.ndarray:
    """One matrix along every axis of ``x`` but the first, which indexes
    blocks.

    ``mats[d]`` is a pair ``(right, left)`` of one matrix M for axis
    d + 1: ``right`` is M^T and ``left`` is M, so that a sine matrix,
    symmetric, is passed as itself twice.  Each box axis is one stack of
    matrix products over the axes around it, so every product is a BLAS
    matrix multiply whatever the layout.
    """
    shape = x.shape
    for d, (right, left) in enumerate(mats, start=1):
        before = math.prod(shape[:d])
        after = math.prod(shape[d + 1:])
        if after == 1:
            # right-multiplying transforms the last axis of every block
            # at once
            x = x.reshape(before, shape[d]) @ right
        else:
            x = np.matmul(left, x.reshape(before, shape[d], after))
    return x.reshape(shape)


def sine_transform(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along every axis of ``x``; its own inverse."""
    x = np.asarray(x, dtype=float)
    return _apply_axes(x[None], [(s, s) for s in _sine_matrices(x.shape)])[0]


def fast_diagonal_preconditioner(cells: Sequence[int],
                                 spacing: Sequence[float],
                                 means, fit: SeparableFit | None = None
                                 ) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverses of separable diagonal tables, one per block.

    Every block is the interior of one box of ``cells`` cells and
    ``spacing`` spacings; row b of ``means``, shape ``(B, len(cells))``,
    with ``fit`` (``fd_ops.SeparableFit``; None is flat on every axis,
    as for the limit slices) is block b's table.  The returned callable maps residuals of shape
    ``(B, n)`` to preconditioned ones of the same shape.  An axis whose
    fit is flat has the DST-I modes as eigenvectors and the eigenvalues
    ``(4 / h_d^2) sin^2(pi k_d / (2 n_d))``; any other axis has its
    pencil's (``SeparableFit.pencils``).  Block b's eigenvalue is the sum
    over axes of ``means[b, d]`` times axis d's; a nonpositive one raises
    SolverError, since the preconditioner must be positive definite for
    CG.
    """
    means = np.asarray(means, dtype=float)
    shape = tuple(int(n) - 1 for n in cells)
    pencils = (None,) * len(shape) if fit is None else fit.pencils
    lam = np.zeros((len(means),) + shape)
    forward, inverse = [], []
    for d, (n, h, pencil) in enumerate(zip(cells, spacing, pencils)):
        along_d = [1] * lam.ndim
        along_d[d + 1] = n - 1
        if pencil is None:
            k = np.arange(1, n)
            lam_d = (4.0 / h ** 2) * np.sin(np.pi * k / (2 * n)) ** 2
            s = _sine_matrix(int(n) - 1)
            forward.append((s, s))
            inverse.append((s, s))
        else:
            v, lam_d = pencil
            # a transposed right factor is slow in BLAS at some sizes
            vt = np.ascontiguousarray(v.T)
            forward.append((v, vt))
            inverse.append((vt, v))
        lam += (means[:, d].reshape((-1,) + (1,) * len(shape))
                * lam_d.reshape(along_d))
    if not lam.min() > 0:
        block = np.unravel_index(np.argmin(lam), lam.shape)[0]
        raise SolverError(
            f"fast-diagonalization preconditioner has eigenvalue "
            f"{lam.min():.3e} <= 0 (axis means {tuple(means[block])})")

    def solve(r: np.ndarray) -> np.ndarray:
        z = _apply_axes(np.reshape(r, lam.shape), forward) / lam
        return _apply_axes(z, inverse).reshape(len(lam), -1)

    return solve


def pcg(matrix, b: np.ndarray, precond: Callable[[np.ndarray], np.ndarray],
        tol, maxiter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Preconditioned CG on the ``B`` independent equal blocks of ``b``.

    ``b`` has shape ``(B, n)`` and ``matrix``, a symmetric positive
    definite ``Stencil``, couples no two blocks.  Each block has its own
    step lengths ``alpha`` and ``beta`` and its own stopping test
    ``|r_b| <= tol_b |b_b|`` on the recurrence residual, ``tol`` being one
    value or one per block.  A block that meets it, or whose search
    direction has no positive curvature, is frozen: its iterate never
    changes again.  A block whose right-hand side is zero starts frozen
    at zero.  Every step applies ``matrix`` to all blocks through one
    matvec, into arrays of the loop's own.  Runs at most ``maxiter``
    steps from zero and returns the iterate, shape ``(B, n)``, the steps
    each block took, and the mask of the blocks that were still short of
    their test when the cap stopped them.
    """
    b = np.asarray(b, dtype=float)
    nblocks = len(b)

    def dot(u, v):
        return np.einsum("ij,ij->i", u, v)

    target = np.asarray(tol, dtype=float) * np.linalg.norm(b, axis=1)
    x, r = np.zeros_like(b), b.copy()
    steps = np.zeros(nblocks, dtype=int)
    active = ~(np.linalg.norm(r, axis=1) <= target)
    # with p = 0 the first beta multiplies nothing, so rz may start at 1
    p = np.zeros_like(b)
    rz = np.ones(nblocks)
    # p, x and r are updated in place, through q and one scratch array
    q, scaled = np.empty_like(b), np.empty_like(b)
    work = matrix.workspace()
    for _ in range(maxiter):
        if not active.any():
            break
        z = precond(r)
        rz_new = dot(r, z)
        beta = np.divide(rz_new, rz, out=np.zeros(nblocks),
                         where=active & (rz != 0))
        rz = rz_new
        p *= beta[:, None]
        p += z
        p[~active] = 0.0
        matrix.matvec(p.reshape(-1), q.reshape(-1), work)
        pq = dot(p, q)
        # a block with no positive curvature along p can take no step
        active &= pq > 0
        alpha = np.divide(rz, pq, out=np.zeros(nblocks), where=active)
        x += np.multiply(alpha[:, None], p, out=scaled)
        r -= np.multiply(alpha[:, None], q, out=scaled)
        steps += active
        active &= ~(np.linalg.norm(r, axis=1) <= target)
    return x, steps, active


def iteration_cap(n: int, maxiter_factor: float) -> int:
    """CG's hard cap on a system of ``n`` unknowns:
    ``ceil(maxiter_factor * sqrt(n))``."""
    return int(np.ceil(maxiter_factor * np.sqrt(n)))


def _route(symmetric: bool, method: str) -> str:
    """``cg`` or ``direct``: ``auto`` is CG on a symmetric matrix and
    direct otherwise; CG on a matrix that is not symmetric, and any
    other method, raise ConfigError."""
    if method == "auto":
        return "cg" if symmetric else "direct"
    if method not in ("cg", "direct"):
        raise ConfigError(f"unknown solver method '{method}'")
    if method == "cg" and not symmetric:
        raise ConfigError("cg path requires a symmetric operator")
    return method


def resolve_method(op: SparseOperator, method: str) -> str:
    """The route ``solve_dirichlet`` runs for ``method`` on ``op``:
    ``auto`` is CG on a symmetric operator and direct otherwise."""
    return _route(op.symmetric, method)


def jacobian(matrix: Stencil, a: Nonlinearity, u: np.ndarray) -> Stencil:
    """``L + diag(-a'(u))``: symmetric when ``L`` is.

    A copy of ``L``'s rows with ``a'(u)`` subtracted from the centre row,
    the diagonal; a stencil without a centre row raises ConfigError.
    """
    centre = matrix.centre
    if centre is None:
        raise ConfigError("the Jacobian needs the matrix's diagonal, the "
                          "centre of its stencil")
    rows = matrix.rows.copy()
    rows[centre] -= a.deriv(u)
    return matrix.with_rows(rows)


def newton_solve(matrix: Stencil, rhs: np.ndarray, a: Nonlinearity,
                 symmetric: bool, cells: Sequence[int],
                 spacing: Sequence[float], means, tol: float = 1e-10,
                 max_iter: int = 200, method: str = "direct",
                 maxiter_factor: float = 20.0,
                 where: Callable[[int], str] = lambda k: "",
                 fit: SeparableFit | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual-gated Newton for ``matrix u = a(u) + rhs`` from u = 0.

    The unknowns split into ``len(means)`` equal, decoupled blocks, each
    the interior of one box of ``cells`` cells and ``spacing`` spacings;
    row b of ``means`` holds block b's a_dd means, which with ``fit``
    form the table its CG preconditioner inverts
    (``fast_diagonal_preconditioner``).  ``symmetric`` is the exact
    symmetry of ``matrix`` and picks the route with ``method`` (see the
    module docstring); ``maxiter_factor`` caps each CG solve at
    ``iteration_cap`` of one block's unknowns.  Each block has its own
    residual gate, forcing term and line search, and is frozen once it
    meets its gate; ``where(k)`` prefixes every error that names block
    k.  Returns the iterate, the steps taken per block and the final
    relative residuals.  ``max_iter`` must be at least 1.
    """
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    route = _route(symmetric, method)
    blocks = len(means)
    if route == "cg":
        precond = fast_diagonal_preconditioner(cells, spacing, means, fit)
        cap = iteration_cap(rhs.size // blocks, maxiter_factor)
    lu = None

    def norms(v):
        # one block takes the whole vector's norm, as relative_residual
        if blocks == 1:
            return np.array([np.linalg.norm(v)])
        return np.linalg.norm(v.reshape(blocks, -1), axis=1)

    def residual(u):
        b = rhs + a(u)
        F = matrix @ u - b
        return F, norms(F), norms(b)

    # at u = 0 the residual is -(rhs + a(0)): no matvec
    u = np.zeros_like(rhs)
    b = rhs + a(u)
    F, norm_F = -b, norms(b)
    norm_b = norm_F
    iters = np.zeros(blocks, dtype=int)
    m = 0
    while True:
        # relative to |b| as relative_residual: absolute where b = 0
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
        deriv = a.deriv(u)
        # where a' vanishes the Jacobian is the matrix itself
        J = matrix
        if deriv.any():
            J = jacobian(matrix, a, u)
        if route == "cg":
            floor = np.divide(FORCING_FLOOR * tol, rel,
                              out=np.zeros(blocks), where=active)
            forcing = np.maximum(np.minimum(MAX_FORCING, rel), floor)
            np.divide(tol, rel, out=forcing, where=active & ~deriv.reshape(
                blocks, -1).any(axis=1))
            # blocks already within tol take a zero right-hand side and
            # no step
            du, _, capped = pcg(J, np.where(active[:, None],
                                            -F.reshape(blocks, -1), 0.0),
                                precond, forcing, cap)
            if capped.any():
                k = int(np.flatnonzero(capped)[0])
                # block k's relative residual of the linearized problem
                # after the capped step (the true one where a' = 0)
                left = norms(J @ du.ravel() + F)[k] / norm_F[k] * rel[k]
                raise SolverError(f"{where(k)}cg exhausted {cap} iterations",
                                  residual=float(left))
        elif J is not matrix:
            du = factor_matrix(J, symmetric).solve(-F)
        else:
            if lu is None:
                lu = factor_matrix(matrix, symmetric)
            du = lu.solve(-F)
        # a Jacobian copy held through the line search raises the peak
        del J
        du = du.reshape(blocks, -1)
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


def solve_dirichlet(op: SparseOperator, f: ScalarField, tol: float = 1e-10,
                    method: str = "direct",
                    maxiter_factor: float = 20.0) -> ScalarField:
    """Solve ``L u = f`` over interior unknowns, boundary held at zero.

    ``semilinear.picard_solve`` with the zero term: ``method`` is
    ``direct``, ``cg`` or ``auto`` (see ``resolve_method``).  The
    returned field carries exact zeros on the boundary.  The relative
    residual is always checked against ``tol``; a solve that cannot meet
    it raises SolverError carrying the achieved residual.
    """
    # semilinear imports this module, so its names are looked up here
    from .semilinear import nonlinearity_family, picard_solve

    return picard_solve(op, f, nonlinearity_family("zero"), tol,
                        method=method, maxiter_factor=maxiter_factor).field
