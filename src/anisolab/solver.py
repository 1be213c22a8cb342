"""Every solve of the lab, by one residual-gated Newton driver.

A full-grid row, a semilinear row and the linear and semilinear limit
are one problem: ``L u = a(u) + f`` on the unknowns of one
``fd_ops.SparseOperator``, split into B decoupled equal blocks, a full
grid being B = 1 and the limit, batched over its X1 axes, one block per
X1 node (``limit.semilinear_limit``); a linear solve is the zero term.
``newton_solve`` runs it (Kelley, *Iterative Methods for Linear and
Nonlinear Equations*, SIAM 1995, ch. 6).  From u = 0 every step solves
``J du = -F`` with ``J = L + diag(-a'(u))`` (one copy of the stored rows
of L's stencil, ``fd_ops.Stencil``, per solve, each step taking a'(u) off
its centre row), then halves the step of each block until its |F|
decreases by the Armijo rule (c = 1e-4).  A block stops once
|F| / |f + a(u)| is at most ``tol``; a solve that has not met it after
``MAX_NEWTON_STEPS`` (200) steps raises SolverError carrying the
residual.  A linear solve's first step is the solve to ``tol`` itself,
and a step that misses it is followed by another step from the iterate.

The route is picked once per solve, by ``op.symmetric``, the exact
symmetry of the assembled matrix.  Symmetric matrices run by
preconditioned conjugate gradients, one batched ``pcg`` per step over
every block, with a hard cap of ``ceil(CG_CAP_FACTOR * sqrt(unknowns
per block))`` iterations (CG_CAP_FACTOR = 20); a block the cap leaves
short of its test raises SolverError.  A block's CG stops at the
forcing term ``tol / rel``, ``rel`` its relative residual, where a'
vanishes, so that a linear step lands within ``tol``, and elsewhere at
the Eisenstat-Walker term ``min(1e-2, rel)`` floored at ``0.5 tol /
rel`` (Kelley 1995, sec. 6.3), so that the last step solves no further
below the gate than it needs.  Other matrices take the direct route:
each step factors its J by sparse LU with COLAMD ordering and partial
pivoting (``fd_ops.factor_matrix``), and a linear solve meets ``tol``
on its first step.  Reports record the route as ``cg`` or ``direct``.

``pcg`` is one numpy conjugate-gradient loop over ``B`` independent equal
blocks of a block-diagonal system, each block with its own step lengths
and stopping test, all applied through one stencil matvec.

The working set of a solve lives in the held buffers of its stencil
(``Stencil.buffer`` and ``Stencil.held_workspace``): Newton's iterate,
trial iterate, residual and step right-hand side, CG's four vectors, the
matvec's padded vector and the one scratch row that the matvec, the
preconditioner, the updates and the norms take in turn.  Every stencil
``with_rows`` derives shares its buffers, and ``operator_blocks`` lets
the limit share the rows' (``Stencil.share_buffers``), so the rows of a
sweep, their Jacobians and its limit run on one set, made by the first
solve.  A later solve allocates only its preconditioner's eigenvalues,
its Jacobian's rows and the iterate it returns, which the caller owns,
and its steps only a'(u), a(u) and the step CG returns.  Two solves on
one set of buffers must not run at the same time.

CG is preconditioned by fast diagonalization (Lynch, Rice & Thomas 1964):
the preconditioner of a block is the flux operator of a separable
diagonal table, ``a_dd(x) ~ c_d p_dd(x_d) prod_{e != d} R_e(x_e)``.  c_d
is the node mean of the block's scaled a_dd (its row of ``op.means``),
and the axis profiles p_dd and R_e are ``op.fit``: a full grid's
``fd_ops.SeparableFit``, while the limit's fit is None, so that its
slices keep flat ones.  Such an operator is a sum of
Kronecker products, which one generalized eigendecomposition per axis
diagonalizes: on a flat axis the orthonormal DST-I, whose sine matrices
are built once per size and shared; on any other the axis pencil, one
dense ``eigh`` per ``operator_blocks`` (``SeparableFit.pencils``, and
each V^T laid out once, ``SeparableFit.transposes``), built on the
first CG solve and shared by every epsilon, whose scaling only moves
c_d.  Either way the inverse costs one transform per axis each
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

__all__ = ["solve_dirichlet", "newton_solve", "pcg",
           "fast_diagonal_preconditioner"]

# Armijo sufficient-decrease constant and the most halvings of one step
ARMIJO = 1e-4
MAX_HALVINGS = 30
# the largest forcing term of a CG Newton step, and the floor of a
# nonlinear one, FORCING_FLOOR * tol / rel
MAX_FORCING = 1e-2
FORCING_FLOOR = 0.5
# the most Newton steps of a solve, and the factor of CG's cap: one CG
# solve runs at most ceil(CG_CAP_FACTOR * sqrt(n)) steps on blocks of n
# unknowns
MAX_NEWTON_STEPS = 200
CG_CAP_FACTOR = 20.0


def __getattr__(name: str):
    # the first lookup of ``spla`` imports scipy.sparse.linalg and keeps it
    # as a plain module attribute
    if name == "spla":
        import scipy.sparse.linalg as spla

        globals()["spla"] = spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _apply_axes(x: np.ndarray, mats, targets=None) -> np.ndarray:
    """One matrix along every axis of ``x`` but the first, which indexes
    blocks.

    ``mats[d]`` is a pair ``(right, left)`` of one matrix M for axis
    d + 1: ``right`` is M^T and ``left`` is M, so that a sine matrix,
    symmetric, is passed as itself twice.  Each box axis is one stack of
    matrix products over the axes around it, so every product is a BLAS
    matrix multiply whatever the layout.  With ``targets``, a pair of
    arrays of ``x``'s size that ``x`` is neither of, the products are
    written into them in turn, the first into ``targets[0]``, and
    nothing is allocated.
    """
    shape = x.shape
    for d, (right, left) in enumerate(mats, start=1):
        before = math.prod(shape[:d])
        after = math.prod(shape[d + 1:])
        out = None if targets is None else targets[(d - 1) % 2]
        if after == 1:
            # right-multiplying transforms the last axis of every block
            # at once
            x = np.matmul(x.reshape(before, shape[d]), right, out=(
                None if out is None else out.reshape(before, shape[d])))
        else:
            box = (before, shape[d], after)
            x = np.matmul(left, x.reshape(box),
                          out=None if out is None else out.reshape(box))
    return x.reshape(shape)


def fast_diagonal_preconditioner(cells: Sequence[int],
                                 spacing: Sequence[float],
                                 means, fit: SeparableFit | None = None,
                                 work: np.ndarray | None = None
                                 ) -> Callable[..., np.ndarray]:
    """Exact inverses of separable diagonal tables, one per block.

    Every block is the interior of one box of ``cells`` cells and
    ``spacing`` spacings; row b of ``means``, shape ``(B, len(cells))``,
    with ``fit`` (``fd_ops.SeparableFit``; None is flat on every axis,
    as for the limit slices) is block b's table.  The returned callable
    maps residuals of shape ``(B, n)`` to preconditioned ones of the same
    shape: ``precond(r)`` returns a new array, ``precond(r, out=z)``
    writes into ``z`` and returns it.  Its transforms alternate between
    ``z`` and one scratch array of ``r``'s size, ``work`` where given
    (neither ``r`` nor ``z``), else one of its own per call.  An axis
    whose fit is flat has the DST-I modes as eigenvectors and the
    eigenvalues ``(4 / h_d^2) sin^2(pi k_d / (2 n_d))``; any other axis
    has its pencil's (``SeparableFit.pencils``).  Block b's eigenvalue is
    the sum over axes of ``means[b, d]`` times axis d's; a nonpositive
    one raises SolverError, since the preconditioner must be positive
    definite for CG.
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
            vt = fit.transposes[d]
            forward.append((v, vt))
            inverse.append((vt, v))
        lam += (means[:, d].reshape((-1,) + (1,) * len(shape))
                * lam_d.reshape(along_d))
    if not lam.min() > 0:
        block = np.unravel_index(np.argmin(lam), lam.shape)[0]
        raise SolverError(
            f"fast-diagonalization preconditioner has eigenvalue "
            f"{lam.min():.3e} <= 0 (axis means {tuple(means[block])})")

    def solve(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        z = np.empty(lam.shape) if out is None else out.reshape(lam.shape)
        scratch = (np.empty(lam.shape) if work is None
                   else work.reshape(lam.shape))
        targets = (scratch, z)
        y = _apply_axes(np.reshape(r, lam.shape), forward, targets)
        np.divide(y, lam, out=y)
        # forward's last product is in z for an even number of axes;
        # the inverse starts on the other array, so that its last is too
        _apply_axes(y, inverse, targets if len(shape) % 2 == 0
                    else targets[::-1])
        return z.reshape(len(lam), -1)

    return solve


def pcg(matrix, b: np.ndarray, precond: Callable[..., np.ndarray],
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
    matvec and ``precond(r, out=z)`` (``fast_diagonal_preconditioner``)
    once.  Runs at most ``maxiter`` steps from zero and returns a copy
    of the iterate, shape ``(B, n)``, the steps each block took, and the
    mask of the blocks that were still short of their test when the cap
    stopped them.

    The loop's vectors are buffers of ``matrix`` (``Stencil.buffer``,
    ``Stencil.held_workspace``), which ``b`` must not be, so its steps
    allocate nothing of ``b``'s size: the preconditioned residual shares
    ``q``'s array, which the matvec overwrites only once ``p`` has taken
    it, and the matvec's scratch row is also the scratch of the updates
    and of the norms.  ``newton_solve`` keeps its trial iterate and
    residual in ``x`` and ``r`` between its CG solves.
    """
    b = np.asarray(b, dtype=float)
    nblocks = len(b)
    work = matrix.held_workspace()
    x, r, p, q = (matrix.buffer(name).reshape(b.shape)
                  for name in ("pcg.x", "pcg.r", "pcg.p", "pcg.q"))
    scratch = work[1].reshape(b.shape)

    def dot(u, v):
        return np.einsum("ij,ij->i", u, v)

    def norms(v):
        # np.linalg.norm(v, axis=1), through the scratch row
        return np.sqrt(np.add.reduce(np.multiply(v, v, out=scratch),
                                     axis=1))

    target = np.asarray(tol, dtype=float) * norms(b)
    x[...] = 0.0
    r[...] = b
    steps = np.zeros(nblocks, dtype=int)
    active = ~(norms(r) <= target)
    # with p = 0 the first beta multiplies nothing, so rz may start at 1
    p[...] = 0.0
    rz = np.ones(nblocks)
    for _ in range(maxiter):
        if not active.any():
            break
        z = precond(r, out=q)
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
        x += np.multiply(alpha[:, None], p, out=scratch)
        r -= np.multiply(alpha[:, None], q, out=scratch)
        steps += active
        active &= ~(norms(r) <= target)
    return x.copy(), steps, active


def jacobian(matrix: Stencil, deriv: np.ndarray,
             into: Stencil | None = None) -> Stencil:
    """``L + diag(-a'(u))`` from ``deriv = a'(u)``: symmetric when ``L``
    is.

    A copy of ``L``'s stored rows (half the offsets of a symmetric ``L``,
    ``Stencil.stored``) with ``deriv`` subtracted from the centre row,
    the diagonal; a stencil without a centre row raises ConfigError.
    ``into``, a Jacobian of ``matrix`` made here before, is reused: only
    its centre row is rewritten, its other rows being ``L``'s still.
    """
    centre = matrix.centre
    if centre is None:
        raise ConfigError("the Jacobian needs the matrix's diagonal, the "
                          "centre of its stencil")
    if into is None:
        into = matrix.with_rows(matrix.rows.copy())
    np.subtract(matrix.rows[centre], deriv, out=into.rows[centre])
    return into


def newton_solve(op: SparseOperator, rhs: np.ndarray, a: Nonlinearity,
                 tol: float = 1e-10
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual-gated Newton for ``L u = a(u) + rhs`` from u = 0.

    ``L`` is ``op.matrix`` and ``rhs`` holds the values at its unknowns,
    which split into ``len(op.means)`` equal, decoupled blocks, each the
    interior of the box of ``op.grid``'s axes after its ``op.batch``
    batch axes; row b of ``op.means`` holds block b's a_dd means, which
    with ``op.fit`` form the table its CG preconditioner inverts
    (``fast_diagonal_preconditioner``).  ``op.symmetric`` picks CG or
    the LU, and CG and Newton run under the module's caps (see the
    module docstring).  Each block has its own residual gate, forcing
    term and line search, and is frozen once it meets its gate; an error
    that names a block of a batched operator names it by its batch-axes
    node, ``slice (i, j)``.
    Returns a copy of the iterate, the steps taken per block and the
    final relative residuals.

    The iterate, its trial value, the residual and the step's right-hand
    side are buffers of ``op.matrix``, and so is the preconditioner's
    scratch (see the module docstring); the solve's one Jacobian, made
    on the first step where a' is nonzero, is a copy of the rows whose
    centre row every later step rewrites.
    """
    matrix, batch = op.matrix, op.batch
    cg = op.symmetric
    blocks = len(op.means)
    # the matvec's scratch row is also the step's, the norms' and the
    # preconditioner's scratch
    work = matrix.held_workspace()
    scratch = work[1]
    if cg:
        precond = fast_diagonal_preconditioner(
            op.grid.cells[batch:], op.grid.spacing[batch:], op.means, op.fit,
            work=scratch)
        cap = int(np.ceil(CG_CAP_FACTOR * np.sqrt(rhs.size // blocks)))
    jac = None

    def where(k):
        if not batch:
            return ""
        index = np.unravel_index(k, op.grid.node_shape[:batch])
        return f"slice {tuple(int(i) for i in index)}: "

    def norms(v):
        # one block takes the whole vector's norm, np.linalg.norm(v);
        # more take np.linalg.norm(axis=1), through the scratch row
        if blocks == 1:
            return np.array([np.linalg.norm(v)])
        np.multiply(v, v, out=scratch)
        return np.sqrt(np.add.reduce(scratch.reshape(blocks, -1), axis=1))

    # the trial iterate and the residual are spent while CG runs, so
    # they take pcg's x and r
    u, b, trial_u, F = (matrix.buffer(name) for name in (
        "newton.u", "newton.b", "pcg.x", "pcg.r"))
    # at u = 0 the residual is -(rhs + a(0)): no matvec
    u[...] = 0.0
    np.add(rhs, a(u), out=b)
    np.negative(b, out=F)
    norm_F = norms(b)
    norm_b = norm_F
    iters = np.zeros(blocks, dtype=int)
    m = 0
    while True:
        # |F| / |b|, and the absolute |F| where b = 0: there is nothing
        # to be relative to
        rel = np.divide(norm_F, norm_b, out=norm_F.copy(),
                        where=norm_b > 0)
        active = ~(rel <= tol)
        if not active.any():
            return u.copy(), iters, rel
        if m == MAX_NEWTON_STEPS:
            k = int(np.flatnonzero(active)[0])
            raise SolverError(
                f"{where(k)}Newton exhausted {m} steps at residual "
                f"{rel[k]:.3e}", residual=float(rel[k]))
        deriv = a.deriv(u)
        # where a' vanishes the Jacobian is the matrix itself
        J = matrix
        if deriv.any():
            J = jac = jacobian(matrix, deriv, jac)
        # the step's right-hand side -F, in b until the line search
        step_rhs = np.negative(F, out=b)
        if cg:
            floor = np.divide(FORCING_FLOOR * tol, rel,
                              out=np.zeros(blocks), where=active)
            forcing = np.maximum(np.minimum(MAX_FORCING, rel), floor)
            np.divide(tol, rel, out=forcing, where=active & ~deriv.reshape(
                blocks, -1).any(axis=1))
            # blocks already within tol take a zero right-hand side and
            # no step
            step_rhs = step_rhs.reshape(blocks, -1)
            step_rhs[~active] = 0.0
            du, _, capped = pcg(J, step_rhs, precond, forcing, cap)
            if capped.any():
                k = int(np.flatnonzero(capped)[0])
                # block k's relative residual of the linearized problem
                # after the capped step (the true one where a' = 0); F
                # was pcg's r, and is -step_rhs in block k
                left = (norms(J @ du.ravel() - step_rhs.ravel())[k]
                        / norm_F[k] * rel[k])
                raise SolverError(f"{where(k)}cg exhausted {cap} iterations",
                                  residual=float(left))
        else:
            du = factor_matrix(J).solve(step_rhs)
        du = du.reshape(blocks, -1)
        t = active.astype(float)
        for _ in range(MAX_HALVINGS):
            np.multiply(t[:, None], du, out=scratch.reshape(blocks, -1))
            np.add(u, scratch, out=trial_u)
            np.add(rhs, a(trial_u), out=b)
            # F is spent once the step is solved: each trial overwrites it
            matrix.matvec(trial_u, F, work)
            F -= b
            trial_norm_F, trial_norm_b = norms(F), norms(b)
            short = trial_norm_F > (1.0 - ARMIJO * t) * norm_F
            if not short.any():
                break
            t[short] /= 2.0
        else:
            k = int(np.flatnonzero(short)[0])
            raise SolverError(
                f"{where(k)}Newton line search found no decrease in "
                f"{MAX_HALVINGS} halvings at residual {rel[k]:.3e}",
                residual=float(rel[k]))
        u[...] = trial_u
        norm_F, norm_b = trial_norm_F, trial_norm_b
        m += 1
        iters[active] = m


def solve_dirichlet(op: SparseOperator, f: ScalarField,
                    tol: float = 1e-10) -> ScalarField:
    """Solve ``L u = f`` over interior unknowns, boundary held at zero.

    ``semilinear.picard_solve`` with the zero term: CG on a symmetric
    operator, one LU of any other.  The returned field carries exact zeros on the boundary.  The relative
    residual is always checked against ``tol``; a solve that cannot meet
    it raises SolverError carrying the achieved residual.
    """
    # semilinear imports this module, so its names are looked up here
    from .semilinear import nonlinearity_family, picard_solve

    return picard_solve(op, f, nonlinearity_family("zero"), tol).field
