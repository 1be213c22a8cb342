"""The anisotropic limit problem, solved on the X2 block of the operator.

For every node of the scaled-axes (X1) lattice, boundary columns included,
the retained block A22 drives an independent Dirichlet problem on that
slice's retained-axes box; the X1 coordinate enters only as a parameter.
Stacked slice by slice, these problems are the X2 block of the operator
on the node set extended by one node at each X1 end, which
``fd_ops.operator_blocks`` assembles once as ``OperatorBlocks.limit``
(the same assembly gives the sweep rows their ``L22``).  No entry couples
two slices, and no boundary condition is imposed in the X1 directions:
the limit field is generally nonzero on X1 faces.

``semilinear_limit(blocks, f, a)`` solves  -div(A22 grad u) = a(u) + f
on all slices at once by the residual-gated Newton of ``semilinear``,
from the solve of f + a(0); every slice keeps its own gate
|M x - b| / |b| <= tol and line search.  Under ``auto`` or ``cg`` a
symmetric limit matrix is never factored: ``solver.pcg`` runs every
slice as one block, preconditioned by fast diagonalization with the
slice's own a_dd means (``OperatorBlocks.limit_means``), to ``tol`` for
the starting solve and to the forcing term min(1e-2, relative residual)
of each slice for a Newton step.  ``direct``, or a matrix that is not
symmetric, factors the limit matrix once per call with the full
problem's ordering rule, and the Jacobian once per Newton step where a'
does not vanish.  ``solve_limit`` is the zero-term case: Newton takes no
step when every slice's starting solve meets ``tol``, and gives a slice
that misses it further steps (reusing the one factorization on the
direct route) before SolverError names the slice.

``iter_slice_systems`` yields the same systems one slice at a time; it is
the reference the block operator is checked against.
"""

from __future__ import annotations

import numpy as np

from .coefficients import CoefficientField
from .errors import ConfigError
from .fd_ops import (OperatorBlocks, assemble_flux_matrix, factor_matrix,
                     is_symmetric)
from .grid import Grid, ScalarField
from .semilinear import (MAX_FORCING, Nonlinearity, PicardResult, _newton,
                         jacobian, nonlinearity_family)
from .solver import fast_diagonal_preconditioner, iteration_cap, pcg

__all__ = ["solve_limit", "semilinear_limit", "iter_slice_systems"]


def iter_slice_systems(grid: Grid, coeffs: CoefficientField,
                       f: ScalarField):
    """Yield ``(x1_index, matrix, rhs, scatter)`` for every X1 lattice node.

    ``scatter(values, out)`` writes a slice solution (interior unknowns of
    the slice, row-major) into the full node array ``out``.
    """
    if coeffs.grid != grid or f.grid != grid:
        raise ConfigError("grid mismatch between coefficients, forcing, grid")
    q = grid.q
    x2 = grid.x2_axes
    sub_cells = tuple(grid.cells[a] for a in x2)
    sub_spacing = tuple(grid.spacing[a] for a in x2)
    sub_interior = tuple(slice(1, n) for n in sub_cells)
    a22 = coeffs.x2_block()
    x1_nodes = tuple(grid.cells[a] + 1 for a in range(q))
    for x1_index in np.ndindex(*x1_nodes):
        entries = a22[(slice(None), slice(None)) + x1_index]
        matrix = assemble_flux_matrix(sub_cells, sub_spacing, entries)
        rhs = f.values[x1_index][sub_interior].reshape(-1)

        def scatter(values, out, x1_index=x1_index):
            block = out[x1_index]
            block[sub_interior] = values.reshape(
                tuple(n - 1 for n in sub_cells))

        yield x1_index, matrix, rhs, scatter


def semilinear_limit(blocks: OperatorBlocks, f: ScalarField,
                     a: Nonlinearity, tol: float = 1e-10,
                     max_iter: int = 200, method: str = "direct",
                     maxiter_factor: float = 20.0) -> PicardResult:
    """Limit field of the semilinear problem, every slice gated on its own.

    Solves on ``blocks.limit`` by the route ``method`` names (see the
    module docstring), ``direct`` by default as in ``solve_dirichlet``;
    ``maxiter_factor`` caps each batched CG solve at
    ``solver.iteration_cap`` of one slice's unknowns.  Reported
    iterations and residual are the worst over all slices.
    """
    grid = blocks.grid
    if f.grid != grid:
        raise ConfigError("forcing lives on a different grid")
    if method not in ("auto", "cg", "direct"):
        raise ConfigError(f"unknown solver method '{method}'")
    matrix = blocks.limit
    symmetric = is_symmetric(matrix)
    x1_nodes = tuple(grid.cells[a] + 1 for a in grid.x1_axes)
    slices = int(np.prod(x1_nodes))
    # every X1 node, faces included, times the interior X2 nodes
    unknowns = ((slice(None),) * grid.q
                + tuple(slice(1, grid.cells[a]) for a in grid.x2_axes))
    rhs = f.values[unknowns].reshape(-1)
    start = rhs + a(np.zeros_like(rhs))

    if symmetric and method != "direct":
        x2 = grid.x2_axes
        precond = fast_diagonal_preconditioner(
            [grid.cells[ax] for ax in x2], [grid.spacing[ax] for ax in x2],
            blocks.limit_means)
        cap = iteration_cap(rhs.size // slices, maxiter_factor)

        def solve(M, b, forcing):
            return pcg(M, b.reshape(slices, -1), precond, forcing,
                       cap)[0].ravel()

        def step(u, F, rel):
            # slices already within tol take no step; a zero right-hand
            # side freezes them at once.  J keeps the limit's symmetry and
            # slice means, hence its preconditioner
            b = np.where((rel <= tol)[:, None], 0.0, -F.reshape(slices, -1))
            return solve(jacobian(matrix, a, u), b,
                         np.minimum(MAX_FORCING, rel))

        u = solve(matrix, start, tol)
    else:
        lu = factor_matrix(matrix, symmetric)

        def step(u, F, rel):
            # with a' = 0 the Jacobian is the limit matrix itself
            if not a.deriv(u).any():
                return lu.solve(-F)
            return factor_matrix(jacobian(matrix, a, u),
                                 symmetric).solve(-F)

        u = lu.solve(start)

    def where(k):
        index = np.unravel_index(k, x1_nodes)
        return f"slice {tuple(int(i) for i in index)}: "

    u, iters, rel = _newton(matrix, rhs, a, u, step, tol, max_iter,
                            blocks=slices, where=where)
    out = np.zeros(grid.node_shape)
    out[unknowns] = u.reshape(out[unknowns].shape)
    return PicardResult(field=ScalarField(grid, out),
                        iterations=int(iters.max()),
                        residual=float(rel.max()))


def solve_limit(blocks: OperatorBlocks, f: ScalarField,
                tol: float = 1e-10, method: str = "direct",
                maxiter_factor: float = 20.0) -> ScalarField:
    """Linear limit field u0: ``semilinear_limit`` with the zero term.

    The result vanishes on the retained-axes faces (slice Dirichlet data)
    but not, in general, on the X1 faces.
    """
    return semilinear_limit(blocks, f, nonlinearity_family("zero"), tol,
                            method=method,
                            maxiter_factor=maxiter_factor).field
