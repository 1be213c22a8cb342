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
from the back-solve of f + a(0); every slice keeps its own gate
|M x - b| / |b| <= tol and line search.  The limit matrix is factored
once per call, with the full problem's ordering rule.  ``solve_limit`` is
the zero-term case: Newton takes no step when every slice's back-solve
meets ``tol``, and gives a slice that misses it iterative-refinement
steps on the same factorization before SolverError names the slice.

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
from .semilinear import (Nonlinearity, PicardResult, _newton, jacobian,
                         nonlinearity_family)

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
                     max_iter: int = 200) -> PicardResult:
    """Limit field of the semilinear problem, every slice gated on its own.

    Solves on ``blocks.limit``, factored once for the starting back-solve;
    a Newton step reuses that factorization where a' vanishes, and
    otherwise factors the block-diagonal Jacobian.  Reported iterations
    and residual are the worst over all slices.
    """
    grid = blocks.grid
    if f.grid != grid:
        raise ConfigError("forcing lives on a different grid")
    matrix = blocks.limit
    symmetric = is_symmetric(matrix)
    x1_nodes = tuple(grid.cells[a] + 1 for a in grid.x1_axes)
    # every X1 node, faces included, times the interior X2 nodes
    unknowns = ((slice(None),) * grid.q
                + tuple(slice(1, grid.cells[a]) for a in grid.x2_axes))
    rhs = f.values[unknowns].reshape(-1)
    lu = factor_matrix(matrix, symmetric)

    def step(u, F, rel):
        # with a' = 0 the Jacobian is the limit matrix itself
        if not a.deriv(u).any():
            return lu.solve(-F)
        return factor_matrix(jacobian(matrix, a, u), symmetric).solve(-F)

    def where(k):
        index = np.unravel_index(k, x1_nodes)
        return f"slice {tuple(int(i) for i in index)}: "

    u, iters, rel = _newton(
        matrix, rhs, a, lu.solve(rhs + a(np.zeros_like(rhs))), step, tol,
        max_iter, blocks=int(np.prod(x1_nodes)), where=where)
    out = np.zeros(grid.node_shape)
    out[unknowns] = u.reshape(out[unknowns].shape)
    return PicardResult(field=ScalarField(grid, out),
                        iterations=int(iters.max()),
                        residual=float(rel.max()))


def solve_limit(blocks: OperatorBlocks, f: ScalarField,
                tol: float = 1e-10) -> ScalarField:
    """Linear limit field u0: ``semilinear_limit`` with the zero term.

    The result vanishes on the retained-axes faces (slice Dirichlet data)
    but not, in general, on the X1 faces.
    """
    return semilinear_limit(blocks, f, nonlinearity_family("zero"),
                            tol).field
