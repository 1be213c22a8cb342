"""The anisotropic limit problem, solved on the X2 block of the operator.

For every node of the scaled-axes (X1) lattice, boundary columns included,
the retained block A22 drives an independent Dirichlet problem on that
slice's retained-axes box; the X1 coordinate enters only as a parameter.
Stacked slice by slice, these problems are the X2 block of the operator
on the node set extended by one node at each X1 end, which
``fd_ops.operator_blocks`` assembles once as ``OperatorBlocks.limit``: a
``fd_ops.SparseOperator`` batched over the X1 axes (``batch = q``), the
X2 stencil over every X1 node, each X1 node one block.  On the
X1-interior slices it is the X2 part of every sweep row's operator.  No
entry couples two slices, and no boundary condition is imposed in the
X1 directions: the limit field is generally nonzero on X1 faces.

``semilinear_limit(blocks, f, a)`` solves  -div(A22 grad u) = a(u) + f
on all slices at once: it is ``semilinear.picard_solve`` on
``blocks.limit``, as a sweep row is on its own operator.  Every slice
keeps its own gate |M x - b| / |b| <= tol, its own line search and, on
the CG route, its own forcing term and preconditioner (the slice's a_dd
means, its row of ``blocks.limit.means``).  The route follows the exact
symmetry of the limit matrix, ``blocks.limit.symmetric``, and the caps
on CG and Newton are those of the full grid.  ``solve_limit`` is the
zero-term case: its first Newton step is the solve to ``tol``, and a
slice that misses it takes further steps before SolverError names the
slice.

``iter_slice_systems`` yields the same systems one slice at a time, each
matrix a stencil of its own; it is the reference the block operator is
checked against.  Neither the limit solve on the CG route nor a residual
of a slice system loads ``scipy.sparse``: both apply stencils only.
"""

from __future__ import annotations

import numpy as np

from .coefficients import CoefficientField
from .errors import ConfigError
from .fd_ops import OperatorBlocks, assemble_flux_matrix
from .grid import Grid, ScalarField
from .semilinear import (Nonlinearity, PicardResult, nonlinearity_family,
                         picard_solve)

__all__ = ["solve_limit", "semilinear_limit", "iter_slice_systems"]


def iter_slice_systems(grid: Grid, coeffs: CoefficientField,
                       f: ScalarField):
    """Yield ``(x1_index, matrix, rhs, scatter)`` for every X1 lattice node.

    ``matrix`` is the slice's ``fd_ops.Stencil`` over its X2 interior.

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
                     a: Nonlinearity, tol: float = 1e-10) -> PicardResult:
    """Limit field of the semilinear problem, every slice gated on its own:
    ``semilinear.picard_solve`` on ``blocks.limit``.

    Each batched CG solve is capped by one slice's unknowns (see
    ``solver.newton_solve``).  Reported iterations and residual are the
    worst over all slices.
    """
    return picard_solve(blocks.limit, f, a, tol)


def solve_limit(blocks: OperatorBlocks, f: ScalarField,
                tol: float = 1e-10) -> ScalarField:
    """Linear limit field u0: ``semilinear_limit`` with the zero term.

    The result vanishes on the retained-axes faces (slice Dirichlet data)
    but not, in general, on the X1 faces.
    """
    return semilinear_limit(blocks, f, nonlinearity_family("zero"),
                            tol).field
