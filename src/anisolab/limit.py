"""The anisotropic limit problem as one block-diagonal operator.

For every node of the scaled-axes (X1) lattice, boundary columns included,
the retained block A22 drives an independent Dirichlet problem on that
slice's retained-axes box; the X1 coordinate enters only as a parameter.
Stacked slice by slice, these problems form the X2 block of the full
operator on the node set extended by one node at each X1 end: a single
flux-form assembly whose A11 and A12 tables are zero, so no entry couples
two slices.  The block-diagonal matrix is assembled once, factored once
with the full problem's ordering rule, and solved with one back-solve.
No boundary condition is imposed in the X1 directions: the assembled limit
field is generally nonzero on X1 faces.

``iter_slice_systems`` yields the same systems one slice at a time; it is
the reference the block operator is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import CoefficientField
from .errors import ConfigError, SolverError
from .fd_ops import assemble_flux_matrix, factor_matrix, symmetric_table
from .grid import Grid, ScalarField

__all__ = ["solve_limit", "limit_operator", "LimitOperator",
           "iter_slice_systems"]


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


@dataclass
class LimitOperator:
    """Block-diagonal limit operator, one block per X1 lattice node.

    Unknowns are ordered slice-major: X1 node (row-major over all X1
    nodes, faces included), then the slice's interior X2 nodes.  ``lu``
    factors the whole matrix once.
    """

    matrix: sp.csr_matrix
    grid: Grid
    lu: spla.SuperLU

    @property
    def x1_nodes(self) -> tuple[int, ...]:
        return tuple(self.grid.cells[a] + 1 for a in self.grid.x1_axes)

    @property
    def n_slices(self) -> int:
        return int(np.prod(self.x1_nodes))

    def _x2_interior(self) -> tuple[slice, ...]:
        return ((slice(None),) * self.grid.q
                + tuple(slice(1, self.grid.cells[a])
                        for a in self.grid.x2_axes))

    def vector(self, f: ScalarField) -> np.ndarray:
        """Slice-major values of ``f`` at the unknowns."""
        if f.grid != self.grid:
            raise ConfigError("forcing lives on a different grid")
        return f.values[self._x2_interior()].reshape(-1)

    def field(self, x: np.ndarray) -> ScalarField:
        """Node field holding ``x`` at the unknowns and zero elsewhere."""
        out = np.zeros(self.grid.node_shape)
        inner = self._x2_interior()
        out[inner] = x.reshape(out[inner].shape)
        return ScalarField(self.grid, out)

    def slice_norms(self, x: np.ndarray) -> np.ndarray:
        """Euclidean norm of each slice's part of a flat vector."""
        return np.linalg.norm(x.reshape(self.n_slices, -1), axis=1)

    def slice_index(self, k: int) -> tuple[int, ...]:
        """X1 lattice index of slice number ``k``."""
        return tuple(int(i) for i in np.unravel_index(k, self.x1_nodes))


def limit_operator(grid: Grid, coeffs: CoefficientField) -> LimitOperator:
    """Assemble and factor the block-diagonal limit operator.

    One flux-form assembly on the grid extended by one node at each X1
    end, whose interior then holds every X1 node.  Only the A22 entries
    are kept; the zero A11 and A12 tables store nothing, so the matrix is
    exactly the per-slice matrices placed on the diagonal.
    """
    if coeffs.grid != grid:
        raise ConfigError("coefficients live on a different grid")
    q, n = grid.q, grid.ndim
    cells = tuple(c + 2 if a < q else c for a, c in enumerate(grid.cells))
    entries = np.zeros((n, n) + tuple(c + 1 for c in cells))
    inner = tuple(slice(1, -1) if a < q else slice(None) for a in range(n))
    entries[(slice(q, None), slice(q, None)) + inner] = coeffs.x2_block()
    matrix = assemble_flux_matrix(cells, grid.spacing, entries)
    return LimitOperator(matrix=matrix, grid=grid,
                         lu=factor_matrix(matrix, symmetric_table(entries)))


def solve_limit(grid: Grid, coeffs: CoefficientField, f: ScalarField,
                tol: float = 1e-10) -> ScalarField:
    """Limit field u0: independent retained-axes solves at every X1 node.

    The result vanishes on the retained-axes faces (slice Dirichlet data)
    but not, in general, on the X1 faces.  All slices are solved at once
    through the block-diagonal operator; each slice's relative residual is
    still checked against ``tol`` on its own.
    """
    op = limit_operator(grid, coeffs)
    rhs = op.vector(f)
    x = op.lu.solve(rhs)
    res = op.slice_norms(op.matrix @ x - rhs)
    scale = op.slice_norms(rhs)
    res = np.divide(res, scale, out=res, where=scale > 0)
    bad = np.flatnonzero(~(res <= tol))
    if bad.size:
        k = int(bad[0])
        raise SolverError(
            f"slice {op.slice_index(k)}: residual {res[k]:.3e} "
            f"above {tol:g}", residual=float(res[k]))
    return op.field(x)
