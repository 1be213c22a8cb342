"""Centered second-order difference operators and sparse assembly.

Derivative fields are defined at nodes that are interior along every
differentiated axis; the unused face entries are stored as zeros and never
enter mask quadrature (masks keep at least one cell of margin).

The divergence-form operator  -sum_ij d_i(a_ij d_j u)  is assembled over
interior unknowns only, with homogeneous Dirichlet data folded in by
dropping links to boundary nodes: diagonal terms use arithmetic face
averages of a_ii on half-integer faces, mixed terms use the composition of
centered first differences.  For a symmetric entry table the assembled
matrix is symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import CoefficientField, ScaledCoefficientField
from .errors import ConfigError
from .grid import Grid, ScalarField, grid_interior_slices

__all__ = [
    "SparseOperator",
    "grad_axis",
    "grad_x1",
    "grad_x2",
    "hess_component",
    "hess_x1",
    "hess_x2",
    "hess_x1x2",
    "assemble_operator",
    "assemble_flux_matrix",
    "apply_nondivergence",
    "factor_matrix",
    "symmetric_table",
]


def _node_block(node_shape: Sequence[int], offset: Sequence[int]
                ) -> tuple[slice, ...]:
    """Slices picking the interior node block shifted by up to one node."""
    return tuple(slice(1 + o, n - 1 + o)
                 for o, n in zip(offset, node_shape))


def grad_axis(u: ScalarField, axis: int) -> ScalarField:
    """Centered first difference along one axis."""
    grid = u.grid
    h = grid.spacing[axis]
    out = np.zeros(grid.node_shape)
    sl_c = [slice(None)] * grid.ndim
    sl_p = [slice(None)] * grid.ndim
    sl_m = [slice(None)] * grid.ndim
    n = grid.cells[axis]
    sl_c[axis] = slice(1, n)
    sl_p[axis] = slice(2, n + 1)
    sl_m[axis] = slice(0, n - 1)
    out[tuple(sl_c)] = (u.values[tuple(sl_p)] - u.values[tuple(sl_m)]) / (2 * h)
    return ScalarField(grid, out)


def grad_x1(u: ScalarField) -> list[ScalarField]:
    """Gradient components along the scaled axes (length q)."""
    return [grad_axis(u, a) for a in u.grid.x1_axes]


def grad_x2(u: ScalarField) -> list[ScalarField]:
    """Gradient components along the retained axes (length N - q)."""
    return [grad_axis(u, a) for a in u.grid.x2_axes]


def hess_component(u: ScalarField, i: int, j: int) -> ScalarField:
    """Second difference d^2 u / dx_i dx_j.

    Pure components use the 3-point stencil, mixed ones the 4-point cross
    of centered first differences.  Nodes one cell off a face read the
    stored boundary values, so solution fields (boundary zero) stay
    consistent with the assembled operator.
    """
    grid = u.grid
    v = u.values
    out = np.zeros(grid.node_shape)
    if i == j:
        h = grid.spacing[i]
        e = np.zeros(grid.ndim, dtype=int)
        e[i] = 1
        c = _axis_limited(grid, [i])
        out[c] = (v[_offset(grid, c, e)] - 2 * v[c]
                  + v[_offset(grid, c, -e)]) / h ** 2
        return ScalarField(grid, out)
    hi, hj = grid.spacing[i], grid.spacing[j]
    ei = np.zeros(grid.ndim, dtype=int)
    ej = np.zeros(grid.ndim, dtype=int)
    ei[i] = 1
    ej[j] = 1
    c = _axis_limited(grid, [i, j])
    out[c] = (v[_offset(grid, c, ei + ej)] - v[_offset(grid, c, ei - ej)]
              - v[_offset(grid, c, -ei + ej)]
              + v[_offset(grid, c, -ei - ej)]) / (4 * hi * hj)
    return ScalarField(grid, out)


def _axis_limited(grid: Grid, axes: Sequence[int]) -> tuple[slice, ...]:
    """All nodes, except interior-only along the listed axes."""
    sl = [slice(None)] * grid.ndim
    for a in axes:
        sl[a] = slice(1, grid.cells[a])
    return tuple(sl)


def _offset(grid: Grid, base: tuple[slice, ...], e: np.ndarray
            ) -> tuple[slice, ...]:
    out = []
    for a, s in enumerate(base):
        o = int(e[a])
        if o == 0:
            out.append(s)
        else:
            start = (s.start or 0) + o
            stop = (s.stop if s.stop is not None
                    else grid.node_shape[a]) + o
            out.append(slice(start, stop))
    return tuple(out)


def hess_x1(u: ScalarField) -> list[list[ScalarField]]:
    """q x q table of second differences along the scaled axes."""
    axes = u.grid.x1_axes
    return [[hess_component(u, i, j) for j in axes] for i in axes]


def hess_x2(u: ScalarField) -> list[list[ScalarField]]:
    """(N-q) x (N-q) table of second differences along the retained axes."""
    axes = u.grid.x2_axes
    return [[hess_component(u, i, j) for j in axes] for i in axes]


def hess_x1x2(u: ScalarField) -> list[list[ScalarField]]:
    """q x (N-q) table of mixed scaled/retained second differences."""
    return [[hess_component(u, i, j) for j in u.grid.x2_axes]
            for i in u.grid.x1_axes]


@dataclass
class SparseOperator:
    """Assembled operator over interior unknowns, row-major node order.

    ``note`` records the assembly route; ``symmetric`` reflects exact
    symmetry of the entry table.  The LU factorization is computed lazily
    and cached, so repeated solves (fixed-point iterations) reuse it.
    """

    matrix: sp.csr_matrix
    grid: Grid
    symmetric: bool
    note: str
    _lu: spla.SuperLU | None = dc_field(default=None, repr=False)

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[0]

    def apply(self, u: ScalarField) -> ScalarField:
        """Operator action on a field assumed to vanish on the boundary."""
        if u.grid != self.grid:
            raise ConfigError("field lives on a different grid")
        out = self.matrix @ u.interior_vector()
        return ScalarField.from_interior(self.grid, out)

    def factor(self) -> spla.SuperLU:
        if self._lu is None:
            self._lu = factor_matrix(self.matrix, self.symmetric)
        return self._lu

    def symmetry_defect(self) -> float:
        """max |L - L^T| / max |L| over stored entries."""
        diff = (self.matrix - self.matrix.T).tocoo()
        top = np.abs(diff.data).max() if diff.nnz else 0.0
        scale = np.abs(self.matrix.data).max()
        return float(top / scale)


def symmetric_table(entries: np.ndarray) -> bool:
    """Exact symmetry of an (m, m, ...) entry table, hence of its matrix."""
    m = entries.shape[0]
    return all(np.array_equal(entries[i, j], entries[j, i])
               for i in range(m) for j in range(i + 1, m))


def factor_matrix(matrix: sp.spmatrix, symmetric: bool) -> spla.SuperLU:
    """Sparse LU with the ordering chosen by the matrix's symmetry.

    A symmetric table gives a symmetric positive definite operator, so it
    is factored in SuperLU's symmetric mode: minimum-degree ordering of
    ``A + A^T`` and diagonal pivots, the standard choice for SPD systems
    (about a third less fill than COLAMD on the 2-D operators).  Other
    tables keep the COLAMD column ordering with partial pivoting.  Both
    orderings are pinned, so factorizations are reproducible.
    """
    if symmetric:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    return spla.splu(matrix.tocsc(), permc_spec="COLAMD")


def assemble_flux_matrix(cells: Sequence[int], spacings: Sequence[float],
                         entries: np.ndarray) -> sp.csr_matrix:
    """Core flux-form assembly on an m-dimensional sub-box.

    ``entries`` has shape (m, m, *nodes) with nodes = cells + 1 per axis.
    Returns the matrix over interior unknowns; usable both for full grids
    and for the block-diagonal limit operator.  All-zero entry tables add
    nothing, not even stored zeros, so the sparsity pattern couples only
    nodes that a nonzero coefficient links.
    """
    cells = tuple(int(n) for n in cells)
    spacings = tuple(float(h) for h in spacings)
    m = len(cells)
    node_shape = tuple(n + 1 for n in cells)
    S = tuple(n - 1 for n in cells)
    n_int = int(np.prod(S))
    index = np.arange(n_int).reshape(S)

    rows_acc: list[np.ndarray] = []
    cols_acc: list[np.ndarray] = []
    data_acc: list[np.ndarray] = []

    def valid_box(offset):
        return tuple(slice(max(0, -o), Sa - max(0, o))
                     for o, Sa in zip(offset, S))

    def shifted_box(offset):
        return tuple(slice(max(0, o), Sa - max(0, -o))
                     for o, Sa in zip(offset, S))

    def add(offset, coeff):
        box = valid_box(offset)
        rows_acc.append(index[box].ravel())
        cols_acc.append(index[shifted_box(offset)].ravel())
        data_acc.append(coeff[box].ravel())

    zero = np.zeros(m, dtype=int)
    for d in range(m):
        e = zero.copy()
        e[d] = 1
        a = entries[d, d]
        if not np.any(a):
            continue
        a_c = a[_node_block(node_shape, zero)]
        a_p = a[_node_block(node_shape, e)]
        a_m = a[_node_block(node_shape, -e)]
        h2 = spacings[d] ** 2
        w_p = (a_c + a_p) / (2 * h2)
        w_m = (a_c + a_m) / (2 * h2)
        add(zero, w_p + w_m)
        add(e, -w_p)
        add(-e, -w_m)

    for d1 in range(m):
        for d2 in range(m):
            if d1 == d2:
                continue
            a = entries[d1, d2]
            if not np.any(a):
                continue
            e1 = zero.copy()
            e1[d1] = 1
            e2 = zero.copy()
            e2[d2] = 1
            w = 4 * spacings[d1] * spacings[d2]
            c_p = a[_node_block(node_shape, e1)] / w
            c_m = a[_node_block(node_shape, -e1)] / w
            add(e1 + e2, -c_p)
            add(e1 - e2, c_p)
            add(-e1 + e2, c_m)
            add(-e1 - e2, -c_m)

    if not data_acc:
        return sp.csr_matrix((n_int, n_int))
    mat = sp.coo_matrix(
        (np.concatenate(data_acc),
         (np.concatenate(rows_acc), np.concatenate(cols_acc))),
        shape=(n_int, n_int))
    return mat.tocsr()


def assemble_operator(grid: Grid,
                      coeffs: CoefficientField | ScaledCoefficientField
                      ) -> SparseOperator:
    """Divergence-form operator for the given (possibly scaled) table."""
    if coeffs.grid != grid:
        raise ConfigError("coefficients live on a different grid")
    entries = coeffs.entries
    matrix = assemble_flux_matrix(grid.cells, grid.spacing, entries)
    symmetric = symmetric_table(entries)
    note = ("flux form: face-averaged diagonal terms, "
            "centered-composition mixed terms")
    return SparseOperator(matrix=matrix, grid=grid, symmetric=symmetric,
                          note=note)


def apply_nondivergence(coeffs: CoefficientField | ScaledCoefficientField,
                        u: ScalarField) -> ScalarField:
    """Expanded-form action  -sum a_ij d2_ij u - sum (d_i a_ij) d_j u.

    Needs the coefficient derivative tables; used to cross-check the
    divergence-form assembly on smooth fields, never to solve.
    """
    grid = u.grid
    if coeffs.grid != grid:
        raise ConfigError("coefficients live on a different grid")
    if coeffs.derivs is None:
        raise ConfigError(
            "expanded-form action needs coefficient derivative tables")
    acc = np.zeros(grid.node_shape)
    for j in range(grid.ndim):
        gj = grad_axis(u, j).values
        drift = np.sum(coeffs.derivs[:, j], axis=0)
        acc -= drift * gj
        for i in range(grid.ndim):
            acc -= coeffs.entries[i, j] * hess_component(u, i, j).values
    out = np.zeros(grid.node_shape)
    ints = grid_interior_slices(grid)
    out[ints] = acc[ints]
    return ScalarField(grid, out)
