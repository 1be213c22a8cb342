"""Centered second-order difference operators and sparse assembly.

Derivative fields are defined at nodes that are interior along every
differentiated axis; the unused face entries are stored as zeros and never
enter mask quadrature (masks keep at least one cell of margin).

The divergence-form operator  -sum_ij d_i(a_ij d_j u)  is assembled over
interior unknowns only, with homogeneous Dirichlet data folded in by
dropping links to boundary nodes: diagonal terms use arithmetic face
averages of a_ii on half-integer faces, mixed terms use the composition of
centered first differences.  For a symmetric entry table the assembled
matrix is symmetric by construction, and so is it for any constant table:
only a_ij + a_ji reaches each corner coupling.  So an operator's
``symmetric`` flag is read off its assembled matrix (``is_symmetric``),
not off the table; the flag picks CG under ``auto`` and the LU ordering.

The operator is linear in its table, and the limit problem is its X2
block: ``operator_blocks`` assembles each block once, the X2 block as the
limit operator, from which the full grid's ``L22`` is cut.

scipy is imported where a sparse matrix is first built or factored:
``scipy.sparse`` inside ``assemble_flux_matrix`` and
``scipy.sparse.linalg`` inside ``factor_matrix``.  The difference
kernels, and the post-processing that uses only them (norms, metric,
translation modulus), never load the sparse stack, and ``SparseOperator``
and ``OperatorBlocks`` import without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .coefficients import CoefficientField, scaling_factors
from .errors import ConfigError
from .grid import Grid, ScalarField, grid_interior_slices

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

__all__ = [
    "SparseOperator",
    "grad_axis",
    "hess_component",
    "assemble_operator",
    "assemble_flux_matrix",
    "operator_blocks",
    "OperatorBlocks",
    "apply_nondivergence",
    "factor_matrix",
    "is_symmetric",
]


def _node_block(node_shape: Sequence[int], offset: Sequence[int]
                ) -> tuple[slice, ...]:
    """Slices picking the interior node block shifted by up to one node."""
    return tuple(slice(1 + o, n - 1 + o)
                 for o, n in zip(offset, node_shape))


def _flat_stencil(u: ScalarField, reach: int):
    """Output array and flat windows for a stencil of flat ``reach``.

    In C order a whole-node offset along axis a is a fixed step of
    ``stride_a`` flat positions, so every stencil term is one contiguous
    slice of the flattened field: ``at(k)`` is the field moved by k flat
    positions, aligned with the output window ``o``.  Window positions
    whose stencil wraps past a face of a differentiated axis are face
    nodes; the caller clears them with ``_zero_faces``.
    """
    v = np.ascontiguousarray(u.values).reshape(-1)
    n = v.size
    out = np.zeros(u.grid.node_shape)

    def at(k: int) -> np.ndarray:
        return v[reach + k:n - reach + k]

    return out, out.reshape(-1)[reach:n - reach], at


def _node_strides(grid: Grid) -> tuple[int, ...]:
    """Flat (C-order) step of one node along each axis."""
    return tuple(int(np.prod(grid.node_shape[a + 1:]))
                 for a in range(grid.ndim))


def _zero_faces(out: np.ndarray, axes) -> None:
    """Zero both boundary faces of ``out`` along each of ``axes``."""
    for a in axes:
        for end in (0, -1):
            face = [slice(None)] * out.ndim
            face[a] = end
            out[tuple(face)] = 0.0


def grad_axis(u: ScalarField, axis: int) -> ScalarField:
    """Centered first difference along one axis.

    The stencil is written straight into the output, one contiguous
    flat window per term, in the order ``(u[+1] - u[-1]) / (2 h)``.
    """
    grid = u.grid
    s = _node_strides(grid)[axis]
    out, o, at = _flat_stencil(u, s)
    np.subtract(at(s), at(-s), out=o)
    o /= 2 * grid.spacing[axis]
    _zero_faces(out, (axis,))
    return ScalarField(grid, out)


def hess_component(u: ScalarField, i: int, j: int) -> ScalarField:
    """Second difference d^2 u / dx_i dx_j.

    Pure components use the 3-point stencil, mixed ones the 4-point cross
    of centered first differences.  Nodes one cell off a face read the
    stored boundary values, so solution fields (boundary zero) stay
    consistent with the assembled operator.  The stencil is accumulated
    in the output array itself, one contiguous flat window per term, in
    the order written ``(u[+e] - 2 u + u[-e]) / h^2`` and ``(u[++] -
    u[+-] - u[-+] + u[--]) / (4 h_i h_j)``, so for a C-ordered field the
    only full-field allocation is the result.
    """
    grid = u.grid
    strides = _node_strides(grid)
    si, sj = strides[i], strides[j]
    if i == j:
        out, o, at = _flat_stencil(u, si)
        np.multiply(at(0), 2, out=o)
        np.subtract(at(si), o, out=o)
        o += at(-si)
        o /= grid.spacing[i] ** 2
    else:
        out, o, at = _flat_stencil(u, si + sj)
        np.subtract(at(si + sj), at(si - sj), out=o)
        o -= at(-si + sj)
        o += at(-si - sj)
        o /= 4 * grid.spacing[i] * grid.spacing[j]
    _zero_faces(out, {i, j})
    return ScalarField(grid, out)


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """Assembled operator over interior unknowns, row-major node order.

    ``symmetric`` is exact symmetry of ``matrix`` (``is_symmetric``).
    ``axis_means[d]`` is the node mean of the diagonal entry a_dd: the
    constant table they form is what the CG preconditioner inverts.
    ``factor`` returns a fresh LU on every call.
    """

    matrix: sp.csr_matrix
    grid: Grid
    symmetric: bool
    axis_means: tuple[float, ...]

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
        return factor_matrix(self.matrix, self.symmetric)


def is_symmetric(matrix: sp.spmatrix) -> bool:
    """Exact symmetry of an assembled matrix: no entry differs from its
    transpose."""
    return (matrix != matrix.T).nnz == 0


def factor_matrix(matrix: sp.spmatrix, symmetric: bool) -> spla.SuperLU:
    """Sparse LU with the ordering chosen by the matrix's symmetry.

    A symmetric matrix of an elliptic table is positive definite, so it
    is factored in SuperLU's symmetric mode: minimum-degree ordering of
    ``A + A^T`` and diagonal pivots, the standard choice for SPD systems
    (about a third less fill than COLAMD on the 2-D operators).  Other
    matrices keep the COLAMD column ordering with partial pivoting.  Both
    orderings are pinned, so factorizations are reproducible.
    """
    import scipy.sparse.linalg as spla

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
    import scipy.sparse as sp

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


def _axis_means(entries: np.ndarray) -> tuple[float, ...]:
    return tuple(float(entries[d, d].mean())
                 for d in range(entries.shape[0]))


def assemble_operator(grid: Grid, coeffs: CoefficientField) -> SparseOperator:
    """Divergence-form operator for the given (possibly scaled) table."""
    if coeffs.grid != grid:
        raise ConfigError("coefficients live on a different grid")
    entries = coeffs.entries
    matrix = assemble_flux_matrix(grid.cells, grid.spacing, entries)
    return SparseOperator(matrix=matrix, grid=grid,
                          symmetric=is_symmetric(matrix),
                          axis_means=_axis_means(entries))


@dataclass(frozen=True, eq=False)
class OperatorBlocks:
    """The unscaled operator split by coefficient block, and its limit.

    ``L11``, ``L12`` and ``L22`` are the X1 x X1, mixed and X2 x X2 block
    operators in canonical CSR.  ``limit`` is the X2 block on the grid
    extended by one node at each X1 end, so its unknowns are the X2
    interiors of every X1 node, faces included, slice-major; no entry
    couples two slices, and ``L22`` is its principal submatrix over the
    X1-interior slices.  The matrices are shared by every operator ``at``
    returns and never written to.  ``symmetric`` holds when each of
    ``L11``, ``L12`` and ``L22`` is exactly symmetric, so every ``at(eps)``
    sum is too.  ``axis_means`` are the node means of the unscaled a_dd,
    and row k of ``limit_means`` holds those of the X2 a_dd over slice k
    of ``limit``: the tables the CG preconditioners invert.
    """

    grid: Grid
    L11: sp.csr_matrix
    L12: sp.csr_matrix
    L22: sp.csr_matrix
    limit: sp.csr_matrix
    symmetric: bool
    axis_means: np.ndarray
    limit_means: np.ndarray

    def at(self, epsilon: float) -> SparseOperator:
        """``eps^2 L11 + eps L12 + L22``, the operator of the scaled table."""
        fac = scaling_factors(self.grid.ndim, self.grid.q, epsilon)
        matrix = epsilon ** 2 * self.L11 + epsilon * self.L12 + self.L22
        means = tuple(float(m) for m in np.diag(fac) * self.axis_means)
        return SparseOperator(matrix=matrix, grid=self.grid,
                              symmetric=self.symmetric,
                              axis_means=means)


def operator_blocks(grid: Grid, coeffs: CoefficientField) -> OperatorBlocks:
    """Assemble the block operators once: three flux-form assemblies.

    ``L11`` and ``L12`` are assemblies of the entry table with the other
    blocks zeroed; the scaled operator is the sum of the blocks times
    eps^2, eps and 1.  ``limit`` is the assembly of the A22 table alone on
    the grid extended by one node at each X1 end, whose interior holds
    every X1 node, and ``L22`` is cut from it.
    """
    if coeffs.grid != grid:
        raise ConfigError("coefficients live on a different grid")
    entries = coeffs.entries
    q, n = grid.q, grid.ndim
    in_x1 = np.arange(n) < q
    # 0 for X1 x X1 entries, 1 for mixed ones
    block = 2 - in_x1[:, None].astype(int) - in_x1[None, :]
    expand = (1,) * n
    L11, L12 = (assemble_flux_matrix(
                    grid.cells, grid.spacing,
                    np.where((block == k).reshape(block.shape + expand),
                             entries, 0.0))
                for k in range(2))
    cells = tuple(c + 2 if a < q else c for a, c in enumerate(grid.cells))
    padded = np.zeros((n, n) + tuple(c + 1 for c in cells))
    inner = tuple(slice(1, -1) if a < q else slice(None) for a in range(n))
    a22 = coeffs.x2_block()
    padded[(slice(q, None), slice(q, None)) + inner] = a22
    limit = assemble_flux_matrix(cells, grid.spacing, padded)
    # slice-major unknowns: the X1-interior slices are the full grid's,
    # in the full grid's order
    keep = np.arange(limit.shape[0]).reshape(
        tuple(c + 1 for c in grid.cells[:q]) + (-1,))
    keep = keep[(slice(1, -1),) * q].ravel()
    L22 = limit[keep][:, keep]
    L22.sort_indices()
    slices = int(np.prod(a22.shape[2:2 + q]))
    limit_means = np.stack([a22[d, d].reshape(slices, -1).mean(axis=1)
                            for d in range(n - q)], axis=1)
    return OperatorBlocks(grid=grid, L11=L11, L12=L12, L22=L22, limit=limit,
                          symmetric=all(map(is_symmetric, (L11, L12, L22))),
                          axis_means=np.array(_axis_means(entries)),
                          limit_means=limit_means)


def apply_nondivergence(coeffs: CoefficientField,
                        u: ScalarField) -> ScalarField:
    """Expanded-form action  -sum a_ij d2_ij u - sum (d_i a_ij) d_j u.

    The coefficient derivatives d_i a_ij are centered differences of the
    entry table (``grad_axis``), so any table works.  Used to cross-check
    the divergence-form assembly on smooth fields, never to solve.
    """
    grid = u.grid
    if coeffs.grid != grid:
        raise ConfigError("coefficients live on a different grid")
    acc = np.zeros(grid.node_shape)
    for j in range(grid.ndim):
        gj = grad_axis(u, j).values
        for i in range(grid.ndim):
            a_ij = ScalarField(grid, coeffs.entries[i, j])
            acc -= grad_axis(a_ij, i).values * gj
            acc -= coeffs.entries[i, j] * hess_component(u, i, j).values
    out = np.zeros(grid.node_shape)
    ints = grid_interior_slices(grid)
    out[ints] = acc[ints]
    return ScalarField(grid, out)
