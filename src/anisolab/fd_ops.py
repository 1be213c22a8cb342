"""Centered second-order difference operators and sparse assembly.

Derivative fields are defined at nodes that are interior along every
differentiated axis; the unused face entries are stored as zeros and never
enter mask quadrature (masks keep at least one cell of margin).

The divergence-form operator  -sum_ij d_i(a_ij d_j u)  is assembled over
interior unknowns only, with homogeneous Dirichlet data folded in by
dropping links to boundary nodes: diagonal terms use arithmetic face
averages of a_ii on half-integer faces, mixed terms use the composition of
centered first differences.  The operator is a fixed stencil of at most
3^N offsets, and the assembled matrix is that stencil itself, a
``Stencil``: the box of unknowns, the offsets in increasing flat order,
and one coefficient row per offset over the box, zero where the
neighbour lies outside it.  Terms that meet at one offset are summed in
assembly order.  Its ``@`` is one contiguous window of the padded vector
per offset, summed in the order a CSR matvec sums a sorted row, so it
equals the product with the canonical CSR bit for bit.

For a symmetric entry table the assembled matrix is symmetric by
construction, and so is it for any constant table: only a_ij + a_ji
reaches each corner coupling.  So an operator's ``symmetric`` flag is the
exact symmetry of its matrix, read off the stencil (the entry at offset o
from node i against the one at -o from i + o), not off the table; the
flag picks CG under ``auto`` and the LU ordering.

The operator is linear in its table, and the limit problem is its X2
block: ``operator_blocks`` lays the full grid's stencil out once, and
every offset other than the centre lies in one of the X1 x X1, mixed and
X2 x X2 blocks.  ``OperatorBlocks.at(eps)`` scales each offset's row by
its block's power of eps, the centre row's X1 and X2 parts kept apart.
The limit operator is the X2 stencil over every X1 node: a
``SparseOperator`` like every row's, whose first q axes are batch axes,
one decoupled block per X1 node.

CG's preconditioner inverts a separable fit of the table's diagonal,
``SeparableFit``: each a_dd as its node mean times one profile per axis,
normalized axis means of the table.  ``assemble_operator`` and
``operator_blocks`` compute it from the table with the means; its axis
pencils, one dense numpy ``eigh`` per non-flat axis, are built when a CG
solve first asks for them.

scipy is imported only for an LU: ``factor_matrix`` lays a stencil out as
canonical CSR (``_stencil_csr``, which loads ``scipy.sparse``; the
pattern is laid out once per stencil layout, the data per matrix) and
factors it with ``scipy.sparse.linalg``.  Assembly, ``at(eps)``, the
matvec and every CG solve never load the sparse stack, and neither do
the difference kernels and the post-processing that uses only them
(norms, metric, translation modulus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .coefficients import CoefficientField, scaling_factors
from .errors import ConfigError
from .grid import Grid, ScalarField, grid_interior_slices

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

__all__ = [
    "Stencil",
    "SparseOperator",
    "grad_axis",
    "hess_component",
    "assemble_operator",
    "assemble_flux_matrix",
    "operator_blocks",
    "OperatorBlocks",
    "SeparableFit",
    "apply_nondivergence",
    "factor_matrix",
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
    return _strides(grid.node_shape)


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


def _strides(shape: Sequence[int]) -> tuple[int, ...]:
    """Flat (C-order) step of one index along each axis of ``shape``."""
    return tuple(math.prod(shape[a + 1:]) for a in range(len(shape)))


def _flat(offset: Sequence[int], strides: Sequence[int]) -> int:
    """Flat (C-order) step of a whole-index offset."""
    return sum(o * s for o, s in zip(offset, strides))


def _valid_box(offset: Sequence[int], shape: Sequence[int]
               ) -> tuple[slice, ...]:
    """Rows of a box of unknowns whose neighbour at ``offset`` is in it."""
    return tuple(slice(max(0, -o), n - max(0, o))
                 for o, n in zip(offset, shape))


class Stencil:
    """A fixed-stencil matrix over a row-major box of unknowns.

    ``offsets`` are the stencil's offsets over the axes of ``box``, in
    increasing flat (C-order) offset ``flats``, and row k of ``rows``
    (shape ``(len(offsets), unknowns)``) is offset k's coefficient over
    the flattened box: matrix row i holds ``rows[k, i]`` in column
    i + ``flats[k]``.  A coefficient whose neighbour lies outside the box
    is zero and not an entry of the matrix; ``nnz`` counts the others, the
    entries its canonical CSR stores (``_stencil_csr``), zeros included.

    ``A @ x`` reads one contiguous window of a zero-padded copy of ``x``
    per offset, in increasing flat order: the order in which a CSR matvec
    sums a row of sorted columns.  An out-of-box slot adds an exact zero,
    so for finite ``x`` the product equals the CSR one bit for bit.
    ``matvec`` writes the same product into the caller's array, through
    the caller's ``workspace``.  The CSR pattern is laid out once per
    layout, box and offsets, and shared by every stencil ``with_rows``
    derives from this one.  So are its held solve buffers (``buffer``,
    ``held_workspace``), which ``share_buffers`` extends to a stencil of
    another layout.
    """

    def __init__(self, box: Sequence[int],
                 offsets: Sequence[tuple[int, ...]], rows: np.ndarray):
        self.box = tuple(int(n) for n in box)
        self.offsets = tuple(tuple(int(o) for o in key) for key in offsets)
        self.rows = rows
        strides = _strides(self.box)
        self.flats = tuple(_flat(key, strides) for key in self.offsets)
        self._pad = max(map(abs, self.flats), default=0)
        # the CSR pattern, laid out on first use
        self._layout: dict = {}
        # the solve buffers (``buffer``), made on first use
        self._buffers: dict[str, np.ndarray] = {}

    @property
    def shape(self) -> tuple[int, int]:
        n = math.prod(self.box)
        return n, n

    @property
    def nnz(self) -> int:
        return sum(math.prod(max(0, n - abs(o))
                             for o, n in zip(key, self.box))
                   for key in self.offsets)

    @property
    def centre(self) -> int | None:
        """Index of the zero offset, the diagonal, or None."""
        zero = (0,) * len(self.box)
        return self.offsets.index(zero) if zero in self.offsets else None

    def with_rows(self, rows: np.ndarray) -> Stencil:
        """The same stencil with other coefficients, sharing this one's
        layout and buffers."""
        other = Stencil(self.box, self.offsets, rows)
        other._layout = self._layout
        other._buffers = self._buffers
        return other

    def __matmul__(self, x) -> np.ndarray:
        return self.matvec(x, np.empty(self.shape[0]), self.workspace())

    def workspace(self) -> tuple[np.ndarray, np.ndarray]:
        """The buffers of ``matvec``: a zero-padded vector and a scratch
        row, for any stencil of this layout."""
        n = self.shape[0]
        return np.zeros(n + 2 * self._pad), np.empty(n)

    def held_workspace(self) -> tuple[np.ndarray, np.ndarray]:
        """A ``workspace`` of held buffers: the padded vector, its ends
        zeroed on every call, and the scratch row, ``buffer("scratch")``."""
        n, pad = self.shape[0], self._pad
        padded = self.buffer("padded", n + 2 * pad)
        padded[:pad] = 0.0
        padded[pad + n:] = 0.0
        return padded, self.buffer("scratch")

    def buffer(self, name: str, size: int | None = None) -> np.ndarray:
        """The held array of ``size`` floats (default ``shape[0]``) named
        ``name``, uninitialized.

        Later requests for ``name`` from any stencil that shares this
        one's buffers return the same memory, as its last user left it:
        every stencil ``with_rows`` derives from this one does, and so
        does any stencil joined by ``share_buffers``.  The array is a
        view of the first ``size`` floats of one made for the largest
        request so far.  Solves keep their vectors here, so that every
        row of a sweep and every Jacobian of a solve reuse one set: two
        solves on stencils sharing buffers must not run at the same time.
        """
        size = self.shape[0] if size is None else size
        held = self._buffers.get(name)
        if held is None or len(held) < size:
            held = self._buffers[name] = np.empty(size)
        return held[:size]

    def share_buffers(self, other: Stencil) -> None:
        """Let ``other`` and the stencils sharing its buffers take theirs
        from this stencil's ``buffer``."""
        other._buffers = self._buffers

    def matvec(self, x, out: np.ndarray,
               work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """``self @ x`` written into ``out``, which is returned.

        Allocates nothing: ``x`` is copied into the padded vector of
        ``work`` (``workspace``), whose ends stay zero, and every offset's
        product goes through its scratch row.
        """
        n, pad = self.shape[0], self._pad
        x = np.asarray(x)
        if x.shape != (n,):
            raise ValueError(f"matvec of a {self.shape} stencil with a "
                             f"vector of shape {x.shape}")
        if not self.offsets:
            out[:] = 0.0
            return out
        padded, scratch = work
        padded[pad:pad + n] = x
        windows = [padded[pad + f:pad + f + n] for f in self.flats]
        np.multiply(self.rows[0], windows[0], out=out)
        for row, window in zip(self.rows[1:], windows[1:]):
            np.multiply(row, window, out=scratch)
            out += scratch
        return out


@dataclass(frozen=True, eq=False)
class SeparableFit:
    """The separable fit of a table's diagonal that CG's preconditioner
    inverts: ``a_dd(x) ~ c_d profile[d](x_d) prod_{e != d} weight[e](x_e)``.

    c_d is the node mean of a_dd (the operator's ``means``), which
    carries every scaling, so one fit serves every epsilon.  The profile
    of a_dd along axis e is its node mean over every other axis divided
    by c_d.  ``profile[d]`` is a_dd's own along axis d, over the nodes of
    that axis; ``weight[e]`` is the geometric mean of the other a_dd's
    along axis e, over its interior nodes.  None stands for a flat
    profile, all ones: a constant table is flat on every axis, and so is
    any table with a nonpositive or non-finite a_dd, whose fit stays the
    node means.  The fit is exact for a 2-D table whose a_dd are each a
    product of one function per axis.
    """

    spacing: tuple[float, ...]
    profile: tuple[np.ndarray | None, ...]
    weight: tuple[np.ndarray | None, ...]

    @cached_property
    def pencils(self) -> tuple[tuple[np.ndarray, np.ndarray] | None, ...]:
        """Per axis d, None where both profiles are flat, else ``(V, lam)``.

        ``V`` and ``lam`` are the eigenpairs of the 1-D pencil of axis d,
        the flux operator ``T`` of ``profile[d]`` (arithmetic face means,
        Dirichlet ends, as ``assemble_flux_matrix``) against
        ``W = diag(weight[d])``: ``V^T T V = diag(lam)`` and
        ``V^T W V = I``, from one ``eigh`` of ``W^-1/2 T W^-1/2``
        (Lynch, Rice & Thomas 1964).  Built on first use, then kept.
        """
        out = []
        for p, w, h in zip(self.profile, self.weight, self.spacing):
            if p is None and w is None:
                out.append(None)
                continue
            m = len(p) - 2 if w is None else len(w)
            p = np.ones(m + 2) if p is None else p
            faces = (p[:-1] + p[1:]) / (2 * h ** 2)
            t = (np.diag(faces[:-1] + faces[1:])
                 - np.diag(faces[1:-1], 1) - np.diag(faces[1:-1], -1))
            s = np.ones(m) if w is None else 1.0 / np.sqrt(w)
            lam, q = np.linalg.eigh(s[:, None] * t * s)
            v = s[:, None] * q
            v.flags.writeable = False
            out.append((v, lam))
        return tuple(out)

    @cached_property
    def transposes(self) -> tuple[np.ndarray | None, ...]:
        """Per axis, ``V^T`` of its pencil laid out C-contiguous, None
        where ``pencils`` has None: a transposed right factor is slow in
        BLAS at some sizes.  Built on first use, then kept."""
        out = []
        for pencil in self.pencils:
            vt = None
            if pencil is not None:
                vt = np.ascontiguousarray(pencil[0].T)
                vt.flags.writeable = False
            out.append(vt)
        return tuple(out)


def _separable_fit(spacing: Sequence[float],
                   entries: np.ndarray) -> SeparableFit:
    """The ``SeparableFit`` of an entry table's diagonal."""
    n = entries.shape[0]
    diagonal = [entries[d, d] for d in range(n)]
    # profiles[d][e]: a_dd's profile along axis e, None where flat; a
    # nonpositive or non-finite a_dd leaves every profile flat
    profiles = [[None] * n for _ in range(n)]
    if all(np.all(np.isfinite(a)) and a.min() > 0 for a in diagonal):
        for d, a in enumerate(diagonal):
            mean = a.mean()
            for e in range(n):
                m = a.mean(axis=tuple(x for x in range(n) if x != e))
                if not np.all(m == m[0]):
                    profiles[d][e] = m / mean
    weight = []
    for e in range(n):
        cross = [profiles[d][e] for d in range(n)
                 if d != e and profiles[d][e] is not None]
        weight.append(np.prod(cross, axis=0)[1:-1] ** (1.0 / (n - 1))
                      if cross else None)
    return SeparableFit(spacing=tuple(float(h) for h in spacing),
                        profile=tuple(profiles[d][d] for d in range(n)),
                        weight=tuple(weight))


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """Assembled operator on a grid's unknowns, row-major node order.

    The first ``batch`` axes of the grid index decoupled blocks: every
    node along them is an unknown, and each carries its own problem on
    the interior of the other axes, the block box.  A full grid has
    ``batch = 0``, one block over its interior; the limit
    (``OperatorBlocks.limit``) has ``batch = q``, one block per X1 node.
    ``unknowns`` are the slices of a node array that hold them.

    ``matrix`` is the operator's ``Stencil``; ``symmetric`` is its exact
    symmetry, read off the stencil.  Row b of ``means`` holds the node
    means of each a_dd over block b and ``fit`` is the separable fit of
    the diagonal, None where flat on every axis: together they are the
    tables the CG preconditioner inverts.  ``factor`` returns a fresh LU
    on every call.
    """

    matrix: Stencil
    grid: Grid
    symmetric: bool
    means: np.ndarray
    fit: SeparableFit | None = None
    batch: int = 0

    @property
    def n_unknowns(self) -> int:
        return self.matrix.shape[0]

    @property
    def unknowns(self) -> tuple[slice, ...]:
        return ((slice(None),) * self.batch
                + tuple(slice(1, n) for n in self.grid.cells[self.batch:]))

    def apply(self, u: ScalarField) -> ScalarField:
        """Operator action on a field assumed to vanish off the unknowns."""
        if u.grid != self.grid:
            raise ConfigError("field lives on a different grid")
        out = np.zeros(self.grid.node_shape)
        out[self.unknowns] = (self.matrix @ u.values[self.unknowns].reshape(
            -1)).reshape(self.matrix.box)
        return ScalarField(self.grid, out)

    def factor(self) -> spla.SuperLU:
        return factor_matrix(self.matrix, self.symmetric)


def _csr_pattern(matrix: Stencil
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kept slots, ``indices`` and ``indptr`` of a stencil's CSR.

    The offsets are taken in increasing flat order, one slot of every row
    each, and a slot is kept where its neighbour lies in the box;
    compressing the kept slots row by row gives sorted columns, each
    row's count of them gives ``indptr``, and the column of a slot is its
    row plus the flat offset.  Indices are int32 where they fit.  Laid
    out once per layout and read-only: every Jacobian of a Newton solve
    and every row of a sweep shares it.
    """
    if "csr" not in matrix._layout:
        shape = matrix.box
        n = matrix.shape[0]
        k = len(matrix.offsets)
        kept = np.zeros((k,) + shape, dtype=bool)
        for slot, key in enumerate(matrix.offsets):
            kept[(slot,) + _valid_box(key, shape)] = True
        kept = kept.reshape(k, n).T
        counts = kept.sum(axis=1)
        nnz = int(counts.sum())
        idx = (np.int32 if max(nnz, n) <= np.iinfo(np.int32).max
               else np.int64)
        indptr = np.zeros(n + 1, dtype=idx)
        indptr[1:] = np.cumsum(counts)
        indices = (np.arange(n, dtype=idx)[:, None]
                   + np.array(matrix.flats, dtype=idx))[kept]
        for array in (kept, indices, indptr):
            array.flags.writeable = False
        matrix._layout["csr"] = kept, indices, indptr
    return matrix._layout["csr"]


def _stencil_csr(matrix: Stencil) -> sp.csr_matrix:
    """Canonical CSR of a stencil matrix, the one CSR layout.

    Its pattern is the layout's (``_csr_pattern``), copied so that the
    matrix is the caller's to edit; only ``data`` is gathered from the
    rows.  Only an LU needs it (``factor_matrix``), so only an LU loads
    scipy.sparse.
    """
    import scipy.sparse as sp

    n = matrix.shape[0]
    kept, indices, indptr = _csr_pattern(matrix)
    csr = sp.csr_matrix((matrix.rows.T[kept], indices.copy(),
                         indptr.copy()), shape=(n, n))
    csr.has_canonical_format = True
    return csr


def factor_matrix(matrix: Stencil, symmetric: bool) -> spla.SuperLU:
    """Sparse LU with the ordering chosen by the matrix's symmetry.

    A symmetric matrix of an elliptic table is positive definite, so it
    is factored in SuperLU's symmetric mode: minimum-degree ordering of
    ``A + A^T`` and diagonal pivots, the standard choice for SPD systems
    (about a third less fill than COLAMD on the 2-D operators).  Other
    matrices keep the COLAMD column ordering with partial pivoting.  Both
    orderings are pinned, so factorizations are reproducible.
    """
    import scipy.sparse.linalg as spla

    csc = _stencil_csr(matrix).tocsc()
    if symmetric:
        return spla.splu(csc, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    return spla.splu(csc, permc_spec="COLAMD")


def _flux_terms(spacings: Sequence[float], entries: np.ndarray,
                batch: int = 0):
    """The terms of the flux-form stencil, in assembly order.

    ``entries`` has shape (m, m, *nodes).  The last m node axes carry the
    stencil and their interior nodes are unknowns; the first ``batch``
    only stack independent problems, every node an unknown.  Yields
    ``(offset, d1, coeff)``: the offset over all node axes as a tuple,
    the row d1 of the table entry the term comes from, and its
    coefficient over the box of unknowns.  All-zero entry tables yield
    nothing.
    """
    m = entries.shape[0]
    nodes = entries.shape[2:]
    eye = np.eye(batch + m, dtype=int)[batch:]
    zero = np.zeros(batch + m, dtype=int)

    def shifted(a, offset):
        return a[(slice(None),) * batch
                 + _node_block(nodes[batch:], offset[batch:])]

    def key(offset):
        return tuple(offset.tolist())

    for d in range(m):
        a = entries[d, d]
        if not np.any(a):
            continue
        e = eye[d]
        a_c = shifted(a, zero)
        h2 = spacings[d] ** 2
        w_p = (a_c + shifted(a, e)) / (2 * h2)
        w_m = (a_c + shifted(a, -e)) / (2 * h2)
        yield key(zero), d, w_p + w_m
        yield key(e), d, -w_p
        yield key(-e), d, -w_m

    for d1 in range(m):
        for d2 in range(m):
            if d1 == d2:
                continue
            a = entries[d1, d2]
            if not np.any(a):
                continue
            e1, e2 = eye[d1], eye[d2]
            w = 4 * spacings[d1] * spacings[d2]
            c_p = shifted(a, e1) / w
            c_m = shifted(a, -e1) / w
            yield key(e1 + e2), d1, -c_p
            yield key(e1 - e2), d1, c_p
            yield key(-e1 + e2), d1, c_m
            yield key(-e1 - e2), d1, -c_m


def _add_term(stencil: dict, key: tuple[int, ...], coeff: np.ndarray):
    """Sum ``coeff`` into the coefficient of ``key``, in arrival order."""
    stencil[key] = stencil[key] + coeff if key in stencil else coeff


def _stencil_rows(shape: Sequence[int], stencil: dict) -> Stencil:
    """The ``Stencil`` of a stencil over a row-major box of unknowns.

    ``stencil`` maps each offset to its coefficient over the box.  The
    offsets are taken in increasing flat order, and each coefficient is
    copied into its row where the neighbour lies in the box, the rest of
    the row left zero.  ``stencil`` is emptied as its arrays are copied,
    so no coefficient is held twice.
    """
    shape = tuple(shape)
    strides = _strides(shape)
    keys = sorted(stencil, key=lambda key: _flat(key, strides))
    rows = np.zeros((len(keys),) + shape)
    for row, key in zip(rows, keys):
        box = _valid_box(key, shape)
        row[box] = stencil.pop(key)[box]
    return Stencil(shape, keys, rows.reshape(len(keys), math.prod(shape)))


def _stencil_symmetric(shape: Sequence[int], stencil: dict) -> bool:
    """Exact symmetry of ``_stencil_rows(shape, stencil)``, read off the
    stencil: the entry at offset o from node i equals the one at -o from
    i + o (a missing offset reads as zero)."""
    for key, coeff in stencil.items():
        back = tuple(-o for o in key)
        if back in stencil and back < key:
            continue  # the pair was checked from its other side
        mirror = (stencil[back][_valid_box(back, shape)]
                  if back in stencil else 0.0)
        if not np.all(coeff[_valid_box(key, shape)] == mirror):
            return False
    return True


def _flux_operator(spacings: Sequence[float], entries: np.ndarray,
                   batch: int = 0) -> tuple[Stencil, bool]:
    """The flux-form matrix of ``_flux_terms`` and its exact symmetry."""
    stencil: dict = {}
    for offset, _, coeff in _flux_terms(
            tuple(float(h) for h in spacings), entries, batch):
        _add_term(stencil, offset, coeff)
    nodes = entries.shape[2:]
    shape = nodes[:batch] + tuple(n - 2 for n in nodes[batch:])
    symmetric = _stencil_symmetric(shape, stencil)
    return _stencil_rows(shape, stencil), symmetric


def assemble_flux_matrix(cells: Sequence[int], spacings: Sequence[float],
                         entries: np.ndarray) -> Stencil:
    """Core flux-form assembly on an m-dimensional sub-box.

    ``entries`` has shape (m, m, *nodes) with nodes = cells + 1 per axis.
    Returns the stencil matrix over interior unknowns.  All-zero entry
    tables add no offset, not even stored zeros, so the matrix couples
    only nodes that a nonzero coefficient links.
    """
    entries = np.asarray(entries, dtype=float)
    nodes = tuple(int(n) + 1 for n in cells)
    if entries.shape != (len(nodes),) * 2 + nodes:
        raise ConfigError(f"entry table shape {entries.shape} does not "
                          f"match cells {tuple(cells)}")
    return _flux_operator(spacings, entries)[0]


def _diagonal_means(entries: np.ndarray, batch: int = 0) -> np.ndarray:
    """Row b: the node means of each a_dd over block b, the blocks being
    the nodes of the table's first ``batch`` axes."""
    blocks = math.prod(entries.shape[2:2 + batch])
    return np.stack([entries[d, d].reshape(blocks, -1).mean(axis=1)
                     for d in range(entries.shape[0])], axis=1)


def assemble_operator(grid: Grid, coeffs: CoefficientField) -> SparseOperator:
    """Divergence-form operator for the given (possibly scaled) table."""
    if coeffs.grid != grid:
        raise ConfigError("coefficients live on a different grid")
    entries = coeffs.entries
    matrix, symmetric = _flux_operator(grid.spacing, entries)
    return SparseOperator(matrix=matrix, grid=grid, symmetric=symmetric,
                          means=_diagonal_means(entries),
                          fit=_separable_fit(grid.spacing, entries))


# the block of a stencil offset: the X2 x X2, mixed and X1 x X1 labels
# are the power of eps that scales it
X2_BLOCK, MIXED_BLOCK, X1_BLOCK, DIAGONAL = range(4)


def _block_of(offset: tuple[int, ...], q: int) -> int:
    """The block label of a stencil offset."""
    x1, x2 = any(offset[:q]), any(offset[q:])
    if x1:
        return MIXED_BLOCK if x2 else X1_BLOCK
    return X2_BLOCK if x2 else DIAGONAL


@dataclass(frozen=True, eq=False)
class OperatorBlocks:
    """The unscaled operator split by coefficient block, and its limit.

    ``unscaled`` is the operator of the unscaled table, ``at(1)``.  Every
    offset of its stencil but the centre lies in one block,
    ``X1_BLOCK``, ``MIXED_BLOCK`` or ``X2_BLOCK`` (``_block_of``); the
    centre, the diagonal, is the one offset that two blocks share, and
    ``d11`` and ``d22`` are its X1 and X2 parts over the unknowns.  The
    exact symmetry of every block, hence of every ``at(eps)``, is
    ``unscaled.symmetric``, and every ``at(eps)`` shares its ``fit``.

    ``limit`` is the X2 block as an operator batched over the X1 axes
    (``batch = q``): its unknowns are the X2 interiors of every X1 node,
    faces included, slice-major, no entry couples two slices, and row k
    of its ``means`` holds the X2 a_dd means over slice k.  Its fit is
    flat.  The rows of ``unscaled`` and ``limit`` are read-only: every
    operator ``at`` returns holds its own, and nothing here is written
    to after assembly.
    """

    grid: Grid
    unscaled: SparseOperator
    d11: np.ndarray
    d22: np.ndarray
    limit: SparseOperator

    def at(self, epsilon: float) -> SparseOperator:
        """``eps^2 L11 + eps L12 + L22``, the operator of the scaled table:
        each offset's row times eps to the power of its block, and the
        centre row ``eps^2 d11 + d22``."""
        fac = scaling_factors(self.grid.ndim, self.grid.q, epsilon)
        pattern = self.unscaled.matrix
        powers = np.array([1.0, epsilon, epsilon ** 2, 0.0])[
            [_block_of(key, self.grid.q) for key in pattern.offsets]]
        rows = pattern.rows * powers[:, None]
        centre = pattern.centre
        if centre is not None:
            np.multiply(self.d11, epsilon ** 2, out=rows[centre])
            rows[centre] += self.d22
        return replace(self.unscaled, matrix=pattern.with_rows(rows),
                       means=np.diag(fac) * self.unscaled.means)


def operator_blocks(grid: Grid, coeffs: CoefficientField) -> OperatorBlocks:
    """Assemble the block operators once: two stencil layouts.

    The full-grid stencil of the entry table is laid out once as
    ``unscaled``, the X1 and X2 terms of its diagonal summed apart as
    ``d11`` and ``d22``; every other offset lies in one block.
    ``limit`` is the stencil of the A22 table over every X1 node, each X1
    node one slice.
    """
    if coeffs.grid != grid:
        raise ConfigError("coefficients live on a different grid")
    entries = coeffs.entries
    q, n = grid.q, grid.ndim
    shape = grid.interior_shape
    spacings = tuple(float(h) for h in grid.spacing)
    stencil: dict = {}
    parts: list[dict] = [{}, {}]
    zero = (0,) * n
    # the diagonal sums its X1 and its X2 terms apart; every other offset
    # lies in one block, so all its terms scale alike
    for offset, d1, coeff in _flux_terms(spacings, entries):
        _add_term(stencil if any(offset) else parts[d1 >= q], offset, coeff)
    d11, d22 = (p.get(zero, np.zeros(shape)) for p in parts)
    if parts[0] or parts[1]:
        stencil[zero] = d11 + d22
    else:
        d11 = d22 = np.zeros(0)
    symmetric = _stencil_symmetric(shape, stencil)
    unscaled = SparseOperator(
        matrix=_stencil_rows(shape, stencil), grid=grid,
        symmetric=symmetric, means=_diagonal_means(entries),
        fit=_separable_fit(spacings, entries))
    a22 = coeffs.x2_block()
    matrix, limit_symmetric = _flux_operator(
        [spacings[a] for a in grid.x2_axes], a22, batch=q)
    limit = SparseOperator(matrix=matrix, grid=grid,
                           symmetric=limit_symmetric,
                           means=_diagonal_means(a22, q), batch=q)
    # every row and the limit solve share these: an in-place edit of one
    # would reach them all, so it raises instead
    for op in (unscaled, limit):
        op.matrix.rows.flags.writeable = False
    # a sweep solves the limit and then each row: one set of solve
    # buffers serves them all
    unscaled.matrix.share_buffers(limit.matrix)
    return OperatorBlocks(grid=grid, unscaled=unscaled,
                          d11=d11.ravel(), d22=d22.ravel(), limit=limit)


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
