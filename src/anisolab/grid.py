"""Tensor-product grids on axis-aligned boxes with a degenerate/retained axis split.

The first ``q`` axes form the X1 group (the directions whose diffusion is
scaled down), the remaining ``N - q`` axes form the X2 group.  Nodes along
axis ``a`` are ``lo_a + i * h_a`` for ``i = 0 .. cells_a``; indices 0 and
``cells_a`` are boundary nodes.  Fields carry values at every node and
row-major (C-order) layout is used whenever node values are flattened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ShiftError

__all__ = [
    "Grid",
    "ScalarField",
    "SubdomainMask",
    "NestedFamily",
    "make_grid",
    "interior_subdomain",
    "nested_family",
    "shift_field",
]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on the open box ``prod (lo_a, hi_a)``.

    ``q`` is the number of leading (X1) axes; it must leave at least one
    retained axis.  Every axis needs at least two cells so that an interior
    exists in each direction.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]
    q: int

    def __post_init__(self):
        ndim = len(self.cells)
        if ndim < 2:
            raise ConfigError(f"need at least 2 axes, got {ndim}")
        if len(self.lo) != ndim or len(self.hi) != ndim:
            raise ConfigError("extents and cells disagree on dimension")
        if not 1 <= self.q <= ndim - 1:
            raise ConfigError(
                f"axis split q={self.q} must satisfy 1 <= q <= {ndim - 1}")
        for a, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ConfigError(f"axis {a}: non-finite extent ({lo}, {hi})")
            if not hi > lo:
                raise ConfigError(f"axis {a}: degenerate extent ({lo}, {hi})")
        for a, n in enumerate(self.cells):
            if n < 2:
                raise ConfigError(f"axis {a}: need >= 2 cells, got {n}")

    @property
    def ndim(self) -> int:
        return len(self.cells)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / n
                     for lo, hi, n in zip(self.lo, self.hi, self.cells))

    @property
    def node_shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.cells)

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.cells)

    @property
    def n_interior(self) -> int:
        return int(np.prod(self.interior_shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def x1_axes(self) -> tuple[int, ...]:
        return tuple(range(self.q))

    @property
    def x2_axes(self) -> tuple[int, ...]:
        return tuple(range(self.q, self.ndim))

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis, boundary included."""
        return np.linspace(self.lo[axis], self.hi[axis], self.cells[axis] + 1)

    def meshgrid(self) -> list[np.ndarray]:
        """Coordinate arrays of shape ``node_shape``, one per axis."""
        axes = [self.axis_nodes(a) for a in range(self.ndim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def node_coordinate(self, index: Sequence[int]) -> tuple[float, ...]:
        return tuple(self.lo[a] + index[a] * self.spacing[a]
                     for a in range(self.ndim))


def make_grid(extents: Sequence[tuple[float, float]],
              cells: Sequence[int], q: int) -> Grid:
    """Build a grid from per-axis ``(lo, hi)`` pairs and cell counts."""
    lo = tuple(float(e[0]) for e in extents)
    hi = tuple(float(e[1]) for e in extents)
    return Grid(lo=lo, hi=hi, cells=tuple(int(n) for n in cells), q=int(q))


@dataclass
class ScalarField:
    """Grid function: one value per node, boundary nodes included.

    Solution fields of the Dirichlet problems carry exact zeros on the
    boundary; derived fields (differences, derivatives) may not.  Library
    code never mutates the values of a field it did not create itself.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.node_shape:
            raise ConfigError(
                f"field shape {self.values.shape} does not match "
                f"node shape {self.grid.node_shape}")

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.node_shape))

    @classmethod
    def from_function(cls, grid: Grid,
                      fn: Callable[..., np.ndarray]) -> "ScalarField":
        """Sample ``fn(X_1, ..., X_N)`` at every node (vectorized call)."""
        mesh = grid.meshgrid()
        vals = np.asarray(fn(*mesh), dtype=float)
        vals = np.broadcast_to(vals, grid.node_shape).copy()
        return cls(grid, vals)

    @classmethod
    def from_interior(cls, grid: Grid, interior: np.ndarray) -> "ScalarField":
        """Embed interior node values into a full field with zero boundary."""
        vals = np.zeros(grid.node_shape)
        vals[grid_interior_slices(grid)] = interior.reshape(grid.interior_shape)
        return cls(grid, vals)

    @property
    def interior(self) -> np.ndarray:
        """View of the interior node block."""
        return self.values[grid_interior_slices(self.grid)]

    def interior_vector(self) -> np.ndarray:
        """Interior values flattened in row-major order."""
        return self.interior.reshape(-1).copy()

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def _check_same_grid(self, other: "ScalarField"):
        if other.grid != self.grid:
            raise ConfigError("fields live on different grids")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_grid(other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_grid(other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def grid_interior_slices(grid: Grid) -> tuple[slice, ...]:
    return tuple(slice(1, n) for n in grid.cells)


@dataclass(frozen=True)
class SubdomainMask:
    """Axis-aligned interior box of nodes, ``margin_a`` whole cells off each face.

    Node indices run over ``[margin_a, cells_a - margin_a]`` per axis
    (inclusive).  A margin of at least one cell keeps the mask strictly
    inside the domain; a single-node box is allowed, an empty one is not.
    """

    grid: Grid
    margins: tuple[int, ...]

    def __post_init__(self):
        if len(self.margins) != self.grid.ndim:
            raise ConfigError("margin count does not match grid dimension")
        for a, m in enumerate(self.margins):
            if m < 1:
                raise ConfigError(f"axis {a}: margin must be >= 1, got {m}")
            if self.grid.cells[a] - 2 * m < 0:
                raise ConfigError(
                    f"axis {a}: margin {m} empties the mask "
                    f"({self.grid.cells[a]} cells)")

    @property
    def index_lo(self) -> tuple[int, ...]:
        return self.margins

    @property
    def index_hi(self) -> tuple[int, ...]:
        return tuple(n - m for n, m in zip(self.grid.cells, self.margins))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1
                     for lo, hi in zip(self.index_lo, self.index_hi))

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(lo, hi + 1)
                     for lo, hi in zip(self.index_lo, self.index_hi))

    def measure(self) -> float:
        """Quadrature measure: node count times the cell volume."""
        return self.node_count * self.grid.cell_volume

    def extract(self, field: ScalarField) -> np.ndarray:
        if field.grid != self.grid:
            raise ConfigError("field and mask live on different grids")
        return field.values[self.slices]

    def contains(self, other: "SubdomainMask") -> bool:
        return all(so <= ss and eo >= es for so, ss, eo, es in
                   zip(self.index_lo, other.index_lo,
                       self.index_hi, other.index_hi))


def interior_subdomain(grid: Grid, margin_cells) -> SubdomainMask:
    """Mask with the given margin (scalar or per-axis) of whole cells."""
    if np.isscalar(margin_cells):
        margins = (int(margin_cells),) * grid.ndim
    else:
        margins = tuple(int(m) for m in margin_cells)
    return SubdomainMask(grid, margins)


@dataclass(frozen=True)
class NestedFamily:
    """Increasing sequence of masks exhausting the interior.

    ``masks[n]`` is contained in ``masks[n+1]``; the margin schedule halves
    down to one cell and then repeats the largest mask so a family of any
    length exists on any grid.
    """

    masks: tuple[SubdomainMask, ...]

    def __post_init__(self):
        if not self.masks:
            raise ConfigError("empty mask family")
        for n in range(len(self.masks) - 1):
            if not self.masks[n + 1].contains(self.masks[n]):
                raise ConfigError(f"mask {n + 1} does not contain mask {n}")

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.masks)

    def __getitem__(self, n: int) -> SubdomainMask:
        return self.masks[n]

    @property
    def margins(self) -> tuple[int, ...]:
        """Per-member scalar margin (members use equal margins on all axes)."""
        return tuple(m.margins[0] for m in self.masks)


def nested_family(grid: Grid, n_max: int) -> NestedFamily:
    """Standard exhaustion: margins halve from ``min(cells) // 4`` down to 1.

    The starting margin is capped at ``2**(n_max - 1)`` so the family always
    reaches margin 1; on coarse grids the schedule clamps at 1 immediately
    and the tail is constant.
    """
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    min_cells = min(grid.cells)
    m0 = min(2 ** (n_max - 1), max(1, min_cells // 4))
    margins = [max(1, m0 >> k) for k in range(n_max)]
    masks = tuple(interior_subdomain(grid, m) for m in margins)
    return NestedFamily(masks)


def shift_field(field: ScalarField, h_cells: Sequence[int],
                mask: SubdomainMask | None = None) -> ScalarField:
    """Whole-cell translation: result value at node ``i`` is ``field[i + h]``.

    Only nodes whose shifted preimage stays on the grid receive values;
    everything else is NaN-poisoned so an accidental read is loud.  When a
    mask is given, every one of its nodes must be admissible or ShiftError
    is raised: translations never zero-fill past the boundary.
    """
    grid = field.grid
    h = tuple(int(c) for c in h_cells)
    if len(h) != grid.ndim:
        raise ConfigError("shift dimension does not match grid")
    if mask is not None:
        if mask.grid != grid:
            raise ConfigError("mask lives on a different grid")
        for a in range(grid.ndim):
            if mask.index_lo[a] + h[a] < 0 or \
                    mask.index_hi[a] + h[a] > grid.cells[a]:
                raise ShiftError(
                    f"shift {h} escapes the grid on axis {a} for mask "
                    f"box {mask.index_lo}..{mask.index_hi}")
    out = np.full(grid.node_shape, np.nan)
    src = []
    dst = []
    for a in range(grid.ndim):
        n = grid.cells[a]
        lo = max(0, -h[a])
        hi = min(n, n - h[a])
        if lo > hi:
            raise ShiftError(f"shift {h} larger than the grid on axis {a}")
        dst.append(slice(lo, hi + 1))
        src.append(slice(lo + h[a], hi + h[a] + 1))
    out[tuple(dst)] = field.values[tuple(src)]
    return ScalarField(grid, out)
