import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from anisolab import ConfigError, ScalarField, ShiftError, make_grid

settings.register_profile(
    "numeric", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("numeric")


@pytest.fixture
def unit_square():
    def build(n: int, q: int = 1):
        return make_grid([(0.0, 1.0), (0.0, 1.0)], (n, n), q)
    return build


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_field(grid, rng, boundary_zero=False) -> ScalarField:
    vals = rng.standard_normal(grid.node_shape)
    if boundary_zero:
        out = np.zeros_like(vals)
        inner = tuple(slice(1, n) for n in grid.cells)
        out[inner] = vals[inner]
        vals = out
    return ScalarField(grid, vals)


def shift_field(field: ScalarField, h_cells, mask=None) -> ScalarField:
    """Whole-cell translation: result value at node ``i`` is ``field[i + h]``.

    Only nodes whose shifted preimage stays on the grid receive values;
    everything else is NaN-poisoned so an accidental read is loud.  When a
    mask is given, every one of its nodes must be admissible or ShiftError
    is raised: translations never zero-fill past the boundary.  This is
    the definition ``norms.translation_modulus`` is checked against.
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
