import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from anisolab import ConfigError, ScalarField, ShiftError, make_grid

settings.register_profile(
    "numeric", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("numeric")


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Report a failing Hypothesis test under ``-W error``.

    Hypothesis's report hook writes a patch of the failing example
    through ``libcst``, whose import warns that ``mypy_extensions.
    TypedDict`` is deprecated; ``-W error`` turns that warning into an
    internal error that hides the test and its assertion.  Only that
    warning, and only while reports are made, is ignored: raised in a
    test body it still fails the test.  (A ``filterwarnings`` entry in
    ``pyproject.toml`` cannot do this: ``-W error`` on the command line
    takes precedence over it.)
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="mypy_extensions.TypedDict is deprecated",
            category=DeprecationWarning)
        return (yield)


@pytest.fixture
def lu_route(monkeypatch):
    """Calling it sends every later solve to the LU, symmetric or not, by
    reading every operator as non-symmetric: the reference the CG route
    is checked against."""
    from anisolab.fd_ops import SparseOperator

    def install():
        monkeypatch.setattr(SparseOperator, "symmetric", False)
    return install


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


def coo_flux_matrix(cells, spacings, entries):
    """Reference flux-form assembly from COO triplets.

    The stencil is written out term by term, as rows, columns and values
    over the interior unknowns; ``fd_ops.assemble_flux_matrix`` lays the
    same stencil out as CSR directly and is pinned to this bit for bit.
    Duplicate triplets are summed in assembly order (``np.add.at``):
    scipy's ``tocsr`` sums them in whatever order its unstable index sort
    leaves them, which for a row of more than 16 triplets (a full 3-D
    table) is not assembly order, so the three axis terms of a diagonal
    entry would be summed in a row-dependent order.
    """
    import scipy.sparse as sp

    def block(node_shape, offset):
        return tuple(slice(1 + o, n - 1 + o)
                     for o, n in zip(offset, node_shape))

    cells = tuple(int(n) for n in cells)
    spacings = tuple(float(h) for h in spacings)
    m = len(cells)
    node_shape = tuple(n + 1 for n in cells)
    S = tuple(n - 1 for n in cells)
    n_int = int(np.prod(S))
    index = np.arange(n_int).reshape(S)

    rows_acc, cols_acc, data_acc = [], [], []

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
        a_c = a[block(node_shape, zero)]
        a_p = a[block(node_shape, e)]
        a_m = a[block(node_shape, -e)]
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
            c_p = a[block(node_shape, e1)] / w
            c_m = a[block(node_shape, -e1)] / w
            add(e1 + e2, -c_p)
            add(e1 - e2, c_p)
            add(-e1 + e2, c_m)
            add(-e1 - e2, -c_m)

    if not data_acc:
        return sp.csr_matrix((n_int, n_int))
    rows, cols, data = (np.concatenate(acc)
                        for acc in (rows_acc, cols_acc, data_acc))
    keys, first, inverse = np.unique(rows * n_int + cols, return_index=True,
                                     return_inverse=True)
    # start every sum from its first triplet: 0.0 + (-0.0) would be +0.0
    summed = data[first].copy()
    later = np.ones(len(data), dtype=bool)
    later[first] = False
    np.add.at(summed, inverse[later], data[later])
    return sp.csr_matrix((summed, (keys // n_int, keys % n_int)),
                         shape=(n_int, n_int))


def csr(matrix):
    """The canonical CSR of a stencil matrix (``fd_ops._stencil_csr``), for
    tests that read entries, ``nnz``, ``.T`` or ``indices`` off an
    operator; the package builds it only for an LU."""
    from anisolab.fd_ops import _stencil_csr

    return _stencil_csr(matrix)


def relative_residual(matrix, x: np.ndarray, b: np.ndarray) -> float:
    """``|A x - b| / |b|``, or the absolute ``|A x|`` when ``b`` is exactly
    zero: there is nothing to be relative to.  The gate every solve's
    recorded residual is checked against."""
    res = float(np.linalg.norm(matrix @ x - b))
    scale = float(np.linalg.norm(b))
    return res / scale if scale > 0 else res


def sine_transform(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along every axis of ``x``; its own inverse.  The
    transform of the preconditioner's flat axes, through the solver's own
    sine matrices and axis products."""
    from anisolab.solver import _apply_axes, _sine_matrix

    x = np.asarray(x, dtype=float)
    return _apply_axes(x[None], [(s, s) for s in map(_sine_matrix,
                                                      x.shape)])[0]


def inner_product(u: ScalarField, v: ScalarField, mask=None) -> float:
    """The discrete L2 inner product of two fields over the grid interior
    or ``mask``, the quadrature of ``norms.l2_norm``."""
    from anisolab.norms import _masked

    if v.grid != u.grid:
        raise ConfigError("fields live on different grids")
    return float(np.sum(_masked(u, mask) * _masked(v, mask))
                 * u.grid.cell_volume)


def is_symmetric(matrix) -> bool:
    """Exact symmetry of a sparse matrix: no entry differs from its
    transpose.  The reference the stencil symmetry flags are pinned to."""
    return (matrix != matrix.T).nnz == 0
