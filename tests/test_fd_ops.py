import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from anisolab import (CoefficientField, ConfigError, ScalarField,
                      assemble_operator, coefficient_family, make_grid,
                      scale_coefficients, verify_ellipticity)
from anisolab.fd_ops import (Stencil, apply_nondivergence,
                             assemble_flux_matrix, grad_axis,
                             hess_component, operator_blocks)
from conftest import coo_flux_matrix, csr, is_symmetric


def sine_eigenvector(grid, i, j):
    h = grid.spacing[0]
    u = ScalarField.from_function(
        grid, lambda x, y: np.sin(i * np.pi * x) * np.sin(j * np.pi * y))
    lam = (4.0 / h ** 2) * (np.sin(i * np.pi * h / 2) ** 2
                            + np.sin(j * np.pi * h / 2) ** 2)
    return u, lam


class TestPointOperators:
    def test_grad_exact_on_quadratic(self, unit_square):
        g = unit_square(8)
        u = ScalarField.from_function(g, lambda x, y: x ** 2 + 3 * y)
        gx = grad_axis(u, 0)
        x = g.meshgrid()[0]
        assert np.allclose(gx.values[1:-1, :], 2 * x[1:-1, :], atol=1e-13)
        assert np.all(gx.values[0] == 0) and np.all(gx.values[-1] == 0)
        gy = grad_axis(u, 1)
        assert np.allclose(gy.values[:, 1:-1], 3.0, atol=1e-13)

    def test_pure_second_exact_on_cubic(self, unit_square):
        g = unit_square(8)
        u = ScalarField.from_function(g, lambda x, y: x ** 3)
        d = hess_component(u, 0, 0)
        x = g.meshgrid()[0]
        assert np.allclose(d.values[1:-1, :], 6 * x[1:-1, :], atol=1e-11)

    def test_cross_exact_on_biquadratic(self, unit_square):
        g = unit_square(8)
        u = ScalarField.from_function(g, lambda x, y: x ** 2 * y ** 2)
        d = hess_component(u, 0, 1)
        x, y = g.meshgrid()
        assert np.allclose(d.values[1:-1, 1:-1], 4 * x[1:-1, 1:-1]
                           * y[1:-1, 1:-1], atol=1e-11)
        assert np.all(d.values[0] == 0) and np.all(d.values[:, 0] == 0)

    def test_cross_symmetric_in_arguments(self, unit_square, rng):
        from conftest import random_field
        g = unit_square(6)
        u = random_field(g, rng)
        a = hess_component(u, 0, 1).values
        b = hess_component(u, 1, 0).values
        # same four corners, summed in a different order
        assert np.allclose(a, b, rtol=0.0, atol=1e-12 * np.abs(a).max())

    def test_group_shapes_3d(self):
        # every X1, mixed and X2 pair of a 3-D q=2 grid, on a quadratic
        # whose second differences are exact
        g = make_grid([(0, 1)] * 3, (4, 4, 4), q=2)
        assert g.x1_axes == (0, 1) and g.x2_axes == (2,)
        x, y, z = g.meshgrid()
        u = ScalarField(g, x * y + 3 * y * z + z ** 2)
        exact = {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 3.0, (2, 1): 3.0,
                 (2, 2): 2.0}
        inner = (slice(1, -1),) * 3
        for i in range(3):
            for j in range(3):
                d = hess_component(u, i, j).values
                assert d.shape == g.node_shape
                assert np.allclose(d[inner], exact.get((i, j), 0.0),
                                   atol=1e-10)

    @pytest.mark.parametrize("q", [1, 2])
    def test_in_place_kernels_match_out_of_place_expressions(self, rng, q):
        # the stencils as plain array expressions on a 3-D grid with
        # unequal spacings; the kernels must reproduce them bit for bit
        g = make_grid([(0, 1), (0, 1.3), (0, 0.7)], (7, 9, 6), q=q)
        v = rng.standard_normal(g.node_shape)
        u = ScalarField(g, v)
        n = g.cells

        def block(sel):
            # per axis: None keeps every node, else the interior shifted
            # by the given offset
            return tuple(slice(None) if o is None else slice(1 + o, n[a] + o)
                         for a, o in enumerate(sel))

        for a in range(3):
            want = np.zeros(g.node_shape)
            c, p, m = [None] * 3, [None] * 3, [None] * 3
            c[a], p[a], m[a] = 0, 1, -1
            want[block(c)] = (v[block(p)] - v[block(m)]) / (2 * g.spacing[a])
            assert np.array_equal(grad_axis(u, a).values, want)
        for i in range(3):
            for j in range(3):
                want = np.zeros(g.node_shape)
                if i == j:
                    c, p, m = [None] * 3, [None] * 3, [None] * 3
                    c[i], p[i], m[i] = 0, 1, -1
                    want[block(c)] = (v[block(p)] - 2 * v[block(c)]
                                      + v[block(m)]) / g.spacing[i] ** 2
                else:
                    def at(oi, oj):
                        sel = [None] * 3
                        sel[i], sel[j] = oi, oj
                        return block(sel)
                    want[at(0, 0)] = (v[at(1, 1)] - v[at(1, -1)]
                                      - v[at(-1, 1)] + v[at(-1, -1)]) / (
                        4 * g.spacing[i] * g.spacing[j])
                assert np.array_equal(hess_component(u, i, j).values,
                                      want), (i, j)
        # the kernels read a flattened copy of a non-C-ordered field
        f = ScalarField(g, np.asfortranarray(v))
        assert np.array_equal(grad_axis(f, 2).values, grad_axis(u, 2).values)
        assert np.array_equal(hess_component(f, 0, 2).values,
                              hess_component(u, 0, 2).values)


class TestAssembly:
    def test_five_point_row(self, unit_square):
        g = unit_square(4)
        op = assemble_operator(g, coefficient_family("identity", g))
        A = csr(op.matrix).toarray()
        assert op.n_unknowns == 9
        # node (2, 2) -> interior row-major index 4, h = 1/4
        assert A[4, 4] == pytest.approx(64.0)
        assert A[4, 1] == pytest.approx(-16.0)
        assert A[4, 3] == pytest.approx(-16.0)
        assert A[4, 5] == pytest.approx(-16.0)
        assert A[4, 7] == pytest.approx(-16.0)
        assert A[4, 0] == 0.0 and A[4, 8] == 0.0

    def test_seven_point_diagonal_3d(self):
        g = make_grid([(0, 1)] * 3, (4, 4, 4), q=1)
        op = assemble_operator(g, coefficient_family("identity", g))
        d = csr(op.matrix).diagonal()
        assert np.allclose(d, 96.0)

    def test_laplacian_eigenpairs(self, unit_square):
        g = unit_square(8)
        op = assemble_operator(g, coefficient_family("identity", g))
        for i, j in [(1, 1), (2, 3), (3, 3)]:
            u, lam = sine_eigenvector(g, i, j)
            out = op.apply(u)
            assert np.allclose(out.values, lam * u.values,
                               rtol=1e-12, atol=1e-9)

    def test_constant_table_exact_on_biquadratic(self, unit_square):
        # u = x(1-x) y(1-y) is quadratic per axis, so every stencil piece
        # (face-averaged fluxes and the corner cross terms) is exact
        g = unit_square(8)
        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        op = assemble_operator(g, coefficient_family("constant", g,
                                                     matrix=mat))
        u = ScalarField.from_function(
            g, lambda x, y: x * (1 - x) * y * (1 - y))
        x, y = g.meshgrid()
        exact = (2 * mat[0, 0] * y * (1 - y)
                 - 2 * mat[0, 1] * (1 - 2 * x) * (1 - 2 * y)
                 + 2 * mat[1, 1] * x * (1 - x))
        out = op.apply(u)
        inner = (slice(1, -1),) * 2
        assert np.allclose(out.values[inner], exact[inner], atol=1e-11)

    def test_stencil_width_bound(self, unit_square):
        g = unit_square(8)
        op = assemble_operator(g, coefficient_family("variable", g))
        per_row = np.diff(csr(op.matrix).indptr)
        assert per_row.max() <= 9

    def test_symmetry_exact_for_symmetric_table(self, unit_square):
        g = unit_square(8)
        for eps in (1.0, 0.1):
            coeffs = scale_coefficients(
                coefficient_family("variable", g), eps)
            op = assemble_operator(g, coeffs)
            dense = csr(op.matrix).toarray()
            assert op.symmetric and np.array_equal(dense, dense.T)

    def test_asymmetric_table_flagged(self, unit_square):
        # constant asymmetric entries still assemble to a symmetric matrix
        # (only a01 + a10 reaches each corner coupling), so the table must
        # vary in space for the defect to show
        g = unit_square(4)
        x, y = g.meshgrid()
        entries = np.zeros((2, 2) + g.node_shape)
        entries[0, 0] = 2.0
        entries[1, 1] = 2.0
        entries[0, 1] = 0.3 * x
        entries[1, 0] = 0.1 * y
        coeffs = CoefficientField(g, entries, lam=0.1)
        op = assemble_operator(g, coeffs)
        dense = csr(op.matrix).toarray()
        assert not op.symmetric and not np.array_equal(dense, dense.T)
        blocks = operator_blocks(g, coeffs)
        assert not blocks.unscaled.symmetric and not blocks.at(0.5).symmetric

    def test_constant_asymmetric_table_assembles_symmetric(self, unit_square):
        # the flag reflects the matrix, not the table
        g = unit_square(4)
        entries = np.zeros((2, 2) + g.node_shape)
        entries[0, 0] = 1.0
        entries[1, 1] = 1.0
        entries[0, 1] = 0.3
        entries[1, 0] = 0.1
        coeffs = CoefficientField(g, entries, lam=0.1)
        op = assemble_operator(g, coeffs)
        dense = csr(op.matrix).toarray()
        assert op.symmetric and np.array_equal(dense, dense.T)
        assert operator_blocks(g, coeffs).at(0.5).symmetric

    def test_positive_definite(self, unit_square):
        g = unit_square(8)
        op = assemble_operator(g, coefficient_family("variable", g))
        eigs = np.linalg.eigvalsh(csr(op.matrix).toarray())
        assert eigs[0] > 0.0

    def test_apply_rejects_wrong_grid(self, unit_square):
        op = assemble_operator(unit_square(4),
                               coefficient_family("identity", unit_square(4)))
        with pytest.raises(ConfigError):
            op.apply(ScalarField.zeros(unit_square(8)))


def direct_table(g):
    """A smooth symmetric table built without a family; lambda >= 3/4."""
    x, y = g.meshgrid()
    entries = np.empty((2, 2) + g.node_shape)
    entries[0, 0] = 2.0 + y * np.sin(2 * np.pi * x)
    entries[1, 1] = 1.0 + 0.5 * np.exp(x * y)
    entries[0, 1] = entries[1, 0] = 0.25 * np.cos(np.pi * x * y)
    return CoefficientField(g, entries, lam=0.5)


class TestDualRoute:
    def rates(self, build):
        errs = []
        for n in (16, 32, 64):
            g = make_grid([(0, 1), (0, 1)], (n, n), q=1)
            coeffs = build(g)
            op = assemble_operator(g, coeffs)
            u = ScalarField.from_function(
                g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
            flux = op.apply(u)
            nondiv = apply_nondivergence(coeffs, u)
            inner = (slice(2, -2),) * 2
            errs.append(np.abs(flux.values[inner]
                               - nondiv.values[inner]).max())
        return errs

    def test_flux_matches_nondivergence_at_second_order(self):
        errs = self.rates(lambda g: coefficient_family("variable", g))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes > 1.7)

    def test_direct_table_matches_nondivergence_at_second_order(self):
        errs = self.rates(direct_table)
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes > 1.7)

    def test_routes_identical_for_constant_table(self, unit_square):
        g = unit_square(8)
        coeffs = coefficient_family("constant", g,
                                    matrix=[[2.0, 0.5], [0.5, 1.0]])
        u, _ = sine_eigenvector(g, 1, 2)
        flux = assemble_operator(g, coeffs).apply(u)
        nondiv = apply_nondivergence(coeffs, u)
        inner = (slice(1, -1),) * 2
        assert np.allclose(flux.values[inner], nondiv.values[inner],
                           atol=1e-10)


def varying_asymmetric(grid, matrix, lam):
    """The constant ``matrix`` with every entry above the diagonal scaled
    by 1 + (sum of the coordinates) / 2.

    A constant table assembles to a symmetric matrix whatever its own
    symmetry (only a_ij + a_ji reaches each corner coupling); this one's
    asymmetry varies along every axis, X2 included, so both the full
    operator and every limit slice assemble non-symmetric.
    """
    m = np.asarray(matrix, dtype=float)
    scale = 1.0 + sum(grid.meshgrid()) / 2
    entries = np.zeros(m.shape + grid.node_shape)
    for i, j in np.ndindex(*m.shape):
        entries[i, j] = m[i, j] * (scale if j > i else 1.0)
    return CoefficientField(grid, entries, lam=lam)


# (ndim, q, family parameters); the last table is not symmetric, but
# being constant it assembles to a symmetric matrix
BLOCK_CASES = [
    (2, 1, ("variable", {})),
    (3, 1, ("variable", {})),
    (3, 2, ("variable", {})),
    (3, 1, ("constant", {"matrix": [[2.0, 0.3, 0.1], [0.2, 1.5, 0.4],
                                      [0.0, 0.1, 1.0]], "lam": 0.5})),
]


class TestOperatorBlocks:
    # eps^2 underflows to zero below ~1e-162; direct assembly would then
    # drop the X1 x X1 table from the pattern, so eps stays above 1e-150
    @given(st.sampled_from(BLOCK_CASES),
           st.lists(st.integers(2, 6), min_size=3, max_size=3),
           st.floats(1e-150, 1.0))
    def test_at_matches_scaled_assembly(self, case, cells, eps):
        ndim, q, (family, params) = case
        g = make_grid([(0, 1)] * ndim, cells[:ndim], q=q)
        coeffs = coefficient_family(family, g, **params)
        got = operator_blocks(g, coeffs).at(eps)
        ref = assemble_operator(g, scale_coefficients(coeffs, eps))
        got_csr, ref_csr = csr(got.matrix), csr(ref.matrix)
        assert np.array_equal(got_csr.indptr, ref_csr.indptr)
        assert np.array_equal(got_csr.indices, ref_csr.indices)
        assert got.symmetric == ref.symmetric
        scale = np.abs(ref_csr.data).max()
        assert np.abs(got_csr.data - ref_csr.data).max() <= 1e-15 * scale
        assert np.allclose(got.means, ref.means, rtol=1e-15,
                           atol=0.0)

    def test_at_leaves_blocks_unchanged(self):
        # every sweep row calls ``at`` on one shared OperatorBlocks, so the
        # scaling must never write to the unscaled rows, the diagonal's
        # parts or the limit; every row holds rows of its own
        g = make_grid([(0, 1)] * 3, (5, 6, 4), q=2)
        blocks = operator_blocks(g, coefficient_family("variable", g))
        held = (blocks.unscaled.matrix.rows, blocks.d11, blocks.d22,
                blocks.limit.matrix.rows)
        before = [arr.copy() for arr in held]
        a, b = blocks.at(1.0), blocks.at(0.1)
        assert not np.shares_memory(a.matrix.rows, b.matrix.rows)
        assert not np.shares_memory(a.matrix.rows,
                                    blocks.unscaled.matrix.rows)
        assert a.matrix.offsets == blocks.unscaled.matrix.offsets
        # an in-place edit of the shared blocks would reach every row
        for shared in (blocks.unscaled, blocks.limit):
            with pytest.raises(ValueError):
                shared.matrix.rows[0, 0] = 0.0
        for eps in (1.0, 0.5, 0.1, 0.03, 1e-3, 1e-6):
            blocks.at(eps)
        for old, now in zip(before, held, strict=True):
            assert np.array_equal(old, now)

    def test_at_one_is_the_unscaled_operator(self):
        g = make_grid([(0, 1)] * 3, (5, 6, 4), q=1)
        blocks = operator_blocks(g, coefficient_family("variable", g))
        got, unscaled = blocks.at(1.0).matrix, blocks.unscaled.matrix
        assert got.box == unscaled.box
        assert got.offsets == unscaled.offsets
        assert np.array_equal(got.rows.view(np.int64),
                              unscaled.rows.view(np.int64))

    def test_rejects_epsilon_out_of_range(self, unit_square):
        g = unit_square(4)
        blocks = operator_blocks(g, coefficient_family("identity", g))
        with pytest.raises(ConfigError):
            blocks.at(0.0)


def pin_table(grid, seed, kind):
    """A random entry table of the named kind for the reference pins."""
    rng = np.random.default_rng(seed)
    n, q = grid.ndim, grid.q
    entries = rng.uniform(0.5, 2.0, (n, n) + grid.node_shape)
    if kind != "random":
        entries = 0.5 * (entries + entries.swapaxes(0, 1))
    if kind == "zero blocks":
        # no X1 x X1 entry and one mixed pair gone
        entries[:q, :q] = 0.0
        entries[0, q] = entries[q, 0] = 0.0
    elif kind == "mixed asymmetric":
        # symmetric but for one varying mixed entry
        entries[q, 0] *= 1.0 + grid.meshgrid()[-1]
    return entries


class TestStencilAssembly:
    """The stencil matrices against the COO reference, through their CSR,
    and their matvec against the CSR's."""

    @staticmethod
    def assert_same(got, ref):
        # the data bit for bit: -0.0 and 0.0 differ
        assert isinstance(got, Stencil)
        assert got.shape == ref.shape and got.nnz == ref.nnz
        layout = csr(got)
        assert layout.indices.dtype == ref.indices.dtype
        assert np.array_equal(layout.indptr, ref.indptr)
        assert np.array_equal(layout.indices, ref.indices)
        assert np.array_equal(layout.data.view(np.int64),
                              ref.data.view(np.int64))
        # the matvec sums each row in the CSR's order, bit for bit
        rng = np.random.default_rng(got.nnz)
        x = rng.standard_normal(got.shape[0])
        assert np.array_equal((got @ x).view(np.int64),
                              (layout @ x).view(np.int64))
        # matvec writes the same bits into the caller's array, and a
        # reused workspace keeps its padding zero; so does the held one,
        # whose padded vector a stencil sharing the buffers may have
        # written anywhere
        for work in (got.workspace(), got.held_workspace()):
            out = np.full(got.shape[0], np.nan)
            for y in (x, rng.standard_normal(got.shape[0])):
                assert got.matvec(y, out, work) is out
                assert np.array_equal(out.view(np.int64),
                                      (layout @ y).view(np.int64))
            work[0][:] = np.nan

    @given(st.sampled_from([(2, 1), (3, 1), (3, 2)]),
           st.lists(st.integers(2, 5), min_size=3, max_size=3),
           st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["random", "symmetric", "zero blocks",
                            "mixed asymmetric"]))
    def test_matches_coo_reference(self, dims, cells, seed, kind):
        ndim, q = dims
        g = make_grid([(0, 1)] * ndim, cells[:ndim], q=q)
        entries = pin_table(g, seed, kind)
        coeffs = CoefficientField(g, entries, lam=0.1)

        op = assemble_operator(g, coeffs)
        ref = coo_flux_matrix(g.cells, g.spacing, entries)
        self.assert_same(op.matrix, ref)
        assert op.symmetric == is_symmetric(ref)

        blocks = operator_blocks(g, coeffs)
        # the limit: the A22 table alone on the grid extended by one node
        # at each X1 end
        ext = tuple(c + 2 if a < q else c for a, c in enumerate(g.cells))
        padded = np.zeros((ndim, ndim) + tuple(c + 1 for c in ext))
        inner = tuple(slice(1, -1) if a < q else slice(None)
                      for a in range(ndim))
        padded[(slice(q, None), slice(q, None)) + inner] = \
            coeffs.x2_block()
        limit = coo_flux_matrix(ext, g.spacing, padded)
        self.assert_same(blocks.limit.matrix, limit)
        assert blocks.limit.symmetric == is_symmetric(limit)

        # the blocks: the table with all but one block zeroed
        in_x1 = np.arange(ndim) < q
        block = (2 - in_x1[:, None].astype(int) - in_x1[None, :]).reshape(
            (ndim, ndim) + (1,) * ndim)
        L11, L12, L22 = (coo_flux_matrix(g.cells, g.spacing,
                                         np.where(block == k, entries, 0.0))
                         for k in range(3))
        assert blocks.unscaled.symmetric == all(
            map(is_symmetric, (L11, L12, L22)))
        for eps in (1.0, 0.37, 1e-5):
            self.assert_same(blocks.at(eps).matrix,
                             eps ** 2 * L11 + eps * L12 + L22)

    def test_nonsymmetric_mixed_table_flags_every_operator(self):
        g = make_grid([(0, 1)] * 3, (4, 5, 3), q=1)
        coeffs = CoefficientField(g, pin_table(g, 7, "mixed asymmetric"),
                                  lam=0.1)
        blocks = operator_blocks(g, coeffs)
        assert not assemble_operator(g, coeffs).symmetric
        assert not blocks.unscaled.symmetric and not blocks.at(0.5).symmetric
        # the mixed entry never reaches the limit
        assert blocks.limit.symmetric

    def test_matvec_rejects_a_vector_of_another_length(self, unit_square):
        g = unit_square(4)
        matrix = assemble_operator(g, coefficient_family("identity",
                                                         g)).matrix
        for x in (np.ones(8), np.ones(1), np.ones((9, 1))):
            with pytest.raises(ValueError):
                matrix @ x

    def test_rows_and_limit_share_one_set_of_buffers(self, unit_square):
        # every eps-operator, its Jacobians and the limit take their
        # solve buffers from one set, each a view of its own length;
        # another operator has its own
        g = unit_square(6)
        blocks = operator_blocks(g, coefficient_family("variable", g))
        row = blocks.at(0.5).matrix
        jac = row.with_rows(row.rows.copy())
        limit = blocks.limit.matrix
        first = limit.buffer("v")
        assert len(first) == limit.shape[0] > row.shape[0]
        for matrix in (row, jac, blocks.at(0.25).matrix, limit):
            held = matrix.buffer("v")
            assert len(held) == matrix.shape[0]
            assert np.shares_memory(held, first)
        assert not np.shares_memory(row.buffer("w"), first)
        other = assemble_operator(g, coefficient_family("variable", g))
        assert not np.shares_memory(other.matrix.buffer("v"), first)

    def test_all_zero_table_assembles_empty(self, unit_square):
        g = unit_square(4)
        zero = np.zeros((2, 2) + g.node_shape)
        matrix = assemble_flux_matrix(g.cells, g.spacing, zero)
        assert matrix.shape == (9, 9) and matrix.nnz == 0
        self.assert_same(matrix, coo_flux_matrix(g.cells, g.spacing, zero))
        blocks = operator_blocks(g, CoefficientField(g, zero, lam=1.0))
        assert blocks.at(0.5).matrix.nnz == 0
        assert blocks.limit.matrix.nnz == 0


def traced_rise(call):
    """``call()`` and the peak of its traced allocations above the start,
    in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def upper_half(matrix):
    """The offsets of flat offset >= 0, in order: what a symmetric stencil
    without flat ties stores."""
    return tuple(key for key, f in zip(matrix.offsets, matrix.flats)
                 if f >= 0)


class TestHalfStorage:
    """A symmetric stencil stores the upper twin of each mirror pair and
    reads the lower from it; any other stores every offset."""

    @pytest.mark.parametrize("ndim, offsets, stored", [(2, 9, 5),
                                                       (3, 19, 10)])
    def test_symmetric_stencils_store_their_upper_half(self, ndim, offsets,
                                                       stored):
        g = make_grid([(0, 1)] * ndim, (6, 7, 5)[:ndim], q=1)
        blocks = operator_blocks(g, coefficient_family("variable", g))
        for matrix in (blocks.unscaled.matrix, blocks.at(0.3).matrix):
            assert matrix.symmetric
            assert len(matrix.offsets) == offsets
            assert matrix.stored == upper_half(matrix)
            assert matrix.rows.shape == (stored, matrix.shape[0])
            assert matrix.stored[matrix.centre] == (0,) * ndim
        limit = blocks.limit.matrix
        assert limit.symmetric and limit.stored == upper_half(limit)
        assert len(limit.stored) == (len(limit.offsets) + 1) // 2
        assert limit.rows.shape == (len(limit.stored), limit.shape[0])

    def test_asymmetric_stencil_stores_every_offset(self):
        g = make_grid([(0, 1)] * 3, (6, 7, 5), q=1)
        table = [[2.0, 0.3, 0.1], [0.1, 1.5, 0.4], [0.2, -0.2, 1.2]]
        blocks = operator_blocks(g, varying_asymmetric(g, table, lam=0.5))
        for op in (blocks.unscaled, blocks.at(0.5), blocks.limit):
            matrix = op.matrix
            assert not op.symmetric and not matrix.symmetric
            assert matrix.stored == matrix.offsets
            assert matrix.rows.shape == (len(matrix.offsets),
                                         matrix.shape[0])

    # a box with a 1-node axis gives distinct offsets one flat offset:
    # mirrors pair by offset, not by flat offset
    @given(st.sampled_from(["row", "limit", "identity", "asymmetric"]),
           st.sampled_from([(2, 1), (3, 1), (3, 2)]),
           st.lists(st.integers(2, 6), min_size=3, max_size=3),
           st.floats(1e-3, 1.0), st.integers(0, 2 ** 32 - 1))
    @example("row", (3, 1), [2, 2, 2], 0.5, 0)
    @example("limit", (3, 2), [2, 2, 2], 0.5, 0)
    @example("identity", (3, 1), [2, 4, 2], 0.5, 0)
    def test_matvec_is_the_csr_product(self, kind, dims, cells, eps, seed):
        ndim, q = dims
        g = make_grid([(0, 1)] * ndim, cells[:ndim], q=q)
        if kind == "asymmetric":
            table = np.array([[2.0, 0.3, 0.1], [0.1, 1.5, 0.4],
                              [0.2, -0.2, 1.2]])[:ndim, :ndim]
            coeffs = varying_asymmetric(g, table, lam=0.3)
        else:
            coeffs = coefficient_family("variable", g)
        blocks = operator_blocks(g, coeffs)
        op = {"row": blocks.at(eps), "asymmetric": blocks.at(eps),
              "limit": blocks.limit,
              "identity": assemble_operator(
                  g, coefficient_family("identity", g))}[kind]
        matrix = op.matrix
        ref = csr(matrix)
        # the mirrors read the right twins: the CSR they expand to is
        # exactly symmetric
        assert matrix.symmetric == is_symmetric(ref) == op.symmetric
        flats = dict(zip(matrix.offsets, matrix.flats))
        if matrix.symmetric:
            assert all(flats[key] >= 0 for key in matrix.stored)
            assert all((key in matrix.stored)
                       != (tuple(-o for o in key) in matrix.stored)
                       for key in matrix.offsets if any(key))
        else:
            assert matrix.stored == matrix.offsets
        rng = np.random.default_rng(seed)
        work = matrix.held_workspace()
        out = np.empty(matrix.shape[0])
        for _ in range(2):
            x = rng.standard_normal(matrix.shape[0])
            want = (ref @ x).view(np.int64)
            assert np.array_equal((matrix @ x).view(np.int64), want)
            assert np.array_equal(matrix.matvec(x, out, work).view(np.int64),
                                  want)

    @pytest.mark.parametrize("kind", ["row", "limit", "asymmetric"])
    def test_abs_row_sums_count_every_entry(self, kind):
        # a half-stored stencil's mirrored entries count in its rows' sums
        g = make_grid([(0, 1)] * 3, (5, 6, 7), q=1)
        table = [[2.0, 0.3, 0.1], [0.1, 1.5, 0.4], [0.2, -0.2, 1.2]]
        coeffs = (varying_asymmetric(g, table, lam=0.3) if kind == "asymmetric"
                  else coefficient_family("variable", g))
        blocks = operator_blocks(g, coeffs)
        matrix = (blocks.limit if kind == "limit" else blocks.at(0.3)).matrix
        assert matrix.symmetric == (kind != "asymmetric")
        want = np.asarray(abs(csr(matrix)).sum(axis=1)).ravel()
        assert np.allclose(matrix.abs_row_sums(), want, rtol=1e-14, atol=0)

    def test_held_workspace_laid_out_once(self):
        # the same held pair on every call, and a matvec through it
        # allocates nothing of a row's size
        g = make_grid([(0, 1)] * 3, (10, 11, 9), q=1)
        matrix = operator_blocks(g, coefficient_family("variable",
                                                       g)).at(0.5).matrix
        work = matrix.held_workspace()
        assert matrix.held_workspace() is work
        x = np.ones(matrix.shape[0])
        out = np.empty_like(x)
        matrix.matvec(x, out, work)
        _, rise = traced_rise(lambda: matrix.matvec(x, out, work))
        assert rise < x.nbytes // 8

    def test_operator_blocks_holds_no_lower_rows(self):
        # assembly writes each term into its stored row and checks one
        # mirror pair at a time: above what it keeps, the stored rows and
        # the limit's, it holds a few vectors at most, where a layout of
        # every offset's coefficient would hold one vector per offset
        g = make_grid([(0, 1)] * 3, (24, 24, 24), q=1)
        coeffs = coefficient_family("variable", g)
        blocks, rise = traced_rise(lambda: operator_blocks(g, coeffs))
        vector = 8 * max(blocks.unscaled.n_unknowns, blocks.limit.n_unknowns)
        kept = (blocks.unscaled.matrix.rows.nbytes
                + blocks.limit.matrix.rows.nbytes)
        assert len(blocks.unscaled.matrix.offsets) == 19
        assert rise < kept + 8 * vector

    def test_at_copies_only_the_stored_rows(self):
        g = make_grid([(0, 1)] * 3, (24, 24, 24), q=1)
        blocks = operator_blocks(g, coefficient_family("variable", g))
        rows = blocks.unscaled.matrix.rows
        op, rise = traced_rise(lambda: blocks.at(0.5))
        assert op.matrix.rows.shape == rows.shape
        assert rows.nbytes <= rise < rows.nbytes + rows.shape[1] * 8


class TestScaledTable:
    @pytest.mark.parametrize("case", BLOCK_CASES)
    @given(st.floats(1e-150, 1.0))
    def test_scaled_table_is_a_certified_field(self, case, eps):
        ndim, q, (family, params) = case
        g = make_grid([(0, 1)] * ndim, (4, 5, 3)[:ndim], q=q)
        base = coefficient_family(family, g, **params)
        sc = scale_coefficients(base, eps)
        assert type(sc) is CoefficientField
        assert sc.name == base.name
        assert sc.lam == eps ** 2 * base.lam
        verify_ellipticity(sc)

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_underflowing_constant_rejected(self, case):
        # eps^2 * lambda underflows to zero, which no field may declare
        ndim, q, (family, params) = case
        g = make_grid([(0, 1)] * ndim, (4, 5, 3)[:ndim], q=q)
        with pytest.raises(ConfigError):
            scale_coefficients(coefficient_family(family, g, **params),
                               1e-170)
