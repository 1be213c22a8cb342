import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import anisolab.solver
from anisolab import (CoefficientField, ConfigError, ScalarField,
                      SolverError, coefficient_family, forcing_field, make_grid,
                      operator_blocks, solve_limit)
from anisolab.fd_ops import X2_BLOCK, _block_of, factor_matrix
from anisolab.limit import iter_slice_systems

from conftest import coo_flux_matrix, csr, is_symmetric
from test_fd_ops import varying_asymmetric

NONSYMMETRIC = [[2.0, 0.3, 0.1], [0.1, 1.5, 0.4], [0.2, -0.2, 1.2]]


def block_cases():
    """(grid, coefficients, forcing): 2-D q=1, 3-D q=2, a 3-D q=1
    constant table whose A22 block is not symmetric, and the same table
    with its asymmetry varying in space."""
    g2 = make_grid([(0, 1), (0, 2)], (10, 12), q=1)
    g3 = make_grid([(0, 1)] * 3, (5, 6, 8), q=2)
    g3n = make_grid([(0, 1)] * 3, (5, 6, 7), q=1)
    f3n = ScalarField.from_function(g3n, lambda x, y, z: 1.0 + x * y - z)
    return [
        (g2, coefficient_family("variable", g2),
         forcing_field("sine_product", g2)),
        (g3, coefficient_family("variable", g3),
         forcing_field("constant", g3, value=1.0)),
        (g3n, coefficient_family("constant", g3n, matrix=NONSYMMETRIC), f3n),
        (g3n, varying_asymmetric(g3n, NONSYMMETRIC, lam=0.5), f3n),
    ]


def limit_of(grid, coeffs, f, **kwargs):
    return solve_limit(operator_blocks(grid, coeffs), f, **kwargs)


def lu_limit(blocks, f):
    """The limit field by one LU of the limit matrix."""
    limit = blocks.limit
    out = np.zeros(limit.grid.node_shape)
    out[limit.unknowns] = limit.factor().solve(
        f.values[limit.unknowns].reshape(-1)).reshape(limit.matrix.box)
    return out


def nonsymmetric_q2_case():
    """A 4-D q = 2 grid whose varying skew part reaches the 2-D X2
    slices, so that its limit matrix, batched over two X1 axes, is not
    symmetric and runs by LU: the 3-D q = 2 limit has 1-D slices, always
    symmetric."""
    g = make_grid([(0, 1)] * 4, (3, 4, 5, 6), q=2)
    table = [[2.0, 0.3, 0.1, 0.0], [0.1, 1.5, 0.4, 0.1],
             [0.2, -0.2, 1.2, 0.2], [0.0, 0.1, 0.1, 1.3]]
    coeffs = varying_asymmetric(g, table, lam=0.3)
    assert not operator_blocks(g, coeffs).limit.symmetric
    return g, coeffs, forcing_field("constant", g, value=1.0)


def checkerboard_case():
    """32^2, q = 1, a11 = a22 = 1 or 1000 on a 4 x 4 board, no mixed
    entry, ``sine_product`` forcing: limit slices whose relative residual
    has a roundoff floor between 1e-12 and 1e-11."""
    g = make_grid([(0, 1), (0, 1)], (32, 32), q=1)
    x, y = g.meshgrid()
    a = np.where((np.floor(4 * x) + np.floor(4 * y)) % 2 == 0, 1.0, 1000.0)
    entries = np.zeros((2, 2) + g.node_shape)
    entries[0, 0] = entries[1, 1] = a
    return (g, CoefficientField(g, entries, lam=1.0),
            forcing_field("sine_product", g))


def per_slice_limit(grid, coeffs, f):
    out = np.zeros(grid.node_shape)
    for _, matrix, rhs, scatter in iter_slice_systems(grid, coeffs, f):
        scatter(spla.spsolve(csr(matrix).tocsc(), rhs), out)
    return out


class TestSliceStructure:
    def test_one_system_per_x1_node(self, unit_square):
        g = unit_square(6)
        coeffs = coefficient_family("identity", g)
        f = forcing_field("constant", g, value=1.0)
        systems = list(iter_slice_systems(g, coeffs, f))
        assert len(systems) == 7  # all columns, both X1 faces included
        assert [s[0] for s in systems] == [(i,) for i in range(7)]
        for _, matrix, rhs, _ in systems:
            assert matrix.shape == (5, 5)
            assert rhs.shape == (5,)

    def test_slice_matrix_is_tridiagonal_a22(self, unit_square):
        g = unit_square(4)
        coeffs = coefficient_family("variable", g)
        systems = dict(
            (idx[0], m) for idx, m, _, _ in
            iter_slice_systems(g, coeffs, forcing_field("constant", g,
                                                        value=1.0)))
        x = 0.5  # column 2 of 4 cells
        a22 = 1.0 + x ** 2 / 2  # diagonal entry along that slice
        m = csr(systems[2]).toarray()
        h = 0.25
        assert np.allclose(np.diag(m), 2 * a22 / h ** 2)
        assert np.allclose(np.diag(m, 1), -a22 / h ** 2)
        assert np.count_nonzero(np.triu(m, 2)) == 0

    def test_grid_mismatch_rejected(self, unit_square):
        g, g2 = unit_square(4), unit_square(8)
        coeffs = coefficient_family("identity", g)
        f = forcing_field("constant", g2, value=1.0)
        with pytest.raises(ConfigError):
            list(iter_slice_systems(g, coeffs, f))


class TestBlockOperator:
    @pytest.mark.parametrize("case", range(4))
    def test_matches_per_slice_solves(self, case):
        g, coeffs, f = block_cases()[case]
        ref = per_slice_limit(g, coeffs, f)
        blocks = operator_blocks(g, coeffs)
        for got in (lu_limit(blocks, f), solve_limit(blocks, f).values):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("case", range(4))
    def test_nnz_is_sum_of_slices(self, case):
        g, coeffs, f = block_cases()[case]
        nnz = sum(m.nnz for _, m, _, _ in iter_slice_systems(g, coeffs, f))
        assert operator_blocks(g, coeffs).limit.matrix.nnz == nnz

    @pytest.mark.parametrize("case", range(4))
    def test_apply_is_the_slice_products(self, case, rng):
        # the batched operator acts on each X1 slice as that slice's own
        # matrix, and leaves every node off its unknowns zero
        g, coeffs, f = block_cases()[case]
        limit = operator_blocks(g, coeffs).limit
        u = ScalarField(g, rng.standard_normal(g.node_shape))
        got = limit.apply(u).values
        interior = tuple(slice(1, g.cells[a]) for a in g.x2_axes)
        off = np.ones(g.node_shape, dtype=bool)
        for x1_index, matrix, _, _ in iter_slice_systems(g, coeffs, f):
            x = u.values[x1_index][interior].reshape(-1)
            assert np.array_equal(got[x1_index][interior].reshape(-1),
                                  matrix @ x)
            off[x1_index][interior] = False
        assert np.all(got[off] == 0.0)

    @pytest.mark.parametrize("case", range(4))
    def test_l22_is_interior_slices_of_limit(self, case):
        # slice-major unknowns: the X1-interior slices of the limit are
        # the full grid's unknowns in the full grid's order, and they hold
        # exactly the X2 part of every at(eps), entry by entry: its X2 x X2
        # offsets and the X2 part d22 of its centre row.  The rows are the
        # stored ones, each mirrored offset reading its twin's, which lies
        # in the same block
        g, coeffs, _ = block_cases()[case]
        blocks = operator_blocks(g, coeffs)
        nodes = tuple(g.cells[a] + 1 for a in g.x1_axes)
        keep = np.arange(blocks.limit.n_unknowns).reshape(
            nodes + (-1,))[(slice(1, -1),) * g.q].ravel()
        cut = csr(blocks.limit.matrix)[keep][:, keep]
        cut.sort_indices()
        a22 = coeffs.entries.copy()
        a22[:g.q] = 0.0
        a22[:, :g.q] = 0.0
        full = coo_flux_matrix(g.cells, g.spacing, a22)
        x2 = np.array([_block_of(key, g.q) == X2_BLOCK
                       for key in blocks.unscaled.matrix.stored])
        for eps in (1.0, 0.3, 1e-4):
            at = blocks.at(eps).matrix
            centre = at.centre
            assert np.array_equal(at.rows[centre],
                                  eps ** 2 * blocks.d11 + blocks.d22)
            rows = np.where(x2[:, None], at.rows, 0.0)
            rows[centre] = blocks.d22
            part = csr(at.with_rows(rows))
            part.eliminate_zeros()
            for ref in (cut, full):
                for name in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(part, name),
                                          getattr(ref, name))

    def test_cg_route_factors_only_the_nonsymmetric_limit(self,
                                                          monkeypatch):
        # the symmetric limits run by batched CG; the varying asymmetric
        # one is factored exactly once
        seen = []

        def factor(matrix):
            seen.append(is_symmetric(csr(matrix)))
            return factor_matrix(matrix)
        monkeypatch.setattr(anisolab.solver, "factor_matrix", factor)
        for g, c, f in block_cases():
            limit_of(g, c, f)
        assert seen == [False]

    def test_slice_residual_gate_names_slice(self):
        g, coeffs, f = nonsymmetric_q2_case()
        with pytest.raises(SolverError, match=r"slice \(\d+, \d+\)") as err:
            limit_of(g, coeffs, f, tol=0.0)
        assert err.value.residual > 0.0

    def test_cg_refinement_factors_nothing(self, monkeypatch):
        # tol = 0: the batched CG step runs to its cap and the solve
        # gives up, naming a slice, without any factorization
        calls = []
        monkeypatch.setattr(anisolab.solver, "factor_matrix",
                            lambda *args: calls.append(args))
        g, coeffs, f = block_cases()[1]
        with pytest.raises(SolverError, match=r"slice \(\d+, \d+\)"):
            limit_of(g, coeffs, f, tol=0.0)
        assert calls == []

    def test_slice_converging_at_its_cap_is_not_exhausted(self, monkeypatch):
        # the variable table's a22 is constant along each 1-D slice, so
        # the preconditioner is exact and every slice meets tol in the one
        # step its cap ceil(0.05 sqrt(15)) = 1 allows
        g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
        blocks = operator_blocks(g, coefficient_family("variable", g))
        f = forcing_field("constant", g, value=1.0)
        steps = []
        real = anisolab.solver.pcg

        def counting(*args):
            out = real(*args)
            steps.append((args[4], out[1].copy()))
            return out
        monkeypatch.setattr(anisolab.solver, "pcg", counting)
        monkeypatch.setattr(anisolab.solver, "CG_CAP_FACTOR", 0.05)
        cg = solve_limit(blocks, f).values
        assert len(steps) == 1
        cap, taken = steps[0]
        assert cap == 1 and np.all(taken == 1)
        lu = lu_limit(blocks, f)
        assert np.abs(cg - lu).max() <= 1e-9 * np.abs(lu).max()

    def test_cg_slice_exhausting_its_cap_named(self, monkeypatch):
        # 2-D slices of the variable table need several CG steps; a cap
        # of ceil(0.2 sqrt(30)) = 2 stops them short of tol
        g = make_grid([(0, 1)] * 3, (5, 6, 7), q=1)
        blocks = operator_blocks(g, coefficient_family("variable", g))
        f = forcing_field("sine_product", g)
        monkeypatch.setattr(anisolab.solver, "CG_CAP_FACTOR", 0.2)
        with pytest.raises(SolverError, match=r"^slice \(\d+,\): cg exhausted "
                           r"2 iterations") as err:
            solve_limit(blocks, f)
        assert err.value.residual > 1e-10

    @pytest.mark.parametrize("case", range(4))
    def test_cg_matches_lu(self, case):
        # every slice meets tol on its own system; the two routes agree
        # to well within what that residual allows
        g, coeffs, f = block_cases()[case]
        blocks = operator_blocks(g, coeffs)
        lu = lu_limit(blocks, f)
        cg = solve_limit(blocks, f).values
        assert np.abs(cg - lu).max() <= 1e-9 * np.abs(lu).max()
        interior = tuple(slice(1, g.cells[a]) for a in g.x2_axes)
        for x1_index, matrix, rhs, _ in iter_slice_systems(g, coeffs, f):
            x = cg[x1_index][interior].reshape(-1)
            assert np.linalg.norm(matrix @ x - rhs) <= (
                1e-10 * np.linalg.norm(rhs))

    def test_forcing_grid_mismatch_rejected(self, unit_square):
        g = unit_square(4)
        blocks = operator_blocks(g, coefficient_family("identity", g))
        with pytest.raises(ConfigError):
            solve_limit(blocks, forcing_field("constant", unit_square(8)))


class TestLimitField:
    def test_identity_unit_forcing_is_exact_parabola(self, unit_square):
        # -u'' = 1 per slice has the quadratic solution y(1 - y)/2, which
        # the 3-point stencil reproduces to roundoff
        g = unit_square(8)
        u0 = limit_of(g, coefficient_family("identity", g),
                      forcing_field("constant", g, value=1.0))
        y = g.meshgrid()[1]
        assert np.abs(u0.values - y * (1 - y) / 2).max() < 1e-13

    def test_x1_faces_not_constrained(self, unit_square):
        g = unit_square(8)
        u0 = limit_of(g, coefficient_family("identity", g),
                      forcing_field("constant", g, value=1.0))
        assert np.abs(u0.values[0]).max() > 0.1  # x1 = 0 column is active
        assert np.all(u0.values[:, 0] == 0.0)  # retained-axes Dirichlet
        assert np.all(u0.values[:, -1] == 0.0)

    def test_variable_family_closed_form(self, unit_square):
        # slice coefficient a22 = 1 + x^2/2 is constant in y, so the slice
        # solution y(1 - y) / (2 (1 + x^2/2)) is again exact
        g = unit_square(10)
        u0 = limit_of(g, coefficient_family("variable", g),
                      forcing_field("constant", g, value=1.0))
        x, y = g.meshgrid()
        expect = y * (1 - y) / (2 * (1 + x ** 2 / 2))
        assert np.abs(u0.values - expect).max() < 1e-13

    def test_three_dim_split_one_eigen_forcing(self):
        # q = 1: slices are 2-D boxes; a sine-product forcing is a discrete
        # eigenvector of each slice operator, scaled back exactly
        g = make_grid([(0, 1)] * 3, (6, 6, 6), q=1)
        h = g.spacing[1]
        f = ScalarField.from_function(
            g, lambda x, y, z: (2 + x) * np.sin(np.pi * y)
            * np.sin(np.pi * z))
        lam = 2 * (4 / h ** 2) * np.sin(np.pi * h / 2) ** 2
        u0 = limit_of(g, coefficient_family("identity", g), f)
        assert np.allclose(u0.values, f.values / lam, atol=1e-12)

    def test_three_dim_split_two_parabola(self):
        # q = 2: one retained axis, unit forcing, parabola at every (x1, x2)
        g = make_grid([(0, 1)] * 3, (4, 4, 8), q=2)
        u0 = limit_of(g, coefficient_family("identity", g),
                      forcing_field("constant", g, value=1.0))
        z = g.meshgrid()[2]
        assert np.abs(u0.values - z * (1 - z) / 2).max() < 1e-13

    def test_forcing_x1_dependence_passes_through(self, unit_square):
        # f = (1 + x) stays constant per slice, so u0 = (1 + x) y(1-y)/2
        g = unit_square(8)
        f = ScalarField.from_function(g, lambda x, y: 1.0 + x)
        u0 = limit_of(g, coefficient_family("identity", g), f)
        x, y = g.meshgrid()
        assert np.abs(u0.values - (1 + x) * y * (1 - y) / 2).max() < 1e-13


class TestAttainableResidual:
    """A slice whose line search stalls at roundoff names the attainable
    residual instead of the line search alone."""

    @pytest.mark.parametrize("route", ["cg", "lu"])
    def test_tol_below_roundoff_floor_named(self, route, lu_route):
        g, coeffs, f = checkerboard_case()
        if route == "lu":
            lu_route()
        blocks = operator_blocks(g, coeffs)
        assert blocks.limit.symmetric == (route == "cg")
        solve_limit(blocks, f, tol=1e-11)
        with pytest.raises(SolverError) as err:
            solve_limit(blocks, f, tol=1e-12)
        residual = err.value.residual
        assert 1e-12 < residual < 1e-11
        assert re.fullmatch(
            r"slice \(\d+,\): tol 1\.0e-12 is below the attainable "
            rf"residual {residual:.3e}: the Newton line search found no "
            r"decrease in 30 halvings, at a normwise backward error of "
            r"(\S+), within 32 unit roundoffs", str(err.value))
        eta = float(re.search(r"error of (\S+),", str(err.value)).group(1))
        assert 0.0 < eta <= 32 * np.finfo(float).eps / 2

    def test_gate_stays_at_tol(self, monkeypatch):
        # the diagnosis reads the backward error only: with no multiple
        # of the roundoff counting as attainable the same stall keeps the
        # line search's message, and no tol is loosened either way
        g, coeffs, f = checkerboard_case()
        monkeypatch.setattr(anisolab.solver, "ROUNDOFF_MULTIPLE", 0)
        with pytest.raises(SolverError, match=r"^slice \(\d+,\): Newton "
                           r"line search found no decrease in 30 halvings "
                           r"at residual \S+$") as err:
            solve_limit(operator_blocks(g, coeffs), f, tol=1e-12)
        assert err.value.residual > 1e-12
