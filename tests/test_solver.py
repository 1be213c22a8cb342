import dataclasses

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import anisolab.solver
from anisolab import (ConfigError, ScalarField, SolverError,
                      assemble_operator, coefficient_family, forcing_field,
                      make_grid, scale_coefficients, solve_dirichlet)
from anisolab.fd_ops import SparseOperator
from anisolab.fd_ops import assemble_flux_matrix
from anisolab.solver import (fast_diagonal_preconditioner, pcg,
                             relative_residual, resolve_method,
                             sine_transform)

from test_fd_ops import BLOCK_CASES, sine_eigenvector, varying_asymmetric


def laplace_setup(n):
    g = make_grid([(0, 1), (0, 1)], (n, n), q=1)
    op = assemble_operator(g, coefficient_family("identity", g))
    return g, op


class TestDirect:
    def test_eigenvector_rhs_recovered_exactly(self):
        g, op = laplace_setup(8)
        u, lam = sine_eigenvector(g, 2, 1)
        f = ScalarField(g, lam * u.values)
        got = solve_dirichlet(op, f)
        assert np.allclose(got.values, u.values, atol=1e-12)
        assert np.all(got.values[0] == 0.0)
        assert np.all(got.values[:, -1] == 0.0)

    def test_mms_second_order(self):
        errs = []
        for n in (16, 32, 64):
            g, op = laplace_setup(n)
            u_exact = ScalarField.from_function(
                g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
            f = ScalarField(g, 2 * np.pi ** 2 * u_exact.values)
            got = solve_dirichlet(op, f)
            errs.append(np.abs(got.values - u_exact.values).max())
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(slopes - 2.0) < 0.1)

    def test_anisotropic_scaling_still_solvable(self):
        g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
        f = forcing_field("sine_product", g)
        for eps in (1.0, 0.1, 0.01, 0.001):
            coeffs = scale_coefficients(coefficient_family("variable", g),
                                        eps)
            u = solve_dirichlet(assemble_operator(g, coeffs), f)
            assert np.isfinite(u.values).all()

    def test_wrong_grid_rejected(self):
        _, op = laplace_setup(4)
        g8 = make_grid([(0, 1), (0, 1)], (8, 8), q=1)
        with pytest.raises(ConfigError):
            solve_dirichlet(op, ScalarField.zeros(g8))

    def test_symmetric_ordering_matches_colamd(self):
        g = make_grid([(0, 1), (0, 1)], (24, 24), q=1)
        f = forcing_field("sine_product", g)
        op = assemble_operator(
            g, scale_coefficients(coefficient_family("variable", g), 0.1))
        assert op.symmetric
        got = solve_dirichlet(op, f).interior_vector()
        colamd = spla.splu(op.matrix.tocsc(), permc_spec="COLAMD")
        ref = colamd.solve(f.interior_vector())
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
        lu = op.factor()
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz

    def test_unknown_method_rejected(self):
        g, op = laplace_setup(4)
        with pytest.raises(ConfigError):
            solve_dirichlet(op, ScalarField.zeros(g), method="gmres")


class TestRelativeResidual:
    def test_zero_rhs_block_is_absolute(self, rng):
        # a zero right-hand side keeps the absolute residual |A x|, any
        # other is divided by |b|
        g, op = laplace_setup(6)
        x = rng.standard_normal(op.n_unknowns)
        b = rng.standard_normal(op.n_unknowns)
        got = relative_residual(op.matrix, x, b)
        assert got == pytest.approx(
            np.linalg.norm(op.matrix @ x - b) / np.linalg.norm(b), rel=1e-14)
        zero = relative_residual(op.matrix, x, np.zeros_like(b))
        assert zero == pytest.approx(np.linalg.norm(op.matrix @ x),
                                     rel=1e-14)


class TestCG:
    def test_matches_direct(self):
        g, op = laplace_setup(16)
        f = forcing_field("sine_product", g)
        direct = solve_dirichlet(op, f, method="direct")
        cg = solve_dirichlet(op, f, tol=1e-12, method="cg")
        assert np.allclose(cg.values, direct.values, atol=1e-9)

    def test_iteration_cap_raises_with_residual(self):
        # the preconditioner is exact for the Laplacian, so the variable
        # table (about ten iterations) is needed for the cap of
        # ceil(0.1 * 15) = 2 iterations to bind
        g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
        op = assemble_operator(g, coefficient_family("variable", g))
        f = forcing_field("constant", g, value=1.0)
        with pytest.raises(SolverError) as err:
            solve_dirichlet(op, f, tol=1e-14, method="cg",
                            maxiter_factor=0.1)
        assert err.value.residual is not None
        assert err.value.residual > 1e-14

    def test_asymmetric_operator_rejected(self):
        g = make_grid([(0, 1), (0, 1)], (4, 4), q=1)
        x, y = g.meshgrid()
        entries = np.zeros((2, 2) + g.node_shape)
        entries[0, 0] = 2.0
        entries[1, 1] = 2.0
        entries[0, 1] = 0.3 * x
        from anisolab import CoefficientField
        op = assemble_operator(g, CoefficientField(g, entries, lam=0.5))
        with pytest.raises(ConfigError):
            solve_dirichlet(op, ScalarField.zeros(g), method="cg")


class _CountingPCG:
    """Stands in for ``anisolab.solver.pcg`` and counts the CG steps the
    solver runs, as the real one returns them."""

    def __init__(self):
        self.iterations = 0

    def __call__(self, *args, **kwargs):
        x, steps = pcg(*args, **kwargs)
        self.iterations += int(steps.sum())
        return x, steps


class _DriftingPCG:
    """Stands in for ``anisolab.solver.pcg``.

    It runs the real one, then for the first ``drifting`` calls adds a
    step of residual ``2 * tol * |b|`` to the iterate, so a converged one
    ends 1-3 times ``tol`` from ``b``, as a drifting recurrence residual
    can leave it.  With ``stall``, calls after the first return their
    ``x0`` without a step.  It records each ``x0``.
    """

    def __init__(self, drifting, stall=False):
        self.drifting = drifting
        self.stall = stall
        self.x0s = []
        self.iterations = 0

    def __call__(self, matrix, b, precond, tol, maxiter, x0=None):
        self.x0s.append(None if x0 is None else x0.ravel().copy())
        if self.stall and x0 is not None:
            return x0, np.zeros(len(b), dtype=int)
        x, steps = pcg(matrix, b, precond, tol, maxiter, x0=x0)
        self.iterations += int(steps.sum())
        if len(self.x0s) <= self.drifting:
            e = np.zeros(b.size)
            e[b.size // 2] = 1.0
            step = 2 * tol * np.linalg.norm(b) / np.linalg.norm(matrix @ e)
            x = x + step * e.reshape(x.shape)
        return x, steps


def slice_blocks(tables, cells=16):
    """Block-diagonal system of 1-D Dirichlet operators, one per a_22
    node table, and its fast-diagonalization preconditioner."""
    h = (1.0 / cells,)
    matrix = sp.block_diag(
        [assemble_flux_matrix((cells,), h, t.reshape(1, 1, -1))
         for t in tables], format="csr")
    means = [[t.mean()] for t in tables]
    return matrix, fast_diagonal_preconditioner((cells,), h, means)


class TestPCG:
    y = np.linspace(0.0, 1.0, 17)
    # a constant table, which the preconditioner inverts exactly, and two
    # varying ones that take more steps
    tables = [np.full(17, 2.0), 1.0 + y ** 2,
              1.0 + 3.0 * np.sin(np.pi * y) ** 2]

    def test_converged_block_iterate_is_frozen(self, rng):
        matrix, precond = slice_blocks(self.tables)
        b = rng.standard_normal((3, 15))
        x, steps = pcg(matrix, b, precond, 1e-10, 100)
        assert steps[0] == 1 and steps[0] < steps[1] and steps[0] < steps[2]
        assert len(set(steps)) > 1
        res = np.linalg.norm((matrix @ x.ravel()).reshape(3, -1) - b, axis=1)
        assert np.all(res <= 1e-10 * np.linalg.norm(b, axis=1))
        for k in range(1, int(steps.max()) + 1):
            xk, steps_k = pcg(matrix, b, precond, 1e-10, k)
            assert np.array_equal(steps_k, np.minimum(steps, k))
            for block in np.flatnonzero(steps <= k):
                assert np.array_equal(xk[block], x[block])

    def test_blocks_keep_their_own_tolerance(self, rng):
        matrix, precond = slice_blocks(self.tables[1:])
        b = rng.standard_normal((2, 15))
        x, steps = pcg(matrix, b, precond, np.array([1e-2, 1e-12]), 100)
        assert steps[0] < steps[1]
        res = np.linalg.norm((matrix @ x.ravel()).reshape(2, -1) - b, axis=1)
        rel = res / np.linalg.norm(b, axis=1)
        assert 1e-12 < rel[0] <= 1e-2 and rel[1] <= 1e-12

    def test_zero_rhs_block_stays_zero(self, rng):
        # no division by a zero norm or a zero curvature: the block
        # starts frozen at x = 0 (warnings are errors in this suite)
        matrix, precond = slice_blocks(self.tables)
        b = rng.standard_normal((3, 15))
        b[1] = 0.0
        x, steps = pcg(matrix, b, precond, 1e-10, 100)
        assert steps[1] == 0 and np.all(x[1] == 0.0)
        assert steps[0] == 1 and steps[2] > 1
        x, steps = pcg(matrix, np.zeros((3, 15)), precond, 0.0, 100)
        assert np.all(steps == 0) and np.all(x == 0.0)

    def test_restart_continues_from_x0(self, rng):
        matrix, precond = slice_blocks(self.tables)
        b = rng.standard_normal((3, 15))
        x, _ = pcg(matrix, b, precond, 1e-4, 100)
        x0 = x.copy()
        y, steps = pcg(matrix, b, precond, 1e-12, 100, x0=x)
        assert np.array_equal(x, x0)  # the start is not written to
        res = np.linalg.norm((matrix @ y.ravel()).reshape(3, -1) - b, axis=1)
        assert np.all(res <= 1e-11 * np.linalg.norm(b, axis=1))
        # the constant block was solved to roundoff by its one step
        assert steps[0] == 0 and np.all(steps[1:] > 0)
        again, steps = pcg(matrix, b, precond, 1e-2, 100, x0=y)
        assert np.all(steps == 0) and np.array_equal(again, y)


class TestCGRestart:
    def variable_setup(self, n):
        g = make_grid([(0, 1), (0, 1)], (n, n), q=1)
        op = assemble_operator(g, coefficient_family("variable", g))
        return op, forcing_field("sine_product", g)

    def test_drifted_iterate_is_continued(self, monkeypatch):
        op, f = self.variable_setup(32)
        fake = _DriftingPCG(drifting=1)
        monkeypatch.setattr(anisolab.solver, "pcg", fake)
        u = solve_dirichlet(op, f, tol=1e-10, method="cg")
        assert len(fake.x0s) == 2 and fake.x0s[0] is None
        b = f.interior_vector()
        assert relative_residual(op.matrix, fake.x0s[1], b) > 1e-10
        assert relative_residual(op.matrix, u.interior_vector(), b) \
            <= 1e-10
        assert fake.iterations <= np.ceil(20 * np.sqrt(op.n_unknowns))

    def test_raises_once_budget_spent(self, monkeypatch):
        op, f = self.variable_setup(16)
        fake = _DriftingPCG(drifting=np.inf)
        monkeypatch.setattr(anisolab.solver, "pcg", fake)
        with pytest.raises(SolverError) as err:
            solve_dirichlet(op, f, tol=1e-10, method="cg", maxiter_factor=2)
        assert len(fake.x0s) > 2
        assert fake.iterations == np.ceil(2 * np.sqrt(op.n_unknowns))
        assert err.value.residual > 1e-10

    def test_restart_without_a_step_stops(self, monkeypatch):
        op, f = self.variable_setup(16)
        fake = _DriftingPCG(drifting=np.inf, stall=True)
        monkeypatch.setattr(anisolab.solver, "pcg", fake)
        with pytest.raises(SolverError, match="missed tolerance"):
            solve_dirichlet(op, f, tol=1e-10, method="cg")
        assert len(fake.x0s) == 2


class TestAuto:
    def count_factor(self, monkeypatch):
        calls = []
        real = SparseOperator.factor

        def factor(op):
            calls.append(op)
            return real(op)
        monkeypatch.setattr(SparseOperator, "factor", factor)
        return calls

    def test_symmetric_operator_runs_cg_without_factoring(self,
                                                          monkeypatch):
        calls = self.count_factor(monkeypatch)
        counter = _CountingPCG()
        monkeypatch.setattr(anisolab.solver, "pcg", counter)
        g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
        op = assemble_operator(
            g, scale_coefficients(coefficient_family("variable", g), 0.1))
        assert op.symmetric and resolve_method(op, "auto") == "cg"
        f = forcing_field("sine_product", g)
        u = solve_dirichlet(op, f, method="auto")
        assert counter.iterations > 0 and calls == []
        cg = solve_dirichlet(op, f, method="cg")
        assert np.array_equal(u.values, cg.values)

    def test_nonsymmetric_operator_factors(self, monkeypatch):
        ndim, q, (family, params) = BLOCK_CASES[-1]
        g = make_grid([(0, 1)] * ndim, (5, 6, 4), q=q)
        # the constant asymmetric table assembles symmetric and runs by CG
        op = assemble_operator(g, coefficient_family(family, g, **params))
        assert op.symmetric and resolve_method(op, "auto") == "cg"
        op = assemble_operator(g, varying_asymmetric(g, **params))
        assert not op.symmetric and resolve_method(op, "auto") == "direct"
        calls = self.count_factor(monkeypatch)
        f = forcing_field("sine_product", g)
        u = solve_dirichlet(op, f, method="auto")
        assert calls == [op]
        direct = solve_dirichlet(op, f, method="direct")
        assert np.array_equal(u.values, direct.values)


class TestFastDiagonalization:
    @pytest.mark.parametrize("shape", [(7,), (5, 9), (3, 4, 6)])
    def test_sine_transform_orthonormal_involution(self, shape, rng):
        x = rng.standard_normal(shape)
        y = sine_transform(x)
        assert np.allclose(y, scipy.fft.dstn(x, type=1, norm="ortho"),
                           rtol=0.0, atol=1e-13)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x),
                                                  rel=1e-13)
        assert np.allclose(sine_transform(y), x, rtol=0.0, atol=1e-13)

    def test_sine_matrices_shared_and_read_only(self):
        # a square grid's two axes share one matrix, built by the formula
        a, b = anisolab.solver._sine_matrices((9, 9))
        assert a is b
        assert a is anisolab.solver._sine_matrices((9, 4))[0]
        assert not a.flags.writeable
        k = np.arange(1, 10)
        assert np.array_equal(
            a, np.sqrt(2.0 / 10) * np.sin(np.pi * np.outer(k, k) / 10))
        with pytest.raises(ValueError):
            a[0, 0] = 0.0

    @pytest.mark.parametrize("cells, q, diag, eps", [
        ((9, 12), 1, [2.0, 0.5], 1.0),
        ((9, 12), 1, [2.0, 0.5], 0.01),
        ((5, 6, 7), 2, [1.0, 3.0, 0.25], 0.1),
    ])
    def test_exact_inverse_for_constant_diagonal_table(self, cells, q, diag,
                                                       eps, rng):
        g = make_grid([(0, 1), (0, 2), (0, 1)][:len(cells)], cells, q=q)
        coeffs = coefficient_family("constant", g, matrix=np.diag(diag))
        op = assemble_operator(g, scale_coefficients(coeffs, eps))
        x = rng.standard_normal(op.n_unknowns)
        precond = fast_diagonal_preconditioner(g.cells, g.spacing,
                                               [op.axis_means])
        got = precond((op.matrix @ x)[None])[0]
        assert np.allclose(got, x, rtol=0.0, atol=1e-12)

    def test_nonpositive_means_rejected(self, unit_square):
        g = unit_square(6)
        op = assemble_operator(g, coefficient_family("identity", g))
        bad = dataclasses.replace(op, axis_means=(1.0, -1.0))
        with pytest.raises(SolverError, match="preconditioner"):
            solve_dirichlet(bad, forcing_field("sine_product", g),
                            method="cg")

    def test_iterations_flat_in_epsilon(self, monkeypatch):
        g = make_grid([(0, 1), (0, 1)], (64, 64), q=1)
        coeffs = coefficient_family("variable", g)
        f = forcing_field("sine_product", g)
        for eps in (1.0, 0.1, 0.01, 0.001):
            counter = _CountingPCG()
            monkeypatch.setattr(anisolab.solver, "pcg", counter)
            op = assemble_operator(g, scale_coefficients(coeffs, eps))
            solve_dirichlet(op, f, method="cg")
            assert 0 < counter.iterations <= 20, eps
