import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft
import scipy.sparse
import scipy.sparse.linalg as spla

import anisolab.solver
from anisolab import (ConfigError, ScalarField, SolverError,
                      assemble_operator, coefficient_family, forcing_field,
                      make_grid, scale_coefficients, solve_dirichlet)
from anisolab.fd_ops import SparseOperator
from anisolab.solver import (fast_diagonal_preconditioner, relative_residual,
                             resolve_method, sine_transform)

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
        # two blocks: the first has a zero right-hand side and keeps the
        # absolute residual |A x|, the second is divided by |b|
        g, op = laplace_setup(6)
        n = op.n_unknowns
        a = scipy.sparse.block_diag([op.matrix, op.matrix]).tocsr()
        x = rng.standard_normal(2 * n)
        b = np.concatenate([np.zeros(n), rng.standard_normal(n)])
        r = a @ x - b
        got = relative_residual(a, x, b, blocks=2)
        assert got[0] == pytest.approx(np.linalg.norm(r[:n]), rel=1e-14)
        assert got[1] == pytest.approx(
            np.linalg.norm(r[n:]) / np.linalg.norm(b[n:]), rel=1e-14)
        whole = relative_residual(a, x, np.zeros(2 * n))
        assert whole.shape == (1,)
        assert whole[0] == pytest.approx(np.linalg.norm(a @ x), rel=1e-14)


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


class _CountingLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside ``anisolab.solver`` and
    counts the CG iterations the solver runs."""

    def __init__(self):
        self.iterations = 0

    def __getattr__(self, name):
        return getattr(spla, name)

    def cg(self, *args, callback=None, **kwargs):
        def counting(xk):
            self.iterations += 1
        return spla.cg(*args, callback=counting, **kwargs)


class _DriftingLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside ``anisolab.solver``.

    Its ``cg`` runs scipy's, then for the first ``drifting`` calls adds a
    step of residual ``2 * rtol * |b|`` to the iterate, so a converged one
    ends 1-3 times ``rtol`` from ``b``, as a drifting recurrence residual
    can leave it.  With ``stall``, calls
    after the first report convergence without a step.  It records each
    ``x0``.
    """

    def __init__(self, drifting, stall=False):
        self.drifting = drifting
        self.stall = stall
        self.x0s = []
        self.iterations = 0

    def __getattr__(self, name):
        return getattr(spla, name)

    def cg(self, A, b, x0=None, rtol=None, callback=None, **kwargs):
        self.x0s.append(None if x0 is None else x0.copy())
        if self.stall and x0 is not None:
            return x0, 0

        def counting(xk):
            self.iterations += 1
            callback(xk)
        x, info = spla.cg(A, b, x0=x0, rtol=rtol, callback=counting,
                          **kwargs)
        if len(self.x0s) <= self.drifting:
            e = np.zeros_like(x)
            e[len(x) // 2] = 1.0
            x = x + 2 * rtol * np.linalg.norm(b) / np.linalg.norm(A @ e) * e
        return x, info


class TestCGRestart:
    def variable_setup(self, n):
        g = make_grid([(0, 1), (0, 1)], (n, n), q=1)
        op = assemble_operator(g, coefficient_family("variable", g))
        return op, forcing_field("sine_product", g)

    def test_drifted_iterate_is_continued(self, monkeypatch):
        op, f = self.variable_setup(32)
        fake = _DriftingLinalg(drifting=1)
        monkeypatch.setattr(anisolab.solver, "spla", fake)
        u = solve_dirichlet(op, f, tol=1e-10, method="cg")
        assert len(fake.x0s) == 2 and fake.x0s[0] is None
        b = f.interior_vector()
        assert relative_residual(op.matrix, fake.x0s[1], b)[0] > 1e-10
        assert relative_residual(op.matrix, u.interior_vector(), b)[0] \
            <= 1e-10
        assert fake.iterations <= np.ceil(20 * np.sqrt(op.n_unknowns))

    def test_raises_once_budget_spent(self, monkeypatch):
        op, f = self.variable_setup(16)
        fake = _DriftingLinalg(drifting=np.inf)
        monkeypatch.setattr(anisolab.solver, "spla", fake)
        with pytest.raises(SolverError) as err:
            solve_dirichlet(op, f, tol=1e-10, method="cg", maxiter_factor=2)
        assert len(fake.x0s) > 2
        assert fake.iterations == np.ceil(2 * np.sqrt(op.n_unknowns))
        assert err.value.residual > 1e-10

    def test_restart_without_a_step_stops(self, monkeypatch):
        op, f = self.variable_setup(16)
        fake = _DriftingLinalg(drifting=np.inf, stall=True)
        monkeypatch.setattr(anisolab.solver, "spla", fake)
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
        counter = _CountingLinalg()
        monkeypatch.setattr(anisolab.solver, "spla", counter)
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

    def test_threads_share_the_cached_matrices(self):
        # more threads than cores build the matrices and solve with them
        # at once; every solve matches its serial twin bit for bit
        g = make_grid([(0, 1), (0, 1)], (24, 24), q=1)
        coeffs = coefficient_family("variable", g)
        f = forcing_field("sine_product", g)
        ops = [assemble_operator(g, scale_coefficients(coeffs, eps))
               for eps in (1.0, 0.3, 0.1, 0.03)] * 3
        serial = [solve_dirichlet(op, f, method="cg").values for op in ops]
        anisolab.solver._sine_matrix.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(
                    lambda op: solve_dirichlet(op, f, method="cg").values,
                    ops, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, serial, strict=True):
            assert np.array_equal(a, b)

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
        got = fast_diagonal_preconditioner(op) @ (op.matrix @ x)
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
            counter = _CountingLinalg()
            monkeypatch.setattr(anisolab.solver, "spla", counter)
            op = assemble_operator(g, scale_coefficients(coeffs, eps))
            solve_dirichlet(op, f, method="cg")
            assert 0 < counter.iterations <= 20, eps
