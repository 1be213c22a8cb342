import numpy as np
import pytest
import scipy.sparse.linalg as spla

from anisolab import (ConfigError, ScalarField, SolverError,
                      assemble_operator, coefficient_family, forcing_field,
                      make_grid, scale_coefficients, solve_dirichlet,
                      solver_diagnostics)

from test_fd_ops import sine_eigenvector


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


class TestCG:
    def test_matches_direct(self):
        g, op = laplace_setup(16)
        f = forcing_field("sine_product", g)
        direct = solve_dirichlet(op, f, method="direct")
        cg = solve_dirichlet(op, f, tol=1e-12, method="cg")
        assert np.allclose(cg.values, direct.values, atol=1e-9)

    def test_iteration_cap_raises_with_residual(self):
        # constant forcing excites many modes; an eigenvector forcing would
        # converge in one preconditioned iteration and never hit the cap
        g, op = laplace_setup(16)
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


class TestDiagnostics:
    def test_dense_eigenvalues_match_closed_form(self):
        n = 8
        g, op = laplace_setup(n)
        h = 1.0 / n
        modes = [(4 / h ** 2) * (np.sin(i * np.pi * h / 2) ** 2
                                 + np.sin(j * np.pi * h / 2) ** 2)
                 for i in range(1, n) for j in range(1, n)]
        rep = solver_diagnostics(op)
        assert rep.exact
        assert rep.n_unknowns == (n - 1) ** 2
        assert rep.eig_min == pytest.approx(min(modes), rel=1e-12)
        assert rep.eig_max == pytest.approx(max(modes), rel=1e-12)
        assert rep.condition == pytest.approx(max(modes) / min(modes),
                                              rel=1e-12)

    def test_lanczos_path_agrees_with_dense(self):
        g, op = laplace_setup(12)
        dense = solver_diagnostics(op)
        lanczos = solver_diagnostics(op, dense_limit=10)
        assert not lanczos.exact
        assert lanczos.eig_min == pytest.approx(dense.eig_min, rel=1e-6)
        assert lanczos.eig_max == pytest.approx(dense.eig_max, rel=1e-6)

    def test_cg_iterations_reported_and_grow_as_eps_drops(self):
        g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
        f = forcing_field("constant", g, value=1.0)
        base = coefficient_family("identity", g)
        iters = []
        for eps in (1.0, 0.05):
            op = assemble_operator(g, scale_coefficients(base, eps))
            rep = solver_diagnostics(op, rhs=f)
            assert rep.cg_iterations is not None
            iters.append(rep.cg_iterations)
        assert iters[1] > iters[0]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_unconverged_cg_raises_with_residual(self):
        # a zero tolerance is never met, so CG runs to its 20 * n cap, long
        # past roundoff, where its recurrences break down (0/0)
        g = make_grid([(0, 1), (0, 1)], (8, 8), q=1)
        op = assemble_operator(g, coefficient_family("identity", g))
        f = forcing_field("constant", g, value=1.0)
        with pytest.raises(SolverError,
                           match=f"after {20 * op.n_unknowns} iterations"
                           ) as err:
            solver_diagnostics(op, rhs=f, cg_tol=0.0)
        assert err.value.residual is not None
        assert not err.value.residual <= 0.0  # positive, or nan

    def test_condition_grows_as_eps_drops(self):
        g = make_grid([(0, 1), (0, 1)], (8, 8), q=1)
        base = coefficient_family("identity", g)
        conds = [solver_diagnostics(
            assemble_operator(g, scale_coefficients(base, eps))).condition
            for eps in (1.0, 0.1, 0.01)]
        assert conds[0] < conds[1] < conds[2]
