import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from anisolab import (ConfigError, ScalarField, SolverError,
                      assemble_operator, coefficient_family, forcing_field,
                      make_grid, nonlinearity_family, picard_solve,
                      semilinear_limit, solve_dirichlet, solve_limit)
from anisolab.limit import iter_slice_systems

MID_VALUE = 1.0 - 1.0 / np.cosh(0.5)  # 0.11318111602992609


def per_slice_picard(matrix, rhs, a, weight, damping, tol=1e-10,
                     max_iter=200):
    """Reference damped iteration on one slice system."""
    solve = spla.splu(matrix.tocsc()).solve
    u = solve(rhs + a(np.zeros_like(rhs)))
    for m in range(1, max_iter + 1):
        u_next = (1 - damping) * u + damping * solve(rhs + a(u))
        inc = np.linalg.norm(u_next - u) * weight
        done = inc <= tol * max(1.0, np.linalg.norm(u) * weight)
        u = u_next
        if done:
            return u, m
    raise AssertionError("reference iteration did not converge")


def setup(n, family="identity"):
    g = make_grid([(0, 1), (0, 1)], (n, n), q=1)
    coeffs = coefficient_family(family, g)
    op = assemble_operator(g, coeffs)
    f = forcing_field("constant", g, value=1.0)
    return g, coeffs, op, f


class TestNonlinearityFamily:
    def test_shapes_and_signs(self):
        x = np.linspace(-3, 3, 7)
        zero = nonlinearity_family("zero")
        assert np.all(zero(x) == 0.0) and zero.growth == 0.0
        lin = nonlinearity_family("linear", kappa=2.0)
        assert np.allclose(lin(x), -2.0 * x) and lin.growth == 2.0
        tanh = nonlinearity_family("tanh")
        assert np.allclose(tanh(x), -np.tanh(x))
        rat = nonlinearity_family("rational")
        assert np.allclose(rat(x), -x / (1 + np.abs(x)))
        # all terms are nonincreasing
        for a in (zero, lin, tanh, rat):
            vals = a(x)
            assert np.all(np.diff(vals) <= 1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            nonlinearity_family("linear", kappa=-1.0)
        with pytest.raises(ConfigError):
            nonlinearity_family("tanh", kappa=1.0)
        with pytest.raises(ConfigError):
            nonlinearity_family("cubic")


class TestPicard:
    def test_zero_term_is_one_linear_step(self):
        _, _, op, f = setup(16)
        res = picard_solve(op, f, nonlinearity_family("zero"))
        assert res.iterations == 1
        linear = solve_dirichlet(op, f)
        assert np.array_equal(res.field.values, linear.values)
        assert res.residual < 1e-12
        assert len(res.increments) == res.iterations
        assert res.final_increment == res.increments[-1]

    def test_linear_term_matches_shifted_system(self):
        # a(u) = -kappa u folds into the matrix: (L + kappa I) u = f
        kappa = 3.0
        g, _, op, f = setup(16)
        res = picard_solve(op, f, nonlinearity_family("linear",
                                                      kappa=kappa),
                           tol=1e-12)
        shifted = op.matrix + kappa * sp.eye(op.n_unknowns, format="csr")
        direct = spla.spsolve(shifted.tocsc(), f.interior_vector())
        assert np.allclose(res.field.interior_vector(), direct, atol=1e-10)

    def test_bounded_terms_converge_with_small_residual(self):
        _, _, op, f = setup(16)
        for name in ("tanh", "rational"):
            res = picard_solve(op, f, nonlinearity_family(name))
            assert res.residual < 1e-8
            assert res.iterations < 60

    def test_undamped_expansion_exhausts_iterations(self):
        # kappa above the smallest operator eigenvalue (~2 pi^2) makes the
        # undamped map expansive; damping 0.5 would still tame it
        _, _, op, f = setup(16)
        a = nonlinearity_family("linear", kappa=30.0)
        with pytest.raises(SolverError) as err:
            picard_solve(op, f, a, damping=1.0, max_iter=30)
        assert err.value.last_increment is not None
        assert err.value.last_increment > 1.0
        res = picard_solve(op, f, a, damping=0.5)
        assert res.residual < 1e-6

    def test_damping_validated(self):
        _, _, op, f = setup(8)
        for d in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                picard_solve(op, f, nonlinearity_family("zero"), damping=d)

    def test_wrong_grid_rejected(self):
        _, _, op, _ = setup(8)
        f = forcing_field("constant", make_grid([(0, 1), (0, 1)], (16, 16),
                                                q=1), value=1.0)
        with pytest.raises(ConfigError):
            picard_solve(op, f, nonlinearity_family("zero"))


class TestSemilinearLimit:
    def test_zero_term_equals_linear_limit(self):
        g, coeffs, _, f = setup(12, family="variable")
        res = semilinear_limit(g, coeffs, f, nonlinearity_family("zero"))
        linear = solve_limit(g, coeffs, f)
        assert np.allclose(res.field.values, linear.values, atol=1e-12)
        assert res.iterations == 1

    def test_cosh_profile_second_order(self):
        # per slice: -u'' = 1 - u, so u = 1 - cosh(y - 1/2)/cosh(1/2)
        a = nonlinearity_family("linear", kappa=1.0)
        errs = []
        for n in (8, 16, 32):
            g, coeffs, _, f = setup(n)
            res = semilinear_limit(g, coeffs, f, a)
            y = g.meshgrid()[1]
            exact = 1 - np.cosh(y - 0.5) / np.cosh(0.5)
            errs.append(np.abs(res.field.values - exact).max())
            assert errs[-1] < 0.02 / n ** 2
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(np.abs(ratios - 4.0) < 0.3)

    def test_midpoint_value_pinned(self):
        n = 32
        g, coeffs, _, f = setup(n)
        res = semilinear_limit(g, coeffs, f,
                               nonlinearity_family("linear", kappa=1.0))
        mid = res.field.values[n // 2, n // 2]
        assert mid == pytest.approx(MID_VALUE, abs=0.02 / n ** 2)

    def test_matches_per_slice_iterations(self):
        g = make_grid([(0, 1), (0, 1), (0, 1)], (4, 5, 10), q=2)
        coeffs = coefficient_family("variable", g)
        f = forcing_field("sine_product", g)
        a = nonlinearity_family("tanh")
        weight = np.sqrt(g.spacing[2])
        out = np.zeros(g.node_shape)
        iters = []
        for _, matrix, rhs, scatter in iter_slice_systems(g, coeffs, f):
            u, m = per_slice_picard(matrix, 20 * rhs, a, weight, 0.7)
            scatter(u, out)
            iters.append(m)
        res = semilinear_limit(g, coeffs, ScalarField(g, 20 * f.values), a,
                               damping=0.7)
        assert len(set(iters)) > 1  # slices really stop at different steps
        assert res.iterations == max(iters)
        assert len(res.increments) == max(iters)
        assert np.abs(res.field.values - out).max() <= 1e-12 * np.abs(
            out).max()

    def test_exhausted_slice_named(self):
        g, coeffs, _, f = setup(8)
        a = nonlinearity_family("linear", kappa=30.0)
        with pytest.raises(SolverError, match=r"^slice \(\d+,\): damped"):
            semilinear_limit(g, coeffs, f, a, damping=1.0, max_iter=20)

    def test_worst_slice_reporting(self):
        g, coeffs, _, f = setup(8)
        res = semilinear_limit(g, coeffs, f, nonlinearity_family("tanh"))
        assert res.iterations >= 1
        assert res.residual < 1e-8
        assert len(res.increments) == res.iterations
