import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

import anisolab.solver
from anisolab import (ConfigError, ScalarField, SolverError,
                      assemble_operator, coefficient_family, forcing_field,
                      make_grid, nonlinearity_family, operator_blocks,
                      picard_solve, scale_coefficients, semilinear_limit,
                      solve_dirichlet, solve_limit)
from anisolab.fd_ops import Stencil
from anisolab.limit import iter_slice_systems
from anisolab.solver import ARMIJO, jacobian, pcg, resolve_method

from conftest import csr, is_symmetric

from test_fd_ops import traced_rise, varying_asymmetric
from test_limit import block_cases, nonsymmetric_q2_case

MID_VALUE = 1.0 - 1.0 / np.cosh(0.5)  # 0.11318111602992609
FAMILIES = ("zero", "linear", "tanh", "rational")
# scaled above the diagonal by varying_asymmetric, a table whose matrix
# is not symmetric
SKEW = [[2.0, 0.5], [0.3, 1.0]]


def per_slice_newton(matrix, rhs, a, tol=1e-10, max_iter=200):
    """Reference Newton on one slice system from u = 0: spsolve steps,
    halved until the Armijo rule holds.  Returns the iterate, the steps
    and the number of halvings."""
    def residual(u):
        return matrix @ u - (rhs + a(u))

    u = np.zeros_like(rhs)
    halvings = 0
    for m in range(max_iter + 1):
        F = residual(u)
        if np.linalg.norm(F) <= tol * np.linalg.norm(rhs + a(u)):
            return u, m, halvings
        J = csr(matrix) + sp.diags(-a.deriv(u))
        du = spla.spsolve(J.tocsc(), -F)
        t = 1.0
        while (np.linalg.norm(residual(u + t * du))
               > (1 - ARMIJO * t) * np.linalg.norm(F)):
            t /= 2
            halvings += 1
        u = u + t * du
    raise AssertionError("reference Newton did not converge")


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
            assert a.deriv(x).shape == x.shape

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            nonlinearity_family("linear", kappa=-1.0)
        with pytest.raises(ConfigError):
            nonlinearity_family("tanh", kappa=1.0)
        with pytest.raises(ConfigError):
            nonlinearity_family("cubic")

    @given(st.sampled_from(FAMILIES), st.floats(0.0, 10.0),
           st.floats(-50.0, 50.0))
    def test_derivative_matches_central_difference(self, name, kappa, x):
        a = nonlinearity_family(name, **({"kappa": kappa}
                                         if name == "linear" else {}))
        h = 1e-6 * max(1.0, abs(x))
        pts = np.array([x - h, x, x + h])
        central = (a(pts[2:]) - a(pts[:1]))[0] / (2 * h)
        deriv = a.deriv(pts[1:2])[0]
        assert deriv <= 0.0
        assert abs(deriv - central) <= 1e-5 * (1.0 + a.growth)

    def test_tanh_derivative_finite_far_out(self):
        d = nonlinearity_family("tanh").deriv(np.array([-1e4, 0.0, 1e4]))
        assert np.array_equal(d, [0.0, -1.0, 0.0])

    def test_jacobian_symmetric_for_symmetric_table(self):
        g, _, op, _ = setup(8, family="variable")
        assert op.symmetric
        u = np.random.default_rng(3).standard_normal(op.n_unknowns)
        J = csr(jacobian(op.matrix, nonlinearity_family("tanh").deriv(u)))
        assert is_symmetric(J)
        L = csr(op.matrix)
        assert np.array_equal(J.diagonal(),
                              L.diagonal() + 1 / np.cosh(u) ** 2)
        assert (J - L).nnz <= op.n_unknowns

    def test_jacobian_writes_the_stored_diagonal(self):
        # the same entries as a copy of the matrix with its diagonal set:
        # a copy of the rows, the centre row less a'(u)
        _, _, op, _ = setup(8, family="variable")
        tanh = nonlinearity_family("tanh")
        u = np.random.default_rng(4).standard_normal(op.n_unknowns)
        before = op.matrix.rows.copy()
        J = jacobian(op.matrix, tanh.deriv(u))
        assert J.offsets == op.matrix.offsets
        assert not np.shares_memory(J.rows, op.matrix.rows)
        ref = csr(op.matrix)
        ref.setdiag(ref.diagonal() - tanh.deriv(u))
        got = csr(J)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        assert np.array_equal(op.matrix.rows, before)
        # reused for another iterate, the same rows hold a fresh
        # Jacobian's, bit for bit
        v = 2.0 * u
        again = jacobian(op.matrix, tanh.deriv(v), into=J)
        assert again is J
        assert np.array_equal(J.rows,
                              jacobian(op.matrix, tanh.deriv(v)).rows)
        assert np.array_equal(op.matrix.rows, before)

    def test_jacobian_copies_only_the_stored_rows(self):
        # a symmetric matrix stores half its offsets, and its Jacobian
        # copies those rows; one reused for another iterate copies none
        g = make_grid([(0, 1)] * 3, (16, 16, 16), q=1)
        matrix = operator_blocks(
            g, coefficient_family("variable", g)).at(0.5).matrix
        assert matrix.rows.shape[0] == 10 < len(matrix.offsets)
        deriv = nonlinearity_family("tanh").deriv(
            np.linspace(-1.0, 1.0, matrix.shape[0]))
        J, rise = traced_rise(lambda: jacobian(matrix, deriv))
        assert J.stored == matrix.stored
        assert matrix.rows.nbytes <= rise < matrix.rows.nbytes + deriv.nbytes
        _, rise = traced_rise(lambda: jacobian(matrix, deriv, into=J))
        assert rise < deriv.nbytes

    def test_jacobian_needs_the_stored_diagonal(self):
        # two unknowns coupled by off-diagonal offsets only
        matrix = Stencil((2,), [(-1,), (1,)], np.array([[0.0, 1.0],
                                                        [1.0, 0.0]]))
        with pytest.raises(ConfigError):
            jacobian(matrix, np.zeros(2))


class TestPicard:
    def test_zero_term_is_one_linear_step(self, lu_route):
        _, _, op, f = setup(16, family="variable")
        zero = nonlinearity_family("zero")
        lu_route()
        linear = solve_dirichlet(op, f)
        # an exact step: the first Newton step is the linear solve
        res = picard_solve(op, f, zero)
        assert res.iterations == 1
        assert np.array_equal(res.field.values, linear.values)
        assert res.residual < 1e-12
        # a CG step where a' = 0 stops at the forcing term tol / residual,
        # so the first one lands within tol too
        res = picard_solve(op, f, zero, method="cg", tol=1e-10)
        assert res.iterations == 1 and res.residual <= 1e-10
        assert np.abs(res.field.values - linear.values).max() <= (
            1e-10 * np.abs(linear.values).max())

    def test_linear_term_matches_shifted_system(self):
        # a(u) = -kappa u folds into the matrix: (L + kappa I) u = f
        kappa = 3.0
        g, _, op, f = setup(16)
        res = picard_solve(op, f, nonlinearity_family("linear",
                                                      kappa=kappa),
                           tol=1e-12)
        assert res.residual <= 1e-12
        shifted = csr(op.matrix) + kappa * sp.eye(op.n_unknowns,
                                                  format="csr")
        direct = spla.spsolve(shifted.tocsc(), f.interior_vector())
        assert np.allclose(res.field.interior_vector(), direct, atol=1e-10)

    def test_bounded_terms_converge_with_small_residual(self):
        g, _, symmetric, f = setup(16)
        # a varying skew part: the matrix is not symmetric, and auto
        # factors it
        skew = assemble_operator(g, varying_asymmetric(g, SKEW, lam=0.5))
        for name in ("tanh", "rational"):
            a = nonlinearity_family(name)
            for op, method in ((symmetric, "cg"), (skew, "auto")):
                res = picard_solve(op, f, a, method=method)
                assert res.residual <= 1e-10
                assert res.iterations < 10
                # the reported residual is the true one
                u = res.field.interior_vector()
                rhs = f.interior_vector() + a(u)
                assert res.residual == pytest.approx(
                    np.linalg.norm(op.matrix @ u - rhs)
                    / np.linalg.norm(rhs), rel=1e-12)

    def test_max_iter_too_small_raises_with_residual(self):
        _, _, op, f = setup(16, family="variable")
        a = nonlinearity_family("tanh")
        with pytest.raises(SolverError, match="Newton exhausted 1 steps") \
                as err:
            picard_solve(op, f, a, max_iter=1)
        assert err.value.residual is not None
        assert err.value.residual > 1e-10
        res = picard_solve(op, f, a)
        assert res.residual <= 1e-10 and res.iterations > 1

    def test_forcing_floor_cuts_cg_steps(self, monkeypatch):
        # semilinear.cfg on 32^2: with the forcing term floored at half
        # the gate over the residual, the last Newton step stops solving
        # far below the gate; without it (floor 0) the same rows took 34
        # CG steps where they now take 24, in 10 Newton steps either way
        g = make_grid([(0, 1), (0, 1)], (32, 32), q=1)
        coeffs = coefficient_family("variable", g)
        f = forcing_field("sine_product", g)
        tanh = nonlinearity_family("tanh")

        def run():
            cg_steps, newton_steps = 0, 0

            def counting(*args):
                nonlocal cg_steps
                out = pcg(*args)
                cg_steps += int(out[1].sum())
                return out
            monkeypatch.setattr(anisolab.solver, "pcg", counting)
            for eps in (1.0, 0.25, 0.0625):
                res = picard_solve(assemble_operator(
                    g, scale_coefficients(coeffs, eps)), f, tanh)
                assert res.residual <= 1e-10
                newton_steps += res.iterations
            return cg_steps, newton_steps

        floored = run()
        monkeypatch.setattr(anisolab.solver, "FORCING_FLOOR", 0.0)
        unfloored = run()
        assert floored[0] < unfloored[0]
        assert floored[1] <= unfloored[1]

    def test_negative_max_iter_rejected(self):
        # a negative cap never equals the step count, so Newton would run
        # without one
        g, coeffs, op, f = setup(16, family="variable")
        a = nonlinearity_family("tanh")
        with pytest.raises(ConfigError, match="max_iter"):
            picard_solve(op, f, a, max_iter=-1)
        with pytest.raises(ConfigError, match="max_iter"):
            semilinear_limit(operator_blocks(g, coeffs), f, a, max_iter=-1)

    @pytest.mark.parametrize("route", ["cg", "direct"])
    def test_unreachable_tol_raises_with_residual(self, route):
        # below roundoff no step can decrease |F|: the line search gives
        # up and reports the residual reached instead of looping on; the
        # LU runs on a table whose matrix is not symmetric
        g, _, op, f = setup(16, family="variable")
        method = route
        if route == "direct":
            op = assemble_operator(g, varying_asymmetric(g, SKEW, lam=0.5))
            method = "auto"
        with pytest.raises(SolverError, match="line search") as err:
            picard_solve(op, f, nonlinearity_family("tanh"), tol=1e-20,
                         method=method)
        assert 0 < err.value.residual < 1e-13

    def test_cg_route_needs_symmetric_operator(self):
        g = make_grid([(0, 1), (0, 1)], (8, 8), q=1)
        f = forcing_field("constant", g, value=1.0)
        a = nonlinearity_family("tanh")
        # a constant asymmetric table assembles symmetric: CG takes it
        op = assemble_operator(g, coefficient_family(
            "constant", g, matrix=SKEW, lam=0.5))
        assert picard_solve(op, f, a, method="cg").residual <= 1e-10
        op = assemble_operator(g, varying_asymmetric(g, SKEW, lam=0.5))
        with pytest.raises(ConfigError, match="symmetric"):
            picard_solve(op, f, a, method="cg")
        assert picard_solve(op, f, a).residual <= 1e-10  # auto: direct

    def test_wrong_grid_rejected(self):
        _, _, op, _ = setup(8)
        f = forcing_field("constant", make_grid([(0, 1), (0, 1)], (16, 16),
                                                q=1), value=1.0)
        with pytest.raises(ConfigError):
            picard_solve(op, f, nonlinearity_family("zero"))


class TestSemilinearLimit:
    def test_zero_term_equals_linear_limit(self):
        # the linear limit is the first Newton step of the zero term
        zero = nonlinearity_family("zero")
        for g, coeffs, f in block_cases():
            blocks = operator_blocks(g, coeffs)
            res = semilinear_limit(blocks, f, zero)
            linear = solve_limit(blocks, f)
            assert np.array_equal(res.field.values, linear.values)
            assert res.iterations == 1

    @pytest.mark.parametrize("case", [0, 1])
    @pytest.mark.parametrize("route", ["auto", "direct"])
    def test_is_picard_on_the_limit_operator(self, case, route):
        # the limit is a solve on the batched limit operator, as a row is
        # on its own, to the bit: by CG a 2-D q = 1 and a 3-D q = 2 grid,
        # by LU a 3-D q = 1 and a 4-D q = 2 grid whose limit matrix is
        # not symmetric
        if route == "auto":
            g, coeffs, f = block_cases()[case]
        else:
            g, coeffs, f = (block_cases()[3] if case == 0
                            else nonsymmetric_q2_case())
        blocks = operator_blocks(g, coeffs)
        assert resolve_method(blocks.limit, "auto") == (
            "cg" if route == "auto" else "direct")
        a = nonlinearity_family("tanh")
        got = semilinear_limit(blocks, f, a)
        ref = picard_solve(blocks.limit, f, a)
        assert np.array_equal(got.field.values.view(np.int64),
                              ref.field.values.view(np.int64))
        assert (got.iterations, got.residual) == (ref.iterations,
                                                  ref.residual)

    def test_cosh_profile_second_order(self):
        # per slice: -u'' = 1 - u, so u = 1 - cosh(y - 1/2)/cosh(1/2)
        a = nonlinearity_family("linear", kappa=1.0)
        errs = []
        for n in (8, 16, 32):
            g, coeffs, _, f = setup(n)
            res = semilinear_limit(operator_blocks(g, coeffs), f, a)
            y = g.meshgrid()[1]
            exact = 1 - np.cosh(y - 0.5) / np.cosh(0.5)
            errs.append(np.abs(res.field.values - exact).max())
            assert errs[-1] < 0.02 / n ** 2
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(np.abs(ratios - 4.0) < 0.3)

    def test_midpoint_value_pinned(self):
        n = 32
        g, coeffs, _, f = setup(n)
        res = semilinear_limit(operator_blocks(g, coeffs), f,
                               nonlinearity_family("linear", kappa=1.0))
        mid = res.field.values[n // 2, n // 2]
        assert mid == pytest.approx(MID_VALUE, abs=0.02 / n ** 2)

    # (X2 extent, forcing, whether some slice backtracks): 20x sine
    # forcing on the unit cube, and a forcing that changes sign along a
    # 30-long X2 axis, where the slice operators are weak against tanh'
    # and some full Newton steps from zero overshoot
    CASES = [
        (1.0, lambda x, y, z: 20 * np.sin(np.pi * x) * np.sin(np.pi * y)
         * np.sin(np.pi * z), False),
        (30.0, lambda x, y, z: 5 * np.cos(7 * z / 30) * (1 + x), True),
    ]

    @staticmethod
    def per_slice_reference(extent, forcing, method):
        g = make_grid([(0, 1), (0, 1), (0, extent)], (4, 5, 10), q=2)
        coeffs = coefficient_family("variable", g)
        f = ScalarField.from_function(g, forcing)
        a = nonlinearity_family("tanh")
        out = np.zeros(g.node_shape)
        iters, halvings = [], 0
        for _, matrix, rhs, scatter in iter_slice_systems(g, coeffs, f):
            u, m, h = per_slice_newton(matrix, rhs, a)
            scatter(u, out)
            iters.append(m)
            halvings += h
        res = semilinear_limit(operator_blocks(g, coeffs), f, a,
                               method=method)
        return res, out, iters, halvings

    def test_matches_per_slice_iterations(self, lu_route):
        # exact Newton steps: the limit's LU against each slice's
        lu_route()
        for extent, forcing, backtracks in self.CASES:
            res, out, iters, halvings = self.per_slice_reference(
                extent, forcing, "auto")
            assert (halvings > 0) == backtracks
            assert len(set(iters)) > 1  # slices stop at different steps
            assert res.iterations == max(iters)
            assert res.residual <= 1e-10
            assert np.abs(res.field.values - out).max() <= 1e-12 * np.abs(
                out).max()

    def test_cg_steps_match_per_slice_newton(self):
        # inexact CG steps may take other step counts than exact Newton,
        # but every slice meets the same gate (the reported residual is
        # the worst slice's) and lands on the same field
        for extent, forcing, _ in self.CASES:
            res, out, _, _ = self.per_slice_reference(extent, forcing,
                                                      "auto")
            assert res.iterations >= 1
            assert res.residual <= 1e-10
            assert np.abs(res.field.values - out).max() <= 1e-9 * np.abs(
                out).max()

    def test_exhausted_slice_named(self):
        g, coeffs, _, f = setup(8)
        f = ScalarField(g, 20 * f.values)
        a = nonlinearity_family("tanh")
        with pytest.raises(SolverError,
                           match=r"^slice \(\d+,\): Newton exhausted") as err:
            semilinear_limit(operator_blocks(g, coeffs), f, a, max_iter=1)
        assert err.value.residual > 1e-10

    def test_worst_slice_reporting(self):
        g, coeffs, _, f = setup(8)
        res = semilinear_limit(operator_blocks(g, coeffs), f,
                               nonlinearity_family("tanh"))
        assert res.iterations >= 1
        assert res.residual <= 1e-10

    def test_every_slice_gated_on_its_own_rhs(self):
        # sine forcing nearly vanishes on the X1 faces (|b| ~ 1e-16 there):
        # those slices are still held to tol relative to their own b
        g = make_grid([(0, 1), (0, 1)], (24, 24), q=1)
        coeffs = coefficient_family("variable", g)
        f = forcing_field("sine_product", g)
        a = nonlinearity_family("tanh")
        res = semilinear_limit(operator_blocks(g, coeffs), f, a)
        interior = slice(1, g.cells[1])
        worst = 0.0
        for x1_index, matrix, rhs, _ in iter_slice_systems(g, coeffs, f):
            x = res.field.values[x1_index][interior]
            b = rhs + a(x)
            r = np.linalg.norm(matrix @ x - b)
            worst = max(worst, r / np.linalg.norm(b) if b.any() else r)
        assert 0 < np.abs(f.values[-1]).max() < 1e-15
        assert worst <= 1e-10
        assert res.residual == pytest.approx(worst, rel=1e-6)
