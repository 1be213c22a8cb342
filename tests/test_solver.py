import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp

import anisolab.solver
from anisolab import (CoefficientField, ConfigError, ScalarField,
                      SolverError, assemble_operator, coefficient_family,
                      forcing_field, make_grid, nonlinearity_family,
                      picard_solve, scale_coefficients, solve_dirichlet)
from anisolab.fd_ops import (Stencil, _flux_operator, assemble_flux_matrix,
                             operator_blocks)
from anisolab.solver import (backward_errors, fast_diagonal_preconditioner,
                             pcg)

from conftest import csr, relative_residual, sine_transform
from test_fd_ops import BLOCK_CASES, sine_eigenvector, varying_asymmetric


def laplace_setup(n):
    g = make_grid([(0, 1), (0, 1)], (n, n), q=1)
    op = assemble_operator(g, coefficient_family("identity", g))
    return g, op


# interior solutions by the solver, and by one LU of the operator
SOLVES = (lambda op, f: solve_dirichlet(op, f).interior_vector(),
          lambda op, f: op.factor().solve(f.interior_vector()))


def route_case(route, n):
    """An n^2 operator that solves on ``route``: the symmetric variable
    table for ``cg``, or for ``direct`` a table whose varying skew part
    makes its matrix non-symmetric, the one kind that runs by LU."""
    g = make_grid([(0, 1), (0, 1)], (n, n), q=1)
    if route == "cg":
        return assemble_operator(g, coefficient_family("variable", g))
    op = assemble_operator(g, varying_asymmetric(g, [[2.0, 0.5], [0.3, 1.0]],
                                                 lam=0.5))
    assert not op.symmetric
    return op


class TestDirect:
    def test_eigenvector_rhs_recovered_exactly(self):
        g, op = laplace_setup(8)
        u, lam = sine_eigenvector(g, 2, 1)
        f = ScalarField(g, lam * u.values)
        got = solve_dirichlet(op, f)
        assert np.allclose(got.values, u.values, atol=1e-12)
        assert np.all(got.values[0] == 0.0)
        assert np.all(got.values[:, -1] == 0.0)
        lu = op.factor().solve(f.interior_vector())
        assert np.allclose(lu, u.interior_vector(), atol=1e-12)

    def test_mms_second_order(self):
        for solve in SOLVES:
            errs = []
            for n in (16, 32, 64):
                g, op = laplace_setup(n)
                u_exact = ScalarField.from_function(
                    g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
                f = ScalarField(g, 2 * np.pi ** 2 * u_exact.values)
                got = solve(op, f)
                errs.append(np.abs(got - u_exact.interior_vector()).max())
            slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert np.all(np.abs(slopes - 2.0) < 0.1)

    def test_anisotropic_scaling_still_solvable(self):
        g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
        f = forcing_field("sine_product", g)
        for eps in (1.0, 0.1, 0.01, 0.001):
            coeffs = scale_coefficients(coefficient_family("variable", g),
                                        eps)
            op = assemble_operator(g, coeffs)
            for solve in SOLVES:
                assert np.isfinite(solve(op, f)).all()

    def test_wrong_grid_rejected(self):
        _, op = laplace_setup(4)
        g8 = make_grid([(0, 1), (0, 1)], (8, 8), q=1)
        with pytest.raises(ConfigError):
            solve_dirichlet(op, ScalarField.zeros(g8))


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

    def test_backward_errors_are_per_block(self, rng):
        # each block's |r|_inf / (|A_k|_inf |u_k|_inf + |b_k|_inf), read
        # off its own dense block of the half-stored limit matrix
        g = make_grid([(0, 1)] * 3, (5, 6, 7), q=1)
        op = operator_blocks(g, coefficient_family("variable", g)).limit
        blocks = len(op.means)
        n = op.n_unknowns // blocks
        u = rng.standard_normal(op.n_unknowns)
        b = rng.standard_normal(op.n_unknowns)
        b[:n] = 0.0
        u[n:2 * n] = 0.0
        got = backward_errors(op.matrix, u, b, blocks)
        dense = csr(op.matrix).toarray()
        for k in range(blocks):
            rows = slice(k * n, (k + 1) * n)
            a_k, u_k, b_k = dense[rows, rows], u[rows], b[rows]
            want = np.abs(b_k - a_k @ u_k).max() / (
                np.abs(a_k).sum(axis=1).max() * np.abs(u_k).max()
                + np.abs(b_k).max())
            assert got[k] == pytest.approx(want, rel=1e-13)
        assert np.array_equal(backward_errors(op.matrix, np.zeros_like(u),
                                              np.zeros_like(b), blocks),
                              np.zeros(blocks))


class TestCG:
    def test_matches_direct(self):
        g, op = laplace_setup(16)
        f = forcing_field("sine_product", g)
        direct = op.factor().solve(f.interior_vector())
        cg = solve_dirichlet(op, f, tol=1e-12)
        assert np.allclose(cg.interior_vector(), direct, atol=1e-9)

    def test_iteration_cap_raises_with_residual(self, monkeypatch):
        # the preconditioner is exact for the Laplacian, so the variable
        # table (about ten iterations) is needed for the cap of
        # ceil(0.1 * 15) = 2 iterations to bind
        g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
        op = assemble_operator(g, coefficient_family("variable", g))
        f = forcing_field("constant", g, value=1.0)
        monkeypatch.setattr(anisolab.solver, "CG_CAP_FACTOR", 0.1)
        with pytest.raises(SolverError, match="cg exhausted 2 iterations") \
                as err:
            solve_dirichlet(op, f, tol=1e-14)
        assert err.value.residual is not None
        assert err.value.residual > 1e-14


class _CountingPCG:
    """Stands in for ``anisolab.solver.pcg`` and counts the CG steps the
    solver runs, as the real one returns them."""

    def __init__(self):
        self.iterations = 0

    def __call__(self, *args, **kwargs):
        x, steps, capped = pcg(*args, **kwargs)
        self.iterations += int(steps.sum())
        return x, steps, capped


class _DriftingPCG:
    """Stands in for ``anisolab.solver.pcg``.

    It runs the real one, then for the first ``drifting`` calls adds a
    step of residual ``2 * tol * |b|`` to the iterate, so a converged one
    ends 1-3 times ``tol`` from ``b``, as a drifting recurrence residual
    can leave it.  With ``stall``, calls after the first return zero
    without a step.  It records each returned iterate.
    """

    def __init__(self, drifting, stall=False):
        self.drifting = drifting
        self.stall = stall
        self.xs = []
        self.iterations = 0

    def __call__(self, matrix, b, precond, tol, maxiter):
        if self.stall and self.xs:
            x = np.zeros_like(b)
            self.xs.append(x.ravel())
            return (x, np.zeros(len(b), dtype=int),
                    np.zeros(len(b), dtype=bool))
        x, steps, capped = pcg(matrix, b, precond, tol, maxiter)
        self.iterations += int(steps.sum())
        if len(self.xs) < self.drifting:
            e = np.zeros(b.size)
            e[b.size // 2] = 1.0
            step = 2 * tol * np.linalg.norm(b) / np.linalg.norm(matrix @ e)
            x = x + step * e.reshape(x.shape)
        self.xs.append(x.ravel().copy())
        return x, steps, capped


def count_factor(monkeypatch):
    """Record the matrix of every LU the driver makes."""
    calls = []
    real = anisolab.solver.factor_matrix

    def factor(matrix):
        calls.append(matrix)
        return real(matrix)
    monkeypatch.setattr(anisolab.solver, "factor_matrix", factor)
    return calls


def slice_blocks(tables, cells=16):
    """Block-diagonal system of 1-D Dirichlet operators, one per a_22
    node table, as one batch stencil (the limit's layout), and its
    fast-diagonalization preconditioner."""
    h = (1.0 / cells,)
    matrix = _flux_operator(h, np.stack(tables)[None, None], batch=1)
    # the batch stencil is the block diagonal of the slices' own matrices
    ref = sp.block_diag(
        [csr(assemble_flux_matrix((cells,), h, t.reshape(1, 1, -1)))
         for t in tables], format="csr")
    assert abs(csr(matrix) - ref).max() == 0.0
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
        x, steps, capped = pcg(matrix, b, precond, 1e-10, 100)
        assert steps[0] == 1 and steps[0] < steps[1] and steps[0] < steps[2]
        assert len(set(steps)) > 1 and not capped.any()
        res = np.linalg.norm((matrix @ x.ravel()).reshape(3, -1) - b, axis=1)
        assert np.all(res <= 1e-10 * np.linalg.norm(b, axis=1))
        for k in range(1, int(steps.max()) + 1):
            xk, steps_k, capped_k = pcg(matrix, b, precond, 1e-10, k)
            assert np.array_equal(steps_k, np.minimum(steps, k))
            # a block that converges at exactly the cap is not capped
            assert np.array_equal(capped_k, steps > k)
            for block in np.flatnonzero(steps <= k):
                assert np.array_equal(xk[block], x[block])

    def test_blocks_keep_their_own_tolerance(self, rng):
        matrix, precond = slice_blocks(self.tables[1:])
        b = rng.standard_normal((2, 15))
        x, steps, _ = pcg(matrix, b, precond, np.array([1e-2, 1e-12]),
                          100)
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
        x, steps, capped = pcg(matrix, b, precond, 1e-10, 100)
        assert steps[1] == 0 and np.all(x[1] == 0.0) and not capped[1]
        assert steps[0] == 1 and steps[2] > 1
        x, steps, capped = pcg(matrix, np.zeros((3, 15)), precond, 0.0, 100)
        assert np.all(steps == 0) and np.all(x == 0.0)
        assert not capped.any()

    def test_iterate_belongs_to_the_caller(self, rng):
        # the loop's vectors are the stencil's buffers, and the iterate
        # returned is a copy: a later solve on the stencil leaves it be
        matrix, precond = slice_blocks(self.tables)
        b = rng.standard_normal((3, 15))
        x, _, _ = pcg(matrix, b, precond, 1e-10, 100)
        kept = x.copy()
        y, _, _ = pcg(matrix, 2.0 * b, precond, 1e-10, 100)
        assert not np.shares_memory(x, y)
        assert np.array_equal(x, kept) and not np.array_equal(x, y)


class TestWorkingSet:
    """Newton and CG keep their vectors in the stencil's buffers."""

    def test_cg_steps_allocate_no_vector(self, monkeypatch):
        # from one preconditioner call to the next, a whole CG step, the
        # traced peak rises by less than one vector: every pcg call of
        # a tanh solve, the Jacobian's included
        g = make_grid([(0, 1), (0, 1)], (48, 48), q=1)
        op = assemble_operator(g, coefficient_family("variable", g))
        vector = 8 * op.n_unknowns
        rises = []
        real = anisolab.solver.pcg

        def traced(matrix, b, precond, tol, maxiter):
            marks = []

            def measured(r, out=None):
                current, peak = tracemalloc.get_traced_memory()
                if marks:
                    rises.append(peak - marks[-1])
                tracemalloc.reset_peak()
                marks.append(current)
                return precond(r, out=out)
            return real(matrix, b, measured, tol, maxiter)
        monkeypatch.setattr(anisolab.solver, "pcg", traced)
        tracemalloc.start()
        try:
            res = picard_solve(op, forcing_field("sine_product", g),
                               nonlinearity_family("tanh"))
        finally:
            tracemalloc.stop()
        assert res.iterations > 1 and len(rises) >= 5
        assert max(rises) < vector // 2

    @pytest.mark.parametrize("route", ["cg", "direct"])
    def test_jacobian_rows_copied_once_per_solve(self, route, monkeypatch):
        # the first step copies the rows, every later one rewrites the
        # centre row of that copy: each step's J holds the one array
        op = route_case(route, 24)
        g = op.grid
        copies, jacobians = [], []
        with_rows = Stencil.with_rows

        def copying(self, rows):
            copies.append(rows)
            return with_rows(self, rows)
        monkeypatch.setattr(Stencil, "with_rows", copying)
        for name in ("pcg", "factor_matrix"):
            def recording(matrix, *args, real=getattr(anisolab.solver,
                                                      name)):
                jacobians.append(matrix)
                return real(matrix, *args)
            monkeypatch.setattr(anisolab.solver, name, recording)
        f = forcing_field("sine_product", g)
        tanh = nonlinearity_family("tanh")
        res = picard_solve(op, f, tanh)
        assert res.iterations >= 2 and len(jacobians) == res.iterations
        assert len(copies) == 1
        assert not np.shares_memory(copies[0], op.matrix.rows)
        assert all(J.rows is copies[0] for J in jacobians)
        # the next solve makes its own copy
        picard_solve(op, f, tanh)
        assert len(copies) == 2 and copies[1] is not copies[0]


class TestCGRestart:
    """A CG step that misses ``tol`` is followed by another Newton step."""

    def variable_setup(self, n):
        g = make_grid([(0, 1), (0, 1)], (n, n), q=1)
        op = assemble_operator(g, coefficient_family("variable", g))
        return op, forcing_field("sine_product", g)

    def test_drifted_iterate_is_continued(self, monkeypatch):
        op, f = self.variable_setup(32)
        fake = _DriftingPCG(drifting=1)
        monkeypatch.setattr(anisolab.solver, "pcg", fake)
        u = solve_dirichlet(op, f, tol=1e-10)
        assert len(fake.xs) == 2
        b = f.interior_vector()
        assert relative_residual(op.matrix, fake.xs[0], b) > 1e-10
        assert relative_residual(op.matrix, u.interior_vector(), b) \
            <= 1e-10
        # the correction solves to tol / residual: it costs little
        assert fake.iterations <= np.ceil(20 * np.sqrt(op.n_unknowns))

    def test_endless_drift_raises(self, monkeypatch):
        # every step drifts by as much as it gains: the solve ends in a
        # SolverError carrying the residual, not in an endless loop
        op, f = self.variable_setup(16)
        fake = _DriftingPCG(drifting=np.inf)
        monkeypatch.setattr(anisolab.solver, "pcg", fake)
        with pytest.raises(SolverError) as err:
            solve_dirichlet(op, f, tol=1e-10)
        assert len(fake.xs) > 2
        assert err.value.residual > 1e-10

    def test_restart_without_a_step_stops(self, monkeypatch):
        # a correction that moves nothing cannot decrease the residual
        op, f = self.variable_setup(16)
        fake = _DriftingPCG(drifting=np.inf, stall=True)
        monkeypatch.setattr(anisolab.solver, "pcg", fake)
        with pytest.raises(SolverError, match="line search") as err:
            solve_dirichlet(op, f, tol=1e-10)
        assert len(fake.xs) == 2
        assert err.value.residual > 1e-10


class TestAuto:
    def test_symmetric_operator_runs_cg_without_factoring(self,
                                                          monkeypatch):
        calls = count_factor(monkeypatch)
        counter = _CountingPCG()
        monkeypatch.setattr(anisolab.solver, "pcg", counter)
        g = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
        op = assemble_operator(
            g, scale_coefficients(coefficient_family("variable", g), 0.1))
        assert op.symmetric
        solve_dirichlet(op, forcing_field("sine_product", g))
        assert counter.iterations > 0 and calls == []

    def test_nonsymmetric_operator_factors(self, monkeypatch):
        ndim, q, (family, params) = BLOCK_CASES[-1]
        g = make_grid([(0, 1)] * ndim, (5, 6, 4), q=q)
        # the constant asymmetric table assembles symmetric and runs by CG
        op = assemble_operator(g, coefficient_family(family, g, **params))
        assert op.symmetric
        op = assemble_operator(g, varying_asymmetric(g, **params))
        assert not op.symmetric
        calls = count_factor(monkeypatch)
        f = forcing_field("sine_product", g)
        u = solve_dirichlet(op, f)
        assert [m is op.matrix for m in calls] == [True]
        direct = op.factor().solve(f.interior_vector())
        assert np.array_equal(u.interior_vector(), direct)


class TestNewtonDriver:
    @pytest.mark.parametrize("route", ["cg", "direct"])
    def test_solve_dirichlet_is_the_zero_term_newton(self, route):
        # a linear solve is the first Newton step of the zero term, to the
        # bit on either route
        op = route_case(route, 24)
        f = forcing_field("sine_product", op.grid)
        res = picard_solve(op, f, nonlinearity_family("zero"))
        u = solve_dirichlet(op, f)
        assert res.iterations == 1
        assert np.array_equal(u.values, res.field.values)
        assert res.residual == relative_residual(
            op.matrix, u.interior_vector(), f.interior_vector())


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
        a, b = map(anisolab.solver._sine_matrix, (9, 9))
        assert a is b
        assert a is anisolab.solver._sine_matrix(9)
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
                                               op.means)
        got = precond((op.matrix @ x)[None])[0]
        assert np.allclose(got, x, rtol=0.0, atol=1e-12)

    def test_flat_tables_keep_the_sine_transform(self, monkeypatch, rng):
        # a constant table's fit is flat on every axis: no eigh runs, and
        # the preconditioner is the DST-I of the sine matrices, to the bit
        def no_eigh(*args):
            raise AssertionError("a flat table built a pencil")
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        g = make_grid([(0, 1), (0, 2)], (9, 12), q=1)
        coeffs = coefficient_family("constant", g,
                                    matrix=[[2.0, 0.5], [0.5, 1.0]])
        op = assemble_operator(g, scale_coefficients(coeffs, 0.1))
        assert op.fit.profile == op.fit.weight == (None, None)
        assert op.fit.pencils == (None, None)
        r = rng.standard_normal(op.n_unknowns)
        got = fast_diagonal_preconditioner(g.cells, g.spacing,
                                           op.means, op.fit)(r[None])
        lam = np.zeros(tuple(n - 1 for n in g.cells))
        for d, (n, h) in enumerate(zip(g.cells, g.spacing)):
            k = np.arange(1, n)
            along_d = [1, 1]
            along_d[d] = n - 1
            lam = lam + op.means[0, d] * (
                (4.0 / h ** 2) * np.sin(np.pi * k / (2 * n)) ** 2
            ).reshape(along_d)
        want = sine_transform(sine_transform(r.reshape(lam.shape)) / lam)
        assert np.array_equal(got[0], want.ravel())
        solve_dirichlet(op, forcing_field("sine_product", g))

    @pytest.mark.parametrize("cells", [(9,), (9, 12), (5, 6, 7)])
    def test_written_into_out_bit_for_bit(self, cells, rng):
        # precond(r, out=z) writes precond(r) into z, bit for bit, through
        # its own scratch or a given one, and leaves r be; one and three
        # axes end their transforms on the other array than two axes
        spacing = tuple(1.0 / n for n in cells)
        fit = None
        if len(cells) > 1:
            grid = make_grid([(0, 1)] * len(cells), cells, q=1)
            fit = assemble_operator(grid, coefficient_family(
                "variable", grid)).fit
        means = rng.uniform(1.0, 2.0, (2, len(cells)))
        r = rng.standard_normal((2, int(np.prod(np.array(cells) - 1))))
        kept = r.copy()
        want = fast_diagonal_preconditioner(cells, spacing, means, fit)(r)
        for work in (None, np.full(r.size, np.nan)):
            precond = fast_diagonal_preconditioner(cells, spacing, means,
                                                   fit, work=work)
            z = np.full_like(r, np.nan)
            got = precond(r, out=z)
            assert got.shape == r.shape and np.shares_memory(got, z)
            assert np.array_equal(z, want)
            assert np.array_equal(r, kept)

    def test_pencil_transposes_built_once(self):
        # V^T of each pencil, C-contiguous and read-only, is the fit's:
        # every preconditioner built from it shares the one array
        g = make_grid([(0, 1), (0, 2)], (9, 12), q=1)
        fit = assemble_operator(g, coefficient_family("variable", g)).fit
        transposes = fit.transposes
        assert fit.transposes is transposes
        for pencil, vt in zip(fit.pencils, transposes):
            assert pencil is not None
            assert vt.flags.c_contiguous and not vt.flags.writeable
            assert np.array_equal(vt, pencil[0].T)

    def test_exact_inverse_for_separable_2d_table(self, rng):
        # each a_dd a product of one function per axis, no mixed entry:
        # the fit is the table, and the preconditioner its exact inverse
        g = make_grid([(0, 1), (0, 2)], (9, 12), q=1)
        x, y = g.meshgrid()
        entries = np.zeros((2, 2) + g.node_shape)
        entries[0, 0] = (1.0 + x ** 2) * (2.0 + np.cos(y))
        entries[1, 1] = np.where(x < 0.5, 1.0, 50.0) * (1.0 + y)
        for eps in (1.0, 1e-3):
            op = assemble_operator(g, scale_coefficients(
                CoefficientField(g, entries, lam=0.5), eps))
            precond = fast_diagonal_preconditioner(
                g.cells, g.spacing, op.means, op.fit)
            x0 = rng.standard_normal(op.n_unknowns)
            got = precond((op.matrix @ x0)[None])[0]
            assert np.allclose(got, x0, rtol=0.0, atol=1e-10)

    def test_pencils_diagonalize_each_axis(self):
        # V^T T V = diag(lam) and V^T W V = I, T the 1-D flux operator
        # of the axis profile and W the diagonal of its weight
        g = make_grid([(0, 1), (0, 1), (0, 1)], (6, 7, 8), q=1)
        op = assemble_operator(g, coefficient_family("variable", g))
        fit = op.fit
        for d, n in enumerate(g.cells):
            v, lam = fit.pencils[d]
            p = np.ones(n + 1) if fit.profile[d] is None else fit.profile[d]
            w = np.ones(n - 1) if fit.weight[d] is None else fit.weight[d]
            t = csr(assemble_flux_matrix((n,), (g.spacing[d],),
                                         p.reshape(1, 1, -1))).toarray()
            assert np.allclose(v.T @ t @ v, np.diag(lam), rtol=0.0,
                               atol=1e-10 * lam.max())
            assert np.allclose(v.T @ (w[:, None] * v), np.eye(n - 1),
                               rtol=0.0, atol=1e-12)
        # a_33 = 1 + x1^2 / 2 varies along x1 only: axis 3's own profile
        # is flat, and axis 1 weighs the profiles of a_22 (flat) and a_33
        assert fit.profile[2] is None and fit.weight[0] is not None
        assert fit.pencils[2] is not None

    def test_nonpositive_diagonal_keeps_the_means(self, unit_square):
        g = unit_square(6)
        coeffs = coefficient_family("variable", g)
        coeffs.entries[1, 1, 3, 3] = -1.0
        op = assemble_operator(g, coeffs)
        assert op.fit.profile == op.fit.weight == (None, None)

    def test_separable_jump_solves_in_one_step(self, monkeypatch):
        # a_11 varies in x2 only and a_22 jumps by 1000 in x1: the fit is
        # exact, so every solve is one CG step at every epsilon, where the
        # means alone took 162, 38 and 12 steps
        g = make_grid([(0, 1), (0, 1)], (32, 32), q=1)
        x, y = g.meshgrid()
        entries = np.zeros((2, 2) + g.node_shape)
        entries[0, 0] = 1.0 + 0.5 * np.sin(np.pi * y) ** 2
        entries[1, 1] = np.where(x < 0.5, 1.0, 1000.0)
        coeffs = CoefficientField(g, entries, lam=1.0)
        f = forcing_field("sine_product", g)
        for eps in (1.0, 0.1, 0.01):
            counter = _CountingPCG()
            monkeypatch.setattr(anisolab.solver, "pcg", counter)
            solve_dirichlet(assemble_operator(
                g, scale_coefficients(coeffs, eps)), f)
            assert counter.iterations == 1, eps

    def test_nonpositive_means_rejected(self, unit_square):
        g = unit_square(6)
        op = assemble_operator(g, coefficient_family("identity", g))
        bad = dataclasses.replace(op, means=np.array([[1.0, -1.0]]))
        with pytest.raises(SolverError, match="preconditioner"):
            solve_dirichlet(bad, forcing_field("sine_product", g))

    def test_iterations_flat_in_epsilon(self, monkeypatch):
        g = make_grid([(0, 1), (0, 1)], (64, 64), q=1)
        coeffs = coefficient_family("variable", g)
        f = forcing_field("sine_product", g)
        total = 0
        for eps in (1.0, 0.1, 0.01, 0.001):
            counter = _CountingPCG()
            monkeypatch.setattr(anisolab.solver, "pcg", counter)
            op = assemble_operator(g, scale_coefficients(coeffs, eps))
            solve_dirichlet(op, f)
            assert 0 < counter.iterations <= 20, eps
            total += counter.iterations
        # the axis profiles of the fit take 24 steps in all, where the
        # means alone took 44
        assert total <= 30
