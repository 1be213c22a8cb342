"""End-to-end acceptance gates for the package.

Each test covers one headline property of the laboratory and prints a
single PASS/FAIL line so a full run reads as a checklist.  Tolerances are
stated inline next to the assertion they govern.
"""

import functools
import time

import numpy as np
import pytest

from anisolab import (ScalarField, StudyConfig, assemble_operator,
                      check_constant_bounds, check_laplacian_bounds,
                      coefficient_family, forcing_field, frechet_distance,
                      interior_subdomain, l2_norm, make_grid, nested_family,
                      nonlinearity_family, observed_ellipticity,
                      operator_blocks, random_zero_mean_forcing,
                      restrict_to_zero_x1, run_sweep, scale_coefficients,
                      solve_dirichlet, solve_limit, translation_modulus,
                      v12_norm)
from anisolab.fd_ops import apply_nondivergence, hess_component
from anisolab.norms import grad_x1_seminorm, grad_x2_seminorm
from anisolab.limit import semilinear_limit

from conftest import csr, inner_product


def gate(num, label):
    """Emit one checklist line per criterion, whatever the outcome."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {label}")
                raise
            print(f"[PASS] criterion {num}: {label}")
            return out
        return wrapper
    return deco


EPSILONS = (1.0, 0.5, 0.1, 0.01, 0.001)


@gate(1, "torus bound triple for the anisotropic Laplacian, with tightness")
def test_criterion_1_laplacian_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240818)
    forcings = [random_zero_mean_forcing((64, 64), 1, rng)
                for _ in range(20)]
    for epsilon in EPSILONS:
        for f in forcings:
            report = check_laplacian_bounds(f, epsilon)
            assert report.r_x2 <= 1.0 + 1e-9
            assert report.r_x1 <= 1.0 + 1e-9
            assert report.r_cross <= 1.0 + 1e-9
    # forcing supported on xi_1 = 0 saturates the second-derivative bound
    flat = restrict_to_zero_x1(forcings[0])
    report = check_laplacian_bounds(flat, 0.01)
    assert abs(report.r_x2 - 1.0) <= 1e-12
    assert report.r_x1 == 0.0 and report.r_cross == 0.0
    assert time.perf_counter() - t0 < 5.0


@gate(2, "ellipticity-weighted torus bounds for a constant coefficient table")
def test_criterion_2_weighted_bounds():
    matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
    lam = 1.5 - np.sqrt(0.5)
    rng = np.random.default_rng(20240819)
    for epsilon in EPSILONS:
        for _ in range(20):
            f = random_zero_mean_forcing((64, 64), 1, rng)
            report = check_constant_bounds(matrix, lam, f, epsilon)
            assert max(report.r_x2, report.r_x1, report.r_cross) \
                <= 1.0 + 1e-9


@gate(3, "second-order interior-solver convergence via manufactured solutions")
def test_criterion_3_manufactured_order():
    for epsilon in (1.0, 0.5, 0.1):
        errors, spacings = [], []
        for n in (16, 32, 64, 128):
            grid = make_grid([(0, 1), (0, 1)], (n, n), q=1)
            exact = forcing_field("sine_product", grid)
            f = ScalarField(grid,
                            np.pi ** 2 * (epsilon ** 2 + 1.0) * exact.values)
            coeffs = scale_coefficients(
                coefficient_family("identity", grid), epsilon)
            u = solve_dirichlet(assemble_operator(grid, coeffs), f)
            errors.append(l2_norm(u - exact))
            spacings.append(grid.spacing[0])
        slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
        assert abs(slope - 2.0) <= 0.2, (epsilon, slope)


@gate(4, "slice-wise limit and its semilinear variant hit closed-form profiles")
def test_criterion_4_limit_exactness():
    grid = make_grid([(0, 1), (0, 1)], (32, 32), q=1)
    blocks = operator_blocks(grid, coefficient_family("identity", grid))
    u0 = solve_limit(blocks, forcing_field("constant", grid))
    y = grid.axis_nodes(1)
    exact = np.broadcast_to(y * (1.0 - y) / 2.0, u0.values.shape)
    h = grid.spacing[1]
    assert np.max(np.abs(u0.values - exact)) <= 0.5 * h * h + 1e-12

    # -u'' = 1 - u on (0,1): u = 1 - cosh(y - 1/2)/cosh(1/2)
    midpoint = 1.0 - 1.0 / np.cosh(0.5)
    for n in (32, 64):
        gn = make_grid([(0, 1), (0, 1)], (n, n), q=1)
        blocks = operator_blocks(gn, coefficient_family("identity", gn))
        result = semilinear_limit(blocks, forcing_field("constant", gn),
                                  nonlinearity_family("linear", kappa=1.0))
        got = result.field.values[0, n // 2]
        assert abs(got - midpoint) <= 0.02 / n ** 2, n


MONOTONE_COLUMNS = ("v12_diff", "eps_grad_x1", "hess_x2_diff_omega",
                    "eps2_hess_x1_omega", "eps_hess_x1x2_omega", "frechet_d")


@pytest.fixture(scope="module")
def convergence_sweep():
    config = StudyConfig(
        cells=[128, 128],
        coefficient_family="variable",
        forcing_family="sine_product",
        epsilons=[2.0 ** -k for k in range(7)],
    )
    t0 = time.perf_counter()
    report = run_sweep(config)
    return report, time.perf_counter() - t0


@gate(5, "all comparison columns decay through the epsilon sweep")
def test_criterion_5_sweep_decay(convergence_sweep):
    report, wall = convergence_sweep
    assert report.complete, report.error
    assert wall < 120.0
    assert len(report.rows) == 7
    for column in MONOTONE_COLUMNS:
        values = [getattr(row, column) for row in report.rows]
        for above, below in zip(values, values[1:]):
            # monotone with 10% slack, enforced above the
            # discretization floor only
            if above > report.floor:
                assert below <= 1.1 * above, (column, above, below)
        assert values[-1] <= 0.2 * values[0], (column, values)


@gate(6, "translation modulus of the retained-direction second derivatives")
def test_criterion_6_translation_modulus(convergence_sweep):
    report, _ = convergence_sweep
    grid = report.u_limit.grid
    mask = interior_subdomain(grid, report.mask_margin)
    fields = [hess_component(u, 1, 1) for u in report.u_eps]
    norms = [l2_norm(v, mask) for v in fields]
    assert max(norms) / min(norms) <= 10.0
    for axis in range(grid.ndim):
        shifts = []
        for h_cells in (8, 4, 2):
            shift = [0] * grid.ndim
            shift[axis] = h_cells
            shifts.append(tuple(shift))
        sigma = translation_modulus(fields, mask, shifts)
        values = [sigma[s] for s in shifts]
        assert values[-1] > 0.0
        for big, small in zip(values, values[1:]):
            # halving h should halve sigma, 30% slack
            assert abs(small / big - 0.5) <= 0.15, (axis, values)


@gate(7, "metric axioms and the truncated-series reference value")
def test_criterion_7_metric_properties():
    grid = make_grid([(0, 1), (0, 1)], (16, 16), q=1)
    family = nested_family(grid, 4)
    rng = np.random.default_rng(20240820)

    def random_field():
        values = np.zeros(grid.node_shape)
        values[1:-1, 1:-1] = rng.standard_normal((15, 15))
        return ScalarField(grid, values)

    u = random_field()
    assert frechet_distance(u, u, family) == 0.0
    for _ in range(100):
        a, b, c = random_field(), random_field(), random_field()
        d_ab = frechet_distance(a, b, family)
        d_ba = frechet_distance(b, a, family)
        d_bc = frechet_distance(b, c, family)
        d_ac = frechet_distance(a, c, family)
        assert abs(d_ab - d_ba) <= 1e-12
        assert d_ac <= d_ab + d_bc + 1e-12

    ones = ScalarField(grid, np.ones(grid.node_shape))
    unit = ScalarField(grid, ones.values / v12_norm(ones))
    zero = ScalarField.zeros(grid)
    d = frechet_distance(unit, zero, family, n_max=20)
    assert abs(d - (1.0 - 2.0 ** -20)) <= 1e-12


@gate(8, "operator symmetry, energy inequality, divergence-form consistency")
def test_criterion_8_operator_properties():
    grid = make_grid([(0, 1), (0, 1)], (32, 32), q=1)
    base = coefficient_family("variable", grid)
    lam = observed_ellipticity(base.entries)[0]
    f = forcing_field("sine_product", grid)
    for epsilon in (1.0, 0.1):
        op = assemble_operator(grid, scale_coefficients(base, epsilon))
        matrix = csr(op.matrix)
        defect = np.abs(matrix - matrix.T).max() / np.abs(matrix).max()
        assert op.symmetric
        assert defect <= 1e-12

        # lam (eps^2 |grad_x1 u|^2 + |grad_x2 u|^2) <= <f, u>, 5% slack
        u = solve_dirichlet(op, f)
        energy = lam * (epsilon ** 2 * grad_x1_seminorm(u) ** 2
                        + grad_x2_seminorm(u) ** 2)
        duality = inner_product(f, u)
        assert duality > 0.0
        assert energy <= 1.05 * duality, (epsilon, energy, duality)

    errors, spacings = [], []
    for n in (16, 32, 64):
        gn = make_grid([(0, 1), (0, 1)], (n, n), q=1)
        cn = scale_coefficients(coefficient_family("variable", gn), 0.5)
        smooth = forcing_field("sine_product", gn)
        flux = assemble_operator(gn, cn).matrix @ smooth.interior_vector()
        expanded = apply_nondivergence(cn, smooth).interior_vector()
        errors.append(float(np.sqrt(
            np.sum((flux - expanded) ** 2) * gn.cell_volume)))
        spacings.append(gn.spacing[0])
    slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
    assert slope >= 1.7, slope
