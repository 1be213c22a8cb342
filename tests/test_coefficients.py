import numpy as np
import pytest
from hypothesis import given, strategies as st

from anisolab import (CoefficientField, ConfigError, EllipticityError,
                      ScalarField, coefficient_family, make_grid,
                      observed_ellipticity, scale_coefficients,
                      scaling_factors, verify_ellipticity)
from anisolab.fd_ops import apply_nondivergence, grad_axis, hess_component


class TestScalingFactors:
    def test_two_dim_pattern(self):
        s = scaling_factors(2, 1, 0.5)
        assert s[0, 0] == 0.25
        assert s[1, 1] == 1.0
        assert s[0, 1] == 0.5 and s[1, 0] == 0.5

    def test_three_dim_split_one(self):
        s = scaling_factors(3, 1, 0.1)
        expect = np.array([[0.01, 0.1, 0.1],
                           [0.1, 1.0, 1.0],
                           [0.1, 1.0, 1.0]])
        assert np.allclose(s, expect)

    def test_epsilon_one_is_identity_scaling(self):
        assert np.array_equal(scaling_factors(3, 2, 1.0), np.ones((3, 3)))

    def test_epsilon_out_of_range(self):
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                scaling_factors(2, 1, eps)


class TestScaledField:
    def test_offdiagonal_scaling(self, unit_square):
        g = unit_square(4)
        base = coefficient_family(
            "constant", g, matrix=[[2.0, 0.5], [0.5, 1.0]])
        sc = scale_coefficients(base, 0.1)
        assert np.allclose(sc.entries[0, 0], 0.02)
        assert np.allclose(sc.entries[0, 1], 0.05)
        assert np.allclose(sc.entries[1, 0], 0.05)
        assert np.allclose(sc.entries[1, 1], 1.0)

    def test_epsilon_one_unchanged(self, unit_square):
        g = unit_square(4)
        base = coefficient_family("variable", g)
        sc = scale_coefficients(base, 1.0)
        assert np.array_equal(sc.entries, base.entries)

    def test_scaled_identity_x1_block_eig(self, unit_square):
        g = unit_square(4)
        base = coefficient_family("identity", g)
        for eps in (0.5, 0.1, 0.01):
            sc = scale_coefficients(base, eps)
            lo, _ = observed_ellipticity(sc.entries)
            assert lo == pytest.approx(eps ** 2, rel=1e-12)


class TestEllipticity:
    def test_observed_matches_dense_eig(self, unit_square):
        g = unit_square(4)
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        f = coefficient_family("constant", g, matrix=m, lam=0.5)
        lo, node = observed_ellipticity(f.entries)
        assert lo == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-14)
        verify_ellipticity(f)

    def test_overclaimed_constant_rejected(self, unit_square):
        g = unit_square(4)
        f = coefficient_family(
            "constant", g, matrix=[[1.0, 0.5], [0.5, 1.0]], lam=0.6)
        with pytest.raises(EllipticityError) as err:
            verify_ellipticity(f)
        assert "0.6" in str(err.value)

    def test_constant_resting_on_roundoff_rejected(self, unit_square):
        # smallest eigenvalue 0: a declared 1e-13 is no roundoff allowance
        g = unit_square(4)
        entries = np.zeros((2, 2) + g.node_shape)
        entries[1, 1] = 1.0
        f = CoefficientField(g, entries, lam=1e-13)
        with pytest.raises(EllipticityError):
            verify_ellipticity(f)

    def test_allowance_scales_with_table(self, unit_square):
        # the same tight table passes at every scale
        g = unit_square(4)
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        for scale in (1e-12, 1.0, 1e12):
            f = coefficient_family("constant", g, matrix=scale * m)
            verify_ellipticity(f)

    def test_failing_discs_with_passing_eigenvalues_accepted(self,
                                                             unit_square):
        # Gershgorin bound 1 - 0.6 = 0.4 misses 0.8; the smallest
        # eigenvalue, 2 - sqrt(1.36) = 0.834, clears it
        g = unit_square(4)
        f = coefficient_family("constant", g,
                               matrix=[[1.0, 0.6], [0.6, 3.0]], lam=0.8)
        verify_ellipticity(f)

    def test_rejection_names_the_worst_node(self, unit_square):
        # identity but at two nodes, whose smallest eigenvalues are 0.5
        # and 0.3: the message names the second, as observed_ellipticity
        g = unit_square(4)
        entries = coefficient_family("identity", g).entries
        for node, off in (((2, 3), 0.5), ((1, 1), 0.7)):
            entries[(0, 1) + node] = entries[(1, 0) + node] = off
        f = CoefficientField(g, entries, lam=0.6)
        with pytest.raises(EllipticityError) as err:
            verify_ellipticity(f)
        assert "0.3 at node (1, 1)" in str(err.value)
        assert observed_ellipticity(entries)[1] == (1, 1)

    def test_nonelliptic_matrix_rejected(self, unit_square):
        g = unit_square(4)
        with pytest.raises(ConfigError):
            coefficient_family("constant", g, matrix=[[1.0, 2.0], [2.0, 1.0]])

    def test_variable_family_certificate_holds(self, unit_square):
        g = unit_square(8)
        f = coefficient_family("variable", g)
        lo, _ = observed_ellipticity(f.entries)
        assert lo >= f.lam
        verify_ellipticity(f)

    @given(st.floats(0.01, 1.0), st.floats(-3, 3), st.floats(-3, 3),
           st.floats(-3, 3), st.floats(-3, 3))
    def test_scaled_quadratic_form_lower_bound(self, eps, z1, z2, w1, w2):
        g = make_grid([(0, 1), (0, 1)], (4, 4), q=1)
        base = coefficient_family("variable", g)
        sc = scale_coefficients(base, eps)
        zeta = np.array([z1, z2])
        a = sc.entries[:, :, w_idx(g, w1), w_idx(g, w2)]
        form = zeta @ a @ zeta
        bound = base.lam * (eps ** 2 * z1 ** 2 + z2 ** 2)
        assert form >= bound - 1e-12 * max(1.0, abs(form))


def w_idx(grid, t: float) -> int:
    # map a float in [-3, 3] onto a node index deterministically
    n = grid.cells[0]
    return int(round((t + 3.0) / 6.0 * n))


class TestVariableFamily:
    def test_entries_formula(self, unit_square):
        g = unit_square(4)
        f = coefficient_family("variable", g)
        x = g.meshgrid()
        assert np.allclose(f.entries[0, 0], 1.0 + 0.5 * x[1] ** 2)
        assert np.allclose(f.entries[1, 1], 1.0 + 0.5 * x[0] ** 2)
        g_cpl = 0.25 / 1.0  # one off-diagonal partner, coords bounded by 1
        assert np.allclose(f.entries[0, 1], g_cpl * x[0] * x[1])
        assert np.array_equal(f.entries[0, 1], f.entries[1, 0])

    @pytest.mark.parametrize("bounds, cells, q", [
        ([(0, 1), (0, 1)], (16, 16), 1),
        ([(-1, 1), (0, 1), (0, 2)], (8, 10, 6), 1),
        ([(-1, 1), (0, 1), (0, 2)], (8, 10, 6), 2),
    ], ids=["2d", "3d-q1", "3d-q2"])
    def test_nondivergence_matches_closed_form_derivatives(self, bounds,
                                                           cells, q):
        # d_i a_ii = 0 and d_i a_ij = g x_j: the written-out expanded
        # action with these exact drifts equals apply_nondivergence, whose
        # centered differences are exact on the degree-2 entries
        g = make_grid(bounds, cells, q=q)
        f = coefficient_family("variable", g)
        x = g.meshgrid()
        coord_bound = max(max(abs(lo), abs(hi)) for lo, hi in bounds)
        g_cpl = 0.25 / ((g.ndim - 1) * coord_bound ** 2)
        u = ScalarField.from_function(
            g, lambda *xs: np.prod([np.sin(1.0 + k + xk)
                                    for k, xk in enumerate(xs)], axis=0))
        ref = np.zeros(g.node_shape)
        for j in range(g.ndim):
            drift = (g.ndim - 1) * g_cpl * x[j]
            ref -= drift * grad_axis(u, j).values
            for i in range(g.ndim):
                ref -= f.entries[i, j] * hess_component(u, i, j).values
        inner = tuple(slice(1, n) for n in g.cells)
        got = apply_nondivergence(f, u).values[inner]
        assert np.abs(got - ref[inner]).max() \
            <= 1e-13 * np.abs(ref[inner]).max()

    def test_unknown_family_rejected(self, unit_square):
        with pytest.raises(ConfigError):
            coefficient_family("perlin", unit_square(4))

    def test_identity_family(self, unit_square):
        g = unit_square(4)
        f = coefficient_family("identity", g)
        assert f.lam == 1.0
        assert np.allclose(f.entries[0, 0], 1.0)
        assert np.allclose(f.entries[0, 1], 0.0)
