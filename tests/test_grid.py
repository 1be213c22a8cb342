import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anisolab import (ConfigError, ScalarField, ShiftError,
                      interior_subdomain, make_grid, nested_family)

from conftest import random_field, shift_field


class TestGrid:
    def test_unit_square_basics(self, unit_square):
        g = unit_square(4)
        assert g.spacing == (0.25, 0.25)
        assert g.node_shape == (5, 5)
        assert g.interior_shape == (3, 3)
        assert g.n_interior == 9
        assert g.x1_axes == (0,)
        assert g.x2_axes == (1,)

    def test_anisotropic_cells(self):
        g = make_grid([(0.0, 2.0), (0.0, 1.0)], (8, 4), q=1)
        assert g.spacing == (0.25, 0.25)
        assert g.cells == (8, 4)

    def test_single_cell_axis_rejected(self):
        with pytest.raises(ConfigError):
            make_grid([(0, 1), (0, 1)], (1, 4), q=1)

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ConfigError):
            make_grid([(0, 0), (0, 1)], (4, 4), q=1)
        with pytest.raises(ConfigError):
            make_grid([(1, 0), (0, 1)], (4, 4), q=1)
        with pytest.raises(ConfigError, match="axis 1: non-finite"):
            make_grid([(0, 1), (0, np.inf)], (4, 4), q=1)

    def test_bad_split_rejected(self):
        for q in (0, 2, 3):
            with pytest.raises(ConfigError):
                make_grid([(0, 1), (0, 1)], (4, 4), q=q)
        g3 = make_grid([(0, 1)] * 3, (4, 4, 4), q=2)
        assert g3.x1_axes == (0, 1)

    def test_one_dimension_rejected(self):
        with pytest.raises(ConfigError):
            make_grid([(0, 1)], (4,), q=1)

    def test_grid_immutable(self, unit_square):
        g = unit_square(4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.q = 1

    def test_axis_nodes_hit_endpoints(self):
        g = make_grid([(0.0, 1.0), (-1.0, 3.0)], (4, 8), q=1)
        x = g.axis_nodes(1)
        assert x[0] == -1.0 and x[-1] == 3.0
        assert np.allclose(np.diff(x), 0.5)

    @given(st.integers(2, 9), st.integers(2, 9),
           st.integers(0, 9), st.integers(0, 9))
    def test_index_coordinate_roundtrip(self, n1, n2, i, j):
        g = make_grid([(0.0, 1.3), (-0.7, 2.1)], (n1, n2), q=1)
        idx = (min(i, n1), min(j, n2))
        mesh = g.meshgrid()
        assert g.node_coordinate(idx) == pytest.approx(
            tuple(m[idx] for m in mesh), rel=1e-14, abs=1e-14)

    def test_interior_vector_row_major(self, unit_square):
        g = unit_square(3)
        vals = np.arange(16.0).reshape(4, 4)
        u = ScalarField(g, vals)
        # row-major over the interior block: axis 0 slowest
        assert list(u.interior_vector()) == [5.0, 6.0, 9.0, 10.0]


class TestScalarField:
    def test_shape_mismatch_rejected(self, unit_square):
        g = unit_square(4)
        with pytest.raises(ConfigError):
            ScalarField(g, np.zeros((4, 4)))

    def test_from_function_samples_nodes(self, unit_square):
        g = unit_square(4)
        u = ScalarField.from_function(g, lambda x, y: x + 10 * y)
        assert u.values[1, 2] == pytest.approx(0.25 + 5.0)
        assert u.values[0, 0] == 0.0

    def test_from_interior_zero_boundary(self, unit_square):
        g = unit_square(4)
        u = ScalarField.from_interior(g, np.arange(9.0))
        assert u.values[0].sum() == 0.0
        assert u.values[-1].sum() == 0.0
        assert u.values[2, 2] == 4.0

    def test_arithmetic_checks_grid(self, unit_square):
        u = ScalarField.zeros(unit_square(4))
        v = ScalarField.zeros(unit_square(8))
        with pytest.raises(ConfigError):
            u - v


class TestSubdomainMask:
    def test_margin_two_on_eight(self, unit_square):
        m = interior_subdomain(unit_square(8), 2)
        assert m.index_lo == (2, 2)
        assert m.index_hi == (6, 6)
        assert m.shape == (5, 5)
        assert m.node_count == 25

    def test_single_node_mask(self, unit_square):
        m = interior_subdomain(unit_square(4), 2)
        assert m.index_lo == (2, 2) and m.index_hi == (2, 2)
        assert m.node_count == 1

    def test_overlarge_margin_rejected(self, unit_square):
        with pytest.raises(ConfigError):
            interior_subdomain(unit_square(4), 3)

    def test_zero_margin_rejected(self, unit_square):
        with pytest.raises(ConfigError):
            interior_subdomain(unit_square(8), 0)

    def test_measure_is_node_count_quadrature(self, unit_square):
        g = unit_square(8)
        m = interior_subdomain(g, 2)
        assert m.measure() == pytest.approx(25 * 0.125 ** 2)

    def test_per_axis_margins(self):
        g = make_grid([(0, 1), (0, 1)], (8, 6), q=1)
        m = interior_subdomain(g, (3, 2))
        assert m.index_lo == (3, 2)
        assert m.index_hi == (5, 4)


class TestNestedFamily:
    def test_sixteen_squared_depth_three(self, unit_square):
        fam = nested_family(unit_square(16), 3)
        assert fam.margins == (4, 2, 1)
        for a, b in zip(fam.masks, fam.masks[1:]):
            assert b.contains(a)

    def test_coarse_grid_clamps_at_one(self, unit_square):
        fam = nested_family(unit_square(4), 5)
        assert fam.margins == (1, 1, 1, 1, 1)
        for a, b in zip(fam.masks, fam.masks[1:]):
            assert b.contains(a)

    def test_depth_always_reaches_margin_one(self, unit_square):
        for n, depth in [(128, 20), (64, 3), (32, 6), (8, 2)]:
            fam = nested_family(unit_square(n), depth)
            assert len(fam) == depth
            assert fam.margins[-1] == 1
            assert all(m1 >= m2 for m1, m2 in
                       zip(fam.margins, fam.margins[1:]))

    def test_bad_depth_rejected(self, unit_square):
        with pytest.raises(ConfigError):
            nested_family(unit_square(8), 0)


class TestShiftField:
    def test_linear_field_shift_adds_spacing(self, unit_square):
        g = unit_square(4)
        v = ScalarField.from_function(g, lambda x, y: x)
        mask = interior_subdomain(g, 1)
        shifted = shift_field(v, (1, 0), mask=mask)
        delta = mask.extract(shifted) - mask.extract(v)
        assert np.allclose(delta, 0.25)

    def test_escape_raises_not_zero_fills(self, unit_square):
        g = unit_square(4)
        v = ScalarField.from_function(g, lambda x, y: x)
        mask = interior_subdomain(g, 1)
        with pytest.raises(ShiftError):
            shift_field(v, (2, 0), mask=mask)

    def test_unmasked_shift_poisons_outside(self, unit_square):
        g = unit_square(4)
        v = ScalarField.from_function(g, lambda x, y: x + y)
        shifted = shift_field(v, (1, 0))
        assert np.isnan(shifted.values[-1]).all()
        assert np.isfinite(shifted.values[:-1]).all()

    def test_zero_shift_identity(self, unit_square, rng):
        g = unit_square(5)
        u = random_field(g, rng)
        mask = interior_subdomain(g, 1)
        assert np.array_equal(shift_field(u, (0, 0), mask=mask).values,
                              u.values)

    @given(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2 ** 31))
    def test_shift_involution(self, h1, h2, seed):
        g = make_grid([(0, 1), (0, 1)], (8, 8), q=1)
        u = ScalarField(
            g, np.random.default_rng(seed).standard_normal(g.node_shape))
        mask = interior_subdomain(g, 3)
        w = shift_field(shift_field(u, (h1, h2), mask=mask),
                        (-h1, -h2), mask=mask)
        assert np.array_equal(mask.extract(w), mask.extract(u))

    def test_mask_on_other_grid_rejected(self, unit_square):
        u = ScalarField.zeros(unit_square(4))
        mask = interior_subdomain(unit_square(8), 1)
        with pytest.raises(ConfigError):
            shift_field(u, (1, 0), mask=mask)
