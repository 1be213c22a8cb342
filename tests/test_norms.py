import numpy as np
import pytest
from hypothesis import given, strategies as st

from anisolab import (ConfigError, NestedFamily, ScalarField, ShiftError,
                      frechet_distance, interior_subdomain, l2_norm,
                      make_grid, nested_family, norm_bundle,
                      translation_modulus, v12_norm, v22_norm)
from anisolab.grid import SubdomainMask, shift_field
from anisolab.norms import (block_seminorm, grad_x1_seminorm,
                            grad_x2_seminorm, hess_x1_seminorm,
                            hess_x1x2_seminorm, hess_x2_seminorm,
                            inner_product)

from conftest import random_field


def seeded_field(grid, seed, boundary_zero=True):
    rng = np.random.default_rng(seed)
    return random_field(grid, rng, boundary_zero=boundary_zero)


class TestL2:
    def test_zero_field(self, unit_square):
        assert l2_norm(ScalarField.zeros(unit_square(8))) == 0.0

    def test_constant_one_interior_value(self, unit_square):
        # (n-1)^2 interior nodes, each weighted h^2: norm is exactly 1 - h
        for n in (4, 16, 64):
            u = ScalarField.from_function(unit_square(n), lambda x, y: 1.0)
            assert l2_norm(u) == pytest.approx(1.0 - 1.0 / n, abs=1e-14)

    def test_sine_retained_axis_exact_sum(self, unit_square):
        # row sums of sin^2 over a full period are exactly n/2, so the
        # squared norm is 0.5 (1 - h): the gap to the integral 1/2 comes
        # only from the two missing boundary columns
        for n in (8, 32, 128):
            g = unit_square(n)
            u = ScalarField.from_function(
                g, lambda x, y: np.sin(np.pi * y))
            assert l2_norm(u) ** 2 == pytest.approx(0.5 * (1 - 1.0 / n),
                                                    abs=1e-13)

    def test_masked_constant(self, unit_square):
        g = unit_square(8)
        u = ScalarField.from_function(g, lambda x, y: 3.0)
        m = interior_subdomain(g, 2)
        assert l2_norm(u, m) == pytest.approx(3.0 * 5 * 0.125, abs=1e-13)

    @given(st.integers(0, 2 ** 31), st.floats(-10, 10))
    def test_homogeneity(self, seed, c):
        g = make_grid([(0, 1), (0, 1)], (6, 6), q=1)
        u = seeded_field(g, seed)
        assert l2_norm(ScalarField(g, c * u.values)) == pytest.approx(
            abs(c) * l2_norm(u), rel=1e-12, abs=1e-12)

    @given(st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
    def test_polarization(self, s1, s2):
        g = make_grid([(0, 1), (0, 1)], (6, 6), q=1)
        u, v = seeded_field(g, s1), seeded_field(g, s2)
        lhs = inner_product(u, v)
        rhs = (l2_norm(u + v) ** 2 - l2_norm(u - v) ** 2) / 4
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestSeminorms:
    def test_grad_x2_independent_recompute(self, unit_square):
        g = unit_square(12)
        u = seeded_field(g, 7)
        v = u.values
        h = g.spacing[1]
        dy = np.zeros_like(v)
        dy[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
        expect = np.sqrt(np.sum(dy[1:-1, 1:-1] ** 2) * g.cell_volume)
        assert grad_x2_seminorm(u) == pytest.approx(expect, rel=1e-13)

    def test_grad_splits_by_axis_group(self, unit_square):
        g = unit_square(8)
        ux = ScalarField.from_function(g, lambda x, y: x)
        uy = ScalarField.from_function(g, lambda x, y: y)
        assert grad_x2_seminorm(ux) == 0.0
        assert grad_x1_seminorm(uy) == 0.0
        assert grad_x1_seminorm(ux) > 0.5
        assert grad_x2_seminorm(uy) > 0.5

    def test_hess_x2_double_counts_off_diagonal_3d(self):
        g = make_grid([(0, 1)] * 3, (6, 6, 6), q=1)
        u = seeded_field(g, 11)
        v = u.values
        h = g.spacing
        comps = {}
        for (i, j) in [(1, 1), (2, 2), (1, 2)]:
            d = np.zeros_like(v)
            if i == j:
                sl = [slice(None)] * 3
                sl[i] = slice(1, -1)
                up = [slice(None)] * 3
                up[i] = slice(2, None)
                dn = [slice(None)] * 3
                dn[i] = slice(None, -2)
                d[tuple(sl)] = (v[tuple(up)] - 2 * v[tuple(sl)]
                                + v[tuple(dn)]) / h[i] ** 2
            else:
                d[:, 1:-1, 1:-1] = (v[:, 2:, 2:] - v[:, 2:, :-2]
                                    - v[:, :-2, 2:] + v[:, :-2, :-2]) \
                    / (4 * h[i] * h[j])
            comps[(i, j)] = d
        inner = (slice(1, -1),) * 3
        sq = sum(np.sum(comps[k][inner] ** 2) for k in comps) \
            + np.sum(comps[(1, 2)][inner] ** 2)  # (2,1) counted again
        expect = np.sqrt(sq * g.cell_volume)
        assert hess_x2_seminorm(u) == pytest.approx(expect, rel=1e-12)

    def test_hess_x1x2_counts_each_pair_once(self):
        g = make_grid([(0, 1)] * 3, (6, 6, 6), q=1)
        u = seeded_field(g, 13)
        from anisolab.fd_ops import hess_component
        sq = sum(l2_norm(hess_component(u, 0, j)) ** 2 for j in (1, 2))
        assert hess_x1x2_seminorm(u) == pytest.approx(np.sqrt(sq),
                                                      rel=1e-12)

    def test_block_seminorm_counts_ordered_pairs(self):
        # 3-D, q=2: the X1 block sums all four ordered pairs, the mixed
        # block the two (x1, x2) pairs, each named seminorm is one block
        from anisolab.fd_ops import grad_axis, hess_component
        g = make_grid([(0, 1)] * 3, (6, 6, 6), q=2)
        u = seeded_field(g, 17)
        m = interior_subdomain(g, 2)

        def ref(comps, mask=None):
            return np.sqrt(sum(l2_norm(c, mask) ** 2 for c in comps))

        x1, x2 = g.x1_axes, g.x2_axes
        hess = {(i, j): hess_component(u, i, j)
                for i in range(3) for j in range(3)}
        assert block_seminorm(u, x1, None) == ref(
            [grad_axis(u, a) for a in x1]) == grad_x1_seminorm(u)
        assert block_seminorm(u, x2, None) == grad_x2_seminorm(u)
        assert block_seminorm(u, x1, x1, m) == ref(
            [hess[0, 0], hess[0, 1], hess[1, 0], hess[1, 1]], m) \
            == hess_x1_seminorm(u, m)
        assert block_seminorm(u, x1, x2, m) == ref(
            [hess[0, 2], hess[1, 2]], m) == hess_x1x2_seminorm(u, m)
        assert block_seminorm(u, x2, x2, m) == hess_x2_seminorm(u, m)

    def test_hess_x1_is_scaled_axes_block(self, unit_square):
        g = unit_square(8)
        u = ScalarField.from_function(g, lambda x, y: x ** 2)
        assert hess_x1_seminorm(u) > 1.0
        assert hess_x2_seminorm(u, interior_subdomain(g, 1)) == 0.0


class TestCompositeNorms:
    def test_v12_formula(self, unit_square):
        g = unit_square(10)
        u = seeded_field(g, 3)
        expect = np.sqrt(l2_norm(u) ** 2 + grad_x2_seminorm(u) ** 2)
        assert v12_norm(u) == pytest.approx(expect, rel=1e-13)

    def test_v12_sine_limit_value(self):
        # continuum value sqrt(1/2 + pi^2/2); quadrature gap is O(h) from
        # the missing boundary columns, so it should halve with h
        target = np.sqrt(0.5 + np.pi ** 2 / 2)
        gaps = []
        for n in (64, 128, 256):
            g = make_grid([(0, 1), (0, 1)], (n, n), q=1)
            u = ScalarField.from_function(g, lambda x, y: np.sin(np.pi * y))
            gaps.append(abs(v12_norm(u) - target))
        assert gaps[0] < 0.1
        for big, small in zip(gaps, gaps[1:]):
            assert 1.7 < big / small < 2.3

    def test_v22_on_affine_equals_v12(self, unit_square):
        g = unit_square(8)
        u = ScalarField.from_function(g, lambda x, y: y)
        m = interior_subdomain(g, 2)
        assert v22_norm(u, m) == pytest.approx(v12_norm(u), rel=1e-14)

    def test_norm_hierarchy(self, unit_square):
        g = unit_square(8)
        u = seeded_field(g, 5)
        m = interior_subdomain(g, 2)
        assert l2_norm(u) <= v12_norm(u) <= v22_norm(u, m)

    def test_v22_grows_with_mask(self, unit_square):
        g = unit_square(16)
        u = seeded_field(g, 9)
        fam = nested_family(g, 3)
        vals = [v22_norm(u, m) for m in fam]
        assert vals[0] <= vals[1] <= vals[2]

    def test_bundle_matches_direct_calls(self, unit_square):
        g = unit_square(16)
        u = seeded_field(g, 21)
        fam = nested_family(g, 3)
        b = norm_bundle(u, fam)
        assert b.l2 == pytest.approx(l2_norm(u), rel=1e-14)
        assert b.v12 == pytest.approx(v12_norm(u), rel=1e-14)
        assert set(b.v22_by_margin) == {m.margins for m in fam}
        for m in fam:
            assert b.v22_by_margin[m.margins] == pytest.approx(
                v22_norm(u, m), rel=1e-13)

    def test_bundle_sums_each_distinct_mask_once(self, monkeypatch):
        # a 32-cell grid clamps the 20-mask family at margin 1 after
        # three halvings: four distinct masks.  X2 has two axes, so four
        # Hessian components, but each mask is read once, from their
        # summed square
        g = make_grid([(0, 1)] * 3, (32, 32, 32), q=1)
        assert len(g.x2_axes) == 2
        fam = nested_family(g, 20)
        assert len(fam) == 20 and len(set(fam.margins)) == 4
        reads: dict = {}
        extract = SubdomainMask.extract

        def counting(mask, u):
            reads[mask.margins] = reads.get(mask.margins, 0) + 1
            return extract(mask, u)

        monkeypatch.setattr(SubdomainMask, "extract", counting)
        b = norm_bundle(seeded_field(g, 8), fam)
        assert len(b.v22_by_margin) == 4
        assert reads == {m.margins: 1 for m in fam}

    @pytest.mark.parametrize("q", [1, 2])
    def test_bundle_matches_direct_calls_3d(self, q):
        # with q = 1 X2 has two axes, so the squares sum over four
        # Hessian components and two gradients; the extra mask is no
        # member of the family
        g = make_grid([(0, 1), (0, 1.5), (0, 0.8)], (16, 20, 12), q=q)
        u = seeded_field(g, 31 + q)
        fam = nested_family(g, 5)
        extra = interior_subdomain(g, (2, 5, 3))
        assert extra.margins not in set(m.margins for m in fam)
        b = norm_bundle(u, (*fam, extra))
        assert b.l2 == l2_norm(u)
        assert b.v12 == pytest.approx(v12_norm(u), rel=1e-13)
        assert set(b.v22_by_margin) == set(b.hess_x2_by_margin) == (
            {m.margins for m in fam} | {extra.margins})
        for m in (*fam, extra):
            assert b.v22_by_margin[m.margins] == pytest.approx(
                v22_norm(u, m), rel=1e-13)
            assert b.hess_x2_by_margin[m.margins] == pytest.approx(
                hess_x2_seminorm(u, m), rel=1e-13)
        assert b.metric(fam) == pytest.approx(
            frechet_distance(u, ScalarField.zeros(g), fam), rel=1e-13)


class TestFrechet:
    def test_series_read_from_difference_bundle(self, unit_square,
                                                monkeypatch):
        # one bundle of u - v, no mask pass of its own, and the same sum
        # in the same order as the series written out
        import anisolab.norms as norms
        g = unit_square(16)
        u, v = seeded_field(g, 5), seeded_field(g, 55)
        fam = nested_family(g, 3)
        v22 = norm_bundle(u - v, fam).v22_by_margin
        manual = 0.0
        for n in range(7):
            t = v22[fam[min(n, len(fam) - 1)].margins]
            manual += 2.0 ** -n * t / (1.0 + t)
        calls = []
        bundle = norms.norm_bundle
        monkeypatch.setattr(norms, "norm_bundle",
                            lambda *a: calls.append(a) or bundle(*a))
        assert frechet_distance(u, v, fam, n_max=7) == manual
        assert len(calls) == 1

    def test_identical_fields_distance_zero(self, unit_square):
        g = unit_square(16)
        u = seeded_field(g, 2)
        assert frechet_distance(u, u, nested_family(g, 4)) == 0.0

    def test_unit_seminorm_truncation_value(self, unit_square):
        # scale a constant difference so t_n = 1 on every mask: the series
        # collapses to sum 2^(-n)/2 over twenty terms
        g = unit_square(16)
        fam = nested_family(g, 4)
        one = ScalarField.from_function(g, lambda x, y: 1.0)
        c = 1.0 / v12_norm(one)  # constants have no gradient or Hessian
        u = ScalarField(g, c * one.values)
        d = frechet_distance(u, ScalarField.zeros(g), fam, n_max=20)
        assert d == pytest.approx(1.0 - 2.0 ** -20, abs=1e-12)

    def test_symmetry_exact(self, unit_square):
        g = unit_square(12)
        fam = nested_family(g, 3)
        for seed in range(10):
            u, v = seeded_field(g, seed), seeded_field(g, 1000 + seed)
            assert frechet_distance(u, v, fam) == frechet_distance(
                v, u, fam)

    def test_triangle_inequality(self, unit_square):
        g = unit_square(10)
        fam = nested_family(g, 3)
        for seed in range(25):
            u = seeded_field(g, 3 * seed)
            v = seeded_field(g, 3 * seed + 1)
            w = seeded_field(g, 3 * seed + 2)
            duv = frechet_distance(u, v, fam)
            duw = frechet_distance(u, w, fam)
            dwv = frechet_distance(w, v, fam)
            assert duv <= duw + dwv + 1e-12

    def test_bounded_by_weight_sum(self, unit_square):
        g = unit_square(10)
        fam = nested_family(g, 3)
        u = ScalarField.from_function(g, lambda x, y: 1e9 * x * y)
        d = frechet_distance(u, ScalarField.zeros(g), fam, n_max=20)
        assert d < 2.0 - 2.0 ** -19 + 1e-12

    def test_short_family_repeats_last_mask(self, unit_square):
        g = unit_square(16)
        u, v = seeded_field(g, 4), seeded_field(g, 44)
        fam = nested_family(g, 2)
        d = frechet_distance(u, v, fam, n_max=6)
        diff = u - v
        ts = [v22_norm(diff, fam[0]), v22_norm(diff, fam[1])]
        manual = sum(
            2.0 ** -n * (t := ts[min(n, 1)]) / (1 + t) for n in range(6))
        assert d == pytest.approx(manual, rel=1e-13)

    def test_metric_zero_iff_all_masks_converge(self, unit_square):
        # one-node bump at (1/8, 1/8): inside the margin-1 mask, outside
        # the margin-n/4 mask.  Amplitude h keeps the local Hessian norm
        # of order one (no convergence on the outer mask); amplitude h^2
        # sends every mask norm to zero.
        def bump_distance(n, power):
            g = unit_square(n)
            fam = NestedFamily((interior_subdomain(g, n // 4),
                                interior_subdomain(g, 1)))
            vals = np.zeros(g.node_shape)
            vals[n // 8, n // 8] = (1.0 / n) ** power
            return frechet_distance(ScalarField(g, vals),
                                    ScalarField.zeros(g), fam, n_max=20)
        stuck = [bump_distance(n, 1) for n in (16, 32, 64)]
        gone = [bump_distance(n, 2) for n in (16, 32, 64)]
        assert min(stuck) > 0.2
        assert gone[0] > gone[1] > gone[2]
        assert gone[2] < 0.05


class TestTranslationModulus:
    def test_zero_shift_and_constants(self, unit_square):
        g = unit_square(8)
        m = interior_subdomain(g, 2)
        const = ScalarField.from_function(g, lambda x, y: 5.0)
        out = translation_modulus([const], m, [(0, 0), (1, 0)])
        assert out[(0, 0)] == 0.0
        assert out[(1, 0)] == 0.0

    def test_linear_field_closed_form(self, unit_square):
        g = unit_square(8)
        m = interior_subdomain(g, 2)
        v = ScalarField.from_function(g, lambda x, y: x)
        out = translation_modulus([v], m, [(1, 0)])
        assert out[(1, 0)] == pytest.approx(0.125 * np.sqrt(m.measure()),
                                            rel=1e-12)

    def test_max_over_family(self, unit_square):
        g = unit_square(8)
        m = interior_subdomain(g, 2)
        v = ScalarField.from_function(g, lambda x, y: x)
        w = ScalarField(g, -3.0 * v.values)
        out = translation_modulus([v, w], m, [(1, 0)])
        assert out[(1, 0)] == pytest.approx(
            3 * 0.125 * np.sqrt(m.measure()), rel=1e-12)

    def test_admissibility_is_strict(self, unit_square):
        g = unit_square(16)
        m = interior_subdomain(g, 3)
        v = seeded_field(g, 6)
        translation_modulus([v], m, [(2, 0), (-2, 2)])  # margin - 1 fine
        with pytest.raises(ShiftError):
            translation_modulus([v], m, [(3, 0)])
        with pytest.raises(ShiftError):
            translation_modulus([v], m, [(0, -3)])

    def test_empty_family_rejected(self, unit_square):
        with pytest.raises(ConfigError):
            translation_modulus([], interior_subdomain(unit_square(8), 2),
                                [(0, 0)])

    @pytest.mark.parametrize("grid", [
        make_grid([(0, 1), (0, 1)], (24, 20), q=1),
        make_grid([(0, 1), (0, 1.2), (0, 0.9)], (14, 12, 16), q=1),
        make_grid([(0, 1), (0, 1.2), (0, 0.9)], (14, 12, 16), q=2),
    ])
    def test_equals_shift_field_definition(self, grid):
        # tau_h v read from a shifted copy, as the definition reads it;
        # the largest admissible shift is margin - 1 on every axis
        m = interior_subdomain(grid, 4)
        fields = [seeded_field(grid, s, boundary_zero=False)
                  for s in range(3)]
        shifts = [(0,) * grid.ndim, (1,) + (0,) * (grid.ndim - 1),
                  (0,) * (grid.ndim - 1) + (-2,), (-3,) * grid.ndim,
                  tuple((-1) ** a * (a + 1) for a in range(grid.ndim))]
        out = translation_modulus(fields, m, shifts)
        assert list(out) == shifts
        for h in shifts:
            want = max(float(np.sqrt(np.sum(
                (m.extract(shift_field(v, h, mask=m)) - m.extract(v)) ** 2)
                * grid.cell_volume)) for v in fields)
            assert out[h] == want
        for a in range(grid.ndim):
            h = [0] * grid.ndim
            h[a] = 4
            with pytest.raises(ShiftError):
                translation_modulus(fields, m, [h])
            h[a] = -4
            with pytest.raises(ShiftError):
                translation_modulus(fields, m, [h])

    def test_smooth_field_modulus_shrinks_with_shift(self, unit_square):
        g = unit_square(64)
        m = interior_subdomain(g, 9)
        v = ScalarField.from_function(
            g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        out = translation_modulus([v], m, [(8, 0), (4, 0), (2, 0), (1, 0)])
        sigmas = [out[(k, 0)] for k in (8, 4, 2, 1)]
        assert sigmas[0] > sigmas[1] > sigmas[2] > sigmas[3] > 0
        # smooth fields halve the defect with the shift, within slack
        for big, small in zip(sigmas, sigmas[1:]):
            assert abs(big / small - 2.0) < 0.2
