import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anisolab import (BoundViolation, ConfigError, SpectralField,
                      check_constant_bounds, check_laplacian_bounds,
                      random_zero_mean_forcing, restrict_to_zero_x1,
                      torus_solve)
from anisolab.coefficients import scaling_factors

MATRIX = np.array([[2.0, 0.5], [0.5, 1.0]])
LAM = 1.5 - np.sqrt(0.5)  # smallest eigenvalue of MATRIX


def single_mode(shape, mode, q=1):
    """Real single-mode forcing: the mode and its Hermitian partner."""
    coeffs = np.zeros(shape, dtype=complex)
    coeffs[mode] = 1.0
    coeffs[tuple(-m % s for m, s in zip(mode, shape))] += 1.0
    return SpectralField(coeffs, q)


class TestSpectralField:
    def test_round_trip_and_parseval(self, rng):
        samples = rng.standard_normal((16, 16))
        f = SpectralField.from_physical(samples, q=1)
        assert np.allclose(f.to_physical(), samples, atol=1e-13)
        assert f.norm() == pytest.approx(np.linalg.norm(samples),
                                         rel=1e-13)

    def test_real_samples_are_hermitian(self, rng):
        f = SpectralField.from_physical(rng.standard_normal((8, 12)), q=1)
        assert f.is_hermitian()
        broken = SpectralField(f.coeffs.copy(), 1)
        broken.coeffs[1, 2] += 1.0j * np.abs(f.coeffs).max()
        assert not broken.is_hermitian()

    def test_integer_frequencies(self):
        # even sizes put the Nyquist mode at -M/2
        f = SpectralField(np.zeros((8, 6), dtype=complex), 1)
        xi1, xi2 = f.frequencies()
        assert sorted(np.unique(xi1)) == [-4, -3, -2, -1, 0, 1, 2, 3]
        assert sorted(np.unique(xi2)) == [-3, -2, -1, 0, 1, 2]

    def test_bad_split_rejected(self):
        with pytest.raises(ConfigError):
            SpectralField(np.zeros((8, 8), dtype=complex), 2)
        with pytest.raises(ConfigError):
            SpectralField(np.zeros(8, dtype=complex), 1)


class TestTorusSolve:
    def test_single_mode_division(self):
        f = single_mode((16, 16), (1, 1))
        u = torus_solve(f, 0.5)
        # symbol 0.25 * 1 + 1 = 1.25, so the mode divides to 0.8
        assert u.coeffs[1, 1] == pytest.approx(0.8)
        assert u.coeffs[15, 15] == pytest.approx(0.8)
        assert np.count_nonzero(u.coeffs) == 2

    def test_nonzero_mean_rejected(self, rng):
        f = SpectralField.from_physical(rng.standard_normal((8, 8)) + 5.0,
                                        q=1)
        with pytest.raises(ConfigError):
            torus_solve(f, 0.5)

    def test_epsilon_out_of_range(self):
        f = single_mode((8, 8), (1, 1))
        for eps in (0.0, 1.0001, -1.0):
            with pytest.raises(ConfigError):
                torus_solve(f, eps)

    def test_indefinite_matrix_rejected(self):
        f = single_mode((8, 8), (1, 1))
        with pytest.raises(ConfigError):
            torus_solve(f, 1.0, matrix=[[1.0, 2.0], [2.0, 1.0]])

    def test_solution_stays_real(self, rng):
        f = random_zero_mean_forcing((12, 12), 1, rng)
        u = torus_solve(f, 0.1)
        u.to_physical()  # raises if the Hermitian symmetry broke

    def test_nan_table_rejected(self, rng):
        # NaN passes a "symbol <= 0" test, so it needs its own check
        f = random_zero_mean_forcing((8, 8), 1, rng)
        matrix = MATRIX.copy()
        matrix[0, 1] = np.nan
        with pytest.raises(ConfigError, match="not finite"):
            torus_solve(f, 0.5, matrix=matrix)
        with pytest.raises(ConfigError, match="not finite"):
            check_constant_bounds(matrix, LAM, f, 0.5)

    def test_inf_table_rejected_without_warning(self, rng):
        f = random_zero_mean_forcing((8, 8), 1, rng)
        matrix = MATRIX.copy()
        matrix[1, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="not finite"):
                torus_solve(f, 0.5, matrix=matrix)


class TestLaplacianBounds:
    def test_single_mode_ratio_triple(self):
        f = single_mode((16, 16), (1, 1))
        rep = check_laplacian_bounds(f, 0.5)
        assert rep.r_x2 == pytest.approx(0.8, abs=1e-12)
        assert rep.r_x1 == pytest.approx(0.2, abs=1e-12)
        assert rep.r_cross == pytest.approx(np.sqrt(2) * 0.5 * 0.8,
                                            abs=1e-12)
        assert rep.passed and rep.max_ratio() < 1.0

    def test_random_forcings_all_pass(self, rng):
        for eps in (1.0, 0.1, 0.01):
            for _ in range(5):
                f = random_zero_mean_forcing((32, 32), 1, rng)
                rep = check_laplacian_bounds(f, eps)
                assert rep.max_ratio() <= 1.0 + 1e-9

    def test_zero_x1_support_is_tight(self, rng):
        f = restrict_to_zero_x1(random_zero_mean_forcing((32, 32), 1, rng))
        for eps in (1.0, 0.01):
            rep = check_laplacian_bounds(f, eps)
            assert rep.r_x2 == pytest.approx(1.0, abs=1e-12)
            assert rep.r_x1 == 0.0 and rep.r_cross == 0.0

    def test_restriction_needs_content(self):
        f = single_mode((8, 8), (1, 1))
        f.coeffs[0, :] = 0.0
        with pytest.raises(ConfigError):
            restrict_to_zero_x1(f)

    def test_three_dim_split(self, rng):
        f = random_zero_mean_forcing((8, 8, 8), 1, rng)
        rep = check_laplacian_bounds(f, 0.1)
        assert rep.passed


class TestConstantBounds:
    def test_brute_force_all_modes(self):
        # per-mode ratios from the raw symbol formula, every lattice mode
        xi1, xi2 = np.meshgrid(np.fft.fftfreq(16) * 16,
                               np.fft.fftfreq(16) * 16, indexing="ij")
        for eps in (1.0, 0.1, 0.01):
            s = (2.0 * eps ** 2 * xi1 ** 2 + 2 * 0.5 * eps * xi1 * xi2
                 + xi2 ** 2)
            s[0, 0] = np.inf
            r_x2 = LAM * xi2 ** 2 / s
            r_x1 = LAM * eps ** 2 * xi1 ** 2 / s
            r_cr = LAM * np.sqrt(2) * eps * np.abs(xi1 * xi2) / s
            assert max(r_x2.max(), r_x1.max(), r_cr.max()) <= 1.0 + 1e-9

    def test_worst_mode_matches_report(self):
        # checker output on a single-mode forcing equals the raw formula
        eps = 0.1
        mode = (3, 2)
        f = single_mode((16, 16), mode)
        rep = check_constant_bounds(MATRIX, LAM, f, eps)
        s = (2.0 * eps ** 2 * mode[0] ** 2
             + eps * mode[0] * mode[1] + mode[1] ** 2)
        assert rep.r_x2 == pytest.approx(LAM * mode[1] ** 2 / s, rel=1e-12)
        assert rep.r_x1 == pytest.approx(
            LAM * eps ** 2 * mode[0] ** 2 / s, rel=1e-12)
        assert rep.r_cross == pytest.approx(
            LAM * np.sqrt(2) * eps * mode[0] * mode[1] / s, rel=1e-12)

    def test_random_forcings_all_pass(self, rng):
        for eps in (1.0, 0.1, 0.01):
            f = random_zero_mean_forcing((64, 64), 1, rng)
            rep = check_constant_bounds(MATRIX, LAM, f, eps)
            assert rep.max_ratio() <= 1.0 + 1e-9

    def test_overclaimed_lambda_violates(self):
        # lam = 1 is not a lower eigenvalue bound for MATRIX; the mode
        # (-1, 1) at eps = 0.25 has symbol 7/8 < |xi2|^2 = 1
        f = single_mode((8, 8), (7, 1))  # frequency (-1, 1)
        with pytest.raises(BoundViolation):
            check_constant_bounds(MATRIX, 1.0, f, 0.25)
        rep = check_constant_bounds(MATRIX, 1.0, f, 0.25, strict=False)
        assert not rep.passed
        assert rep.r_x2 == pytest.approx(8.0 / 7.0, rel=1e-12)
        # the certified constant keeps the same mode under the bound
        assert check_constant_bounds(MATRIX, LAM, f, 0.25).passed

    def test_nonpositive_lambda_rejected(self):
        f = single_mode((8, 8), (1, 1))
        with pytest.raises(ConfigError):
            check_constant_bounds(MATRIX, 0.0, f, 0.5)


def reference_symbol(shape, q, matrix, eps):
    """Symbol on full meshgrids, the identity table by its own formula."""
    freqs = np.meshgrid(*[np.fft.fftfreq(m) * m for m in shape],
                        indexing="ij")
    if matrix is None:
        w1 = sum(freqs[a] ** 2 for a in range(q))
        w2 = sum(freqs[a] ** 2 for a in range(q, len(shape)))
        return eps ** 2 * w1 + w2
    scaled = matrix * scaling_factors(len(shape), q, eps)
    sym = np.zeros(shape)
    for i in range(len(shape)):
        for j in range(len(shape)):
            if scaled[i, j]:
                sym += scaled[i, j] * freqs[i] * freqs[j]
    return sym


def reference_solve(f, eps, matrix):
    """Masked division off the origin, origin left at zero."""
    sym = reference_symbol(f.shape, f.q, matrix, eps)
    off = np.ones(f.shape, dtype=bool)
    off[(0,) * f.ndim] = False
    u = np.zeros_like(f.coeffs)
    u[off] = f.coeffs[off] / sym[off]
    return u


def reference_ratios(f, u, eps, lam):
    """(r_x2, r_x1, r_cross) from full weight arrays."""
    freqs = np.meshgrid(*[np.fft.fftfreq(m) * m for m in f.shape],
                        indexing="ij")
    w1 = sum(freqs[a] ** 2 for a in range(f.q))
    w2 = sum(freqs[a] ** 2 for a in range(f.q, f.ndim))
    power = np.abs(u) ** 2
    f_norm = np.linalg.norm(f.coeffs)
    return (lam * np.sqrt(np.sum(w2 ** 2 * power)) / f_norm,
            lam * eps ** 2 * np.sqrt(np.sum(w1 ** 2 * power)) / f_norm,
            lam * np.sqrt(2.0) * eps * np.sqrt(np.sum(w1 * w2 * power))
            / f_norm)


class TestKernelMatchesReference:
    """The broadcast kernel against the written-out meshgrid formulas."""

    @given(st.sampled_from([(2, 1), (3, 1), (3, 2)]),
           st.lists(st.integers(3, 10), min_size=3, max_size=3),
           st.booleans(), st.floats(1e-3, 1.0), st.integers(0, 2 ** 32))
    def test_solve_and_ratios(self, split, sizes, identity, eps, seed):
        ndim, q = split
        rng = np.random.default_rng(seed)
        f = random_zero_mean_forcing(tuple(sizes[:ndim]), q, rng)
        if identity:
            matrix, lam = None, 1.0
            rep = check_laplacian_bounds(f, eps, strict=False)
        else:
            b = rng.standard_normal((ndim, ndim))
            matrix = b @ b.T + ndim * np.eye(ndim)
            lam = float(np.linalg.eigvalsh(matrix)[0])
            rep = check_constant_bounds(matrix, lam, f, eps, strict=False)
        u = torus_solve(f, eps, matrix=matrix).coeffs
        ref = reference_solve(f, eps, matrix)
        assert np.abs(u - ref).max() <= 1e-14 * np.abs(ref).max()
        got = (rep.r_x2, rep.r_x1, rep.r_cross)
        for r, r_ref in zip(got, reference_ratios(f, ref, eps, lam)):
            assert r == pytest.approx(r_ref, rel=1e-13, abs=0.0)


class TestRandomForcing:
    def test_reproducible_and_zero_mean(self):
        a = random_zero_mean_forcing((16, 16), 1,
                                     np.random.default_rng(99))
        b = random_zero_mean_forcing((16, 16), 1,
                                     np.random.default_rng(99))
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.mean_mode() == 0.0
        assert a.is_hermitian()
