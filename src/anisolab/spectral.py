"""Fourier verification of the second-derivative a-priori bounds.

Everything lives on a periodic lattice with integer frequencies (numpy fft
layout) and the unitary DFT convention, so the lattice l2 norm of samples
and coefficients agree exactly and every reported quantity is a clean
norm ratio.  Each axis's frequencies stay 1-D, shaped to broadcast.  For
the constant-coefficient operator with the anisotropic scaling the symbol
s(xi) = sum_ij a_ij^eps xi_i xi_j is summed over those axes (the identity
table is the diagonal case), with s = +inf at the origin, and inverted
once: ``torus_solve`` multiplies the forcing by 1 / s, while a bound
check forms no complex solution at all and reads the solution's power
spectrum |u|^2 = (|f| / s)^2 in one real array; the three weighted
ratios

    r_x2    = lam * |xi2|^2-weighted Hessian norm / forcing norm
    r_x1    = lam * eps^2 * |xi1|^2-weighted Hessian norm / forcing norm
    r_cross = lam * sqrt(2) * eps * mixed-weighted norm / forcing norm

must each stay below one (lam = 1 for the pure Laplacian case).  Their
squared Hessian norms weight |u|^2 by w2^2, w1^2 and w1 w2 (w1 = |xi1|^2,
w2 = |xi2|^2); with |u|^2 as a matrix P over (X1 modes, X2 modes) they are
colsum(P) . w2^2, w1^2 . rowsum(P) and w1 . P w2, all three read off the
one product P [1, w2, w2^2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import scaling_factors
from .errors import ConfigError

__all__ = [
    "SpectralField",
    "BoundReport",
    "BoundViolation",
    "torus_solve",
    "check_laplacian_bounds",
    "check_constant_bounds",
    "random_zero_mean_forcing",
    "restrict_to_zero_x1",
]

DEFAULT_TOL = 1e-9


class BoundViolation(AssertionError):
    """A verified inequality failed; message carries the offending ratio."""


@dataclass
class SpectralField:
    """Complex coefficients on the integer frequency lattice (fft layout)."""

    coeffs: np.ndarray
    q: int

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        ndim = self.coeffs.ndim
        if ndim < 2:
            raise ConfigError("need at least 2 lattice axes")
        if not 1 <= self.q <= ndim - 1:
            raise ConfigError(f"invalid split q={self.q} for {ndim} axes")

    @property
    def ndim(self) -> int:
        return self.coeffs.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coeffs.shape

    def frequencies(self) -> list[np.ndarray]:
        """Signed integer frequency grid per axis, broadcast to full shape."""
        return [np.broadcast_to(k, self.shape).copy()
                for k in _frequencies(self.shape)]

    def norm(self) -> float:
        """Lattice l2 norm; equals the sample norm under the unitary DFT."""
        return float(np.sqrt(np.vdot(self.coeffs, self.coeffs).real))

    def mean_mode(self) -> complex:
        return complex(self.coeffs[(0,) * self.ndim])

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Whether the coefficients come from a real sample field."""
        c = self.coeffs
        r = np.conj(c)
        for a in range(self.ndim):
            r = np.roll(np.flip(r, axis=a), 1, axis=a)
        scale = max(np.abs(c).max(), 1e-300)
        return bool(np.abs(c - r).max() <= tol * scale)

    @classmethod
    def from_physical(cls, samples: np.ndarray, q: int) -> "SpectralField":
        return cls(np.fft.fftn(np.asarray(samples), norm="ortho"), q)

    def to_physical(self) -> np.ndarray:
        """Real samples; requires Hermitian-symmetric coefficients."""
        out = np.fft.ifftn(self.coeffs, norm="ortho")
        scale = max(np.abs(out).max(), 1e-300)
        if np.abs(out.imag).max() > 1e-10 * scale:
            raise ConfigError("coefficients are not Hermitian-symmetric")
        return out.real


def _frequencies(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Signed integer frequencies per axis, 1-D and broadcastable (np.ix_)."""
    return np.ix_(*(np.rint(np.fft.fftfreq(m) * m) for m in shape))


def _split_weights(shape: tuple[int, ...],
                   q: int) -> tuple[np.ndarray, np.ndarray]:
    """(|xi1|^2, |xi2|^2), broadcast over the X1 and the X2 axes."""
    sq = [k ** 2 for k in _frequencies(shape)]
    return sum(sq[:q]), sum(sq[q:])


def _symbol(field: SpectralField, matrix: np.ndarray | None,
            epsilon: float) -> np.ndarray:
    """Operator symbol sum_ij a_ij^eps xi_i xi_j (None: identity table)."""
    ndim = field.ndim
    mat = np.eye(ndim) if matrix is None else np.asarray(matrix, dtype=float)
    if mat.shape != (ndim, ndim):
        raise ConfigError(f"matrix must be {ndim} x {ndim}")
    # inf times the zero frequency would warn before the symbol check
    if not np.isfinite(mat).all():
        raise ConfigError("coefficient table is not finite")
    scaled = mat * scaling_factors(ndim, field.q, epsilon)
    # over the last axis l the symbol is h + c xi_l + a_ll xi_l^2, where h,
    # the symbol of the other axes, and c = sum_{j<l} (a_jl + a_lj) xi_j
    # span only those, so the full array is one matrix product
    k = _frequencies(field.shape)
    last = ndim - 1
    head = cross = np.zeros(field.shape[:last] + (1,))
    for d in range(last):
        row = scaled[d, d] * k[d]
        for j in range(d):
            row = row + (scaled[j, d] + scaled[d, j]) * k[j]
        head = head + row * k[d]
        cross = cross + (scaled[d, last] + scaled[last, d]) * k[d]
    kl = k[last].ravel()
    factors = np.stack((head.ravel(), cross.ravel(), np.ones(head.size)),
                       axis=1)
    terms = np.stack((np.ones_like(kl), kl, scaled[last, last] * kl ** 2))
    return (factors @ terms).reshape(field.shape)


def _inverse_symbol(f: SpectralField, epsilon: float,
                    matrix: np.ndarray | None, f_norm: float) -> np.ndarray:
    """1 / s over the lattice, 0 at the origin, once epsilon, the zero
    mean of ``f`` (whose norm is ``f_norm``) and the symbol pass the
    checks every solve and every bound check makes."""
    if not 0.0 < epsilon <= 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1], got {epsilon}")
    if abs(f.mean_mode()) > 1e-13 * max(f_norm, 1e-300):
        raise ConfigError(
            "forcing has a nonzero mean mode; the periodic problem is "
            "only solvable with zero mean")
    sym = _symbol(f, matrix, epsilon)
    if not np.isfinite(sym).all():
        raise ConfigError("operator symbol is not finite")
    sym[(0,) * f.ndim] = np.inf
    if not sym.min() > 0:
        raise ConfigError("operator symbol is not positive off the origin")
    return np.reciprocal(sym, out=sym)


def torus_solve(f: SpectralField, epsilon: float,
                matrix: np.ndarray | None = None) -> SpectralField:
    """Divide by the symbol; zero-mean forcing required, mean mode stays 0."""
    return SpectralField(
        f.coeffs * _inverse_symbol(f, epsilon, matrix, f.norm()), f.q)


@dataclass
class BoundReport:
    """Weighted ratio triple for one forcing/epsilon pair."""

    epsilon: float
    r_x2: float
    r_x1: float
    r_cross: float
    tol: float = DEFAULT_TOL

    @property
    def passed_x2(self) -> bool:
        return self.r_x2 <= 1.0 + self.tol

    @property
    def passed_x1(self) -> bool:
        return self.r_x1 <= 1.0 + self.tol

    @property
    def passed_cross(self) -> bool:
        return self.r_cross <= 1.0 + self.tol

    @property
    def passed(self) -> bool:
        return self.passed_x2 and self.passed_x1 and self.passed_cross

    def max_ratio(self) -> float:
        return max(self.r_x2, self.r_x1, self.r_cross)


def _bound_report(f: SpectralField, epsilon: float, matrix: np.ndarray | None,
                  lam: float, tol: float, strict: bool,
                  label: str) -> BoundReport:
    """The ratio triple from the power spectrum of the solution, read off
    the forcing; ``strict`` raises on a failed bound."""
    f_norm = f.norm()
    inv = _inverse_symbol(f, epsilon, matrix, f_norm)
    if f_norm == 0.0:
        raise ConfigError("zero forcing has no bound ratio")
    # |u|^2 = (|f| / s)^2, formed in place in one real array
    power = np.abs(f.coeffs)
    power *= inv
    np.square(power, out=power)
    # one pass over P: its row sums, P w2 and P w2^2
    w1, w2 = (w.ravel() for w in _split_weights(f.shape, f.q))
    rows = power.reshape(w1.size, -1) @ np.stack(
        (np.ones_like(w2), w2, w2 ** 2), axis=1)
    hess_x2 = float(np.sqrt(rows[:, 2].sum()))
    hess_x1 = float(np.sqrt(w1 ** 2 @ rows[:, 0]))
    hess_cr = float(np.sqrt(w1 @ rows[:, 1]))
    report = BoundReport(
        epsilon=epsilon,
        r_x2=lam * hess_x2 / f_norm,
        r_x1=lam * epsilon ** 2 * hess_x1 / f_norm,
        r_cross=lam * np.sqrt(2.0) * epsilon * hess_cr / f_norm,
        tol=tol)
    if strict and not report.passed:
        raise BoundViolation(
            f"{label} violated at epsilon={epsilon}: max ratio "
            f"{report.max_ratio():.12f} > 1 + {tol:g}")
    return report


def check_laplacian_bounds(f: SpectralField, epsilon: float,
                           tol: float = DEFAULT_TOL,
                           strict: bool = True) -> BoundReport:
    """Bound triple for the pure anisotropic Laplacian (identity table)."""
    return _bound_report(f, epsilon, None, 1.0, tol, strict, "bound")


def check_constant_bounds(matrix: np.ndarray, lam: float, f: SpectralField,
                          epsilon: float, tol: float = DEFAULT_TOL,
                          strict: bool = True) -> BoundReport:
    """Lambda-weighted bound triple for a constant symmetric table.

    ``lam`` must be a certified lower bound on the smallest eigenvalue of
    the symmetric part of ``matrix``.
    """
    if lam <= 0:
        raise ConfigError(f"ellipticity constant must be > 0, got {lam}")
    return _bound_report(f, epsilon, matrix, lam, tol, strict,
                         "weighted bound")


def random_zero_mean_forcing(shape: tuple[int, ...], q: int,
                             rng: np.random.Generator) -> SpectralField:
    """Hermitian-symmetric coefficients of a real white-noise sample field,
    mean mode removed."""
    samples = rng.standard_normal(shape)
    field = SpectralField.from_physical(samples, q)
    field.coeffs[(0,) * len(shape)] = 0.0
    return field


def restrict_to_zero_x1(f: SpectralField) -> SpectralField:
    """Keep only modes with xi1 = 0 (tight case for the retained-axes bound)."""
    w1, _ = _split_weights(f.shape, f.q)
    coeffs = np.where(w1 == 0, f.coeffs, 0.0)
    out = SpectralField(coeffs, f.q)
    if out.norm() == 0.0:
        raise ConfigError("forcing has no xi1 = 0 content")
    return out
