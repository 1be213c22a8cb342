"""Symmetric coefficient tables a_ij(x) and their anisotropic scaling.

A coefficient field stores the full N x N entry table at every node together
with a declared ellipticity constant lambda: the symmetric part of A(x) must
have smallest eigenvalue >= lambda everywhere.  Scaling by epsilon in (0, 1]
multiplies entry (i, j) by

    epsilon^2   if both axes are in the X1 group,
    1           if both axes are in the X2 group,
    epsilon     for mixed pairs (both orderings),

which is the block form (eps^2 A11, eps A12; eps A21, A22), that is
D A D with D = diag(eps on X1, 1 on X2).  The scaled table is an ordinary
coefficient field: it keeps the name and declares the constant
eps^2 * lambda, which it meets, since

    xi^T D A D xi >= lambda |D xi|^2 >= lambda eps^2 |xi|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EllipticityError
from .grid import Grid

__all__ = [
    "CoefficientField",
    "scale_coefficients",
    "scaling_factors",
    "verify_ellipticity",
    "observed_ellipticity",
    "coefficient_family",
    "constant_ellipticity",
]


@dataclass
class CoefficientField:
    """Per-node entry table with declared ellipticity constant.

    ``entries[i, j]`` is the node array of a_ij.
    """

    grid: Grid
    entries: np.ndarray
    lam: float
    name: str = "custom"

    def __post_init__(self):
        ndim = self.grid.ndim
        shape = (ndim, ndim) + self.grid.node_shape
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.shape != shape:
            raise ConfigError(
                f"entry table shape {self.entries.shape}, expected {shape}")
        if self.lam <= 0:
            raise ConfigError(
                f"ellipticity constant must be > 0, got {self.lam}")

    @property
    def ndim(self) -> int:
        return self.grid.ndim

    def x2_block(self) -> np.ndarray:
        """The retained A22 block, entries a_ij for i, j > q: a view of
        the table, the X2 axes being the last ones."""
        q = self.grid.q
        return self.entries[q:, q:]


def scaling_factors(ndim: int, q: int, epsilon: float) -> np.ndarray:
    """Entrywise scale: eps^2 on the X1 block, eps on mixed, 1 on X2."""
    if not 0.0 < epsilon <= 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1], got {epsilon}")
    in_x1 = np.arange(ndim) < q
    fac = np.ones((ndim, ndim))
    fac[np.ix_(in_x1, in_x1)] = epsilon ** 2
    fac[np.ix_(in_x1, ~in_x1)] = epsilon
    fac[np.ix_(~in_x1, in_x1)] = epsilon
    return fac


def scale_coefficients(coeffs: CoefficientField,
                       epsilon: float) -> CoefficientField:
    """The table D A D, declared elliptic with constant eps^2 * lambda."""
    grid = coeffs.grid
    fac = scaling_factors(grid.ndim, grid.q, epsilon)
    entries = coeffs.entries * fac.reshape(fac.shape + (1,) * grid.ndim)
    return CoefficientField(grid, entries, lam=epsilon ** 2 * coeffs.lam,
                            name=coeffs.name)


def observed_ellipticity(entries: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Smallest symmetric-part eigenvalue over all nodes and its node index.

    ``entries`` has shape (N, N, *nodes); the eigenvalue problem is solved
    nodewise on the symmetrized table.
    """
    ndim = entries.shape[0]
    node_shape = entries.shape[2:]
    mats = np.moveaxis(entries, (0, 1), (-2, -1)).reshape(-1, ndim, ndim)
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    eigs = np.linalg.eigvalsh(sym)[:, 0]
    worst_flat = int(np.argmin(eigs))
    worst = tuple(int(i) for i in np.unravel_index(worst_flat, node_shape))
    return float(eigs[worst_flat]), worst


# roundoff allowance of verify_ellipticity, in units of machine epsilon
# times the largest table entry; the shipped families, scaled down to
# eps = 1e-8 in 2-D and 3-D, observe less than 1.5 such units below lambda
ELLIPTICITY_ULPS = 16


def verify_ellipticity(coeffs: CoefficientField) -> None:
    """Check min_x lambda_min(sym A(x)) >= declared lambda.

    The observed eigenvalue may miss the exact one by roundoff, which by
    Weyl's inequality is a few units of machine epsilon times the size of
    the table.  The check allows ``ELLIPTICITY_ULPS`` such units of the
    largest |a_ij|, so exact-boundary families (identity, tight constant
    tables) pass while a declared constant that rests on roundoff fails,
    at every scale of the table.

    Most nodes need no eigensolve.  On the symmetrized table S the
    Gershgorin bound ``s_ii - sum_{j != i} |s_ij|``, minimized over i,
    is a lower bound of the smallest eigenvalue, and a node whose bound
    reaches lambda itself passes: the allowance then still separates it
    from the threshold, roundoff in the bound included.  ``eigvalsh``
    runs on the other nodes only, and a failure names the worst of them,
    which is the worst node of the table.
    """
    entries = coeffs.entries
    ndim = entries.shape[0]
    bound = np.min([entries[i, i] - sum(
                        0.5 * np.abs(entries[i, j] + entries[j, i])
                        for j in range(ndim) if j != i)
                    for i in range(ndim)], axis=0)
    # NaN bounds are kept, and fail their eigensolve as before
    suspect = ~(bound >= coeffs.lam)
    if not suspect.any():
        return
    lam_obs, (k,) = observed_ellipticity(entries[:, :, suspect])
    cushion = (ELLIPTICITY_ULPS * np.finfo(float).eps
               * float(np.abs(entries).max()))
    if lam_obs < coeffs.lam - cushion:
        worst = tuple(int(i) for i in np.argwhere(suspect)[k])
        raise EllipticityError(
            f"coefficient field '{coeffs.name}': smallest symmetric "
            f"eigenvalue {lam_obs:.6g} at node {worst} is below the "
            f"declared constant {coeffs.lam:.6g}")


def _constant_table(grid: Grid, matrix: np.ndarray) -> np.ndarray:
    ndim = grid.ndim
    table = np.empty((ndim, ndim) + grid.node_shape)
    for i in range(ndim):
        for j in range(ndim):
            table[i, j] = matrix[i, j]
    return table


def _identity_field(grid: Grid) -> CoefficientField:
    table = _constant_table(grid, np.eye(grid.ndim))
    return CoefficientField(grid, table, lam=1.0, name="identity")


def constant_ellipticity(matrix) -> float:
    """Smallest eigenvalue of the symmetric part of a constant table.

    It is the table's best ellipticity constant, and it must be positive.
    """
    mat = np.asarray(matrix, dtype=float)
    lam = float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
    if lam <= 0:
        raise ConfigError("constant table is not positive definite")
    return lam


def _constant_field(grid: Grid, matrix, lam: float | None = None
                    ) -> CoefficientField:
    mat = np.asarray(matrix, dtype=float)
    if mat.shape != (grid.ndim, grid.ndim):
        raise ConfigError(
            f"constant table must be {grid.ndim} x {grid.ndim}, "
            f"got {mat.shape}")
    if lam is None:
        lam = constant_ellipticity(mat)
    return CoefficientField(grid, _constant_table(grid, mat), lam=lam,
                            name="constant")


def _variable_field(grid: Grid) -> CoefficientField:
    """Smooth fully populated table, a polynomial of degree 2 per axis.

    Diagonal: a_ii = 1 + x_s^2 / 2 with s the next axis cyclically, so every
    diagonal entry genuinely varies.  Off-diagonal: a_ij = g * x_i * x_j with
    g sized by a Gershgorin budget, giving a certified constant 3/4 on any
    box.
    """
    ndim = grid.ndim
    mesh = grid.meshgrid()
    coord_bound = max(max(abs(lo), abs(hi))
                      for lo, hi in zip(grid.lo, grid.hi))
    g = 0.25 / ((ndim - 1) * coord_bound ** 2)
    table = np.empty((ndim, ndim) + grid.node_shape)
    for i in range(ndim):
        table[i, i] = 1.0 + 0.5 * mesh[(i + 1) % ndim] ** 2
        for j in range(ndim):
            if j != i:
                table[i, j] = g * mesh[i] * mesh[j]
    return CoefficientField(grid, table, lam=0.75, name="variable")


def coefficient_family(name: str, grid: Grid, **params) -> CoefficientField:
    """Named coefficient tables: ``identity``, ``constant``, ``variable``.

    ``constant`` takes ``matrix`` (row-major nested sequence) and an optional
    declared ``lam`` override; the others take no parameters.  Arbitrary
    tables can always be built through CoefficientField directly.
    """
    if name == "identity":
        if params:
            raise ConfigError("identity family takes no parameters")
        return _identity_field(grid)
    if name == "constant":
        matrix = params.pop("matrix", None)
        lam = params.pop("lam", None)
        if matrix is None:
            raise ConfigError("constant family needs a matrix")
        if params:
            raise ConfigError(f"unknown parameters {sorted(params)}")
        return _constant_field(grid, matrix, lam)
    if name == "variable":
        if params:
            raise ConfigError("variable family takes no parameters")
        return _variable_field(grid)
    raise ConfigError(f"unknown coefficient family '{name}'")
