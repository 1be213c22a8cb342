"""Numerical laboratory for strongly anisotropic elliptic Dirichlet problems.

The operator  -div(A_eps grad u) = f  carries an epsilon-scaled coefficient
block on the leading q axes; as epsilon shrinks, solutions approach the
field of independent lower-dimensional Dirichlet problems posed slice by
slice in the retained directions.  This package provides the grids,
difference operators, solvers, norms and verification tools to measure
that approach quantitatively, plus a CLI for scripted studies.
"""

from .config import StudyConfig, load_config
from .coefficients import (CoefficientField, coefficient_family,
                           observed_ellipticity, scale_coefficients,
                           scaling_factors, verify_ellipticity)
from .errors import ConfigError, EllipticityError, ShiftError, SolverError
from .fd_ops import (OperatorBlocks, SparseOperator, assemble_operator,
                     operator_blocks)
from .fieldio import load_field, save_field
from .forcing import forcing_field
from .grid import (Grid, NestedFamily, ScalarField, SubdomainMask,
                   interior_subdomain, make_grid, nested_family, shift_field)
from .limit import semilinear_limit, solve_limit
from .norms import (NormBundle, frechet_distance, l2_norm, norm_bundle,
                    translation_modulus, v12_norm, v22_norm)
from .semilinear import (Nonlinearity, PicardResult, nonlinearity_family,
                         picard_solve)
from .solver import solve_dirichlet
from .spectral import (BoundReport, BoundViolation, SpectralField,
                       check_constant_bounds, check_laplacian_bounds,
                       random_zero_mean_forcing, restrict_to_zero_x1,
                       torus_solve)
from .study import (SweepReport, SweepRow, emit_report, estimate_rate,
                    run_sweep)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundViolation",
    "CoefficientField",
    "ConfigError",
    "EllipticityError",
    "Grid",
    "NestedFamily",
    "Nonlinearity",
    "NormBundle",
    "OperatorBlocks",
    "PicardResult",
    "ScalarField",
    "ShiftError",
    "SolverError",
    "SparseOperator",
    "SpectralField",
    "StudyConfig",
    "SubdomainMask",
    "SweepReport",
    "SweepRow",
    "assemble_operator",
    "check_constant_bounds",
    "check_laplacian_bounds",
    "coefficient_family",
    "emit_report",
    "estimate_rate",
    "forcing_field",
    "frechet_distance",
    "interior_subdomain",
    "l2_norm",
    "load_config",
    "load_field",
    "make_grid",
    "nested_family",
    "nonlinearity_family",
    "norm_bundle",
    "observed_ellipticity",
    "operator_blocks",
    "picard_solve",
    "random_zero_mean_forcing",
    "restrict_to_zero_x1",
    "run_sweep",
    "save_field",
    "scale_coefficients",
    "scaling_factors",
    "semilinear_limit",
    "shift_field",
    "solve_dirichlet",
    "solve_limit",
    "torus_solve",
    "translation_modulus",
    "v12_norm",
    "v22_norm",
    "verify_ellipticity",
]
