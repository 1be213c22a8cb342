"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid grid, mask, or study configuration."""


class EllipticityError(ValueError):
    """A coefficient field fails its declared ellipticity bound."""


class ShiftError(ValueError):
    """A whole-cell translation escapes the grid for the requested mask."""


class SolverError(RuntimeError):
    """A linear or Newton solve did not reach its tolerance.

    Carries the last residual so callers can report how far the solve got.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
