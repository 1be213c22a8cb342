"""Study configuration: a flat sectioned key-value file and its dataclass.

The on-disk format is INI-style, parsed with the standard library:
``[section]`` headers, one ``key = value`` per line, ``#`` comments.
Numeric lists are comma-separated; matrices use ``;`` between rows.  The
same data round-trips through a plain dict (``to_dict`` / ``from_dict``)
so reports can embed the exact configuration as JSON.
"""

from __future__ import annotations

import configparser
import logging
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .coefficients import CoefficientField, coefficient_family
from .errors import ConfigError
from .forcing import forcing_field
from .grid import (Grid, NestedFamily, ScalarField, SubdomainMask,
                   interior_subdomain, make_grid, nested_family)
from .semilinear import Nonlinearity, nonlinearity_family
from .solver import check_method

__all__ = ["StudyConfig", "load_config"]

log = logging.getLogger(__name__)


def _floats(text: str) -> list[float]:
    items = [t for t in text.replace(",", " ").split() if t]
    return [float(t) for t in items]


def _ints(text: str) -> list[int]:
    out = []
    for x in _floats(text):
        if not math.isfinite(x) or x != int(x):
            raise ConfigError(f"expected integer, got {x}")
        out.append(int(x))
    return out


def _float(text: str) -> float:
    values = _floats(text)
    if not values:
        raise ConfigError("expected a number, got nothing")
    return values[0]


def _int(text: str) -> int:
    values = _ints(text)
    if not values:
        raise ConfigError("expected an integer, got nothing")
    return values[0]


def _matrix(text: str) -> list[list[float]]:
    return [_floats(row) for row in text.split(";") if row.strip()]


@dataclass
class StudyConfig:
    """Everything a study run needs, JSON-representable throughout."""

    # grid
    lo: list[float] = field(default_factory=lambda: [0.0, 0.0])
    hi: list[float] = field(default_factory=lambda: [1.0, 1.0])
    cells: list[int] = field(default_factory=lambda: [64, 64])
    q: int = 1
    # coefficients
    coefficient_family: str = "identity"
    coefficient_params: dict = field(default_factory=dict)
    # forcing
    forcing_family: str = "constant"
    forcing_params: dict = field(default_factory=dict)
    # sweep
    epsilons: list[float] = field(
        default_factory=lambda: [1.0, 0.5, 0.25, 0.125])
    margin: int | None = None
    nested: int = 20
    # still parsed and validated, so configs that set it load, but the
    # sweep runs its rows one after another and ignores it
    workers: int = 1
    # solver
    solver_method: str = "auto"
    solver_tol: float = 1e-10
    maxiter_factor: float = 20.0
    # optional nonlinearity
    nonlinearity: str | None = None
    nonlinearity_params: dict = field(default_factory=dict)
    picard_max_iter: int = 200
    # fourier-check settings
    fourier_lattice: int = 64
    fourier_samples: int = 20
    fourier_epsilons: list[float] = field(
        default_factory=lambda: [1.0, 0.5, 0.1, 0.01, 0.001])
    # translation diagnostic
    translation_levels: int = 3
    # output
    out_dir: str = "out"
    out_format: str = "csv"
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.cells):
            raise ConfigError("lo, hi, cells must have equal length")
        eps = list(self.epsilons)
        if not eps:
            raise ConfigError("epsilon list is empty")
        for e in eps:
            if not 0.0 < e <= 1.0:
                raise ConfigError(f"epsilon {e} outside (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError(
                f"epsilon list must be strictly decreasing, got {eps}")
        if not self.fourier_epsilons:
            raise ConfigError("fourier epsilon list is empty")
        for e in self.fourier_epsilons:
            if not 0.0 < e <= 1.0:
                raise ConfigError(f"fourier epsilon {e} outside (0, 1]")
        if self.margin is not None and self.margin < 1:
            raise ConfigError(f"margin must be >= 1, got {self.margin}")
        if self.nested < 1:
            raise ConfigError(f"nested depth must be >= 1, got {self.nested}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 < self.solver_tol < 1.0:
            raise ConfigError(
                f"solver tol must lie in (0, 1), got {self.solver_tol}")
        if not (math.isfinite(self.maxiter_factor)
                and self.maxiter_factor > 0.0):
            raise ConfigError(f"maxiter factor must be finite and > 0, "
                              f"got {self.maxiter_factor}")
        if self.picard_max_iter < 1:
            raise ConfigError(f"picard max iter must be >= 1, "
                              f"got {self.picard_max_iter}")
        check_method(self.solver_method)
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, "
                              f"got '{self.out_format}'")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.fourier_lattice < 2 or self.fourier_samples < 1:
            raise ConfigError("fourier lattice/samples out of range")
        if self.translation_levels < 1:
            raise ConfigError("translation levels must be >= 1")

    # construction of the working objects -------------------------------

    def build_grid(self) -> Grid:
        return make_grid(list(zip(self.lo, self.hi)), self.cells, self.q)

    def build_coefficients(self, grid: Grid) -> CoefficientField:
        return coefficient_family(self.coefficient_family, grid,
                                  **self.coefficient_params)

    def build_forcing(self, grid: Grid) -> ScalarField:
        return forcing_field(self.forcing_family, grid,
                             **self.forcing_params)

    def build_nonlinearity(self) -> Nonlinearity | None:
        if self.nonlinearity is None:
            return None
        return nonlinearity_family(self.nonlinearity,
                                   **self.nonlinearity_params)

    def effective_margin(self, grid: Grid) -> int:
        if self.margin is not None:
            return self.margin
        return max(1, min(grid.cells) // 8)

    def build_mask(self, grid: Grid) -> SubdomainMask:
        return interior_subdomain(grid, self.effective_margin(grid))

    def build_family(self, grid: Grid) -> NestedFamily:
        return nested_family(grid, self.nested)

    # serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        if "damping" in data:  # reports older than its removal embed it
            log.warning("config key damping is deprecated and ignored")
            data = {k: v for k, v in data.items() if k != "damping"}
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "StudyConfig":
        parser = configparser.ConfigParser(
            inline_comment_prefixes=("#",), interpolation=None)
        text = Path(path).read_text()
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as err:
            raise ConfigError(f"cannot parse {path}: {err}") from err
        data: dict = {}

        def read(section, key, conv):
            try:
                return conv(parser.get(section, key))
            except ValueError as err:
                raise ConfigError(f"[{section}] {key}: {err}") from err

        def take(section, key, conv, dest=None):
            if parser.has_option(section, key):
                data[dest or key] = read(section, key, conv)

        take("grid", "lo", _floats)
        take("grid", "hi", _floats)
        take("grid", "cells", _ints)
        take("grid", "q", _int)

        if parser.has_section("coefficients"):
            take("coefficients", "family", str.strip,
                 "coefficient_family")
            params: dict = {}
            if parser.has_option("coefficients", "matrix"):
                params["matrix"] = read("coefficients", "matrix", _matrix)
            if parser.has_option("coefficients", "lam"):
                params["lam"] = read("coefficients", "lam", _float)
            if params:
                data["coefficient_params"] = params

        if parser.has_section("forcing"):
            take("forcing", "family", str.strip, "forcing_family")
            params = {}
            if parser.has_option("forcing", "value"):
                params["value"] = read("forcing", "value", _float)
            if parser.has_option("forcing", "modes"):
                params["modes"] = read("forcing", "modes", _ints)
            if params:
                data["forcing_params"] = params

        take("sweep", "epsilons", _floats)
        take("sweep", "margin", _int)
        take("sweep", "nested", _int)
        take("sweep", "workers", _int)
        if data.get("workers", 1) > 1:
            log.warning("%s: [sweep] workers = %d is ignored; the sweep "
                        "runs its rows one after another", path,
                        data["workers"])

        take("solver", "method", str.strip, "solver_method")
        take("solver", "tol", _float, "solver_tol")
        take("solver", "maxiter_factor", _float)

        if parser.has_section("nonlinearity"):
            take("nonlinearity", "family", str.strip, "nonlinearity")
            params = {}
            if parser.has_option("nonlinearity", "kappa"):
                params["kappa"] = read("nonlinearity", "kappa", _float)
            if params:
                data["nonlinearity_params"] = params
            if parser.has_option("nonlinearity", "damping"):
                log.warning("%s: [nonlinearity] damping is deprecated and "
                            "ignored; the semilinear solves run Newton "
                            "with a line search", path)
            take("nonlinearity", "max_iter", _int, "picard_max_iter")

        take("fourier", "lattice", _int, "fourier_lattice")
        take("fourier", "samples", _int, "fourier_samples")
        take("fourier", "epsilons", _floats, "fourier_epsilons")

        take("translation", "levels", _int, "translation_levels")

        take("output", "dir", str.strip, "out_dir")
        take("output", "format", str.strip, "out_format")
        take("random", "seed", _int, "seed")

        known_sections = {"grid", "coefficients", "forcing", "sweep",
                          "solver", "nonlinearity", "fourier",
                          "translation", "output", "random"}
        extra = set(parser.sections()) - known_sections
        if extra:
            raise ConfigError(f"unknown config sections {sorted(extra)}")
        return cls.from_dict(data)


def load_config(path) -> StudyConfig:
    return StudyConfig.from_file(path)
