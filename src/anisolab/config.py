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


# [section] key of a config file: the field it sets, and its parser; a
# dotted field is one key of a parameter dict
FILE_KEYS = {
    ("grid", "lo"): ("lo", _floats),
    ("grid", "hi"): ("hi", _floats),
    ("grid", "cells"): ("cells", _ints),
    ("grid", "q"): ("q", _int),
    ("coefficients", "family"): ("coefficient_family", str.strip),
    ("coefficients", "matrix"): ("coefficient_params.matrix", _matrix),
    ("coefficients", "lam"): ("coefficient_params.lam", _float),
    ("forcing", "family"): ("forcing_family", str.strip),
    ("forcing", "value"): ("forcing_params.value", _float),
    ("forcing", "modes"): ("forcing_params.modes", _ints),
    ("sweep", "epsilons"): ("epsilons", _floats),
    ("sweep", "margin"): ("margin", _int),
    ("sweep", "nested"): ("nested", _int),
    ("sweep", "workers"): ("workers", _int),
    ("solver", "tol"): ("solver_tol", _float),
    ("nonlinearity", "family"): ("nonlinearity", str.strip),
    ("nonlinearity", "kappa"): ("nonlinearity_params.kappa", _float),
    ("fourier", "lattice"): ("fourier_lattice", _int),
    ("fourier", "samples"): ("fourier_samples", _int),
    ("fourier", "epsilons"): ("fourier_epsilons", _floats),
    ("translation", "levels"): ("translation_levels", _int),
    ("output", "dir"): ("out_dir", str.strip),
    ("output", "format"): ("out_format", str.strip),
    ("random", "seed"): ("seed", _int),
}

# removed settings: the field an old report's config carries, and the
# [section] key of a file, with why it steers nothing.  Either loads
# with a warning and is dropped
REMOVED = {
    "damping": ("nonlinearity", "damping",
                "the semilinear solves run Newton with a line search"),
    "solver_method": ("solver", "method",
                      "a symmetric matrix is solved by CG, any other by "
                      "its LU"),
    "maxiter_factor": ("solver", "maxiter_factor",
                       "CG's iteration cap is fixed"),
    "picard_max_iter": ("nonlinearity", "max_iter",
                        "Newton's step cap is fixed"),
}


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
    solver_tol: float = 1e-10
    # optional nonlinearity
    nonlinearity: str | None = None
    nonlinearity_params: dict = field(default_factory=dict)
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
        # reports older than a setting's removal embed it
        for name, (_, _, why) in REMOVED.items():
            if name in data:
                log.warning("config key %s is deprecated and ignored; %s",
                            name, why)
        data = {k: v for k, v in data.items() if k not in REMOVED}
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
        extra = set(parser.sections()) - {s for s, _ in FILE_KEYS}
        if extra:
            raise ConfigError(f"unknown config sections {sorted(extra)}")
        removed = {(s, k): why for s, k, why in REMOVED.values()}
        for section in parser.sections():
            for key in parser.options(section):
                if (section, key) in removed:
                    log.warning("%s: [%s] %s is deprecated and ignored; %s",
                                path, section, key, removed[section, key])
                elif (section, key) not in FILE_KEYS:
                    raise ConfigError(
                        f"{path}: unknown config key [{section}] {key}")
        data: dict = {}
        for (section, key), (name, conv) in FILE_KEYS.items():
            if not parser.has_option(section, key):
                continue
            try:
                value = conv(parser.get(section, key))
            except ValueError as err:
                raise ConfigError(f"[{section}] {key}: {err}") from err
            # a dotted name is a key of a parameter dict
            name, _, param = name.partition(".")
            if param:
                data.setdefault(name, {})[param] = value
            else:
                data[name] = value
        if data.get("workers", 1) > 1:
            log.warning("%s: [sweep] workers = %d is ignored; the sweep "
                        "runs its rows one after another", path,
                        data["workers"])
        return cls.from_dict(data)


def load_config(path) -> StudyConfig:
    return StudyConfig.from_file(path)
