"""Quadrature norms, the retained-axes Sobolev seminorms, and the
interior-family metric.

All norms are plain node sums weighted by the cell volume,
``sqrt(sum u_i^2 * prod h)``, over a mask (default: every interior node).
Every derivative seminorm is one ``block_seminorm(u, rows, cols, mask)``:
the first differences along ``rows`` (``cols=None``) or the second
differences over the ordered pairs ``rows x cols``; the named gradient
and Hessian seminorms pick the X1, X2 or mixed block.  The hierarchy is

    l2  <=  v12 = (l2^2 + |grad_x2|^2)^(1/2)
        <=  v22(w) = (v12^2 + |hess_x2|^2_w)^(1/2)

where only the Hessian block is mask-local; the lower-order terms are
always taken over the whole interior.  ``norm_bundle`` differences a
field once and evaluates v22 on each distinct mask of a nested family
once.  The metric sums 2^(-n) t_n / (1 + t_n) with t_n the v22 norm of
the difference on mask n, read from the bundle of the difference; with
the default truncation depth of 20 the dropped tail is below 2^(-19), and
convergence in the metric is equivalent to convergence of the v22 norm on
every mask of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShiftError
from .fd_ops import grad_axis, hess_component
from .grid import (NestedFamily, ScalarField, SubdomainMask,
                   grid_interior_slices, shift_field)

__all__ = [
    "l2_norm",
    "inner_product",
    "block_seminorm",
    "grad_x1_seminorm",
    "grad_x2_seminorm",
    "hess_x1_seminorm",
    "hess_x2_seminorm",
    "hess_x1x2_seminorm",
    "v12_norm",
    "v22_norm",
    "NormBundle",
    "norm_bundle",
    "frechet_distance",
    "translation_modulus",
]


def _masked(u: ScalarField, mask: SubdomainMask | None) -> np.ndarray:
    if mask is None:
        return u.values[grid_interior_slices(u.grid)]
    return mask.extract(u)


def l2_norm(u: ScalarField, mask: SubdomainMask | None = None) -> float:
    vals = _masked(u, mask)
    return float(np.sqrt(np.sum(vals ** 2) * u.grid.cell_volume))


def inner_product(u: ScalarField, v: ScalarField,
                  mask: SubdomainMask | None = None) -> float:
    if v.grid != u.grid:
        raise ConfigError("fields live on different grids")
    return float(np.sum(_masked(u, mask) * _masked(v, mask))
                 * u.grid.cell_volume)


def _components(u: ScalarField, rows: Sequence[int],
                cols: Sequence[int] | None) -> list[ScalarField]:
    if cols is None:
        return [grad_axis(u, a) for a in rows]
    return [hess_component(u, i, j) for i in rows for j in cols]


def _sq_sum(comps: Sequence[ScalarField],
            mask: SubdomainMask | None) -> float:
    return sum(l2_norm(g, mask) ** 2 for g in comps)


def block_seminorm(u: ScalarField, rows: Sequence[int],
                   cols: Sequence[int] | None,
                   mask: SubdomainMask | None = None) -> float:
    """Quadrature norm of one block of derivative components of ``u``.

    With ``cols=None`` the components are the first differences along
    ``rows``; otherwise the second differences over every ordered pair
    in ``rows x cols``.  A square block (``rows == cols``) thus counts
    both orders of each off-diagonal pair, a mixed block each pair once.
    """
    return float(np.sqrt(_sq_sum(_components(u, rows, cols), mask)))


def grad_x1_seminorm(u: ScalarField,
                     mask: SubdomainMask | None = None) -> float:
    """sqrt(sum over scaled axes of |d_i u|^2)."""
    return block_seminorm(u, u.grid.x1_axes, None, mask)


def grad_x2_seminorm(u: ScalarField,
                     mask: SubdomainMask | None = None) -> float:
    """sqrt(sum over retained axes of |d_i u|^2)."""
    return block_seminorm(u, u.grid.x2_axes, None, mask)


def hess_x2_seminorm(u: ScalarField,
                     mask: SubdomainMask | None = None) -> float:
    """Full retained-axes Hessian block, ordered pairs both counted."""
    return block_seminorm(u, u.grid.x2_axes, u.grid.x2_axes, mask)


def hess_x1_seminorm(u: ScalarField,
                     mask: SubdomainMask | None = None) -> float:
    """Full scaled-axes Hessian block, ordered pairs both counted."""
    return block_seminorm(u, u.grid.x1_axes, u.grid.x1_axes, mask)


def hess_x1x2_seminorm(u: ScalarField,
                       mask: SubdomainMask | None = None) -> float:
    """Mixed block, each scaled/retained pair counted once."""
    return block_seminorm(u, u.grid.x1_axes, u.grid.x2_axes, mask)


def v12_norm(u: ScalarField) -> float:
    """(l2^2 + retained-gradient^2)^(1/2) over the whole interior."""
    return float(np.sqrt(l2_norm(u) ** 2 + grad_x2_seminorm(u) ** 2))


def v22_norm(u: ScalarField, mask: SubdomainMask) -> float:
    """v12 plus the retained-axes Hessian block measured on the mask."""
    return float(np.sqrt(v12_norm(u) ** 2 + hess_x2_seminorm(u, mask) ** 2))


@dataclass
class NormBundle:
    """l2, v12 and the v22 value on every distinct mask of a family."""

    l2: float
    v12: float
    v22_by_margin: dict[tuple[int, ...], float]


def norm_bundle(u: ScalarField, family: NestedFamily) -> NormBundle:
    """l2, v12 and the per-mask v22 values, each mask summed once.

    The retained Hessian components are differenced once; a family that
    repeats its largest mask adds no further quadrature.
    """
    base_v12 = v12_norm(u)
    axes = u.grid.x2_axes
    comps = _components(u, axes, axes)
    v22: dict[tuple[int, ...], float] = {}
    for mask in family:
        if mask.margins not in v22:
            v22[mask.margins] = float(np.sqrt(
                base_v12 ** 2 + _sq_sum(comps, mask)))
    return NormBundle(l2=l2_norm(u), v12=base_v12, v22_by_margin=v22)


def frechet_distance(u: ScalarField, v: ScalarField, family: NestedFamily,
                     n_max: int | None = None) -> float:
    """Truncated series  sum_n 2^(-n) t_n / (1 + t_n)  over the family.

    ``t_n`` is the v22 norm of ``u - v`` on mask n, read from the norm
    bundle of the difference.  When the family is shorter than the
    truncation depth its largest mask repeats, matching the constant
    tail of the standard exhaustion.  The dropped tail is bounded by
    2^(-n_max + 1).
    """
    if v.grid != u.grid:
        raise ConfigError("fields live on different grids")
    if n_max is None:
        n_max = max(len(family), 20)
    if n_max < 1:
        raise ConfigError(f"truncation depth must be >= 1, got {n_max}")
    v22 = norm_bundle(u - v, family).v22_by_margin
    t = [v22[family[min(n, len(family) - 1)].margins] for n in range(n_max)]
    return sum(2.0 ** (-n) * t_n / (1.0 + t_n) for n, t_n in enumerate(t))


def translation_modulus(fields: Sequence[ScalarField], mask: SubdomainMask,
                        shifts: Sequence[Sequence[int]]
                        ) -> dict[tuple[int, ...], float]:
    """Worst translation defect over a field family.

    sigma(h) = max over the family of the masked l2 norm of tau_h v - v,
    with tau_h the whole-cell translation.  Shifts must keep every masked
    read at interior nodes (|h_a| strictly below the mask margin), the
    discrete form of the distance-to-boundary admissibility condition;
    anything else raises ShiftError.
    """
    if not fields:
        raise ConfigError("empty field family")
    grid = fields[0].grid
    for v in fields:
        if v.grid != grid:
            raise ConfigError("family fields live on different grids")
    if mask.grid != grid:
        raise ConfigError("mask lives on a different grid")
    out: dict[tuple[int, ...], float] = {}
    for shift in shifts:
        h = tuple(int(c) for c in shift)
        for a in range(grid.ndim):
            if abs(h[a]) > mask.margins[a] - 1:
                raise ShiftError(
                    f"shift {h} reaches within one cell of the boundary "
                    f"for margin {mask.margins}")
        worst = 0.0
        for v in fields:
            shifted = shift_field(v, h, mask=mask)
            defect = float(np.sqrt(
                np.sum((mask.extract(shifted) - mask.extract(v)) ** 2)
                * grid.cell_volume))
            worst = max(worst, defect)
        out[h] = worst
    return out
