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
always taken over the whole interior.  ``block_seminorm`` sums the
squared l2 norms of a block's components, one quadrature per component.
``norm_bundle`` differences a field once: it takes l2 and the retained
gradient once, squares the retained Hessian components in place and sums
them node by node into one array, and reads the Hessian and v22 values
of every distinct mask off that array, each node once for a nested
family: the innermost mask is summed directly and every larger one is
the sum before it plus the sums of its frame's slabs.  The metric sums
2^(-n) t_n / (1 + t_n) with t_n the v22 norm of the difference on mask n,
read by ``NormBundle.metric`` from the bundle of the difference; with
the default truncation depth of 20 the dropped tail is below 2^(-19), and
convergence in the metric is equivalent to convergence of the v22 norm
on every mask of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ShiftError
from .fd_ops import grad_axis, hess_component
from .grid import (NestedFamily, ScalarField, SubdomainMask,
                   grid_interior_slices)

__all__ = [
    "l2_norm",
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


def _components(u: ScalarField, rows: Sequence[int],
                cols: Sequence[int] | None) -> Iterator[ScalarField]:
    """The block's components, differenced one at a time as consumed."""
    if cols is None:
        return (grad_axis(u, a) for a in rows)
    return (hess_component(u, i, j) for i in rows for j in cols)


def _summed_squares(comps: Iterable[ScalarField]) -> ScalarField:
    """Node-wise sum of the squared components.

    Each component is squared in its own array and added into the first,
    so a block of any size holds at most two full-field arrays at once.
    """
    acc = None
    for c in comps:
        sq = np.square(c.values, out=c.values)
        if acc is None:
            acc = c
        else:
            acc.values += sq
    return acc


def _quadrature(w: ScalarField, mask: SubdomainMask | None) -> float:
    """Cell-volume weighted node sum of ``w`` over the mask."""
    return float(np.sum(_masked(w, mask))) * w.grid.cell_volume


def block_seminorm(u: ScalarField, rows: Sequence[int],
                   cols: Sequence[int] | None,
                   mask: SubdomainMask | None = None) -> float:
    """Quadrature norm of one block of derivative components of ``u``.

    With ``cols=None`` the components are the first differences along
    ``rows``; otherwise the second differences over every ordered pair
    in ``rows x cols``.  A square block (``rows == cols``) thus counts
    both orders of each off-diagonal pair, a mixed block each pair once.
    """
    return float(np.sqrt(sum(l2_norm(g, mask) ** 2
                             for g in _components(u, rows, cols))))


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
    """l2 and v12, plus the retained Hessian seminorm and the v22 value
    on every distinct mask the bundle was taken over (keyed by margins).
    """

    l2: float
    v12: float
    v22_by_margin: dict[tuple[int, ...], float]
    hess_x2_by_margin: dict[tuple[int, ...], float]

    def metric(self, family: NestedFamily, n_max: int | None = None
               ) -> float:
        """Truncated series  sum_n 2^(-n) t_n / (1 + t_n)  over the family.

        ``t_n`` is this bundle's v22 value on mask n, so the family's
        masks must be among those the bundle was taken over.  When the
        family is shorter than the truncation depth (default
        ``max(len(family), 20)``) its largest mask repeats, matching the
        constant tail of the standard exhaustion.  The dropped tail is
        bounded by 2^(-n_max + 1).
        """
        if n_max is None:
            n_max = max(len(family), 20)
        if n_max < 1:
            raise ConfigError(f"truncation depth must be >= 1, got {n_max}")
        t = [self.v22_by_margin[family[min(n, len(family) - 1)].margins]
             for n in range(n_max)]
        return sum(2.0 ** (-n) * t_n / (1.0 + t_n) for n, t_n in enumerate(t))


def _box_sum(w: np.ndarray, box: tuple[slice, ...]) -> float:
    """Node sum of ``w`` over one box of slices: every mask and every
    frame slab ``norm_bundle`` sums."""
    return float(w[box].sum())


def _frame(inner: tuple[slice, ...], outer: tuple[slice, ...]
           ) -> Iterator[tuple[slice, ...]]:
    """The nonempty slabs that tile box ``outer`` minus box ``inner``,
    which it contains: per axis d the two sides of ``inner`` along d,
    spanning ``inner`` on the axes before d and ``outer`` on those
    after."""
    for d, (i, o) in enumerate(zip(inner, outer)):
        for side in (slice(o.start, i.start), slice(i.stop, o.stop)):
            if side.start < side.stop:
                yield inner[:d] + (side,) + outer[d + 1:]


def norm_bundle(u: ScalarField, family: Iterable[SubdomainMask]
                ) -> NormBundle:
    """l2, v12 and the per-mask retained Hessian and v22 values of ``u``.

    ``family`` is any sequence of masks on the grid of ``u``, a
    ``NestedFamily`` or a family plus further masks.  l2 and the retained
    gradient are taken once over the whole interior.  The retained
    Hessian components are differenced once and their squares summed
    into one array.  Each distinct mask's sum of it is the previous
    distinct mask's sum plus the sums of its frame (``_frame``) when the
    mask contains that one, and its own box's sum otherwise, so a nested
    family reads each node of its largest mask once; a family that
    repeats its largest mask adds no further quadrature.  Every term is
    a square, so a sum grown by frames loses nothing to cancellation,
    where a difference of prefix sums would lose a small interior mask
    to the layer outside it.
    """
    l2 = l2_norm(u)
    axes = u.grid.x2_axes
    volume = u.grid.cell_volume
    v12_sq = l2 ** 2 + _quadrature(
        _summed_squares(_components(u, axes, None)), None)
    hess_sq = _summed_squares(_components(u, axes, axes)).values
    hess: dict[tuple[int, ...], float] = {}
    v22: dict[tuple[int, ...], float] = {}
    # the last distinct mask and its node sum
    last, total = None, 0.0
    for mask in family:
        if mask.margins in v22:
            continue
        if mask.grid != u.grid:
            raise ConfigError("field and mask live on different grids")
        if last is not None and mask.contains(last):
            total += sum(_box_sum(hess_sq, slab)
                         for slab in _frame(last.slices, mask.slices))
        else:
            total = _box_sum(hess_sq, mask.slices)
        last = mask
        h2 = total * volume
        hess[mask.margins] = float(np.sqrt(h2))
        v22[mask.margins] = float(np.sqrt(v12_sq + h2))
    return NormBundle(l2=l2, v12=float(np.sqrt(v12_sq)), v22_by_margin=v22,
                      hess_x2_by_margin=hess)


def frechet_distance(u: ScalarField, v: ScalarField, family: NestedFamily,
                     n_max: int | None = None) -> float:
    """Truncated series  sum_n 2^(-n) t_n / (1 + t_n)  over the family.

    ``t_n`` is the v22 norm of ``u - v`` on mask n: the difference is
    formed once and the series is ``NormBundle.metric`` of its bundle.
    The dropped tail is bounded by 2^(-n_max + 1).
    """
    if v.grid != u.grid:
        raise ConfigError("fields live on different grids")
    return norm_bundle(u - v, family).metric(family, n_max)


def translation_modulus(fields: Sequence[ScalarField], mask: SubdomainMask,
                        shifts: Sequence[Sequence[int]]
                        ) -> dict[tuple[int, ...], float]:
    """Worst translation defect over a field family.

    sigma(h) = max over the family of the masked l2 norm of tau_h v - v,
    with tau_h the whole-cell translation.  Shifts must keep every masked
    read at interior nodes (|h_a| strictly below the mask margin), the
    discrete form of the distance-to-boundary admissibility condition;
    anything else raises ShiftError.  The translate is read as the mask
    box moved by h, a view of each field, so no shifted copy of a field
    is built; every defect is formed in one reused mask-sized buffer.
    """
    if not fields:
        raise ConfigError("empty field family")
    grid = fields[0].grid
    for v in fields:
        if v.grid != grid:
            raise ConfigError("family fields live on different grids")
    if mask.grid != grid:
        raise ConfigError("mask lives on a different grid")
    d = np.empty(mask.shape)
    out: dict[tuple[int, ...], float] = {}
    for shift in shifts:
        h = tuple(int(c) for c in shift)
        if len(h) != grid.ndim:
            raise ConfigError("shift dimension does not match grid")
        for a in range(grid.ndim):
            if abs(h[a]) > mask.margins[a] - 1:
                raise ShiftError(
                    f"shift {h} reaches within one cell of the boundary "
                    f"for margin {mask.margins}")
        moved = tuple(slice(s.start + o, s.stop + o)
                      for s, o in zip(mask.slices, h))
        worst = 0.0
        for v in fields:
            np.subtract(v.values[moved], mask.extract(v), out=d)
            defect = float(np.sqrt(
                np.sum(np.square(d, out=d)) * grid.cell_volume))
            worst = max(worst, defect)
        out[h] = worst
    return out
