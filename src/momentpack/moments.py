"""Truncated moment systems over layout corner coordinates.

A layout that tiles the box makes every residual

    r(s1, s2) = sum_n ((x_hi_n)^s1 - (x_lo_n)^s1) * ((y_hi_n)^s2 - (y_lo_n)^s2)
                / (A^s1 * B^s2)  -  1

vanish for all exponent pairs 1 <= s1, s2 <= max_order.  This module builds
that polynomial system, evaluates residuals and the analytic Jacobian, and
maps between layouts and flat variable vectors.  All evaluation happens in
normalized coordinates (divided by scale = max(A, B)) so high-order moments
stay well conditioned; each equation is additionally divided by the box's own
moment A^s1 * B^s2, making every row O(1).

Two variable conventions:

* fixed_orientation: two variables per rectangle, (x_lo, y_lo); the upper
  corners are reconstructed from the given sides (x_hi = x_lo + w).
* rotatable: four variables per rectangle, (x_lo, y_lo, x_hi, y_hi), plus two
  constraint rows per rectangle,

      c1 = (dx + dy - w - h) / scale
      c2 = (dx*dy - w*h) / scale^2

  whose joint zero forces {dx, dy} = {w, h}, i.e. the placed sides match the
  given ones up to a 90-degree rotation.

Powers are computed by iterative multiplication (never a transcendental pow)
so results are reproducible bit for bit.

Evaluation is batched over K points.  power_table builds one (K,
max_order + 1, 4n) table of corner powers; batch_residual and
batch_jacobian both read it, so a Jacobian at a point whose residual is
known reuses that table.  Every row of a batched result is bit for bit what
the point gives alone; residual and jacobian are the one-point views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import Instance, Layout, Placement

FIXED = "fixed_orientation"
ROTATABLE = "rotatable"
_MODES = (FIXED, ROTATABLE)

__all__ = [
    "FIXED",
    "ROTATABLE",
    "MomentSystem",
    "default_max_order",
    "build_system",
    "residual",
    "jacobian",
    "power_table",
    "batch_residual",
    "batch_jacobian",
    "layout_to_vars",
    "vars_to_layout",
]


def default_max_order(n_rects: int, mode: str) -> int:
    """Truncation default: max(3, ceil(sqrt(var_count)) + 1), which keeps the
    equation count (max_order^2) at or above the unknown count."""
    var_count = (2 if mode == FIXED else 4) * n_rects
    return max(3, math.isqrt(max(var_count - 1, 0)) + 2) if var_count else 3


@dataclass(frozen=True, eq=False)
class MomentSystem:
    """Immutable bundle of one instance's truncated moment equations."""

    instance: Instance
    max_order: int
    mode: str
    scale: float
    var_count: int
    constraint_count: int
    widths: np.ndarray  # normalized given sides
    heights: np.ndarray
    box_w: float  # normalized box sides
    box_h: float
    denom: np.ndarray  # (max_order, max_order) box moments A^s1 * B^s2

    @property
    def n_rects(self) -> int:
        return len(self.instance.rects)

    @property
    def equation_count(self) -> int:
        return self.max_order**2 + self.constraint_count


def build_system(
    inst: Instance, max_order: int | None = None, mode: str = FIXED
) -> MomentSystem:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    if mode == ROTATABLE and not inst.rotation_allowed:
        raise ValueError("rotatable mode requires an instance with rotation allowed")
    n = inst.n_rects
    if max_order is None:
        max_order = default_max_order(n, mode)
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    scale = float(max(inst.box.width, inst.box.height))
    widths = np.array([float(r.width) for r in inst.rects]) / scale
    heights = np.array([float(r.height) for r in inst.rects]) / scale
    box_w = float(inst.box.width) / scale
    box_h = float(inst.box.height) / scale
    pow_a = _scalar_powers(box_w, max_order)
    pow_b = _scalar_powers(box_h, max_order)
    denom = np.outer(pow_a[1:], pow_b[1:])
    var_count = (2 if mode == FIXED else 4) * n
    constraint_count = 0 if mode == FIXED else 2 * n
    return MomentSystem(
        instance=inst,
        max_order=max_order,
        mode=mode,
        scale=scale,
        var_count=var_count,
        constraint_count=constraint_count,
        widths=widths,
        heights=heights,
        box_w=box_w,
        box_h=box_h,
        denom=denom,
    )


def _scalar_powers(value: float, max_order: int) -> np.ndarray:
    out = np.empty(max_order + 1)
    out[0] = 1.0
    for s in range(1, max_order + 1):
        out[s] = out[s - 1] * value
    return out


def _check_vars(sys: MomentSystem, vars: np.ndarray) -> np.ndarray:
    arr = np.asarray(vars, dtype=float)
    if arr.shape != (sys.var_count,):
        raise ValueError(
            f"expected {sys.var_count} variables for mode {sys.mode}, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("variable vector contains non-finite entries")
    return arr


def _corners(sys: MomentSystem, vars: np.ndarray) -> np.ndarray:
    """(K, 4n) corners of each row of a (K, var_count) variable array, laid
    out like the rotatable variables: x_lo, y_lo, x_hi, y_hi per rectangle.
    Fixed mode reconstructs the upper corners from the given sides."""
    if sys.mode == ROTATABLE:
        return vars
    corners = np.empty((len(vars), sys.n_rects, 4))
    corners[..., :2] = vars.reshape(len(vars), sys.n_rects, 2)
    corners[..., 2] = corners[..., 0] + sys.widths
    corners[..., 3] = corners[..., 1] + sys.heights
    return corners.reshape(len(vars), 4 * sys.n_rects)


def power_table(sys: MomentSystem, vars: np.ndarray) -> np.ndarray:
    """(K, max_order + 1, 4n) elementwise powers 0..max_order of the corners
    of each row of a (K, var_count) variable array, built by repeated
    multiply.  Row 1 holds the corners themselves.  Residual and Jacobian
    at one point share this table."""
    corners = _corners(sys, vars)
    table = np.empty((len(corners), sys.max_order + 1, corners.shape[1]))
    table[:, 0] = 1.0
    # table[s] = table[s - 1] * corners, one multiply per order
    repeated = np.broadcast_to(corners[:, None, :], table[:, 1:].shape)
    np.multiply.accumulate(repeated, axis=1, out=table[:, 1:])
    return table


def batch_residual(sys: MomentSystem, table: np.ndarray) -> np.ndarray:
    """(K, equation_count) stacked residuals, one row per point of the
    table: moment rows, then in rotatable mode the (c1, c2) pair of each
    rectangle."""
    k = len(table)
    # Contiguous extents, so the moment product is one BLAS matmul per row.
    px = table[:, 1:, 2::4] - table[:, 1:, 0::4]
    qy = table[:, 1:, 3::4] - table[:, 1:, 1::4]
    moments = ((px @ qy.transpose(0, 2, 1)) / sys.denom - 1.0).reshape(k, -1)
    if sys.mode == FIXED:
        return moments
    dx, dy = px[:, 0], qy[:, 0]
    c1 = dx + dy - (sys.widths + sys.heights)
    c2 = dx * dy - sys.widths * sys.heights
    return np.concatenate([moments, np.stack([c1, c2], axis=2).reshape(k, -1)], axis=1)


def batch_jacobian(sys: MomentSystem, table: np.ndarray) -> np.ndarray:
    """(K, equation_count, var_count) analytic Jacobians, one per point of
    the table, rows in residual order.

    Moment row (a, b) is sum_n X_a,n * Y_b,n, with X_a,n = x_hi^a - x_lo^a
    and Y_b,n = y_hi^b - y_lo^b.  Its derivative by a variable of rectangle
    n is first_a * second_b: (dX_a, Y_b) for an x variable and (X_a, dY_b)
    for a y variable.
    """
    k = len(table)
    m = sys.max_order
    n = sys.n_rects
    orders = np.arange(1, m + 1, dtype=float)[:, None, None]
    corners = table.reshape(k, m + 1, n, 4)  # x_lo, y_lo, x_hi, y_hi
    extents = corners[..., 2:] - corners[..., :2]  # X, Y by order 0..m
    if sys.mode == FIXED:
        # x_hi = x_lo + w, so dX_a = a * X_(a-1); likewise for y.
        deriv = orders * extents[:, :m]
        first = deriv.copy()
        first[..., 1] = extents[:, 1:, :, 0]
        second = deriv
        second[..., 0] = extents[:, 1:, :, 1]
    else:
        deriv = orders * np.array([-1.0, -1.0, 1.0, 1.0]) * corners[:, :m]
        first = deriv.copy()
        first[..., 1::2] = extents[:, 1:, :, 0:1]
        second = deriv
        second[..., 0::2] = extents[:, 1:, :, 1:2]
    out = np.empty((k, sys.equation_count, sys.var_count))
    moments = out[:, : m * m].reshape(k, m, m, -1)
    np.multiply(first.reshape(k, m, 1, -1), second.reshape(k, 1, m, -1), out=moments)
    moments /= sys.denom[:, :, None]
    if sys.mode == FIXED:
        return out
    # Constraint rows: d c1 = (-1, -1, 1, 1), d c2 = (-dy, -dx, dy, dx).
    constraints = out[:, m * m :].reshape(k, n, 2, n, 4)
    constraints[...] = 0.0
    rect = np.arange(n)
    block = np.empty((n, k, 2, 4))  # the shape constraints[:, rect, :, rect, :] has
    block[:, :, 0] = (-1.0, -1.0, 1.0, 1.0)
    sides = extents[:, 1, :, ::-1].transpose(1, 0, 2)  # (n, k, [dy, dx])
    block[:, :, 1, :2] = -sides
    block[:, :, 1, 2:] = sides
    constraints[:, rect, :, rect, :] = block
    return out


def residual(sys: MomentSystem, vars: np.ndarray) -> np.ndarray:
    """(equation_count,) stacked residual: the moment rows (s1, s2) in
    row-major order, then in rotatable mode the (c1, c2) pair of each
    rectangle."""
    arr = _check_vars(sys, vars)
    with np.errstate(over="ignore", invalid="ignore"):
        return batch_residual(sys, power_table(sys, arr[None]))[0]


def jacobian(sys: MomentSystem, vars: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the stacked residual, rows in residual order."""
    arr = _check_vars(sys, vars)
    with np.errstate(over="ignore", invalid="ignore"):
        return batch_jacobian(sys, power_table(sys, arr[None]))[0]


def layout_to_vars(sys: MomentSystem, layout: Layout) -> np.ndarray:
    """Flatten a layout into the system's normalized variable vector."""
    if len(layout.placements) != sys.n_rects:
        raise ValueError(
            f"layout has {len(layout.placements)} placements, instance has {sys.n_rects}"
        )
    s = sys.scale
    if sys.mode == FIXED:
        out = np.empty(2 * sys.n_rects)
        out[0::2] = [float(p.x_lo) / s for p in layout.placements]
        out[1::2] = [float(p.y_lo) / s for p in layout.placements]
        return out
    out = np.empty(4 * sys.n_rects)
    out[0::4] = [float(p.x_lo) / s for p in layout.placements]
    out[1::4] = [float(p.y_lo) / s for p in layout.placements]
    out[2::4] = [float(p.x_hi) / s for p in layout.placements]
    out[3::4] = [float(p.y_hi) / s for p in layout.placements]
    return out


def vars_to_layout(sys: MomentSystem, vars: np.ndarray) -> Layout:
    """De-normalize a variable vector back into a layout.  Fixed mode
    reconstructs the upper corners from the given sides."""
    corners = _corners(sys, _check_vars(sys, vars)[None])[0]
    x_lo, y_lo, x_hi, y_hi = (corners[c::4] for c in range(4))
    s = sys.scale
    placements = []
    for i in range(sys.n_rects):
        xa, xb = sorted((float(x_lo[i]) * s, float(x_hi[i]) * s))
        ya, yb = sorted((float(y_lo[i]) * s, float(y_hi[i]) * s))
        placements.append(Placement(xa, ya, xb, yb))
    return Layout(tuple(placements))
