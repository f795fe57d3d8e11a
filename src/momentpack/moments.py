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

One variable model: build_system sets, per rectangle, which corners are
unknowns.  An upright rectangle has two, (x_lo, y_lo); its upper corners
are x_lo + w and y_lo + h.  A free one has four, (x_lo, y_lo, x_hi, y_hi),
and two side rows

    c1 = (dx + dy - w - h) / scale
    c2 = (dx*dy - w*h) / scale^2

whose joint zero forces {dx, dy} = {w, h}: the placed sides match the
given ones up to a 90-degree rotation.  fixed_orientation keeps every
rectangle upright; rotatable frees all but squares, since turning a square
changes nothing and for w = h the side rows share a double root at
dx = dy, where Newton steps reach only square-root accuracy.  Unknowns,
corner tables and side rows list the upright rectangles first, then the
free ones, so kernels read each group through a view.  The truncation
default comes from the unknown count.

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
_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])  # d(corner^a) signs of x_lo, y_lo, x_hi, y_hi

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
    "corners_to_vars",
    "layout_to_vars",
    "vars_to_layout",
]


def default_max_order(var_count: int) -> int:
    """Truncation default: max(3, ceil(sqrt(var_count)) + 1), which keeps the
    equation count (max_order^2) at or above the unknown count."""
    return max(3, math.isqrt(max(var_count - 1, 0)) + 2)


@dataclass(frozen=True, eq=False)
class MomentSystem:
    """Immutable bundle of one instance's truncated moment equations."""

    instance: Instance
    max_order: int
    mode: str
    scale: float
    var_count: int
    constraint_count: int
    widths: np.ndarray  # normalized given sides, instance order
    heights: np.ndarray
    box_w: float  # normalized box sides
    box_h: float
    denom: np.ndarray  # (max_order, max_order) box moments A^s1 * B^s2
    free: np.ndarray  # (n,) bool, instance order: four unknowns and a side-row pair
    order: np.ndarray  # (n,) instance indices, upright first: the rectangle order of the model
    n_upright: int
    sides: np.ndarray  # (n, 2) normalized (w, h) in model order

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
    free = np.array([mode == ROTATABLE and r.width != r.height for r in inst.rects], dtype=bool)
    n_free = int(np.count_nonzero(free))
    var_count = 2 * inst.n_rects + 2 * n_free
    if max_order is None:
        max_order = default_max_order(var_count)
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    scale = float(max(inst.box.width, inst.box.height))
    widths = np.array([float(r.width) for r in inst.rects]) / scale
    heights = np.array([float(r.height) for r in inst.rects]) / scale
    box_w = float(inst.box.width) / scale
    box_h = float(inst.box.height) / scale
    pow_a, pow_b = (np.multiply.accumulate(np.full(max_order, v)) for v in (box_w, box_h))
    denom = np.outer(pow_a, pow_b)
    order = np.concatenate([np.flatnonzero(~free), np.flatnonzero(free)])
    return MomentSystem(
        instance=inst,
        max_order=max_order,
        mode=mode,
        scale=scale,
        var_count=var_count,
        constraint_count=2 * n_free,
        widths=widths,
        heights=heights,
        box_w=box_w,
        box_h=box_h,
        denom=denom,
        free=free,
        order=order,
        n_upright=inst.n_rects - n_free,
        sides=np.stack([widths, heights], axis=1)[order],
    )


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
    """(K, 4n) corners of each row of a (K, var_count) variable array:
    x_lo, y_lo, x_hi, y_hi per rectangle in model order.  An upright
    rectangle's upper corners are its lower ones plus its sides; with no
    upright rectangle the unknowns are the corners."""
    k, n, u = len(vars), sys.n_rects, sys.n_upright
    if not u:
        return vars
    corners = np.empty((k, n, 4))
    corners[:, u:] = vars[:, 2 * u :].reshape(k, n - u, 4)
    corners[:, :u, :2] = vars[:, : 2 * u].reshape(k, u, 2)
    corners[:, :u, 2:] = corners[:, :u, :2] + sys.sides[:u]
    return corners.reshape(k, 4 * n)


def power_table(sys: MomentSystem, vars: np.ndarray) -> np.ndarray:
    """(K, max_order + 1, 4n) elementwise powers 0..max_order of the corners
    of each row of a (K, var_count) variable array, built by repeated
    multiply.  Row 1 holds the corners themselves.  Residual and Jacobian
    at one point share this table."""
    corners = _corners(sys, vars)
    table = np.empty((len(corners), sys.max_order + 1, corners.shape[1]))
    table[:, 0] = 1.0
    table[:, 1] = corners
    for s in range(2, sys.max_order + 1):
        np.multiply(table[:, s - 1], corners, out=table[:, s])
    return table


def batch_residual(sys: MomentSystem, table: np.ndarray) -> np.ndarray:
    """(K, equation_count) stacked residuals, one row per point of the
    table: moment rows, then the (c1, c2) pair of each free rectangle."""
    k, u = len(table), sys.n_upright
    # Contiguous extents, so the moment product is one BLAS matmul per row.
    px = table[:, 1:, 2::4] - table[:, 1:, 0::4]
    qy = table[:, 1:, 3::4] - table[:, 1:, 1::4]
    moments = ((px @ qy.transpose(0, 2, 1)) / sys.denom - 1.0).reshape(k, -1)
    if not sys.constraint_count:
        return moments
    dx, dy, w, h = px[:, 0, u:], qy[:, 0, u:], sys.sides[u:, 0], sys.sides[u:, 1]
    sides = np.stack([dx + dy - (w + h), dx * dy - w * h], axis=2)  # c1, c2
    return np.concatenate([moments, sides.reshape(k, -1)], axis=1)


def _moment_columns(deriv: np.ndarray, extents: np.ndarray, out: np.ndarray) -> None:
    """Write d(moment row (a, b)) by one group's unknowns, x and y
    alternating, into out (K, m, m, columns): (dX_a, Y_b) for an x unknown,
    (X_a, dY_b) for a y one.  deriv holds dX_a or dY_b, extents X_a, Y_b."""
    k, m = deriv.shape[:2]
    first = deriv.copy()
    first[..., 1::2] = extents[..., 0:1]
    second = deriv
    second[..., 0::2] = extents[..., 1:2]
    np.multiply(first.reshape(k, m, 1, -1), second.reshape(k, 1, m, -1), out=out)


def batch_jacobian(sys: MomentSystem, table: np.ndarray) -> np.ndarray:
    """(K, equation_count, var_count) analytic Jacobians, one per point of
    the table, rows in residual order.

    Moment row (a, b) is sum_n X_a,n * Y_b,n, with X_a,n = x_hi^a - x_lo^a
    and Y_b,n = y_hi^b - y_lo^b.  Moving an upright rectangle moves both
    of its x corners, so dX_a = a * X_(a-1); a free corner moves alone, so
    dX_a = a * x_hi^(a-1) or -a * x_lo^(a-1).  Likewise for y.
    """
    k = len(table)
    m = sys.max_order
    n, u = sys.n_rects, sys.n_upright
    orders = np.arange(1, m + 1, dtype=float)[:, None, None]
    corners = table.reshape(k, m + 1, n, 4)  # x_lo, y_lo, x_hi, y_hi
    extents = corners[..., 2:] - corners[..., :2]  # X, Y by order 0..m
    out = np.empty((k, sys.equation_count, sys.var_count))
    moments = out[:, : m * m].reshape(k, m, m, -1)
    if u:
        deriv = orders * extents[:, :m, :u]
        _moment_columns(deriv, extents[:, 1:, :u], moments[..., : 2 * u])
    if u < n:
        deriv = orders * _SIGNS * corners[:, :m, u:]
        _moment_columns(deriv, extents[:, 1:, u:], moments[..., 2 * u :])
        # Side rows: d c1 = (-1, -1, 1, 1), d c2 = (-dy, -dx, dy, dx) on the
        # rectangle's own four unknowns, zero elsewhere.
        sides = out[:, m * m :]
        sides[...] = 0.0
        own = sides[..., 2 * u :].reshape(k, n - u, 2, n - u, 4)
        rect = np.arange(n - u)
        dy_dx = extents[:, 1, u:, ::-1]
        own[:, rect, 0, rect] = _SIGNS
        own[:, rect, 1, rect, :2] = -dy_dx
        own[:, rect, 1, rect, 2:] = dy_dx
    moments /= sys.denom[:, :, None]
    return out


def residual(sys: MomentSystem, vars: np.ndarray) -> np.ndarray:
    """(equation_count,) stacked residual: the moment rows (s1, s2) in
    row-major order, then the (c1, c2) pair of each free rectangle."""
    arr = _check_vars(sys, vars)
    with np.errstate(over="ignore", invalid="ignore"):
        return batch_residual(sys, power_table(sys, arr[None]))[0]


def jacobian(sys: MomentSystem, vars: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the stacked residual, rows in residual order."""
    arr = _check_vars(sys, vars)
    with np.errstate(over="ignore", invalid="ignore"):
        return batch_jacobian(sys, power_table(sys, arr[None]))[0]


def corners_to_vars(sys: MomentSystem, corners: np.ndarray) -> np.ndarray:
    """The unknowns of an (n, 4) normalized corner array in instance order:
    the lower corners of each upright rectangle, then all four of each free
    one."""
    grouped = corners[sys.order]
    u = sys.n_upright
    return np.concatenate([grouped[:u, :2].ravel(), grouped[u:].ravel()])


def layout_to_vars(sys: MomentSystem, layout: Layout) -> np.ndarray:
    """Flatten a layout into the system's normalized variable vector."""
    if len(layout.placements) != sys.n_rects:
        raise ValueError(
            f"layout has {len(layout.placements)} placements, instance has {sys.n_rects}"
        )
    s = sys.scale
    corners = [[float(v) / s for v in p.as_tuple()] for p in layout.placements]
    return corners_to_vars(sys, np.array(corners).reshape(sys.n_rects, 4))


def vars_to_layout(sys: MomentSystem, vars: np.ndarray) -> Layout:
    """De-normalize a variable vector back into a layout.  Upright
    rectangles get their upper corners from the given sides."""
    grouped = _corners(sys, _check_vars(sys, vars)[None]).reshape(-1, 4)
    corners = grouped[np.argsort(sys.order)]  # instance order
    s = sys.scale
    placements = []
    for x_lo, y_lo, x_hi, y_hi in corners.tolist():
        xa, xb = sorted((x_lo * s, x_hi * s))
        ya, yb = sorted((y_lo * s, y_hi * s))
        placements.append(Placement(xa, ya, xb, yb))
    return Layout(tuple(placements))
