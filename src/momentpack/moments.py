"""Truncated moment systems over layout corner coordinates.

A layout tiles the A x B box only if, for all exponent pairs
1 <= s1, s2 <= max_order,

    sum_n ((x_hi_n)^s1 - (x_lo_n)^s1) * ((y_hi_n)^s2 - (y_lo_n)^s2) = A^s1 * B^s2,

which says that the polynomial x^(s1-1) * y^(s2-1) integrates over the
rectangles to what it integrates over the box.  This module writes the same
equations in the shifted-Chebyshev basis (the method of modified moments).
With u = x / A, v = y / B and T_k the Chebyshev polynomials, row (k, l),
0 <= k, l < max_order, is

    r(k, l) = sum_n Q_k,n * R_l,n  -  g_k * g_l

where Q_k,n integrates T_k(2u - 1) over rectangle n's extent [u_lo, u_hi],
R_l,n does the same for T_l(2v - 1) over [v_lo, v_hi], and g_k is the
integral of T_k(2u - 1) over [0, 1]: 1 / (1 - k^2) for even k, 0 for odd k.
These rows are an invertible triangular combination of the monomial ones,
so both systems have the same roots.  The monomial rows are close to
parallel (at exact guillotine tilings of a 10 x 8 box the Jacobian's
condition number is 2.3e6 at 20 rectangles); these are not (39 there).

Q_k is a banded combination of table differences dT_j = T_j(t_hi) -
T_j(t_lo) at t = 2u - 1, since T_k integrates to T_(k+1) / (2(k+1)) -
T_(k-1) / (2(k-1)) and du = dt / 2:

    Q_0 = dT_1 / 2,   Q_1 = dT_2 / 8,
    Q_k = dT_(k+1) / (4(k+1)) - dT_(k-1) / (4(k-1))   for k >= 2.

This module builds that polynomial system, evaluates residuals and the
analytic Jacobian, and maps between layouts and flat variable vectors.  The
unknowns are normalized coordinates (divided by scale = max(A, B)).

One variable model: every rectangle has two unknowns, its lower corner
(x_lo, y_lo), in every mode.  Its upper corners are x_lo + w and y_lo + h
for the sides (w, h) it is placed with, which are data, not unknowns: the
given pair or, where the solver's start turned the rectangle, that pair
swapped.  The truncation default comes from the unknown count, 2n.

Chebyshev values come from the three-term recurrence T_(j+1) = 2t * T_j -
T_(j-1), multiplies and subtracts only (never a transcendental), so results
are reproducible bit for bit and the rows of an exact tiling vanish to
roundoff.  Building them instead from monomial extents and the fixed
monomial-to-Chebyshev coefficient matrix cancels catastrophically: that
floor passes 1e-10 from max_order 7.

chebyshev_table builds one (max_order + 1, 4n) table of Chebyshev values
at the corners of a point; table_residual and table_jacobian both read it,
so a Jacobian at a point whose residual is known reuses that table.
residual and jacobian are the checked views that build their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import Instance, Layout, Placement, _check_placement_count

# The solve modes, what a start may do: keep every rectangle upright, or
# also turn those whose sides differ.  The moment system is the same in both.
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
    "chebyshev_table",
    "table_residual",
    "table_jacobian",
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
    scale: float
    var_count: int
    box_w: float  # normalized box sides
    box_h: float
    to_cheb: np.ndarray  # (4n,) 2 / box side of each corner column: t = corner * to_cheb - 1
    integrate: np.ndarray  # (max_order, max_order + 1) banded: Q = integrate @ dT
    box_moments: np.ndarray  # (max_order, max_order) g_k * g_l, the rows' box integrals
    sides: np.ndarray  # (n, 2) normalized given (w, h), instance order: the one copy

    @property
    def n_rects(self) -> int:
        return len(self.instance.rects)

    @property
    def equation_count(self) -> int:
        return self.max_order**2


def _check_max_order(max_order: int | None) -> None:
    if max_order is not None and max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")


def build_system(inst: Instance, max_order: int | None = None) -> MomentSystem:
    var_count = 2 * inst.n_rects
    if max_order is None:
        max_order = default_max_order(var_count)
    _check_max_order(max_order)
    scale = float(max(inst.box.width, inst.box.height))
    sides = np.array([(float(r.width), float(r.height)) for r in inst.rects]).reshape(-1, 2)
    box_w = float(inst.box.width) / scale
    box_h = float(inst.box.height) / scale
    integrate = np.zeros((max_order, max_order + 1))  # the banded map dT -> Q
    for k in range(max_order):
        integrate[k, k + 1] = 0.5 if k == 0 else 1.0 / (4 * (k + 1))
        if k >= 2:
            integrate[k, k - 1] = -1.0 / (4 * (k - 1))
    g = np.array([1.0 / (1 - k * k) if k % 2 == 0 else 0.0 for k in range(max_order)])
    return MomentSystem(
        instance=inst,
        max_order=max_order,
        scale=scale,
        var_count=var_count,
        box_w=box_w,
        box_h=box_h,
        to_cheb=np.tile([2.0 / box_w, 2.0 / box_h], 2 * inst.n_rects),
        integrate=integrate,
        box_moments=np.outer(g, g),
        sides=sides / scale,
    )


def _check_vars(sys: MomentSystem, vars: np.ndarray, sides: np.ndarray | None = None) -> np.ndarray:
    arr = np.asarray(vars, dtype=float)
    if arr.shape != (sys.var_count,):
        raise ValueError(f"expected {sys.var_count} variables, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("variable vector contains non-finite entries")
    if sides is not None and np.shape(sides) != (sys.n_rects, 2):
        raise ValueError(f"expected sides of shape {(sys.n_rects, 2)}, got shape {np.shape(sides)}")
    return arr


def _corners(sys: MomentSystem, vars: np.ndarray, sides: np.ndarray | None = None) -> np.ndarray:
    """(4n,) corners of a variable vector: x_lo, y_lo, x_hi, y_hi per
    rectangle.  The upper corners are the lower ones plus sides (n, 2), the
    given sides when None."""
    lo = vars.reshape(sys.n_rects, 2)
    upper = lo + (sys.sides if sides is None else sides)
    return np.concatenate((lo, upper), axis=1).ravel()


def chebyshev_table(
    sys: MomentSystem, vars: np.ndarray, sides: np.ndarray | None = None
) -> np.ndarray:
    """(max_order + 1, 4n) Chebyshev values T_0..T_max_order at t = 2u - 1
    for every corner of a variable vector placed with sides (see _corners),
    u being the corner over its own box side.  Built by the recurrence
    T_(j+1) = 2t * T_j - T_(j-1)."""
    t = _corners(sys, vars, sides) * sys.to_cheb
    t -= 1.0
    two_t = t + t
    levels = [np.ones(t.shape), t]
    for j in range(1, sys.max_order):
        nxt = two_t * levels[j]
        nxt -= levels[j - 1]
        levels.append(nxt)
    return np.stack(levels)


def table_residual(sys: MomentSystem, table: np.ndarray) -> np.ndarray:
    """(equation_count,) stacked residual at the table's point: the moment
    rows (k, l) in row-major order."""
    # Contiguous integrals, so the moment product is one BLAS matmul.
    qx = sys.integrate @ (table[:, 2::4] - table[:, 0::4])
    ry = sys.integrate @ (table[:, 3::4] - table[:, 1::4])
    return (qx @ ry.T - sys.box_moments).ravel()


def table_jacobian(sys: MomentSystem, table: np.ndarray) -> np.ndarray:
    """(equation_count, var_count) analytic Jacobian at the table's point,
    rows in residual order.

    Moment row (k, l) is sum_n Q_k,n * R_l,n, Q_k,n the integral of
    T_k(2u - 1) over rectangle n's u-extent.  Its derivative by an end is
    the integrand there over the box side: dQ_k / dx_hi = T_k(t_hi) / A
    and dQ_k / dx_lo = -T_k(t_lo) / A.  Moving a rectangle moves both of
    its x corners, so dQ_k = dT_k / A, whatever its sides.  Likewise for y.
    """
    m, n = sys.max_order, sys.n_rects
    cheb = table.reshape(m + 1, n, 4)  # x_lo, y_lo, x_hi, y_hi
    delta = cheb[..., 2:] - cheb[..., :2]  # dT_j of x and y, j = 0..m
    integrals = (sys.integrate @ delta.reshape(m + 1, 2 * n)).reshape(m, n, 2)
    # Row (k, l) by x is dQ_k * R_l, by y Q_k * dR_l: one product of an
    # (m, 1, 2n) factor and a (1, m, 2n) one.
    first = delta[:m] * (0.5 * sys.to_cheb[:2])  # dQ_k and dR_l
    second = first.copy()
    first[..., 1] = integrals[..., 0]
    second[..., 0] = integrals[..., 1]
    return (first.reshape(m, 1, 2 * n) * second.reshape(1, m, 2 * n)).reshape(m * m, 2 * n)


def residual(sys: MomentSystem, vars: np.ndarray, sides: np.ndarray | None = None) -> np.ndarray:
    """(equation_count,) stacked residual: the moment rows (k, l) in
    row-major order, the rectangles placed with sides (the given ones when
    None)."""
    arr = _check_vars(sys, vars, sides)
    with np.errstate(over="ignore", invalid="ignore"):
        return table_residual(sys, chebyshev_table(sys, arr, sides))


def jacobian(sys: MomentSystem, vars: np.ndarray, sides: np.ndarray | None = None) -> np.ndarray:
    """Analytic Jacobian of the stacked residual, rows in residual order."""
    arr = _check_vars(sys, vars, sides)
    with np.errstate(over="ignore", invalid="ignore"):
        return table_jacobian(sys, chebyshev_table(sys, arr, sides))


def _corner_array(layout: Layout) -> np.ndarray:
    """The placements as an (n, 4) float64 array, rows x_lo, y_lo, x_hi,
    y_hi: the one place a layout becomes floats.  Each number converts as
    float() converts it, raising the same OverflowError."""
    rows = [(p.x_lo, p.y_lo, p.x_hi, p.y_hi) for p in layout.placements]
    return np.array(rows, dtype=float).reshape(-1, 4)


def layout_to_vars(sys: MomentSystem, layout: Layout) -> np.ndarray:
    """The normalized lower corners of a layout: the system's unknowns."""
    _check_placement_count(sys.instance, layout)
    return (_corner_array(layout)[:, :2] / sys.scale).ravel()


def vars_to_layout(sys: MomentSystem, vars: np.ndarray, sides: np.ndarray | None = None) -> Layout:
    """De-normalize a variable vector back into a layout, the rectangles
    placed with sides (the given ones when None)."""
    corners = _corners(sys, _check_vars(sys, vars, sides), sides) * sys.scale
    return Layout(tuple(Placement(*c) for c in corners.reshape(-1, 4).tolist()))
