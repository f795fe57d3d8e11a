"""Weighted centroid identities for the harmonic rectangle family.

Any perfect packing of the unit box by the rectangles (1/n, 1/(n+1)),
n = 1, 2, ..., must satisfy a family of exact constraints on the weighted
centroids (cx_n, cy_n), with weights 1/(n(n+1)) equal to the rectangle
areas.  Each identity comes from integrating a low-degree polynomial f over
the box and splitting the integral across rectangles: linear and bilinear f
give centroid terms only, while quadratic f adds a per-rectangle second
moment (dx^2 + dy^2)/12 whose total over the family is the series

    sum_n [1/(n(n+1))] * [1/n^2 + 1/(n+1)^2]  =  4 - pi^2/3.

These are moments.py's equations of order two: u = x / A is (T_0 + T_1) / 2
and u^2 is (3 T_0 + 4 T_1 + T_2) / 8 at T_k = T_k(2u - 1), so on any layout
in an A x B box the defect of f (rectangles minus box) is a fixed combination
of the rows (k, l) <= (2, 2) of moments.residual, which vanish on a tiling.

rhs_constant returns the closed forms of _IDENTITIES, one row per identity;
rhs_derive rebuilds them numerically from the box integral of f minus the
truncated correction series plus an integral tail estimate, without ever
consulting the closed form.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "IdentityId",
    "rhs_constant",
    "rhs_derive",
    "rhs_consistency",
]


class IdentityId(enum.Enum):
    X_FIRST = "x_first"
    Y_FIRST = "y_first"
    XY_CROSS = "xy_cross"
    SUM_SQUARES = "sum_squares"
    SUM_OF_SUM_SQ = "sum_of_sum_sq"
    DIFF_SQ = "diff_sq"


class _Row(NamedTuple):
    closed_form: float
    box_integral: float  # of f over the unit box
    quadratic: bool  # f is quadratic: its split adds the correction series


_PI2_36 = math.pi * math.pi / 36

# One row per identity: sum_n w_n * f(cx_n, cy_n) = closed_form, for f = x,
# y, xy, x^2 + y^2, (x + y)^2, (x - y)^2.  On a layout, the defect of x is
# moment rows (1, 0) and (0, 0), of xy rows (k, l) <= (1, 1), of x^2 rows
# (2, 0), (1, 0) and (0, 0); likewise for y.
_IDENTITIES = {
    IdentityId.X_FIRST: _Row(0.5, 0.5, False),
    IdentityId.Y_FIRST: _Row(0.5, 0.5, False),
    IdentityId.XY_CROSS: _Row(0.25, 0.25, False),
    IdentityId.SUM_SQUARES: _Row(1 / 3 + _PI2_36, 2 / 3, True),
    IdentityId.SUM_OF_SUM_SQ: _Row(5 / 6 + _PI2_36, 7 / 6, True),
    IdentityId.DIFF_SQ: _Row(_PI2_36 - 1 / 6, 1 / 6, True),
}


def rhs_constant(ident: IdentityId) -> float:
    """Closed-form right-hand side of the identity."""
    return _IDENTITIES[ident].closed_form


def _correction_series(n_trunc: int) -> float:
    """sum_{n<=N} [1/(n(n+1))] * [1/n^2 + 1/(n+1)^2] plus an integral tail
    estimate for the remainder.

    The summand equals 1/(n^3(n+1)) + 1/(n(n+1)^3); its exact antiderivative
    integrated from N+1/2 (midpoint rule) estimates the tail with O(N^-5)
    error, so modest truncations already reach 1e-9 agreement.
    """
    n = np.arange(1, n_trunc + 1, dtype=float)
    m = n + 1.0
    partial = float(np.sum((1.0 / (n * m)) * (1.0 / (n * n) + 1.0 / (m * m))))
    x0 = n_trunc + 0.5
    x1 = x0 + 1.0
    tail = (
        2.0 * math.log1p(1.0 / x0)
        - 1.0 / x0
        - 1.0 / x1
        + 1.0 / (2.0 * x0 * x0)
        - 1.0 / (2.0 * x1 * x1)
    )
    return partial + tail


def rhs_derive(ident: IdentityId, n_trunc: int) -> float:
    """Recompute the identity constant from first principles: box integral
    of the generating polynomial minus the within-rectangle second-moment
    corrections (truncated at n_trunc with a tail estimate).  Linear and
    bilinear identities need no correction and are exact for any n_trunc."""
    if n_trunc < 1:
        raise ValueError(f"n_trunc must be >= 1, got {n_trunc}")
    row = _IDENTITIES[ident]
    if not row.quadratic:
        return row.box_integral
    return row.box_integral - _correction_series(n_trunc) / 12.0


def rhs_consistency() -> bool:
    """Algebraic cross-checks between the closed forms: since
    (x+y)^2 = x^2+y^2+2xy and (x-y)^2 = x^2+y^2-2xy pointwise, the constants
    must satisfy the same relations, up to 1e-15 of float roundoff."""
    sq = rhs_constant(IdentityId.SUM_SQUARES)
    cross = rhs_constant(IdentityId.XY_CROSS)
    plus = rhs_constant(IdentityId.SUM_OF_SUM_SQ)
    minus = rhs_constant(IdentityId.DIFF_SQ)
    return abs(plus - (sq + 2 * cross)) <= 1e-15 and abs(minus - (sq - 2 * cross)) <= 1e-15
