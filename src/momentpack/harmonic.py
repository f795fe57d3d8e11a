"""Weighted centroid identities for the harmonic rectangle family.

Any perfect packing of the unit box by the rectangles (1/n, 1/(n+1)),
n = 1, 2, ..., must satisfy a family of exact constraints on the weighted
centroids (cx_n, cy_n), with weights 1/(n(n+1)) equal to the rectangle
areas.  Each identity comes from integrating a low-degree polynomial f over
the box and splitting the integral across rectangles: linear and bilinear f
give centroid terms only, while quadratic f adds a per-rectangle second
moment (dx^2 + dy^2)/12 whose total over the family is the series

    sum_n [1/(n(n+1))] * [1/n^2 + 1/(n+1)^2]  =  4 - pi^2/3.

rhs_constant returns the closed forms of _IDENTITIES, one row per identity;
rhs_derive rebuilds them numerically from the box integral of f minus the
truncated correction series plus an integral tail estimate, without ever
consulting the closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .instances import Layout
from .verify import DEFAULT_TOL, _side_error

__all__ = [
    "IdentityId",
    "IdentityEval",
    "rhs_constant",
    "rhs_derive",
    "rhs_consistency",
    "identity_partial",
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
    f: Callable[[float, float], float]


_PI2_36 = math.pi * math.pi / 36

# One row per identity: sum_n w_n * f(cx_n, cy_n) = closed_form.
_IDENTITIES = {
    IdentityId.X_FIRST: _Row(0.5, 0.5, False, lambda x, y: x),
    IdentityId.Y_FIRST: _Row(0.5, 0.5, False, lambda x, y: y),
    IdentityId.XY_CROSS: _Row(0.25, 0.25, False, lambda x, y: x * y),
    IdentityId.SUM_SQUARES: _Row(1 / 3 + _PI2_36, 2 / 3, True, lambda x, y: x * x + y * y),
    IdentityId.SUM_OF_SUM_SQ: _Row(5 / 6 + _PI2_36, 7 / 6, True, lambda x, y: (x + y) * (x + y)),
    IdentityId.DIFF_SQ: _Row(_PI2_36 - 1 / 6, 1 / 6, True, lambda x, y: (x - y) * (x - y)),
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


@dataclass(frozen=True)
class IdentityEval:
    """Partial left-hand side over the first n_rects placements versus the
    full-family constant; gap = rhs - lhs_partial."""

    identity: IdentityId
    lhs_partial: float
    rhs: float
    n_rects: int

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs_partial


def identity_partial(layout: Layout, ident: IdentityId) -> IdentityEval:
    """Evaluate the weighted centroid sum over a layout of the first N
    harmonic rectangles.

    Placement k (0-based) must have sides {1/(k+1), 1/(k+2)} in either
    orientation, each side within the verifier's DEFAULT_TOL (its side test
    in the unit box); anything else is a size mismatch error.
    """
    f = _IDENTITIES[ident].f
    total = 0.0
    n_rects = len(layout.placements)
    for k, p in enumerate(layout.placements):
        n = k + 1
        w = 1.0 / n
        h = 1.0 / (n + 1)
        dx = float(p.dx)
        dy = float(p.dy)
        if _side_error(dx, dy, w, h, True) > DEFAULT_TOL:
            raise ValueError(
                f"placement {n} has sides {dx} x {dy}; harmonic rect {n} needs "
                f"{{1/{n}, 1/{n + 1}}}"
            )
        weight = 1.0 / (n * (n + 1))
        cx = float(p.cx)
        cy = float(p.cy)
        total += weight * f(cx, cy)
    return IdentityEval(ident, total, rhs_constant(ident), n_rects)
