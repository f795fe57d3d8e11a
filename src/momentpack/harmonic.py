"""Weighted centroid identities for the harmonic rectangle family.

Any perfect packing of the unit box by the rectangles (1/n, 1/(n+1)),
n = 1, 2, ..., must satisfy a family of exact constraints on the weighted
centroids (cx_n, cy_n), with weights 1/(n(n+1)) equal to the rectangle
areas.  Each identity comes from integrating a low-degree polynomial f over
the box and splitting the integral across rectangles: linear and bilinear f
give centroid terms only, while quadratic f adds a per-rectangle second
moment (dx^2 + dy^2)/12 whose total over the family is the series

    sum_n [1/(n(n+1))] * [1/n^2 + 1/(n+1)^2]  =  4 - pi^2/3.

rhs_constant returns the closed forms; rhs_derive rebuilds them numerically
from the box integral minus the truncated correction series plus an integral
tail estimate, without ever consulting the closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .instances import Layout
from .verify import _side_error

__all__ = [
    "IdentityId",
    "IdentityEval",
    "rhs_constant",
    "rhs_derive",
    "rhs_consistency",
    "identity_partial",
]


class IdentityId(enum.Enum):
    X_FIRST = "x_first"  # sum w_n * cx_n            = 1/2
    Y_FIRST = "y_first"  # sum w_n * cy_n            = 1/2
    XY_CROSS = "xy_cross"  # sum w_n * cx_n * cy_n     = 1/4
    SUM_SQUARES = "sum_squares"  # sum w_n * (cx^2 + cy^2)  = 1/3 + pi^2/36
    SUM_OF_SUM_SQ = "sum_of_sum_sq"  # sum w_n * (cx + cy)^2  = 5/6 + pi^2/36
    DIFF_SQ = "diff_sq"  # sum w_n * (cx - cy)^2     = pi^2/36 - 1/6


_PI2_36 = math.pi * math.pi / 36

_CONSTANTS = {
    IdentityId.X_FIRST: 0.5,
    IdentityId.Y_FIRST: 0.5,
    IdentityId.XY_CROSS: 0.25,
    IdentityId.SUM_SQUARES: 1 / 3 + _PI2_36,
    IdentityId.SUM_OF_SUM_SQ: 5 / 6 + _PI2_36,
    IdentityId.DIFF_SQ: _PI2_36 - 1 / 6,
}

# Box integrals of the generating polynomial f over the unit square: the
# correction-free part of each identity.
_BOX_INTEGRALS = {
    IdentityId.X_FIRST: 0.5,  # f = x
    IdentityId.Y_FIRST: 0.5,  # f = y
    IdentityId.XY_CROSS: 0.25,  # f = x*y
    IdentityId.SUM_SQUARES: 2 / 3,  # f = x^2 + y^2
    IdentityId.SUM_OF_SUM_SQ: 7 / 6,  # f = (x + y)^2
    IdentityId.DIFF_SQ: 1 / 6,  # f = (x - y)^2
}

# Coefficient of the second-moment correction series in each identity: the
# quadratic forms x^2+y^2, (x+y)^2, (x-y)^2 all carry (dx^2 + dy^2)/12 per
# rectangle (bilinear cross terms integrate to centroid products exactly).
_CORRECTION_COEFF = {
    IdentityId.X_FIRST: 0.0,
    IdentityId.Y_FIRST: 0.0,
    IdentityId.XY_CROSS: 0.0,
    IdentityId.SUM_SQUARES: 1.0,
    IdentityId.SUM_OF_SUM_SQ: 1.0,
    IdentityId.DIFF_SQ: 1.0,
}

# Per-rectangle summand of each identity's left-hand side, in centroid terms.
_TERMS = {
    IdentityId.X_FIRST: lambda cx, cy: cx,
    IdentityId.Y_FIRST: lambda cx, cy: cy,
    IdentityId.XY_CROSS: lambda cx, cy: cx * cy,
    IdentityId.SUM_SQUARES: lambda cx, cy: cx * cx + cy * cy,
    IdentityId.SUM_OF_SUM_SQ: lambda cx, cy: (cx + cy) * (cx + cy),
    IdentityId.DIFF_SQ: lambda cx, cy: (cx - cy) * (cx - cy),
}


def rhs_constant(ident: IdentityId) -> float:
    """Closed-form right-hand side of the identity."""
    return _CONSTANTS[ident]


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
    coeff = _CORRECTION_COEFF[ident]
    if coeff == 0.0:
        return _BOX_INTEGRALS[ident]
    return _BOX_INTEGRALS[ident] - coeff * _correction_series(n_trunc) / 12.0


def rhs_consistency(tol: float = 1e-15) -> bool:
    """Algebraic cross-checks between the closed forms: since
    (x+y)^2 = x^2+y^2+2xy and (x-y)^2 = x^2+y^2-2xy pointwise, the constants
    must satisfy the same relations."""
    sq = rhs_constant(IdentityId.SUM_SQUARES)
    cross = rhs_constant(IdentityId.XY_CROSS)
    plus = rhs_constant(IdentityId.SUM_OF_SUM_SQ)
    minus = rhs_constant(IdentityId.DIFF_SQ)
    return abs(plus - (sq + 2 * cross)) <= tol and abs(minus - (sq - 2 * cross)) <= tol


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


def identity_partial(
    layout: Layout, ident: IdentityId, size_tol: float = 1e-9
) -> IdentityEval:
    """Evaluate the weighted centroid sum over a layout of the first N
    harmonic rectangles.

    Placement k (0-based) must have sides {1/(k+1), 1/(k+2)} in either
    orientation, each side within size_tol (the verifier's side test);
    anything else is a size mismatch error.
    """
    term = _TERMS[ident]
    total = 0.0
    n_rects = len(layout.placements)
    for k, p in enumerate(layout.placements):
        n = k + 1
        w = 1.0 / n
        h = 1.0 / (n + 1)
        dx = float(p.dx)
        dy = float(p.dy)
        if _side_error(dx, dy, w, h, True) > size_tol:
            raise ValueError(
                f"placement {n} has sides {dx} x {dy}; harmonic rect {n} needs "
                f"{{1/{n}, 1/{n + 1}}}"
            )
        weight = 1.0 / (n * (n + 1))
        cx = float(p.cx)
        cy = float(p.cy)
        total += weight * term(cx, cy)
    return IdentityEval(ident, total, rhs_constant(ident), n_rects)
