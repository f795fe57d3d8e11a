"""Geometric verification of layouts, independent of the moment machinery.

One check core, _check, answers "does this layout pack the box perfectly"
at a tolerance tol over some number type: containment, side fidelity and
total area per rectangle, then the interior-disjointness of every pair.
tol has one meaning: every per-rectangle and per-pair test compares a
length (overhang, side error, penetration depth min(ow, oh) of a pair)
with eps = tol * scale, scale = max(A, B); only the total area gap is
compared with tol * A * B.  Pairs are produced lazily by a sort and sweep
on x (Bentley & Wood 1980): placements are taken in x_lo order, and each
is tested only against the later ones whose x_lo lies below its x_hi, since
no other pair can overlap in x.  A tiling by n full-width strips still
tests all n(n-1)/2 pairs; guillotine-like layouts test a few per rectangle.

* verify_layout: the core over floats; reports every violation it finds,
  overlap rows ordered by placement position as (i, j), i < j.
* verify_exact: the same checks at tol 0 over exact rationals, stopping
  at the first failure.  At tol 0 every float test becomes the exact one:
  overhang > 0, side mismatch != 0, penetration > 0, area gap = 0, so
  boundary contact is legal and interior overlap is not.  These tests are
  invariant under a positive scale, so every number is converted to a
  Fraction first and the checks then run over Python ints on the common
  grid (the lcm of all denominators); areas are summed in Python ints,
  which never overflow.
* corner_cancellation: sign bookkeeping on the corner multiset.  Each
  placement contributes +1 at (x_lo, y_lo) and (x_hi, y_hi) and -1 at the
  other two corners.  Every x and every y is snapped with _snap_values
  (anchored at 0 and the box side), then signs are counted exactly at the
  snapped points: in a perfect packing every point nets 0 except the four
  box corners, which net +1/-1/-1/+1 against the box's own signed corners.
  Snapping each axis differs from clustering the points within L-inf
  distance eps only when a chain of coordinates, each within eps of the
  next, spans more than eps.

_snap_values is the package's one coordinate-clustering helper (the
solver's snap_layout uses it too), and _side_error its one side test
(harmonic.identity_partial uses it too).

moment_residual_of_layout bridges back to the equation side: the largest
normalized residual of the truncated moment system evaluated at the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import moments as mo
from .instances import BoxSpec, Instance, Layout, Number, _check_placement_count

__all__ = [
    "VerificationReport",
    "verify_layout",
    "verify_exact",
    "corner_cancellation",
    "moment_residual_of_layout",
]

DEFAULT_TOL = 1e-7


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verify_layout; passed is true exactly when every violation
    list is empty and |area_gap| <= tol * box area."""

    passed: bool
    containment_violations: tuple[tuple[int, float], ...]
    overlap_violations: tuple[tuple[tuple[int, int], float], ...]
    size_violations: tuple[tuple[int, float, float], ...]
    area_gap: float
    tol: float

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "containment_violations": [list(v) for v in self.containment_violations],
            "overlap_violations": [
                [list(pair), area] for pair, area in self.overlap_violations
            ],
            "size_violations": [list(v) for v in self.size_violations],
            "area_gap": self.area_gap,
            "tol": self.tol,
        }


def _numbers(inst: Instance, layout: Layout, num: Callable[[Number, str], object]):
    """Every number the checks read, converted with num in one fixed order
    (box, placements, rect sides), so malformed input raises the same error
    whatever else is wrong.  Returns (a, b, boxes, sides)."""
    _check_placement_count(inst, layout)
    a = num(inst.box.width, "box width")
    b = num(inst.box.height, "box height")
    boxes = [
        tuple(num(v, f"placement {i}") for v in p.as_tuple())
        for i, p in enumerate(layout.placements, start=1)
    ]
    sides = [
        (num(r.width, f"rect {r.id} width"), num(r.height, f"rect {r.id} height"))
        for r in inst.rects
    ]
    return a, b, boxes, sides


def _side_error(dx, dy, w, h, rotation_allowed: bool):
    """Largest side error max(|dx - w|, |dy - h|) of a dx x dy placement of
    a w x h rectangle; with rotation allowed, the smaller of that and the
    error of the turned rectangle.  It is 0 exactly when the sides match."""
    err = max(abs(dx - w), abs(dy - h))
    return min(err, max(abs(dx - h), abs(dy - w))) if rotation_allowed else err


def _check(
    inst: Instance,
    a,
    b,
    boxes: list,
    sides: list,
    tol: float,
    total: Callable[[list], object],
):
    """Run the checks shared by verify_layout and verify_exact on converted
    numbers (see _numbers); total sums the rectangle areas.

    Returns (containment, sizes, area_gap, area_ok, overlaps): the violation
    rows of the O(n) checks, the total area minus the box area and whether
    it is within tol, and a lazy iterator of ((i, j), area) overlap rows
    over placement positions i < j, in sweep order.

    Overhang, side error and penetration min(ow, oh) are lengths judged
    against eps = tol * scale; size rows carry the symmetric residuals
    |dx+dy - (w+h)| and |dx*dy - w*h|, overlap rows the area ow * oh.
    """
    eps = tol * max(a, b)

    containment = []
    sizes = []
    areas = []
    for r, (xl, yl, xh, yh), (w, h) in zip(inst.rects, boxes, sides):
        overhang = max(-xl, xh - a, -yl, yh - b, 0)
        if overhang > eps:
            containment.append((r.id, overhang))
        dx = xh - xl
        dy = yh - yl
        if _side_error(dx, dy, w, h, inst.rotation_allowed) > eps:
            sizes.append((r.id, abs(dx + dy - (w + h)), abs(dx * dy - w * h)))
        areas.append(dx * dy)
    area_gap = total(areas) - a * b
    area_ok = bool(abs(area_gap) <= tol * a * b)

    def overlaps():
        # Sort and sweep on x: once x_lo_j >= x_hi_i, ow <= 0 for j and for
        # every later j in x_lo order, so the scan from i stops there.
        order = sorted(range(len(boxes)), key=lambda k: boxes[k][0])
        for s, i in enumerate(order):
            xl_i, yl_i, xh_i, yh_i = boxes[i]
            for t in range(s + 1, len(order)):
                j = order[t]
                xl_j, yl_j, xh_j, yh_j = boxes[j]
                if xl_j >= xh_i:
                    break
                ow = min(xh_i, xh_j) - max(xl_i, xl_j)
                if ow > eps:
                    oh = min(yh_i, yh_j) - max(yl_i, yl_j)
                    if oh > eps:
                        yield (min(i, j), max(i, j)), ow * oh

    return containment, sizes, area_gap, area_ok, overlaps()


def _as_fraction(value: Number, what: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise ValueError(
            f"{what}: non-rational input {value!r}; use ints or 'p/q' strings"
        )
    raise ValueError(f"{what}: expected a rational number, got {value!r}")


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def verify_layout(
    inst: Instance, layout: Layout, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Check containment, pairwise interior-disjointness, side fidelity, and
    total area against the box in floats, reporting every violation."""
    _check_tol(tol)
    numbers = _numbers(inst, layout, lambda v, _: float(v))
    # np.sum sums floats pairwise, so area_gap keeps its bits
    containment, sizes, area_gap, area_ok, overlaps = _check(inst, *numbers, tol, np.sum)
    rects = inst.rects
    overlaps = tuple(((rects[i].id, rects[j].id), area) for (i, j), area in sorted(overlaps))
    return VerificationReport(
        passed=not containment and not overlaps and not sizes and area_ok,
        containment_violations=tuple(containment),
        overlap_violations=overlaps,
        size_violations=tuple(sizes),
        area_gap=float(area_gap),
        tol=tol,
    )


def verify_exact(inst: Instance, layout: Layout) -> bool:
    """verify_layout's checks at zero tolerance over exact rationals.

    All sides and coordinates must be ints, Fractions, or integer-valued
    floats; anything else raises ValueError, whatever else is wrong.
    Boundary contact between rectangles is legal; any interior overlap,
    overhang, side mismatch, or area gap fails.
    """
    a, b, boxes, sides = _numbers(inst, layout, _as_fraction)
    # Every tol-0 test is invariant under a positive scale, so run them over
    # Python ints on the common grid of all denominators.
    grid = math.lcm(*(v.denominator for row in [(a, b), *boxes, *sides] for v in row))

    def on_grid(row):
        return tuple(v.numerator * (grid // v.denominator) for v in row)

    containment, sizes, _, area_ok, overlaps = _check(
        inst, *on_grid((a, b)), list(map(on_grid, boxes)), list(map(on_grid, sides)), 0, sum
    )
    return not containment and not sizes and area_ok and next(overlaps, None) is None


def _snap_values(values: list[float], anchors: tuple[float, ...], eps: float) -> dict[float, float]:
    """Map each value to its cluster's representative.  Sorted values chain
    into one cluster while consecutive gaps are <= eps; a cluster with a
    member within eps of an anchor maps to the first such anchor, any other
    to its mean.  eps = 0 clusters equal values only."""
    mapping: dict[float, float] = {}
    ordered = sorted(set(values))
    group: list[float] = []

    def flush() -> None:
        if not group:
            return
        rep = None
        for anchor in anchors:
            if any(abs(v - anchor) <= eps for v in group):
                rep = anchor
                break
        if rep is None:
            rep = sum(group) / len(group)
        for v in group:
            mapping[v] = rep
        group.clear()

    for v in ordered:
        if group and v - group[-1] > eps:
            flush()
        group.append(v)
    flush()
    return mapping


def corner_cancellation(layout: Layout, box: BoxSpec, tol: float = DEFAULT_TOL) -> bool:
    """Signed corner test: snap every corner coordinate within tol*scale
    and check the net sign at each snapped point.

    Interior and edge points must sum to 0; the box corners must net +1 at
    (0,0), -1 at (A,0), -1 at (0,B), +1 at (A,B).
    """
    _check_tol(tol)
    a = float(box.width)
    b = float(box.height)
    eps = tol * max(a, b)
    corners = [tuple(float(v) for v in p.as_tuple()) for p in layout.placements]
    x_map = _snap_values([v for c in corners for v in (c[0], c[2])], (0.0, a), eps)
    y_map = _snap_values([v for c in corners for v in (c[1], c[3])], (0.0, b), eps)

    expected = {(0.0, 0.0): 1, (a, 0.0): -1, (0.0, b): -1, (a, b): 1}
    sums = dict.fromkeys(expected, 0)  # a missing box corner nets 0
    for xl, yl, xh, yh in corners:
        xl, xh, yl, yh = x_map[xl], x_map[xh], y_map[yl], y_map[yh]
        for point, sign in (((xl, yl), 1), ((xh, yh), 1), ((xl, yh), -1), ((xh, yl), -1)):
            sums[point] = sums.get(point, 0) + sign
    return all(total == expected.get(point, 0) for point, total in sums.items())


def moment_residual_of_layout(
    inst: Instance, layout: Layout, max_order: int | None = None
) -> float:
    """Largest absolute normalized residual of the truncated moment system
    (rotatable if the instance allows rotation, else fixed-orientation) at
    the given layout.  The system reads only the lower corners of an
    upright rectangle, so its side errors |dx - w| and |dy - h| over the
    scale count too: every coordinate of the layout moves the result."""
    mode = mo.ROTATABLE if inst.rotation_allowed else mo.FIXED
    sys = mo.build_system(inst, max_order, mode)
    residual = np.max(np.abs(mo.residual(sys, mo.layout_to_vars(sys, layout))))
    placed = np.array([p.as_tuple() for p in layout.placements], dtype=float).reshape(-1, 2, 2)
    sides = np.stack([sys.widths, sys.heights], axis=1)
    off = np.abs((placed[:, 1] - placed[:, 0]) / sys.scale - sides)[~sys.free]
    return float(max(residual, np.max(off, initial=0.0)))
