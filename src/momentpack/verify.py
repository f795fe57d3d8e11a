"""Geometric verification of layouts, independent of the moment machinery.

One check core, _check, answers "does this layout pack the box perfectly"
at a tolerance tol over some number type: containment, side fidelity and
total area per rectangle, then the interior-disjointness of every pair.
tol has one meaning: every per-rectangle and per-pair test compares a
length (overhang, side error, penetration depth min(ow, oh) of a pair)
with eps = tol * scale, scale = max(A, B); only the total area gap is
compared with tol * A * B.  The checks run over numpy arrays, one row of
numbers per rectangle.  Pairs come from a sort and sweep on x (Bentley &
Wood 1980): placements are taken in x_lo order, and each is tested only
against the later ones whose x_lo lies below its x_hi, since no other pair
can overlap in x.  searchsorted finds where each placement's run of
candidates ends; the candidates are then numbered and tested in blocks of
_BLOCK pairs, so memory stays O(n + _BLOCK).  A tiling by n full-width
strips still tests all n(n-1)/2 pairs; guillotine-like layouts test a few
per rectangle.

* verify_layout: the core over floats; reports every violation it finds,
  naming each rectangle (and its placement) by its 1-based position,
  overlap rows as (i, j), i < j, in that order.
* verify_exact: the same checks at tol 0 over exact rationals, stopping
  at the first failure.  At tol 0 every float test becomes the exact one:
  overhang > 0, side mismatch != 0, penetration > 0, area gap = 0, so
  boundary contact is legal and interior overlap is not.  These tests are
  invariant under a positive scale, so instances._exact converts every
  number to a Python int or a Fraction first, and the checks then run over
  ints on the common grid (the lcm of all denominators).  The largest
  value they compute is the total placed area, so with every grid value
  at most M in size they run on int64 arrays when (4n + 1) * M**2 < 2**63,
  and otherwise on object arrays of Python ints, which never overflow.
  The sweep stops at its first block that holds an overlap.
* corner_cancellation: sign bookkeeping on the corner multiset.  Each
  placement contributes +1 at (x_lo, y_lo) and (x_hi, y_hi) and -1 at the
  other two corners.  _snap snaps the x values, then the y values, each
  axis on its own np.unique (anchored at 0 and the box side), and each box
  corner joins with its expected sign negated, +1/-1/-1/+1 at (0,0),
  (A,0), (0,B), (A,B); equal snapped points are merged (np.unique) and
  their signs summed (np.bincount): in a perfect packing every point nets
  0.  Snapping each axis differs from clustering the points within L-inf
  distance eps only when a chain of coordinates, each within eps of the
  next, spans more than eps.

_snap is the package's one coordinate-clustering helper (the public
snap_layout uses it too), _side_error its one side test, and
moments._corner_array the one float view of a layout that every float
check reads.

moment_residual_of_layout bridges back to the equation side: the largest
normalized residual of the truncated moment system evaluated at the layout,
each rectangle read in the orientation nearest its placed sides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import moments as mo
from .instances import BoxSpec, Instance, Layout, _check_placement_count, _exact

__all__ = [
    "VerificationReport",
    "area_can_pass",
    "fit_can_pass",
    "verify_layout",
    "verify_exact",
    "corner_cancellation",
    "moment_residual_of_layout",
]

DEFAULT_TOL = 1e-7
_BLOCK = 2**15  # candidate pairs the sweep tests at once: memory O(n + _BLOCK)


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


def _side_error(dx, dy, w, h, rotation_allowed: bool):
    """Largest side error max(|dx - w|, |dy - h|) of a dx x dy placement of
    a w x h rectangle; with rotation allowed, the smaller of that and the
    error of the turned rectangle.  It is 0 exactly when the sides match.
    Works elementwise on arrays as on numbers."""
    err = np.maximum(abs(dx - w), abs(dy - h))
    return np.minimum(err, np.maximum(abs(dx - h), abs(dy - w))) if rotation_allowed else err


def _check(inst: Instance, a, b, boxes: np.ndarray, sides: np.ndarray, tol: float):
    """Run the checks shared by verify_layout and verify_exact over a (4, n)
    array of placements, rows x_lo, y_lo, x_hi, y_hi, and a (2, n) array of
    rect sides, rows w, h: both float64, both int64 when no intermediate can
    overflow it, or both object arrays of Python ints.

    Returns (containment, sizes, area_gap, area_ok, overlaps): the violation
    rows of the O(n) checks in placement order, keyed by 1-based position,
    the total area minus the box area and whether it is within tol, and a
    lazy iterator over the blocks of the sweep (see _overlaps).

    Overhang, side error and penetration min(ow, oh) are lengths judged
    against eps = tol * scale; size rows carry the symmetric residuals
    |dx+dy - (w+h)| and |dx*dy - w*h|, overlap rows the area ow * oh.
    """
    eps = tol * max(a, b)
    lo, hi = boxes[:2], boxes[2:]
    overhang = np.concatenate((-lo, hi - [[a], [b]])).max(axis=0, initial=0)
    out = (overhang > eps).nonzero()[0]
    containment = list(zip((out + 1).tolist(), overhang[out].tolist()))
    d = hi - lo
    bad = (_side_error(*d, *sides, inst.rotation_allowed) > eps).nonzero()[0]
    sizes = [
        (k + 1, abs(dx + dy - (w + h)), abs(dx * dy - w * h))
        for k, (dx, dy, w, h) in zip(bad.tolist(), np.concatenate((d, sides))[:, bad].T.tolist())
    ]
    area_gap = np.sum(d[0] * d[1]) - a * b
    area_ok = bool(abs(area_gap) <= tol * a * b)
    return containment, sizes, area_gap, area_ok, _overlaps(boxes, eps)


def _overlaps(boxes: np.ndarray, eps):
    """Sort and sweep on x: yield, block by block, the pairs whose
    penetration exceeds eps, as arrays of 0-based positions i and j and of
    their areas ow * oh.

    In x_lo order, once x_lo_t >= x_hi_s, ow <= 0 for t and every later t,
    so position s is tested against s + 1, ... up to the first such t,
    which searchsorted finds.  The candidate pairs are numbered k = 0, 1,
    ... in that order, counts[s] of them for each s, and tested _BLOCK at a
    time."""
    n = boxes.shape[1]
    order = boxes[0].argsort(kind="stable")
    swept = boxes.take(order, axis=1)
    rank = np.arange(1, n + 1)
    counts = np.maximum(swept[0].searchsorted(swept[2]) - rank, 0)
    stops = counts.cumsum()
    shift = stops - counts - rank  # candidate k is the pair (s, k - shift[s])
    total = int(stops[-1]) if n else 0
    for first in range(0, total, _BLOCK):
        k = np.arange(first, min(first + _BLOCK, total))
        s = stops.searchsorted(k, side="right")
        t = k - shift[s]
        p, q = swept.take(s, axis=1), swept.take(t, axis=1)
        ow, oh = np.minimum(p[2:], q[2:]) - np.maximum(p[:2], q[:2])
        hit = (np.minimum(ow, oh) > eps).nonzero()[0]
        yield order[s[hit]], order[t[hit]], ow[hit] * oh[hit]


def area_can_pass(inst: Instance) -> bool:
    """Whether some layout of inst could pass verify_layout at DEFAULT_TOL
    by area: its sides are within eps = DEFAULT_TOL * scale, so each placed
    area is within eps * (w + h) + eps**2 of w * h, and its areas sum to
    within DEFAULT_TOL * A * B of the box area.  So
    |sum w * h - A * B| <= DEFAULT_TOL * A * B + that slack."""
    a = float(inst.box.width)
    b = float(inst.box.height)
    eps = DEFAULT_TOL * max(a, b)
    slack = sum(eps * (float(r.width) + float(r.height)) + eps * eps for r in inst.rects)
    return abs(float(inst.area_sum - inst.box.area)) <= DEFAULT_TOL * a * b + slack


def fit_can_pass(inst: Instance) -> bool:
    """Whether every rectangle of inst fits the box in some orientation
    verify_layout allows at DEFAULT_TOL: a passing placement overhangs each
    wall by at most eps = DEFAULT_TOL * scale, so dx <= A + 2 * eps, and its
    side error is at most eps, so w <= dx + eps <= A + 3 * eps; likewise
    h <= B + 3 * eps, or the same with w and h swapped when rotation is
    allowed."""
    a = float(inst.box.width)
    b = float(inst.box.height)
    eps = DEFAULT_TOL * max(a, b)

    def fits(w: float, h: float) -> bool:
        return w <= a + 3 * eps and h <= b + 3 * eps

    return all(
        fits(w, h) or (inst.rotation_allowed and fits(h, w))
        for w, h in ((float(r.width), float(r.height)) for r in inst.rects)
    )


def _on_grid(nums: list, n: int) -> list[int]:
    """nums, the box sides, then each placement's corners, then each of the
    n rect sides, as Python ints on their common grid: the lcm of the
    denominators.  The first number _exact rejects raises, named by place."""
    exact = []
    for k, v in enumerate(nums):
        try:
            exact.append(_exact(v))
        except ValueError as exc:
            if k < 2:
                what = ("box width", "box height")[k]
            elif k < 2 + 4 * n:
                what = f"placement {(k - 2) // 4 + 1}"
            else:
                j = k - 2 - 4 * n
                what = f"rect {j // 2 + 1} {('width', 'height')[j % 2]}"
            raise ValueError(f"{what}: {exc}") from None
    grid = math.lcm(*(v.denominator for v in exact if type(v) is not int))
    return [v.numerator * (grid // v.denominator) for v in exact]


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def verify_layout(
    inst: Instance, layout: Layout, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Check containment, pairwise interior-disjointness, side fidelity, and
    total area against the box in floats, reporting every violation."""
    _check_tol(tol)
    # Box, placements, then rect sides: the first that fits no float raises.
    _check_placement_count(inst, layout)
    a = float(inst.box.width)
    b = float(inst.box.height)
    boxes = mo._corner_array(layout).T
    sides = np.array([(r.width, r.height) for r in inst.rects], dtype=float).reshape(-1, 2).T
    # Python floats overflow to inf silently, and so do these arrays; np.sum
    # sums floats pairwise, so area_gap keeps its bits.
    with np.errstate(over="ignore", invalid="ignore"):
        containment, sizes, area_gap, area_ok, sweep = _check(inst, a, b, boxes, sides, tol)
        overlaps = tuple(
            sorted(
                ((min(i, j) + 1, max(i, j) + 1), area)
                for block in sweep
                for i, j, area in zip(*(v.tolist() for v in block))
            )
        )
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

    All sides and coordinates must be exact: ints, Fractions, numpy
    integers or other numbers.Rational, or whole floats of any width;
    anything else raises ValueError, whatever else is wrong.
    Boundary contact between rectangles is legal; any interior overlap,
    overhang, side mismatch, or area gap fails.
    """
    # Box, placements, then rect sides: the first bad number names the error.
    _check_placement_count(inst, layout)
    n = len(layout.placements)
    nums = [inst.box.width, inst.box.height]
    nums += itertools.chain.from_iterable(
        (p.x_lo, p.y_lo, p.x_hi, p.y_hi) for p in layout.placements
    )
    nums += itertools.chain.from_iterable((r.width, r.height) for r in inst.rects)
    # Every tol-0 test is invariant under a positive scale, so run them over
    # ints on the common grid of all denominators.
    if not all(type(v) is int for v in nums):
        nums = _on_grid(nums, n)
    # The largest intermediate is the area sum: n placed areas, each at most
    # (2M)**2, less the box area, at most M**2.  Below 2**63 int64 holds
    # every one; past it, object arrays of Python ints, which never overflow.
    big = max(max(nums), -min(nums))
    exact = np.array(nums, dtype=np.int64 if (4 * n + 1) * big * big < 2**63 else object)
    a, b = nums[:2]
    boxes = exact[2 : 2 + 4 * n].reshape(-1, 4).T
    sides = exact[2 + 4 * n :].reshape(-1, 2).T
    containment, sizes, _, area_ok, sweep = _check(inst, a, b, boxes, sides, 0)
    # Stop at the first failure: before the sweep, or at its first block
    # that holds an overlap.
    failed = containment or sizes or not area_ok
    return not failed and not any(len(areas) for _, _, areas in sweep)


def _snap(corners: np.ndarray, sides: tuple[float, float], eps: float) -> np.ndarray:
    """A copy of an (n, 4) corner array, rows x_lo, y_lo, x_hi, y_hi, with
    each coordinate replaced by its cluster's representative.  Per axis, the
    sorted distinct values (np.unique) chain into one cluster while gaps are
    <= eps; a cluster with a member within eps of 0, else of the box side,
    maps to that value, any other to its mean.  eps = 0 clusters equal
    values only.  Of equal values (0.0 and -0.0) the first in sorted order
    stands for all of them."""
    snapped = np.empty(corners.shape)
    for axis, side in enumerate(sides):
        distinct, inverse = np.unique(corners[:, axis::2], return_inverse=True)
        starts = np.ones(distinct.shape, dtype=bool)  # the first value starts a cluster
        with np.errstate(over="ignore"):  # far apart values overflow, as Python floats do
            starts[1:] = np.diff(distinct) > eps
            cluster = starts.cumsum() - 1
            rep = np.bincount(cluster, distinct) / np.bincount(cluster)
            for anchor in (side, 0.0):  # 0 last, so it wins a cluster near both
                rep[cluster[abs(distinct - anchor) <= eps]] = anchor
        snapped[:, axis::2] = rep[cluster[inverse.reshape(-1, 2)]]
    return snapped


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
    corners = _snap(mo._corner_array(layout), (a, b), eps)
    # With each box corner's sign negated a perfect packing nets 0 at every
    # point; a dict, so corners that coincide when a side rounds to 0.0 keep
    # one sign.  Points are x + iy, so one np.unique merges equal points.
    expected = {(0.0, 0.0): 1, (a, 0.0): -1, (0.0, b): -1, (a, b): 1}
    box_x, box_y = zip(*expected)
    points = np.concatenate((corners[:, [0, 2, 0, 2]].ravel(), box_x)) + 0j
    points.imag = np.concatenate((corners[:, [1, 3, 3, 1]].ravel(), box_y))
    signs = np.concatenate((np.tile([1, 1, -1, -1], len(corners)), [-v for v in expected.values()]))
    return not np.bincount(np.unique(points, return_inverse=True)[1], signs).any()


def moment_residual_of_layout(
    inst: Instance, layout: Layout, max_order: int | None = None
) -> float:
    """Largest absolute normalized residual of the truncated moment system
    at the given layout, read with the sides as placed: each rectangle takes
    its given sides or, if the instance allows rotation, those turned,
    whichever has the smaller _side_error.  The system reads only the lower
    corners and those sides, so that side error over the scale counts too:
    every coordinate of the layout moves the result."""
    sys = mo.build_system(inst, max_order)
    _check_placement_count(inst, layout)
    corners = mo._corner_array(layout)
    with np.errstate(over="ignore", invalid="ignore"):
        d = ((corners[:, 2:] - corners[:, :2]) / sys.scale).T
        upright = _side_error(*d, *sys.sides.T, False)
        off = _side_error(*d, *sys.sides.T, inst.rotation_allowed)
    sides = np.where((off < upright)[:, None], sys.sides[:, ::-1], sys.sides)
    residual = np.max(np.abs(mo.residual(sys, (corners[:, :2] / sys.scale).ravel(), sides)))
    return float(max(residual, np.max(off, initial=0.0)))
