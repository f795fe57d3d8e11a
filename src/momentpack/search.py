"""The gap-fill search that builds every start of a solve.

A solve makes one Search from its moment system and mode.  Its shapes
(_shapes) are one list for all the solve's fills: every rectangle upright
and, in rotatable mode, turned where that is another shape, so a fill
chooses every turn.  Search.fill is a depth-first search, in an order the
caller draws and within a budget of placements the caller passes (the
driver passes GAP_BUDGET), for a tiling that fills the lowest gap of the
skyline first.  After its first backtrack a fill keeps only the shapes
that lie in a sum of shape widths of unplaced rectangles matching the gap,
read from one table of the shapes' width sums that the Search builds at
most once, on the first backtrack of any of its fills (_width_sums; past
WIDTH_SUMS_CAP sums or 64 shapes there is none: the search is unpruned).

A fill ends in one of three ways (Fill): tiled, its whole tree searched
without a tiling, or its budget spent.  Only a tiling makes a start.
"""

from __future__ import annotations

import bisect
import functools
from typing import Iterator, NamedTuple

import numpy as np

from . import moments as mo
from .verify import DEFAULT_TOL

GAP_BUDGET = 300  # placements a gap-fill start tries before it stops searching
WIDTH_SUMS_CAP = 2**17  # sums past which a solve's gap fills run unpruned


def _shapes(sys: mo.MomentSystem, mode: str) -> list[tuple[int, float, float]]:
    """Every way a start may place a rectangle, each (i, w, h) on normalised
    sides: every rectangle upright, in index order, then, in rotatable mode,
    each whose normalised sides differ as floats turned, in index order.
    Turned, a rectangle whose sides are the same float is the same shape.
    Shape k is bit k of the bitmasks of _width_sums and Search.fill."""
    shapes = [(i, w, h) for i, (w, h) in enumerate(sys.sides.tolist())]
    if mode == mo.ROTATABLE:
        shapes += [(i, h, w) for i, w, h in shapes if w != h]
    return shapes


class _WidthSums:
    """Every sum of shape widths up to the box width, each rectangle left
    out or in it as one of its shapes (_shapes).  Two flat arrays sorted by
    sum, read through memoryviews: sums and used (bit k set when shape k is
    in the sum).  Built by _width_sums."""

    def __init__(self, sums: np.ndarray, used: np.ndarray, tol: float):
        self.sums, self.used, self.tol = memoryview(sums), memoryview(used), tol

    def allows(self, gap: float, placed: int) -> int:
        """The shapes that lie in some sum within tol of gap of shapes
        outside the bitmask placed, as a bitmask."""
        sums, used, end = self.sums, self.used, gap + self.tol
        k, allowed = bisect.bisect_left(sums, gap - self.tol), 0
        while k < len(sums) and sums[k] <= end:
            u = used[k]
            if not u & placed:
                allowed |= u
            k += 1
        return allowed


def _width_sums(sys: mo.MomentSystem, shapes: list) -> _WidthSums | None:
    """The width sums of shapes (_shapes); None when the table would hold
    more than WIDTH_SUMS_CAP sums or there are more than 64 shapes (a
    bitmask is one machine word: 32 bits up to 32 shapes, else 64).  Sums
    up to the box width plus tol = (n + 1) * DEFAULT_TOL are kept.  Each
    rectangle in index order joins, as each of its shapes, every sum so far
    that stays within that bound, so a sum adds its members in index order,
    and a step holds no more than the old sums, the new ones, one shifted
    copy and their concatenation."""
    if len(shapes) > 64:
        return None
    word = np.uint32 if len(shapes) <= 32 else np.uint64
    tol = (sys.n_rects + 1) * DEFAULT_TOL
    limit = sys.box_w + tol
    sums, used = np.zeros(1), np.zeros(1, dtype=word)
    ways = [[] for _ in range(sys.n_rects)]  # each rectangle's (width, bit)
    for k, (i, w, _) in enumerate(shapes):
        ways[i].append((w, word(1 << k)))
    for options in ways:
        parts = [(sums, used)]
        for w, bit in options:
            shifted = sums + w
            keep = shifted <= limit
            parts.append((shifted[keep], used[keep] | bit))
            del shifted, keep
        if sum(len(part[0]) for part in parts) > WIDTH_SUMS_CAP:
            return None
        sums, used = (np.concatenate(column) for column in zip(*parts))
        del parts
    order = np.argsort(sums)
    return _WidthSums(sums[order], used[order], tol)


class Fill(NamedTuple):
    """How a gap fill ended.  path holds the placements (i, x, y, w, h) of
    the tiling it reached, else None; nodes counts the placements it made;
    emptied says its stack emptied, so its whole tree held no tiling.  A
    fill with no path that did not empty spent its budget."""

    path: list | None
    nodes: int
    emptied: bool


class Search:
    """One solve's gap-fill search: the system's shapes (_shapes) in the
    solve's mode, and their width sums (_width_sums), built at most once,
    when the first of its fills backtracks."""

    def __init__(self, sys: mo.MomentSystem, mode: str):
        self.sys, self.shapes = sys, _shapes(sys, mode)

    @functools.cached_property
    def width_sums(self) -> _WidthSums | None:
        return _width_sums(self.sys, self.shapes)

    def fill(self, order: list, budget: int) -> Fill:
        """Depth-first search for a tiling of the system's box by its
        rectangles, order being the indices into shapes the search tries
        them in.  A node fills the lowest, then leftmost, segment of the
        skyline (the top outline of the rectangles placed so far).  Its
        children are the shapes of unplaced rectangles whose width fits the
        segment and whose top stays in the box, those that fill its width
        first, each group in order, skipping a (w, h) already tried there:
        equal shapes are interchangeable.  Widths fit and tops merge within
        DEFAULT_TOL.  Every tiling has a rectangle at the lowest, leftmost
        uncovered point, so the search is complete for exact tilings; a
        layout verify_layout accepts, with overlaps and gaps within its
        tolerance, may have no complete fill.  A pass lists children once
        per (segment width, height, placed shapes), for every node with that
        key.

        Pruning by width sums: in a tiling the lowest segment is covered
        exactly by the rectangles standing on it, so once the search first
        backtracks it starts again from the empty box and keeps only the
        children that lie in a sum of shapes of unplaced rectangles within
        (n + 1) * DEFAULT_TOL of the segment's width (the table
        width_sums, read then).  The rectangles the search stands on a
        segment fill the width it records for it within DEFAULT_TOL, and a
        recorded edge drifts from the true sum of widths by at most
        DEFAULT_TOL a placement, so the window holds every sum the search
        can complete a segment with: a pruned child leads to no tiling, and
        with the budget to finish the pruned search finds the tiling the
        unpruned one finds first.  Past the table's limits (width_sums is
        None) the search goes on unpruned, in one pass.  A fill that tiles
        on its first descent builds no table, and a fill is the same
        whether the table was built before it or not.

        The search stops at a tiling, when its stack empties, or after
        budget placements, counted over both passes (Fill)."""
        sys, shapes = self.sys, self.shapes
        tol, n, a, b = DEFAULT_TOL, sys.n_rects, sys.box_w, sys.box_h
        blocks = [0] * n  # each rectangle's shape bits, set in bits once it is placed
        for k, (i, _, _) in enumerate(shapes):
            blocks[i] |= 1 << k
        xs, tops = [0.0, a], [0.0]  # segment j spans xs[j] to xs[j + 1]
        bits, path, undo = 0, [], []
        sums, first, lookups = None, True, {}

        def children() -> tuple[int, Iterator]:
            y = min(tops)
            j = tops.index(y)
            gap = xs[j + 1] - xs[j]
            key = (gap, y, bits)
            kids = lookups.get(key)
            if kids is None:
                allowed = -1 if sums is None else sums.allows(gap, bits)
                kids = lookups[key] = fitting(allowed, gap, y)
            return j, iter(kids)

        def fitting(allowed: int, gap: float, y: float) -> list:
            # The children among the shapes in the bitmask allowed (-1: all).
            wide, narrow, room, free = gap + tol, gap - tol, b - y + tol, allowed & ~bits
            exact, rest, seen = [], [], set()
            for k in order:
                shape = shapes[k]
                _, w, h = shape
                if not free >> k & 1 or w > wide or h > room or (w, h) in seen:
                    continue
                seen.add((w, h))
                (exact if w >= narrow else rest).append(shape)
            return exact + rest

        stack, nodes = [children()], 0
        while stack and nodes < budget:
            j, todo = stack[-1]
            child = next(todo, None)
            if child is None:  # every child tried: take back the placement made here
                if first:  # the first backtrack: start again, pruned
                    sums, first = self.width_sums, False
                    if sums is not None:
                        xs, tops, bits, path, undo, lookups = [0.0, a], [0.0], 0, [], [], {}
                        stack = [children()]
                        continue
                stack.pop()
                if path:
                    bits ^= blocks[path.pop()[0]]
                    lo, count, old_xs, old_tops = undo.pop()
                    xs[lo : lo + count], tops[lo : lo + count] = old_xs, old_tops
                continue
            nodes += 1
            i, w, h = child
            x, y = xs[j], tops[j]
            # Segment j becomes the rectangle's top, then the rest of its
            # width at y, if any; a top within tol of a neighbour's merges
            # with it, keeping the left one's height.
            t = y + h
            left = j > 0 and abs(tops[j - 1] - t) <= tol
            lo, hi = (j - 1 if left else j), j + 1
            new_xs, new_tops = [xs[lo]], [tops[lo] if left else t]
            if w < xs[hi] - x - tol:
                new_xs.append(x + w)
                new_tops.append(y)
            elif hi < len(tops) and abs(tops[hi] - t) <= tol:
                hi += 1
            undo.append((lo, len(new_xs), xs[lo:hi], tops[lo:hi]))
            xs[lo:hi], tops[lo:hi] = new_xs, new_tops
            bits |= blocks[i]
            path.append((i, x, y, w, h))
            if len(path) == n:
                return Fill(path, nodes, False)
            stack.append(children())
        return Fill(None, nodes, not stack)
