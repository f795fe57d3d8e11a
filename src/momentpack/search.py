"""The gap-fill search that builds every start of a solve.

A solve makes two Searches from its moment system and mode, one a frame.
The given frame sees the box as A x B and each rectangle as w x h; the
transposed frame sees the box as B x A and each rectangle as h x w, so a
tiling of one frame is a tiling of the other with x and y swapped.  Each
frame's shapes (_shapes, seen in that frame) are one list for all the
solve's fills in it: every rectangle upright and, in rotatable mode,
turned where that is another shape, so a fill chooses every turn.
Search.fill is a depth-first search, in an order and within a budget of
placements that the caller passes (solve_multistart passes GAP_BUDGET,
and orders each frame's first start largest first), for a tiling that
fills the lowest gap of its frame's skyline first; every exact tiling
has a complete fill in either frame.
After its first backtrack a fill keeps only the shapes that lie in a sum
of shape widths of unplaced rectangles matching the gap, read from one
table of the frame's width sums (widths along the frame's box width: the
given widths up to A, or the heights up to B) that the Search builds at
most once, on the first backtrack of any of its fills (_width_sums; past
WIDTH_SUMS_CAP sums or 64 shapes there is none: the search is unpruned).

Each Search also keeps a record of dead states for all its fills: a
skyline and set of placed shapes below which a fill has searched every
child without a tiling (after Zobrist 1970's transposition table, with
exact keys).  A fill that reaches a recorded state takes that placement
back at once.  The record skips only subtrees that hold no tiling, so a
fill that tiles returns the path it would return in a fresh Search; only
its count of placements depends on the frame's earlier fills, and can
only be lower.

A fill ends in one of three ways (Fill): tiled, its whole tree searched
without a tiling, or its budget spent.  Only a tiling makes a start, and
it is reported in the given frame, where LM, the moment system and the
verifier work.
"""

from __future__ import annotations

import bisect
import functools
from typing import Iterator, NamedTuple

import numpy as np

from . import moments as mo
from .verify import DEFAULT_TOL

GAP_BUDGET = 300  # placements a gap-fill start tries before it stops searching
WIDTH_SUMS_CAP = 2**19  # sums past which a solve's gap fills run unpruned
DEAD_MIN = 8  # placements a dead state's subtree took before a Search records it


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
    """Every sum of shape widths up to a frame's box width, each rectangle
    left out or in it as one of its shapes (_shapes).  Two flat arrays
    sorted by sum, read through memoryviews: sums and used (bit k set when
    shape k is in the sum).  Built by _width_sums."""

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


def _width_sums(shapes: list, width: float, n: int) -> _WidthSums | None:
    """The width sums of the shapes (i, w, h) of n rectangles, as a frame
    sees them (Search.shapes); None when the table would hold more than
    WIDTH_SUMS_CAP sums or there are more than 64 shapes (a bitmask is one
    machine word: 32 bits up to 32 shapes, else 64).  Sums up to the
    frame's box width plus tol = (n + 1) * DEFAULT_TOL are kept.  Each
    rectangle in index order joins, as each of its shapes, every sum so far
    that stays within that bound, so a sum adds its members in index order,
    and a step holds no more than the old sums, the new ones, one shifted
    copy and their concatenation."""
    if len(shapes) > 64:
        return None
    word = np.uint32 if len(shapes) <= 32 else np.uint64
    tol = (n + 1) * DEFAULT_TOL
    limit = width + tol
    sums, used = np.zeros(1), np.zeros(1, dtype=word)
    ways = [[] for _ in range(n)]  # each rectangle's (width, bit)
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
    the tiling it reached, in the given frame, else None; nodes counts the
    placements it made; emptied says its stack emptied, so its whole tree
    held no tiling.  A fill with no path that did not empty spent its
    budget."""

    path: list | None
    nodes: int
    emptied: bool


class Search:
    """One frame of a solve's gap-fill search: the system's shapes
    (_shapes) in the solve's mode as the frame sees them, each (i, w, h)
    given or (i, h, w) transposed, the frame's box (width, height), and the
    shapes' width sums along that width (_width_sums), built at most once,
    when the first of its fills backtracks, and the record of dead states
    its fills share (dead: for each bitmask of placed shapes, the skylines
    (edges, tops) that lead to no tiling with those shapes placed, as
    tuples of floats, compared exactly).  Shape k is the same rectangle in
    the same orientation in either frame."""

    def __init__(self, sys: mo.MomentSystem, mode: str, transposed: bool = False):
        shapes, box = _shapes(sys, mode), (sys.box_w, sys.box_h)
        if transposed:
            shapes, box = [(i, h, w) for i, w, h in shapes], box[::-1]
        self.sys, self.transposed, self.shapes, self.box = sys, transposed, shapes, box
        self.dead: dict[int, set] = {}

    @functools.cached_property
    def width_sums(self) -> _WidthSums | None:
        return _width_sums(self.shapes, self.box[0], self.sys.n_rects)

    def fill(self, order: list, budget: int) -> Fill:
        """Depth-first search for a tiling of the frame's box by its
        rectangles, order being the indices into shapes the search tries
        them in.  Every side, edge and segment below is the frame's: in the
        transposed frame a segment runs along the box's given height.  A
        node fills the lowest, then leftmost, segment of the skyline (the
        top outline of the rectangles placed so far).  Its
        children are the shapes of unplaced rectangles whose width fits the
        segment and whose top stays in the box, those that fill its width
        first, each group in order, skipping a (w, h) already tried there:
        equal shapes are interchangeable.  Widths fit and tops merge within
        DEFAULT_TOL.  Every tiling has a rectangle at the lowest, leftmost
        uncovered point, so the search is complete for exact tilings in
        either frame (a tiling of one is a tiling of the other); a
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

        Dead states: a node whose children have all been tried leads to no
        tiling, in either pass (a pruned child leads to none), and its
        state, the skyline's edges and tops and the placed shapes, holds
        all the node's subtree depends on.  When that subtree took at least
        DEAD_MIN placements, or the node is the empty box, the state joins
        the Search's record (dead), which every later node of this and
        later fills in the frame looks up: a node at a recorded state has
        no children, so the placement that reached it is taken back at
        once, and reaching it is a backtrack (the first one starts the
        pruned pass).  Of equal shapes only one is tried at a node, but
        swapping two equal rectangles maps tilings to tilings, so a dead
        state has no tiling under any order.  Skipping only subtrees with no
        tiling, a fill that tiles returns the path a fill in a fresh Search
        returns, in no more placements; a fill whose stack empties leaves
        the empty box recorded, and every later fill in the frame empties.
        So a fill's path and ending, within the budget a fresh Search needs,
        do not depend on the fills before it, and its count of placements
        does; with a budget that a fresh Search spends, an earlier fill can
        let a later one reach its tiling.

        The search stops at a tiling, when its stack empties, or after
        budget placements, counted over both passes (Fill).  A tiling's
        placements are mapped back to the given frame, each (i, x, y, w, h)
        of the transposed frame becoming (i, y, x, h, w)."""
        shapes, (a, b), dead = self.shapes, self.box, self.dead
        tol, n = DEFAULT_TOL, self.sys.n_rects
        blocks = [0] * n  # each rectangle's shape bits, set in bits once it is placed
        for k, (i, _, _) in enumerate(shapes):
            blocks[i] |= 1 << k
        xs, tops = (0.0, a), (0.0,)  # segment j spans xs[j] to xs[j + 1]
        bits, path, undo = 0, [], []
        sums, first, lookups = None, True, {}

        def children(count: int) -> tuple[int, Iterator, int]:
            # A node: its segment, its children and the placements made
            # before it.  A recorded dead state has no children.
            skylines = dead.get(bits)
            if skylines is not None and (xs, tops) in skylines:
                return 0, iter(()), count
            y = min(tops)
            j = tops.index(y)
            gap = xs[j + 1] - xs[j]
            key = (gap, y, bits)
            kids = lookups.get(key)
            if kids is None:
                allowed = -1 if sums is None else sums.allows(gap, bits)
                kids = lookups[key] = fitting(allowed, gap, y)
            return j, iter(kids), count

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

        stack, nodes = [children(0)], 0
        while stack and nodes < budget:
            j, todo, since = stack[-1]
            child = next(todo, None)
            if child is None:  # every child tried: no tiling below this node
                if nodes - since >= DEAD_MIN or len(stack) == 1:
                    dead.setdefault(bits, set()).add((xs, tops))
                if first:  # the first backtrack: start again, pruned
                    sums, first = self.width_sums, False
                    if sums is not None:
                        xs, tops, bits, path, undo, lookups = (0.0, a), (0.0,), 0, [], [], {}
                        stack = [children(nodes)]
                        continue
                stack.pop()
                if path:  # take back the placement made here
                    bits ^= blocks[path.pop()[0]]
                    xs, tops = undo.pop()
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
            top = tops[lo] if left else t
            if w < xs[hi] - x - tol:
                new_xs, new_tops = (xs[lo], x + w), (top, y)
            else:
                new_xs, new_tops = (xs[lo],), (top,)
                if hi < len(tops) and abs(tops[hi] - t) <= tol:
                    hi += 1
            undo.append((xs, tops))
            xs, tops = xs[:lo] + new_xs + xs[hi:], tops[:lo] + new_tops + tops[hi:]
            bits |= blocks[i]
            path.append((i, x, y, w, h))
            if len(path) == n:
                if self.transposed:
                    path = [(i, y, x, h, w) for i, x, y, w, h in path]
                return Fill(path, nodes, False)
            stack.append(children(nodes))
        return Fill(None, nodes, not stack)
