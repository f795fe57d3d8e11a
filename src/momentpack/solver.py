"""Damped least-squares solving of truncated moment systems with multistart.

The core, solve_single, runs Levenberg-Marquardt from one start vector: each
attempt solves (J^T J + lambda I) delta = -J^T r and accepts the candidate
x + delta only on strict cost decrease (lambda halves); a rejection
quadruples lambda for the next attempt (Madsen, Nielsen & Tingleff 2004,
section 3.2).  The unknowns are unconstrained: a candidate whose residual
is not finite costs inf, so it is rejected like any other that does not
lower the cost, and every accepted iterate stays finite.  Containment in
the box is the verifier's check, not the solver's.

solve_multistart layers deterministic restarts on top and treats geometric
verification, not the residual, as the definition of success.  Starts are
tried one at a time, in index order, and the first that verifies wins: each
is handed once, as it stopped, converged or not, to verify_layout at its
default tolerance, the one `momentpack verify` uses, and no start after the
winner is built.  So more starts never change a verified answer.

Each start is a gap fill (_start_vector): a depth-first search, in a seeded
order and within GAP_BUDGET placements, for a tiling that fills the lowest
gap of the skyline first.  Only a search that places every rectangle makes
a start; one that runs out of budget makes none, and with no start the
report is exhausted with reason "fill".  A solve builds one list of shapes
(_shapes) for all its starts: every rectangle upright and, in rotatable
mode, turned where that is another shape, so the start chooses every turn;
LM then moves the rectangles of each start, two unknowns each, in the
orientation its gap fill chose, never their sides.  After its first
backtrack a search keeps only the shapes that lie in a sum of shape widths
of unplaced rectangles matching the gap, read from one table of that
list's width sums built at most once a solve (_width_sums; past
WIDTH_SUMS_CAP sums or 64 shapes there is none: the search is unpruned).
So the construction wins exact tilings: a start that tiles the box as
drawn verifies before any LM step (iterations_total 0).  The moment
system decides the rest: an instance that tiles only within the verifier's
tolerance, whose moment system keeps a residual floor above RESIDUAL_TOL,
is reported from a start that stopped there.  A report's final_residual_inf
is the max |r| that judged its start.  Reports are bitwise deterministic
for fixed arguments.

The stop rule is one set of module constants, read at call time.  A start
runs from lambda LAMBDA0 and stops for one of three reasons: max |r| <=
RESIDUAL_TOL (converged), lambda above LAMBDA_MAX or max_iters accepted
steps.  A start at a residual floor above RESIDUAL_TOL, as a near-tiling's
is, stops by lambda: there no step lowers the cost, so each rejected
attempt quadruples lambda until it passes LAMBDA_MAX.  LAMBDA_MIN keeps
lambda above 0, so a rejected attempt always raises it.  A converged start
is not refined further: at a tiling the moment rows are well conditioned,
so max |r| <= RESIDUAL_TOL puts the layout far inside the verifier's
DEFAULT_TOL.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import moments as mo
from .instances import Instance, Layout, Placement, _layout_doc
from .verify import DEFAULT_TOL, _snap, area_can_pass, fit_can_pass, verify_layout

__all__ = [
    "SolveConfig",
    "SolveReport",
    "snap_layout",
    "solve_single",
    "solve_multistart",
]

LAMBDA_DECREASE = 0.5
LAMBDA_INCREASE = 4.0
LAMBDA_MIN = 1e-14
LAMBDA_MAX = 1e12
LAMBDA0 = 1e-3
RESIDUAL_TOL = 1e-10  # a start converged once max |r| is at most this
GAP_BUDGET = 300  # placements a gap-fill start tries before it stops searching
WIDTH_SUMS_CAP = 2**17  # sums past which a solve's gap fills run unpruned
SNAP_FRACTION = 0.3  # snap_layout merges within this share of the verifier tolerance
_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class SolveConfig:
    """Checked when built: a field that is not an int (numpy ints count,
    bools do not) or out of range raises ValueError."""

    max_iters: int = 500
    restarts: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SolveReport:
    """status is converged_verified, converged_unverified, or exhausted;
    converged_verified always means the reported layout passed geometric
    verification.  iterations_total counts the accepted LM steps of the
    starts tried.  best_layout is the winner's as it stopped,
    final_residual_inf the max |r| that judged it there, once: at most
    RESIDUAL_TOL for a winner that converged or tiled as drawn, larger for
    one that did not.  start_index is the winner's, the lowest-index start
    that verified, else the start with the lowest final max |r|, ties going
    to the lowest index.  converged_unverified means some start reached
    RESIDUAL_TOL and none verified.  When no start is tried, because a gate
    rejected the instance (reason "area" or "fit") or no gap fill reached a
    tiling (reason "fill"), the report is exhausted with best_layout None,
    final_residual_inf inf, iterations_total 0 and start_index -1."""

    status: str
    best_layout: Layout | None
    final_residual_inf: float
    iterations_total: int
    start_index: int
    wall_time_s: float
    reason: str | None = None

    def to_dict(self) -> dict:
        layout = self.best_layout
        return {
            "status": self.status,
            "reason": self.reason,
            "best_layout": None if layout is None else _layout_doc(layout),
            "final_residual_inf": self.final_residual_inf,
            "iterations_total": self.iterations_total,
            "start_index": self.start_index,
            "wall_time_s": self.wall_time_s,
        }


# -- Initialization ----------------------------------------------------------


def _shapes(sys: mo.MomentSystem, mode: str) -> list[tuple[int, float, float]]:
    """Every way a start may place a rectangle, each (i, w, h) on normalised
    sides: every rectangle upright, in index order, then, in rotatable mode,
    each whose normalised sides differ as floats turned, in index order.
    Turned, a rectangle whose sides are the same float is the same shape.
    Shape k is bit k of the bitmasks of _width_sums and _gap_fill."""
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


def _gap_fill(
    sys: mo.MomentSystem,
    shapes: list,
    order: list,
    width_sums: Callable[[], _WidthSums | None],
) -> list | None:
    """Depth-first search for a tiling of the system's box by its
    rectangles, shapes being the ways to place them (_shapes) and order the
    indices into shapes the search tries them in.  A node fills the lowest,
    then leftmost, segment of the skyline (the top outline of the
    rectangles placed so far).  Its children are the shapes of unplaced
    rectangles whose width fits the segment and whose top stays in the box,
    those that fill its width first, each group in order, skipping a (w, h)
    already tried there: equal shapes are interchangeable.  Widths fit and
    tops merge within DEFAULT_TOL.  Every tiling has a rectangle at the
    lowest, leftmost uncovered point, so the search is complete for exact
    tilings; a layout verify_layout accepts, with overlaps and gaps within
    its tolerance, may have no complete fill.  A pass lists children once
    per (segment width, height, placed shapes), for every node with that key.

    Pruning by width sums: in a tiling the lowest segment is covered exactly
    by the rectangles standing on it, so once the search first backtracks it
    starts again from the empty box and keeps only the children that lie in
    a sum of shapes of unplaced rectangles within (n + 1) * DEFAULT_TOL of
    the segment's width (the table width_sums() returns, called then).  The
    rectangles the search stands on a segment fill the width it records for
    it within DEFAULT_TOL, and a recorded edge drifts from the true sum of
    widths by at most DEFAULT_TOL a placement, so the window holds every sum
    the search can complete a segment with: a pruned child leads to no
    tiling, and with the budget to finish the pruned search finds the tiling
    the unpruned one finds first.  Past the table's limits (width_sums()
    returns None) the search goes on unpruned, in one pass.  A start that
    tiles on its first descent builds no table, and a start's fill is the
    same whether the table was built before it or not.

    The search stops at a tiling, and returns its placements (i, x, y, w,
    h), or after GAP_BUDGET placements, counted over both passes, and
    returns None."""
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
    while stack and nodes < GAP_BUDGET:
        j, todo = stack[-1]
        child = next(todo, None)
        if child is None:  # every child tried: take back the placement made here
            if first:  # the first backtrack: start again, pruned
                sums, first = width_sums(), False
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
        # Segment j becomes the rectangle's top, then the rest of its width
        # at y, if any; a top within tol of a neighbour's merges with it,
        # keeping the left one's height.
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
            return path
        stack.append(children())
    return None


def _start_vector(
    sys: mo.MomentSystem,
    shapes: list,
    seed: int,
    start_index: int,
    width_sums: Callable[[], _WidthSums | None],
) -> tuple[np.ndarray, np.ndarray] | None:
    """A gap fill (_gap_fill) of shapes, the rectangles' shapes, in an
    order drawn from a generator seeded by seed and start_index.  Returns
    the lower corners of the tiling it reached, the system's unknowns, and
    the (n, 2) sides each rectangle is placed with: its given pair or that
    pair swapped; None when the search ends without a tiling.  Plain
    Python floats in a fixed order, so a start is the same bytes on every
    run.  shapes is the solve's list (_shapes), and width_sums returns its
    width sums when the search first backtracks: solve_multistart passes
    both, built once for all its starts."""
    rng = np.random.default_rng(seed * _SEED_STRIDE + start_index)
    order = rng.permutation(len(shapes)).tolist()
    path = _gap_fill(sys, shapes, order, width_sums)
    if path is None:
        return None
    corners, sides = [()] * sys.n_rects, [()] * sys.n_rects
    for i, x, y, w, h in path:
        corners[i], sides[i] = (x, y), (w, h)
    return np.array(corners).ravel(), np.array(sides)


# -- Core iteration ----------------------------------------------------------


def _cost(r: np.ndarray) -> float:
    """The residual 2-norm, inf where the residual is not finite (its norm
    is then inf or NaN)."""
    cost = float(np.linalg.norm(r))
    return math.inf if math.isnan(cost) else cost


def solve_single(
    sys: mo.MomentSystem,
    x0: np.ndarray,
    cfg: SolveConfig | None = None,
    sides: np.ndarray | None = None,
) -> tuple[np.ndarray, list[float], float]:
    """Levenberg-Marquardt from the start x0 (var_count,), its rectangles
    placed with sides (n, 2), the given sides when None.  x0 and sides are
    checked as moments.residual checks them, which evaluates the start.

    The start runs from LAMBDA0 under the one-attempt damping rule until
    one of three stops: max |r| <= RESIDUAL_TOL, lambda above LAMBDA_MAX or
    cfg.max_iters accepted steps.  A rejected attempt retries on the
    undamped normal equations it keeps, and a singular damped system is
    solved by lstsq.  A start whose max |r| is not finite or within
    RESIDUAL_TOL takes no attempt.
    Returns the final variables, the accepted costs (residual 2-norms, the
    first at x0) and the final max |r|.
    """
    max_iters = (cfg or SolveConfig()).max_iters
    r = mo.residual(sys, x0, sides)
    x = np.array(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        r_max, costs = float(np.abs(r).max()), [_cost(r)]
        lam, stepped = LAMBDA0, True
        running = math.isfinite(r_max) and r_max > RESIDUAL_TOL
        if running:  # the start's table, for the first Jacobian
            table = mo.chebyshev_table(sys, x, sides)
        while running:
            if stepped:  # normal equations at the new point
                jac_t = mo.table_jacobian(sys, table).T
                neg_grad = -(jac_t @ r)
                hess = jac_t @ jac_t.T
            damped = hess.copy()
            damped.flat[:: sys.var_count + 1] += lam  # lambda on the diagonal
            try:
                delta = np.linalg.solve(damped, neg_grad)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(damped, neg_grad, rcond=None)[0]
            cand = x + delta
            cand_table = mo.chebyshev_table(sys, cand, sides)
            cand_r = mo.table_residual(sys, cand_table)
            cost = _cost(cand_r)
            stepped = cost < costs[-1]
            if stepped:
                x, table, r, r_max = cand, cand_table, cand_r, np.abs(cand_r).max()
                lam = max(lam * LAMBDA_DECREASE, LAMBDA_MIN)
                costs.append(cost)
                running = r_max > RESIDUAL_TOL and len(costs) <= max_iters
            else:
                lam *= LAMBDA_INCREASE
                running = lam <= LAMBDA_MAX
    return x, costs, float(r_max)


# -- Layout cleanup ----------------------------------------------------------


def snap_layout(inst: Instance, layout: Layout, eps: float | None = None) -> Layout:
    """Merge corner coordinates that agree within eps (default
    SNAP_FRACTION * DEFAULT_TOL * scale) to a shared value, anchoring
    clusters that touch 0 or the box sides to those exact values.  Returns
    the input unchanged if snapping would collapse a rectangle.  Clusters
    are those of corner_cancellation (verify._snap).  A public helper only:
    solve_multistart reports layouts as they stopped."""
    a = float(inst.box.width)
    b = float(inst.box.height)
    if eps is None:
        eps = SNAP_FRACTION * DEFAULT_TOL * max(a, b)
    placements = []
    for xl, yl, xh, yh in _snap(mo._corner_array(layout), (a, b), eps).tolist():
        if xh <= xl or yh <= yl:
            return layout
        placements.append(Placement(xl, yl, xh, yh))
    return Layout(tuple(placements))


# -- Multistart driver -------------------------------------------------------


def solve_multistart(
    inst: Instance,
    cfg: SolveConfig | None = None,
    max_order: int | None = None,
    mode: str = mo.FIXED,
) -> SolveReport:
    """Deterministic multistart over gap-fill starts (_start_vector), each
    drawn from a generator seeded by cfg.seed and its index.  A start counts
    as a success only when the layout it stopped at, converged or not,
    passes geometric verification.  Starts are tried one at a time, in
    index order, and the first that verifies wins: start k is built (a gap
    fill that reaches no tiling is no start, and is skipped), handed once to
    solve_single, which judges it as drawn if its max |r| is not finite or
    within RESIDUAL_TOL and else descends it, and verified once.  No start
    after the winner is built.  Without a winner the report carries the
    lowest (final max |r|, start index); with no start at all it is
    exhausted, reason "fill".  The arguments are checked first, so a bad
    mode or max_order raises ValueError for every instance.  An instance
    that no layout could pass verify_layout with is then rejected before
    any solving: by its area (area_can_pass, reason "area"), or by a
    rectangle that fits the box in no allowed orientation (fit_can_pass,
    reason "fit")."""
    t0 = time.perf_counter()
    cfg = cfg or SolveConfig()
    if mode not in mo._MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {mo._MODES}")
    if mode == mo.ROTATABLE and not inst.rotation_allowed:
        raise ValueError("rotatable mode requires an instance with rotation allowed")
    sys = mo.build_system(inst, max_order)
    reason = None if area_can_pass(inst) else "area"
    if reason is None and not fit_can_pass(inst):
        reason = "fit"
    status, layout, final, iterations, start = "exhausted", None, float("inf"), 0, -1
    if reason is None:
        tried, converged = False, False
        # One shape list for every start and its width sums, built once, if at all.
        shapes = _shapes(sys, mode)
        width_sums = functools.cache(functools.partial(_width_sums, sys, shapes))
        for k in range(cfg.restarts):
            built = _start_vector(sys, shapes, cfg.seed, k, width_sums=width_sums)
            if built is None:
                continue
            v, s = built
            tried = True
            v, costs, r_max = solve_single(sys, v, cfg, s)
            iterations += len(costs) - 1
            candidate = mo.vars_to_layout(sys, v, s)
            if verify_layout(inst, candidate).passed:
                status, layout, final, start = "converged_verified", candidate, r_max, k
                break
            converged |= r_max <= RESIDUAL_TOL
            if r_max < final:
                layout, final, start = candidate, r_max, k
        if not tried:
            reason = "fill"
        elif status == "exhausted" and converged:
            status, reason = "converged_unverified", "unverified"
    return SolveReport(
        status=status,
        best_layout=layout,
        final_residual_inf=final,
        iterations_total=iterations,
        start_index=start,
        wall_time_s=time.perf_counter() - t0,
        reason=reason,
    )
