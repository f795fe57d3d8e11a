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

Each start is a gap fill (search.py) in one of two frames (_searches):
start k searches frame k mod 2, the frame whose width is the shorter box
side first, the given frame first in a square box.  Each frame's first
start (k = 0 or 1) tries the shapes largest area first, after the
decreasing orders of Baker, Coffman & Rivest 1980; every later start in
an order seeded by the solve's seed and the start's index
(_start_vector).  Each frame's search is complete for exact tilings.
Its fills share one record of dead states, so a start can reach its
tiling in fewer placements than a fresh search would, but never another
tiling.  A fill's tiling comes back in the given frame, where LM, the
moment system and the verifier work.  Only a fill that places every
rectangle makes a start; with no start the report is exhausted with
reason "fill".  LM moves the rectangles of a start, two unknowns each,
in the orientation its fill chose, never their sides.  So the
construction wins exact tilings: a start that tiles the box as drawn
verifies before any LM step (iterations_total 0).  The moment system
decides the rest: an instance that tiles only within the verifier's
tolerance, whose moment system keeps a residual floor above
RESIDUAL_TOL, is reported from a start that stopped there.  A report's
final_residual_inf is the max |r| that judged its start.  Reports are
bitwise deterministic for fixed arguments.

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

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import moments as mo
from . import search
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


def _searches(sys: mo.MomentSystem, mode: str) -> tuple[search.Search, search.Search]:
    """The solve's two frames of gap-fill search, in the order its starts
    take them: start k fills in the Search at k mod 2.  The frame whose
    width is the shorter box side comes first (the transposed one when the
    box is wider than high); a square box starts in the given frame."""
    wide = sys.box_w > sys.box_h
    return search.Search(sys, mode, wide), search.Search(sys, mode, not wide)


def _start_vector(
    gap_search: search.Search, seed: int, start_index: int, budget: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """A gap fill (search.Search.fill) of the solve's shapes in the frame of
    gap_search, within budget placements.  The frame's first start
    (start_index 0 or 1) tries the shapes by area, largest first, ties in
    shape order, and draws no generator; a later one tries them in an order
    drawn from a generator seeded by seed and start_index.  Returns the
    lower corners of the tiling it reached, the system's unknowns, and the
    (n, 2) sides each rectangle is placed with: its given pair or that pair
    swapped; None when the fill ends without a tiling.  Plain Python floats
    in a fixed order, so a start is the same bytes on every run.
    gap_search is the solve's Search of the start's frame (_searches),
    shared by all the starts in that frame: its record of dead states, left
    by the frame's earlier starts, can only let the fill reach its tiling
    in fewer placements, so within the budget a fresh Search needs the
    start does not depend on them."""
    shapes = gap_search.shapes
    if start_index < 2:  # the frame's first start: largest area first
        order = sorted(range(len(shapes)), key=lambda k: -shapes[k][1] * shapes[k][2])
    else:
        rng = np.random.default_rng(seed * _SEED_STRIDE + start_index)
        order = rng.permutation(len(shapes)).tolist()
    path = gap_search.fill(order, budget).path
    if path is None:
        return None
    n = gap_search.sys.n_rects
    corners, sides = [()] * n, [()] * n
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
    frame's first largest first and each later one drawn from a generator
    seeded by cfg.seed and its index, start k in frame k mod 2 (_searches).
    A start counts as a success only when the layout it stopped at,
    converged or not, passes geometric verification.  Starts are tried
    one at a time, in index order, and the first that verifies wins: start
    k is built (a gap fill that reaches no tiling is no start, and is
    skipped), handed once to solve_single, which judges it as drawn if its
    max |r| is not finite or within RESIDUAL_TOL and else descends it, and
    verified once.  No start after the winner is built.
    Without a winner the report carries the lowest (final max |r|, start
    index); with no start at all it is exhausted, reason "fill".  The
    arguments are checked first, so a bad mode or max_order raises
    ValueError for every instance.  An instance that no layout could pass
    verify_layout with is then rejected before any solving: by its area
    (area_can_pass, reason "area"), or by a rectangle that fits the box in
    no allowed orientation (fit_can_pass, reason "fit")."""
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
        searches = _searches(sys, mode)  # one a frame, each shared by its starts
        for k in range(cfg.restarts):
            built = _start_vector(searches[k % 2], cfg.seed, k, search.GAP_BUDGET)
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
