"""Damped least-squares solving of truncated moment systems with multistart.

The core, _lockstep, runs Levenberg-Marquardt on many start vectors at
once: for each start, each attempt solves (J^T J + lambda I) delta = -J^T r
and accepts the candidate x + delta only on strict cost decrease (lambda
halves); a rejection quadruples lambda for the next attempt (Madsen,
Nielsen & Tingleff 2004, section 3.2).  The unknowns are unconstrained: a
candidate whose residual is not finite costs inf, so it is rejected like
any other that does not lower the cost, and every accepted iterate stays
finite.  Containment in the box is the verifier's check, not the solver's.

solve_multistart layers deterministic restarts on top (start 0 is the shelf
layout, later starts are seeded draws) and treats geometric verification,
not the residual, as the definition of success: every start that stops,
converged or not, is handed once, as it stopped, to verify_layout at its
default tolerance, the one `momentpack verify` uses.  So an instance that
tiles only within that tolerance, whose moment system keeps a residual floor
above RESIDUAL_TOL, is still reported from the start that stalled there.
Reports are bitwise deterministic for fixed arguments.

All starts of a solve run in one lockstep call.  Each round makes one
attempt for every start still running, each at its own lambda: one stacked
linear solve, one residual evaluation and one batched Jacobian for the
starts whose attempt was accepted; a rejected start retries in the next
round, beside the others' next attempts.  So each start follows the
trajectory it follows alone, bit for bit (solve_single is the one-start
view), and no start waits on another's retries: at these sizes (at most 40
unknowns per start on the benchmark's solves) a round costs mostly per-call
overhead.  After each round the call checks the starts that stopped in it,
in index order, here by verification; the first that passes wins, and
every start still running stops with it.  So the winner is the verified
start with the fewest LM attempts (linear solves), ties going to the
lowest index.  Each start adds about 70 KB of memory at 20 fixed rectangles.

The stop rule is one set of module constants, read at call time.  A start
runs from lambda LAMBDA0 until max |r| <= RESIDUAL_TOL (converged), a step
that lowers the cost by less than a share STALL_TOL of it (stalled: the
relative-reduction test of MINPACK's ftol), lambda above LAMBDA_MAX or
max_iters.  The stall rule ends starts bound for a non-zero local minimum,
not ones bound to converge: LM converges quadratically at a regular root
and linearly at a singular one, so near a root each step lowers the cost
by a large share.  With every start run to its own stop, the smallest
share a converging start's step lowered its cost by was 3.1e-7 over 9,206
family-sweep starts, 1.9e-6 over 1,848 fixed-mode guillotine starts (N = 3
to 10) and 9.5e-8 over 447 rotatable ones, only 9.5 times STALL_TOL (a
test pins that start).  A converged start is not refined further: at a
tiling the moment rows are well conditioned, so max |r| <= RESIDUAL_TOL
puts the layout far inside the verifier's DEFAULT_TOL.  Over the family
sweep and 4,450 guillotine solves (N = 6 to 20) the loosest tolerance a
verified layout needed was 3.3e-9, 30 times under it.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import moments as mo
from .instances import Instance, Layout, Placement, _layout_doc
from .verify import DEFAULT_TOL, _snap, area_can_pass, fit_can_pass, verify_layout

__all__ = [
    "SolveConfig",
    "SolveReport",
    "init_shelf_greedy",
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
STALL_TOL = 1e-8  # a start stalled once a step lowers its cost by less than this share
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
    verification.  iterations_total counts every accepted LM step any start
    took; a start cut short by the win counts those of its first attempts,
    as many as the winner made.  best_layout is the winner's as it stopped:
    a winner that converged reports a final_residual_inf of at most about
    RESIDUAL_TOL, not roundoff, and one that did not converge its own,
    larger value.  start_index is the winner's, the verified start with the
    fewest LM attempts, else the start with the lowest final max |r|, ties
    going to the lowest index either way.  converged_unverified means some
    start reached RESIDUAL_TOL and none verified."""

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


def init_shelf_greedy(inst: Instance) -> Layout:
    """Shelf heuristic warm start: rectangles in decreasing height order,
    left to right, new shelf on horizontal overflow; placements are clamped
    inside the box and may overlap when the box is over-full."""
    a = float(inst.box.width)
    b = float(inst.box.height)
    n = inst.n_rects
    order = sorted(range(n), key=lambda i: (-float(inst.rects[i].height), i))
    placements: list[Placement | None] = [None] * n
    cur_x = 0.0
    shelf_y = 0.0
    shelf_h = 0.0
    for i in order:
        w = float(inst.rects[i].width)
        h = float(inst.rects[i].height)
        if cur_x > 0.0 and cur_x + w > a + 1e-12:
            shelf_y += shelf_h
            cur_x = 0.0
            shelf_h = 0.0
        x_lo = max(0.0, min(cur_x, a - w))
        y_lo = max(0.0, min(shelf_y, b - h))
        placements[i] = Placement(x_lo, y_lo, x_lo + w, y_lo + h)
        cur_x = x_lo + w
        shelf_h = max(shelf_h, h)
    return Layout(tuple(placements))


def _start_vector(
    sys: mo.MomentSystem, inst: Instance, seed: int, start_index: int
) -> np.ndarray:
    if start_index == 0:
        return mo.layout_to_vars(sys, init_shelf_greedy(inst))
    # Rectangles draw in instance order: an upright one its lower corner
    # uniformly where the rectangle fits in the box (rng.random(2), the
    # doubles rng.uniform(size=2) gives), a free one an orientation and a
    # centre.  The arithmetic runs on Python floats, which round as numpy's do.
    rng = np.random.default_rng(seed * _SEED_STRIDE + start_index)
    out = np.zeros((sys.n_rects, 4))
    sides = zip(sys.widths.tolist(), sys.heights.tolist(), sys.free.tolist())
    for i, (w, h, free) in enumerate(sides):
        if not free:
            u, v = rng.random(2).tolist()
            out[i, :2] = (u * max(sys.box_w - w, 0.0), v * max(sys.box_h - h, 0.0))
            continue
        if rng.integers(0, 2):
            w, h = h, w
        cx = rng.uniform(w / 2, sys.box_w - w / 2) if sys.box_w > w else sys.box_w / 2
        cy = rng.uniform(h / 2, sys.box_h - h / 2) if sys.box_h > h else sys.box_h / 2
        out[i] = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
    return mo.corners_to_vars(sys, out)


# -- Core iteration ----------------------------------------------------------


def _costs(r: np.ndarray) -> np.ndarray:
    """Residual 2-norm of each row, computed like np.linalg.norm of the row
    alone (one dot product per row), so batched and single costs agree
    bitwise; inf where a residual is not finite (its norm is then inf or
    NaN)."""
    c = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])
    c[np.isnan(c)] = np.inf
    return c


def _solve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a_k x_k = b_k for every k at once.  One singular a_k makes the
    stacked solve raise for all of them, so the stack is then re-solved one
    system at a time, falling back to lstsq only for the singular ones."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(b)
    for k, (a_k, b_k) in enumerate(zip(a, b)):
        try:
            out[k] = np.linalg.solve(a_k, b_k)
        except np.linalg.LinAlgError:
            out[k] = np.linalg.lstsq(a_k, b_k, rcond=None)[0]
    return out


def _lockstep(
    sys: mo.MomentSystem,
    x0: np.ndarray,
    max_iters: int,
    passes: Callable[[np.ndarray], bool] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Levenberg-Marquardt on every row of x0 (K, var_count) in lockstep.

    Each row starts at LAMBDA0 and follows the one-attempt damping rule on
    its own until RESIDUAL_TOL, a stall (STALL_TOL 0 turns the rule off),
    lambda above LAMBDA_MAX or max_iters accepted steps.  Each round makes
    one attempt for every running row, each at its own lambda, in one
    stacked linear solve and one residual evaluation; a rejected row
    retries on the undamped normal equations it keeps.  So each row follows
    the rule's trajectory bit for bit, whatever else is in the batch.
    Returns the final variables (K, V), the accepted step count of each row
    (K,), the accepted costs (K, max_iters + 1), row k's history being
    costs[k, : steps[k] + 1], each row's final max |r| (K,) and the winner.

    passes, if given, is asked about each row's variables once, as the row
    stops: first the rows that never start, then after each round the rows
    that stopped in it, in index order.  The first row it passes is the
    winner, and every row still running stops at once, with the steps it
    has taken in as many attempts.  The winner is -1 when no row passes.
    """
    diag = slice(None, None, sys.var_count + 1)  # the diagonal of a flattened (V, V)
    x = np.array(x0, dtype=float)  # a copy: rows are updated in place
    with np.errstate(over="ignore", invalid="ignore"):
        table = mo.chebyshev_table(sys, x)
        r = mo.batch_residual(sys, table)
        r_inf = np.abs(r).max(axis=1)
        cost = _costs(r)
        costs = np.empty((len(x), max_iters + 1))
        costs[:, 0] = cost
        steps = np.zeros(len(x), dtype=int)
        live = np.isfinite(r_inf) & (r_inf > RESIDUAL_TOL)
        rows, ended = np.flatnonzero(live), np.flatnonzero(~live)
        # The running rows' state, in the order of rows, written back as a
        # row stops.  Normal equations are built at the top of the round after
        # a row steps (fresh), so a win skips the Jacobians of its round.
        xr, cost, n, rmax = x[rows], cost[rows], steps[rows], r_inf[rows]
        lam = np.full(len(rows), LAMBDA0)
        hess, neg_grad = np.empty((len(rows), sys.var_count, sys.var_count)), np.empty(xr.shape)
        table, r, fresh = table[rows], r[rows], live[rows]
        winner = -1
        while True:
            if passes is not None:
                winner = next((k for k in ended.tolist() if passes(x[k])), -1)
            if winner >= 0 or not len(rows):
                break
            if len(table):  # some row stepped in the last round
                jac_t = mo.batch_jacobian(sys, table).transpose(0, 2, 1)
                neg_grad[fresh] = -(jac_t @ r[:, :, None])[:, :, 0]
                hess[fresh] = jac_t @ jac_t.transpose(0, 2, 1)
                del jac_t  # the largest array of a round: not kept through it
            damped = hess.copy()
            damped.reshape(len(rows), -1)[:, diag] += lam[:, None]
            cand = xr + _solve_rows(damped, neg_grad)
            table = mo.chebyshev_table(sys, cand)
            r = mo.batch_residual(sys, table)
            cost_new = _costs(r)
            fresh, fell = cost_new < cost, cost_new < (1.0 - STALL_TOL) * cost
            if fresh.all():  # most rounds: nothing to gather, none retries
                xr, cost, rmax, n = cand, cost_new, np.abs(r).max(axis=1), n + 1
                lam = np.maximum(lam * LAMBDA_DECREASE, LAMBDA_MIN)
                keep = (rmax > RESIDUAL_TOL) & fell & (n < max_iters)
            else:
                table, r = table[fresh], r[fresh]
                xr[fresh], cost[fresh] = cand[fresh], cost_new[fresh]
                rmax[fresh], n = np.abs(r).max(axis=1), n + fresh
                down = np.maximum(lam * LAMBDA_DECREASE, LAMBDA_MIN)
                lam = np.where(fresh, down, lam * LAMBDA_INCREASE)
                going = (rmax > RESIDUAL_TOL) & fell & (n < max_iters)
                keep = np.where(fresh, going, lam <= LAMBDA_MAX)
            costs[rows, n] = cost  # a row that did not step writes its cost again
            ended = rows[~keep]
            if len(ended):
                x[ended], steps[ended], r_inf[ended] = xr[~keep], n[~keep], rmax[~keep]
                table, r = table[keep[fresh]], r[keep[fresh]]
                state = rows, xr, cost, n, rmax, lam, hess, neg_grad, fresh
                rows, xr, cost, n, rmax, lam, hess, neg_grad, fresh = (a[keep] for a in state)
        x[rows], steps[rows], r_inf[rows] = xr, n, rmax  # the rows a win cut short
    return x, steps, costs, r_inf, winner


def solve_single(
    sys: mo.MomentSystem, x0: np.ndarray, cfg: SolveConfig | None = None
) -> tuple[np.ndarray, list[float]]:
    """Levenberg-Marquardt from one start; returns the final variable vector
    and the history of accepted residual 2-norms (monotone decreasing,
    starting at the initial cost).  Each step solves
    (J^T J + lambda I) delta = -J^T r; the lockstep core with one row."""
    cfg = cfg or SolveConfig()
    x, steps, costs, _, _ = _lockstep(sys, mo._check_vars(sys, x0)[None], cfg.max_iters)
    return x[0], costs[0, : steps[0] + 1].tolist()


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
    """Deterministic multistart: start 0 is the shelf layout, later starts
    draw from per-index seeded generators.  A start counts as a success
    only when the layout it stopped at, converged or not, passes geometric
    verification.  All starts race in one lockstep call, one LM attempt
    each per round, which verifies each start as it stops, in index order
    after each round; the first to pass wins and stops the rest.  So the
    winner is the verified start with the fewest LM attempts, ties going to
    the lowest index.
    Without a winner the report carries the lowest (final max |r|, start
    index), read off the race's per-start results.  The arguments are
    checked first, so a bad mode or max_order raises ValueError for every
    instance.  An instance that no layout could pass verify_layout with is
    then rejected before any solving: by its area (area_can_pass, reason
    "area"), or by a rectangle that fits the box in no allowed orientation
    (fit_can_pass, reason "fit")."""
    t0 = time.perf_counter()
    cfg = cfg or SolveConfig()
    sys = mo.build_system(inst, max_order, mode)
    reason = None if area_can_pass(inst) else "area"
    if reason is None and not fit_can_pass(inst):
        reason = "fit"
    status, layout, final, iterations, start = "exhausted", None, float("inf"), 0, -1
    if reason is None:
        x0 = np.stack([_start_vector(sys, inst, cfg.seed, k) for k in range(cfg.restarts)])

        def passes(v: np.ndarray) -> bool:
            nonlocal layout  # the last one checked: the winner's, if any
            layout = mo.vars_to_layout(sys, v)
            return verify_layout(inst, layout).passed

        x, steps, _, r_inf, winner = _lockstep(sys, x0, cfg.max_iters, passes)
        iterations = int(steps.sum())
        start = winner if winner >= 0 else int(np.argmin(r_inf))
        if winner < 0:
            layout = mo.vars_to_layout(sys, x[start])
        final = float(r_inf[start])
        if winner >= 0:
            status = "converged_verified"
            final = float(np.max(np.abs(mo.residual(sys, mo.layout_to_vars(sys, layout)))))
        elif np.any(r_inf <= RESIDUAL_TOL):
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
