"""Damped least-squares solving of truncated moment systems with multistart.

solve_single runs a Levenberg-Marquardt iteration on one start vector:
each attempt solves (J^T J + lambda I) delta = -J^T r and accepts the
candidate x + delta only on strict cost decrease (lambda halves); a
rejection quadruples lambda and retries.  The unknowns are unconstrained:
a candidate whose residual is not finite costs inf, so it is rejected like
any other that does not lower the cost, and every accepted iterate stays
finite.  Containment in the box is the verifier's check, not the solver's.

solve_multistart layers deterministic restarts on top and treats geometric
verification, not the residual, as the definition of success: every
converged candidate is polished and handed once to verify_layout at its
default tolerance, the one `momentpack verify` uses.  The first verified
start wins.  Reports are bitwise deterministic for a fixed (instance,
config, max_order, mode).

Starts run in lockstep, LOCKSTEP_CHUNK at a time: the chunk's iterations
share one batched Jacobian, and its retries run as a damping ladder, one
stacked linear solve per round of several lambdas per start.  Each start
keeps its own lambda and stop rule, so its trajectory is bit for bit the
one-attempt-at-a-time one, which solve_single gives it too.  Starts are
verified in index order as they finish: once every lower start is resolved,
the stopped converged ones are polished together and verified, and later
starts stop once a lower one verifies.  The report, iterations_total
included, is the one a start-by-start loop gives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import moments as mo
from .instances import Instance, Layout, Placement, check_area
from .verify import DEFAULT_TOL, _snap_values, verify_layout

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
POLISH_MAX_ITERS = 40
LOCKSTEP_CHUNK = 8  # starts run together by solve_multistart
LADDER_WIDTH = 2  # damping rungs each row tries in an iteration's first round
SNAP_FRACTION = 0.3  # snap_layout merges within this share of the verifier tolerance
_SEED_STRIDE = 1_000_003

_STRATEGIES = ("uniform_random", "shelf_greedy", "user_layout")


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 500
    restarts: int = 64
    seed: int = 0
    residual_tol: float = 1e-10
    step_tol: float = 1e-12
    lm_lambda0: float = 1e-3
    init_strategy: str = "shelf_greedy"
    initial_layout: Layout | None = None

    def validate(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not all(0 <= t < math.inf for t in (self.residual_tol, self.step_tol)):
            raise ValueError("tolerances (residual_tol, step_tol) must be finite and >= 0")
        if not 0 < self.lm_lambda0 < math.inf:
            raise ValueError("lm_lambda0 must be finite and > 0")
        if self.init_strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown init_strategy {self.init_strategy!r}; expected one of {_STRATEGIES}"
            )
        if self.init_strategy == "user_layout" and self.initial_layout is None:
            raise ValueError("init_strategy 'user_layout' needs initial_layout")


@dataclass(frozen=True)
class SolveReport:
    """status is converged_verified, converged_unverified, or exhausted;
    converged_verified always means the reported layout passed geometric
    verification."""

    status: str
    best_layout: Layout | None
    final_residual_inf: float
    iterations_total: int
    start_index: int
    wall_time_s: float
    reason: str | None = None

    def to_dict(self) -> dict:
        from .instances import _num_to_json

        layout = None
        if self.best_layout is not None:
            layout = {
                "placements": [
                    [_num_to_json(v) for v in p.as_tuple()]
                    for p in self.best_layout.placements
                ]
            }
        residual_inf = self.final_residual_inf
        return {
            "status": self.status,
            "reason": self.reason,
            "best_layout": layout,
            "final_residual_inf": residual_inf if math.isfinite(residual_inf) else None,
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
    sys: mo.MomentSystem, inst: Instance, cfg: SolveConfig, start_index: int
) -> np.ndarray:
    if start_index == 0 and cfg.init_strategy == "shelf_greedy":
        return mo.layout_to_vars(sys, init_shelf_greedy(inst))
    if start_index == 0 and cfg.init_strategy == "user_layout":
        return mo.layout_to_vars(sys, cfg.initial_layout)
    # Rectangles draw in instance order: an upright one its lower corner
    # uniformly where the rectangle fits in the box, a free one an
    # orientation and a centre.
    rng = np.random.default_rng(cfg.seed * _SEED_STRIDE + start_index)
    out = np.zeros((sys.n_rects, 4))
    for i in range(sys.n_rects):
        if not sys.free[i]:
            room = (sys.box_w - sys.widths[i], sys.box_h - sys.heights[i])
            out[i, :2] = rng.uniform(size=2) * np.maximum(room, 0.0)
            continue
        w, h = sys.widths[i], sys.heights[i]
        if rng.integers(0, 2):
            w, h = h, w
        cx = rng.uniform(w / 2, sys.box_w - w / 2) if sys.box_w > w else sys.box_w / 2
        cy = rng.uniform(h / 2, sys.box_h - h / 2) if sys.box_h > h else sys.box_h / 2
        out[i] = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
    return mo.corners_to_vars(sys, out)


# -- Core iteration ----------------------------------------------------------


def _norms(rows: np.ndarray) -> np.ndarray:
    """2-norm of each row, computed like np.linalg.norm of the row alone
    (one dot product per row), so batched and single costs agree bitwise."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _costs(r: np.ndarray) -> np.ndarray:
    """Residual 2-norm of each row; inf where a residual is not finite (its
    norm is then inf or NaN)."""
    c = _norms(r)
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
    cfg: SolveConfig,
    on_stop: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Levenberg-Marquardt on every row of x0 (K, var_count) in lockstep.

    Each iteration evaluates one Jacobian for all live rows.  Each row
    follows the one-attempt damping rule on its own: solve at lambda,
    accept the candidate x + delta only on strict cost decrease (lambda
    halves, not below LAMBDA_MIN), else quadruple lambda and retry until it
    exceeds LAMBDA_MAX.  The retries run as a ladder: a round stacks every
    row yet to step at rungs lambda * 4**j, j < width, into one linear
    solve and one residual evaluation, and a row takes its first rung that
    lowers the cost.  The width starts at LADDER_WIDTH and doubles each
    round.  Rung 0 is always tried, higher rungs up to LAMBDA_MAX, and
    times 4 is exact, so every row tries the rule's lambdas and follows its
    trajectory bit for bit, whatever else is in the batch.  A row stops on
    residual_tol, step_tol, lambda above LAMBDA_MAX or max_iters.  Returns
    the final variables (K, V), the accepted step count of each row (K,),
    the accepted costs (K, max_iters + 1), row k's history being
    costs[k, : steps[k] + 1], and each row's final max |r| (K,).

    on_stop, if given, is called with the rows that stopped (ascending;
    first those that never start, then after each iteration those that
    stopped in it) and the arrays x, steps and r_inf as they stand.  It
    returns the first row index to drop: every row at or past it stops at
    once and is never passed to on_stop.
    """
    eye = np.eye(sys.var_count)
    x = np.array(x0, dtype=float)  # a copy: rows are updated in place
    with np.errstate(over="ignore", invalid="ignore"):
        table = mo.power_table(sys, x)
        r = mo.batch_residual(sys, table)
        r_inf = np.max(np.abs(r), axis=1)
        cost = _costs(r)
        costs = np.empty((len(x), cfg.max_iters + 1))
        costs[:, 0] = cost
        steps = np.zeros(len(x), dtype=int)
        lam = np.full(len(x), cfg.lm_lambda0)
        live = np.isfinite(r_inf) & (r_inf > cfg.residual_tol)
        ended = np.flatnonzero(~live)
        while True:
            if on_stop is not None and len(ended):
                live[on_stop(ended, x, steps, r_inf) :] = False
            iterated = rows = np.flatnonzero(live)
            if not len(rows):
                break
            jac = mo.batch_jacobian(sys, table[rows])
            jac_t = jac.transpose(0, 2, 1)
            neg_grad = -(jac_t @ r[rows, :, None])[:, :, 0]
            hess = jac_t @ jac
            width = LADDER_WIDTH
            while len(rows):  # rows that have not stepped this iteration
                # LAMBDA_INCREASE is a power of two: every rung is exact.
                rungs = lam[rows, None] * LAMBDA_INCREASE ** np.arange(width)
                tried = rungs <= LAMBDA_MAX
                tried[:, 0] = True
                i, j = np.nonzero(tried)  # each row's rungs, in order
                delta = _solve_rows(hess[i] + rungs[i, j, None, None] * eye, neg_grad[i])
                cand = x[rows[i]] + delta
                cand_table = mo.power_table(sys, cand)
                r_new = mo.batch_residual(sys, cand_table)
                cost_new = _costs(r_new)
                hit = np.flatnonzero(cost_new < cost[rows[i]])
                hit_row = i[hit]  # non-decreasing: keep each row's first win
                first = np.ones(len(hit), dtype=bool)
                np.not_equal(hit_row[1:], hit_row[:-1], out=first[1:])
                hit = hit[first]
                stepped = np.zeros(len(rows), dtype=bool)
                stepped[i[hit]] = True
                won = rows[stepped]
                step_norm = _norms(cand[hit] - x[won])
                x[won], r[won], table[won] = cand[hit], r_new[hit], cand_table[hit]
                cost[won] = cost_new[hit]
                r_inf[won] = np.max(np.abs(r_new[hit]), axis=1)
                lam[won] = np.maximum(rungs[stepped, j[hit]] * LAMBDA_DECREASE, LAMBDA_MIN)
                steps[won] += 1
                costs[won, steps[won]] = cost_new[hit]
                live[won] = (
                    (r_inf[won] > cfg.residual_tol)
                    & (step_norm > cfg.step_tol)
                    & (steps[won] < cfg.max_iters)
                )
                lam[rows[~stepped]] = rungs[~stepped, -1] * LAMBDA_INCREASE
                retry = ~stepped & (lam[rows] <= LAMBDA_MAX)
                live[rows[~stepped & ~retry]] = False
                rows, hess, neg_grad = rows[retry], hess[retry], neg_grad[retry]
                width *= 2
            ended = iterated[~live[iterated]]
    return x, steps, costs, r_inf


def solve_single(
    sys: mo.MomentSystem, x0: np.ndarray, cfg: SolveConfig | None = None
) -> tuple[np.ndarray, list[float]]:
    """Levenberg-Marquardt from one start; returns the final variable vector
    and the history of accepted residual 2-norms (monotone decreasing,
    starting at the initial cost).  Each step solves
    (J^T J + lambda I) delta = -J^T r; the lockstep core with one row."""
    cfg = cfg or SolveConfig()
    cfg.validate()
    x, steps, costs, _ = _lockstep(sys, mo._check_vars(sys, x0)[None], cfg)
    return x[0], costs[0, : steps[0] + 1].tolist()


def _residual_inf(sys: mo.MomentSystem, vars: np.ndarray) -> float:
    return float(np.max(np.abs(mo.residual(sys, vars))))


# -- Layout cleanup ----------------------------------------------------------


def snap_layout(inst: Instance, layout: Layout, eps: float | None = None) -> Layout:
    """Merge corner coordinates that agree within eps (default
    SNAP_FRACTION * DEFAULT_TOL * scale) to a shared value, anchoring
    clusters that touch 0 or the box sides to those exact values.  Returns
    the input unchanged if snapping would collapse a rectangle.  A public
    helper only: solve_multistart reports layouts as polished."""
    a = float(inst.box.width)
    b = float(inst.box.height)
    scale = max(a, b)
    if eps is None:
        eps = SNAP_FRACTION * DEFAULT_TOL * scale
    xs: list[float] = []
    ys: list[float] = []
    for p in layout.placements:
        xs.extend((float(p.x_lo), float(p.x_hi)))
        ys.extend((float(p.y_lo), float(p.y_hi)))
    x_map = _snap_values(xs, (0.0, a), eps)
    y_map = _snap_values(ys, (0.0, b), eps)
    placements = []
    for p in layout.placements:
        xl = x_map[float(p.x_lo)]
        xh = x_map[float(p.x_hi)]
        yl = y_map[float(p.y_lo)]
        yh = y_map[float(p.y_hi)]
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
    """Deterministic multistart: start 0 follows the init strategy, later
    starts draw from per-index seeded generators.  A start counts as a
    success only when its polished layout passes geometric verification;
    ties go to the lowest start index.  Starts are verified in index order
    as they finish, and later starts stop once a lower one verifies.
    Area-infeasible instances are rejected before any solving."""
    t0 = time.perf_counter()
    cfg = cfg or SolveConfig()
    cfg.validate()
    verdict = check_area(inst)
    if verdict.kind == "infeasible":
        return SolveReport(
            status="exhausted",
            best_layout=None,
            final_residual_inf=float("inf"),
            iterations_total=0,
            start_index=-1,
            wall_time_s=time.perf_counter() - t0,
            reason="area",
        )
    sys = mo.build_system(inst, max_order, mode)
    polish_cfg = replace(
        cfg, residual_tol=0.0, step_tol=1e-15, max_iters=POLISH_MAX_ITERS, lm_lambda0=1e-6
    )
    best: tuple[float, int, Layout | None] = (float("inf"), -1, None)
    any_converged = False
    iterations = 0
    winner: tuple[int, Layout] | None = None

    def resolve(ended: np.ndarray, x: np.ndarray, steps: np.ndarray, r_inf: np.ndarray) -> int:
        """Take the chunk's stopped starts from the lowest unresolved one up
        to the first still running: polish the converged ones together,
        then verify them in index order.  Returns the row past a verified
        start, which stops the rest of the chunk, else the chunk size."""
        nonlocal todo, iterations, any_converged, best, winner
        stopped[ended] = True
        end = todo
        while end < len(stopped) and stopped[end]:
            end += 1
        rows = np.arange(todo, end)
        todo = end
        x, steps, r_inf = x[rows], steps[rows], r_inf[rows]
        converged = r_inf <= cfg.residual_tol
        if np.any(converged):
            x[converged], polish_steps, _, r_inf[converged] = _lockstep(
                sys, x[converged], polish_cfg
            )
            steps[converged] += polish_steps
        for j, row in enumerate(rows):
            iterations += int(steps[j])
            if converged[j]:
                any_converged = True
                raw = mo.vars_to_layout(sys, x[j])
                if verify_layout(inst, raw).passed:
                    winner = (first + int(row), raw)
                    return int(row) + 1
            if r_inf[j] < best[0]:
                best = (float(r_inf[j]), first + int(row), mo.vars_to_layout(sys, x[j]))
        return len(stopped)

    for first in range(0, cfg.restarts, LOCKSTEP_CHUNK):
        starts = range(first, min(first + LOCKSTEP_CHUNK, cfg.restarts))
        stopped = np.zeros(len(starts), dtype=bool)
        todo = 0  # the chunk's lowest start not yet verified or passed over
        x0 = np.stack([_start_vector(sys, inst, cfg, k) for k in starts])
        _lockstep(sys, x0, cfg, resolve)
        if winner is not None:
            start_index, layout = winner
            return SolveReport(
                status="converged_verified",
                best_layout=layout,
                final_residual_inf=_residual_inf(sys, mo.layout_to_vars(sys, layout)),
                iterations_total=iterations,
                start_index=start_index,
                wall_time_s=time.perf_counter() - t0,
            )
    best_r, best_idx, best_layout = best
    return SolveReport(
        status="converged_unverified" if any_converged else "exhausted",
        best_layout=best_layout,
        final_residual_inf=best_r,
        iterations_total=iterations,
        start_index=best_idx,
        wall_time_s=time.perf_counter() - t0,
        reason="unverified" if any_converged else None,
    )
