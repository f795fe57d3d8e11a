"""Levenberg-Marquardt core, snapping, and the multistart driver."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpack import (
    BoxSpec,
    Instance,
    Layout,
    Placement,
    SolveConfig,
    gen_guillotine,
    init_shelf_greedy,
    serialize_layout,
    snap_layout,
    solve_multistart,
    solve_single,
    verify_layout,
)
from momentpack import moments as mo
from momentpack import solver


def dominoes():
    return Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2))


# -- Config -------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iters": 0},
        {"restarts": 0},
        {"seed": -1},
        {"residual_tol": -1.0},
        {"residual_tol": float("nan")},
        {"residual_tol": float("inf")},
        {"step_tol": -1.0},
        {"step_tol": float("nan")},
        {"step_tol": float("inf")},
        {"lm_lambda0": 0.0},
        {"lm_lambda0": float("nan")},
        {"lm_lambda0": float("inf")},
        {"init_strategy": "random_walk"},
        {"init_strategy": "user_layout"},  # missing initial_layout
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        SolveConfig(**kwargs).validate()


def test_damping_schedule_constants():
    assert solver.LAMBDA_DECREASE == 0.5
    assert solver.LAMBDA_INCREASE == 4.0


# -- Single-start iteration ---------------------------------------------------


def test_solve_single_history_strictly_decreases():
    sys = mo.build_system(dominoes(), max_order=3, mode=mo.FIXED)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x0 = rng.uniform(0, 0.5, sys.var_count)
        _, history = solve_single(sys, x0)
        assert len(history) >= 1
        assert all(b < a for a, b in zip(history, history[1:]))


def test_solve_single_stops_immediately_at_solution():
    inst = dominoes()
    sys = mo.build_system(inst, max_order=3, mode=mo.FIXED)
    perfect = Layout((Placement(0, 0, 1, 2), Placement(1, 0, 2, 2)))
    x, history = solve_single(sys, mo.layout_to_vars(sys, perfect))
    assert len(history) == 1
    assert np.max(np.abs(mo.residual(sys, x))) <= 1e-10


def test_solve_single_shape_check():
    sys = mo.build_system(dominoes(), max_order=3)
    with pytest.raises(ValueError, match="shape"):
        solve_single(sys, np.zeros(3))


def test_solve_single_reduces_residual():
    sys = mo.build_system(dominoes(), max_order=3, mode=mo.FIXED)
    x0 = np.array([0.1, 0.3, 0.6, 0.2])
    kept = x0.copy()
    x, history = solve_single(sys, x0)
    assert x0.tobytes() == kept.tobytes()  # the caller's start is not written to
    assert history[-1] < history[0]
    assert np.max(np.abs(mo.residual(sys, x))) < np.max(np.abs(mo.residual(sys, x0)))


# -- Warm start and snapping --------------------------------------------------


def test_init_shelf_greedy_keeps_sizes_and_containment():
    inst, _ = gen_guillotine(12, 5, BoxSpec(6.0, 4.0))
    layout = init_shelf_greedy(inst)
    assert len(layout.placements) == inst.n_rects
    for rect, p in zip(inst.rects, layout.placements):
        assert p.dx == pytest.approx(float(rect.width))
        assert p.dy == pytest.approx(float(rect.height))
        assert p.x_lo >= 0 and p.y_lo >= 0
        assert p.x_hi <= 6.0 + 1e-9 and p.y_hi <= 4.0 + 1e-9


def test_snap_layout_merges_and_anchors():
    inst = dominoes()
    eps = 1e-6
    layout = Layout(
        (
            Placement(2e-7, -1e-7, 1.0 - 3e-7, 2.0),
            Placement(1.0 + 2e-7, 0.0, 2.0 - 2e-7, 2.0 + 3e-7),
        )
    )
    snapped = snap_layout(inst, layout, eps=eps)
    a = snapped.placements[0]
    b = snapped.placements[1]
    assert a.x_lo == 0.0 and a.y_lo == 0.0  # anchored to the origin
    assert b.x_hi == 2.0 and b.y_hi == 2.0  # anchored to the box sides
    assert a.x_hi == b.x_lo  # interior cluster shares one value


def test_snap_layout_refuses_to_collapse():
    inst = Instance.from_sides([(1e-9, 1)], BoxSpec(1, 1))
    layout = Layout((Placement(0.5, 0, 0.5 + 1e-9, 1),))
    assert snap_layout(inst, layout, eps=1e-6) is layout


# -- Multistart driver --------------------------------------------------------


def test_multistart_solves_dominoes():
    report = solve_multistart(dominoes(), SolveConfig(restarts=32))
    assert report.status == "converged_verified"
    assert report.reason is None
    assert report.final_residual_inf <= 1e-9
    assert verify_layout(dominoes(), report.best_layout).passed
    assert report.start_index >= 0
    assert report.wall_time_s >= 0


def test_multistart_respects_seed_determinism():
    cfg = SolveConfig(restarts=16, seed=3)
    a = solve_multistart(dominoes(), cfg)
    b = solve_multistart(dominoes(), cfg)
    assert a.status == b.status == "converged_verified"
    assert serialize_layout(a.best_layout) == serialize_layout(b.best_layout)
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time_s")
    db.pop("wall_time_s")
    assert da == db


def test_multistart_area_fast_reject():
    inst = Instance.from_sides([(1, 1)], BoxSpec(2, 2))
    report = solve_multistart(inst, SolveConfig(restarts=8))
    assert report.status == "exhausted"
    assert report.reason == "area"
    assert report.best_layout is None
    assert report.iterations_total == 0
    assert report.start_index == -1


def test_multistart_exhausts_on_unpackable_exact_area():
    # 1x1 + 1x3 fill a 2x2 box by area but cannot pack it
    inst = Instance.from_sides([(1, 1), (1, 3)], BoxSpec(2, 2), rotation_allowed=False)
    report = solve_multistart(inst, SolveConfig(restarts=4, max_iters=60))
    assert report.status == "exhausted"
    assert report.reason is None
    assert report.final_residual_inf > 1e-10
    assert report.best_layout is not None  # best effort is still reported


def test_multistart_user_layout_start():
    inst = dominoes()
    perfect = Layout((Placement(0, 0, 1, 2), Placement(1, 0, 2, 2)))
    cfg = SolveConfig(init_strategy="user_layout", initial_layout=perfect, restarts=4)
    report = solve_multistart(inst, cfg)
    assert report.status == "converged_verified"
    assert report.start_index == 0
    assert report.iterations_total <= 5


def test_multistart_rotatable_mode():
    inst = Instance.from_sides([(1, 2)] * 3, BoxSpec(2, 3))
    report = solve_multistart(
        inst, SolveConfig(restarts=64), mode=mo.ROTATABLE
    )
    assert report.status == "converged_verified"
    assert verify_layout(inst, report.best_layout).passed


def test_report_to_dict_serializes_infinite_residual():
    inst = Instance.from_sides([(1, 1)], BoxSpec(2, 2))
    doc = solve_multistart(inst, SolveConfig(restarts=2)).to_dict()
    assert doc["final_residual_inf"] is None
    assert doc["status"] == "exhausted"


# -- Lockstep multistart ------------------------------------------------------


def assert_rows_run_as_alone(sys, x0, cfg):
    """Every row of one lockstep run equals, bit for bit, the run of that
    row by itself; returns the batched result."""
    batched = solver._lockstep(sys, x0, cfg)
    x, steps, costs, r_inf = batched
    for k, row in enumerate(x0):
        x1, steps1, costs1, r_inf1 = solver._lockstep(sys, row[None], cfg)
        assert x[k].tobytes() == x1[0].tobytes()
        assert steps[k] == steps1[0]
        assert costs[k, : steps[k] + 1].tobytes() == costs1[0, : steps1[0] + 1].tobytes()
        assert r_inf[k].tobytes() == r_inf1[0].tobytes()
    return batched


def sequential_lm(sys, x0, cfg):
    """Reference for _lockstep: Levenberg-Marquardt on one row with one
    damped attempt per round, on the same batched primitives (batches of
    one).  Returns the final variables, the accepted step count, the
    accepted costs and the number of attempts."""
    eye = np.eye(sys.var_count)

    def evaluate(x):
        table = mo.power_table(sys, x)
        r = mo.batch_residual(sys, table)
        return table, r, solver._norms(r)[0] if np.all(np.isfinite(r)) else np.inf

    x = x0[None]
    lam = cfg.lm_lambda0
    attempts = 0
    with np.errstate(over="ignore", invalid="ignore"):
        table, r, cost = evaluate(x)
        costs = [cost]
        live = np.all(np.isfinite(r)) and np.max(np.abs(r)) > cfg.residual_tol
        while live:
            jac = mo.batch_jacobian(sys, table)
            jac_t = jac.transpose(0, 2, 1)
            neg_grad = -(jac_t @ r[:, :, None])[:, :, 0]
            hess = jac_t @ jac
            while True:
                attempts += 1
                delta = solver._solve_rows(hess + lam * eye, neg_grad)
                cand = x + delta
                cand_table, r_new, cost_new = evaluate(cand)
                if cost_new < cost:
                    step_norm = solver._norms(cand - x)[0]
                    x, table, r, cost = cand, cand_table, r_new, cost_new
                    lam = max(lam * solver.LAMBDA_DECREASE, solver.LAMBDA_MIN)
                    costs.append(cost)
                    live = (
                        np.max(np.abs(r)) > cfg.residual_tol
                        and step_norm > cfg.step_tol
                        and len(costs) - 1 < cfg.max_iters
                    )
                    break
                lam *= solver.LAMBDA_INCREASE
                if lam > solver.LAMBDA_MAX:
                    live = False
                    break
    return x[0], len(costs) - 1, costs, attempts


def box_starts(sys, seed, rows):
    """rows start vectors drawing each unknown uniformly between 0 and its
    box side (the unknowns alternate x and y)."""
    sides = np.tile([sys.box_w, sys.box_h], sys.var_count // 2)
    return np.random.default_rng(seed).uniform(size=(rows, sys.var_count)) * sides


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(0, 6),
    rows=st.integers(1, 8),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
)
def test_lockstep_rows_are_independent(seed, cuts, rows, mode):
    inst, _ = gen_guillotine(seed, cuts, BoxSpec(3.0, 2.0 + seed % 3))
    sys = mo.build_system(inst, mode=mode)
    x0 = box_starts(sys, seed, rows)
    assert_rows_run_as_alone(sys, x0, SolveConfig(max_iters=15))


def test_lockstep_singular_and_stopped_rows_leave_others_unchanged():
    inst = Instance.from_sides([(1, 1), (1, 1), (2, 1)], BoxSpec(2, 2), rotation_allowed=False)
    sys = mo.build_system(inst, mode=mo.FIXED)
    # A damping this small vanishes next to J^T J, so a rank-deficient
    # J^T J stays exactly singular.
    cfg = SolveConfig(max_iters=30, lm_lambda0=1e-30)
    coincident = np.array([0.3, 0.4, 0.3, 0.4, 0.0, 0.5])  # the squares overlap exactly
    jac = mo.jacobian(sys, coincident)
    grad = jac.T @ mo.residual(sys, coincident)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac.T @ jac + cfg.lm_lambda0 * np.eye(sys.var_count), -grad)
    solved = mo.layout_to_vars(
        sys, Layout((Placement(0, 0, 1, 1), Placement(1, 0, 2, 1), Placement(0, 1, 2, 2)))
    )
    non_finite = np.full(sys.var_count, np.nan)
    normal = np.array([[0.1, 0.7, 0.8, 0.2, 0.0, 0.6], [0.6, 0.1, 0.2, 0.5, 0.0, 0.3]])
    x0 = np.stack([normal[0], coincident, solved, non_finite, normal[1]])
    x, steps, costs, _ = assert_rows_run_as_alone(sys, x0, cfg)
    assert steps[1] > 0  # the singular row moved on through lstsq
    assert steps[2] == 0 and x[2].tobytes() == solved.tobytes()
    assert steps[3] == 0 and costs[3, 0] == float("inf")
    assert steps[0] > 0 and steps[4] > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", [mo.FIXED, mo.ROTATABLE])
def test_lockstep_far_and_non_finite_starts_gain_no_non_finite_value(mode):
    # No clip pulls a far start back: its residual overflows, or no step
    # lowers its cost.  Either way no row may turn non-finite.
    inst, _ = gen_guillotine(3, 19, BoxSpec(10.0, 8.0))
    sys = mo.build_system(inst, mode=mode)
    inside = box_starts(sys, 3, 1)[0]
    far = [inside + v for v in (1e3, -1e3, 1e18, 1e40)]
    x0 = np.stack(far + [np.full(sys.var_count, np.nan)])
    x, steps, costs, r_inf = assert_rows_run_as_alone(sys, x0, SolveConfig(max_iters=20))
    assert np.all(np.isfinite(x) | ~np.isfinite(x0))
    for k in range(len(x0)):
        assert np.all(np.isfinite(costs[k, 1 : steps[k] + 1]))
    assert np.array_equal(np.isfinite(r_inf), np.isfinite(costs[:, 0]))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(0, 5),
    rows=st.integers(1, 4),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    lm_lambda0=st.sampled_from([1e-30, 1e-3, 1e13]),
    lambda_max=st.sampled_from([solver.LAMBDA_MAX, 1e-2]),
)
def test_lockstep_follows_the_one_attempt_rule(seed, cuts, rows, mode, lm_lambda0, lambda_max):
    # At lm_lambda0 1e13 every first attempt exceeds LAMBDA_MAX.  Lowered
    # to 1e-2, it stops many rows within 200 iterations, where a rung
    # past it would often have lowered the cost.
    inst, _ = gen_guillotine(seed, cuts, BoxSpec(3.0, 2.0 + seed % 3))
    sys = mo.build_system(inst, mode=mode)
    x0 = box_starts(sys, seed, rows)
    cfg = SolveConfig(max_iters=200, lm_lambda0=lm_lambda0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "LAMBDA_MAX", lambda_max)
        x, steps, costs, r_inf = solver._lockstep(sys, x0, cfg)
        reference = [sequential_lm(sys, row, cfg) for row in x0]
    for k, (x1, steps1, costs1, _) in enumerate(reference):
        assert x[k].tobytes() == x1.tobytes()
        assert steps[k] == steps1
        assert costs[k, : steps[k] + 1].tobytes() == np.array(costs1).tobytes()
        assert r_inf[k] == np.max(np.abs(mo.residual(sys, x1)))


@pytest.mark.parametrize("lm_lambda0", [1e-30, 1e-3, 1e13])
def test_lockstep_rows_die_on_lambda_max_as_the_rule_says(lm_lambda0):
    # A unit square in a 2x1 box has no root: the rows run to a
    # stationary point (max |r| 0.5), where no step lowers the cost and
    # lambda climbs past LAMBDA_MAX.  With step_tol 0 that is the only way
    # to stop early.
    sys = mo.build_system(Instance.from_sides([(1, 1)], BoxSpec(2, 1)), mode=mo.FIXED)
    x0 = np.array([[0.0, 0.0], [0.15, 0.0], [0.5, 0.0]])  # left, inside, right wall
    cfg = SolveConfig(max_iters=200, step_tol=0.0, lm_lambda0=lm_lambda0)
    x, steps, costs, r_inf = solver._lockstep(sys, x0, cfg)
    for k in range(len(x0)):
        x1, steps1, costs1, attempts = sequential_lm(sys, x0[k], cfg)
        assert x[k].tobytes() == x1.tobytes()
        assert steps[k] == steps1 < cfg.max_iters
        assert costs[k, : steps[k] + 1].tobytes() == np.array(costs1).tobytes()
        assert r_inf[k] > cfg.residual_tol
        assert attempts > steps1  # the last iteration only rejects


def test_multistart_verifies_starts_near_a_wall_touching_witness():
    # A guillotine tiling of 15 rectangles puts many unknowns on a wall.
    # Each rectangle is shifted by up to 1e-3 of the box's longer side.
    for seed in range(8):
        inst, witness = gen_guillotine(seed, 14, BoxSpec(10.0, 8.0))
        rng = np.random.default_rng(seed)
        placements = []
        for p in witness.placements:
            dx, dy = rng.uniform(-1e-2, 1e-2, size=2)
            placements.append(Placement(p.x_lo + dx, p.y_lo + dy, p.x_hi + dx, p.y_hi + dy))
        start = Layout(tuple(placements))
        cfg = SolveConfig(restarts=1, init_strategy="user_layout", initial_layout=start)
        report = solve_multistart(inst, cfg, mode=mo.FIXED)
        assert report.status == "converged_verified" and report.start_index == 0, seed


def sequential_multistart(inst, cfg, mode, max_order=None, checked=None, attempts=None):
    """Reference: the multistart loop one start at a time through
    sequential_lm, as (status, start_index, iterations_total, best_layout,
    final_residual_inf).  Every layout it verifies is appended to checked,
    the attempt count of every LM run to attempts."""
    checked = [] if checked is None else checked
    attempts = [] if attempts is None else attempts
    sys = mo.build_system(inst, max_order, mode)
    polish = replace(
        cfg, residual_tol=0.0, step_tol=1e-15, max_iters=solver.POLISH_MAX_ITERS, lm_lambda0=1e-6
    )
    best = (float("inf"), -1, None)
    iterations = 0
    any_converged = False
    for k in range(cfg.restarts):
        x0 = solver._start_vector(sys, inst, cfg, k)
        x, steps, _, tried = sequential_lm(sys, x0, cfg)
        iterations += steps
        attempts.append(tried)
        r_inf = np.max(np.abs(mo.residual(sys, x)))
        if r_inf <= cfg.residual_tol:
            any_converged = True
            x, steps, _, tried = sequential_lm(sys, x, polish)
            iterations += steps
            attempts.append(tried)
            raw = mo.vars_to_layout(sys, x)
            checked.append(raw)
            if verify_layout(inst, raw).passed:
                final = np.max(np.abs(mo.residual(sys, mo.layout_to_vars(sys, raw))))
                return "converged_verified", k, iterations, raw, final
            r_inf = np.max(np.abs(mo.residual(sys, x)))
        if r_inf < best[0]:
            best = (r_inf, k, mo.vars_to_layout(sys, x))
    status = "converged_unverified" if any_converged else "exhausted"
    return status, best[1], iterations, best[2], best[0]


def second_chunk_winner():
    # Fixed mode at these settings: starts 0-7 fail, start 8 verifies.
    inst, _ = gen_guillotine(46, 3, BoxSpec(3.0, 2.0))
    return inst, SolveConfig(max_iters=40, seed=46), mo.FIXED


def rotatable_dominoes():
    # Three dominoes in a 3x2 box: start 0 fails, start 1 verifies, and
    # later starts in its chunk converge too.
    inst = Instance.from_sides([(1, 2)] * 3, BoxSpec(3, 2))
    cfg = SolveConfig(max_iters=40, seed=1, init_strategy="uniform_random")
    return inst, cfg, mo.ROTATABLE


def assert_report_is(report, expected):
    status, start, iterations, layout, final = expected
    assert report.status == status
    assert report.start_index == start
    assert report.iterations_total == iterations
    assert serialize_layout(report.best_layout) == serialize_layout(layout)
    assert report.final_residual_inf == final


@pytest.mark.parametrize("case", [second_chunk_winner, rotatable_dominoes])
@pytest.mark.parametrize("restarts", [1, 8, 9, 11])
def test_multistart_matches_sequential_across_chunks(case, restarts):
    assert solver.LOCKSTEP_CHUNK == 8
    inst, cfg, mode = case()
    cfg = replace(cfg, restarts=restarts)
    report = solve_multistart(inst, cfg, mode=mode)
    assert_report_is(report, sequential_multistart(inst, cfg, mode))
    if case is second_chunk_winner:
        assert report.status == ("converged_verified" if restarts > 8 else "exhausted")


def test_ladder_makes_fewer_stacked_solves_than_attempts(monkeypatch):
    # Both starts run in one chunk: start 0 takes all 40 steps, start 1
    # verifies.  The one-attempt reference makes 76 attempts.
    inst, cfg, mode = rotatable_dominoes()
    cfg = replace(cfg, restarts=2)
    attempts = []
    expected = sequential_multistart(inst, cfg, mode, attempts=attempts)
    solves = []
    solve_rows = solver._solve_rows

    def counting_solve(a, b):
        solves.append(len(a))
        return solve_rows(a, b)

    monkeypatch.setattr(solver, "_solve_rows", counting_solve)
    report = solve_multistart(inst, cfg, mode=mode)
    assert_report_is(report, expected)
    assert report.status == "converged_verified" and report.start_index == 1
    assert len(solves) < sum(attempts)


def test_multistart_verifies_each_converged_start_once(monkeypatch):
    # At order 3 many starts converge to layouts that are not packings:
    # starts 0-5 converge and fail, start 6 verifies, and the later start
    # of its chunk converges but is never verified.
    inst = Instance.from_sides([(1, 1), (1, 2), (1, 2), (2, 2)], BoxSpec(3, 3))
    cfg = SolveConfig(restarts=64, max_iters=60, init_strategy="uniform_random")
    verified = []

    def counting_verify(inst, layout, *args, **kwargs):
        verified.append(layout)
        return verify_layout(inst, layout, *args, **kwargs)

    monkeypatch.setattr(solver, "verify_layout", counting_verify)
    report = solve_multistart(inst, cfg, max_order=3, mode=mo.ROTATABLE)
    expected = []
    sequential_multistart(inst, cfg, mo.ROTATABLE, max_order=3, checked=expected)
    assert report.status == "converged_verified"
    assert report.start_index == 6
    assert list(map(serialize_layout, verified)) == list(map(serialize_layout, expected))
    assert len(verified) == 7
    assert verified[-1] is report.best_layout


def test_chunk_stops_once_a_lower_start_verifies(monkeypatch):
    # Start 0 verifies after 14 steps, polish included.  Run to their own
    # stops, the eight starts of the chunk evaluate 64 batched Jacobians.
    inst, _ = gen_guillotine(0, 3, BoxSpec(3.0, 2.0))
    cfg = SolveConfig(restarts=8, max_iters=60, seed=0)
    expected = sequential_multistart(inst, cfg, mo.FIXED)
    calls = []
    batch_jacobian = mo.batch_jacobian

    def counting_jacobian(sys, table):
        calls.append(len(table))
        return batch_jacobian(sys, table)

    monkeypatch.setattr(mo, "batch_jacobian", counting_jacobian)
    report = solve_multistart(inst, cfg, mode=mo.FIXED)
    assert_report_is(report, expected)
    assert report.status == "converged_verified"
    assert report.start_index == 0 and report.iterations_total == 14
    assert len(calls) < 20


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(1, 4),
    restarts=st.integers(1, 17),
    max_iters=st.integers(5, 40),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    init_strategy=st.sampled_from(["shelf_greedy", "uniform_random"]),
    max_order=st.sampled_from([None, 2]),
)
def test_multistart_matches_sequential(
    seed, cuts, restarts, max_iters, mode, init_strategy, max_order
):
    # Across chunk boundaries, solve_multistart reports what the
    # start-by-start loop reports and verifies the same layouts in order.
    # Order 2 makes starts that converge but fail verification.
    inst, _ = gen_guillotine(seed, cuts, BoxSpec(3.0, 2.0 + seed % 3))
    cfg = SolveConfig(
        restarts=restarts, max_iters=max_iters, seed=seed, init_strategy=init_strategy
    )
    verified = []

    def recording_verify(inst, layout, *args, **kwargs):
        verified.append(layout)
        return verify_layout(inst, layout, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "verify_layout", recording_verify)
        report = solve_multistart(inst, cfg, max_order, mode)
    checked = []
    expected = sequential_multistart(inst, cfg, mode, max_order, checked)
    assert_report_is(report, expected)
    assert list(map(serialize_layout, verified)) == list(map(serialize_layout, checked))
