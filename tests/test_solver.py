"""Levenberg-Marquardt core, snapping, and the multistart driver."""

from __future__ import annotations

import math
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
    area_can_pass,
    fit_can_pass,
    gen_guillotine,
    harmonic_prefix,
    init_shelf_greedy,
    serialize_layout,
    snap_layout,
    solve_multistart,
    solve_single,
    verify_layout,
)
from momentpack import moments as mo
from momentpack import solver
from momentpack.verify import DEFAULT_TOL


def dominoes():
    return Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2))


# -- Config -------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iters": 0},
        {"restarts": 0},
        {"seed": -1},
        {"max_iters": 2.5},
        {"restarts": 2.5},
        {"seed": float("nan")},
        {"restarts": True},
        {"seed": "1"},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        SolveConfig(**kwargs)


def test_config_accepts_numpy_integers():
    cfg = SolveConfig(max_iters=np.int64(5), restarts=np.int32(2), seed=np.uint8(3))
    assert (cfg.max_iters, cfg.restarts, cfg.seed) == (5, 2, 3)


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


def numpy_start_vector(sys, inst, seed, start_index):
    """_start_vector as it drew with rng.uniform(size=2) and clamped in
    numpy: the reference its random starts must match byte for byte."""
    rng = np.random.default_rng(seed * solver._SEED_STRIDE + start_index)
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


@settings(max_examples=80, deadline=None)
@given(
    sides=st.lists(
        st.tuples(st.floats(0.05, 12.0), st.floats(0.05, 12.0), st.booleans()),
        min_size=1,
        max_size=12,
    ),
    box=st.tuples(st.floats(0.5, 10.0), st.floats(0.5, 10.0)),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    seed=st.integers(0, 10**6),
    starts=st.lists(st.integers(1, 200), min_size=1, max_size=4),
)
def test_random_starts_match_the_numpy_draw_bytewise(sides, box, mode, seed, starts):
    # Squares stay upright in rotatable mode, so fixed, rotatable and mixed
    # systems all occur; sides past the box make the clamp bite.
    rects = [(w, w if square else h) for w, h, square in sides]
    inst = Instance.from_sides(rects, BoxSpec(*box), rotation_allowed=mode == mo.ROTATABLE)
    sys = mo.build_system(inst, 3, mode)
    for k in starts:
        got = solver._start_vector(sys, inst, seed, k)
        assert got.tobytes() == numpy_start_vector(sys, inst, seed, k).tobytes()


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


@pytest.mark.parametrize(
    "sides, rotation_allowed, mode",
    [
        ([(1, 4)], True, mo.ROTATABLE),  # too long either way
        ([(1, 1), (1, 3)], False, mo.FIXED),  # fits only turned
    ],
)
def test_multistart_fit_fast_reject(sides, rotation_allowed, mode):
    # Each instance fills a 2x2 box by area, but a rectangle fits it in no
    # orientation the verifier allows.
    inst = Instance.from_sides(sides, BoxSpec(2, 2), rotation_allowed=rotation_allowed)
    assert area_can_pass(inst) and not fit_can_pass(inst)
    report = solve_multistart(inst, SolveConfig(restarts=8), mode=mode)
    assert report.status == "exhausted"
    assert report.reason == "fit"
    assert report.best_layout is None
    assert report.iterations_total == 0
    assert report.start_index == -1


@pytest.mark.parametrize(
    "max_order, mode",
    [(None, "bogus"), (0, mo.FIXED), (None, mo.ROTATABLE)],
)
def test_multistart_checks_arguments_before_the_gates(max_order, mode):
    # Two unit squares leave most of a 3x3 box empty, so the area gate
    # rejects them; a bad mode or order, or rotatable mode on an instance
    # that forbids rotation, is still an error.
    inst = Instance.from_sides([(1, 1), (1, 1)], BoxSpec(3, 3), rotation_allowed=False)
    assert not area_can_pass(inst)
    with pytest.raises(ValueError):
        solve_multistart(inst, SolveConfig(restarts=2), max_order, mode)


def test_multistart_rejects_harmonic_prefix_by_area():
    # The first 20 harmonic rectangles leave 1/21 of the unit box empty:
    # no layout of them can pass verify_layout, so no start is run.
    report = solve_multistart(harmonic_prefix(20), SolveConfig(), mode=mo.ROTATABLE)
    assert report.status == "exhausted"
    assert report.reason == "area"
    assert report.iterations_total == 0


def test_multistart_runs_starts_past_an_area_gap_within_tolerance():
    # Rectangle areas 4e-8 = 1e-8 * A * B over the box: a gap the verifier
    # accepts, so the starts run.  No layout zeroes the moment system, whose
    # residual floor is about the gap, but the domino tiling passes the
    # verifier: start 0 stalls there and is verified as it stopped.
    inst = Instance.from_sides([(1, 2), (1, 2 + 4e-8)], BoxSpec(2, 2))
    report = solve_multistart(inst, SolveConfig(restarts=8))
    assert report.status == "converged_verified"
    assert report.final_residual_inf > solver.RESIDUAL_TOL
    assert verify_layout(inst, report.best_layout).passed


@pytest.mark.parametrize("seed", [2, 3, 8, 13])
def test_multistart_verifies_sides_typed_to_eight_digits(seed):
    # A guillotine tiling's sides rounded to 8 significant digits, as a user
    # would type them: the generator's layout still passes the verifier, but
    # the moment system keeps a residual floor of a few 1e-9, far above
    # RESIDUAL_TOL, so no start converges.  A start that stalls at the
    # floor is verified as it stopped.
    box = BoxSpec(10.0, 8.0)
    inst, witness = gen_guillotine(seed, 5, box)
    sides = [(float(f"{r.width:.8g}"), float(f"{r.height:.8g}")) for r in inst.rects]
    typed = Instance.from_sides(sides, box)
    assert verify_layout(typed, witness).passed
    report = solve_multistart(typed, SolveConfig(seed=seed), mode=mo.FIXED)
    assert report.status == "converged_verified"
    assert report.final_residual_inf > solver.RESIDUAL_TOL
    assert verify_layout(typed, report.best_layout).passed


def test_multistart_exhausts_on_unpackable_exact_area():
    # Two 2x2 squares and a unit square fill a 3x3 box by area, and each
    # fits it, but the two 2x2 squares cannot share it.
    inst = Instance.from_sides([(2, 2), (2, 2), (1, 1)], BoxSpec(3, 3), rotation_allowed=False)
    report = solve_multistart(inst, SolveConfig(restarts=4, max_iters=60))
    assert report.status == "exhausted"
    assert report.reason is None
    assert report.final_residual_inf > 1e-10
    assert report.best_layout is not None  # best effort is still reported


def test_multistart_rotatable_mode():
    inst = Instance.from_sides([(1, 2)] * 3, BoxSpec(2, 3))
    report = solve_multistart(
        inst, SolveConfig(restarts=64), mode=mo.ROTATABLE
    )
    assert report.status == "converged_verified"
    assert verify_layout(inst, report.best_layout).passed


def test_report_to_dict_serializes_infinite_residual():
    # The float stays as it is; the command line prints it as null.
    inst = Instance.from_sides([(1, 1)], BoxSpec(2, 2))
    doc = solve_multistart(inst, SolveConfig(restarts=2)).to_dict()
    assert doc["final_residual_inf"] == math.inf
    assert doc["status"] == "exhausted"


# -- Lockstep multistart ------------------------------------------------------


def assert_rows_run_as_alone(sys, x0, max_iters):
    """Every row of one lockstep run equals, bit for bit, the run of that
    row by itself; returns the batched result."""
    batched = solver._lockstep(sys, x0, max_iters)
    x, steps, costs, r_inf, _ = batched
    for k, row in enumerate(x0):
        x1, steps1, costs1, r_inf1, _ = solver._lockstep(sys, row[None], max_iters)
        assert x[k].tobytes() == x1[0].tobytes()
        assert steps[k] == steps1[0]
        assert costs[k, : steps[k] + 1].tobytes() == costs1[0, : steps1[0] + 1].tobytes()
        assert r_inf[k].tobytes() == r_inf1[0].tobytes()
    return batched


def sequential_lm(sys, x0, max_iters, cut=None):
    """Reference for _lockstep, reading the stop rule from the solver's
    constants when called: Levenberg-Marquardt on one row with one damped
    attempt per round, on the same batched primitives (batches of one).
    Returns the final variables, the accepted step count, the accepted
    costs and, for each attempt, whether it was accepted; the run stops in
    the round of its last attempt.  cut, if given, ends the run after that
    many attempts, as a win in that round ends a row still running."""
    residual_tol, stall_tol = solver.RESIDUAL_TOL, solver.STALL_TOL
    eye = np.eye(sys.var_count)

    def evaluate(x):
        table = mo.chebyshev_table(sys, x)
        r = mo.batch_residual(sys, table)
        return table, r, solver._costs(r)[0] if np.all(np.isfinite(r)) else np.inf

    x = x0[None]
    lam = solver.LAMBDA0
    accepted = []
    with np.errstate(over="ignore", invalid="ignore"):
        table, r, cost = evaluate(x)
        costs = [cost]
        live = np.all(np.isfinite(r)) and np.max(np.abs(r)) > residual_tol
        stepped = True
        while live and (cut is None or len(accepted) < cut):
            if stepped:
                jac = mo.batch_jacobian(sys, table)
                jac_t = jac.transpose(0, 2, 1)
                neg_grad = -(jac_t @ r[:, :, None])[:, :, 0]
                hess = jac_t @ jac
            delta = solver._solve_rows(hess + lam * eye, neg_grad)
            cand = x + delta
            cand_table, r_new, cost_new = evaluate(cand)
            stepped = cost_new < cost
            accepted.append(stepped)
            if stepped:
                fell = cost_new < (1.0 - stall_tol) * cost
                x, table, r, cost = cand, cand_table, r_new, cost_new
                lam = max(lam * solver.LAMBDA_DECREASE, solver.LAMBDA_MIN)
                costs.append(cost)
                live = np.max(np.abs(r)) > residual_tol and fell and len(costs) - 1 < max_iters
            else:
                lam *= solver.LAMBDA_INCREASE
                live = lam <= solver.LAMBDA_MAX
    return x[0], len(costs) - 1, costs, accepted


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
    assert_rows_run_as_alone(sys, x0, 15)


def test_lockstep_singular_and_stopped_rows_leave_others_unchanged(monkeypatch):
    inst = Instance.from_sides([(1, 1), (1, 1), (2, 1)], BoxSpec(2, 2), rotation_allowed=False)
    sys = mo.build_system(inst, mode=mo.FIXED)
    # A damping this small vanishes next to J^T J, so a rank-deficient
    # J^T J stays exactly singular.
    lambda0 = 1e-30
    monkeypatch.setattr(solver, "LAMBDA0", lambda0)
    coincident = np.array([0.3, 0.4, 0.3, 0.4, 0.0, 0.5])  # the squares overlap exactly
    jac = mo.jacobian(sys, coincident)
    grad = jac.T @ mo.residual(sys, coincident)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac.T @ jac + lambda0 * np.eye(sys.var_count), -grad)
    solved = mo.layout_to_vars(
        sys, Layout((Placement(0, 0, 1, 1), Placement(1, 0, 2, 1), Placement(0, 1, 2, 2)))
    )
    non_finite = np.full(sys.var_count, np.nan)
    normal = np.array([[0.1, 0.7, 0.8, 0.2, 0.0, 0.6], [0.6, 0.1, 0.2, 0.5, 0.0, 0.3]])
    x0 = np.stack([normal[0], coincident, solved, non_finite, normal[1]])
    x, steps, costs, _, _ = assert_rows_run_as_alone(sys, x0, 30)
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
    x, steps, costs, r_inf, _ = assert_rows_run_as_alone(sys, x0, 20)
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
    lambda0=st.sampled_from([1e-30, 1e-3, 1e13]),
    lambda_max=st.sampled_from([solver.LAMBDA_MAX, 1e-2]),
)
def test_lockstep_follows_the_one_attempt_rule(seed, cuts, rows, mode, lambda0, lambda_max):
    # At lambda0 1e13 every first attempt exceeds LAMBDA_MAX.  Lowered
    # to 1e-2, it stops many rows within 200 iterations, where a damping
    # past it would often have lowered the cost.
    inst, _ = gen_guillotine(seed, cuts, BoxSpec(3.0, 2.0 + seed % 3))
    sys = mo.build_system(inst, mode=mode)
    x0 = box_starts(sys, seed, rows)
    solved = []
    jacobians = []
    solve_rows = solver._solve_rows
    batch_jacobian = mo.batch_jacobian

    def counting_solve(a, b):
        solved.append(len(a))
        return solve_rows(a, b)

    def counting_jacobian(sys, table):
        jacobians.append(len(table))
        return batch_jacobian(sys, table)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "LAMBDA_MAX", lambda_max)
        patch.setattr(solver, "LAMBDA0", lambda0)
        with pytest.MonkeyPatch.context() as counting:
            counting.setattr(solver, "_solve_rows", counting_solve)
            counting.setattr(mo, "batch_jacobian", counting_jacobian)
            x, steps, costs, r_inf, _ = solver._lockstep(sys, x0, 200)
        reference = [sequential_lm(sys, row, 200) for row in x0]
    for k, (x1, steps1, costs1, _) in enumerate(reference):
        assert x[k].tobytes() == x1.tobytes()
        assert steps[k] == steps1
        assert costs[k, : steps[k] + 1].tobytes() == np.array(costs1).tobytes()
        assert r_inf[k] == np.max(np.abs(mo.residual(sys, x1)))
    # One linear system per attempt: no row tries a damping the rule skips.
    assert sum(solved) == sum(len(accepted) for *_, accepted in reference)
    # One round per attempt of the longest row: a row that was rejected
    # retries beside the others' next attempts, in one stacked solve, and
    # the Jacobians of a round's accepted steps are one evaluation.
    rounds = max(len(accepted) for *_, accepted in reference)
    assert len(solved) == rounds
    assert len(jacobians) <= rounds + 1


@pytest.mark.parametrize("lambda0", [1e-30, 1e-3, 1e13])
def test_lockstep_rows_die_on_lambda_max_as_the_rule_says(monkeypatch, lambda0):
    # A unit square in a 2x1 box has no root: the rows run to a
    # stationary point (max |r| 0.5), where no step lowers the cost and
    # lambda climbs past LAMBDA_MAX.  With STALL_TOL 0 that is the only way
    # to stop early.
    sys = mo.build_system(Instance.from_sides([(1, 1)], BoxSpec(2, 1)), mode=mo.FIXED)
    x0 = np.array([[0.0, 0.0], [0.15, 0.0], [0.5, 0.0]])  # left, inside, right wall
    monkeypatch.setattr(solver, "STALL_TOL", 0.0)
    monkeypatch.setattr(solver, "LAMBDA0", lambda0)
    x, steps, costs, r_inf, _ = solver._lockstep(sys, x0, 200)
    for k in range(len(x0)):
        x1, steps1, costs1, accepted = sequential_lm(sys, x0[k], 200)
        assert x[k].tobytes() == x1.tobytes()
        assert steps[k] == steps1 < 200
        assert costs[k, : steps[k] + 1].tobytes() == np.array(costs1).tobytes()
        assert r_inf[k] > solver.RESIDUAL_TOL
        assert len(accepted) > steps1 and not accepted[-1]  # the last attempts only reject


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(0, 6),
    rows=st.integers(1, 6),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
)
def test_stall_rule_cuts_each_row_to_a_prefix_of_its_path(seed, cuts, rows, mode):
    # Under the stall rule a row follows its path without the rule bit for
    # bit, and ends at the first accepted step that lowers its cost by less
    # than STALL_TOL of it, unless an older rule ended it first.
    inst, _ = gen_guillotine(seed, cuts, BoxSpec(3.0, 2.0 + seed % 3))
    sys = mo.build_system(inst, mode=mode)
    x0 = box_starts(sys, seed, rows)
    x, steps, costs, r_inf, _ = solver._lockstep(sys, x0, 80)

    def rule_free(x0, max_iters):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "STALL_TOL", 0.0)
            return solver._lockstep(sys, x0, max_iters)

    _, steps0, costs0, _, _ = rule_free(x0, 80)
    for k in range(rows):
        path = costs0[k, : steps0[k] + 1]
        stalled = np.flatnonzero(path[1:] >= (1.0 - solver.STALL_TOL) * path[:-1])
        assert steps[k] == (stalled[0] + 1 if len(stalled) else steps0[k])
        assert costs[k, : steps[k] + 1].tobytes() == path[: steps[k] + 1].tobytes()
        # The rule-free run cut after as many steps; a row that took none
        # stopped by an older rule, which cuts the rule-free run too.
        x1, steps1, _, r_inf1, _ = rule_free(x0[k, None], max(steps[k], 1))
        assert steps1[0] == steps[k]
        assert x[k].tobytes() == x1[0].tobytes()
        assert r_inf[k].tobytes() == r_inf1[0].tobytes()


def test_multistart_verifies_starts_near_a_wall_touching_witness(monkeypatch):
    # A guillotine tiling of 15 rectangles puts many unknowns on a wall.
    # Each rectangle is shifted by up to 1e-3 of the box's longer side, and
    # start 0 begins there in place of the shelf layout.
    for seed in range(8):
        inst, witness = gen_guillotine(seed, 14, BoxSpec(10.0, 8.0))
        rng = np.random.default_rng(seed)
        placements = []
        for p in witness.placements:
            dx, dy = rng.uniform(-1e-2, 1e-2, size=2)
            placements.append(Placement(p.x_lo + dx, p.y_lo + dy, p.x_hi + dx, p.y_hi + dy))
        start = Layout(tuple(placements))
        monkeypatch.setattr(solver, "init_shelf_greedy", lambda _: start)
        report = solve_multistart(inst, SolveConfig(restarts=1), mode=mo.FIXED)
        assert report.status == "converged_verified" and report.start_index == 0, seed


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(1, 5),
    rows=st.integers(1, 6),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    pick=st.integers(0, 7),
)
def test_lockstep_asks_each_stopped_row_once_and_names_the_winner(seed, cuts, rows, mode, pick):
    # passes is asked about each row as it stops: first the rows that never
    # start (a tiling and a non-finite row), then after each round the rows
    # that stopped in it, in index order.  A row stops in the round of its
    # last attempt.  A check that passes nothing changes no result.  The
    # first row it passes wins, and every row still running stops with the
    # steps it accepted in as many attempts.
    inst, witness = gen_guillotine(seed, cuts, BoxSpec(3.0, 2.0 + seed % 3))
    sys = mo.build_system(inst, mode=mode)
    tiling = mo.layout_to_vars(sys, witness)
    x0 = np.vstack([box_starts(sys, seed, rows), tiling, np.full(sys.var_count, np.nan)])
    max_iters = 30
    free = solver._lockstep(sys, x0, max_iters)
    assert free[4] == -1
    accepted = [sequential_lm(sys, row, max_iters)[3] for row in x0]
    stops = [len(a) for a in accepted]
    order = sorted(range(len(x0)), key=lambda k: (stops[k], k))
    assert stops[rows] == stops[rows + 1] == 0
    asked = []

    def never(v):
        asked.append(v.tobytes())
        return False

    x, steps, costs, r_inf, winner = solver._lockstep(sys, x0, max_iters, never)
    assert asked == [free[0][k].tobytes() for k in order]
    for got, want in zip((x, steps, r_inf), (free[0], free[1], free[3])):
        assert got.tobytes() == want.tobytes()
    for k in range(len(x0)):  # costs past a row's steps are never written
        assert costs[k, : steps[k] + 1].tobytes() == free[2][k, : steps[k] + 1].tobytes()
    assert winner == -1

    w = order[pick % len(order)]
    asked.clear()

    def only_w(v):
        asked.append(v.tobytes())
        return asked[-1] == free[0][w].tobytes()

    x, steps, costs, r_inf, winner = solver._lockstep(sys, x0, max_iters, only_w)
    assert winner == w
    assert asked == [free[0][k].tobytes() for k in order[: order.index(w) + 1]]
    t = stops[w]
    for k in range(len(x0)):
        if stops[k] <= t:  # stopped on its own
            want = [a[k] for a in free[:4]]
        else:  # cut after its t-th attempt
            x1, steps1, costs1, _ = sequential_lm(sys, x0[k], max_iters, cut=t)
            want = [x1, steps1, np.array(costs1), np.max(np.abs(mo.residual(sys, x1)))]
        assert x[k].tobytes() == want[0].tobytes()
        assert steps[k] == want[1] == sum(accepted[k][:t])
        assert costs[k, : steps[k] + 1].tobytes() == want[2][: steps[k] + 1].tobytes()
        assert r_inf[k].tobytes() == want[3].tobytes()


def sequential_multistart(inst, cfg, mode, max_order=None, checked=None):
    """Reference for the first-to-verify rule: the multistart loop through
    sequential_lm, as (status, start_index, iterations_total, best_layout,
    final_residual_inf).  Each start k runs alone and stops after its a_k-th
    attempt.  Every start is verified as it stopped, converged or not, in
    (a_k, k) order, and the first to pass wins at T = a_k: each start's
    steps count up to its T-th attempt.  Every layout it verifies is
    appended to checked."""
    checked = [] if checked is None else checked
    sys = mo.build_system(inst, max_order, mode)
    best = (float("inf"), -1, None)
    any_converged = False
    starts = range(cfg.restarts)
    x0 = [solver._start_vector(sys, inst, cfg.seed, k) for k in starts]
    runs = [sequential_lm(sys, x0[k], cfg.max_iters) for k in starts]
    winner = cut = None
    for t, k in sorted((len(run[3]), k) for k, run in enumerate(runs)):
        x = runs[k][0]
        r_inf = np.max(np.abs(mo.residual(sys, x)))
        any_converged |= bool(r_inf <= solver.RESIDUAL_TOL)
        raw = mo.vars_to_layout(sys, x)
        checked.append(raw)
        if verify_layout(inst, raw).passed:
            winner, cut = (k, raw), t
            break
        if (r_inf, k) < best[:2]:
            best = (r_inf, k, raw)
    iterations = sum(sum(accepted[:cut]) for *_, accepted in runs)
    if winner is not None:
        k, raw = winner
        final = np.max(np.abs(mo.residual(sys, mo.layout_to_vars(sys, raw))))
        return "converged_verified", k, iterations, raw, final
    status = "converged_unverified" if any_converged else "exhausted"
    return status, best[1], iterations, best[2], best[0]


def index_order_multistart(inst, cfg, mode, max_order=None):
    """Reference for the earlier winner rule, the lowest verified start
    index: the multistart loop one start at a time through sequential_lm,
    verifying every start as it stopped, as (status, start_index,
    iterations_total, best_layout, final_residual_inf)."""
    sys = mo.build_system(inst, max_order, mode)
    best = (float("inf"), -1, None)
    iterations = 0
    any_converged = False
    for k in range(cfg.restarts):
        x0 = solver._start_vector(sys, inst, cfg.seed, k)
        x, steps, _, _ = sequential_lm(sys, x0, cfg.max_iters)
        iterations += steps
        r_inf = np.max(np.abs(mo.residual(sys, x)))
        any_converged |= bool(r_inf <= solver.RESIDUAL_TOL)
        raw = mo.vars_to_layout(sys, x)
        if verify_layout(inst, raw).passed:
            final = np.max(np.abs(mo.residual(sys, mo.layout_to_vars(sys, raw))))
            return "converged_verified", k, iterations, raw, final
        if r_inf < best[0]:
            best = (r_inf, k, raw)
    status = "converged_unverified" if any_converged else "exhausted"
    return status, best[1], iterations, best[2], best[0]


def second_chunk_winner():
    # Fixed mode at these settings: starts 0-7 and 10 fail, and starts 8 and
    # 9 verify, so no start below 8 wins.  Start 8 stops after 15 attempts
    # (10 steps) and start 9 after 11 (8 steps), so at 11 restarts start 9
    # wins.
    inst, _ = gen_guillotine(46, 3, BoxSpec(3.0, 2.0))
    return inst, SolveConfig(max_iters=40, seed=46), mo.FIXED


def rotatable_dominoes():
    # Two dominoes in a 4x1 box: the shelf start 0 stands them upright and
    # fails.  Starts 1-10 all verify, start 1 after 6 attempts and start 4
    # first, after 4, tied with start 9.
    inst = Instance.from_sides([(1, 2)] * 2, BoxSpec(4, 1))
    cfg = SolveConfig(max_iters=40, seed=1)
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
    # One lockstep call races all the starts, so on either side of 8
    # restarts the winner is the reference's: the fewest attempts over all
    # starts, a start of 8 or more included.
    inst, cfg, mode = case()
    cfg = replace(cfg, restarts=restarts)
    report = solve_multistart(inst, cfg, mode=mode)
    assert_report_is(report, sequential_multistart(inst, cfg, mode))
    winners = {second_chunk_winner: {9: 8, 11: 9}, rotatable_dominoes: {8: 4, 9: 4, 11: 4}}
    start = winners[case].get(restarts)
    assert report.status == ("exhausted" if start is None else "converged_verified")
    assert start is None or report.start_index == start


def guillotine_n6_cases():
    # Guillotine N = 6 in a 10x8 box at 16 restarts, fixed mode, and two
    # dominoes in rotatable mode.
    box = BoxSpec(10.0, 8.0)
    return [
        (gen_guillotine(seed, 5, box)[0], SolveConfig(restarts=16, seed=seed), mo.FIXED)
        for seed in range(16)
    ] + [rotatable_dominoes()]


def test_stall_rule_cuts_no_winner(monkeypatch):
    # No start that converges takes a step lowering its cost by less than
    # STALL_TOL of it.  So with the rule every answer keeps its status, and
    # every verified one its winner and layout.  The rule only shortens
    # starts that fail: fewer steps in all.
    cases = guillotine_n6_cases()

    def reports():
        return [solve_multistart(inst, cfg, mode=mode) for inst, cfg, mode in cases]

    with_rule = reports()
    monkeypatch.setattr(solver, "STALL_TOL", 0.0)
    without = reports()
    for a, b in zip(with_rule, without):
        assert a.status == b.status
        if b.status == "converged_verified":
            assert a.start_index == b.start_index
            assert serialize_layout(a.best_layout) == serialize_layout(b.best_layout)
    assert {r.status for r in without} == {"converged_verified", "exhausted"}
    assert sum(r.iterations_total for r in with_rule) < sum(r.iterations_total for r in without)


def test_stall_margin_of_the_tightest_converging_start():
    # Of the converging starts measured with every row run to its own stop,
    # this one comes closest to the stall rule: one of its steps lowers the
    # cost by 9.49e-8 of it, under ten times STALL_TOL.  With the rule ten
    # times looser it would stop there, far from its root.
    inst, _ = gen_guillotine(247, 2, BoxSpec(10, 8))
    sys = mo.build_system(inst, mode=mo.ROTATABLE)
    x0 = solver._start_vector(sys, inst, 16, 50)[None]
    _, steps, costs, r_inf, _ = solver._lockstep(sys, x0, 500)
    assert r_inf[0] <= solver.RESIDUAL_TOL
    path = costs[0, : steps[0] + 1]
    assert np.min((path[:-1] - path[1:]) / path[:-1]) > solver.STALL_TOL


def test_verified_layouts_pass_at_a_tenth_of_the_default_tolerance():
    # A converged start is verified as it stopped, at max |r| <= RESIDUAL_TOL,
    # not refined to roundoff.  The moment rows are well conditioned at a
    # tiling, so that residual puts the layout far inside DEFAULT_TOL: the
    # loosest tolerance these layouts need is about 1e-9.
    verified = 0
    for inst, cfg, mode in guillotine_n6_cases():
        report = solve_multistart(inst, cfg, mode=mode)
        if report.status == "converged_verified":
            verified += 1
            assert report.final_residual_inf <= solver.RESIDUAL_TOL
            assert verify_layout(inst, report.best_layout, tol=DEFAULT_TOL / 10).passed
    assert verified > 1


def test_first_start_to_verify_ends_the_solve(monkeypatch):
    # Start 1 verifies after 6 attempts, all accepted, while start 0 is
    # bound for 16 steps in 23 attempts, 2 of them accepted in its first 6.
    # Waiting for start 0 to stop first, as a lowest index rule must, takes
    # 23 rounds; the race ends after 6, with one Jacobian evaluation per
    # round at most.
    inst, cfg, mode = rotatable_dominoes()
    cfg = replace(cfg, restarts=2)
    calls = []
    batch_jacobian = mo.batch_jacobian

    def counting_jacobian(sys, table):
        calls.append(len(table))
        return batch_jacobian(sys, table)

    monkeypatch.setattr(mo, "batch_jacobian", counting_jacobian)
    report = solve_multistart(inst, cfg, mode=mode)
    assert report.status == "converged_verified" and report.start_index == 1
    assert report.iterations_total == 2 + 6  # start 0 cut after 6 attempts, start 1
    assert len(calls) <= 6


def test_multistart_verifies_each_stopped_start_once(monkeypatch):
    # At order 3 many starts converge to layouts that are not packings.
    # No start stops before 9 attempts.  Start 28 stops after 9 and fails,
    # starts 0, 3, 13 and 23 after 10 and fail; start 36 stops after 10 too
    # and verifies, ending the solve after 10 attempts of each of the 64
    # starts, 428 of them accepted.  Start 44, which also stops after 10 and
    # would verify, comes after it, and the rest would stop later, so none
    # of them is verified.
    inst = Instance.from_sides([(1, 1), (1, 2), (1, 2), (2, 2)], BoxSpec(3, 3))
    cfg = SolveConfig(restarts=64, max_iters=60)
    verified = []

    def counting_verify(inst, layout, *args, **kwargs):
        verified.append(layout)
        return verify_layout(inst, layout, *args, **kwargs)

    monkeypatch.setattr(solver, "verify_layout", counting_verify)
    report = solve_multistart(inst, cfg, max_order=3, mode=mo.ROTATABLE)
    expected = []
    assert_report_is(report, sequential_multistart(inst, cfg, mo.ROTATABLE, 3, expected))
    assert report.status == "converged_verified"
    assert report.start_index == 36 and report.iterations_total == 428
    assert list(map(serialize_layout, verified)) == list(map(serialize_layout, expected))
    assert len(verified) == 6
    # The report carries the very layout that passed, not a second build.
    assert report.best_layout is verified[-1]


def test_all_starts_stop_once_one_verifies(monkeypatch):
    # Start 3 converges after 6 attempts, all accepted, and verifies.
    # Starts 7, 2, 4, 5 and 6 would verify too, but only after 7 to 15.  The
    # solve stops at round 6, with 20 steps accepted by the other starts in
    # their first 6 attempts.  Run to their own stops, the eight starts take
    # 28 rounds.
    inst, _ = gen_guillotine(101, 3, BoxSpec(3.0, 2.0))
    cfg = SolveConfig(restarts=8, max_iters=60, seed=101)
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
    assert report.start_index == 3 and report.iterations_total == 6 + 20
    assert len(calls) <= 6


def test_all_starts_race_in_one_lockstep_call(monkeypatch):
    # Start 2 verifies after 11 attempts, start 7 after 10, and start 9
    # after 6: the solve is one lockstep call over all 17 starts, so start 9
    # wins, though lower starts verify too.
    inst, _ = gen_guillotine(1, 3, BoxSpec(3.0, 2.0))
    cfg = SolveConfig(restarts=17, max_iters=40, seed=1)
    calls = []
    lockstep = solver._lockstep

    def counting_lockstep(sys, x0, *args):
        calls.append(len(x0))
        return lockstep(sys, x0, *args)

    monkeypatch.setattr(solver, "_lockstep", counting_lockstep)
    report = solve_multistart(inst, cfg, mode=mo.FIXED)
    assert calls == [17]
    assert_report_is(report, sequential_multistart(inst, cfg, mo.FIXED))
    assert report.status == "converged_verified" and report.start_index == 9


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(1, 4),
    restarts=st.integers(1, 17),
    max_iters=st.integers(5, 40),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    max_order=st.sampled_from([None, 2]),
)
def test_multistart_matches_sequential(seed, cuts, restarts, max_iters, mode, max_order):
    # At any number of starts, solve_multistart reports what the
    # start-alone reference reports and verifies the same layouts in order.
    # Order 2 makes starts that converge but fail verification.
    inst, _ = gen_guillotine(seed, cuts, BoxSpec(3.0, 2.0 + seed % 3))
    cfg = SolveConfig(restarts=restarts, max_iters=max_iters, seed=seed)
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


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(1, 4),
    restarts=st.integers(1, 17),
    max_iters=st.integers(5, 40),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    max_order=st.sampled_from([None, 2]),
)
def test_multistart_status_and_fallback_match_index_order(
    seed, cuts, restarts, max_iters, mode, max_order
):
    # Under either winner rule a solve verifies exactly when one of its
    # starts does, so the status is the lowest-index rule's, and a report
    # without a winner is that rule's field for field.
    inst, _ = gen_guillotine(seed, cuts, BoxSpec(3.0, 2.0 + seed % 3))
    cfg = SolveConfig(restarts=restarts, max_iters=max_iters, seed=seed)
    report = solve_multistart(inst, cfg, max_order, mode)
    expected = index_order_multistart(inst, cfg, mode, max_order)
    assert report.status == expected[0]
    if report.status != "converged_verified":
        assert_report_is(report, expected)
        assert report.reason == ("unverified" if report.status == "converged_unverified" else None)
