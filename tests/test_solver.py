"""Levenberg-Marquardt core, snapping, and the multistart driver."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction

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
    SolveReport,
    area_can_pass,
    corner_cancellation,
    enumerate_small_family,
    fit_can_pass,
    gen_guillotine,
    harmonic_prefix,
    oracle_feasible,
    parse_instance,
    serialize_instance,
    serialize_layout,
    snap_layout,
    solve_multistart,
    solve_single,
    verify_layout,
)
from momentpack import moments as mo
from momentpack import search, solver
from momentpack.verify import DEFAULT_TOL

from conftest import row_sides


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
    sys = mo.build_system(dominoes(), max_order=3)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x0 = rng.uniform(0, 0.5, sys.var_count)
        _, history, _ = solve_single(sys, x0)
        assert len(history) >= 1
        assert all(b < a for a, b in zip(history, history[1:]))


def test_solve_single_stops_immediately_at_solution():
    inst = dominoes()
    sys = mo.build_system(inst, max_order=3)
    perfect = Layout((Placement(0, 0, 1, 2), Placement(1, 0, 2, 2)))
    x, history, r_max = solve_single(sys, mo.layout_to_vars(sys, perfect))
    assert len(history) == 1
    assert r_max == np.max(np.abs(mo.residual(sys, x))) <= 1e-10


def test_solve_single_shape_check():
    sys = mo.build_system(dominoes(), max_order=3)
    with pytest.raises(ValueError, match="shape"):
        solve_single(sys, np.zeros(3))
    with pytest.raises(ValueError, match="sides of shape"):
        solve_single(sys, np.zeros(sys.var_count), sides=np.ones((3, 2)))
    with pytest.raises(ValueError, match="variable vector contains non-finite entries"):
        solve_single(sys, np.array([0.0, np.inf, 0.5, 0.0]))


def test_solve_single_reduces_residual():
    sys = mo.build_system(dominoes(), max_order=3)
    x0 = np.array([0.1, 0.3, 0.6, 0.2])
    kept = x0.copy()
    x, history, r_max = solve_single(sys, x0)
    assert x0.tobytes() == kept.tobytes()  # the caller's start is not written to
    assert history[-1] < history[0]
    assert r_max == np.max(np.abs(mo.residual(sys, x))) < np.max(np.abs(mo.residual(sys, x0)))


# -- Warm start and snapping --------------------------------------------------


def shelf_vars(sys):
    """The shelf layout, start 0 before gap-fill starts: rectangles by
    decreasing height, left to right, a new shelf on overflow, each clamped
    inside the box."""
    inst = sys.instance
    a, b = float(inst.box.width), float(inst.box.height)
    sides = [(float(r.width), float(r.height)) for r in inst.rects]
    placements = [None] * len(sides)
    cur_x = shelf_y = shelf_h = 0.0
    for i in sorted(range(len(sides)), key=lambda i: (-sides[i][1], i)):
        w, h = sides[i]
        if cur_x > 0.0 and cur_x + w > a + 1e-12:
            shelf_y, cur_x, shelf_h = shelf_y + shelf_h, 0.0, 0.0
        x_lo, y_lo = max(0.0, min(cur_x, a - w)), max(0.0, min(shelf_y, b - h))
        placements[i] = Placement(x_lo, y_lo, x_lo + w, y_lo + h)
        cur_x, shelf_h = x_lo + w, max(shelf_h, h)
    return mo.layout_to_vars(sys, Layout(tuple(placements)))


def may_turn(sys, shapes):
    """Whether each rectangle has a turned shape in shapes (search._shapes)."""
    turned = {i for i, _, _ in shapes[sys.n_rects :]}
    return [i in turned for i in range(sys.n_rects)]


def numpy_start_vector(gap_search, seed, start_index, budget=None):
    """Starts as _start_vector drew them before skyline starts: the shelf,
    then each rectangle uniformly in the box, one that may turn first
    turned by a seeded bit.  The index-order tests below build their
    scenarios on these starts (the uniform_starts fixture)."""
    sys, shapes = gap_search.sys, gap_search.shapes
    if start_index == 0:
        return shelf_vars(sys), sys.sides
    rng = np.random.default_rng(seed * solver._SEED_STRIDE + start_index)
    out, sides = np.zeros((sys.n_rects, 2)), sys.sides.copy()
    for i, turns in enumerate(may_turn(sys, shapes)):
        w, h = sys.sides[i]
        if not turns:
            room = (sys.box_w - w, sys.box_h - h)
            out[i] = rng.uniform(size=2) * np.maximum(room, 0.0)
            continue
        if rng.integers(0, 2):
            w, h = h, w
        cx = rng.uniform(w / 2, sys.box_w - w / 2) if sys.box_w > w else sys.box_w / 2
        cy = rng.uniform(h / 2, sys.box_h - h / 2) if sys.box_h > h else sys.box_h / 2
        out[i], sides[i] = (cx - w / 2, cy - h / 2), (w, h)
    return out.ravel(), sides


@pytest.fixture
def uniform_starts(monkeypatch):
    monkeypatch.setattr(solver, "_start_vector", numpy_start_vector)


def skyline_search(sys, shapes, order, keep, budget):
    """search.Search.fill's depth-first search written plainly, in one pass
    and listing each node's children anew: a node tries only the shapes in
    the bitmask keep(gap, placed), placed the shapes of placed rectangles.
    Returns how it ended, as a search.Fill (the placements of the tiling
    reached, else None; the placements made; whether the stack emptied),
    and the placements made before the first backtrack, None if the search
    never backtracked."""
    tol, n, a, b = DEFAULT_TOL, sys.n_rects, sys.box_w, sys.box_h
    blocks = [0] * n
    for k, (i, _, _) in enumerate(shapes):
        blocks[i] |= 1 << k
    xs, tops = [0.0, a], [0.0]
    placed, path, undo, first = 0, [], [], None

    def children():
        y = min(tops)
        j = tops.index(y)
        gap = xs[j + 1] - xs[j]
        wide, narrow, room, free = gap + tol, gap - tol, b - y + tol, keep(gap, placed)
        exact, rest, seen = [], [], set()
        for k in order:
            shape = shapes[k]
            i, w, h = shape
            if w > wide or h > room or placed & blocks[i] or not free >> k & 1 or (w, h) in seen:
                continue
            seen.add((w, h))
            (exact if w >= narrow else rest).append(shape)
        exact += rest
        return j, iter(exact)

    stack, nodes = [children()], 0
    while stack and nodes < budget:
        j, todo = stack[-1]
        child = next(todo, None)
        if child is None:
            first = nodes if first is None else first
            stack.pop()
            if path:
                placed ^= blocks[path.pop()[0]]
                lo, count, old_xs, old_tops = undo.pop()
                xs[lo : lo + count], tops[lo : lo + count] = old_xs, old_tops
            continue
        nodes += 1
        i, w, h = child
        x, y = xs[j], tops[j]
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
        placed |= blocks[i]
        path.append((i, x, y, w, h))
        if len(path) == n:
            return search.Fill(path, nodes, False), first
        stack.append(children())
    return search.Fill(None, nodes, not stack), first


def unpruned_gap_fill(gap_search, order, budget):
    """search.Search.fill without width sums: the search as it was before
    the pruning, kept as the reference the pruned search is checked
    against."""
    sys, shapes = gap_search.sys, gap_search.shapes
    return skyline_search(sys, shapes, order, lambda gap, placed: -1, budget)[0]


def reference_gap_fill(gap_search, order, budget):
    """search.Search.fill as its docstring states it, listing each node's
    children anew: unpruned up to its first backtrack, then, if the
    search's width_sums is a table, from the empty box again, pruned by it,
    with the rest of the budget, the nodes of both passes counted."""
    sys, shapes = gap_search.sys, gap_search.shapes
    result, first = skyline_search(sys, shapes, order, lambda gap, placed: -1, budget)
    sums = None if first is None else gap_search.width_sums
    if sums is None:
        return result
    path, nodes, emptied = skyline_search(sys, shapes, order, sums.allows, budget - first)[0]
    return search.Fill(path, first + nodes, emptied)


def built_starts(sys, mode, seed, indices, budget=search.GAP_BUDGET):
    """The starts of the given indices, built as solve_multistart builds
    them: from one search.Search, each fill within budget placements."""
    gap_search = search.Search(sys, mode)
    return [solver._start_vector(gap_search, seed, k, budget) for k in indices]


def record_fills(monkeypatch, fill=None):
    """Make fill (the search's own when None) search.Search.fill, recording
    how each fill ended; returns the list of search.Fill records."""
    fills, fill = [], fill or search.Search.fill

    def recording_fill(gap_search, order, budget):
        fills.append(fill(gap_search, order, budget))
        return fills[-1]

    monkeypatch.setattr(search.Search, "fill", recording_fill)
    return fills


def gap_fill_result(sys, mode, seed, k, fill=None, budget=search.GAP_BUDGET):
    """How start k's fill ended when search.Search.fill is fill (the
    search's own when None), within budget placements, and the start it
    builds, None when the fill reached no tiling."""
    with pytest.MonkeyPatch.context() as patch:
        fills = record_fills(patch, fill)
        [start] = built_starts(sys, mode, seed, [k], budget)
    [result] = fills
    return result, start


def start_bytes(start):
    """A start's unknowns and sides as bytes, None for no start."""
    return None if start is None else [a.tobytes() for a in start]


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
    starts=st.lists(st.integers(0, 200), min_size=1, max_size=4),
)
def test_gap_fill_starts_keep_sides_and_box(sides, box, mode, seed, starts):
    # Squares stay upright in rotatable mode, so fixed, rotatable and mixed
    # systems all occur; sides past the box leave the search without a
    # tiling, and then there is no start.  A start places every rectangle,
    # the search fitting widths and tops within DEFAULT_TOL of the box.
    rects = [(w, w if square else h) for w, h, square in sides]
    inst = Instance.from_sides(rects, BoxSpec(*box), rotation_allowed=mode == mo.ROTATABLE)
    sys = mo.build_system(inst, 3)
    tol = 1e-9
    for k in starts:
        [start] = built_starts(sys, mode, seed, [k])
        assert start_bytes(start) == start_bytes(built_starts(sys, mode, seed, [k])[0])
        if start is None:
            continue
        x, sides = start
        turns = may_turn(sys, search._shapes(sys, mode))
        for (w, h), placed, turnable in zip(sys.sides.tolist(), sides.tolist(), turns):
            assert placed == [w, h] or turnable and placed == [h, w]
        x_lo, y_lo, x_hi, y_hi = mo._corners(sys, x, sides).reshape(-1, 4).T
        room = DEFAULT_TOL + tol
        inside = (x_lo >= 0) & (y_lo >= 0) & (x_hi <= sys.box_w + room) & (y_hi <= sys.box_h + room)
        assert inside.all()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(0, 14),
    box=st.sampled_from([BoxSpec(10.0, 8.0), BoxSpec(3.0, 7.5), BoxSpec(1, 1)]),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    k=st.integers(0, 200),
)
def test_gap_fill_starts_that_place_every_rectangle_verify(seed, cuts, box, mode, k):
    # On a guillotine dissection, a start whose search placed every
    # rectangle is a layout that passes the verifier as drawn.
    inst, _ = gen_guillotine(seed, cuts, box)
    sys = mo.build_system(inst)
    result, start = gap_fill_result(sys, mode, seed, k)
    path = result.path
    assert (path is None) == (start is None)
    if path is not None:
        assert len(path) == inst.n_rects
        assert verify_layout(inst, mo.vars_to_layout(sys, *start)).passed


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(0, 14),
    box=st.sampled_from([BoxSpec(10.0, 8.0), BoxSpec(3.0, 7.5), BoxSpec(1, 1)]),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    k=st.integers(0, 200),
)
def test_start_sides_are_the_given_pair_or_that_pair_turned(seed, cuts, box, mode, k):
    # Every side a start places a rectangle with is its given pair or, in
    # rotatable mode and for normalised sides that differ, that pair
    # swapped; in fixed mode nothing turns.
    inst, _ = gen_guillotine(seed, cuts, box)
    sys = mo.build_system(inst)
    [start] = built_starts(sys, mode, seed, [k])
    if start is None:
        return
    _, sides = start
    assert sides.shape == (inst.n_rects, 2)
    for (w, h), placed in zip(sys.sides.tolist(), sides.tolist()):
        assert placed == [w, h] or mode == mo.ROTATABLE and w != h and placed == [h, w]
    if mode == mo.FIXED:
        assert sides.tobytes() == sys.sides.tobytes()


def brute_force_sums(sys, mode):
    """Every sum of widths by the bitmask of its shapes (bit k for entry k
    of search._shapes), each rectangle left out or in it as one of its
    shapes, with the sum added in index order, kept when it is at most the
    box width plus (n + 1) * DEFAULT_TOL."""
    limit = sys.box_w + (sys.n_rects + 1) * DEFAULT_TOL
    shapes = search._shapes(sys, mode)
    ways = [[None] for _ in range(sys.n_rects)]
    for k, (i, _, _) in enumerate(shapes):
        ways[i].append(k)
    out = {}
    for choice in itertools.product(*ways):
        total, used = 0.0, 0
        for k in choice:
            if k is not None:
                total += shapes[k][1]
                used |= 1 << k
        if total <= limit:
            out[used] = total
    return out


@settings(max_examples=60, deadline=None)
@given(
    sides=st.lists(
        st.tuples(st.floats(0.05, 6.0), st.floats(0.05, 6.0), st.booleans()),
        min_size=1,
        max_size=8,
    ),
    box=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    gaps=st.lists(st.tuples(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1)), max_size=8),
)
def test_width_sums_match_brute_force(sides, box, mode, gaps):
    # The shapes: every rectangle upright, then in rotatable mode each that
    # is not square once normalised turned.  Every sum of the table and its
    # members against itertools over every choice of each rectangle; then
    # the lookup, at the table's own sums and the shapes of sets of
    # rectangles drawn as placed.
    rects = [(w, w if square else h) for w, h, square in sides]
    inst = Instance.from_sides(rects, BoxSpec(*box), rotation_allowed=mode == mo.ROTATABLE)
    sys = mo.build_system(inst, 3)
    shapes = search._shapes(sys, mode)
    upright = [(i, w, h) for i, (w, h) in enumerate(sys.sides.tolist())]
    turned = [(i, h, w) for i, w, h in upright if mode == mo.ROTATABLE and w != h]
    assert shapes == upright + turned
    sums = search._width_sums(sys, shapes)
    expected = brute_force_sums(sys, mode)
    values = list(sums.sums)
    table = dict(zip(sums.used, values))
    assert len(table) == len(values) and table == expected
    assert values == sorted(values)
    tol = (sys.n_rects + 1) * DEFAULT_TOL
    assert sums.tol == tol
    for pick, drawn in gaps:
        gap = values[pick % len(values)] + (pick % 3 - 1) * tol / 2
        placed = sum(1 << k for k, (i, _, _) in enumerate(shapes) if drawn >> i & 1)
        allowed = 0
        for u, v in expected.items():
            if gap - tol <= v <= gap + tol and not u & placed:
                allowed |= u
        assert sums.allows(gap, placed) == allowed


def test_width_sums_past_the_cap_leave_the_search_unpruned(monkeypatch):
    # With a cap of a few sums no table is built, and each fill ends as the
    # unpruned search's (path, nodes and ending), its start bit for bit; a
    # guillotine still tiles as drawn.
    monkeypatch.setattr(search, "WIDTH_SUMS_CAP", 4)
    inst, _ = gen_guillotine(3, 11, BoxSpec(10.0, 8.0))
    sys = mo.build_system(inst)
    tables = []
    width_sums = search._width_sums
    monkeypatch.setattr(search, "_width_sums", lambda *args: tables.append(width_sums(*args)))
    for k in range(16):
        result, start = gap_fill_result(sys, mo.FIXED, 3, k)
        ref, ref_start = gap_fill_result(sys, mo.FIXED, 3, k, unpruned_gap_fill)
        assert result == ref
        assert start_bytes(start) == start_bytes(ref_start)
    assert tables and tables == [None] * len(tables)  # some start backtracked
    report = solve_multistart(inst, SolveConfig(restarts=16, seed=3), mode=mo.FIXED)
    assert report.status == "converged_verified" and report.iterations_total == 0
    assert verify_layout(inst, report.best_layout).passed


def test_width_sums_hold_at_most_64_shapes(monkeypatch):
    # Every side is over half the box width, so each sum has at most one
    # member and the table stays far under WIDTH_SUMS_CAP; the word limit
    # alone decides.  32 rectangles that may turn are 64 shapes: a table is
    # built, each shape a bit of one 64-bit word.  33 are 66 shapes: no
    # table, and each fill ends as the unpruned search's, its start bit for
    # bit.  In
    # fixed mode 64 rectangles are 64 shapes: a table is built.
    box = BoxSpec(10, 10)

    def system(n, rotation_allowed):
        sides = [(Fraction(600 + i, 100), Fraction(800 + i, 100)) for i in range(n)]
        return mo.build_system(Instance.from_sides(sides, box, rotation_allowed), 3)

    for sys, mode in ((system(32, True), mo.ROTATABLE), (system(64, False), mo.FIXED)):
        shapes = search._shapes(sys, mode)
        sums = search._width_sums(sys, shapes)
        assert len(shapes) == 64 and np.asarray(sums.used).dtype == np.uint64
        assert sorted(sums.used) == [0] + [1 << k for k in range(64)]
        assert sums.allows(shapes[63][1], 0) == 1 << 63
    sys = system(33, True)
    assert search._width_sums(sys, search._shapes(sys, mo.ROTATABLE)) is None
    tables = []
    width_sums = search._width_sums
    monkeypatch.setattr(search, "_width_sums", lambda *args: tables.append(width_sums(*args)))
    for k in range(4):
        result, start = gap_fill_result(sys, mo.ROTATABLE, 5, k)
        ref, ref_start = gap_fill_result(sys, mo.ROTATABLE, 5, k, unpruned_gap_fill)
        assert result == ref
        assert start_bytes(start) == start_bytes(ref_start)
    assert tables == [None] * 4  # every start backtracked


@pytest.mark.parametrize("mode", [mo.FIXED, mo.ROTATABLE])
def test_pruned_gap_fill_tiles_exactly_when_the_unpruned_one_does(mode):
    # Guillotines, near-tilings (sides scaled by 1 + U(-1e-8, 1e-8)) and
    # guillotines with rectangle 0 turned (no tiling in fixed mode) of N <= 8
    # rectangles, with a budget that lets both searches finish: the pruned
    # search places every rectangle exactly when the unpruned one does, and
    # then the same way, since it skips only children that lead to no tiling;
    # else both search their whole tree.  Each fill ends as the reference's
    # to the node.
    budget = 10**6
    tiled = untiled = 0
    for seed in range(12):
        box = BoxSpec(10.0, 8.0) if seed % 2 else BoxSpec(3.0, 7.5)
        inst = gen_guillotine(seed, 3 + seed % 5, box)[0]
        sides = [(float(r.width), float(r.height)) for r in inst.rects]
        sides[0] = sides[0][::-1]
        turned = Instance.from_sides(sides, box)
        for inst in (inst, near_guillotine(seed, 3 + seed % 5, box)[0], turned):
            inst = Instance(inst.rects, inst.box, rotation_allowed=mode == mo.ROTATABLE)
            sys = mo.build_system(inst)
            for k in range(4):
                result, _ = gap_fill_result(sys, mode, seed, k, budget=budget)
                assert result == gap_fill_result(sys, mode, seed, k, reference_gap_fill, budget)[0]
                ref, _ = gap_fill_result(sys, mode, seed, k, unpruned_gap_fill, budget)
                assert result.path == ref.path
                assert result.emptied == ref.emptied == (ref.path is None)
                tiled, untiled = tiled + (ref.path is not None), untiled + (ref.path is None)
    assert tiled >= 96 and untiled == (48 if mode == mo.FIXED else 0)


def test_kept_child_lists_change_no_fill():
    # The search keeps each node's child list for a pass and drops the lists
    # at its restart; the reference lists them anew at every node.  At the
    # default budget, where a placement spent on a child the table rules out
    # can cost a start its tiling, every fill ends as the reference's, path,
    # nodes and ending, bit for bit: fixed-mode dissections and near-tilings
    # of N = 20 (seeds 0-5) and rotatable dissections of N = 15 (seeds
    # 12-23), four starts each.
    box = BoxSpec(10.0, 8.0)
    cases = [(gen_guillotine(seed, 14, box)[0], mo.ROTATABLE, seed) for seed in range(12, 24)]
    for seed in range(6):
        for inst in (gen_guillotine(seed, 19, box)[0], near_guillotine(seed, 19, box)[0]):
            cases.append((inst, mo.FIXED, seed))
    tiled = untiled = 0
    for inst, mode, seed in cases:
        sys = mo.build_system(inst)
        for k in range(4):
            result, start = gap_fill_result(sys, mode, seed, k)
            ref, ref_start = gap_fill_result(sys, mode, seed, k, reference_gap_fill)
            assert result == ref
            assert start_bytes(start) == start_bytes(ref_start)
            tiled, untiled = tiled + (ref.path is not None), untiled + (ref.path is None)
    assert tiled > 30 and untiled > 30


def test_starts_do_not_depend_on_what_was_solved_before():
    # A system's starts are the same bytes each built with its own table,
    # built with one table shared as solve_multistart shares it, here built
    # before the first start, and after another instance was solved.
    backtracked = []

    def starts(inst, shared=False):
        sys = mo.build_system(inst)
        if not shared:  # each start builds its table, if at all, for itself
            return [start_bytes(built_starts(sys, mo.FIXED, 1, [k])[0]) for k in range(12)]
        gap_search = search.Search(sys, mo.FIXED)
        assert gap_search.width_sums is not None  # the table, built first
        with pytest.MonkeyPatch.context() as patch:
            fills = record_fills(patch)
            built = [solver._start_vector(gap_search, 1, k, search.GAP_BUDGET) for k in range(12)]
        # A fill that tiles without backtracking places each rectangle once.
        backtracked.extend(f for f in fills if f.path is None or f.nodes > sys.n_rects)
        return [start_bytes(start) for start in built]

    box = BoxSpec(10.0, 8.0)
    inst, _ = gen_guillotine(16, 14, box)
    fresh = starts(inst)
    assert starts(inst, shared=True) == fresh
    assert len(backtracked) > 1  # several starts read the shared table
    for other in (gen_guillotine(17, 14, box)[0], near_guillotine(16, 14, box)[0]):
        solve_multistart(other, SolveConfig(restarts=8, seed=1), mode=mo.FIXED)
        starts(other)
        assert starts(inst) == fresh


def test_sides_equal_once_normalised_are_one_shape():
    # A rectangle whose exact sides differ but whose normalised sides are
    # the same float is a square to the search: it has one shape, upright,
    # so no start turns it and the table holds it upright only.
    # This instance passes the area and fit checks and has no tiling, so
    # every start backtracks and searches pruned.
    near_square = (Fraction(1, 3), Fraction(333333333333333333333, 10**21))
    rects = [near_square, (Fraction(2, 3), Fraction(1, 2)), (1, Fraction(5, 9))]
    inst = Instance.from_sides(rects, BoxSpec(1, 1), rotation_allowed=True)
    sys = mo.build_system(inst)
    assert sys.sides[0, 0] == sys.sides[0, 1]
    assert [i for i, _, _ in search._shapes(sys, mo.ROTATABLE)] == [0, 1, 2, 1, 2]
    report = solve_multistart(inst, SolveConfig(restarts=8), mode=mo.ROTATABLE)
    assert report.status == "exhausted"


def test_cli_default_guillotines_of_twenty_tile_as_drawn():
    # The command line's defaults (fixed mode, 64 starts, a 10x8 box) on
    # 20-rectangle dissections, seeds 12-35: every solve wins with a start
    # that tiles as drawn.  Without the width-sum pruning
    # (search.WIDTH_SUMS_CAP = 0) 18 of the 24 still do, and 6, seed 18
    # among them, end exhausted with reason "fill" and no LM step.
    for seed in range(12, 36):
        inst, _ = gen_guillotine(seed, 19, BoxSpec(10.0, 8.0))
        report = solve_multistart(inst, SolveConfig(seed=seed), mode=mo.FIXED)
        assert report.status == "converged_verified" and report.iterations_total == 0, seed


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
    # verifier: start 0 stops at that floor, where lambda climbs past
    # LAMBDA_MAX, and is verified as it stopped.
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
    # RESIDUAL_TOL, so no start converges.  A start that stops at the floor,
    # where lambda climbs past LAMBDA_MAX, is verified as it stopped.
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
    # fits it, but the two 2x2 squares cannot share it: no gap fill reaches
    # a tiling, so there is no start to try and no layout to report.
    inst = Instance.from_sides([(2, 2), (2, 2), (1, 1)], BoxSpec(3, 3), rotation_allowed=False)
    report = solve_multistart(inst, SolveConfig(restarts=4, max_iters=60))
    assert report.status == "exhausted"
    assert report.reason == "fill"
    assert report.final_residual_inf > 1e-10
    assert report.best_layout is None
    assert report.iterations_total == 0
    assert report.start_index == -1


def test_a_layout_within_tolerance_can_have_no_complete_fill(monkeypatch):
    # The gap fill is complete for exact tilings only.  A bottom row of three
    # rectangles, each overlapping the next by 0.9e-7, and a top row of two
    # that leaves a 2e-7 gap at the right wall pass verify_layout at
    # DEFAULT_TOL with no area gap, in both modes; yet every start's fill of
    # these sides searches its whole tree without a tiling, well within the
    # default budget: in 11 nodes in fixed mode, 125 or 127 in rotatable.
    # So an exhausted "fill" report is no proof of infeasibility: a solve
    # must not call this instance infeasible until the verifier and the
    # search share one tolerance model (ROADMAP, "One tolerance model").
    sides = [(0.3, 0.5), (0.3, 0.5), (0.4 + 2e-7, 0.5), (0.55, 0.5), (0.45 - 2e-7, 0.5)]
    corners = [(0.0, 0.0), (0.3 - 0.9e-7, 0.0), (0.6 - 1.8e-7, 0.0), (0.0, 0.5), (0.55, 0.5)]
    layout = Layout(tuple(Placement(x, y, x + w, y + h) for (x, y), (w, h) in zip(corners, sides)))
    fills = record_fills(monkeypatch)
    for mode, nodes in ((mo.FIXED, {11}), (mo.ROTATABLE, {125, 127})):
        inst = Instance.from_sides(sides, BoxSpec(1, 1), rotation_allowed=mode == mo.ROTATABLE)
        result = verify_layout(inst, layout, tol=DEFAULT_TOL)
        assert result.passed and result.area_gap == 0.0, mode
        fills.clear()
        report = solve_multistart(inst, SolveConfig(restarts=8), mode=mode)
        assert report.status == "exhausted" and report.reason == "fill", mode
        assert len(fills) == 8 and all(f.path is None and f.emptied for f in fills), mode
        assert {f.nodes for f in fills} == nodes, mode


def test_a_dissection_with_one_rectangle_turned_searches_every_whole_tree(monkeypatch):
    # `gen guillotine --seed 7 --cuts 5 --box 10 8` with rectangle 4
    # turned.  In fixed mode no upright layout tiles it, and each of 16
    # starts searches its whole tree in 16-19 nodes, far within the budget.
    # Every start backtracks, and the solve builds its one width-sum table
    # once.
    inst, _ = gen_guillotine(7, 5, BoxSpec(10.0, 8.0))
    doc = json.loads(serialize_instance(inst))
    doc["rects"][4] = doc["rects"][4][::-1]
    fills = record_fills(monkeypatch)
    tables = record_calls(monkeypatch, search, "_width_sums")
    turned = parse_instance(json.dumps(doc))
    report = solve_multistart(turned, SolveConfig(restarts=16), mode=mo.FIXED)
    assert report.status == "exhausted" and report.reason == "fill"
    assert len(fills) == 16 and all(f.path is None and f.emptied for f in fills)
    assert {f.nodes for f in fills} <= set(range(16, 20))
    assert len(tables) == 1


@pytest.mark.parametrize("mode, reports", [(mo.ROTATABLE, 20), (mo.FIXED, 86)])
def test_family_fill_reports_search_every_whole_tree(monkeypatch, mode, reports):
    # The family at criterion-7 settings, seed 0: every start of every
    # "fill" report searches its whole tree without a tiling, and the oracle
    # finds each of those instances infeasible (in fixed mode with rotation
    # off).
    cfg = SolveConfig(restarts=6, max_iters=80)
    fills = record_fills(monkeypatch)
    searched = 0
    for inst in enumerate_small_family(4, 4):
        inst = Instance(inst.rects, inst.box, rotation_allowed=mode == mo.ROTATABLE)
        fills.clear()
        if solve_multistart(inst, cfg, mode=mode).reason != "fill":
            continue
        searched += 1
        assert len(fills) == cfg.restarts and all(f.path is None and f.emptied for f in fills)
        assert not oracle_feasible(inst)[0]
    assert searched == reports


def test_a_ladder_dissection_of_twenty_spends_the_budget(monkeypatch):
    # A dissection of the 10x8 box into 20 rectangles, solved as the
    # benchmark's ladder solves it (fixed mode, 2 starts, the dissection's
    # seed): neither start tiles or searches its whole tree; each spends
    # the whole budget, and the report is exhausted with reason "fill".
    inst, _ = gen_guillotine(0, 19, BoxSpec(10, 8))
    fills = record_fills(monkeypatch)
    report = solve_multistart(inst, SolveConfig(restarts=2, seed=0), mode=mo.FIXED)
    assert report.status == "exhausted" and report.reason == "fill"
    assert fills == [search.Fill(None, search.GAP_BUDGET, False)] * 2


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


# -- Single-start descent ----------------------------------------------------


def sequential_lm(sys, x0, sides, max_iters):
    """Reference for solve_single, reading the stop rule from the solver's
    constants when called: Levenberg-Marquardt from one start placed with
    sides (n, 2), one damped attempt per round, on the one-point table
    readers, a singular system solved by lstsq.
    Returns the final variables, the accepted step count, the accepted
    costs and, for each attempt, whether it was accepted."""
    residual_tol = solver.RESIDUAL_TOL
    eye = np.eye(sys.var_count)

    def evaluate(x):
        table = mo.chebyshev_table(sys, x, sides)
        r = mo.table_residual(sys, table)
        return table, r, np.linalg.norm(r) if np.all(np.isfinite(r)) else np.inf

    def solve(a, b):
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(a, b, rcond=None)[0]

    x = x0
    lam = solver.LAMBDA0
    accepted = []
    with np.errstate(over="ignore", invalid="ignore"):
        table, r, cost = evaluate(x)
        costs = [cost]
        live = np.all(np.isfinite(r)) and np.max(np.abs(r)) > residual_tol
        stepped = True
        while live:
            if stepped:
                jac = mo.table_jacobian(sys, table)
                jac_t = jac.T
                neg_grad = -(jac_t @ r)
                hess = jac_t @ jac
            cand = x + solve(hess + lam * eye, neg_grad)
            cand_table, r_new, cost_new = evaluate(cand)
            stepped = cost_new < cost
            accepted.append(stepped)
            if stepped:
                x, table, r, cost = cand, cand_table, r_new, cost_new
                lam = max(lam * solver.LAMBDA_DECREASE, solver.LAMBDA_MIN)
                costs.append(cost)
                live = np.max(np.abs(r)) > residual_tol and len(costs) <= max_iters
            else:
                lam *= solver.LAMBDA_INCREASE
                live = lam <= solver.LAMBDA_MAX
    return x, len(costs) - 1, costs, accepted


def box_starts(sys, mode, seed, rows):
    """rows start vectors drawing each unknown uniformly between 0 and its
    box side (the unknowns alternate x and y), and the sides of each row:
    in rotatable mode each rectangle turned or not at random (row_sides)."""
    rng = np.random.default_rng(seed)
    box = np.tile([sys.box_w, sys.box_h], sys.n_rects)
    return rng.uniform(size=(rows, sys.var_count)) * box, row_sides(sys, mode, rng, rows)


def record_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's positional
    arguments; returns the list of records."""
    calls, original = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def assert_descent_is_sequential(sys, x0, sides, max_iters):
    """solve_single from x0 equals sequential_lm from it, bit for bit;
    returns the descent and the reference's accepted flags."""
    descent = solve_single(sys, x0, SolveConfig(max_iters=max_iters), sides)
    x, costs, r_max = descent
    x1, steps1, costs1, accepted = sequential_lm(sys, x0, sides, max_iters)
    assert x.tobytes() == x1.tobytes()
    assert len(costs) - 1 == steps1
    assert np.array(costs).tobytes() == np.array(costs1).tobytes()
    if math.isfinite(costs1[-1]):
        assert r_max == np.max(np.abs(mo.residual(sys, x1, sides)))
    return descent, accepted


def test_descent_steps_a_singular_start_through_lstsq(monkeypatch):
    inst = Instance.from_sides([(1, 1), (1, 1), (2, 1)], BoxSpec(2, 2), rotation_allowed=False)
    sys = mo.build_system(inst)
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
    normal = [[0.1, 0.7, 0.8, 0.2, 0.0, 0.6], [0.6, 0.1, 0.2, 0.5, 0.0, 0.3]]
    lstsq, calls = np.linalg.lstsq, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        _, costs, _ = solve_single(sys, coincident, SolveConfig(max_iters=30))
    assert len(costs) > 1 and calls  # the singular start moved on through lstsq
    for x0 in [np.array(normal[0]), coincident, solved, np.array(normal[1])]:
        (x, costs, _), _ = assert_descent_is_sequential(sys, x0, sys.sides, 30)
        if x0 is solved:
            assert len(costs) == 1 and x.tobytes() == solved.tobytes()
        else:
            assert len(costs) > 1
    with pytest.raises(ValueError, match="variable vector contains non-finite entries"):
        solve_single(sys, non_finite, SolveConfig(max_iters=30), sys.sides)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", [mo.FIXED, mo.ROTATABLE])
def test_far_starts_stay_finite_and_non_finite_starts_raise(mode):
    # No clip pulls a far start back: its residual overflows, or no step
    # lowers its cost.  Either way no descent may turn non-finite.
    inst, _ = gen_guillotine(3, 19, BoxSpec(10.0, 8.0))
    sys = mo.build_system(inst)
    inside, sides = box_starts(sys, mode, 3, 1)
    for v in (1e3, -1e3, 1e18, 1e40):
        (x, costs, r_max), _ = assert_descent_is_sequential(sys, inside[0] + v, sides[0], 20)
        assert np.all(np.isfinite(x))
        assert np.all(np.isfinite(costs[1:]))
        assert np.isfinite(r_max) == np.isfinite(costs[0])
    with pytest.raises(ValueError, match="variable vector contains non-finite entries"):
        solve_single(sys, np.full(sys.var_count, np.nan), SolveConfig(max_iters=20), sides[0])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(0, 5),
    rows=st.integers(1, 4),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    lambda0=st.sampled_from([1e-30, 1e-3, 1e13]),
    lambda_max=st.sampled_from([solver.LAMBDA_MAX, 1e-2]),
)
def test_descent_follows_the_one_attempt_rule(seed, cuts, rows, mode, lambda0, lambda_max):
    # At lambda0 1e13 every first attempt exceeds LAMBDA_MAX.  Lowered
    # to 1e-2, it stops many starts within 200 iterations, where a damping
    # past it would often have lowered the cost.
    inst, _ = gen_guillotine(seed, cuts, BoxSpec(3.0, 2.0 + seed % 3))
    sys = mo.build_system(inst)
    x0, sides = box_starts(sys, mode, seed, rows)
    for start, start_sides in zip(x0, sides):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "LAMBDA_MAX", lambda_max)
            patch.setattr(solver, "LAMBDA0", lambda0)
            reference = sequential_lm(sys, start, start_sides, 200)
            solved = record_calls(patch, np.linalg, "solve")
            jacobians = record_calls(patch, mo, "table_jacobian")
            x, costs, r_max = solve_single(sys, start, SolveConfig(max_iters=200), start_sides)
        x1, steps1, costs1, accepted = reference
        assert x.tobytes() == x1.tobytes()
        assert np.array(costs).tobytes() == np.array(costs1).tobytes()
        assert r_max == np.max(np.abs(mo.residual(sys, x1, start_sides)))
        # One linear system per attempt: no start tries a damping the rule
        # skips.  A Jacobian for the start and each accepted step that
        # another attempt follows: a rejected attempt keeps its equations.
        assert len(solved) == len(accepted)
        assert len(jacobians) == (1 + sum(accepted[:-1]) if accepted else 0)
        # Lambda starts at LAMBDA0, is at least LAMBDA_MIN after an accepted
        # step and quadruples on each rejection until it passes LAMBDA_MAX,
        # so a start makes at most this many attempts a step: this bound
        # and max_iters are all that end a start that never converges.
        lowest = min(lambda0, solver.LAMBDA_MIN)
        assert len(solved) <= (steps1 + 1) * (math.ceil(math.log(lambda_max / lowest, 4)) + 1)


@pytest.mark.parametrize("lambda0", [1e-30, 1e-3, 1e13])
def test_descent_stops_on_lambda_max_as_the_rule_says(monkeypatch, lambda0):
    # A unit square in a 2x1 box has no root: the starts run to a
    # stationary point (max |r| 0.5), where no step lowers the cost and
    # lambda climbs past LAMBDA_MAX: a start that does not converge stops
    # there, before max_iters.
    sys = mo.build_system(Instance.from_sides([(1, 1)], BoxSpec(2, 1)))
    monkeypatch.setattr(solver, "LAMBDA0", lambda0)
    for x0 in ([0.0, 0.0], [0.15, 0.0], [0.5, 0.0]):  # left, inside, right wall
        (_, costs, r_max), accepted = assert_descent_is_sequential(
            sys, np.array(x0), sys.sides, 200
        )
        assert len(costs) - 1 < 200 and r_max > solver.RESIDUAL_TOL
        assert len(accepted) > len(costs) - 1 and not accepted[-1]  # the last attempts only reject


def test_multistart_verifies_starts_near_a_wall_touching_witness(monkeypatch):
    # A guillotine tiling of 15 rectangles puts many unknowns on a wall.
    # Each rectangle is shifted by up to 1e-3 of the box's longer side, and
    # start 0 begins there in place of a gap fill.
    for seed in range(8):
        inst, witness = gen_guillotine(seed, 14, BoxSpec(10.0, 8.0))
        rng = np.random.default_rng(seed)
        placements = []
        for p in witness.placements:
            dx, dy = rng.uniform(-1e-2, 1e-2, size=2)
            placements.append(Placement(p.x_lo + dx, p.y_lo + dy, p.x_hi + dx, p.y_hi + dy))
        start = Layout(tuple(placements))
        sys = mo.build_system(inst)
        start0 = mo.layout_to_vars(sys, start), sys.sides
        monkeypatch.setattr(solver, "_start_vector", lambda *args, start0=start0, **kwargs: start0)
        report = solve_multistart(inst, SolveConfig(restarts=1), mode=mo.FIXED)
        assert report.status == "converged_verified" and report.start_index == 0, seed


def index_order_multistart(inst, cfg, mode, max_order=None, checked=None):
    """Reference for the winner rule, the lowest verified start index:
    solve_multistart past its gates with every start built up front, then
    tried one at a time in index order through sequential_lm and verified
    as it stopped, as a report with wall_time_s 0.  A gap fill that reaches
    no tiling is no start.  Every layout it verifies is appended to
    checked."""
    checked = [] if checked is None else checked
    sys = mo.build_system(inst, max_order)
    built = built_starts(sys, mode, cfg.seed, range(cfg.restarts))
    starts = [(k, start) for k, start in enumerate(built) if start is not None]
    if not starts:
        return SolveReport("exhausted", None, math.inf, 0, -1, 0.0, "fill")
    best = (math.inf, -1, None)
    iterations = 0
    any_converged = False
    for k, (x0, sides) in starts:
        x, steps, _, _ = sequential_lm(sys, x0, sides, cfg.max_iters)
        iterations += steps
        r_inf = float(np.max(np.abs(mo.residual(sys, x, sides))))
        any_converged |= r_inf <= solver.RESIDUAL_TOL
        checked.append(mo.vars_to_layout(sys, x, sides))
        if verify_layout(inst, checked[-1]).passed:
            return SolveReport("converged_verified", checked[-1], r_inf, iterations, k, 0.0)
        if r_inf < best[0]:
            best = (r_inf, k, checked[-1])
    status, reason = "exhausted", None
    if any_converged:
        status, reason = "converged_unverified", "unverified"
    return SolveReport(status, best[2], best[0], iterations, best[1], 0.0, reason)


def winner_at_start_8():
    # Fixed mode at these settings, on uniform starts: starts 0-7 and 10
    # fail, and starts 8 and 9 verify, so no start below 8 wins.  Start 8
    # stops after 15 attempts (10 steps) and start 9 after 11 (8 steps).
    inst, _ = gen_guillotine(46, 3, BoxSpec(3.0, 2.0))
    return inst, SolveConfig(max_iters=40, seed=46), mo.FIXED


def rotatable_dominoes():
    # Two dominoes in a 4x1 box: the shelf start 0 stands them upright and
    # fails.  Of the uniform starts 1-10, starts 2, 4-7 and 9 verify, start 2
    # after 9 attempts, starts 4 and 9 after 4; the others fail.
    inst = Instance.from_sides([(1, 2)] * 2, BoxSpec(4, 1))
    cfg = SolveConfig(max_iters=40, seed=1)
    return inst, cfg, mo.ROTATABLE


def assert_report_is(report, expected):
    """report is expected byte for byte, wall_time_s aside."""
    got, want = (replace(r, wall_time_s=0.0).to_dict() for r in (report, expected))
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("case", [winner_at_start_8, rotatable_dominoes])
@pytest.mark.parametrize("restarts", [1, 8, 9, 11])
def test_multistart_matches_index_order_as_restarts_grow(uniform_starts, case, restarts):
    # On either side of 8 restarts the winner is the reference's: the lowest
    # verified start index, a start of 8 or more included, though a later
    # start would verify after fewer attempts.
    inst, cfg, mode = case()
    cfg = replace(cfg, restarts=restarts)
    report = solve_multistart(inst, cfg, mode=mode)
    assert_report_is(report, index_order_multistart(inst, cfg, mode))
    winners = {winner_at_start_8: {9: 8, 11: 8}, rotatable_dominoes: {8: 2, 9: 2, 11: 2}}
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


def test_first_start_to_verify_ends_the_solve(uniform_starts):
    # Start 2 verifies after 9 attempts (6 steps).  Starts 0 and 1 come
    # first and fail, after 40 steps in 68 attempts and 7 in 36: both leave
    # the dominoes upright, which fit the 4x1 box nowhere.  Start 4 would
    # verify after 4 attempts, but the solve ends with start 2: starts 3 and
    # 4 are never built.
    inst, cfg, mode = rotatable_dominoes()
    cfg = replace(cfg, restarts=5)
    with pytest.MonkeyPatch.context() as patch:
        built = record_calls(patch, solver, "_start_vector")
        report = solve_multistart(inst, cfg, mode=mode)
    assert report.status == "converged_verified" and report.start_index == 2
    assert report.iterations_total == 40 + 7 + 6
    assert [args[2] for args in built] == [0, 1, 2]
    assert_report_is(report, index_order_multistart(inst, cfg, mode))


def test_multistart_verifies_each_stopped_start_once(uniform_starts):
    # At order 3 many starts converge to layouts that are not packings.
    # Starts 0-5 stop and fail; start 6 stops after 15 attempts (11 steps)
    # and verifies, ending the solve after 109 steps in all.  Starts 9, 14,
    # 36 and 39 would verify too, and starts 28 and 36 stop after fewer
    # attempts, but none of them is built.
    inst = Instance.from_sides([(1, 1), (1, 2), (1, 2), (2, 2)], BoxSpec(3, 3))
    cfg = SolveConfig(restarts=64, max_iters=60)
    with pytest.MonkeyPatch.context() as patch:
        verified = record_calls(patch, solver, "verify_layout")
        report = solve_multistart(inst, cfg, max_order=3, mode=mo.ROTATABLE)
    expected = []
    assert_report_is(report, index_order_multistart(inst, cfg, mo.ROTATABLE, 3, expected))
    assert report.status == "converged_verified"
    assert report.start_index == 6 and report.iterations_total == 109
    layouts = [layout for _, layout in verified]
    assert list(map(serialize_layout, layouts)) == list(map(serialize_layout, expected))
    assert len(verified) == 7
    # The report carries the very layout that passed, not a second build.
    assert report.best_layout is layouts[-1]


def test_all_starts_stop_once_one_verifies(uniform_starts, monkeypatch):
    # Start 2 converges after 15 attempts (10 steps) and verifies.  Starts
    # 3-7 would verify too, start 3 after 6 attempts, but none of them is
    # built or handed to solve_single: the solve ends with the 37 + 56 + 10
    # steps of starts 0-2, each built start judged once.
    inst, _ = gen_guillotine(101, 3, BoxSpec(3.0, 2.0))
    cfg = SolveConfig(restarts=8, max_iters=60, seed=101)
    expected = index_order_multistart(inst, cfg, mo.FIXED)
    built = record_calls(monkeypatch, solver, "_start_vector")
    judged = record_calls(monkeypatch, solver, "solve_single")
    report = solve_multistart(inst, cfg, mode=mo.FIXED)
    assert_report_is(report, expected)
    assert report.status == "converged_verified"
    assert report.start_index == 2 and report.iterations_total == 37 + 56 + 10
    assert len(built) == len(judged) == 3


def test_the_lowest_verified_start_wins_over_one_with_fewer_attempts(uniform_starts):
    # Start 2 verifies after 11 attempts, start 7 after 10, and start 9
    # after 6: start 2 wins, the lowest verified index, whatever the number
    # of restarts past it.
    inst, _ = gen_guillotine(1, 3, BoxSpec(3.0, 2.0))
    cfg = SolveConfig(restarts=17, max_iters=40, seed=1)
    report = solve_multistart(inst, cfg, mode=mo.FIXED)
    assert_report_is(report, index_order_multistart(inst, cfg, mo.FIXED))
    assert report.status == "converged_verified" and report.start_index == 2
    assert_report_is(solve_multistart(inst, replace(cfg, restarts=3), mode=mo.FIXED), report)


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
    # start-alone reference reports and verifies the same layouts in order,
    # each start it tries once.  Order 2 makes starts that converge but
    # fail verification.
    inst, _ = gen_guillotine(seed, cuts, BoxSpec(3.0, 2.0 + seed % 3))
    cfg = SolveConfig(restarts=restarts, max_iters=max_iters, seed=seed)
    assert_multistart_is_index_order(inst, cfg, mode, max_order)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(1, 4),
    near=st.booleans(),
    restarts=st.integers(1, 17),
    max_iters=st.integers(5, 40),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    max_order=st.sampled_from([None, 2]),
)
def test_multistart_status_and_fallback_match_index_order(
    seed, cuts, near, restarts, max_iters, mode, max_order
):
    # Every field of the report is the lowest-index rule's: status, reason,
    # winner or fallback, steps, layout and residual.  Exact tilings win as
    # drawn; near-tilings win after LM steps.
    box = BoxSpec(3.0, 2.0 + seed % 3)
    inst = near_guillotine(seed, cuts, box)[0] if near else gen_guillotine(seed, cuts, box)[0]
    cfg = SolveConfig(restarts=restarts, max_iters=max_iters, seed=seed)
    report = solve_multistart(inst, cfg, max_order, mode)
    assert_report_is(report, index_order_multistart(inst, cfg, mode, max_order))


def near_guillotine(seed, n_cuts, box, delta=1e-8):
    """A near-tiling: a guillotine dissection of box with each side scaled by
    1 + U(-delta, delta), drawn from a generator seeded by seed.  Returns the
    instance and the dissection's layout, which keeps the unscaled sides."""
    inst, dissection = gen_guillotine(seed, n_cuts, box)
    scale = 1 + np.random.default_rng(seed).uniform(-delta, delta, size=(inst.n_rects, 2))
    sides = [
        (float(r.width) * u, float(r.height) * v) for r, (u, v) in zip(inst.rects, scale.tolist())
    ]
    return Instance.from_sides(sides, box), dissection


def assert_multistart_is_index_order(inst, cfg, mode, max_order=None):
    """solve_multistart reports what index_order_multistart, which builds
    every start up front, reports, byte for byte, and verifies the same
    layouts in the same order, each start it tries once.  It builds its
    starts in index order, none after the winner.  Returns the report and
    the number of starts it built."""
    with pytest.MonkeyPatch.context() as patch:
        verified = record_calls(patch, solver, "verify_layout")
        built = record_calls(patch, solver, "_start_vector")
        report = solve_multistart(inst, cfg, max_order, mode)
    checked = []
    assert_report_is(report, index_order_multistart(inst, cfg, mode, max_order, checked))
    layouts = [layout for _, layout in verified]
    assert list(map(serialize_layout, layouts)) == list(map(serialize_layout, checked))
    won = report.status == "converged_verified"
    assert [args[2] for args in built] == list(
        range(report.start_index + 1 if won else cfg.restarts)
    )
    return report, len(built)


def test_multistart_matches_index_order_on_the_family():
    # Every fourth family instance that passes the gates, in both modes, at
    # criterion-7 settings.  A verified solve builds no start after its
    # winner; the others build every start.
    cfg = SolveConfig(restarts=6, max_iters=80)
    verified = failed = 0
    for mode in (mo.ROTATABLE, mo.FIXED):
        for inst in list(enumerate_small_family(4, 4))[::4]:
            inst = Instance(inst.rects, inst.box, rotation_allowed=mode == mo.ROTATABLE)
            if not (area_can_pass(inst) and fit_can_pass(inst)):
                continue
            report, _ = assert_multistart_is_index_order(inst, cfg, mode)
            if report.status == "converged_verified":
                verified += 1
            else:
                failed += 1
    assert verified > 100 and failed > 10


def test_multistart_verifies_a_converged_start_that_fails_once(monkeypatch):
    # At order 2 a unit square and a 1x2 in a 1x3 box have roots that are no
    # packing.  Starts 0 and 2 begin at such roots, found by LM from uniform
    # starts: they take no step, and each is verified once, as it is built.
    # With four starts every start fails and the solve ends
    # converged_unverified; with five, start 4, a gap fill, tiles the box as
    # drawn and wins.
    inst = Instance.from_sides([(1, 1), (1, 2)], BoxSpec(1, 3), rotation_allowed=False)
    sys = mo.build_system(inst, 2)
    uniform = [numpy_start_vector(search.Search(sys, mo.FIXED), 0, k) for k in (1, 2)]
    roots = [solve_single(sys, v, SolveConfig(max_iters=100), s)[0] for v, s in uniform]
    starts = [(roots[0], sys.sides), uniform[0], (roots[1], sys.sides), uniform[1]]
    gap_fill = solver._start_vector
    monkeypatch.setattr(
        solver,
        "_start_vector",
        lambda *args, **kwargs: starts[args[2]] if args[2] < 4 else gap_fill(*args, **kwargs),
    )
    cfg = SolveConfig(restarts=4, max_iters=40)
    report, built = assert_multistart_is_index_order(inst, cfg, mo.FIXED, 2)
    assert report.status == "converged_unverified" and built == 4
    report, built = assert_multistart_is_index_order(inst, replace(cfg, restarts=5), mo.FIXED, 2)
    assert report.status == "converged_verified" and report.start_index == 4
    assert report.iterations_total > 0 and built == 5


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.integers(1, 6),
    near=st.booleans(),
    restarts=st.integers(1, 17),
    max_iters=st.integers(5, 40),
    mode=st.sampled_from([mo.FIXED, mo.ROTATABLE]),
    max_order=st.sampled_from([None, 2]),
)
def test_multistart_matches_index_order_on_near_tilings(
    seed, cuts, near, restarts, max_iters, mode, max_order
):
    # Near-tilings descend before they verify; order 2 makes starts that
    # converge but fail verification.
    box = BoxSpec(3.0, 2.0 + seed % 3)
    inst = near_guillotine(seed, cuts, box)[0] if near else gen_guillotine(seed, cuts, box)[0]
    cfg = SolveConfig(restarts=restarts, max_iters=max_iters, seed=seed)
    assert_multistart_is_index_order(inst, cfg, mode, max_order)


def test_near_tilings_verify_after_lm_steps(monkeypatch):
    # Dissections of a 10x8 box into N = 6 and 10 rectangles with each side
    # scaled by 1 + U(-1e-8, 1e-8), seeds 0-11, 32 starts, both modes.  Each
    # dissection's own layout passes the verifier, so every instance is
    # feasible in its sense, but no layout zeroes the moment system: a gap
    # fill finds the arrangement within the verifier's tolerance and LM
    # polishes it.  All 48 solves verify, each after LM steps.  Every
    # descent stops within 16 accepted steps, far before max_iters: at its
    # residual floor no step lowers the cost and lambda climbs past
    # LAMBDA_MAX.
    verified = 0
    descents = record_calls(monkeypatch, solver, "solve_single")
    for mode in (mo.FIXED, mo.ROTATABLE):
        for n in (6, 10):
            for seed in range(12):
                inst, dissection = near_guillotine(seed, n - 1, BoxSpec(10.0, 8.0))
                assert verify_layout(inst, dissection).passed
                report = solve_multistart(inst, SolveConfig(restarts=32, seed=seed), mode=mode)
                if report.status == "converged_verified":
                    verified += 1
                    assert report.iterations_total > 0
                    assert verify_layout(inst, report.best_layout).passed
    assert verified == 48
    assert len(descents) >= 48
    for args in descents:
        assert len(solve_single(*args)[1]) - 1 <= 16 < args[2].max_iters


def test_final_residual_is_the_one_that_judged_the_winner(monkeypatch):
    # Each built start is handed once to solve_single, which evaluates its
    # max |r| once, at x0, and the report carries the value that judged its
    # start: the one at x0 for a start that wins as drawn, after one cost
    # and no step, its descent's for a winner that took LM steps.  Start 3
    # of this N = 15 dissection is the first to tile as drawn, and the gap
    # fills of starts 0-2 reach no tiling, so they are not built; start 0 of
    # the near-tiling descends and wins.
    values = []
    residual = mo.residual

    def recording_residual(*args, **kwargs):
        r = residual(*args, **kwargs)
        values.append(float(np.max(np.abs(r))))
        return r

    monkeypatch.setattr(mo, "residual", recording_residual)
    descents, single = [], solver.solve_single

    def recording_single(*args):
        descents.append(single(*args))
        return descents[-1]

    monkeypatch.setattr(solver, "solve_single", recording_single)
    inst, _ = gen_guillotine(19, 14, BoxSpec(10.0, 8.0))
    report = solve_multistart(inst, SolveConfig(restarts=4, max_iters=5, seed=19))
    assert report.status == "converged_verified" and report.iterations_total == 0
    assert report.start_index == 3 and len(values) == len(descents) == 1
    [(_, costs, r_max)] = descents
    assert len(costs) == 1 and r_max == values[-1]
    assert report.final_residual_inf == values[-1] <= solver.RESIDUAL_TOL
    values.clear()
    descents.clear()
    inst, _ = near_guillotine(0, 5, BoxSpec(10.0, 8.0))
    report = solve_multistart(inst, SolveConfig(restarts=4))
    assert report.status == "converged_verified" and report.iterations_total > 0
    assert report.start_index == 0 and len(values) == len(descents) == 1
    _, costs, r_max = descents[0]
    assert report.iterations_total == len(costs) - 1
    assert report.final_residual_inf == r_max > solver.RESIDUAL_TOL


def test_incomplete_fills_never_descend(monkeypatch):
    # The gap fills of starts 0, 1 and 4-7 of this near-tiling of N = 15
    # reach no tiling within search.GAP_BUDGET (found by a search over
    # near_guillotine seeds); starts 2 and 3 do.  Start 2 is the first start
    # built and the only one handed to solve_single; it wins after LM steps,
    # and the report names it by its own index.  With no complete fill no
    # start is handed to it.
    descended = record_calls(monkeypatch, solver, "solve_single")
    inst, _ = near_guillotine(0, 14, BoxSpec(10.0, 8.0))
    cfg = SolveConfig(restarts=8)
    sys = mo.build_system(inst)
    starts = built_starts(sys, mo.FIXED, cfg.seed, range(cfg.restarts))
    complete = [k for k, start in enumerate(starts) if start is not None]
    assert complete == [2, 3]
    report = solve_multistart(inst, cfg, mode=mo.FIXED)
    [(_, x0, _, sides)] = descended
    assert x0.tobytes() == starts[2][0].tobytes() and sides.tobytes() == starts[2][1].tobytes()
    assert report.status == "converged_verified" and report.iterations_total > 0
    assert report.start_index == 2
    descended.clear()
    inst = Instance.from_sides([(2, 2), (2, 2), (1, 1)], BoxSpec(3, 3), rotation_allowed=False)
    report = solve_multistart(inst, SolveConfig(restarts=8))
    assert report.status == "exhausted" and report.reason == "fill" and not descended


def test_more_starts_never_change_a_verified_report(monkeypatch):
    # Near-dominoes and near-tilings of N = 6 and 10, both modes: a report
    # verified at 8 starts is the same bytes at 64, and no start after its
    # winner is built.  A rule that tried every start and kept the best
    # could pick a later winner when more starts are tried.
    box = BoxSpec(10.0, 8.0)
    dominoes = Instance.from_sides([(1, 2), (1, 2.00000004)], BoxSpec(2, 2))
    cases = [(dominoes, mo.FIXED, 0)]
    for seed in range(3):
        for n in (6, 10):
            near = near_guillotine(seed, n - 1, box)[0]
            cases += [(near, mo.FIXED, seed), (near, mo.ROTATABLE, seed)]
    built = record_calls(monkeypatch, solver, "_start_vector")
    for inst, mode, seed in cases:
        reports = []
        for restarts in (8, 64):
            built.clear()
            cfg = SolveConfig(restarts=restarts, seed=seed)
            reports.append(solve_multistart(inst, cfg, mode=mode))
            assert reports[-1].status == "converged_verified"
            assert len(built) == reports[-1].start_index + 1
        assert_report_is(reports[1], reports[0])
    # The dominoes tile the box only within the verifier's tolerance, so
    # the moment residual cannot fall below about 1e-8, far above the
    # convergence bound 1e-10.  Start 0 stops there after 4 LM steps, where
    # no step lowers its cost, and its layout must still verify with its
    # corners cancelling.
    report = solve_multistart(dominoes, SolveConfig(restarts=8), mode=mo.FIXED)
    assert (report.start_index, report.iterations_total) == (0, 4)
    assert corner_cancellation(report.best_layout, dominoes.box)


def test_rotatable_wins_after_lm_steps_place_the_given_sides():
    # Near-tilings of N = 6 with every other rectangle given turned, so a
    # tiling turns it back.  LM moves rectangles, never their sides: each
    # placed side is a given one, upright or turned, up to roundoff.
    for seed in range(6):
        near, _ = near_guillotine(seed, 5, BoxSpec(10.0, 8.0))
        given = [(r.height, r.width) if i % 2 else (r.width, r.height)
                 for i, r in enumerate(near.rects)]
        inst = Instance.from_sides(given, near.box)
        report = solve_multistart(inst, SolveConfig(restarts=32, seed=seed), mode=mo.ROTATABLE)
        assert report.status == "converged_verified" and report.iterations_total > 0, seed
        for (w, h), p in zip(given, report.best_layout.placements):
            dx, dy = p.x_hi - p.x_lo, p.y_hi - p.y_lo
            upright, turned = max(abs(dx - w), abs(dy - h)), max(abs(dx - h), abs(dy - w))
            assert min(upright, turned) <= 1e-12 * 10
