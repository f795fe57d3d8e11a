"""Geometric verification: float-tolerance checks, exact rational checks,
corner-sign cancellation, and the bridge back to moment residuals."""

from __future__ import annotations

import itertools
import math
import random
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
    area_can_pass,
    corner_cancellation,
    enumerate_small_family,
    fit_can_pass,
    gen_guillotine,
    moment_residual_of_layout,
    oracle_feasible,
    parse_instance,
    parse_layout,
    serialize_instance,
    serialize_layout,
    snap_layout,
    verify_exact,
    verify_layout,
)
from momentpack import moments as mo
from momentpack import verify
from momentpack.solver import SNAP_FRACTION
from momentpack.verify import DEFAULT_TOL, VerificationReport


def two_dominoes():
    inst = Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2))
    layout = Layout((Placement(0, 0, 1, 2), Placement(1, 0, 2, 2)))
    return inst, layout


# -- Float verification -------------------------------------------------------


def test_perfect_layouts_pass(squared32, small_corpus):
    for inst, layout in [squared32, *small_corpus]:
        report = verify_layout(inst, layout)
        assert report.passed
        assert report.containment_violations == ()
        assert report.overlap_violations == ()
        assert report.size_violations == ()
        assert abs(report.area_gap) <= 1e-9


def test_boundary_contact_is_legal():
    inst, layout = two_dominoes()
    assert verify_layout(inst, layout).passed
    assert verify_exact(inst, layout)


def test_containment_violation_reported():
    inst, _ = two_dominoes()
    layout = Layout((Placement(0, 0, 1, 2), Placement(1.00002, 0, 2.00002, 2)))
    report = verify_layout(inst, layout)
    assert not report.passed
    assert report.containment_violations == ((2, pytest.approx(2e-5)),)


def test_sub_tolerance_error_passes():
    inst, _ = two_dominoes()
    layout = Layout((Placement(0, 0, 1, 2), Placement(1, 0, 2 + 1e-9, 2)))
    assert verify_layout(inst, layout).passed


@pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf")])
def test_tol_must_be_finite_and_non_negative(tol):
    # At inf two squares stacked on each other would pass; at NaN every
    # comparison is false, so a tiling would fail with no violation row.
    inst, layout = two_dominoes()
    with pytest.raises(ValueError, match="tol"):
        verify_layout(inst, layout, tol)
    with pytest.raises(ValueError, match="tol"):
        corner_cancellation(layout, inst.box, tol)


@pytest.mark.parametrize("wall", [False, True])
def test_penetration_is_a_length_like_overhang(wall):
    # The same 1e-9 shift passes whether it pushes into the neighbour or
    # past the wall, and a shift of 1e-6 (past tol * scale = 2e-7) fails.
    inst, _ = two_dominoes()
    for shift, passes in ((1e-9, True), (1e-6, False)):
        d = shift if wall else -shift
        report = verify_layout(inst, Layout((Placement(0, 0, 1, 2), Placement(1 + d, 0, 2 + d, 2))))
        assert report.passed is passes
        if not passes and wall:
            assert report.containment_violations == ((2, pytest.approx(shift)),)
        if not passes and not wall:
            assert report.overlap_violations == (((1, 2), pytest.approx(2 * shift)),)


def test_overlap_violation_reported():
    inst, _ = two_dominoes()
    layout = Layout((Placement(0, 0, 1, 2), Placement(0.5, 0, 1.5, 2)))
    report = verify_layout(inst, layout)
    pairs = [pair for pair, _ in report.overlap_violations]
    assert pairs == [(1, 2)]
    _, area = report.overlap_violations[0]
    assert area == pytest.approx(1.0)  # 0.5 wide, 2 tall


def test_size_violation_depends_on_rotation_flag():
    rotated = Layout((Placement(0, 0, 2, 1), Placement(0, 1, 2, 2)))
    inst_rot = Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2), True)
    inst_fix = Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2), False)
    assert verify_layout(inst_rot, rotated).passed
    report = verify_layout(inst_fix, rotated)
    assert not report.passed
    assert [v[0] for v in report.size_violations] == [1, 2]
    # symmetric residuals are still zero: same side multiset, wrong axes
    for _, e_sum, e_prod in report.size_violations:
        assert e_sum == pytest.approx(0.0)
        assert e_prod == pytest.approx(0.0)


def test_side_error_is_judged_per_side_with_rotation_allowed():
    # Sum and product of the sides are off by 0 and 4e-8 only, but each
    # side is off by 2e-4, 1000 times tol * scale.
    inst = Instance.from_sides([(1, 1), (1, 1)], BoxSpec(2, 1), True)
    layout = Layout((Placement(0, 0, 1.0002, 0.9998), Placement(1.0002, 0, 2, 1)))
    report = verify_layout(inst, layout)
    assert [row[0] for row in report.size_violations] == [1, 2]
    _, e_sum, e_prod = report.size_violations[0]
    assert e_sum == pytest.approx(0.0, abs=1e-15)
    assert e_prod == pytest.approx(4e-8)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    cuts=st.integers(0, 30),
    pick=st.integers(0, 30),
    axis=st.sampled_from(["x", "y"]),
    sign=st.sampled_from([-1, 1]),
    tol=st.sampled_from([1e-9, 1e-7, 1e-5]),
)
def test_rigid_shift_passes_below_tol_and_fails_above(seed, cuts, pick, axis, sign, tol):
    # Moving one whole rectangle of a tiling by 0.5 * tol * scale is within
    # tolerance; by 2 * tol * scale it overlaps a neighbour or leaves the
    # box by twice the tolerance.
    box = BoxSpec(10.0, 7.0)
    inst, layout = gen_guillotine(seed, cuts, box)
    i = pick % inst.n_rects
    for factor, passes in ((0.5, True), (2.0, False)):
        d = sign * factor * tol * 10.0
        dx, dy = (d, 0.0) if axis == "x" else (0.0, d)
        moved = list(layout.placements)
        p = moved[i]
        moved[i] = Placement(p.x_lo + dx, p.y_lo + dy, p.x_hi + dx, p.y_hi + dy)
        assert verify_layout(inst, Layout(tuple(moved)), tol=tol).passed is passes


def test_area_gap_and_size_mismatch():
    inst = Instance.from_sides([(1, 1)], BoxSpec(1, 1))
    report = verify_layout(inst, Layout((Placement(0, 0, 1, 0.9),)))
    assert not report.passed
    assert report.size_violations
    assert report.area_gap == pytest.approx(-0.1)


# -- Area gate ----------------------------------------------------------------


def test_area_gate_on_one_square():
    # An s x s square in a unit box at tol 1e-7 (eps 1e-7): for
    # s = 1 + 1.4e-7 a square of side 1 + 0.45e-7 passes verify_layout (side
    # error 0.95e-7, area gap 0.9e-7), so the gate must let s through.  For
    # s = 1 + 1.6e-7 the area gap exceeds tol + eps * 2s + eps**2.
    box = BoxSpec(1, 1)
    near = Instance.from_sides([(1 + 1.4e-7, 1 + 1.4e-7)], box)
    placed = Layout((Placement(0, 0, 1 + 0.45e-7, 1 + 0.45e-7),))
    assert verify_layout(near, placed).passed
    assert area_can_pass(near)
    assert not area_can_pass(Instance.from_sides([(1 + 1.6e-7, 1 + 1.6e-7)], box))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    cuts=st.integers(0, 30),
    jitter_seed=st.integers(0, 2**32 - 1),
    direction=st.sampled_from([-1, 0, 1]),
    rotation_allowed=st.booleans(),
)
def test_area_gate_lets_through_every_instance_with_a_passing_layout(
    seed, cuts, jitter_seed, direction, rotation_allowed
):
    # The witness tiles the box.  Each side of the instance moves off the
    # witness's by under 0.5 * DEFAULT_TOL * scale: all outward (1), all
    # inward (-1) or either way (0).  The witness still passes, while the
    # instance's area gap can exceed DEFAULT_TOL * A * B many times over.
    box = BoxSpec(10.0, 7.0)
    inst, witness = gen_guillotine(seed, cuts, box)
    rng = random.Random(jitter_seed)
    reach = 0.5 * DEFAULT_TOL * 10.0

    def moved(v):
        return float(v) + (direction or rng.choice([-1, 1])) * reach * rng.random()

    sides = [(moved(r.width), moved(r.height)) for r in inst.rects]
    jittered = Instance.from_sides(sides, box, rotation_allowed=rotation_allowed)
    assert verify_layout(jittered, witness).passed
    assert area_can_pass(jittered)


# -- Fit gate -----------------------------------------------------------------


def test_fit_gate_bound_is_three_eps():
    # Box 10 x 7 at tol 1e-7, so eps = 1e-6.  A strip placed 0.95e-6 past
    # both side walls, with a given width 0.9e-6 longer still, passes
    # verify_layout: its width is A + 2.8e-6.  A + 3.1e-6 fits no passing
    # placement.
    box = BoxSpec(10.0, 7.0)
    layout = Layout((Placement(-0.95e-6, 0, 10 + 0.95e-6, 1), Placement(0, 1, 10, 7)))
    near = Instance.from_sides([(10 + 2.8e-6, 1), (10, 6)], box)
    assert verify_layout(near, layout).passed
    assert fit_can_pass(near)
    assert not fit_can_pass(Instance.from_sides([(10 + 3.1e-6, 1), (10, 6)], box))
    # A 1 x 10 rectangle fits the 10 x 7 box only turned.
    tall = [(1, 10), (9, 7)]
    assert fit_can_pass(Instance.from_sides(tall, box, rotation_allowed=True))
    assert not fit_can_pass(Instance.from_sides(tall, box, rotation_allowed=False))


@settings(max_examples=60, deadline=None)
@given(
    box=st.sampled_from([(10.0, 7.0), (1.0, 1.0), (3.0, 8.0)]),
    share=st.floats(0.05, 1.0),
    overhang=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
    side_error=st.floats(-0.99, 0.99),
    transpose=st.booleans(),
    turned=st.booleans(),
    rotation_allowed=st.booleans(),
)
def test_fit_gate_lets_through_every_instance_with_a_passing_layout(
    box, share, overhang, side_error, transpose, turned, rotation_allowed
):
    # A strip across the box leaves it past both walls by under eps and is
    # given a length up to eps off its placed one, so the given length
    # reaches up to A + 2.97 * eps.  The strip is thin enough that its
    # overhang keeps the area gap within DEFAULT_TOL * A * B: the layout
    # passes, and so must the gate.  A turned strip is given turned sides.
    a, b = box
    eps = DEFAULT_TOL * max(a, b)
    h = share * min(a, b) / 2
    lo, hi = -overhang[0] * eps, a + overhang[1] * eps
    boxes = [(lo, 0.0, hi, h), (0.0, h, a, b)]
    sides = [(hi - lo + side_error * eps, h), (a, b - h)]
    if transpose:
        a, b = b, a
        boxes = [(y0, x0, y1, x1) for x0, y0, x1, y1 in boxes]
        sides = [(h_, w_) for w_, h_ in sides]
    if turned and rotation_allowed:
        sides[0] = sides[0][::-1]
    inst = Instance.from_sides(sides, BoxSpec(a, b), rotation_allowed=rotation_allowed)
    layout = Layout(tuple(Placement(*p) for p in boxes))
    assert verify_layout(inst, layout).passed
    assert fit_can_pass(inst)


def test_count_mismatch_raises():
    inst, layout = two_dominoes()
    with pytest.raises(ValueError, match="placements"):
        verify_layout(inst, Layout(layout.placements[:1]))


def test_report_to_dict_keys():
    inst, layout = two_dominoes()
    doc = verify_layout(inst, layout).to_dict()
    assert doc["pass"] is True
    assert set(doc) == {
        "pass",
        "containment_violations",
        "overlap_violations",
        "size_violations",
        "area_gap",
        "tol",
    }


# -- Exact verification -------------------------------------------------------


def test_verify_exact_catches_overlap_below_float_tolerance():
    inst, _ = two_dominoes()
    shift = Fraction(1, 10**30)
    layout = Layout(
        (Placement(0, 0, 1, 2), Placement(1 - shift, 0, 2 - shift, 2))
    )
    assert verify_layout(inst, layout).passed  # invisible in floats
    assert not verify_exact(inst, layout)


def test_verify_exact_rejects_non_rational_floats():
    inst = Instance.from_sides([(1, 1)], BoxSpec(1, 1))
    with pytest.raises(ValueError, match="non-rational"):
        verify_exact(inst, Layout((Placement(0, 0, 0.5, 1),)))


def test_verify_exact_checks_every_number_before_any_check():
    # Rect 1 is placed 2 x 1 against its 1 x 1 sides, so it fails first;
    # rect 2's non-rational side must still raise, not read as a failure.
    inst = Instance.from_sides([(1, 1), (0.5, 2)], BoxSpec(2, 1), False)
    layout = Layout((Placement(0, 0, 2, 1), Placement(1, 0, 2, 1)))
    with pytest.raises(ValueError, match="rect 2 width: non-rational"):
        verify_exact(inst, layout)


def test_verify_exact_accepts_integer_valued_floats():
    inst, layout = two_dominoes()
    as_floats = Layout(
        tuple(Placement(*(float(v) for v in p.as_tuple())) for p in layout.placements)
    )
    assert verify_exact(inst, as_floats)


def test_verify_exact_respects_rotation_flag():
    rotated = Layout((Placement(0, 0, 2, 1), Placement(0, 1, 2, 2)))
    assert verify_exact(Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2), True), rotated)
    assert not verify_exact(
        Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2), False), rotated
    )


@pytest.mark.parametrize(
    "bad",
    [
        Layout((Placement(0, 0, 1, 2), Placement(1, 0, 2, 1))),  # area gap
        Layout((Placement(0, 0, 1, 2), Placement(1, 1, 2, 3))),  # overhang
        Layout((Placement(0, 0, 1, 2), Placement(0, 0, 1, 2))),  # overlap
        Layout((Placement(0, 0, 2, 2), Placement(0, 0, 1, 1))),  # wrong sides
    ],
)
def test_verify_exact_rejects_bad_layouts(bad):
    inst, _ = two_dominoes()
    assert not verify_exact(inst, bad)


def test_verify_exact_squared_rectangle(squared32):
    inst, layout = squared32
    assert verify_exact(inst, layout)
    moved = list(layout.placements)
    p = moved[8]
    moved[8] = Placement(p.x_lo - 1, p.y_lo, p.x_hi - 1, p.y_hi)
    assert not verify_exact(inst, Layout(tuple(moved)))


def integer_layouts():
    """Oracle witnesses of the small family, and gen_guillotine dissections
    of a 40 x 30 box rounded to integers (cuts shared by neighbours round
    alike, so the result still tiles)."""
    out = []
    for inst in enumerate_small_family(3, 3):
        feasible, witness = oracle_feasible(inst)
        if feasible:
            out.append((inst, witness))
    box = BoxSpec(40, 30)
    for seed in range(12):
        _, floats = gen_guillotine(seed, 2 + seed, box)
        placements = tuple(
            Placement(*(round(v) for v in p.as_tuple())) for p in floats.placements
        )
        if all(p.dx > 0 and p.dy > 0 for p in placements):
            sides = [(p.dx, p.dy) for p in placements]
            out.append((Instance.from_sides(sides, box, seed % 2 == 0), Layout(placements)))
    return out


INTEGER_LAYOUTS = integer_layouts()


@settings(max_examples=200, deadline=None)
@given(
    pick=st.integers(0, len(INTEGER_LAYOUTS) - 1),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["shift_x", "shift_y", "swap", "duplicate"]),
            st.integers(0, 10**6),
            st.sampled_from([-1, 1]),
        ),
        max_size=2,
    ),
)
def test_verify_exact_is_verify_layout_at_zero_tol(pick, edits):
    # On integer layouts floats are exact, so the float checks at tol 0 and
    # the rational checks must agree on every edited layout.
    inst, layout = INTEGER_LAYOUTS[pick]
    placements = list(layout.placements)
    for kind, index, sign in edits:
        i = index % len(placements)
        p = placements[i]
        if kind == "shift_x":
            placements[i] = Placement(p.x_lo + sign, p.y_lo, p.x_hi + sign, p.y_hi)
        elif kind == "shift_y":
            placements[i] = Placement(p.x_lo, p.y_lo + sign, p.x_hi, p.y_hi + sign)
        elif kind == "swap":
            placements[i] = Placement(p.x_lo, p.y_lo, p.x_lo + p.dy, p.y_lo + p.dx)
        else:
            placements[i] = placements[(i + 1) % len(placements)]
    edited = Layout(tuple(placements))
    assert verify_exact(inst, edited) == verify_layout(inst, edited, tol=0).passed


def test_verify_exact_sums_areas_past_int64():
    # Two 2**31 squares fill a 2**32 x 2**31 box; their areas sum to 2**63,
    # one past the int64 range.
    s = 2**31
    inst = Instance.from_sides([(s, s), (s, s)], BoxSpec(2 * s, s))
    layout = Layout((Placement(0, 0, s, s), Placement(s, 0, 2 * s, s)))
    assert verify_exact(inst, layout) is True


def test_verify_exact_checks_integers_past_two_to_the_64():
    # Three 2**70 x 1 strips tile a (2**70, 3) box: every coordinate past
    # x = 0 is beyond int64, and no float holds 2**70 + 1.  Moving one strip
    # right by one unit pushes it out of the box.
    s = 2**70
    inst = Instance.from_sides([(s, 1)] * 3, BoxSpec(s, 3))
    strips = [Placement(0, k, s, k + 1) for k in range(3)]
    assert verify_exact(inst, Layout(tuple(strips))) is True
    strips[1] = Placement(1, 1, s + 1, 2)
    assert verify_exact(inst, Layout(tuple(strips))) is False


def test_empty_instance_fails_by_area():
    inst = Instance.from_sides([], BoxSpec(1, 1))
    report = verify_layout(inst, Layout(()))
    assert report == VerificationReport(False, (), (), (), -1.0, DEFAULT_TOL)
    assert verify_exact(inst, Layout(())) is False


@pytest.mark.parametrize("move", [None, "corner", "translate"])
def test_verify_exact_on_a_fine_rational_grid(move):
    # Denominators 3 * 2**40 and 3**30: the box holds about 5e52 cells of
    # their common grid, far past int64.  Moving one corner by one cell
    # breaks the side; moving the whole rectangle makes a one-cell overlap.
    p = Fraction(1, 3) + Fraction(1, 2**40)
    q = Fraction(1, 3**30)
    cell = Fraction(1, 3**30 * 2**40)
    sides = [(p, 1), (1 - p, q), (1 - p, 1 - q)]
    left = {
        None: Placement(0, 0, p, 1),
        "corner": Placement(0, 0, p + cell, 1),
        "translate": Placement(cell, 0, p + cell, 1),
    }[move]
    inst = Instance.from_sides(sides, BoxSpec(1, 1), False)
    layout = Layout((left, Placement(p, 0, 1, q), Placement(p, q, 1, 1)))
    assert verify_exact(inst, layout) is (move is None)


def on_int64(inst, layout):
    """Whether verify_exact checks an integer layout on int64: the total
    placed area, its largest intermediate, is then provably in range."""
    nums = [inst.box.width, inst.box.height]
    nums += [v for p in layout.placements for v in p.as_tuple()]
    nums += [v for r in inst.rects for v in (r.width, r.height)]
    big = max(abs(v) for v in nums)
    return (4 * len(layout) + 1) * big * big < 2**63


def scaled(inst, layout, k):
    """The same instance and layout with every number times k."""
    sides = [(r.width * k, r.height * k) for r in inst.rects]
    box = BoxSpec(inst.box.width * k, inst.box.height * k)
    placements = tuple(Placement(*(v * k for v in p.as_tuple())) for p in layout.placements)
    return Instance.from_sides(sides, box, inst.rotation_allowed), Layout(placements)


@settings(max_examples=150, deadline=None)
@given(
    pick=st.integers(0, len(INTEGER_LAYOUTS) - 1),
    move=st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 3), st.sampled_from([-1, 1])),
)
def test_verify_exact_int64_and_python_int_checks_agree(pick, move):
    # A tiling, or a copy with one coordinate moved by one grid unit, has
    # the same tol-0 verdict at any positive scale: times 2**40 it is far
    # past the int64 bound, so the verdict there comes from Python ints.
    inst, layout = INTEGER_LAYOUTS[pick]
    if move is not None:
        index, corner, sign = move
        placements = list(layout.placements)
        i = index % len(placements)
        corners = list(placements[i].as_tuple())
        corners[corner] += sign  # every side is >= 1, so the corners stay in order
        placements[i] = Placement(*corners)
        layout = Layout(tuple(placements))
    big = scaled(inst, layout, 2**40)
    assert on_int64(inst, layout) and not on_int64(*big)
    verdict = verify_exact(inst, layout)
    assert verdict is verify_exact(*big) is verify_layout(inst, layout, tol=0).passed
    if move is None:
        assert verdict is True


@pytest.mark.parametrize("past", [0, 1])
def test_verify_exact_at_the_int64_bound(past):
    # Two rectangles side by side fill an M x 3 box, with M the largest M
    # for which 9 * M**2 < 2**63 (near 2**30), or one more.  Sliding the
    # right one left by one unit overlaps the left one by a 1 x 3 strip,
    # which only the sweep sees; a short left side leaves a gap.
    m = math.isqrt((2**63 - 1) // 9) + past
    k = m // 2
    inst = Instance.from_sides([(k, 3), (m - k, 3)], BoxSpec(m, 3), False)
    tiling = Layout((Placement(0, 0, k, 3), Placement(k, 0, m, 3)))
    assert on_int64(inst, tiling) is not past
    assert verify_exact(inst, tiling) is True
    slid = Layout((Placement(0, 0, k, 3), Placement(k - 1, 0, m - 1, 3)))
    assert verify_exact(inst, slid) is False
    short = Instance.from_sides([(k - 1, 3), (m - k, 3)], BoxSpec(m, 3), False)
    assert verify_exact(short, Layout((Placement(0, 0, k - 1, 3), Placement(k, 0, m, 3)))) is False


def test_verify_exact_sees_a_gap_int64_would_wrap_to_zero():
    # One 2**32 square in a 2**33 x 2**32 box leaves a gap of 2**64 cells,
    # which is 0 modulo 2**64: only exact integers see it.
    s = 2**32
    inst = Instance.from_sides([(s, s)], BoxSpec(2 * s, s))
    assert verify_exact(inst, Layout((Placement(0, 0, s, s),))) is False


def test_verify_exact_names_the_first_bad_number_by_its_place():
    inst = Instance.from_sides([(1, 1), (1, 0.5)], BoxSpec(2, 1))
    layout = Layout((Placement(0, 0, 1, 1), Placement(1, 0, 2, 1)))
    with pytest.raises(ValueError, match=r"^rect 2 height: non-rational input 0\.5; use ints"):
        verify_exact(inst, layout)
    inst = Instance.from_sides([(1, 1), (1, 1)], BoxSpec(2, 1.5))
    with pytest.raises(ValueError, match=r"^box height: non-rational input 1\.5; use ints"):
        verify_exact(inst, Layout((Placement(0, 0, 1, 1), Placement(1, 0, 2, 0.5))))
    inst = Instance.from_sides([(1, 1), (1, 1)], BoxSpec(2, 1))
    layout = Layout((Placement(0, 0, 1, 1), Placement(1, 0, 2, np.float32(1.5))))
    with pytest.raises(ValueError) as info:
        verify_exact(inst, layout)
    assert str(info.value) == "placement 2: expected a rational number, got np.float32(1.5)"


# -- Every kind of exact number ---------------------------------------------

WHOLE_KINDS = (int, float, Fraction, np.int64)


def numbers_in_order(inst, layout):
    """Every number verify_exact reads, in its order: box sides, placement
    corners, rect sides."""
    nums = [inst.box.width, inst.box.height]
    nums += [v for p in layout.placements for v in p.as_tuple()]
    return nums + [v for r in inst.rects for v in (r.width, r.height)]


def rebuilt(inst, layout, nums):
    """inst and layout with their numbers, in numbers_in_order's order,
    replaced by nums."""
    it = iter(nums)
    box = BoxSpec(next(it), next(it))
    placements = tuple(Placement(*itertools.islice(it, 4)) for _ in layout.placements)
    sides = [(next(it), next(it)) for _ in inst.rects]
    return Instance.from_sides(sides, box, inst.rotation_allowed), Layout(placements)


@settings(max_examples=150, deadline=None)
@given(
    pick=st.integers(0, len(INTEGER_LAYOUTS) - 1),
    scale=st.sampled_from([1, 2**40]),
    move=st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 3), st.sampled_from([-1, 1])),
    data=st.data(),
)
def test_verify_exact_and_the_json_writers_read_every_exact_kind_alike(pick, scale, move, data):
    # Each number is drawn, on its own, as an int, a whole float, a Fraction
    # or a numpy integer.  Times 2**40 the layout is past the int64 bound,
    # so both check paths run; a copy may have one coordinate moved by one
    # grid unit.
    inst, layout = scaled(*INTEGER_LAYOUTS[pick], scale)
    if move is not None:
        index, corner, sign = move
        placements = list(layout.placements)
        i = index % len(placements)
        corners = list(placements[i].as_tuple())
        corners[corner] += sign  # every side is >= 1, so the corners stay in order
        placements[i] = Placement(*corners)
        layout = Layout(tuple(placements))
    assert on_int64(inst, layout) is (scale == 1)
    nums = numbers_in_order(inst, layout)
    kinds = data.draw(st.lists(st.sampled_from(WHOLE_KINDS), min_size=len(nums), max_size=len(nums)))
    mixed_inst, mixed_layout = rebuilt(inst, layout, [kind(v) for kind, v in zip(kinds, nums)])
    assert verify_exact(mixed_inst, mixed_layout) is verify_exact(inst, layout)
    assert parse_instance(serialize_instance(mixed_inst)) == mixed_inst
    assert parse_layout(serialize_layout(mixed_layout)) == mixed_layout


@settings(max_examples=100, deadline=None)
@given(
    pick=st.integers(0, len(INTEGER_LAYOUTS) - 1),
    bad=st.sampled_from(["decimal", "half"]),
    data=st.data(),
)
def test_verify_exact_names_a_decimal_or_a_non_whole_float_anywhere(pick, bad, data):
    # Among ints, whole floats and Fractions, one number gains 0.5, as a
    # numpy float32 or as a Python float: the error names its place, with
    # the texts of the exact verifier.
    inst, layout = INTEGER_LAYOUTS[pick]
    nums = numbers_in_order(inst, layout)
    kinds = data.draw(st.lists(st.sampled_from(WHOLE_KINDS[:3]), min_size=len(nums), max_size=len(nums)))
    nums = [kind(v) for kind, v in zip(kinds, nums)]
    k = data.draw(st.integers(0, len(nums) - 1))
    v = int(nums[k])
    nums[k] = np.float32(v + 0.5) if bad == "decimal" else v + 0.5
    names = ["box width", "box height"]
    names += [f"placement {i}" for i in range(1, len(layout) + 1) for _ in range(4)]
    names += [f"rect {i} {side}" for i in range(1, inst.n_rects + 1) for side in ("width", "height")]
    with pytest.raises(ValueError) as info:
        verify_exact(*rebuilt(inst, layout, nums))
    if bad == "decimal":
        assert str(info.value) == f"{names[k]}: expected a rational number, got {np.float32(v + 0.5)!r}"
    else:
        assert str(info.value) == f"{names[k]}: non-rational input {v + 0.5}; use ints or 'p/q' strings"


def test_verify_exact_reads_whole_numpy_floats_of_every_width():
    # A whole float32 or longdouble is exact, as a whole Python float is.
    inst = Instance.from_sides([(np.float32(1.0), 1), (1, np.longdouble(1.0))], BoxSpec(2, 1))
    layout = Layout((Placement(0, 0, np.float32(1.0), 1), Placement(np.longdouble(1.0), 0, 2, 1)))
    assert verify_exact(inst, layout) is True
    stacked = Layout((layout.placements[0], Placement(np.longdouble(0.0), 0, 1, 1)))
    assert verify_exact(inst, stacked) is False


def test_verify_exact_never_computes_on_numpy_integers():
    # One 2**32 square in a 2**33 x 2**32 box leaves a gap of 2**64 cells.
    # Given as numpy integers, the numbers must still be checked as Python
    # ints: on int64 the bound and the gap would both wrap.
    s = np.int64(2**32)
    inst = Instance.from_sides([(s, s)], BoxSpec(2 * s, s))
    assert verify_exact(inst, Layout((Placement(*np.array([0, 0, s, s])),))) is False


def all_pairs_check(inst, layout, tol, num, total):
    """The verifier's checks with the overlap test run on every pair i < j:
    the reference the swept core must match row for row and bit for bit."""
    a, b = num(inst.box.width), num(inst.box.height)
    boxes = [tuple(num(v) for v in p.as_tuple()) for p in layout.placements]
    eps = tol * max(a, b)
    containment, sizes, areas = [], [], []
    for i, (r, (xl, yl, xh, yh)) in enumerate(zip(inst.rects, boxes), start=1):
        w, h = num(r.width), num(r.height)
        overhang = max(-xl, xh - a, -yl, yh - b, 0)
        if overhang > eps:
            containment.append((i, overhang))
        dx, dy = xh - xl, yh - yl
        upright_ok = abs(dx - w) <= eps and abs(dy - h) <= eps
        turned_ok = inst.rotation_allowed and abs(dx - h) <= eps and abs(dy - w) <= eps
        if not (upright_ok or turned_ok):
            sizes.append((i, abs(dx + dy - (w + h)), abs(dx * dy - w * h)))
        areas.append(dx * dy)
    overlaps = []
    for i, (xl_i, yl_i, xh_i, yh_i) in enumerate(boxes):
        for j in range(i + 1, len(boxes)):
            xl_j, yl_j, xh_j, yh_j = boxes[j]
            ow = min(xh_i, xh_j) - max(xl_i, xl_j)
            oh = min(yh_i, yh_j) - max(yl_i, yl_j)
            if min(ow, oh) > eps:
                overlaps.append(((i + 1, j + 1), ow * oh))
    area_gap = total(areas) - a * b
    return VerificationReport(
        passed=not containment and not overlaps and not sizes and abs(area_gap) <= tol * a * b,
        containment_violations=tuple(containment),
        overlap_violations=tuple(overlaps),
        size_violations=tuple(sizes),
        area_gap=float(area_gap),
        tol=tol,
    )


@st.composite
def sweep_layouts(draw):
    """Rational layouts in a small box: an optional tiling by full-width
    strips (every x_lo ties, the sweep's worst case), plus extra placements
    on a grid of sixths (inexact in floats): boxes, full-width strips,
    zero-width ones, duplicates, copies nudged by a multiple of 1e-4, 1e-9
    or 1e-12, and right neighbours that touch an earlier placement or
    overlap it by such a nudge.  Some rectangles' widths differ from their
    placements' by such a nudge."""
    a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    xs = st.integers(-1, 6 * a + 1).map(lambda k: Fraction(k, 6))
    ys = st.integers(-1, 6 * b + 1).map(lambda k: Fraction(k, 6))
    nudges = st.builds(
        lambda k, e: Fraction(k, 10**e), st.integers(-9, 9), st.sampled_from([4, 9, 12])
    )
    placements = []
    if draw(st.booleans()):
        cuts = draw(st.lists(st.integers(1, 6 * b - 1), unique=True, max_size=12))
        levels = [0, *sorted(Fraction(c, 6) for c in cuts), b]
        strips = [Placement(0, lo, a, hi) for lo, hi in zip(levels, levels[1:])]
        placements = draw(st.permutations(strips))
    for _ in range(draw(st.integers(0 if placements else 1, 10))):
        kinds = ["box", "strip", "zero_width"]
        if placements:
            kinds += ["duplicate", "nudge", "neighbour"]
        kind = draw(st.sampled_from(kinds))
        y0, y1 = sorted((draw(ys), draw(ys)))
        if kind == "box":
            x0, x1 = sorted((draw(xs), draw(xs)))
        elif kind == "strip":
            x0, x1 = 0, a
        elif kind == "zero_width":
            x0 = x1 = draw(xs)
        else:
            p = placements[draw(st.integers(0, len(placements) - 1))]
            x0, y0, x1, y1 = p.as_tuple()
            d = draw(nudges) if kind == "nudge" else 0
            if kind == "neighbour":
                x0 = p.x_hi - draw(st.just(0) | nudges.map(abs))
                x1 = x0 + Fraction(draw(st.integers(0, 6 * a)), 6)
            elif draw(st.booleans()):
                x0, x1 = x0 + d, x1 + d
            else:
                y0, y1 = y0 + d, y1 + d
        placements.insert(draw(st.integers(0, len(placements))), Placement(x0, y0, x1, y1))
    sides = []
    for p in placements:
        w, h = p.dx or Fraction(1, 4), p.dy or Fraction(1, 4)
        if draw(st.booleans()):  # a side off by a nudge: the side rule's edge
            w += draw(nudges)
        sides.append((h, w) if draw(st.booleans()) else (w, h))
    inst = Instance.from_sides(sides, BoxSpec(a, b), draw(st.booleans()))
    return inst, Layout(tuple(placements))


@settings(max_examples=300, deadline=None)
@given(case=sweep_layouts())
def test_swept_checks_match_all_pairs_reference(case):
    inst, layout = case
    for tol in (0, DEFAULT_TOL, 1e-4):
        expected = all_pairs_check(inst, layout, tol, float, np.sum)
        assert verify_layout(inst, layout, tol=tol) == expected
    assert verify_exact(inst, layout) == all_pairs_check(inst, layout, 0, Fraction, sum).passed


@pytest.mark.parametrize("block", [1, 3])
@settings(max_examples=100, deadline=None)
@given(case=sweep_layouts())
def test_blocked_sweep_matches_all_pairs_reference(block, case):
    # Blocks of 1 or 3 candidate pairs split one rectangle's candidates
    # across blocks, and verify_exact stops at the first block with a hit.
    inst, layout = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_BLOCK", block)
        for tol in (0, DEFAULT_TOL, 1e-4):
            expected = all_pairs_check(inst, layout, tol, float, np.sum)
            assert verify_layout(inst, layout, tol=tol) == expected
        exact = verify_exact(inst, layout)
    assert exact == all_pairs_check(inst, layout, 0, Fraction, sum).passed


@pytest.mark.parametrize("block", [1, 3, verify._BLOCK])
def test_an_overlap_in_any_block_fails(monkeypatch, block):
    # Six unit strips tile a 1 x 6 box.  Moving strip i up onto strip i + 1
    # keeps it in the box and the areas summing to the box's, so only the
    # sweep can fail it, whichever block holds the pair.
    monkeypatch.setattr(verify, "_BLOCK", block)
    inst = Instance.from_sides([(1, 1)] * 6, BoxSpec(1, 6))
    for i in range(5):
        strips = [Placement(0, k, 1, k + 1) for k in range(6)]
        strips[i] = Placement(0, i + 1, 1, i + 2)
        layout = Layout(tuple(strips))
        assert verify_layout(inst, layout, tol=0).overlap_violations == (((i + 1, i + 2), 1.0),)
        assert verify_exact(inst, layout) is False


# -- Corner cancellation ------------------------------------------------------


def test_corner_cancellation_on_perfect_layouts(squared32, small_corpus):
    for inst, layout in [squared32, *small_corpus]:
        assert corner_cancellation(layout, inst.box)


def test_corner_cancellation_exact_mode(squared32):
    inst, layout = squared32
    assert corner_cancellation(layout, inst.box, tol=0.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    cuts=st.integers(0, 30),
    jitter_seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-9, 1e-7, 1e-5]),
)
def test_corner_cancellation_survives_jitter(seed, cuts, jitter_seed, tol):
    # Every coordinate moves by up to 0.2 * tol * scale, so copies of one
    # coordinate stay within 0.4 * tol * scale of each other.
    box = BoxSpec(10.0, 7.0)
    _, layout = gen_guillotine(seed, cuts, box)
    rng = random.Random(jitter_seed)
    reach = 0.2 * tol * 10.0

    def moved(v):
        return float(v) + rng.uniform(-reach, reach)

    jittered = []
    for p in layout.placements:
        xs = sorted((moved(p.x_lo), moved(p.x_hi)))
        ys = sorted((moved(p.y_lo), moved(p.y_hi)))
        jittered.append(Placement(xs[0], ys[0], xs[1], ys[1]))
    assert corner_cancellation(Layout(tuple(jittered)), box, tol=tol)


def test_corner_cancellation_detects_shifted_rect():
    layout = Layout((Placement(0, 0, 1, 2), Placement(1, 0.25, 2, 2.25)))
    assert not corner_cancellation(layout, BoxSpec(2, 2))


def test_corner_cancellation_needs_all_box_corners():
    # single rect strictly inside the box: all clusters cancel but the box
    # corners are never matched
    layout = Layout((Placement(0.5, 0.5, 1.5, 1.5),))
    assert not corner_cancellation(layout, BoxSpec(2, 2))
    assert corner_cancellation(Layout((Placement(0, 0, 2, 2),)), BoxSpec(2, 2))


def reference_snap_values(values, anchors, eps):
    """The dict-based clustering corner_cancellation and snap_layout used
    before verify._snap: each value to its cluster's representative.  The
    mean adds left to right, as Python's sum does up to 3.11."""
    mapping = {}
    ordered = sorted(set(values))
    group = []

    def flush():
        if not group:
            return
        rep = None
        for anchor in anchors:
            if any(abs(v - anchor) <= eps for v in group):
                rep = anchor
                break
        if rep is None:
            total = 0
            for v in group:
                total += v
            rep = total / len(group)
        for v in group:
            mapping[v] = rep
        group.clear()

    for v in ordered:
        if group and v - group[-1] > eps:
            flush()
        group.append(v)
    flush()
    return mapping


def reference_corner_cancellation(layout, box, tol):
    a = float(box.width)
    b = float(box.height)
    eps = tol * max(a, b)
    corners = [tuple(float(v) for v in p.as_tuple()) for p in layout.placements]
    x_map = reference_snap_values([v for c in corners for v in (c[0], c[2])], (0.0, a), eps)
    y_map = reference_snap_values([v for c in corners for v in (c[1], c[3])], (0.0, b), eps)
    expected = {(0.0, 0.0): 1, (a, 0.0): -1, (0.0, b): -1, (a, b): 1}
    sums = dict.fromkeys(expected, 0)
    for xl, yl, xh, yh in corners:
        xl, xh, yl, yh = x_map[xl], x_map[xh], y_map[yl], y_map[yh]
        for point, sign in (((xl, yl), 1), ((xh, yh), 1), ((xl, yh), -1), ((xh, yl), -1)):
            sums[point] = sums.get(point, 0) + sign
    return all(total == expected.get(point, 0) for point, total in sums.items())


def reference_snap_layout(inst, layout, eps=None):
    a = float(inst.box.width)
    b = float(inst.box.height)
    if eps is None:
        eps = SNAP_FRACTION * DEFAULT_TOL * max(a, b)
    xs, ys = [], []
    for p in layout.placements:
        xs.extend((float(p.x_lo), float(p.x_hi)))
        ys.extend((float(p.y_lo), float(p.y_hi)))
    x_map = reference_snap_values(xs, (0.0, a), eps)
    y_map = reference_snap_values(ys, (0.0, b), eps)
    placements = []
    for p in layout.placements:
        xl, xh = x_map[float(p.x_lo)], x_map[float(p.x_hi)]
        yl, yh = y_map[float(p.y_lo)], y_map[float(p.y_hi)]
        if xh <= xl or yh <= yl:
            return layout
        placements.append(Placement(xl, yl, xh, yh))
    return Layout(tuple(placements))


def bits(layout):
    """Each coordinate with its type, floats by their exact bits."""
    return [
        (type(v), v.hex() if isinstance(v, float) else v)
        for p in layout.placements
        for v in p.as_tuple()
    ]


def assert_clusters_match_reference(layout, box, tol):
    got = corner_cancellation(layout, box, tol)
    assert type(got) is bool
    assert got is reference_corner_cancellation(layout, box, tol)
    # _snap's own values, per axis, at corner_cancellation's eps.
    sides = (float(box.width), float(box.height))
    corners = np.array([[float(v) for v in p.as_tuple()] for p in layout.placements]).reshape(-1, 4)
    snapped = verify._snap(corners, sides, tol * max(sides))
    for axis, side in enumerate(sides):
        values = corners[:, axis::2].ravel().tolist()
        want = reference_snap_values(values, (0.0, side), tol * max(sides))
        assert [v.hex() for v in snapped[:, axis::2].ravel().tolist()] == [
            want[v].hex() for v in values
        ]
    inst = Instance.from_sides([], box)  # snap_layout reads only the box
    for eps in (None, tol * max(float(box.width), float(box.height))):
        snapped = snap_layout(inst, layout, eps)
        want = reference_snap_layout(inst, layout, eps)
        assert (snapped is layout) is (want is layout)
        assert bits(snapped) == bits(want)


def layout_of(quads):
    """A layout of (x, y, x', y') quads, each axis put in order."""
    placements = []
    for q in quads:
        (x_lo, x_hi), (y_lo, y_hi) = sorted(q[::2]), sorted(q[1::2])
        placements.append(Placement(x_lo, y_lo, x_hi, y_hi))
    return Layout(tuple(placements))


@pytest.mark.parametrize(
    "quads, box, tol",
    [
        ([], BoxSpec(1, 1), DEFAULT_TOL),  # only the box corners, unmatched
        ([(-0.0, -0.0, 1, 1)], BoxSpec(1, 1), 0.0),
        ([(-0.0, 0.0, 0.5, 1), (0.5, -0.0, 1.0, 1.0)], BoxSpec(1, 1), 0.0),
        # A chain of gaps of 0.6 * eps spans 1.2 * eps: one cluster, its mean.
        ([(0.3, 0, 0.3006, 0.5), (0.3012, 0.5, 1, 1)], BoxSpec(1, 1), 1e-3),
        # Two clusters, each within eps of one anchor.
        ([(0.0004, 0, 0.5, 1), (0.5, 0, 0.9996, 1)], BoxSpec(1, 1), 1e-3),
        # One cluster within eps of both anchors: the first, 0, wins.
        ([(0, 0, 0.5, 1), (0.5, 0, 1, 1)], BoxSpec(1, 1), 0.5),
        ([(0, 0, 0.5, 0.5), (0.5, 0.5, 1, 1)], BoxSpec(1, 1), 0.6),
        # A box side that rounds to 0.0 makes two box corners coincide.
        ([(0, 0, Fraction(1, 10**400), 1)], BoxSpec(Fraction(1, 10**400), 1), DEFAULT_TOL),
    ],
)
def test_clustering_matches_the_dict_reference_on_named_cases(quads, box, tol):
    assert_clusters_match_reference(layout_of(quads), box, tol)


@st.composite
def cluster_cases(draw):
    """A layout, box and tol whose coordinates sit on the clustering's
    boundaries: at, near and on both sides of the anchors 0 and the box
    sides, in chains of steps of up to 1.5 * eps, or anywhere; or a
    guillotine dissection, jittered within a share of eps and maybe with
    one rectangle shifted."""
    box = draw(st.sampled_from([BoxSpec(1, 1), BoxSpec(2, 1), BoxSpec(1.0, 0.75), BoxSpec(10, 7)]))
    tol = draw(st.sampled_from([0.0, 1e-9, DEFAULT_TOL, 1e-3, 0.05, 0.3, 0.5, 0.6]))
    a, b = float(box.width), float(box.height)
    eps = tol * max(a, b)
    if draw(st.booleans()):
        _, layout = gen_guillotine(draw(st.integers(0, 10**6)), draw(st.integers(0, 12)), box)
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        reach = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])) * eps
        quads = [[float(v) + rng.uniform(-reach, reach) for v in p.as_tuple()] for p in layout.placements]
        if quads and draw(st.booleans()):
            shift = draw(st.sampled_from([0.5, 2.0, 0.01 * max(a, b)])) * max(eps, 1e-9)
            k = rng.randrange(len(quads))
            quads[k] = [v + shift for v in quads[k]]
        return layout_of(quads), box, tol
    centre = st.sampled_from([0.0, -0.0, a, b, a / 2, 0.3]) | st.floats(-0.5, 2.5)
    coord = st.builds(
        lambda c, k, f: c + k * f * eps,
        centre,
        st.integers(-3, 3),
        st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    )
    quads = draw(st.lists(st.tuples(coord, coord, coord, coord), max_size=6))
    return layout_of(quads), box, tol


@settings(max_examples=400, deadline=None)
@given(case=cluster_cases())
def test_clustering_matches_the_dict_reference(case):
    # corner_cancellation and snap_layout cluster with numpy arrays; both must
    # give the dict-based results bit for bit, with the same types.
    assert_clusters_match_reference(*case)


# -- Moment residual bridge ---------------------------------------------------


def test_moment_residual_small_on_perfect(squared32):
    inst, layout = squared32
    assert moment_residual_of_layout(inst, layout, 5) <= 1e-12


def test_moment_residual_uses_rotatable_when_allowed():
    rotated = Layout((Placement(0, 0, 2, 1), Placement(0, 1, 2, 2)))
    inst_rot = Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2), True)
    inst_fix = Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2), False)
    assert moment_residual_of_layout(inst_rot, rotated, 3) <= 1e-12
    # fixed reconstruction uses the declared sides, so the same layout is far
    # from a solution of the fixed system
    assert moment_residual_of_layout(inst_fix, rotated, 3) > 0.1


def test_moment_residual_grows_with_perturbation(small_corpus):
    inst, layout = small_corpus[0]
    moved = list(layout.placements)
    p = moved[0]
    scale = float(max(inst.box.width, inst.box.height))
    moved[0] = Placement(p.x_lo, p.y_lo, p.x_hi + 1e-3 * scale, p.y_hi)
    assert moment_residual_of_layout(inst, Layout(tuple(moved)), 3) > 1e-5


def test_moment_residual_reads_every_corner_of_a_square(squared32):
    # The system reads only lower corners and sides, yet a placed upper
    # corner still counts, through the side error.
    inst, layout = squared32
    moved = list(layout.placements)
    p = moved[0]
    moved[0] = Placement(p.x_lo, p.y_lo, p.x_hi + 0.033, p.y_hi)
    assert moment_residual_of_layout(inst, Layout(tuple(moved))) > 1e-5
    assert moment_residual_of_layout(inst, Layout(tuple(moved)), 3) > 1e-5


def reference_layout_to_vars(sys, layout):
    s = sys.scale
    return np.array([[float(p.x_lo) / s, float(p.y_lo) / s] for p in layout.placements]).ravel()


def reference_moment_residual(inst, layout, max_order):
    # Each rectangle read upright or, if the instance allows, turned,
    # whichever side error is smaller (upright on a tie), and that error
    # counted.
    sys = mo.build_system(inst, max_order)
    placed = np.array([p.as_tuple() for p in layout.placements], dtype=float).reshape(-1, 2, 2)
    d = (placed[:, 1] - placed[:, 0]) / sys.scale
    upright = np.abs(d - sys.sides).max(axis=1)
    turned = np.abs(d - sys.sides[:, ::-1]).max(axis=1) if inst.rotation_allowed else upright
    sides = np.where((turned < upright)[:, None], sys.sides[:, ::-1], sys.sides)
    residual = np.max(np.abs(mo.residual(sys, reference_layout_to_vars(sys, layout), sides)))
    return float(max(residual, np.max(np.minimum(upright, turned), initial=0.0)))


NUMBER_TYPES = {
    "float": float,
    "int": round,
    "fraction": lambda v: Fraction(round(v * 3**5), 3**5),  # thirds: rounded to float
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    cuts=st.integers(0, 12),
    kinds=st.lists(st.sampled_from(sorted(NUMBER_TYPES)), min_size=1, max_size=3),
    rotation=st.booleans(),
    max_order=st.sampled_from([1, 3, None]),
)
def test_layout_floats_match_the_comprehensions_bytewise(seed, cuts, kinds, rotation, max_order):
    # Ints, floats and Fractions, one type per placement, read through the
    # one float view of a layout, as the per-number float() reads did.
    base, layout = gen_guillotine(seed, cuts, BoxSpec(4000, 3000))
    placements = tuple(
        Placement(*map(NUMBER_TYPES[kinds[k % len(kinds)]], p.as_tuple()))
        for k, p in enumerate(layout.placements)
    )
    layout = Layout(placements)
    inst = Instance(base.rects, base.box, rotation)
    sys = mo.build_system(inst, max_order)
    assert mo.layout_to_vars(sys, layout).tobytes() == reference_layout_to_vars(sys, layout).tobytes()
    got = moment_residual_of_layout(inst, layout, max_order)
    assert type(got) is float
    assert got.hex() == reference_moment_residual(inst, layout, max_order).hex()


def test_moment_residual_checks_the_count_before_converting():
    # A placement too large for a float is never converted: the count
    # mismatch is the error.
    inst = Instance.from_sides([(1, 1)], BoxSpec(1, 1))
    layout = Layout((Placement(0, 0, 10**400, 1), Placement(0, 0, 1, 1)))
    with pytest.raises(ValueError, match="^layout has 2 placements, instance has 1$"):
        moment_residual_of_layout(inst, layout)


def test_float_verifier_converts_box_then_placements_then_sides():
    # float() words its overflow by type: the first number that fits no
    # float names the error, so the order shows in the text.
    huge_int, huge_fraction = 10**400, Fraction(10**400, 3)
    texts = {}
    for value in (huge_int, huge_fraction):
        with pytest.raises(OverflowError) as exc:
            float(value)
        texts[value] = str(exc.value)
    assert texts[huge_int] != texts[huge_fraction]
    placed = Layout((Placement(0, 0, huge_fraction, 1),))
    for inst, first in [
        (Instance.from_sides([(1, 1)], BoxSpec(huge_int, 1)), huge_int),
        (Instance.from_sides([(huge_int, 1)], BoxSpec(1, 1)), huge_fraction),
    ]:
        with pytest.raises(OverflowError) as exc:
            verify_layout(inst, placed)
        assert str(exc.value) == texts[first]
