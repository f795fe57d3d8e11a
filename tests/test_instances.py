"""Domain types, JSON wire formats, and fixture generators."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
from decimal import Decimal
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
    RectSpec,
    area_can_pass,
    gen_guillotine,
    harmonic_prefix,
    parse_instance,
    parse_layout,
    serialize_instance,
    serialize_layout,
    squared_rectangle_32x33,
    verify_exact,
    verify_layout,
)
from momentpack.instances import CUT_FRACTION_HI, CUT_FRACTION_LO


# -- Dataclass validation -----------------------------------------------------


def test_rect_requires_positive_sides():
    with pytest.raises(ValueError, match="positive"):
        RectSpec(0, 1)
    with pytest.raises(ValueError, match="positive"):
        RectSpec(1, -2.0)
    with pytest.raises(ValueError, match="finite"):
        RectSpec(float("nan"), 1)
    with pytest.raises(ValueError, match="^rect 2: sides must be positive, got 0 x 1$"):
        Instance.from_sides([(1, 1), (0, 1)], BoxSpec(2, 1))


def test_box_requires_positive_sides():
    with pytest.raises(ValueError, match="positive"):
        BoxSpec(1, 0)


def test_bool_sides_and_coordinates_are_rejected():
    # True == 1, but a bool serializes as a JSON boolean that
    # parse_instance and parse_layout reject.
    with pytest.raises(ValueError, match="^width: expected a number, got True$"):
        RectSpec(True, 1)
    with pytest.raises(ValueError, match="^x_hi: expected a number, got True$"):
        Placement(0, 0, True, 1)
    with pytest.raises(ValueError, match="^rect 1: width: expected a number, got True$"):
        Instance.from_sides([(True, 1), (1, 1)], BoxSpec(2, 1))


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (RectSpec, (np.True_, 1), "width: expected a number, got {!r}"),
        (Placement, (0, np.False_, 1, 1), "y_lo: expected a number, got {!r}"),
        (RectSpec, (np.float32("nan"), 1), "width must be finite, got {!r}"),
        (Placement, (0, 0, np.float16("-inf"), 1), "x_hi must be finite, got {!r}"),
        (RectSpec, (1, "2"), "height: expected a number, got {!r}"),
        (RectSpec, (None, 1), "width: expected a number, got {!r}"),
        (Placement, (0, 0, "1", 1), "x_hi: expected a number, got {!r}"),
        (Placement, ("0", "0", "2", "1"), "x_lo: expected a number, got {!r}"),
        (RectSpec, (Decimal(1), 1), "width: expected a number, got {!r}"),
        (RectSpec, (1, Decimal("Infinity")), "height: expected a number, got {!r}"),
        (Placement, (0, 0, Decimal("NaN"), 1), "x_hi: expected a number, got {!r}"),
        (Placement, (0, Decimal("sNaN"), 1, 1), "y_lo: expected a number, got {!r}"),
        (RectSpec, (1 + 0j, 1), "width: expected a number, got {!r}"),
        (Placement, (0, 0, 1, np.complex64(1)), "y_hi: expected a number, got {!r}"),
    ],
    ids=[
        "numpy-true",
        "numpy-false",
        "float32-nan",
        "float16-inf",
        "string-height",
        "none-width",
        "string-x_hi",
        "string-placement",
        "decimal-width",
        "decimal-inf-height",
        "decimal-nan-x_hi",
        "decimal-snan-y_lo",
        "complex-width",
        "complex64-y_hi",
    ],
)
def test_numpy_bools_and_non_finite_numpy_floats_are_rejected(cls, args, message):
    # A numpy bool is no bool and a numpy float32 no float, so neither may
    # slip past the checks that reject True and nan; nor may a non-number,
    # which numpy would read as a float and the order checks cannot compare,
    # nor a Decimal or a complex number, which is no numbers.Real.
    bad = next(v for v in args if type(v) is not int)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(bad))}$"):
        cls(*args)


def test_numpy_numbers_that_are_finite_pass():
    p = Placement(np.int64(0), np.float32(0.5), Fraction(3, 2), np.float64(2.0))
    assert (p.dx, p.dy) == (Fraction(3, 2), 1.5)


def test_placement_corners_ordered():
    with pytest.raises(ValueError, match="out of order"):
        Placement(1, 0, 0, 1)
    p = Placement(0, 0, 2, 3)
    assert (p.dx, p.dy, p.area) == (2, 3, 6)
    assert (p.cx, p.cy) == (1, 1.5)
    # numpy will not compare a longdouble with a Fraction, so such corners
    # compare through the exact rule: a whole longdouble is in order or not,
    # any other raises ValueError.
    mixed = Placement(np.longdouble(0), 0, Fraction(1), 1)
    assert verify_exact(Instance.from_sides([(1, 1)], BoxSpec(1, 1)), Layout((mixed,)))
    with pytest.raises(ValueError, match="out of order"):
        Placement(np.longdouble(2), 0, Fraction(1), 1)
    with pytest.raises(ValueError, match="^expected a rational number, got "):
        Placement(np.longdouble(0.5), 0, Fraction(1), 1)


def test_instance_area_sum_exact_with_fractions():
    inst = Instance.from_sides(
        [(Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), 1)], BoxSpec(1, 1)
    )
    assert inst.area_sum == Fraction(1, 6) + Fraction(2, 3)


# -- JSON round trips ---------------------------------------------------------


def test_instance_roundtrip_mixed_number_kinds():
    inst = Instance.from_sides(
        [
            (1, 2),
            (0.5, 1.5),
            (Fraction(3, 7), Fraction(7, 3)),
            (np.float32(1.5), np.float16(0.1)),
        ],
        BoxSpec(4, Fraction(9, 2)),
        rotation_allowed=False,
    )
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    doc = json.loads(text)
    assert doc["rects"][2] == ["3/7", "7/3"]
    # numpy's float16 and float32 are written as the Python float of their
    # value, exactly: float16 0.1 is 0.0999755859375.
    assert doc["rects"][3] == [1.5, 0.0999755859375]
    assert doc["box"] == [4, "9/2"]
    assert doc["rotation"] is False


def test_instance_rotation_defaults_true():
    inst = parse_instance('{"box": [2, 2], "rects": [[1, 2]]}')
    assert inst.rotation_allowed is True
    with pytest.raises(ValueError, match="^rotation_allowed must be a bool$"):
        Instance(inst.rects, inst.box, rotation_allowed=1)


def test_whole_fractions_serialize_as_ints():
    inst = Instance.from_sides([(Fraction(4, 2), 1)], BoxSpec(2, 1))
    assert json.loads(serialize_instance(inst))["rects"][0] == [2, 1]


def test_layout_roundtrip_with_rationals():
    layout = Layout(
        (
            Placement(0, 0, Fraction(1, 3), 1),
            Placement(Fraction(1, 3), 0, 1, 1),
        )
    )
    again = parse_layout(serialize_layout(layout))
    assert again == layout
    assert isinstance(again.placements[0].x_hi, Fraction)
    single = Layout((Placement(0, np.float32(0.5), np.float32(1.25), 1),))
    assert parse_layout(serialize_layout(single)) == single
    # A numpy float wider than a Python float is not rounded to one.
    third = Layout((Placement(0, 0, np.longdouble(1) / 3, 1),))
    with pytest.raises(ValueError, match="^expected a rational number, got "):
        serialize_layout(third)


def test_whole_longdouble_serializes_as_an_int():
    layout = Layout((Placement(0, 0, np.longdouble(3.0), 1),))
    text = serialize_layout(layout)
    assert text == '{"placements": [[0, 0, 3, 1]]}'
    assert parse_layout(text) == layout


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"rects": [[1, 1]]}',
        '{"box": [1], "rects": []}',
        '{"box": [1, 1], "rects": [[1, 1, 1]]}',
        '{"box": [1, 1], "rects": [[1, true]]}',
        '{"box": [1, 1], "rects": [["1/0", 1]]}',
        '{"box": [1, 1], "rects": [], "rotation": 1}',
    ],
)
def test_parse_instance_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_instance(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"box": [2, 1], "rects": [[1, 1], [0, 1]]}', "rect 2: sides must be positive, got 0 x 1"),
        ('{"box": [2, 1], "rects": [[1, 1], [1, true]]}', "rect 2 height: expected a number"),
        ('{"box": [2, 1], "rects": [[1, 1], [1]]}', "rect 2: expected a [width, height] pair"),
        ('{"box": [2, -1], "rects": [[1, 1]]}', "box: sides must be positive, got 2 x -1"),
        ('{"box": ["1/0", 1], "rects": [[1, 1]]}', "box width: bad rational string"),
        ('{"rects": [[1, 1]]}', "box: expected a [width, height] pair"),
        ('{"box": [2, 1], "rects": [[1, 1], [NaN, 1]]}', "rect 2 width must be finite, got nan"),
        (
            '{"box": [2, 1], "rects": [[1, 1], [1, null]]}',
            "rect 2 height: expected a number or 'p/q' string, got None",
        ),
        ('{"box": [NaN, 1], "rects": [[1, 1]]}', "box width must be finite, got nan"),
        (
            '{"box": [null, 1], "rects": [[1, 1]]}',
            "box width: expected a number or 'p/q' string, got None",
        ),
        # Every number, then the rotation flag, then the signs of the sides.
        ('{"box": [2, 1], "rects": [[0, 1], [1, NaN]]}', "rect 2 height must be finite, got nan"),
        (
            '{"box": [2, 1], "rects": [[0, 1], [1, 1]], "rotation": 1}',
            'instance "rotation" must be true or false',
        ),
        ('{"box": [0, 1], "rects": [[NaN, 1]]}', "box: sides must be positive, got 0 x 1"),
        ('{"box": [1, 1], "rects": {}}', 'instance "rects" must be a list of [w, h] pairs'),
    ],
)
def test_parse_instance_errors_name_the_rect_or_the_box(text, message):
    with pytest.raises(ValueError) as info:
        parse_instance(text)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"placements": [[0, 0, 1]]}',
        '{"placements": [[1, 0, 0, 1]]}',
        '{"placements": 3}',
    ],
)
def test_parse_layout_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_layout(text)


@pytest.mark.parametrize(
    "quads, message",
    [
        ("[0, 0, 1, 1], [0, 0, true, 1]", "placement 2: expected a number, got True"),
        ("[0, 0, 1, 1], [0, 0, null, 1]", "placement 2: expected a number or 'p/q' string, got None"),
        ("[0, 0, 1, 1], [0, 0, NaN, 1]", "placement 2 must be finite, got nan"),
        ("[0, 0, 1, 1], [0, 0, Infinity, 1]", "placement 2 must be finite, got inf"),
        ("[0, 0, 1, 1], [0, 0, -Infinity, 1]", "placement 2 must be finite, got -inf"),
        ('[0, 0, 1, 1], [0, 0, "1/0", 1]', "placement 2: bad rational string '1/0'"),
        ("[0, 0, 1, 1], [0, 0, [1], 1]", "placement 2: expected a number or 'p/q' string, got [1]"),
        # Placement 1's corner order fails before placement 2's NaN is read.
        ("[1, 0, 0, 1], [0, 0, NaN, 1]", "placement corners out of order: (1, 0, 0, 1)"),
        ("[NaN, 0, 1, 1], [0, 0, 1]", "placement 1 must be finite, got nan"),
        ("[0, 0, 1], [NaN, 0, 1, 1]", "placement 1: expected [x_lo, y_lo, x_hi, y_hi], got [0, 0, 1]"),
        # Within one placement, its numbers come before its corner order.
        ("[0, 0, 1, 1], [1, 0, 0, NaN]", "placement 2 must be finite, got nan"),
        (
            '["1/3", 0, "1/4", 1]',
            "placement corners out of order: (Fraction(1, 3), 0, Fraction(1, 4), 1)",
        ),
    ],
)
def test_parse_layout_error_texts(quads, message):
    with pytest.raises(ValueError) as info:
        parse_layout('{"placements": [%s]}' % quads)
    assert str(info.value) == message


def test_integers_too_large_for_a_float_parse():
    big = 10**400
    layout = parse_layout('{"placements": [[0, 0, %d, 1]]}' % big)
    assert layout.placements[0].as_tuple() == (0, 0, big, 1)
    inst = parse_instance('{"box": [%d, 1], "rects": [[%d, 1]]}' % (big, big))
    assert (inst.box.width, inst.rects[0].width) == (big, big)


# -- Harmonic family prefix ---------------------------------------------------


def test_harmonic_prefix_sides_are_exact():
    inst = harmonic_prefix(3)
    assert inst.box == BoxSpec(1, 1)
    sides = [(r.width, r.height) for r in inst.rects]
    assert sides == [
        (Fraction(1, 1), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1, 4)),
    ]


def test_harmonic_prefix_area_telescopes():
    # sum 1/(n(n+1)) = 1 - 1/(N+1), checked against a direct exact sum.
    inst = harmonic_prefix(100)
    direct = sum(Fraction(1, n * (n + 1)) for n in range(1, 101))
    assert inst.area_sum == direct == 1 - Fraction(1, 101)
    assert not area_can_pass(inst)  # a gap of 1/101 of the box: no layout can pass


def test_harmonic_prefix_rejects_zero():
    with pytest.raises(ValueError):
        harmonic_prefix(0)


# -- Guillotine generator -----------------------------------------------------


def test_gen_guillotine_deterministic_per_seed():
    box = BoxSpec(10.0, 7.0)
    a = gen_guillotine(3, 6, box)
    b = gen_guillotine(3, 6, box)
    assert serialize_instance(a[0]) == serialize_instance(b[0])
    assert serialize_layout(a[1]) == serialize_layout(b[1])
    c = gen_guillotine(4, 6, box)
    assert serialize_layout(a[1]) != serialize_layout(c[1])


def test_gen_guillotine_rejects_negative_cuts():
    with pytest.raises(ValueError, match="n_cuts must be >= 0"):
        gen_guillotine(0, -1, BoxSpec(1, 1))
    # and a negative seed, which random.Random would read as its absolute value
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        gen_guillotine(-1, 3, BoxSpec(1, 1))


def test_box_is_a_rect_spec():
    assert BoxSpec is RectSpec
    assert [f.name for f in dataclasses.fields(RectSpec)] == ["width", "height"]
    assert Instance.from_sides([(1, 2)], BoxSpec(1, 2)).rects == (RectSpec(1, 2),)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n_cuts=st.integers(0, 12))
def test_gen_guillotine_tiles_the_box(seed, n_cuts):
    box = BoxSpec(6.0, 4.0)
    inst, layout = gen_guillotine(seed, n_cuts, box)
    assert inst.n_rects == len(layout.placements) == n_cuts + 1
    report = verify_layout(inst, layout)
    assert report.passed, report
    # sides match the recorded placements exactly and avoid slivers
    min_side = min(float(box.width), float(box.height)) * 0.2**n_cuts
    for rect, p in zip(inst.rects, layout.placements):
        assert rect.width == p.dx and rect.height == p.dy
        assert min(rect.width, rect.height) >= min_side - 1e-12


def _guillotine_by_linear_scan(seed, n_cuts, box):
    """gen_guillotine as it was before running area sums: every cut sums
    all leaf areas afresh and scans the leaves in order for the pick."""
    rng = random.Random(seed)
    leaves = [(0.0, 0.0, float(box.width), float(box.height))]
    for _ in range(n_cuts):
        total = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in leaves)
        pick = rng.random() * total
        acc = 0.0
        idx = len(leaves) - 1
        for i, (x0, y0, x1, y1) in enumerate(leaves):
            acc += (x1 - x0) * (y1 - y0)
            if pick <= acc:
                idx = i
                break
        x0, y0, x1, y1 = leaves.pop(idx)
        frac = rng.uniform(CUT_FRACTION_LO, CUT_FRACTION_HI)
        if (x1 - x0) >= (y1 - y0):
            xc = x0 + frac * (x1 - x0)
            leaves[idx:idx] = [(x0, y0, xc, y1), (xc, y0, x1, y1)]
        else:
            yc = y0 + frac * (y1 - y0)
            leaves[idx:idx] = [(x0, y0, x1, yc), (x0, yc, x1, y1)]
    sides = [(x1 - x0, y1 - y0) for x0, y0, x1, y1 in leaves]
    layout = Layout(tuple(Placement(*leaf) for leaf in leaves))
    return Instance.from_sides(sides, box), layout


def _documents(inst, layout):
    return serialize_instance(inst), serialize_layout(layout)


# Both benchmark workloads and the guillotine corpora draw their inputs from
# gen_guillotine, so its output is pinned to the last bit of every float.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_cuts=st.integers(0, 80),
    box=st.sampled_from(
        [BoxSpec(10, 8), BoxSpec(40000, 30000), BoxSpec(1.7, 0.3), BoxSpec(Fraction(7, 3), 5)]
    ),
)
def test_gen_guillotine_matches_the_linear_scan(seed, n_cuts, box):
    expected = _documents(*_guillotine_by_linear_scan(seed, n_cuts, box))
    assert _documents(*gen_guillotine(seed, n_cuts, box)) == expected


@pytest.mark.parametrize(
    "seed, n_cuts, box, digest",
    [
        (
            0,
            999,
            BoxSpec(40000, 30000),
            "9f07b959ff1fb77ca1931d063cc459f9a97d9a829cc4b42b70ea24327f9b3115",
        ),
        (7, 5, BoxSpec(10, 8), "02d702e92d6864123208fb534100cb571c56eea2760e30e6bbd78c83954395f9"),
        (
            123,
            19,
            BoxSpec(10, 8),
            "c680e2ddc7fd25395eed63ddc6ecb499e04e012cdf18a665da076e39dd237ad2",
        ),
    ],
)
def test_gen_guillotine_golden_digests(seed, n_cuts, box, digest):
    text = "".join(_documents(*gen_guillotine(seed, n_cuts, box)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- Squared rectangle fixture ------------------------------------------------


def test_squared_rectangle_is_a_perfect_packing():
    inst, layout = squared_rectangle_32x33()
    sides = sorted(int(r.width) for r in inst.rects)
    assert sides == [1, 4, 7, 8, 9, 10, 14, 15, 18]
    assert all(r.width == r.height for r in inst.rects)
    assert sum(s * s for s in sides) == 32 * 33
    assert verify_exact(inst, layout)


def test_squared_rectangle_roundtrips(squared32):
    inst, layout = squared32
    assert parse_instance(serialize_instance(inst)) == inst
    assert parse_layout(serialize_layout(layout)) == layout
