"""Exhaustive packing oracle: frozen canonical witnesses, family enumeration
counts cross-checked against an independent multiset counter, and exact
verification of every witness."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpack import (
    BoxSpec,
    Instance,
    enumerate_small_family,
    oracle_feasible,
    verify_exact,
)
from momentpack.oracle import CELL_BUDGET


def count_multisets(box_area: int, max_side: int) -> int:
    """Independent count of shape multisets (w <= h <= max_side) with total
    area equal to box_area, via memoized recursion over a fixed shape order."""
    shapes = [
        (w, h) for w in range(1, max_side + 1) for h in range(w, max_side + 1)
    ]

    @lru_cache(maxsize=None)
    def ways(start: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for idx in range(start, len(shapes)):
            w, h = shapes[idx]
            if w * h <= remaining:
                total += ways(idx, remaining - w * h)
        return total

    return ways(0, box_area)


# -- Canonical witnesses ------------------------------------------------------


def test_two_dominoes_witness_frozen():
    inst = Instance.from_sides([(1, 2), (1, 2)], BoxSpec(2, 2))
    ok, witness = oracle_feasible(inst)
    assert ok
    assert [p.as_tuple() for p in witness.placements] == [
        (0, 0, 1, 2),
        (1, 0, 2, 2),
    ]
    assert verify_exact(inst, witness)


def test_three_dominoes_need_rotation():
    sides = [(1, 2)] * 3
    ok_rot, witness = oracle_feasible(
        Instance.from_sides(sides, BoxSpec(2, 3), rotation_allowed=True)
    )
    assert ok_rot
    assert [p.as_tuple() for p in witness.placements] == [
        (0, 0, 1, 2),
        (1, 0, 2, 2),
        (0, 2, 2, 3),
    ]
    ok_fixed, none = oracle_feasible(
        Instance.from_sides(sides, BoxSpec(2, 3), rotation_allowed=False)
    )
    assert not ok_fixed
    assert none is None


def test_area_mismatch_is_infeasible():
    ok, witness = oracle_feasible(Instance.from_sides([(1, 1)], BoxSpec(2, 2)))
    assert (ok, witness) == (False, None)


def test_exact_area_but_unpackable():
    ok, witness = oracle_feasible(
        Instance.from_sides([(1, 1), (1, 3)], BoxSpec(2, 2))
    )
    assert (ok, witness) == (False, None)


def test_witness_positions_follow_rect_order():
    # witness.placements[i] belongs to rects[i], up to a 90-degree rotation
    inst = Instance.from_sides([(2, 2), (1, 2), (1, 2)], BoxSpec(4, 2))
    ok, witness = oracle_feasible(inst)
    assert ok
    for rect, p in zip(inst.rects, witness.placements):
        assert p.dx * p.dy == rect.width * rect.height
        assert p.dx + p.dy == rect.width + rect.height


def test_witness_is_deterministic():
    inst = Instance.from_sides([(1, 1), (1, 2), (1, 1)], BoxSpec(2, 2))
    assert oracle_feasible(inst) == oracle_feasible(inst)


# -- Input validation ---------------------------------------------------------


def test_oracle_rejects_fractional_sides():
    with pytest.raises(ValueError, match="integer"):
        oracle_feasible(Instance.from_sides([(Fraction(1, 2), 1)], BoxSpec(1, 1)))
    with pytest.raises(ValueError, match="integer"):
        oracle_feasible(Instance.from_sides([(1.5, 1)], BoxSpec(2, 2)))


def test_oracle_accepts_integer_valued_floats():
    ok, _ = oracle_feasible(Instance.from_sides([(2.0, 2.0)], BoxSpec(2, 2)))
    assert ok


@pytest.mark.parametrize(
    "sides, box, message",
    [
        ([(1.5, 2)], (2, 2), "rect 1 width must be a positive integer, got 1.5"),
        ([(2, Fraction(3, 2))], (2, 2), "rect 1 height must be a positive integer, got Fraction(3, 2)"),
        ([(1, 2), (Decimal(2), 1)], (2, 2), "rect 2 width must be a positive integer, got Decimal('2')"),
        ([(1, 2)], (1.5, 2), "box width must be a positive integer, got 1.5"),
        ([(1, 1)], (5, 13), f"cell budget exceeded: 5x13 box has more than {CELL_BUDGET} cells"),
    ],
)
def test_oracle_error_texts(sides, box, message):
    with pytest.raises(ValueError) as info:
        oracle_feasible(Instance.from_sides(sides, BoxSpec(*box)))
    assert str(info.value) == message


def test_oracle_cell_budget():
    with pytest.raises(ValueError, match="budget"):
        oracle_feasible(Instance.from_sides([(1, 1)] * 72, BoxSpec(9, 8)))
    ok, _ = oracle_feasible(Instance.from_sides([(1, 1)] * 64, BoxSpec(8, 8)))
    assert ok


# -- Family enumeration -------------------------------------------------------


def test_family_counts_match_independent_counter():
    for max_box, max_side in [(2, 2), (3, 3), (4, 4), (3, 4)]:
        got = sum(1 for _ in enumerate_small_family(max_box, max_side))
        want = sum(
            count_multisets(a * b, max_side)
            for a in range(1, max_box + 1)
            for b in range(a, max_box + 1)
        )
        assert got == want


def test_family_counts_frozen():
    assert sum(1 for _ in enumerate_small_family(1, 1)) == 1
    assert sum(1 for _ in enumerate_small_family(2, 2)) == 7
    assert sum(1 for _ in enumerate_small_family(3, 3)) == 43
    assert sum(1 for _ in enumerate_small_family(4, 4)) == 366


def test_family_2x2_box_content_frozen():
    fam = [
        inst
        for inst in enumerate_small_family(2, 4)
        if (inst.box.width, inst.box.height) == (2, 2)
    ]
    multisets = [[(r.width, r.height) for r in inst.rects] for inst in fam]
    assert multisets == [
        [(1, 1), (1, 1), (1, 1), (1, 1)],
        [(1, 1), (1, 1), (1, 2)],
        [(1, 1), (1, 3)],
        [(1, 2), (1, 2)],
        [(1, 4)],
        [(2, 2)],
    ]
    feasibility = [oracle_feasible(inst)[0] for inst in fam]
    assert feasibility == [True, True, False, True, False, True]


def test_family_instances_are_area_exact_and_rotatable():
    for inst in enumerate_small_family(3, 3):
        assert inst.rotation_allowed
        assert inst.area_sum == inst.box.area
        assert all(r.width <= r.height for r in inst.rects)


def test_family_witnesses_pass_exact_verification():
    feasible = 0
    for inst in enumerate_small_family(3, 3):
        ok, witness = oracle_feasible(inst)
        if ok:
            feasible += 1
            assert verify_exact(inst, witness)
    assert feasible == 41


FAMILY = list(enumerate_small_family())


@settings(max_examples=100, deadline=None)
@given(
    pick=st.integers(0, len(FAMILY) - 1),
    rotation=st.booleans(),
    data=st.data(),
)
def test_witness_of_numpy_sides_passes_exact_verification(pick, rotation, data):
    # Each side is drawn, on its own, as an int, a whole float, a whole
    # Fraction or a numpy integer: the decision and the witness are those
    # of the int instance, and the witness passes verify_exact against the
    # instance as given.
    inst = FAMILY[pick]
    kinds = st.sampled_from([int, float, Fraction, np.int64, np.int32])
    sides = [(data.draw(kinds)(r.width), data.draw(kinds)(r.height)) for r in inst.rects]
    box = BoxSpec(data.draw(kinds)(inst.box.width), data.draw(kinds)(inst.box.height))
    plain = Instance.from_sides([(r.width, r.height) for r in inst.rects], inst.box, rotation)
    mixed = Instance.from_sides(sides, box, rotation)
    ok, witness = oracle_feasible(mixed)
    assert (ok, witness) == oracle_feasible(plain)
    if ok:
        assert all(type(v) is int for p in witness.placements for v in p.as_tuple())
        assert verify_exact(mixed, witness)


def test_family_bounds_validation():
    with pytest.raises(ValueError):
        list(enumerate_small_family(0, 4))
    with pytest.raises(ValueError):
        list(enumerate_small_family(4, 5))
