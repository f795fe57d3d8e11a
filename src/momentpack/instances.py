"""Domain types and fixture generators for rectangle packing problems.

An instance is a multiset of axis-aligned rectangles plus a target box; a
layout assigns each rectangle its corner coordinates.  Numeric fields may be
ints, floats, or fractions.Fraction: exact rational inputs (ints, or "p/q"
strings in JSON) survive parsing untouched so the exact verifier can reason
about them without rounding.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

# Non-exact instances are "near" when the area gap stays below this fraction
# of the box area, "infeasible" beyond it.
NEAR_GAP_FRACTION = 0.1

# Guillotine cuts stay inside this fraction band of the split side so no
# near-degenerate sliver rectangles appear.
CUT_FRACTION_LO = 0.2
CUT_FRACTION_HI = 0.8

__all__ = [
    "Number",
    "RectSpec",
    "BoxSpec",
    "Instance",
    "Placement",
    "Layout",
    "AreaVerdict",
    "parse_instance",
    "serialize_instance",
    "parse_layout",
    "serialize_layout",
    "check_area",
    "harmonic_prefix",
    "gen_guillotine",
    "squared_rectangle_32x33",
]


def _check_finite(value: Number, what: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")


def _num_from_json(value: object, what: str) -> Number:
    """Decode one JSON value: plain numbers pass through, strings are exact
    rationals ("p/q" or a bare integer literal)."""
    if isinstance(value, bool):
        raise ValueError(f"{what}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        _check_finite(value, what)
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{what}: bad rational string {value!r}") from exc
    raise ValueError(f"{what}: expected a number or 'p/q' string, got {value!r}")


def _num_to_json(value: Number) -> object:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


@dataclass(frozen=True)
class RectSpec:
    """One rectangle of the multiset; id is its 1-based position."""

    width: Number
    height: Number
    id: int

    def __post_init__(self) -> None:
        _check_finite(self.width, "rect width")
        _check_finite(self.height, "rect height")
        if not (self.width > 0 and self.height > 0):
            raise ValueError(
                f"rect {self.id}: sides must be positive, got "
                f"{self.width!r} x {self.height!r}"
            )
        if not isinstance(self.id, int) or self.id < 1:
            raise ValueError(f"rect id must be a positive integer, got {self.id!r}")

    @property
    def area(self) -> Number:
        return self.width * self.height


@dataclass(frozen=True)
class BoxSpec:
    """Target box with corner at the origin."""

    width: Number
    height: Number

    def __post_init__(self) -> None:
        _check_finite(self.width, "box width")
        _check_finite(self.height, "box height")
        if not (self.width > 0 and self.height > 0):
            raise ValueError(
                f"box sides must be positive, got {self.width!r} x {self.height!r}"
            )

    @property
    def area(self) -> Number:
        return self.width * self.height


@dataclass(frozen=True)
class Instance:
    rects: tuple[RectSpec, ...]
    box: BoxSpec
    rotation_allowed: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "rects", tuple(self.rects))
        for pos, rect in enumerate(self.rects, start=1):
            if rect.id != pos:
                raise ValueError(
                    f"rect ids must be contiguous from 1; position {pos} has id {rect.id}"
                )
        if not isinstance(self.rotation_allowed, bool):
            raise ValueError("rotation_allowed must be a bool")

    @classmethod
    def from_sides(
        cls,
        sides: list[tuple[Number, Number]],
        box: BoxSpec,
        rotation_allowed: bool = True,
    ) -> "Instance":
        rects = tuple(RectSpec(w, h, i + 1) for i, (w, h) in enumerate(sides))
        return cls(rects, box, rotation_allowed)

    @property
    def n_rects(self) -> int:
        return len(self.rects)

    @property
    def area_sum(self) -> Number:
        return sum(r.area for r in self.rects)


@dataclass(frozen=True)
class Placement:
    """Axis-aligned placement: lower-left corner (x_lo, y_lo), upper-right
    (x_hi, y_hi)."""

    x_lo: Number
    y_lo: Number
    x_hi: Number
    y_hi: Number

    def __post_init__(self) -> None:
        for name in ("x_lo", "y_lo", "x_hi", "y_hi"):
            _check_finite(getattr(self, name), name)
        if self.x_hi < self.x_lo or self.y_hi < self.y_lo:
            raise ValueError(
                f"placement corners out of order: {self.as_tuple()!r}"
            )

    def as_tuple(self) -> tuple[Number, Number, Number, Number]:
        return (self.x_lo, self.y_lo, self.x_hi, self.y_hi)

    @property
    def dx(self) -> Number:
        return self.x_hi - self.x_lo

    @property
    def dy(self) -> Number:
        return self.y_hi - self.y_lo

    @property
    def cx(self) -> Number:
        return (self.x_lo + self.x_hi) / 2

    @property
    def cy(self) -> Number:
        return (self.y_lo + self.y_hi) / 2

    @property
    def area(self) -> Number:
        return self.dx * self.dy


@dataclass(frozen=True)
class Layout:
    placements: tuple[Placement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "placements", tuple(self.placements))

    def __len__(self) -> int:
        return len(self.placements)


def _check_placement_count(inst: Instance, layout: Layout) -> None:
    """Raise ValueError unless the layout places each rectangle once."""
    n = len(layout.placements)
    if n != inst.n_rects:
        raise ValueError(f"layout has {n} placements, instance has {inst.n_rects}")


# -- JSON wire formats ------------------------------------------------------
#
# Instance: {"box": [A, B], "rects": [[w, h], ...], "rotation": true|false}
# Layout:   {"placements": [[x_lo, y_lo, x_hi, y_hi], ...]}


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    box_raw = doc.get("box")
    if not isinstance(box_raw, list) or len(box_raw) != 2:
        raise ValueError('instance "box" must be a [width, height] pair')
    box = BoxSpec(
        _num_from_json(box_raw[0], "box width"),
        _num_from_json(box_raw[1], "box height"),
    )
    rects_raw = doc.get("rects")
    if not isinstance(rects_raw, list):
        raise ValueError('instance "rects" must be a list of [w, h] pairs')
    rects = []
    for i, pair in enumerate(rects_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"rect {i + 1}: expected a [w, h] pair, got {pair!r}")
        rects.append(
            RectSpec(
                _num_from_json(pair[0], f"rect {i + 1} width"),
                _num_from_json(pair[1], f"rect {i + 1} height"),
                i + 1,
            )
        )
    rotation = doc.get("rotation", True)
    if not isinstance(rotation, bool):
        raise ValueError('instance "rotation" must be true or false')
    return Instance(tuple(rects), box, rotation)


def serialize_instance(inst: Instance) -> str:
    doc = {
        "box": [_num_to_json(inst.box.width), _num_to_json(inst.box.height)],
        "rects": [[_num_to_json(r.width), _num_to_json(r.height)] for r in inst.rects],
        "rotation": inst.rotation_allowed,
    }
    return json.dumps(doc)


def parse_layout(text: str) -> Layout:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed layout document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("layout document must be a JSON object")
    raw = doc.get("placements")
    if not isinstance(raw, list):
        raise ValueError('layout "placements" must be a list of 4-tuples')
    placements = []
    for i, quad in enumerate(raw):
        if not isinstance(quad, list) or len(quad) != 4:
            raise ValueError(
                f"placement {i + 1}: expected [x_lo, y_lo, x_hi, y_hi], got {quad!r}"
            )
        nums = [_num_from_json(v, f"placement {i + 1}") for v in quad]
        placements.append(Placement(*nums))
    return Layout(tuple(placements))


def serialize_layout(layout: Layout) -> str:
    doc = {
        "placements": [
            [_num_to_json(v) for v in p.as_tuple()] for p in layout.placements
        ]
    }
    return json.dumps(doc)


# -- Area feasibility gate ---------------------------------------------------


@dataclass(frozen=True)
class AreaVerdict:
    """kind is "exact", "near", or "infeasible"; delta = rect area sum minus
    box area (signed)."""

    kind: str
    delta: Number
    tol: float


def check_area(inst: Instance, tol_area: float | None = None) -> AreaVerdict:
    """Compare total rectangle area against the box area.

    A perfect packing needs |delta| <= tol_area (default 1e-9 * box area).
    Larger gaps are classified "near" while below NEAR_GAP_FRACTION of the
    box area (e.g. a truncated prefix of an infinite family), "infeasible"
    beyond that.
    """
    box_area = inst.box.area
    if tol_area is None:
        tol_area = 1e-9 * float(box_area)
    delta = inst.area_sum - box_area
    gap = abs(delta)
    if gap <= tol_area:
        kind = "exact"
    elif gap <= NEAR_GAP_FRACTION * float(box_area):
        kind = "near"
    else:
        kind = "infeasible"
    return AreaVerdict(kind, delta, float(tol_area))


# -- Fixture generators ------------------------------------------------------


def harmonic_prefix(n_rects: int) -> Instance:
    """First n_rects rectangles (1/n, 1/(n+1)) of the harmonic family in the
    unit box, rotation allowed.  Sides are exact Fractions; the covered area
    telescopes to 1 - 1/(n_rects+1)."""
    if n_rects < 1:
        raise ValueError(f"n_rects must be >= 1, got {n_rects}")
    rects = tuple(
        RectSpec(Fraction(1, n), Fraction(1, n + 1), n) for n in range(1, n_rects + 1)
    )
    return Instance(rects, BoxSpec(1, 1), rotation_allowed=True)


def gen_guillotine(seed: int, n_cuts: int, box: BoxSpec) -> tuple[Instance, Layout]:
    """Random guillotine dissection of the box into n_cuts+1 rectangles.

    Repeatedly picks a leaf (area-weighted), splits its longer side at a
    fraction drawn uniformly from [CUT_FRACTION_LO, CUT_FRACTION_HI], and
    replaces it by the two halves.  The returned layout tiles the box by
    construction and is deterministic per seed.
    """
    if n_cuts < 0:
        raise ValueError(f"n_cuts must be >= 0, got {n_cuts}")
    rng = random.Random(seed)
    leaves: list[tuple[float, float, float, float]] = [
        (0.0, 0.0, float(box.width), float(box.height))
    ]
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
    rects = tuple(
        RectSpec(x1 - x0, y1 - y0, i + 1) for i, (x0, y0, x1, y1) in enumerate(leaves)
    )
    placements = tuple(Placement(x0, y0, x1, y1) for x0, y0, x1, y1 in leaves)
    return Instance(rects, box, rotation_allowed=True), Layout(placements)


def squared_rectangle_32x33() -> tuple[Instance, Layout]:
    """The nine-square perfect dissection of a 32 x 33 box (squares with
    sides 1, 4, 7, 8, 9, 10, 14, 15, 18), with exact integer coordinates."""
    squares = [
        (18, 0, 0),
        (15, 0, 18),
        (14, 18, 0),
        (10, 22, 14),
        (9, 23, 24),
        (8, 15, 25),
        (7, 15, 18),
        (4, 18, 14),
        (1, 22, 24),
    ]
    rects = tuple(RectSpec(s, s, i + 1) for i, (s, _, _) in enumerate(squares))
    placements = tuple(Placement(x, y, x + s, y + s) for s, x, y in squares)
    inst = Instance(rects, BoxSpec(32, 33), rotation_allowed=True)
    return inst, Layout(placements)
