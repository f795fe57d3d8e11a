"""Domain types and fixture generators for rectangle packing problems.

An instance is a multiset of axis-aligned rectangles plus a target box; a
layout assigns each rectangle its corner coordinates.  Every rectangle and
the box is a RectSpec, a bare width x height (BoxSpec is another name for
it); a rectangle is named by its 1-based position in the instance, as in
verifier reports and error messages.  A numeric field is a finite
numbers.Real other than a bool (an int, a float of any width, a Fraction);
exact rational inputs (ints, or "p/q" strings in JSON) survive parsing
untouched so the exact verifier can reason about them without rounding.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

Number = Union[int, float, Fraction]


def _exact(value: object) -> int | Fraction:
    """The package's one test of an exact number: a numbers.Rational (an
    int, a Fraction, a numpy integer) or a whole float of any width becomes
    a Python int when whole, else a Fraction, never a numpy integer, which
    wraps silently.  Anything else raises; the caller names its place."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Rational):
        p, q = int(value.numerator), int(value.denominator)
        return p if q == 1 else Fraction(p, q)
    if isinstance(value, (float, np.floating)) and value.is_integer():
        return int(value)
    if isinstance(value, float):
        raise ValueError(f"non-rational input {value!r}; use ints or 'p/q' strings")
    raise ValueError(f"expected a rational number, got {value!r}")


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
    "parse_instance",
    "serialize_instance",
    "parse_layout",
    "serialize_layout",
    "harmonic_prefix",
    "gen_guillotine",
    "squared_rectangle_32x33",
]


def _check_finite(value: Number, what: str) -> None:
    """Reject a bool, a non-real (a string, None, a numpy bool, a Decimal,
    a complex) and a non-finite float; ints and finite floats pass by type."""
    if type(value) is int or type(value) is float and -math.inf < value < math.inf:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what}: expected a number, got {value!r}")
    if not isinstance(value, numbers.Rational) and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")


def _num_from_json(value: object, what: str) -> Number:
    """Decode one JSON value: plain numbers pass through, strings are exact
    rationals ("p/q" or a bare integer literal)."""
    if isinstance(value, (int, float)):
        _check_finite(value, what)
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{what}: bad rational string {value!r}") from exc
    raise ValueError(f"{what}: expected a number or 'p/q' string, got {value!r}")


def _plain_rows(rows: list, width: int) -> bool:
    """Whether rows holds only lists of width finite ints and floats, which
    _num_from_json would pass through unchanged: no bool, NaN, infinity,
    string or other value.  Ints of any size pass by type; only floats are
    tested against +-inf, so 10**400 is never converted."""
    return all(isinstance(row, list) and len(row) == width for row in rows) and all(
        type(v) is int or type(v) is float and -math.inf < v < math.inf
        for v in itertools.chain.from_iterable(rows)
    )


def _num_to_json(value: Number) -> object:
    """A float, numpy's float16 and float32 too, as the Python float of its
    value, which holds it exactly; any other number as an int or a "p/q"
    string."""
    if isinstance(value, (float, np.float16, np.float32)):
        return float(value)
    q = _exact(value)
    return q if type(q) is int else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class RectSpec:
    """A width x height rectangle: one of an instance's rectangles, named by
    its 1-based position, or the box, whose lower-left corner is the origin."""

    width: Number
    height: Number

    def __post_init__(self) -> None:
        _check_finite(self.width, "width")
        _check_finite(self.height, "height")
        if not (self.width > 0 and self.height > 0):
            raise ValueError(f"sides must be positive, got {self.width!r} x {self.height!r}")

    @property
    def area(self) -> Number:
        return self.width * self.height


BoxSpec = RectSpec


def _named_spec(width: Number, height: Number, what: str) -> RectSpec:
    """RectSpec(width, height), with what (box or rect i) leading any error."""
    try:
        return RectSpec(width, height)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


@dataclass(frozen=True)
class Instance:
    rects: tuple[RectSpec, ...]
    box: BoxSpec
    rotation_allowed: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "rects", tuple(self.rects))
        if not isinstance(self.rotation_allowed, bool):
            raise ValueError("rotation_allowed must be a bool")

    @classmethod
    def from_sides(
        cls,
        sides: list[tuple[Number, Number]],
        box: BoxSpec,
        rotation_allowed: bool = True,
    ) -> "Instance":
        rects = tuple(_named_spec(w, h, f"rect {i}") for i, (w, h) in enumerate(sides, start=1))
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
        _check_finite(self.x_lo, "x_lo")
        _check_finite(self.y_lo, "y_lo")
        _check_finite(self.x_hi, "x_hi")
        _check_finite(self.y_hi, "y_hi")
        try:
            out_of_order = self.x_hi < self.x_lo or self.y_hi < self.y_lo
        except TypeError:  # numpy's longdouble does not compare with a Fraction
            x_lo, y_lo, x_hi, y_hi = map(_exact, self.as_tuple())
            out_of_order = x_hi < x_lo or y_hi < y_lo
        if out_of_order:
            raise ValueError(f"placement corners out of order: {self.as_tuple()!r}")

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


def _pair_from_json(pair: object, what: str) -> tuple[Number, Number]:
    """Decode a [width, height] pair; every error names what (box or rect i)."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"{what}: expected a [width, height] pair, got {pair!r}")
    return _num_from_json(pair[0], f"{what} width"), _num_from_json(pair[1], f"{what} height")


def _quad_from_json(quad: object, i: int) -> list[Number]:
    """Decode placement i's [x_lo, y_lo, x_hi, y_hi]."""
    if not isinstance(quad, list) or len(quad) != 4:
        raise ValueError(f"placement {i}: expected [x_lo, y_lo, x_hi, y_hi], got {quad!r}")
    what = f"placement {i}"
    return [_num_from_json(v, what) for v in quad]


def _load_object(text: str, kind: str) -> dict:
    """The JSON object in text, or a ValueError naming kind (instance or
    layout); a document nested too deep to decode is malformed too."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} document must be a JSON object")
    return doc


def parse_instance(text: str) -> Instance:
    doc = _load_object(text, "instance")
    box = _named_spec(*_pair_from_json(doc.get("box"), "box"), "box")
    rects_raw = doc.get("rects")
    if not isinstance(rects_raw, list):
        raise ValueError('instance "rects" must be a list of [w, h] pairs')
    sides = rects_raw
    if not _plain_rows(rects_raw, 2):  # decode in order: the first bad number raises
        sides = [_pair_from_json(pair, f"rect {i}") for i, pair in enumerate(rects_raw, start=1)]
    rotation = doc.get("rotation", True)
    if not isinstance(rotation, bool):
        raise ValueError('instance "rotation" must be true or false')
    return Instance.from_sides(sides, box, rotation)


def serialize_instance(inst: Instance) -> str:
    doc = {
        "box": [_num_to_json(inst.box.width), _num_to_json(inst.box.height)],
        "rects": [[_num_to_json(r.width), _num_to_json(r.height)] for r in inst.rects],
        "rotation": inst.rotation_allowed,
    }
    return json.dumps(doc)


def parse_layout(text: str) -> Layout:
    raw = _load_object(text, "layout").get("placements")
    if not isinstance(raw, list):
        raise ValueError('layout "placements" must be a list of 4-tuples')
    quads = raw
    if not _plain_rows(raw, 4):  # decode lazily, in order: the first bad placement raises
        quads = (_quad_from_json(quad, i) for i, quad in enumerate(raw, start=1))
    return Layout(tuple(Placement(*quad) for quad in quads))


def _layout_doc(layout: Layout) -> dict:
    """The layout as a JSON-ready dict, the one encoding of placements."""
    return {"placements": [[_num_to_json(v) for v in p.as_tuple()] for p in layout.placements]}


def serialize_layout(layout: Layout) -> str:
    return json.dumps(_layout_doc(layout))


# -- Fixture generators ------------------------------------------------------


def harmonic_prefix(n_rects: int) -> Instance:
    """First n_rects rectangles (1/n, 1/(n+1)) of the harmonic family in the
    unit box, rotation allowed.  Sides are exact Fractions; the covered area
    telescopes to 1 - 1/(n_rects+1)."""
    if n_rects < 1:
        raise ValueError(f"n_rects must be >= 1, got {n_rects}")
    sides = [(Fraction(1, n), Fraction(1, n + 1)) for n in range(1, n_rects + 1)]
    return Instance.from_sides(sides, BoxSpec(1, 1))


def gen_guillotine(seed: int, n_cuts: int, box: BoxSpec) -> tuple[Instance, Layout]:
    """Random guillotine dissection of the box into n_cuts+1 rectangles.

    Repeatedly picks a leaf (area-weighted), splits its longer side at a
    fraction drawn uniformly from [CUT_FRACTION_LO, CUT_FRACTION_HI], and
    replaces it by the two halves.  The returned layout tiles the box by
    construction and is deterministic per seed, which must be >= 0.
    """
    if n_cuts < 0:
        raise ValueError(f"n_cuts must be >= 0, got {n_cuts}")
    if seed < 0:  # random.Random would seed with abs(seed)
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    leaves: list[tuple[float, float, float, float]] = [
        (0.0, 0.0, float(box.width), float(box.height))
    ]
    areas = [float(box.width) * float(box.height)]
    acc = [0.0, areas[0]]  # acc[i]: area of leaves[:i], added left to right
    for _ in range(n_cuts):
        # The first leaf whose running sum reaches the pick, else the last.
        pick = rng.random() * acc[-1]
        idx = min(bisect.bisect_left(acc, pick, 1), len(leaves)) - 1
        x0, y0, x1, y1 = leaves[idx]
        frac = rng.uniform(CUT_FRACTION_LO, CUT_FRACTION_HI)
        if (x1 - x0) >= (y1 - y0):
            xc = x0 + frac * (x1 - x0)
            leaves[idx : idx + 1] = [(x0, y0, xc, y1), (xc, y0, x1, y1)]
        else:
            yc = y0 + frac * (y1 - y0)
            leaves[idx : idx + 1] = [(x0, y0, x1, yc), (x0, yc, x1, y1)]
        areas[idx : idx + 1] = [(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in leaves[idx : idx + 2]]
        acc[idx:] = itertools.accumulate(areas[idx:], initial=acc[idx])
    sides = [(x1 - x0, y1 - y0) for x0, y0, x1, y1 in leaves]
    placements = tuple(Placement(x0, y0, x1, y1) for x0, y0, x1, y1 in leaves)
    return Instance.from_sides(sides, box), Layout(placements)


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
    placements = tuple(Placement(x, y, x + s, y + s) for s, x, y in squares)
    inst = Instance.from_sides([(s, s) for s, _, _ in squares], BoxSpec(32, 33))
    return inst, Layout(placements)
