"""Exhaustive packing decisions for small integer instances.

The search places the next rectangle so that its lower-left corner covers the
lowest-leftmost empty cell; every perfect packing must cover that cell with
some rectangle's lower-left corner, so trying each unused rectangle there (in
both orientations when rotation is allowed) is complete.  Occupancy lives in
a single integer bitmask, which caps tractable boxes at 64 cells.

The first witness found under the fixed iteration order (ascending rect
position, given orientation before the rotated one) is canonical, so
repeated calls return identical layouts.
"""

from __future__ import annotations

from .instances import BoxSpec, Instance, Layout, Number, Placement, _exact

__all__ = ["oracle_feasible", "enumerate_small_family"]

CELL_BUDGET = 64
FAMILY_CAP = 4


def _as_int(value: Number, what: str) -> int:
    """value as a Python int; RectSpec already rules out bools and sides <= 0."""
    try:
        out = _exact(value)
    except ValueError:
        out = None
    if type(out) is not int:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return out


def oracle_feasible(inst: Instance) -> tuple[bool, Layout | None]:
    """Decide perfect packability of a small integer instance by exhaustive
    search; every side must be whole, numpy integers included.  On success
    the returned witness layout has integer coordinates and passes exact
    verification."""
    a = _as_int(inst.box.width, "box width")
    b = _as_int(inst.box.height, "box height")
    if a * b > CELL_BUDGET:
        raise ValueError(f"cell budget exceeded: {a}x{b} box has more than {CELL_BUDGET} cells")
    sides = [
        (_as_int(r.width, f"rect {i} width"), _as_int(r.height, f"rect {i} height"))
        for i, r in enumerate(inst.rects, start=1)
    ]
    if sum(w * h for w, h in sides) != a * b:
        return False, None

    n = len(sides)
    full = (1 << (a * b)) - 1  # cells row-major from the bottom-left

    def rect_mask(w: int, h: int, x: int, y: int) -> int | None:
        if x + w > a or y + h > b:
            return None
        row = ((1 << w) - 1) << x
        mask = 0
        for r in range(y, y + h):
            mask |= row << (r * a)
        return mask

    used = [False] * n
    witness: list[tuple[int, int, int, int] | None] = [None] * n

    def dfs(occ: int) -> bool:
        if occ == full:
            return True
        free = ~occ & full
        cell = (free & -free).bit_length() - 1
        y, x = divmod(cell, a)
        tried: set[tuple[int, int]] = set()
        for i in range(n):
            if used[i]:
                continue
            w, h = sides[i]
            orientations = [(w, h)]
            if inst.rotation_allowed and w != h:
                orientations.append((h, w))
            for ow, oh in orientations:
                if (ow, oh) in tried:
                    continue
                tried.add((ow, oh))
                mask = rect_mask(ow, oh, x, y)
                if mask is None or mask & occ:
                    continue
                used[i] = True
                witness[i] = (x, y, ow, oh)
                if dfs(occ | mask):
                    return True
                used[i] = False
                witness[i] = None
        return False

    if not dfs(0):
        return False, None
    placements = tuple(
        Placement(x, y, x + w, y + h) for x, y, w, h in witness  # type: ignore[misc]
    )
    return True, Layout(placements)


def enumerate_small_family(max_box: int = FAMILY_CAP, max_side: int = FAMILY_CAP):
    """Yield every instance with integer box sides A <= B <= max_box and a
    multiset of integer rectangles (sides <= max_side, normalized w <= h)
    whose total area equals the box area.

    Emission order is deterministic: boxes ascending, rect multisets in
    lexicographic order.  Geometric feasibility is NOT implied; the family
    deliberately contains area-exact but unpackable multisets.
    """
    if not (1 <= max_box <= FAMILY_CAP):
        raise ValueError(f"max_box must be in 1..{FAMILY_CAP}, got {max_box}")
    if not (1 <= max_side <= FAMILY_CAP):
        raise ValueError(f"max_side must be in 1..{FAMILY_CAP}, got {max_side}")
    shapes = [(w, h) for w in range(1, max_side + 1) for h in range(w, max_side + 1)]
    for a in range(1, max_box + 1):
        for b in range(a, max_box + 1):
            target = a * b
            stack: list[tuple[int, int]] = []

            def rec(start: int, remaining: int):
                if remaining == 0:
                    yield Instance.from_sides(stack, BoxSpec(a, b))
                    return
                for idx in range(start, len(shapes)):
                    w, h = shapes[idx]
                    if w * h > remaining:
                        continue
                    stack.append((w, h))
                    yield from rec(idx, remaining - w * h)
                    stack.pop()

            yield from rec(0, target)
