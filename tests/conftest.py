"""Shared fixtures and independent oracles used across the test modules.

The finite-difference Jacobian and the nested-loop residual deliberately
avoid the vectorized code paths under test; they are slow, obvious, and
serve as the ground truth the fast implementations are checked against.
"""

from __future__ import annotations

import numpy as np
import pytest

from momentpack import BoxSpec, Instance, gen_guillotine, squared_rectangle_32x33
from momentpack import moments as mo

# Boxes cycled through when building guillotine corpora; mixed aspect ratios
# so normalization (scale = max side) is exercised off the unit square.
CORPUS_BOXES = (
    BoxSpec(1.0, 1.0),
    BoxSpec(10.0, 7.0),
    BoxSpec(3.0, 8.0),
    BoxSpec(5.0, 5.0),
)


def guillotine_corpus(count: int, base_seed: int = 0, max_cuts: int = 20):
    """Deterministic list of (instance, layout) guillotine fixtures."""
    out = []
    for k in range(count):
        seed = base_seed + k
        box = CORPUS_BOXES[seed % len(CORPUS_BOXES)]
        out.append(gen_guillotine(seed, seed % max_cuts, box))
    return out


def fd_jacobian(
    sys: mo.MomentSystem, x: np.ndarray, step: float = 1e-6, sides: np.ndarray | None = None
) -> np.ndarray:
    """Central-difference Jacobian of the stacked residual, the rectangles
    placed with sides (the given ones when None)."""
    x = np.asarray(x, dtype=float)
    m = sys.equation_count
    jac = np.empty((m, x.size))
    for j in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (
            mo.residual(sys, hi, sides) - mo.residual(sys, lo, sides)
        ) / (2 * step)
    return jac


def row_sides(sys: mo.MomentSystem, mode: str, rng: np.random.Generator, rows=None) -> np.ndarray:
    """Sides to place the rectangles with: the given ones in fixed mode, and
    in rotatable mode each rectangle turned or not by a draw from rng, one
    draw per rectangle and row (none in fixed mode).  (n, 2) when rows is
    None, else (rows, n, 2)."""
    shape = (sys.n_rects, 1) if rows is None else (rows, sys.n_rects, 1)
    turn = rng.integers(0, 2, size=shape) == 1 if mode == mo.ROTATABLE else np.zeros(shape, bool)
    return np.where(turn, sys.sides[:, ::-1], sys.sides)


def turned_back(inst, turn, max_order=None):
    """The system of inst with each rectangle where turn is true given with
    its sides swapped, and the (n, 2) sides that turn those back, placing
    every rectangle as inst gives it."""
    given = [(r.height, r.width) if t else (r.width, r.height) for r, t in zip(inst.rects, turn)]
    sys = mo.build_system(Instance.from_sides(given, inst.box), max_order)
    return sys, np.where(np.asarray(turn)[:, None], sys.sides[:, ::-1], sys.sides)


@pytest.fixture(scope="session")
def squared32():
    return squared_rectangle_32x33()


@pytest.fixture(scope="session")
def small_corpus():
    return guillotine_corpus(8, base_seed=40, max_cuts=7)


@pytest.fixture(scope="session")
def fd_jac():
    return fd_jacobian
